//! Extension ablations for the design choices DESIGN.md calls out:
//!
//! 1. admission-threshold quantile sweep (the paper's unpublished knob),
//! 2. GMM component count K (accuracy/latency/area trade-off),
//! 3. `len_access_shot` (Algorithm 1 periodicity),
//! 4. SSD device class (TLC vs Z-NAND vs QLC),
//! 5. cache size sweep,
//! 6. fixed-point vs f64 inference.
//!
//! One benchmark per ablation keeps the run minutes-scale; `--quick`
//! shrinks it further.
//!
//! Usage: `cargo run -p icgmm-bench --release --bin ablation [--quick]`

use icgmm::benchmarks::BenchmarkSpec;
use icgmm::report::{f, format_table};
use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_bench::{banner, Scale};
use icgmm_cache::{CacheConfig, LatencyModel};
use icgmm_gmm::{EmConfig, ThresholdConfig};
use icgmm_trace::synth::WorkloadKind;
use icgmm_trace::{PreprocessConfig, Trace};

fn spec_for(scale: Scale, kind: WorkloadKind) -> (BenchmarkSpec, IcgmmConfig, Trace) {
    let spec = scale
        .suite()
        .into_iter()
        .find(|s| s.kind == kind)
        .expect("kind in suite");
    let cfg = scale.config(&spec);
    let trace = spec.workload().generate(spec.requests, spec.seed);
    (spec, cfg, trace)
}

fn run_pair(cfg: IcgmmConfig, trace: &Trace, mode: PolicyMode) -> (f64, f64) {
    let mut sys = Icgmm::new(cfg).expect("valid config");
    if mode.uses_gmm() {
        sys.fit(trace).expect("training succeeds");
    }
    let rep = sys.run(trace, mode).expect("run succeeds");
    (rep.miss_rate_pct(), rep.avg_us())
}

fn main() {
    let scale = Scale::from_args();

    // 1. Threshold quantile sweep on stream (the most filter-sensitive).
    banner("ablation 1 — admission quantile sweep (stream, gmm-both)");
    let (_, base_cfg, trace) = spec_for(scale, WorkloadKind::Stream);
    let mut rows = Vec::new();
    for q in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let cfg = IcgmmConfig {
            threshold: ThresholdConfig { quantile: q },
            ..base_cfg
        };
        let (miss, avg) = run_pair(cfg, &trace, PolicyMode::GmmCachingEviction);
        rows.push(vec![f(q, 2), f(miss, 2), f(avg, 2)]);
        eprintln!("[ablation] quantile {q} done");
    }
    let (lru_miss, lru_avg) = run_pair(base_cfg, &trace, PolicyMode::Lru);
    rows.push(vec!["lru".into(), f(lru_miss, 2), f(lru_avg, 2)]);
    println!("{}", format_table(&["quantile", "miss %", "avg µs"], &rows));

    // 2. K sweep on memtier.
    banner("ablation 2 — GMM component count K (memtier, gmm-both)");
    let (_, base_cfg, trace) = spec_for(scale, WorkloadKind::Memtier);
    let mut rows = Vec::new();
    for k in [16usize, 64, 256] {
        let cfg = IcgmmConfig {
            em: EmConfig { k, ..base_cfg.em },
            ..base_cfg
        };
        let (miss, avg) = run_pair(cfg, &trace, PolicyMode::GmmCachingEviction);
        let lat = icgmm_hw::GmmEngineModel::with_k(k).latency_us();
        rows.push(vec![k.to_string(), f(miss, 2), f(avg, 2), f(lat, 2)]);
        eprintln!("[ablation] K={k} done");
    }
    println!(
        "{}",
        format_table(&["K", "miss %", "avg µs", "engine latency µs"], &rows)
    );

    // 3. Access-shot length (Algorithm 1 periodicity) on parsec.
    banner("ablation 3 — len_access_shot (parsec, gmm-eviction)");
    let (_, base_cfg, trace) = spec_for(scale, WorkloadKind::Parsec);
    let mut rows = Vec::new();
    for shot in [1_000u32, 10_000, 100_000] {
        let cfg = IcgmmConfig {
            preprocess: PreprocessConfig {
                len_access_shot: shot,
                ..base_cfg.preprocess
            },
            ..base_cfg
        };
        let (miss, avg) = run_pair(cfg, &trace, PolicyMode::GmmEvictionOnly);
        rows.push(vec![shot.to_string(), f(miss, 2), f(avg, 2)]);
        eprintln!("[ablation] shot {shot} done");
    }
    println!(
        "{}",
        format_table(&["len_access_shot", "miss %", "avg µs"], &rows)
    );

    // 4. SSD device class on hashmap (write-back sensitive).
    banner("ablation 4 — SSD device class (hashmap, lru vs gmm-both)");
    let (_, base_cfg, trace) = spec_for(scale, WorkloadKind::Hashmap);
    let mut rows = Vec::new();
    for (name, lat) in [
        ("z-nand 10/100", LatencyModel::low_latency_ssd()),
        ("tlc 75/900", LatencyModel::paper_tlc()),
        ("qlc 150/2200", LatencyModel::qlc_ssd()),
    ] {
        let cfg = IcgmmConfig {
            latency: lat,
            ..base_cfg
        };
        let (_, lru) = run_pair(cfg, &trace, PolicyMode::Lru);
        let (_, gmm) = run_pair(cfg, &trace, PolicyMode::GmmCachingEviction);
        rows.push(vec![
            name.into(),
            f(lru, 2),
            f(gmm, 2),
            f((1.0 - gmm / lru) * 100.0, 2),
        ]);
        eprintln!("[ablation] ssd {name} done");
    }
    println!(
        "{}",
        format_table(
            &["device", "lru avg µs", "gmm avg µs", "reduction %"],
            &rows
        )
    );

    // 5. Cache size sweep on dlrm.
    banner("ablation 5 — cache size (dlrm, lru vs gmm-both)");
    let (_, base_cfg, trace) = spec_for(scale, WorkloadKind::Dlrm);
    let mut rows = Vec::new();
    for mib in [16u64, 64, 256] {
        let cfg = IcgmmConfig {
            cache: CacheConfig {
                capacity_bytes: mib * 1024 * 1024,
                ..base_cfg.cache
            },
            ..base_cfg
        };
        let (lru_miss, _) = run_pair(cfg, &trace, PolicyMode::Lru);
        let (gmm_miss, _) = run_pair(cfg, &trace, PolicyMode::GmmCachingEviction);
        rows.push(vec![format!("{mib} MiB"), f(lru_miss, 2), f(gmm_miss, 2)]);
        eprintln!("[ablation] cache {mib} MiB done");
    }
    println!(
        "{}",
        format_table(&["cache", "lru miss %", "gmm miss %"], &rows)
    );

    // 6. Fixed-point vs f64 inference on sysbench.
    banner("ablation 6 — fixed-point (FPGA) vs f64 inference (sysbench)");
    let (_, base_cfg, trace) = spec_for(scale, WorkloadKind::Sysbench);
    let (f64_miss, f64_avg) = run_pair(base_cfg, &trace, PolicyMode::GmmCachingEviction);
    let fx_cfg = IcgmmConfig {
        fixed_point_inference: true,
        ..base_cfg
    };
    let (fx_miss, fx_avg) = run_pair(fx_cfg, &trace, PolicyMode::GmmCachingEviction);
    println!(
        "{}",
        format_table(
            &["datapath", "miss %", "avg µs"],
            &[
                vec!["f64".into(), f(f64_miss, 2), f(f64_avg, 2)],
                vec!["fixed Q39.24".into(), f(fx_miss, 2), f(fx_avg, 2)],
            ],
        )
    );
    println!("Expected: quantization changes policy decisions marginally (<0.5% miss).");
}
