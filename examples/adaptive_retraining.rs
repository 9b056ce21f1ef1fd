//! Online adaptation (extension beyond the paper): arm the configuration's
//! `AdaptPlan` (`IcgmmConfig::adapt`) — drift detection plus incremental
//! EM refits during the run — and compare against the paper's frozen
//! offline model on a workload with phase drift.
//!
//! Run with: `cargo run --release --example adaptive_retraining`

use icgmm::experiment::run_static_vs_adaptive;
use icgmm::report::{f, format_table};
use icgmm::{AdaptPlan, Icgmm, IcgmmConfig, PolicyMode};
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::{MemtierWorkload, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Memtier with slow popularity rotation: the hot key range jumps every
    // 130k requests, so a deployment-time model goes stale over the run.
    let workload = MemtierWorkload {
        phase_len: 130_000,
        rotate_keys: 120_000,
        ..MemtierWorkload::default()
    };
    let trace = workload.generate(400_000, 17);

    let cfg = IcgmmConfig {
        em: EmConfig {
            k: 48,
            ..Default::default()
        },
        admission_quantile: 0.015,
        max_train_cells: 40_000,
        ..IcgmmConfig::default()
    };
    let mode = PolicyMode::GmmEvictionOnly;

    // Realistic deployment: the model is frozen at deployment time — it has
    // only seen the first phases of the workload. Both arms start from that
    // model; the adaptive arm refits it whenever the drift detector fires.
    let armed = IcgmmConfig {
        adapt: AdaptPlan::drifty(7),
        ..cfg
    };
    let cmp = run_static_vs_adaptive(&trace, armed, mode, 140_000)?;

    // Oracle: trained on the *whole* trace — with the timestamp feature it
    // effectively knows the rotation schedule in advance (train == test).
    let mut oracle = Icgmm::new(cfg)?;
    oracle.fit(&trace)?;
    let oracle_run = oracle.run(&trace, mode)?;
    let lru = oracle.run(&trace, PolicyMode::Lru)?;

    let row = |name: &str, miss: f64, avg: f64, refits: String| {
        vec![name.to_string(), f(miss, 2), f(avg, 2), refits]
    };
    let (frozen, adaptive) = (&cmp.static_run, &cmp.adaptive_run);
    println!(
        "{}",
        format_table(
            &["policy", "miss %", "avg µs", "refits"],
            &[
                row("lru", lru.miss_rate_pct(), lru.avg_us(), "-".into()),
                row(
                    "gmm (frozen at deploy)",
                    frozen.miss_rate_pct(),
                    frozen.avg_us(),
                    "0".into()
                ),
                row(
                    "gmm (adaptive)",
                    adaptive.miss_rate_pct(),
                    adaptive.avg_us(),
                    adaptive.sim.adapt.refits.to_string(),
                ),
                row(
                    "gmm (oracle, full trace)",
                    oracle_run.miss_rate_pct(),
                    oracle_run.avg_us(),
                    "0".into(),
                ),
            ],
        )
    );
    println!(
        "adaptive arm: {} drift checks, {} drifts, {} scorer swaps; {:+.2} miss pts vs frozen",
        adaptive.sim.adapt.checks,
        adaptive.sim.adapt.drifts,
        adaptive.sim.adapt.swaps,
        cmp.miss_improvement_pts()
    );
    println!("Finding: the refit loop chases the rotation from a deployment-time");
    println!("model toward the full-trace oracle (watch avg latency: frozen pays for");
    println!("stale pinned pages). When drift outpaces the check cadence, recency");
    println!("(LRU) remains competitive — `AdaptPlan::check_interval` is a real");
    println!("deployment knob the paper's offline-only training leaves open.");
    Ok(())
}
