//! Criterion bench: cycle-approximate dataflow replay — the explicit
//! streaming loop, the default entry point, and the speculative
//! miss-window batcher under the timing model.
//!
//! CI gates (`perf_gate`, same runner, same run) the **default entry
//! point** (`run_dataflow_with_warmup`, what `Icgmm::run_dataflow`
//! reaches) at ≥ 0.95× of `run_dataflow_streaming_with_warmup` on both
//! workloads: routing must never lose to streaming. The `batched_*` cases
//! keep measuring the speculative path (engine wrapped in
//! `PreferBatching`) and are archived, **not gated** — their old ≥ 2× /
//! ≥ 1× gates assumed a 4.5× single-point/batched kernel gap that no
//! longer exists.
//!
//! Mirrors the `sim_batch` workloads: an 8 k-request all-miss scan and a
//! Zipf(0.9) interleave. The modeled `DataflowReport` is bit-identical
//! between the replay engines (property-enforced in `icgmm-hw`); only the
//! host wall-clock measured here differs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use icgmm_bench::{hand_engine, scan_trace, zipf_trace};
use icgmm_cache::{
    CacheConfig, LruPolicy, PreferBatching, ScoreSource, SpecParams, ThresholdAdmit,
};
use icgmm_hw::{
    run_dataflow_batched_with_warmup, run_dataflow_streaming_with_warmup, run_dataflow_with_warmup,
    DataflowConfig,
};
use icgmm_trace::TraceRecord;
use std::hint::black_box;

const K: usize = 256;
const WINDOW: usize = 4096;
const REQUESTS: usize = 8192;

fn cache_cfg() -> CacheConfig {
    // 512 blocks / 8-way: small enough that per-iteration construction is
    // noise, large enough for realistic set pressure.
    CacheConfig {
        capacity_bytes: 512 * 4096,
        block_bytes: 4096,
        ways: 8,
    }
}

/// Which replay engine a case times (see `sim_batch`).
#[derive(Clone, Copy)]
enum Replay {
    Streaming,
    Default,
    Speculative,
}

fn bench_dataflow(c: &mut Criterion) {
    let eng = hand_engine(K, REQUESTS);
    let scan = scan_trace(REQUESTS);
    let zipf = zipf_trace(REQUESTS);
    let cfg = cache_cfg();
    let df_cfg = DataflowConfig::default();

    let mut group = c.benchmark_group("dataflow");
    group.sample_size(12);
    group.throughput(Throughput::Elements(REQUESTS as u64));

    let cases: [(&str, &[TraceRecord], Replay); 6] = [
        ("streaming_scan_k256", &scan, Replay::Streaming),
        ("default_scan_k256", &scan, Replay::Default),
        ("batched_scan_k256_w4096", &scan, Replay::Speculative),
        ("streaming_zipf_k256", &zipf, Replay::Streaming),
        ("default_zipf_k256", &zipf, Replay::Default),
        ("batched_zipf_k256_w4096", &zipf, Replay::Speculative),
    ];
    for (name, trace, replay) in cases {
        group.bench_function(name, |b| {
            let mut e = PreferBatching(eng.clone());
            b.iter(|| {
                e.0.reset();
                let mut lru = LruPolicy::new(cfg.num_sets(), cfg.ways);
                let mut adm = ThresholdAdmit::new(f64::NEG_INFINITY);
                let trace = black_box(trace);
                let plain = Some(&mut e.0 as &mut dyn ScoreSource);
                black_box(
                    match replay {
                        Replay::Streaming => run_dataflow_streaming_with_warmup(
                            &[],
                            trace,
                            cfg,
                            &mut adm,
                            &mut lru,
                            plain,
                            &df_cfg,
                        ),
                        Replay::Default => run_dataflow_with_warmup(
                            &[],
                            trace,
                            cfg,
                            &mut adm,
                            &mut lru,
                            plain,
                            &df_cfg,
                        ),
                        Replay::Speculative => run_dataflow_batched_with_warmup(
                            &[],
                            trace,
                            cfg,
                            &mut adm,
                            &mut lru,
                            Some(&mut e as &mut dyn ScoreSource),
                            &df_cfg,
                            SpecParams::with_window(WINDOW),
                        ),
                    }
                    .expect("valid geometry"),
                )
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_dataflow);
criterion_main!(benches);
