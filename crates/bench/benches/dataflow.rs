//! Criterion bench: cycle-approximate dataflow replay — the streaming
//! loop with the timing-model observer attached. Archived, not gated.
//!
//! Mirrors the `sim_batch` workloads: an 8 k-request all-miss scan and a
//! Zipf(0.9) interleave.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use icgmm_bench::{hand_engine, scan_trace, zipf_trace};
use icgmm_cache::{CacheConfig, LruPolicy, ScoreSource, ThresholdAdmit};
use icgmm_hw::{run_dataflow, DataflowConfig};
use icgmm_trace::TraceRecord;
use std::hint::black_box;

const K: usize = 256;
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

fn bench_dataflow(c: &mut Criterion) {
    let eng = hand_engine(K, REQUESTS);
    let scan = scan_trace(REQUESTS);
    let zipf = zipf_trace(REQUESTS);
    let cfg = cache_cfg();
    let df_cfg = DataflowConfig::default();

    let mut group = c.benchmark_group("dataflow");
    group.sample_size(12);
    group.throughput(Throughput::Elements(REQUESTS as u64));

    let cases: [(&str, &[TraceRecord]); 2] = [
        ("streaming_scan_k256", &scan),
        ("streaming_zipf_k256", &zipf),
    ];
    for (name, trace) in cases {
        group.bench_function(name, |b| {
            let mut e = eng.clone();
            b.iter(|| {
                e.reset();
                let mut lru = LruPolicy::new(cfg.num_sets(), cfg.ways);
                let mut adm = ThresholdAdmit::new(f64::NEG_INFINITY);
                black_box(
                    run_dataflow(
                        black_box(trace),
                        cfg,
                        &mut adm,
                        &mut lru,
                        Some(&mut e as &mut dyn ScoreSource),
                        &df_cfg,
                    )
                    .expect("valid geometry"),
                )
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_dataflow);
criterion_main!(benches);
