//! Criterion bench: end-to-end fit+run pipeline on a reduced workload
//! (regression guard for total harness cost), plus the per-miss
//! policy-engine scoring cost over a realistic miss window.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_cache::ScoreSource;
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::WorkloadKind;
use std::hint::black_box;

fn bench_end_to_end(c: &mut Criterion) {
    let trace = WorkloadKind::Memtier
        .default_workload()
        .generate(100_000, 11);
    let cfg = IcgmmConfig {
        em: EmConfig {
            k: 32,
            max_iters: 15,
            ..Default::default()
        },
        max_train_cells: 30_000,
        ..Default::default()
    };

    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("fit_memtier_100k_k32", |b| {
        b.iter(|| {
            let mut sys = Icgmm::new(cfg).expect("valid config");
            black_box(sys.fit(black_box(&trace)).expect("fit"));
        })
    });

    let mut sys = Icgmm::new(cfg).expect("valid config");
    sys.fit(&trace).expect("fit");
    group.bench_function("run_gmm_both_memtier_100k", |b| {
        b.iter(|| black_box(sys.run(black_box(&trace), PolicyMode::GmmCachingEviction)))
    });
    group.bench_function("run_lru_memtier_100k", |b| {
        b.iter(|| black_box(sys.run(black_box(&trace), PolicyMode::Lru)))
    });
    group.finish();

    // Policy-engine scoring over one miss window — the per-miss cost the
    // GMM modes pay inside `run`.
    let window = &trace.records()[..8_192];
    let mut scoring = c.benchmark_group("policy_engine_scoring");
    scoring.throughput(Throughput::Elements(window.len() as u64));
    scoring.bench_function("streaming_8k_window", |b| {
        let mut engine = sys.policy_engine().expect("fitted");
        b.iter(|| {
            for (pos, r) in (0u64..).zip(window) {
                black_box(engine.score(black_box(r), pos));
            }
        })
    });
    scoring.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
