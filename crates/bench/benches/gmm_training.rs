//! Criterion bench: one EM fit on trace-shaped training cells (offline
//! training cost, paper §3.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use icgmm_gmm::{EmConfig, EmTrainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn training_cells(n: usize) -> (Vec<[f64; 2]>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(3);
    let xs: Vec<[f64; 2]> = (0..n)
        .map(|_| {
            let cluster = rng.gen_range(0..4) as f64;
            [
                cluster + rng.gen::<f64>() * 0.2,
                rng.gen::<f64>() * 2.0 - 1.0,
            ]
        })
        .collect();
    let ws: Vec<f64> = (0..n).map(|_| 1.0 + rng.gen::<f64>() * 9.0).collect();
    (xs, ws)
}

fn bench_em(c: &mut Criterion) {
    let mut group = c.benchmark_group("gmm_training");
    group.sample_size(10);
    let (xs, ws) = training_cells(10_000);
    for k in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("em_fit_10k_cells", k), &k, |b, &k| {
            let trainer = EmTrainer::new(EmConfig {
                k,
                max_iters: 10,
                ..Default::default()
            })
            .expect("valid config");
            b.iter(|| black_box(trainer.fit(black_box(&xs), black_box(&ws)).expect("fit")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_em);
criterion_main!(benches);
