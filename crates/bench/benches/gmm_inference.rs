//! Criterion bench: GMM score latency — the software side of Table 2's
//! latency column, extended with the SoA batch-scoring kernel.
//!
//! Groups at K = 256 (the paper's component count):
//!
//! * `seed_scalar_k256` — the pre-scorer implementation (per-call `Vec`,
//!   per-component `ln π_k`, array-of-structs walk), kept here as the
//!   regression baseline the ≥5× batched-speedup target is measured
//!   against;
//! * `scalar_k256` — `Gmm::density` via the allocation-free SoA kernel on
//!   a *dense* synthetic mixture (every component overlaps its
//!   neighbours, about half the lane groups hold a term above the cut);
//! * `scalar_sparse_k256` — the same call on a mixture whose components
//!   have σ ≈ 1 % of the span, scattered in no particular order: the
//!   regime fitted (page, time) models are in, where the near-set skip
//!   must pay (CI gates it at ≥ 1.2× the dense case's rate);
//! * `window_sparse_k256` — the sparse mixture scored through one
//!   [`TimeSlice`] over the same pages in runs of 32 that share one time
//!   coordinate, as the misses of an Algorithm 1 window do: each run's
//!   second point builds the time halves and the other 30 keep them (CI
//!   gates it against `scalar_sparse_k256` in the same run);
//! * `batched_k256` / `parallel_k256` — `GmmScorer::score_batch` (a loop
//!   over the same kernel) and its scoped-thread-parallel variant, reported
//!   per point via `Throughput::Elements`;
//! * `f64` / `fixed` — the historical scalar comparison across K.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use icgmm_gmm::fixed::FixedGmm;
use icgmm_gmm::{Gaussian2, Gmm, GmmScorer, Mat2, TimeSlice};
use std::hint::black_box;

fn build_gmm(k: usize) -> Gmm {
    let comps: Vec<Gaussian2> = (0..k)
        .map(|i| {
            let t = i as f64 / k as f64;
            Gaussian2::new(
                [t * 10.0 - 5.0, (t * std::f64::consts::TAU).sin()],
                Mat2::new(0.05 + t * 0.1, 0.01, 0.08),
            )
            .expect("valid component")
        })
        .collect();
    Gmm::new(vec![1.0 / k as f64; k], comps).expect("valid mixture")
}

/// K components with σ = 0.1 on both axes over the same 10-wide span as
/// [`build_gmm`], placed by two irrational strides so neither axis is
/// sorted in component order.
fn build_sparse_gmm(k: usize) -> Gmm {
    let comps: Vec<Gaussian2> = (0..k)
        .map(|i| {
            let (u, v) = (
                i as f64 * 0.618_033_988_749_895,
                i as f64 * std::f64::consts::SQRT_2,
            );
            Gaussian2::new(
                [u.fract() * 10.0 - 5.0, v.fract() * 4.0 - 2.0],
                Mat2::new(0.01, 0.002, 0.01),
            )
            .expect("valid component")
        })
        .collect();
    Gmm::new(vec![1.0 / k as f64; k], comps).expect("valid mixture")
}

/// The seed's original `Gmm::log_density`: heap-allocates a K-element
/// `Vec`, recomputes `ln π_k` per component, walks `Vec<Gaussian2>`.
fn seed_scalar_density(gmm: &Gmm, x: [f64; 2]) -> f64 {
    let logs: Vec<f64> = gmm
        .weights()
        .iter()
        .zip(gmm.components())
        .map(|(w, c)| {
            if *w == 0.0 {
                f64::NEG_INFINITY
            } else {
                w.ln() + c.log_pdf(x)
            }
        })
        .collect();
    let m = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return 0.0;
    }
    let s: f64 = logs.iter().map(|v| (v - m).exp()).sum();
    (m + s.ln()).exp()
}

fn probe_points(n: usize) -> Vec<[f64; 2]> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            [t * 12.0 - 6.0, (t * 12.9898).sin() * 2.0]
        })
        .collect()
}

fn bench_scalar_vs_batched(c: &mut Criterion) {
    const K: usize = 256;
    const BATCH: usize = 4_096;
    let gmm = build_gmm(K);
    let scorer = GmmScorer::from_gmm(&gmm);
    let points = probe_points(BATCH);
    let mut out = vec![0.0; BATCH];

    let mut group = c.benchmark_group("gmm_inference");
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("seed_scalar_k256", |b| {
        b.iter(|| {
            for x in &points {
                black_box(seed_scalar_density(&gmm, black_box(*x)));
            }
        })
    });
    group.bench_function("scalar_k256", |b| {
        b.iter(|| {
            for x in &points {
                black_box(gmm.density(black_box(*x)));
            }
        })
    });
    let sparse = build_sparse_gmm(K);
    group.bench_function("scalar_sparse_k256", |b| {
        b.iter(|| {
            for x in &points {
                black_box(sparse.density(black_box(*x)));
            }
        })
    });
    let sparse_scorer = sparse.scorer();
    let windowed: Vec<[f64; 2]> = (0..BATCH)
        .map(|i| [points[i][0], points[i / 32 * 32][1]])
        .collect();
    let mut slice = TimeSlice::default();
    group.bench_function("window_sparse_k256", |b| {
        b.iter(|| {
            for x in &windowed {
                black_box(
                    sparse_scorer
                        .log_density_in(black_box(*x), &mut slice)
                        .exp(),
                );
            }
        })
    });
    group.bench_function("batched_k256", |b| {
        b.iter(|| scorer.score_batch(black_box(&points), black_box(&mut out)))
    });
    group.bench_function("parallel_k256", |b| {
        b.iter(|| scorer.score_batch_parallel(black_box(&points), black_box(&mut out), 0))
    });
    group.finish();
}

fn bench_gmm_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("gmm_inference");
    for k in [64usize, 256, 1024] {
        let gmm = build_gmm(k);
        let fx = FixedGmm::from_gmm(&gmm).expect("quantizable");
        group.bench_with_input(BenchmarkId::new("f64", k), &k, |b, _| {
            b.iter(|| black_box(gmm.score(black_box([0.3, -0.2]))))
        });
        group.bench_with_input(BenchmarkId::new("fixed", k), &k, |b, _| {
            b.iter(|| black_box(fx.score(black_box([0.3, -0.2]))))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_scalar_vs_batched, bench_gmm_inference
}
criterion_main!(benches);
