//! Criterion bench: the online-adaptation loop — the numbers behind
//! `BENCH_adapt.json` and CI's adaptation gates.
//!
//! Two scenario families at the serving scale K = 64:
//!
//! * the refit kernel in isolation: one incremental E/M pass over a
//!   reservoir-sized batch (`refit_incremental_k64`) against a cold
//!   from-scratch EM fit of the same batch (`fit_cold_k64`) — the cost a
//!   drift repair actually pays vs the cost it avoids — and, at the
//!   paper's K = 256, the same refit (`refit_incremental_k256`) against
//!   one batch-scoring pass over the same points (`score_batch_k256`):
//!   the E-step shares the scoring kernel, so a refit must stay within a
//!   small multiple of scoring its own batch;
//! * full replay overhead: the multi-tenant trace through the static
//!   engine (`replay_static_k64`) vs the same trace through an armed
//!   adaptive wrapper whose trigger is held off
//!   (`replay_heldoff_k64`) — a refit producer thread buffering and
//!   checking beside the replay, zero refits, and the replay taking its
//!   decisions at each boundary, i.e. the wall-clock tax of arming the
//!   loop. Both sides replay through `run_sharded` at `sim_shards = 1`:
//!   `Icgmm::run` would fan the static side out to two shards and keep
//!   the armed side on one shard, and the pair would stop measuring the
//!   wrapper.
//!
//! CI gates the replay pair (held-off adaptation must stay within noise
//! of the static path), the refit-vs-cold-fit pair and the
//! refit-vs-scoring pair;
//! the static-vs-adaptive miss rates are asserted by
//! `tests/adapt_miss_rates.rs`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use icgmm::{AdaptPlan, Icgmm, IcgmmConfig, PolicyMode};
use icgmm_cache::CacheConfig;
use icgmm_gmm::{EmConfig, EmTrainer, IncrementalEm, Vec2};
use icgmm_trace::synth::{MultiTenantWorkload, Workload};
use icgmm_trace::PreprocessConfig;
use std::hint::black_box;

const K: usize = 64;
const REQUESTS: usize = 20_000;
const BATCH: usize = 2_048;

fn em_cfg() -> EmConfig {
    EmConfig {
        k: K,
        max_iters: 15,
        ..Default::default()
    }
}

/// The paper's component count, for the refit-vs-scoring pair.
fn em_cfg_k256() -> EmConfig {
    EmConfig { k: 256, ..em_cfg() }
}

/// A reservoir-sized feature batch shaped like the scaled `(page, time)`
/// plane: a few popularity clusters drifting along the time axis.
fn feature_batch(seed: u64) -> Vec<Vec2> {
    let mut state = seed | 1;
    let mut unit = move || {
        // splitmix-style step, mapped to [0, 1).
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..BATCH)
        .map(|i| {
            let cluster = (i % 5) as f64;
            [
                cluster - 2.0 + 0.3 * (unit() - 0.5),
                i as f64 / BATCH as f64 * 2.0 - 1.0 + 0.2 * (unit() - 0.5),
            ]
        })
        .collect()
}

fn replay_cfg() -> IcgmmConfig {
    IcgmmConfig {
        cache: CacheConfig {
            capacity_bytes: 512 * 4096,
            block_bytes: 4096,
            ways: 8,
        },
        em: em_cfg(),
        preprocess: PreprocessConfig {
            len_window: 32,
            len_access_shot: 1_000,
            ..Default::default()
        },
        max_train_cells: 20_000,
        ..Default::default()
    }
}

fn tenant_trace() -> icgmm_trace::Trace {
    MultiTenantWorkload {
        tenants: 12,
        pages_per_tenant: 3_000,
        phase_len: 1_500,
        ..Default::default()
    }
    .generate(REQUESTS, 4242)
}

fn bench_adapt(c: &mut Criterion) {
    let xs = feature_batch(7);
    let trainer = EmTrainer::new(em_cfg()).expect("valid config");
    let (gmm, _) = trainer.fit(&xs, &[]).expect("baseline fit");
    let incremental = IncrementalEm::new(&gmm, em_cfg(), 0.6).expect("valid state");
    let (gmm256, _) = EmTrainer::new(em_cfg_k256())
        .expect("valid config")
        .fit(&xs, &[])
        .expect("K = 256 fit");
    let incremental256 = IncrementalEm::new(&gmm256, em_cfg_k256(), 0.6).expect("valid state");

    let trace = tenant_trace();
    let mut static_sys = Icgmm::new(replay_cfg()).expect("valid config");
    static_sys.fit(&trace).expect("trains");
    let model = static_sys.model().expect("fitted").clone();
    let mut heldoff_cfg = replay_cfg();
    heldoff_cfg.adapt = AdaptPlan {
        drift_drop: f64::INFINITY,
        check_interval: 2_048,
        ..AdaptPlan::drifty(9)
    };
    let mut heldoff_sys = Icgmm::new(heldoff_cfg).expect("valid config");
    heldoff_sys.set_model(model);

    let mut group = c.benchmark_group("adapt");
    group.sample_size(12);

    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("refit_incremental_k64", |b| {
        b.iter(|| {
            let mut t = incremental.clone();
            black_box(t.refit(black_box(&xs), &[]).expect("refit"))
        })
    });
    group.bench_function("fit_cold_k64", |b| {
        b.iter(|| black_box(trainer.fit(black_box(&xs), &[]).expect("fit")))
    });
    group.bench_function("refit_incremental_k256", |b| {
        b.iter(|| {
            let mut t = incremental256.clone();
            black_box(t.refit(black_box(&xs), &[]).expect("refit"))
        })
    });
    group.bench_function("score_batch_k256", |b| {
        let mut out = vec![0.0; xs.len()];
        b.iter(|| {
            gmm256.score_batch(black_box(&xs), &mut out);
            black_box(out[0])
        })
    });

    group.throughput(Throughput::Elements(REQUESTS as u64));
    group.bench_function("replay_static_k64", |b| {
        b.iter(|| {
            black_box(
                static_sys
                    .run_sharded(black_box(&trace), PolicyMode::GmmCachingEviction)
                    .expect("replays"),
            )
        })
    });
    group.bench_function("replay_heldoff_k64", |b| {
        b.iter(|| {
            black_box(
                heldoff_sys
                    .run_sharded(black_box(&trace), PolicyMode::GmmCachingEviction)
                    .expect("replays"),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_adapt);
criterion_main!(benches);
