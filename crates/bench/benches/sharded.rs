//! Criterion bench: sharded replay vs the single-threaded simulator —
//! the scaling story behind `BENCH_shard.json` and CI's no-regression
//! gate.
//!
//! Two scenario families at paper-scale K = 256:
//!
//! * an all-miss scan (every request scores) at shard
//!   counts {1, 2, 4, 8} against the unsharded `simulate` loop; and
//! * the multi-tenant pooled workload (16 tenants, Zipf-interleaved) —
//!   the trace shape sharding exists for.
//!
//! CI gates only the S = 1 pair: one shard replays inline on the calling
//! thread — no fan-out, no thread, no observer — so
//! it must sit at parity with the unsharded `simulate` (both sides are
//! set-up inclusive: a fresh engine clone per replay). Higher shard
//! counts are archived for trend tracking.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use icgmm::{GmmPolicyEngine, TrainedModel};
use icgmm_cache::{
    simulate, CacheConfig, LatencyModel, LruPolicy, ScoreSource, SetAssocCache, ShardPolicies,
    ShardedSimulator, ThresholdAdmit,
};
use icgmm_gmm::{Gaussian2, Gmm, Mat2, StandardScaler};
use icgmm_trace::synth::{MultiTenantWorkload, Workload};
use icgmm_trace::{PreprocessConfig, TraceRecord};
use std::hint::black_box;

const K: usize = 256;
const REQUESTS: usize = 8192;

fn build_model(k: usize) -> TrainedModel {
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
    TrainedModel {
        scaler: StandardScaler::fit(&[[0.0, 0.0], [REQUESTS as f64, 256.0]], &[1.0, 1.0]),
        gmm: Gmm::new(vec![1.0 / k as f64; k], comps).expect("valid mixture"),
        threshold: f64::NEG_INFINITY, // admit everything: no bypass noise
    }
}

fn engine(k: usize) -> GmmPolicyEngine {
    let pre = PreprocessConfig {
        len_window: 32,
        len_access_shot: 10_000,
        ..Default::default()
    };
    GmmPolicyEngine::new(&build_model(k), &pre, false).expect("engine builds")
}

fn cache_cfg() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 512 * 4096,
        block_bytes: 4096,
        ways: 8,
    }
}

/// Sequential scan: 8 k distinct pages, 100 % miss — the pure miss window.
fn scan_trace() -> Vec<TraceRecord> {
    (0..REQUESTS as u64)
        .map(|p| TraceRecord::read(p << 12))
        .collect()
}

/// The pooled multi-tenant interleave (16 tenants, per-tenant Zipf).
fn tenant_trace() -> Vec<TraceRecord> {
    MultiTenantWorkload {
        tenants: 16,
        pages_per_tenant: 2_048,
        ..Default::default()
    }
    .generate(REQUESTS, 4242)
    .into_records()
}

fn bench_sharded(c: &mut Criterion) {
    let eng = engine(K);
    let scan = scan_trace();
    let tenants = tenant_trace();
    let lat = LatencyModel::paper_tlc();
    let cfg = cache_cfg();

    let mut group = c.benchmark_group("sharded");
    group.sample_size(12);
    group.throughput(Throughput::Elements(REQUESTS as u64));

    group.bench_function("unsharded_scan_k256", |b| {
        b.iter(|| {
            // Set-up inclusive, like `sim.run`: a fresh engine clone per
            // replay.
            let mut e = eng.clone();
            let mut cache = SetAssocCache::new(cfg).expect("valid geometry");
            let mut lru = LruPolicy::new(cfg.num_sets(), cfg.ways);
            let mut adm = ThresholdAdmit::new(f64::NEG_INFINITY);
            black_box(simulate(
                black_box(&scan),
                &mut cache,
                &mut adm,
                &mut lru,
                Some(&mut e as &mut dyn ScoreSource),
                &lat,
                None,
            ))
        })
    });

    for shards in [1usize, 2, 4, 8] {
        group.bench_function(format!("sharded{shards}_scan_k256"), |b| {
            let sim = ShardedSimulator::new(shards);
            b.iter(|| {
                black_box(
                    sim.run(
                        black_box(&scan),
                        0,
                        cfg,
                        &|_ctx| ShardPolicies {
                            admission: Box::new(ThresholdAdmit::new(f64::NEG_INFINITY)),
                            eviction: Box::new(LruPolicy::new(cfg.num_sets(), cfg.ways)),
                            score: Some(Box::new(eng.clone())),
                        },
                        &lat,
                        None,
                    )
                    .expect("valid geometry"),
                )
            })
        });
    }

    group.bench_function("unsharded_tenants_k256", |b| {
        b.iter(|| {
            // Set-up inclusive, like `sim.run`: a fresh engine clone per
            // replay.
            let mut e = eng.clone();
            let mut cache = SetAssocCache::new(cfg).expect("valid geometry");
            let mut lru = LruPolicy::new(cfg.num_sets(), cfg.ways);
            let mut adm = ThresholdAdmit::new(f64::NEG_INFINITY);
            black_box(simulate(
                black_box(&tenants),
                &mut cache,
                &mut adm,
                &mut lru,
                Some(&mut e as &mut dyn ScoreSource),
                &lat,
                None,
            ))
        })
    });

    for shards in [1usize, 4] {
        group.bench_function(format!("sharded{shards}_tenants_k256"), |b| {
            let sim = ShardedSimulator::new(shards);
            b.iter(|| {
                black_box(
                    sim.run(
                        black_box(&tenants),
                        0,
                        cfg,
                        &|_ctx| ShardPolicies {
                            admission: Box::new(ThresholdAdmit::new(f64::NEG_INFINITY)),
                            eviction: Box::new(LruPolicy::new(cfg.num_sets(), cfg.ways)),
                            score: Some(Box::new(eng.clone())),
                        },
                        &lat,
                        None,
                    )
                    .expect("valid geometry"),
                )
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
