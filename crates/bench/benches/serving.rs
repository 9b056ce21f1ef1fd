//! Criterion bench: the concurrent cache service vs the offline replay
//! engines — the saturation story behind `BENCH_serve.json` and CI's
//! served-throughput gate.
//!
//! Two trace shapes at paper-scale K = 256:
//!
//! * the pooled multi-tenant interleave (16 tenants, per-tenant Zipf) —
//!   the request mix a shared CXL device actually serves; and
//! * the all-miss scan — every request scores, the regime where hand-off
//!   overhead is most exposed.
//!
//! The tightest pair is serving at S = 1 / C = 1 with a deep queue against
//! the unsharded replay. That single-worker
//! geometry replays the identical decision sequence through the identical
//! streaming step, so the ratio isolates the service machinery itself — queue
//! hand-off, the arrival check and per-batch admission timestamping (the
//! worker counts what it decides; nothing streams back. CI gates the pair
//! at 0.3× / 0.4×, thresholds set while a serial merger still re-accounted
//! every outcome on the calling thread). The wide geometries
//! (4 shards × 2 clients, 8 shards × 4 clients) exercise the per-shard
//! client transport buffers on interleaved traffic — a scan routes
//! consecutive records to consecutive shards, so without buffering every
//! message degenerates to one record. CI additionally gates the 4×2
//! pair (0.4× tenants, 0.6× scan); 8×4 is archived for trend tracking,
//! since few-core runners measure machinery there, not scaling.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use icgmm::{GmmPolicyEngine, TrainedModel};
use icgmm_cache::{
    simulate, CacheConfig, LatencyModel, LruPolicy, ScoreSource, SetAssocCache, ShardPolicies,
    ThresholdAdmit,
};
use icgmm_gmm::{Gaussian2, Gmm, Mat2, StandardScaler};
use icgmm_serve::{CacheServer, ServeConfig};
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

fn serve_once(
    server: &CacheServer,
    trace: &[TraceRecord],
    cfg: CacheConfig,
    eng: &GmmPolicyEngine,
    lat: &LatencyModel,
) -> icgmm_serve::ServeReport {
    server
        .serve(
            trace,
            0,
            cfg,
            &|_ctx| ShardPolicies {
                admission: Box::new(ThresholdAdmit::new(f64::NEG_INFINITY)),
                eviction: Box::new(LruPolicy::new(cfg.num_sets(), cfg.ways)),
                score: Some(Box::new(eng.clone())),
            },
            lat,
            None,
        )
        .expect("serving succeeds")
}

fn bench_serving(c: &mut Criterion) {
    let eng = engine(K);
    let scan = scan_trace();
    let tenants = tenant_trace();
    let lat = LatencyModel::paper_tlc();
    let cfg = cache_cfg();

    // The gate geometry: one worker, one client, a queue deep enough that
    // hand-off never stalls the worker.
    let tight = CacheServer::new(ServeConfig {
        shards: 1,
        clients: 1,
        queue_depth: 4096,
        ..ServeConfig::default()
    })
    .expect("valid serve config");
    // The gated wide geometry: 4 workers fed by 2 clients.
    let wide = CacheServer::new(ServeConfig {
        shards: 4,
        clients: 2,
        queue_depth: 256,
        ..ServeConfig::default()
    })
    .expect("valid serve config");
    // The archived wider geometry: 8 workers fed by 4 clients, each
    // client juggling two per-shard transport buffers.
    let wider = CacheServer::new(ServeConfig {
        shards: 8,
        clients: 4,
        queue_depth: 256,
        ..ServeConfig::default()
    })
    .expect("valid serve config");

    let mut group = c.benchmark_group("serving");
    group.sample_size(20);
    group.throughput(Throughput::Elements(REQUESTS as u64));

    for (name, trace) in [("tenants", &tenants), ("scan", &scan)] {
        group.bench_function(format!("replay_{name}_k256"), |b| {
            b.iter(|| {
                // One offline session per iteration, constructed exactly
                // as a serve session constructs its per-shard state
                // (fresh cache, cloned engine, fresh policies) — the
                // serve/replay ratio then isolates the service machinery
                // rather than charging serving for session setup the
                // baseline amortized away.
                let mut e = eng.clone();
                let mut cache = SetAssocCache::new(cfg).expect("valid geometry");
                let mut lru = LruPolicy::new(cfg.num_sets(), cfg.ways);
                let mut adm = ThresholdAdmit::new(f64::NEG_INFINITY);
                black_box(simulate(
                    black_box(trace),
                    &mut cache,
                    &mut adm,
                    &mut lru,
                    Some(&mut e as &mut dyn ScoreSource),
                    &lat,
                    None,
                ))
            })
        });

        group.bench_function(format!("serve1x1_{name}_k256"), |b| {
            b.iter(|| black_box(serve_once(&tight, black_box(trace), cfg, &eng, &lat)))
        });

        group.bench_function(format!("serve4x2_{name}_k256"), |b| {
            b.iter(|| black_box(serve_once(&wide, black_box(trace), cfg, &eng, &lat)))
        });

        group.bench_function(format!("serve8x4_{name}_k256"), |b| {
            b.iter(|| black_box(serve_once(&wider, black_box(trace), cfg, &eng, &lat)))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
