//! Criterion bench: end-to-end simulator replay — the one streaming loop
//! behind every front-end, driven by a K = 256 policy engine. Archived,
//! not gated: there is no second path left to compare it with (the
//! `sharded` group gates `sharded1_*` against this same loop).
//!
//! The workloads are an 8 k-request all-miss window (sequential scan
//! through a page space far larger than the cache: every request triggers
//! a policy-engine inference) and a Zipf variant with real hit/miss
//! interleaving, each under LRU and under the paper's GMM-score eviction.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use icgmm_bench::{hand_engine, scan_trace, zipf_trace};
use icgmm_cache::{
    simulate, CacheConfig, EvictionPolicy, GmmScorePolicy, LatencyModel, LruPolicy, ScoreSource,
    SetAssocCache, ThresholdAdmit,
};
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

fn bench_sim_batch(c: &mut Criterion) {
    let eng = hand_engine(K, REQUESTS);
    let scan = scan_trace(REQUESTS);
    let zipf = zipf_trace(REQUESTS);
    let lat = LatencyModel::paper_tlc();
    let cfg = cache_cfg();

    let mut group = c.benchmark_group("sim_batch");
    group.sample_size(12);
    group.throughput(Throughput::Elements(REQUESTS as u64));

    // (name, trace, GMM-score eviction instead of LRU). The `w4096`
    // suffix is historical: the names continue the archived series.
    let cases: [(&str, &[TraceRecord], bool); 4] = [
        ("streaming_k256_w4096", &scan, false),
        ("streaming_zipf_k256", &zipf, false),
        ("streaming_gmm_evict_scan_k256", &scan, true),
        ("streaming_gmm_evict_zipf_k256", &zipf, true),
    ];
    for (name, trace, gmm_evict) in cases {
        group.bench_function(name, |b| {
            let mut e = eng.clone();
            b.iter(|| {
                e.reset();
                let mut cache = SetAssocCache::new(cfg).expect("valid geometry");
                let mut ev: Box<dyn EvictionPolicy> = if gmm_evict {
                    Box::new(GmmScorePolicy::new(cfg.num_sets(), cfg.ways))
                } else {
                    Box::new(LruPolicy::new(cfg.num_sets(), cfg.ways))
                };
                let mut adm = ThresholdAdmit::new(f64::NEG_INFINITY);
                black_box(simulate(
                    black_box(trace),
                    &mut cache,
                    &mut adm,
                    ev.as_mut(),
                    Some(&mut e as &mut dyn ScoreSource),
                    &lat,
                    None,
                ))
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_sim_batch);
criterion_main!(benches);
