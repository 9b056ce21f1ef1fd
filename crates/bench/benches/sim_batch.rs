//! Criterion bench: end-to-end simulator replay — the explicit streaming
//! loop, the default entry point, and the speculative miss-window batcher.
//!
//! Two CI gates ride on it (`perf_gate`, same runner, same run): the
//! **default entry point** (`simulate_with_warmup`, what `Icgmm::run`
//! reaches) must hold ≥ 0.95× of `simulate_streaming` on the all-miss scan
//! and on the Zipf interleave — routing must never lose to streaming. It
//! cannot lose by much by construction (the GMM engine does not prefer
//! batching, so the default *is* the streaming loop plus one virtual
//! call); the gate is there for the day someone flips the signal back.
//!
//! The `batched_*` cases keep measuring the speculative path (the engine
//! wrapped in `PreferBatching`) and are archived, **not gated**: they
//! used to be held to ≥ 2× streaming when the single-point kernel cost
//! 4.5× the batched one per score; with the kernels near parity
//! speculation only still wins the pure all-miss LRU scan (≈ 1.1×) and
//! loses 1.1–2× wherever hits interleave (ROADMAP item 3 has the table).
//!
//! The workloads are an 8 k-request all-miss window (sequential scan
//! through a page space far larger than the cache: every request triggers
//! a policy-engine inference) and a Zipf variant with real hit/miss
//! interleaving, each under LRU and under the paper's GMM-score eviction.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use icgmm_bench::{hand_engine, scan_trace, zipf_trace};
use icgmm_cache::{
    simulate, simulate_streaming, CacheConfig, EvictionPolicy, GmmScorePolicy, LatencyModel,
    LruPolicy, PreferBatching, ScoreSource, SetAssocCache, ThresholdAdmit, WindowedSimulator,
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

/// Which replay engine a case times.
#[derive(Clone, Copy)]
enum Replay {
    /// `simulate_streaming`: the reference loop.
    Streaming,
    /// `simulate`: the default entry point (routes on `prefers_batching`).
    Default,
    /// `WindowedSimulator` over a `PreferBatching`-wrapped engine: the
    /// speculative path, which nothing selects by default any more.
    Speculative,
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

    // (name, trace, GMM-score eviction instead of LRU, engine).
    let cases: [(&str, &[TraceRecord], bool, Replay); 10] = [
        ("streaming_k256_w4096", &scan, false, Replay::Streaming),
        ("default_scan_k256", &scan, false, Replay::Default),
        ("batched_k256_w4096", &scan, false, Replay::Speculative),
        ("streaming_zipf_k256", &zipf, false, Replay::Streaming),
        ("default_zipf_k256", &zipf, false, Replay::Default),
        ("batched_zipf_k256_w4096", &zipf, false, Replay::Speculative),
        (
            "streaming_gmm_evict_scan_k256",
            &scan,
            true,
            Replay::Streaming,
        ),
        (
            "batched_gmm_evict_scan_k256_w4096",
            &scan,
            true,
            Replay::Speculative,
        ),
        (
            "streaming_gmm_evict_zipf_k256",
            &zipf,
            true,
            Replay::Streaming,
        ),
        (
            "batched_gmm_evict_zipf_k256_w4096",
            &zipf,
            true,
            Replay::Speculative,
        ),
    ];
    for (name, trace, gmm_evict, replay) in cases {
        group.bench_function(name, |b| {
            let mut e = PreferBatching(eng.clone());
            let mut wsim = WindowedSimulator::new(WINDOW);
            b.iter(|| {
                e.0.reset();
                let mut cache = SetAssocCache::new(cfg).expect("valid geometry");
                let mut ev: Box<dyn EvictionPolicy> = if gmm_evict {
                    Box::new(GmmScorePolicy::new(cfg.num_sets(), cfg.ways))
                } else {
                    Box::new(LruPolicy::new(cfg.num_sets(), cfg.ways))
                };
                let mut adm = ThresholdAdmit::new(f64::NEG_INFINITY);
                let (trace, ev) = (black_box(trace), ev.as_mut());
                black_box(match replay {
                    Replay::Streaming => simulate_streaming(
                        trace,
                        &mut cache,
                        &mut adm,
                        ev,
                        Some(&mut e.0 as &mut dyn ScoreSource),
                        &lat,
                        None,
                    ),
                    Replay::Default => simulate(
                        trace,
                        &mut cache,
                        &mut adm,
                        ev,
                        Some(&mut e.0 as &mut dyn ScoreSource),
                        &lat,
                        None,
                    ),
                    Replay::Speculative => wsim.run(
                        &[],
                        trace,
                        &mut cache,
                        &mut adm,
                        ev,
                        Some(&mut e as &mut dyn ScoreSource),
                        &lat,
                        None,
                    ),
                })
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_sim_batch);
criterion_main!(benches);
