//! Criterion bench: cache simulator throughput per policy (simulation-rate
//! evidence that the harness can replay paper-scale traces in seconds),
//! next to a hand-specialised LRU loop over the same trace. CI gates the
//! pair (`ci.yml` has the threshold and the rounds behind it): what the
//! generic simulator pays for runtime geometry, trait-object policies,
//! per-request outcomes and accounting stays bounded against the floor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use icgmm_cache::{
    simulate, AlwaysAdmit, CacheConfig, EvictionPolicy, FifoPolicy, GmmScorePolicy, LatencyModel,
    LfuPolicy, LruPolicy, SetAssocCache,
};
use icgmm_trace::synth::WorkloadKind;
use icgmm_trace::TraceRecord;
use std::hint::black_box;

fn bench_policy(
    group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
    label: &str,
    records: &[TraceRecord],
    cfg: CacheConfig,
    mk: impl Fn() -> Box<dyn EvictionPolicy>,
) {
    let lat = LatencyModel::paper_tlc();
    group.bench_function(BenchmarkId::new("simulate_100k", label), |b| {
        b.iter(|| {
            let mut cache = SetAssocCache::new(cfg).expect("geometry");
            let mut ev = mk();
            black_box(simulate(
                black_box(records),
                &mut cache,
                &mut AlwaysAdmit,
                ev.as_mut(),
                None,
                &lat,
                None,
            ))
        })
    });
}

/// The floor under `simulate_100k/lru`: the paper geometry fixed at
/// compile time (2 048 × 8, so the set mapping is a mask and a shift), LRU
/// stamps inline, no trait objects, no outcome values — only `simulate`'s
/// hit count, miss count and latency sum. A stamp is the last use + 1 and
/// 0 means "never filled", so the least-recent way of a set is its first
/// empty way for as long as it has one.
fn floor_lru(records: &[TraceRecord], lat: &LatencyModel) -> (u64, u64, f64) {
    const SETS: u64 = 2_048;
    const WAYS: usize = 8;
    let mut tags = vec![[0u64; WAYS]; SETS as usize];
    let mut stamps = vec![[0u64; WAYS]; SETS as usize];
    let mut dirty = vec![[false; WAYS]; SETS as usize];
    let (mut hits, mut misses, mut total_us) = (0, 0, 0.0);
    for (seq, r) in records.iter().enumerate() {
        let page = r.page().raw();
        let (set, tag) = ((page % SETS) as usize, page / SETS);
        let (tags, stamps, dirty) = (&mut tags[set], &mut stamps[set], &mut dirty[set]);
        let write = r.op().is_write();
        let way = match (0..WAYS).find(|&w| stamps[w] != 0 && tags[w] == tag) {
            Some(way) => {
                hits += 1;
                total_us += lat.hit_us;
                dirty[way] |= write;
                way
            }
            None => {
                let way = (0..WAYS).min_by_key(|&w| stamps[w]).expect("8 ways");
                misses += 1;
                total_us += if stamps[way] != 0 && dirty[way] {
                    lat.ssd_read_us + lat.ssd_write_us
                } else {
                    lat.ssd_read_us
                };
                tags[way] = tag;
                dirty[way] = write;
                way
            }
        };
        stamps[way] = seq as u64 + 1;
    }
    (hits, misses, total_us)
}

fn bench_cache(c: &mut Criterion) {
    let trace = WorkloadKind::Memtier
        .default_workload()
        .generate(100_000, 7);
    let records = trace.records();
    let cfg = CacheConfig::paper_default();

    let mut group = c.benchmark_group("cache_ops");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records.len() as u64));
    let sets = cfg.num_sets();
    let ways = cfg.ways;

    let lat = LatencyModel::paper_tlc();
    let mut lru = LruPolicy::new(sets, ways);
    let mut cache = SetAssocCache::new(cfg).expect("geometry");
    let want = simulate(
        records,
        &mut cache,
        &mut AlwaysAdmit,
        &mut lru,
        None,
        &lat,
        None,
    );
    assert_eq!(
        floor_lru(records, &lat),
        (want.stats.hits(), want.stats.misses(), want.total_us),
        "the floor replays what simulate replays"
    );
    group.bench_function("floor_lru_100k", |b| {
        b.iter(|| black_box(floor_lru(black_box(records), &lat)))
    });
    bench_policy(&mut group, "lru", records, cfg, || {
        Box::new(LruPolicy::new(sets, ways))
    });
    bench_policy(&mut group, "fifo", records, cfg, || {
        Box::new(FifoPolicy::new(sets, ways))
    });
    bench_policy(&mut group, "lfu", records, cfg, || {
        Box::new(LfuPolicy::new(sets, ways))
    });
    bench_policy(&mut group, "gmm-score-evict", records, cfg, || {
        Box::new(GmmScorePolicy::new(sets, ways))
    });
    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
