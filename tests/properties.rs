//! Property-based tests (proptest) over the core invariants of the
//! reproduction: cache coherence of the tag store, GMM distribution
//! axioms, Algorithm 1 bounds and its counter-pair oracle, fixed-point fidelity and policy sanity.

use icgmm_cache::{
    simulate, AccessOutcome, BeladyPolicy, CacheConfig, FnScore, GmmScorePolicy, LatencyModel,
    LruPolicy, Policy, SetAssocCache, ThresholdAdmit,
};
use icgmm_gmm::fixed::{ExpLut, Fixed, FixedGmm};
use icgmm_gmm::{EmConfig, EmTrainer, Gaussian2, Gmm, GmmScorer, Mat2, StandardScaler};
use icgmm_trace::{Op, PageIndex, TimestampTransformer, TraceRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A randomized mixture for the scorer-fidelity properties: means spread
/// over the feature space, log-uniform covariance scales down to
/// near-singular (variances ~1e-6, correlation up to ±0.999), and — when
/// K allows — one zero-weight component.
fn random_mixture(k: usize, seed: u64) -> Gmm {
    let mut rng = StdRng::seed_from_u64(seed);
    let comps: Vec<Gaussian2> = (0..k)
        .map(|_| {
            let sx = 10f64.powf(rng.gen_range(-6.0..0.6));
            let sy = 10f64.powf(rng.gen_range(-6.0..0.6));
            let rho = rng.gen_range(-0.999..0.999);
            let cov = Mat2::new(sx, rho * (sx * sy).sqrt(), sy);
            Gaussian2::new(
                [rng.gen_range(-20.0..20.0), rng.gen_range(-20.0..20.0)],
                cov,
            )
            .expect("positive-definite by construction")
        })
        .collect();
    let mut weights: Vec<f64> = (0..k).map(|_| rng.gen_range(0.001..1.0)).collect();
    if k > 1 {
        weights[k / 2] = 0.0;
    }
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    Gmm::new(weights, comps).expect("valid mixture")
}

/// The seed's transcription of the paper's Algorithm 1, lines 3–11: an
/// `index` / `timestamp` counter pair stepped once per request, in trace
/// order — the reference `TimestampTransformer::at` is held to.
struct Algorithm1Counters {
    len_window: u32,
    len_access_shot: u32,
    timestamp: u64,
    index: u32,
}

impl Algorithm1Counters {
    fn new(len_window: u32, len_access_shot: u32) -> Self {
        Algorithm1Counters {
            len_window,
            len_access_shot,
            timestamp: 0,
            index: 0,
        }
    }

    /// Steps by one request and returns that request's timestamp.
    fn next(&mut self) -> u64 {
        if self.index >= self.len_window {
            self.timestamp += 1;
            self.index = 0;
        }
        if self.timestamp >= u64::from(self.len_access_shot) {
            self.timestamp = 0;
        }
        self.index += 1;
        self.timestamp
    }
}

/// The seed's original scalar scoring path — per-call `Vec`, per-component
/// `ln π_k`, array-of-structs walk — as the independent numerical
/// reference for the SoA kernel.
fn reference_log_density(gmm: &Gmm, x: [f64; 2]) -> f64 {
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
        return m;
    }
    let s: f64 = logs.iter().map(|v| (v - m).exp()).sum();
    m + s.ln()
}

fn small_cfg() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 32 * 4096,
        block_bytes: 4096,
        ways: 4,
    }
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (0u64..64, any::<bool>(), 0u64..4096).prop_map(|(page, write, off)| {
        let addr = (page << 12) + (off & !63);
        if write {
            TraceRecord::write(addr)
        } else {
            TraceRecord::read(addr)
        }
    })
}

proptest! {
    /// The tag store never holds the same page twice, never exceeds its
    /// associativity, and a just-inserted page is immediately findable.
    #[test]
    fn cache_tag_store_invariants(records in prop::collection::vec(arb_record(), 1..600)) {
        // 8 sets × 4 ways, and a non-power-of-two, odd-ways geometry
        // (6 sets × 3 ways: the division mapping, a row that is not a
        // whole vector).
        let odd = CacheConfig { capacity_bytes: 18 * 4096, block_bytes: 4096, ways: 3 };
        for cfg in [small_cfg(), odd] {
            let mut cache = SetAssocCache::new(cfg).unwrap();
            let mut lru = Policy::lru(cfg.num_sets(), cfg.ways);
            for (i, r) in records.iter().enumerate() {
                let out = cache.access(r, i as u64, None, &mut lru);
                match out {
                    AccessOutcome::Hit { way } => prop_assert!(way < cfg.ways),
                    AccessOutcome::MissInserted { way, .. } => {
                        prop_assert!(way < cfg.ways);
                        prop_assert!(cache.contains(r.page()), "inserted page not findable");
                    }
                    AccessOutcome::MissBypassed => unreachable!("LRU admits every miss"),
                }
                // No duplicate tags within any set.
                for set in 0..cfg.num_sets() {
                    let mut tags = vec![];
                    for way in 0..cfg.ways {
                        let b = cache.block(set, way);
                        if b.valid {
                            tags.push(b.tag);
                        }
                    }
                    let mut dedup = tags.clone();
                    dedup.sort_unstable();
                    dedup.dedup();
                    prop_assert_eq!(dedup.len(), tags.len(), "duplicate tag in set {}", set);
                }
                prop_assert!(cache.occupancy() <= cfg.num_blocks());
            }
        }
    }

    /// Bypassed misses leave the cache bit-for-bit untouched.
    #[test]
    fn bypass_never_mutates_state(records in prop::collection::vec(arb_record(), 1..300)) {
        let cfg = small_cfg();
        let mut cache = SetAssocCache::new(cfg).unwrap();
        // Threshold 1.0 with score 0.0 ⇒ every miss bypasses.
        let admit = ThresholdAdmit { threshold: 1.0, admit_writes_always: false };
        let mut filtered = Policy::new(Some(admit), LruPolicy::new(cfg.num_sets(), cfg.ways));
        for (i, r) in records.iter().enumerate() {
            let before = cache.occupancy();
            let out = cache.access(r, i as u64, Some(0.0), &mut filtered);
            match out {
                AccessOutcome::MissBypassed => prop_assert_eq!(cache.occupancy(), before),
                AccessOutcome::Hit { .. } => {}
                AccessOutcome::MissInserted { .. } => {
                    prop_assert!(false, "nothing should be admitted at threshold 1.0");
                }
            }
        }
        prop_assert_eq!(cache.occupancy(), 0);
    }

    /// LRU evicts exactly the least-recently-touched page of a full set.
    #[test]
    fn lru_victim_is_least_recent(touch_order in proptest::sample::subsequence((0..16u64).collect::<Vec<_>>(), 4..12)) {
        // One-set cache: 4 ways over pages that all collide.
        let cfg = CacheConfig { capacity_bytes: 4 * 4096, block_bytes: 4096, ways: 4 };
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let mut lru = Policy::lru(1, 4);
        let mut seq = 0u64;
        let mut touched: Vec<u64> = vec![];
        for &p in &touch_order {
            let r = TraceRecord::read(p << 12);
            cache.access(&r, seq, None, &mut lru);
            seq += 1;
            touched.retain(|&q| q != p);
            touched.push(p);
        }
        // Insert a brand-new page; if the set was full, the victim must be
        // the oldest touched page among the resident four.
        if touched.len() >= 4 {
            let resident: Vec<u64> = touched.iter().rev().take(4).copied().collect();
            let expected_victim = *resident.last().unwrap();
            let out = cache.access(&TraceRecord::read(99 << 12), seq, None, &mut lru);
            if let AccessOutcome::MissInserted { evicted: Some(e), .. } = out {
                prop_assert_eq!(e.page.raw(), expected_victim);
            } else {
                prop_assert!(false, "expected an eviction");
            }
        }
    }

    /// GMM axioms: weights sum to one; density is finite and non-negative;
    /// responsibilities form a distribution.
    #[test]
    fn gmm_distribution_axioms(
        seeds in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 2..12),
        x in (-100.0f64..100.0),
        y in (-100.0f64..100.0),
    ) {
        let k = seeds.len();
        let comps: Vec<Gaussian2> = seeds
            .iter()
            .map(|&(mx, my)| Gaussian2::new([mx, my], Mat2::new(1.0, 0.2, 2.0)).unwrap())
            .collect();
        let gmm = Gmm::new(vec![1.0 / k as f64; k], comps).unwrap();
        prop_assert!((gmm.weights().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let d = gmm.density([x, y]);
        prop_assert!(d.is_finite() && d >= 0.0, "density {}", d);
        let resp = gmm.responsibilities([x, y]);
        prop_assert!((resp.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        prop_assert!(resp.iter().all(|r| (0.0..=1.0 + 1e-9).contains(r)));
    }

    /// EM never decreases the training log-likelihood (up to re-seeding
    /// noise, which the tolerance absorbs).
    #[test]
    fn em_loglik_monotone(points in prop::collection::vec((-5.0f64..5.0, -5.0f64..5.0), 30..120)) {
        let xs: Vec<[f64; 2]> = points.iter().map(|&(a, b)| [a, b]).collect();
        let trainer = EmTrainer::new(EmConfig {
            k: 3,
            max_iters: 12,
            tol: 1e-12,
            ..Default::default()
        })
        .unwrap();
        let (_, report) = trainer.fit(&xs, &[]).unwrap();
        for w in report.log_likelihood.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-6, "loglik fell: {} -> {}", w[0], w[1]);
        }
    }

    /// Algorithm 1: timestamps always lie in [0, len_access_shot) and are
    /// piecewise constant over windows.
    #[test]
    fn algorithm1_bounds(
        len_window in 1u32..64,
        len_shot in 1u32..64,
        n in 1u64..2000,
    ) {
        let t = TimestampTransformer::new(len_window, len_shot);
        for pos in 0..n {
            let ts = t.at(pos);
            prop_assert!(ts < u64::from(len_shot), "ts {} out of range", ts);
            // Within one window the timestamp cannot change.
            let window_start = pos - pos % u64::from(len_window);
            prop_assert_eq!(ts, t.at(window_start));
        }
    }

    /// Algorithm 1: the closed form is the counter pair's output — stepped
    /// from position 0, and (the counters are back in their initial state
    /// every `len_window × len_access_shot` requests) at positions up to
    /// `u64::MAX`; `len_window = 1` and the paper's 32 × 10 000 included.
    #[test]
    fn algorithm1_closed_form_matches_the_counters(
        len_window in 1u32..64,
        len_shot in 1u32..64,
        n in 1u64..2000,
        back in 0u64..1_000_000,
    ) {
        for (w, shot) in [(len_window, len_shot), (1, len_shot), (32, 10_000)] {
            let t = TimestampTransformer::new(w, shot);
            let mut counters = Algorithm1Counters::new(w, shot);
            for pos in 0..n {
                prop_assert_eq!(t.at(pos), counters.next(), "w {} shot {} pos {}", w, shot, pos);
            }
            let far = u64::MAX - back;
            let phase = far % (u64::from(w) * u64::from(shot));
            let mut counters = Algorithm1Counters::new(w, shot);
            let ts = (0..=phase).map(|_| counters.next()).last();
            prop_assert_eq!(Some(t.at(far)), ts, "w {} shot {} pos {}", w, shot, far);
        }
    }

    /// Fixed-point arithmetic round-trips within quantization error and
    /// multiplication matches f64 within tolerance.
    #[test]
    fn fixed_point_accuracy(a in -1000.0f64..1000.0, b in -1000.0f64..1000.0) {
        let fa = Fixed::from_f64(a);
        let fb = Fixed::from_f64(b);
        prop_assert!((fa.to_f64() - a).abs() < 1e-6);
        let prod = fa.mul(fb).to_f64();
        let tol = (a * b).abs() * 1e-6 + 1e-4;
        prop_assert!((prod - a * b).abs() < tol, "{} * {} = {} (got {})", a, b, a * b, prod);
    }

    /// The LUT exp agrees with f64 exp over its domain.
    #[test]
    fn exp_lut_tracks_exp(x in -30.0f64..0.0) {
        let lut = ExpLut::new();
        let got = lut.eval(Fixed::from_f64(x)).to_f64();
        let want = x.exp();
        prop_assert!((got - want).abs() < want * 2e-3 + 1e-6, "exp({}) {} vs {}", x, got, want);
    }

    /// Quantized scores preserve the ordering of well-separated f64 scores
    /// (all the cache policy needs from the datapath).
    #[test]
    fn fixed_gmm_preserves_ordering(
        hot in -3.0f64..3.0,
        cold_offset in 6.0f64..30.0,
    ) {
        let gmm = Gmm::new(
            vec![1.0],
            vec![Gaussian2::new([0.0, 0.0], Mat2::scaled_identity(1.0)).unwrap()],
        )
        .unwrap();
        let fx = FixedGmm::from_gmm(&gmm).unwrap();
        let near = [hot * 0.3, hot * 0.3];
        let far = [hot * 0.3 + cold_offset, hot * 0.3];
        prop_assert!(fx.score(near) > fx.score(far));
    }

    /// The scaler inverse-transform is a true inverse.
    #[test]
    fn scaler_roundtrip(points in prop::collection::vec((-1e6f64..1e6, -1e4f64..1e4), 2..40)) {
        let xs: Vec<[f64; 2]> = points.iter().map(|&(a, b)| [a, b]).collect();
        let s = StandardScaler::fit(&xs, &[]);
        for x in &xs {
            let back = s.inverse_transform(s.transform(*x));
            prop_assert!((back[0] - x[0]).abs() < 1e-6 * x[0].abs().max(1.0));
            prop_assert!((back[1] - x[1]).abs() < 1e-6 * x[1].abs().max(1.0));
        }
    }

    /// Simulation accounting: hits + insertions + bypasses == accesses, and
    /// the latency model never reports less than the hit time per request
    /// — under the paper's caching + eviction stack, whose hashed scores
    /// straddle the admission threshold so reads bypass constantly.
    #[test]
    fn simulation_accounting_is_conserved(records in prop::collection::vec(arb_record(), 1..500)) {
        let cfg = small_cfg();
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let evict = GmmScorePolicy::new(cfg.num_sets(), cfg.ways);
        let mut policy = Policy::new(Some(ThresholdAdmit::new(0.5)), evict);
        let mut score = FnScore::new(|page, pos| ((page * 37 + pos) % 101) as f64 / 100.0);
        let report = simulate(
            &records,
            &mut cache,
            &mut policy,
            Some(&mut score),
            &LatencyModel::paper_tlc(),
            None,
        );
        let s = &report.stats;
        prop_assert_eq!(
            s.hits() + s.read_insertions + s.write_insertions + s.bypasses(),
            s.accesses()
        );
        prop_assert_eq!(s.accesses() as usize, records.len());
        prop_assert!(report.avg_us >= 1.0);
        // Occupancy equals insertions minus evictions.
        let evictions = s.clean_evictions + s.dirty_evictions;
        prop_assert_eq!(
            cache.occupancy() as u64,
            s.read_insertions + s.write_insertions - evictions
        );
    }

    /// The Belady and GMM-score arms always return in-range victims and
    /// never corrupt the cache across random traces.
    #[test]
    fn alternative_policies_stay_coherent(records in prop::collection::vec(arb_record(), 1..400)) {
        let cfg = small_cfg();
        let (sets, ways) = (cfg.num_sets(), cfg.ways);
        let arms = [
            Policy::new(None, BeladyPolicy::from_records(&records, sets, ways)),
            Policy::new(None, GmmScorePolicy::new(sets, ways)),
        ];
        for mut policy in arms {
            let mut cache = SetAssocCache::new(cfg).unwrap();
            let report =
                simulate(&records, &mut cache, &mut policy, None, &LatencyModel::paper_tlc(), None);
            prop_assert_eq!(report.stats.accesses() as usize, records.len());
            // Every distinct page that was accessed at least... the last
            // accessed page must be resident (it was just touched/inserted).
            let last = records.last().unwrap().page();
            prop_assert!(cache.contains(last), "last page evicted immediately");
        }
    }

    /// The SoA batch kernel matches the scalar path bit-for-bit and the
    /// seed's original implementation to ≤1e-12 relative error, across
    /// K ∈ {1, 3, 256}, near-singular covariances and zero-weight
    /// components.
    #[test]
    fn score_batch_matches_scalar_density(
        k_idx in 0usize..3,
        seed in any::<u64>(),
        points in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 1..40),
    ) {
        let k = [1usize, 3, 256][k_idx];
        let gmm = random_mixture(k, seed);
        let scorer = GmmScorer::from_gmm(&gmm);
        let xs: Vec<[f64; 2]> = points.iter().map(|&(a, b)| [a, b]).collect();
        let mut batch = vec![0.0; xs.len()];
        scorer.score_batch(&xs, &mut batch);
        let mut parallel = vec![0.0; xs.len()];
        scorer.score_batch_parallel(&xs, &mut parallel, 2);
        for (i, x) in xs.iter().enumerate() {
            // Batched == scalar == parallel, bit-for-bit.
            let scalar = gmm.density(*x);
            prop_assert_eq!(batch[i].to_bits(), scalar.to_bits(),
                "batch vs scalar at {:?}", x);
            prop_assert_eq!(parallel[i].to_bits(), batch[i].to_bits(),
                "parallel vs batch at {:?}", x);
            // Fidelity against the seed implementation, in the log domain
            // (|Δ ln G| bounds the relative density error).
            let want = reference_log_density(&gmm, *x);
            let got = scorer.log_density(*x);
            if want < -700.0 {
                // The reference underflows to (sub)denormal density; the
                // kernel must agree the point is impossibly cold.
                prop_assert!(got < -690.0, "got {} want {}", got, want);
            } else {
                let tol = 1e-12 * want.abs().max(1.0);
                prop_assert!((got - want).abs() <= tol,
                    "K={} x={:?}: got {} want {} (diff {:e})",
                    k, x, got, want, (got - want).abs());
            }
        }
    }

    /// The fixed-point hardware mirror stays in lock-step with the batched
    /// f64 path: batched fixed == scalar fixed bit-for-bit, and within the
    /// established quantization envelope of the f64 kernel.
    #[test]
    fn batched_path_agrees_with_hardware_mirror(
        seed in any::<u64>(),
        points in prop::collection::vec((-8.0f64..8.0, -8.0f64..8.0), 1..30),
    ) {
        // Moderate covariances: the quantized datapath's documented domain.
        let mut rng = StdRng::seed_from_u64(seed);
        let comps: Vec<Gaussian2> = (0..8)
            .map(|_| {
                let sx = rng.gen_range(0.3..2.0);
                let sy = rng.gen_range(0.3..2.0);
                let rho = rng.gen_range(-0.5..0.5);
                Gaussian2::new(
                    [rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0)],
                    Mat2::new(sx, rho * (sx * sy).sqrt(), sy),
                )
                .unwrap()
            })
            .collect();
        let gmm = Gmm::new(vec![0.125; 8], comps).unwrap();
        let fx = FixedGmm::from_gmm(&gmm).unwrap();
        let scorer = GmmScorer::from_gmm(&gmm);
        let xs: Vec<[f64; 2]> = points.iter().map(|&(a, b)| [a, b]).collect();
        let mut f64_batch = vec![0.0; xs.len()];
        let mut fx_batch = vec![0.0; xs.len()];
        scorer.score_batch(&xs, &mut f64_batch);
        fx.score_batch(&xs, &mut fx_batch);
        for (i, x) in xs.iter().enumerate() {
            prop_assert_eq!(fx_batch[i].to_bits(), fx.score(*x).to_bits());
            let f = f64_batch[i];
            let q = fx_batch[i];
            prop_assert!(
                (f - q).abs() < f.max(1e-6) * 0.02 + 1e-6,
                "at {:?}: f64 {} vs fixed {}", x, f, q
            );
        }
    }

    /// Write-backs only ever follow write activity: a read-only trace can
    /// never produce dirty evictions.
    #[test]
    fn read_only_traces_never_write_back(pages in prop::collection::vec(0u64..128, 1..500)) {
        let records: Vec<TraceRecord> =
            pages.iter().map(|&p| TraceRecord::read(p << 12)).collect();
        let cfg = small_cfg();
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let mut lru = Policy::lru(cfg.num_sets(), cfg.ways);
        let report = simulate(
            &records,
            &mut cache,
            &mut lru,
            None,
            &LatencyModel::paper_tlc(),
            None,
        );
        prop_assert_eq!(report.stats.dirty_evictions, 0);
        prop_assert_eq!(report.stats.writes, 0);
    }
}

#[test]
fn page_index_is_stable_across_ops() {
    // Deterministic companion to the proptest suite: Op does not affect
    // page derivation.
    let a = TraceRecord::new(Op::Read, 0xABCDE);
    let b = TraceRecord::new(Op::Write, 0xABCDE);
    assert_eq!(a.page(), b.page());
    assert_eq!(a.page(), PageIndex::from_paddr(0xABCDE));
}
