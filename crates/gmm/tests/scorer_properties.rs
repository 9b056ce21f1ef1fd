//! Properties of the scorer's canonical log-sum-exp order (component `j`
//! accumulates into partial `j % 8`, one fixed combine tree):
//!
//! * single-point ≡ `score_batch` ≡ `score_batch_parallel`, bit for bit,
//!   at component counts straddling the 8 partials and the 256-term stack
//!   block, batch sizes straddling the 64-point chunk, zero-weight
//!   (`−∞`-coef) components, far points and non-finite inputs;
//! * `log_density` stays within 4 ulp of the component-order sum — which
//!   is what `responsibilities_into` still returns as its `lse` (the
//!   E-step keeps the order fitted models were trained under, so the two
//!   no longer share a summation order).

use icgmm_gmm::{Gaussian2, Gmm, GmmScorer, Mat2, Vec2};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Component counts around every structural boundary of the kernels:
/// fewer than / exactly / just past the 8 partials, the 64-point chunk
/// width, and the single-point kernel's 256-term block (257 and 300 take
/// its multi-block path).
const KS: [usize; 13] = [1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256, 257, 300];

/// Batch sizes straddling the 64-point chunk.
const BATCHES: [usize; 9] = [0, 1, 7, 63, 64, 65, 127, 128, 200];

/// A seeded mixture with well-separated scales and — when K allows — two
/// zero-weight components (one at a lane boundary).
fn mixture(k: usize, seed: u64) -> Gmm {
    let mut rng = StdRng::seed_from_u64(seed ^ k as u64);
    let comps: Vec<Gaussian2> = (0..k)
        .map(|_| {
            let sx = 10f64.powf(rng.gen_range(-3.0..0.6));
            let sy = 10f64.powf(rng.gen_range(-3.0..0.6));
            let rho = rng.gen_range(-0.95..0.95);
            Gaussian2::new(
                [rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0)],
                Mat2::new(sx, rho * (sx * sy).sqrt(), sy),
            )
            .expect("positive-definite by construction")
        })
        .collect();
    let mut weights: Vec<f64> = (0..k).map(|_| rng.gen_range(0.01..1.0)).collect();
    if k > 2 {
        weights[k / 2] = 0.0;
        weights[(k - 1) / 8 * 8] = 0.0;
    }
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    Gmm::new(weights, comps).expect("valid mixture")
}

/// `n` points: mostly in the mixture's support, with far points (every
/// term clamps or underflows) and non-finite inputs mixed in.
fn points(n: usize, seed: u64) -> Vec<Vec2> {
    const ODD: [Vec2; 8] = [
        [1e9, 1e9],
        [-1e4, 3e3],
        [f64::NAN, 0.0],
        [0.0, f64::NAN],
        [f64::INFINITY, 0.0],
        [f64::NEG_INFINITY, f64::INFINITY],
        [1e154, -1e154],
        [0.0, 0.0],
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 9 == 4 {
                ODD[(i / 9) % ODD.len()]
            } else {
                [rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)]
            }
        })
        .collect()
}

fn assert_all_paths_agree(scorer: &GmmScorer, xs: &[Vec2], threads: usize, ctx: &str) {
    let mut logs = vec![0.0; xs.len()];
    scorer.log_density_batch(xs, &mut logs);
    let mut batch = vec![0.0; xs.len()];
    scorer.score_batch(xs, &mut batch);
    let mut parallel = vec![0.0; xs.len()];
    scorer.score_batch_parallel(xs, &mut parallel, threads);
    for (i, x) in xs.iter().enumerate() {
        assert_eq!(
            logs[i].to_bits(),
            scorer.log_density(*x).to_bits(),
            "{ctx}: log batch vs single at {x:?}"
        );
        assert_eq!(
            batch[i].to_bits(),
            scorer.score(*x).to_bits(),
            "{ctx}: batch vs single at {x:?}"
        );
        assert_eq!(
            parallel[i].to_bits(),
            batch[i].to_bits(),
            "{ctx}: parallel vs batch at {x:?}"
        );
    }
}

/// Units in the last place between two finite doubles.
fn ulps(a: f64, b: f64) -> u64 {
    assert!(a.is_finite() && b.is_finite());
    // Map the sign-magnitude bit patterns onto one monotone integer line.
    let line = |x: f64| {
        let bits = x.to_bits() as i64;
        bits ^ (((bits >> 63) as u64) >> 1) as i64
    };
    line(a).abs_diff(line(b))
}

#[test]
fn single_batched_and_parallel_agree_at_every_k_and_batch_size() {
    for k in KS {
        let scorer = GmmScorer::from_gmm(&mixture(k, 0xA11CE));
        for n in BATCHES {
            let xs = points(n, (k * 1000 + n) as u64);
            assert_all_paths_agree(&scorer, &xs, 2, &format!("K={k} n={n}"));
        }
    }
}

#[test]
fn parallel_split_keeps_the_order_on_large_batches() {
    // Above the parallel threshold the batch really is split across
    // workers (at whole-chunk boundaries); 3 threads gives ragged spans.
    for k in [9usize, 257] {
        let scorer = GmmScorer::from_gmm(&mixture(k, 0xB0B));
        let xs = points(4_096 + 65, k as u64);
        for threads in [2usize, 3] {
            assert_all_paths_agree(&scorer, &xs, threads, &format!("K={k} threads={threads}"));
        }
    }
}

#[test]
fn log_density_is_within_4_ulp_of_the_component_order_sum() {
    let mut worst = 0u64;
    for k in KS {
        let gmm = mixture(k, 0x5EED);
        let scorer = GmmScorer::from_gmm(&gmm);
        let mut resp = vec![0.0; k];
        for x in points(300, k as u64) {
            let got = scorer.log_density(x);
            let lse = scorer.responsibilities_into(x, &mut resp);
            if !lse.is_finite() {
                assert_eq!(got.to_bits(), lse.to_bits(), "K={k} x={x:?}");
                continue;
            }
            let d = ulps(got, lse);
            worst = worst.max(d);
            assert!(d <= 4, "K={k} x={x:?}: {got} vs lse {lse} ({d} ulp)");
            // Up to three terms the combine tree adds in component order.
            if k <= 3 {
                assert_eq!(d, 0, "K={k} x={x:?}");
            }
        }
    }
    // The orders really differ: the bound above is not vacuous.
    assert!(worst > 0, "lane-strided and serial sums never differed");
}

proptest! {
    /// Random mixtures and points: the three scoring paths agree bit for
    /// bit and stay within 4 ulp of the component-order `lse`.
    #[test]
    fn paths_agree_on_random_mixtures(
        k_idx in 0usize..KS.len(),
        seed in any::<u64>(),
        n in 1usize..150,
    ) {
        let k = KS[k_idx];
        let scorer = GmmScorer::from_gmm(&mixture(k, seed));
        let xs = points(n, seed.rotate_left(17));
        assert_all_paths_agree(&scorer, &xs, 2, &format!("K={k} seed={seed} n={n}"));
        let mut resp = vec![0.0; k];
        for x in &xs {
            let got = scorer.log_density(*x);
            let lse = scorer.responsibilities_into(*x, &mut resp);
            if lse.is_finite() {
                prop_assert!(ulps(got, lse) <= 4, "K={} x={:?}: {} vs {}", k, x, got, lse);
            } else {
                prop_assert_eq!(got.to_bits(), lse.to_bits());
            }
        }
    }
}
