//! Properties of the scorer's one kernel (masked unit terms, slot `s`
//! accumulating into partial `s % 8`, one fixed combine tree, near-set
//! skip):
//!
//! * `log_density` equals, bit for bit, a reference written out here that
//!   evaluates **all** K masked terms in slot order and skips nothing —
//!   at component counts straddling the 8 partials and the 256-term stack
//!   block, with every component overlapping every other (the
//!   straight-line loop) and with each point near one component (the
//!   skipping loop), zero-weight (`−∞`-coef) components, far points and
//!   non-finite inputs;
//! * `log_density_batch` ≡ `score_batch` ≡ `score_batch_parallel` ≡
//!   `log_density_in` through a [`TimeSlice`] ≡ `unit_terms_into`'s
//!   `m + ln Σ` ≡ `responsibilities_into`'s `lse` ≡ `log_density`, bit for
//!   bit — they are all the same two passes, so training and inference
//!   agree on every point's log-likelihood, whether the time halves were
//!   rebuilt, reused, or carried over from another scorer;
//! * the stated bound: masking moves `ln G` by at most `(K−1)·e⁻⁴⁴`
//!   against an unmasked libm log-sum-exp, on a mixture built to sit
//!   right at the cut;
//! * the order a mixture lists its components in is invisible at the API.

#[path = "support/fixtures.rs"]
mod fixtures;

use fixtures::{fmadd, mixture, mixture_in, shuffled};
use icgmm_gmm::scorer::TERM_CUT;
use icgmm_gmm::{Gaussian2, Gmm, GmmScorer, Mat2, TimeSlice, Vec2};
use proptest::prelude::*;

/// Component counts around every structural boundary of the kernel:
/// fewer than / exactly / just past the 8 partials and the 256-term stack
/// block (257, 300 and 1 024 take its multi-block path).
const KS: [usize; 14] = [1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256, 257, 300, 1024];

/// Batch sizes from empty to a few hundred.
const BATCHES: [usize; 9] = [0, 1, 7, 63, 64, 65, 127, 128, 200];

/// Far points (every term is cut or underflows) and non-finite inputs.
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

fn points(n: usize, seed: u64) -> Vec<Vec2> {
    fixtures::points(n, seed, &ODD)
}

/// `log_density_in` through one slice equals `log_density`: the points as
/// given (a new key per `y`), sorted by `y` (runs of equal `y`, the
/// non-finite ones included, build and reuse halves) and in runs of four
/// sharing the first one's `y` (keyed, built, then kept twice).
fn assert_slice_agrees(scorer: &GmmScorer, xs: &[Vec2], ctx: &str) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a[1].total_cmp(&b[1]));
    let runs: Vec<Vec2> = (0..xs.len())
        .map(|i| [xs[i][0], xs[i / 4 * 4][1]])
        .collect();
    let mut slice = TimeSlice::default();
    for (feed, pts) in [
        ("as given", xs),
        ("sorted by y", &sorted),
        ("in runs", &runs),
    ] {
        for x in pts {
            assert_eq!(
                scorer.log_density_in(*x, &mut slice).to_bits(),
                scorer.log_density(*x).to_bits(),
                "{ctx} ({feed}): slice vs single at {x:?}"
            );
        }
    }
}

fn assert_all_paths_agree(scorer: &GmmScorer, xs: &[Vec2], threads: usize, ctx: &str) {
    assert_slice_agrees(scorer, xs, ctx);
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
    // workers; 3 threads gives ragged spans.
    for k in [9usize, 257] {
        let scorer = GmmScorer::from_gmm(&mixture(k, 0xB0B));
        let xs = points(4_096 + 65, k as u64);
        for threads in [2usize, 3] {
            assert_all_paths_agree(&scorer, &xs, threads, &format!("K={k} threads={threads}"));
        }
    }
}

#[test]
fn a_slice_carried_to_another_scorer_is_rebuilt() {
    // A's halves are built and kept at `y`; B is built after A's tables
    // are dropped, at A's K or another, so a slice keyed by the tables'
    // address could find B's tables where A's were and keep A's halves.
    // The slice holds A's tables instead, and scores B as B.
    let mut slice = TimeSlice::default();
    let x = [0.25, -1.5];
    for (round, k) in (0u64..).zip([256usize, 256, 257, 9, 1024, 256]) {
        let a = GmmScorer::from_gmm(&mixture(k, 2 * round));
        let on_a = a.log_density(x);
        for _ in 0..3 {
            let got = a.log_density_in(x, &mut slice);
            assert_eq!(got.to_bits(), on_a.to_bits(), "K={k}: A");
        }
        drop(a);
        let b = GmmScorer::from_gmm(&mixture(k, 2 * round + 1));
        let on_b = b.log_density_in(x, &mut slice);
        assert_eq!(on_b.to_bits(), b.log_density(x).to_bits(), "K={k}: B");
        assert_ne!(on_a.to_bits(), on_b.to_bits(), "K={k}: A and B must differ");
    }
}

/// `log_density(x)`, the E-step primitive's `m + ln Σ` and the `lse`
/// `responsibilities_into` returns are the same bits, and finite
/// responsibilities form a distribution.
fn assert_lse_is_log_density(scorer: &GmmScorer, x: Vec2, resp: &mut [f64], ctx: &str) {
    let got = scorer.log_density(x);
    let (m, sum) = scorer.unit_terms_into(x, resp);
    let from_terms = if m.is_finite() { m + sum.ln() } else { m };
    assert_eq!(
        got.to_bits(),
        from_terms.to_bits(),
        "{ctx} x={x:?}: {got} vs unit terms {from_terms}"
    );
    let lse = scorer.responsibilities_into(x, resp);
    assert_eq!(
        got.to_bits(),
        lse.to_bits(),
        "{ctx} x={x:?}: {got} vs {lse}"
    );
    if lse.is_finite() {
        let total: f64 = resp.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "{ctx} x={x:?}: Σr = {total}");
    }
}

#[test]
fn log_density_equals_the_estep_lse_bit_for_bit() {
    for k in KS {
        let scorer = GmmScorer::from_gmm(&mixture(k, 0x5EED));
        let mut resp = vec![0.0; k];
        for x in points(300, k as u64) {
            assert_lse_is_log_density(&scorer, x, &mut resp, &format!("K={k}"));
        }
    }
}

/// The kernel's `exp` on `[TERM_CUT, 0]`, restated: Cody–Waite reduction,
/// Cephes rational, exponent-bits scale (see `scorer::exp_unit`).
fn exp_unit_reference(x: f64) -> f64 {
    let n = (x * std::f64::consts::LOG2_E).round_ties_even();
    let r = fmadd(
        n,
        -1.428_606_820_309_417_2e-6,
        fmadd(n, -0.693_145_751_953_125, x),
    );
    let rr = r * r;
    let p = r * fmadd(
        rr,
        fmadd(rr, 1.261_771_930_748_105_9e-4, 3.029_944_077_074_419_6e-2),
        1.0,
    );
    let q = fmadd(
        rr,
        fmadd(
            rr,
            fmadd(rr, 3.001_985_051_386_644_5e-6, 2.524_483_403_496_841e-3),
            2.272_655_482_081_550_3e-1,
        ),
        2.0,
    );
    let e = fmadd(2.0, p / (q - p), 1.0);
    e * f64::from_bits((n + (4_503_599_627_370_496.0 + 1_023.0)).to_bits() << 52)
}

/// The definition, with nothing skipped: every component's log term in
/// slot order (ascending mean page, ties in component order), every
/// masked unit term evaluated, slot `s` summed into partial `s % 8`.
fn reference_log_density(gmm: &Gmm, x: Vec2) -> f64 {
    let mut order: Vec<usize> = (0..gmm.k()).collect();
    order.sort_by(|&a, &b| {
        let page = |j: usize| gmm.components()[j].mean()[0];
        page(a).total_cmp(&page(b))
    });
    let logs: Vec<f64> = order
        .iter()
        .map(|&j| {
            let (w, c) = (gmm.weights()[j], &gmm.components()[j]);
            let lw = if w > 0.0 { w.ln() } else { f64::NEG_INFINITY };
            let (inv, mu) = (c.inv_cov(), c.mean());
            let (dx, dy) = (x[0] - mu[0], x[1] - mu[1]);
            fmadd(
                -0.5 * inv.xx,
                dx * dx,
                fmadd(
                    -inv.xy,
                    dx * dy,
                    fmadd(-0.5 * inv.yy, dy * dy, lw + c.log_norm()),
                ),
            )
        })
        .collect();
    // NaN terms never win the max.
    let m = logs
        .iter()
        .fold(f64::NEG_INFINITY, |m, &l| if l > m { l } else { m });
    if !m.is_finite() {
        return m;
    }
    let mut lanes = [0.0f64; 8];
    for (slot, &l) in logs.iter().enumerate() {
        let t = l - m;
        lanes[slot % 8] += if t > TERM_CUT {
            exp_unit_reference(t)
        } else {
            0.0
        };
    }
    let s = lanes;
    m + (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))).ln()
}

/// Every component overlaps every other: no lane group can be skipped.
fn dense_mixture(k: usize, seed: u64) -> Gmm {
    mixture_in(k, seed, 1.0, 0.8..1.5)
}

/// Narrow components scattered over a wide plane: almost every lane
/// group is far from any one point.
fn sparse_mixture(k: usize, seed: u64) -> Gmm {
    mixture_in(k, seed, 50.0, -3.0..-1.0)
}

/// Points near the mixture's own components (every third one a far or
/// non-finite input), so the sparse regime has a leading term to be
/// sparse around.
fn points_near(gmm: &Gmm, n: usize, seed: u64) -> Vec<Vec2> {
    points(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let mu = gmm.components()[i % gmm.k()].mean();
            match i % 3 {
                0 => [mu[0] + p[0] * 1e-3, mu[1] + p[1] * 1e-3],
                1 => [mu[0] + p[0] * 0.05, mu[1] + p[1] * 0.05],
                _ => p,
            }
        })
        .collect()
}

fn assert_matches_reference(gmm: &Gmm, xs: &[Vec2], ctx: &str) {
    let scorer = GmmScorer::from_gmm(gmm);
    for x in xs {
        let (got, want) = (scorer.log_density(*x), reference_log_density(gmm, *x));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{ctx} x={x:?}: kernel {got} vs reference {want}"
        );
    }
}

#[test]
fn log_density_is_the_unskipped_masked_sum_in_slot_order() {
    for k in [1usize, 3, 8, 9, 64, 256, 257, 1024] {
        for (gmm, regime) in [
            (dense_mixture(k, 0xD0), "dense"),
            (sparse_mixture(k, 0x5A), "sparse"),
            (mixture(k, 0x31), "mixed"),
        ] {
            let xs = points_near(&gmm, 120, k as u64);
            assert_matches_reference(&gmm, &xs, &format!("K={k} {regime}"));
        }
    }
}

#[test]
fn masking_stays_within_the_stated_bound() {
    // One component on the probe point and K−1 identical ones parked on a
    // circle around it at the radius where their terms sit just below the
    // cut: the kernel drops all of them, libm's log-sum-exp keeps them.
    for k in [2usize, 9, 256, 1024] {
        let radius = (2.0 * (-TERM_CUT + 1e-9)).sqrt();
        let comps: Vec<Gaussian2> = (0..k)
            .map(|j| {
                let angle = j as f64 / k as f64 * std::f64::consts::TAU;
                let r = if j == 0 { 0.0 } else { radius };
                Gaussian2::new(
                    [r * angle.cos(), r * angle.sin()],
                    Mat2::scaled_identity(1.0),
                )
                .expect("unit covariance")
            })
            .collect();
        let gmm = Gmm::new(vec![1.0 / k as f64; k], comps).expect("uniform weights");
        let x = [0.0, 0.0];
        let logs: Vec<f64> = gmm
            .components()
            .iter()
            .map(|c| (1.0 / k as f64).ln() + c.log_pdf(x))
            .collect();
        let m = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let parked = logs.iter().filter(|&&l| l - m <= TERM_CUT).count();
        assert_eq!(parked, k - 1, "K={k}: the circle missed the cut");
        let unmasked = m + logs.iter().map(|l| (l - m).exp()).sum::<f64>().ln();
        let got = GmmScorer::from_gmm(&gmm).log_density(x);
        let ulp = f64::EPSILON * unmasked.abs();
        let bound = (k - 1) as f64 * TERM_CUT.exp() + 4.0 * ulp;
        assert!(
            (got - unmasked).abs() <= bound,
            "K={k}: |{got} − {unmasked}| = {:e} > {bound:e}",
            (got - unmasked).abs()
        );
    }
}

#[test]
fn component_order_is_invisible_at_the_api() {
    for k in KS {
        let gmm = mixture(k, 0x0DD);
        let (mixed, perm) = shuffled(&gmm, 31 * k as u64);
        let (a, b) = (GmmScorer::from_gmm(&gmm), GmmScorer::from_gmm(&mixed));
        let (mut ra, mut rb) = (vec![0.0; k], vec![0.0; k]);
        for x in points(200, k as u64) {
            assert_eq!(
                a.log_density(x).to_bits(),
                b.log_density(x).to_bits(),
                "K={k} x={x:?}"
            );
            let (la, lb) = (
                a.responsibilities_into(x, &mut ra),
                b.responsibilities_into(x, &mut rb),
            );
            assert_eq!(la.to_bits(), lb.to_bits(), "K={k} x={x:?}");
            if !la.is_finite() {
                continue; // `out` is left untouched: nothing to compare
            }
            for (i, &j) in perm.iter().enumerate() {
                assert_eq!(
                    rb[i].to_bits(),
                    ra[j].to_bits(),
                    "K={k} x={x:?}: shuffled component {i} is component {j}"
                );
            }
        }
    }
}

proptest! {
    /// Random mixtures in both regimes: the kernel is the unskipped masked
    /// sum.
    #[test]
    fn kernel_matches_reference_on_random_mixtures(
        k_idx in 0usize..KS.len(),
        seed in any::<u64>(),
        dense in any::<bool>(),
    ) {
        let k = KS[k_idx];
        let gmm = if dense { dense_mixture(k, seed) } else { sparse_mixture(k, seed) };
        let xs = points_near(&gmm, 40, seed.rotate_left(9));
        assert_matches_reference(&gmm, &xs, &format!("K={k} seed={seed} dense={dense}"));
    }

    /// Random mixtures and points: the scoring paths (the time slice
    /// included) and the E-step `lse` agree bit for bit.
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
            assert_lse_is_log_density(&scorer, *x, &mut resp, &format!("K={k} seed={seed}"));
        }
    }
}
