//! Properties of the scorer's canonical log-sum-exp order (component `j`
//! accumulates into partial `j % 8`, one fixed combine tree):
//!
//! * single-point ≡ `score_batch` ≡ `score_batch_parallel`, bit for bit,
//!   at component counts straddling the 8 partials and the 256-term stack
//!   block, batch sizes straddling the 64-point chunk, zero-weight
//!   (`−∞`-coef) components, far points and non-finite inputs;
//! * `log_density` equals, bit for bit, the `lse` that
//!   `responsibilities_into` returns — the E-step primitive runs the same
//!   loops in the same order, so training and inference agree on every
//!   point's log-likelihood.

#[path = "support/fixtures.rs"]
mod fixtures;

use fixtures::mixture;
use icgmm_gmm::{GmmScorer, Vec2};
use proptest::prelude::*;

/// Component counts around every structural boundary of the kernels:
/// fewer than / exactly / just past the 8 partials, the 64-point chunk
/// width, and the single-point kernel's 256-term block (257 and 300 take
/// its multi-block path).
const KS: [usize; 13] = [1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256, 257, 300];

/// Batch sizes straddling the 64-point chunk.
const BATCHES: [usize; 9] = [0, 1, 7, 63, 64, 65, 127, 128, 200];

/// Far points (every term clamps or underflows) and non-finite inputs.
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

/// `log_density(x)` and the E-step's `lse` at `x` are the same bits, and
/// finite responsibilities form a distribution.
fn assert_lse_is_log_density(scorer: &GmmScorer, x: Vec2, resp: &mut [f64], ctx: &str) {
    let got = scorer.log_density(x);
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

proptest! {
    /// Random mixtures and points: the three scoring paths and the E-step
    /// `lse` agree bit for bit.
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
