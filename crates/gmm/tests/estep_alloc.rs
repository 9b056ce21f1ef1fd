//! Allocation accounting for the E-step: what one pass allocates depends
//! on the component count, never on how many samples it walks.
//!
//! The serial E-step owns seven K-length `f64` columns — six
//! sufficient-statistic columns plus the per-sample term scratch — and,
//! from `PARALLEL_ESTEP_MIN` (4 096) samples on, six more for the second
//! half's statistics (the batch is summed in two halves at every thread
//! count); the per-sample loop (kernel terms, responsibility
//! accumulation) stays off the heap. An [`IncrementalEm::refit`] adds the flattened scorer
//! and the rebuilt mixture, both K-sized. A regression to per-sample
//! scratch (a `Vec` of log terms per point, say) fails on the byte
//! counts.
//!
//! One `#[test]` per binary (see `support`).

mod support;

use icgmm_gmm::{e_step, EmConfig, EmTrainer, GmmScorer, IncrementalEm, Vec2};
use support::allocated_by;

fn batch(n: usize) -> Vec<Vec2> {
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            [(i % 5) as f64 - 2.0 + 0.1 * (t * 91.0).sin(), t * 2.0 - 1.0]
        })
        .collect()
}

#[test]
fn estep_allocations_do_not_grow_with_the_sample_count() {
    const K: usize = 256; // the paper's component count
    let cfg = EmConfig {
        k: K,
        max_iters: 2,
        threads: 1,
        ..Default::default()
    };
    // Two batch sizes below the split and two above it.
    let (small, below) = (batch(512), batch(2_048));
    let (large, larger) = (batch(4_096), batch(16_384));
    let (gmm, _) = EmTrainer::new(cfg).unwrap().fit(&small, &[]).unwrap();
    let scorer = GmmScorer::from_gmm(&gmm);

    let column = K * std::mem::size_of::<f64>();
    for (xs, n) in [(&small, 7), (&below, 7), (&large, 13), (&larger, 13)] {
        let (stats, bytes) = allocated_by(|| e_step(&scorer, xs, &[], 1));
        assert_eq!(
            bytes,
            n * column,
            "E-step over {} samples allocated {bytes} B, not {n} K-length \
             columns",
            xs.len()
        );
        assert!(stats.loglik.is_finite());
    }

    let refit_bytes = |xs: &[Vec2]| {
        let mut inc = IncrementalEm::new(&gmm, cfg, 0.6).unwrap();
        let (refit, bytes) = allocated_by(|| inc.refit(xs, &[]));
        refit.expect("refit succeeds");
        bytes
    };
    assert_eq!(
        refit_bytes(&small),
        refit_bytes(&below),
        "a refit's allocations grew with the sample count"
    );
    assert_eq!(
        refit_bytes(&large),
        refit_bytes(&larger),
        "a split refit's allocations grew with the sample count"
    );
}
