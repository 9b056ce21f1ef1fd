//! Allocation accounting for scorer hand-off and single-point scoring:
//! cloning a [`GmmScorer`] and calling [`GmmScorer::log_density`] must
//! each allocate **zero** heap bytes, and so must scoring through a warm
//! [`TimeSlice`](icgmm_gmm::TimeSlice).
//!
//! The flattened SoA tables (six K-length `f64` columns — 12 KiB at the
//! paper's K = 256) live behind an `Arc`, so handing a scorer to each
//! shard worker or serving thread is an atomic refcount bump that shares
//! one weight buffer, exactly like the paper's scoring pipelines all
//! reading one BRAM weight buffer. This test pins that with a counting
//! global allocator: a regression back to deep-copied tables (six `Vec`
//! clones per worker per model swap) fails on the exact byte count.
//!
//! One `#[test]` per binary (see `support`).

mod support;

use icgmm_gmm::{Gaussian2, Gmm, GmmScorer, Mat2, TimeSlice};
use support::allocated_by;

fn spread_gmm(k: usize) -> Gmm {
    let comps: Vec<Gaussian2> = (0..k)
        .map(|i| {
            let t = i as f64 / k as f64;
            Gaussian2::new(
                [t * 10.0 - 5.0, (t * std::f64::consts::TAU).sin()],
                Mat2::new(0.05 + t * 0.1, 0.01, 0.08),
            )
            .unwrap()
        })
        .collect();
    Gmm::new(vec![1.0 / k as f64; k], comps).unwrap()
}

#[test]
fn scorer_clone_allocates_zero_table_bytes() {
    const K: usize = 256; // the paper's component count
    let gmm = spread_gmm(K);

    // Flattening is where the table bytes are paid — once.
    let (scorer, build_bytes) = allocated_by(|| GmmScorer::from_gmm(&gmm));
    let table_bytes = 6 * K * std::mem::size_of::<f64>();
    assert!(
        build_bytes >= table_bytes,
        "flattening allocated {build_bytes} B, below the {table_bytes} B \
         the six K-length tables require — the tables went missing"
    );

    // Hand-off is free: one refcount bump, zero heap bytes.
    let (copy, clone_bytes) = allocated_by(|| scorer.clone());
    assert_eq!(
        clone_bytes, 0,
        "scorer.clone() allocated {clone_bytes} B; per-worker hand-off \
         must share the tables, not copy them"
    );

    // The shared clone scores bit-identically to the original.
    let x = [0.7, -0.3];
    assert_eq!(
        copy.log_density(x).to_bits(),
        scorer.log_density(x).to_bits()
    );
    assert_eq!(copy, scorer);

    // Single-point scoring — the per-miss path of streaming replay —
    // stays on the stack: one block of terms at K = 256, block by block
    // past it.
    for scorer in [scorer, GmmScorer::from_gmm(&spread_gmm(300))] {
        let (_, score_bytes) = allocated_by(|| scorer.log_density(x));
        assert_eq!(
            score_bytes,
            0,
            "log_density at K = {} allocated {score_bytes} B",
            scorer.k()
        );
        // A time slice allocates the first time it meets a K (its stage)
        // and the first time it builds halves for it; after that, new
        // time coordinates and kept halves are free.
        let mut slice = TimeSlice::default();
        scorer.log_density_in(x, &mut slice);
        scorer.log_density_in(x, &mut slice);
        let (_, slice_bytes) = allocated_by(|| {
            for y in [x[1], 0.5, 0.5, 0.5] {
                scorer.log_density_in([x[0], y], &mut slice);
            }
        });
        assert_eq!(
            slice_bytes,
            0,
            "log_density_in at K = {} allocated {slice_bytes} B",
            scorer.k()
        );
    }
}
