//! Seeded mixtures and sample sets shared by the kernel property suites
//! (`scorer_properties.rs`, `estep_properties.rs`).

use icgmm_gmm::{Gaussian2, Gmm, Mat2, Vec2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded mixture over roughly `[-8, 8]²` with well-separated scales
/// and — when K allows — two zero-weight components (one at a lane
/// boundary).
pub fn mixture(k: usize, seed: u64) -> Gmm {
    mixture_in(k, seed, 8.0, -3.0..0.6)
}

/// [`mixture`] with the means drawn from `[-span, span]²` and the
/// variances from `10^log_var`: a small span under large variances makes
/// every component overlap every other, a large span under small ones
/// leaves each point near one component.
pub fn mixture_in(k: usize, seed: u64, span: f64, log_var: std::ops::Range<f64>) -> Gmm {
    let mut rng = StdRng::seed_from_u64(seed ^ k as u64);
    let comps: Vec<Gaussian2> = (0..k)
        .map(|_| {
            let sx = 10f64.powf(rng.gen_range(log_var.clone()));
            let sy = 10f64.powf(rng.gen_range(log_var.clone()));
            let rho = rng.gen_range(-0.95..0.95);
            Gaussian2::new(
                [rng.gen_range(-span..span), rng.gen_range(-span..span)],
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

/// The same mixture with its components in a seeded random order, and
/// that order: `shuffled.components()[i]` is `gmm.components()[perm[i]]`.
pub fn shuffled(gmm: &Gmm, seed: u64) -> (Gmm, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..gmm.k()).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    let weights = perm.iter().map(|&j| gmm.weights()[j]).collect();
    let comps = perm.iter().map(|&j| gmm.components()[j]).collect();
    (
        Gmm::new(weights, comps).expect("a permutation of a valid mixture"),
        perm,
    )
}

/// The kernel's multiply-add: fused exactly where the library fuses, so a
/// reference sees the same per-component log terms.
pub fn fmadd(a: f64, b: f64, c: f64) -> f64 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// `n` points: mostly in the mixture's support, with every ninth drawn
/// in turn from `odd` (the caller's far and non-finite inputs).
pub fn points(n: usize, seed: u64, odd: &[Vec2]) -> Vec<Vec2> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 9 == 4 {
                odd[(i / 9) % odd.len()]
            } else {
                [rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)]
            }
        })
        .collect()
}
