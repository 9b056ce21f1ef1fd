//! Seeded mixtures and sample sets shared by the kernel property suites
//! (`scorer_properties.rs`, `estep_properties.rs`).

use icgmm_gmm::{Gaussian2, Gmm, Mat2, Vec2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded mixture over roughly `[-8, 8]²` with well-separated scales
/// and — when K allows — two zero-weight components (one at a lane
/// boundary).
pub fn mixture(k: usize, seed: u64) -> Gmm {
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
