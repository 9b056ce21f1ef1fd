//! Parameter initialization for EM: weighted k-means++ seeding with a short
//! Lloyd refinement.

use crate::gaussian::{Mat2, Vec2};
use rand::Rng;

/// Lloyd refinement steps after k-means++ seeding: enough to make K = 256
/// EM converge in a handful of iterations on trace data.
const LLOYD_ITERS: usize = 3;

/// Initial `(weights, means, covariances)` for EM: weighted k-means++
/// seeding, [`LLOYD_ITERS`] Lloyd steps, then a hard assignment.
pub(crate) fn init_params<R: Rng + ?Sized>(
    xs: &[Vec2],
    ws: &[f64],
    k: usize,
    reg_covar: f64,
    rng: &mut R,
) -> (Vec<f64>, Vec<Vec2>, Vec<Mat2>) {
    debug_assert!(!xs.is_empty() && k >= 1);
    let w_at = |i: usize| if ws.is_empty() { 1.0 } else { ws[i] };
    let global = global_cov(xs, ws);

    let mut means = kmeanspp_seed(xs, ws, k, rng);
    for _ in 0..LLOYD_ITERS {
        lloyd_step(xs, ws, &mut means, rng);
    }

    // Cluster-responsibility hard assignment for weights and covariances.
    let mut nk = vec![0.0f64; k];
    let mut sums = vec![[0.0f64; 2]; k];
    let mut sq = vec![[0.0f64; 3]; k]; // xx, xy, yy
    for (i, x) in xs.iter().enumerate() {
        let c = nearest(&means, *x);
        let w = w_at(i);
        nk[c] += w;
        sums[c][0] += w * x[0];
        sums[c][1] += w * x[1];
        sq[c][0] += w * x[0] * x[0];
        sq[c][1] += w * x[0] * x[1];
        sq[c][2] += w * x[1] * x[1];
    }
    let total: f64 = nk.iter().sum();
    let mut weights = Vec::with_capacity(k);
    let mut covs = Vec::with_capacity(k);
    let mut out_means = Vec::with_capacity(k);
    for c in 0..k {
        if nk[c] > 1e-12 {
            let m = [sums[c][0] / nk[c], sums[c][1] / nk[c]];
            let cov = Mat2::new(
                (sq[c][0] / nk[c] - m[0] * m[0]).max(0.0) + reg_covar,
                sq[c][1] / nk[c] - m[0] * m[1],
                (sq[c][2] / nk[c] - m[1] * m[1]).max(0.0) + reg_covar,
            );
            out_means.push(m);
            covs.push(if cov.is_spd() {
                cov
            } else {
                spd_fallback(global, reg_covar)
            });
            weights.push(nk[c] / total);
        } else {
            // Empty cluster: park it on a random data point with the global
            // covariance and a tiny weight; EM will reassign mass.
            out_means.push(xs[weighted_index(xs.len(), ws, rng)]);
            covs.push(spd_fallback(global, reg_covar));
            weights.push(1e-6);
        }
    }
    let wsum: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= wsum;
    }
    (weights, out_means, covs)
}

/// Global weighted covariance with regularization, always SPD.
pub(crate) fn global_cov(xs: &[Vec2], ws: &[f64]) -> Mat2 {
    let w_at = |i: usize| if ws.is_empty() { 1.0 } else { ws[i] };
    let total: f64 = (0..xs.len()).map(w_at).sum();
    if total <= 0.0 {
        return Mat2::scaled_identity(1.0);
    }
    let mut mean = [0.0f64; 2];
    for (i, x) in xs.iter().enumerate() {
        mean[0] += w_at(i) * x[0];
        mean[1] += w_at(i) * x[1];
    }
    mean[0] /= total;
    mean[1] /= total;
    let (mut xx, mut xy, mut yy) = (0.0f64, 0.0f64, 0.0f64);
    for (i, x) in xs.iter().enumerate() {
        let dx = x[0] - mean[0];
        let dy = x[1] - mean[1];
        xx += w_at(i) * dx * dx;
        xy += w_at(i) * dx * dy;
        yy += w_at(i) * dy * dy;
    }
    let m = Mat2::new(xx / total + 1e-9, xy / total, yy / total + 1e-9);
    if m.is_spd() {
        m
    } else {
        Mat2::scaled_identity(1.0)
    }
}

fn spd_fallback(global: Mat2, reg: f64) -> Mat2 {
    let m = Mat2::new(global.xx + reg, 0.0, global.yy + reg);
    if m.is_spd() {
        m
    } else {
        Mat2::scaled_identity(1.0 + reg)
    }
}

fn nearest(means: &[Vec2], x: Vec2) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, m) in means.iter().enumerate() {
        let d = (x[0] - m[0]) * (x[0] - m[0]) + (x[1] - m[1]) * (x[1] - m[1]);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Index drawn proportionally to sample weight (uniform when `ws` empty).
fn weighted_index<R: Rng + ?Sized>(n: usize, ws: &[f64], rng: &mut R) -> usize {
    if ws.is_empty() {
        return rng.gen_range(0..n);
    }
    let total: f64 = ws.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (i, w) in ws.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    n - 1
}

/// Weighted k-means++ D² seeding.
fn kmeanspp_seed<R: Rng + ?Sized>(xs: &[Vec2], ws: &[f64], k: usize, rng: &mut R) -> Vec<Vec2> {
    let w_at = |i: usize| if ws.is_empty() { 1.0 } else { ws[i] };
    let mut means = Vec::with_capacity(k);
    means.push(xs[weighted_index(xs.len(), ws, rng)]);
    let mut d2: Vec<f64> = xs.iter().map(|x| dist2(*x, means[0])).collect();
    while means.len() < k {
        let total: f64 = d2.iter().enumerate().map(|(i, d)| d * w_at(i)).sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centers.
            xs[weighted_index(xs.len(), ws, rng)]
        } else {
            let mut u = rng.gen::<f64>() * total;
            let mut idx = xs.len() - 1;
            for (i, d) in d2.iter().enumerate() {
                u -= d * w_at(i);
                if u <= 0.0 {
                    idx = i;
                    break;
                }
            }
            xs[idx]
        };
        means.push(next);
        for (i, x) in xs.iter().enumerate() {
            let d = dist2(*x, next);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    means
}

fn dist2(a: Vec2, b: Vec2) -> f64 {
    (a[0] - b[0]) * (a[0] - b[0]) + (a[1] - b[1]) * (a[1] - b[1])
}

/// One weighted Lloyd iteration; empty clusters are re-seeded randomly.
fn lloyd_step<R: Rng + ?Sized>(xs: &[Vec2], ws: &[f64], means: &mut [Vec2], rng: &mut R) {
    let w_at = |i: usize| if ws.is_empty() { 1.0 } else { ws[i] };
    let k = means.len();
    let mut nk = vec![0.0f64; k];
    let mut sums = vec![[0.0f64; 2]; k];
    for (i, x) in xs.iter().enumerate() {
        let c = nearest(means, *x);
        let w = w_at(i);
        nk[c] += w;
        sums[c][0] += w * x[0];
        sums[c][1] += w * x[1];
    }
    for c in 0..k {
        if nk[c] > 1e-12 {
            means[c] = [sums[c][0] / nk[c], sums[c][1] / nk[c]];
        } else {
            means[c] = xs[weighted_index(xs.len(), ws, rng)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_cluster_data() -> Vec<Vec2> {
        let mut v = Vec::new();
        for i in 0..100 {
            let t = i as f64 * 0.01;
            v.push([t, t * 0.5]);
            v.push([10.0 + t, 5.0 + t * 0.5]);
        }
        v
    }

    #[test]
    fn kmeanspp_finds_both_clusters() {
        let xs = two_cluster_data();
        let mut rng = StdRng::seed_from_u64(1);
        let (w, m, c) = init_params(&xs, &[], 2, 1e-6, &mut rng);
        assert_eq!(w.len(), 2);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // One mean near each cluster centre.
        let near_low = m.iter().any(|m| m[0] < 2.0);
        let near_high = m.iter().any(|m| m[0] > 8.0);
        assert!(near_low && near_high, "means: {m:?}");
        assert!(c.iter().all(|c| c.is_spd()));
    }

    #[test]
    fn more_components_than_points_is_survivable() {
        let xs = vec![[0.0, 0.0], [1.0, 1.0]];
        let mut rng = StdRng::seed_from_u64(3);
        let (w, m, c) = init_params(&xs, &[], 5, 1e-6, &mut rng);
        assert_eq!(m.len(), 5);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(c.iter().all(|c| c.is_spd()));
    }

    #[test]
    fn weights_bias_seeding() {
        // With all mass on the second cluster, seeds should land there.
        let xs = two_cluster_data();
        let ws: Vec<f64> = xs
            .iter()
            .map(|x| if x[0] > 8.0 { 1.0 } else { 1e-12 })
            .collect();
        let mut rng = StdRng::seed_from_u64(4);
        let seeds = kmeanspp_seed(&xs, &ws, 3, &mut rng);
        assert!(seeds.iter().all(|m| m[0] > 8.0), "seeds: {seeds:?}");
    }

    #[test]
    fn global_cov_is_spd_even_degenerate() {
        assert!(global_cov(&[[1.0, 1.0], [1.0, 1.0]], &[]).is_spd());
        assert!(global_cov(&[[0.0, 0.0]], &[0.0]).is_spd());
    }

    #[test]
    fn identical_points_do_not_hang_seeding() {
        let xs = vec![[2.0, 2.0]; 10];
        let mut rng = StdRng::seed_from_u64(5);
        let seeds = kmeanspp_seed(&xs, &[], 4, &mut rng);
        assert_eq!(seeds.len(), 4);
    }
}
