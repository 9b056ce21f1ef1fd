//! The vectorised E-step against the loop it replaced.
//!
//! [`e_step`] runs on the scoring kernel (polynomial `exp`, lane-strided
//! sum, structure-of-arrays statistics, far-component responsibilities
//! flushed to zero). The reference below is the historical loop — libm
//! `exp`, component-order sum, array-of-structs statistics, `r == 0`
//! skipped — kept here, and only here, as the numerical yardstick:
//!
//! * statistics agree to 1e-11 (relative or absolute), the log-likelihood
//!   to 1e-12 relative, and the starved set (`nk ≤ 1e-10`, what the
//!   M-step re-seeds) is identical, at component counts straddling the 8
//!   partial sums and the 256-term block, weighted and unweighted, with
//!   zero-weight components, far points and non-finite points;
//! * a fixed-seed K = 16 fit ends on the same mean log-likelihood as the
//!   reference loop iterated from the same start;
//! * the order a mixture lists its components in is invisible: a shuffled
//!   copy yields bit-identical statistics once un-shuffled (the scorer
//!   lays both out by mean page and accumulates in that slot order).

#[path = "support/fixtures.rs"]
mod fixtures;

use fixtures::{fmadd, mixture, shuffled};
use icgmm_gmm::{e_step, EmConfig, EmTrainer, Gaussian2, Gmm, GmmScorer, Mat2, SuffStats, Vec2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KS: [usize; 9] = [1, 2, 7, 8, 9, 255, 256, 257, 300];

/// Array-of-structs statistics, as the historical loop kept them.
struct RefStats {
    nk: Vec<f64>,
    sx: Vec<[f64; 2]>,
    sq: Vec<[f64; 3]>, // xx, xy, yy
    loglik: f64,
}

/// The E-step loop as it stood before it moved onto the scoring kernel
/// (`fmadd` fuses exactly where the kernel does, so the comparison
/// isolates the `exp`, the sum order and the accumulation).
fn reference_e_step(gmm: &Gmm, xs: &[Vec2], ws: &[f64]) -> RefStats {
    let k = gmm.k();
    // (coef, mean, −½Σ⁻¹ₓₓ, −Σ⁻¹ₓᵧ, −½Σ⁻¹ᵧᵧ) — how the scorer flattens a
    // component.
    let table: Vec<(f64, Vec2, f64, f64, f64)> = gmm
        .weights()
        .iter()
        .zip(gmm.components())
        .map(|(w, c)| {
            let lw = if *w > 0.0 { w.ln() } else { f64::NEG_INFINITY };
            let inv = c.inv_cov();
            (
                lw + c.log_norm(),
                c.mean(),
                -0.5 * inv.xx,
                -inv.xy,
                -0.5 * inv.yy,
            )
        })
        .collect();
    let mut stats = RefStats {
        nk: vec![0.0; k],
        sx: vec![[0.0; 2]; k],
        sq: vec![[0.0; 3]; k],
        loglik: 0.0,
    };
    let mut logs = vec![0.0f64; k];
    for (i, x) in xs.iter().enumerate() {
        let w = if ws.is_empty() { 1.0 } else { ws[i] };
        let mut m = f64::NEG_INFINITY;
        for (l, &(coef, mu, hxx, hxy, hyy)) in logs.iter_mut().zip(&table) {
            let (dx, dy) = (x[0] - mu[0], x[1] - mu[1]);
            *l = fmadd(hxx, dx * dx, fmadd(hxy, dx * dy, fmadd(hyy, dy * dy, coef)));
            if *l > m {
                m = *l;
            }
        }
        if !m.is_finite() {
            continue;
        }
        let mut sum = 0.0;
        for l in logs.iter_mut() {
            *l = (*l - m).exp();
            sum += *l;
        }
        stats.loglik += w * (m + sum.ln());
        let inv_sum = 1.0 / sum;
        for (j, lj) in logs.iter().enumerate() {
            let r = lj * inv_sum * w;
            if r == 0.0 {
                continue;
            }
            stats.nk[j] += r;
            stats.sx[j][0] += r * x[0];
            stats.sx[j][1] += r * x[1];
            stats.sq[j][0] += r * x[0] * x[0];
            stats.sq[j][1] += r * x[0] * x[1];
            stats.sq[j][2] += r * x[1] * x[1];
        }
    }
    stats
}

/// Far points (all but the nearest components clamp) and non-finite
/// points (skipped). No coordinate is large enough to turn a log term into
/// `∞ − ∞`: the kernel skips such NaN terms, libm `exp` would poison the
/// reference.
const ODD: [Vec2; 8] = [
    [1e9, 1e9],
    [-1e4, 3e3],
    [f64::NAN, 0.0],
    [60.0, -45.0],
    [f64::INFINITY, 0.0],
    [f64::NEG_INFINITY, f64::INFINITY],
    [0.0, f64::NAN],
    [0.0, 0.0],
];

fn samples(n: usize, seed: u64) -> Vec<Vec2> {
    fixtures::points(n, seed, &ODD)
}

fn close(got: f64, want: f64, tol: f64) -> bool {
    let d = (got - want).abs();
    d <= tol || d <= tol * got.abs().max(want.abs())
}

fn assert_stats_agree(got: &SuffStats, want: &RefStats, ctx: &str) {
    assert!(
        (got.loglik - want.loglik).abs() <= 1e-12 * want.loglik.abs(),
        "{ctx}: loglik {} vs {}",
        got.loglik,
        want.loglik
    );
    for j in 0..want.nk.len() {
        let pairs = [
            ("nk", got.nk[j], want.nk[j]),
            ("sx0", got.sx0[j], want.sx[j][0]),
            ("sx1", got.sx1[j], want.sx[j][1]),
            ("sxx", got.sxx[j], want.sq[j][0]),
            ("sxy", got.sxy[j], want.sq[j][1]),
            ("syy", got.syy[j], want.sq[j][2]),
        ];
        for (name, g, w) in pairs {
            assert!(close(g, w, 1e-11), "{ctx}: {name}[{j}] {g} vs {w}");
        }
        assert_eq!(
            got.nk[j] <= 1e-10,
            want.nk[j] <= 1e-10,
            "{ctx}: component {j} starved on one side only ({} vs {})",
            got.nk[j],
            want.nk[j]
        );
    }
}

#[test]
fn vectorised_estep_matches_the_scalar_reference_at_every_k() {
    for k in KS {
        let gmm = mixture(k, 0xE57E9);
        let scorer = GmmScorer::from_gmm(&gmm);
        let xs = samples(400, k as u64);
        let ws: Vec<f64> = (0..xs.len()).map(|i| 0.25 + (i % 7) as f64).collect();
        for (ws, label) in [(&[][..], "unweighted"), (&ws[..], "weighted")] {
            let want = reference_e_step(&gmm, &xs, ws);
            let got = e_step(&scorer, &xs, ws);
            assert_stats_agree(&got, &want, &format!("K={k} {label}"));
            if k > 2 {
                assert_eq!(
                    got.nk[k / 2],
                    0.0,
                    "K={k}: a zero-weight component took mass"
                );
            }
        }
    }
}

#[test]
fn parallel_estep_matches_the_scalar_reference() {
    // Above the serial/parallel crossover the batch really is split in two
    // halves (on two workers when the host has a second core) and the
    // partials merged.
    let gmm = mixture(9, 0xBEE);
    let scorer = GmmScorer::from_gmm(&gmm);
    let xs = samples(5_000, 77);
    let ws: Vec<f64> = (0..xs.len()).map(|i| 1.0 + (i % 3) as f64).collect();
    let want = reference_e_step(&gmm, &xs, &ws);
    let got = e_step(&scorer, &xs, &ws);
    assert_stats_agree(&got, &want, "split batch");
}

#[test]
fn estep_statistics_do_not_depend_on_component_order() {
    // Every K serially, and one batch large enough to really be split.
    let cases = KS.map(|k| (k, 300)).into_iter().chain([(9, 4_300)]);
    for (k, n) in cases {
        let gmm = mixture(k, 0x0DE4);
        let (mixed, perm) = shuffled(&gmm, k as u64);
        let xs = samples(n, 3 * k as u64);
        let ws: Vec<f64> = (0..xs.len()).map(|i| 0.5 + (i % 5) as f64).collect();
        let want = e_step(&GmmScorer::from_gmm(&gmm), &xs, &ws);
        let got = e_step(&GmmScorer::from_gmm(&mixed), &xs, &ws);
        assert_eq!(got.loglik.to_bits(), want.loglik.to_bits(), "K={k}");
        let columns = [
            (&got.nk, &want.nk),
            (&got.sx0, &want.sx0),
            (&got.sx1, &want.sx1),
            (&got.sxx, &want.sxx),
            (&got.sxy, &want.sxy),
            (&got.syy, &want.syy),
        ];
        for (c, (got, want)) in columns.into_iter().enumerate() {
            for (i, &j) in perm.iter().enumerate() {
                assert_eq!(
                    got[i].to_bits(),
                    want[j].to_bits(),
                    "K={k} n={n} column {c}: shuffled component {i} is \
                     component {j}"
                );
            }
        }
    }
}

/// The M-step on reference statistics (no component starves in the fit
/// below, so there is no re-seeding to mirror).
fn reference_m_step(stats: &RefStats, total_w: f64, reg: f64) -> Gmm {
    let mut weights = Vec::new();
    let mut comps = Vec::new();
    for j in 0..stats.nk.len() {
        let nk = stats.nk[j];
        assert!(nk > 1e-10, "component {j} starved in the reference fit");
        let mean = [stats.sx[j][0] / nk, stats.sx[j][1] / nk];
        let cov = Mat2::new(
            (stats.sq[j][0] / nk - mean[0] * mean[0]).max(0.0) + reg,
            stats.sq[j][1] / nk - mean[0] * mean[1],
            (stats.sq[j][2] / nk - mean[1] * mean[1]).max(0.0) + reg,
        );
        weights.push(nk / total_w);
        comps.push(Gaussian2::new(mean, cov).expect("reference covariance is SPD"));
    }
    let sum: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= sum;
    }
    Gmm::new(weights, comps).expect("valid reference mixture")
}

#[test]
fn fixed_seed_fit_ends_where_the_reference_loop_does() {
    const ITERS: usize = 20;
    // Six overlapping weighted clusters: overlapping so low-order
    // responsibility bits reach the parameters.
    let mut rng = StdRng::seed_from_u64(0xF17);
    let xs: Vec<Vec2> = (0..1_500)
        .map(|i| {
            let c = (i % 6) as f64;
            [
                c * 1.5 - 4.0 + rng.gen_range(-1.5..1.5),
                (c * 2.1).sin() * 2.0 + rng.gen_range(-1.0..1.0),
            ]
        })
        .collect();
    let ws: Vec<f64> = (0..xs.len()).map(|i| 1.0 + (i % 4) as f64).collect();
    let total_w: f64 = ws.iter().sum();
    let cfg = EmConfig {
        k: 16,
        max_iters: ITERS,
        tol: 1e-300, // never converge early: both sides run ITERS steps
        seed: 0xACE,
        ..Default::default()
    };
    let (_, report) = EmTrainer::new(cfg).unwrap().fit(&xs, &ws).unwrap();
    assert_eq!(report.iterations, ITERS);

    // Both loops start from the parameters after the first M-step (the
    // seeded initialisation is the trainer's own business); the last
    // iteration compared is the fit's final mean log-likelihood.
    let first = EmConfig {
        max_iters: 1,
        ..cfg
    };
    let (mut reference, _) = EmTrainer::new(first).unwrap().fit(&xs, &ws).unwrap();
    for (it, fitted_mll) in report.log_likelihood.iter().enumerate().skip(1) {
        let stats = reference_e_step(&reference, &xs, &ws);
        let mll = stats.loglik / total_w;
        assert!(
            (mll - fitted_mll).abs() <= 1e-9,
            "iteration {it}: reference {mll} vs fit {fitted_mll}"
        );
        reference = reference_m_step(&stats, total_w, cfg.reg_covar);
    }
}
