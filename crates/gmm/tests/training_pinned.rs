//! Pins "training did not move": a small fixed-seed EM fit and one
//! [`IncrementalEm`] refit must reproduce, bit for bit, the parameters
//! captured at the commit *before* the scoring kernel's summation order
//! changed (PR 13 parent, `bb416ce`).
//!
//! The single-point scorer sums its log-sum-exp in a lane-strided order;
//! the E-step (`log_terms_into` + `em::accumulate`) deliberately kept the
//! plain component-order sum, so every fitted model, every incremental
//! refit and every calibration input is unchanged. Vectorising the E-step
//! too would shift every simulated metric in the repository — this test
//! makes that a visible, separate decision: it fails, and whoever makes
//! the change re-captures the tables below on purpose.
//!
//! Two tables, because the kernels fuse multiply-adds only where the
//! target has an FMA unit (`-C target-cpu=native` on AVX2+ hosts; CI's
//! `-C target-cpu=x86-64` baseline does not). Debug and release builds
//! agree. To re-capture: print `bits(&gmm)` / `bits(&refit)` under both
//! `RUSTFLAGS`.

use icgmm_gmm::{EmConfig, EmTrainer, Gmm, IncrementalEm, Vec2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FIT_FMA: [u64; 24] = [
    0x3fd1cffb2911592b,
    0x3fd2d749d97982f4,
    0x3fcd1bcd089cc0e2,
    0x3fc995a8f24d86dd,
    0x40102f0c27ec84a6,
    0xbfe910e91b1cc7c3,
    0x3ff759758ed8ac8b,
    0xbfce60f033bc2350,
    0x3ffe6db5c3249eb5,
    0xbfd6fe397de6a192,
    0xbffc9ecfba21d29c,
    0x4003722754e5de5f,
    0xbfe33bf45e855653,
    0x3ff415f1b3b64aad,
    0x3fff01f44e89468c,
    0x4000fd6932d069ee,
    0x3ff2b6e315fdcfd7,
    0x3fb8075ca8878e40,
    0x3ff99e70a9a3edfb,
    0xc00ad56fd32c5d0a,
    0x3fe903b02ac8e040,
    0x3ff0fb7a01902d03,
    0x3fcddb4180c56910,
    0x3ffb91c9b2000483,
];
const REFIT_FMA: [u64; 24] = [
    0x3fd7f95a693e90b0,
    0x3fd1b50d359b5d30,
    0x3fc68128424e53ea,
    0x3fc622087ffdd056,
    0x40112dafd45895d1,
    0xbfe0f774e00c8522,
    0x3ff3fe98d5a8c98b,
    0xbfaeff3a5d43ef80,
    0x4002a525a41a110f,
    0xbfa7db1132c37aec,
    0xbffc481e8f47697a,
    0x400322366ed67eeb,
    0xbfe9d9726ff9540d,
    0x3ff806da79b48c17,
    0x400235995d763309,
    0x3ffdca42a119894a,
    0x4004b30d8d5b7460,
    0x3fe2b58b279aa9b8,
    0x3ff8f0ee0c4c88ff,
    0xc0080e2b44f3d4ad,
    0x3fed0b50c266bb5f,
    0x3fef387c27c60b37,
    0x3fd790fa35d2c2f0,
    0x3ffac28f04cf524f,
];
const MLL_FMA: u64 = 0xc011f6ec9d54efd0;

const FIT_NO_FMA: [u64; 24] = [
    0x3fd1cffb2911591e,
    0x3fd2d749d9798303,
    0x3fcd1bcd089cc0ed,
    0x3fc995a8f24d86d6,
    0x40102f0c27ec84ae,
    0xbfe910e91b1cc7bf,
    0x3ff759758ed8ac1b,
    0xbfce60f033bc2370,
    0x3ffe6db5c3249eb1,
    0xbfd6fe397de6a164,
    0xbffc9ecfba21d28f,
    0x4003722754e5de6c,
    0xbfe33bf45e85564a,
    0x3ff415f1b3b64abb,
    0x3fff01f44e894689,
    0x4000fd6932d069e9,
    0x3ff2b6e315fdcfcf,
    0x3fb8075ca8878e40,
    0x3ff99e70a9a3ee0f,
    0xc00ad56fd32c5d09,
    0x3fe903b02ac8e047,
    0x3ff0fb7a01902d2b,
    0x3fcddb4180c56920,
    0x3ffb91c9b2000481,
];
const REFIT_NO_FMA: [u64; 24] = [
    0x3fd7f95a693e909e,
    0x3fd1b50d359b5d40,
    0x3fc68128424e53ec,
    0x3fc622087ffdd058,
    0x40112dafd45895d8,
    0xbfe0f774e00c850a,
    0x3ff3fe98d5a8c95b,
    0xbfaeff3a5d43f140,
    0x4002a525a41a110c,
    0xbfa7db1132c378c4,
    0xbffc481e8f476976,
    0x400322366ed67efd,
    0xbfe9d9726ff9540f,
    0x3ff806da79b48c1f,
    0x400235995d76330a,
    0x3ffdca42a1198939,
    0x4004b30d8d5b7446,
    0x3fe2b58b279aa9c8,
    0x3ff8f0ee0c4c891b,
    0xc0080e2b44f3d4a8,
    0x3fed0b50c266bb6a,
    0x3fef387c27c60b47,
    0x3fd790fa35d2c2e8,
    0x3ffac28f04cf5247,
];
const MLL_NO_FMA: u64 = 0xc011f6ec9d54efcf;

/// Four overlapping weighted clusters — overlapping on purpose: with
/// well-separated clusters responsibilities saturate and low-order score
/// bits never reach the fitted parameters.
fn data(seed: u64, n: usize, shift: f64) -> (Vec<Vec2>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let centres = [[-3.0, 0.5], [0.0, -2.0], [2.5, 2.0], [4.0, -1.0]];
    let xs = (0..n)
        .map(|i| {
            let c = centres[i % centres.len()];
            [
                c[0] + shift + rng.gen_range(-2.0..2.0),
                c[1] + rng.gen_range(-1.0..1.0) * (1.0 + (i % 3) as f64),
            ]
        })
        .collect();
    let ws = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    (xs, ws)
}

/// Weights, then `(mean, cov)` per component, as raw bit patterns.
fn bits(g: &Gmm) -> Vec<u64> {
    let mut out: Vec<u64> = g.weights().iter().map(|w| w.to_bits()).collect();
    for c in g.components() {
        let (m, s) = (c.mean(), c.cov());
        out.extend([m[0], m[1], s.xx, s.xy, s.yy].map(f64::to_bits));
    }
    out
}

#[test]
fn fit_and_incremental_refit_match_the_parent_commit_bit_for_bit() {
    let fma = cfg!(target_feature = "fma");
    let (want_fit, want_refit, want_mll) = if fma {
        (FIT_FMA, REFIT_FMA, MLL_FMA)
    } else {
        (FIT_NO_FMA, REFIT_NO_FMA, MLL_NO_FMA)
    };
    // One E-step thread: the pinned sums must not depend on the host's
    // core count.
    let cfg = EmConfig {
        k: 4,
        max_iters: 25,
        tol: 1e-9,
        threads: 1,
        seed: 0x1C6,
        ..Default::default()
    };
    let (xs, ws) = data(7, 400, 0.0);
    let (gmm, report) = EmTrainer::new(cfg).unwrap().fit(&xs, &ws).unwrap();
    assert_eq!(report.iterations, 25);
    assert_eq!(bits(&gmm), want_fit, "EM fit moved (fma = {fma})");

    let mut inc = IncrementalEm::new(&gmm, cfg, 0.7).unwrap();
    let (xs2, ws2) = data(8, 150, 0.6);
    let refit = inc.refit(&xs2, &ws2).unwrap();
    assert_eq!(
        bits(&refit),
        want_refit,
        "incremental refit moved (fma = {fma})"
    );
    assert_eq!(
        inc.last_batch_mll().to_bits(),
        want_mll,
        "E-step log-likelihood moved (fma = {fma})"
    );
}
