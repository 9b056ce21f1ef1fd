//! Pins "training moves only when someone re-captures": a small
//! fixed-seed EM fit and one [`IncrementalEm`] refit must reproduce, bit
//! for bit, the parameters captured when the scorer took ownership of its
//! layout (PR 16 / ISSUE 16: components sit in the SoA columns in
//! ascending mean page coordinate, so the lane `slot % 8` a component
//! sums into moved; terms more than 44 below the leading one became exact
//! zeros, which on its own left these tables untouched).
//!
//! Fitted parameters feed every simulated metric in the repository, so a
//! change to the E-step's arithmetic or summation order — however
//! harmless numerically — is a visible decision: this test fails, and
//! whoever makes the change re-captures the tables below on purpose.
//! (Earlier captures: `bb416ce` pinned the libm-`exp` component-order
//! loop, PR 14 the polynomial `exp` with component `j` in lane `j % 8`;
//! each differs from the next in the last one or two hex digits of each
//! parameter.)
//!
//! Two tables, because the kernels fuse multiply-adds only where the
//! target has an FMA unit (`-C target-cpu=native` on AVX2+ hosts; CI's
//! `-C target-cpu=x86-64` baseline does not). Debug and release builds
//! agree. To re-capture: print `bits(&gmm)` / `bits(&refit)` /
//! `last_batch_mll().to_bits()` under both `RUSTFLAGS`.

use icgmm_gmm::{EmConfig, EmTrainer, Gmm, IncrementalEm, Vec2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FIT_FMA: [u64; 24] = [
    0x3fd1cffb2911591f,
    0x3fd2d749d97982ff,
    0x3fcd1bcd089cc0e2,
    0x3fc995a8f24d86e3,
    0x40102f0c27ec84ae,
    0xbfe910e91b1cc7ae,
    0x3ff759758ed8ac0b,
    0xbfce60f033bc23f0,
    0x3ffe6db5c3249ebc,
    0xbfd6fe397de6a14d,
    0xbffc9ecfba21d297,
    0x4003722754e5de75,
    0xbfe33bf45e85564a,
    0x3ff415f1b3b64aaf,
    0x3fff01f44e894687,
    0x4000fd6932d069ec,
    0x3ff2b6e315fdcfcb,
    0x3fb8075ca8878e40,
    0x3ff99e70a9a3ee03,
    0xc00ad56fd32c5d00,
    0x3fe903b02ac8e039,
    0x3ff0fb7a01902d43,
    0x3fcddb4180c56860,
    0x3ffb91c9b2000480,
];
const REFIT_FMA: [u64; 24] = [
    0x3fd7f95a693e90a2,
    0x3fd1b50d359b5d3d,
    0x3fc68128424e53de,
    0x3fc622087ffdd067,
    0x40112dafd45895d9,
    0xbfe0f774e00c84f6,
    0x3ff3fe98d5a8c93b,
    0xbfaeff3a5d43f2c0,
    0x4002a525a41a110c,
    0xbfa7db1132c3775c,
    0xbffc481e8f476982,
    0x400322366ed67f02,
    0xbfe9d9726ff95406,
    0x3ff806da79b48c0f,
    0x400235995d76330a,
    0x3ffdca42a119893e,
    0x4004b30d8d5b743a,
    0x3fe2b58b279aa9c0,
    0x3ff8f0ee0c4c8921,
    0xc0080e2b44f3d49e,
    0x3fed0b50c266bb66,
    0x3fef387c27c60b57,
    0x3fd790fa35d2c2e0,
    0x3ffac28f04cf523f,
];
const MLL_FMA: u64 = 0xc011f6ec9d54efd1;

const FIT_NO_FMA: [u64; 24] = [
    0x3fd1cffb2911591b,
    0x3fd2d749d97982fc,
    0x3fcd1bcd089cc0f1,
    0x3fc995a8f24d86e4,
    0x40102f0c27ec84ae,
    0xbfe910e91b1cc7c5,
    0x3ff759758ed8ac1b,
    0xbfce60f033bc2380,
    0x3ffe6db5c3249eac,
    0xbfd6fe397de6a14b,
    0xbffc9ecfba21d299,
    0x4003722754e5de70,
    0xbfe33bf45e855643,
    0x3ff415f1b3b64ab3,
    0x3fff01f44e89468d,
    0x4000fd6932d069e6,
    0x3ff2b6e315fdcfcf,
    0x3fb8075ca8878ec0,
    0x3ff99e70a9a3ee1f,
    0xc00ad56fd32c5d03,
    0x3fe903b02ac8e038,
    0x3ff0fb7a01902d23,
    0x3fcddb4180c56890,
    0x3ffb91c9b2000481,
];
const REFIT_NO_FMA: [u64; 24] = [
    0x3fd7f95a693e909d,
    0x3fd1b50d359b5d3c,
    0x3fc68128424e53f2,
    0x3fc622087ffdd062,
    0x40112dafd45895d8,
    0xbfe0f774e00c8510,
    0x3ff3fe98d5a8c96b,
    0xbfaeff3a5d43f180,
    0x4002a525a41a1109,
    0xbfa7db1132c377d4,
    0xbffc481e8f47697d,
    0x400322366ed67efc,
    0xbfe9d9726ff95405,
    0x3ff806da79b48c19,
    0x400235995d76330a,
    0x3ffdca42a1198936,
    0x4004b30d8d5b7450,
    0x3fe2b58b279aa9c8,
    0x3ff8f0ee0c4c8929,
    0xc0080e2b44f3d4a3,
    0x3fed0b50c266bb62,
    0x3fef387c27c60b67,
    0x3fd790fa35d2c2e8,
    0x3ffac28f04cf5247,
];
const MLL_NO_FMA: u64 = 0xc011f6ec9d54efd0;

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
fn fit_and_incremental_refit_match_the_captured_tables_bit_for_bit() {
    let fma = cfg!(target_feature = "fma");
    let (want_fit, want_refit, want_mll) = if fma {
        (FIT_FMA, REFIT_FMA, MLL_FMA)
    } else {
        (FIT_NO_FMA, REFIT_NO_FMA, MLL_NO_FMA)
    };
    // 400 samples, below the E-step's split: the pinned sums are one
    // serial pass on every host.
    let cfg = EmConfig {
        k: 4,
        max_iters: 25,
        tol: 1e-9,
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
