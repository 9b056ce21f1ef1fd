//! Pins "training moves only when someone re-captures": a small
//! fixed-seed EM fit and one [`IncrementalEm`] refit must reproduce, bit
//! for bit, the parameters captured when the E-step moved onto the scoring
//! kernel (PR 14 / ISSUE 14: `GmmScorer::unit_terms_into` — polynomial `exp`,
//! lane-strided sum — feeding structure-of-arrays statistics).
//!
//! Fitted parameters feed every simulated metric in the repository, so a
//! change to the E-step's arithmetic or summation order — however
//! harmless numerically — is a visible decision: this test fails, and
//! whoever makes the change re-captures the tables below on purpose.
//! (The previous capture, at `bb416ce`, pinned the libm-`exp`
//! component-order loop; the two differ in the last one or two hex digits
//! of each parameter.)
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
    0x3fd1cffb29115923,
    0x3fd2d749d97982fd,
    0x3fcd1bcd089cc0d9,
    0x3fc995a8f24d86e6,
    0x40102f0c27ec84aa,
    0xbfe910e91b1cc7a5,
    0x3ff759758ed8ac4b,
    0xbfce60f033bc2430,
    0x3ffe6db5c3249ec1,
    0xbfd6fe397de6a134,
    0xbffc9ecfba21d297,
    0x4003722754e5de69,
    0xbfe33bf45e855636,
    0x3ff415f1b3b64aaf,
    0x3fff01f44e894685,
    0x4000fd6932d069ef,
    0x3ff2b6e315fdcfdf,
    0x3fb8075ca8878f00,
    0x3ff99e70a9a3edfb,
    0xc00ad56fd32c5d04,
    0x3fe903b02ac8e035,
    0x3ff0fb7a01902d1b,
    0x3fcddb4180c568a0,
    0x3ffb91c9b200047d,
];
const REFIT_FMA: [u64; 24] = [
    0x3fd7f95a693e90a7,
    0x3fd1b50d359b5d3a,
    0x3fc68128424e53e0,
    0x3fc622087ffdd05d,
    0x40112dafd45895d5,
    0xbfe0f774e00c8501,
    0x3ff3fe98d5a8c99b,
    0xbfaeff3a5d43f280,
    0x4002a525a41a110b,
    0xbfa7db1132c3777a,
    0xbffc481e8f47697e,
    0x400322366ed67ef5,
    0xbfe9d9726ff953fe,
    0x3ff806da79b48c15,
    0x400235995d763304,
    0x3ffdca42a1198946,
    0x4004b30d8d5b7456,
    0x3fe2b58b279aa9d8,
    0x3ff8f0ee0c4c8913,
    0xc0080e2b44f3d4a8,
    0x3fed0b50c266bb59,
    0x3fef387c27c60b37,
    0x3fd790fa35d2c2f0,
    0x3ffac28f04cf524f,
];
const MLL_FMA: u64 = 0xc011f6ec9d54efd0;

const FIT_NO_FMA: [u64; 24] = [
    0x3fd1cffb29115917,
    0x3fd2d749d9798307,
    0x3fcd1bcd089cc0ef,
    0x3fc995a8f24d86d5,
    0x40102f0c27ec84b2,
    0xbfe910e91b1cc7bd,
    0x3ff759758ed8abeb,
    0xbfce60f033bc2370,
    0x3ffe6db5c3249eb7,
    0xbfd6fe397de6a144,
    0xbffc9ecfba21d28d,
    0x4003722754e5de6d,
    0xbfe33bf45e855646,
    0x3ff415f1b3b64abf,
    0x3fff01f44e894685,
    0x4000fd6932d069e7,
    0x3ff2b6e315fdcfd3,
    0x3fb8075ca8878f00,
    0x3ff99e70a9a3ee13,
    0xc00ad56fd32c5d0d,
    0x3fe903b02ac8e047,
    0x3ff0fb7a01902d03,
    0x3fcddb4180c56950,
    0x3ffb91c9b2000483,
];
const REFIT_NO_FMA: [u64; 24] = [
    0x3fd7f95a693e9099,
    0x3fd1b50d359b5d47,
    0x3fc68128424e53f4,
    0x3fc622087ffdd04e,
    0x40112dafd45895df,
    0xbfe0f774e00c84ff,
    0x3ff3fe98d5a8c8db,
    0xbfaeff3a5d43f200,
    0x4002a525a41a1110,
    0xbfa7db1132c377a0,
    0xbffc481e8f476975,
    0x400322366ed67eff,
    0xbfe9d9726ff95414,
    0x3ff806da79b48c25,
    0x400235995d763300,
    0x3ffdca42a1198930,
    0x4004b30d8d5b744c,
    0x3fe2b58b279aa9c8,
    0x3ff8f0ee0c4c8939,
    0xc0080e2b44f3d4b1,
    0x3fed0b50c266bb67,
    0x3fef387c27c60b27,
    0x3fd790fa35d2c300,
    0x3ffac28f04cf5252,
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
fn fit_and_incremental_refit_match_the_captured_tables_bit_for_bit() {
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
