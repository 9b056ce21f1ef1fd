//! Allocation-free structure-of-arrays (SoA) scoring kernel — the
//! software mirror of the paper's FPGA scoring pipeline (§4.1).
//!
//! # Why this module exists
//!
//! The mixture density `G(x) = Σ_k π_k N(x | μ_k, Σ_k)` (Eq. 3) is the
//! hottest computation in the system: the EM E-step evaluates it for every
//! training cell × every iteration, and the online policy engine evaluates
//! it for every cache miss. The paper solves this with a dedicated
//! hardware pipeline that streams one Gaussian term per cycle out of an
//! on-chip weight buffer; the software analogue is [`GmmScorer`], which
//! flattens the mixture into parallel flat arrays
//!
//! * `coef[s] = ln π + log_norm` (the per-component constant, with
//!   `log_norm = −ln 2π − ½ ln |Σ|`),
//! * `mx/my[s] = μ`, and
//! * `hxx/hxy/hyy[s] = −½ Σ⁻¹` (cross factor folded in),
//!
//! exactly the quantities the FPGA keeps in its weight buffer. Scoring
//! walks these arrays sequentially — cache-line-dense and trivially
//! vectorizable — instead of hopping through an array-of-structs
//! `Vec<Gaussian2>` (72 bytes/component of which 40 are used), and never
//! allocates: one point's terms are staged in a stack block.
//!
//! # The kernel
//!
//! Per point, the mixture log-density is a log-sum-exp over the
//! per-component joint log-densities `l_j = coef_j − ½ (x−μ_j)ᵀ Σ_j⁻¹
//! (x−μ_j)`, in two passes with one canonical, ISA-independent summation
//! order. Pass 1 maps the SoA columns to the `l_j` and finds
//! `m = max_j l_j` (order-free). Each `l_j` is composed of two halves:
//!
//! ```text
//! time half  (dy_j, c_j) = (y − my_j, fmadd(hyy_j, dy_j², coef_j))
//! page half  l_j         = fmadd(hxx_j, dx_j², fmadd(hxy_j, dx_j·dy_j, c_j))
//! ```
//!
//! The time half depends on the point's time coordinate alone — on the
//! Algorithm 1 timestamp, which the misses of one 32-record window share.
//! Pass 2 sums the **unit terms**
//!
//! ```text
//! u_j = exp_unit(l_j − m)   when l_j − m > TERM_CUT (= −44)
//!     = 0.0 exactly         otherwise (far, zero-weight or NaN terms)
//! ```
//!
//! slot `s` into partial sum `s % 8`, and combines the eight partials by
//! one fixed tree `((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))`. `exp_unit` is a
//! branch-free ~2-ulp Cody–Waite + Cephes polynomial the compiler
//! vectorizes right inside the loop (a libm call cannot be).
//!
//! **The cut and its bound.** A term more than 44 below the leading one
//! is under `e⁻⁴⁴ ≈ 7.8e-20 ≈ 2⁻⁶³·⁵` of it and cannot move the f64 sum it
//! would be added to, so the definition drops it: against the unmasked
//! sum, `|Δ ln G| ≤ (K−1)·e⁻⁴⁴` (2.0e-17 at K = 256, under ½ ulp of the
//! leading `exp(0) = 1`). On the fitted models of the paper workloads
//! 93–97 % of the terms of a miss are below the cut — a trained mixture
//! over (page, time) is spatially sparse.
//!
//! **Near-set skip, and why it is exact.** Pass 2 tests each 8-slot lane
//! group for any term above the cut and runs `exp_unit` plus the lane add
//! only on groups that have one. Adding `+0.0` to a non-negative partial
//! is the identity, so skipping a group and evaluating-then-masking it
//! agree bit for bit: which groups were skipped is invisible in the
//! result. Where most groups are active the branch per group only costs,
//! so a block whose sampled terms are mostly above the cut takes the
//! straight-line masked loop instead (see `unit_terms_block`) — a
//! choice read off the input, with the same bits either way.
//!
//! **Slot order.** The scorer owns its layout: the constructors push the
//! components into the columns in ascending mean page coordinate
//! (`total_cmp`, stable) and keep the slot → component map beside the
//! columns, so every generation — cold fit, each EM iteration, each
//! online refit swap, a model loaded from disk — is spatially ordered
//! without its producer knowing, and the terms above the cut cluster
//! into few lane groups (≈ 3/4 to 4/5 of the groups skipped on the paper
//! workloads, against 55–76 % in fit order). Low-order bits of a score
//! therefore depend on the slot order (the lane a component sums into),
//! which is a pure function of the mixture; [`Gmm`], persisted models and
//! [`crate::SuffStats`] keep component order.
//!
//! **One kernel.** Every entry point — single points, batches, the
//! parallel split, [`GmmScorer::log_density_in`],
//! [`GmmScorer::unit_terms_into`] and
//! [`GmmScorer::responsibilities_into`] — runs these two passes over the
//! same two halves in the same nesting, so single ≡ batched ≡ parallel ≡
//! sliced ≡ the E-step's `lse`, bit for bit, by construction. (A second
//! kernel vectorised across the *points* of a 64-point chunk existed while
//! the single-point one could not vectorise; with the near-set skip the
//! single-point kernel is the faster of the two on every fitted model, and
//! the chunked kernel and its `K × 64` scratch were deleted.)
//!
//! **Who keeps a time half.** A caller that scores runs of points with one
//! `y` owns a [`TimeSlice`], which keeps the time halves between them (see
//! its docs for when it builds them). Two callers hold one: the policy
//! engine (`icgmm`'s `GmmPolicyEngine` — every miss of `run`,
//! `run_sharded`, `serve` and `run_dataflow`) and the online refit
//! producer's drift check. The E-step and the threshold calibration score
//! shuffled training cells, one timestamp per point, and
//! [`GmmScorer::log_density`] is stateless; they compose both halves.
//!
//! The terms of one point are staged in a 2 KiB stack block (K ≤ 256 fits
//! whole; larger mixtures go block by block and recompute the cheap
//! quadratic forms in pass 2), keeping the working set at the SoA arrays
//! (12 KiB at K = 256 — L1-resident, like the paper's 8-BRAM weight
//! buffer) plus that block. The tables live behind an
//! [`Arc`]: the mixture is immutable once flattened, so
//! shard workers, serving threads and the per-iteration E-step share one
//! weight buffer and `scorer.clone()` is a refcount bump (the hardware
//! analogue: all scoring pipelines read the same BRAM; nobody duplicates
//! it per lane).

use std::sync::Arc;

use crate::error::GmmError;
use crate::gaussian::{Gaussian2, Mat2, Vec2, LN_2PI};
use crate::model::Gmm;

/// The near-set cut: a mixture term contributes `exp_unit(l − m)` when
/// `l − m > TERM_CUT` and exactly `0.0` otherwise (module docs: the bound,
/// and why exact zeros make skipping invisible). Every surviving term is
/// a normal number ≥ e⁻⁴⁴ ≈ 7.8e-20, far from the subnormal range.
pub const TERM_CUT: f64 = -44.0;

/// `exp(x)` for `x ∈ [TERM_CUT, 0]`, accurate to ~2 ulp — a Cody–Waite
/// range reduction (`x = n·ln2 + r`, `|r| ≤ ln2/2`) followed by the
/// Cephes `exp` rational approximation and an exponent-bits scale.
///
/// Two reasons not to call libm here: this straight-line form (round,
/// polynomial, one division, integer scale) auto-vectorizes inside the
/// pass-2 loops where a libm call cannot, and being our own code it is
/// bit-stable across libc versions, which pinned training relies on.
#[inline(always)]
fn exp_unit(x: f64) -> f64 {
    const LOG2E: f64 = std::f64::consts::LOG2_E;
    // ln 2 split into a 32-bit-exact high part and the remainder, so
    // `x − n·ln2` is computed without cancellation error.
    const LN2_HI: f64 = 0.693_145_751_953_125;
    const LN2_LO: f64 = 1.428_606_820_309_417_2e-6;
    const P0: f64 = 1.261_771_930_748_105_9e-4;
    const P1: f64 = 3.029_944_077_074_419_6e-2;
    const P2: f64 = 1.0; // Cephes 9.999…e-1 rounds to exactly 1.0 in f64
    const Q0: f64 = 3.001_985_051_386_644_5e-6;
    const Q1: f64 = 2.524_483_403_496_841e-3;
    const Q2: f64 = 2.272_655_482_081_550_3e-1;
    const Q3: f64 = 2.0;

    // 2^52 + bias: adding it to the integer-valued `n` parks `n + 1023`
    // in the low mantissa bits, so a plain bit-shift builds `2^n` without
    // the float→int conversion that scalarizes on pre-AVX-512 targets.
    const MAGIC: f64 = 4_503_599_627_370_496.0 + 1_023.0;

    debug_assert!((TERM_CUT..=0.5).contains(&x));
    let n = (x * LOG2E).round_ties_even();
    let r = fmadd(n, -LN2_LO, fmadd(n, -LN2_HI, x));
    let rr = r * r;
    let p = r * fmadd(rr, fmadd(rr, P0, P1), P2);
    let q = fmadd(rr, fmadd(rr, fmadd(rr, Q0, Q1), Q2), Q3);
    let e = fmadd(2.0, p / (q - p), 1.0);
    // 2^n via exponent bits; n ∈ [−64, 1] on the cut domain.
    let scale = f64::from_bits((n + MAGIC).to_bits() << 52);
    e * scale
}

/// Fused multiply-add where the target has an FMA unit, plain
/// multiply-then-add elsewhere (calling `f64::mul_add` without hardware
/// FMA falls back to a slow correctly-rounded libm routine). The whole
/// kernel goes through this one helper, so a target's scores depend on
/// whether it has FMA and on nothing else about its ISA.
#[inline(always)]
fn fmadd(a: f64, b: f64, c: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// Partial sums of the canonical pass-2 order: slot `s` accumulates into
/// partial `s % LANES` (see the module docs). Also the width of the lane
/// groups the near-set skip tests.
const LANES: usize = 8;

/// Terms per stack block of the kernel (2 KiB; one block holds the
/// paper's K = 256). Must be a multiple of [`LANES`].
const BLOCK: usize = 256;

const _: () = assert!(
    BLOCK.is_multiple_of(LANES),
    "block positions must keep `s % LANES`"
);

/// The one fixed combine of the [`LANES`] pass-2 partial sums.
#[inline(always)]
fn lane_tree(s: &[f64; LANES]) -> f64 {
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

/// Folds `terms` into the lane partials: position `i` lands in lane
/// `i % LANES`. Whole-lane-group loops plus one remainder, so the
/// compiler keeps `acc` in vector registers.
#[inline(always)]
fn fold_lanes(acc: &mut [f64; LANES], terms: &[f64], f: impl Fn(f64, f64) -> f64) {
    let (groups, tail) = terms.as_chunks::<LANES>();
    for g in groups {
        for (a, &t) in acc.iter_mut().zip(g) {
            *a = f(*a, t);
        }
    }
    for (a, &t) in acc.iter_mut().zip(tail) {
        *a = f(*a, t);
    }
}

/// Pass 1's running max: a NaN term never replaces the maximum (and the
/// maximum is never NaN), so the result does not depend on visit order.
#[inline(always)]
fn nan_skipping_max(m: f64, l: f64) -> f64 {
    if l > m {
        l
    } else {
        m
    }
}

/// The unit term of a component with log term `l` under maximum `m` —
/// the one definition every path sums (module docs, "The kernel").
/// Evaluate-then-select, so a loop over it stays branch-free; `max` also
/// parks a NaN difference on `exp_unit`'s domain before the select
/// discards it.
#[inline(always)]
fn unit_term(l: f64, m: f64) -> f64 {
    let t = l - m;
    let e = exp_unit(t.max(TERM_CUT));
    if t > TERM_CUT {
        e
    } else {
        0.0
    }
}

/// Whether any term of a lane group is above the cut (no short-circuit:
/// eight compares and an or-reduce vectorize, an early exit does not).
#[inline(always)]
fn any_above_cut(group: &[f64; LANES], m: f64) -> bool {
    group.iter().fold(false, |any, &l| any | (l - m > TERM_CUT))
}

/// Pass 2, straight-line, over `terms` starting at a lane-group boundary:
/// two plain loops the compiler vectorises, with the divisions of
/// neighbouring groups in flight together.
#[inline(always)]
fn unit_terms_dense(terms: &mut [f64], m: f64, s: &mut [f64; LANES]) {
    for e in terms.iter_mut() {
        *e = unit_term(*e, m);
    }
    fold_lanes(s, terms, |a, e| a + e);
}

/// Pass 2 over one block: replaces each `l_j` in `terms` by its unit term
/// and adds it to lane `position % LANES` of `s`, skipping (zero-filling)
/// lane groups with no term above the cut.
///
/// The branch per group costs more than it saves once most groups are
/// active (≈ 1.2–1.3× the straight-line loop with every group active),
/// so every 16th term of the block is sampled to pick the loop first:
/// more than half of the sample above the cut and the block takes
/// [`unit_terms_dense`] whole. The choice only ever moves time.
///
/// The skipping loop keeps evaluate and accumulate as two loops per
/// group: fused, LLVM's SLP pass shreds the eight lanes into 2-wide
/// pieces (measured 2.2× on an all-active E-step).
#[inline(always)]
fn unit_terms_block(terms: &mut [f64], m: f64, s: &mut [f64; LANES]) {
    let sample = terms.iter().step_by(2 * LANES);
    let above = sample.filter(|&&l| l - m > TERM_CUT).count();
    if 2 * above > terms.len().div_ceil(2 * LANES) {
        return unit_terms_dense(terms, m, s);
    }
    let (groups, tail) = terms.as_chunks_mut::<LANES>();
    for g in groups.iter_mut() {
        if any_above_cut(g, m) {
            for e in g.iter_mut() {
                *e = unit_term(*e, m);
            }
            for (a, e) in s.iter_mut().zip(g.iter()) {
                *a += *e;
            }
        } else {
            *g = [0.0; LANES];
        }
    }
    unit_terms_dense(tail, m, s);
}

/// Minimum batch size for which spawning scoring workers pays off.
const PARALLEL_MIN: usize = 4_096;

/// Structure-of-arrays inference kernel for a [`Gmm`] (see the module
/// docs for layout and numerics).
///
/// ```
/// use icgmm_gmm::{Gaussian2, Gmm, GmmScorer, Mat2};
/// let gmm = Gmm::new(
///     vec![0.5, 0.5],
///     vec![
///         Gaussian2::new([-2.0, 0.0], Mat2::scaled_identity(1.0))?,
///         Gaussian2::new([2.0, 0.0], Mat2::scaled_identity(1.0))?,
///     ],
/// )?;
/// let scorer = GmmScorer::from_gmm(&gmm);
/// let points = [[-2.0, 0.0], [0.0, 0.0], [2.0, 0.0]];
/// let mut scores = [0.0; 3];
/// scorer.score_batch(&points, &mut scores);
/// assert_eq!(scores[0], gmm.score(points[0])); // bit-identical paths
/// assert!(scores[0] > scores[1]);
/// # Ok::<(), icgmm_gmm::GmmError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GmmScorer {
    /// The flattened tables, immutable after construction and shared by
    /// reference: cloning a scorer is one atomic refcount bump (the
    /// allocator test in `tests/` pins it to 0 heap bytes).
    tables: Arc<ScorerTables>,
}

/// The six K-length SoA columns of a flattened mixture — the software
/// weight buffer — in **slot order** (ascending mean page coordinate),
/// with the slot → component map beside them. Built mutably by the
/// constructors, then frozen behind the [`GmmScorer`]'s `Arc`.
#[derive(Debug, PartialEq)]
struct ScorerTables {
    /// `ln π + log_norm`; `−∞` for zero-weight components.
    coef: Vec<f64>,
    mx: Vec<f64>,
    my: Vec<f64>,
    /// `−½ Σ⁻¹` with the quadratic-form cross factor folded in
    /// (`hxx = −½ Σ⁻¹ₓₓ`, `hxy = −Σ⁻¹ₓᵧ`, `hyy = −½ Σ⁻¹ᵧᵧ`), so the
    /// per-component term is three fused multiply-adds:
    /// `l = coef + hxx·dx² + hxy·dx·dy + hyy·dy²`.
    hxx: Vec<f64>,
    hxy: Vec<f64>,
    hyy: Vec<f64>,
    /// `order[slot]` is the component stored at `slot`.
    order: Vec<usize>,
}

impl ScorerTables {
    /// Empty columns plus the slot order for `k` components: ascending
    /// `mean_page(component)`, ties in component order (stable sort), a
    /// NaN mean reaching the scorer mid-EM ordered by `total_cmp` instead
    /// of panicking the sort.
    fn with_layout(k: usize, mean_page: impl Fn(usize) -> f64) -> Self {
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by(|&a, &b| mean_page(a).total_cmp(&mean_page(b)));
        ScorerTables {
            coef: Vec::with_capacity(k),
            mx: Vec::with_capacity(k),
            my: Vec::with_capacity(k),
            hxx: Vec::with_capacity(k),
            hxy: Vec::with_capacity(k),
            hyy: Vec::with_capacity(k),
            order,
        }
    }

    fn push_component(&mut self, weight: f64, log_norm: f64, mean: Vec2, inv: Mat2) {
        let lw = if weight > 0.0 {
            weight.ln()
        } else {
            f64::NEG_INFINITY
        };
        self.coef.push(lw + log_norm);
        self.mx.push(mean[0]);
        self.my.push(mean[1]);
        self.hxx.push(-0.5 * inv.xx);
        self.hxy.push(-inv.xy);
        self.hyy.push(-0.5 * inv.yy);
    }
}

/// The time half of a component's term at time coordinate `y`:
/// `(dy, c) = (y − my, coef + hyy·dy²)` — a function of `y` alone, so the
/// misses that share an Algorithm 1 timestamp share it.
#[inline(always)]
fn time_half(coef: f64, my: f64, hyy: f64, y: f64) -> (f64, f64) {
    let dy = y - my;
    (dy, fmadd(hyy, dy * dy, coef))
}

/// The page half, completing the term from its time half:
/// `page_half(.., time_half(..))` is `coef + hyy·dy² + hxy·dx·dy + hxx·dx²`,
/// the same `fmadd`s in the same nesting on every path.
#[inline(always)]
fn page_half(hxx: f64, hxy: f64, dx: f64, dy: f64, c: f64) -> f64 {
    fmadd(hxx, dx * dx, fmadd(hxy, dx * dy, c))
}

/// Caller-owned scratch for scoring runs of points that share a time
/// coordinate, so [`GmmScorer::log_density_in`] pays neither the time
/// halves nor the stateless path's stage memset while `y` repeats: the
/// `c_j` of one `(y, tables)` and a stage of its own, 4 KiB at K = 256.
/// (`dy_j` is one subtraction, which the page-half loop — bound by its
/// loads and stores — redoes for free; storing it would cost the build one
/// more store per term.)
///
/// The key is the bits of `y` and a clone of the tables' `Arc` — never
/// their address, which a dropped generation can hand to the next one.
/// The first score at a new key composes both halves as the stateless
/// path does and only records the key; the second builds the halves inside
/// its pass 1, and later ones compute page halves only — so a `y` scored
/// once costs no more than [`GmmScorer::log_density`]. Another `y`,
/// generation or `K` is a new key; nothing about a slice is asserted.
#[derive(Clone, Debug, Default)]
pub struct TimeSlice {
    /// The tables of the last score through the slice, and its `y` bits.
    tables: Option<Arc<ScorerTables>>,
    y: u64,
    /// Whether `c` holds the halves of that key yet.
    built: bool,
    c: Vec<f64>,
    stage: Vec<f64>,
}

/// Where a score's time halves come from: composed term by term, or a
/// [`TimeSlice`]'s — written by pass 1 when it builds them, read after.
enum Halves<'s> {
    Composed,
    Build { c: &'s mut [f64] },
    Kept { c: &'s [f64] },
}

impl TimeSlice {
    /// The halves a score at `y` under `tables` uses (see the type docs),
    /// and the stage it runs in.
    fn halves(&mut self, tables: &Arc<ScorerTables>, y: f64) -> (Halves<'_>, &mut [f64]) {
        let (y, k) = (y.to_bits(), tables.coef.len());
        let same_tables = self.tables.as_ref().is_some_and(|t| Arc::ptr_eq(t, tables));
        if !same_tables {
            self.tables = Some(Arc::clone(tables));
            self.stage.resize(BLOCK.min(k), 0.0);
        }
        let stage = &mut self.stage[..];
        if !same_tables || self.y != y {
            (self.y, self.built) = (y, false);
            return (Halves::Composed, stage);
        }
        if self.built {
            return (Halves::Kept { c: &self.c }, stage);
        }
        self.built = true;
        self.c.resize(k, 0.0);
        (Halves::Build { c: &mut self.c }, stage)
    }
}

impl GmmScorer {
    /// Flattens a trained mixture into SoA form.
    pub fn from_gmm(gmm: &Gmm) -> Self {
        Self::from_components(gmm.weights(), gmm.components())
    }

    /// Flattens weights + components (inverses already cached).
    pub(crate) fn from_components(weights: &[f64], components: &[Gaussian2]) -> Self {
        let mut t = ScorerTables::with_layout(weights.len(), |c| components[c].mean()[0]);
        for slot in 0..weights.len() {
            let (w, c) = (weights[t.order[slot]], &components[t.order[slot]]);
            t.push_component(w, c.log_norm(), c.mean(), c.inv_cov());
        }
        GmmScorer {
            tables: Arc::new(t),
        }
    }

    /// Flattens raw EM parameters, computing the inverses and
    /// log-normalizers the E-step needs.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::SingularCovariance`] naming the first component
    /// (lowest index — every covariance is checked before the layout
    /// reorders anything) whose covariance is not positive definite.
    pub(crate) fn from_params(
        weights: &[f64],
        means: &[Vec2],
        covs: &[Mat2],
    ) -> Result<Self, GmmError> {
        let invs = covs
            .iter()
            .enumerate()
            .map(|(component, cov)| {
                cov.inverse()
                    .ok_or(GmmError::SingularCovariance { component })
            })
            .collect::<Result<Vec<Mat2>, GmmError>>()?;
        let mut t = ScorerTables::with_layout(weights.len(), |c| means[c][0]);
        for slot in 0..weights.len() {
            let c = t.order[slot];
            let log_norm = -LN_2PI - 0.5 * covs[c].det().ln();
            t.push_component(weights[c], log_norm, means[c], invs[c]);
        }
        Ok(GmmScorer {
            tables: Arc::new(t),
        })
    }

    /// Number of mixture components `K`.
    pub fn k(&self) -> usize {
        self.tables.coef.len()
    }

    /// The layout: `slot_components()[slot]` is the component whose terms
    /// [`GmmScorer::unit_terms_into`] writes at `slot`. For the E-step,
    /// which accumulates in slot order and un-permutes once per call.
    pub(crate) fn slot_components(&self) -> &[usize] {
        &self.tables.order
    }

    /// Writes `l` for slots `start..start + out.len()` into `out` — a
    /// plain map over the SoA columns, so the compiler vectorises it
    /// across components — taking each slot's time half from `halves`
    /// (and storing it there first when they are being rebuilt).
    #[inline(always)]
    fn log_terms_block(&self, x: Vec2, start: usize, out: &mut [f64], halves: &mut Halves) {
        let t = &*self.tables;
        let r = start..start + out.len();
        let (coef, mx, my) = (&t.coef[r.clone()], &t.mx[r.clone()], &t.my[r.clone()]);
        let (hxx, hxy, hyy) = (&t.hxx[r.clone()], &t.hxy[r.clone()], &t.hyy[r.clone()]);
        match halves {
            Halves::Composed => {
                for (j, o) in out.iter_mut().enumerate() {
                    let (dy, c) = time_half(coef[j], my[j], hyy[j], x[1]);
                    *o = page_half(hxx[j], hxy[j], x[0] - mx[j], dy, c);
                }
            }
            Halves::Build { c: cs } => {
                let cs = &mut cs[r];
                for (j, o) in out.iter_mut().enumerate() {
                    let (dy, c) = time_half(coef[j], my[j], hyy[j], x[1]);
                    cs[j] = c;
                    *o = page_half(hxx[j], hxy[j], x[0] - mx[j], dy, c);
                }
            }
            Halves::Kept { c: cs } => {
                let cs = &cs[r];
                for (j, o) in out.iter_mut().enumerate() {
                    *o = page_half(hxx[j], hxy[j], x[0] - mx[j], x[1] - my[j], cs[j]);
                }
            }
        }
    }

    /// The kernel: both log-sum-exp passes for one point, returning
    /// `(m, Σ)` with `ln G(x) = m + ln Σ`. The terms are staged
    /// `stage.len()` slots at a time — the whole mixture when it fits,
    /// block by block otherwise (pass 2 then recomputes the cheap quadratic
    /// forms) — and `sink(first_slot, terms)` sees each block's unit terms.
    /// Halves being built are built by pass 1 and kept for pass 2. When `m`
    /// is not finite (no component reaches `x`) pass 2 does not run and `Σ`
    /// is `0.0`.
    #[inline(always)]
    fn log_sum_exp(
        &self,
        x: Vec2,
        mut halves: Halves,
        stage: &mut [f64],
        mut sink: impl FnMut(usize, &[f64]),
    ) -> (f64, f64) {
        let (k, block) = (self.k(), stage.len());
        debug_assert!(block >= k || block.is_multiple_of(LANES));
        let mut m = [f64::NEG_INFINITY; LANES];
        for start in (0..k).step_by(block) {
            let terms = &mut stage[..block.min(k - start)];
            self.log_terms_block(x, start, terms, &mut halves);
            fold_lanes(&mut m, terms, nan_skipping_max);
        }
        let m = m.iter().copied().fold(f64::NEG_INFINITY, nan_skipping_max);
        if !m.is_finite() {
            return (m, 0.0);
        }
        if let Halves::Build { c } = halves {
            halves = Halves::Kept { c };
        }
        let mut s = [0.0f64; LANES];
        for start in (0..k).step_by(block) {
            let terms = &mut stage[..block.min(k - start)];
            if k > block {
                self.log_terms_block(x, start, terms, &mut halves);
            }
            unit_terms_block(terms, m, &mut s);
            sink(start, terms);
        }
        (m, lane_tree(&s))
    }

    /// Log mixture density `ln G(x)` — allocation-free (the terms are
    /// staged in a `BLOCK`-term stack block). Every other entry point
    /// and the E-step's `lse` are this kernel and agree with it bit for bit.
    ///
    /// Returns `−∞` when every component term underflows to `−∞` (only
    /// possible for non-finite input or an all-zero-weight mixture, which
    /// the [`Gmm`] constructor forbids).
    pub fn log_density(&self, x: Vec2) -> f64 {
        let mut buf = [0.0f64; BLOCK];
        let stage = &mut buf[..BLOCK.min(self.k())];
        let (m, sum) = self.log_sum_exp(x, Halves::Composed, stage, |_, _| {});
        if m.is_finite() {
            m + sum.ln()
        } else {
            m
        }
    }

    /// [`GmmScorer::log_density`] through a [`TimeSlice`], bit for bit:
    /// once the slice holds the time halves of `x[1]` under this scorer's
    /// tables, only the page halves are computed (see [`TimeSlice`] for
    /// when it builds them). Allocates only when a build has to grow the
    /// slice.
    pub fn log_density_in(&self, x: Vec2, slice: &mut TimeSlice) -> f64 {
        let (halves, stage) = slice.halves(&self.tables, x[1]);
        let (m, sum) = self.log_sum_exp(x, halves, stage, |_, _| {});
        if m.is_finite() {
            m + sum.ln()
        } else {
            m
        }
    }

    /// Mixture density `G(x)` — the paper's access-frequency score.
    pub fn density(&self, x: Vec2) -> f64 {
        self.log_density(x).exp()
    }

    /// Alias for [`GmmScorer::density`], matching the paper's terminology.
    pub fn score(&self, x: Vec2) -> f64 {
        self.density(x)
    }

    /// The E-step primitive: writes the unit terms of `x` into `out` **in
    /// slot order** — the scorer's own layout, not component order — and
    /// returns `(m, Σ out)`, so `ln G(x) = m + ln Σ` (bit for bit
    /// [`GmmScorer::log_density`]) and the responsibilities are
    /// `out[slot] / Σ`; [`GmmScorer::responsibilities_into`] gives them
    /// per component.
    ///
    /// When `m` is not finite (non-finite input: no component reaches
    /// `x`) the sum is `0.0` and `out` is left holding the raw log terms.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != self.k()` — unreachable from `Icgmm`'s
    /// public API: the one in-tree caller, the E-step, sizes its scratch
    /// from [`GmmScorer::k`].
    pub fn unit_terms_into(&self, x: Vec2, out: &mut [f64]) -> (f64, f64) {
        assert_eq!(out.len(), self.k(), "scratch length must equal K");
        self.log_sum_exp(x, Halves::Composed, out, |_, _| {})
    }

    /// Writes the posterior responsibilities `p(j | x)` into `out`, in
    /// component order, and returns `ln G(x)` — bit-identical to
    /// [`GmmScorer::log_density`]. When the log-density is `−∞` (no
    /// component reaches `x`) `out` is left untouched and the caller
    /// decides the fallback (the [`Gmm`] wrapper substitutes π).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != self.k()` — unreachable from `Icgmm`'s
    /// public API: the one in-tree caller, [`Gmm::responsibilities`], sizes
    /// `out` from [`Gmm::k`].
    pub fn responsibilities_into(&self, x: Vec2, out: &mut [f64]) -> f64 {
        assert_eq!(out.len(), self.k(), "scratch length must equal K");
        let order = self.slot_components();
        let mut buf = [0.0f64; BLOCK];
        let stage = &mut buf[..BLOCK.min(order.len())];
        let (m, sum) = self.log_sum_exp(x, Halves::Composed, stage, |start, terms| {
            for (&component, &u) in order[start..].iter().zip(terms) {
                out[component] = u;
            }
        });
        if !m.is_finite() {
            return m;
        }
        let inv = 1.0 / sum;
        for o in out.iter_mut() {
            *o *= inv;
        }
        m + sum.ln()
    }

    /// `ln G(x)` for every point of `xs` into `out` — a loop over
    /// [`GmmScorer::log_density`].
    ///
    /// # Panics
    ///
    /// Panics when `xs.len() != out.len()`.
    pub fn log_density_batch(&self, xs: &[Vec2], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "output length must match input");
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.log_density(*x);
        }
    }

    /// Density `G(x)` for every point of `xs` — a loop over
    /// [`GmmScorer::score`].
    ///
    /// # Panics
    ///
    /// Panics when `xs.len() != out.len()`.
    pub fn score_batch(&self, xs: &[Vec2], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "output length must match input");
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.score(*x);
        }
    }

    /// [`GmmScorer::score_batch`] split across scoped worker threads —
    /// the same scoped-thread pattern as the parallel EM E-step, capped
    /// at 16 workers. `threads = 0` selects the available parallelism; batches
    /// under `PARALLEL_MIN` points are scored on the caller. Points are
    /// scored independently, so where the batch is split is invisible.
    ///
    /// # Panics
    ///
    /// Panics when `xs.len() != out.len()`.
    pub fn score_batch_parallel(&self, xs: &[Vec2], out: &mut [f64], threads: usize) {
        assert_eq!(xs.len(), out.len(), "output length must match input");
        let threads = if threads == 0 {
            crate::cores().min(16)
        } else {
            threads
        };
        if threads <= 1 || xs.len() < PARALLEL_MIN {
            return self.score_batch(xs, out);
        }
        let span = xs.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (xc, oc) in xs.chunks(span).zip(out.chunks_mut(span)) {
                scope.spawn(move || self.score_batch(xc, oc));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::log_sum_exp;

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

    /// The seed's original scalar implementation (per-call `Vec`, per-call
    /// `ln π_k`, array-of-structs walk) as the numerical reference.
    fn reference_log_density(gmm: &Gmm, x: Vec2) -> f64 {
        let logs: Vec<f64> = gmm
            .weights()
            .iter()
            .zip(gmm.components())
            .map(|(w, c)| {
                if *w == 0.0 {
                    f64::NEG_INFINITY
                } else {
                    w.ln() + c.log_pdf(x)
                }
            })
            .collect();
        log_sum_exp(&logs)
    }

    fn probe_points(n: usize) -> Vec<Vec2> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                [t * 16.0 - 8.0, (t * 12.9898).sin() * 3.0]
            })
            .collect()
    }

    #[test]
    fn scalar_matches_reference_implementation() {
        for k in [1, 3, 256] {
            let gmm = spread_gmm(k);
            let scorer = GmmScorer::from_gmm(&gmm);
            for x in probe_points(64) {
                let got = scorer.log_density(x);
                let want = reference_log_density(&gmm, x);
                let tol = 1e-12 * want.abs().max(1.0);
                assert!((got - want).abs() <= tol, "K={k} x={x:?}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn batch_is_bit_identical_to_scalar() {
        for k in [1, 2, 3, 64, 256] {
            let gmm = spread_gmm(k);
            let scorer = GmmScorer::from_gmm(&gmm);
            for n in [0usize, 1, 63, 64, 65, 200] {
                let xs = probe_points(n);
                let mut batch = vec![0.0; n];
                scorer.score_batch(&xs, &mut batch);
                for (x, b) in xs.iter().zip(&batch) {
                    assert_eq!(
                        b.to_bits(),
                        scorer.score(*x).to_bits(),
                        "K={k} n={n} x={x:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let gmm = spread_gmm(8);
        let scorer = GmmScorer::from_gmm(&gmm);
        let xs = probe_points(10_000);
        let mut serial = vec![0.0; xs.len()];
        let mut parallel = vec![0.0; xs.len()];
        scorer.score_batch(&xs, &mut serial);
        scorer.score_batch_parallel(&xs, &mut parallel, 4);
        assert_eq!(serial, parallel);
        // threads = 0 (auto) must also agree.
        scorer.score_batch_parallel(&xs, &mut parallel, 0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_weight_components_are_ignored() {
        let gmm = Gmm::new(
            vec![1.0, 0.0],
            vec![
                Gaussian2::new([0.0, 0.0], Mat2::scaled_identity(1.0)).unwrap(),
                Gaussian2::new([100.0, 0.0], Mat2::scaled_identity(1.0)).unwrap(),
            ],
        )
        .unwrap();
        let scorer = GmmScorer::from_gmm(&gmm);
        let only = gmm.components()[0].pdf([0.5, 0.0]);
        assert!((scorer.score([0.5, 0.0]) - only).abs() < 1e-12);
        // Even at the dead component's mean, the live one dominates.
        assert!(scorer.log_density([100.0, 0.0]).is_finite());
    }

    #[test]
    fn responsibilities_normalize_and_match_model() {
        let gmm = spread_gmm(3);
        let scorer = GmmScorer::from_gmm(&gmm);
        let mut out = vec![0.0; 3];
        let lse = scorer.responsibilities_into([0.3, -0.2], &mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(lse, scorer.log_density([0.3, -0.2]));
        assert_eq!(out, gmm.responsibilities([0.3, -0.2]));
    }

    #[test]
    fn unit_terms_match_component_log_pdfs() {
        // `spread_gmm` means ascend in page, so slot order is component
        // order and `out[j]` can be read as component `j`.
        let gmm = spread_gmm(4);
        let scorer = GmmScorer::from_gmm(&gmm);
        let mut out = vec![0.0; 4];
        let x = [1.0, 0.5];
        let (m, sum) = scorer.unit_terms_into(x, &mut out);
        let logs: Vec<f64> = gmm
            .weights()
            .iter()
            .zip(gmm.components())
            .map(|(w, c)| w.ln() + c.log_pdf(x))
            .collect();
        let want_m = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((m - want_m).abs() < 1e-12 * want_m.abs().max(1.0));
        for (got, l) in out.iter().zip(&logs) {
            assert!((got - (l - want_m).exp()).abs() < 1e-12);
        }
        assert_eq!(
            (m + sum.ln()).to_bits(),
            scorer.log_density(x).to_bits(),
            "the E-step normaliser is the scoring kernel's"
        );
        // Non-finite input: nothing reaches it, the sum is empty.
        let (m, sum) = scorer.unit_terms_into([f64::NAN, 0.0], &mut out);
        assert_eq!((m, sum), (f64::NEG_INFINITY, 0.0));
    }

    #[test]
    fn clone_shares_tables_and_scores_identically() {
        let scorer = GmmScorer::from_gmm(&spread_gmm(256));
        let copy = scorer.clone();
        // The clone aliases the same flattened tables — no table bytes
        // were copied (the integration allocator test pins the byte count
        // to zero; this asserts the sharing itself).
        assert!(Arc::ptr_eq(&scorer.tables, &copy.tables));
        assert_eq!(scorer, copy);
        let x = [0.7, -0.3];
        assert_eq!(
            scorer.log_density(x).to_bits(),
            copy.log_density(x).to_bits()
        );
    }

    #[test]
    fn from_params_agrees_with_from_gmm() {
        let gmm = spread_gmm(5);
        let means: Vec<Vec2> = gmm.components().iter().map(|c| c.mean()).collect();
        let covs: Vec<Mat2> = gmm.components().iter().map(|c| c.cov()).collect();
        let a = GmmScorer::from_gmm(&gmm);
        let b = GmmScorer::from_params(gmm.weights(), &means, &covs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_params_rejects_singular_covariance() {
        let singular = Mat2::new(1.0, 2.0, 1.0);
        let err = GmmScorer::from_params(
            &[0.5, 0.5],
            &[[0.0, 0.0], [1.0, 1.0]],
            &[Mat2::scaled_identity(1.0), singular],
        )
        .unwrap_err();
        assert_eq!(err, GmmError::SingularCovariance { component: 1 });
        // Two singular components: the error names the lower *component*,
        // though the layout would visit component 2 (mean page −5) first.
        let err = GmmScorer::from_params(
            &[0.4, 0.3, 0.3],
            &[[0.0, 0.0], [1.0, 1.0], [-5.0, 0.0]],
            &[Mat2::scaled_identity(1.0), singular, singular],
        )
        .unwrap_err();
        assert_eq!(err, GmmError::SingularCovariance { component: 1 });
    }

    #[test]
    fn layout_is_by_mean_page_and_survives_a_nan_mean() {
        let means = [[3.0, 0.0], [-1.0, 9.0], [3.0, -2.0], [0.5, 0.0]];
        let covs = [Mat2::scaled_identity(1.0); 4];
        let scorer = GmmScorer::from_params(&[0.25; 4], &means, &covs).unwrap();
        // Ascending mean page; the tie (components 0 and 2) keeps
        // component order.
        assert_eq!(scorer.slot_components(), [1, 3, 0, 2]);
        // A NaN mean reaching the scorer mid-EM is ordered, not a panic.
        let mut poisoned = means;
        poisoned[3][0] = f64::NAN;
        let scorer = GmmScorer::from_params(&[0.25; 4], &poisoned, &covs).unwrap();
        assert_eq!(scorer.slot_components(), [1, 0, 2, 3]);
        assert!(scorer.log_density([0.0, 0.0]).is_finite());
    }

    #[test]
    fn far_points_go_to_negative_infinity_density_zero() {
        let scorer = GmmScorer::from_gmm(&spread_gmm(2));
        let s = scorer.score([1e9, 1e9]);
        assert!((0.0..1e-300).contains(&s));
        let mut out = [0.0];
        scorer.score_batch(&[[1e9, 1e9]], &mut out);
        assert_eq!(out[0].to_bits(), s.to_bits());
    }

    #[test]
    #[should_panic(expected = "output length must match input")]
    fn mismatched_batch_lengths_panic() {
        let scorer = GmmScorer::from_gmm(&spread_gmm(2));
        let mut out = [0.0; 2];
        scorer.score_batch(&[[0.0, 0.0]], &mut out);
    }
}
