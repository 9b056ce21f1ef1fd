//! Allocation-free structure-of-arrays (SoA) batch-scoring kernel — the
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
//! * `coef[k] = ln π_k + log_norm_k` (the per-component constant, with
//!   `log_norm_k = −ln 2π − ½ ln |Σ_k|`),
//! * `mx/my[k] = μ_k`, and
//! * `ixx/ixy/iyy[k] = Σ_k⁻¹`,
//!
//! exactly the quantities the FPGA keeps in its weight buffer. Scoring
//! walks these arrays sequentially — cache-line-dense and trivially
//! vectorizable — instead of hopping through an array-of-structs
//! `Vec<Gaussian2>` (72 bytes/component of which 40 are used); the
//! single-point path never allocates (one stack block), the batch path
//! allocates one term scratch per call.
//!
//! # The kernel
//!
//! Per point, the mixture log-density is a log-sum-exp over the
//! per-component joint log-densities `l_k = coef_k − ½ (x−μ_k)ᵀ Σ_k⁻¹
//! (x−μ_k)`. Every kernel uses the same two-pass max-trick formulation
//! with one canonical, ISA-independent summation order: pass 1 finds
//! `m = max_k l_k` (order-free), pass 2 accumulates `exp(l_k − m)` into
//! partial sum `k % 8`, and the eight partials are combined by one fixed
//! tree `((s0+s1)+(s2+s3))+((s4+s5)+(s6+s7))` — so single-point, batched
//! and parallel results are **bit-identical** at every K and batch size
//! (property-tested in `tests/scorer_properties.rs`). Pass 2 evaluates
//! `exp` through [`exp_unit`], a branch-free ~2-ulp Cody–Waite + Cephes
//! polynomial that the compiler can vectorize right inside the loop (a
//! libm call cannot be), with inputs clamped at [`EXP_CLAMP`] so
//! fully-underflowed terms cost a harmless ~3e-308 instead of a denormal
//! stall.
//!
//! The lane-strided order is what lets *both* shapes vectorise: the
//! batched kernel runs its loops across the **points** of a chunk (one
//! component per outer iteration, partial `k % 8` picked per component),
//! the single-point kernel runs them across the **components** of one
//! point (eight adjacent components fill the eight partials at once) —
//! the software analogue of the paper's pipeline streaming the K terms of
//! one miss through the datapath. A serial `s += exp(..)` over components
//! is an ordered reduction the compiler may not reassociate, which is why
//! the single-point path used to cost ~4.5× the batched one per score; it
//! now costs about the same (see `gmm_inference/{scalar,batched}_k256`).
//!
//! The EM E-step runs on the same machinery: [`GmmScorer::unit_terms_into`]
//! writes one point's `exp(l_k − m)` terms through those very loops and
//! returns `m` and the lane-strided sum, so training, online refits and
//! [`GmmScorer::responsibilities_into`] share the scoring kernel's order —
//! their log-likelihood of a point *is* [`GmmScorer::log_density`], bit
//! for bit.
//!
//! The single-point path stages one point's terms in a 2 KiB stack block
//! (K ≤ 256 fits whole; larger mixtures go block by block and recompute
//! the cheap quadratic forms in pass 2); the batch path stages one
//! chunk's terms in a `K × 64` scratch row reused across the whole batch,
//! keeping the working set at the SoA arrays (10 KiB at K = 256 —
//! L1-resident, like the paper's 8-BRAM weight buffer) plus that one
//! scratch.
//!
//! [`GmmScorer::score_batch_parallel`] splits a batch across scoped worker
//! threads (the same crossbeam pattern as the EM E-step) for offline bulk
//! scoring such as admission-threshold calibration.
//!
//! The tables live behind an [`Arc`](std::sync::Arc): the mixture is
//! immutable once flattened, so every consumer — shard workers, serving
//! threads, the per-iteration E-step — shares one weight buffer, and
//! `scorer.clone()` is an atomic refcount bump rather than six `Vec`
//! copies (the hardware analogue: all scoring pipelines read the same
//! BRAM weight buffer; nobody duplicates it per lane).

use crate::error::GmmError;
use crate::gaussian::{Gaussian2, Mat2, Vec2, LN_2PI};
use crate::model::Gmm;

/// Pass-2 clamp: inputs below this are pinned before the polynomial
/// `exp`, so the smallest term is a *normal* ~3.3e-308 (no denormal
/// stalls) that vanishes against the leading `exp(0) = 1` term.
pub const EXP_CLAMP: f64 = -708.0;

/// `exp(x)` for `x ∈ [EXP_CLAMP, 0]`, accurate to ~2 ulp — a Cody–Waite
/// range reduction (`x = n·ln2 + r`, `|r| ≤ ln2/2`) followed by the
/// Cephes `exp` rational approximation and an exponent-bits scale.
///
/// Two reasons not to call libm here: this straight-line form (round,
/// polynomial, one division, integer scale) auto-vectorizes inside the
/// batch kernel where a libm call cannot, and being our own code it is
/// bit-stable across libc versions, which the scalar/batched
/// bit-agreement guarantee relies on.
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

    debug_assert!((EXP_CLAMP..=0.5).contains(&x));
    let n = (x * LOG2E).round_ties_even();
    let r = fmadd(n, -LN2_LO, fmadd(n, -LN2_HI, x));
    let rr = r * r;
    let p = r * fmadd(rr, fmadd(rr, P0, P1), P2);
    let q = fmadd(rr, fmadd(rr, fmadd(rr, Q0, Q1), Q2), Q3);
    let e = fmadd(2.0, p / (q - p), 1.0);
    // 2^n via exponent bits; n ∈ [−1022, 1] on the clamped domain.
    let scale = f64::from_bits((n + MAGIC).to_bits() << 52);
    e * scale
}

/// Fused multiply-add where the target has an FMA unit, plain
/// multiply-then-add elsewhere (calling `f64::mul_add` without hardware
/// FMA falls back to a slow correctly-rounded libm routine). Every kernel
/// goes through this one helper, which (with the shared summation order)
/// is what keeps them bit-identical on every target.
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

/// Points per stack-resident batch chunk.
const CHUNK: usize = 64;

/// Partial sums of the canonical pass-2 order: component `j` accumulates
/// into partial `j % LANES` (see the module docs).
const LANES: usize = 8;

/// Terms per stack block of the single-point kernel (2 KiB; one block
/// holds the paper's K = 256). Must be a multiple of [`LANES`].
const BLOCK: usize = 256;

const _: () = assert!(
    BLOCK.is_multiple_of(LANES),
    "block positions must keep `j % LANES`"
);

/// The one fixed combine of the [`LANES`] pass-2 partial sums, shared by
/// every kernel.
#[inline(always)]
fn lane_tree(s: &[f64; LANES]) -> f64 {
    ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
}

/// Folds `terms` into the lane partials: position `i` lands in lane
/// `i % LANES`. Whole-lane-group loops plus one remainder, so the
/// compiler keeps `acc` in vector registers.
#[inline(always)]
fn fold_lanes(acc: &mut [f64; LANES], terms: &[f64], f: impl Fn(f64, f64) -> f64) {
    let mut groups = terms.chunks_exact(LANES);
    for g in &mut groups {
        for (a, &t) in acc.iter_mut().zip(g) {
            *a = f(*a, t);
        }
    }
    for (a, &t) in acc.iter_mut().zip(groups.remainder()) {
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
    /// The flattened tables, shared by reference: every scorer handed to a
    /// shard worker or serving thread reads the *same* weight buffer, so
    /// cloning a scorer is one atomic refcount bump — zero table bytes
    /// copied (the allocator test in `tests/` pins this to 0 heap bytes).
    /// The tables are immutable after construction, which is what makes
    /// the sharing sound.
    tables: std::sync::Arc<ScorerTables>,
}

/// The six K-length SoA columns of a flattened mixture — the software
/// weight buffer. Built mutably by the constructors, then frozen behind
/// the [`GmmScorer`]'s `Arc`.
#[derive(Debug, PartialEq)]
struct ScorerTables {
    /// `ln π_k + log_norm_k`; `−∞` for zero-weight components.
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
}

impl ScorerTables {
    fn with_capacity(k: usize) -> Self {
        ScorerTables {
            coef: Vec::with_capacity(k),
            mx: Vec::with_capacity(k),
            my: Vec::with_capacity(k),
            hxx: Vec::with_capacity(k),
            hxy: Vec::with_capacity(k),
            hyy: Vec::with_capacity(k),
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

/// The shared per-component term `coef + hxx·dx² + hxy·dx·dy + hyy·dy²`,
/// used by the single-point, batched and E-step paths alike
/// (bit-agreement).
#[inline(always)]
fn log_term_raw(coef: f64, hxx: f64, hxy: f64, hyy: f64, dx: f64, dy: f64) -> f64 {
    fmadd(hxx, dx * dx, fmadd(hxy, dx * dy, fmadd(hyy, dy * dy, coef)))
}

impl GmmScorer {
    /// Flattens a trained mixture into SoA form.
    pub fn from_gmm(gmm: &Gmm) -> Self {
        Self::from_components(gmm.weights(), gmm.components())
    }

    /// Flattens weights + components (inverses already cached).
    pub(crate) fn from_components(weights: &[f64], components: &[Gaussian2]) -> Self {
        let k = weights.len();
        let mut t = ScorerTables::with_capacity(k);
        for (w, c) in weights.iter().zip(components) {
            let inv = c.inv_cov();
            t.push_component(*w, c.log_norm(), c.mean(), inv);
        }
        GmmScorer {
            tables: std::sync::Arc::new(t),
        }
    }

    /// Flattens raw EM parameters, computing the inverses and
    /// log-normalizers the E-step needs.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::SingularCovariance`] naming the first component
    /// whose covariance is not positive definite.
    pub(crate) fn from_params(
        weights: &[f64],
        means: &[Vec2],
        covs: &[Mat2],
    ) -> Result<Self, GmmError> {
        let k = weights.len();
        let mut t = ScorerTables::with_capacity(k);
        for i in 0..k {
            let inv = covs[i]
                .inverse()
                .ok_or(GmmError::SingularCovariance { component: i })?;
            let log_norm = -LN_2PI - 0.5 * covs[i].det().ln();
            t.push_component(weights[i], log_norm, means[i], inv);
        }
        Ok(GmmScorer {
            tables: std::sync::Arc::new(t),
        })
    }

    /// Number of mixture components `K`.
    pub fn k(&self) -> usize {
        self.tables.coef.len()
    }

    /// Writes `l_j` for components `start..start + out.len()` into `out`
    /// — a plain map over the SoA columns, so the compiler vectorises it
    /// across components.
    #[inline(always)]
    fn log_terms_block(&self, x: Vec2, start: usize, out: &mut [f64]) {
        let t = &*self.tables;
        let r = start..start + out.len();
        let (coef, mx, my) = (&t.coef[r.clone()], &t.mx[r.clone()], &t.my[r.clone()]);
        let (hxx, hxy, hyy) = (&t.hxx[r.clone()], &t.hxy[r.clone()], &t.hyy[r]);
        for (j, o) in out.iter_mut().enumerate() {
            *o = log_term_raw(coef[j], hxx[j], hxy[j], hyy[j], x[0] - mx[j], x[1] - my[j]);
        }
    }

    /// Log mixture density `ln G(x)` — allocation-free single-point path,
    /// vectorised across **components**: the terms of one point are staged
    /// in a [`BLOCK`]-term stack block and both log-sum-exp passes run as
    /// plain loops over it. Pass 2 sums in the canonical lane-strided
    /// order (see the module docs), so the result is bit-identical to
    /// [`GmmScorer::log_density_batch`] and to the `lse`
    /// [`GmmScorer::responsibilities_into`] returns, at every K.
    ///
    /// Returns `−∞` when every component term underflows to `−∞` (only
    /// possible for non-finite input or an all-zero-weight mixture, which
    /// the [`Gmm`] constructor forbids).
    pub fn log_density(&self, x: Vec2) -> f64 {
        let k = self.k();
        let mut buf = [0.0f64; BLOCK];
        let mut m = [f64::NEG_INFINITY; LANES];
        for start in (0..k).step_by(BLOCK) {
            let terms = &mut buf[..BLOCK.min(k - start)];
            self.log_terms_block(x, start, terms);
            fold_lanes(&mut m, terms, nan_skipping_max);
        }
        let m = m.iter().copied().fold(f64::NEG_INFINITY, nan_skipping_max);
        if !m.is_finite() {
            return m;
        }
        let mut s = [0.0f64; LANES];
        for start in (0..k).step_by(BLOCK) {
            let terms = &mut buf[..BLOCK.min(k - start)];
            // A mixture that fits one block still holds its pass-1 terms;
            // a larger one recomputes the (cheap) quadratic forms.
            if k > BLOCK {
                self.log_terms_block(x, start, terms);
            }
            for e in terms.iter_mut() {
                *e = exp_unit((*e - m).max(EXP_CLAMP));
            }
            fold_lanes(&mut s, terms, |a, e| a + e);
        }
        m + lane_tree(&s).ln()
    }

    /// Mixture density `G(x)` — the paper's access-frequency score.
    pub fn density(&self, x: Vec2) -> f64 {
        self.log_density(x).exp()
    }

    /// Alias for [`GmmScorer::density`], matching the paper's terminology.
    pub fn score(&self, x: Vec2) -> f64 {
        self.density(x)
    }

    /// The E-step primitive: writes the unit terms `exp(l_j − m)` of `x`
    /// into `out` (`l_j = ln π_j + ln N_j(x)`, `m = max_j l_j`) and returns
    /// `(m, Σ_j out[j])`, so `ln G(x) = m + ln Σ` and the responsibilities
    /// are `out[j] / Σ`. Same loops and the same lane-strided sum as
    /// [`GmmScorer::log_density`] — `m + Σ.ln()` equals it bit for bit.
    ///
    /// When `m` is not finite (non-finite input: no component reaches
    /// `x`) the sum is `0.0` and `out` is left holding the raw `l_j`.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != self.k()`.
    pub fn unit_terms_into(&self, x: Vec2, out: &mut [f64]) -> (f64, f64) {
        assert_eq!(out.len(), self.k(), "scratch length must equal K");
        self.log_terms_block(x, 0, out);
        let mut m = [f64::NEG_INFINITY; LANES];
        fold_lanes(&mut m, out, nan_skipping_max);
        let m = m.iter().copied().fold(f64::NEG_INFINITY, nan_skipping_max);
        if !m.is_finite() {
            return (m, 0.0);
        }
        for e in out.iter_mut() {
            *e = exp_unit((*e - m).max(EXP_CLAMP));
        }
        let mut s = [0.0f64; LANES];
        fold_lanes(&mut s, out, |a, e| a + e);
        (m, lane_tree(&s))
    }

    /// Writes the posterior responsibilities `p(j | x)` into `out` and
    /// returns `ln G(x)` — bit-identical to [`GmmScorer::log_density`].
    /// When the log-density is `−∞` (no component reaches `x`), `out` is
    /// left holding the raw `−∞`/NaN terms and the caller decides the
    /// fallback (the [`Gmm`] wrapper substitutes π).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != self.k()`.
    pub fn responsibilities_into(&self, x: Vec2, out: &mut [f64]) -> f64 {
        let (m, sum) = self.unit_terms_into(x, out);
        if !m.is_finite() {
            return m;
        }
        let inv = 1.0 / sum;
        for o in out.iter_mut() {
            *o *= inv;
        }
        m + sum.ln()
    }

    /// One ≤[`CHUNK`]-point tile of the batched kernel. Identical
    /// floating-point operations and pass-2 order (partial `j % LANES`,
    /// then [`lane_tree`]) as [`GmmScorer::log_density`], so results
    /// bit-agree with the single-point path.
    fn log_density_chunk(&self, xs: &[Vec2], out: &mut [f64], lbuf: &mut [f64]) {
        debug_assert!(xs.len() <= CHUNK && xs.len() == out.len());
        debug_assert_eq!(lbuf.len() % self.k(), 0);
        // Row stride of the term buffer: CHUNK normally, smaller when the
        // whole batch is shorter than one chunk (the buffer is sized to
        // the batch in that case).
        let stride = lbuf.len() / self.k();
        debug_assert!(xs.len() <= stride);
        let n = xs.len();
        // Deinterleave the `[x, y]` pairs once so both passes read unit-
        // stride lanes instead of shuffling strided loads per component.
        let mut px = [0.0f64; CHUNK];
        let mut py = [0.0f64; CHUNK];
        for (b, x) in xs.iter().enumerate() {
            px[b] = x[0];
            py[b] = x[1];
        }
        let (px, py) = (&px[..n], &py[..n]);
        let t = &*self.tables;
        let mut m = [f64::NEG_INFINITY; CHUNK];
        for j in 0..self.k() {
            let (cj, mxj, myj) = (t.coef[j], t.mx[j], t.my[j]);
            let (hxxj, hxyj, hyyj) = (t.hxx[j], t.hxy[j], t.hyy[j]);
            let row = &mut lbuf[j * stride..j * stride + n];
            for b in 0..n {
                let dx = px[b] - mxj;
                let dy = py[b] - myj;
                let l = log_term_raw(cj, hxxj, hxyj, hyyj, dx, dy);
                row[b] = l;
                if l > m[b] {
                    m[b] = l;
                }
            }
        }
        let mut s = [[0.0f64; CHUNK]; LANES];
        for j in 0..self.k() {
            let row = &lbuf[j * stride..j * stride + n];
            let sl = &mut s[j % LANES];
            for b in 0..n {
                let t = row[b] - m[b];
                sl[b] += exp_unit(t.max(EXP_CLAMP));
            }
        }
        for b in 0..n {
            out[b] = if m[b].is_finite() {
                m[b] + lane_tree(&std::array::from_fn(|l| s[l][b])).ln()
            } else {
                m[b]
            };
        }
    }

    /// Batched `ln G(x)` over `xs` into `out`, processed in cache-friendly
    /// chunks of [`CHUNK`] points. Bit-identical to calling
    /// [`GmmScorer::log_density`] per point, with the per-call overhead
    /// and parameter re-streaming amortized across the chunk.
    ///
    /// # Panics
    ///
    /// Panics when `xs.len() != out.len()`.
    pub fn log_density_batch(&self, xs: &[Vec2], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "output length must match input");
        // One K×chunk term buffer per call (not per point): pass 2 reads
        // the pass-1 terms back instead of recomputing every quadratic
        // form. Reused across all chunks of the batch, and sized to the
        // batch when it is smaller than one chunk — a full K×CHUNK
        // zeroing per short call would dwarf the scoring itself.
        let mut lbuf = vec![0.0f64; self.k() * CHUNK.min(xs.len())];
        for (xc, oc) in xs.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            self.log_density_chunk(xc, oc, &mut lbuf);
        }
    }

    /// Batched density `G(x)` — the batch analogue of
    /// [`GmmScorer::score`].
    ///
    /// # Panics
    ///
    /// Panics when `xs.len() != out.len()`.
    pub fn score_batch(&self, xs: &[Vec2], out: &mut [f64]) {
        self.log_density_batch(xs, out);
        for o in out.iter_mut() {
            *o = o.exp();
        }
    }

    /// [`GmmScorer::score_batch`] split across scoped worker threads —
    /// the same crossbeam pattern (and thread cap) as the parallel EM
    /// E-step. `threads = 0` selects the available parallelism; small
    /// batches fall back to the serial kernel. Results are bit-identical
    /// to the serial path (chunks are independent).
    ///
    /// # Panics
    ///
    /// Panics when `xs.len() != out.len()`.
    pub fn score_batch_parallel(&self, xs: &[Vec2], out: &mut [f64], threads: usize) {
        assert_eq!(xs.len(), out.len(), "output length must match input");
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(16)
        } else {
            threads
        };
        if threads <= 1 || xs.len() < PARALLEL_MIN {
            return self.score_batch(xs, out);
        }
        // Round the per-worker span to whole chunks so the tile boundaries
        // (and therefore the bit-exact results) match the serial kernel.
        let chunk = xs.len().div_ceil(threads).next_multiple_of(CHUNK);
        crossbeam::thread::scope(|scope| {
            for (xc, oc) in xs.chunks(chunk).zip(out.chunks_mut(chunk)) {
                scope.spawn(move |_| self.score_batch(xc, oc));
            }
        })
        .expect("scoring worker panicked");
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
            // Sizes straddling the chunk boundary.
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
        assert!(std::sync::Arc::ptr_eq(&scorer.tables, &copy.tables));
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
        let err = GmmScorer::from_params(
            &[0.5, 0.5],
            &[[0.0, 0.0], [1.0, 1.0]],
            &[Mat2::scaled_identity(1.0), Mat2::new(1.0, 2.0, 1.0)],
        )
        .unwrap_err();
        assert_eq!(err, GmmError::SingularCovariance { component: 1 });
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
