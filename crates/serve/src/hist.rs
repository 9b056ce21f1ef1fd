//! Log-bucketed latency histogram for admission-decision latencies.
//!
//! Serving latencies span five-plus decades (sub-microsecond queue hops
//! to multi-millisecond backpressure stalls), so fixed-width buckets
//! either blow up memory or lose the tail. This histogram buckets by
//! value magnitude: 16 sub-buckets per octave (≤ ~6 % relative bucket
//! width), values below 16 ns exact. Quantiles report each bucket's
//! upper bound, so `p99` never under-states the tail.
//!
//! # Rounding direction, end to end
//!
//! Every approximation in the admission-latency pipeline rounds *up*, so
//! reported percentiles are honest upper bounds:
//!
//! * **Submit stamps** are taken once per batch, when it leaves its
//!   client's per-shard buffer (before any full-queue wait): every record
//!   starts at the batch's earliest instant. Client-buffer dwell — a
//!   transport-batching artifact — is excluded; blocking backpressure,
//!   stamped before the wait, is real queueing and included.
//! * **Decided stamps** are taken once per received batch, after its last
//!   record was decided, and charged to every measured record in it.
//! * **Buckets** absorb up to ~6 % relative error, and quantiles report
//!   the holding bucket's upper bound.

use serde::{Deserialize, Serialize};

/// Sub-bucket resolution: 2^4 = 16 sub-buckets per octave.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Exact buckets `0..SUB`, then 16 per octave for the remaining
/// `64 - SUB_BITS` octaves of a `u64`.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Mergeable log-bucketed histogram of nanosecond latencies.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // msb >= SUB_BITS
    let sub = ((v >> (msb - SUB_BITS as usize)) - SUB as u64) as usize;
    (msb - SUB_BITS as usize) * SUB + SUB + sub
}

/// Largest value mapping to bucket `b` — the value quantiles report.
fn bucket_upper(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let exp = (b - SUB) / SUB;
    let sub = ((b - SUB) % SUB) as u64;
    // The topmost bucket's exclusive bound is 2^64; saturate it.
    match (SUB as u64 + sub + 1).checked_shl(exp as u32) {
        Some(bound) if bound != 0 => bound - 1,
        _ => u64::MAX,
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    /// Records one latency sample, in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.record_ns_n(ns, 1);
    }

    /// Records `n` samples of the same latency, in nanoseconds — `n` calls
    /// of [`LatencyHistogram::record_ns`] at once.
    pub fn record_ns_n(&mut self, ns: u64, n: u64) {
        self.counts[bucket_of(ns)] += n;
        self.total += n;
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> u64 {
        self.total
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds — the upper bound
    /// of the bucket holding the rank-`⌈q·n⌉` sample (0 when empty).
    ///
    /// Out-of-range arguments are clamped rather than left
    /// implementation-defined: `q < 0.0` reports the minimum (rank-1)
    /// sample, `q > 1.0` the maximum, and `NaN` is treated as `0.0` — a
    /// NaN quantile request carries no ordering information, so the
    /// conservative minimum is reported instead of whatever the cast
    /// would produce.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(b);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// [`LatencyHistogram::quantile_ns`] converted to microseconds (same
    /// clamping of out-of-range and NaN `q`).
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev = 0;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b == prev || b == prev + 1, "bucket jump at {v}");
            assert!(v <= bucket_upper(b), "v {v} above its bucket upper");
            prev = b;
        }
        // Bucket upper bounds invert the mapping.
        for b in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_upper(b)), b, "upper of {b} maps back");
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 7, 15] {
            h.record_ns(v);
        }
        assert_eq!(h.quantile_ns(0.0), 0);
        assert_eq!(h.quantile_ns(1.0), 15);
        assert_eq!(h.samples(), 4);
    }

    #[test]
    fn quantiles_are_within_bucket_resolution() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record_ns(v);
        }
        let p50 = h.quantile_ns(0.50) as f64;
        let p99 = h.quantile_ns(0.99) as f64;
        // Upper-bound reporting: never below the true quantile, and at
        // most one bucket (~6 %) above it.
        assert!((50_000.0..=53_200.0).contains(&p50), "p50 {p50}");
        assert!((99_000.0..=105_400.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in 0..1_000u64 {
            let sample = v * v % 7_777;
            if v % 2 == 0 {
                a.record_ns(sample);
            } else {
                b.record_ns(sample);
            }
            both.record_ns(sample);
        }
        a.merge(&b);
        assert_eq!(a.samples(), both.samples());
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile_ns(q), both.quantile_ns(q));
        }
    }

    /// A counted record is that many single records: the same sample count
    /// and the same quantile at every q.
    #[test]
    fn counted_record_equals_repeated_records() {
        let mut counted = LatencyHistogram::new();
        let mut single = LatencyHistogram::new();
        let batches = [
            (0u64, 3u64),
            (15, 1),
            (16, 64),
            (4_321, 7),
            (1 << 40, 2),
            (9, 0),
        ];
        for (ns, n) in batches {
            counted.record_ns_n(ns, n);
            (0..n).for_each(|_| single.record_ns(ns));
        }
        assert_eq!(counted.samples(), 77);
        assert_eq!(counted.samples(), single.samples());
        for i in 0..=100 {
            let q = f64::from(i) / 100.0;
            assert_eq!(counted.quantile_ns(q), single.quantile_ns(q), "q={q}");
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.quantile_us(0.99), 0.0);
    }

    /// Out-of-range and NaN quantile arguments are clamped to the
    /// documented behavior instead of being implementation-defined.
    #[test]
    fn out_of_range_quantiles_are_clamped() {
        let mut h = LatencyHistogram::new();
        for v in [3u64, 7, 11, 15] {
            h.record_ns(v);
        }
        let min = h.quantile_ns(0.0);
        let max = h.quantile_ns(1.0);
        assert_eq!(min, 3);
        assert_eq!(max, 15);
        assert_eq!(h.quantile_ns(-0.5), min, "q < 0 clamps to the minimum");
        assert_eq!(h.quantile_ns(f64::NEG_INFINITY), min);
        assert_eq!(h.quantile_ns(1.5), max, "q > 1 clamps to the maximum");
        assert_eq!(h.quantile_ns(f64::INFINITY), max);
        assert_eq!(h.quantile_ns(f64::NAN), min, "NaN reports the minimum");
        assert_eq!(h.quantile_us(f64::NAN), min as f64 / 1_000.0);
        // An empty histogram still reports zero for every argument.
        let empty = LatencyHistogram::new();
        for q in [-1.0, 0.5, 2.0, f64::NAN] {
            assert_eq!(empty.quantile_ns(q), 0);
        }
    }

    /// Boundary values round-trip `bucket_of`/`bucket_upper`: the exact
    /// range's edges, the first bucketed value, exact powers of two
    /// across the full width, and saturation at `u64::MAX`.
    #[test]
    fn boundary_values_round_trip() {
        // Exact range: 0..16 each own a bucket whose upper is the value.
        for v in [0u64, 1, 15] {
            assert_eq!(bucket_upper(bucket_of(v)), v);
        }
        // 16 is the first approximated value: first sub-bucket of the
        // first octave, upper bound 16 (width-1 bucket at this octave).
        assert_eq!(bucket_of(16), SUB);
        assert_eq!(bucket_upper(SUB), 16);
        // Exact powers of two open a fresh sub-bucket in every octave.
        for e in SUB_BITS..64 {
            let v = 1u64 << e;
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b), "2^{e} above its bucket upper");
            assert!(b > bucket_of(v - 1), "2^{e} shares a bucket with 2^{e}-1");
        }
        // The top of the range saturates instead of wrapping: u64::MAX
        // lands in the last bucket, whose upper bound is u64::MAX.
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_of(bucket_upper(BUCKETS - 1)), BUCKETS - 1);
    }

    /// Bucketed quantiles never under-state: for every probe quantile of
    /// a deterministic pseudo-random sample set, the histogram's answer
    /// is >= the exact order-statistic.
    #[test]
    fn quantiles_never_under_state() {
        let mut h = LatencyHistogram::new();
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Spread over ~6 decades, including the exact range.
            let v = x % 10u64.pow(1 + (x >> 60) as u32 % 6);
            samples.push(v);
            h.record_ns(v);
        }
        samples.sort_unstable();
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            assert!(
                h.quantile_ns(q) >= exact,
                "q={q}: reported {} under-states exact {exact}",
                h.quantile_ns(q)
            );
        }
    }

    /// Merge is associative and commutative: any grouping of per-worker
    /// histograms yields the same quantiles.
    #[test]
    fn merge_is_associative() {
        let mk = |seed: u64| {
            let mut h = LatencyHistogram::new();
            let mut x = seed;
            for _ in 0..800 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(seed | 1);
                h.record_ns(x % 1_000_000);
            }
            h
        };
        let (a, b, c) = (mk(1), mk(2), mk(3));
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        // c + (b + a) — commuted grouping.
        let mut ba = b.clone();
        ba.merge(&a);
        let mut comm = c.clone();
        comm.merge(&ba);
        assert_eq!(left.samples(), right.samples());
        assert_eq!(left.samples(), comm.samples());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(left.quantile_ns(q), right.quantile_ns(q));
            assert_eq!(left.quantile_ns(q), comm.quantile_ns(q));
        }
    }
}
