//! The [`ScoreSource`] abstraction: how policy-engine scores reach the
//! cache simulator without the cache crate depending on any particular
//! model (GMM, LSTM, oracle, …).

use crate::adapt::AdaptStats;
use crate::fault::FaultStats;
use icgmm_trace::{PageIndex, TraceRecord};

/// A per-miss score provider.
///
/// The simulator calls [`ScoreSource::score`] only on misses, mirroring
/// the hardware, where hits bypass the policy engine — with the missed
/// page and its global position in the trace: the paper's Algorithm 1
/// timestamp is a closed form of that position, which counts all
/// requests, hits included, so a score needs nothing from the records
/// that hit before it. A miss that must evict from a set holding blocks
/// inserted without a trusted score first re-scores those blocks' pages
/// at its own position ([`crate::GmmScorePolicy`]), so a position can be
/// asked for more than once.
///
/// A source's score must be a function of the page, its position, and
/// state no shard's own records move (an adaptive engine's refit loop
/// walks the whole slice on every shard). That is what lets a sharded
/// replay hand each shard's clone only its own misses and stay
/// bit-identical to the single-threaded replay.
pub trait ScoreSource {
    /// Score of `page` at 0-based global trace position `pos` (warm-up
    /// included): the page a miss there requested, or a block that miss
    /// re-scores. Positions never descend; a shard's source sees only its
    /// own misses' positions, so they need not be contiguous.
    fn score(&mut self, page: PageIndex, pos: u64) -> f64;

    /// Benchmark façade — called by `icgmm_bench`'s window probe and
    /// deleted by the benchmark PR that retires it: scores `records` as
    /// positions `0..records.len()`, one score per record into `out`.
    /// Replay scores per miss and never calls this.
    ///
    /// # Panics
    ///
    /// Panics when `records.len() != out.len()`.
    #[doc(hidden)]
    fn score_window(&mut self, records: &[TraceRecord], out: &mut [f64]) {
        assert_eq!(records.len(), out.len(), "one score slot per record");
        for (pos, (r, o)) in records.iter().zip(out.iter_mut()).enumerate() {
            *o = self.score(r.page(), pos as u64);
        }
    }

    /// Adds the fault counters this source has kept — its own and those of
    /// whatever it wraps — to `fault`, and writes its adaptation block to
    /// `adapt`. Whoever replayed a shard calls this once, after the shard's
    /// last record: a source may finish there what the shard's hits never
    /// asked it for (an adaptive engine takes the check decisions past its
    /// last miss). A source that injects nothing and adapts nothing has
    /// nothing to add.
    fn telemetry(&mut self, fault: &mut FaultStats, adapt: &mut AdaptStats) {
        let _ = (fault, adapt);
    }
}

impl<S: ScoreSource + ?Sized> ScoreSource for Box<S> {
    fn score(&mut self, page: PageIndex, pos: u64) -> f64 {
        (**self).score(page, pos)
    }

    fn telemetry(&mut self, fault: &mut FaultStats, adapt: &mut AdaptStats) {
        (**self).telemetry(fault, adapt);
    }
}

/// A constant score for every page (testing, and the degenerate baseline).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ConstantScore(pub f64);

impl ScoreSource for ConstantScore {
    fn score(&mut self, _page: PageIndex, _pos: u64) -> f64 {
        self.0
    }
}

/// A score source backed by a closure over `(page, pos)` — handy in tests
/// and ablations.
#[derive(Debug)]
pub struct FnScore<F>(F);

impl<F: FnMut(u64, u64) -> f64> FnScore<F> {
    /// Wraps a `(page_raw, global position) -> score` closure.
    pub fn new(f: F) -> Self {
        FnScore(f)
    }
}

impl<F: FnMut(u64, u64) -> f64> ScoreSource for FnScore<F> {
    fn score(&mut self, page: PageIndex, pos: u64) -> f64 {
        (self.0)(page.raw(), pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_score_is_constant() {
        let mut s = ConstantScore(0.7);
        assert_eq!(s.score(PageIndex::new(1), 0), 0.7);
        assert_eq!(s.score(PageIndex::new(9), 1), 0.7);
    }

    #[test]
    fn fn_score_sees_page_and_seq() {
        let mut s = FnScore::new(|page, pos| page as f64 + pos as f64 / 10.0);
        assert_eq!(s.score(PageIndex::new(2), 0), 2.0);
        // Positions are whatever the caller says: a shard skips foreign ones.
        assert!((s.score(PageIndex::new(5), 4) - 5.4).abs() < 1e-12);
    }

    #[test]
    fn default_score_window_matches_streaming() {
        let records: Vec<TraceRecord> = (0..10u64).map(|p| TraceRecord::read(p << 12)).collect();
        let mut streaming = FnScore::new(|page, seq| page as f64 * 100.0 + seq as f64);
        let mut windowed = FnScore::new(|page, seq| page as f64 * 100.0 + seq as f64);
        let mut out = vec![0.0; records.len()];
        windowed.score_window(&records, &mut out);
        for (pos, (r, o)) in records.iter().zip(&out).enumerate() {
            assert_eq!(*o, streaming.score(r.page(), pos as u64));
        }
    }

    #[test]
    #[should_panic(expected = "one score slot per record")]
    fn score_window_rejects_length_mismatch() {
        let mut s = ConstantScore(0.0);
        let mut out = vec![0.0; 2];
        s.score_window(&[TraceRecord::read(0)], &mut out);
    }

    #[test]
    #[should_panic(expected = "one score slot per record")]
    fn constant_score_window_rejects_short_output() {
        // The doc contract promises a panic on *any* mismatch, including
        // out shorter than records, for sources inheriting the default.
        let mut s = ConstantScore(0.3);
        let mut out = vec![0.0; 1];
        s.score_window(&[TraceRecord::read(0), TraceRecord::read(0x1000)], &mut out);
    }

    #[test]
    #[should_panic(expected = "one score slot per record")]
    fn fn_score_window_rejects_length_mismatch() {
        let mut s = FnScore::new(|page, _| page as f64);
        let mut out = vec![0.0; 3];
        s.score_window(&[TraceRecord::read(0)], &mut out);
    }

    #[test]
    fn constant_score_window_fills_every_slot_and_observes() {
        let records: Vec<TraceRecord> = (0..5u64).map(|p| TraceRecord::read(p << 12)).collect();
        let mut s = ConstantScore(0.42);
        let mut out = vec![-1.0; records.len()];
        s.score_window(&records, &mut out);
        assert!(out.iter().all(|&v| v == 0.42));
    }
}
