//! The [`ScoreSource`] abstraction: how policy-engine scores reach the
//! cache simulator without the cache crate depending on any particular
//! model (GMM, LSTM, oracle, …).

use crate::adapt::AdaptStats;
use crate::fault::FaultStats;
use icgmm_trace::TraceRecord;

/// A streaming score provider.
///
/// The simulator calls [`ScoreSource::observe`] for **every** request in
/// trace order — implementations advance internal clocks there (the
/// paper's Algorithm 1 timestamp counts all requests, hits included) — and
/// calls [`ScoreSource::score_current`] only on misses, mirroring the
/// hardware, where hits bypass the policy engine.
pub trait ScoreSource {
    /// Observes the next request in trace order.
    fn observe(&mut self, record: &TraceRecord);

    /// Score of the most recently observed request's page.
    fn score_current(&mut self) -> f64;

    /// Observes and scores a whole window of requests at once, writing one
    /// score per record into `out`.
    ///
    /// The contract matches the per-record path exactly: `out[i]` must
    /// equal what `observe(records[i]); score_current()` would have
    /// produced at that position. The default implementation is that loop
    /// (the GMM policy engine uses it: its scorer has one kernel, so a
    /// window has nothing faster to call); a source with a genuinely
    /// batched datapath may override it. Replay itself scores per miss and
    /// never calls this; it serves callers that already hold a window of
    /// records.
    ///
    /// # Panics
    ///
    /// Panics when `records.len() != out.len()`.
    fn score_window(&mut self, records: &[TraceRecord], out: &mut [f64]) {
        assert_eq!(records.len(), out.len(), "one score slot per record");
        for (r, o) in records.iter().zip(out.iter_mut()) {
            self.observe(r);
            *o = self.score_current();
        }
    }

    /// Whether this source's observation state depends only on the *count*
    /// of requests observed so far plus the most recent record — never on
    /// the content of earlier records.
    ///
    /// Such sources can be replayed shard-by-shard with their clock kept in
    /// global trace order: requests belonging to other shards are skipped
    /// through [`ScoreSource::observe_gap`] instead of observed, and every
    /// score stays bit-identical to the single-threaded replay. The GMM
    /// policy engine qualifies (Algorithm 1 timestamps count requests;
    /// the scored features are the observed record's own page and that
    /// count-derived timestamp); a history-based source (e.g. an LSTM over
    /// a window of recent records) does not, and must keep the default
    /// `false` — [`crate::ShardedSimulator`] refuses to shard it.
    fn shardable(&self) -> bool {
        false
    }

    /// Advances the observation clock over `n` requests this source will
    /// never see (they belong to other shards), as if `observe` had been
    /// called `n` times with records whose content is irrelevant.
    ///
    /// Called only between per-record observations of a sharded replay and
    /// only on sources reporting [`ScoreSource::shardable`]; the default
    /// implementation panics to keep the contract honest.
    fn observe_gap(&mut self, n: u64) {
        let _ = n;
        unimplemented!("observe_gap on a source that is not shardable");
    }

    /// Adds the opt-in counters this source has kept — its own and those
    /// of whatever it wraps — to `fault` and `adapt`. Whoever replayed a
    /// shard calls this once, after the shard's last record; a source that
    /// injects nothing and adapts nothing has nothing to add.
    fn telemetry(&self, fault: &mut FaultStats, adapt: &mut AdaptStats) {
        let _ = (fault, adapt);
    }
}

impl<S: ScoreSource + ?Sized> ScoreSource for Box<S> {
    fn observe(&mut self, record: &TraceRecord) {
        (**self).observe(record);
    }

    fn score_current(&mut self) -> f64 {
        (**self).score_current()
    }

    fn score_window(&mut self, records: &[TraceRecord], out: &mut [f64]) {
        (**self).score_window(records, out);
    }

    fn shardable(&self) -> bool {
        (**self).shardable()
    }

    fn observe_gap(&mut self, n: u64) {
        (**self).observe_gap(n);
    }

    fn telemetry(&self, fault: &mut FaultStats, adapt: &mut AdaptStats) {
        (**self).telemetry(fault, adapt);
    }
}

/// A constant score for every page (testing, and the degenerate baseline).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ConstantScore(pub f64);

impl ScoreSource for ConstantScore {
    fn observe(&mut self, _record: &TraceRecord) {}

    fn score_current(&mut self) -> f64 {
        self.0
    }

    fn shardable(&self) -> bool {
        true
    }

    fn observe_gap(&mut self, _n: u64) {}
}

/// A score source backed by a closure over `(page, seq)` — handy in tests
/// and ablations.
#[derive(Debug)]
pub struct FnScore<F> {
    f: F,
    seq: u64,
    page: u64,
}

impl<F: FnMut(u64, u64) -> f64> FnScore<F> {
    /// Wraps a `(page_raw, seq) -> score` closure.
    pub fn new(f: F) -> Self {
        FnScore { f, seq: 0, page: 0 }
    }
}

impl<F: FnMut(u64, u64) -> f64> ScoreSource for FnScore<F> {
    fn observe(&mut self, record: &TraceRecord) {
        self.page = record.page().raw();
        self.seq += 1;
    }

    fn score_current(&mut self) -> f64 {
        (self.f)(self.page, self.seq.saturating_sub(1))
    }

    /// The closure sees the *global* observation count, so skipped
    /// foreign-shard requests only need to bump the counter.
    fn shardable(&self) -> bool {
        true
    }

    fn observe_gap(&mut self, n: u64) {
        self.seq += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_score_is_constant() {
        let mut s = ConstantScore(0.7);
        s.observe(&TraceRecord::read(0x1000));
        assert_eq!(s.score_current(), 0.7);
        s.observe(&TraceRecord::write(0x9000));
        assert_eq!(s.score_current(), 0.7);
    }

    #[test]
    fn fn_score_sees_page_and_seq() {
        let mut s = FnScore::new(|page, seq| page as f64 + seq as f64 / 10.0);
        s.observe(&TraceRecord::read(2 << 12));
        assert_eq!(s.score_current(), 2.0);
        s.observe(&TraceRecord::read(5 << 12));
        assert!((s.score_current() - 5.1).abs() < 1e-12);
    }

    #[test]
    fn default_score_window_matches_streaming() {
        let records: Vec<TraceRecord> = (0..10u64).map(|p| TraceRecord::read(p << 12)).collect();
        let mut streaming = FnScore::new(|page, seq| page as f64 * 100.0 + seq as f64);
        let mut windowed = FnScore::new(|page, seq| page as f64 * 100.0 + seq as f64);
        let mut out = vec![0.0; records.len()];
        windowed.score_window(&records, &mut out);
        for (r, o) in records.iter().zip(&out) {
            streaming.observe(r);
            assert_eq!(*o, streaming.score_current());
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

    #[test]
    fn observe_gap_matches_observing_foreign_records() {
        // A sharded FnScore that skips 3 foreign records then observes its
        // own must score exactly like the single-threaded source that
        // observed all 4.
        let mut global = FnScore::new(|page, seq| page as f64 * 1000.0 + seq as f64);
        for p in 0..3u64 {
            global.observe(&TraceRecord::read(p << 12));
        }
        global.observe(&TraceRecord::read(9 << 12));
        let mut sharded = FnScore::new(|page, seq| page as f64 * 1000.0 + seq as f64);
        sharded.observe_gap(3);
        sharded.observe(&TraceRecord::read(9 << 12));
        assert_eq!(global.score_current(), sharded.score_current());
        assert!(sharded.shardable());
    }

    #[test]
    #[should_panic(expected = "not shardable")]
    fn default_observe_gap_panics() {
        struct Opaque;
        impl ScoreSource for Opaque {
            fn observe(&mut self, _r: &TraceRecord) {}
            fn score_current(&mut self) -> f64 {
                0.0
            }
        }
        Opaque.observe_gap(1);
    }

    #[test]
    fn fn_score_window_advances_seq_like_streaming() {
        // The default implementation must leave the source in the same
        // state as the streaming loop: the next streaming call continues
        // the sequence where the window left off.
        let records: Vec<TraceRecord> = (0..4u64).map(|p| TraceRecord::read(p << 12)).collect();
        let mut s = FnScore::new(|page, seq| page as f64 + seq as f64 * 1000.0);
        let mut out = vec![0.0; records.len()];
        s.score_window(&records, &mut out);
        s.observe(&TraceRecord::read(9 << 12));
        assert_eq!(s.score_current(), 9.0 + 4.0 * 1000.0);
    }
}
