//! The [`ScoreSource`] abstraction: how policy-engine scores reach the
//! cache simulator without the cache crate depending on any particular
//! model (GMM, LSTM, oracle, …).

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
    /// The contract matches the streaming path exactly: `out[i]` must equal
    /// what `observe(records[i]); score_current()` would have produced at
    /// that position, so windowed and streaming replays are interchangeable.
    /// The default implementation is that loop; batch-capable sources (the
    /// GMM policy engine) override it to collect the window's feature pairs
    /// and push them through their batched kernel in one call — the
    /// software analogue of the hardware streaming a miss window through
    /// the scoring pipeline back-to-back.
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

    /// Whether this source's [`ScoreSource::score_window`] is genuinely
    /// batched — materially cheaper per score than `observe` +
    /// `score_current`, by enough to repay miss-window speculation (a few
    /// hundred ns per *request* of shadow classification, plus scores
    /// computed for predicted misses that then hit). Every replay engine
    /// routes on this one signal: the default entry points
    /// ([`crate::simulate`], [`crate::simulate_with_warmup`]), the sharded
    /// and serving engines, the dataflow front-end, and
    /// [`crate::WindowedSimulator`] itself, which hands a source answering
    /// `false` to the streaming loop exactly as it does a score-free run.
    ///
    /// No in-tree production source answers `true` any more: since the GMM
    /// scorer's single-point kernel vectorises across components it costs
    /// about what the batched kernel does per score (≈ 1.2–1.4× at
    /// K = 256, down from 4.5×), and streaming replay wins on every
    /// measured workload. Wrap a source in [`PreferBatching`] to drive the
    /// speculative path anyway (test suites, ablations).
    fn prefers_batching(&self) -> bool {
        false
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

    /// [`ScoreSource::score_window`] for a sharded replay: `gaps[i]`
    /// foreign-shard requests precede `records[i]` and must advance the
    /// clock (via [`ScoreSource::observe_gap`]) before that record is
    /// observed. `out[i]` must equal what the single-threaded
    /// `observe`/`score_current` sequence would have produced at the same
    /// global position.
    ///
    /// The default implementation is the per-record loop; batch-capable
    /// sources override it to keep one batched kernel call per window
    /// (the GMM policy engine folds the gaps into its timestamp stream
    /// while collecting features).
    ///
    /// # Panics
    ///
    /// Panics when `records`, `gaps` and `out` disagree in length.
    fn score_window_gapped(&mut self, records: &[TraceRecord], gaps: &[u64], out: &mut [f64]) {
        assert_eq!(records.len(), out.len(), "one score slot per record");
        assert_eq!(records.len(), gaps.len(), "one gap per record");
        for ((r, &g), o) in records.iter().zip(gaps).zip(out.iter_mut()) {
            if g > 0 {
                self.observe_gap(g);
            }
            self.observe(r);
            *o = self.score_current();
        }
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

    fn prefers_batching(&self) -> bool {
        (**self).prefers_batching()
    }

    fn shardable(&self) -> bool {
        (**self).shardable()
    }

    fn observe_gap(&mut self, n: u64) {
        (**self).observe_gap(n);
    }

    fn score_window_gapped(&mut self, records: &[TraceRecord], gaps: &[u64], out: &mut [f64]) {
        (**self).score_window_gapped(records, gaps, out);
    }
}

/// Forwards every call to the wrapped source and answers
/// [`ScoreSource::prefers_batching`] with `true` — the way to make a
/// replay engine speculate over a source that does not ask for it.
///
/// Results are bit-identical with or without the wrapper (the batcher's
/// own invariant); only where the host time goes changes. The
/// differential suites, the `ablation` bin and the archived `*_batched`
/// benchmark cases use it to keep exercising
/// [`crate::WindowedSimulator`]'s speculation, which no production source
/// selects any more.
#[derive(Clone, Debug)]
pub struct PreferBatching<S>(pub S);

impl<S: ScoreSource> ScoreSource for PreferBatching<S> {
    fn observe(&mut self, record: &TraceRecord) {
        self.0.observe(record);
    }

    fn score_current(&mut self) -> f64 {
        self.0.score_current()
    }

    fn score_window(&mut self, records: &[TraceRecord], out: &mut [f64]) {
        self.0.score_window(records, out);
    }

    fn prefers_batching(&self) -> bool {
        true
    }

    fn shardable(&self) -> bool {
        self.0.shardable()
    }

    fn observe_gap(&mut self, n: u64) {
        self.0.observe_gap(n);
    }

    fn score_window_gapped(&mut self, records: &[TraceRecord], gaps: &[u64], out: &mut [f64]) {
        self.0.score_window_gapped(records, gaps, out);
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
    fn prefer_batching_changes_the_signal_and_nothing_else() {
        let records: Vec<TraceRecord> = (0..6u64).map(|p| TraceRecord::read(p << 12)).collect();
        let mut plain = FnScore::new(|page, seq| page as f64 * 10.0 + seq as f64);
        let mut wrapped = PreferBatching(FnScore::new(|page, seq| page as f64 * 10.0 + seq as f64));
        assert!(!plain.prefers_batching() && wrapped.prefers_batching());
        assert_eq!(plain.shardable(), wrapped.shardable());
        let (mut a, mut b) = (vec![0.0; 3], vec![0.0; 3]);
        plain.score_window_gapped(&records[..3], &[2, 0, 1], &mut a);
        wrapped.score_window_gapped(&records[..3], &[2, 0, 1], &mut b);
        assert_eq!(a, b);
        plain.observe_gap(4);
        wrapped.observe_gap(4);
        plain.score_window(&records[3..], &mut a);
        wrapped.score_window(&records[3..], &mut b);
        assert_eq!(a, b);
        plain.observe(&records[0]);
        wrapped.observe(&records[0]);
        assert_eq!(plain.score_current(), wrapped.score_current());
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
    fn default_score_window_gapped_matches_streaming_positions() {
        // Shard records at global positions 1, 4, 5 (gaps 1, 2, 0).
        let all: Vec<TraceRecord> = (0..6u64).map(|p| TraceRecord::read(p << 12)).collect();
        let shard = [all[1], all[4], all[5]];
        let gaps = [1u64, 2, 0];
        let mut reference = FnScore::new(|page, seq| page as f64 + seq as f64 * 100.0);
        let mut expected = Vec::new();
        for (i, r) in all.iter().enumerate() {
            reference.observe(r);
            if [1, 4, 5].contains(&i) {
                expected.push(reference.score_current());
            }
        }
        let mut sharded = FnScore::new(|page, seq| page as f64 + seq as f64 * 100.0);
        let mut out = vec![0.0; 3];
        sharded.score_window_gapped(&shard, &gaps, &mut out);
        assert_eq!(out, expected);
    }

    #[test]
    #[should_panic(expected = "one gap per record")]
    fn score_window_gapped_rejects_gap_length_mismatch() {
        let mut s = ConstantScore(0.0);
        let mut out = vec![0.0; 1];
        s.score_window_gapped(&[TraceRecord::read(0)], &[0, 0], &mut out);
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
