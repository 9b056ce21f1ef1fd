//! Access statistics and windowed miss-rate series.

use crate::cache::AccessOutcome;
use icgmm_trace::Op;
use serde::{Deserialize, Serialize};

/// Counters accumulated over a simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read requests observed.
    pub reads: u64,
    /// Write requests observed.
    pub writes: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Read misses that were inserted.
    pub read_insertions: u64,
    /// Write misses that were inserted.
    pub write_insertions: u64,
    /// Read misses bypassed by the admission policy.
    pub read_bypasses: u64,
    /// Write misses bypassed by the admission policy.
    pub write_bypasses: u64,
    /// Evictions of clean blocks.
    pub clean_evictions: u64,
    /// Evictions of dirty blocks (each costs an SSD write-back).
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Records one outcome.
    pub fn record(&mut self, op: Op, outcome: &AccessOutcome) {
        match op {
            Op::Read => self.reads += 1,
            Op::Write => self.writes += 1,
        }
        match outcome {
            AccessOutcome::Hit { .. } => match op {
                Op::Read => self.read_hits += 1,
                Op::Write => self.write_hits += 1,
            },
            AccessOutcome::MissInserted { evicted, .. } => {
                match op {
                    Op::Read => self.read_insertions += 1,
                    Op::Write => self.write_insertions += 1,
                }
                if let Some(e) = evicted {
                    if e.dirty {
                        self.dirty_evictions += 1;
                    } else {
                        self.clean_evictions += 1;
                    }
                }
            }
            AccessOutcome::MissBypassed => match op {
                Op::Read => self.read_bypasses += 1,
                Op::Write => self.write_bypasses += 1,
            },
        }
    }

    /// Total requests.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Total misses (inserted + bypassed).
    pub fn misses(&self) -> u64 {
        self.accesses() - self.hits()
    }

    /// Bypassed misses.
    pub fn bypasses(&self) -> u64 {
        self.read_bypasses + self.write_bypasses
    }

    /// Miss rate in `[0, 1]` (0 for an empty run).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses() as f64
        }
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_hits += other.read_hits;
        self.write_hits += other.write_hits;
        self.read_insertions += other.read_insertions;
        self.write_insertions += other.write_insertions;
        self.read_bypasses += other.read_bypasses;
        self.write_bypasses += other.write_bypasses;
        self.clean_evictions += other.clean_evictions;
        self.dirty_evictions += other.dirty_evictions;
    }
}

/// Per-window miss-rate time series (for drift/phase diagnostics), kept as
/// integer counts bucketed by measured trace position — so, like
/// [`CacheStats`], the series of a set-partitioned run is the shards'
/// series added up ([`MissSeries::merge`]), whatever the shard count.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MissSeries {
    window: u64,
    /// `[accesses, misses]` of each window of `window` consecutive measured
    /// positions that has been touched; a run's last one may be partial.
    counts: Vec<[u64; 2]>,
}

impl MissSeries {
    /// Creates a series with `window` requests per point.
    ///
    /// # Panics
    ///
    /// Panics when `window == 0`.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window must be >= 1");
        MissSeries {
            window,
            counts: Vec::new(),
        }
    }

    /// Records the access at measured position `pos` (0-based over the
    /// whole measured phase, not over one shard's share of it;
    /// `miss = true` for any kind of miss).
    #[inline]
    pub fn record(&mut self, pos: u64, miss: bool) {
        let w = (pos / self.window) as usize;
        if w >= self.counts.len() {
            self.counts.resize(w + 1, [0; 2]);
        }
        self.counts[w][0] += 1;
        self.counts[w][1] += u64::from(miss);
    }

    /// Adds another series over the same windows into this one.
    ///
    /// # Panics
    ///
    /// Panics when the window lengths differ.
    pub fn merge(&mut self, other: &MissSeries) {
        assert_eq!(self.window, other.window, "series windows differ");
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), [0; 2]);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            a[0] += b[0];
            a[1] += b[1];
        }
    }

    /// Miss rate of each completed window, in trace order.
    pub fn rates(&self) -> Vec<f64> {
        self.counts
            .iter()
            .take_while(|c| c[0] == self.window)
            .map(|c| c[1] as f64 / self.window as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{AccessOutcome, Eviction};
    use icgmm_trace::PageIndex;

    fn hit() -> AccessOutcome {
        AccessOutcome::Hit { way: 0 }
    }

    fn miss(dirty: Option<bool>) -> AccessOutcome {
        AccessOutcome::MissInserted {
            way: 0,
            evicted: dirty.map(|d| Eviction {
                page: PageIndex::new(9),
                dirty: d,
            }),
        }
    }

    #[test]
    fn rates_are_consistent() {
        let mut s = CacheStats::default();
        s.record(Op::Read, &hit());
        s.record(Op::Read, &miss(None));
        s.record(Op::Write, &miss(Some(true)));
        s.record(Op::Write, &hit());
        assert_eq!(s.accesses(), 4);
        assert_eq!(s.hits(), 2);
        assert_eq!(s.misses(), 2);
        assert_eq!(s.miss_rate(), 0.5);
        assert_eq!(s.dirty_evictions, 1);
        assert_eq!(s.clean_evictions, 0);
    }

    #[test]
    fn bypasses_count_as_misses() {
        let mut s = CacheStats::default();
        s.record(Op::Read, &AccessOutcome::MissBypassed);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.bypasses(), 1);
        assert_eq!(s.read_bypasses, 1);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = CacheStats::default();
        a.record(Op::Read, &hit());
        let mut b = CacheStats::default();
        b.record(Op::Write, &miss(Some(false)));
        a.merge(&b);
        assert_eq!(a.accesses(), 2);
        assert_eq!(a.clean_evictions, 1);
    }

    #[test]
    fn miss_series_windows() {
        let mut m = MissSeries::new(4);
        for i in 0..8 {
            m.record(i, i % 2 == 0); // 50% misses
        }
        assert_eq!(m.rates(), vec![0.5, 0.5]);
        m.record(8, true); // partial window not yet emitted
        assert_eq!(m.rates().len(), 2);
    }

    /// Positions dealt out to three "shards" (one of them never reaching
    /// the last window) add up to the series recorded in one pass.
    #[test]
    fn miss_series_merge_is_the_one_pass_series() {
        let miss = |pos: u64| pos % 3 == 1 || pos % 7 == 2;
        let mut whole = MissSeries::new(5);
        let mut parts = [MissSeries::new(5), MissSeries::new(5), MissSeries::new(5)];
        for pos in 0..23u64 {
            whole.record(pos, miss(pos));
            let shard = if pos >= 20 { 0 } else { (pos % 3) as usize };
            parts[shard].record(pos, miss(pos));
        }
        let mut merged = MissSeries::new(5);
        for part in parts.iter().rev() {
            merged.merge(part);
        }
        assert_eq!(merged, whole);
        assert_eq!(whole.rates().len(), 4);
        assert!(parts[1].rates().is_empty(), "a shard's windows are partial");
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = MissSeries::new(0);
    }
}
