//! In-memory trace container and summary statistics.

use crate::record::{Op, PageIndex, TraceRecord};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// An ordered sequence of memory requests.
///
/// The trace is the unit of exchange between workload generators, the
/// preprocessing pipeline, the GMM trainer and the cache simulator.
///
/// ```
/// use icgmm_trace::{Trace, TraceRecord};
/// let mut t = Trace::new();
/// t.push(TraceRecord::read(0x1000));
/// t.push(TraceRecord::write(0x2000));
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.stats().write_fraction(), 0.5);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Wraps an existing record vector.
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        Trace { records }
    }

    /// Appends a record.
    pub fn push(&mut self, r: TraceRecord) {
        self.records.push(r);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the trace has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Immutable view of the records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Iterator over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// Consumes the trace, returning the record vector.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }

    /// Computes one-pass summary statistics.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_records(&self.records)
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<T: IntoIterator<Item = TraceRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceRecord>>(iter: T) -> Self {
        Trace {
            records: Vec::from_iter(iter),
        }
    }
}

impl IntoIterator for Trace {
    type Item = TraceRecord;
    type IntoIter = std::vec::IntoIter<TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

/// Summary statistics over a trace (or a slice of one).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total number of requests.
    pub requests: usize,
    /// Number of write requests.
    pub writes: usize,
    /// Number of distinct 4 KiB pages touched (the page-level footprint).
    pub distinct_pages: usize,
    /// Smallest page index touched.
    pub min_page: u64,
    /// Largest page index touched.
    pub max_page: u64,
}

impl TraceStats {
    /// Computes statistics over a record slice.
    pub fn from_records(records: &[TraceRecord]) -> Self {
        let mut pages: HashSet<PageIndex> = HashSet::new();
        let mut writes = 0usize;
        let mut min_page = u64::MAX;
        let mut max_page = 0u64;
        for r in records {
            if r.op() == Op::Write {
                writes += 1;
            }
            let p = r.page();
            min_page = min_page.min(p.raw());
            max_page = max_page.max(p.raw());
            pages.insert(p);
        }
        if records.is_empty() {
            min_page = 0;
        }
        TraceStats {
            requests: records.len(),
            writes,
            distinct_pages: pages.len(),
            min_page,
            max_page,
        }
    }

    /// Fraction of requests that are writes (0 for an empty trace).
    pub fn write_fraction(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.writes as f64 / self.requests as f64
        }
    }

    /// Page-level footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.distinct_pages as u64 * crate::record::PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;

    fn sample_trace() -> Trace {
        Trace::from_records(vec![
            TraceRecord::read(0x0000),
            TraceRecord::read(0x0040),
            TraceRecord::write(0x1000),
            TraceRecord::read(0x2000),
            TraceRecord::write(0x2080),
        ])
    }

    #[test]
    fn stats_counts_distinct_pages() {
        let s = sample_trace().stats();
        assert_eq!(s.requests, 5);
        assert_eq!(s.writes, 2);
        assert_eq!(s.distinct_pages, 3);
        assert_eq!(s.min_page, 0);
        assert_eq!(s.max_page, 2);
        assert_eq!(s.footprint_bytes(), 3 * 4096);
    }

    #[test]
    fn empty_trace_stats_are_zeroed() {
        let s = Trace::new().stats();
        assert_eq!(s.requests, 0);
        assert_eq!(s.write_fraction(), 0.0);
        assert_eq!(s.min_page, 0);
    }

    #[test]
    fn collect_and_extend() {
        let t: Trace = sample_trace().into_iter().collect();
        assert_eq!(t.len(), 5);
        let mut t2 = Trace::new();
        t2.extend(t.iter().copied());
        assert_eq!(t2, t);
    }

    #[test]
    fn iterate_by_reference() {
        let t = sample_trace();
        let n = (&t).into_iter().count();
        assert_eq!(n, t.len());
    }
}
