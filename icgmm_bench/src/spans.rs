//! In-memory span recorder for the traced run.
//!
//! The harness opens one span around every call it makes into a layer
//! (`workload → phase → rep → probe`), attaches the counts the call
//! returned, and writes everything out once at exit. Spans are recorded
//! from the benchmark's own code, *around* the calls; spans inside the
//! program are a later issue.

use crate::json::Json;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub name: String,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts returned at this boundary (`SpecStats`, `CacheStats`, …).
    pub counts: Vec<(String, f64)>,
}

/// Records spans while enabled; a disabled recorder keeps nothing.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &str, round: u32) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.to_string(),
            round,
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn count(&mut self, id: Option<SpanId>, key: &str, value: f64) {
        if let Some(id) = id {
            self.spans[id].counts.push((key.to_string(), value));
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The span file: one object per span, self time included.
    pub fn to_json(&self, workload: &str) -> Json {
        let selfs = self_times_ns(&self.spans);
        Json::obj([
            ("workload", Json::str(workload)),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .zip(selfs)
                        .enumerate()
                        .map(|(id, (s, self_ns))| {
                            Json::obj([
                                ("id", Json::Num(id as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                                ),
                                ("name", Json::str(&*s.name)),
                                ("workload", Json::str(workload)),
                                ("round", Json::Num(f64::from(s.round))),
                                ("start_ns", Json::Num(s.start_ns as f64)),
                                ("end_ns", Json::Num(s.end_ns as f64)),
                                ("self_ns", Json::Num(self_ns as f64)),
                                (
                                    "counts",
                                    Json::obj(
                                        s.counts.iter().map(|(k, v)| (k.as_str(), Json::Num(*v))),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children (work on parallel threads) are counted once, so
/// the result is never negative.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.end_ns.saturating_sub(s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name: "s".into(),
            round: 0,
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn nested_children_subtract_only_from_their_parent() {
        // 0: [0,100) ⊃ 1: [10,60) ⊃ 2: [20,30)
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), [50, 40, 10]);
    }

    #[test]
    fn adjacent_children_sum() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 0, 40),
            span(Some(0), 40, 100),
        ];
        assert_eq!(self_times_ns(&spans), [0, 40, 60]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // [10,50) ∪ [30,70) ∪ [35,40) covers 60 of the parent's 100.
        let spans = [
            span(None, 0, 100),
            span(Some(0), 30, 70),
            span(Some(0), 10, 50),
            span(Some(0), 35, 40),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn children_outside_the_parent_never_make_self_time_negative() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 50, 150),
            span(Some(0), 180, 400),
            span(Some(0), 500, 600),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
        let inverted = [span(None, 10, 5)];
        assert_eq!(self_times_ns(&inverted), [0]);
    }

    #[test]
    fn recorder_nests_spans_and_attaches_counts() {
        let mut rec = Recorder::new(true);
        let outer = rec.open("phase", 1);
        let inner = rec.open("rep", 1);
        rec.count(inner, "scores", 7.0);
        rec.close(inner);
        rec.close(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].counts, [("scores".to_string(), 7.0)]);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = rec.to_json("w");
        let first = &json.get("spans").unwrap().as_array().unwrap()[1];
        assert_eq!(first.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            first.get("counts").unwrap().get("scores").unwrap().as_f64(),
            Some(7.0)
        );
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.open("phase", 0);
        rec.count(id, "k", 1.0);
        rec.close(id);
        assert!(id.is_none() && rec.spans().is_empty());
    }
}
