//! Simulated backend-completion queue: the serving analogue of the
//! dataflow model's `overlap_saved_us`.
//!
//! The analytic [`LatencyModel`] charges each miss its full modeled
//! service time — policy-engine inference plus the SSD page access —
//! *inline*, as if the shard worker sat on the backend until the page
//! arrived (the paper's emulator does exactly that, which is why the
//! dataflow timeline in `icgmm-hw` is the same per-request function). A
//! real device front-end does not: it issues the backend access into a
//! bounded completion queue and keeps deciding admissions for later
//! requests while earlier misses are still in flight.
//!
//! [`CompletionQueue`] models exactly that, per shard worker, on a
//! modeled-microsecond timeline that is entirely decoupled from host
//! wall-clock (and therefore deterministic):
//!
//! * every decided request advances the worker's *decision clock* by its
//!   decision cost (DRAM-cache hit service for hits, policy-engine
//!   inference for misses — the decision / backend split is
//!   [`LatencyModel::split`], the function `request_us` recombines);
//! * a miss additionally *issues* a backend operation — SSD read, plus
//!   the dirty-victim write-back when one is evicted — whose completion
//!   lands `backend_us` after the issue point (at the decision's start
//!   when [`LatencyModel::overlap_policy_with_ssd`] holds, after it
//!   otherwise);
//! * at most `depth` backend operations may be in flight (a served
//!   worker's queue is always `COMPLETION_DEPTH` = 8 deep); issuing into a
//!   full queue first **retires the oldest completion in sequence-number
//!   order** (completions re-join the decided stream by `seq`, never out
//!   of order) and stalls the decision clock until that slot frees;
//! * the run's overlapped makespan is the later of the decision clock and
//!   the last in-order retirement.
//!
//! The difference between the inline total — the worker's own
//! `SimReport::total_us`, handed to [`CompletionQueue::finish`] — and the
//! overlapped makespan is the modeled time the completion queue saved —
//! [`OverlapStats::overlap_saved_us`]. At `depth == 1` the queue degenerates to the
//! inline model exactly (a new backend access waits out the previous
//! one), which the unit tests pin down.
//!
//! The model is pure telemetry: it never touches replay decisions, so the
//! served report's semantic half stays bit-identical to the offline
//! replay engines.

use std::collections::VecDeque;

use icgmm_cache::{AccessOutcome, LatencyModel};
use icgmm_trace::Op;
use serde::{Deserialize, Serialize};

/// Overlap telemetry of one serving session (field-wise merge of the
/// per-worker completion queues; supervisor-recovered shards contribute
/// zero).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OverlapStats {
    /// Modeled backend (SSD) operations retired through the completion
    /// queue — one per measured miss, inserted or bypassed.
    pub backend_completions: u64,
    /// High-water mark of in-flight modeled completions (max across
    /// workers; bounded by the fixed completion depth, 8).
    pub backend_inflight_peak: u64,
    /// Modeled time the run would cost charging each miss inline, µs
    /// (summed across workers — per-worker timelines, not wall-clock).
    pub modeled_inline_us: f64,
    /// Modeled makespan with backend completions overlapped, µs (summed
    /// across workers).
    pub modeled_overlapped_us: f64,
    /// `modeled_inline_us - modeled_overlapped_us`: the modeled time the
    /// completion queue saved by overlapping admission decisions with
    /// in-flight backend misses.
    pub overlap_saved_us: f64,
}

impl OverlapStats {
    /// Field-wise accumulation (sums; peak takes the max).
    pub fn merge(&mut self, other: &OverlapStats) {
        self.backend_completions += other.backend_completions;
        self.backend_inflight_peak = self.backend_inflight_peak.max(other.backend_inflight_peak);
        self.modeled_inline_us += other.modeled_inline_us;
        self.modeled_overlapped_us += other.modeled_overlapped_us;
        self.overlap_saved_us += other.overlap_saved_us;
    }
}

/// Depth of every serving worker's [`CompletionQueue`]: modeled SSD
/// accesses in flight before the next decision stalls on the oldest. A
/// constant — only tests ever ran another value; the queue is telemetry.
pub(crate) const COMPLETION_DEPTH: usize = 8;

/// One shard worker's simulated completion queue (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct CompletionQueue {
    depth: usize,
    lat: LatencyModel,
    /// Completion times of in-flight backend operations, in issue (and
    /// hence sequence-number) order.
    inflight: VecDeque<f64>,
    /// The worker's modeled decision clock, µs.
    now_us: f64,
    /// In-sequence-order retirement frontier: a completion retires at
    /// `max(its completion time, every earlier completion's retirement)`.
    retired_us: f64,
    completions: u64,
    peak: usize,
}

impl CompletionQueue {
    pub(crate) fn new(depth: usize, lat: LatencyModel) -> Self {
        assert!(depth >= 1, "completion depth must be >= 1");
        CompletionQueue {
            depth,
            lat,
            inflight: VecDeque::with_capacity(depth),
            now_us: 0.0,
            retired_us: 0.0,
            completions: 0,
            peak: 0,
        }
    }

    /// Feeds one decided request through the model.
    pub(crate) fn on_decided(&mut self, op: Op, outcome: &AccessOutcome) {
        let (decision, backend) = self.lat.split(op, outcome);
        let Some(backend) = backend else {
            // Hits retire synchronously on the decision timeline.
            self.now_us += decision;
            return;
        };
        if self.inflight.len() == self.depth {
            // Queue full: retire the oldest completion in seq order and
            // stall the decision clock until its slot frees.
            let head = self.inflight.pop_front().expect("depth >= 1");
            self.retired_us = self.retired_us.max(head);
            self.now_us = self.now_us.max(self.retired_us);
        }
        // The engine's miss overhead precedes inference and SSD access alike.
        let issue = self.now_us + self.lat.miss_overhead_us;
        self.now_us = issue + decision;
        let engine_done = if self.lat.overlap_policy_with_ssd {
            // Inference runs concurrently with the SSD access; the
            // backend op issues at the decision's start.
            issue
        } else {
            self.now_us
        };
        self.inflight.push_back(engine_done + backend);
        self.peak = self.peak.max(self.inflight.len());
        self.completions += 1;
    }

    /// Drains the queue (in-order retirement of everything still in
    /// flight) and returns the session telemetry. `inline_us` is what the
    /// same requests cost charged inline: the `total_us` of the report
    /// that counted them.
    pub(crate) fn finish(self, inline_us: f64) -> OverlapStats {
        let mut retired = self.retired_us;
        for c in self.inflight {
            retired = retired.max(c);
        }
        let overlapped = self.now_us.max(retired);
        OverlapStats {
            backend_completions: self.completions,
            backend_inflight_peak: self.peak as u64,
            modeled_inline_us: inline_us,
            modeled_overlapped_us: overlapped,
            overlap_saved_us: inline_us - overlapped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_cache::{CacheStats, Eviction};
    use icgmm_trace::PageIndex;

    /// A queue and the counters of what it was fed — as a serving worker
    /// holds them — so `finish` can hand over the inline total.
    struct Fed(CompletionQueue, CacheStats);

    impl Fed {
        fn new(depth: usize, lat: LatencyModel) -> Self {
            Fed(CompletionQueue::new(depth, lat), CacheStats::default())
        }

        fn on_decided(&mut self, op: Op, outcome: &AccessOutcome) {
            self.0.on_decided(op, outcome);
            self.1.record(op, outcome);
        }

        fn finish(self) -> OverlapStats {
            let inline_us = self.0.lat.total_us(&self.1);
            self.0.finish(inline_us)
        }
    }

    fn miss(dirty_victim: Option<bool>) -> AccessOutcome {
        AccessOutcome::MissInserted {
            way: 0,
            evicted: dirty_victim.map(|dirty| Eviction {
                page: PageIndex::new(0),
                dirty,
            }),
        }
    }

    /// Depth 1 degenerates to the inline model on miss streams, under
    /// both overlap settings: a new backend access waits out the
    /// previous one, so consecutive misses never overlap.
    #[test]
    fn depth_one_is_the_inline_model_on_misses() {
        for overlap in [true, false] {
            let lat = LatencyModel {
                overlap_policy_with_ssd: overlap,
                ..LatencyModel::paper_tlc()
            };
            let mut q = Fed::new(1, lat);
            for i in 0..100u64 {
                let outcome = match i % 3 {
                    0 => miss(None),
                    1 => miss(Some(i % 6 == 1)),
                    _ => AccessOutcome::MissBypassed,
                };
                q.on_decided(if i % 2 == 0 { Op::Read } else { Op::Write }, &outcome);
            }
            let stats = q.finish();
            assert_eq!(stats.modeled_inline_us, stats.modeled_overlapped_us);
            assert_eq!(stats.overlap_saved_us, 0.0);
            assert_eq!(stats.backend_inflight_peak, 1);
        }
    }

    /// On a mixed stream even depth 1 legitimately hides hit decisions
    /// under the single in-flight backend op: savings are exactly the
    /// hit time decided while a miss was in flight, bounded by the total
    /// hit time and never negative.
    #[test]
    fn depth_one_mixed_stream_hides_only_hit_time() {
        let lat = LatencyModel::paper_tlc();
        let mut q = Fed::new(1, lat);
        let mut hits = 0u64;
        for i in 0..99u64 {
            if i % 3 == 0 {
                q.on_decided(Op::Read, &miss(None));
            } else {
                hits += 1;
                q.on_decided(Op::Read, &AccessOutcome::Hit { way: 0 });
            }
        }
        let stats = q.finish();
        assert!(stats.overlap_saved_us >= 0.0);
        assert!(stats.overlap_saved_us <= hits as f64 * lat.hit_us);
        // Two hits (2 µs) fit entirely under each 75 µs in-flight read.
        assert_eq!(stats.overlap_saved_us, hits as f64 * lat.hit_us);
    }

    /// A deep queue on an all-miss stream overlaps almost the whole
    /// backend cost: decisions issue every `policy_engine_us` while the
    /// queue holds `depth` reads in flight.
    #[test]
    fn deep_queue_overlaps_the_miss_stream() {
        let lat = LatencyModel::paper_tlc();
        let n = 1000u64;
        let mut q = Fed::new(8, lat);
        for _ in 0..n {
            q.on_decided(Op::Read, &miss(None));
        }
        let stats = q.finish();
        assert_eq!(stats.backend_completions, n);
        assert_eq!(stats.backend_inflight_peak, 8);
        assert_eq!(stats.modeled_inline_us, n as f64 * lat.ssd_read_us);
        // Steady-state issue rate = one retirement per read / depth.
        assert!(stats.overlap_saved_us > 0.8 * stats.modeled_inline_us);
        assert!(stats.overlap_saved_us <= stats.modeled_inline_us);
    }

    /// Hits never enter the completion queue and never create savings.
    #[test]
    fn hit_only_stream_has_no_backend_traffic() {
        let mut q = Fed::new(16, LatencyModel::paper_tlc());
        for _ in 0..50 {
            q.on_decided(Op::Read, &AccessOutcome::Hit { way: 2 });
        }
        let stats = q.finish();
        assert_eq!(stats.backend_completions, 0);
        assert_eq!(stats.backend_inflight_peak, 0);
        assert_eq!(stats.overlap_saved_us, 0.0);
        assert_eq!(stats.modeled_inline_us, 50.0);
    }

    /// The overlapped makespan is never below the critical path (the
    /// serial decision stream) nor above the inline total; completions
    /// retire in sequence order even when a long write-back overtakes a
    /// short read on completion time.
    #[test]
    fn makespan_brackets_and_in_order_retirement() {
        let lat = LatencyModel::paper_tlc();
        let mut q = Fed::new(4, lat);
        // Dirty write-back (975 µs service) followed by short reads: the
        // reads *complete* before the write-back but must retire after it.
        q.on_decided(Op::Read, &miss(Some(true)));
        for _ in 0..3 {
            q.on_decided(Op::Read, &miss(None));
        }
        let stats = q.finish();
        // In-order retirement: the frontier is the write-back's completion
        // (3 µs of decisions never beat 975 µs of backend).
        assert_eq!(
            stats.modeled_overlapped_us,
            lat.ssd_write_us + lat.ssd_read_us
        );
        assert!(stats.overlap_saved_us >= 0.0);
        assert!(stats.modeled_overlapped_us <= stats.modeled_inline_us);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = OverlapStats {
            backend_completions: 3,
            backend_inflight_peak: 2,
            modeled_inline_us: 100.0,
            modeled_overlapped_us: 60.0,
            overlap_saved_us: 40.0,
        };
        let b = OverlapStats {
            backend_completions: 5,
            backend_inflight_peak: 7,
            modeled_inline_us: 10.0,
            modeled_overlapped_us: 10.0,
            overlap_saved_us: 0.0,
        };
        a.merge(&b);
        assert_eq!(a.backend_completions, 8);
        assert_eq!(a.backend_inflight_peak, 7);
        assert_eq!(a.modeled_inline_us, 110.0);
        assert_eq!(a.modeled_overlapped_us, 70.0);
        assert_eq!(a.overlap_saved_us, 40.0);
    }
}
