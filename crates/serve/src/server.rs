//! The concurrent cache service: clients → bounded per-shard ingestion
//! queues → shard workers, each running the offline shard replay over what
//! its queue delivers → the shards' counters added up at join.
//!
//! # Why the served report is the offline one
//!
//! A worker runs no loop of its own: it hands [`ShardSupervisor::replay`]
//! — the function behind every offline shard — a record walk that pulls
//! batches of positions off its queue ([`Arrivals`]) instead of walking
//! the caller's slice itself. Two arguments then carry the rest:
//!
//! 1. **Set partitioning** ([`icgmm_cache::ShardedSimulator`]'s argument):
//!    a shard worker sees exactly the requests whose sets it owns, in trace
//!    order, so every outcome equals the single-threaded replay's at the
//!    same global position — regardless of *when* each request arrives.
//! 2. **Accounting is a sum**: a report is integer counters with modeled
//!    time derived from them once, so the session's report is the workers'
//!    reports added up by [`ShardSupervisor::merge`] — the function behind
//!    the offline sharded replay — in whatever order requests were decided.
//!
//! Concurrency therefore only decides *timing* (throughput, admission
//! latency) — never *results*. This module owns transport and timing; the
//! life of a shard (policy, replay, armed panic point,
//! recovery, the sum) is [`ShardSupervisor`]'s.
//!
//! What a sum cannot see is a record that never reached its shard, or
//! reached the wrong one. So workers check every arrival against the next
//! position of their own shard's offline walk ([`transport_violation`])
//! and the sum checks conservation of the access count. Either failing is
//! a bug in this module and panics the session; it is *not* handed to the
//! supervisor's recovery, whose re-replay would hide it.
//!
//! # Deadlock freedom
//!
//! A worker blocks only on its own empty ingestion queue; a client only on
//! the full queue of a worker, which — blocked on nothing else — drains
//! it; the calling thread only on joins.

use std::any::Any;
use std::thread::{self, ScopedJoinHandle};
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver, Sender};

/// Transport batching factor: up to this many records ride one channel
/// message, amortising the hand-off's lock round-trip (per-record messages
/// cost 1.3–2.1× the session time on `serving`, ISSUE 17). `queue_depth`
/// keeps its meaning in records: the batch size is
/// `min(SUBMIT_BATCH, queue_depth)` and the slot count `queue_depth /
/// batch` (`queue_depth: 1` degenerates to per-record hand-off, which the
/// backpressure tests rely on).
const SUBMIT_BATCH: usize = 64;

use icgmm_cache::{
    CacheConfig, FaultStats, LatencyModel, ShardCtx, ShardPartition, ShardPolicies, ShardRunError,
    ShardSupervisor, SimReport,
};
use icgmm_trace::TraceRecord;
use serde::{Deserialize, Serialize};

use crate::config::{ServeConfig, ServeError};
use crate::hist::LatencyHistogram;
use crate::overlap::OverlapStats;

/// One channel message: a client's open batch for one shard — the global
/// trace positions of its requests; the worker reads each record out of
/// the caller's slice.
struct Batch {
    /// When the batch left its client's buffer, *before* any full-queue
    /// wait: buffer dwell is a batching artifact and excluded from the
    /// admission latency, backpressure is real queueing and included.
    t_submit: Instant,
    positions: Vec<u64>,
}

/// The serving front-end. Construction validates the configuration;
/// [`CacheServer::serve`] runs one serving session to completion.
#[derive(Clone, Debug)]
pub struct CacheServer {
    cfg: ServeConfig,
}

/// Result of one serving session.
///
/// The semantic half (`sim`, `scores_consumed`) is bit-identical to the
/// offline [`icgmm_cache::ShardedSimulator::run`] of the same inputs; the
/// timing half describes this particular serving run and is intentionally
/// excluded from equality comparisons.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeReport {
    /// The session's simulation report — equal to the offline replay's.
    pub sim: SimReport,
    /// Replay events that consumed a score — equal to the offline
    /// replay's count.
    pub scores_consumed: u64,
    /// Requests served (warm-up + measured).
    pub requests: u64,
    /// Benchmark façade — read by `icgmm_bench` (`serve.sheds`); deleted
    /// by the benchmark PR. A client blocks on a full queue and never
    /// sheds: always 0.
    #[doc(hidden)]
    pub sheds: u64,
    /// Shard workers this run used.
    pub shards: usize,
    /// Client threads this run used (after capping to the shard count).
    pub clients: usize,
    /// Wall-clock time from the first submission to the last worker
    /// joined (a dead worker's re-replay included), µs.
    pub wall_us: f64,
    /// Sustained throughput at saturation: `requests / wall`.
    pub requests_per_sec: f64,
    /// Median admission-decision latency over the measured phase, µs:
    /// submit (the batch leaves its client's buffer) → decided (one clock
    /// read once the worker has decided the whole batch). Queueing delay
    /// included — backpressure is part of the number.
    pub admission_p50_us: f64,
    /// 99th-percentile admission-decision latency, µs (log-bucketed
    /// upper bound: never under-states the tail).
    pub admission_p99_us: f64,
    /// Benchmark façade — read by `icgmm_bench` (`serve.overlap_saved_us`);
    /// deleted by the benchmark PR. One request is in flight per shard, so
    /// nothing overlaps: always 0.
    #[doc(hidden)]
    pub overlap: OverlapStats,
}

impl CacheServer {
    /// Creates a server over a validated configuration.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for zero shard/client/queue geometry or an
    /// inconsistent fault plan.
    pub fn new(cfg: ServeConfig) -> Result<Self, ServeError> {
        cfg.validate()?;
        Ok(CacheServer { cfg })
    }

    /// The configuration this server runs.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Serves `records` (warm-up ⧺ measured, measured from position
    /// `measured_from` on) to completion and returns the session's
    /// report. `make_shard` is called once per shard *on that
    /// shard's worker thread* (hence `Fn + Sync`), exactly as in
    /// [`icgmm_cache::ShardedSimulator::run`] — through the same
    /// [`ShardSupervisor`], so the shard policy, the replay itself, the
    /// recovery of a dead worker (its whole shard re-replayed offline,
    /// replacing what it had counted) and the sum of the workers' reports
    /// are the offline ones.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shard`] with the offline engine's own
    /// [`ShardRunError`]: `Config` for invalid cache geometry,
    /// `ZeroSeriesWindow` for `series_window = Some(0)`,
    /// `MeasuredPastEnd` for `measured_from > records.len()`, `ShardFailed`
    /// when a worker dies and the supervisor's offline re-replay of its
    /// subtrace dies too.
    ///
    /// # Panics
    ///
    /// Panics when the transport loses, duplicates, reorders or misroutes
    /// a record (see the module docs) — a service bug, not an input error.
    pub fn serve(
        &self,
        records: &[TraceRecord],
        measured_from: usize,
        cache_cfg: CacheConfig,
        make_shard: &(dyn Fn(&ShardCtx<'_>) -> ShardPolicies + Sync),
        latency: &LatencyModel,
        series_window: Option<u64>,
    ) -> Result<ServeReport, ServeError> {
        let s = self.cfg.shards;
        let clients = self.cfg.clients.min(s);

        // Zero-copy fan-out — the supervisor builds the routing rule the
        // offline sharded replay walks by (refusing bad geometry and a
        // zero shard count): clients route the caller's slice by it,
        // workers check what they receive against their shard's own walk.
        // The shard lifecycle is the offline engine's too; the supervisor
        // refuses a zero series window and a boundary past the end here,
        // before any thread exists.
        let sup = &ShardSupervisor::new(
            cache_cfg,
            latency,
            make_shard,
            self.cfg.fault,
            s,
            records,
            measured_from,
            series_window,
        )?;
        let part = sup.partition();

        // One bounded ingestion queue per shard; `slots × batch ≤
        // queue_depth` keeps the bound counted in records. Each half has
        // exactly one owner, so disconnection signals "peer done/dead".
        let depth = self.cfg.queue_depth;
        let batch = depth.clamp(1, SUBMIT_BATCH);
        let slots = (depth / batch).max(1);
        let mut ingest_rx: Vec<Receiver<Batch>> = Vec::with_capacity(s);
        // Client `c` owns — submits for — the shards congruent to `c`,
        // shard `c + k · clients` in its slot `k`.
        let mut client_senders: Vec<Vec<Sender<Batch>>> =
            (0..clients).map(|_| Vec::new()).collect();
        for shard in 0..s {
            let (tx, rx) = bounded::<Batch>(slots);
            client_senders[shard % clients].push(tx);
            ingest_rx.push(rx);
        }

        let mut hist = LatencyHistogram::new();
        // The supervisor's own panic / recovery counts.
        let mut fault = FaultStats::default();

        let start = Instant::now();
        let served = thread::scope(|scope| {
            let workers: Vec<ScopedJoinHandle<'_, _>> = ingest_rx
                .into_iter()
                .enumerate()
                .map(|(shard, rx)| {
                    scope.spawn(move || {
                        // The offline shard replay, fed from the queue:
                        // the policy is built here, in parallel across
                        // shards.
                        let mut hist = LatencyHistogram::new();
                        let walk = sup.ctx(shard).walk();
                        let arrivals = Arrivals::new(rx, walk, measured_from, &mut hist);
                        let done = sup.replay(shard, arrivals);
                        (done, hist)
                    })
                })
                .collect();
            let client_handles: Vec<_> = client_senders
                .into_iter()
                .enumerate()
                .map(|(client, owned)| {
                    scope.spawn(move || run_client(part, records, (client, clients), owned, batch))
                })
                .collect();

            // The calling thread only joins — every handle, even once the
            // session has failed: the scope must not exit with an unjoined
            // panicked thread.
            for h in client_handles {
                h.join().expect("clients never panic");
            }
            let mut shards = Vec::with_capacity(s);
            let mut failed = None;
            for (shard, worker) in workers.into_iter().enumerate() {
                let joined = worker.join();
                if failed.is_some() {
                    // The session already failed: joined, nothing recovered.
                    continue;
                }
                let done = match joined {
                    Ok((done, worker_hist)) => {
                        hist.merge(&worker_hist);
                        Ok(done)
                    }
                    Err(payload) => recover(sup, shard, payload, &mut fault),
                };
                match done {
                    Ok(done) => shards.push(done),
                    Err(e) => failed = Some(e),
                }
            }
            match failed {
                Some(e) => Err(e),
                None => Ok((shards, start.elapsed())),
            }
        });
        let (shards, wall) = served?;
        // Σ shard accesses = measured records, or this panics.
        let merged = sup.merge(shards, fault);

        let wall_us = wall.as_secs_f64() * 1e6;
        let n = records.len();
        let requests_per_sec = if wall_us > 0.0 {
            n as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        Ok(ServeReport {
            sim: merged.sim,
            scores_consumed: merged.scores_consumed,
            requests: n as u64,
            sheds: 0,
            shards: s,
            clients,
            wall_us,
            requests_per_sec,
            admission_p50_us: hist.quantile_us(0.50),
            admission_p99_us: hist.quantile_us(0.99),
            overlap: OverlapStats::default(),
        })
    }
}

/// Panic payload of a worker that caught the transport breaking its
/// contract: re-raised on the calling thread instead of being recovered.
#[derive(Debug, PartialEq, Eq)]
struct TransportViolation(String);

/// The transport contract, checked where records arrive: the `seen`-th
/// record a shard's worker receives must carry the position of the
/// `seen`-th record of the shard's own walk (`want`), and the stream must
/// end (`got = None`) exactly when the walk does. Loss, duplication,
/// reordering and misrouting all show up as `got` differing from the one
/// position it can be.
fn transport_violation(
    seen: usize,
    got: Option<u64>,
    want: Option<u64>,
) -> Option<TransportViolation> {
    (got != want).then(|| {
        TransportViolation(format!(
            "record {seen} arrived as position {got:?}, expected {want:?}"
        ))
    })
}

/// A dead worker's join payload: a [`TransportViolation`] is a bug to
/// re-raise on the calling thread; any other death is the supervisor's to
/// recover, exactly as offline — the re-replay's counters stand in for
/// whatever the worker had counted (that, and its timing telemetry, died
/// with it).
fn recover(
    sup: &ShardSupervisor<'_>,
    shard: usize,
    payload: Box<dyn Any + Send>,
    fault: &mut FaultStats,
) -> Result<(SimReport, u64), ShardRunError> {
    match payload.downcast::<TransportViolation>() {
        Ok(bug) => panic!("serve transport bug on shard {shard}: {}", bug.0),
        Err(payload) => sup.recover(shard, payload, fault),
    }
}

/// One client thread: submit the owned shards' requests in ascending
/// global order, with one open transport batch *per owned shard* — on
/// interleaved traffic every shard still fills ≤[`SUBMIT_BATCH`]-record
/// batches instead of degenerating to run-length-1 sends.
///
/// The client copies no records: it walks the caller's slice once, routes
/// each record by `part` and buffers the positions of the shards it owns
/// (client `client` of `clients` owns shard `client + k · clients` in
/// `owned[k]`); the worker takes each record from its shard's own walk
/// over the same slice. A batch ships when it fills, the leftovers at the
/// end, in any order: nothing downstream waits for one shard's records
/// before another's.
fn run_client(
    part: ShardPartition,
    records: &[TraceRecord],
    (client, clients): (usize, usize),
    owned: Vec<Sender<Batch>>,
    batch: usize,
) {
    // One open batch per owned shard.
    let mut bufs: Vec<Vec<u64>> = owned.iter().map(|_| Vec::with_capacity(batch)).collect();
    // Stamp, then a blocking send — safe because the worker on the other
    // end blocks on nothing but this queue. A send to a dead shard errors
    // out and is ignored: the supervisor's re-replay covers its records.
    let flush = |slot: usize, positions: Vec<u64>| {
        let _ = owned[slot].send(Batch {
            t_submit: Instant::now(),
            positions,
        });
    };
    for (pos, r) in (0u64..).zip(records) {
        let shard = part.shard_of(r.page());
        if shard % clients != client {
            continue;
        }
        let slot = shard / clients;
        bufs[slot].push(pos);
        if bufs[slot].len() >= batch {
            let full = std::mem::replace(&mut bufs[slot], Vec::with_capacity(batch));
            flush(slot, full);
        }
    }
    for (slot, rest) in bufs.into_iter().enumerate() {
        if !rest.is_empty() {
            flush(slot, rest);
        }
    }
}

/// A shard worker's record walk — what it hands the offline replay
/// ([`ShardSupervisor::replay`]) in place of the shard's own walk: the
/// batches its ingestion queue delivers, each position checked as it
/// arrives against the next record of `walk` (the shard's
/// [`ShardCtx::walk`]) and yielded with that record. The walk ends when
/// the shard's client hangs up, and the stream must end exactly where
/// `walk` does.
///
/// Admission latency, submit → decided: the replay asks for a record only
/// after it has decided and counted the one before, so when a batch is
/// used up all of it is decided, and one clock read — before the next
/// `recv` — stamps its measured records, rounding each up to the last
/// decision, never down.
struct Arrivals<'a, W> {
    rx: Receiver<Batch>,
    walk: W,
    measured_from: u64,
    hist: &'a mut LatencyHistogram,
    batch: std::vec::IntoIter<u64>,
    t_submit: Instant,
    /// Records yielded so far.
    seen: usize,
    /// Measured records of the current batch, not yet stamped.
    measured: u64,
}

impl<'a, 'r, W: Iterator<Item = (u64, &'r TraceRecord)>> Arrivals<'a, W> {
    fn new(
        rx: Receiver<Batch>,
        walk: W,
        measured_from: usize,
        hist: &'a mut LatencyHistogram,
    ) -> Self {
        Arrivals {
            rx,
            walk,
            measured_from: measured_from as u64,
            hist,
            batch: Vec::new().into_iter(),
            t_submit: Instant::now(),
            seen: 0,
            measured: 0,
        }
    }

    /// The next record of the shard's walk, which the next arrival `got`
    /// (`None`: the end of the stream) must carry the position of — or a
    /// panic with a [`TransportViolation`].
    #[inline]
    fn expect(&mut self, got: Option<u64>) -> Option<(u64, &'r TraceRecord)> {
        let want = self.walk.next();
        if let Some(violation) = transport_violation(self.seen, got, want.map(|(pos, _)| pos)) {
            std::panic::panic_any(violation);
        }
        want
    }

    /// The current batch is used up: stamps its measured records, then
    /// waits for the next batch — `false` once the client has hung up.
    #[cold]
    fn refill(&mut self) -> bool {
        let measured = std::mem::take(&mut self.measured);
        if measured > 0 {
            let ns = self.t_submit.elapsed().as_nanos() as u64;
            self.hist.record_ns_n(ns, measured);
        }
        let Ok(Batch {
            t_submit,
            positions,
        }) = self.rx.recv()
        else {
            self.expect(None);
            return false;
        };
        self.t_submit = t_submit;
        self.batch = positions.into_iter();
        true
    }
}

impl<'r, W: Iterator<Item = (u64, &'r TraceRecord)>> Iterator for Arrivals<'_, W> {
    type Item = (u64, &'r TraceRecord);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(pos) = self.batch.next() {
                let arrived = self.expect(Some(pos));
                self.seen += 1;
                self.measured += u64::from(pos >= self.measured_from);
                return arrived;
            }
            if !self.refill() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A zero miss-series window is refused as the caller's bad argument,
    /// naming it, before any worker exists to trip over it.
    #[test]
    fn zero_series_window_is_a_typed_error_not_a_failed_shard() {
        let cfg = CacheConfig {
            capacity_bytes: 16 * 4096,
            block_bytes: 4096,
            ways: 2,
        };
        let make = |_: &ShardCtx<'_>| -> ShardPolicies {
            panic!("no shard may be built for a refused run")
        };
        let trace = [TraceRecord::read(0), TraceRecord::read(1 << 12)];
        for shards in [1usize, 2] {
            let server = CacheServer::new(ServeConfig {
                shards,
                ..ServeConfig::default()
            })
            .unwrap();
            let lat = LatencyModel::paper_tlc();
            let err = server.serve(&trace, 0, cfg, &make, &lat, Some(0)).err();
            assert_eq!(
                err,
                Some(ServeError::Shard(ShardRunError::ZeroSeriesWindow))
            );
            assert!(err.unwrap().to_string().contains("series_window"));
        }
    }

    /// Eight sets, two shards: shard 1 owns the odd sets.
    const CFG: CacheConfig = CacheConfig {
        capacity_bytes: 16 * 4096,
        block_bytes: 4096,
        ways: 2,
    };

    /// Sixteen records of which shard 1 owns exactly the positions
    /// `owned`: page 1 (set 1) there, page 0 (set 0) everywhere else.
    fn trace_owning(owned: &[u64]) -> Vec<TraceRecord> {
        (0..16u64)
            .map(|pos| TraceRecord::read(u64::from(owned.contains(&pos)) << 12))
            .collect()
    }

    /// A two-shard supervisor over `trace`, whose shard walks the
    /// transport is checked against.
    fn supervisor<'a>(
        trace: &'a [TraceRecord],
        make: &'a (dyn Fn(&ShardCtx<'_>) -> ShardPolicies + Sync),
    ) -> ShardSupervisor<'a> {
        let (lat, plan) = (LatencyModel::paper_tlc(), icgmm_cache::FaultPlan::empty());
        ShardSupervisor::new(CFG, &lat, make, plan, 2, trace, 0, None).unwrap()
    }

    /// Never called: the tests below only walk shards.
    fn no_shard(_: &ShardCtx<'_>) -> ShardPolicies {
        panic!("the supervisor must not be asked to build a shard")
    }

    /// A queue of `batches`, hung up once they are received.
    fn fed(batches: &[&[u64]]) -> Receiver<Batch> {
        let (tx, rx) = bounded(batches.len().max(1));
        for positions in batches {
            let t_submit = Instant::now();
            let positions = positions.to_vec();
            tx.send(Batch {
                t_submit,
                positions,
            })
            .unwrap();
        }
        rx
    }

    /// The transport check on a shard whose walk is positions 3, 4, 9,
    /// 12: the in-order stream passes; a hole, a duplicate, a swap, a
    /// foreign shard's record, an over-long and a short stream each fail
    /// at the first arrival that is not the one position it can be.
    #[test]
    fn transport_check_catches_loss_duplication_reordering_and_misrouting() {
        let trace = trace_owning(&[3, 4, 9, 12]);
        let sup = supervisor(&trace, &no_shard);
        // First violating arrival index of a whole stream, if any: how many
        // records the worker's walk yielded before it died.
        let first_violation = |sup: &ShardSupervisor<'_>, stream: &[u64]| {
            let mut hist = LatencyHistogram::new();
            let mut yielded = 0;
            let arrivals = Arrivals::new(fed(&[stream]), sup.ctx(1).walk(), 0, &mut hist);
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                arrivals.for_each(|_| yielded += 1)
            }));
            died.err().map(|payload| {
                assert!(payload.downcast::<TransportViolation>().is_ok());
                yielded
            })
        };
        assert_eq!(first_violation(&sup, &[3, 4, 9, 12]), None);
        assert_eq!(first_violation(&sup, &[3, 9, 12]), Some(1), "hole: 4 lost");
        assert_eq!(
            first_violation(&sup, &[3, 4, 4, 9, 12]),
            Some(2),
            "duplicate"
        );
        assert_eq!(first_violation(&sup, &[3, 9, 4, 12]), Some(1), "swap");
        assert_eq!(
            first_violation(&sup, &[3, 4, 5, 9, 12]),
            Some(2),
            "foreign shard's 5"
        );
        assert_eq!(
            first_violation(&sup, &[3, 4, 9, 12, 13]),
            Some(4),
            "one too many"
        );
        assert_eq!(first_violation(&sup, &[3, 4, 9]), Some(3), "tail lost");
        assert_eq!(first_violation(&sup, &[]), Some(0), "nothing arrived");
        let empty = trace_owning(&[]);
        assert_eq!(
            first_violation(&supervisor(&empty, &no_shard), &[]),
            None,
            "an empty shard"
        );
        let v = transport_violation(1, Some(9), Some(4)).expect("a hole");
        assert!(
            v.0.contains("Some(9)") && v.0.contains("Some(4)"),
            "{}",
            v.0
        );
    }

    /// A worker's walk over three batches — all warm-up, straddling the
    /// boundary at 6, all measured — yields exactly its shard's walk, each
    /// position with its record from the caller's slice, and stamps the
    /// four measured ones; a hole panics with the transport payload.
    #[test]
    fn arrivals_walk_the_owned_positions_and_stamp_the_measured_ones() {
        let owned = [1u64, 2, 4, 5, 7, 8, 11, 12];
        let records = trace_owning(&owned);
        let sup = supervisor(&records, &no_shard);
        let rx = fed(&[&[1, 2, 4], &[5, 7, 8], &[11, 12]]);
        let mut hist = LatencyHistogram::new();
        let walked: Vec<_> = Arrivals::new(rx, sup.ctx(1).walk(), 6, &mut hist).collect();
        let want: Vec<_> = owned
            .iter()
            .map(|&pos| (pos, &records[pos as usize]))
            .collect();
        assert_eq!(walked, want);
        assert_eq!(hist.samples(), 4);

        let mut hist = LatencyHistogram::new();
        let rx = fed(&[&[1, 4]]);
        let walk = Arrivals::new(rx, sup.ctx(1).walk(), 6, &mut hist);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| walk.count()));
        let payload = died.expect_err("a hole: 2 lost");
        assert!(payload.downcast::<TransportViolation>().is_ok());
    }

    /// A violation is a service bug: it fails the session on the calling
    /// thread and never reaches the supervisor's recovery.
    #[test]
    #[should_panic(expected = "serve transport bug on shard 1")]
    fn a_transport_violation_is_not_recovered() {
        let trace = trace_owning(&[1]);
        let sup = supervisor(&trace, &no_shard);
        let want = sup.ctx(1).walk().next().map(|(pos, _)| pos);
        let payload = transport_violation(0, None, want).expect("short stream");
        let _ = recover(&sup, 1, Box::new(payload), &mut FaultStats::default());
    }
}
