//! The concurrent cache service: clients → bounded per-shard ingestion
//! queues → shard workers deciding, and counting, per request → the
//! shards' counters added up at join.
//!
//! # Why the served report is the offline one
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
//! latency) — never *results*. This module owns transport, the
//! live worker loop and timing; the life of a shard around them (policies,
//! contract, armed panic point, recovery, the sum) is [`ShardSupervisor`]'s.
//!
//! What a sum cannot see is a record that never reached its shard, or
//! reached the wrong one. So workers check every arrival against their own
//! position list ([`transport_violation`]) and the sum checks conservation
//! of the access count. Either failing is a bug in this module and panics
//! the session; it is *not* handed to the supervisor's recovery, whose
//! re-replay would hide it.
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
    streaming_step, Accounting, CacheConfig, FaultStats, LatencyModel, ScoreSource, SetAssocCache,
    ShardCtx, ShardPartition, ShardPolicies, ShardRunError, ShardSupervisor, SimReport,
};
use icgmm_trace::TraceRecord;
use serde::{Deserialize, Serialize};

use crate::config::{ServeConfig, ServeError};
use crate::hist::LatencyHistogram;
use crate::overlap::{CompletionQueue, OverlapStats, COMPLETION_DEPTH};

/// One request in flight from a client to its shard worker.
#[derive(Clone, Copy)]
struct IngestMsg {
    /// Global trace position (warm-up + measured, 0-based).
    seq: u64,
    record: TraceRecord,
}

/// One channel message: a client's open batch for one shard.
struct Batch {
    /// When the batch left its client's buffer, *before* any full-queue
    /// wait: buffer dwell is a batching artifact and excluded from the
    /// admission latency, backpressure is real queueing and included.
    t_submit: Instant,
    msgs: Vec<IngestMsg>,
}

/// What a shard worker hands back at join time.
struct WorkerDone {
    /// What the shard counted (`fault` / `adapt`: what its score stack did,
    /// read after its last record).
    report: SimReport,
    scored: u64,
    hist: LatencyHistogram,
    overlap: OverlapStats,
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
    /// Simulated backend-completion telemetry: modeled SSD accesses
    /// retired through each worker's bounded completion queue and the
    /// modeled time saved by overlapping admission decisions with
    /// in-flight misses (see [`OverlapStats`]). Telemetry only — `sim`
    /// never depends on it.
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
    /// [`ShardSupervisor`], so the shard contracts, the recovery of a dead
    /// worker (its whole shard re-replayed offline, replacing what it had
    /// counted) and the sum of the workers' reports are the offline ones.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shard`] with the offline engine's own
    /// [`ShardRunError`]: `Config` for invalid cache geometry,
    /// `TraceTooLong`, `ZeroSeriesWindow` for `series_window = Some(0)`,
    /// `MeasuredPastEnd` for `measured_from > records.len()`, `Contract`
    /// when running more than one shard with a non-shard-deterministic
    /// eviction policy or a non-shardable score source, `ShardFailed` when
    /// a worker dies and the supervisor's offline re-replay of its subtrace
    /// dies too.
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

        // Zero-copy fan-out — the identical [`ShardPartition`] the offline
        // sharded replay builds (it validates the geometry): clients walk
        // its position lists, workers check what they receive against
        // their own. The shard lifecycle is the offline engine's too; the
        // supervisor refuses a zero series window and a boundary past the
        // end here, before any thread exists.
        let part = &ShardPartition::build(s, &cache_cfg, &[], records)?;
        let sup = &ShardSupervisor::new(
            cache_cfg,
            latency,
            make_shard,
            self.cfg.fault,
            Some(part),
            records,
            measured_from,
            series_window,
        )?;

        // One bounded ingestion queue per shard; `slots × batch ≤
        // queue_depth` keeps the bound counted in records. Each half has
        // exactly one owner, so disconnection signals "peer done/dead".
        let depth = self.cfg.queue_depth;
        let batch = depth.clamp(1, SUBMIT_BATCH);
        let slots = (depth / batch).max(1);
        let mut ingest_rx: Vec<Receiver<Batch>> = Vec::with_capacity(s);
        // Client `c` owns — submits for — the shards congruent to `c`.
        let mut client_senders: Vec<Vec<(usize, Sender<Batch>)>> =
            (0..clients).map(|_| Vec::new()).collect();
        for shard in 0..s {
            let (tx, rx) = bounded::<Batch>(slots);
            client_senders[shard % clients].push((shard, tx));
            ingest_rx.push(rx);
        }

        let mut hist = LatencyHistogram::new();
        let mut overlap = OverlapStats::default();
        // The supervisor's own panic / recovery counts.
        let mut fault = FaultStats::default();

        let start = Instant::now();
        let served = thread::scope(|scope| {
            let workers: Vec<ScopedJoinHandle<'_, _>> = ingest_rx
                .into_iter()
                .enumerate()
                .map(|(shard, rx)| {
                    scope.spawn(move || {
                        // Policies are built here, in parallel across
                        // shards. A refused worker returns before touching
                        // its queue; the dropped receiver turns its
                        // client's sends into no-ops, and the join below
                        // fails the session.
                        let pol = sup.policies(shard)?;
                        Ok(run_worker(
                            rx,
                            part.positions(shard),
                            pol,
                            cache_cfg,
                            *latency,
                            sup.accounting(),
                            sup.panic_point(shard),
                        ))
                    })
                })
                .collect();
            let client_handles: Vec<_> = client_senders
                .into_iter()
                .map(|owned| scope.spawn(move || run_client(part, records, owned, batch)))
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
                    Ok(Ok(done)) => {
                        hist.merge(&done.hist);
                        overlap.merge(&done.overlap);
                        Ok((done.report, done.scored))
                    }
                    Ok(Err(refused)) => Err(refused),
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
            overlap,
        })
    }
}

/// Panic payload of a worker that caught the transport breaking its
/// contract: re-raised on the calling thread instead of being recovered.
#[derive(Debug, PartialEq, Eq)]
struct TransportViolation(String);

/// The transport contract, checked where records arrive: the `seen`-th
/// record a shard's worker receives must carry the `seen`-th global
/// position the partition routed to that shard (`owned`), and the stream
/// must end (`got = None`) exactly when the list does. Loss, duplication,
/// reordering and misrouting all show up as `got` differing from the one
/// position it can be.
fn transport_violation(owned: &[u32], seen: usize, got: Option<u64>) -> Option<TransportViolation> {
    let want = owned.get(seen).map(|&pos| u64::from(pos));
    (got != want).then(|| {
        TransportViolation(format!(
            "record {seen} of {} arrived as position {got:?}, expected {want:?}",
            owned.len()
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
/// The client owns no routed copy of the trace: it walks its owned
/// shards' [`ShardPartition`] index lists directly (a k-way merge over
/// ascending lists reproduces ascending global order), reads each record
/// out of the caller's slice and stamps it with its global position. A
/// batch ships when it fills, the leftovers at the end, in any order:
/// nothing downstream waits for one shard's records before another's.
fn run_client(
    part: &ShardPartition,
    records: &[TraceRecord],
    owned: Vec<(usize, Sender<Batch>)>,
    batch: usize,
) {
    let mut cursors = vec![0usize; owned.len()];
    // One open batch per owned shard.
    let mut bufs: Vec<Vec<IngestMsg>> = owned.iter().map(|_| Vec::new()).collect();
    // Stamp, then a blocking send — safe because the worker on the other
    // end blocks on nothing but this queue. A send to a dead shard errors
    // out and is ignored: the supervisor's re-replay covers its records.
    let flush = |slot: usize, msgs: Vec<IngestMsg>| {
        let t_submit = Instant::now();
        let _ = owned[slot].1.send(Batch { t_submit, msgs });
    };
    loop {
        // Pick the owned shard whose next index entry is the smallest
        // global position — the k-way merge step (k = owned shards,
        // typically shards / clients).
        let mut next: Option<(usize, u32)> = None;
        for (slot, (shard, _)) in owned.iter().enumerate() {
            if let Some(&pos) = part.positions(*shard).get(cursors[slot]) {
                if next.is_none_or(|(_, best)| pos < best) {
                    next = Some((slot, pos));
                }
            }
        }
        let Some((slot, pos)) = next else { break };
        cursors[slot] += 1;
        bufs[slot].push(IngestMsg {
            seq: u64::from(pos),
            record: records[pos as usize],
        });
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

/// One shard worker: drain the ingestion queue, check each arrival against
/// `owned` (the shard's position list), decide it with the canonical
/// [`streaming_step`], count it through the offline replay's own
/// [`Accounting`] (the supervisor's). The shard-local sequence clock (`seen`) runs
/// continuously, so recency stamps and Belady positions match the offline
/// replay. Per record, in that replay's order: the scorer observes and the
/// cache decides, the armed panic point fires (everything counted so far
/// dies with the worker — the supervisor re-replays the whole shard), and
/// only then is the record accounted — and, if measured, handed to the
/// completion model.
fn run_worker(
    rx: Receiver<Batch>,
    owned: &[u32],
    mut pol: ShardPolicies,
    cache_cfg: CacheConfig,
    latency: LatencyModel,
    mut acct: Accounting<'_>,
    panic_at: Option<u64>,
) -> WorkerDone {
    let mut cache = SetAssocCache::new(cache_cfg).expect("geometry validated by serve()");
    let mut hist = LatencyHistogram::new();
    let mut comp = CompletionQueue::new(COMPLETION_DEPTH, latency);
    let (mut seen, mut scored) = (0u64, 0u64);
    let check = |seen: u64, got: Option<u64>| {
        if let Some(violation) = transport_violation(owned, seen as usize, got) {
            std::panic::panic_any(violation);
        }
    };
    while let Ok(Batch { t_submit, msgs }) = rx.recv() {
        let mut decided = 0u32;
        for msg in &msgs {
            check(seen, Some(msg.seq));
            let mut sref = pol
                .score
                .as_deref_mut()
                .map(|sc| sc as &mut dyn ScoreSource);
            let (outcome, score_val) = streaming_step(
                &msg.record,
                seen,
                msg.seq,
                &mut cache,
                pol.admission.as_mut(),
                pol.eviction.as_mut(),
                &mut sref,
            );
            ShardSupervisor::die_if_armed(panic_at, seen);
            scored += u64::from(score_val.is_some());
            if acct.record(seen, msg.seq, &msg.record, &outcome) {
                comp.on_decided(msg.record.op, &outcome);
                decided += 1;
            }
            seen += 1;
        }
        // Admission latency, submit → decided: one clock read per batch
        // rounds each record's latency up to the last decision, never down.
        if decided > 0 {
            let ns = t_submit.elapsed().as_nanos() as u64;
            (0..decided).for_each(|_| hist.record_ns(ns));
        }
    }
    check(seen, None);
    let mut report = acct.finish(pol.eviction.name(), pol.admission.name());
    if let Some(score) = &pol.score {
        score.telemetry(&mut report.fault, &mut report.adapt);
    }
    WorkerDone {
        // The completion model is nominal-device telemetry.
        overlap: comp.finish(latency.total_us(&report.stats)),
        report,
        scored,
        hist,
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

    /// The transport check on a shard owning positions 3, 4, 9, 12: the
    /// in-order stream passes; a hole, a duplicate, a swap, a foreign
    /// shard's record, an over-long and a short stream each fail at the
    /// first arrival that is not the one position it can be.
    #[test]
    fn transport_check_catches_loss_duplication_reordering_and_misrouting() {
        let owned = [3u32, 4, 9, 12];
        // First violating arrival index of a whole stream, if any.
        let first_violation = |stream: &[u64]| {
            let arrivals = stream.iter().map(|&seq| Some(seq)).chain([None]);
            arrivals
                .enumerate()
                .find_map(|(seen, got)| transport_violation(&owned, seen, got).map(|_| seen))
        };
        assert_eq!(first_violation(&[3, 4, 9, 12]), None);
        assert_eq!(first_violation(&[3, 9, 12]), Some(1), "hole: 4 lost");
        assert_eq!(first_violation(&[3, 4, 4, 9, 12]), Some(2), "duplicate");
        assert_eq!(first_violation(&[3, 9, 4, 12]), Some(1), "swap");
        assert_eq!(
            first_violation(&[3, 4, 5, 9, 12]),
            Some(2),
            "foreign shard's 5"
        );
        assert_eq!(first_violation(&[3, 4, 9, 12, 13]), Some(4), "one too many");
        assert_eq!(first_violation(&[3, 4, 9]), Some(3), "tail lost");
        assert_eq!(first_violation(&[]), Some(0), "nothing arrived");
        assert_eq!(transport_violation(&[], 0, None), None, "an empty shard");
        let v = transport_violation(&owned, 1, Some(9)).expect("a hole");
        assert!(
            v.0.contains("Some(9)") && v.0.contains("Some(4)"),
            "{}",
            v.0
        );
    }

    /// A violation is a service bug: it fails the session on the calling
    /// thread and never reaches the supervisor's recovery.
    #[test]
    #[should_panic(expected = "serve transport bug on shard 1")]
    fn a_transport_violation_is_not_recovered() {
        let cfg = CacheConfig {
            capacity_bytes: 16 * 4096,
            block_bytes: 4096,
            ways: 2,
        };
        let trace = [TraceRecord::read(0), TraceRecord::read(1 << 12)];
        let part = ShardPartition::build(2, &cfg, &[], &trace).unwrap();
        let make = |_: &ShardCtx<'_>| -> ShardPolicies {
            panic!("the supervisor must not be asked to re-replay")
        };
        let lat = LatencyModel::paper_tlc();
        let plan = icgmm_cache::FaultPlan::empty();
        let sup =
            ShardSupervisor::new(cfg, &lat, &make, plan, Some(&part), &trace, 0, None).unwrap();
        let payload = transport_violation(part.positions(1), 0, None).expect("short stream");
        let _ = recover(&sup, 1, Box::new(payload), &mut FaultStats::default());
    }
}
