//! The concurrent cache service: clients → bounded per-shard ingestion
//! queues → shard workers deciding per request → a sequence-number merge
//! re-accounting outcomes in global order, incrementally.
//!
//! # Why the served stream re-accounts bit-identically
//!
//! Two offline invariants compose:
//!
//! 1. **Set partitioning** ([`icgmm_cache::ShardedSimulator`]'s argument): each shard
//!    worker sees exactly the subsequence of requests whose sets it owns,
//!    in trace order, so every per-record outcome equals the
//!    single-threaded replay's outcome at the same global position —
//!    regardless of *when* each request physically arrives.
//! 2. **Streaming merge** ([`StreamingMerge`]): pushing outcomes through
//!    the accounting in ascending global order reproduces the
//!    single-threaded report bit-for-bit, and panics on any lost,
//!    duplicated or reordered outcome rather than skewing silently.
//!
//! Concurrency therefore only decides *timing* (throughput, admission
//! latency, shed counts) — never *results*. The equivalence suite pits
//! every served report against [`icgmm_cache::ShardedSimulator::run`] to hold the
//! line.
//! This module owns transport, the live worker loop, the live merge walk
//! and timing; the life of a shard around them (policies, contract, armed
//! panic point, recovery) is the offline engine's [`ShardSupervisor`].
//!
//! # Deadlock freedom with bounded queues everywhere
//!
//! Each client owns a disjoint set of shards and submits its requests in
//! ascending global order; the merger consumes outcomes in ascending
//! global order. When the merger blocks for global position `t` (owned by
//! shard `X`), every position `< t` is already merged, so `X`'s owning
//! client has already submitted `t` (its earlier submissions all
//! completed) — hence `X`'s worker either holds `t` or is blocked
//! publishing an outcome `< t`… which the merger has already drained.
//! Inductively the merger always makes progress, so bounded ingestion
//! *and* outcome queues cannot cycle.
//!
//! Per-shard transport buffering ([`SUBMIT_BATCH`]) needs one refinement
//! of the argument. A client keeps one open batch per owned shard (so
//! interleaved traffic still fills ≤64-record batches instead of
//! degenerating to run-length-1 sends), which means a record can sit
//! buffered client-side while later records ship. The invariant that
//! matters is narrower than "submitted in ascending order": *whenever a
//! client blocks on a full queue, every record it owns with a global
//! position below the blocked batch's minimum has already been
//! enqueued.* The ordered-flush protocol in [`flush_shard`] restores it
//! on demand: non-blocking sends need no ordering (they cannot
//! deadlock), and before any *blocking* send of a batch with min-seq
//! watermark `m`, every other open batch whose watermark is `< m` is
//! flushed first, in ascending watermark order. Records append to a
//! buffer in ascending order, so a buffer's head seq *is* its watermark,
//! and after the sweep no buffered record precedes `m`. The merger-
//! progress induction then goes through unchanged: if the merger waits
//! on position `t` (shard `X`) while `X`'s client blocks on shard `Y`,
//! the blocked batch's watermark is `> t` (positions `< t` are merged,
//! hence submitted), so the sweep already flushed `t` toward `X`.
//! Workers still flush their buffered outcomes before parking on an
//! empty ingestion queue — no decided outcome is ever held across a park
//! ([`RecState::flush`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicI64, Ordering};
use std::thread::{self, ScopedJoinHandle};
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};

/// Transport batching factor: up to this many records ride one channel
/// message, on both the ingestion and the outcome path. A bounded-queue
/// hand-off costs a lock round-trip (and sometimes a wake) per message;
/// per-record messages would spend several hundred ns/record on pure
/// transport — more than the replay spends deciding. Batching amortises
/// that to noise while `queue_depth` keeps its meaning in records: the
/// per-shard batch size is `min(SUBMIT_BATCH, queue_depth)` and the slot
/// count `queue_depth / batch`, so a queue never holds more records than
/// configured (`queue_depth: 1` degenerates to per-record hand-off,
/// which the backpressure tests rely on). Measured on `serving` (ISSUE
/// 17): a batch of 1 costs 1.3–2.1× the session time at every geometry.
const SUBMIT_BATCH: usize = 64;

use icgmm_cache::{
    streaming_step, AdaptStats, CacheConfig, FaultStats, LatencyModel, OutcomeStream, ScoreSource,
    SeqOutcome, SetAssocCache, ShardCtx, ShardPartition, ShardPolicies, ShardRunError,
    ShardSupervisor, SimReport, StreamingMerge,
};
use icgmm_trace::TraceRecord;
use serde::{Deserialize, Serialize};

use crate::config::{ServeConfig, ServeError, SubmitMode};
use crate::hist::LatencyHistogram;
use crate::overlap::{CompletionQueue, OverlapStats, COMPLETION_DEPTH};

/// One request in flight from a client to its shard worker.
#[derive(Clone, Copy)]
struct IngestMsg {
    /// Global trace position (warm-up + measured, 0-based).
    seq: u64,
    record: TraceRecord,
    /// Transport-entry instant for the admission-latency histogram:
    /// stamped once per flush-run when the batch leaves its client
    /// buffer, *before* any full-queue wait. Client-buffer dwell is a
    /// batching artifact and is excluded; blocking backpressure is real
    /// queueing and is included.
    t_submit: Instant,
}

/// What a shard worker hands back at join time — and, summed over the
/// shards, what the session reports.
#[derive(Default)]
struct WorkerDone {
    hist: LatencyHistogram,
    scored: u64,
    overlap: OverlapStats,
    /// Eviction and admission policy names for the merged report
    /// (policies are built worker-side, so the names travel back).
    names: Option<(String, String)>,
    /// What the shard's score stack counted ([`ScoreSource::telemetry`],
    /// read after its last record); the session total also holds the
    /// supervisor's panic / recovery counts.
    fault: FaultStats,
    adapt: AdaptStats,
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
/// offline [`icgmm_cache::ShardedSimulator::run`] of the same (possibly
/// `stop_after`-truncated) inputs; the timing half describes this
/// particular serving run and is intentionally excluded from equality
/// comparisons.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeReport {
    /// The merged simulation report — equal to the offline replay's.
    pub sim: SimReport,
    /// Replay events that consumed a score — equal to the offline
    /// replay's count.
    pub scores_consumed: u64,
    /// Requests served (warm-up + measured, after `stop_after`).
    pub requests: u64,
    /// Requests a [`SubmitMode::Shed`] client found a full queue for.
    pub sheds: u64,
    /// Shard workers this run used.
    pub shards: usize,
    /// Client threads this run used (after capping to the shard count).
    pub clients: usize,
    /// Wall-clock time from first submission to last merged outcome, µs.
    pub wall_us: f64,
    /// Sustained throughput at saturation: `requests / wall`.
    pub requests_per_sec: f64,
    /// Median admission-decision latency (submit → the decided outcome's
    /// flush toward the merger) over the measured phase, µs. Queueing
    /// delay included — backpressure is part of the number.
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

    /// Serves `warmup` + `measured` to completion and returns the merged
    /// report. `make_shard` is called once per shard *on that shard's
    /// worker thread* (hence `Fn + Sync`), exactly as in
    /// [`icgmm_cache::ShardedSimulator::run`] — through the same
    /// [`ShardSupervisor`], so the same shard-determinism contracts are
    /// checked above one shard and a dead worker is recovered the same
    /// way. A lost or duplicated outcome trips the merge's ordering
    /// assertion — a service bug, not an input error.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shard`] with the offline engine's own
    /// [`ShardRunError`]: `Config` for invalid cache geometry,
    /// `TraceTooLong`, `Contract` when running more than one shard with a
    /// non-shard-deterministic eviction policy or a non-shardable score
    /// source, `ShardFailed` when a worker dies and the supervisor's
    /// offline re-replay of its subtrace dies too.
    pub fn serve(
        &self,
        warmup: &[TraceRecord],
        measured: &[TraceRecord],
        cache_cfg: CacheConfig,
        make_shard: &(dyn Fn(&ShardCtx<'_>) -> ShardPolicies + Sync),
        latency: &LatencyModel,
        series_window: Option<u64>,
    ) -> Result<ServeReport, ServeError> {
        let s = self.cfg.shards;
        let clients = self.cfg.clients.min(s);

        // Graceful shutdown = stop accepting: truncate at the cutoff and
        // serve the prefix to completion. Drain-and-join then happens
        // naturally, and the report equals an offline replay of the
        // truncated trace (the seeded-shutdown property test).
        let total = warmup.len() + measured.len();
        let cut = self
            .cfg
            .stop_after
            .map_or(total, |k| (k as usize).min(total));
        let warmup = &warmup[..warmup.len().min(cut)];
        let measured = &measured[..cut - warmup.len()];
        let n = warmup.len() + measured.len();

        // Zero-copy fan-out — the identical [`ShardPartition`] the
        // offline sharded replay builds (it validates the geometry):
        // per-shard ascending `u32` position lists (~4 B/record of
        // routing), no per-shard record copies, no stored seq vectors.
        // Clients walk the partition directly (k-way merge over their
        // owned shards' lists), workers are handed policies built over
        // indexed views of the caller's slices, and the merger recomputes
        // each record's owner on the fly.
        let part = &ShardPartition::build(s, &cache_cfg, warmup, measured)?;
        // The shard lifecycle is the offline engine's: policies built
        // *inside* each worker and checked against the shard contract,
        // the fault plan's panic points, and the recovery of a dead shard.
        let plan = self.cfg.fault;
        let sup =
            &ShardSupervisor::new(cache_cfg, latency, make_shard, plan, part, warmup, measured);

        // Channels: one bounded ingestion queue and one bounded outcome
        // queue per shard, carrying batches of up to `batch` records per
        // message; `slots × batch ≤ queue_depth` keeps the configured
        // bound counted in records (see [`SUBMIT_BATCH`]). Each
        // sender/receiver half has exactly one owner, so disconnection
        // cleanly signals "peer done/dead".
        let depth = self.cfg.queue_depth;
        let batch = depth.clamp(1, SUBMIT_BATCH);
        let slots = (depth / batch).max(1);
        let mut ingest_rx: Vec<Option<Receiver<Vec<IngestMsg>>>> = Vec::with_capacity(s);
        let mut out_tx: Vec<Option<Sender<Vec<SeqOutcome>>>> = Vec::with_capacity(s);
        let mut out_rx: Vec<Receiver<Vec<SeqOutcome>>> = Vec::with_capacity(s);
        let mut client_senders: Vec<Vec<Option<Sender<Vec<IngestMsg>>>>> = (0..clients)
            .map(|_| (0..s).map(|_| None).collect())
            .collect();
        for shard in 0..s {
            let (itx, irx) = bounded::<Vec<IngestMsg>>(slots);
            let (otx, orx) = bounded::<Vec<SeqOutcome>>(slots);
            client_senders[shard % clients][shard] = Some(itx);
            ingest_rx.push(Some(irx));
            out_tx.push(Some(otx));
            out_rx.push(orx);
        }

        let shed = self.cfg.submit == SubmitMode::Shed;
        let warmup_len = warmup.len() as u64;
        // Advisory in-flight record count per ingestion queue (adds by
        // the owning client after a successful send, subs by the worker
        // after a receive): record-granular observed occupancy for shed
        // accounting, which slot-granular channel state cannot provide.
        // i64 because the add and the sub race benignly — the worker can
        // drain a message before its sender's add lands.
        let inflight: Vec<AtomicI64> = (0..s).map(|_| AtomicI64::new(0)).collect();

        let mut total = WorkerDone::default();
        // Outcomes merged per shard so far: all of them came from the
        // live worker until it died, so this is also the prefix a
        // recovery may skip.
        let mut delivered: Vec<usize> = vec![0; s];
        // Outcome batches received from live workers, not yet merged.
        let mut pending: Vec<VecDeque<SeqOutcome>> = (0..s).map(|_| VecDeque::new()).collect();

        let start = Instant::now();
        let served = thread::scope(|scope| {
            let mut workers: Vec<Option<ScopedJoinHandle<'_, _>>> = (0..s)
                .map(|shard| {
                    let rx = ingest_rx[shard].take().expect("one worker per shard");
                    let tx = out_tx[shard].take().expect("one worker per shard");
                    let infl = &inflight[shard];
                    Some(scope.spawn(move || {
                        // Worker-side policy construction: Belady oracle
                        // builds and scorer clones run in parallel across
                        // shards, off the calling thread. A refused
                        // worker returns before touching its queues; the
                        // dropped channel ends wake the merger, which
                        // fails the session.
                        let pol = sup.policies(shard)?;
                        let at = sup.panic_point(shard);
                        Ok(run_worker(
                            rx, tx, pol, cache_cfg, *latency, at, warmup_len, batch, infl,
                        ))
                    }))
                })
                .collect();
            let infl_all: &[AtomicI64] = &inflight;
            let client_handles: Vec<_> = client_senders
                .into_iter()
                .enumerate()
                .map(|(client, senders)| {
                    scope.spawn(move || {
                        run_client(
                            part, client, clients, warmup, measured, senders, shed, batch,
                            infl_all, depth,
                        )
                    })
                })
                .collect();

            // The merger runs here, on the calling thread: pull each
            // global position's outcome from its owning shard and
            // re-account it immediately — O(shards) live outcomes.
            let mut merge = StreamingMerge::new(warmup.len(), latency, series_window);
            // Re-replayed outcome streams of shards whose worker died.
            let mut recovered: Vec<Option<Box<dyn OutcomeStream + '_>>> =
                (0..s).map(|_| None).collect();
            let mut walk = || -> Result<(), ShardRunError> {
                for r in warmup.iter().chain(measured) {
                    let shard = part.shard_of(r.page());
                    let out = loop {
                        if let Some(o) = pending[shard].pop_front() {
                            break o;
                        }
                        if let Some(stream) = recovered[shard].as_mut() {
                            break stream
                                .next_outcome()
                                .expect("re-replay covers every undelivered record");
                        }
                        match out_rx[shard].recv() {
                            Ok(outs) => pending[shard].extend(outs),
                            Err(_) => {
                                // The worker is gone with this outcome
                                // undelivered. Graceful degradation,
                                // exactly as offline: the supervisor
                                // re-replays the shard and serving goes on
                                // from its outcomes past the delivered
                                // prefix.
                                let worker = workers[shard].take().expect("a worker dies once");
                                let done = delivered[shard];
                                let stream = settle(sup, shard, worker, done, &mut total)?;
                                recovered[shard] = Some(stream.expect(
                                    "a live worker exits only once every outcome is delivered",
                                ));
                            }
                        }
                    };
                    delivered[shard] += 1;
                    merge.push(&out);
                }
                Ok(())
            };
            let mut failed = walk().err();
            let wall = start.elapsed();

            // Unblock any worker still parked on a full outcome queue
            // (only possible on the error path), then join everything —
            // the scope must not exit with unjoined panicked threads.
            drop(out_rx);
            let mut sheds = 0u64;
            for h in client_handles {
                sheds += h.join().expect("clients never panic");
            }
            for (shard, worker) in workers.into_iter().enumerate() {
                let Some(worker) = worker else { continue };
                if failed.is_some() {
                    // The session already failed: join, recover nothing.
                    let _ = worker.join();
                } else {
                    let done = delivered[shard];
                    failed = settle(sup, shard, worker, done, &mut total).err();
                }
            }
            if let Some(e) = failed {
                return Err(e);
            }
            let (ev_name, adm_name) = total
                .names
                .take()
                .expect("every shard's worker was joined or recovered");
            Ok((
                merge.finish(measured.len(), &ev_name, &adm_name),
                sheds,
                wall,
            ))
        });
        let (mut sim, sheds, wall) = served?;
        (sim.fault, sim.adapt) = (total.fault, total.adapt);

        let wall_us = wall.as_secs_f64() * 1e6;
        let requests_per_sec = if wall_us > 0.0 {
            n as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        Ok(ServeReport {
            sim,
            scores_consumed: total.scored,
            requests: n as u64,
            sheds,
            shards: s,
            clients,
            wall_us,
            requests_per_sec,
            admission_p50_us: total.hist.quantile_us(0.50),
            admission_p99_us: total.hist.quantile_us(0.99),
            overlap: total.overlap,
        })
    }
}

/// Joins shard `shard`'s worker and adds what it leaves behind to `total`.
/// A dead one is recovered by the supervisor (the death and the recovery
/// counted in `total.fault`): the re-replay's scored count and fault /
/// adapt blocks stand in for the worker's partial ones (they and its
/// timing telemetry died with it) and the outcomes past the `delivered`
/// prefix are returned for the merger.
fn settle<'a>(
    sup: &ShardSupervisor<'a>,
    shard: usize,
    worker: ScopedJoinHandle<'_, Result<WorkerDone, ShardRunError>>,
    delivered: usize,
    total: &mut WorkerDone,
) -> Result<Option<Box<dyn OutcomeStream + 'a>>, ShardRunError> {
    let (done, stream) = match worker.join() {
        Ok(done) => (done?, None),
        Err(payload) => {
            let (stream, scored, report) =
                sup.recover(shard, payload, delivered, &mut total.fault)?;
            let done = WorkerDone {
                scored,
                names: Some((report.eviction, report.admission)),
                fault: report.fault,
                adapt: report.adapt,
                ..WorkerDone::default()
            };
            (done, Some(Box::new(stream) as Box<dyn OutcomeStream + 'a>))
        }
    };
    total.hist.merge(&done.hist);
    total.overlap.merge(&done.overlap);
    total.scored += done.scored;
    total.names = total.names.take().or(done.names);
    total.fault.merge(&done.fault);
    total.adapt.merge(&done.adapt);
    Ok(stream)
}

/// One client thread: submit the owned shards' requests in ascending
/// global order, with one open transport batch *per owned shard* — on
/// interleaved traffic every shard still fills ≤[`SUBMIT_BATCH`]-record
/// batches instead of degenerating to run-length-1 sends.
///
/// The client owns no routed copy of the trace: it walks its owned
/// shards' [`ShardPartition`] index lists directly (a k-way merge over
/// ascending position lists reproduces ascending global order), reads
/// each record out of the caller's original slices, and stamps it with
/// its global position — all the worker's scorer clock needs. Deadlock
/// freedom rests on the ordered-flush protocol in [`flush_shard`] (see
/// the module docs); the tail drains the remaining open batches in
/// ascending watermark order for the same reason. Returns the shed
/// count. Sends to a dead shard error out and are ignored — the
/// supervisor's re-replay covers those records.
#[allow(clippy::too_many_arguments)]
fn run_client(
    part: &ShardPartition,
    client: usize,
    clients: usize,
    warmup: &[TraceRecord],
    measured: &[TraceRecord],
    senders: Vec<Option<Sender<Vec<IngestMsg>>>>,
    shed: bool,
    batch: usize,
    inflight: &[AtomicI64],
    depth: usize,
) -> u64 {
    let s = part.shards();
    let owned: Vec<usize> = (client..s).step_by(clients.max(1)).collect();
    let mut cursors = vec![0usize; owned.len()];
    let mut sheds = 0u64;
    // One open batch per shard (unowned shards simply stay empty).
    // Records append in ascending global order, so a buffer's head seq is
    // its min-seq watermark.
    let mut bufs: Vec<Vec<IngestMsg>> = (0..senders.len()).map(|_| Vec::new()).collect();
    // Placeholder stamp, overwritten for the whole batch at flush time.
    let epoch = Instant::now();
    loop {
        // Pick the owned shard whose next index entry is the smallest
        // global position — the k-way merge step (k = owned shards,
        // typically shards / clients).
        let mut next: Option<(usize, u32)> = None;
        for (slot, &shard) in owned.iter().enumerate() {
            if let Some(&pos) = part.positions(shard).get(cursors[slot]) {
                if next.is_none_or(|(_, best)| pos < best) {
                    next = Some((slot, pos));
                }
            }
        }
        let Some((slot, pos)) = next else { break };
        let shard = owned[slot];
        cursors[slot] += 1;
        bufs[shard].push(IngestMsg {
            seq: u64::from(pos),
            record: ShardPartition::record_at(warmup, measured, pos),
            t_submit: epoch,
        });
        if bufs[shard].len() >= batch {
            flush_shard(
                shard, &mut bufs, &senders, shed, &mut sheds, batch, inflight, depth,
            );
        }
    }
    // Tail flush: lowest-watermark buffer first, so any blocking send
    // satisfies the ordering invariant exactly like the steady state.
    loop {
        let next = bufs
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .min_by_key(|(_, b)| b[0].seq)
            .map(|(shard, _)| shard);
        match next {
            Some(shard) => flush_shard(
                shard, &mut bufs, &senders, shed, &mut sheds, batch, inflight, depth,
            ),
            None => break,
        }
    }
    sheds
}

/// Flushes shard `shard`'s open batch. The try-send fast path needs no
/// ordering (a non-blocking hand-off cannot deadlock). When the queue is
/// full — the one case a blocking send follows — the ordering invariant
/// is restored first: every other open batch whose min-seq watermark
/// precedes this batch's is shipped, in ascending watermark order, so no
/// buffered record precedes the batch the client then blocks on.
#[allow(clippy::too_many_arguments)]
fn flush_shard(
    shard: usize,
    bufs: &mut [Vec<IngestMsg>],
    senders: &[Option<Sender<Vec<IngestMsg>>>],
    shed: bool,
    sheds: &mut u64,
    batch: usize,
    inflight: &[AtomicI64],
    depth: usize,
) {
    if bufs[shard].is_empty() {
        return;
    }
    let sender = |t: usize| senders[t].as_ref().expect("client owns this shard");
    let msgs = std::mem::replace(&mut bufs[shard], Vec::with_capacity(batch));
    let head = msgs[0].seq;
    let sweep = |sheds: &mut u64| {
        let mut earlier: Vec<usize> = (0..bufs.len())
            .filter(|&t| !bufs[t].is_empty() && bufs[t][0].seq < head)
            .collect();
        earlier.sort_unstable_by_key(|&t| bufs[t][0].seq);
        for t in earlier {
            let em = std::mem::replace(&mut bufs[t], Vec::with_capacity(batch));
            ship(sender(t), em, shed, sheds, &inflight[t], depth, |_| {});
        }
    };
    ship(
        sender(shard),
        msgs,
        shed,
        sheds,
        &inflight[shard],
        depth,
        sweep,
    );
}

/// The one send path: stamp, try-send, and on a full queue count the
/// observed shed, run `before_block`, then fall back to a blocking send.
/// What makes that blocking send deadlock-safe is the caller's:
/// [`flush_shard`] passes the ordered-flush sweep, and the sweep itself —
/// already shipping in ascending watermark order — nothing.
fn ship(
    tx: &Sender<Vec<IngestMsg>>,
    mut msgs: Vec<IngestMsg>,
    shed: bool,
    sheds: &mut u64,
    inflight: &AtomicI64,
    depth: usize,
    before_block: impl FnOnce(&mut u64),
) {
    stamp_flush_run(&mut msgs);
    let n = msgs.len();
    match tx.try_send(msgs) {
        Ok(()) => {
            inflight.fetch_add(n as i64, Ordering::Relaxed);
        }
        Err(TrySendError::Disconnected(_)) => {}
        Err(TrySendError::Full(m)) => {
            if shed {
                *sheds += records_shed(n, free_records(inflight, depth));
            }
            before_block(sheds);
            if tx.send(m).is_ok() {
                inflight.fetch_add(n as i64, Ordering::Relaxed);
            }
        }
    }
}

/// One clock read per flush-run, shared by every record of the batch:
/// admission latency runs transport entry → outcome flush, so buffering
/// dwell inside the client is excluded by construction rather than
/// inflating the percentiles as buffers live longer.
fn stamp_flush_run(msgs: &mut [IngestMsg]) {
    let now = Instant::now();
    for m in msgs {
        m.t_submit = now;
    }
}

/// Records of an `len`-record batch a lossy service would actually have
/// dropped at `free` observed free record slots: the overflow only, not
/// the whole batch.
fn records_shed(len: usize, free: usize) -> u64 {
    len.saturating_sub(free) as u64
}

/// Observed free record capacity of a queue: configured depth minus the
/// advisory in-flight count (clamped — the worker's subtract can land
/// before the sender's add, leaving the counter transiently negative).
fn free_records(inflight: &AtomicI64, depth: usize) -> usize {
    let load = inflight.load(Ordering::Relaxed).max(0) as usize;
    depth.saturating_sub(load)
}

/// Shared per-record bookkeeping of a shard worker: the shard-local
/// sequence clock, the armed panic point, the latency histogram and the
/// outcome publisher.
struct RecState {
    seen: u64,
    scored: u64,
    panic_at: Option<u64>,
    hist: LatencyHistogram,
    tx: Sender<Vec<SeqOutcome>>,
    /// Decided outcomes not yet shipped to the merger (at most `obatch`).
    obuf: Vec<SeqOutcome>,
    /// Submission stamps of buffered *measured* outcomes, turned into
    /// histogram entries at flush time with a single clock read — a
    /// record's admission latency runs submit → outcome flush, so sharing
    /// the flush instant only rounds the tail *up*, never under-states it
    /// (consistent with the histogram's upper-bound bucket semantics).
    lat_pending: Vec<Instant>,
    obatch: usize,
    warmup_len: u64,
    /// Simulated backend-completion queue over the measured phase — the
    /// modeled-time analogue of the replay's `overlap_saved_us`.
    comp: CompletionQueue,
}

impl RecState {
    /// Publishes one decided record: panic-point check first (the same
    /// one, at the same point, as the offline replay's recorder — the
    /// scorer has observed the record but no outcome escapes), then
    /// histogram + outcome buffering. An armed panic drops the buffer with
    /// the worker — exactly the "died before delivering" prefix the
    /// supervisor's re-replay covers.
    fn publish(&mut self, msg: &IngestMsg, outcome: icgmm_cache::AccessOutcome, scored: bool) {
        ShardSupervisor::die_if_armed(self.panic_at, self.seen);
        self.seen += 1;
        self.scored += u64::from(scored);
        if msg.seq >= self.warmup_len {
            self.lat_pending.push(msg.t_submit);
            // Same measured-phase gate as the accounting: the completion
            // model covers exactly the records `SimReport::total_us`
            // charges.
            self.comp.on_decided(msg.record.op, &outcome);
        }
        self.obuf.push(SeqOutcome {
            seq: msg.seq,
            record: msg.record,
            outcome,
        });
        if self.obuf.len() >= self.obatch {
            self.flush();
        }
    }

    /// Ships the buffered outcomes as one batch. Called when the buffer
    /// fills and — crucially for deadlock freedom — before the worker
    /// blocks on an empty ingestion queue: a decided outcome held across
    /// a park could starve the merger (which drains shards in global
    /// order) while the owning client is blocked on a different full
    /// queue. A send to a gone merger is ignored; the worker finishes
    /// draining and exits.
    fn flush(&mut self) {
        if self.obuf.is_empty() {
            return;
        }
        if !self.lat_pending.is_empty() {
            let now = Instant::now();
            for t in self.lat_pending.drain(..) {
                self.hist
                    .record_ns(now.saturating_duration_since(t).as_nanos() as u64);
            }
        }
        let outs = std::mem::replace(&mut self.obuf, Vec::with_capacity(self.obatch));
        let _ = self.tx.send(outs);
    }
}

/// One shard worker: drain the ingestion queue, decide each request with
/// the canonical [`streaming_step`], publish. The shard-local sequence
/// clock (`seen`) runs continuously, so policy recency stamps and Belady
/// positions match the offline replay exactly.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    rx: Receiver<Vec<IngestMsg>>,
    tx: Sender<Vec<SeqOutcome>>,
    mut pol: ShardPolicies,
    cache_cfg: CacheConfig,
    latency: LatencyModel,
    panic_at: Option<u64>,
    warmup_len: u64,
    batch: usize,
    inflight: &AtomicI64,
) -> WorkerDone {
    let mut cache = SetAssocCache::new(cache_cfg).expect("geometry validated by serve()");
    let names = (pol.eviction.name().into(), pol.admission.name().into());
    let mut state = RecState {
        seen: 0,
        scored: 0,
        panic_at,
        hist: LatencyHistogram::new(),
        tx,
        obuf: Vec::with_capacity(batch),
        lat_pending: Vec::with_capacity(batch),
        obatch: batch,
        warmup_len,
        comp: CompletionQueue::new(COMPLETION_DEPTH, latency),
    };
    loop {
        // Flush decided outcomes before a potential park (see
        // RecState::flush); a no-op when the buffer is empty.
        state.flush();
        let Ok(msgs) = rx.recv() else { break };
        inflight.fetch_sub(msgs.len() as i64, Ordering::Relaxed);
        for msg in msgs {
            let mut sref = pol
                .score
                .as_deref_mut()
                .map(|sc| sc as &mut dyn ScoreSource);
            let (outcome, score_val) = streaming_step(
                &msg.record,
                state.seen,
                msg.seq,
                &mut cache,
                pol.admission.as_mut(),
                pol.eviction.as_mut(),
                &mut sref,
            );
            state.publish(&msg, outcome, score_val.is_some());
        }
    }
    state.flush();
    let mut done = WorkerDone {
        hist: state.hist,
        scored: state.scored,
        overlap: state.comp.finish(),
        names: Some(names),
        ..WorkerDone::default()
    };
    if let Some(score) = &pol.score {
        score.telemetry(&mut done.fault, &mut done.adapt);
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A full queue sheds only the overflow at the observed free record
    /// capacity — never the whole batch (the PR 7 over-count).
    #[test]
    fn sheds_count_the_overflow_not_the_batch() {
        assert_eq!(records_shed(64, 0), 64);
        assert_eq!(records_shed(64, 10), 54);
        assert_eq!(records_shed(5, 5), 0);
        assert_eq!(records_shed(3, 100), 0);
        assert_eq!(records_shed(0, 0), 0);
    }

    #[test]
    fn free_capacity_clamps_transient_negatives() {
        let infl = AtomicI64::new(-3);
        assert_eq!(free_records(&infl, 8), 8);
        infl.store(5, Ordering::Relaxed);
        assert_eq!(free_records(&infl, 8), 3);
        infl.store(20, Ordering::Relaxed);
        assert_eq!(free_records(&infl, 8), 0);
    }

    /// End-to-end over a real bounded channel: with `free` observed
    /// records of headroom, a `len`-record batch sheds `len - free`.
    #[test]
    fn ship_sheds_only_records_beyond_observed_capacity() {
        let depth = 64usize;
        let (tx, rx) = bounded::<Vec<IngestMsg>>(1);
        let infl = AtomicI64::new(0);
        let rec = TraceRecord::read(0);
        let mk = |n: usize| {
            (0..n)
                .map(|i| IngestMsg {
                    seq: i as u64,
                    record: rec,
                    t_submit: Instant::now(),
                })
                .collect::<Vec<_>>()
        };
        // Occupy the single slot with 40 records: 24 records of headroom
        // remain at the configured 64-record depth.
        let mut sheds = 0u64;
        ship(&tx, mk(40), true, &mut sheds, &infl, depth, |_| {});
        assert_eq!(sheds, 0);
        assert_eq!(infl.load(Ordering::Relaxed), 40);
        // The next 64-record batch finds the queue full. The Full arm of
        // `ship`/`flush_shard` charges records_shed(len, observed free):
        // 64 - 24 = 40 would-be drops — not all 64 (the old over-count).
        match tx.try_send(mk(64)) {
            Err(TrySendError::Full(m)) => {
                sheds += records_shed(m.len(), free_records(&infl, depth));
            }
            _ => panic!("single-slot queue must be full"),
        }
        assert_eq!(sheds, 40);
        assert_eq!(rx.recv().map(|m| m.len()), Ok(40));
    }
}
