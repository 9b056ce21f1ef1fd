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
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

use crossbeam::channel::{bounded_with_spin, Receiver, Sender, TrySendError};

/// Transport batching factor: up to this many records ride one channel
/// message, on both the ingestion and the outcome path. A bounded-queue
/// hand-off costs a lock round-trip (and sometimes a wake) per message;
/// per-record messages would spend several hundred ns/record on pure
/// transport — more than the replay spends deciding. Batching amortises
/// that to noise while `queue_depth` keeps its meaning in records: the
/// per-shard batch size is `min(SUBMIT_BATCH, queue_depth)` and the slot
/// count `queue_depth / batch`, so a queue never holds more records than
/// configured (`queue_depth: 1` degenerates to per-record hand-off,
/// which the backpressure tests rely on).
const SUBMIT_BATCH: usize = 64;

/// Spin budget of the serving transport's channels (a shim extension —
/// see `bounded_with_spin`). Every message carries up to
/// [`SUBMIT_BATCH`] records, so a park/wake round-trip is amortised to
/// noise — while the generous spin default, tuned for the sharded
/// replay engine's per-record hand-off, actively hurts here: on
/// few-core hosts several idle workers yielding in lock-step starve
/// the one runnable client between batches.
const CHANNEL_SPIN: usize = 16;

use icgmm_cache::{
    shard_contract, shard_gap_before, simulate_streaming_observed_records, streaming_step,
    CacheConfig, FaultStats, GapScore, LatencyModel, RecordsRef, ReplayEvent, ReplayObserver,
    ScoreSource, SeqOutcome, SetAssocCache, ShardCtx, ShardPartition, ShardPolicies, SimReport,
    StreamingMerge,
};
use icgmm_trace::TraceRecord;
use serde::{Deserialize, Serialize};

use crate::config::{ServeConfig, ServeError, SubmitMode};
use crate::hist::LatencyHistogram;
use crate::overlap::{CompletionQueue, OverlapStats};

/// One request in flight from a client to its shard worker.
#[derive(Clone, Copy)]
struct IngestMsg {
    /// Global trace position (warm-up + measured, 0-based).
    seq: u64,
    record: TraceRecord,
    /// Foreign-shard records since this shard's previous record — the
    /// scorer clock fast-forward, exactly as in the offline replay.
    gap: u64,
    /// Transport-entry instant for the admission-latency histogram:
    /// stamped once per flush-run when the batch leaves its client
    /// buffer, *before* any full-queue wait. Client-buffer dwell is a
    /// batching artifact and is excluded; blocking backpressure is real
    /// queueing and is included.
    t_submit: Instant,
}

/// What a shard worker hands back at join time.
struct WorkerDone {
    hist: LatencyHistogram,
    scored: u64,
    overlap: OverlapStats,
    /// Policy names for the merged report (policies are built worker-side
    /// now, so the names travel back with the results).
    ev_name: String,
    adm_name: String,
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
    /// [`icgmm_cache::ShardedSimulator::run`]; the same shard-determinism
    /// contracts are checked above one shard. A lost or duplicated
    /// outcome trips the merge's ordering assertion — a service bug, not
    /// an input error.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for invalid cache geometry;
    /// [`ServeError::Contract`] when running more than one shard with a
    /// non-shard-deterministic eviction policy or a non-shardable score
    /// source; [`ServeError::ShardFailed`] when a worker dies and the
    /// supervisor's offline re-replay of its subtrace dies too.
    pub fn serve(
        &self,
        warmup: &[TraceRecord],
        measured: &[TraceRecord],
        cache_cfg: CacheConfig,
        make_shard: &(dyn Fn(&ShardCtx<'_>) -> ShardPolicies + Sync),
        latency: &LatencyModel,
        series_window: Option<u64>,
    ) -> Result<ServeReport, ServeError> {
        cache_cfg
            .validate()
            .map_err(|e| ServeError::Config(e.to_string()))?;
        let s = self.cfg.shards;
        let clients = self.cfg.clients.min(s);
        let plan = self.cfg.fault;

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
        // offline sharded replay builds: per-shard ascending `u32`
        // position lists (~4 B/record of routing), no per-shard record
        // copies, no stored gap or seq vectors. Clients walk the
        // partition directly (k-way merge over their owned shards'
        // lists), workers replay indexed views over the caller's slices,
        // and the merger recomputes each record's owner on the fly.
        let part = ShardPartition::build(s, &cache_cfg, warmup, measured).map_err(|e| match e {
            icgmm_cache::ShardRunError::TraceTooLong { records } => {
                ServeError::TraceTooLong { records }
            }
            other => ServeError::Config(other.to_string()),
        })?;

        // Per-shard policies are built *inside* each worker (parallel
        // construction, shared verbatim with the offline engine — same
        // `shard_contract` refusals).
        let panic_at: Vec<Option<u64>> = (0..s)
            .map(|shard| plan.shard_panic_point(shard, part.positions(shard).len()))
            .collect();

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
            let (itx, irx) = bounded_with_spin::<Vec<IngestMsg>>(slots, CHANNEL_SPIN);
            let (otx, orx) = bounded_with_spin::<Vec<SeqOutcome>>(slots, CHANNEL_SPIN);
            client_senders[shard % clients][shard] = Some(itx);
            ingest_rx.push(Some(irx));
            out_tx.push(Some(otx));
            out_rx.push(orx);
        }

        let lat = *latency;
        let shed = self.cfg.submit == SubmitMode::Shed;
        let warmup_len = warmup.len() as u64;
        let comp_depth = self.cfg.completion_depth;
        // Advisory in-flight record count per ingestion queue (adds by
        // the owning client after a successful send, subs by the worker
        // after a receive): record-granular observed occupancy for shed
        // accounting, which slot-granular channel state cannot provide.
        // i64 because the add and the sub race benignly — the worker can
        // drain a message before its sender's add lands.
        let inflight: Vec<AtomicI64> = (0..s).map(|_| AtomicI64::new(0)).collect();

        let mut fault = FaultStats::default();
        // Outcomes recovered by the supervisor for dead shards, minus the
        // prefix the worker already delivered; and each recovered shard's
        // full scored count (replacing the dead worker's partial one).
        let mut replacement: Vec<VecDeque<SeqOutcome>> = (0..s).map(|_| VecDeque::new()).collect();
        let mut recovered_scored: Vec<Option<u64>> = vec![None; s];
        let mut delivered: Vec<usize> = vec![0; s];
        // Outcome batches received from live workers, not yet merged.
        let mut pending: Vec<VecDeque<SeqOutcome>> = (0..s).map(|_| VecDeque::new()).collect();

        let start = Instant::now();
        let part_ref = &part;
        let served = crossbeam::thread::scope(|scope| {
            let worker_handles: Vec<_> = (0..s)
                .map(|shard| {
                    let rx = ingest_rx[shard].take().expect("one worker per shard");
                    let tx = out_tx[shard].take().expect("one worker per shard");
                    let at = panic_at[shard];
                    let infl = &inflight[shard];
                    scope.spawn(move |_| {
                        // Worker-side policy construction: Belady oracle
                        // builds and scorer clones run in parallel across
                        // shards, off the calling thread.
                        let (warm, meas) = part_ref.views(shard, warmup, measured);
                        let ctx = ShardCtx {
                            shard,
                            shards: s,
                            warmup: warm,
                            measured: meas,
                        };
                        let pol = make_shard(&ctx);
                        // A refused worker returns before touching its
                        // queues; the dropped channel ends wake the
                        // merger, which fails the session.
                        shard_contract(s, &pol)
                            .map_err(|message| ServeError::Contract { shard, message })?;
                        Ok(run_worker(
                            rx, tx, pol, cache_cfg, lat, at, warmup_len, batch, infl, comp_depth,
                        ))
                    })
                })
                .collect();
            let infl_all: &[AtomicI64] = &inflight;
            let client_handles: Vec<_> = client_senders
                .into_iter()
                .enumerate()
                .map(|(client, senders)| {
                    scope.spawn(move |_| {
                        run_client(
                            part_ref, client, clients, warmup, measured, senders, shed, batch,
                            infl_all, depth,
                        )
                    })
                })
                .collect();

            // The merger runs here, on the calling thread: pull each
            // global position's outcome from its owning shard and
            // re-account it immediately — O(shards) live outcomes.
            let mut merge = StreamingMerge::new(warmup.len(), &lat, series_window);
            let mut merge_err: Option<ServeError> = None;
            let mut recovered_names: Option<(String, String)> = None;
            'merge: for r in warmup.iter().chain(measured) {
                let shard = cache_cfg.set_of(r.page()) % s;
                let out = loop {
                    if let Some(o) = replacement[shard].pop_front() {
                        break o;
                    }
                    if let Some(o) = pending[shard].pop_front() {
                        break o;
                    }
                    match out_rx[shard].recv() {
                        Ok(outs) => pending[shard].extend(outs),
                        Err(_) => {
                            // The worker died before delivering this
                            // outcome. Graceful degradation, exactly as
                            // offline: re-replay the shard's subtrace on
                            // this thread (panic point disarmed, fresh
                            // policies) and keep serving from the
                            // replayed outcomes past the delivered
                            // prefix.
                            fault.shard_panics += 1;
                            let (warm, meas) = part_ref.views(shard, warmup, measured);
                            let ctx = ShardCtx {
                                shard,
                                shards: s,
                                warmup: warm,
                                measured: meas,
                            };
                            let pol = make_shard(&ctx);
                            // A refused worker looks dead from here; the
                            // refusal reproduces deterministically.
                            if let Err(message) = shard_contract(s, &pol) {
                                merge_err = Some(ServeError::Contract { shard, message });
                                break 'merge;
                            }
                            recovered_names.get_or_insert_with(|| {
                                (
                                    pol.eviction.name().to_string(),
                                    pol.admission.name().to_string(),
                                )
                            });
                            let replay = catch_unwind(AssertUnwindSafe(|| {
                                replay_shard_offline(
                                    warm,
                                    meas,
                                    part_ref.positions(shard),
                                    cache_cfg,
                                    &lat,
                                    pol,
                                )
                            }));
                            match replay {
                                Ok((outs, scored)) => {
                                    fault.shard_recoveries += 1;
                                    recovered_scored[shard] = Some(scored);
                                    replacement[shard] =
                                        outs.into_iter().skip(delivered[shard]).collect();
                                    break replacement[shard]
                                        .pop_front()
                                        .expect("re-replay covers every undelivered record");
                                }
                                Err(p) => {
                                    merge_err = Some(ServeError::ShardFailed {
                                        shard,
                                        message: format!(
                                            "worker died; supervisor re-replay panicked too ({})",
                                            panic_payload(p)
                                        ),
                                    });
                                    break 'merge;
                                }
                            }
                        }
                    }
                };
                delivered[shard] += 1;
                merge.push(&out);
            }
            let wall = start.elapsed();

            // Unblock any worker still parked on a full outcome queue
            // (only possible on the error path), then join everything —
            // the scope must not exit with unjoined panicked threads.
            drop(out_rx);
            let mut sheds = 0u64;
            for h in client_handles {
                sheds += h.join().expect("clients never panic");
            }
            let mut hist = LatencyHistogram::new();
            let mut overlap = OverlapStats::default();
            let mut scores_consumed = 0u64;
            let mut names = recovered_names;
            for (shard, h) in worker_handles.into_iter().enumerate() {
                match h.join() {
                    Ok(Err(refused)) => {
                        merge_err.get_or_insert(refused);
                    }
                    Ok(Ok(done)) => {
                        hist.merge(&done.hist);
                        overlap.merge(&done.overlap);
                        scores_consumed += done.scored;
                        names.get_or_insert((done.ev_name, done.adm_name));
                    }
                    Err(payload) => match recovered_scored[shard] {
                        // Recovered: the offline re-replay's scored count
                        // stands in for the dead worker's partial one.
                        Some(scored) => scores_consumed += scored,
                        None => {
                            if merge_err.is_none() {
                                merge_err = Some(ServeError::ShardFailed {
                                    shard,
                                    message: panic_payload(payload),
                                });
                            }
                        }
                    },
                }
            }
            if let Some(e) = merge_err {
                return Err(e);
            }
            let (ev_name, adm_name) = names
                .expect("every served run joins a live worker or recovers one supervisor-side");
            let sim = merge.finish(measured.len(), &ev_name, &adm_name);
            Ok((sim, scores_consumed, sheds, hist, wall, overlap))
        })
        .expect("serve scope joins every handle");
        let (mut sim, scores_consumed, sheds, hist, wall, overlap) = served?;
        sim.fault = fault;

        let wall_us = wall.as_secs_f64() * 1e6;
        let requests_per_sec = if wall_us > 0.0 {
            n as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        Ok(ServeReport {
            sim,
            scores_consumed,
            requests: n as u64,
            sheds,
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

/// One client thread: submit the owned shards' requests in ascending
/// global order, with one open transport batch *per owned shard* — on
/// interleaved traffic every shard still fills ≤[`SUBMIT_BATCH`]-record
/// batches instead of degenerating to run-length-1 sends.
///
/// The client owns no routed copy of the trace: it walks its owned
/// shards' [`ShardPartition`] index lists directly (a k-way merge over
/// ascending position lists reproduces ascending global order), reads
/// each record out of the caller's original slices, and derives the
/// per-record scorer-clock gap from consecutive index entries
/// ([`shard_gap_before`] — exact, because the client owns *every* record
/// of its shards). Deadlock freedom rests on the ordered-flush protocol
/// in [`flush_shard`] (see the module docs); the tail drains the
/// remaining open batches in ascending watermark order for the same
/// reason. Returns the shed count. Sends to a dead shard error out and
/// are ignored — the supervisor's re-replay covers those records.
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
        let j = cursors[slot];
        cursors[slot] += 1;
        let p = pos as usize;
        let record = if p < warmup.len() {
            warmup[p]
        } else {
            measured[p - warmup.len()]
        };
        bufs[shard].push(IngestMsg {
            seq: pos as u64,
            record,
            gap: shard_gap_before(part.positions(shard), j),
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
    let mut msgs = std::mem::replace(&mut bufs[shard], Vec::with_capacity(batch));
    let tx = senders[shard].as_ref().expect("client owns this shard");
    stamp_flush_run(&mut msgs);
    let n = msgs.len();
    match tx.try_send(msgs) {
        Ok(()) => {
            inflight[shard].fetch_add(n as i64, Ordering::Relaxed);
        }
        Err(TrySendError::Disconnected(_)) => {}
        Err(TrySendError::Full(m)) => {
            if shed {
                *sheds += records_shed(n, free_records(&inflight[shard], depth));
            }
            // About to block: ordered flush of every earlier open batch.
            let head = m[0].seq;
            let mut earlier: Vec<usize> = (0..bufs.len())
                .filter(|&t| t != shard && !bufs[t].is_empty() && bufs[t][0].seq < head)
                .collect();
            earlier.sort_unstable_by_key(|&t| bufs[t][0].seq);
            for t in earlier {
                let em = std::mem::replace(&mut bufs[t], Vec::with_capacity(batch));
                ship(
                    senders[t].as_ref().expect("client owns this shard"),
                    em,
                    shed,
                    sheds,
                    &inflight[t],
                    depth,
                );
            }
            if tx.send(m).is_ok() {
                inflight[shard].fetch_add(n as i64, Ordering::Relaxed);
            }
        }
    }
}

/// Ships one already-taken batch: stamp, try-send, and on a full queue
/// count the observed shed and fall back to a blocking send. Only called
/// from the ordered-flush sweep, in ascending watermark order — which is
/// exactly what makes its blocking send deadlock-safe.
fn ship(
    tx: &Sender<Vec<IngestMsg>>,
    mut msgs: Vec<IngestMsg>,
    shed: bool,
    sheds: &mut u64,
    inflight: &AtomicI64,
    depth: usize,
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
    /// Publishes one decided record: panic-point check first (mirroring
    /// the offline `OutcomeRecorder` — the scorer has observed the record
    /// but no outcome escapes), then histogram + outcome buffering. An
    /// armed panic drops the buffer with the worker — exactly the "died
    /// before delivering" prefix the supervisor's re-replay covers.
    fn publish(&mut self, msg: &IngestMsg, outcome: icgmm_cache::AccessOutcome, scored: bool) {
        if self.panic_at == Some(self.seen) {
            // resume_unwind skips the panic hook: an armed panic is an
            // expected, supervisor-recovered event, not stderr noise.
            resume_unwind(Box::new(format!(
                "fault-plan armed panic at shard-local record {}",
                self.seen
            )));
        }
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
    comp_depth: usize,
) -> WorkerDone {
    let mut cache = SetAssocCache::new(cache_cfg).expect("geometry validated by serve()");
    let ev_name = pol.eviction.name().to_string();
    let adm_name = pol.admission.name().to_string();
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
        comp: CompletionQueue::new(comp_depth, latency),
    };
    loop {
        // Flush decided outcomes before a potential park (see
        // RecState::flush); a no-op when the buffer is empty.
        state.flush();
        let Ok(msgs) = rx.recv() else { break };
        inflight.fetch_sub(msgs.len() as i64, Ordering::Relaxed);
        for msg in msgs {
            if msg.gap > 0 {
                if let Some(sc) = pol.score.as_deref_mut() {
                    sc.observe_gap(msg.gap);
                }
            }
            let mut sref = pol
                .score
                .as_deref_mut()
                .map(|sc| sc as &mut dyn ScoreSource);
            let (outcome, score_val) = streaming_step(
                &msg.record,
                state.seen,
                &mut cache,
                pol.admission.as_mut(),
                pol.eviction.as_mut(),
                &mut sref,
            );
            state.publish(&msg, outcome, score_val.is_some());
        }
    }
    state.flush();
    WorkerDone {
        hist: state.hist,
        scored: state.scored,
        overlap: state.comp.finish(),
        ev_name,
        adm_name,
    }
}

/// Supervisor fallback for a dead shard: deterministically re-replay its
/// subtrace on the calling thread (panic disarmed) and
/// return every outcome stamped with its global position, plus the full
/// scored count. Runs over the same
/// zero-copy indexed views the worker used: each outcome's global
/// position is its index entry, and the scorer clock's gaps derive from
/// consecutive entries.
fn replay_shard_offline(
    warm: RecordsRef<'_>,
    meas: RecordsRef<'_>,
    index: &[u32],
    cache_cfg: CacheConfig,
    latency: &LatencyModel,
    mut pol: ShardPolicies,
) -> (Vec<SeqOutcome>, u64) {
    struct Collect<'a> {
        index: &'a [u32],
        outs: Vec<SeqOutcome>,
        scored: u64,
    }
    impl ReplayObserver for Collect<'_> {
        fn on_record(&mut self, ev: &ReplayEvent<'_>) {
            self.outs.push(SeqOutcome {
                seq: self.index[self.outs.len()] as u64,
                record: *ev.record,
                outcome: *ev.outcome,
            });
            self.scored += u64::from(ev.score.is_some());
        }
    }
    let mut cache = SetAssocCache::new(cache_cfg).expect("geometry validated by serve()");
    let mut collect = Collect {
        index,
        outs: Vec::with_capacity(index.len()),
        scored: 0,
    };
    match pol.score.as_mut() {
        Some(score) => {
            let mut gap_score = GapScore::from_index(score.as_mut(), index);
            simulate_streaming_observed_records(
                warm,
                meas,
                &mut cache,
                pol.admission.as_mut(),
                pol.eviction.as_mut(),
                Some(&mut gap_score),
                latency,
                None,
                &mut collect,
            );
        }
        None => {
            simulate_streaming_observed_records(
                warm,
                meas,
                &mut cache,
                pol.admission.as_mut(),
                pol.eviction.as_mut(),
                None,
                latency,
                None,
                &mut collect,
            );
        }
    }
    (collect.outs, collect.scored)
}

/// Human-readable panic payload (mirrors the offline engine's handling).
fn panic_payload(p: Box<dyn std::any::Any + Send>) -> String {
    match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::bounded;

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
                    gap: 0,
                    t_submit: Instant::now(),
                })
                .collect::<Vec<_>>()
        };
        // Occupy the single slot with 40 records: 24 records of headroom
        // remain at the configured 64-record depth.
        let mut sheds = 0u64;
        ship(&tx, mk(40), true, &mut sheds, &infl, depth);
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
