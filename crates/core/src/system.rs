//! The end-to-end ICGMM system: fit (offline GMM training, paper §3) and
//! run (online cache simulation with the chosen policy, paper §5).
//!
//! The four replay front-ends (`run`, `run_sharded`, `serve`,
//! `run_dataflow`) build their per-shard policy/scorer/fault stack through
//! one private `Assembly` and differ only in the engine they hand it to.
//! Each replays inside one `std::thread::scope`, into which an armed
//! adaptation plan spawns every shard's refit producer.

use crate::config::{IcgmmConfig, PolicyMode};
use crate::engine::{GmmPolicyEngine, TrainedModel};
use crate::error::IcgmmError;
use crate::online::AdaptiveEngine;
use icgmm_cache::{
    AdaptPlan, BeladyPolicy, FaultyScore, GmmScorePolicy, LatencyModel, LruPolicy, Policy,
    ScoreSource, ShardCtx, ShardPartition, ShardPolicies, ShardedSimulator, SimReport,
    ThresholdAdmit,
};
use icgmm_gmm::{calibrate_threshold, EmReport, EmTrainer, StandardScaler};
use icgmm_hw::{DataflowConfig, DataflowReport};
use icgmm_serve::{CacheServer, ServeConfig, ServeReport};
use icgmm_trace::{training_cells, Trace, TraceRecord};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use std::thread::{self, Scope};

/// A replay that may pick its shard count ([`Icgmm::run`]) fans out to
/// `FANOUT_SHARDS`, the count measured here (2 vCPUs; each shard holds its
/// own sets' rows and walks the whole slice), when a second core is there,
/// the slice holds `FANOUT_MIN` records or more and, under the odd mask
/// that splits them most evenly ([`ShardPartition::balanced`]), the busier
/// shard owns at most 5 / 8 (LRU) or 6 / 8 (modes doing more per record)
/// of every `(len / FANOUT_SAMPLES) | 1`-th record (odd: no parity
/// aliasing with a period of the trace). Two shards against one (medians):
/// LRU reads 1.6–2.4× at 4 096 records, 1.15–1.4× at 16–32 k, 0.6–1.6× at
/// 64–128 k, GMM 0.78–1.19× at 4 096, 0.56–0.80× at 16–64 k. At 1.2 M
/// records split 51.5 / 48.5 (`dlrm`) LRU 0.67×, GMM 0.59–0.69×; 72–73 /
/// 27–28 (`memtier`, `hashmap` under `set mod 2`) LRU 0.90–0.99×, GMM
/// 0.83–0.89×; 52 / 48 and 56 / 44 (the same under the sampled mask) LRU
/// 0.83× and 0.90× (benchmark `replay_lru_cost_x`, 1.52 → 1.26 and 1.59 →
/// 1.43); `dlrm` skewed to 66 / 76 / 86 % LRU 0.80 / 0.92 / 0.91×, GMM
/// 0.76 / 0.71 / 0.90×, Belady ≤ 0.87×.
const FANOUT_MIN: usize = 65_536;
const FANOUT_SHARDS: usize = 2;
const FANOUT_SAMPLES: usize = 4_096;

/// The host's core count, read once per process: the query parses cgroup
/// files and allocates on every call (≈ 13 µs and ≈ 0.5 KiB).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Summary of one `fit` (offline training) invocation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FitSummary {
    /// Records remaining after trimming.
    pub records_used: usize,
    /// Deduplicated `(page, window)` training cells before subsampling.
    pub cells_total: usize,
    /// Cells actually used for EM.
    pub cells_trained: usize,
    /// EM convergence report.
    pub em: EmReport,
}

/// Result of one policy run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Which policy produced this.
    pub mode: PolicyMode,
    /// Simulator output (miss rates, latency).
    pub sim: SimReport,
    /// Policy-engine inferences performed: exactly one per scored miss
    /// (0 for score-free modes).
    pub gmm_inferences: u64,
    /// Benchmark façade — read by `icgmm_bench`; deleted by the benchmark
    /// PR that retires the `cache.batch.*` probes. Always `None`.
    #[doc(hidden)]
    pub spec: Option<icgmm_cache::SpecStats>,
}

impl RunReport {
    /// Miss rate in percent.
    pub fn miss_rate_pct(&self) -> f64 {
        self.sim.miss_rate_pct()
    }

    /// Average access latency in µs.
    pub fn avg_us(&self) -> f64 {
        self.sim.avg_us
    }
}

/// The one replay assembly: what it takes to build any shard's
/// policy/scorer/fault stack — the mode's engine, the configuration's
/// fault plan, an adaptation plan and the trimmed trace — and how many
/// shards replay it. Empty plans install no wrapper — and an empty
/// adaptation plan spawns no producer — so disabled features stay
/// bit-identical. It keeps nothing per shard: a shard's counters are fields
/// of its own stack, which whoever replays it reads through
/// [`ScoreSource::telemetry`].
struct Assembly<'a> {
    sys: &'a Icgmm,
    mode: PolicyMode,
    engine: Option<GmmPolicyEngine>,
    adapt: AdaptPlan,
    /// The rule the replay's shards are routed by.
    part: ShardPartition,
    /// Warm-up ⧺ measured (the trace minus its trimmed tail).
    records: &'a [TraceRecord],
    /// Where the measured middle starts: the warm-up before it is replayed
    /// through cache, policy and the Algorithm 1 clock, not counted.
    measured_from: usize,
}

impl<'a> Assembly<'a> {
    /// Builds one shard's policy, scorer clone and fault/adapt wrappers,
    /// spawning the shard's refit producer into `scope` when the adaptation
    /// plan is armed. Runs on whichever thread replays the shard.
    fn shard<'scope>(&self, ctx: &ShardCtx<'_>, scope: &'scope Scope<'scope, '_>) -> ShardPolicies
    where
        'a: 'scope,
    {
        let cfg = &self.sys.cfg;
        // A shard's policy holds its own sets' rows only.
        let (sets, ways) = (ctx.rows(), cfg.cache.ways);
        let threshold = Some(ThresholdAdmit {
            threshold: self.sys.model.as_ref().map_or(0.0, |m| m.threshold),
            admit_writes_always: cfg.admit_writes_always,
        });
        let gmm = || GmmScorePolicy::new(sets, ways);
        let policy = match self.mode {
            PolicyMode::Lru => Policy::lru(sets, ways),
            // The oracle sees exactly this shard's subsequence (its
            // positions are the shard-local sequence numbers the replay
            // presents), built straight off the trace.
            PolicyMode::Belady => Policy::new(
                None,
                BeladyPolicy::from_pages(ctx.records().map(|r| r.page().raw()), sets, ways),
            ),
            PolicyMode::GmmCachingOnly => Policy::new(threshold, LruPolicy::new(sets, ways)),
            PolicyMode::GmmEvictionOnly => Policy::new(None, gmm()),
            PolicyMode::GmmCachingEviction => Policy::new(threshold, gmm()),
        };
        // An armed adaptation plan has the shard's engine clone follow the
        // online refit loop, which runs ahead on its own thread over the
        // whole slice (every shard takes one shard's decisions).
        let mut score: Option<Box<dyn ScoreSource + Send>> = match &self.engine {
            None => None,
            Some(e) if self.adapt.is_empty() => Some(Box::new(e.clone())),
            Some(e) => {
                let model = self.sys.model.as_ref();
                let gmm = &model.expect("a GMM engine implies a trained model").gmm;
                let walk = (0..).zip(self.records);
                let adaptive =
                    AdaptiveEngine::spawn(scope, e.clone(), gmm, cfg.em, self.adapt, walk);
                Some(Box::new(
                    adaptive.expect("adapt plan validated by IcgmmConfig"),
                ))
            }
        };
        // An armed fault plan passes the scores through the injector and
        // its health monitor (per shard, so degradation transitions stay
        // deterministic). The policy is never wrapped: a score that is not
        // to be trusted reaches it as no score.
        let plan = self.sys.cfg.fault;
        if plan.scorer_armed() || plan.monitor_armed() {
            score = score.map(|s| Box::new(FaultyScore::new(s, plan)) as _);
        }
        ShardPolicies { policy, score }
    }
}

/// `(records_used, cells_total, xs, ws)`: the [`FitSummary`] counts, then
/// the kept cells' unscaled `(page, time)` points and their weights.
type Sample = (usize, usize, Vec<[f64; 2]>, Vec<f64>);

/// What [`Icgmm::fit`] trains on and [`Icgmm::calibrate`] scores: the
/// Algorithm 1 cells of `trace`'s kept middle under `cfg`, uniformly
/// subsampled to `max_train_cells`.
fn training_sample(cfg: &IcgmmConfig, trace: &Trace) -> Result<Sample, IcgmmError> {
    let (start, end) = cfg.preprocess.kept_range(trace.len());
    if start >= end {
        return Err(IcgmmError::EmptyTrace);
    }
    // The Algorithm 1 clock runs from the start of the trace; only the
    // kept middle contributes training cells (paper §3.1).
    let mut cells = training_cells(trace, &cfg.preprocess);
    let cells_total = cells.len();

    // Uniform subsample (weights ride along, so weighted EM on it
    // estimates the same mixture). Fisher–Yates swaps the same positions
    // whatever it shuffles: an index shuffle picks these cells, in order.
    if cells.len() > cfg.max_train_cells {
        let mut rng = StdRng::seed_from_u64(cfg.em.seed ^ 0x5EED_CE11);
        cells.shuffle(&mut rng);
        cells.truncate(cfg.max_train_cells);
    }

    let (xs, ws) = cells
        .iter()
        .map(|c| ([c.page as f64, f64::from(c.time)], f64::from(c.weight)))
        .unzip();
    Ok((end - start, cells_total, xs, ws))
}

/// The ICGMM system: configuration + (after [`Icgmm::fit`]) a trained
/// policy engine.
///
/// ```no_run
/// use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
/// use icgmm_trace::synth::{Workload, WorkloadKind};
///
/// let trace = WorkloadKind::Memtier.default_workload().generate(200_000, 1);
/// let mut sys = Icgmm::new(IcgmmConfig::default())?;
/// sys.fit(&trace)?;
/// let lru = sys.run(&trace, PolicyMode::Lru)?;
/// let gmm = sys.run(&trace, PolicyMode::GmmCachingEviction)?;
/// assert!(gmm.miss_rate_pct() <= lru.miss_rate_pct());
/// # Ok::<(), icgmm::IcgmmError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Icgmm {
    cfg: IcgmmConfig,
    model: Option<TrainedModel>,
    /// The summary [`Icgmm::fit`] returns a reference to.
    fit: Option<FitSummary>,
}

impl Icgmm {
    /// Creates an untrained system.
    ///
    /// # Errors
    ///
    /// Returns [`IcgmmError::Config`] for invalid configuration.
    pub fn new(cfg: IcgmmConfig) -> Result<Self, IcgmmError> {
        cfg.validate()?;
        Ok(Icgmm {
            cfg,
            model: None,
            fit: None,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &IcgmmConfig {
        &self.cfg
    }

    /// The trained model, if any.
    pub fn model(&self) -> Option<&TrainedModel> {
        self.model.as_ref()
    }

    /// Installs an externally trained model (e.g. deserialized from disk).
    pub fn set_model(&mut self, model: TrainedModel) {
        self.model = Some(model);
    }

    /// Offline training (paper §3): trim the trace, extract weighted
    /// `(page, window)` cells, subsample, standardize, run EM, then
    /// calibrate the admission threshold on the same sample.
    ///
    /// # Errors
    ///
    /// [`IcgmmError::EmptyTrace`] when nothing survives trimming, or a
    /// wrapped GMM error from EM or the threshold calibration.
    pub fn fit(&mut self, trace: &Trace) -> Result<&FitSummary, IcgmmError> {
        let (records_used, cells_total, mut xs, ws) = training_sample(&self.cfg, trace)?;
        let scaler = StandardScaler::fit(&xs, &ws);
        scaler.transform_all(&mut xs);

        let (gmm, em) = EmTrainer::new(self.cfg.em)?.fit(&xs, &ws)?;
        let threshold = calibrate_threshold(&gmm, &xs, &ws, self.cfg.admission_quantile)?;
        self.model = Some(TrainedModel {
            scaler,
            gmm,
            threshold,
        });
        Ok(self.fit.insert(FitSummary {
            records_used,
            cells_total,
            cells_trained: xs.len(),
            em,
        }))
    }

    /// Re-derives the installed model's admission threshold at the
    /// configuration's `admission_quantile` over `trace`'s training sample,
    /// scored in the model's own coordinates (its scaler), without running
    /// EM. After [`Icgmm::fit`] on the same trace under a configuration that
    /// differs only in the quantile, the model is bit-identical to the one
    /// `fit` at this quantile trains.
    ///
    /// # Errors
    ///
    /// [`IcgmmError::NotFitted`] with no model installed,
    /// [`IcgmmError::EmptyTrace`] when nothing survives trimming, or a
    /// wrapped GMM error from the calibration.
    pub fn calibrate(&mut self, trace: &Trace) -> Result<f64, IcgmmError> {
        let model = self.model.as_mut().ok_or(IcgmmError::NotFitted)?;
        let (_, _, mut xs, ws) = training_sample(&self.cfg, trace)?;
        model.scaler.transform_all(&mut xs);
        model.threshold = calibrate_threshold(&model.gmm, &xs, &ws, self.cfg.admission_quantile)?;
        Ok(model.threshold)
    }

    /// Builds a fresh policy engine from the trained model.
    ///
    /// # Errors
    ///
    /// [`IcgmmError::NotFitted`] before `fit`.
    pub fn policy_engine(&self) -> Result<GmmPolicyEngine, IcgmmError> {
        let model = self.model.as_ref().ok_or(IcgmmError::NotFitted)?;
        Ok(GmmPolicyEngine::new(
            model,
            &self.cfg.preprocess,
            self.cfg.fixed_point_inference,
        )?)
    }

    /// The shared prologue of every replay front-end: build the mode's
    /// engine, trim the trace's tail, and fix the partition — `set mod
    /// shards`, or with `None` the sampled two-shard rule when the report
    /// cannot depend on the count and two shards pay (see [`FANOUT_MIN`]),
    /// else one shard.
    fn assemble<'a>(
        &'a self,
        trace: &'a Trace,
        mode: PolicyMode,
        adapt: AdaptPlan,
        shards: Option<usize>,
    ) -> Result<Assembly<'a>, IcgmmError> {
        let engine = mode.uses_gmm().then(|| self.policy_engine()).transpose()?;
        let (start, end) = self.cfg.preprocess.kept_range(trace.len());
        let records = &trace.records()[..end];
        // Panic points and a GMM engine's health monitor are per shard; an
        // adaptive GMM replay runs a refit producer per shard, each over the
        // whole slice (`tenants_drift`, 2 vCPUs: 1.15–1.5× one shard's time).
        let fault = &self.cfg.fault;
        let gmm = engine.is_some();
        let one = fault.shard_armed() || gmm && (fault.monitor_armed() || !adapt.is_empty());
        let fan = !one && shards.is_none() && end >= FANOUT_MIN && cores() >= FANOUT_SHARDS;
        let part = match fan.then(|| self.balanced(mode, records)).flatten() {
            Some(part) => part,
            None => ShardPartition::new(shards.unwrap_or(1), &self.cfg.cache)?,
        };
        Ok(Assembly {
            sys: self,
            mode,
            engine,
            adapt,
            part,
            records,
            measured_from: start,
        })
    }

    /// The two-shard rule that splits a sample of `records` most evenly,
    /// if its busier shard owns little enough of the sample for `mode`.
    fn balanced(&self, mode: PolicyMode, records: &[TraceRecord]) -> Option<ShardPartition> {
        let sample = records.iter().step_by((records.len() / FANOUT_SAMPLES) | 1);
        let (part, split) = ShardPartition::balanced(&self.cfg.cache, sample.map(|r| r.page()))
            .expect("validated geometry");
        let eighths = if mode == PolicyMode::Lru { 5 } else { 6 };
        (8 * split.busiest <= eighths * split.sampled).then_some(part)
    }

    /// The partition [`Icgmm::run`] replays `mode` over `trace` on: one
    /// shard, or two routed by the sampled rule (see [`Icgmm::run`]).
    ///
    /// # Errors
    ///
    /// As for [`Icgmm::run`], before any replay.
    pub fn replay_partition(
        &self,
        trace: &Trace,
        mode: PolicyMode,
    ) -> Result<ShardPartition, IcgmmError> {
        Ok(self.assemble(trace, mode, self.cfg.adapt, None)?.part)
    }

    /// Runs one policy mode over the (trimmed) trace with the analytic
    /// latency model — the paper's Fig. 6 / Table 1 measurement.
    ///
    /// This is [`Icgmm::run_sharded`]'s replay, one single-point
    /// policy-engine inference per miss as in the paper's Algorithm 1
    /// datapath, on two shards when a second core is there, the report
    /// cannot depend on the count (no shard panic point, no GMM engine
    /// under a health monitor), two shards pay (not an adaptive GMM replay,
    /// whose refit producers each walk the slice; a long slice, 64 Ki
    /// records, even enough between the shards), routed by the odd mask a
    /// sample of the slice chose
    /// ([`Icgmm::replay_partition`]) — bit-identical to one shard by the
    /// sharding argument, which holds for any set partition.
    /// Otherwise it is the one-shard geometry, inline on the calling
    /// thread. An armed `shard_panic_per_mille` point is caught, the trace
    /// re-replayed once with it disarmed, and the event counted in
    /// `FaultStats::{shard_panics, shard_recoveries}`; the functional
    /// report is bit-identical to an undisturbed run. Armed device faults
    /// lengthen `total_us` by the same attoseconds at every shard count.
    ///
    /// # Errors
    ///
    /// [`IcgmmError::NotFitted`] if `mode.uses_gmm()` and the system is
    /// untrained; cache-geometry errors otherwise;
    /// [`IcgmmError::ShardFailed`] when the replay panics and the
    /// re-replay panics too.
    pub fn run(&self, trace: &Trace, mode: PolicyMode) -> Result<RunReport, IcgmmError> {
        self.run_with_latency(trace, mode, &self.cfg.latency)
    }

    /// [`Icgmm::run`] with an explicit latency model (SSD sweeps).
    ///
    /// # Errors
    ///
    /// As for [`Icgmm::run`], plus [`IcgmmError::Config`] when `latency`
    /// fails [`LatencyModel::validate`].
    pub fn run_with_latency(
        &self,
        trace: &Trace,
        mode: PolicyMode,
        latency: &LatencyModel,
    ) -> Result<RunReport, IcgmmError> {
        self.replay(trace, mode, latency, None, self.cfg.adapt)
    }

    /// [`Icgmm::run`] with the cache partitioned by set index into exactly
    /// the configuration's `sim_shards` independent shards (the sharding
    /// study), replayed on scoped threads, their counters added up.
    ///
    /// Each shard owns the sets congruent to its index, with its own
    /// policy state and its own policy-engine clone on the *global*
    /// Algorithm 1 clock (every record carries its trace position), and a
    /// report is counters with modeled time derived from them, so the
    /// summed [`RunReport::sim`] is **bit-identical** to [`Icgmm::run`]'s
    /// for every shard count, under every latency model — enforced by the differential suite in
    /// `tests/shard_differential.rs` and the property grid in
    /// `crates/cache/tests/shard_equivalence.rs`, adaptation and device
    /// faults included; only a GMM engine's health monitor keeps per-shard
    /// state. `gmm_inferences` counts the inferences the sharded replay
    /// actually performed — one per scored miss, the single-threaded count.
    /// At `sim_shards = 1` it replays inline on the calling thread.
    ///
    /// # Errors
    ///
    /// As for [`Icgmm::run`].
    pub fn run_sharded(&self, trace: &Trace, mode: PolicyMode) -> Result<RunReport, IcgmmError> {
        let shards = Some(self.cfg.sim_shards);
        self.replay(trace, mode, &self.cfg.latency, shards, self.cfg.adapt)
    }

    /// The offline replay, on `shards` shards or the assembly's choice.
    fn replay(
        &self,
        trace: &Trace,
        mode: PolicyMode,
        latency: &LatencyModel,
        shards: Option<usize>,
        adapt: AdaptPlan,
    ) -> Result<RunReport, IcgmmError> {
        latency.validate().map_err(IcgmmError::Config)?;
        let asm = self.assemble(trace, mode, adapt, shards)?;
        let engine = ShardedSimulator::partitioned(asm.part).with_faults(self.cfg.fault);
        let (records, from) = (asm.records, asm.measured_from);
        let rep = thread::scope(|scope| {
            let make_shard = |ctx: &ShardCtx<'_>| asm.shard(ctx, scope);
            engine.run(records, from, self.cfg.cache, &make_shard, latency, None)
        })?;
        Ok(RunReport {
            mode,
            sim: rep.sim,
            gmm_inferences: rep.scores_consumed,
            spec: None,
        })
    }

    /// Serves the (trimmed) trace through the concurrent
    /// [`icgmm_serve::CacheServer`]: `serve_clients` submitter threads
    /// feed `sim_shards` shard workers through bounded ingestion queues of
    /// depth `serve_queue_depth`, each worker runs [`Icgmm::run_sharded`]'s
    /// shard replay over what its queue delivers — deciding and counting
    /// per request — and the report is their counters added up at join.
    ///
    /// The semantic half of the returned [`ServeReport`] (`sim`,
    /// `scores_consumed`) is **bit-identical** to [`Icgmm::run_sharded`]
    /// over the same trace and mode — concurrency buys throughput and
    /// costs latency, never decisions (`tests/serve_differential.rs`
    /// holds the line). On top, the report carries what an offline replay
    /// cannot measure: requests/sec at saturation and p50/p99
    /// admission-decision latencies.
    ///
    /// The configuration's [`FaultPlan`](icgmm_cache::FaultPlan) plugs in
    /// unchanged: shard-worker panics are supervisor-recovered
    /// mid-service, device faults ride each worker's accounting, scorer
    /// faults each worker's [`FaultyScore`] wrapper and its health monitor.
    ///
    /// # Errors
    ///
    /// As for [`Icgmm::run_sharded`] — serving runs on the same shard
    /// lifecycle ([`icgmm_cache::ShardSupervisor`]), so invalid geometry
    /// and [`IcgmmError::ShardFailed`] (a worker dies *and* the
    /// supervisor's re-replay dies too) are the same typed errors.
    pub fn serve(&self, trace: &Trace, mode: PolicyMode) -> Result<ServeReport, IcgmmError> {
        let asm = self.assemble(trace, mode, self.cfg.adapt, Some(self.cfg.sim_shards))?;
        let server = CacheServer::new(ServeConfig {
            shards: asm.part.shards(),
            clients: self.cfg.serve_clients,
            queue_depth: self.cfg.serve_queue_depth,
            fault: self.cfg.fault,
        })?;
        let (cache, latency) = (self.cfg.cache, &self.cfg.latency);
        let (records, from) = (asm.records, asm.measured_from);
        let served = thread::scope(|scope| {
            let make_shard = |ctx: &ShardCtx<'_>| asm.shard(ctx, scope);
            server.serve(records, from, cache, &make_shard, latency, None)
        });
        Ok(served?)
    }

    /// Runs one mode under the latency model the cycle-level hardware
    /// engines amount to ([`DataflowConfig::latency`]) instead of the
    /// analytic constants, and reports the SSD traffic, engine busy time
    /// and overlap saving that go with it ([`DataflowReport::from_sim`]).
    ///
    /// Host replay is [`Icgmm::run`]'s replay under that model (and the
    /// frozen model, below, which may fan out unless a health monitor or a
    /// shard panic point is armed), so the configuration's
    /// [`FaultPlan`](icgmm_cache::FaultPlan) applies as on every front-end:
    /// device faults lengthen the makespan, scorer faults and recovered
    /// shard panics land in the report's fault block. Setting
    /// `IcgmmConfig::latency = DataflowConfig::default().latency()` gives
    /// [`Icgmm::run`], [`Icgmm::run_sharded`] and [`Icgmm::serve`] the same
    /// modeled time, `total_us` equal to this report's `makespan_us`.
    ///
    /// This front-end replays the **frozen** model: it hands the assembly
    /// an empty [`AdaptPlan`], so an armed `IcgmmConfig::adapt` is ignored
    /// and the report's stats equal [`Icgmm::run`]'s with the plan cleared
    /// — the repository benchmark checks exactly that equality, so only a
    /// benchmark PR may change it. For modeled dataflow time under live
    /// refits use the route above.
    ///
    /// # Errors
    ///
    /// As for [`Icgmm::run`], plus [`IcgmmError::Config`] when `config`'s
    /// engines derive a latency that is negative, NaN or 2^64 as or more
    /// (a 0 MHz clock, a NaN SSD profile, a 1e300 µs read).
    pub fn run_dataflow(
        &self,
        trace: &Trace,
        mode: PolicyMode,
        config: &DataflowConfig,
    ) -> Result<DataflowReport, IcgmmError> {
        let latency = config.latency();
        let rep = self.replay(trace, mode, &latency, None, AdaptPlan::empty())?;
        Ok(DataflowReport::from_sim(&rep.sim, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_cache::{CacheConfig, FaultPlan};
    use icgmm_gmm::EmConfig;
    use icgmm_trace::synth::WorkloadKind;
    use icgmm_trace::{Op, PreprocessConfig};

    /// A small config that trains in milliseconds.
    fn small_cfg() -> IcgmmConfig {
        IcgmmConfig {
            cache: CacheConfig {
                capacity_bytes: 256 * 4096,
                block_bytes: 4096,
                ways: 8,
            },
            em: EmConfig {
                k: 16,
                max_iters: 20,
                ..Default::default()
            },
            preprocess: PreprocessConfig {
                len_window: 32,
                len_access_shot: 1_000,
                ..Default::default()
            },
            max_train_cells: 20_000,
            ..Default::default()
        }
    }

    #[test]
    fn gmm_modes_require_fit() {
        let sys = Icgmm::new(small_cfg()).unwrap();
        let trace = WorkloadKind::Memtier.default_workload().generate(5_000, 1);
        let err = sys.run(&trace, PolicyMode::GmmCachingOnly).unwrap_err();
        assert!(matches!(err, IcgmmError::NotFitted));
        // Score-free modes work untrained.
        assert!(sys.run(&trace, PolicyMode::Lru).is_ok());
        assert!(sys.run(&trace, PolicyMode::Belady).is_ok());
    }

    #[test]
    fn fit_then_run_all_fig6_modes() {
        let mut sys = Icgmm::new(small_cfg()).unwrap();
        let trace = WorkloadKind::Memtier.default_workload().generate(60_000, 2);
        let fit = sys.fit(&trace).unwrap().clone();
        assert!(fit.cells_trained > 0);
        assert!(fit.cells_trained <= fit.cells_total);
        assert!(sys.model().unwrap().threshold.is_finite());

        for mode in PolicyMode::fig6_modes() {
            let rep = sys.run(&trace, mode).unwrap();
            assert_eq!(rep.mode, mode);
            assert!(rep.sim.stats.accesses() > 0);
            if mode.uses_gmm() {
                assert!(rep.gmm_inferences > 0, "{mode} did not use the engine");
            } else {
                assert_eq!(rep.gmm_inferences, 0);
            }
        }
    }

    #[test]
    fn belady_bounds_every_other_policy() {
        let mut sys = Icgmm::new(small_cfg()).unwrap();
        let trace = WorkloadKind::Memtier.default_workload().generate(50_000, 3);
        sys.fit(&trace).unwrap();
        let belady = sys.run(&trace, PolicyMode::Belady).unwrap();
        for mode in [PolicyMode::Lru, PolicyMode::GmmEvictionOnly] {
            let rep = sys.run(&trace, mode).unwrap();
            assert!(
                belady.miss_rate_pct() <= rep.miss_rate_pct() + 1e-9,
                "belady {} vs {mode} {}",
                belady.miss_rate_pct(),
                rep.miss_rate_pct()
            );
        }
    }

    #[test]
    fn run_sharded_is_bit_identical_to_run_for_every_mode_and_shard_count() {
        let mut base = small_cfg();
        base.em.k = 64;
        let trace = WorkloadKind::Memtier
            .default_workload()
            .generate(30_000, 17);
        let mut reference_sys = Icgmm::new(base).unwrap();
        reference_sys.fit(&trace).unwrap();
        let model = reference_sys.model().expect("fitted").clone();
        let modes = [
            PolicyMode::Lru,
            PolicyMode::Belady,
            PolicyMode::GmmCachingOnly,
            PolicyMode::GmmEvictionOnly,
            PolicyMode::GmmCachingEviction,
        ];
        for mode in modes {
            let reference = reference_sys.run(&trace, mode).unwrap();
            for shards in [1usize, 2, 4, 8] {
                let mut cfg = base;
                cfg.sim_shards = shards;
                let mut sys = Icgmm::new(cfg).unwrap();
                sys.set_model(model.clone());
                let sharded = sys.run_sharded(&trace, mode).unwrap();
                assert_eq!(
                    reference.sim, sharded.sim,
                    "{mode} diverged at {shards} shards"
                );
                if shards == 1 {
                    // One shard *is* `run`: the whole report is equal.
                    assert_eq!(reference, sharded, "{mode}");
                }
                if mode.uses_gmm() {
                    assert!(sharded.gmm_inferences > 0, "{mode} at {shards} shards");
                }
            }
        }
    }

    #[test]
    fn only_a_replay_that_cannot_tell_and_splits_evenly_fans_out() {
        let n = FANOUT_MIN * 10 / 9 + 10;
        let mut sys = Icgmm::new(small_cfg()).unwrap();
        sys.fit(&WorkloadKind::Memtier.default_workload().generate(n, 6))
            .unwrap();
        let model = sys.model().unwrap().clone();
        let trace = |page: &dyn Fn(usize) -> u64| {
            let records = (0..n).map(|i| TraceRecord::new(Op::Read, page(i) << 12));
            Trace::from_records(records.collect())
        };
        // Seven tenths of the records on even sets: `set mod 2` would give
        // shard 0 70 %, a mask with a higher bit splits both parities.
        let even = trace(&|i| 2 * (i % 1_000) as u64 + u64::from(i % 10 >= 7));
        // `tenths` of the records on one set (32 sets), the rest spread
        // over all of them: no mask splits a set, so one shard owns about
        // `tenths / 10 + (1 - tenths / 10) / 2` of the trace.
        let hot = |tenths: usize| {
            trace(&|i| {
                if i % 10 < tenths {
                    32 * (i % 7) as u64
                } else {
                    (i % 1_000) as u64
                }
            })
        };
        let (seventy, eighty) = (hot(4), hot(6));
        let short = Trace::from_records(even.records()[..FANOUT_MIN].to_vec());
        let two = cores().min(FANOUT_SHARDS);
        let adapt = AdaptPlan::drifty(1);
        let monitor = FaultPlan {
            scorer_demote_after: 4,
            ..FaultPlan::empty()
        };
        let device = FaultPlan {
            device_fail_per_mille: 1,
            ..FaultPlan::empty()
        };
        let panics = FaultPlan {
            shard_panic_per_mille: 1,
            ..FaultPlan::empty()
        };
        let none = (FaultPlan::empty(), AdaptPlan::empty());
        let (gmm, lru, belady) = (
            PolicyMode::GmmCachingEviction,
            PolicyMode::Lru,
            PolicyMode::Belady,
        );
        for ((fault, adapt), mode, trace, want) in [
            (none, gmm, &even, two),
            ((FaultPlan::chaos(1), AdaptPlan::empty()), belady, &even, 1),
            ((device, AdaptPlan::empty()), lru, &even, two),
            ((device, AdaptPlan::empty()), gmm, &even, two),
            ((FaultPlan::empty(), adapt), gmm, &even, 1),
            ((FaultPlan::empty(), adapt), lru, &even, two),
            ((monitor, AdaptPlan::empty()), gmm, &even, 1),
            ((monitor, adapt), belady, &even, two),
            ((panics, AdaptPlan::empty()), lru, &even, 1),
            (none, gmm, &short, 1),
            (none, gmm, &seventy, two),
            (none, lru, &seventy, 1),
            (none, belady, &eighty, 1),
        ] {
            let mut sys = Icgmm::new(IcgmmConfig {
                fault,
                adapt,
                ..small_cfg()
            })
            .unwrap();
            sys.set_model(model.clone());
            let free = sys.assemble(trace, mode, adapt, None).unwrap();
            assert_eq!(free.part.shards(), want, "{mode} {fault:?} {adapt:?}");
            // `run_sharded` and `serve` keep the configured count.
            let fixed = sys.assemble(trace, mode, adapt, Some(3)).unwrap();
            assert_eq!(fixed.part.shards(), 3);
        }
    }

    #[test]
    fn empty_trace_fit_fails_cleanly() {
        let mut sys = Icgmm::new(small_cfg()).unwrap();
        assert!(matches!(
            sys.fit(&Trace::new()),
            Err(IcgmmError::EmptyTrace)
        ));
    }

    #[test]
    fn dataflow_and_analytic_agree_functionally() {
        let mut sys = Icgmm::new(small_cfg()).unwrap();
        let trace = WorkloadKind::Memtier.default_workload().generate(30_000, 4);
        sys.fit(&trace).unwrap();
        let a = sys.run(&trace, PolicyMode::GmmCachingEviction).unwrap();
        let d = sys
            .run_dataflow(
                &trace,
                PolicyMode::GmmCachingEviction,
                &DataflowConfig::default(),
            )
            .unwrap();
        assert_eq!(a.sim.stats, d.stats, "functional divergence");
        let rel = (d.avg_request_us - a.avg_us()).abs() / a.avg_us().max(1e-9);
        assert!(rel < 0.05, "latency divergence {rel}");
    }

    #[test]
    fn hostile_latency_constants_are_config_errors() {
        let trace = WorkloadKind::Memtier.default_workload().generate(2_000, 4);
        let sys = Icgmm::new(small_cfg()).unwrap();
        let mut stopped_clock = DataflowConfig::default();
        stopped_clock.cache_engine.clock.mhz = 0.0;
        let mut nan_engine = DataflowConfig::default();
        nan_engine.gmm_engine.clock.mhz = f64::NAN;
        let mut negative_ssd = DataflowConfig::default();
        negative_ssd.ssd.read_us = -75.0;
        let mut infinite_ssd = DataflowConfig::default();
        infinite_ssd.ssd.write_us = f64::INFINITY;
        let max = crate::config::tests::largest_admitted_us();
        let ssd = |read_us| {
            let mut df = DataflowConfig::default();
            df.ssd.read_us = read_us;
            df
        };
        for (what, df) in [
            ("0 MHz cache engine", stopped_clock),
            ("NaN MHz GMM engine", nan_engine),
            ("negative SSD read", negative_ssd),
            ("infinite SSD write", infinite_ssd),
            ("1e300 µs SSD read", ssd(1e300)),
            ("f64::MAX µs SSD read", ssd(f64::MAX)),
            ("2^64 as SSD read", ssd(max.next_up())),
        ] {
            assert!(
                matches!(
                    sys.run_dataflow(&trace, PolicyMode::Lru, &df),
                    Err(IcgmmError::Config(_))
                ),
                "{what} accepted"
            );
        }
        // The largest admitted read replays; `run_with_latency` refuses
        // what `run_dataflow` refuses.
        assert!(sys.run_dataflow(&trace, PolicyMode::Lru, &ssd(max)).is_ok());
        let latency = ssd(max.next_up()).latency();
        let swept = sys.run_with_latency(&trace, PolicyMode::Lru, &latency);
        assert!(matches!(swept, Err(IcgmmError::Config(_))));
    }

    #[test]
    fn fixed_point_mode_runs_and_stays_close() {
        let mut cfg = small_cfg();
        let trace = WorkloadKind::Memtier.default_workload().generate(40_000, 5);
        let mut f64_sys = Icgmm::new(cfg).unwrap();
        f64_sys.fit(&trace).unwrap();
        cfg.fixed_point_inference = true;
        let mut fx_sys = Icgmm::new(cfg).unwrap();
        fx_sys.fit(&trace).unwrap();
        let a = f64_sys.run(&trace, PolicyMode::GmmCachingEviction).unwrap();
        let b = fx_sys.run(&trace, PolicyMode::GmmCachingEviction).unwrap();
        // Quantization may flip a few marginal decisions, not the outcome.
        assert!(
            (a.miss_rate_pct() - b.miss_rate_pct()).abs() < 1.0,
            "f64 {} vs fixed {}",
            a.miss_rate_pct(),
            b.miss_rate_pct()
        );
    }
}
