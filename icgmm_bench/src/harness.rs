//! The measurement protocol: set-up, timed rounds, threaded phases, layer
//! probes, correctness checks and the replay ledger.
//!
//! Everything here drives the repository's *public* API from the outside
//! and times whole calls. One process, closed loop: the next call starts
//! when the previous one returned, and no phase keeps more than two
//! threads busy (`run_sharded` at S = 2, `serve` at one client plus one
//! worker).

use crate::metrics::{median, Report, END_TO_END, PER_LAYER};
use crate::procfs;
use crate::spans::{Recorder, SpanId};
use crate::workloads::{Inputs, Size, WorkloadId};
use icgmm::benchmarks::paper_numbers;
use icgmm::{FitSummary, Icgmm, IcgmmConfig, PolicyMode, RunReport};
use icgmm_cache::{
    merge_streams, simulate_streaming_observed_with_warmup, simulate_streaming_with_warmup,
    AdaptPlan, AlwaysAdmit, CacheConfig, GmmScorePolicy, LruPolicy, OutcomeStream, ReplayEvent,
    ReplayObserver, ScoreSource, SeqOutcome, SetAssocCache, ShardPartition, SimReport, SpecStats,
    StreamingMerge, ThresholdAdmit, WindowedSimulator,
};
use icgmm_gmm::{IncrementalEm, Vec2};
use icgmm_hw::{DataflowConfig, DataflowReport};
use icgmm_lstm::{LstmArch, LstmNetwork};
use icgmm_trace::{extract_weighted_cells_range, TraceRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Display;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

pub struct Options {
    pub workload: WorkloadId,
    pub seed: u64,
    /// How long the timed rounds measure.
    pub seconds: f64,
    pub trace: bool,
    /// Where the run log and the span file go.
    pub out: PathBuf,
    pub size: Size,
}

pub struct Outcome {
    pub correct: bool,
    /// Records submitted to the program over all phases.
    pub attempted: u64,
    /// Records of phases that returned `Err`, serve sheds, failed refits.
    pub failed: u64,
    pub report: Report,
}

/// Set-up repetitions of the untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Calibration repetitions bracketing each `fit`, before and after.
const FIT_CALIB_REPS: usize = 3;
/// Fewest timed rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// LRU replays per round: one is too short to time against a 40 ms cu.
const LRU_REPS: usize = 4;
/// Repetitions of each threaded phase and of each layer probe.
const THREADED_REPS: usize = 2;
const PROBE_REPS: usize = 5;
/// Whole-replay probes repeat while they fit this budget, up to the cap.
const REPLAY_PROBE_BUDGET_S: f64 = 1.0;
const REPLAY_PROBE_MAX_REPS: usize = 7;
/// Batch / window length of the kernel and engine probes.
const PROBE_WINDOW: usize = 4096;
/// Cap on the scores one kernel or engine probe repetition computes (the
/// run's own inference count when that is smaller).
const PROBE_SCORES_MAX: usize = 64 * PROBE_WINDOW;
const SCALAR_PROBE_SCORES: usize = 8 * PROBE_WINDOW;
/// Reservoir-sized batch of the incremental-refit probe.
const REFIT_BATCH: usize = 2048;

/// The calibration loop: Σ exp(−x²/2) over a fixed array, a fixed number
/// of passes. Owned by the benchmark and never touched by the program
/// under test, so its wall time tracks only the machine's current speed.
/// One **cu** is its median wall time in this process.
struct Calib {
    xs: Vec<f64>,
    passes: usize,
    samples_s: Vec<f64>,
}

impl Calib {
    const POINTS: usize = 1_000_000;

    fn new(passes: usize) -> Self {
        let xs = (0..Self::POINTS)
            .map(|i| -3.0 + 6.0 * i as f64 / Self::POINTS as f64)
            .collect();
        Calib {
            xs,
            passes,
            samples_s: Vec::new(),
        }
    }

    fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..self.passes {
            for &x in black_box(&self.xs) {
                acc += (-0.5 * x * x).exp();
            }
        }
        black_box(acc);
        let s = t.elapsed().as_secs_f64();
        self.samples_s.push(s);
        s
    }
}

/// What one set-up produced.
struct Ready {
    inputs: Inputs,
    /// The system under test, fitted, with the workload's plans armed.
    sys: Icgmm,
    /// `tenants_drift` only: the same model with adaptation off — the arm
    /// `run_dataflow` (which takes no adapt plan) must agree with.
    frozen: Option<Icgmm>,
    fit: FitSummary,
    warm: RunReport,
    generate_s: f64,
    /// Wall time of the `Icgmm::fit` call alone.
    fit_s: f64,
    total_s: f64,
}

impl Ready {
    /// What one replay walks: the warm-up prefix and the measured middle
    /// (the trimmed tail is never replayed).
    fn phases(&self) -> (&[TraceRecord], &[TraceRecord]) {
        let (start, end) = self
            .inputs
            .cfg
            .preprocess
            .kept_range(self.inputs.trace.len());
        let records = self.inputs.trace.records();
        (&records[..start], &records[start..end])
    }
}

/// Wall times of the timed rounds plus the first report of each phase
/// (every later repetition must reproduce it exactly).
#[derive(Default)]
struct Rounds {
    replay_s: Vec<f64>,
    dataflow_s: Vec<f64>,
    /// Wall time of all `LRU_REPS` replays of a round together.
    lru_s: Vec<f64>,
    /// The same phases in calibration units.
    replay_x: Vec<f64>,
    dataflow_x: Vec<f64>,
    lru_x: Vec<f64>,
    replay: Option<RunReport>,
    dataflow: Option<DataflowReport>,
    lru: Option<RunReport>,
}

struct Harness<'a> {
    opts: &'a Options,
    rec: Recorder,
    calib: Calib,
    attempted: u64,
    failed: u64,
    correct: bool,
    round: u32,
    /// The span of the most recent `call`, for attaching its counts.
    last_call: Option<SpanId>,
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut h = Harness {
        opts,
        rec: Recorder::new(opts.trace),
        calib: Calib::new(opts.size.calib_passes),
        attempted: 0,
        failed: 0,
        correct: true,
        round: 0,
        last_call: None,
    };
    println!(
        "# icgmm_bench workload={} seed={} trace={} requests={} k={} max_train_cells={}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        opts.size.requests,
        opts.size.k,
        opts.size.max_train_cells
    );
    println!(
        "# closed loop, one process, at most 2 busy threads; available parallelism {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "# statistics start after the warm-up trim: caches are filled by the trimmed prefix (paper §3.1)"
    );
    let root = h.rec.open(opts.workload.name(), 0);
    let report = if opts.trace {
        h.traced()?
    } else {
        h.untraced()?
    };
    h.rec.close(root);
    report.print();
    if opts.trace {
        std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
        let path = opts
            .out
            .join(format!("trace_{}.json", opts.workload.name()));
        std::fs::write(&path, h.rec.to_json(opts.workload.name()).to_line() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}",
            h.rec.spans().len(),
            path.display()
        );
    }
    Ok(Outcome {
        correct: h.correct,
        attempted: h.attempted,
        failed: h.failed,
        report,
    })
}

impl Harness<'_> {
    fn check(&mut self, what: &str, ok: bool) {
        println!("# check {what}: {}", if ok { "ok" } else { "FAILED" });
        self.correct &= ok;
    }

    /// Times `f` under a span.
    fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.rec.open(name, self.round);
        let t = Instant::now();
        let out = f(self);
        let s = t.elapsed().as_secs_f64();
        self.rec.close(id);
        self.last_call = id;
        (out, s)
    }

    /// Attaches counts returned at a layer boundary to the span of the
    /// call that returned them.
    fn counts<const N: usize>(&mut self, counts: [(&str, f64); N]) {
        for (key, value) in counts {
            self.rec.count(self.last_call, key, value);
        }
    }

    /// Times one call into the program that submits `records` records.
    /// An `Err` counts every one of them as failed.
    fn call<T, E: Display>(
        &mut self,
        name: &str,
        records: usize,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<(T, f64)> {
        self.attempted += records as u64;
        let (result, s) = self.span(name, |_| f());
        match result {
            Ok(v) => Some((v, s)),
            Err(e) => {
                self.failed += records as u64;
                self.check(&format!("{name} returned Err({e})"), false);
                None
            }
        }
    }

    /// Repeats a probe (a timed call into one public function) and
    /// returns its wall times in seconds.
    fn probe(&mut self, name: &str, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
        (0..reps).map(|_| self.span(name, |_| f()).1).collect()
    }

    /// A probe whose cost depends on the workload (a whole replay: 0.1 s
    /// when hits dominate, 2 s when misses do): at least `min_reps`, then
    /// more while they fit in `REPLAY_PROBE_BUDGET_S`, so that the short
    /// ones get enough samples for a median.
    fn replay_probe(&mut self, name: &str, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
        let t = Instant::now();
        let mut walls = Vec::new();
        while walls.len() < min_reps
            || (walls.len() < REPLAY_PROBE_MAX_REPS
                && t.elapsed().as_secs_f64() < REPLAY_PROBE_BUDGET_S)
        {
            walls.push(self.span(name, |_| f()).1);
        }
        walls
    }

    fn calib(&mut self) -> f64 {
        self.span("calib", |h| h.calib.run()).1
    }

    /// Generate → `Icgmm::new` → `fit` → engine construction → one
    /// warm-up replay. The pieces are timed one by one so calibration
    /// runs in between stay out of `total_s`.
    fn setup(&mut self) -> Result<Ready, String> {
        let opts = self.opts;
        let (inputs, generate_s) = self.span("trace.synth.generate", |_| {
            opts.workload.generate(opts.seed, opts.size)
        });
        let ((sys, frozen, fit, fit_s), build_s) = {
            let t = Instant::now();
            let mut sys = Icgmm::new(inputs.cfg).map_err(|e| e.to_string())?;
            let fit_trace = inputs.fit_trace();
            let (fit, fit_s) = self
                .call("fit", fit_trace.len(), || sys.fit(fit_trace).cloned())
                .ok_or("fit failed")?;
            self.counts([
                ("cells_trained", fit.cells_trained as f64),
                ("em_iterations", fit.em.iterations as f64),
            ]);
            let frozen = if inputs.cfg.adapt.is_empty() {
                None
            } else {
                let mut frozen = Icgmm::new(IcgmmConfig {
                    adapt: AdaptPlan::empty(),
                    ..inputs.cfg
                })
                .map_err(|e| e.to_string())?;
                frozen.set_model(sys.model().expect("just fitted").clone());
                Some(frozen)
            };
            ((sys, frozen, fit, fit_s), t.elapsed().as_secs_f64())
        };
        let (warm, warm_s) = {
            let t = Instant::now();
            black_box(sys.policy_engine().map_err(|e| e.to_string())?);
            let (warm, _) = self
                .call("warmup", inputs.trace.len(), || {
                    sys.run(&inputs.trace, PolicyMode::GmmCachingEviction)
                })
                .ok_or("warm-up replay failed")?;
            (warm, t.elapsed().as_secs_f64())
        };
        Ok(Ready {
            inputs,
            sys,
            frozen,
            fit,
            warm,
            generate_s,
            fit_s,
            total_s: generate_s + build_s + warm_s,
        })
    }

    /// One timed round, on the calling thread, in fixed order: calib →
    /// replay → calib → dataflow → calib → 4 × LRU → calib. Each phase is
    /// costed against the mean of the calibration runs on either side of
    /// it, so a speed change that lasts a few seconds scales both.
    fn round(&mut self, ready: &Ready, rounds: &mut Rounds) {
        self.round += 1;
        let trace = &ready.inputs.trace;
        let id = self.rec.open("round", self.round);
        let mut cu = self.calib();
        let mut in_cu = |h: &mut Self, wall_s: f64| {
            let next = h.calib();
            let cost = wall_s / ((cu + next) / 2.0);
            cu = next;
            cost
        };
        let replay = self.call("replay", trace.len(), || {
            ready.sys.run(trace, PolicyMode::GmmCachingEviction)
        });
        if let Some((rep, s)) = replay {
            self.run_counts(&rep);
            rounds.replay_s.push(s);
            rounds.replay_x.push(in_cu(self, s));
            self.same_as_first("replay", &mut rounds.replay, &rep);
        }
        let dataflow = self.call("dataflow", trace.len(), || {
            ready.sys.run_dataflow(
                trace,
                PolicyMode::GmmCachingEviction,
                &DataflowConfig::default(),
            )
        });
        if let Some((rep, s)) = dataflow {
            self.counts([
                ("makespan_us", rep.makespan_us),
                ("gmm_busy_us", rep.gmm_busy_us),
                ("loader_stalls", rep.loader_stalls as f64),
            ]);
            rounds.dataflow_s.push(s);
            rounds.dataflow_x.push(in_cu(self, s));
            self.same_as_first("dataflow", &mut rounds.dataflow, &rep);
        }
        let (lru, s) = self.span("lru_x4", |h| {
            (0..LRU_REPS)
                .filter_map(|_| {
                    h.call("lru", trace.len(), || ready.sys.run(trace, PolicyMode::Lru))
                        .map(|(rep, _)| rep)
                })
                .collect::<Vec<_>>()
        });
        if lru.len() == LRU_REPS {
            rounds.lru_s.push(s);
            rounds.lru_x.push(in_cu(self, s));
        }
        for rep in lru {
            self.same_as_first("lru", &mut rounds.lru, &rep);
        }
        self.rec.close(id);
    }

    /// Keeps the first report of a phase and holds every later repetition
    /// to it.
    fn same_as_first<T: Clone + PartialEq>(&mut self, phase: &str, first: &mut Option<T>, rep: &T) {
        let same = first.get_or_insert_with(|| rep.clone()) == rep;
        self.reps_agree(phase, same);
    }

    /// Only mismatches print: a line per agreeing repetition would drown
    /// the output.
    fn reps_agree(&mut self, phase: &str, same: bool) {
        if !same {
            self.check(
                &format!("every {phase} repetition returns an identical report"),
                false,
            );
        }
    }

    /// The counts a replay returns, attached to its span.
    fn run_counts(&mut self, rep: &RunReport) {
        let (stats, adapt, spec) = (rep.sim.stats, rep.sim.adapt, rep.spec.unwrap_or_default());
        self.counts([
            ("gmm_inferences", rep.gmm_inferences as f64),
            ("hits", stats.hits() as f64),
            ("misses", stats.misses() as f64),
            ("bypasses", stats.bypasses() as f64),
            ("dirty_evictions", stats.dirty_evictions as f64),
            ("spec_windows", spec.windows as f64),
            ("spec_batched_scores", spec.batched_scores as f64),
            ("spec_divergences", spec.divergences() as f64),
            ("adapt_checks", adapt.checks as f64),
            ("adapt_refits", adapt.refits as f64),
        ]);
    }

    fn timed_rounds(&mut self, ready: &Ready, seconds: f64, min_rounds: usize) -> Rounds {
        let mut rounds = Rounds::default();
        let t = Instant::now();
        let mut done = 0;
        while done < min_rounds || t.elapsed().as_secs_f64() < seconds {
            self.round(ready, &mut rounds);
            done += 1;
        }
        rounds
    }

    /// Checks every run makes on what the rounds returned.
    fn checks_on_rounds(
        &mut self,
        ready: &Ready,
        rounds: &Rounds,
    ) -> Result<(RunReport, DataflowReport, RunReport), String> {
        let (Some(replay), Some(dataflow), Some(lru)) = (
            rounds.replay.clone(),
            rounds.dataflow.clone(),
            rounds.lru.clone(),
        ) else {
            return Err("a phase never completed".into());
        };
        let complete = rounds.replay_s.len() == rounds.dataflow_s.len()
            && rounds.replay_s.len() == rounds.lru_s.len();
        self.check("every phase completed in every round", complete);
        self.check(
            "the warm-up replay equals the timed replays",
            ready.warm == replay,
        );
        let (_, measured) = ready.phases();
        for (name, stats) in [
            ("replay", &replay.sim.stats),
            ("dataflow", &dataflow.stats),
            ("lru", &lru.sim.stats),
        ] {
            let balanced = stats.accesses() == measured.len() as u64
                && stats.read_insertions + stats.write_insertions + stats.bypasses()
                    == stats.misses();
            self.check(
                &format!("{name}: accesses = measured records, insertions + bypasses = misses"),
                balanced,
            );
        }
        if ready.frozen.is_none() {
            self.check(
                "run_dataflow stats = run stats",
                dataflow.stats == replay.sim.stats,
            );
        }
        self.failed += replay.sim.adapt.refit_failures;
        self.check("no refit failed", replay.sim.adapt.refit_failures == 0);
        Ok((replay, dataflow, lru))
    }

    fn untraced(&mut self) -> Result<Report, String> {
        // Two discarded calibration runs bring the core to speed.
        self.calib();
        self.calib();
        self.calib.samples_s.clear();

        let mut setups_s = Vec::new();
        let mut ready: Option<Ready> = None;
        for _ in 0..SETUP_REPS {
            let next = self.setup()?;
            setups_s.push(next.total_s);
            if let Some(prev) = ready.replace(next) {
                let now = ready.as_ref().expect("just set");
                let same = prev.fit == now.fit
                    && prev.warm == now.warm
                    && prev.sys.model() == now.sys.model();
                self.reps_agree("set-up", same);
            }
        }
        let ready = ready.expect("SETUP_REPS >= 1");

        let rounds = self.timed_rounds(&ready, self.opts.seconds, MIN_ROUNDS);
        let (replay, dataflow, _lru) = self.checks_on_rounds(&ready, &rounds)?;

        let mut r = Report::new(END_TO_END);
        r.timed("setup_s", &setups_s);
        r.timed("replay_cost_x", &rounds.replay_x);
        r.timed("replay_lru_cost_x", &rounds.lru_x);
        r.timed("dataflow_cost_x", &rounds.dataflow_x);
        r.set("sim_miss_pct", replay.miss_rate_pct());
        r.set("sim_avg_us", replay.avg_us());
        r.set("sim_dataflow_avg_us", dataflow.avg_request_us);
        if let Some(mib) = procfs::peak_rss_mib() {
            r.set("peak_rss_mb", mib);
        }
        println!(
            "# rounds={} cu_ms={} replay_ms={} (raw host times are per-layer metrics: run --trace 1)",
            rounds.replay_s.len(),
            median(&self.calib.samples_s) * 1e3,
            median(&rounds.replay_s) * 1e3
        );
        Ok(r)
    }

    fn traced(&mut self) -> Result<Report, String> {
        self.calib();
        self.calib.samples_s.clear();
        // `fit` keeps two threads busy (EM's default), so it is costed
        // here, per layer, against calibration runs on either side of the
        // set-up, and not gated.
        let mut fit_calib_s: Vec<f64> = (0..FIT_CALIB_REPS).map(|_| self.calib()).collect();
        let ready = self.setup()?;
        fit_calib_s.extend((0..FIT_CALIB_REPS).map(|_| self.calib()));
        // A third of `--seconds` goes to the rounds; the threaded phases
        // and probes below have fixed repetition counts.
        let rounds = self.timed_rounds(&ready, self.opts.seconds / 3.0, 2);
        let (replay, dataflow, lru) = self.checks_on_rounds(&ready, &rounds)?;
        let cfg = ready.inputs.cfg;
        let trace = &ready.inputs.trace;
        let model = ready.sys.model().expect("fitted").clone();
        let (warmup, measured) = ready.phases();
        let replayed = (warmup.len() + measured.len()) as f64;
        let per_rec_ns = |samples: &[f64]| scaled(samples, |s| s * 1e9 / replayed);
        let per_sec = |samples: &[f64]| scaled(samples, |s| replayed / s);
        let mut r = Report::new(PER_LAYER);

        // -- trace ------------------------------------------------------
        r.set(
            "trace.synth.generate_ns_per_rec",
            ready.generate_s * 1e9 / trace.len() as f64,
        );
        let fit_trace = ready.inputs.fit_trace();
        let (start, end) = cfg.preprocess.kept_range(fit_trace.len());
        let mut cells = Vec::new();
        let cells_s = self.probe("trace.preprocess.cells", THREADED_REPS, || {
            cells = extract_weighted_cells_range(fit_trace.records(), &cfg.preprocess, start, end);
        });
        r.timed(
            "trace.preprocess.cells_ns_per_rec",
            &scaled(&cells_s, |s| s * 1e9 / end as f64),
        );

        // -- gmm.em -----------------------------------------------------
        // `Icgmm::fit` wall time: cell extraction (measured just above)
        // plus EM, which is > 95 % of it at K = 256.
        r.set("gmm.em.fit_ms", ready.fit_s * 1e3);
        r.set("gmm.em.fit_cost_x", ready.fit_s / median(&fit_calib_s));
        r.set("gmm.em.iterations", ready.fit.em.iterations as f64);
        r.set("gmm.em.cells", ready.fit.cells_trained as f64);

        // -- the frozen-model arm -----------------------------------------
        // On `tenants_drift` the replay phase runs the adaptive engine;
        // the probes below are cut from the static stack, so the ledger
        // needs the static replay too. Elsewhere they are the same run.
        let (static_run, static_s) = match &ready.frozen {
            None => (replay.clone(), rounds.replay_s.clone()),
            Some(frozen) => {
                let mut walls = Vec::new();
                let mut report = None;
                for _ in 0..THREADED_REPS {
                    if let Some((rep, s)) = self.call("replay_static", trace.len(), || {
                        frozen.run(trace, PolicyMode::GmmCachingEviction)
                    }) {
                        walls.push(s);
                        self.same_as_first("static replay", &mut report, &rep);
                    }
                }
                let report = report.ok_or("static replay failed")?;
                self.check(
                    "run_dataflow stats = frozen-model run stats",
                    dataflow.stats == report.sim.stats,
                );
                (report, walls)
            }
        };
        let scores = static_run.gmm_inferences;
        let spec = static_run.spec.unwrap_or_default();

        // -- gmm.scorer / core.engine -------------------------------------
        let features: Vec<Vec2> = cells
            .iter()
            .cycle()
            .take(PROBE_WINDOW)
            .map(|c| model.scaler.transform([c.page, c.time]))
            .collect();
        let scorer = model.gmm.scorer();
        let mut out = vec![0.0; PROBE_WINDOW];
        let windows = (scores as usize).clamp(PROBE_WINDOW, PROBE_SCORES_MAX) / PROBE_WINDOW;
        let probe_scores = (windows * PROBE_WINDOW) as f64;
        let batch_s = self.probe("gmm.scorer.score_batch", PROBE_REPS, || {
            for _ in 0..windows {
                scorer.score_batch(black_box(&features), &mut out);
            }
            black_box(&out);
        });
        let batch_ns = scaled(&batch_s, |s| s * 1e9 / probe_scores);
        let scalar_s = self.probe("gmm.scorer.score", PROBE_REPS, || {
            let mut acc = 0.0;
            for i in 0..SCALAR_PROBE_SCORES {
                acc += scorer.score(black_box(features[i % PROBE_WINDOW]));
            }
            black_box(acc);
        });
        let scalar_ns = scaled(&scalar_s, |s| s * 1e9 / SCALAR_PROBE_SCORES as f64);
        let mut engine = ready.sys.policy_engine().map_err(|e| e.to_string())?;
        let window_s = self.probe("core.engine.score_window", PROBE_REPS, || {
            for w in measured.chunks_exact(PROBE_WINDOW).cycle().take(windows) {
                engine.score_window(w, &mut out);
            }
            black_box(&out);
        });
        let window_ns = scaled(&window_s, |s| s * 1e9 / probe_scores);
        r.timed("gmm.scorer.batch_ns_per_score", &batch_ns);
        r.timed("gmm.scorer.scalar_ns_per_score", &scalar_ns);
        r.set("gmm.scorer.scores", replay.gmm_inferences as f64);
        let (batch_ns, scalar_ns, window_ns) =
            (median(&batch_ns), median(&scalar_ns), median(&window_ns));
        let engine_overhead_ns = (window_ns - batch_ns).max(0.0);

        // -- gmm.incremental ----------------------------------------------
        let plan = if cfg.adapt.is_empty() {
            AdaptPlan::drifty(7)
        } else {
            cfg.adapt
        };
        let mut inc =
            IncrementalEm::new(&model.gmm, cfg.em, plan.decay).map_err(|e| e.to_string())?;
        let refit_batch = &features[..REFIT_BATCH.min(features.len())];
        let mut refit_ok = true;
        let refit_s = self.probe("gmm.incremental.refit", PROBE_REPS, || {
            refit_ok &= inc.refit(refit_batch, &[]).is_ok();
        });
        self.check("incremental refit probe succeeds", refit_ok);
        r.timed("gmm.incremental.refit_ms", &scaled(&refit_s, |s| s * 1e3));
        r.set("gmm.incremental.refits", replay.sim.adapt.refits as f64);
        r.set("core.engine.window_ns_per_score", window_ns);
        r.set("core.engine.overhead_ns_per_score", engine_overhead_ns);

        // -- core.online --------------------------------------------------
        let online_s = (median(&rounds.replay_s) - median(&static_s)).max(0.0);
        r.set(
            "core.online.overhead_x",
            median(&rounds.replay_s) / median(&static_s),
        );
        let adapt = replay.sim.adapt;
        r.set("core.online.checks", adapt.checks as f64);
        r.set("core.online.drifts", adapt.drifts as f64);
        r.set("core.online.swaps", adapt.swaps as f64);
        r.set("core.online.evals", adapt.evals as f64);

        // -- core.policy / fidelity ---------------------------------------
        let latency_reduction_pct = (1.0 - replay.avg_us() / lru.avg_us()) * 100.0;
        r.set("core.policy.lru_miss_pct", lru.miss_rate_pct());
        r.set("core.policy.lru_avg_us", lru.avg_us());
        r.set(
            "core.policy.miss_reduction_pts",
            lru.miss_rate_pct() - replay.miss_rate_pct(),
        );
        r.set("core.policy.latency_reduction_pct", latency_reduction_pct);
        match ready.inputs.paper {
            Some(kind) => {
                let paper = paper_numbers(kind);
                println!(
                    "# core.fidelity.paper_reduction_pct % {} (published Table 1, {kind})",
                    paper.reduction_pct
                );
                println!(
                    "# core.fidelity.err_pts pts {} (reproduced − published; not gated)",
                    latency_reduction_pct - paper.reduction_pct
                );
                println!(
                    "# core.fidelity.direction_ok {} (printed, not enforced)",
                    replay.avg_us() < lru.avg_us()
                );
            }
            None => {
                println!("# core.fidelity unvalidated (no published reference for this workload)")
            }
        }

        // -- cache.sim ----------------------------------------------------
        let lru_s = scaled(&rounds.lru_s, |s| s / LRU_REPS as f64);
        r.timed("cache.sim.lru_ns_per_rec", &per_rec_ns(&lru_s));
        let sets = cfg.cache.num_sets();
        let ways = cfg.cache.ways;
        let admission = || ThresholdAdmit {
            threshold: model.threshold,
            admit_writes_always: cfg.admit_writes_always,
        };
        let mut stream_report = None;
        let mut consumed = 0;
        let stream_s = self.replay_probe("cache.sim.streaming", 1, || {
            let mut cache = SetAssocCache::new(cfg.cache).expect("validated geometry");
            let mut engine = ready.sys.policy_engine().expect("fitted");
            stream_report = Some(simulate_streaming_with_warmup(
                warmup,
                measured,
                &mut cache,
                &mut admission(),
                &mut GmmScorePolicy::new(sets, ways),
                Some(&mut engine),
                &cfg.latency,
                None,
            ));
            consumed = engine.scores_computed();
        });
        self.attempted += replayed as u64 * stream_s.len() as u64;
        r.timed("cache.sim.stream_ns_per_rec", &per_rec_ns(&stream_s));
        let stats = replay.sim.stats;
        r.set("cache.stats.hits", stats.hits() as f64);
        r.set("cache.stats.misses", stats.misses() as f64);
        r.set("cache.stats.bypasses", stats.bypasses() as f64);
        r.set("cache.stats.dirty_evictions", stats.dirty_evictions as f64);
        r.set(
            "cache.stats.write_pct",
            stats.writes as f64 * 100.0 / stats.accesses() as f64,
        );

        // -- cache.batch --------------------------------------------------
        let mut batch_report = None;
        let mut batch_spec = SpecStats::default();
        let batch_run_s = self.replay_probe("cache.batch.windowed", THREADED_REPS, || {
            let mut cache = SetAssocCache::new(cfg.cache).expect("validated geometry");
            let mut engine = ready.sys.policy_engine().expect("fitted");
            let mut wsim = WindowedSimulator::with_params(cfg.spec_params());
            batch_report = Some(wsim.run(
                warmup,
                measured,
                &mut cache,
                &mut admission(),
                &mut GmmScorePolicy::new(sets, ways),
                Some(&mut engine),
                &cfg.latency,
                None,
            ));
            batch_spec = *wsim.spec_stats();
        });
        self.attempted += replayed as u64 * batch_run_s.len() as u64;
        let same_sim = |a: &Option<SimReport>| a.as_ref() == Some(&static_run.sim);
        self.check(
            "streaming = windowed = frozen-model run (SimReport)",
            same_sim(&stream_report) && same_sim(&batch_report) && batch_spec == spec,
        );
        r.timed("cache.batch.ns_per_rec", &per_rec_ns(&batch_run_s));
        r.set(
            "cache.batch.speedup_x",
            median(&stream_s) / median(&batch_run_s),
        );
        let batched = spec.batched_scores as f64;
        let scorer_s = (batched * batch_ns + (scores as f64 - batched).max(0.0) * scalar_ns) / 1e9;
        let engine_s = batched * engine_overhead_ns / 1e9;
        let floor_s = median(&lru_s);
        let batch_self_s = median(&batch_run_s) - scorer_s - engine_s - floor_s;
        r.set("cache.batch.self_ns_per_rec", batch_self_s * 1e9 / replayed);
        r.set(
            "cache.batch.useful_score_ratio",
            consumed as f64 / scores.max(1) as f64,
        );
        r.set("cache.batch.windows", spec.windows as f64);
        r.set("cache.batch.dense_windows", spec.dense_windows as f64);
        r.set("cache.batch.batch_calls", spec.batch_calls as f64);
        r.set("cache.batch.batched_scores", spec.batched_scores as f64);
        r.set("cache.batch.sync_scores", spec.sync_scores as f64);
        r.set("cache.batch.streamed_records", spec.streamed_records as f64);
        r.set("cache.batch.divergences", spec.divergences() as f64);
        r.set("cache.batch.run_splits", spec.run_splits as f64);
        r.set("cache.batch.window_shrinks", spec.window_shrinks as f64);

        // -- cache.shard / serve (threaded; reported, not gated) ----------
        let mut two = Icgmm::new(IcgmmConfig {
            sim_shards: 2,
            ..cfg
        })
        .map_err(|e| e.to_string())?;
        two.set_model(model.clone());
        let (mut s1_s, mut s2_s, mut serve_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut s2_first: Option<RunReport> = None;
        let mut serve_last = None;
        let mut serve_ticks = 0;
        for _ in 0..THREADED_REPS {
            self.round += 1;
            if let Some((rep, s)) = self.call("run_sharded_s1", trace.len(), || {
                ready.sys.run_sharded(trace, PolicyMode::GmmCachingEviction)
            }) {
                s1_s.push(s);
                self.check(
                    "run_sharded(S=1) = run (SimReport, SpecStats, inferences)",
                    rep == replay,
                );
            }
            if let Some((rep, s)) = self.call("run_sharded_s2", trace.len(), || {
                two.run_sharded(trace, PolicyMode::GmmCachingEviction)
            }) {
                s2_s.push(s);
                // Adaptive runs are deterministic per shard count, so at
                // S = 2 `tenants_drift` compares only with itself.
                let reference = s2_first.get_or_insert_with(|| rep.clone());
                let ok =
                    rep.sim == reference.sim && (ready.frozen.is_some() || rep.sim == replay.sim);
                self.check("run_sharded(S=2) reproduces the reference SimReport", ok);
                self.failed += rep.sim.adapt.refit_failures;
            }
            let ticks = procfs::cpu_ticks();
            if let Some((rep, s)) = self.call("serve_s1c1", trace.len(), || {
                ready.sys.serve(trace, PolicyMode::GmmCachingEviction)
            }) {
                if let (Some(a), Some(b)) = (ticks, procfs::cpu_ticks()) {
                    serve_ticks += b - a;
                }
                serve_s.push(s);
                self.failed += rep.sheds;
                self.check(
                    "serve(1x1) = run (SimReport)",
                    rep.sim == replay.sim && rep.sheds == 0,
                );
                self.counts([
                    ("requests_per_sec", rep.requests_per_sec),
                    ("admission_p99_us", rep.admission_p99_us),
                    ("sheds", rep.sheds as f64),
                ]);
                serve_last = Some(rep);
            }
        }
        let serve = serve_last.ok_or("serve never completed")?;
        let partition_s = self.probe("cache.shard.partition", PROBE_REPS, || {
            black_box(ShardPartition::build(2, &cfg.cache, warmup, measured).is_ok());
        });
        r.timed(
            "cache.shard.partition_ns_per_rec",
            &per_rec_ns(&partition_s),
        );
        r.set(
            "cache.shard.s1_overhead_x",
            median(&s1_s) / median(&rounds.replay_s),
        );
        r.set(
            "cache.shard.s2_speedup_x",
            median(&rounds.replay_s) / median(&s2_s),
        );
        r.timed("cache.shard.s2_rps", &per_sec(&s2_s));

        // -- cache.merge --------------------------------------------------
        let mut tap = OutcomeTap {
            cache: cfg.cache,
            streams: [Vec::new(), Vec::new()],
        };
        {
            let mut cache = SetAssocCache::new(cfg.cache).expect("validated geometry");
            simulate_streaming_observed_with_warmup(
                warmup,
                measured,
                &mut cache,
                &mut AlwaysAdmit,
                &mut LruPolicy::new(sets, ways),
                None,
                &cfg.latency,
                None,
                &mut tap,
            );
        }
        let mut merged_report = None;
        let merge_s = self.probe("cache.merge.merge_streams", THREADED_REPS, || {
            let [a, b] = &tap.streams;
            let (mut a, mut b) = (SliceStream(a.iter()), SliceStream(b.iter()));
            let mut merge = StreamingMerge::new(warmup.len(), &cfg.latency, None);
            merge_streams(&mut [&mut a, &mut b], &mut merge);
            merged_report = Some(merge.finish(measured.len(), "lru", "always"));
        });
        self.check(
            "merge_streams re-accounts the LRU run exactly",
            merged_report
                .is_some_and(|m| m.stats == lru.sim.stats && m.total_us == lru.sim.total_us),
        );
        r.timed("cache.merge.ns_per_outcome", &per_rec_ns(&merge_s));

        // -- serve ----------------------------------------------------------
        r.timed("serve.rps_s1c1", &per_sec(&serve_s));
        r.set("serve.overhead_x", median(&serve_s) / median(&s1_s));
        r.set("serve.admit_p50_us", serve.admission_p50_us);
        r.set("serve.admit_p99_us", serve.admission_p99_us);
        r.set("serve.sheds", serve.sheds as f64);
        r.set(
            "serve.cpu_ns_per_req",
            serve_ticks as f64 * procfs::TICK_NS / (replayed * serve_s.len() as f64),
        );
        r.set("serve.overlap_saved_us", serve.overlap.overlap_saved_us);

        // -- hw -----------------------------------------------------------
        r.set(
            "hw.dataflow.observer_overhead_x",
            median(&rounds.dataflow_s) / median(&static_s),
        );
        r.set("hw.dataflow.makespan_us", dataflow.makespan_us);
        r.set("hw.dataflow.avg_queue_us", dataflow.avg_queue_us);
        r.set("hw.dataflow.overlap_saved_us", dataflow.overlap_saved_us);
        r.set("hw.ssd.utilization", dataflow.ssd_utilization());
        r.set("hw.gmm.busy_us", dataflow.gmm_busy_us);
        r.set("hw.fifo.loader_stalls", dataflow.loader_stalls as f64);

        // -- lstm (paper Table 2 direction) -------------------------------
        let net = LstmNetwork::new(LstmArch::paper_baseline(), &mut StdRng::seed_from_u64(1));
        let seq: Vec<Vec<f32>> = (0..net.arch().seq_len)
            .map(|t| vec![t as f32 * 0.01, 0.5])
            .collect();
        let lstm_s = self.probe("lstm.predictor.forward", PROBE_REPS, || {
            black_box(net.forward(black_box(&seq)));
        });
        let lstm_ns = scaled(&lstm_s, |s| s * 1e9);
        r.timed("lstm.predictor.ns_per_inference", &lstm_ns);
        r.set("lstm.gmm_speedup_x", median(&lstm_ns) / scalar_ns);

        // -- bench + the replay ledger --------------------------------------
        let replay_s = median(&rounds.replay_s);
        r.timed(
            "bench.calib_ms",
            &scaled(&self.calib.samples_s, |s| s * 1e3),
        );
        r.set("bench.host_ns_per_sim_event", replay_s * 1e9 / replayed);
        r.timed("bench.replay_rps", &per_sec(&rounds.replay_s));
        r.set("bench.trace_overhead_pct", span_cost_s() / replay_s * 100.0);
        r.set("bench.failed_ops", self.failed as f64);
        let share = |s: f64| s / replay_s * 100.0;
        let explained = floor_s + scorer_s + engine_s + online_s + batch_self_s;
        println!(
            "# ledger: replay phase, median {} ms = 100 %",
            replay_s * 1e3
        );
        for (name, s) in [
            ("bench.ledger.cache_sim_pct", floor_s),
            ("bench.ledger.gmm_scorer_pct", scorer_s),
            ("bench.ledger.core_engine_pct", engine_s),
            ("bench.ledger.core_online_pct", online_s),
            ("bench.ledger.cache_batch_pct", batch_self_s),
            ("bench.ledger.replay_residual_pct", replay_s - explained),
        ] {
            println!("# ledger: {name} {} ms", s * 1e3);
            r.set(name, share(s));
        }
        Ok(r)
    }
}

fn scaled(samples: &[f64], f: impl Fn(f64) -> f64) -> Vec<f64> {
    samples.iter().map(|&s| f(s)).collect()
}

/// What recording the span of one replay phase costs: the recorder's own
/// per-span time, measured directly. The spans sit *around* the calls, so
/// this — not a difference of two noisy medians — is the whole tracing
/// overhead of a phase.
fn span_cost_s() -> f64 {
    const N: u32 = 10_000;
    let mut scratch = Recorder::new(true);
    let t = Instant::now();
    for i in 0..N {
        let id = scratch.open("replay", i);
        scratch.count(id, "gmm_inferences", 1.0);
        scratch.close(id);
    }
    t.elapsed().as_secs_f64() / f64::from(N)
}

/// Splits an LRU replay's outcome stream in two by set parity — the
/// shape `merge_streams` sees behind a two-shard replay.
struct OutcomeTap {
    cache: CacheConfig,
    streams: [Vec<SeqOutcome>; 2],
}

impl ReplayObserver for OutcomeTap {
    fn on_record(&mut self, ev: &ReplayEvent<'_>) {
        let shard = self.cache.set_of(ev.record.page()) % 2;
        self.streams[shard].push(SeqOutcome {
            seq: ev.seq,
            record: *ev.record,
            outcome: *ev.outcome,
        });
    }
}

struct SliceStream<'a>(std::slice::Iter<'a, SeqOutcome>);

impl OutcomeStream for SliceStream<'_> {
    fn next_outcome(&mut self) -> Option<SeqOutcome> {
        self.0.next().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives one workload through every phase, probe and check of both
    /// run kinds at the smoke size, in the test profile.
    #[test]
    fn smoke_run_covers_every_phase_metric_and_check() {
        let out = std::env::temp_dir().join(format!("icgmm_bench_smoke_{}", std::process::id()));
        let mut opts = Options {
            workload: WorkloadId::TenantsDrift,
            seed: 5,
            seconds: 0.0,
            trace: false,
            out: out.clone(),
            size: Size::SMOKE,
        };
        let untraced = run(&opts).expect("untraced smoke run");
        assert!(untraced.correct);
        assert!(untraced.attempted > 0);
        assert_eq!(untraced.failed, 0);
        let expected: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(untraced.report.names().collect::<Vec<_>>(), expected);
        for name in &expected {
            let v = untraced.report.get(name).unwrap();
            assert!(v.is_finite() && v > 0.0, "{name} = {v}");
        }

        opts.trace = true;
        let traced = run(&opts).expect("traced smoke run");
        assert!(traced.correct);
        assert_eq!(traced.failed, 0);
        let expected: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(traced.report.names().collect::<Vec<_>>(), expected);
        for name in &expected {
            assert!(traced.report.get(name).unwrap().is_finite(), "{name}");
        }
        assert!(traced.report.get("gmm.incremental.refits").unwrap() > 0.0);
        let file = out.join("trace_tenants_drift.json");
        let spans = crate::json::Json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
        assert!(spans.get("spans").unwrap().as_array().unwrap().len() > 20);
        std::fs::remove_dir_all(&out).ok();
    }
}
