//! # icgmm-bench
//!
//! Harness support for regenerating the ICGMM paper's tables and figures:
//! the `fidelity` binary (in `src/bin/`) fits each benchmark once, prints §5
//! (Fig. 6 with the compulsory floor and MIN, Table 1, Table 2, Fig. 5),
//! Fig. 2's summary and the sweeps beside the published values, and at full
//! scale writes them to `FIDELITY.json` ([`document`]).
//!
//! `--quick` runs a reduced suite (~200 k requests, K = 64); the default is
//! paper scale (~1.2 M requests, K = 256, about a minute). `--requests N`
//! and `--k N` override either scale; a value that is not a positive
//! integer is refused.

use icgmm::benchmarks::{paper_best_strategy, paper_numbers, BenchmarkSpec};
use icgmm::PolicyMode::{self, GmmCachingEviction as Both, GmmEvictionOnly as Eviction, Lru};
use icgmm::{Icgmm, IcgmmConfig, IcgmmError, RunReport};
use icgmm_cache::{LatencyModel, SimReport};
use icgmm_gmm::EmConfig;
use icgmm_hw::{table2, DataflowConfig, DataflowReport, GmmEngineModel, GmmResourceModel};
use icgmm_lstm::{LstmArch, LstmCostModel};
use icgmm_trace::histogram::{SpatialHistogram, TemporalHeatmap};
use icgmm_trace::synth::WorkloadKind::{self, Dlrm, Heap, Stream};
use icgmm_trace::{PreprocessConfig, TraceRecord};
use std::collections::HashSet;

/// A [`Json::Obj`] of `key => value` fields, in order, through `Json::from`.
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        Json::Obj(vec![$(($key.to_string(), Json::from($value))),*])
    };
}

/// Harness scale selected on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale run (~1.2 M requests, K = 256).
    Full,
    /// Reduced run for smoke tests (~200 k requests, K = 64).
    ///
    /// At 200 k requests the miss rate is bound by compulsory misses: the
    /// floor is within 0.01 pt of LRU on `parsec`, `memtier`, `hashmap`,
    /// `heap` and `sysbench` (2.89 / 2.90, 2.90 / 2.90, 3.56 / 3.56,
    /// 5.01 / 5.01, 4.55 / 4.55 %). A quick run therefore smoke-tests a
    /// binary and cannot show a policy effect.
    Quick,
}

impl Scale {
    /// Parses process arguments (`--quick` selects [`Scale::Quick`]),
    /// refusing a bad `--requests` / `--k` before the binary prints a line.
    pub fn from_args() -> Scale {
        arg_value("--requests");
        arg_value("--k");
        if std::env::args().any(|a| a == "--quick" || a == "-q") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// The benchmark suite at this scale. `--requests N` overrides the
    /// per-benchmark request budget on either scale.
    pub fn suite(self) -> Vec<BenchmarkSpec> {
        let base = match self {
            Scale::Full => BenchmarkSpec::paper_suite(),
            Scale::Quick => BenchmarkSpec::quick_suite(),
        };
        match arg_value("--requests") {
            Some(n) => base
                .into_iter()
                .map(|mut s| {
                    s.requests = n as usize;
                    s
                })
                .collect(),
            None => base,
        }
    }

    /// System configuration for a spec at this scale (quick runs shrink K
    /// and the training-cell budget; `--k N` overrides K on either scale).
    pub fn config(self, spec: &BenchmarkSpec) -> IcgmmConfig {
        let base = spec.config();
        let mut cfg = match self {
            Scale::Full => base,
            Scale::Quick => IcgmmConfig {
                em: EmConfig {
                    k: 64,
                    max_iters: 30,
                    ..base.em
                },
                max_train_cells: 40_000,
                ..base
            },
        };
        if let Some(k) = arg_value("--k") {
            cfg.em.k = k as usize;
        }
        cfg
    }

    /// `true` for the run `FIDELITY.json` records: full scale, with no
    /// `--requests` or `--k` override.
    pub fn is_record(self) -> bool {
        self == Scale::Full && arg_value("--requests").is_none() && arg_value("--k").is_none()
    }
}

/// Reads `--flag N` from the process arguments. A flag whose value is
/// missing, not an integer or zero prints the usage and exits non-zero:
/// falling back to the default would run a different experiment than the
/// one asked for.
fn arg_value(flag: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    parse_flag(&args, flag).unwrap_or_else(|err| {
        eprintln!("{err}\nusage: <bin> [--quick] [--requests N] [--k N]");
        std::process::exit(2)
    })
}

/// `Ok(None)` when `flag` is absent, `Ok(Some(n))` for `flag n` with
/// `n ≥ 1`, and an error naming the flag otherwise.
fn parse_flag(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    match args.get(i + 1).map(|v| v.parse::<u64>()) {
        Some(Ok(n)) if n > 0 => Ok(Some(n)),
        _ => Err(format!("{flag} takes a positive integer")),
    }
}

/// One benchmark's share of the paper's evaluation (§5) and of the sweeps:
/// the trace generated and the model fitted once; LRU, the three GMM modes,
/// MIN and `gmm-eviction` on the fixed-point datapath replayed once each;
/// the compulsory floor and Fig. 2's summary counted off the same trace;
/// the benchmark's [`KNOBS`] swept. Table 1, Fig. 5 and the SSD classes
/// cost these counters ([`recost`]); they replay nothing.
#[derive(Clone, Debug)]
pub struct Fidelity {
    /// The benchmark.
    pub spec: BenchmarkSpec,
    /// LRU and the three GMM modes, in [`PolicyMode::fig6_modes`] order.
    pub fig6: Vec<RunReport>,
    /// [`PolicyMode::Belady`]: eviction-only MIN, always admitting.
    pub min: RunReport,
    /// Measured requests whose page the replayed trace has not touched
    /// before: a miss under every policy, clairvoyant included.
    pub floor_misses: u64,
    /// `gmm-eviction` over the same model on the fixed-point (FPGA) datapath.
    pub fixed: RunReport,
    /// Fig. 2's summary of the measured requests (`None`: there are none).
    pub fig2: Option<Fig2>,
    /// Per knob of [`KNOBS`] on this benchmark, its `(setting, runs)`.
    pub sweeps: Vec<(Knob, Vec<Point>)>,
}

impl Fidelity {
    /// Generates `spec`'s trace, fits `config`'s model on it, replays it and
    /// sweeps its knobs.
    ///
    /// # Errors
    ///
    /// Configuration, training and replay errors of [`Icgmm`].
    pub fn run(spec: &BenchmarkSpec, config: IcgmmConfig) -> Result<Fidelity, IcgmmError> {
        let trace = spec.workload().generate(spec.requests, spec.seed);
        let mut sys = Icgmm::new(config)?;
        sys.fit(&trace)?;
        let (start, end) = config.preprocess.kept_range(trace.len());
        let mut seen = HashSet::new();
        let floor_misses = trace.records()[..end]
            .iter()
            .enumerate()
            .filter(|&(i, r)| seen.insert(r.page().raw()) && i >= start)
            .count() as u64;
        // A setting refits when it changes what EM trains on, recalibrates
        // the model fitted above when it changes only the quantile, and
        // otherwise replays over that model.
        let fitted = |c: &IcgmmConfig| (c.preprocess, c.em, c.max_train_cells);
        let replay = |cfg: IcgmmConfig, modes: &[PolicyMode]| -> Result<Vec<_>, _> {
            let mut other = Icgmm::new(cfg)?;
            if fitted(&cfg) != fitted(&config) {
                other.fit(&trace)?;
            } else {
                other.set_model(sys.model().expect("fitted").clone());
                if cfg.admission_quantile != config.admission_quantile {
                    other.calibrate(&trace)?;
                }
            }
            modes.iter().map(|&mode| other.run(&trace, mode)).collect()
        };
        let fig6 = replay(config, &PolicyMode::fig6_modes())?;
        let min = replay(config, &[PolicyMode::Belady])?.remove(0);
        let mut fixed = config;
        fixed.fixed_point_inference = true;
        let fixed = replay(fixed, &[Eviction])?.remove(0);
        let mut sweeps = Vec::new();
        for knob in KNOBS.into_iter().filter(|knob| knob.1 == spec.kind) {
            let mut points = Vec::new();
            for &x in knob.2 {
                let (mut cfg, mut modes) = (config, knob.3);
                set(knob.0, &mut cfg, x);
                if (knob.0, x) == ("quantile", 0.0) {
                    // Quantile 0 calibrates the threshold to 0, which
                    // admits every score: the row's gmm-eviction run
                    // stands in for it.
                    (cfg, modes) = (config, &[Eviction]);
                }
                let row = |mode| fig6.iter().find(|r| r.mode == mode).cloned();
                let runs = if cfg == config {
                    modes.iter().filter_map(|&mode| row(mode)).collect()
                } else {
                    replay(cfg, modes)?
                };
                points.push((x, runs));
            }
            sweeps.push((knob, points));
        }
        let fig2 = Fig2::of(&trace.records()[start..end], &config.preprocess);
        Ok(Fidelity {
            spec: *spec,
            fig6,
            min,
            floor_misses,
            fixed,
            fig2,
            sweeps,
        })
    }

    /// The LRU baseline.
    pub fn lru(&self) -> &RunReport {
        &self.fig6[0]
    }

    /// The lowest-miss GMM mode, the paper's Fig. 6 "best strategy"; a tie
    /// goes to the mode listed first.
    pub fn best_gmm(&self) -> &RunReport {
        self.fig6[1..]
            .iter()
            .min_by(|a, b| a.miss_rate_pct().total_cmp(&b.miss_rate_pct()))
            .expect("three GMM modes")
    }

    /// The compulsory floor, % of measured requests (Fig. 6 units).
    pub fn floor_pct(&self) -> f64 {
        match self.lru().sim.stats.accesses() {
            0 => 0.0,
            n => self.floor_misses as f64 / n as f64 * 100.0,
        }
    }

    /// The relations that hold by construction and are broken here:
    /// floor ≤ MIN ≤ LRU, and floor ≤ every GMM mode. Empty when sound.
    pub fn broken_relations(&self) -> Vec<String> {
        // `(name, misses)` pairs, each required to satisfy lower ≤ upper.
        let named = |r: &RunReport| (r.mode.to_string(), r.sim.stats.misses());
        let (floor, min) = (("floor".to_string(), self.floor_misses), named(&self.min));
        let mut bounds = vec![(floor.clone(), min.clone()), (min, named(self.lru()))];
        bounds.extend(self.fig6[1..].iter().map(|r| (floor.clone(), named(r))));
        bounds
            .into_iter()
            .filter(|(lower, upper)| lower.1 > upper.1)
            .map(|((lo, m), (hi, n))| format!("{}: {lo} {m} > {hi} {n} misses", self.spec.kind))
            .collect()
    }

    /// This benchmark's block of `FIDELITY.json`.
    fn json(&self) -> Json {
        let (lru, best, p) = (self.lru(), self.best_gmm(), paper_numbers(self.spec.kind));
        let vs = |ours: f64, paper: f64| {
            obj! { "ours" => ours, "paper" => paper, "rel_err" => (ours - paper) / paper }
        };
        let ssd = ssd_classes().map(|(name, latency)| {
            (
                name,
                by_mode(&self.fig6, |r| recost(r, &latency).avg_us.into()),
            )
        });
        let fig2 = self.fig2.map_or(obj! {}, |f| {
            let (modes, share, cv) = (f.spatial_modes as u64, f.top8_share, f.temporal_cv);
            obj! { "spatial_modes" => modes, "top8_share" => share, "temporal_cv" => cv }
        });
        let cut = cut_pct(lru.avg_us(), best.avg_us());
        let fixed_delta = self.fixed.miss_rate_pct() - self.fig6[2].miss_rate_pct();
        obj! {
            "floor_misses" => self.floor_misses,
            "floor_pct" => self.floor_pct(),
            "min" => run_json(&self.min),
            "modes" => by_mode(&self.fig6, run_json),
            "best_mode" => best.mode.to_string(),
            "paper" => obj! {
                "best_mode" => paper_best_strategy(self.spec.kind).to_string(),
                "lru_miss_pct" => vs(lru.miss_rate_pct(), p.lru_miss_pct),
                "gmm_miss_pct" => vs(best.miss_rate_pct(), p.gmm_miss_pct),
                "lru_avg_us" => vs(lru.avg_us(), p.lru_avg_us),
                "gmm_avg_us" => vs(best.avg_us(), p.gmm_avg_us),
                "reduction_pct" => vs(cut, p.reduction_pct),
            },
            "fixed_point" => obj! {
                "gmm-eviction" => run_json(&self.fixed),
                "miss_delta_pts" => fixed_delta,
            },
            "ssd_class_avg_us" => Json::obj(ssd),
            "fig2" => fig2,
        }
    }
}

/// A knob swept on one benchmark's trace: its name, the benchmark, the
/// settings and the modes each replays. The setting the benchmark runs at
/// reuses its Fig. 6 replays.
pub type Knob = (
    &'static str,
    WorkloadKind,
    &'static [f64],
    &'static [PolicyMode],
);

/// A sweep's setting and the runs it replayed.
pub type Point = (f64, Vec<RunReport>);

/// The knobs swept. Those that refit run on rows whose MIN sits well below
/// LRU, where a policy has misses to win: the admission quantile on
/// `stream`, K on `dlrm` (ROADMAP item 14), `len_access_shot` on `heap`
/// (item 9). The cache size keeps the model and runs on `dlrm` under LRU,
/// `gmm-both` and the row's best mode.
pub const KNOBS: [Knob; 4] = [
    ("quantile", Stream, &[0.0, 0.2, 0.4, 0.6, 0.8], &[Both]),
    ("K", Dlrm, &[16.0, 64.0, 256.0], &[Eviction, Both]),
    ("len_access_shot", Heap, &[1e3, 1e4, 1e5], &[Eviction]),
    (
        "cache MiB",
        Dlrm,
        &[16.0, 64.0, 256.0],
        &[Lru, Both, Eviction],
    ),
];

/// Writes setting `x` of knob `name` into `cfg`.
fn set(name: &str, cfg: &mut IcgmmConfig, x: f64) {
    match name {
        "quantile" => cfg.admission_quantile = x,
        "K" => cfg.em.k = x as usize,
        "len_access_shot" => cfg.preprocess.len_access_shot = x as u32,
        _ => cfg.cache.capacity_bytes = (x as u64) << 20,
    }
}

/// Fig. 2's summary of a trace, what the figure argues from: a multimodal
/// spatial histogram (a mixture of Gaussians fits) and uneven activity in
/// time (the timestamp is a feature).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig2 {
    /// Local maxima of the 60-bucket spatial histogram.
    pub spatial_modes: usize,
    /// Share of the requests in its 8 busiest buckets.
    pub top8_share: f64,
    /// Time-column CV of the most uneven of 16 page rows holding ≥ 2 %.
    pub temporal_cv: f64,
}

impl Fig2 {
    /// The summary of `records` over the page range carrying their central
    /// 98 % (Fig. 2 plots the populated range: one outlying access would
    /// stretch the axis until the clusters share a bucket); `None` for no
    /// records.
    pub fn of(records: &[TraceRecord], cfg: &PreprocessConfig) -> Option<Fig2> {
        let mut pages: Vec<u64> = records.iter().map(|r| r.page().raw()).collect();
        pages.sort_unstable();
        // `q · len` truncates below `len` for `q < 1`: only an empty slice
        // has no quantile.
        let at = |q: f64| pages.get((pages.len() as f64 * q) as usize).copied();
        let range = at(0.01)?..=at(0.99)?;
        let mut central = records.to_vec();
        central.retain(|r| range.contains(&r.page().raw()));
        let spatial = SpatialHistogram::from_records(&central, 60);
        let heat = TemporalHeatmap::from_records(&central, cfg, 16, 48);
        Some(Fig2 {
            spatial_modes: spatial.mode_count(),
            top8_share: spatial.top_k_share(8),
            temporal_cv: heat.max_significant_row_cv(0.02),
        })
    }
}

/// `run`'s counters costed under `latency`: what replaying under it
/// reports (`Icgmm::run_with_latency`), since a replay only counts and
/// modeled time is a function of the counts.
pub fn recost(run: &RunReport, latency: &LatencyModel) -> SimReport {
    let s = &run.sim;
    SimReport::from_counts(s.stats, None, s.fault, latency, &s.eviction, &s.admission)
}

/// Table 1's reduction, %: how much of `lru_us` the GMM run saves.
pub fn cut_pct(lru_us: f64, gmm_us: f64) -> f64 {
    (1.0 - gmm_us / lru_us) * 100.0
}

/// The SSD classes every run is costed under, named by read / write µs:
/// Z-NAND, the paper's TLC and QLC.
pub fn ssd_classes() -> [(&'static str, LatencyModel); 3] {
    let names = ["z-nand 10/100", "tlc 75/900", "qlc 150/2200"];
    let (znand, tlc) = (LatencyModel::low_latency_ssd(), LatencyModel::paper_tlc());
    let models = [znand, tlc, LatencyModel::qlc_ssd()];
    [0, 1, 2].map(|i| (names[i], models[i]))
}

/// Table 2's rows, `(engine, [BRAM, DSP, LUT, FF], latency µs)`: the
/// paper's LSTM and GMM engines, each beside this reproduction's model of
/// it. Both models are calibrated to the paper's own rows.
pub fn table2_rows() -> [(&'static str, [u32; 4], f64); 4] {
    let lstm = LstmCostModel::paper_calibrated().estimate(&LstmArch::paper_baseline());
    let lstm = lstm.expect("the calibrated model is valid");
    let ours = GmmResourceModel::paper_k256().estimate();
    let [p, q, g] = [table2::LSTM, table2::GMM, ours].map(|r| [r.bram_36k, r.dsp, r.lut, r.ff]);
    let l = [lstm.bram_36k, lstm.dsp, lstm.lut, lstm.ff];
    let (p_us, q_us) = (table2::LSTM_LATENCY_US, table2::GMM_LATENCY_US);
    let g_us = GmmEngineModel::paper_k256().latency_us();
    [
        ("LSTM (paper)", p, p_us),
        ("LSTM (our model)", l, lstm.latency_us),
        ("GMM (paper)", q, q_us),
        ("GMM (our model)", g, g_us),
    ]
}

/// Fig. 5: `run`'s counters under the dataflow engines' latency, with the
/// policy inference overlapped with the SSD access and without.
pub fn fig5(run: &RunReport) -> [DataflowReport; 2] {
    [true, false].map(|overlap| {
        let df = DataflowConfig {
            overlap_policy_with_ssd: overlap,
            ..Default::default()
        };
        DataflowReport::from_sim(&recost(run, &df.latency()), &df)
    })
}

/// One of Fig. 5's metrics: its label and how to read it off a report.
pub type Fig5Metric = (&'static str, fn(&DataflowReport) -> f64);

/// Fig. 5's six metrics, in its table's order.
pub const FIG5_METRICS: [Fig5Metric; 6] = [
    ("avg request latency (µs)", |r| r.avg_request_us),
    ("makespan (s)", |r| r.makespan_us / 1e6),
    ("GMM busy (s)", |r| r.gmm_busy_us / 1e6),
    ("SSD busy (s)", |r| r.ssd.busy_us / 1e6),
    ("SSD utilization", DataflowReport::ssd_utilization),
    ("overlap saved (s)", |r| r.overlap_saved_us / 1e6),
];

/// The record `FIDELITY.json` holds: per benchmark, each run's counters
/// and costs, the floor, MIN, the best mode against the published numbers,
/// the fixed-point datapath, the SSD classes and Fig. 2's summary; then the
/// sweeps, Table 2 (its modeled rows calibrated) and Fig. 5 (`stream`'s
/// `gmm-both`). EM log-likelihoods and the raw threshold stay out: their
/// low bits depend on whether the build fuses multiply-adds.
pub fn document(results: &[Fidelity]) -> Json {
    let rows = results.iter().map(|r| (r.spec.kind, r.json()));
    let sweeps = results
        .iter()
        .flat_map(|r| &r.sweeps)
        .map(|(knob, points)| {
            let at = |(x, runs): &Point| (x.to_string(), by_mode(runs, run_json));
            let row = ("row".to_string(), knob.1.to_string().into());
            (
                knob.0,
                Json::obj([row].into_iter().chain(points.iter().map(at))),
            )
        });
    let table2 = table2_rows().map(|(engine, counts, latency_us)| {
        let [bram, dsp, lut, ff] = counts.map(u64::from);
        let calibrated = engine.contains("model");
        (
            engine,
            obj! {
                "bram_36k" => bram, "dsp" => dsp, "lut" => lut, "ff" => ff,
                "latency_us" => latency_us, "calibrated" => calibrated,
            },
        )
    });
    let stream = results.iter().find(|r| r.spec.kind == Stream);
    let fig5 = stream.map_or(obj! {}, |r| {
        let metrics = |df| Json::obj(FIG5_METRICS.map(|(name, v)| (name, v(&df).into())));
        let [overlap, sequential] = fig5(&r.fig6[3]).map(metrics);
        obj! { "dataflow (overlap)" => overlap, "sequential" => sequential }
    });
    let (rows, sweeps) = (Json::obj(rows), Json::obj(sweeps));
    obj! { "rows" => rows, "sweeps" => sweeps, "table2" => Json::obj(table2), "fig5" => fig5 }
}

/// `json` of each run, keyed by its mode.
fn by_mode(runs: &[RunReport], json: impl Fn(&RunReport) -> Json) -> Json {
    Json::obj(runs.iter().map(|r| (r.mode, json(r))))
}

/// A run's block: its counters, miss rate, average µs and inferences.
fn run_json(run: &RunReport) -> Json {
    let (s, miss_pct, avg_us) = (&run.sim.stats, run.miss_rate_pct(), run.avg_us());
    obj! {
        "reads" => s.reads, "writes" => s.writes,
        "read_hits" => s.read_hits, "write_hits" => s.write_hits,
        "read_insertions" => s.read_insertions, "write_insertions" => s.write_insertions,
        "read_bypasses" => s.read_bypasses, "write_bypasses" => s.write_bypasses,
        "clean_evictions" => s.clean_evictions, "dirty_evictions" => s.dirty_evictions,
        "miss_pct" => miss_pct, "avg_us" => avg_us, "gmm_inferences" => run.gmm_inferences,
    }
}

/// A JSON value that [`Json::render`] writes one field per line, keys in
/// the order given, so a `git diff` names the field that moved. Floats
/// print in the shortest form that round-trips (`{}`); a non-finite one,
/// which JSON cannot hold, prints `null`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A float.
    Num(f64),
    /// A count.
    Int(u64),
    /// `true` / `false`.
    Bool(bool),
    /// A string.
    Str(String),
    /// An object, its keys in this order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object of `fields`, in order.
    pub fn obj<K: ToString>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The document, two-space indented, with a final newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out + "\n"
    }

    fn write(&self, out: &mut String, depth: usize) {
        let fields = match self {
            Json::Num(x) if x.is_finite() => return out.push_str(&x.to_string()),
            Json::Num(_) => return out.push_str("null"),
            Json::Int(n) => return out.push_str(&n.to_string()),
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Str(s) => return quote(s, out),
            Json::Obj(fields) => fields,
        };
        out.push('{');
        for (i, (key, value)) in fields.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(depth + 1));
            quote(key, out);
            out.push_str(": ");
            value.write(out, depth + 1);
        }
        if !fields.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push('}');
    }
}

/// Writes `s` as a JSON string: quotes, backslashes and control characters
/// escaped.
fn quote(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Prints a section header in the style all binaries share.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_shrinks_k() {
        let spec = &BenchmarkSpec::quick_suite()[0];
        let full = Scale::Full.config(spec);
        let quick = Scale::Quick.config(spec);
        assert_eq!(full.em.k, 256);
        assert_eq!(quick.em.k, 64);
        assert!(quick.max_train_cells < full.max_train_cells);
        // The per-benchmark quantile survives scaling.
        assert_eq!(full.admission_quantile, quick.admission_quantile);
    }

    #[test]
    fn suites_have_seven_benchmarks() {
        assert_eq!(Scale::Full.suite().len(), 7);
        assert_eq!(Scale::Quick.suite().len(), 7);
    }

    #[test]
    fn scale_flags_take_positive_integers_only() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let parse = |v: &[&str]| parse_flag(&args(v), "--requests");
        assert_eq!(parse(&["bin", "--quick"]), Ok(None));
        assert_eq!(parse(&["bin", "--requests", "30000"]), Ok(Some(30_000)));
        for bad in [
            &["bin", "--requests", "30k"][..],
            &["bin", "--requests", "0"],
            &["bin", "--requests", "-5"],
            &["bin", "--requests"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("--requests"), "{err}");
        }
    }

    /// The suite's `kind` at 30 k requests, under a configuration a debug
    /// build fits quickly.
    fn small(kind: WorkloadKind) -> (BenchmarkSpec, IcgmmConfig) {
        let mut spec = BenchmarkSpec::quick_suite()
            .into_iter()
            .find(|s| s.kind == kind)
            .expect("kind in suite");
        spec.requests = 30_000;
        let base = spec.config();
        let config = IcgmmConfig {
            em: EmConfig { k: 8, ..base.em },
            max_train_cells: 5_000,
            ..base
        };
        (spec, config)
    }

    /// The value at `path` in `doc`'s objects; panics naming a missing key.
    fn at<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
        path.iter().fold(doc, |node, key| match node {
            Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("{key}: not an object"),
        })
    }

    fn int(doc: &Json, path: &[&str]) -> u64 {
        match at(doc, path) {
            Json::Int(n) => *n,
            other => panic!("{path:?}: {other:?} is not a count"),
        }
    }

    fn num(doc: &Json, path: &[&str]) -> f64 {
        match at(doc, path) {
            Json::Num(x) => *x,
            other => panic!("{path:?}: {other:?} is not a float"),
        }
    }

    /// Every benchmark of the suite at a scale a debug build affords:
    /// one fit, the replays, the floor counted, the sweeps run — the
    /// relations that hold by construction hold, and `FIDELITY.json`'s
    /// document has every row × mode and says the same.
    #[test]
    fn fidelity_relations_hold_on_all_seven() {
        let mut results = Vec::new();
        for kind in WorkloadKind::all() {
            let (spec, config) = small(kind);
            let r = Fidelity::run(&spec, config).expect("benchmark runs");
            let modes: Vec<PolicyMode> = r.fig6.iter().map(|run| run.mode).collect();
            assert_eq!(modes, PolicyMode::fig6_modes());
            assert_eq!(r.min.mode, PolicyMode::Belady);
            assert_eq!(r.fixed.mode, PolicyMode::GmmEvictionOnly);
            assert!(r.floor_misses > 0, "{kind}: a cold cache has first touches");
            assert!(r.best_gmm().mode.uses_gmm());
            assert_eq!(r.broken_relations(), Vec::<String>::new(), "{kind}");
            // The floor and MIN are never above LRU, in Fig. 6 units too.
            assert!(r.floor_pct() <= r.min.miss_rate_pct());
            assert!(r.min.miss_rate_pct() <= r.lru().miss_rate_pct());
            assert!(r.fig2.is_some(), "{kind}: the measured slice is not empty");
            for (knob, points) in &r.sweeps {
                assert_eq!(points.len(), knob.2.len(), "{}", knob.0);
            }
            results.push(r);
        }
        let doc = document(&results);
        for r in &results {
            let row = r.spec.kind.to_string();
            let misses = |run: &[&str]| {
                let path = |field| [["rows", &row].as_slice(), run, &[field]].concat();
                let count = |field| int(&doc, &path(field));
                count("reads") + count("writes") - count("read_hits") - count("write_hits")
            };
            for run in &r.fig6 {
                let mode = run.mode.to_string();
                assert_eq!(at(&doc, &["rows", &row, "modes", &mode]), &run_json(run));
                for class in ssd_classes().map(|(name, _)| name) {
                    num(&doc, &["rows", &row, "ssd_class_avg_us", class, &mode]);
                }
            }
            let floor = int(&doc, &["rows", &row, "floor_misses"]);
            let (min, lru) = (misses(&["min"]), misses(&["modes", "lru"]));
            assert!(floor <= min && min <= lru, "{row}: {floor} / {min} / {lru}");
            num(&doc, &["rows", &row, "fixed_point", "miss_delta_pts"]);
            int(&doc, &["rows", &row, "fig2", "spatial_modes"]);
        }
        for (knob, row, mode, points) in [
            (
                "quantile",
                "stream",
                "gmm-both",
                ["0.2", "0.4", "0.6", "0.8"].as_slice(),
            ),
            ("K", "dlrm", "gmm-eviction", &["16", "64", "256"]),
            (
                "len_access_shot",
                "heap",
                "gmm-eviction",
                &["1000", "10000", "100000"],
            ),
            ("cache MiB", "dlrm", "lru", &["16", "64", "256"]),
        ] {
            assert_eq!(at(&doc, &["sweeps", knob, "row"]), &Json::Str(row.into()));
            for point in points {
                num(&doc, &["sweeps", knob, point, mode, "miss_pct"]);
            }
        }
        // Quantile 0 is the row's gmm-eviction run.
        let zero = at(&doc, &["sweeps", "quantile", "0", "gmm-eviction"]);
        assert_eq!(zero, at(&doc, &["rows", "stream", "modes", "gmm-eviction"]));
        assert_eq!(
            at(&doc, &["table2", "GMM (our model)", "calibrated"]),
            &Json::Bool(true)
        );
        assert_eq!(
            at(&doc, &["table2", "GMM (paper)", "calibrated"]),
            &Json::Bool(false)
        );
        num(&doc, &["fig5", "sequential", "SSD utilization"]);
    }

    /// The SSD-class block prices a run's counters; replaying under the
    /// device's latency reports the same average, bit for bit.
    #[test]
    fn ssd_class_block_equals_replaying_under_each_preset() {
        let (spec, config) = small(WorkloadKind::Hashmap);
        let doc = document(&[Fidelity::run(&spec, config).expect("benchmark runs")]);
        let trace = spec.workload().generate(spec.requests, spec.seed);
        let mut sys = Icgmm::new(config).expect("valid config");
        sys.fit(&trace).expect("fit");
        for mode in PolicyMode::fig6_modes() {
            for (class, latency) in ssd_classes() {
                let replayed = sys
                    .run_with_latency(&trace, mode, &latency)
                    .expect("replay");
                let path = [
                    "rows",
                    "hashmap",
                    "ssd_class_avg_us",
                    class,
                    &mode.to_string(),
                ];
                assert_eq!(
                    num(&doc, &path).to_bits(),
                    replayed.avg_us().to_bits(),
                    "{class} {mode}"
                );
            }
        }
    }

    #[test]
    fn json_writes_one_field_per_line_in_the_given_order() {
        let doc = Json::obj([
            ("zeta", Json::Int(2)),
            (
                "alpha",
                Json::obj([
                    ("x", 0.1.into()),
                    ("flag", Json::Bool(true)),
                    (
                        "inner",
                        Json::obj([("n", Json::Int(7)), ("none", Json::Obj(vec![]))]),
                    ),
                ]),
            ),
            ("s", "q\"\\\n\u{1}µ".to_string().into()),
            ("empty", Json::Obj(vec![])),
        ]);
        let expected = r#"{
  "zeta": 2,
  "alpha": {
    "x": 0.1,
    "flag": true,
    "inner": {
      "n": 7,
      "none": {}
    }
  },
  "s": "q\"\\\u000a\u0001µ",
  "empty": {}
}
"#;
        assert_eq!(doc.render(), expected);
    }

    #[test]
    fn json_floats_print_the_shortest_round_trip_form() {
        for (x, text) in [
            (0.1, "0.1"),
            (1.0 / 3.0, "0.3333333333333333"),
            (35.0, "35"),
            (0.1 + 0.2, "0.30000000000000004"),
            (1e-7, "0.0000001"),
            (-0.0, "-0"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
        ] {
            assert_eq!(Json::Num(x).render(), format!("{text}\n"), "{x:e}");
        }
        let x = 37.0 / 1.05;
        assert_eq!(Json::Num(x).render().trim().parse::<f64>(), Ok(x));
    }

    #[test]
    fn fig2_of_no_records_is_an_empty_block() {
        let cfg = PreprocessConfig::default();
        assert_eq!(Fig2::of(&[], &cfg), None);
        let (spec, _) = small(WorkloadKind::Dlrm);
        let trace = spec.workload().generate(spec.requests, spec.seed);
        let one = Fig2::of(&trace.records()[..1], &cfg).expect("one record");
        assert_eq!((one.spatial_modes, one.top8_share), (1, 1.0));
        let all = Fig2::of(trace.records(), &cfg).expect("records");
        assert!(all.spatial_modes >= 2, "{all:?}");
    }
}
