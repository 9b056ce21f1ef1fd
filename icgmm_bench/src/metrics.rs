//! The metric registry — every name the benchmark may print, with its
//! unit, direction and (end-to-end only) regression bound — plus the
//! order statistics used to summarize samples. `BENCHMARK.json` at the
//! repo root repeats the same names and bounds; a unit test holds the two
//! together.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Metrics of the untraced run. Host costs are in calibration units
/// (`cu`, see the README); simulated figures are marked by their names.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", 0.25),
    e2e("replay_cost_x", "cu", 0.25),
    e2e("replay_lru_cost_x", "cu", 0.20),
    e2e("dataflow_cost_x", "cu", 0.20),
    e2e("sim_miss_pct", "%", 0.10),
    e2e("sim_avg_us", "us", 0.10),
    e2e("sim_dataflow_avg_us", "us", 0.10),
    e2e("peak_rss_mb", "MiB", 0.05),
];

/// Metrics of the traced run, named after the repo's modules.
pub const PER_LAYER: &[MetricDef] = &[
    layer("trace.synth.generate_ns_per_rec", "ns", Lower),
    layer("trace.preprocess.cells_ns_per_rec", "ns", Lower),
    layer("gmm.em.fit_ms", "ms", Lower),
    layer("gmm.em.fit_cost_x", "cu", Lower),
    layer("gmm.em.iterations", "count", Lower),
    layer("gmm.em.cells", "count", Lower),
    layer("gmm.scorer.batch_ns_per_score", "ns", Lower),
    layer("gmm.scorer.scalar_ns_per_score", "ns", Lower),
    layer("gmm.scorer.scores", "count", Lower),
    layer("gmm.incremental.refit_ms", "ms", Lower),
    layer("gmm.incremental.refits", "count", Lower),
    layer("core.engine.window_ns_per_score", "ns", Lower),
    layer("core.engine.overhead_ns_per_score", "ns", Lower),
    layer("core.online.overhead_x", "x", Lower),
    layer("core.online.checks", "count", Lower),
    layer("core.online.drifts", "count", Lower),
    layer("core.online.swaps", "count", Lower),
    layer("core.online.evals", "count", Lower),
    layer("core.policy.lru_miss_pct", "%", Lower),
    layer("core.policy.lru_avg_us", "us", Lower),
    layer("core.policy.miss_reduction_pts", "pts", Higher),
    layer("core.policy.latency_reduction_pct", "%", Higher),
    layer("cache.sim.lru_ns_per_rec", "ns", Lower),
    layer("cache.sim.stream_ns_per_rec", "ns", Lower),
    layer("cache.stats.hits", "count", Higher),
    layer("cache.stats.misses", "count", Lower),
    layer("cache.stats.bypasses", "count", Lower),
    layer("cache.stats.dirty_evictions", "count", Lower),
    layer("cache.stats.write_pct", "%", Lower),
    layer("cache.batch.ns_per_rec", "ns", Lower),
    layer("cache.batch.speedup_x", "x", Higher),
    layer("cache.batch.self_ns_per_rec", "ns", Lower),
    layer("cache.batch.useful_score_ratio", "ratio", Higher),
    layer("cache.batch.windows", "count", Lower),
    layer("cache.batch.dense_windows", "count", Lower),
    layer("cache.batch.batch_calls", "count", Lower),
    layer("cache.batch.batched_scores", "count", Lower),
    layer("cache.batch.sync_scores", "count", Lower),
    layer("cache.batch.streamed_records", "count", Lower),
    layer("cache.batch.divergences", "count", Lower),
    layer("cache.batch.run_splits", "count", Lower),
    layer("cache.batch.window_shrinks", "count", Lower),
    layer("cache.shard.partition_ns_per_rec", "ns", Lower),
    layer("cache.shard.s1_overhead_x", "x", Lower),
    layer("cache.shard.s2_speedup_x", "x", Higher),
    layer("cache.shard.s2_rps", "1/s", Higher),
    layer("cache.merge.ns_per_outcome", "ns", Lower),
    layer("serve.rps_s1c1", "1/s", Higher),
    layer("serve.overhead_x", "x", Lower),
    layer("serve.admit_p50_us", "us", Lower),
    layer("serve.admit_p99_us", "us", Lower),
    layer("serve.sheds", "count", Lower),
    layer("serve.cpu_ns_per_req", "ns", Lower),
    layer("serve.overlap_saved_us", "us", Higher),
    layer("hw.dataflow.observer_overhead_x", "x", Lower),
    layer("hw.dataflow.makespan_us", "us", Lower),
    layer("hw.dataflow.avg_queue_us", "us", Lower),
    layer("hw.dataflow.overlap_saved_us", "us", Higher),
    layer("hw.ssd.utilization", "ratio", Lower),
    layer("hw.gmm.busy_us", "us", Lower),
    layer("hw.fifo.loader_stalls", "count", Lower),
    layer("lstm.predictor.ns_per_inference", "ns", Lower),
    layer("lstm.gmm_speedup_x", "x", Higher),
    layer("bench.calib_ms", "ms", Lower),
    layer("bench.host_ns_per_sim_event", "ns", Lower),
    layer("bench.replay_rps", "1/s", Higher),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.failed_ops", "count", Lower),
    layer("bench.ledger.cache_sim_pct", "%", Lower),
    layer("bench.ledger.gmm_scorer_pct", "%", Lower),
    layer("bench.ledger.core_engine_pct", "%", Lower),
    layer("bench.ledger.core_online_pct", "%", Lower),
    layer("bench.ledger.cache_batch_pct", "%", Lower),
    layer("bench.ledger.replay_residual_pct", "%", Lower),
];

pub fn find(defs: &'static [MetricDef], name: &str) -> Option<&'static MetricDef> {
    defs.iter().find(|d| d.name == name)
}

/// Median (mean of the two middle values for an even count; NaN if empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the acceptance procedure uses. Fewer than two values
/// have no spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Order statistics of one wall-time sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }

    /// A sample set too noisy to read a 10 % difference from.
    pub fn unresolved(&self) -> bool {
        self.spread() > 0.10
    }
}

/// The values one run produced, in print order, drawn from one of the
/// two registries.
pub struct Report {
    defs: &'static [MetricDef],
    entries: Vec<(&'static MetricDef, f64, Option<Summary>)>,
}

impl Report {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Report {
            defs,
            entries: Vec::new(),
        }
    }

    fn def(&self, name: &str) -> &'static MetricDef {
        find(self.defs, name).unwrap_or_else(|| panic!("metric `{name}` is not registered"))
    }

    /// Records a count or a simulated figure.
    pub fn set(&mut self, name: &str, value: f64) {
        self.entries.push((self.def(name), value, None));
    }

    /// Records a wall-time metric from its samples (already in the
    /// metric's unit); the reported value is the median.
    pub fn timed(&mut self, name: &str, samples: &[f64]) {
        let s = Summary::of(samples);
        self.entries.push((self.def(name), s.median, Some(s)));
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(d, ..)| d.name == name)
            .map(|&(_, v, _)| v)
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|(d, ..)| d.name)
    }

    /// One `name unit value` line per metric; wall-time metrics add
    /// `n= median= q1= q3=` and the `unresolved` tag.
    pub fn print(&self) {
        for (d, value, summary) in &self.entries {
            match summary {
                None => println!("{} {} {value}", d.name, d.unit),
                Some(s) => println!(
                    "{} {} {value} n={} median={} q1={} q3={}{}",
                    d.name,
                    d.unit,
                    s.n,
                    s.median,
                    s.q1,
                    s.q3,
                    if s.unresolved() { " unresolved" } else { "" }
                ),
            }
        }
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> Json {
        Json::obj(self.entries.iter().map(|(d, value, _)| {
            (
                d.name,
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(d.unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(d.name, 64, "_.-"), "name {}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(well_formed(d.unit, 16, "_/%.-"), "unit of {}", d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "bound of {}", d.name);
        }
        let setup = find(END_TO_END, "setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up carries the largest bound");
    }

    #[test]
    fn benchmark_json_repeats_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed =
            |key: &str| -> Vec<Json> { doc.get(key).unwrap().as_array().unwrap().to_vec() };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let entries = listed(key);
            assert_eq!(entries.len(), defs.len(), "{key} length");
            for (entry, d) in entries.iter().zip(defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(d.name));
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(d.unit),
                    "{}",
                    d.name
                );
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                match key {
                    "end_to_end" => {
                        assert_eq!(
                            entry.get("bound").unwrap().as_f64(),
                            Some(d.bound),
                            "{}",
                            d.name
                        );
                    }
                    _ => assert!(entry.get("bound").is_none(), "{}", d.name),
                }
            }
        }
        let workloads: Vec<String> = listed("workloads")
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        let ours: Vec<&str> = crate::workloads::WorkloadId::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        for w in listed("workloads") {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
        }
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summaries_tag_wide_spreads() {
        let tight = Summary::of(&[100.0, 101.0, 99.0, 100.5, 100.2]);
        assert!(!tight.unresolved());
        let wide = Summary::of(&[100.0, 140.0, 80.0, 120.0, 90.0]);
        assert!(wide.unresolved());
    }

    #[test]
    fn report_prints_and_serializes_registered_metrics() {
        let mut r = Report::new(END_TO_END);
        r.set("sim_miss_pct", 33.4252);
        r.timed("replay_cost_x", &[16.0, 17.0, 18.0]);
        assert_eq!(r.get("replay_cost_x"), Some(17.0));
        let json = r.to_json();
        assert_eq!(
            json.get("sim_miss_pct")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("%")
        );
        assert_eq!(
            r.names().collect::<Vec<_>>(),
            ["sim_miss_pct", "replay_cost_x"]
        );
    }
}
