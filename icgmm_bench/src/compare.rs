//! `icgmm_bench --compare A B`: the parent-vs-change table.
//!
//! `A` and `B` are run logs (`runs.jsonl` under `--out`, one line per
//! run). For every workload × end-to-end metric the table shows both
//! medians, the relative difference, the metric's bound and a verdict,
//! following the repository's rule for landing a change: a metric whose
//! run-to-run spread is wider than its bound is *unresolved*, not
//! unchanged, unless every run of one side beats every run of the other.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, Summary, END_TO_END};
use crate::workloads::WorkloadId;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Values of `metric` on `workload` over the untraced runs of one log.
fn values(log: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    log.iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Judges one metric: `a` are the parent's runs, `b` the change's.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Summary, Summary, f64, Verdict) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    // Positive = worse, whatever the metric's direction.
    let worse_by = match def.better {
        Better::Lower => (sb.median - sa.median) / sa.median.abs(),
        Better::Higher => (sa.median - sb.median) / sa.median.abs(),
    };
    let b_always_better = match def.better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    let verdict = if worse_by > def.bound {
        Verdict::Regressed
    } else if sa.spread().max(sb.spread()) > def.bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (sa, sb, worse_by, verdict)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn read_log(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Json::parse(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// Prints the table; `Ok(true)` when nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (read_log(path_a)?, read_log(path_b)?);
    println!(
        "{:<14} {:<20} {:>5} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "n", "A median", "B median", "worse by", "bound"
    );
    let mut clean = true;
    let mut rows = 0;
    for w in WorkloadId::ALL {
        for def in END_TO_END {
            let (va, vb) = (
                values(&a, w.name(), def.name),
                values(&b, w.name(), def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (sa, sb, worse_by, verdict) = judge(def, &va, &vb);
            println!(
                "{:<14} {:<20} {:>2}/{:<2} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}",
                w.name(),
                def.name,
                sa.n,
                sb.n,
                sa.median,
                sb.median,
                worse_by * 100.0,
                def.bound * 100.0,
                verdict.as_str()
            );
            clean &= verdict != Verdict::Regressed;
            rows += 1;
        }
    }
    if rows == 0 {
        return Err("the two logs share no workload with untraced runs".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    fn def(name: &str) -> &'static MetricDef {
        find(END_TO_END, name).unwrap()
    }

    #[test]
    fn a_median_beyond_the_bound_regresses() {
        let d = def("replay_cost_x"); // lower is better
        let a = [16.0, 16.1, 15.9, 16.05, 16.0];
        let worse: Vec<f64> = a.iter().map(|x| x * (1.0 + d.bound + 0.02)).collect();
        let better: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let within: Vec<f64> = a.iter().map(|x| x * (1.0 + d.bound / 2.0)).collect();
        assert_eq!(judge(d, &a, &worse).3, Verdict::Regressed);
        assert_eq!(judge(d, &a, &better).3, Verdict::Ok);
        assert_eq!(judge(d, &a, &within).3, Verdict::Ok);
        assert!(judge(d, &a, &better).2 < 0.0);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let d = def("sim_miss_pct");
        let noisy = [30.0, 36.0, 33.0, 27.0, 39.0];
        assert_eq!(judge(d, &noisy, &noisy).3, Verdict::Unresolved);
        // … unless every run of the change beats every run of the parent.
        let clearly_better = [20.0, 26.0, 23.0, 17.0, 25.0];
        assert_eq!(judge(d, &noisy, &clearly_better).3, Verdict::Ok);
    }

    #[test]
    fn log_lines_are_grouped_by_workload_and_untraced_runs_only() {
        let line = |w: &str, trace: f64, v: f64| {
            Json::obj([
                ("workload", Json::str(w)),
                ("trace", Json::Num(trace)),
                (
                    "metrics",
                    Json::obj([("sim_avg_us", Json::obj([("value", Json::Num(v))]))]),
                ),
            ])
        };
        let log = [
            line("dlrm_miss", 0.0, 25.0),
            line("dlrm_miss", 1.0, 99.0),
            line("memtier_hit", 0.0, 3.0),
            line("dlrm_miss", 0.0, 26.0),
        ];
        assert_eq!(values(&log, "dlrm_miss", "sim_avg_us"), [25.0, 26.0]);
        assert!(values(&log, "dlrm_miss", "absent").is_empty());
    }
}
