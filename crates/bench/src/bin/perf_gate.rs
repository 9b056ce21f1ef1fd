//! CI perf-regression gate over the criterion shim's JSON-lines output.
//!
//! Reads a `BENCH_*.json` file (one JSON object per benchmark, written by
//! the shim when `CRITERION_JSON` is set) and fails unless every named
//! baseline is at least its `MIN_RATIO` times slower than its candidate
//! *in the same run*. Comparing two benchmarks of one run on one runner
//! makes the gate a relative check, immune to the heterogeneous-runner
//! problem that absolute thresholds have.
//!
//! Usage:
//!
//! ```text
//! perf_gate BENCH_gmm.json --gate BASELINE,CANDIDATE,MIN_RATIO...
//! ```
//!
//! `--gate` is repeatable: each occurrence adds one `baseline ≥ min_ratio
//! × candidate` check, so one invocation can gate several benchmark pairs
//! of the same run. All gates are evaluated (the worst offender is not
//! masked by an earlier failure) and any failure fails the run.
//!
//! Exit codes: 0 all gates pass, 1 any gate failed or entries missing,
//! 2 usage error.

use std::process::ExitCode;

/// One `baseline ≥ min_ratio × candidate` check.
struct Gate {
    baseline: String,
    candidate: String,
    min_ratio: f64,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut gates: Vec<Gate> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--gate" => {
                let Some(spec) = it.next() else {
                    return usage("--gate needs BASELINE,CANDIDATE,MIN_RATIO");
                };
                let parts: Vec<&str> = spec.split(',').collect();
                let [b, c, r] = parts.as_slice() else {
                    return usage(&format!("malformed --gate {spec:?} (need 3 fields)"));
                };
                let Ok(r) = r.parse::<f64>() else {
                    return usage(&format!("malformed --gate ratio {r:?}"));
                };
                gates.push(Gate {
                    baseline: b.to_string(),
                    candidate: c.to_string(),
                    min_ratio: r,
                });
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(other.to_string());
            }
            other => return usage(&format!("unexpected argument {other}")),
        }
    }
    let Some(path) = path else {
        return usage("missing JSON file path");
    };
    if gates.is_empty() {
        return usage("at least one --gate is required");
    }

    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perf_gate: cannot read {path}: {e}");
            return ExitCode::from(1);
        }
    };

    let mut failed = false;
    for g in &gates {
        failed |= !check_gate(&content, &path, g);
    }
    if !failed {
        println!("perf_gate: PASS ({} gate(s))", gates.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("perf_gate: FAIL — a candidate regressed below its gate");
        ExitCode::from(1)
    }
}

/// Evaluates one gate against the JSON-lines content; `true` on pass.
fn check_gate(content: &str, path: &str, gate: &Gate) -> bool {
    let base = median_ns(content, &gate.baseline);
    let cand = median_ns(content, &gate.candidate);
    let (Some(base), Some(cand)) = (base, cand) else {
        eprintln!(
            "perf_gate: missing entries in {path} (baseline {:?}: {}, candidate {:?}: {})",
            gate.baseline,
            base.map_or("absent".into(), |v| format!("{v} ns")),
            gate.candidate,
            cand.map_or("absent".into(), |v| format!("{v} ns")),
        );
        return false;
    };
    if cand <= 0.0 {
        eprintln!("perf_gate: candidate median {cand} ns is not positive");
        return false;
    }
    let ratio = base / cand;
    let verdict = if ratio >= gate.min_ratio {
        "ok"
    } else {
        "FAIL"
    };
    println!(
        "perf_gate: {} = {base:.0} ns, {} = {cand:.0} ns, speedup {ratio:.2}x (required >= {:.2}x) {verdict}",
        gate.baseline, gate.candidate, gate.min_ratio
    );
    ratio >= gate.min_ratio
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perf_gate: {msg}");
    eprintln!("usage: perf_gate <bench.json> --gate BASELINE,CANDIDATE,RATIO...");
    ExitCode::from(2)
}

/// Extracts `median_ns` of the *last* record with the given id (the last
/// line wins if a file accumulated several runs).
fn median_ns(content: &str, id: &str) -> Option<f64> {
    let mut found = None;
    for line in content.lines() {
        let Some(lid) = field_str(line, "id") else {
            continue;
        };
        if lid == id {
            if let Some(v) = field_num(line, "median_ns") {
                found = Some(v);
            }
        }
    }
    found
}

/// Pulls a `"key":"value"` string field out of one JSON line. Handles the
/// escapes the criterion shim emits (`\"`, `\\`, `\uXXXX`).
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// Pulls a `"key":number` field out of one JSON line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
