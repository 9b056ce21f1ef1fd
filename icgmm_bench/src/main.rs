//! `icgmm_bench` — the repository's benchmark: end-to-end metrics
//! (untraced run) and per-layer metrics (traced run) for one workload per
//! process. See `README.md` beside this crate and `BENCHMARK.json` at the
//! repository root.
//!
//! ```text
//! icgmm_bench --workload <name> [--seed N] [--seconds N] [--trace 0|1] [--out DIR] [--smoke]
//! icgmm_bench --compare A/runs.jsonl B/runs.jsonl
//! ```

mod compare;
mod harness;
mod json;
mod metrics;
mod procfs;
mod spans;
mod workloads;

use harness::Options;
use json::Json;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Size, WorkloadId};

const USAGE: &str =
    "usage: icgmm_bench --workload <dlrm_miss|memtier_hit|hashmap_write|tenants_drift> \
[--seed N] [--seconds N] [--trace 0|1] [--out DIR] [--smoke]\n       \
icgmm_bench --compare A/runs.jsonl B/runs.jsonl";

enum Command {
    Run(Options),
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = None;
    let mut size = Size::FULL;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--compare" => {
                return Ok(Command::Compare(
                    value("--compare")?.clone(),
                    value("--compare")?.clone(),
                ))
            }
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(WorkloadId::parse(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // form the benchmark driver passes.
            "--trace" => {
                trace = match it.next_if(|v| !v.starts_with("--")).map(String::as_str) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--smoke" => size = Size::SMOKE,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // Outputs stay inside the checkout: beside the build products.
    let out = out.unwrap_or_else(|| {
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("icgmm_bench")
    });
    Ok(Command::Run(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
        size,
    }))
}

fn run(opts: &Options) -> Result<bool, String> {
    let outcome = harness::run(opts)?;
    let result = [
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", outcome.report.to_json()),
    ];
    // The run log `--compare` reads: the result plus what produced it.
    let mut logged = vec![
        ("workload", Json::str(opts.workload.name())),
        ("seed", Json::Num(opts.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(opts.trace)))),
        ("seconds", Json::Num(opts.seconds)),
    ];
    logged.extend(result.iter().cloned());
    let log = opts.out.join("runs.jsonl");
    std::fs::create_dir_all(&opts.out)
        .and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&log)
        })
        .and_then(|mut f| f.write_all((Json::obj(logged).to_line() + "\n").as_bytes()))
        .map_err(|e| format!("{}: {e}", log.display()))?;
    println!("{}", Json::obj(result).to_line());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match parse_args(&args) {
        Ok(Command::Run(opts)) => run(&opts),
        Ok(Command::Compare(a, b)) => compare::compare(&a, &b),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("icgmm_bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cmd = parse_args(&args(
            "--workload memtier_hit --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        let Command::Run(o) = cmd else {
            panic!("run expected")
        };
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (WorkloadId::MemtierHit, 7, 10.0, true)
        );
        assert_eq!(o.size, Size::FULL);
        let Command::Run(o) = parse_args(&args("--workload dlrm_miss --trace 0")).unwrap() else {
            panic!("run expected")
        };
        assert!(!o.trace);
    }

    #[test]
    fn bare_trace_flag_and_smoke_are_accepted() {
        let Command::Run(o) = parse_args(&args("--trace --workload dlrm_miss --smoke")).unwrap()
        else {
            panic!("run expected")
        };
        assert!(o.trace);
        assert_eq!(o.size, Size::SMOKE);
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            "",
            "--workload nope",
            "--workload dlrm_miss --seed x",
            "--workload dlrm_miss --seconds -1",
            "--workload dlrm_miss --trace 2",
            "--workload dlrm_miss --frobnicate",
            "--compare only_one",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} parsed");
        }
        assert!(matches!(
            parse_args(&args("--compare a b")),
            Ok(Command::Compare(..))
        ));
    }
}
