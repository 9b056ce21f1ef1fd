//! Regenerates the paper's §5 evaluation and Fig. 2 from **one fit per
//! benchmark**: LRU, the three GMM strategies and eviction-only MIN are
//! replayed once each, and Fig. 6 (with the compulsory floor and MIN),
//! Table 1, Table 2's modeled rows and Fig. 5 (`stream`'s `gmm-both`
//! counters re-costed under the dataflow engines) are read off those runs.
//! Then Fig. 2's summary of the same traces, every run re-costed under
//! three SSD classes, `gmm-eviction` on the fixed-point datapath and the
//! knob sweeps of `icgmm_bench::KNOBS`. At full scale with no `--requests`
//! / `--k` override it writes the numbers to `FIDELITY.json` in the working
//! directory (CI regenerates the file and diffs it against the committed
//! one). Exits non-zero when a relation that holds by construction breaks:
//! floor ≤ MIN ≤ LRU, or floor ≤ any GMM mode.
//!
//! Usage: `cargo run -p icgmm-bench --release --bin fidelity [--quick]`

use icgmm::benchmarks::{paper_best_strategy, paper_numbers};
use icgmm::report::{f, format_table};
use icgmm::RunReport;
use icgmm_bench::{banner, cut_pct, document, recost, ssd_classes, Fidelity, Point, Scale};
use icgmm_bench::{fig5 as dataflow, table2_rows, FIG5_METRICS};
use icgmm_trace::synth::WorkloadKind;

fn main() {
    let scale = Scale::from_args();
    banner("Paper fidelity — one replay per (benchmark, mode)");
    println!("scale: {scale:?} (pass --quick for a fast run)");
    let results: Vec<Fidelity> = scale
        .suite()
        .iter()
        .map(|spec| {
            let r = Fidelity::run(spec, scale.config(spec)).expect("benchmark run failed");
            eprintln!("[fidelity] {} done", spec.kind);
            r
        })
        .collect();

    fig6(&results);
    table1(&results);
    table2();
    if let Some(r) = results.iter().find(|r| r.spec.kind == WorkloadKind::Stream) {
        fig5(&r.fig6[3]); // `PolicyMode::fig6_modes()` ends with gmm-both
    }
    fig2(&results);
    devices_and_datapath(&results);
    sweeps(&results);
    if scale.is_record() {
        let doc = document(&results).render();
        std::fs::write("FIDELITY.json", doc).expect("FIDELITY.json is writable");
        eprintln!("[fidelity] wrote FIDELITY.json");
    } else {
        println!("\nFIDELITY.json records the full-scale run only: not written");
    }

    let broken: Vec<String> = results
        .iter()
        .flat_map(Fidelity::broken_relations)
        .collect();
    for b in &broken {
        eprintln!("broken relation: {b}");
    }
    if !broken.is_empty() {
        std::process::exit(1);
    }
}

/// Prints `rows` under the comma-separated column names of `head`.
fn table(head: &str, rows: &[Vec<String>]) {
    let head: Vec<&str> = head.split(',').collect();
    println!("{}", format_table(&head, rows));
}

/// A section of one row per benchmark: its name, then `row`'s cells.
fn per_row(title: &str, head: &str, results: &[Fidelity], row: impl Fn(&Fidelity) -> Vec<String>) {
    banner(title);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| [vec![r.spec.kind.to_string()], row(r)].concat())
        .collect();
    table(head, &rows);
}

fn fig6(results: &[Fidelity]) {
    banner("Fig. 6 — cache miss rate (%), LRU vs GMM strategies");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let (best, paper) = (r.best_gmm(), paper_numbers(r.spec.kind));
            let mut row = vec![r.spec.kind.to_string(), f(r.floor_pct(), 2)];
            row.extend(
                [&r.min]
                    .into_iter()
                    .chain(&r.fig6)
                    .map(|run| f(run.miss_rate_pct(), 2)),
            );
            row.extend([
                format!("{} ({})", f(best.miss_rate_pct(), 2), best.mode),
                f(r.lru().miss_rate_pct() - best.miss_rate_pct(), 2),
                format!(
                    "{} -> {}",
                    f(paper.lru_miss_pct, 2),
                    f(paper.gmm_miss_pct, 2)
                ),
                paper_best_strategy(r.spec.kind).to_string(),
            ]);
            row
        })
        .collect();
    table(
        "benchmark,floor,min,lru,gmm-caching,gmm-eviction,gmm-both,best (ours),abs. reduction,\
         paper lru->best,paper best mode",
        &rows,
    );
    println!("floor: measured requests that touch their page first (a miss under any");
    println!("policy); min: Belady's eviction-only MIN, always admitting.");
    println!("Expected shape: GMM best <= LRU on every row; the paper's absolute");
    println!("reductions span 0.32%-6.14% (largest on dlrm, smallest on parsec).");
    let misses = |run: &RunReport| run.sim.stats.misses();
    let wins = results
        .iter()
        .filter(|r| misses(r.best_gmm()) <= misses(r.lru()))
        .count();
    println!("best GMM <= LRU on {wins} of {}", results.len());
}

fn table1(results: &[Fidelity]) {
    banner("Table 1 — average SSD access time (µs), LRU vs GMM");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            // The best GMM strategy by miss rate, as in Fig. 6.
            let (lru, best) = (r.lru().avg_us(), r.best_gmm().avg_us());
            let p = paper_numbers(r.spec.kind);
            let (p_lru, p_gmm, p_cut) = (
                f(p.lru_avg_us, 2),
                f(p.gmm_avg_us, 2),
                f(p.reduction_pct, 2),
            );
            let cut = f(cut_pct(lru, best), 2);
            let paper = format!("{p_lru} -> {p_gmm} ({p_cut}%)");
            vec![r.spec.kind.to_string(), f(lru, 2), f(best, 2), cut, paper]
        })
        .collect();
    table("benchmark,lru (µs),gmm (µs),reduction (%),paper", &rows);
    println!("Expected shape: double-digit percentage reductions on every row");
    println!("(paper: 16.23%-39.14%); hashmap/heap large via fewer dirty write-backs,");
    println!("stream/dlrm large in absolute µs via miss-rate cuts.");
}

fn table2() {
    banner("Table 2 — resources & latency, LSTM vs GMM policy engine (modeled)");
    let rows = table2_rows();
    let printed = rows.map(|(engine, counts, latency)| {
        let mut row = vec![engine.to_string()];
        row.extend(counts.map(|v| v.to_string()));
        row.push(if engine.starts_with("LSTM") {
            format!("{:.1} ms", latency / 1000.0)
        } else {
            format!("{latency:.1} µs")
        });
        row
    });
    table("engine,BRAM,DSP,LUT,FF,latency", &printed);
    let (gain, paper) = (rows[1].2 / rows[3].2, rows[0].2 / rows[2].2);
    println!("modeled latency gain: {gain:.0}x (paper: {paper:.0}x)");
    println!("Both models are calibrated to the paper's own rows: the LSTM's efficiency");
    println!("to its 46.3 ms, the LUT/FF constants to each row's counts.");
}

/// Fig. 5: `run`'s counters under the dataflow engines' latency, with the
/// policy inference overlapped with the SSD access and not.
fn fig5(run: &RunReport) {
    banner("Fig. 5 — dataflow architecture: overlap & utilization (stream, gmm-both)");
    let [with, without] = dataflow(run);
    let rows =
        FIG5_METRICS.map(|(name, v)| vec![name.to_string(), f(v(&with), 3), f(v(&without), 3)]);
    table("metric,dataflow (overlap),sequential", &rows);
    let gain = (without.avg_request_us - with.avg_request_us) / without.avg_request_us * 100.0;
    println!("overlap removes {gain:.2}% of average latency on this miss-heavy trace;");
    println!("per miss it hides the full 3 µs GMM inference behind the >=75 µs SSD access,");
    println!("which is the paper's justification for the free-running-kernel design.");
}

fn fig2(results: &[Fidelity]) {
    let title = "Fig. 2 — spatial and temporal access distributions (central 98% of pages)";
    let head = "benchmark,spatial modes,top-8-bucket share,temporal CV (hot row)";
    per_row(title, head, results, |r| match r.fig2 {
        Some(s) => vec![
            s.spatial_modes.to_string(),
            f(s.top8_share, 2),
            f(s.temporal_cv, 2),
        ],
        None => vec!["-".into(); 3],
    });
    println!("Expected shape (paper Fig. 2): >=2 spatial modes (a mixture of Gaussians");
    println!("fits), concentrated mass, and temporal CV >> 0 (uneven in time, so the GMM");
    println!("needs the timestamp feature).");
}

fn devices_and_datapath(results: &[Fidelity]) {
    let title = "SSD class and fixed point — Table 1's cut per device, Q39.24 vs f64";
    let devices = ssd_classes()
        .map(|(name, _)| format!("{name} cut (%)"))
        .join(",");
    let head = format!("benchmark,{devices},fixed-point gmm-eviction miss delta (pts)");
    per_row(title, &head, results, |r| {
        let cut = |(_, latency)| {
            let [lru, gmm] = [r.lru(), r.best_gmm()].map(|run| recost(run, &latency).avg_us);
            f(cut_pct(lru, gmm), 1)
        };
        let delta = r.fixed.miss_rate_pct() - r.fig6[2].miss_rate_pct();
        [ssd_classes().map(cut).to_vec(), vec![f(delta, 3)]].concat()
    });
    println!("The device prices the same counters (FIDELITY.json holds every mode's µs);");
    println!("quantization should move decisions marginally (<0.5% miss).");
}

fn sweeps(results: &[Fidelity]) {
    for r in results {
        for (knob, points) in &r.sweeps {
            let lru = f(r.lru().miss_rate_pct(), 2);
            banner(&format!(
                "Sweep — {} ({}; lru {lru} %)",
                knob.0, r.spec.kind
            ));
            let mut head = vec![knob.0.to_string()];
            head.extend(knob.3.iter().map(|m| format!("{m} miss %,{m} µs")));
            let row = |(x, runs): &Point| {
                // A setting another mode's run stands in for names that mode.
                let stand_in = runs.iter().find(|run| !knob.3.contains(&run.mode));
                let setting = stand_in.map_or(x.to_string(), |run| format!("{x} ({})", run.mode));
                let mut row = vec![setting];
                row.extend(
                    runs.iter()
                        .flat_map(|run| [run.miss_rate_pct(), run.avg_us()])
                        .map(|v| f(v, 2)),
                );
                row
            };
            table(&head.join(","), &points.iter().map(row).collect::<Vec<_>>());
        }
    }
}
