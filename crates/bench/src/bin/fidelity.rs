//! Regenerates the paper's §5 evaluation from **one replay per
//! (benchmark, mode)**: each benchmark's trace is generated and its model
//! fitted once, LRU, the three GMM strategies and eviction-only MIN are
//! replayed once, and Fig. 6 (with the compulsory floor and MIN), Table 1,
//! Table 2's modeled rows and Fig. 5 (`stream`'s `gmm-both` counters
//! re-costed under the dataflow engines, overlap on and off) are read off
//! those runs. Exits non-zero when a relation that holds by construction
//! breaks: floor ≤ MIN ≤ LRU, or floor ≤ any GMM mode.
//!
//! Usage: `cargo run -p icgmm-bench --release --bin fidelity [--quick]`

use icgmm::benchmarks::{paper_best_strategy, paper_numbers};
use icgmm::report::{f, format_table};
use icgmm::RunReport;
use icgmm_bench::{banner, Fidelity, Scale};
use icgmm_cache::SimReport;
use icgmm_hw::{
    table2, DataflowConfig, DataflowReport, GmmEngineModel, GmmResourceModel, ResourceEstimate,
};
use icgmm_lstm::{LstmArch, LstmCostModel};
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
            let cut = f((1.0 - best / lru) * 100.0, 2);
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
    let gmm_us = GmmEngineModel::paper_k256().latency_us();
    let lstm = LstmCostModel::paper_calibrated()
        .estimate(&LstmArch::paper_baseline())
        .expect("the calibrated model is valid");
    let counts = |r: ResourceEstimate| [r.bram_36k, r.dsp, r.lut, r.ff];
    let row = |engine: &str, counts: [u32; 4], latency: String| {
        let mut row = vec![engine.to_string()];
        row.extend(counts.map(|v| v.to_string()));
        row.push(latency);
        row
    };
    let ms = |t: f64| format!("{:.1} ms", t / 1000.0);
    let us = |t: f64| format!("{t:.1} µs");
    let lstm_counts = [lstm.bram_36k, lstm.dsp, lstm.lut, lstm.ff];
    let (paper_lstm, paper_gmm) = (table2::LSTM, table2::GMM);
    let gmm = GmmResourceModel::paper_k256().estimate();
    let rows = [
        row(
            "LSTM (paper)",
            counts(paper_lstm),
            ms(table2::LSTM_LATENCY_US),
        ),
        row("LSTM (our model)", lstm_counts, ms(lstm.latency_us)),
        row("GMM (paper)", counts(paper_gmm), us(table2::GMM_LATENCY_US)),
        row("GMM (our model)", counts(gmm), us(gmm_us)),
    ];
    table("engine,BRAM,DSP,LUT,FF,latency", &rows);
    let gain = lstm.latency_us / gmm_us;
    let paper = table2::LSTM_LATENCY_US / table2::GMM_LATENCY_US;
    println!("modeled latency gain: {gain:.0}x (paper: {paper:.0}x)");
    println!("Both models are calibrated to the paper's own rows: the LSTM's efficiency");
    println!("to its 46.3 ms, the LUT/FF constants to each row's counts.");
}

/// Fig. 5: `run`'s counters under the dataflow engines' latency, with the
/// policy inference overlapped with the SSD access and not.
fn fig5(run: &RunReport) {
    banner("Fig. 5 — dataflow architecture: overlap & utilization (stream, gmm-both)");
    let cost = |overlap_policy_with_ssd| {
        let df = DataflowConfig {
            overlap_policy_with_ssd,
            ..Default::default()
        };
        let (s, latency) = (&run.sim, df.latency());
        let sim =
            SimReport::from_counts(s.stats, None, s.fault, &latency, &s.eviction, &s.admission);
        DataflowReport::from_sim(&sim, &df)
    };
    let (with, without) = (cost(true), cost(false));
    let row = |metric: &str, v: fn(&DataflowReport) -> f64| {
        vec![metric.to_string(), f(v(&with), 3), f(v(&without), 3)]
    };
    let rows = [
        row("avg request latency (µs)", |r| r.avg_request_us),
        row("makespan (s)", |r| r.makespan_us / 1e6),
        row("GMM busy (s)", |r| r.gmm_busy_us / 1e6),
        row("SSD busy (s)", |r| r.ssd.busy_us / 1e6),
        row("SSD utilization", DataflowReport::ssd_utilization),
        row("overlap saved (s)", |r| r.overlap_saved_us / 1e6),
    ];
    table("metric,dataflow (overlap),sequential", &rows);
    let gain = (without.avg_request_us - with.avg_request_us) / without.avg_request_us * 100.0;
    println!("overlap removes {gain:.2}% of average latency on this miss-heavy trace;");
    println!("per miss it hides the full 3 µs GMM inference behind the >=75 µs SSD access,");
    println!("which is the paper's justification for the free-running-kernel design.");
}
