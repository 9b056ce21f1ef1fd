//! Regenerates **Fig. 6**: cache miss rates of the LRU baseline vs the
//! three GMM strategies (caching-only, eviction-only, caching-eviction)
//! across the seven benchmarks.
//!
//! Usage: `cargo run -p icgmm-bench --release --bin fig6 [--quick]`

use icgmm::benchmarks::{paper_best_strategy, paper_numbers};
use icgmm::experiment::{best_gmm, find, run_benchmark_with};
use icgmm::report::{f, format_table};
use icgmm::PolicyMode;
use icgmm_bench::{banner, Scale};

fn main() {
    let scale = Scale::from_args();
    banner("Fig. 6 — cache miss rate (%), LRU vs GMM strategies");
    println!("scale: {scale:?} (pass --quick for a fast run)");

    let modes = PolicyMode::fig6_modes();
    let mut rows = Vec::new();
    for spec in scale.suite() {
        let results =
            run_benchmark_with(&spec, scale.config(&spec), &modes).expect("benchmark run failed");
        let name = spec.kind.to_string();
        let get = |m: PolicyMode| find(&results, &name, m).expect("mode present").miss_pct;
        let best = best_gmm(&results, &name).expect("gmm modes present");
        let paper = paper_numbers(spec.kind);
        rows.push(vec![
            name.clone(),
            f(get(PolicyMode::Lru), 2),
            f(get(PolicyMode::GmmCachingOnly), 2),
            f(get(PolicyMode::GmmEvictionOnly), 2),
            f(get(PolicyMode::GmmCachingEviction), 2),
            format!("{} ({})", f(best.miss_pct, 2), best.mode),
            f(get(PolicyMode::Lru) - best.miss_pct, 2),
            format!(
                "{} -> {}",
                f(paper.lru_miss_pct, 2),
                f(paper.gmm_miss_pct, 2)
            ),
            paper_best_strategy(spec.kind).to_string(),
        ]);
        eprintln!("[fig6] {name} done");
    }
    println!(
        "{}",
        format_table(
            &[
                "benchmark",
                "lru",
                "gmm-caching",
                "gmm-eviction",
                "gmm-both",
                "best (ours)",
                "abs. reduction",
                "paper lru->best",
                "paper best mode",
            ],
            &rows,
        )
    );
    println!("Expected shape: GMM best <= LRU on every row; the paper's absolute");
    println!("reductions span 0.32%-6.14% (largest on dlrm, smallest on parsec).");
}
