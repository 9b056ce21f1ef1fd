//! Quickstart: train the ICGMM policy engine on a memtier-like trace and
//! compare it against LRU — the paper's core experiment in ~40 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use icgmm::benchmarks::BenchmarkSpec;
use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::WorkloadKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a dlrm-like trace (embedding gathers over a footprint far
    //    larger than the cache — the paper's biggest win). In a real
    //    deployment this would come from the CXL trace collector.
    let spec = BenchmarkSpec::suite_with_requests(300_000)
        .into_iter()
        .find(|s| s.kind == WorkloadKind::Dlrm)
        .expect("dlrm is in the suite");
    let workload = spec.workload();
    let trace = workload.generate(spec.requests, spec.seed);
    let stats = trace.stats();
    println!(
        "trace: {} requests, {} distinct pages ({} MiB footprint), {:.1}% writes",
        stats.requests,
        stats.distinct_pages,
        stats.footprint_bytes() / (1024 * 1024),
        stats.write_fraction() * 100.0
    );

    // 2. Configure the system: the paper's 64 MiB / 4 KiB / 8-way cache,
    //    TLC SSD latencies, the benchmark's calibrated admission quantile,
    //    and a reduced K for a fast demo.
    let cfg = IcgmmConfig {
        em: EmConfig {
            k: 64,
            ..Default::default()
        },
        ..spec.config()
    };
    let mut system = Icgmm::new(cfg)?;

    // 3. Offline training (paper §3): trim → Algorithm 1 timestamps →
    //    weighted EM → threshold calibration.
    let fit = system.fit(&trace)?.clone();
    let threshold = system.model().expect("just fitted").threshold;
    println!(
        "trained: {} cells (from {} requests), EM {} iterations (converged: {}), threshold {:.3e}",
        fit.cells_trained, fit.records_used, fit.em.iterations, fit.em.converged, threshold
    );

    // 4. Run the paper's four policies over the same trace.
    for mode in PolicyMode::fig6_modes() {
        let run = system.run(&trace, mode)?;
        println!(
            "{:>14}: miss {:5.2}%  avg access {:6.2} µs  (bypasses {}, dirty evictions {})",
            mode.to_string(),
            run.miss_rate_pct(),
            run.avg_us(),
            run.sim.stats.bypasses(),
            run.sim.stats.dirty_evictions,
        );
    }
    Ok(())
}
