//! Compare the paper's four policy modes (Fig. 6: LRU and the three GMM
//! modes) and Belady's MIN on a scan-heavy workload where replacement
//! policy actually matters.
//!
//! Run with: `cargo run --release --example policy_comparison`

use icgmm::report::{f, format_table};
use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::{StreamWorkload, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // STREAM-like: cyclic sweeps (LRU-hostile) plus a hot control region.
    let workload = StreamWorkload::default();
    let trace = workload.generate(400_000, 7);

    let cfg = IcgmmConfig {
        em: EmConfig {
            k: 64,
            ..Default::default()
        },
        ..IcgmmConfig::default()
    };
    let mut system = Icgmm::new(cfg)?;
    system.fit(&trace)?;

    let mut rows = Vec::new();
    for mode in PolicyMode::fig6_modes()
        .into_iter()
        .chain([PolicyMode::Belady])
    {
        let run = system.run(&trace, mode)?;
        rows.push(vec![
            mode.to_string(),
            f(run.miss_rate_pct(), 2),
            f(run.avg_us(), 2),
            run.sim.stats.bypasses().to_string(),
            run.gmm_inferences.to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["policy", "miss %", "avg µs", "bypasses", "gmm inferences"],
            &rows
        )
    );
    println!("Belady's MIN is the offline optimum among always-admitting policies:");
    println!("neither LRU nor gmm-eviction can beat it (the modes that bypass can).");
    println!("The GMM modes should sit between LRU and Belady on this workload.");
    Ok(())
}
