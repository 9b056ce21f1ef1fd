//! Sensitivity study: how much of the GMM's latency win survives on
//! faster/slower storage? Sweeps the SSD device class (Z-NAND → TLC → QLC)
//! on one benchmark, using the same trained model.
//!
//! Run with: `cargo run --release --example ssd_sweep`

use icgmm::report::{f, format_table};
use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_cache::LatencyModel;
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::WorkloadKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = WorkloadKind::Dlrm.default_workload().generate(300_000, 9);
    let cfg = IcgmmConfig {
        em: EmConfig {
            k: 64,
            ..Default::default()
        },
        admission_quantile: 0.35,
        ..IcgmmConfig::default()
    };
    let mut system = Icgmm::new(cfg)?;
    system.fit(&trace)?;

    let devices = [
        ("z-nand (10/100 µs)", LatencyModel::low_latency_ssd()),
        ("tlc (75/900 µs, paper)", LatencyModel::paper_tlc()),
        ("qlc (150/2200 µs)", LatencyModel::qlc_ssd()),
    ];
    let mut rows = Vec::new();
    for (name, lat) in devices {
        let lru = system.run_with_latency(&trace, PolicyMode::Lru, &lat)?;
        let gmm = system.run_with_latency(&trace, PolicyMode::GmmEvictionOnly, &lat)?;
        rows.push(vec![
            name.to_string(),
            f(lru.avg_us(), 2),
            f(gmm.avg_us(), 2),
            f((1.0 - gmm.avg_us() / lru.avg_us()) * 100.0, 2),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["device", "lru avg µs", "gmm avg µs", "reduction %"],
            &rows
        )
    );
    println!("The slower the device, the more each avoided miss is worth — the");
    println!("reduction percentage is roughly device-independent (it tracks the");
    println!("miss-rate cut), but the absolute µs saved grows with SSD latency.");
    Ok(())
}
