//! Drive the cycle-approximate FPGA dataflow model directly: per-module
//! latencies, resource estimates, the fixed-point datapath, and the
//! overlap of GMM inference with SSD accesses (paper §4).
//!
//! Run with: `cargo run --release --example hardware_model`

use icgmm::{Icgmm, IcgmmConfig, PolicyMode};
use icgmm_gmm::EmConfig;
use icgmm_hw::{
    table2, CacheEngineModel, DataflowConfig, GmmEngineModel, GmmResourceModel, SsdProfile,
};
use icgmm_trace::synth::WorkloadKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Module-level timing, straight from the calibrated models.
    let cache_engine = CacheEngineModel::paper_default();
    let gmm_engine = GmmEngineModel::paper_k256();
    let ssd = SsdProfile::tlc();
    println!(
        "cache hit        : {:?} = {:.2} µs",
        cache_engine.hit_cycles(),
        cache_engine.hit_us()
    );
    println!(
        "GMM inference    : {:?} = {:.2} µs (K={}, II={}, depth={})",
        gmm_engine.latency_cycles(),
        gmm_engine.latency_us(),
        gmm_engine.k,
        gmm_engine.ii,
        gmm_engine.pipeline_depth
    );
    println!(
        "SSD read/program : {} µs / {} µs ({})",
        ssd.read_us, ssd.write_us, ssd.name
    );

    let res = GmmResourceModel::paper_k256().estimate();
    println!(
        "\nGMM engine resources (modeled vs paper Table 2):\n  BRAM {} (paper {})  DSP {} (paper {})  LUT {} (paper {})  FF {} (paper {})",
        res.bram_36k,
        table2::GMM.bram_36k,
        res.dsp,
        table2::GMM.dsp,
        res.lut,
        table2::GMM.lut,
        res.ff,
        table2::GMM.ff
    );

    // End-to-end dataflow run with the fixed-point datapath.
    let trace = WorkloadKind::Stream.default_workload().generate(200_000, 4);
    let cfg = IcgmmConfig {
        em: EmConfig {
            k: 64,
            ..Default::default()
        },
        fixed_point_inference: true, // bit-faithful FPGA datapath
        ..IcgmmConfig::default()
    };
    let mut system = Icgmm::new(cfg)?;
    system.fit(&trace)?;

    for overlap in [true, false] {
        let report = system.run_dataflow(
            &trace,
            PolicyMode::GmmCachingEviction,
            &DataflowConfig {
                overlap_policy_with_ssd: overlap,
                ..Default::default()
            },
        )?;
        println!(
            "\ndataflow ({}):\n  avg request {:.2} µs | makespan {:.2} s | SSD util {:.2} | overlap saved {:.3} s",
            if overlap { "free-running, overlapped" } else { "sequential" },
            report.avg_request_us,
            report.makespan_us / 1e6,
            report.ssd_utilization(),
            report.overlap_saved_us / 1e6
        );
    }
    println!("\nThe overlapped design hides the full 3 µs inference behind every");
    println!("SSD access — the sequential design pays it on every miss.");
    Ok(())
}
