//! Regenerates **Table 2**: FPGA resource utilization and inference
//! latency, LSTM baseline vs GMM policy engine — plus measured software
//! wall-clock for both models as corroborating evidence (see also the
//! Criterion benches `gmm_inference` and `lstm_inference`).
//!
//! Usage: `cargo run -p icgmm-bench --release --bin table2 [--quick]`

use icgmm::report::{f, format_table};
use icgmm_bench::banner;
use icgmm_gmm::{EmConfig, EmTrainer};
use icgmm_hw::{table2, GmmEngineModel, GmmResourceModel};
use icgmm_lstm::{LstmArch, LstmCostModel, LstmNetwork};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    banner("Table 2 — resources & latency, LSTM vs GMM policy engine");

    // Modeled FPGA numbers.
    let gmm_res = GmmResourceModel::paper_k256().estimate();
    let gmm_lat = GmmEngineModel::paper_k256().latency_us();
    let lstm_cost = LstmCostModel::paper_calibrated()
        .estimate(&LstmArch::paper_baseline())
        .expect("the calibrated model is valid");

    let rows = vec![
        vec![
            "LSTM (paper)".into(),
            table2::LSTM.bram_36k.to_string(),
            table2::LSTM.dsp.to_string(),
            table2::LSTM.lut.to_string(),
            table2::LSTM.ff.to_string(),
            format!("{:.1} ms", table2::LSTM_LATENCY_US / 1000.0),
        ],
        vec![
            "LSTM (our model)".into(),
            lstm_cost.bram_36k.to_string(),
            lstm_cost.dsp.to_string(),
            lstm_cost.lut.to_string(),
            lstm_cost.ff.to_string(),
            format!("{:.1} ms", lstm_cost.latency_us / 1000.0),
        ],
        vec![
            "GMM (paper)".into(),
            table2::GMM.bram_36k.to_string(),
            table2::GMM.dsp.to_string(),
            table2::GMM.lut.to_string(),
            table2::GMM.ff.to_string(),
            format!("{:.1} µs", table2::GMM_LATENCY_US),
        ],
        vec![
            "GMM (our model)".into(),
            gmm_res.bram_36k.to_string(),
            gmm_res.dsp.to_string(),
            gmm_res.lut.to_string(),
            gmm_res.ff.to_string(),
            format!("{:.1} µs", gmm_lat),
        ],
    ];
    println!(
        "{}",
        format_table(&["engine", "BRAM", "DSP", "LUT", "FF", "latency"], &rows)
    );
    let modeled_gain = lstm_cost.latency_us / gmm_lat;
    println!(
        "modeled latency gain: {:.0}x (paper: {:.0}x)",
        modeled_gain,
        table2::LSTM_LATENCY_US / table2::GMM_LATENCY_US
    );

    // Software wall-clock corroboration: one GMM score vs one LSTM forward.
    banner("software wall-clock cross-check (this machine)");
    let mut rng = StdRng::seed_from_u64(1);
    let xs: Vec<[f64; 2]> = (0..4_000)
        .map(|_| [rng.gen::<f64>() * 4.0 - 2.0, rng.gen::<f64>() * 4.0 - 2.0])
        .collect();
    let (gmm, _) = EmTrainer::new(EmConfig {
        k: 256,
        max_iters: 5,
        ..Default::default()
    })
    .expect("valid config")
    .fit(&xs, &[])
    .expect("training succeeds");

    let n = 2_000;
    let t0 = Instant::now();
    let mut acc = 0.0;
    for i in 0..n {
        acc += gmm.score(xs[i % xs.len()]);
    }
    let gmm_sw_us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;

    let net = LstmNetwork::new(LstmArch::paper_baseline(), &mut rng);
    let seq: Vec<Vec<f32>> = (0..32).map(|t| vec![t as f32 * 0.01, 0.5]).collect();
    let m = 50;
    let t1 = Instant::now();
    let mut acc2 = 0.0f32;
    for _ in 0..m {
        acc2 += net.forward(&seq);
    }
    let lstm_sw_us = t1.elapsed().as_secs_f64() * 1e6 / f64::from(m);

    println!(
        "{}",
        format_table(
            &["engine", "software latency (µs)", "ratio"],
            &[
                vec!["GMM K=256 score".into(), f(gmm_sw_us, 2), "1x".into()],
                vec![
                    "LSTM 3x128 seq-32 forward".into(),
                    f(lstm_sw_us, 2),
                    format!("{:.0}x", lstm_sw_us / gmm_sw_us),
                ],
            ],
        )
    );
    println!("(sink values: {acc:.3} {acc2:.3})");
    println!("Expected shape: the GMM is orders of magnitude cheaper per decision in");
    println!("software too; on hardware the gap widens to >10,000x because the GMM");
    println!("pipelines its K Gaussians at II=1 while the LSTM serializes 32 timesteps.");
}
