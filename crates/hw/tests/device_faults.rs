//! Device-fault behaviour of the cycle-approximate dataflow model:
//! injected SSD failures, retries, timeouts and tail spikes perturb only
//! the *modeled time* (never the functional replay), the perturbation is a
//! deterministic function of `(plan seed, trace)` — each command rolled at
//! its request's position and its index within the request — and an empty
//! plan leaves the report bit-identical to today's model.

use icgmm_cache::{FaultPlan, ShardCtx, ShardPolicies, ShardedSimulator};
use icgmm_hw::{DataflowConfig, DataflowReport};
use icgmm_testutil::{policy_for, small_cfg, zipf_trace};
use icgmm_trace::TraceRecord;
use proptest::prelude::*;

/// The dataflow report of an LRU replay with `plan` armed, the replay
/// `Icgmm::run_dataflow` runs.
fn run_streaming(plan: FaultPlan, trace: &[TraceRecord], warmup_len: usize) -> DataflowReport {
    let cfg = small_cfg();
    let df_cfg = DataflowConfig::default();
    let make = |_: &ShardCtx<'_>| ShardPolicies {
        policy: policy_for("lru", "always", cfg, trace),
        score: None,
    };
    let rep = ShardedSimulator::new(1)
        .with_faults(plan)
        .run(trace, warmup_len, cfg, &make, &df_cfg.latency(), None)
        .expect("valid geometry");
    DataflowReport::from_sim(&rep.sim, &df_cfg)
}

proptest! {
    /// An explicit empty plan is invisible to the dataflow model: the
    /// report is bit-identical to the default configuration's and its
    /// fault block is clean.
    #[test]
    fn empty_plan_dataflow_report_is_bit_identical(
        params in (0u64..1_000_000, 300usize..900, 24u64..160)
    ) {
        let (seed, n, pages) = params;
        let trace = zipf_trace(seed, n, pages, 0.9, 25);
        let warmup_len = (seed as usize) % (n / 2);
        let plain = run_streaming(FaultPlan::empty(), &trace, warmup_len);
        let armed = run_streaming(FaultPlan { seed, ..FaultPlan::empty() }, &trace, warmup_len);
        prop_assert!(plain.fault.is_clean());
        prop_assert_eq!(&plain, &armed);
    }
}

proptest! {
    /// Device faults charge the modeled time deterministically: the
    /// functional replay (stats, loader behaviour, op counts) is
    /// untouched, the makespan grows by exactly what the faults added to
    /// the faulted requests, the device's busy time by exactly the faulted
    /// commands' extra service, and two runs from the same seeds agree
    /// bit-for-bit.
    #[test]
    fn device_faults_charge_only_the_modeled_timeline(
        params in (0u64..1_000_000, 0u64..1_000_000, 400usize..1000, 200u64..800)
    ) {
        // Working sets well past the 32-block cache keep the measured
        // phase miss-heavy, so the plan has SSD commands to perturb.
        let (plan_seed, trace_seed, n, pages) = params;
        let trace = zipf_trace(trace_seed, n, pages, 0.8, 25);
        let plan = FaultPlan {
            seed: plan_seed,
            device_fail_per_mille: 120,
            device_spike_per_mille: 80,
            ..FaultPlan::empty()
        };
        let plain = run_streaming(FaultPlan::empty(), &trace, n / 4);
        let armed = run_streaming(plan, &trace, n / 4);

        prop_assert_eq!(&plain.stats, &armed.stats, "device faults altered functional replay");
        prop_assert_eq!(plain.loader_stalls, armed.loader_stalls);
        prop_assert_eq!(plain.ssd.reads, armed.ssd.reads);
        prop_assert_eq!(plain.ssd.writes, armed.ssd.writes);
        prop_assert!(
            armed.fault.device_failures + armed.fault.device_spikes > 0,
            "armed rates injected nothing over {} records", n
        );
        prop_assert!(armed.fault.device_fault_us > 0.0);
        prop_assert!(armed.fault.device_request_us > 0.0);
        prop_assert!(
            armed.makespan_us > plain.makespan_us,
            "charged fault time must extend the makespan"
        );
        prop_assert_eq!(armed.makespan_us, plain.makespan_us + armed.fault.device_request_us);
        prop_assert_eq!(armed.ssd.busy_us, plain.ssd.busy_us + armed.fault.device_fault_us);
        // Under overlap the inference hides behind a slower device no
        // worse than behind the nominal one.
        prop_assert!(armed.overlap_saved_us >= plain.overlap_saved_us);

        let again = run_streaming(plan, &trace, n / 4);
        prop_assert_eq!(&armed, &again, "device faults must be deterministic");
    }
}
