//! Property tests: the dataflow replay (the streaming loop under the
//! latency model the hardware engines derive, device faults riding its
//! accounting) never alters the functional replay — its `stats` equal the
//! analytic simulator's over random Zipf traces × eviction policies ×
//! admission policies × score-source shapes, warm-up splits and overlap
//! on/off included — the whole `DataflowReport`, every timing field
//! included, reproduces bit for bit, and its timing equals the **reference
//! timeline** below: the loader / finish-time FIFO ring / in-order engine /
//! busy-until SSD model the closed form replaced, kept here verbatim as the
//! oracle (only its device-fault roll key moved from a running command
//! count to the request's position and the command's index in it). The
//! reference also shows *why* the closed form is exact — its SSD queue
//! never holds anything and its FIFO is full from record 64 on.

use icgmm_cache::{
    simulate_streaming_observed_with_warmup, simulate_streaming_with_warmup, AccessOutcome,
    FaultPlan, FaultStats, ReplayEvent, ReplayObserver, ScoreSource, SetAssocCache, ShardCtx,
    ShardPolicies, ShardedSimulator, SimReport,
};
use icgmm_hw::{DataflowConfig, DataflowReport, GmmEngineModel, SsdProfile, SsdStats};
use icgmm_testutil::{policy_for, score_for, small_cfg, zipf_trace, ADMISSIONS, EVICTIONS, SCORES};
use icgmm_trace::{Op, TraceRecord};
use proptest::prelude::*;

/// The loader's clock (233 MHz) and lookahead: the two `DataflowConfig`
/// knobs that went with the timeline.
const CYCLE_US: f64 = 1.0 / 233.0;
const FIFO_DEPTH: usize = 64;

/// Single-command SSD emulator with a busy-until clock — the deleted
/// `SsdEmulator`, verbatim.
struct RefSsd {
    profile: SsdProfile,
    busy_until_us: f64,
    stats: SsdStats,
    queue_wait_us: f64,
    fault_plan: Option<FaultPlan>,
    fault: FaultStats,
    /// Service time of the last command.
    service_us: f64,
}

impl RefSsd {
    /// Issues command `cmd` of the request at trace position `pos` at
    /// absolute time `now_us`; returns the command's completion time.
    /// Commands queue behind an in-flight command.
    fn access(&mut self, now_us: f64, op: Op, pos: u64, cmd: u64) -> f64 {
        let start = now_us.max(self.busy_until_us);
        self.queue_wait_us += start - now_us;
        let nominal = self.profile.latency_us(op);
        let latency = match self.fault_plan {
            None => nominal,
            Some(plan) => plan.device_command_us(pos, cmd, nominal, &mut self.fault),
        };
        self.service_us = latency;
        self.busy_until_us = start + latency;
        self.stats.busy_us += latency;
        match op {
            Op::Read => self.stats.reads += 1,
            Op::Write => self.stats.writes += 1,
        }
        self.busy_until_us
    }
}

/// Per-record timing accounting of the deleted dataflow timeline
/// (`DataflowTimer`, verbatim): arrival / start / finish instants per
/// request under loader backpressure, in-order service and SSD queueing.
struct RefTimeline {
    warmup_len: usize,
    cycle_us: f64,
    hit_us: f64,
    miss_overhead_us: f64,
    gmm_us: f64,
    overlap: bool,
    depth: usize,
    // Ring buffer of the last `depth` finish times (bounded-buffer rule:
    // record i cannot enter the FIFO before record i-depth has left it).
    finish_ring: Vec<f64>,
    idx: usize,
    prev_arrival: f64,
    prev_finish: f64,
    latency_sum: f64,
    gmm_busy_us: f64,
    overlap_saved_us: f64,
    loader_stalls: u64,
    ssd: RefSsd,
}

impl RefTimeline {
    fn new(config: &DataflowConfig, plan: FaultPlan, warmup_len: usize) -> Self {
        RefTimeline {
            warmup_len,
            cycle_us: CYCLE_US,
            hit_us: config.cache_engine.hit_us(),
            miss_overhead_us: config.cache_engine.miss_overhead_us(),
            gmm_us: config.gmm_engine.latency_us(),
            overlap: config.overlap_policy_with_ssd,
            depth: FIFO_DEPTH,
            finish_ring: vec![0.0; FIFO_DEPTH],
            idx: 0,
            prev_arrival: 0.0,
            prev_finish: 0.0,
            latency_sum: 0.0,
            gmm_busy_us: 0.0,
            overlap_saved_us: 0.0,
            loader_stalls: 0,
            ssd: RefSsd {
                profile: config.ssd.clone(),
                busy_until_us: 0.0,
                stats: SsdStats::default(),
                queue_wait_us: 0.0,
                fault_plan: plan.device_armed().then_some(plan),
                fault: FaultStats::default(),
                service_us: 0.0,
            },
        }
    }

    /// Advances the modeled timeline by one measured request, the one at
    /// trace position `pos`.
    fn step(&mut self, pos: u64, op: Op, outcome: &AccessOutcome) {
        let i = self.idx;
        self.idx += 1;

        // Loader: one record per cycle, gated by FIFO space.
        let fifo_free_at = self.finish_ring[i % self.depth];
        let mut arrival = self.prev_arrival + self.cycle_us;
        if fifo_free_at > arrival {
            arrival = fifo_free_at;
            self.loader_stalls += 1;
        }
        self.prev_arrival = arrival;

        // Engine: in-order service.
        let start = arrival.max(self.prev_finish);
        let finish = match outcome {
            AccessOutcome::Hit { .. } => start + self.hit_us,
            AccessOutcome::MissInserted { evicted, .. } => {
                let t0 = start + self.miss_overhead_us;
                // Page fetch; dirty victims are written back behind it.
                let mut ssd_done = self.ssd.access(t0, Op::Read, pos, 0);
                let (mut faulted, mut nominal) = (self.ssd.service_us, self.ssd.profile.read_us);
                if let Some(e) = evicted {
                    if e.dirty {
                        ssd_done = self.ssd.access(ssd_done, Op::Write, pos, 1);
                        faulted += self.ssd.service_us;
                        nominal += self.ssd.profile.write_us;
                    }
                }
                self.charge_device(faulted, nominal);
                self.miss_finish(t0, ssd_done)
            }
            AccessOutcome::MissBypassed => {
                let t0 = start + self.miss_overhead_us;
                let ssd_done = self.ssd.access(t0, op, pos, 0);
                self.charge_device(self.ssd.service_us, self.ssd.profile.latency_us(op));
                self.miss_finish(t0, ssd_done)
            }
        };
        self.latency_sum += finish - start;
        self.prev_finish = finish;
        self.finish_ring[i % self.depth] = finish;
    }

    /// What the device faults added to a miss whose commands the SSD served
    /// in `faulted` µs against `nominal`: the critical path with the faulted
    /// SSD time minus with the nominal one.
    fn charge_device(&mut self, faulted: f64, nominal: f64) {
        if self.ssd.fault_plan.is_none() {
            return;
        }
        self.ssd.fault.device_request_us += if self.overlap {
            faulted.max(self.gmm_us) - nominal.max(self.gmm_us)
        } else {
            faulted - nominal
        };
    }

    /// Completes a miss: the GMM inference runs concurrently with the SSD
    /// access under the dataflow architecture, sequentially otherwise.
    fn miss_finish(&mut self, t0: f64, ssd_done: f64) -> f64 {
        self.gmm_busy_us += self.gmm_us;
        let ssd_time = ssd_done - t0;
        if self.overlap {
            self.overlap_saved_us += self.gmm_us.min(ssd_time);
            t0 + ssd_time.max(self.gmm_us)
        } else {
            t0 + self.gmm_us + ssd_time
        }
    }
}

impl ReplayObserver for RefTimeline {
    fn on_record(&mut self, ev: &ReplayEvent<'_>) {
        if (ev.seq as usize) >= self.warmup_len {
            self.step(ev.seq, ev.record.op(), ev.outcome);
        }
    }
}

/// One point of the eviction × admission × score grid.
struct Case<'a> {
    eviction: &'a str,
    admission: &'a str,
    score: &'a str,
    trace: &'a [TraceRecord],
    warmup_len: usize,
    df_cfg: &'a DataflowConfig,
    plan: FaultPlan,
}

impl Case<'_> {
    /// The dataflow report of the one-shard replay under the derived
    /// latency model with the plan armed — what `Icgmm::run_dataflow` runs.
    fn run_dataflow(&self) -> DataflowReport {
        let cfg = small_cfg();
        let make = |_: &ShardCtx<'_>| ShardPolicies {
            policy: policy_for(self.eviction, self.admission, cfg, self.trace),
            score: score_for(self.score),
        };
        let (lat, plan) = (self.df_cfg.latency(), self.plan);
        let rep = ShardedSimulator::new(1)
            .with_faults(plan)
            .run(self.trace, self.warmup_len, cfg, &make, &lat, None)
            .expect("valid geometry");
        DataflowReport::from_sim(&rep.sim, self.df_cfg)
    }

    /// The analytic replay under the derived latency model — plain, or
    /// with the reference timeline riding its event stream.
    fn run_analytic(&self, timeline: Option<&mut RefTimeline>) -> SimReport {
        let cfg = small_cfg();
        let (warm, meas) = self.trace.split_at(self.warmup_len);
        let mut cache = SetAssocCache::new(cfg).unwrap();
        let mut pol = policy_for(self.eviction, self.admission, cfg, self.trace);
        let mut sc = score_for(self.score);
        let (ad, ev) = (&mut pol.admit, &mut pol.evict);
        let sc = sc.as_deref_mut().map(|s| s as &mut dyn ScoreSource);
        let lat = self.df_cfg.latency();
        match timeline {
            None => simulate_streaming_with_warmup(warm, meas, &mut cache, ad, ev, sc, &lat, None),
            Some(t) => simulate_streaming_observed_with_warmup(
                warm, meas, &mut cache, ad, ev, sc, &lat, None, t,
            ),
        }
    }
}

/// `a` within 1e-12 relative of `b` (or equal, zeros included).
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs())
}

/// The run's engines, device and fault plan, drawn from the seed's bits:
/// overlap on/off, device faults armed on half the runs, an inference from
/// the paper's 3 µs (K = 256) up to 87.7 µs (K = 20 000), and an SSD from
/// sub-µs to QLC-slow — so about a quarter of the runs have an inference
/// slower than the page read, faulted and unfaulted alike.
fn dataflow_cfg(seed: u64) -> (DataflowConfig, FaultPlan) {
    let bits = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
    let unit = |shift: u32| ((bits >> shift) % 1_024) as f64 / 1_024.0;
    let fault = if bits & 2 == 0 {
        FaultPlan::empty()
    } else {
        FaultPlan {
            seed,
            device_fail_per_mille: 150,
            device_spike_per_mille: 100,
            device_retry_limit: (bits >> 4 & 3) as u32,
            ..FaultPlan::empty()
        }
    };
    let config = DataflowConfig {
        gmm_engine: GmmEngineModel::with_k([256, 4_096, 20_000, 20_000][(bits >> 2 & 3) as usize]),
        ssd: SsdProfile {
            name: "random".into(),
            read_us: 0.5 + unit(8) * 200.0,
            write_us: 1.0 + unit(20) * 2_500.0,
        },
        overlap_policy_with_ssd: bits & 1 == 0,
        ..DataflowConfig::default()
    };
    (config, fault)
}

proptest! {
    /// Dataflow `stats` == analytic `stats`, a second dataflow run is
    /// bit-identical in every field, and every timing figure equals the
    /// reference timeline's — for every eviction × admission × score
    /// combination over random Zipf traces with a random warm-up split,
    /// random engines and devices, with and without device faults.
    #[test]
    fn dataflow_replay_matches_analytic_stats_and_reproduces(
        params in (0u64..1_000_000, 300usize..1000, 24u64..160, (60u64..140), 0u8..45)
    ) {
        let (seed, n, pages, skew_pct, write_pct) = params;
        let skew = skew_pct as f64 / 100.0;
        let trace = zipf_trace(seed, n, pages, skew, write_pct);
        let warmup_len = (seed as usize) % (n / 2);
        let measured = (n - warmup_len) as u64;
        let (df_cfg, plan) = dataflow_cfg(seed);
        let lat = df_cfg.latency();
        for eviction in EVICTIONS {
            for admission in ADMISSIONS {
                for score in SCORES {
                    let case = Case {
                        eviction, admission, score, trace: &trace, warmup_len, df_cfg: &df_cfg, plan,
                    };
                    let what = format!(
                        "{eviction}/{admission}/{score} (seed {seed}, n {n}, {df_cfg:?}, {plan:?})"
                    );
                    let dataflow = case.run_dataflow();
                    let mut reference = RefTimeline::new(&df_cfg, plan, warmup_len);
                    let analytic = case.run_analytic(Some(&mut reference));
                    prop_assert_eq!(&dataflow.stats, &analytic.stats, "{}", what);
                    prop_assert_eq!(&dataflow, &case.run_dataflow(), "{}", what);

                    // Why the closed form is exact: nothing ever waits for
                    // the device, and the loader is stalled on every
                    // record once its FIFO has filled (each service
                    // outlasts the 64 cycles it takes to fill it).
                    prop_assert!(lat.hit_us.min(lat.miss_us(0.0)) > 64.0 * CYCLE_US);
                    prop_assert_eq!(reference.ssd.queue_wait_us, 0.0, "{}", what);
                    prop_assert_eq!(
                        reference.loader_stalls, measured.saturating_sub(64), "{}", what
                    );
                    prop_assert_eq!(dataflow.loader_stalls, reference.loader_stalls);

                    // The timeline's figures. Its makespan leads with the
                    // loader's first cycle — all `DataflowConfig::clock`
                    // ever contributed.
                    let ref_avg = reference.latency_sum / measured as f64;
                    for (name, new, old) in [
                        ("avg_request_us", dataflow.avg_request_us, ref_avg),
                        ("makespan_us", dataflow.makespan_us, reference.prev_finish - CYCLE_US),
                        ("gmm_busy_us", dataflow.gmm_busy_us, reference.gmm_busy_us),
                        ("overlap_saved_us", dataflow.overlap_saved_us, reference.overlap_saved_us),
                        ("ssd.busy_us", dataflow.ssd.busy_us, reference.ssd.stats.busy_us),
                    ] {
                        prop_assert!(close(new, old), "{}: {} {} vs reference {}", what, name, new, old);
                    }
                    prop_assert_eq!(dataflow.ssd.reads, reference.ssd.stats.reads, "{}", what);
                    prop_assert_eq!(dataflow.ssd.writes, reference.ssd.stats.writes, "{}", what);
                    prop_assert_eq!(&dataflow.fault, &reference.ssd.fault, "{}", what);

                    // Unfaulted, the dataflow run *is* the analytic replay
                    // under the derived model.
                    if !plan.device_armed() {
                        let plain = case.run_analytic(None);
                        prop_assert_eq!(dataflow.avg_request_us, plain.avg_us, "{}", what);
                        prop_assert_eq!(dataflow.makespan_us, plain.total_us, "{}", what);
                        prop_assert!(dataflow.fault.is_clean());
                    }
                }
            }
        }
    }
}
