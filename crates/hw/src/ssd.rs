//! SSD access-latency emulator (paper §4.2).
//!
//! The FPGA prototype cannot be attached to a real SSD in the authors'
//! measurement loop, so the paper embeds an emulator in the cache control
//! engine that "pauses the dataflow for a set duration to emulate SSD
//! response times", parameterized by device type. We model exactly that: a
//! single-command device that is busy for the programmed latency.

use icgmm_cache::{FaultPlan, FaultStats, DEVICE_SPIKE_MULT};
use icgmm_trace::Op;
use serde::{Deserialize, Serialize};

/// Latency profile of an emulated storage device.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SsdProfile {
    /// Device name for reports.
    pub name: String,
    /// Page (4 KiB) read latency, µs.
    pub read_us: f64,
    /// Page program latency, µs.
    pub write_us: f64,
}

impl SsdProfile {
    /// The paper's target: TLC NAND, 75 µs read / 900 µs program.
    pub fn tlc() -> Self {
        SsdProfile {
            name: "tlc".into(),
            read_us: 75.0,
            write_us: 900.0,
        }
    }

    /// A low-latency (Z-NAND class) device: 10 µs / 100 µs.
    pub fn low_latency() -> Self {
        SsdProfile {
            name: "z-nand".into(),
            read_us: 10.0,
            write_us: 100.0,
        }
    }

    /// A QLC device: 150 µs / 2200 µs.
    pub fn qlc() -> Self {
        SsdProfile {
            name: "qlc".into(),
            read_us: 150.0,
            write_us: 2200.0,
        }
    }

    /// Latency of one operation.
    pub fn latency_us(&self, op: Op) -> f64 {
        match op {
            Op::Read => self.read_us,
            Op::Write => self.write_us,
        }
    }
}

impl Default for SsdProfile {
    fn default() -> Self {
        SsdProfile::tlc()
    }
}

/// Cumulative emulator statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SsdStats {
    /// Page reads served.
    pub reads: u64,
    /// Page programs served.
    pub writes: u64,
    /// Total device-busy time, µs.
    pub busy_us: f64,
    /// Total time commands waited for the device, µs.
    pub queue_wait_us: f64,
}

/// Single-command SSD emulator with a busy-until clock.
///
/// With a [`FaultPlan`] armed (see [`SsdEmulator::with_faults`]), commands
/// can fail and retry with exponential backoff, suffer tail-latency
/// spikes, or time out — all charged to the *modeled* timeline (the device
/// stays busy through the whole retry ladder, exactly as the paper's
/// emulator pauses the dataflow for the programmed duration). Fault
/// decisions are pure hashes of `(plan seed, command index)`, so a faulted
/// timeline is reproducible command-for-command.
#[derive(Clone, Debug)]
pub struct SsdEmulator {
    profile: SsdProfile,
    busy_until_us: f64,
    stats: SsdStats,
    fault_plan: Option<FaultPlan>,
    fault: FaultStats,
    ops: u64,
}

impl SsdEmulator {
    /// Creates an idle emulator.
    pub fn new(profile: SsdProfile) -> Self {
        SsdEmulator {
            profile,
            busy_until_us: 0.0,
            stats: SsdStats::default(),
            fault_plan: None,
            fault: FaultStats::default(),
            ops: 0,
        }
    }

    /// Creates an idle emulator with device faults armed per `plan`. An
    /// empty (or device-disarmed) plan behaves exactly like
    /// [`SsdEmulator::new`].
    pub fn with_faults(profile: SsdProfile, plan: FaultPlan) -> Self {
        let mut e = SsdEmulator::new(profile);
        if plan.device_armed() {
            e.fault_plan = Some(plan);
        }
        e
    }

    /// The profile in use.
    pub fn profile(&self) -> &SsdProfile {
        &self.profile
    }

    /// Issues one command at absolute time `now_us`; returns the command's
    /// completion time. Commands queue behind an in-flight command.
    ///
    /// With faults armed, the command's service time covers its whole
    /// failure story: a spiked attempt latency, each failed attempt plus
    /// its exponential backoff, and the host-side timeout when retries
    /// exhaust. The extra time beyond nominal is accounted in
    /// [`FaultStats::device_fault_us`].
    pub fn access(&mut self, now_us: f64, op: Op) -> f64 {
        let start = now_us.max(self.busy_until_us);
        self.stats.queue_wait_us += start - now_us;
        let nominal = self.profile.latency_us(op);
        let latency = match self.fault_plan {
            None => nominal,
            Some(plan) => {
                let op_index = self.ops;
                self.ops += 1;
                faulted_service_us(&plan, op_index, nominal, &mut self.fault)
            }
        };
        self.busy_until_us = start + latency;
        self.stats.busy_us += latency;
        match op {
            Op::Read => self.stats.reads += 1,
            Op::Write => self.stats.writes += 1,
        }
        self.busy_until_us
    }

    /// Statistics so far.
    pub fn stats(&self) -> SsdStats {
        self.stats
    }

    /// Device-fault telemetry so far (all-zero without an armed plan).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault
    }
}

/// Service time of one faulted command: spike roll once, then retry with
/// exponential backoff until an attempt succeeds or the retry limit turns
/// into a timeout.
fn faulted_service_us(
    plan: &FaultPlan,
    op_index: u64,
    nominal: f64,
    stats: &mut FaultStats,
) -> f64 {
    let mut attempt_us = nominal;
    if plan.device_spikes(op_index) {
        attempt_us *= DEVICE_SPIKE_MULT;
        stats.device_spikes += 1;
    }
    let mut total = 0.0;
    let mut attempt: u32 = 0;
    loop {
        total += attempt_us;
        if !plan.device_attempt_fails(op_index, attempt) {
            break;
        }
        stats.device_failures += 1;
        if attempt >= plan.device_retry_limit {
            stats.device_timeouts += 1;
            total += plan.device_timeout_us;
            break;
        }
        total += plan.device_backoff_us * f64::powi(2.0, attempt as i32);
        stats.device_retries += 1;
        attempt += 1;
    }
    stats.device_fault_us += total - nominal;
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_paper_constants() {
        let tlc = SsdProfile::tlc();
        assert_eq!(tlc.latency_us(Op::Read), 75.0);
        assert_eq!(tlc.latency_us(Op::Write), 900.0);
        assert!(SsdProfile::low_latency().read_us < tlc.read_us);
        assert!(SsdProfile::qlc().write_us > tlc.write_us);
    }

    #[test]
    fn idle_device_serves_immediately() {
        let mut e = SsdEmulator::new(SsdProfile::tlc());
        let done = e.access(100.0, Op::Read);
        assert_eq!(done, 175.0);
        assert_eq!(e.stats().queue_wait_us, 0.0);
    }

    #[test]
    fn back_to_back_commands_queue() {
        let mut e = SsdEmulator::new(SsdProfile::tlc());
        let d1 = e.access(0.0, Op::Read); // 0..75
        let d2 = e.access(10.0, Op::Read); // waits 65, 75..150
        assert_eq!(d1, 75.0);
        assert_eq!(d2, 150.0);
        assert_eq!(e.stats().queue_wait_us, 65.0);
        assert_eq!(e.stats().reads, 2);
        assert_eq!(e.stats().busy_us, 150.0);
    }

    #[test]
    fn writes_hold_the_device_longer() {
        let mut e = SsdEmulator::new(SsdProfile::tlc());
        e.access(0.0, Op::Write);
        let d = e.access(0.0, Op::Read);
        assert_eq!(d, 975.0); // 900 program then 75 read
        assert_eq!(e.stats().writes, 1);
    }

    #[test]
    fn empty_plan_emulator_matches_plain_emulator() {
        let mut plain = SsdEmulator::new(SsdProfile::tlc());
        let mut armed = SsdEmulator::with_faults(SsdProfile::tlc(), FaultPlan::empty());
        for i in 0..100u64 {
            let op = if i % 7 == 0 { Op::Write } else { Op::Read };
            assert_eq!(
                plain.access(i as f64 * 3.0, op),
                armed.access(i as f64 * 3.0, op)
            );
        }
        assert_eq!(plain.stats(), armed.stats());
        assert!(armed.fault_stats().is_clean());
    }

    #[test]
    fn device_faults_charge_the_modeled_timeline_deterministically() {
        let plan = FaultPlan {
            seed: 99,
            device_fail_per_mille: 300,
            device_spike_per_mille: 100,
            ..FaultPlan::default()
        };
        let run = || {
            let mut e = SsdEmulator::with_faults(SsdProfile::tlc(), plan);
            let mut last = 0.0;
            for _ in 0..400 {
                last = e.access(last, Op::Read);
            }
            (last, *e.fault_stats(), e.stats())
        };
        let (a_done, a_fault, a_stats) = run();
        let (b_done, b_fault, b_stats) = run();
        assert_eq!(a_done, b_done, "faulted timeline is deterministic");
        assert_eq!(a_fault, b_fault);
        assert_eq!(a_stats, b_stats);
        assert!(a_fault.device_failures > 0, "rate 300/1000 over 400 ops");
        assert!(a_fault.device_retries > 0);
        assert!(a_fault.device_spikes > 0, "rate 100/1000 over 400 ops");
        assert!(a_fault.device_fault_us > 0.0);
        // Extra time really lands on the device clock.
        assert_eq!(a_stats.busy_us, 400.0 * 75.0 + a_fault.device_fault_us);
        assert!(a_done > 400.0 * 75.0);
    }

    #[test]
    fn retries_exhaust_into_a_timeout() {
        // Every attempt fails: each op walks the full retry ladder and
        // times out.
        let plan = FaultPlan {
            seed: 1,
            device_fail_per_mille: 1000,
            device_retry_limit: 2,
            device_backoff_us: 10.0,
            device_timeout_us: 500.0,
            ..FaultPlan::default()
        };
        let mut e = SsdEmulator::with_faults(SsdProfile::tlc(), plan);
        let done = e.access(0.0, Op::Read);
        let f = e.fault_stats();
        assert_eq!(f.device_failures, 3); // attempts 0, 1, 2
        assert_eq!(f.device_retries, 2);
        assert_eq!(f.device_timeouts, 1);
        // 3 attempts × 75 + backoff 10 + 20 + timeout 500.
        assert_eq!(done, 3.0 * 75.0 + 30.0 + 500.0);
        assert_eq!(f.device_fault_us, done - 75.0);
    }
}
