//! SSD access-latency emulator (paper §4.2).
//!
//! The FPGA prototype cannot be attached to a real SSD in the authors'
//! measurement loop, so the paper embeds an emulator in the cache control
//! engine that "pauses the dataflow for a set duration to emulate SSD
//! response times", parameterized by device type. Pausing the dataflow
//! means the device never sees a second command while it serves one, so
//! the emulator has no state to model: it is a latency per command
//! ([`SsdProfile`]), and with device faults armed a longer one
//! (`icgmm_cache::FaultPlan::device_command_as`, rolled by the replay's
//! accounting for every front-end).

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

/// SSD traffic of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SsdStats {
    /// Page reads served.
    pub reads: u64,
    /// Page programs served.
    pub writes: u64,
    /// Total device-busy time, µs.
    pub busy_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_cache::{attos, micros, FaultPlan, FaultStats};

    #[test]
    fn profiles_match_paper_constants() {
        let tlc = SsdProfile::tlc();
        assert_eq!(tlc.latency_us(Op::Read), 75.0);
        assert_eq!(tlc.latency_us(Op::Write), 900.0);
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
            let mut fault = FaultStats::default();
            // 200 requests, each with a fetch and a write-back.
            let busy: u128 = (0..400)
                .map(|i| plan.device_command_as(i / 2, i % 2, 75.0, &mut fault))
                .sum();
            (busy, fault)
        };
        let (a_busy, a_fault) = run();
        let (b_busy, b_fault) = run();
        assert_eq!(a_busy, b_busy, "faulted timeline is deterministic");
        assert_eq!(a_fault, b_fault);
        assert!(a_fault.device_failures > 0, "rate 300/1000 over 400 ops");
        assert!(a_fault.device_retries > 0);
        assert!(a_fault.device_spikes > 0, "rate 100/1000 over 400 ops");
        assert!(a_fault.device_fault_as > 0);
        // Extra time really lands on the device.
        assert_eq!(a_busy, 400 * attos(75.0) + a_fault.device_fault_as);
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
        let mut f = FaultStats::default();
        let service = plan.device_command_as(0, 0, 75.0, &mut f);
        assert_eq!(f.device_failures, 3); // attempts 0, 1, 2
        assert_eq!(f.device_retries, 2);
        assert_eq!(f.device_timeouts, 1);
        // 3 attempts × 75 + backoff 10 + 20 + timeout 500.
        assert_eq!(micros(service), 3.0 * 75.0 + 30.0 + 500.0);
        assert_eq!(f.device_fault_as, service - attos(75.0));
    }
}
