//! Analytic access-latency model (paper §5.3, "average memory access
//! latency reduction"): what one request costs in modeled µs, as a
//! function of its `(op, outcome)` and nothing else — and therefore what a
//! run costs, as a function of its outcome *counts*
//! ([`LatencyModel::total_us`]).
//!
//! On-board measurements in the paper: DRAM-cache hit ≈ 1 µs end-to-end;
//! GMM inference 3 µs, fully overlapped with the SSD access it accompanies;
//! TLC SSD read 75 µs, program (write) 900 µs; a miss that evicts a dirty
//! block pays read + write-back (75 + 900 = 975 µs).
//!
//! The paper's emulator "pauses the dataflow for a set duration" per SSD
//! command (§4.2): one request in flight, nothing queues, and a request's
//! time never depends on its neighbours. So every consumer of modeled time
//! calls this module — every report's `total_us` (a sum over
//! [`CacheStats`], which is why shards and serving workers merge by adding
//! counters), `icgmm-hw`, whose `DataflowConfig::latency` derives a model
//! from its cycle-level engines, and the replay's accounting step, which
//! re-costs an armed plan's faulted misses command by command through
//! [`LatencyModel::split_with`], in whole attoseconds ([`attos`]): an
//! integer sum, the same in any order, read in µs once ([`micros`]).

use crate::cache::AccessOutcome;
use crate::stats::CacheStats;
use icgmm_trace::Op;
use serde::{Deserialize, Serialize};

/// Attoseconds per microsecond.
const AS_PER_US: u128 = 1_000_000_000_000;

/// `us` in whole attoseconds, rounded half away from zero; a whole
/// number of µs converts exactly.
pub fn attos(us: f64) -> u128 {
    (us * AS_PER_US as f64).round() as u128
}

/// `t` attoseconds in µs: whole microseconds and the remainder are
/// converted apart, so a whole number of µs below 2^53 converts exactly —
/// a sum of integer-µs device times reads what adding them as `f64` read.
pub fn micros(t: u128) -> f64 {
    (t / AS_PER_US) as f64 + (t % AS_PER_US) as f64 / AS_PER_US as f64
}

/// Refuses a constant in µs that is negative, NaN, or whose attosecond
/// value does not fit `u64` once rounded (∞ and 1e300 saturate).
pub(crate) fn check_us(what: &str, us: f64) -> Result<(), String> {
    if !(us >= 0.0 && attos(us) >> 64 == 0) {
        return Err(format!(
            "{what} must be >= 0 and below 2^64 as (18.4 s), got {us}"
        ));
    }
    Ok(())
}

/// Latency constants, in microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// DRAM-cache hit service time.
    pub hit_us: f64,
    /// Cache-engine time a miss spends before the SSD access and the
    /// inference start (lookup + tag/score update). 0 in the presets — the
    /// paper's measured constants fold it in; the model `icgmm-hw` derives
    /// from its cycle counts sets it.
    pub miss_overhead_us: f64,
    /// SSD page read.
    pub ssd_read_us: f64,
    /// SSD page program (write).
    pub ssd_write_us: f64,
    /// Policy-engine (GMM) inference latency.
    pub policy_engine_us: f64,
    /// Whether policy-engine inference overlaps the SSD access
    /// (the paper's dataflow architecture guarantees this).
    pub overlap_policy_with_ssd: bool,
}

impl LatencyModel {
    /// The paper's TLC SSD deployment constants.
    pub fn paper_tlc() -> Self {
        LatencyModel {
            hit_us: 1.0,
            miss_overhead_us: 0.0,
            ssd_read_us: 75.0,
            ssd_write_us: 900.0,
            policy_engine_us: 3.0,
            overlap_policy_with_ssd: true,
        }
    }

    /// A low-latency (Z-NAND/XL-FLASH class) device for sensitivity
    /// studies: 10 µs read, 100 µs program.
    pub fn low_latency_ssd() -> Self {
        LatencyModel {
            ssd_read_us: 10.0,
            ssd_write_us: 100.0,
            ..LatencyModel::paper_tlc()
        }
    }

    /// A QLC-class device: 150 µs read, 2200 µs program.
    pub fn qlc_ssd() -> Self {
        LatencyModel {
            ssd_read_us: 150.0,
            ssd_write_us: 2200.0,
            ..LatencyModel::paper_tlc()
        }
    }

    /// `(decision_us, backend_us)` of one request: what occupies the engine
    /// (hit service, or policy inference on a miss) and the SSD time of the
    /// commands it issues — `None` for a hit — each command's nominal time
    /// passed through `device` in issue order. An inserted miss fetches
    /// the page (also on write-allocate), then writes a dirty victim back;
    /// a bypassed miss sends its own read or write straight to the device.
    /// The one place `(op, outcome)` turns into microseconds.
    #[inline]
    pub fn split_with(
        &self,
        op: Op,
        outcome: &AccessOutcome,
        mut device: impl FnMut(f64) -> f64,
    ) -> (f64, Option<f64>) {
        match outcome {
            AccessOutcome::Hit { .. } => (self.hit_us, None),
            AccessOutcome::MissInserted { evicted, .. } => {
                let mut backend = device(self.ssd_read_us);
                if evicted.is_some_and(|e| e.dirty) {
                    backend += device(self.ssd_write_us);
                }
                (self.policy_engine_us, Some(backend))
            }
            AccessOutcome::MissBypassed => {
                let backend = device(match op {
                    Op::Read => self.ssd_read_us,
                    Op::Write => self.ssd_write_us,
                });
                (self.policy_engine_us, Some(backend))
            }
        }
    }

    /// [`LatencyModel::split_with`] on the nominal device.
    #[inline]
    pub fn split(&self, op: Op, outcome: &AccessOutcome) -> (f64, Option<f64>) {
        self.split_with(op, outcome, |us| us)
    }

    /// Latency of a miss whose SSD commands take `backend_us`: the engine
    /// overhead, then inference and SSD access side by side (the slower is
    /// the critical path) or, with overlap disabled, one after the other.
    #[inline]
    pub fn miss_us(&self, backend_us: f64) -> f64 {
        self.miss_overhead_us
            + if self.overlap_policy_with_ssd {
                backend_us.max(self.policy_engine_us)
            } else {
                backend_us + self.policy_engine_us
            }
    }

    /// Inference time that overlap hides behind a miss's `backend_us` of
    /// SSD work, compared with the sequential design.
    pub fn hidden_us(&self, backend_us: f64) -> f64 {
        if self.overlap_policy_with_ssd {
            backend_us.min(self.policy_engine_us)
        } else {
            0.0
        }
    }

    /// Latency charged to one request: `hit_us` for a hit (the GMM is not
    /// consulted), [`LatencyModel::miss_us`] of its SSD commands otherwise.
    #[inline]
    pub fn request_us(&self, op: Op, outcome: &AccessOutcome) -> f64 {
        match self.split(op, outcome) {
            (hit_us, None) => hit_us,
            (_, Some(backend_us)) => self.miss_us(backend_us),
        }
    }

    /// Modeled time of a whole run, from its counters: requests of one
    /// `(op, outcome)` shape cost the same ([`LatencyModel::request_us`]),
    /// so the total is counts × costs — hits, misses waiting on one page
    /// read (clean insertions, bypassed reads), on a fetch plus a dirty
    /// write-back, on one bypassed write. No order enters; under integer-µs
    /// constants (every preset) it is bit-equal to adding the requests up
    /// one by one.
    pub fn total_us(&self, stats: &CacheStats) -> f64 {
        let (read_us, write_us) = (self.ssd_read_us, self.ssd_write_us);
        let insertions = stats.read_insertions + stats.write_insertions;
        let one_read = insertions - stats.dirty_evictions + stats.read_bypasses;
        stats.hits() as f64 * self.hit_us
            + one_read as f64 * self.miss_us(read_us)
            + stats.dirty_evictions as f64 * self.miss_us(read_us + write_us)
            + stats.write_bypasses as f64 * self.miss_us(write_us)
    }

    /// Rejects constants that would poison every modeled average or
    /// overflow the attosecond device time (see the module docs).
    ///
    /// # Errors
    ///
    /// Names the first field that is negative, NaN or 2^64 as or more.
    pub fn validate(&self) -> Result<(), String> {
        for (what, us) in [
            ("latency.hit_us", self.hit_us),
            ("latency.miss_overhead_us", self.miss_overhead_us),
            ("latency.ssd_read_us", self.ssd_read_us),
            ("latency.ssd_write_us", self.ssd_write_us),
            ("latency.policy_engine_us", self.policy_engine_us),
        ] {
            check_us(what, us)?;
        }
        Ok(())
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::paper_tlc()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cache::{AccessOutcome, Eviction};
    use icgmm_trace::PageIndex;

    fn ev(dirty: bool) -> Option<Eviction> {
        Some(Eviction {
            page: PageIndex::new(0),
            dirty,
        })
    }

    #[test]
    fn paper_constants() {
        let m = LatencyModel::paper_tlc();
        assert_eq!(m.request_us(Op::Read, &AccessOutcome::Hit { way: 0 }), 1.0);
        assert_eq!(
            m.request_us(
                Op::Read,
                &AccessOutcome::MissInserted {
                    way: 0,
                    evicted: None
                }
            ),
            75.0
        );
        assert_eq!(
            m.request_us(
                Op::Read,
                &AccessOutcome::MissInserted {
                    way: 0,
                    evicted: ev(true)
                }
            ),
            975.0
        );
        assert_eq!(
            m.request_us(
                Op::Read,
                &AccessOutcome::MissInserted {
                    way: 0,
                    evicted: ev(false)
                }
            ),
            75.0
        );
    }

    #[test]
    fn bypass_costs_direct_ssd_access() {
        let m = LatencyModel::paper_tlc();
        assert_eq!(m.request_us(Op::Read, &AccessOutcome::MissBypassed), 75.0);
        assert_eq!(m.request_us(Op::Write, &AccessOutcome::MissBypassed), 900.0);
    }

    #[test]
    fn overlap_hides_policy_latency() {
        let mut m = LatencyModel::paper_tlc();
        let miss = AccessOutcome::MissInserted {
            way: 0,
            evicted: None,
        };
        assert_eq!(m.request_us(Op::Read, &miss), 75.0);
        m.overlap_policy_with_ssd = false;
        assert_eq!(m.request_us(Op::Read, &miss), 78.0);
    }

    #[test]
    fn overlap_floor_is_policy_latency() {
        // If the "SSD" were faster than the GMM, the GMM would become the
        // critical path.
        let m = LatencyModel {
            ssd_read_us: 1.0,
            ..LatencyModel::paper_tlc()
        };
        let miss = AccessOutcome::MissInserted {
            way: 0,
            evicted: None,
        };
        assert_eq!(m.request_us(Op::Read, &miss), 3.0);
    }

    /// The split recombines to `request_us` under both overlap settings,
    /// engine overhead included, and hands `device` the commands of a
    /// miss in issue order: fetch, then the dirty write-back.
    #[test]
    fn split_recombines_to_request_us() {
        for overlap in [true, false] {
            let m = LatencyModel {
                miss_overhead_us: 0.25,
                overlap_policy_with_ssd: overlap,
                ..LatencyModel::paper_tlc()
            };
            let inserted = |evicted| AccessOutcome::MissInserted { way: 0, evicted };
            for (op, outcome, commands) in [
                (Op::Write, AccessOutcome::Hit { way: 1 }, vec![]),
                (Op::Write, inserted(None), vec![75.0]),
                (Op::Read, inserted(ev(false)), vec![75.0]),
                (Op::Read, inserted(ev(true)), vec![75.0, 900.0]),
                (Op::Read, AccessOutcome::MissBypassed, vec![75.0]),
                (Op::Write, AccessOutcome::MissBypassed, vec![900.0]),
            ] {
                let mut seen = Vec::new();
                let (decision, backend) = m.split_with(op, &outcome, |us| {
                    seen.push(us);
                    us
                });
                assert_eq!(seen, commands, "{op:?} {outcome:?}");
                assert_eq!((decision, backend), m.split(op, &outcome));
                let recombined = match backend {
                    None => decision,
                    Some(b) if overlap => 0.25 + b.max(decision),
                    Some(b) => 0.25 + b + decision,
                };
                assert_eq!(recombined, m.request_us(op, &outcome), "{op:?} {outcome:?}");
                assert_eq!(
                    backend.map_or(0.0, |b| m.hidden_us(b)),
                    if overlap && backend.is_some() {
                        3.0
                    } else {
                        0.0
                    }
                );
            }
        }
    }

    /// The closed form over the counters is the per-request function
    /// added up: bit-equal under the integer presets, whatever the order.
    #[test]
    fn total_us_is_the_sum_of_request_us() {
        let inserted = |evicted| AccessOutcome::MissInserted { way: 0, evicted };
        let zoo = [
            (Op::Read, AccessOutcome::Hit { way: 1 }),
            (Op::Write, AccessOutcome::Hit { way: 0 }),
            (Op::Write, inserted(None)),
            (Op::Read, inserted(ev(false))),
            (Op::Read, inserted(ev(true))),
            (Op::Write, inserted(ev(true))),
            (Op::Read, AccessOutcome::MissBypassed),
            (Op::Write, AccessOutcome::MissBypassed),
        ];
        for m in [
            LatencyModel::paper_tlc(),
            LatencyModel::low_latency_ssd(),
            LatencyModel::qlc_ssd(),
        ] {
            let mut stats = CacheStats::default();
            let mut sum = 0.0;
            for i in 0..1_000usize {
                let (op, outcome) = zoo[(i * 7 + i / 13) % zoo.len()];
                stats.record(op, &outcome);
                sum += m.request_us(op, &outcome);
            }
            assert_eq!(m.total_us(&stats), sum);
        }
        assert_eq!(
            LatencyModel::paper_tlc().total_us(&CacheStats::default()),
            0.0
        );
    }

    /// The largest constant [`check_us`] admits.
    pub(crate) fn largest_admitted_us() -> f64 {
        let mut us = 2f64.powi(64) / 1e12;
        while check_us("", us).is_err() {
            us = us.next_down();
        }
        us
    }

    #[test]
    fn validate_rejects_each_hostile_constant() {
        assert!(LatencyModel::paper_tlc().validate().is_ok());
        let set: [fn(&mut LatencyModel, f64); 5] = [
            |m, v| m.hit_us = v,
            |m, v| m.miss_overhead_us = v,
            |m, v| m.ssd_read_us = v,
            |m, v| m.ssd_write_us = v,
            |m, v| m.policy_engine_us = v,
        ];
        let max = largest_admitted_us();
        assert!(attos(max) < 1 << 64 && attos(max.next_up()) >= 1 << 64);
        for (field, set) in set.iter().enumerate() {
            for bad in [
                f64::NAN,
                f64::INFINITY,
                -1.0,
                1e300,
                f64::MAX,
                max.next_up(),
            ] {
                let mut m = LatencyModel::paper_tlc();
                set(&mut m, bad);
                assert!(m.validate().is_err(), "field {field} = {bad} accepted");
            }
            for good in [0.0, max] {
                let mut m = LatencyModel::paper_tlc();
                set(&mut m, good);
                assert!(m.validate().is_ok(), "field {field} = {good} rejected");
            }
        }
    }

    #[test]
    fn attoseconds_round_once_and_whole_micros_convert_exactly() {
        assert_eq!(attos(75.0), 75_000_000_000_000);
        assert_eq!(attos(0.1), 100_000_000_000);
        assert_eq!(attos(1e-13), 0, "a tenth of an attosecond rounds away");
        for us in [0.0, 1.0, 75.0, 900.0, 18_446_744.0] {
            assert_eq!(micros(attos(us)), us);
        }
        assert_eq!(micros(attos(7.3)), 7.3);
        assert_eq!(micros(1_500_000_000_000), 1.5);
    }

    #[test]
    fn alternate_profiles_order_sensibly() {
        let tlc = LatencyModel::paper_tlc();
        let low = LatencyModel::low_latency_ssd();
        let qlc = LatencyModel::qlc_ssd();
        assert!(low.ssd_read_us < tlc.ssd_read_us);
        assert!(tlc.ssd_read_us < qlc.ssd_read_us);
        assert!(low.ssd_write_us < tlc.ssd_write_us);
        assert!(tlc.ssd_write_us < qlc.ssd_write_us);
    }
}
