//! The four benchmark workloads. Each is built from `--seed` alone; the
//! program under test only ever sees the generated [`Trace`]s.
//!
//! Two are hit-dominated and two miss-dominated on purpose (the CMM-H
//! characterization reports hit path and miss path separately, never one
//! blended mean), and each stresses a different layer — see the README
//! for the full rationale and the measured layer split.

use icgmm::benchmarks::BenchmarkSpec;
use icgmm::{AdaptPlan, IcgmmConfig};
use icgmm_trace::synth::{MultiTenantWorkload, Workload, WorkloadKind};
use icgmm_trace::Trace;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    /// `WorkloadKind::Dlrm`: 36 % LRU miss, ~1 M scores, all through dense
    /// batched windows — scorer, engine and batcher do most of the work.
    DlrmMiss,
    /// `WorkloadKind::Memtier`: 2.5 % miss, ~32 k scores, streaming spans
    /// — the cache simulator dominates and the kernel is idle.
    MemtierHit,
    /// `WorkloadKind::Hashmap`: the write-heaviest trace — dirty
    /// write-backs, `admit_writes_always`, rehash write-once pages.
    HashmapWrite,
    /// Footprint migration between two multi-tenant pools with the online
    /// refit loop armed — the only workload that runs adaptation.
    TenantsDrift,
}

/// Problem size. `FULL` is what `BENCHMARK.json` measures; `SMOKE` exists
/// for the unit test that drives every phase in the test profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Size {
    pub requests: usize,
    pub k: usize,
    pub max_iters: usize,
    /// `IcgmmConfig::max_train_cells`. The library default (120 000) makes
    /// `fit` take ~21 s here; the benchmark contract's total-time cap
    /// forces it down (fit is linear in it), never K or the request count.
    pub max_train_cells: usize,
    /// Passes of the calibration loop over its 1 M-point array.
    pub calib_passes: usize,
}

impl Size {
    pub const FULL: Size = Size {
        requests: 1_200_000,
        k: 256,
        max_iters: 60,
        max_train_cells: 16_000,
        calib_passes: 8,
    };
    pub const SMOKE: Size = Size {
        requests: 60_000,
        k: 64,
        max_iters: 6,
        max_train_cells: 2_000,
        calib_passes: 1,
    };
}

/// Generated inputs plus the configuration they are replayed under.
pub struct Inputs {
    /// The replayed trace.
    pub trace: Trace,
    /// Training prefix when the model must not see the whole trace
    /// (`tenants_drift` fits on the first pool only, so it goes stale).
    pub fit_prefix: Option<Trace>,
    pub cfg: IcgmmConfig,
    /// The paper preset this workload reproduces, if any (`tenants_drift`
    /// has no published reference: its simulated numbers are unvalidated).
    pub paper: Option<WorkloadKind>,
}

impl Inputs {
    pub fn fit_trace(&self) -> &Trace {
        self.fit_prefix.as_ref().unwrap_or(&self.trace)
    }
}

/// Generator seeds of the two `tenants_drift` pools (`adapt_gate`'s).
/// `--seed` varies only the second: the first pool is the history the
/// model was trained on, and the refit loop's behaviour turned out to be
/// bimodal in *that* seed (for 3 of 12 training pools the drift detector
/// under-fires: 4–54 refits instead of ~165, 42–44 % miss instead of
/// ~34 %). Holding it fixed keeps the workload one workload; the README
/// records the finding.
const POOL_SEEDS: [u64; 2] = [4242, 977];
/// First page of the first pool; the second starts 500 000 pages higher,
/// past the first pool's 16 × 24 000-page footprint.
const POOL_BASE_PAGE: u64 = 1 << 20;
const POOL_SHIFT_PAGES: u64 = 500_000;

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::DlrmMiss,
        WorkloadId::MemtierHit,
        WorkloadId::HashmapWrite,
        WorkloadId::TenantsDrift,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::DlrmMiss => "dlrm_miss",
            WorkloadId::MemtierHit => "memtier_hit",
            WorkloadId::HashmapWrite => "hashmap_write",
            WorkloadId::TenantsDrift => "tenants_drift",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn paper_kind(self) -> Option<WorkloadKind> {
        match self {
            WorkloadId::DlrmMiss => Some(WorkloadKind::Dlrm),
            WorkloadId::MemtierHit => Some(WorkloadKind::Memtier),
            WorkloadId::HashmapWrite => Some(WorkloadKind::Hashmap),
            WorkloadId::TenantsDrift => None,
        }
    }

    /// Generates the workload. `seed` is XOR-ed into the generator seeds
    /// (on `tenants_drift` into the migrated-to pool's only, see
    /// [`POOL_SEEDS`]), so seed 0 reproduces the repository's own presets.
    pub fn generate(self, seed: u64, size: Size) -> Inputs {
        let sized = |mut cfg: IcgmmConfig| {
            cfg.em.k = size.k;
            cfg.em.max_iters = size.max_iters;
            cfg.max_train_cells = size.max_train_cells;
            cfg
        };
        match self.paper_kind() {
            Some(kind) => {
                let spec = BenchmarkSpec::suite_with_requests(size.requests)
                    .into_iter()
                    .find(|s| s.kind == kind)
                    .expect("the suite covers every kind");
                Inputs {
                    trace: spec.workload().generate(spec.requests, spec.seed ^ seed),
                    fit_prefix: None,
                    cfg: sized(spec.config()),
                    paper: Some(kind),
                }
            }
            None => {
                let half = size.requests / 2;
                let pool = |i: usize, seed: u64| {
                    MultiTenantWorkload {
                        tenants: 16,
                        pages_per_tenant: 24_000,
                        base_page: POOL_BASE_PAGE + i as u64 * POOL_SHIFT_PAGES,
                        phase_len: 0,
                        ..Default::default()
                    }
                    .generate(half, POOL_SEEDS[i] ^ seed)
                    .into_records()
                };
                let mut records = pool(0, 0);
                let fit_prefix = Trace::from_records(records.clone());
                records.extend(pool(1, seed));
                Inputs {
                    trace: Trace::from_records(records),
                    fit_prefix: Some(fit_prefix),
                    cfg: sized(IcgmmConfig {
                        adapt: AdaptPlan::drifty(7),
                        ..Default::default()
                    }),
                    paper: None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        requests: 4_000,
        ..Size::SMOKE
    };

    #[test]
    fn names_round_trip() {
        for w in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(w.name()), Some(w));
        }
        assert_eq!(WorkloadId::parse("nope"), None);
    }

    #[test]
    fn generators_are_deterministic_in_the_seed_and_differ_across_seeds() {
        for w in WorkloadId::ALL {
            let a = w.generate(3, TINY);
            let b = w.generate(3, TINY);
            let c = w.generate(4, TINY);
            assert_eq!(a.trace.len(), TINY.requests, "{}", w.name());
            assert_eq!(a.trace.records(), b.trace.records(), "{}", w.name());
            assert_ne!(a.trace.records(), c.trace.records(), "{}", w.name());
            assert_eq!(a.cfg, b.cfg);
            assert!(a.cfg.validate().is_ok());
            assert_eq!(a.cfg.em.k, TINY.k);
        }
    }

    #[test]
    fn only_tenants_drift_arms_adaptation_and_fits_on_a_prefix() {
        for w in WorkloadId::ALL {
            let inputs = w.generate(0, TINY);
            let drift = w == WorkloadId::TenantsDrift;
            assert_eq!(!inputs.cfg.adapt.is_empty(), drift, "{}", w.name());
            assert_eq!(inputs.paper.is_none(), drift);
            match &inputs.fit_prefix {
                Some(prefix) => {
                    assert!(drift);
                    assert_eq!(
                        prefix.records(),
                        &inputs.trace.records()[..TINY.requests / 2]
                    );
                    // The second pool lives on pages the prefix never touches.
                    let max_first = prefix.stats().max_page;
                    let second = &inputs.trace.records()[TINY.requests / 2..];
                    assert!(second.iter().all(|r| r.page().raw() > max_first));
                }
                None => assert!(!drift),
            }
        }
    }
}
