//! Multi-tenant CXL-pool workload: many independent clients sharing one
//! expanded memory space.
//!
//! CXL-at-scale studies ("Dissecting CXL Memory Performance at Scale")
//! describe pooled deployments serving many concurrent tenants, not one
//! replayed client: each tenant has its own working set and its own
//! popularity skew, and the device sees their requests interleaved by an
//! arrival process. This generator reproduces that shape:
//!
//! * each tenant owns a disjoint page region with a Zipf-skewed working
//!   set (rank-to-page mapping shuffled per tenant so hot pages are not
//!   all region-initial — spatially, each region contributes its own
//!   mixture bump, like the paper's Fig. 2);
//! * tenants themselves are Zipf-popular (a few large tenants dominate
//!   traffic, a long tail trickles), and arrivals are drawn per request —
//!   the memoryless interleaving of many independent clients;
//! * each tenant drifts through *phases*: its hot-rank window rotates on
//!   a per-tenant period, so the GMM sees per-tenant temporal structure,
//!   not one global phase clock.
//!
//! Deterministic given `(n, seed)`, like every generator in this module.

use super::{synth, Workload};
use crate::trace::Trace;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the multi-tenant workload model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MultiTenantWorkload {
    /// Number of tenants sharing the pool.
    pub tenants: usize,
    /// Pages in each tenant's region (the per-tenant footprint).
    pub pages_per_tenant: u64,
    /// Zipf exponent of page popularity *within* a tenant.
    pub page_skew: f64,
    /// Zipf exponent of traffic share *across* tenants (0.0 < s; larger
    /// values concentrate traffic on a few hot tenants).
    pub tenant_skew: f64,
    /// Percentage of writes, `0..=100`.
    pub write_pct: u8,
    /// First page of tenant 0's region (regions are laid out contiguously
    /// above it).
    pub base_page: u64,
    /// Base length of a tenant's popularity phase, in *that tenant's*
    /// requests; each tenant's actual period is jittered around this so
    /// phases do not align across tenants. `0` disables rotation.
    pub phase_len: u64,
    /// How many ranks a tenant's hot window advances per phase.
    pub rotate_ranks: u64,
}

impl Default for MultiTenantWorkload {
    fn default() -> Self {
        MultiTenantWorkload {
            tenants: 16,
            pages_per_tenant: 24_000,
            page_skew: 1.1,
            tenant_skew: 0.8,
            write_pct: 15,
            base_page: 1 << 20,
            phase_len: 20_000,
            rotate_ranks: 512,
        }
    }
}

/// Per-tenant generator state.
struct TenantState {
    /// Odd multiplier of the rank→page map (coprime with the region size,
    /// so the map is a bijection).
    mult: u64,
    /// Offset of the rank→page map.
    off: u64,
    /// This tenant's phase period, in its own requests (jittered around
    /// the configured base so tenant phases never align).
    period: u64,
    /// Requests this tenant has issued.
    seen: u64,
    /// Current hot-rank rotation.
    rot: u64,
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Workload for MultiTenantWorkload {
    fn generate(&self, n: usize, seed: u64) -> Trace {
        assert!(self.tenants > 0, "need at least one tenant");
        assert!(self.pages_per_tenant > 0, "tenant regions cannot be empty");
        let pages = self.pages_per_tenant;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7E4A_17ED);
        let tenant_zipf =
            Zipf::new(self.tenants as u64, self.tenant_skew).expect("valid tenant skew");
        let page_zipf = Zipf::new(pages, self.page_skew).expect("valid page skew");

        let mut tenants: Vec<TenantState> = (0..self.tenants)
            .map(|_| {
                // Draw an invertible affine rank→page map so each tenant's
                // hot ranks land on its own page pattern (one mixture bump
                // per tenant, not N copies of the same one).
                let mut mult = rng.gen_range(1..pages.max(2)) | 1;
                while gcd(mult, pages) != 1 {
                    mult = ((mult + 2) % pages.max(2)) | 1;
                }
                let jitter = self.phase_len / 4;
                TenantState {
                    mult,
                    off: rng.gen_range(0..pages),
                    period: (self.phase_len + rng.gen_range(0..jitter.max(1))).max(1),
                    seen: 0,
                    rot: 0,
                }
            })
            .collect();

        synth(n, rng, |t, rng| {
            let who = (tenant_zipf.sample(rng) - 1) as usize;
            let st = &mut tenants[who];
            let mut rank = page_zipf.sample(rng) - 1;
            if self.phase_len > 0 {
                rank = (rank + st.rot) % pages;
            }
            let in_region = (rank.wrapping_mul(st.mult).wrapping_add(st.off)) % pages;
            let page = self.base_page + who as u64 * pages + in_region;
            if rng.gen_range(0u8..100) < self.write_pct {
                t.write(rng, page);
            } else {
                t.read(rng, page);
            }
            st.seen += 1;
            if self.phase_len > 0 && st.seen.is_multiple_of(st.period) {
                st.rot = (st.rot + self.rotate_ranks) % pages;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::PAGE_SHIFT;
    use std::collections::HashMap;

    #[test]
    fn deterministic_given_seed_and_sensitive_to_it() {
        let w = MultiTenantWorkload::default();
        let a = w.generate(5_000, 9);
        let b = w.generate(5_000, 9);
        assert_eq!(a, b);
        let c = w.generate(5_000, 10);
        assert_ne!(a, c);
        assert_eq!(a.len(), 5_000);
    }

    #[test]
    fn every_access_lands_in_some_tenant_region() {
        let w = MultiTenantWorkload {
            tenants: 4,
            pages_per_tenant: 100,
            ..Default::default()
        };
        let t = w.generate(2_000, 3);
        for r in t.iter() {
            let page = r.paddr() >> PAGE_SHIFT;
            assert!(
                (w.base_page..w.base_page + 4 * 100).contains(&page),
                "page {page:#x} outside the pool"
            );
        }
    }

    #[test]
    fn tenant_traffic_is_skewed_but_broad() {
        let w = MultiTenantWorkload {
            tenants: 8,
            pages_per_tenant: 1_000,
            ..Default::default()
        };
        let t = w.generate(20_000, 5);
        let mut per_tenant: HashMap<u64, usize> = HashMap::new();
        for r in t.iter() {
            let page = r.paddr() >> PAGE_SHIFT;
            *per_tenant
                .entry((page - w.base_page) / w.pages_per_tenant)
                .or_default() += 1;
        }
        assert_eq!(per_tenant.len(), 8, "every tenant should appear");
        let max = *per_tenant.values().max().unwrap();
        let min = *per_tenant.values().min().unwrap();
        assert!(
            max > 2 * min,
            "tenant skew should concentrate traffic: max {max}, min {min}"
        );
    }

    #[test]
    fn writes_track_the_configured_percentage() {
        let w = MultiTenantWorkload {
            write_pct: 30,
            ..Default::default()
        };
        let t = w.generate(20_000, 11);
        let writes = t.iter().filter(|r| r.op().is_write()).count();
        let frac = writes as f64 / t.len() as f64;
        assert!((frac - 0.30).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn phase_rotation_shifts_the_hot_set() {
        // With rotation on, the most popular pages of the first quarter
        // and the last quarter should differ for the hottest tenant.
        let w = MultiTenantWorkload {
            tenants: 2,
            pages_per_tenant: 5_000,
            phase_len: 2_000,
            rotate_ranks: 1_000,
            ..Default::default()
        };
        let t = w.generate(40_000, 7);
        let quarter = t.len() / 4;
        let hot = |records: &[crate::record::TraceRecord]| -> u64 {
            let mut counts: HashMap<u64, usize> = HashMap::new();
            for r in records {
                *counts.entry(r.paddr() >> PAGE_SHIFT).or_default() += 1;
            }
            counts.into_iter().max_by_key(|&(_, c)| c).unwrap().0
        };
        let early = hot(&t.records()[..quarter]);
        let late = hot(&t.records()[t.len() - quarter..]);
        assert_ne!(early, late, "hot page never rotated");
    }
}
