//! Static vs adaptive scorer, by miss rate: the online-refit experiment
//! axis on a pooled multi-tenant workload, the offline model fit on the
//! first half of the trace only.
//!
//! * **drift** — halfway through, the served footprint migrates to a
//!   disjoint page region, so the static scorer goes stale; the refit loop
//!   must repair the damage (static / adaptive miss rate ≥ 1.05; measured
//!   1.16: 56.5 % → 48.8 %);
//! * **stable** — the same region throughout; adaptation has nothing to
//!   repair and must hold ≥ 0.90 of static (measured 1.02 — the
//!   false-positive tax is bounded).
//!
//! Both rates of a pair share the trace, the offline model and the seed,
//! so they are deterministic: this is an assertion, not a timing.

use icgmm::experiment::run_static_vs_adaptive;
use icgmm::{AdaptPlan, IcgmmConfig, PolicyMode};
use icgmm_cache::CacheConfig;
use icgmm_gmm::EmConfig;
use icgmm_trace::synth::{MultiTenantWorkload, Workload};
use icgmm_trace::{PreprocessConfig, Trace};

const REQUESTS: usize = 60_000;

/// Serving-scale config: the 2048-block cache covers ~6 % of one pool's
/// footprint — large enough that decision quality (not raw capacity
/// pressure) sets the miss rate.
fn cfg() -> IcgmmConfig {
    IcgmmConfig {
        cache: CacheConfig {
            capacity_bytes: 2_048 * 4096,
            block_bytes: 4096,
            ways: 8,
        },
        em: EmConfig {
            k: 64,
            max_iters: 15,
            ..Default::default()
        },
        preprocess: PreprocessConfig {
            len_window: 32,
            len_access_shot: 1_000,
            ..Default::default()
        },
        max_train_cells: 20_000,
        adapt: AdaptPlan::drifty(7),
        ..Default::default()
    }
}

/// Two half-trace pools of the multi-tenant workload, popularity rankings
/// frozen (`phase_len = 0`): within one pool the distribution is
/// stationary, so all drift comes from *which* pool is live. The second
/// half re-seeds the generators, so even at the same `base_page` the
/// request *sequence* is fresh.
fn two_pools(second_base_page: u64) -> Trace {
    let pool = |base_page, seed| {
        MultiTenantWorkload {
            tenants: 12,
            pages_per_tenant: 3_000,
            base_page,
            phase_len: 0,
            ..Default::default()
        }
        .generate(REQUESTS / 2, seed)
        .into_records()
    };
    let mut records = pool(1 << 20, 4242);
    records.extend(pool(second_base_page, 977));
    Trace::from_records(records)
}

#[test]
fn adaptation_repairs_drift_and_holds_on_the_control() {
    // (scenario, the second pool's region, least static / adaptive ratio)
    let scenarios = [
        ("drift", (1 << 20) + 50_000, 1.05),
        ("stable", 1 << 20, 0.90),
    ];
    for (name, second_base_page, least) in scenarios {
        let t = two_pools(second_base_page);
        let cmp = run_static_vs_adaptive(&t, cfg(), PolicyMode::GmmCachingEviction, t.len() / 2)
            .expect("scenario runs");
        let (stat, adapt) = (&cmp.static_run, &cmp.adaptive_run);
        println!(
            "{name:<6} static {:.2}% -> adaptive {:.2}% miss ({:+.2} pts, {} refits / {} checks / {} drifts)",
            stat.miss_rate_pct(),
            adapt.miss_rate_pct(),
            cmp.miss_improvement_pts(),
            adapt.sim.adapt.refits,
            adapt.sim.adapt.checks,
            adapt.sim.adapt.drifts,
        );
        assert_eq!(
            stat.sim.adapt.refits, 0,
            "{name}: the static arm never refits"
        );
        let ratio = stat.miss_rate_pct() / adapt.miss_rate_pct();
        assert!(
            ratio >= least,
            "{name}: static / adaptive = {ratio:.3} < {least}"
        );
    }
}
