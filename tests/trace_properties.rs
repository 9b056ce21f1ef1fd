//! Property tests over the trace substrate: serialization round-trips,
//! generator determinism and conservation laws of the preprocessing and
//! histogram pipelines.

use icgmm_trace::histogram::{SpatialHistogram, TemporalHeatmap};
use icgmm_trace::io::{read_text, write_text};
use icgmm_trace::synth::WorkloadKind;
use icgmm_trace::{training_cells, trim, Op, PreprocessConfig, Trace, TraceRecord, Zipf};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec((any::<bool>(), 0u64..(1 << 40)), 0..300).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(w, addr)| {
                if w {
                    TraceRecord::write(addr)
                } else {
                    TraceRecord::read(addr)
                }
            })
            .collect()
    })
}

proptest! {
    /// Text serialization is lossless for arbitrary traces.
    #[test]
    fn io_round_trip(trace in arb_trace()) {
        let mut buf = Vec::new();
        write_text(&trace, &mut buf).expect("write to memory");
        let back = read_text(buf.as_slice()).expect("parse back");
        prop_assert_eq!(back, trace);
    }

    /// Trimming keeps a contiguous middle slice: total = prefix + kept +
    /// suffix, and kept records match the original by position.
    #[test]
    fn trim_is_a_contiguous_slice(
        trace in arb_trace(),
        warm in 0.0f64..0.5,
        tail in 0.0f64..0.4,
    ) {
        let cfg = PreprocessConfig {
            warmup_frac: warm,
            tail_frac: tail,
            ..Default::default()
        };
        prop_assume!(cfg.validate().is_ok());
        let kept = trim(&trace, &cfg);
        let (start, end) = cfg.kept_range(trace.len());
        prop_assert_eq!(kept.len(), end - start);
        for (i, r) in kept.iter().enumerate() {
            prop_assert_eq!(r, &trace.records()[start + i]);
        }
    }

    /// Training-cell extraction conserves the kept range's request mass
    /// and never invents pages.
    #[test]
    fn cell_extraction_conserves_mass(trace in arb_trace()) {
        let cfg = PreprocessConfig {
            len_window: 8,
            len_access_shot: 64,
            ..Default::default()
        };
        let cells = training_cells(&trace, &cfg);
        let kept = trim(&trace, &cfg);
        let total: u64 = cells.iter().map(|c| u64::from(c.weight)).sum();
        prop_assert_eq!(total as usize, kept.len());
        let pages: std::collections::HashSet<u64> =
            kept.iter().map(|r| r.page().raw()).collect();
        for c in &cells {
            prop_assert!(pages.contains(&c.page), "invented page {}", c.page);
            prop_assert!(c.time < 64);
        }
    }

    /// Spatial histograms and temporal heat maps conserve access counts.
    #[test]
    fn histograms_conserve_counts(trace in arb_trace(), buckets in 1usize..40) {
        let h = SpatialHistogram::from_records(trace.records(), buckets);
        prop_assert_eq!(h.total(), trace.len() as u64);
        let hm = TemporalHeatmap::from_records(
            trace.records(),
            &PreprocessConfig::default(),
            4,
            6,
        );
        let total: u64 = (0..4).flat_map(|r| (0..6).map(move |c| (r, c)))
            .map(|(r, c)| hm.at(r, c))
            .sum();
        prop_assert_eq!(total, trace.len() as u64);
    }

    /// Zipf samples stay in range for arbitrary parameters.
    #[test]
    fn zipf_samples_in_range(n in 1u64..100_000, s in 0.1f64..3.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let z = Zipf::new(n, s).expect("valid parameters");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let k = z.sample(&mut rng);
            prop_assert!((1..=n).contains(&k));
        }
    }

    /// Every workload generator honours its request budget exactly and is
    /// deterministic in its seed.
    #[test]
    fn generators_are_exact_and_deterministic(
        kind_idx in 0usize..7,
        n in 1usize..3_000,
        seed in any::<u64>(),
    ) {
        let kind = WorkloadKind::all()[kind_idx];
        let w = kind.default_workload();
        let a = w.generate(n, seed);
        prop_assert_eq!(a.len(), n, "{} wrong length", kind);
        let b = w.generate(n, seed);
        prop_assert_eq!(a, b, "{} not deterministic", kind);
    }
}

#[test]
fn read_write_ops_survive_the_full_pipeline() {
    // Deterministic companion: a mixed trace keeps its op mix through
    // serialize → parse → trim.
    let trace: Trace = (0..100u64)
        .map(|i| {
            if i % 3 == 0 {
                TraceRecord::write(i << 12)
            } else {
                TraceRecord::read(i << 12)
            }
        })
        .collect();
    let mut buf = Vec::new();
    write_text(&trace, &mut buf).unwrap();
    let back = read_text(buf.as_slice()).unwrap();
    let kept = trim(&back, &PreprocessConfig::default());
    let writes = kept.iter().filter(|r| r.op() == Op::Write).count();
    assert!(writes > 0 && writes < kept.len());
}
