//! The trained GMM policy engine: scaler + mixture + Algorithm-1
//! timestamping, packaged as a [`ScoreSource`] for the cache simulator,
//! which asks it about misses only. A score is a function of the miss: its
//! page and the Algorithm 1 timestamp of its trace position.

use icgmm_cache::ScoreSource;
use icgmm_gmm::fixed::FixedGmm;
use icgmm_gmm::{Gmm, GmmError, GmmScorer, StandardScaler, TimeSlice};
use icgmm_trace::{PageIndex, PreprocessConfig, TimestampTransformer};
use serde::{Deserialize, Serialize};

/// Serializable bundle of everything the policy engine needs at run time.
///
/// This is the software analogue of the FPGA's "one-time loading from HBM
/// before kernel starts" weight package: feature scaler, mixture
/// parameters and the calibrated admission threshold.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrainedModel {
    /// Affine feature map fitted on training cells.
    pub scaler: StandardScaler,
    /// The trained mixture.
    pub gmm: Gmm,
    /// Calibrated admission threshold (on the model's score scale).
    pub threshold: f64,
}

/// Online policy engine driving the cache simulator.
///
/// Scoring goes through the mixture's flat [`GmmScorer`] kernel: its
/// single-point log-sum-exp, vectorised across the K components of the one
/// miss like the paper's pipeline. The engine is asked only for misses,
/// and the Algorithm 1 timestamp is a closed form of the miss's trace
/// position, so a hit costs it nothing. The one thing it keeps between
/// misses is a [`TimeSlice`]: the time halves of the last timestamp it
/// scored, which the next misses of the same Algorithm 1 window reuse
/// (their scores are bit-identical to a stateless score either way).
#[derive(Clone, Debug)]
pub struct GmmPolicyEngine {
    scaler: StandardScaler,
    scorer: GmmScorer,
    slice: TimeSlice,
    fixed: Option<FixedGmm>,
    transformer: TimestampTransformer,
    scores_computed: u64,
}

impl GmmPolicyEngine {
    /// Builds the engine.
    ///
    /// With `fixed_point = true`, scores are produced by the FPGA-style
    /// fixed-point datapath instead of f64.
    ///
    /// # Errors
    ///
    /// [`GmmError::InvalidParam`] naming `len_window` or `len_access_shot`
    /// when either is zero (Algorithm 1 has no timestamp then); quantization
    /// failures when `fixed_point` is requested.
    pub fn new(
        model: &TrainedModel,
        preprocess: &PreprocessConfig,
        fixed_point: bool,
    ) -> Result<Self, GmmError> {
        for (field, len) in [
            ("len_window", preprocess.len_window),
            ("len_access_shot", preprocess.len_access_shot),
        ] {
            if len == 0 {
                return Err(GmmError::InvalidParam(format!("{field} must be >= 1")));
            }
        }
        let fixed = if fixed_point {
            Some(FixedGmm::from_gmm(&model.gmm)?)
        } else {
            None
        };
        Ok(GmmPolicyEngine {
            scaler: model.scaler,
            scorer: model.gmm.scorer().clone(),
            slice: TimeSlice::default(),
            fixed,
            transformer: TimestampTransformer::from_config(preprocess),
            scores_computed: 0,
        })
    }

    /// Score an arbitrary `(page, timestamp)` pair (diagnostics; the
    /// simulator path goes through [`ScoreSource`]).
    pub fn score_at(&mut self, page: u64, timestamp: u64) -> f64 {
        let z = self.scaler.transform([page as f64, timestamp as f64]);
        self.scores_computed += 1;
        match &self.fixed {
            Some(fx) => fx.score(z),
            None => self.scorer.log_density_in(z, &mut self.slice).exp(),
        }
    }

    /// Algorithm 1 timestamp of the request at global trace position `pos`.
    pub(crate) fn timestamp_at(&self, pos: u64) -> u64 {
        self.transformer.at(pos)
    }

    /// Number of policy-engine inferences this engine computed so far —
    /// each would take ~3 µs on the FPGA. (The dataflow model does not
    /// read it: `DataflowReport::from_sim` charges GMM busy time as misses
    /// × `policy_engine_us`.)
    pub fn scores_computed(&self) -> u64 {
        self.scores_computed
    }

    /// Publishes a new scorer generation: replaces the mixture tables
    /// behind every subsequent score. The tables live in an
    /// `Arc<ScorerTables>` inside [`GmmScorer`], so this is a pointer
    /// swap — the scaler, the inference counter and any other engine
    /// clone are untouched, and in-flight replay never blocks on
    /// the training that produced the new tables. The time slice is keyed
    /// by the tables too, so the next score starts it afresh.
    ///
    /// Only the f64 datapath swaps; the online refit loop refuses
    /// fixed-point engines at configuration time
    /// ([`crate::IcgmmConfig::validate`]), so `fixed` is `None` here.
    pub fn swap_scorer(&mut self, scorer: GmmScorer) {
        debug_assert!(
            self.fixed.is_none(),
            "online adaptation is validated out for fixed-point engines"
        );
        self.scorer = scorer;
    }

    /// The live scorer (current generation's mixture tables).
    pub fn scorer(&self) -> &GmmScorer {
        &self.scorer
    }

    /// The affine feature map the engine standardizes observations with.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }
}

impl ScoreSource for GmmPolicyEngine {
    fn score(&mut self, page: PageIndex, pos: u64) -> f64 {
        self.score_at(page.raw(), self.timestamp_at(pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_gmm::{Gaussian2, Mat2};
    use icgmm_trace::TraceRecord;

    fn model() -> TrainedModel {
        // Hot pages near 1000, any time.
        let gmm = Gmm::new(
            vec![1.0],
            vec![Gaussian2::new([0.0, 0.0], Mat2::scaled_identity(1.0)).unwrap()],
        )
        .unwrap();
        let scaler = StandardScaler::fit(&[[900.0, 0.0], [1100.0, 100.0]], &[1.0, 1.0]);
        TrainedModel {
            scaler,
            gmm,
            threshold: 0.05,
        }
    }

    fn cfg() -> PreprocessConfig {
        PreprocessConfig {
            len_window: 2,
            len_access_shot: 100,
            ..Default::default()
        }
    }

    #[test]
    fn hot_pages_outscore_cold_pages() {
        let mut e = GmmPolicyEngine::new(&model(), &cfg(), false).unwrap();
        let hot = e.score(PageIndex::new(1000), 0);
        let cold = e.score(PageIndex::new(500_000), 1);
        assert!(hot > cold, "hot {hot} <= cold {cold}");
        assert_eq!(e.scores_computed(), 2);
    }

    #[test]
    fn fixed_point_engine_agrees_on_ordering() {
        let m = model();
        let mut f64e = GmmPolicyEngine::new(&m, &cfg(), false).unwrap();
        let mut fxe = GmmPolicyEngine::new(&m, &cfg(), true).unwrap();
        for (pos, page) in (0u64..).zip([990u64, 1000, 1010, 2000, 100_000]) {
            let r = TraceRecord::read(page << 12);
            let (a, b) = (f64e.score(r.page(), pos), fxe.score(r.page(), pos));
            assert!(
                (a - b).abs() < a.max(1e-6) * 0.02 + 1e-6,
                "page {page}: f64 {a} vs fixed {b}"
            );
        }
    }

    #[test]
    fn timestamps_advance_with_observations() {
        let mut e = GmmPolicyEngine::new(&model(), &cfg(), false).unwrap();
        // len_window = 2: positions 0 and 1 share window 0, position 2 is
        // window 1 — the streamed score is `score_at` that timestamp.
        let r = TraceRecord::read(1000 << 12);
        for (pos, ts) in [(0u64, 0u64), (1, 0), (2, 1), (199, 99), (200, 0)] {
            let streamed = e.score(r.page(), pos);
            assert_eq!(streamed, e.score_at(1000, ts), "position {pos}");
        }
        assert_eq!(e.scores_computed(), 10);
    }

    #[test]
    fn windowed_scoring_is_bit_identical_to_streaming() {
        for fixed_point in [false, true] {
            let m = model();
            let mut streaming = GmmPolicyEngine::new(&m, &cfg(), fixed_point).unwrap();
            let mut windowed = GmmPolicyEngine::new(&m, &cfg(), fixed_point).unwrap();
            let records: Vec<TraceRecord> = (0..200u64)
                .map(|i| TraceRecord::read(((900 + i * 7) % 2000) << 12))
                .collect();
            let mut out = vec![0.0; records.len()];
            windowed.score_window(&records, &mut out);
            for (pos, (r, o)) in records.iter().zip(&out).enumerate() {
                let s = streaming.score(r.page(), pos as u64);
                assert_eq!(o.to_bits(), s.to_bits(), "fixed_point={fixed_point}");
            }
            assert_eq!(windowed.scores_computed(), streaming.scores_computed());
        }
    }

    /// Five components apart in time as well as page, so both halves of a
    /// score matter; `shift` moves them for a second generation.
    fn timed_model(shift: f64) -> TrainedModel {
        let comps = (0..5)
            .map(|j| {
                let mean = [j as f64 - 2.0 + shift, (j as f64 * 0.7 + shift).sin()];
                Gaussian2::new(mean, Mat2::new(0.5, 0.1, 0.3)).unwrap()
            })
            .collect();
        TrainedModel {
            gmm: Gmm::new(vec![0.2; 5], comps).unwrap(),
            ..model()
        }
    }

    #[test]
    fn misses_of_one_window_share_a_time_slice_across_a_swap() {
        // Four misses in each 32-record window share its timestamp: the
        // engine's time slice keys it at the first, builds its halves at
        // the second and keeps them for the rest. The generation swaps
        // between the second and third miss of window 2. Every score
        // equals a fresh engine's `score_at` under the generation live at
        // its position.
        let pre = PreprocessConfig {
            len_window: 32,
            ..cfg()
        };
        let (a, b) = (timed_model(0.0), timed_model(0.5));
        let swap_at = 2 * 32 + 17;
        let mut e = GmmPolicyEngine::new(&a, &pre, false).unwrap();
        for window in 0..6u64 {
            for pos in [0, 5, 17, 31].map(|offset| window * 32 + offset) {
                if pos == swap_at {
                    e.swap_scorer(b.gmm.scorer().clone());
                }
                let live = if pos < swap_at { &a } else { &b };
                let page = 900 + (pos * 37) % 300;
                let got = e.score(PageIndex::new(page), pos);
                let mut fresh = GmmPolicyEngine::new(live, &pre, false).unwrap();
                let want = fresh.score_at(page, window);
                assert_eq!(got.to_bits(), want.to_bits(), "position {pos}");
            }
        }
        assert_eq!(e.scores_computed(), 24);
    }

    #[test]
    fn zero_algorithm1_windows_are_typed_errors() {
        let zero_window = PreprocessConfig {
            len_window: 0,
            ..cfg()
        };
        let zero_shot = PreprocessConfig {
            len_access_shot: 0,
            ..cfg()
        };
        for (field, preprocess) in [("len_window", zero_window), ("len_access_shot", zero_shot)] {
            match GmmPolicyEngine::new(&model(), &preprocess, false) {
                Err(GmmError::InvalidParam(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("{field} = 0: expected InvalidParam, got {other:?}"),
            }
        }
    }

    #[test]
    fn score_at_matches_stream_path() {
        let mut e = GmmPolicyEngine::new(&model(), &cfg(), false).unwrap();
        let streamed = e.score(PageIndex::new(1000), 0);
        let mut e2 = GmmPolicyEngine::new(&model(), &cfg(), false).unwrap();
        let direct = e2.score_at(1000, 0);
        assert_eq!(streamed, direct);
    }
}
