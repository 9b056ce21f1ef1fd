//! [`ScoreSource`] adapter: drive the cache simulator with LSTM scores.
//!
//! The predictor keeps a sliding window of the last `seq_len` observed
//! `(page, timestamp)` features (the same inputs the GMM sees) and runs a
//! forward pass on demand. Note the contrast the paper draws: the GMM
//! scores a page from its *current* `(P, T)` point alone, while the LSTM
//! must re-process a 32-step history every time — that history is exactly
//! why its hardware needs sequence buffers and 4 orders of magnitude more
//! latency.

use crate::network::LstmNetwork;
use icgmm_cache::ScoreSource;
use icgmm_trace::{TimestampTransformer, TraceRecord};
use std::collections::VecDeque;

/// Sliding-window LSTM score source.
#[derive(Clone, Debug)]
pub struct LstmScoreSource {
    net: LstmNetwork,
    window: VecDeque<Vec<f32>>,
    transformer: TimestampTransformer,
    page_center: f64,
    page_scale: f64,
    time_scale: f64,
}

impl LstmScoreSource {
    /// Wraps a (typically trained) network.
    ///
    /// `page_center`/`page_scale` normalize raw page indices into roughly
    /// `[-1, 1]` (use the trace's min/max); `len_window`/`len_access_shot`
    /// must match the values used elsewhere (paper defaults 32 / 10 000).
    pub fn new(
        net: LstmNetwork,
        page_center: f64,
        page_scale: f64,
        len_window: u32,
        len_access_shot: u32,
    ) -> Self {
        let time_scale = f64::from(len_access_shot).max(1.0);
        LstmScoreSource {
            net,
            window: VecDeque::new(),
            transformer: TimestampTransformer::new(len_window, len_access_shot),
            page_center,
            page_scale: page_scale.max(1.0),
            time_scale,
        }
    }

    fn features(&self, record: &TraceRecord, pos: u64) -> Vec<f32> {
        let ts = self.transformer.at(pos);
        let p = (record.page().raw() as f64 - self.page_center) / self.page_scale;
        let t = ts as f64 / self.time_scale;
        vec![p as f32, t as f32]
    }
}

impl ScoreSource for LstmScoreSource {
    fn observe(&mut self, record: &TraceRecord, pos: u64) {
        let f = self.features(record, pos);
        let cap = self.net.arch().seq_len;
        if self.window.len() == cap {
            self.window.pop_front();
        }
        self.window.push_back(f);
    }

    fn score_current(&mut self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let seq: Vec<Vec<f32>> = self.window.iter().cloned().collect();
        f64::from(self.net.forward(&seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::LstmArch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn source() -> LstmScoreSource {
        let mut rng = StdRng::seed_from_u64(1);
        let net = LstmNetwork::new(
            LstmArch {
                layers: 1,
                hidden: 4,
                input: 2,
                seq_len: 4,
            },
            &mut rng,
        );
        LstmScoreSource::new(net, 1000.0, 1000.0, 2, 100)
    }

    #[test]
    fn empty_window_scores_zero() {
        let mut s = source();
        assert_eq!(s.score_current(), 0.0);
    }

    #[test]
    fn window_is_bounded_by_seq_len() {
        let mut s = source();
        for i in 0..20u64 {
            s.observe(&TraceRecord::read(i << 12), i);
        }
        assert_eq!(s.window.len(), 4);
        assert!(s.score_current().is_finite());
    }

    #[test]
    fn scores_depend_on_history() {
        let mut a = source();
        let mut b = source();
        for i in 0..4u64 {
            a.observe(&TraceRecord::read(i << 12), i);
            b.observe(&TraceRecord::read((5000 + i) << 12), i);
        }
        assert_ne!(a.score_current(), b.score_current());
    }
}
