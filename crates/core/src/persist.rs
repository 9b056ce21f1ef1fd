//! Plain-text persistence for trained models.
//!
//! The FPGA loads its weight buffer once from HBM before the kernels start
//! (paper Fig. 5); deployments therefore need the trained model as an
//! artifact. To stay inside the approved dependency set (no serde_json),
//! the format is a simple line-oriented text file:
//!
//! ```text
//! icgmm-model v1
//! scaler <mean_p> <mean_t> <std_p> <std_t>
//! threshold <t>
//! k <K>
//! comp <weight> <mean_p> <mean_t> <cov_xx> <cov_xy> <cov_yy>   (K lines)
//! ```
//!
//! Floats are written with full round-trip precision (`{:e}` with 17
//! significant digits), so save → load is bit-exact.

use crate::engine::TrainedModel;
use icgmm_gmm::{Gaussian2, Gmm, Mat2, StandardScaler};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Error produced when loading a model file.
#[derive(Debug)]
pub enum ModelFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or numeric problem in the file.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        what: String,
    },
}

impl fmt::Display for ModelFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelFileError::Io(e) => write!(f, "i/o error reading model: {e}"),
            ModelFileError::Malformed { line, what } => {
                write!(f, "malformed model file at line {line}: {what}")
            }
        }
    }
}

impl Error for ModelFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelFileError::Io(e) => Some(e),
            ModelFileError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for ModelFileError {
    fn from(e: std::io::Error) -> Self {
        ModelFileError::Io(e)
    }
}

/// Writes a trained model. A `&mut` reference may be passed for `w`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_model<W: Write>(model: &TrainedModel, w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "icgmm-model v1")?;
    let s = &model.scaler;
    writeln!(
        w,
        "scaler {:.17e} {:.17e} {:.17e} {:.17e}",
        s.mean()[0],
        s.mean()[1],
        s.std()[0],
        s.std()[1]
    )?;
    writeln!(w, "threshold {:.17e}", model.threshold)?;
    writeln!(w, "k {}", model.gmm.k())?;
    for (weight, comp) in model.gmm.weights().iter().zip(model.gmm.components()) {
        let m = comp.mean();
        let c = comp.cov();
        writeln!(
            w,
            "comp {weight:.17e} {:.17e} {:.17e} {:.17e} {:.17e} {:.17e}",
            m[0], m[1], c.xx, c.xy, c.yy
        )?;
    }
    w.flush()
}

/// Reads a trained model. A `&mut` reference may be passed for `r`.
///
/// # Errors
///
/// Returns [`ModelFileError::Malformed`] on the first structural problem
/// — a non-finite threshold and anything but blank lines after the last
/// component included — or [`ModelFileError::Io`] on reader failure.
pub fn load_model<R: Read>(r: R) -> Result<TrainedModel, ModelFileError> {
    let mut lines = BufReader::new(r).lines().enumerate();
    let mut next = |expect: &str| -> Result<(usize, String), ModelFileError> {
        match lines.next() {
            Some((i, l)) => Ok((i + 1, l?)),
            None => Err(ModelFileError::Malformed {
                line: 0,
                what: format!("unexpected end of file, expected {expect}"),
            }),
        }
    };
    let bad = |line: usize, what: &str| ModelFileError::Malformed {
        line,
        what: what.to_string(),
    };
    let floats =
        |line: usize, s: &str, prefix: &str, n: usize| -> Result<Vec<f64>, ModelFileError> {
            let rest = s
                .strip_prefix(prefix)
                .ok_or_else(|| bad(line, &format!("expected {prefix:?} line")))?;
            let vals: Result<Vec<f64>, _> = rest.split_whitespace().map(str::parse).collect();
            let vals = vals.map_err(|_| bad(line, "unparseable number"))?;
            if vals.len() != n {
                return Err(bad(line, &format!("expected {n} numbers")));
            }
            Ok(vals)
        };

    let (i, header) = next("header")?;
    if header.trim() != "icgmm-model v1" {
        return Err(bad(i, "bad header (expected \"icgmm-model v1\")"));
    }
    let (i, line) = next("scaler")?;
    let sv = floats(i, &line, "scaler", 4)?;
    let scaler =
        StandardScaler::from_parts([sv[0], sv[1]], [sv[2], sv[3]]).map_err(|e| bad(i, &e))?;
    let (i, line) = next("threshold")?;
    let threshold = floats(i, &line, "threshold", 1)?[0];
    if !threshold.is_finite() {
        // `score >= NaN` is false for every score: the model would load
        // and then bypass every read miss.
        return Err(bad(i, "threshold must be finite"));
    }
    let (i, line) = next("k")?;
    let k: usize = line
        .strip_prefix("k ")
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| bad(i, "expected \"k <count>\""))?;
    if k == 0 {
        return Err(bad(i, "k must be >= 1"));
    }

    // The vectors grow as lines arrive: `k` is a claim the file has yet
    // to back up, not a size to allocate.
    let (mut weights, mut comps) = (Vec::new(), Vec::new());
    for _ in 0..k {
        let (i, line) = next("component")?;
        let v = floats(i, &line, "comp", 6)?;
        weights.push(v[0]);
        let g = Gaussian2::new([v[1], v[2]], Mat2::new(v[3], v[4], v[5]))
            .map_err(|e| bad(i, &e.to_string()))?;
        comps.push(g);
    }
    for (i, line) in lines {
        if !line?.trim().is_empty() {
            return Err(bad(i + 1, "unexpected content after the last component"));
        }
    }
    let gmm = Gmm::new(weights, comps).map_err(|e| ModelFileError::Malformed {
        line: 0,
        what: e.to_string(),
    })?;
    Ok(TrainedModel {
        scaler,
        gmm,
        threshold,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icgmm_gmm::{Gaussian2, Mat2};

    fn sample_model() -> TrainedModel {
        let gmm = Gmm::new(
            vec![0.25, 0.75],
            vec![
                Gaussian2::new([1.5, -2.0], Mat2::new(0.5, 0.1, 0.9)).unwrap(),
                Gaussian2::new([-3.25, 4.0], Mat2::new(1.25, -0.2, 2.0)).unwrap(),
            ],
        )
        .unwrap();
        let scaler = StandardScaler::from_parts([1000.0, 50.0], [250.0, 10.0]).unwrap();
        TrainedModel {
            scaler,
            gmm,
            threshold: 0.0123456789,
        }
    }

    #[test]
    fn save_load_round_trips_exactly() {
        let model = sample_model();
        let mut buf = Vec::new();
        save_model(&model, &mut buf).unwrap();
        let loaded = load_model(buf.as_slice()).unwrap();
        assert_eq!(loaded, model);
        // Scores agree bit-for-bit.
        for x in [[900.0, 40.0], [1200.0, 60.0]] {
            let z = model.scaler.transform(x);
            assert_eq!(
                model.gmm.score(z),
                loaded.gmm.score(loaded.scaler.transform(x))
            );
        }
    }

    #[test]
    fn bad_header_is_rejected_with_line_number() {
        let err = load_model("not a model\n".as_bytes()).unwrap_err();
        match err {
            ModelFileError::Malformed { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn truncated_file_is_rejected() {
        let model = sample_model();
        let mut buf = Vec::new();
        save_model(&model, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let truncated: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(load_model(truncated.as_bytes()).is_err());
    }

    #[test]
    fn corrupt_numbers_are_rejected() {
        let model = sample_model();
        let mut buf = Vec::new();
        save_model(&model, &mut buf).unwrap();
        let text = String::from_utf8(buf)
            .unwrap()
            .replace("threshold", "threshold x");
        assert!(load_model(text.as_bytes()).is_err());
    }

    /// Hostile files get a typed error — never a panic, an allocation sized
    /// by an unread count, or a model that loads and misbehaves.
    #[test]
    fn hostile_files_are_typed_errors() {
        const HEAD: &str = "icgmm-model v1\nscaler 0e0 0e0 1e0 1e0\n";
        const COMP: &str = "comp 1e0 0e0 0e0 1e0 0e0 1e0\n";
        let file = |threshold: &str, k: &str, comps: &str| {
            format!("{HEAD}threshold {threshold}\nk {k}\n{comps}")
        };
        // (file, the 1-based line the error names; 0 = end of file or the
        // mixture as a whole)
        let cases = [
            // A component count nobody could allocate: the loader reads
            // until the lines run out instead of reserving for it.
            (file("0e0", "18446744073709551615", COMP), 0),
            (file("0e0", "1000000000000", COMP), 0),
            (file("NaN", "1", COMP), 3),
            (file("inf", "1", COMP), 3),
            (file("0e0", "1", &format!("{COMP}{COMP}")), 6),
            (file("0e0", "1", &format!("{COMP}\n  \nk 1\n")), 8),
            // Truncated after `k`, and after the header.
            (file("0e0", "1", ""), 0),
            ("icgmm-model v1\n".to_string(), 0),
            // NaN inside a component: as a mean, a covariance, a weight.
            (file("0e0", "1", "comp 1e0 NaN 0e0 1e0 0e0 1e0\n"), 5),
            (file("0e0", "1", "comp 1e0 0e0 0e0 NaN 0e0 1e0\n"), 5),
            (file("0e0", "1", "comp NaN 0e0 0e0 1e0 0e0 1e0\n"), 0),
        ];
        for (text, want) in &cases {
            match load_model(text.as_bytes()) {
                Err(ModelFileError::Malformed { line, .. }) => {
                    assert_eq!(line, *want, "wrong line for {text:?}")
                }
                other => panic!("{text:?} must be Malformed, got {other:?}"),
            }
        }
        // Blank lines after the last component are not content.
        assert!(load_model(file("0e0", "1", &format!("{COMP}\n  \n")).as_bytes()).is_ok());

        // A reader that fails mid-file is an I/O error, not a malformed file.
        struct FailsAfter<'a>(&'a [u8]);
        impl Read for FailsAfter<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::Error::other("disk on fire"));
                }
                let n = self.0.len().min(buf.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let err = load_model(FailsAfter(file("0e0", "2", COMP).as_bytes())).unwrap_err();
        assert!(matches!(err, ModelFileError::Io(_)), "{err:?}");
    }

    #[test]
    fn invalid_covariance_is_rejected() {
        // Hand-craft a file with a non-SPD covariance.
        let text = "icgmm-model v1\n\
                    scaler 0e0 0e0 1e0 1e0\n\
                    threshold 0e0\n\
                    k 1\n\
                    comp 1e0 0e0 0e0 1e0 5e0 1e0\n";
        let err = load_model(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 5"), "{err}");
    }
}
