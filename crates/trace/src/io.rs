//! Plain-text trace serialization.
//!
//! Format: one request per line, `R <hex paddr>` or `W <hex paddr>`, with
//! `#`-prefixed comment lines — compatible in spirit with the trace dumps of
//! the open-source collection tool the paper uses, so externally collected
//! traces can be fed to the simulator.

use crate::record::{Op, TraceRecord, MAX_PADDR};
use crate::trace::Trace;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

/// Error produced when parsing a text trace.
#[derive(Debug)]
pub enum ParseTraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line that is neither a comment nor a valid record.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text, cut to 80 characters (plus `…`) — a hostile
        /// line must not be copied whole into the error.
        text: String,
    },
    /// A line longer than [`MAX_LINE_BYTES`]; refused before it is read
    /// whole.
    LineTooLong {
        /// 1-based line number.
        line: usize,
        /// The cap, in bytes.
        limit: usize,
    },
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ParseTraceError::Malformed { line, text } => {
                write!(f, "malformed trace record at line {line}: {text:?}")
            }
            ParseTraceError::LineTooLong { line, limit } => {
                write!(f, "trace line {line} is longer than {limit} bytes")
            }
        }
    }
}

impl Error for ParseTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseTraceError::Io(e) => Some(e),
            ParseTraceError::Malformed { .. } | ParseTraceError::LineTooLong { .. } => None,
        }
    }
}

impl From<std::io::Error> for ParseTraceError {
    fn from(e: std::io::Error) -> Self {
        ParseTraceError::Io(e)
    }
}

/// Most characters of an offending line [`ParseTraceError::Malformed`]
/// echoes.
const MALFORMED_ECHO_CHARS: usize = 80;

/// Longest line [`read_text`] accepts, in bytes, line terminator included
/// (a record is under 40).
pub const MAX_LINE_BYTES: usize = 4096;

/// Parses an address field of at most [`MAX_PADDR`]: hex digits after
/// `0x` / `0X`, decimal digits otherwise. The integer parsers accept a
/// leading `+`; an address has no sign, so a field that does not start
/// with a digit is refused first.
fn parse_paddr(field: &str) -> Option<u64> {
    let (digits, radix) = match field
        .strip_prefix("0x")
        .or_else(|| field.strip_prefix("0X"))
    {
        Some(hex) => (hex, 16),
        None => (field, 10),
    };
    if !digits.starts_with(|c: char| c.is_digit(radix)) {
        return None;
    }
    u64::from_str_radix(digits, radix)
        .ok()
        .filter(|&paddr| paddr <= MAX_PADDR)
}

/// Writes a trace in text form. A `&mut` reference may be passed for `w`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_text<W: Write>(trace: &Trace, w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "# icgmm trace v1: <R|W> <hex paddr>")?;
    for r in trace {
        writeln!(w, "{} {:#x}", r.op(), r.paddr())?;
    }
    w.flush()
}

/// Reads a text trace. A `&mut` reference may be passed for `r`. At most
/// [`MAX_LINE_BYTES`] + 1 bytes of input are buffered at a time, whatever
/// the input holds.
///
/// # Errors
///
/// Returns [`ParseTraceError::Malformed`] on the first bad line (an
/// address above [`MAX_PADDR`] is one), [`ParseTraceError::LineTooLong`]
/// on the first over-long one, or [`ParseTraceError::Io`] on reader
/// failure (bytes that are not UTF-8 included).
pub fn read_text<R: Read>(r: R) -> Result<Trace, ParseTraceError> {
    let mut reader = BufReader::new(r);
    let mut trace = Trace::new();
    let mut buf = Vec::new();
    for i in 0.. {
        buf.clear();
        // One byte past the cap tells an over-long line from a full one.
        let mut bounded = reader.by_ref().take(MAX_LINE_BYTES as u64 + 1);
        if bounded.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        if buf.len() > MAX_LINE_BYTES {
            return Err(ParseTraceError::LineTooLong {
                line: i + 1,
                limit: MAX_LINE_BYTES,
            });
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let s = line.trim();
        if s.is_empty() || s.starts_with('#') {
            continue;
        }
        let malformed = || {
            let mut text: String = s.chars().take(MALFORMED_ECHO_CHARS).collect();
            if text.len() < s.len() {
                text.push('…');
            }
            ParseTraceError::Malformed { line: i + 1, text }
        };
        let (op_s, addr_s) = s.split_once(char::is_whitespace).ok_or_else(malformed)?;
        let op = match op_s {
            "R" | "r" => Op::Read,
            "W" | "w" => Op::Write,
            _ => return Err(malformed()),
        };
        let paddr = parse_paddr(addr_s.trim()).ok_or_else(malformed)?;
        trace.push(TraceRecord::new(op, paddr));
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::from_records(vec![
            TraceRecord::read(0x1000),
            TraceRecord::write(0x2040),
            TraceRecord::read(0xdead_beef),
        ])
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let back = read_text(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# header\n\nR 0x10\n  \nW 32\n";
        let t = read_text(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[0].paddr(), 0x10);
        assert_eq!(t.records()[1].paddr(), 32); // decimal accepted
        assert_eq!(t.records()[1].op(), Op::Write);
    }

    #[test]
    fn malformed_line_is_reported_with_position() {
        let text = "R 0x10\nX 0x20\n";
        let err = read_text(text.as_bytes()).unwrap_err();
        match err {
            ParseTraceError::Malformed { line, text } => {
                assert_eq!(line, 2);
                assert!(text.contains('X'));
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn bad_address_is_malformed() {
        assert!(read_text("R zzz".as_bytes()).is_err());
        assert!(read_text("R 0xzz".as_bytes()).is_err());
        assert!(read_text("R".as_bytes()).is_err());
    }

    #[test]
    fn hostile_text_is_a_typed_error() {
        // (text, the 1-based line the error names)
        let cases = [
            // The integer parsers take a leading `+`; an address has no sign.
            ("R 0x+10", 1),
            ("R +16", 1),
            ("R -16", 1),
            ("R 0x-10", 1),
            // A bare prefix, a missing address, one past u64::MAX in both radices.
            ("R 0x", 1),
            ("R 0x10\nW \n", 2),
            ("W", 1),
            ("R 0x10000000000000000", 1),
            ("# ok\nR 18446744073709551616", 2),
            // One past MAX_PADDR and u64::MAX: bit 63 is the write flag.
            ("R 0x8000000000000000", 1),
            ("R 0x10\nW 9223372036854775808", 2),
            ("R 0x10\n# ok\nW 0xffffffffffffffff", 3),
            ("W 18446744073709551615", 1),
            ("R 0x10 0x20", 1),
        ];
        for (text, want) in cases {
            match read_text(text.as_bytes()) {
                Err(ParseTraceError::Malformed { line, .. }) => {
                    assert_eq!(line, want, "wrong line for {text:?}")
                }
                other => panic!("{text:?} must be Malformed, got {other:?}"),
            }
        }
        // The largest address still parses, in both radices.
        let max = read_text("R 0x7fffffffffffffff\nW 9223372036854775807".as_bytes()).unwrap();
        let got: Vec<(Op, u64)> = max.iter().map(|r| (r.op(), r.paddr())).collect();
        assert_eq!(got, [(Op::Read, MAX_PADDR), (Op::Write, MAX_PADDR)]);

        // The echo of an offending line is capped, on a character boundary.
        let long = format!("R {}", "é".repeat(1_000));
        match read_text(long.as_bytes()) {
            Err(ParseTraceError::Malformed { text, .. }) => {
                assert_eq!(text.chars().count(), MALFORMED_ECHO_CHARS + 1);
                assert!(text.ends_with('…'), "{text}");
            }
            other => panic!("must be Malformed, got {other:?}"),
        }

        // A line over the cap is refused by number without being read
        // whole: after two good lines, as the last line with no newline at
        // all (multi-megabyte), and one byte over; a full line still parses.
        let pad = |bytes: usize| format!("R 0x10{}\n", " ".repeat(bytes - "R 0x10\n".len()));
        for (text, want) in [
            (
                format!("R 0x10\n# ok\nR 0x{}\nR 0x20\n", "0".repeat(MAX_LINE_BYTES)),
                3,
            ),
            (format!("R 0x10\nW {}", "7".repeat(4 << 20)), 2),
            (pad(MAX_LINE_BYTES + 1), 1),
        ] {
            match read_text(text.as_bytes()) {
                Err(ParseTraceError::LineTooLong { line, limit }) => {
                    assert_eq!((line, limit), (want, MAX_LINE_BYTES));
                }
                other => panic!("line {want} must be LineTooLong, got {other:?}"),
            }
        }
        assert_eq!(read_text(pad(MAX_LINE_BYTES).as_bytes()).unwrap().len(), 1);

        // Bytes that are not UTF-8 are a reader failure, not a record.
        let err = read_text(&b"R 0x10\nR \xff\xfe\n"[..]).unwrap_err();
        assert!(matches!(err, ParseTraceError::Io(_)), "{err:?}");
    }

    #[test]
    fn error_display_is_informative() {
        let err = read_text("Q 1".as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
    }
}
