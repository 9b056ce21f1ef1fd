//! Basic memory-access trace record types.
//!
//! The trace-collection tool cited by the paper (Yang et al., USENIX ATC'23)
//! records `(read/write, physical address, access time)` tuples. We keep the
//! same information: the access time is implicit in the record's position in
//! the trace (the paper's Algorithm 1 derives its timestamps purely from
//! trace position, not wall-clock time).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Base-2 logarithm of the SSD page size (4 KiB), the minimum SSD access
/// granularity and therefore the DRAM-cache block size (paper §2.1).
pub const PAGE_SHIFT: u32 = 12;

/// Largest physical address a [`TraceRecord`] holds: bit 63 of its word
/// is the write flag.
pub const MAX_PADDR: u64 = (1 << 63) - 1;

/// SSD page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// Host memory-access granularity in bytes (one cache line, paper §1: 64 B).
pub const HOST_ACCESS_BYTES: u64 = 64;

/// Direction of a memory request.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// A load from the expanded memory space.
    Read,
    /// A store to the expanded memory space.
    Write,
}

impl Op {
    /// Returns `true` for [`Op::Write`].
    ///
    /// ```
    /// use icgmm_trace::Op;
    /// assert!(Op::Write.is_write());
    /// assert!(!Op::Read.is_write());
    /// ```
    pub fn is_write(self) -> bool {
        matches!(self, Op::Write)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read => f.write_str("R"),
            Op::Write => f.write_str("W"),
        }
    }
}

/// Index of a 4 KiB page in the expanded (SSD-backed) memory space.
///
/// The paper consolidates 64 B host accesses into SSD pages by deriving a
/// page index from the physical address. (The paper prints `PI = PA << 12`,
/// which is a typographical slip — grouping addresses into 4 KiB pages
/// requires a *right* shift, which is what this type performs.)
///
/// ```
/// use icgmm_trace::PageIndex;
/// let pi = PageIndex::from_paddr(0x1234_5678);
/// assert_eq!(pi.raw(), 0x1234_5678 >> 12);
/// ```
#[derive(
    Copy, Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct PageIndex(u64);

impl PageIndex {
    /// Wraps a raw page number.
    pub fn new(raw: u64) -> Self {
        PageIndex(raw)
    }

    /// Derives the page index from a physical byte address.
    pub fn from_paddr(paddr: u64) -> Self {
        PageIndex(paddr >> PAGE_SHIFT)
    }

    /// The raw page number.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PageIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{:#x}", self.0)
    }
}

impl From<u64> for PageIndex {
    fn from(raw: u64) -> Self {
        PageIndex(raw)
    }
}

/// One host memory request observed at the CXL device, packed into one
/// word: the physical byte address in bits 0–62 and the write flag in bit
/// 63, so an in-memory trace costs 8 bytes per record.
///
/// ```
/// use icgmm_trace::{Op, TraceRecord};
/// let r = TraceRecord::new(Op::Write, 0x8000);
/// assert_eq!((r.op(), r.paddr(), r.page().raw()), (Op::Write, 0x8000, 8));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceRecord(u64);

const _: () = assert!(std::mem::size_of::<TraceRecord>() == 8);

impl TraceRecord {
    /// Creates a record.
    ///
    /// # Panics
    ///
    /// If `paddr` exceeds [`MAX_PADDR`], rather than mask bit 63 off. No
    /// physical address needs it (x86-64 uses 52 bits): `io::read_text`
    /// refuses one as malformed, and the generators draw far below it.
    pub fn new(op: Op, paddr: u64) -> Self {
        assert!(paddr <= MAX_PADDR, "address {paddr:#x} exceeds MAX_PADDR");
        TraceRecord(paddr | u64::from(op.is_write()) << 63)
    }

    /// Convenience constructor for a read.
    pub fn read(paddr: u64) -> Self {
        TraceRecord::new(Op::Read, paddr)
    }

    /// Convenience constructor for a write.
    pub fn write(paddr: u64) -> Self {
        TraceRecord::new(Op::Write, paddr)
    }

    /// Read or write.
    #[inline]
    pub fn op(&self) -> Op {
        [Op::Read, Op::Write][(self.0 >> 63) as usize]
    }

    /// Physical byte address in the expanded memory space.
    #[inline]
    pub fn paddr(&self) -> u64 {
        self.0 & MAX_PADDR
    }

    /// The 4 KiB page this request falls in.
    #[inline]
    pub fn page(&self) -> PageIndex {
        PageIndex::from_paddr(self.paddr())
    }
}

impl fmt::Debug for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRecord")
            .field("op", &self.op())
            .field("paddr", &self.paddr())
            .finish()
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:#x}", self.op(), self.paddr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_index_from_paddr_shifts_right() {
        assert_eq!(PageIndex::from_paddr(0).raw(), 0);
        assert_eq!(PageIndex::from_paddr(4095).raw(), 0);
        assert_eq!(PageIndex::from_paddr(4096).raw(), 1);
        assert_eq!(PageIndex::from_paddr(u64::MAX).raw(), u64::MAX >> 12);
    }

    #[test]
    fn record_page_matches_manual_shift() {
        let r = TraceRecord::write(0x12_3456);
        assert_eq!(r.page().raw(), 0x12_3456 >> 12);
        assert!(r.op().is_write());
    }

    #[test]
    fn the_word_holds_what_went_in() {
        use crate::{io, Trace};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(36);
        let edges = [0, 1, 4095, 4096, 1 << 52, MAX_PADDR];
        let paddrs: Vec<u64> = edges
            .into_iter()
            .chain((0..64).map(|_| rng.gen::<u64>() & MAX_PADDR))
            .collect();
        let mut records = Vec::new();
        for &paddr in &paddrs {
            for op in [Op::Read, Op::Write] {
                let r = TraceRecord::new(op, paddr);
                assert_eq!((r.op(), r.paddr()), (op, paddr));
                assert_eq!(r.page(), PageIndex::from_paddr(paddr));
                records.push(r);
            }
        }
        let trace = Trace::from_records(records);
        let mut text = Vec::new();
        io::write_text(&trace, &mut text).unwrap();
        assert_eq!(io::read_text(text.as_slice()).unwrap(), trace);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PADDR")]
    fn an_address_past_max_paddr_panics() {
        let _ = TraceRecord::read(1 << 63);
    }

    #[test]
    fn debug_prints_the_fields() {
        let r = TraceRecord::write(0x2a);
        assert_eq!(format!("{r:?}"), "TraceRecord { op: Write, paddr: 42 }");
        let pretty = "TraceRecord {\n    op: Read,\n    paddr: 4096,\n}";
        assert_eq!(format!("{:#?}", TraceRecord::read(4096)), pretty);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TraceRecord::read(0x1000).to_string(), "R 0x1000");
        assert_eq!(TraceRecord::write(0x2a).to_string(), "W 0x2a");
        assert_eq!(PageIndex::new(16).to_string(), "pg0x10");
    }

    #[test]
    fn ordering_on_page_index() {
        assert!(PageIndex::new(1) < PageIndex::new(2));
        assert_eq!(PageIndex::from(7u64), PageIndex::new(7));
    }
}
