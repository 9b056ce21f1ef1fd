//! Synthetic workload models for the paper's seven trace benchmarks.
//!
//! The paper evaluates ICGMM on two synthetic benchmarks (`hashmap`, `heap`,
//! from the CXL-SSD tool of Yang et al.) and five real applications (`dlrm`,
//! `parsec`, `stream`, `memtier`, `sysbench`). We cannot replay the authors'
//! captured traces, so each generator here reproduces the *documented
//! statistical structure* of its application — the spatial mixture-of-
//! Gaussians and phase-structured temporal locality shown in the paper's
//! Fig. 2 — and is calibrated (in `icgmm::benchmarks`) so that the LRU
//! baseline lands near the paper's published miss rate for that benchmark.
//!
//! All generators are deterministic given `(n, seed)`.
//!
//! A generator is the operation it repeats: one closure that emits a whole
//! operation's records (a sample's gathers, a traversal, a sift path).
//! `synth` runs it until `n` records are out, and its `Sink` keeps the
//! first `n` and drops the rest, so no generator tests the length to stop.
//! Cutting at `n` this way keeps every trace a prefix of the longer ones:
//! each kept record is a function of the draws made before it, so finishing
//! the last operation past `n` and dropping its tail changes no kept record.
//! `hashmap` alone still reads the length, and only to decide which
//! operation takes the last record (a rehash read never goes out without
//! its relocation write).

mod dlrm;
mod hashmap;
mod heap;
mod memtier;
mod parsec;
mod stream;
mod sysbench;
mod tenants;

pub use dlrm::DlrmWorkload;
pub use hashmap::HashmapWorkload;
pub use heap::HeapWorkload;
pub use memtier::MemtierWorkload;
pub use parsec::ParsecWorkload;
pub use stream::StreamWorkload;
pub use sysbench::SysbenchWorkload;
pub use tenants::MultiTenantWorkload;

use crate::record::{TraceRecord, PAGE_SHIFT};
use crate::trace::Trace;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A synthetic application that can emit a memory-request trace.
///
/// Implementations are deterministic: the same `(n, seed)` always produces
/// the same trace.
pub trait Workload {
    /// Generates `n` requests using the given RNG seed.
    fn generate(&self, n: usize, seed: u64) -> Trace;
}

/// The seven benchmarks of the paper's evaluation (§5.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// PARSEC-style HPC working-set benchmark.
    Parsec,
    /// memtier / redis key–value benchmark.
    Memtier,
    /// Synthetic hash-map benchmark (write-heavy, periodic rehash scans).
    Hashmap,
    /// Synthetic binary-heap benchmark (write-heavy, level-structured).
    Heap,
    /// sysbench OLTP point-query benchmark.
    Sysbench,
    /// DLRM embedding-gather benchmark (huge skewed footprint).
    Dlrm,
    /// STREAM sequential-sweep benchmark (cyclic, LRU-hostile).
    Stream,
}

impl WorkloadKind {
    /// All seven benchmarks in the paper's Fig. 6 order.
    pub fn all() -> [WorkloadKind; 7] {
        [
            WorkloadKind::Parsec,
            WorkloadKind::Memtier,
            WorkloadKind::Hashmap,
            WorkloadKind::Heap,
            WorkloadKind::Sysbench,
            WorkloadKind::Dlrm,
            WorkloadKind::Stream,
        ]
    }

    /// Builds the default-parameter generator for this benchmark.
    pub fn default_workload(self) -> Box<dyn Workload + Send + Sync> {
        match self {
            WorkloadKind::Parsec => Box::new(ParsecWorkload::default()),
            WorkloadKind::Memtier => Box::new(MemtierWorkload::default()),
            WorkloadKind::Hashmap => Box::new(HashmapWorkload::default()),
            WorkloadKind::Heap => Box::new(HeapWorkload::default()),
            WorkloadKind::Sysbench => Box::new(SysbenchWorkload::default()),
            WorkloadKind::Dlrm => Box::new(DlrmWorkload::default()),
            WorkloadKind::Stream => Box::new(StreamWorkload::default()),
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WorkloadKind::Parsec => "parsec",
            WorkloadKind::Memtier => "memtier",
            WorkloadKind::Hashmap => "hashmap",
            WorkloadKind::Heap => "heap",
            WorkloadKind::Sysbench => "sysbench",
            WorkloadKind::Dlrm => "dlrm",
            WorkloadKind::Stream => "stream",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for WorkloadKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "parsec" => Ok(WorkloadKind::Parsec),
            "memtier" => Ok(WorkloadKind::Memtier),
            "hashmap" => Ok(WorkloadKind::Hashmap),
            "heap" => Ok(WorkloadKind::Heap),
            "sysbench" => Ok(WorkloadKind::Sysbench),
            "dlrm" => Ok(WorkloadKind::Dlrm),
            "stream" => Ok(WorkloadKind::Stream),
            other => Err(format!("unknown workload: {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared generator building blocks (crate-private).
// ---------------------------------------------------------------------------

/// Standard-normal draw via Box–Muller (rand itself ships no normal sampler
/// and rand_distr is outside the approved dependency set).
pub(crate) fn normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    // Box–Muller; discard the second variate for simplicity.
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mu + sigma * z
}

/// A 64 B-aligned address inside page `page` at cache-line slot `slot`
/// (wrapped to the 64 slots of a 4 KiB page).
pub(crate) fn line_addr(page: u64, slot: u64) -> u64 {
    (page << PAGE_SHIFT) + (slot % 64) * 64
}

/// A uniformly random 64 B-aligned address inside `page`.
pub(crate) fn rand_line_addr<R: Rng + ?Sized>(rng: &mut R, page: u64) -> u64 {
    line_addr(page, rng.gen_range(0..64))
}

/// Clamps a real-valued page coordinate into `[base, base + pages)`.
pub(crate) fn clamp_page(x: f64, base: u64, pages: u64) -> u64 {
    let lo = base as f64;
    let hi = (base + pages - 1) as f64;
    x.clamp(lo, hi) as u64
}

/// The records a generator has emitted, cut at `n`: the first `n` are
/// kept, the rest dropped. It holds all `n` slots from the start, so it
/// never grows.
pub(crate) struct Sink {
    records: Vec<TraceRecord>,
    len: usize,
}

impl Sink {
    /// Records kept so far (at most `n`).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Keeps `r` if fewer than `n` records are out; drops it otherwise.
    pub(crate) fn push(&mut self, r: TraceRecord) {
        if let Some(slot) = self.records.get_mut(self.len) {
            *slot = r;
            self.len += 1;
        }
    }

    /// Pushes a read of a random line in `page`.
    pub(crate) fn read<R: Rng + ?Sized>(&mut self, rng: &mut R, page: u64) {
        self.push(TraceRecord::read(rand_line_addr(rng, page)));
    }

    /// Pushes a write of a random line in `page`.
    pub(crate) fn write<R: Rng + ?Sized>(&mut self, rng: &mut R, page: u64) {
        self.push(TraceRecord::write(rand_line_addr(rng, page)));
    }
}

/// Runs `op` (one operation of a generator, drawing from `rng`) until `n`
/// records are out, and returns the first `n`. Inlined into each
/// generator: on a 2-vCPU Xeon the best of 6–8 alternating runs of a
/// 1.2 M-record `dlrm` trace read 19–23 ns per record inlined, 23–26 ns not.
#[inline(always)]
pub(crate) fn synth<R: Rng>(n: usize, mut rng: R, mut op: impl FnMut(&mut Sink, &mut R)) -> Trace {
    let mut sink = Sink {
        records: vec![TraceRecord::read(0); n],
        len: 0,
    };
    while sink.len < n {
        op(&mut sink, &mut rng);
    }
    Trace::from_records(sink.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::str::FromStr;

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn line_addr_stays_inside_page() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let a = rand_line_addr(&mut rng, 7);
            assert_eq!(a >> PAGE_SHIFT, 7);
            assert_eq!(a % 64, 0);
        }
        assert_eq!(line_addr(3, 65), (3 << 12) + 64);
    }

    #[test]
    fn clamp_page_bounds() {
        assert_eq!(clamp_page(-5.0, 10, 4), 10);
        assert_eq!(clamp_page(11.4, 10, 4), 11);
        assert_eq!(clamp_page(1e12, 10, 4), 13);
    }

    #[test]
    fn kind_round_trips_through_str() {
        for k in WorkloadKind::all() {
            let s = k.to_string();
            assert_eq!(WorkloadKind::from_str(&s).unwrap(), k);
        }
        assert!(WorkloadKind::from_str("nope").is_err());
    }

    #[test]
    fn default_workloads_are_deterministic() {
        for k in WorkloadKind::all() {
            let w = k.default_workload();
            let a = w.generate(2_000, 42);
            let b = w.generate(2_000, 42);
            assert_eq!(a, b, "{k} not deterministic");
            assert_eq!(a.len(), 2_000, "{k} wrong length");
            let c = w.generate(2_000, 43);
            assert_ne!(a, c, "{k} ignores seed");
        }
    }
}
