//! Golden hashes of every synthetic generator's output.
//!
//! Each generator is a deterministic function of `(n, seed)`, and every
//! trace is cut at exactly `n` records. This suite pins those bits below
//! full scale: for each of the eight generators (the seven paper workloads
//! plus the multi-tenant pool) and each seed, one FNV-1a hash runs over
//! `generate(n, seed)` for every `n` in `0..=300`, 4 097 and 65 537 — each
//! trace's length, then every record's `paddr` and op. A change that moves
//! one record of one prefix, or where a trace is cut, changes the hash.
//!
//! FNV-1a, not `DefaultHasher`: the standard hasher's algorithm is not
//! stable across Rust releases, and these constants must be.

use icgmm_trace::synth::{MultiTenantWorkload, Workload, WorkloadKind};
use icgmm_trace::{Op, Trace};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn hash_trace(mut h: u64, t: &Trace) -> u64 {
    h = fnv1a(h, &(t.len() as u64).to_le_bytes());
    for r in t {
        h = fnv1a(h, &r.paddr().to_le_bytes());
        h = fnv1a(h, &[u8::from(r.op() == Op::Write)]);
    }
    h
}

const SEEDS: [u64; 3] = [0, 1, 977];

/// One hash per seed over every `n` up to 300, then two lengths one past a
/// power of two.
fn golden(w: &dyn Workload) -> [u64; 3] {
    SEEDS.map(|seed| {
        (0..=300).chain([4_097, 65_537]).fold(FNV_OFFSET, |h, n| {
            let t = w.generate(n, seed);
            assert_eq!(t.len(), n);
            hash_trace(h, &t)
        })
    })
}

#[test]
fn every_generator_matches_its_golden_hashes() {
    let expected: [(&str, [u64; 3]); 8] = [
        (
            "parsec",
            [0x3e42c911ff75e36a, 0xb00a8d1ae026e5a0, 0x46660d550bb95fe7],
        ),
        (
            "memtier",
            [0x0b13c1719cc150e7, 0x72ae4e64412d284e, 0xa765c542081a0835],
        ),
        (
            "hashmap",
            [0x4bee0d2cedf8c77a, 0x5e7dbc403fd44be2, 0x027d27abeb75a0b7],
        ),
        (
            "heap",
            [0xd6394d2be9da4798, 0x86b12792cdbb00df, 0x746f10af30514b7e],
        ),
        (
            "sysbench",
            [0xa1507871c96244c1, 0x788d9b32bbe86370, 0x28be22e501566838],
        ),
        (
            "dlrm",
            [0x0a44d4924d0a20e0, 0x20226b1f0a5104ad, 0x55656566fdf37226],
        ),
        (
            "stream",
            [0x08bc97bcf1d9fc25, 0xf08cda9b960d5641, 0xf6a722d108e47b5c],
        ),
        (
            "tenants",
            [0xc153c59cc23030ad, 0xb5b9ca1bc0c3f705, 0x65b6e0516696dc5f],
        ),
    ];
    let generators = WorkloadKind::all()
        .map(WorkloadKind::default_workload)
        .into_iter()
        .chain([Box::new(MultiTenantWorkload::default()) as Box<dyn Workload + Send + Sync>]);
    let got: Vec<(&str, [u64; 3])> = expected
        .iter()
        .zip(generators)
        .map(|(&(name, _), w)| (name, golden(w.as_ref())))
        .collect();
    for (name, hashes) in &got {
        println!("{name}: {hashes:#018x?}");
    }
    assert_eq!(got, expected);
}
