//! Zero-copy record views: the representation behind the sharded
//! engines' index-based fan-out.
//!
//! A [`RecordsRef`] is either a plain contiguous slice (the
//! single-threaded engines' native shape) or an *indexed* view — a list
//! of `u32` positions into a backing slice someone else owns. The sharded
//! replay and the serving front-end partition a trace by handing each
//! shard worker an indexed view over the caller's original slices: the
//! routing pass allocates 4 bytes per record (the index entry) instead of
//! copying every [`TraceRecord`] into per-shard buffers, and the workers
//! iterate the caller's trace by reference.
//!
//! The replay loop runs directly on views, so an indexed subtrace replays
//! in one uninterrupted call, bit-identically to the equivalent copied
//! slice.

use icgmm_trace::TraceRecord;

/// A borrowed, possibly non-contiguous sequence of trace records.
///
/// `Copy`, two words + a discriminant: passing one around is as cheap as
/// passing a slice. Positions are dense `0..len()` regardless of
/// representation; an indexed view maps position `i` to
/// `backing[index[i] - base]`.
#[derive(Clone, Copy, Debug)]
pub struct RecordsRef<'a> {
    repr: Repr<'a>,
}

#[derive(Clone, Copy, Debug)]
enum Repr<'a> {
    Slice(&'a [TraceRecord]),
    Indexed {
        backing: &'a [TraceRecord],
        index: &'a [u32],
        /// Subtracted from each index entry before indexing `backing` —
        /// lets one global index list (positions over warm-up ⧺ measured)
        /// be split into per-phase views over the per-phase slices.
        base: u32,
    },
}

impl<'a> RecordsRef<'a> {
    /// A view over a contiguous slice (zero overhead: every accessor
    /// compiles down to the plain slice operation).
    #[inline]
    pub fn from_slice(records: &'a [TraceRecord]) -> Self {
        RecordsRef {
            repr: Repr::Slice(records),
        }
    }

    /// An indexed view: position `i` resolves to
    /// `backing[(index[i] - base) as usize]`.
    ///
    /// # Panics
    ///
    /// Debug builds assert every `index` entry lands inside `backing`
    /// after the `base` shift.
    #[inline]
    pub fn indexed(backing: &'a [TraceRecord], index: &'a [u32], base: u32) -> Self {
        debug_assert!(index
            .iter()
            .all(|&i| { i >= base && ((i - base) as usize) < backing.len() }));
        RecordsRef {
            repr: Repr::Indexed {
                backing,
                index,
                base,
            },
        }
    }

    /// Number of records in the view.
    #[inline]
    pub fn len(&self) -> usize {
        match self.repr {
            Repr::Slice(s) => s.len(),
            Repr::Indexed { index, .. } => index.len(),
        }
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The record at position `i`. The returned reference borrows the
    /// *backing* storage, not the view — it outlives any local copy of
    /// the (`Copy`) view itself.
    #[inline]
    pub fn get(&self, i: usize) -> &'a TraceRecord {
        match self.repr {
            Repr::Slice(s) => &s[i],
            Repr::Indexed {
                backing,
                index,
                base,
            } => &backing[(index[i] - base) as usize],
        }
    }

    /// Iterates the records with their global trace positions: a slice
    /// view is contiguous from `first`; an indexed view's entries *are*
    /// its records' positions (`first` is not consulted).
    #[inline]
    pub fn positioned(&self, first: u64) -> Positioned<'a> {
        Positioned {
            records: self.iter(),
            next_in_slice: first,
        }
    }

    /// Iterates the records in position order.
    #[inline]
    pub fn iter(&self) -> RecordsIter<'a> {
        match self.repr {
            Repr::Slice(s) => RecordsIter::Slice(s.iter()),
            Repr::Indexed {
                backing,
                index,
                base,
            } => RecordsIter::Indexed {
                backing,
                index: index.iter(),
                base,
            },
        }
    }
}

impl<'a> From<&'a [TraceRecord]> for RecordsRef<'a> {
    fn from(records: &'a [TraceRecord]) -> Self {
        RecordsRef::from_slice(records)
    }
}

impl<'a> IntoIterator for RecordsRef<'a> {
    type Item = &'a TraceRecord;
    type IntoIter = RecordsIter<'a>;
    fn into_iter(self) -> RecordsIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`RecordsRef`], yielding `&TraceRecord` with the
/// backing storage's lifetime.
pub enum RecordsIter<'a> {
    /// Contiguous view: the plain slice iterator.
    Slice(std::slice::Iter<'a, TraceRecord>),
    /// Indexed view: walks the index list.
    Indexed {
        /// The backing records.
        backing: &'a [TraceRecord],
        /// Remaining index entries.
        index: std::slice::Iter<'a, u32>,
        /// Shift applied to each index entry (see [`RecordsRef::indexed`]).
        base: u32,
    },
}

impl<'a> Iterator for RecordsIter<'a> {
    type Item = &'a TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<&'a TraceRecord> {
        match self {
            RecordsIter::Slice(it) => it.next(),
            RecordsIter::Indexed {
                backing,
                index,
                base,
            } => index.next().map(|&i| &backing[(i - *base) as usize]),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RecordsIter::Slice(it) => it.size_hint(),
            RecordsIter::Indexed { index, .. } => index.size_hint(),
        }
    }
}

impl ExactSizeIterator for RecordsIter<'_> {}

/// Iterator of [`RecordsRef::positioned`]: `(global position, record)`.
pub struct Positioned<'a> {
    records: RecordsIter<'a>,
    /// Position of the next record of a slice view.
    next_in_slice: u64,
}

impl<'a> Iterator for Positioned<'a> {
    type Item = (u64, &'a TraceRecord);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.records {
            RecordsIter::Slice(it) => {
                let r = it.next()?;
                let pos = self.next_in_slice;
                self.next_in_slice += 1;
                Some((pos, r))
            }
            RecordsIter::Indexed {
                backing,
                index,
                base,
            } => {
                let &i = index.next()?;
                Some((u64::from(i), &backing[(i - *base) as usize]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: u64) -> Vec<TraceRecord> {
        (0..n).map(|p| TraceRecord::read(p << 12)).collect()
    }

    #[test]
    fn slice_view_roundtrips() {
        let recs = records(10);
        let v = RecordsRef::from_slice(&recs);
        assert_eq!(v.len(), 10);
        assert!(!v.is_empty());
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(v.get(i), r);
        }
        let collected: Vec<_> = v.iter().copied().collect();
        assert_eq!(collected, recs);
    }

    #[test]
    fn indexed_view_resolves_through_the_index() {
        let recs = records(10);
        let index: Vec<u32> = vec![1, 3, 4, 8];
        let v = RecordsRef::indexed(&recs, &index, 0);
        assert_eq!(v.len(), 4);
        assert_eq!(v.get(2), &recs[4]);
        let collected: Vec<_> = v.iter().copied().collect();
        assert_eq!(collected, vec![recs[1], recs[3], recs[4], recs[8]]);
    }

    #[test]
    fn base_shift_splits_one_global_index_across_phases() {
        // Global positions 0..10 over warm-up (0..4) ⧺ measured (4..10).
        let warm = records(4);
        let meas: Vec<TraceRecord> = (4..10u64).map(|p| TraceRecord::read(p << 12)).collect();
        let shard_index: Vec<u32> = vec![0, 2, 5, 6, 9]; // ascending global
        let wc = shard_index.partition_point(|&i| (i as usize) < warm.len());
        let wv = RecordsRef::indexed(&warm, &shard_index[..wc], 0);
        let mv = RecordsRef::indexed(&meas, &shard_index[wc..], warm.len() as u32);
        assert_eq!(wv.len(), 2);
        assert_eq!(mv.len(), 3);
        assert_eq!(wv.get(1), &warm[2]);
        assert_eq!(mv.get(0), &meas[1]); // global 5 = measured[1]
        assert_eq!(mv.get(2), &meas[5]); // global 9 = measured[5]
    }
}
