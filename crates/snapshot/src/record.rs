//! Snapshot records and series.

use polm2_heap::{IdHashSet, IdentityHash};
use polm2_metrics::{SimDuration, SimTime};

/// One captured heap snapshot.
///
/// Content is the set of live-object identity hashes (what the Analyzer
/// consumes); cost is the number of bytes captured and the stop time the
/// capture imposed (what Figures 3–4 compare).
///
/// The canonical content is a **sorted, duplicate-free column** of raw hash
/// values — the shape [`crate::SnapshotIndex`] merges and the shape the
/// Dumper now streams directly off the heap (no per-snapshot hash set is
/// materialized during the capture window). A hash-set view is rebuilt
/// lazily on first use for the point-query consumers that still want one.
/// A [`SnapshotSeries`] keeps the column only until the next capture
/// supersedes it.
#[derive(Debug)]
pub struct Snapshot {
    /// Sequence number within its series (0-based).
    pub seq: u32,
    /// When the capture happened.
    pub at: SimTime,
    /// Sorted, duplicate-free raw identity-hash column (canonical content).
    sorted: Vec<u64>,
    /// Hash-set view over `sorted`, rebuilt lazily on first use.
    hashes: std::sync::OnceLock<IdHashSet<IdentityHash>>,
    /// Number of live objects captured.
    pub live_objects: u64,
    /// Bytes written by the capture.
    pub size_bytes: u64,
    /// How long the application was stopped for the capture.
    pub capture_time: SimDuration,
}

impl Clone for Snapshot {
    fn clone(&self) -> Self {
        // The lazy set view is cheap to rebuild; cloning only the canonical
        // column keeps clones allocation-light.
        Snapshot {
            seq: self.seq,
            at: self.at,
            sorted: self.sorted.clone(),
            hashes: std::sync::OnceLock::new(),
            live_objects: self.live_objects,
            size_bytes: self.size_bytes,
            capture_time: self.capture_time,
        }
    }
}

impl Snapshot {
    /// Creates a snapshot record from a hash set (sorts the column eagerly).
    pub fn new(
        seq: u32,
        at: SimTime,
        hashes: IdHashSet<IdentityHash>,
        size_bytes: u64,
        capture_time: SimDuration,
    ) -> Self {
        let mut sorted: Vec<u64> = hashes.iter().map(|h| u64::from(h.raw())).collect();
        sorted.sort_unstable();
        Self::from_sorted_column(seq, at, sorted, size_bytes, capture_time)
    }

    /// Creates a snapshot record directly from a sorted, duplicate-free
    /// column of raw hash values — the Dumper's streaming capture path
    /// ([`Heap::capture_live`] produces exactly this shape).
    ///
    /// [`Heap::capture_live`]: polm2_heap::Heap::capture_live
    ///
    /// # Panics
    ///
    /// Debug builds assert the column is strictly ascending.
    pub fn from_sorted_column(
        seq: u32,
        at: SimTime,
        sorted: Vec<u64>,
        size_bytes: u64,
        capture_time: SimDuration,
    ) -> Self {
        debug_assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "snapshot column must be sorted and duplicate-free"
        );
        let live_objects = sorted.len() as u64;
        Snapshot {
            seq,
            at,
            sorted,
            hashes: std::sync::OnceLock::new(),
            live_objects,
            size_bytes,
            capture_time,
        }
    }

    /// True if an object with this identity hash was live at capture time.
    pub fn contains(&self, hash: IdentityHash) -> bool {
        self.sorted.binary_search(&u64::from(hash.raw())).is_ok()
    }

    /// The captured identity hashes (hash-set compatibility view, rebuilt
    /// lazily from the canonical column).
    pub fn hashes(&self) -> &IdHashSet<IdentityHash> {
        self.hashes.get_or_init(|| {
            self.sorted
                .iter()
                .map(|&raw| IdentityHash::from_raw(raw as u32))
                .collect()
        })
    }

    /// The captured identity hashes as a sorted column of raw values — the
    /// canonical content ([`crate::SnapshotIndex`] is built from these
    /// without re-sorting).
    pub fn sorted_hashes(&self) -> &[u64] {
        &self.sorted
    }
}

/// What a [`SnapshotSeries`] keeps of a capture: everything but its hash
/// column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Sequence number within its series (0-based).
    pub seq: u32,
    /// When the capture happened.
    pub at: SimTime,
    /// Number of live objects captured.
    pub live_objects: u64,
    /// Bytes written by the capture.
    pub size_bytes: u64,
    /// How long the application was stopped for the capture.
    pub capture_time: SimDuration,
}

/// A sequence of snapshots from one profiling run.
///
/// The series keeps one full hash column: the newest capture's. Each
/// [`push`](SnapshotSeries::push) diffs the incoming column against it,
/// appends the delta and merges the column into the survival accumulator of
/// the [`SnapshotIndex`](crate::SnapshotIndex), then keeps the incoming
/// column as the new newest. Every older capture lives on only as its
/// metadata and its delta: the journal encodes those, and the Analyzer reads
/// the accumulator.
#[derive(Debug, Clone, Default)]
pub struct SnapshotSeries {
    metas: Vec<SnapshotMeta>,
    index: crate::SnapshotIndex,
    /// The newest capture's column (empty before the first push).
    newest: Vec<u64>,
}

impl SnapshotSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        SnapshotSeries::default()
    }

    /// Appends a snapshot: indexes its delta against the newest column, then
    /// keeps its column as the newest and drops the superseded one.
    pub fn push(&mut self, snapshot: Snapshot) {
        let meta = SnapshotMeta {
            seq: snapshot.seq,
            at: snapshot.at,
            live_objects: snapshot.live_objects,
            size_bytes: snapshot.size_bytes,
            capture_time: snapshot.capture_time,
        };
        self.index.push_column(&self.newest, &snapshot.sorted);
        self.metas.push(meta);
        self.newest = snapshot.sorted;
    }

    /// The columnar index over the series, maintained incrementally by
    /// [`push`](SnapshotSeries::push).
    pub fn index(&self) -> &crate::SnapshotIndex {
        &self.index
    }

    /// The newest capture's sorted hash column, the base the next capture's
    /// delta applies to; empty before the first push.
    pub fn newest_column(&self) -> &[u64] {
        &self.newest
    }

    /// Per-capture metadata, capture order.
    pub fn snapshots(&self) -> &[SnapshotMeta] {
        &self.metas
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Total bytes across the series.
    pub fn total_size_bytes(&self) -> u64 {
        self.metas.iter().map(|s| s.size_bytes).sum()
    }

    /// Total stop time across the series.
    pub fn total_capture_time(&self) -> SimDuration {
        self.metas.iter().map(|s| s.capture_time).sum()
    }

    /// Mean snapshot size (0 for an empty series).
    pub fn mean_size_bytes(&self) -> u64 {
        if self.metas.is_empty() {
            0
        } else {
            self.total_size_bytes() / self.metas.len() as u64
        }
    }
}

impl FromIterator<Snapshot> for SnapshotSeries {
    fn from_iter<T: IntoIterator<Item = Snapshot>>(iter: T) -> Self {
        let mut series = SnapshotSeries::new();
        for snapshot in iter {
            series.push(snapshot);
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::ObjectId;

    fn snap(seq: u32, ids: &[u64], size: u64, ms: u64) -> Snapshot {
        Snapshot::new(
            seq,
            SimTime::from_secs(seq as u64),
            ids.iter()
                .map(|&i| IdentityHash::of(ObjectId::new(i)))
                .collect(),
            size,
            SimDuration::from_millis(ms),
        )
    }

    #[test]
    fn snapshot_content_queries() {
        let s = snap(0, &[1, 2], 4096, 3);
        assert!(s.contains(IdentityHash::of(ObjectId::new(1))));
        assert!(!s.contains(IdentityHash::of(ObjectId::new(9))));
        assert_eq!(s.live_objects, 2);
    }

    #[test]
    fn series_accumulates_costs() {
        let snaps = [snap(0, &[1], 100, 5), snap(1, &[1, 2], 300, 10)];
        let series: SnapshotSeries = snaps.iter().cloned().collect();
        assert_eq!(series.len(), 2);
        assert_eq!(series.total_size_bytes(), 400);
        assert_eq!(series.mean_size_bytes(), 200);
        assert_eq!(series.total_capture_time(), SimDuration::from_millis(15));
        assert_eq!(
            series.snapshots()[1],
            SnapshotMeta {
                seq: 1,
                at: SimTime::from_secs(1),
                live_objects: 2,
                size_bytes: 300,
                capture_time: SimDuration::from_millis(10),
            }
        );
        assert_eq!(series.newest_column(), snaps[1].sorted_hashes());
        // Survival counts against a recount over the test's own snapshots.
        let counts = series.index().survival_counts();
        for id in [1u64, 2, 3] {
            let hash = IdentityHash::of(ObjectId::new(id));
            let appearances = snaps.iter().filter(|s| s.contains(hash)).count() as u32;
            assert_eq!(
                counts.get(u64::from(hash.raw())),
                appearances,
                "object {id}"
            );
        }
        assert!(!series.is_empty());
    }

    #[test]
    fn empty_series_defaults() {
        let series = SnapshotSeries::new();
        assert!(series.is_empty());
        assert!(series.newest_column().is_empty());
        assert_eq!(series.mean_size_bytes(), 0);
        assert_eq!(series.total_size_bytes(), 0);
    }
}
