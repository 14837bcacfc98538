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

/// A sequence of snapshots from one profiling run.
///
/// Alongside the snapshots themselves the series maintains a
/// [`SnapshotIndex`](crate::SnapshotIndex) incrementally: each
/// [`push`](SnapshotSeries::push) delta-encodes the new snapshot's sorted
/// column against its predecessor (forcing the lazy sort), so by the time
/// the Analyzer replays, the columnar index already exists — Recorder
/// bookkeeping work, off both the replay path and the capture window.
#[derive(Debug, Clone, Default)]
pub struct SnapshotSeries {
    snapshots: Vec<Snapshot>,
    index: crate::SnapshotIndex,
}

impl SnapshotSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        SnapshotSeries::default()
    }

    /// Appends a snapshot, extending the columnar index with its delta
    /// against the previous snapshot.
    pub fn push(&mut self, snapshot: Snapshot) {
        let prev: &[u64] = self
            .snapshots
            .last()
            .map(|s| s.sorted_hashes())
            .unwrap_or(&[]);
        self.index.push_column(prev, snapshot.sorted_hashes());
        self.snapshots.push(snapshot);
    }

    /// The columnar index over the series, maintained incrementally by
    /// [`push`](SnapshotSeries::push).
    pub fn index(&self) -> &crate::SnapshotIndex {
        &self.index
    }

    /// The snapshots, capture order.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Total bytes across the series.
    pub fn total_size_bytes(&self) -> u64 {
        self.snapshots.iter().map(|s| s.size_bytes).sum()
    }

    /// Total stop time across the series.
    pub fn total_capture_time(&self) -> SimDuration {
        self.snapshots.iter().map(|s| s.capture_time).sum()
    }

    /// Mean snapshot size (0 for an empty series).
    pub fn mean_size_bytes(&self) -> u64 {
        if self.snapshots.is_empty() {
            0
        } else {
            self.total_size_bytes() / self.snapshots.len() as u64
        }
    }

    /// The number of snapshots in which each hash appears consecutively from
    /// its first appearance is what the Analyzer derives; the series only
    /// provides ordered access, via [`snapshots`](SnapshotSeries::snapshots).
    ///
    /// Convenience: how many snapshots contain `hash`.
    pub fn appearances(&self, hash: IdentityHash) -> usize {
        self.snapshots.iter().filter(|s| s.contains(hash)).count()
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
        let series: SnapshotSeries = vec![snap(0, &[1], 100, 5), snap(1, &[1, 2], 300, 10)]
            .into_iter()
            .collect();
        assert_eq!(series.len(), 2);
        assert_eq!(series.total_size_bytes(), 400);
        assert_eq!(series.mean_size_bytes(), 200);
        assert_eq!(series.total_capture_time(), SimDuration::from_millis(15));
        assert_eq!(series.appearances(IdentityHash::of(ObjectId::new(1))), 2);
        assert_eq!(series.appearances(IdentityHash::of(ObjectId::new(2))), 1);
        assert!(!series.is_empty());
    }

    #[test]
    fn empty_series_defaults() {
        let series = SnapshotSeries::new();
        assert!(series.is_empty());
        assert_eq!(series.mean_size_bytes(), 0);
        assert_eq!(series.total_size_bytes(), 0);
    }
}
