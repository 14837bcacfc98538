//! Columnar snapshot index: sorted hash columns, delta encoding, and the
//! merged survival-count table the Analyzer replays against.
//!
//! The paper's Analyzer counts, for every recorded object, the number of
//! snapshots its identity hash appears in (§3.3). Probing one hash set per
//! snapshot per object is O(objects × snapshots) scattered hash lookups,
//! paid in full on every replay; the columnar form moves that work to
//! capture time and turns it into sequential merges:
//!
//! 1. each snapshot's hashes are a **sorted column** ([`Snapshot::sorted_hashes`],
//!    built once at capture time);
//! 2. every column is stored **delta encoded** — the sorted `added`/`removed`
//!    sets vs. the previous column (the first column's delta against the
//!    empty heap is the column itself). Heaps mutate far less than they
//!    retain between GC cycles, so the delta is usually tiny;
//! 3. a **running accumulator** — one sorted `(hash, appearances)` table,
//!    packed as `hash << 32 | count` — is merged with each new column as it
//!    is pushed. This is the k-way merge of all columns, amortized across
//!    captures: each push costs one linear merge, cheaper than the sort the
//!    capture already performs. By replay time the counts exist;
//!    [`survival_counts`](SnapshotIndex::survival_counts) only snapshots the
//!    accumulator and builds a bucket directory over the high hash bits so
//!    each per-object query is a directory fetch plus a short scan instead
//!    of one hash probe per snapshot.
//!
//! The index is maintained incrementally by [`SnapshotSeries::push`] (the
//! Dumper knows the delta at capture time), so an Analyzer replay starts
//! from ready counts and pays only for lookups.
//!
//! Everything here is deterministic: same series in, byte-identical counts
//! out.
//!
//! [`Snapshot::sorted_hashes`]: crate::Snapshot::sorted_hashes
//! [`SnapshotSeries::push`]: crate::SnapshotSeries::push

use crate::record::SnapshotSeries;

/// One snapshot's hash column, delta encoded: the sorted hashes that appeared
/// / disappeared relative to the previous snapshot's column.
#[derive(Debug, Clone)]
struct Column {
    /// Hashes present in this column but not the previous one.
    added: Vec<u64>,
    /// Hashes present in the previous column but not this one.
    removed: Vec<u64>,
    /// True when the delta is strictly smaller than the full column — the
    /// case the encoding exists for. A churn-heavy column can exceed its
    /// full size (worst case 2×, for disjoint snapshots); the flag keeps the
    /// win observable via [`SnapshotIndex::delta_columns`].
    delta_won: bool,
}

/// A columnar index over a [`SnapshotSeries`].
///
/// # Examples
///
/// ```
/// use polm2_heap::{IdentityHash, ObjectId};
/// use polm2_metrics::{SimDuration, SimTime};
/// use polm2_snapshot::{Snapshot, SnapshotIndex, SnapshotSeries};
///
/// let snap = |seq: u32, ids: &[u64]| {
///     Snapshot::new(
///         seq,
///         SimTime::from_secs(seq as u64),
///         ids.iter().map(|&i| IdentityHash::of(ObjectId::new(i))).collect(),
///         4096,
///         SimDuration::from_millis(1),
///     )
/// };
/// let series: SnapshotSeries = vec![snap(0, &[1, 2, 3]), snap(1, &[2, 3])].into_iter().collect();
/// let counts = SnapshotIndex::build(&series).survival_counts();
/// assert_eq!(counts.get(u64::from(IdentityHash::of(ObjectId::new(2)).raw())), 2);
/// assert_eq!(counts.get(u64::from(IdentityHash::of(ObjectId::new(1)).raw())), 1);
/// assert_eq!(counts.get(0xdead_beef), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SnapshotIndex {
    columns: Vec<Column>,
    /// Running survival accumulator: sorted `hash << 32 | count` entries for
    /// every hash seen so far. Identity hashes are 32-bit, so hash and count
    /// pack into one word — lookups touch a single cache line per entry.
    acc: Vec<u64>,
}

impl SnapshotIndex {
    /// Builds the index from a complete snapshot series.
    ///
    /// [`SnapshotSeries`] maintains the same index incrementally
    /// (see [`SnapshotSeries::index`]); this constructor exists for building
    /// one from scratch, e.g. to time the build itself.
    pub fn build(series: &SnapshotSeries) -> Self {
        let mut index = SnapshotIndex::default();
        let mut prev: &[u64] = &[];
        for snapshot in series.snapshots() {
            index.push_column(prev, snapshot.sorted_hashes());
            prev = snapshot.sorted_hashes();
        }
        index
    }

    /// Appends one snapshot's column: delta encodes it against the previous
    /// column (`prev` is empty for the first snapshot) and merges it into
    /// the survival accumulator. Both slices must be sorted, duplicate-free,
    /// and hold 32-bit values, which [`crate::Snapshot`] guarantees.
    pub(crate) fn push_column(&mut self, prev: &[u64], cur: &[u64]) {
        let (added, removed) = diff_sorted(prev, cur);
        let delta_won = !self.columns.is_empty() && added.len() + removed.len() < cur.len();
        self.columns.push(Column {
            added,
            removed,
            delta_won,
        });
        if !cur.is_empty() {
            self.acc = merge_accumulate(&self.acc, cur);
        }
    }

    /// Number of snapshots indexed.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the index covers no snapshots.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// How many columns have a delta strictly smaller than their full column.
    pub fn delta_columns(&self) -> usize {
        self.columns.iter().filter(|c| c.delta_won).count()
    }

    /// Total hash entries stored across all column deltas, i.e. the encoded
    /// columns' memory footprint in entries. Compare against the undeltaed
    /// sum of snapshot sizes to see what delta encoding saved.
    pub fn stored_entries(&self) -> usize {
        self.columns
            .iter()
            .map(|c| c.added.len() + c.removed.len())
            .sum()
    }

    /// Column `i`'s delta (`added`, `removed` vs. column `i - 1`; column 0's
    /// delta is the column itself), or `None` past the last column. The
    /// journal's streaming serializer encodes snapshots straight from this —
    /// the diff already computed at [`SnapshotSeries::push`] time — instead
    /// of re-diffing full columns.
    pub fn delta(&self, i: usize) -> Option<(&[u64], &[u64])> {
        self.columns
            .get(i)
            .map(|c| (c.added.as_slice(), c.removed.as_slice()))
    }

    /// The merged survival-count table. The accumulator is already merged —
    /// this snapshots it and builds the lookup directory, O(distinct hashes),
    /// independent of the number of snapshots.
    pub fn survival_counts(&self) -> SurvivalCounts {
        SurvivalCounts::new(self.acc.clone())
    }
}

/// Number of high hash bits the [`SurvivalCounts`] lookup directory indexes.
const DIR_BITS: u32 = 16;
/// Directory bucket count; bucket `b` spans hashes with bits \[16..32) == `b`.
const DIR_BUCKETS: usize = 1 << DIR_BITS;

/// Sorted `(hash, appearances)` table: for every hash that appeared in at
/// least one snapshot, the number of snapshots containing it.
///
/// Entries are packed `hash << 32 | count` words sorted by hash. Identity
/// hashes are 32-bit values spread by a finalizer, so a directory over their
/// high 16 bits lands [`get`](SurvivalCounts::get) on a run of
/// ~`len / 65536` candidates — effectively constant-time lookups, one cache
/// line per candidate, no hashing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SurvivalCounts {
    /// Sorted packed entries: hash in the high 32 bits, count in the low 32.
    table: Vec<u64>,
    /// `dir[b]` = first table index whose hash's high 16 bits are ≥ `b`.
    dir: Vec<u32>,
}

impl SurvivalCounts {
    /// Wraps a sorted packed table, building the lookup directory.
    fn new(table: Vec<u64>) -> Self {
        debug_assert!(table.windows(2).all(|w| w[0] >> 32 < w[1] >> 32));
        let mut dir = vec![0u32; DIR_BUCKETS + 1];
        let mut i = 0usize;
        for (b, slot) in dir.iter_mut().enumerate() {
            while i < table.len() && (table[i] >> 48) < b as u64 {
                i += 1;
            }
            *slot = i as u32;
        }
        SurvivalCounts { table, dir }
    }

    /// Appearances of `hash` across the series (0 if never captured). A
    /// directory fetch plus a short scan — replaces one hash probe per
    /// snapshot. Hashes ≥ 2³² can never have been captured (identity hashes
    /// are 32-bit) and report 0.
    #[inline]
    pub fn get(&self, hash: u64) -> u32 {
        if hash >> 32 != 0 || self.table.is_empty() {
            return 0;
        }
        let b = (hash >> DIR_BITS) as usize;
        let (lo, hi) = (self.dir[b] as usize, self.dir[b + 1] as usize);
        for &entry in &self.table[lo..hi] {
            if entry >> 32 >= hash {
                return if entry >> 32 == hash {
                    (entry & u64::from(u32::MAX)) as u32
                } else {
                    0
                };
            }
        }
        0
    }

    /// Number of distinct hashes observed across the series.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if no snapshot contributed any hash.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// `(added, removed)` between two sorted, duplicate-free columns.
fn diff_sorted(prev: &[u64], cur: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < prev.len() && j < cur.len() {
        match prev[i].cmp(&cur[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                removed.push(prev[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(cur[j]);
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&prev[i..]);
    added.extend_from_slice(&cur[j..]);
    (added, removed)
}

/// Merges one sorted hash column into the packed accumulator: shared hashes
/// get their count bumped, new hashes enter with count 1.
fn merge_accumulate(acc: &[u64], column: &[u64]) -> Vec<u64> {
    debug_assert!(column.iter().all(|&h| h >> 32 == 0));
    let mut out = Vec::with_capacity(acc.len() + column.len());
    let (mut i, mut j) = (0, 0);
    while i < acc.len() && j < column.len() {
        match (acc[i] >> 32).cmp(&column[j]) {
            std::cmp::Ordering::Equal => {
                // Count lives in the low 32 bits, so +1 bumps it in place.
                out.push(acc[i] + 1);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                out.push(acc[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push((column[j] << 32) | 1);
                j += 1;
            }
        }
    }
    out.extend_from_slice(&acc[i..]);
    for &h in &column[j..] {
        out.push((h << 32) | 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Snapshot;
    use polm2_heap::{IdentityHash, ObjectId};
    use polm2_metrics::{SimDuration, SimTime};

    fn snap(seq: u32, ids: &[u64]) -> Snapshot {
        Snapshot::new(
            seq,
            SimTime::from_secs(seq as u64),
            ids.iter()
                .map(|&i| IdentityHash::of(ObjectId::new(i)))
                .collect(),
            4096,
            SimDuration::from_millis(1),
        )
    }

    fn raw(id: u64) -> u64 {
        u64::from(IdentityHash::of(ObjectId::new(id)).raw())
    }

    #[test]
    fn counts_match_per_snapshot_probing() {
        let series: SnapshotSeries = vec![
            snap(0, &[1, 2, 3, 4]),
            snap(1, &[2, 3, 4]),
            snap(2, &[3, 4, 5]),
            snap(3, &[]),
            snap(4, &[5]),
        ]
        .into_iter()
        .collect();
        let counts = SnapshotIndex::build(&series).survival_counts();
        for id in 0..8u64 {
            let expected = series.appearances(IdentityHash::of(ObjectId::new(id))) as u32;
            assert_eq!(counts.get(raw(id)), expected, "object {id}");
        }
    }

    #[test]
    fn departures_and_returns_count_exactly() {
        // Object present at snapshots {0, 1, 3, 4} — two presence intervals.
        let series: SnapshotSeries = vec![
            snap(0, &[7]),
            snap(1, &[7]),
            snap(2, &[]),
            snap(3, &[7]),
            snap(4, &[7]),
        ]
        .into_iter()
        .collect();
        let counts = SnapshotIndex::build(&series).survival_counts();
        assert_eq!(counts.get(raw(7)), 4);
    }

    #[test]
    fn stable_heaps_delta_encode() {
        // 100 long-lived objects, one churn object per snapshot: every column
        // after the first should store a small delta, not 101 entries.
        let series: SnapshotSeries = (0..10u32)
            .map(|s| {
                let mut ids: Vec<u64> = (0..100).collect();
                ids.push(1000 + u64::from(s));
                snap(s, &ids)
            })
            .collect();
        let index = SnapshotIndex::build(&series);
        assert_eq!(index.len(), 10);
        assert_eq!(index.delta_columns(), 9);
        // Full first column (101) + 9 deltas of {1 added, 1 removed}.
        assert_eq!(index.stored_entries(), 101 + 9 * 2);
        let counts = index.survival_counts();
        assert_eq!(counts.get(raw(0)), 10);
        assert_eq!(counts.get(raw(1005)), 1);
    }

    #[test]
    fn disjoint_snapshots_get_no_delta_credit() {
        let series: SnapshotSeries = vec![snap(0, &[1, 2]), snap(1, &[3, 4])]
            .into_iter()
            .collect();
        let index = SnapshotIndex::build(&series);
        assert_eq!(index.delta_columns(), 0, "a full rewrite beats its delta");
        let counts = index.survival_counts();
        assert_eq!(counts.len(), 4);
        for id in 1..=4u64 {
            assert_eq!(counts.get(raw(id)), 1);
        }
    }

    #[test]
    fn series_maintains_the_index_incrementally() {
        let series: SnapshotSeries = vec![snap(0, &[1, 2, 3]), snap(1, &[2, 3, 4]), snap(2, &[4])]
            .into_iter()
            .collect();
        let incremental = series.index();
        let rebuilt = SnapshotIndex::build(&series);
        assert_eq!(incremental.len(), rebuilt.len());
        assert_eq!(incremental.delta_columns(), rebuilt.delta_columns());
        assert_eq!(incremental.stored_entries(), rebuilt.stored_entries());
        assert_eq!(incremental.survival_counts(), rebuilt.survival_counts());
    }

    #[test]
    fn empty_series_yields_empty_counts() {
        let index = SnapshotIndex::build(&SnapshotSeries::new());
        assert!(index.is_empty());
        let counts = index.survival_counts();
        assert!(counts.is_empty());
        assert_eq!(counts.get(raw(1)), 0);
    }

    #[test]
    fn lookups_agree_with_per_snapshot_probing_across_the_value_range() {
        // Dense cluster + sparse spread, so some directory buckets hold runs
        // and most are empty; also query far-off and 64-bit hashes.
        let mut ids: Vec<u64> = (0..2000u64).collect();
        ids.extend((0..64u64).map(|i| 1 << (i % 40)));
        ids.sort_unstable();
        ids.dedup();
        let series: SnapshotSeries = vec![snap(0, &ids), snap(1, &ids[..ids.len() / 2])]
            .into_iter()
            .collect();
        let counts = SnapshotIndex::build(&series).survival_counts();
        let captured: std::collections::HashSet<u64> = ids.iter().map(|&id| raw(id)).collect();
        for &id in &ids {
            let expected = series.appearances(IdentityHash::of(ObjectId::new(id))) as u32;
            assert_eq!(counts.get(raw(id)), expected, "object {id}");
            assert_eq!(counts.get(raw(id) | 0xffff_ffff_0000_0000), 0);
            let perturbed = raw(id) ^ 0x5a5a_5a5a;
            if !captured.contains(&perturbed) {
                assert_eq!(counts.get(perturbed), 0, "object {id} perturbed");
            }
        }
    }

    #[test]
    fn sorted_hashes_are_sorted_and_complete() {
        let s = snap(0, &[9, 1, 5, 3]);
        let col = s.sorted_hashes();
        assert_eq!(col.len(), 4);
        assert!(col.windows(2).all(|w| w[0] < w[1]));
        for id in [9u64, 1, 5, 3] {
            assert!(col.binary_search(&raw(id)).is_ok());
        }
    }
}
