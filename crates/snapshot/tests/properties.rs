//! Property-based tests for the snapshot machinery.

use std::collections::BTreeSet;

use proptest::prelude::*;

use polm2_heap::{Heap, HeapConfig, IdentityHash, ObjectId, SiteId};
use polm2_metrics::{SimDuration, SimTime};
use polm2_snapshot::{
    CriuDumper, DumperOptions, HeapDumper, JmapDumper, Snapshot, SnapshotMeta, SnapshotSeries,
};

/// Builds a heap with the given object sizes; every `keep_mask` bit decides
/// rooting.
fn build_heap(sizes: &[u32], keep_mask: u64) -> (Heap, Vec<ObjectId>) {
    let mut heap = Heap::new(HeapConfig::small());
    let class = heap.classes_mut().intern("P");
    let slot = heap.roots_mut().create_slot("keep");
    let mut kept = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let id = heap
            .allocate(
                class,
                size.clamp(16, 64 << 10),
                SiteId::new(0),
                Heap::YOUNG_SPACE,
            )
            .expect("alloc");
        if keep_mask & (1 << (i % 64)) != 0 {
            heap.roots_mut().push(slot, id);
            kept.push(id);
        }
    }
    (heap, kept)
}

/// One capture of a random series: `kind` picks an empty column (0), a
/// repeat of the previous capture (1), ids disjoint from every earlier
/// capture (2), or ids from a small shared range that overlap earlier
/// captures (3).
fn capture(seq: u32, kind: u8, ids: &BTreeSet<u64>, prev: Option<&Snapshot>) -> Snapshot {
    let hashes = match (kind, prev) {
        (0, _) => Default::default(),
        (1, Some(prev)) => prev.hashes().clone(),
        (2, _) => ids
            .iter()
            .map(|&id| IdentityHash::of(ObjectId::new(1_000 * (u64::from(seq) + 1) + id)))
            .collect(),
        _ => ids
            .iter()
            .map(|&id| IdentityHash::of(ObjectId::new(id)))
            .collect(),
    };
    Snapshot::new(
        seq,
        SimTime::from_secs(u64::from(seq)),
        hashes,
        64 * (u64::from(seq) + 1),
        SimDuration::from_micros(10 + u64::from(seq)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A series keeps one column, yet loses nothing the journal and the
    /// Analyzer read: its deltas rebuild every pushed column, its newest
    /// column is the last one pushed, its survival counts equal a recount
    /// over the pushed snapshots, and its metadata sums hold.
    #[test]
    fn one_column_series_keeps_every_capture_recoverable(
        plan in proptest::collection::vec(
            (0u8..4, proptest::collection::btree_set(0u64..48, 0..24)),
            0..12,
        ),
    ) {
        let mut snaps: Vec<Snapshot> = Vec::new();
        let mut series = SnapshotSeries::new();
        for (kind, ids) in &plan {
            let snap = capture(snaps.len() as u32, *kind, ids, snaps.last());
            series.push(snap.clone());
            prop_assert_eq!(series.newest_column(), snap.sorted_hashes());
            snaps.push(snap);
        }
        prop_assert_eq!(series.len(), snaps.len());
        prop_assert_eq!(
            series.newest_column(),
            snaps.last().map_or(&[][..], |s| s.sorted_hashes())
        );

        // Applied in order from the empty heap, the deltas rebuild every
        // pushed column.
        let index = series.index();
        prop_assert!(index.delta(snaps.len()).is_none());
        let mut column: BTreeSet<u64> = BTreeSet::new();
        for (i, snap) in snaps.iter().enumerate() {
            let (added, removed) = index.delta(i).expect("one delta per push");
            for &h in added {
                prop_assert!(column.insert(h), "delta {} re-adds {}", i, h);
            }
            for h in removed {
                prop_assert!(column.remove(h), "delta {} removes absent {}", i, h);
            }
            prop_assert!(column.iter().copied().eq(snap.sorted_hashes().iter().copied()));
        }

        // Survival counts against a recount over the pushed snapshots.
        let counts = index.survival_counts();
        let seen: BTreeSet<u64> = snaps
            .iter()
            .flat_map(|s| s.sorted_hashes().iter().copied())
            .collect();
        prop_assert_eq!(counts.len(), seen.len());
        for &h in &seen {
            let hash = IdentityHash::from_raw(h as u32);
            let appearances = snaps.iter().filter(|s| s.contains(hash)).count() as u32;
            prop_assert_eq!(counts.get(h), appearances);
        }

        // Metadata, and the sums over it.
        let metas: Vec<SnapshotMeta> = snaps
            .iter()
            .map(|s| SnapshotMeta {
                seq: s.seq,
                at: s.at,
                live_objects: s.live_objects,
                size_bytes: s.size_bytes,
                capture_time: s.capture_time,
            })
            .collect();
        prop_assert_eq!(series.snapshots(), &metas[..]);
        prop_assert_eq!(
            series.total_size_bytes(),
            snaps.iter().map(|s| s.size_bytes).sum::<u64>()
        );
        prop_assert_eq!(
            series.total_capture_time(),
            snaps.iter().map(|s| s.capture_time).sum::<SimDuration>()
        );
    }

    /// Snapshot content is exactly the live set, for both dumpers.
    #[test]
    fn content_equals_live_set(
        sizes in proptest::collection::vec(16u32..4096, 1..60),
        keep_mask in any::<u64>(),
    ) {
        let (mut heap, kept) = build_heap(&sizes, keep_mask);
        let criu = CriuDumper::new().snapshot(&mut heap, SimTime::ZERO).unwrap();
        let (mut heap2, _) = build_heap(&sizes, keep_mask);
        let jmap = JmapDumper::new().snapshot(&mut heap2, SimTime::ZERO).unwrap();
        prop_assert_eq!(criu.live_objects, kept.len() as u64);
        prop_assert_eq!(jmap.live_objects, kept.len() as u64);
        for id in kept {
            let hash = heap.object(id).unwrap().identity_hash();
            prop_assert!(criu.contains(hash));
            prop_assert!(jmap.contains(hash));
        }
    }

    /// With both optimizations, a snapshot is never larger than with either
    /// disabled; a quiescent follow-up snapshot is never larger than the
    /// first.
    #[test]
    fn optimizations_never_hurt(
        sizes in proptest::collection::vec(256u32..8192, 1..60),
        keep_mask in any::<u64>(),
    ) {
        let options = [
            DumperOptions::default(),
            DumperOptions { use_no_need: false, ..DumperOptions::default() },
            DumperOptions { use_incremental: false, ..DumperOptions::default() },
            DumperOptions { use_no_need: false, use_incremental: false, ..DumperOptions::default() },
        ];
        let mut first_sizes = Vec::new();
        for o in options {
            let (mut heap, _) = build_heap(&sizes, keep_mask);
            let mut dumper = CriuDumper::with_options(o);
            let first = dumper.snapshot(&mut heap, SimTime::ZERO).unwrap();
            let second = dumper.snapshot(&mut heap, SimTime::from_secs(1)).unwrap();
            if o.use_incremental {
                prop_assert!(second.size_bytes <= first.size_bytes);
            }
            first_sizes.push(first.size_bytes);
        }
        // Fully-optimized is minimal among the variants for the first shot.
        for &other in &first_sizes[1..] {
            prop_assert!(first_sizes[0] <= other);
        }
    }

    /// Capture time grows monotonically with captured bytes under one cost
    /// model.
    #[test]
    fn cost_is_monotone_in_size(
        a in proptest::collection::vec(1024u32..4096, 1..40),
        b in proptest::collection::vec(1024u32..4096, 41..80),
    ) {
        let (mut small_heap, _) = build_heap(&a, u64::MAX);
        let (mut big_heap, _) = build_heap(&b, u64::MAX);
        let small = CriuDumper::new().snapshot(&mut small_heap, SimTime::ZERO).unwrap();
        let big = CriuDumper::new().snapshot(&mut big_heap, SimTime::ZERO).unwrap();
        prop_assert!(small.size_bytes <= big.size_bytes);
        prop_assert!(small.capture_time <= big.capture_time);
    }
}
