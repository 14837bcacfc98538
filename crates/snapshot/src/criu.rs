//! The CRIU-based Dumper.

use polm2_heap::Heap;
use polm2_metrics::{SimDuration, SimTime};

use crate::{HeapDumper, Snapshot, SnapshotError};

/// Which of the Dumper's two optimizations are enabled (the paper's §3.2;
/// toggles exist for the ablation benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumperOptions {
    /// Skip pages whose no-need bit is set (the Recorder's pre-snapshot heap
    /// walk marks pages containing no live objects).
    pub use_no_need: bool,
    /// Capture only pages dirtied since the previous snapshot (the kernel
    /// soft-dirty bit).
    pub use_incremental: bool,
    /// Fixed per-snapshot cost (process freeze, descriptor capture), µs.
    pub base_us: u64,
    /// Cost per captured page (copy + write), µs.
    pub us_per_page: u64,
}

impl Default for DumperOptions {
    fn default() -> Self {
        // ~12 ms/MiB of captured pages at 4 KiB pages: raw page copies are
        // orders of magnitude cheaper than jmap's object-graph serialization.
        DumperOptions {
            use_no_need: true,
            use_incremental: true,
            base_us: 3_000,
            us_per_page: 45,
        }
    }
}

/// The POLM2 Dumper: incremental, no-need-filtered heap snapshots via CRIU.
///
/// See the [crate documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct CriuDumper {
    options: DumperOptions,
    seq: u32,
}

impl CriuDumper {
    /// Creates a dumper with both optimizations enabled.
    pub fn new() -> Self {
        CriuDumper {
            options: DumperOptions::default(),
            seq: 0,
        }
    }

    /// Creates a dumper with explicit options (ablation benches).
    pub fn with_options(options: DumperOptions) -> Self {
        CriuDumper { options, seq: 0 }
    }

    /// The active options.
    pub fn options(&self) -> &DumperOptions {
        &self.options
    }

    /// Number of snapshots taken so far.
    pub fn snapshots_taken(&self) -> u32 {
        self.seq
    }
}

impl Default for CriuDumper {
    fn default() -> Self {
        CriuDumper::new()
    }
}

impl HeapDumper for CriuDumper {
    fn name(&self) -> &'static str {
        "criu-dumper"
    }

    fn snapshot(&mut self, heap: &mut Heap, now: SimTime) -> Result<Snapshot, SnapshotError> {
        // Content: live-object identity hashes (snapshots run between
        // operations; no mutator stacks are live). The same live set drives
        // the no-need sweep below.
        let live = heap.mark_live(&[]);
        // Stream the content column straight off the heap: on a real-memory
        // backend the hashes come out of the object headers page by page, the
        // way CRIU reads /proc/pid/mem — no per-snapshot hash set is
        // materialized inside the capture window.
        let mut column = Vec::with_capacity(live.len());
        heap.live_hash_column(&live, &mut column);

        // The Recorder's madvise walk: mark no-need pages.
        if self.options.use_no_need {
            heap.mark_no_need_pages(&live);
        }

        // Capture cost: count pages CRIU would write.
        let page_bytes = u64::from(heap.page_table().page_bytes());
        let mut captured: u64 = 0;
        for flags in heap.page_table().iter() {
            let skip_clean = self.options.use_incremental && !flags.dirty;
            let skip_no_need = self.options.use_no_need && flags.no_need;
            if !skip_clean && !skip_no_need {
                captured += 1;
            }
        }
        // CRIU completes the dump and clears the soft-dirty bits.
        if self.options.use_incremental {
            heap.page_table_mut().clear_dirty();
        }

        let size_bytes = captured * page_bytes;
        let capture_time =
            SimDuration::from_micros(self.options.base_us + captured * self.options.us_per_page);
        let snap = Snapshot::from_sorted_column(self.seq, now, column, size_bytes, capture_time);
        self.seq += 1;
        heap.retire_live_set(live);
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::{HeapConfig, ObjectId, SiteId};

    fn heap_with_live(n: usize) -> (Heap, Vec<ObjectId>) {
        let mut heap = Heap::new(HeapConfig::small());
        let class = heap.classes_mut().intern("T");
        let slot = heap.roots_mut().create_slot("keep");
        let mut ids = Vec::new();
        for _ in 0..n {
            let id = heap
                .allocate(class, 4096, SiteId::new(0), Heap::YOUNG_SPACE)
                .unwrap();
            heap.roots_mut().push(slot, id);
            ids.push(id);
        }
        (heap, ids)
    }

    #[test]
    fn snapshot_contains_live_objects_only() {
        let (mut heap, ids) = heap_with_live(4);
        let class = heap.classes_mut().intern("T");
        let dead = heap
            .allocate(class, 64, SiteId::new(0), Heap::YOUNG_SPACE)
            .unwrap();
        let dead_hash = heap.object(dead).unwrap().identity_hash();
        let mut dumper = CriuDumper::new();
        let snap = dumper.snapshot(&mut heap, SimTime::ZERO).unwrap();
        for id in &ids {
            assert!(snap.contains(heap.object(*id).unwrap().identity_hash()));
        }
        assert!(
            !snap.contains(dead_hash),
            "unreachable objects are excluded"
        );
        assert_eq!(snap.live_objects, 4);
    }

    #[test]
    fn incremental_snapshots_shrink_when_nothing_changes() {
        let (mut heap, _ids) = heap_with_live(64);
        let mut dumper = CriuDumper::new();
        let first = dumper.snapshot(&mut heap, SimTime::ZERO).unwrap();
        let second = dumper.snapshot(&mut heap, SimTime::from_secs(1)).unwrap();
        assert!(first.size_bytes > 0);
        assert!(
            second.size_bytes < first.size_bytes / 4,
            "clean heap must produce a much smaller incremental snapshot: {} vs {}",
            second.size_bytes,
            first.size_bytes
        );
        assert!(second.capture_time < first.capture_time);
        assert_eq!(dumper.snapshots_taken(), 2);
    }

    #[test]
    fn dirty_pages_reappear_in_next_snapshot() {
        let (mut heap, ids) = heap_with_live(8);
        let mut dumper = CriuDumper::new();
        dumper.snapshot(&mut heap, SimTime::ZERO).unwrap();
        // Touch one object: its page gets dirty again.
        heap.write_field(ids[0]).unwrap();
        let third = dumper.snapshot(&mut heap, SimTime::from_secs(1)).unwrap();
        assert!(third.size_bytes >= u64::from(heap.page_table().page_bytes()));
        assert!(third.size_bytes <= 4 * u64::from(heap.page_table().page_bytes()));
    }

    #[test]
    fn no_need_filtering_skips_dead_pages() {
        // Allocate a lot of garbage (whole pages of it), keep little.
        let mut heap = Heap::new(HeapConfig::small());
        let class = heap.classes_mut().intern("T");
        let slot = heap.roots_mut().create_slot("keep");
        let keep = heap
            .allocate(class, 4096, SiteId::new(0), Heap::YOUNG_SPACE)
            .unwrap();
        heap.roots_mut().push(slot, keep);
        for _ in 0..100 {
            heap.allocate(class, 4096, SiteId::new(0), Heap::YOUNG_SPACE)
                .unwrap();
        }
        let with = CriuDumper::new()
            .snapshot(&mut heap, SimTime::ZERO)
            .unwrap()
            .size_bytes;

        // Same heap state, dumper without the no-need walk.
        let mut heap2 = Heap::new(HeapConfig::small());
        let class = heap2.classes_mut().intern("T");
        let slot = heap2.roots_mut().create_slot("keep");
        let keep = heap2
            .allocate(class, 4096, SiteId::new(0), Heap::YOUNG_SPACE)
            .unwrap();
        heap2.roots_mut().push(slot, keep);
        for _ in 0..100 {
            heap2
                .allocate(class, 4096, SiteId::new(0), Heap::YOUNG_SPACE)
                .unwrap();
        }
        let without = CriuDumper::with_options(DumperOptions {
            use_no_need: false,
            ..DumperOptions::default()
        })
        .snapshot(&mut heap2, SimTime::ZERO)
        .unwrap()
        .size_bytes;

        assert!(
            with * 10 < without,
            "no-need filtering must skip garbage pages: {with} vs {without}"
        );
    }

    #[test]
    fn field_writes_grow_incremental_snapshots_proportionally() {
        // The GraphChi pattern: vertex state is long-lived but *written*
        // every iteration, so incremental snapshots keep paying for it —
        // exactly why the paper's Figure 3 series does not collapse to zero.
        let (mut heap, ids) = heap_with_live(64);
        let mut dumper = CriuDumper::new();
        dumper.snapshot(&mut heap, SimTime::ZERO).unwrap();
        // Touch 8 objects -> ~8 pages; touch 32 -> ~32 pages.
        for &id in ids.iter().take(8) {
            heap.write_field(id).unwrap();
        }
        let small = dumper.snapshot(&mut heap, SimTime::from_secs(1)).unwrap();
        for &id in ids.iter().take(32) {
            heap.write_field(id).unwrap();
        }
        let large = dumper.snapshot(&mut heap, SimTime::from_secs(2)).unwrap();
        assert!(
            large.size_bytes >= 3 * small.size_bytes,
            "4x the dirtied pages must grow the snapshot: {} vs {}",
            large.size_bytes,
            small.size_bytes
        );
    }

    #[test]
    fn cost_scales_with_captured_bytes() {
        let (mut heap1, _) = heap_with_live(8);
        let (mut heap2, _) = heap_with_live(128);
        let a = CriuDumper::new()
            .snapshot(&mut heap1, SimTime::ZERO)
            .unwrap();
        let b = CriuDumper::new()
            .snapshot(&mut heap2, SimTime::ZERO)
            .unwrap();
        assert!(b.size_bytes > a.size_bytes);
        assert!(b.capture_time > a.capture_time);
    }
}
