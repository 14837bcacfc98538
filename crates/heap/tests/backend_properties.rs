//! Property suite for the real-memory allocators and the sim/real
//! differential contract.
//!
//! The allocator halves check the machine-level guarantees the
//! [`RealBackend`](polm2_heap::RealBackend) leans on: blocks handed out by
//! the [`FreeList`] and [`BumpArena`] are page-aligned, mutually disjoint,
//! and writable; freeing coalesces back to whole chunks; resetting a bump
//! arena rewinds without growing the footprint. The differential half
//! drives the same random mutation trace through a simulated and a
//! real-memory heap and demands bit-identical logical state after every
//! step — the equality invariant everything downstream (profiles,
//! snapshots, GcWork) rests on.

use proptest::prelude::*;

use polm2_heap::{
    BackendKind, BumpArena, EvacDecision, FreeBlock, FreeList, Heap, HeapConfig, ObjectId,
    ParallelTuning, SiteId, TlabWindow, OBJECT_HEADER_BYTES,
};

/// The heap page size the allocators serve in production.
const GRANULE: usize = 4096;

// ---------------------------------------------------------------------------
// Allocator properties
// ---------------------------------------------------------------------------

/// One step of a seeded alloc/free/realloc sequence.
#[derive(Debug, Clone)]
enum AllocOp {
    Alloc { size: usize },
    Free { idx: usize },
    Realloc { idx: usize, size: usize },
}

fn alloc_op() -> impl Strategy<Value = AllocOp> {
    prop_oneof![
        4 => (1usize..40 * 1024).prop_map(|size| AllocOp::Alloc { size }),
        2 => (0usize..64).prop_map(|idx| AllocOp::Free { idx }),
        1 => (0usize..64, 1usize..40 * 1024)
            .prop_map(|(idx, size)| AllocOp::Realloc { idx, size }),
    ]
}

/// Half-open byte range a live block occupies.
fn range_of(list: &FreeList, block: FreeBlock) -> (usize, usize) {
    let start = list.ptr(block).as_ptr() as usize;
    (start, start + block.size())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any alloc/free/realloc sequence keeps live blocks page-aligned,
    /// large enough, and pairwise disjoint, with the free list's internal
    /// invariants (non-overlap, full coalescing, class-index consistency,
    /// byte accounting) holding after every step.
    #[test]
    fn free_list_sequences_stay_aligned_and_disjoint(
        ops in proptest::collection::vec(alloc_op(), 1..160)
    ) {
        let mut list = FreeList::new(GRANULE, 8 * GRANULE);
        let mut live: Vec<FreeBlock> = Vec::new();
        for op in ops {
            match op {
                AllocOp::Alloc { size } => {
                    let block = list.alloc(size);
                    prop_assert!(block.size() >= size);
                    prop_assert_eq!(block.size() % GRANULE, 0);
                    let (start, end) = range_of(&list, block);
                    prop_assert_eq!(start % GRANULE, 0);
                    for &other in &live {
                        let (os, oe) = range_of(&list, other);
                        prop_assert!(end <= os || oe <= start, "blocks overlap");
                    }
                    live.push(block);
                }
                AllocOp::Free { idx } => {
                    if !live.is_empty() {
                        let block = live.swap_remove(idx % live.len());
                        list.free(block);
                    }
                }
                AllocOp::Realloc { idx, size } => {
                    if !live.is_empty() {
                        let block = live.swap_remove(idx % live.len());
                        list.free(block);
                        let fresh = list.alloc(size);
                        prop_assert!(fresh.size() >= size);
                        live.push(fresh);
                    }
                }
            }
            list.assert_invariants();
            prop_assert_eq!(
                list.allocated_bytes(),
                live.iter().map(|b| b.size()).sum::<usize>()
            );
        }
        for block in live.drain(..) {
            list.free(block);
        }
        list.assert_invariants();
        prop_assert_eq!(list.allocated_bytes(), 0);
    }

    /// Freeing every block of a fully-carved chunk, in any order, coalesces
    /// back to a single free block, and re-allocating the whole chunk reuses
    /// it without growing the footprint.
    #[test]
    fn free_list_coalescing_round_trips(seed in any::<u64>()) {
        const BLOCKS: usize = 16;
        let mut list = FreeList::new(GRANULE, BLOCKS * GRANULE);
        let blocks: Vec<FreeBlock> = (0..BLOCKS).map(|_| list.alloc(GRANULE)).collect();
        let footprint = list.footprint_bytes();

        // Seeded Fisher-Yates: every free order must coalesce fully.
        let mut order: Vec<usize> = (0..BLOCKS).collect();
        let mut state = seed | 1;
        for i in (1..BLOCKS).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            order.swap(i, (state as usize) % (i + 1));
        }
        for &i in &order {
            list.free(blocks[i]);
            list.assert_invariants();
        }
        // Frees are O(1) and deferred; one maintenance pass (what the
        // backend runs per GC cycle) must merge back to a single block.
        list.coalesce();
        list.assert_coalesced();
        prop_assert_eq!(list.free_block_count(), 1, "chunk did not coalesce");

        let whole = list.alloc(BLOCKS * GRANULE);
        prop_assert_eq!(list.footprint_bytes(), footprint, "coalesced chunk not reused");
        list.free(whole);
    }

    /// Bump blocks are page-aligned, pairwise disjoint, and physically
    /// independent (a byte pattern written per block survives every later
    /// allocation); resetting rewinds the cursor so the same sequence
    /// re-carves the same chunks without growing the footprint.
    #[test]
    fn bump_blocks_disjoint_and_reset_safe(
        sizes in proptest::collection::vec(1usize..24 * 1024, 1..48)
    ) {
        let mut arena = BumpArena::new(GRANULE, 8 * GRANULE);
        let blocks: Vec<_> = sizes.iter().map(|&s| arena.alloc(s)).collect();
        for (i, (&size, block)) in sizes.iter().zip(&blocks).enumerate() {
            prop_assert!(block.size() >= size);
            let start = arena.ptr(*block).as_ptr() as usize;
            prop_assert_eq!(start % GRANULE, 0);
            for other in &blocks[..i] {
                let os = arena.ptr(*other).as_ptr() as usize;
                prop_assert!(
                    start + block.size() <= os || os + other.size() <= start,
                    "bump blocks overlap"
                );
            }
            // SAFETY: the block is live and exclusively ours; the write stays
            // inside its reserved range.
            unsafe { arena.ptr(*block).as_ptr().write(i as u8) };
        }
        for (i, block) in blocks.iter().enumerate() {
            // SAFETY: reading the byte written above, still in range.
            let got = unsafe { arena.ptr(*block).as_ptr().read() };
            prop_assert_eq!(got, i as u8, "a later allocation clobbered block {}", i);
        }

        let footprint = arena.footprint_bytes();
        arena.reset();
        for &size in &sizes {
            let block = arena.alloc(size);
            // SAFETY: freshly carved block, exclusively ours.
            unsafe { arena.ptr(block).as_ptr().write(0xAB) };
        }
        prop_assert_eq!(
            arena.footprint_bytes(),
            footprint,
            "reset must rewind, not leak chunks"
        );
    }
}

// ---------------------------------------------------------------------------
// TLAB window properties
// ---------------------------------------------------------------------------

/// Splits `region_bytes` into `lanes` equal sub-ranges and returns each
/// lane's seeded (offset, size) write sequence — bump-style, never crossing
/// the lane boundary.
fn lane_writes(lane: usize, lanes: usize, region_bytes: u32, seed: u64) -> Vec<(u32, u32)> {
    let lane_bytes = region_bytes / lanes as u32;
    let start = lane as u32 * lane_bytes;
    let mut state = seed ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut cursor = start;
    let mut writes = Vec::new();
    while cursor + 8 <= start + lane_bytes {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let size =
            (OBJECT_HEADER_BYTES as u32 + (state as u32 % 256)).min(start + lane_bytes - cursor);
        if size < OBJECT_HEADER_BYTES as u32 {
            break;
        }
        writes.push((cursor, size));
        cursor += size;
    }
    writes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent windows installed over disjoint lanes of one pre-zeroed
    /// backing never write outside their lane: after all threads finish,
    /// every lane's bytes decode to exactly its own write sequence —
    /// headers intact, payloads still the zeros the backing started with
    /// (the header-only store's contract) — with refill (window exhaustion
    /// mid-lane) exercised by windows much smaller than a lane. Any
    /// overlap or stray payload store corrupts a decoded lane.
    #[test]
    fn tlab_windows_stay_disjoint_across_threads(seed in any::<u64>()) {
        const LANES: usize = 4;
        const REGION_BYTES: u32 = 256 << 10;
        const WINDOW: u32 = 8 << 10; // forces many refills per lane
        let mut backing = vec![0u8; REGION_BYTES as usize];
        let base = backing.as_mut_ptr() as usize;
        let all_writes: Vec<Vec<(u32, u32)>> = (0..LANES)
            .map(|l| lane_writes(l, LANES, REGION_BYTES, seed))
            .collect();
        std::thread::scope(|s| {
            for (lane, writes) in all_writes.iter().enumerate() {
                s.spawn(move || {
                    let base = base as *mut u8;
                    let mut w = TlabWindow::empty();
                    for &(offset, size) in writes {
                        let hash = offset ^ 0x5A5A_0000;
                        if !w.write(7, offset, size, hash) {
                            // Refill: a fresh window from the miss offset,
                            // clamped to the lane the writes stay inside.
                            let limit = (offset + WINDOW.max(size))
                                .min((lane as u32 + 1) * (REGION_BYTES / LANES as u32));
                            // SAFETY: the backing vec outlives the scope and
                            // lanes are disjoint, so no other thread's window
                            // overlaps [offset, limit).
                            unsafe { w.install(base, 7, offset, limit) };
                            assert!(w.write(7, offset, size, hash), "refit window must cover");
                        }
                    }
                });
            }
        });
        // Decode every lane: each write's header must carry its own hash
        // and size, and its payload must still be all-zero — the
        // header-only store never touches payload bytes.
        for writes in &all_writes {
            for &(offset, size) in writes {
                let hash = offset ^ 0x5A5A_0000;
                let at = offset as usize;
                let header =
                    u64::from_le_bytes(backing[at..at + 8].try_into().expect("8 bytes"));
                prop_assert_eq!(header as u32, size, "size clobbered at {}", offset);
                prop_assert_eq!((header >> 32) as u32, hash, "hash clobbered at {}", offset);
                prop_assert!(
                    backing[at + 8..at + size as usize].iter().all(|&b| b == 0),
                    "payload clobbered at {}",
                    offset
                );
            }
        }
    }

    /// Retire-then-reuse: once a window is retired, writes through it miss
    /// (the old backing is never touched again), and a window reinstalled
    /// over a different backing serves the same offsets independently.
    #[test]
    fn tlab_retire_then_reuse_never_touches_old_backing(
        offsets in proptest::collection::vec(0u32..4000, 1..24)
    ) {
        let mut old_backing = vec![0u8; 8 << 10];
        let mut new_backing = vec![0u8; 8 << 10];
        let mut w = TlabWindow::empty();
        // SAFETY: old_backing outlives the window's use of it below.
        unsafe { w.install(old_backing.as_mut_ptr(), 3, 0, old_backing.len() as u32) };
        for &off in &offsets {
            prop_assert!(w.write(3, off.min(4000), 64, 0x11), "covered write must hit");
        }
        let old_snapshot = old_backing.clone();
        w.retire();
        for &off in &offsets {
            prop_assert!(!w.write(3, off, 64, 0x22), "retired window must miss");
        }
        prop_assert_eq!(&old_backing, &old_snapshot, "retired window wrote old backing");
        // Reinstall over fresh backing, same region id (the backing of a
        // recycled region): writes land in the new block only.
        // SAFETY: new_backing outlives the window's use of it below.
        unsafe { w.install(new_backing.as_mut_ptr(), 3, 0, new_backing.len() as u32) };
        for &off in &offsets {
            prop_assert!(w.write(3, off.min(4000), 64, 0x33));
        }
        prop_assert_eq!(&old_backing, &old_snapshot, "reused window wrote old backing");
        prop_assert!(new_backing.contains(&0x33), "new backing untouched");
    }
}

// ---------------------------------------------------------------------------
// Sim-vs-real differential fuzz
// ---------------------------------------------------------------------------

/// One step of a random heap mutation trace.
#[derive(Debug, Clone)]
enum HeapOp {
    Alloc { size: u32, site: u32 },
    Root { idx: usize },
    Unroot { idx: usize },
    CollectYoung,
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        5 => (16u32..2048, 0u32..8).prop_map(|(size, site)| HeapOp::Alloc { size, site }),
        3 => (0usize..96).prop_map(|idx| HeapOp::Root { idx }),
        1 => (0usize..96).prop_map(|idx| HeapOp::Unroot { idx }),
        1 => Just(HeapOp::CollectYoung),
    ]
}

fn fnv_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Everything logically observable about a heap, folded to one hash.
fn fingerprint(heap: &Heap) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for space in heap.spaces() {
        for id in heap.objects_in_space(space.id()).expect("space exists") {
            let rec = heap.object(id).expect("listed object exists");
            h = fnv_mix(h, id.raw());
            h = fnv_mix(h, u64::from(rec.addr().region.raw()));
            h = fnv_mix(h, u64::from(rec.addr().offset));
            h = fnv_mix(h, u64::from(rec.size()));
            h = fnv_mix(h, u64::from(rec.age()));
        }
    }
    for flags in heap.page_table().iter() {
        h = fnv_mix(h, u64::from(flags.dirty) | u64::from(flags.no_need) << 1);
    }
    fnv_mix(h, u64::from(heap.free_region_count()))
}

/// A young survivor-copy collection: mark, evacuate survivors within young,
/// drop the dead — the path that exercises the backend's memcpy.
fn collect_young(heap: &mut Heap) {
    let live = heap.mark_live(&[]);
    let young = heap
        .objects_in_space(Heap::YOUNG_SPACE)
        .expect("young space");
    let ops: Vec<(ObjectId, EvacDecision)> = young
        .into_iter()
        .map(|obj| {
            let decision = if live.contains(obj) {
                EvacDecision::Move {
                    dest: Heap::YOUNG_SPACE,
                    bump_age: true,
                }
            } else {
                EvacDecision::Drop
            };
            (obj, decision)
        })
        .collect();
    heap.begin_evacuation(Heap::YOUNG_SPACE)
        .expect("begin evacuation");
    heap.evacuate_batch(&ops).expect("evacuate");
    heap.finish_evacuation().expect("finish evacuation");
}

/// Drives one mutation trace through a sim and a real heap in lockstep and
/// asserts bit-identical logical state throughout. With `parallel_4w`, both
/// heaps run every safepoint phase through the forced parallel paths
/// ([`ParallelTuning::force`]) at 4 workers — including the partitioned
/// evacuation copy phase — which must not move a single logical bit.
fn differential_trace(ops: &[HeapOp], parallel_4w: bool) {
    let mut sim = Heap::new(HeapConfig::small());
    // A small TLAB window (one page) forces frequent refills so the
    // window/refill/retire machinery is exercised, not just the hit path.
    let mut real = Heap::new(
        HeapConfig::small()
            .with_backend(BackendKind::Real)
            .with_tlab_bytes(4 << 10),
    );
    {
        let heaps: &mut [&mut Heap] = &mut [&mut sim, &mut real];
        if parallel_4w {
            for h in heaps.iter_mut() {
                h.set_parallel_tuning(ParallelTuning::force());
                h.set_gc_workers(4);
            }
        }
        let mut known: Vec<ObjectId> = Vec::new();
        let (class_a, class_b, slot_a, slot_b);
        {
            let init = |heap: &mut Heap| {
                let c = heap.classes_mut().intern("D");
                let s = heap.roots_mut().create_slot("diff");
                (c, s)
            };
            let (ca, sa) = init(heaps[0]);
            let (cb, sb) = init(heaps[1]);
            class_a = ca;
            class_b = cb;
            slot_a = sa;
            slot_b = sb;
        }
        prop_assert_eq!(class_a, class_b);
        prop_assert_eq!(slot_a, slot_b);

        for op in ops.iter().cloned() {
            match op {
                HeapOp::Alloc { size, site } => {
                    let a = heaps[0].allocate(class_a, size, SiteId::new(site), Heap::YOUNG_SPACE);
                    let b = heaps[1].allocate(class_b, size, SiteId::new(site), Heap::YOUNG_SPACE);
                    match (a, b) {
                        (Ok(ia), Ok(ib)) => {
                            prop_assert_eq!(ia, ib, "allocation ids diverged");
                            known.push(ia);
                        }
                        (Err(_), Err(_)) => {
                            for h in heaps.iter_mut() {
                                collect_young(h);
                            }
                        }
                        _ => prop_assert!(false, "one backend failed to allocate"),
                    }
                }
                HeapOp::Root { idx } => {
                    if let Some(&o) = known.get(idx) {
                        for h in heaps.iter_mut() {
                            if h.object(o).is_some() {
                                let slot = h.roots().find_slot("diff").expect("slot");
                                h.roots_mut().push(slot, o);
                            }
                        }
                    }
                }
                HeapOp::Unroot { idx } => {
                    if let Some(&o) = known.get(idx) {
                        for h in heaps.iter_mut() {
                            let slot = h.roots().find_slot("diff").expect("slot");
                            h.roots_mut().remove(slot, o);
                        }
                    }
                }
                HeapOp::CollectYoung => {
                    for h in heaps.iter_mut() {
                        collect_young(h);
                    }
                    prop_assert_eq!(
                        fingerprint(heaps[0]),
                        fingerprint(heaps[1]),
                        "trajectories diverged after a collection"
                    );
                }
            }
        }
        for h in heaps.iter_mut() {
            h.check_invariants();
        }
        prop_assert_eq!(fingerprint(heaps[0]), fingerprint(heaps[1]));

        // The streamed hash columns agree: real reads back the headers its
        // payload stores wrote, sim falls back to the object table.
        let live_sim = heaps[0].mark_live(&[]);
        let live_real = heaps[1].mark_live(&[]);
        let (mut col_sim, mut col_real) = (Vec::new(), Vec::new());
        heaps[0].capture_live(&live_sim, &mut col_sim, true);
        heaps[1].capture_live(&live_real, &mut col_real, true);
        prop_assert_eq!(col_sim, col_real, "snapshot columns diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The same mutation trace drives a simulated and a real-memory heap to
    /// bit-identical logical state: placement fingerprints match after every
    /// collection, and the streamed snapshot columns (read from real object
    /// headers on one side, from the object table on the other) agree.
    #[test]
    fn sim_and_real_heaps_stay_bit_identical(
        ops in proptest::collection::vec(heap_op(), 1..120)
    ) {
        differential_trace(&ops, false);
    }

    /// The same lockstep equality holds with every parallel safepoint path
    /// forced on at 4 workers — sharded mark, the partitioned evacuation
    /// copy phase, and the parallel fix-up must not move one logical bit.
    #[test]
    fn sim_and_real_heaps_stay_bit_identical_at_4_workers(
        ops in proptest::collection::vec(heap_op(), 1..120)
    ) {
        differential_trace(&ops, true);
    }
}
