//! Property-based tests: random operation sequences preserve heap
//! invariants, and every mark agrees with a brute-force reachability walk.

use std::collections::HashSet;

use proptest::prelude::*;

use polm2_heap::{
    EvacDecision, GenId, Heap, HeapConfig, HeapError, ObjectId, ParallelTuning, SiteId, SpaceId,
};

/// One randomly generated heap operation.
#[derive(Debug, Clone)]
enum Op {
    Alloc { size: u32, site: u32 },
    AddRef { from: usize, to: usize },
    RemoveRef { from: usize, to: usize },
    Root { idx: usize },
    Unroot { idx: usize },
    MarkAndSweepYoung,
    Promote { idx: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (16u32..2048, 0u32..8).prop_map(|(size, site)| Op::Alloc { size, site }),
        3 => (0usize..64, 0usize..64).prop_map(|(from, to)| Op::AddRef { from, to }),
        1 => (0usize..64, 0usize..64).prop_map(|(from, to)| Op::RemoveRef { from, to }),
        2 => (0usize..64).prop_map(|idx| Op::Root { idx }),
        1 => (0usize..64).prop_map(|idx| Op::Unroot { idx }),
        1 => Just(Op::MarkAndSweepYoung),
        1 => (0usize..64).prop_map(|idx| Op::Promote { idx }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever sequence of operations runs, the heap's internal invariants
    /// hold, accounting stays consistent, and full and young marks agree
    /// with the brute-force walk — on the serial mark and on the sharded
    /// mark at two workers.
    #[test]
    fn random_ops_preserve_invariants(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        drive(&ops, 1);
        drive(&ops, 2);
    }

    /// Marking is idempotent: two consecutive marks see the same live set.
    #[test]
    fn marking_is_idempotent(sizes in proptest::collection::vec(16u32..512, 1..40), root_mask in any::<u64>()) {
        let mut heap = Heap::new(HeapConfig::small());
        let class = heap.classes_mut().intern("P");
        let slot = heap.roots_mut().create_slot("prop");
        let mut ids = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let id = heap.allocate(class, *size, SiteId::new(0), Heap::YOUNG_SPACE).unwrap();
            if root_mask & (1 << (i % 64)) != 0 {
                heap.roots_mut().push(slot, id);
            }
            ids.push(id);
        }
        let first = heap.mark_live(&[]);
        let second = heap.mark_live(&[]);
        prop_assert_eq!(first.len(), second.len());
        prop_assert_eq!(first.live_bytes(), second.live_bytes());
        for id in ids {
            prop_assert_eq!(first.contains(id), second.contains(id));
        }
    }

    /// Relocation preserves identity: id, hash, size, and edges survive a move.
    #[test]
    fn relocation_preserves_identity(size in 16u32..4096, nrefs in 0usize..8) {
        let mut heap = Heap::new(HeapConfig::small());
        let class = heap.classes_mut().intern("P");
        let old = heap.create_space(GenId::new(1), None);
        let obj = heap.allocate(class, size, SiteId::new(1), Heap::YOUNG_SPACE).unwrap();
        let mut children = Vec::new();
        for _ in 0..nrefs {
            let c = heap.allocate(class, 32, SiteId::new(2), Heap::YOUNG_SPACE).unwrap();
            heap.add_ref(obj, c).unwrap();
            children.push(c);
        }
        let before = heap.object(obj).unwrap().clone();
        let op = EvacDecision::Move { dest: old, bump_age: false };
        heap.evacuate_batch(&[(obj, op)]).unwrap();
        let after = heap.object(obj).unwrap();
        prop_assert_eq!(after.id(), before.id());
        prop_assert_eq!(after.identity_hash(), before.identity_hash());
        prop_assert_eq!(after.size(), before.size());
        prop_assert_eq!(after.refs(), before.refs());
        prop_assert_eq!(after.space(), old);
        heap.check_invariants();
    }
}

/// Replays `ops` on a fresh heap whose marks run on `workers` GC workers
/// (above one, the sharded mark and fix-up are forced on whatever the
/// host's core count). After every op it checks the heap invariants, the
/// accounting, and the marks against the brute-force walk.
fn drive(ops: &[Op], workers: usize) {
    let mut heap = Heap::new(HeapConfig::small());
    if workers > 1 {
        heap.set_parallel_tuning(ParallelTuning::force());
    }
    heap.set_gc_workers(workers);
    let class = heap.classes_mut().intern("P");
    let old = heap.create_space(GenId::new(1), None);
    let slot = heap.roots_mut().create_slot("prop");
    let mut known: Vec<ObjectId> = Vec::new();

    for op in ops {
        match *op {
            Op::Alloc { size, site } => {
                match heap.allocate(class, size, SiteId::new(site), Heap::YOUNG_SPACE) {
                    Ok(id) => known.push(id),
                    Err(HeapError::SpaceFull { .. }) | Err(HeapError::OutOfRegions { .. }) => {
                        // Young full: collect everything unreachable.
                        collect_young(&mut heap, &mut known);
                    }
                    Err(e) => panic!("unexpected allocation error: {e}"),
                }
            }
            Op::AddRef { from, to } => {
                if let (Some(f), Some(t)) = (pick(&known, from), pick(&known, to)) {
                    if heap.object(f).is_some() && heap.object(t).is_some() {
                        heap.add_ref(f, t).unwrap();
                    }
                }
            }
            Op::RemoveRef { from, to } => {
                if let (Some(f), Some(t)) = (pick(&known, from), pick(&known, to)) {
                    if heap.object(f).is_some() {
                        let _ = heap.remove_ref(f, t);
                    }
                }
            }
            Op::Root { idx } => {
                if let Some(o) = pick(&known, idx) {
                    if heap.object(o).is_some() {
                        heap.roots_mut().push(slot, o);
                    }
                }
            }
            Op::Unroot { idx } => {
                if let Some(o) = pick(&known, idx) {
                    heap.roots_mut().remove(slot, o);
                }
            }
            Op::MarkAndSweepYoung => collect_young(&mut heap, &mut known),
            Op::Promote { idx } => {
                if let Some(o) = pick(&known, idx) {
                    if heap.object(o).map(|r| r.space()) == Some(Heap::YOUNG_SPACE) {
                        promote(&mut heap, o, old);
                    }
                }
            }
        }
        heap.check_invariants();

        let stats = heap.stats();
        assert!(stats.freed_objects <= stats.allocated_objects);
        assert!(stats.freed_bytes <= stats.allocated_bytes);
        assert_eq!(stats.live_objects(), heap.object_count() as u64);
        assert!(heap.committed_bytes() <= heap.config().total_bytes);

        // The newest allocation stands in for a mutator stack root.
        let stack: Vec<ObjectId> = known.last().copied().into_iter().collect();
        check_marks_against_walk(&mut heap, &stack);
    }
}

/// The known object an op's index names; indices wrap, so every op acts
/// once anything has been allocated.
fn pick(known: &[ObjectId], idx: usize) -> Option<ObjectId> {
    (!known.is_empty()).then(|| known[idx % known.len()])
}

/// Promotes one young object into `old` and remembers its young children,
/// as a collector's promotion does: those edges become old->young without
/// passing through the `add_ref` write barrier. Promotion can fail if the
/// pool is exhausted; that is a legal outcome, not an invariant violation.
fn promote(heap: &mut Heap, obj: ObjectId, old: SpaceId) {
    let op = EvacDecision::Move {
        dest: old,
        bump_age: false,
    };
    if heap.evacuate_batch(&[(obj, op)]).is_ok() {
        let children = heap.object(obj).expect("promoted").refs().to_vec();
        for child in children {
            heap.remember_if_young(child);
        }
    }
}

/// Everything reachable from the root table plus `stack`, by a plain walk
/// over the public object table. Never calls a mark routine.
fn walk(heap: &Heap, stack: &[ObjectId]) -> HashSet<ObjectId> {
    let mut seen = HashSet::new();
    let mut todo: Vec<ObjectId> = heap.roots().iter().chain(stack.iter().copied()).collect();
    while let Some(id) = todo.pop() {
        if let Some(rec) = heap.object(id) {
            if seen.insert(id) {
                todo.extend_from_slice(rec.refs());
            }
        }
    }
    seen
}

/// Checks a full mark, the hash column and no-need pages captured from it,
/// and a young mark against [`walk`].
fn check_marks_against_walk(heap: &mut Heap, stack: &[ObjectId]) {
    let reached = walk(heap, stack);

    // A full mark is exactly the walk: membership, bytes, per-region bytes.
    let full = heap.mark_live(stack);
    let marked: HashSet<ObjectId> = full.iter().collect();
    assert_eq!(marked, reached, "full mark differs from the walk");
    let size = |id: &ObjectId| u64::from(heap.object(*id).expect("reached").size());
    assert_eq!(full.live_bytes(), reached.iter().map(size).sum::<u64>());
    for region in heap.regions().iter().filter(|r| r.space().is_some()) {
        let want: u64 = reached
            .iter()
            .filter(|id| heap.object(**id).expect("reached").addr().region == region.id())
            .map(size)
            .sum();
        assert_eq!(
            u64::from(region.live_bytes()),
            want,
            "live bytes of {}",
            region.id()
        );
    }

    // The capture walk streams exactly the reached objects' hashes, and sets
    // the no-need bit exactly on assigned pages no reached object overlaps.
    let mut column = Vec::new();
    heap.capture_live(&full, &mut column, true);
    heap.retire_live_set(full);
    let mut hashes: Vec<u64> = reached
        .iter()
        .map(|id| u64::from(heap.object(*id).expect("reached").identity_hash().raw()))
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(column, hashes, "captured hash column");
    let mut overlapped = HashSet::new();
    for id in &reached {
        let rec = heap.object(*id).expect("reached");
        let (first, last) = heap.page_table().pages_of(rec.addr(), rec.size());
        overlapped.extend(first..=last);
    }
    let pages_per_region = heap.config().pages_per_region();
    for region in heap.regions().iter().filter(|r| r.space().is_some()) {
        let first = region.first_page().raw();
        for page in first..first + pages_per_region {
            assert_eq!(
                heap.page_table().flags_of(page).no_need,
                !overlapped.contains(&page),
                "no-need bit of page {page}"
            );
        }
    }

    // A young mark covers every young object the walk reaches (more is
    // allowed: remembered entries are conservative) and nothing else.
    let young = heap.mark_live_young(stack);
    for id in &reached {
        if heap.object(*id).expect("reached").space() == Heap::YOUNG_SPACE {
            assert!(young.contains(*id), "young mark missed {id}");
        }
    }
    for id in young.iter() {
        let space = heap.object(id).map(|r| r.space());
        assert_eq!(space, Some(Heap::YOUNG_SPACE), "young mark holds {id}");
    }
    heap.retire_live_set(young);
}

/// Minimal young collection for the property tests: mark, evacuate nothing,
/// drop dead young objects, release empty young regions.
fn collect_young(heap: &mut Heap, known: &mut Vec<ObjectId>) {
    let live = heap.mark_live(&[]);
    let dead: Vec<(ObjectId, EvacDecision)> = heap
        .objects_in_space(Heap::YOUNG_SPACE)
        .unwrap()
        .into_iter()
        .filter(|&obj| !live.contains(obj))
        .map(|obj| (obj, EvacDecision::Drop))
        .collect();
    heap.evacuate_batch(&dead).unwrap();
    let regions: Vec<_> = heap
        .space(Heap::YOUNG_SPACE)
        .unwrap()
        .regions()
        .iter()
        .copied()
        .filter(|&r| heap.region(r).objects().is_empty())
        .collect();
    for r in regions {
        heap.release_region(r).unwrap();
    }
    known.retain(|&o| heap.object(o).is_some());
}
