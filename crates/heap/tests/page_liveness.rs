//! Incremental page-occupancy bookkeeping vs from-scratch recomputation.
//!
//! The heap maintains exact per-page object-overlap counts incrementally
//! (updated at allocate time and by every evacuation move or drop). These
//! tests drive allocate/move/drop/evacuate/release sequences and compare the
//! counts, and the no-need bits a fresh mark derives, against
//! recomputations from the object records.

use polm2_heap::{EvacDecision, GenId, Heap, HeapConfig, ObjectId, SiteId, SpaceId};

/// Moves one object into `dest` as a one-op evacuation batch.
fn move_to(heap: &mut Heap, obj: ObjectId, dest: SpaceId) {
    let op = EvacDecision::Move {
        dest,
        bump_age: false,
    };
    heap.evacuate_batch(&[(obj, op)]).unwrap();
}

/// Drops one object as a one-op evacuation batch.
fn drop_one(heap: &mut Heap, obj: ObjectId) {
    heap.evacuate_batch(&[(obj, EvacDecision::Drop)]).unwrap();
}

/// Recomputes per-page object counts from every live record.
fn recount_pages(heap: &Heap) -> Vec<u32> {
    let mut counts = vec![0u32; heap.page_table().page_count() as usize];
    for space in heap.spaces() {
        let space_id = space.id();
        for obj in heap.objects_in_space(space_id).unwrap() {
            let rec = heap.object(obj).unwrap();
            let (first, last) = heap.page_table().pages_of(rec.addr(), rec.size());
            for page in first..=last {
                counts[page as usize] += 1;
            }
        }
    }
    counts
}

fn assert_counts_match(heap: &Heap, context: &str) {
    let expected = recount_pages(heap);
    for (page, &want) in expected.iter().enumerate() {
        assert_eq!(
            heap.page_object_count(page as u32),
            want,
            "page {page} occupancy diverged after {context}"
        );
    }
}

fn seeded_heap() -> (Heap, SpaceId, Vec<ObjectId>) {
    let mut heap = Heap::new(HeapConfig::small());
    let class = heap.classes_mut().intern("T");
    let old = heap.create_space(GenId::new(1), None);
    let slot = heap.roots_mut().create_slot("keep");
    let mut ids = Vec::new();
    // Mixed sizes: sub-page, page-straddling, and multi-page objects.
    for i in 0..48u32 {
        let size = match i % 3 {
            0 => 1_024,
            1 => 4_096,
            _ => 9_000,
        };
        let id = heap
            .allocate(class, size, SiteId::new(i % 5), Heap::YOUNG_SPACE)
            .unwrap();
        if i % 2 == 0 {
            heap.roots_mut().push(slot, id);
        }
        ids.push(id);
    }
    (heap, old, ids)
}

#[test]
fn counts_track_allocate_move_drop() {
    let (mut heap, old, ids) = seeded_heap();
    assert_counts_match(&heap, "allocation");

    for &id in ids.iter().step_by(4) {
        move_to(&mut heap, id, old);
        assert_counts_match(&heap, "move");
    }
    for &id in ids.iter().skip(1).step_by(4) {
        drop_one(&mut heap, id);
        assert_counts_match(&heap, "drop");
    }
    heap.check_invariants();
}

#[test]
fn counts_track_evacuation_and_region_release() {
    let (mut heap, old, _ids) = seeded_heap();
    // Evacuate young: drop the dead, move survivors out, then release the
    // emptied regions — the full region lifecycle in one sweep.
    let live = heap.mark_live(&[]);
    let young = heap.objects_in_space(Heap::YOUNG_SPACE).unwrap();
    let sources = heap.begin_evacuation(Heap::YOUNG_SPACE).unwrap();
    for obj in young {
        if live.contains(obj) {
            move_to(&mut heap, obj, old);
        } else {
            drop_one(&mut heap, obj);
        }
    }
    // finish_evacuation releases the emptied sources via `release_region`,
    // which re-verifies emptiness with the incremental counters.
    heap.finish_evacuation().unwrap();
    assert_counts_match(&heap, "evacuation + release");

    for region in sources {
        assert!(
            heap.live_objects_in_region(region).is_empty(),
            "evacuation must empty its source regions"
        );
        let first = heap.region(region).first_page().raw();
        for page in first..first + heap.config().pages_per_region() {
            assert_eq!(heap.page_object_count(page), 0, "freed page occupied");
            assert!(
                heap.page_table().flags_of(page).no_need,
                "freed pages must be no-need until reallocated"
            );
        }
    }
    heap.check_invariants();
}

#[test]
fn relocation_moves_page_occupancy_not_liveness_semantics() {
    let mut heap = Heap::new(HeapConfig::small());
    let class = heap.classes_mut().intern("T");
    let old = heap.create_space(GenId::new(1), None);
    let slot = heap.roots_mut().create_slot("keep");
    let obj = heap
        .allocate(class, 4_096, SiteId::new(0), Heap::YOUNG_SPACE)
        .unwrap();
    heap.roots_mut().push(slot, obj);

    let rec = heap.object(obj).unwrap();
    let (src_first, src_last) = heap.page_table().pages_of(rec.addr(), rec.size());
    move_to(&mut heap, obj, old);
    let rec = heap.object(obj).unwrap();
    let (dst_first, dst_last) = heap.page_table().pages_of(rec.addr(), rec.size());
    assert_ne!(src_first, dst_first, "relocation must change pages");

    for page in src_first..=src_last {
        assert_eq!(heap.page_object_count(page), 0, "source page not vacated");
    }
    for page in dst_first..=dst_last {
        assert_eq!(heap.page_object_count(page), 1, "dest page not occupied");
    }

    // A fresh mark sweeps the vacated source pages as no-need and keeps
    // the destination pages.
    let live = heap.mark_live(&[]);
    heap.mark_no_need_pages(&live);
    assert!(heap.page_table().flags_of(src_first).no_need);
    assert!(!heap.page_table().flags_of(dst_first).no_need);
}
