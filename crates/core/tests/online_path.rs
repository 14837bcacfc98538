//! An independent oracle for the Dumper (paper §3.2): GC → capture cycles
//! under every kind of heap mutation, each capture checked against a
//! brute-force reachability walk that never calls `mark_live` — its hash
//! column, its live-object count, and the no-need bit of every assigned
//! page.

use std::collections::{HashSet, VecDeque};

use polm2_gc::{
    AllocRequest, C4Collector, Collector, G1Collector, GcConfig, Ng2cCollector, SafepointRoots,
    ThreadId,
};
use polm2_heap::{BackendKind, EvacDecision, Heap, HeapConfig, ObjectId, SiteId};
use polm2_metrics::SimTime;
use polm2_snapshot::{CriuDumper, HeapDumper, Snapshot};

fn request(heap: &mut Heap, size: u32, site: u32) -> AllocRequest {
    AllocRequest {
        class: heap.classes_mut().intern("T"),
        size,
        site: SiteId::new(site),
        pretenure: false,
        thread: ThreadId::new(0),
    }
}

/// Churns allocations through the collector: every fourth object is rooted
/// (survivors that tenure), the rest die young.
fn churn(heap: &mut Heap, gc: &mut dyn Collector, objects: u32) -> Vec<ObjectId> {
    let slot = heap.roots_mut().create_slot("survivors");
    let mut kept = Vec::new();
    for i in 0..objects {
        let req = request(heap, 2_048 + (i % 7) * 512, i % 4);
        let out = gc
            .alloc(heap, req, &SafepointRoots::none())
            .expect("allocation");
        if i % 4 == 0 {
            heap.roots_mut().push(slot, out.object);
            kept.push(out.object);
        }
    }
    kept
}

/// Allocates one unrooted object. The caller must make it reachable before
/// the next allocation, which may collect.
fn alloc_one(heap: &mut Heap, gc: &mut dyn Collector, size: u32) -> ObjectId {
    let req = request(heap, size, 5);
    gc.alloc(heap, req, &SafepointRoots::none())
        .expect("allocation")
        .object
}

/// Everything reachable from the root table, by breadth-first search over
/// the object table.
fn reachable(heap: &Heap) -> HashSet<ObjectId> {
    let mut seen = HashSet::new();
    let mut queue: VecDeque<ObjectId> = heap.roots().iter().collect();
    while let Some(id) = queue.pop_front() {
        if let Some(rec) = heap.object(id) {
            if seen.insert(id) {
                queue.extend(rec.refs().iter().copied());
            }
        }
    }
    seen
}

fn assert_capture_matches_walk(heap: &Heap, snap: &Snapshot, context: &str) {
    let live = reachable(heap);
    assert!(
        !live.is_empty(),
        "{context}: the workload keeps objects live"
    );

    let mut hashes: Vec<u64> = live
        .iter()
        .map(|&id| u64::from(heap.object(id).expect("live").identity_hash().raw()))
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(snap.sorted_hashes(), &hashes[..], "{context}: hash column");
    assert_eq!(
        snap.live_objects,
        live.len() as u64,
        "{context}: live count"
    );

    let mut live_pages = HashSet::new();
    for &id in &live {
        let rec = heap.object(id).expect("live");
        let (first, last) = heap.page_table().pages_of(rec.addr(), rec.size());
        live_pages.extend(first..=last);
    }
    let per_region = heap.config().pages_per_region();
    let (mut need, mut no_need) = (0, 0);
    for region in heap.regions().iter().filter(|r| r.space().is_some()) {
        let first = region.first_page().raw();
        for page in first..first + per_region {
            let flagged = heap.page_table().flags_of(page).no_need;
            assert_eq!(
                flagged,
                !live_pages.contains(&page),
                "{context}: no-need bit of page {page}"
            );
            if flagged {
                no_need += 1;
            } else {
                need += 1;
            }
        }
    }
    assert!(
        need > 0 && no_need > 0,
        "{context}: assigned regions hold both live and dead pages ({need}/{no_need})"
    );
}

/// Objects one cycle's mutations wired up, undone by the next cycle's.
struct Wiring {
    parent: ObjectId,
    head: ObjectId,
    extra: ObjectId,
    unrooted: ObjectId,
}

/// Applies every mutation kind: allocate, `add_ref`, `remove_ref`, root
/// push, root remove and a one-op `evacuate_batch` drop.
fn mutate(heap: &mut Heap, gc: &mut dyn Collector, prev: Option<&Wiring>) -> Wiring {
    // Allocate: more rooted survivors plus short-lived garbage.
    let kept = churn(heap, gc, 40);
    // add_ref: a two-object chain reachable only through edges.
    let head = alloc_one(heap, gc, 3_000);
    heap.add_ref(kept[0], head).expect("edge");
    let tail = alloc_one(heap, gc, 6_000);
    heap.add_ref(head, tail).expect("edge");
    // Root push: an object rooted in a second slot.
    let extra = alloc_one(heap, gc, 1_500);
    let extra_slot = heap.roots_mut().create_slot("extra");
    heap.roots_mut().push(extra_slot, extra);

    if let Some(prev) = prev {
        // remove_ref: the previous chain becomes garbage...
        assert!(heap.remove_ref(prev.parent, prev.head).expect("edge"));
        // ...and a drop frees its head, which nothing references now.
        assert!(!reachable(heap).contains(&prev.head), "head is unreachable");
        heap.evacuate_batch(&[(prev.head, EvacDecision::Drop)])
            .expect("dropped");
        // Root remove, in both slots.
        assert!(heap.roots_mut().remove(extra_slot, prev.extra));
        let survivors = heap.roots().find_slot("survivors").expect("slot");
        assert!(heap.roots_mut().remove(survivors, prev.unrooted));
    }
    Wiring {
        parent: kept[0],
        head,
        extra,
        unrooted: kept[1],
    }
}

/// Six GC → capture cycles; the mutations land after each collection, so
/// every capture sees a heap the collector's own mark no longer describes.
fn captures_match_walk(make: &dyn Fn() -> Box<dyn Collector>) {
    for backend in [BackendKind::Sim, BackendKind::Real] {
        let mut heap = Heap::new(HeapConfig {
            backend,
            ..HeapConfig::small()
        });
        let mut gc = make();
        gc.attach(&mut heap);
        let mut dumper = CriuDumper::new();
        churn(&mut heap, gc.as_mut(), 400);
        let mut wiring = None;
        for cycle in 0..6u64 {
            gc.collect(&mut heap, &SafepointRoots::none());
            wiring = Some(mutate(&mut heap, gc.as_mut(), wiring.as_ref()));
            let snap = dumper
                .snapshot(&mut heap, SimTime::from_secs(cycle))
                .expect("snapshot");
            let context = format!("{} {backend} cycle {cycle}", gc.name());
            assert_capture_matches_walk(&heap, &snap, &context);
        }
    }
}

#[test]
fn g1_captures_match_a_brute_force_walk() {
    captures_match_walk(&|| Box::new(G1Collector::new(GcConfig::default())));
}

#[test]
fn ng2c_captures_match_a_brute_force_walk() {
    captures_match_walk(&|| Box::new(Ng2cCollector::new(GcConfig::default())));
}

#[test]
fn c4_captures_match_a_brute_force_walk() {
    captures_match_walk(&|| Box::new(C4Collector::new(GcConfig::default())));
}
