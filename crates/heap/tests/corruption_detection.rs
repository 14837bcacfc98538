//! Property suite for the heap-integrity verifier's detection contract.
//!
//! Two halves, mirroring the verifier's promise:
//!
//! * **no false positives** — an uncorrupted heap, whatever alloc/drop
//!   trace produced it, always verifies clean;
//! * **no false negatives** — every corruption class the chaos arm can
//!   plant (bit flip, header clobber, stray write into free memory), in
//!   either the young or a tenured space, is detected by a verify pass, and
//!   the reported invariant is one the planted class is documented to trip
//!   ([`CorruptionKind::detectable_by`]).
//!
//! Detection is always a typed [`HeapError::IntegrityViolation`] — a plant
//! that panicked the verifier would fail these tests just as hard as one it
//! missed.

use proptest::prelude::*;

use polm2_heap::{
    BackendKind, CorruptionKind, EvacDecision, GenId, Heap, HeapConfig, HeapError, ObjectId, SiteId,
};

/// One step of a seeded alloc/drop trace.
#[derive(Debug, Clone)]
enum Op {
    AllocYoung { size: u32 },
    AllocTenured { size: u32 },
    Drop { idx: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (16u32..1024).prop_map(|size| Op::AllocYoung { size }),
        2 => (16u32..1024).prop_map(|size| Op::AllocTenured { size }),
        2 => (0usize..64).prop_map(|idx| Op::Drop { idx }),
    ]
}

/// Replays `ops` onto a fresh real-backend heap. Deterministic: the same
/// trace always yields the same heap, so the detection property can rebuild
/// an identical victim for each corruption class.
fn build_heap(ops: &[Op]) -> Heap {
    let mut heap = Heap::new(HeapConfig::small().with_backend(BackendKind::Real));
    let class = heap.classes_mut().intern("C");
    let tenured = heap.create_space(GenId::new(1), None);
    let mut live: Vec<ObjectId> = Vec::new();
    for op in ops {
        match op {
            Op::AllocYoung { size } => {
                if let Ok(id) = heap.allocate(class, *size, SiteId::new(0), Heap::YOUNG_SPACE) {
                    live.push(id);
                }
            }
            Op::AllocTenured { size } => {
                if let Ok(id) = heap.allocate(class, *size, SiteId::new(1), tenured) {
                    live.push(id);
                }
            }
            Op::Drop { idx } => {
                if !live.is_empty() {
                    let id = live.swap_remove(idx % live.len());
                    heap.evacuate_batch(&[(id, EvacDecision::Drop)]).unwrap();
                }
            }
        }
    }
    // Anchors: every corruption class needs at least one header-bearing
    // live object, and the partially filled regions they land in give the
    // stray-write class its beyond-cursor target.
    heap.allocate(class, 64, SiteId::new(0), Heap::YOUNG_SPACE)
        .unwrap();
    heap.allocate(class, 64, SiteId::new(1), tenured).unwrap();
    heap
}

/// Plants `kind` with `seed` and asserts the next verify pass reports a
/// typed violation of one of the invariants that class is documented to
/// trip.
fn assert_detected(heap: &mut Heap, kind: CorruptionKind, seed: u64) {
    let planted = heap
        .plant_corruption(kind, seed)
        .unwrap_or_else(|| panic!("no plant target for {}", kind.label()));
    match heap.verify_integrity() {
        Err(HeapError::IntegrityViolation { invariant, detail }) => assert!(
            kind.detectable_by().contains(&invariant),
            "{} ({}) was flagged as {invariant:?} ({detail}), expected one of {:?}",
            kind.label(),
            planted.detail,
            kind.detectable_by()
        ),
        Err(other) => panic!(
            "{} surfaced as a non-integrity error: {other}",
            kind.label()
        ),
        Ok(()) => panic!(
            "verifier passed a corrupted heap: {} ({})",
            kind.label(),
            planted.detail
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An uncorrupted heap never trips the verifier, whatever trace built
    /// it — the zero-false-positive half of the contract.
    #[test]
    fn clean_heaps_always_verify(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let mut heap = build_heap(&ops);
        let passes_before = heap.verify_passes();
        heap.verify_integrity().expect("clean heap must verify");
        prop_assert_eq!(heap.verify_passes(), passes_before + 1);
    }

    /// Every corruption class is detected on every trace — the
    /// zero-false-negative half. Each class gets its own identically
    /// rebuilt victim so one plant cannot mask another.
    #[test]
    fn every_corruption_class_is_detected(
        ops in proptest::collection::vec(op_strategy(), 0..120),
        seed in any::<u64>(),
    ) {
        for kind in CorruptionKind::ALL {
            let mut heap = build_heap(&ops);
            assert_detected(&mut heap, kind, seed);
        }
    }
}

/// The full class × space matrix, deterministically: heaps populated only
/// in the young (resp. a tenured) space still yield a plant target for
/// every class, and every plant is caught.
#[test]
fn detection_matrix_covers_young_and_tenured_spaces() {
    for tenured_only in [false, true] {
        for kind in CorruptionKind::ALL {
            for seed in 0..16u64 {
                let mut heap = Heap::new(HeapConfig::small().with_backend(BackendKind::Real));
                let class = heap.classes_mut().intern("M");
                let space = if tenured_only {
                    heap.create_space(GenId::new(1), None)
                } else {
                    Heap::YOUNG_SPACE
                };
                for i in 0..24u32 {
                    heap.allocate(class, 32 + i * 8, SiteId::new(0), space)
                        .unwrap();
                }
                let planted = heap.plant_corruption(kind, seed).unwrap_or_else(|| {
                    panic!("no {} target (tenured={tenured_only})", kind.label())
                });
                match heap.verify_integrity() {
                    Err(HeapError::IntegrityViolation { invariant, .. }) => assert!(
                        kind.detectable_by().contains(&invariant),
                        "{} flagged as {invariant:?} (tenured={tenured_only})",
                        kind.label()
                    ),
                    other => panic!(
                        "{} (seed {seed}, tenured={tenured_only}, {}) not detected: {other:?}",
                        kind.label(),
                        planted.detail
                    ),
                }
            }
        }
    }
}

/// A verify pass is read-only: verifying twice in a row (clean heap) gives
/// the same answer, and only the pass counter moves.
#[test]
fn verification_is_read_only() {
    let mut heap = Heap::new(HeapConfig::small().with_backend(BackendKind::Real));
    let class = heap.classes_mut().intern("R");
    for i in 0..16u32 {
        heap.allocate(class, 24 + i, SiteId::new(0), Heap::YOUNG_SPACE)
            .unwrap();
    }
    let stats_before = heap.stats();
    heap.verify_integrity().unwrap();
    heap.verify_integrity().unwrap();
    assert_eq!(
        heap.stats(),
        stats_before,
        "stats untouched by verification"
    );
    assert_eq!(heap.verify_passes(), 2);
}
