//! Scenario tests for the collectors' G1-style machinery: concurrent-style
//! mark cycles (floating garbage), bounded collection sets, and the
//! interplay of young/mixed/full collections over longer operation
//! sequences.

use polm2_gc::{
    AllocRequest, C4Collector, Collector, G1Collector, GcConfig, GcError, GcKind, Ng2cCollector,
    PauseEvent, SafepointRoots, ThreadId,
};
use polm2_heap::{BackendKind, GenId, Heap, HeapConfig, ObjectId, SiteId, VerifyMode};

fn req(heap: &mut Heap, size: u32, pretenure: bool) -> AllocRequest {
    AllocRequest {
        class: heap.classes_mut().intern("T"),
        size,
        site: SiteId::new(0),
        pretenure,
        thread: ThreadId::new(0),
    }
}

/// Churn `n` objects, rooting every `keep_every`-th in `slot`.
fn churn(
    heap: &mut Heap,
    gc: &mut dyn Collector,
    n: usize,
    keep_every: usize,
    slot: &str,
) -> Vec<ObjectId> {
    let slot = heap.roots_mut().create_slot(slot);
    let mut kept = Vec::new();
    for i in 0..n {
        let r = req(heap, 2048, false);
        let out = gc.alloc(heap, r, &SafepointRoots::none()).expect("alloc");
        if keep_every > 0 && i % keep_every == 0 {
            heap.roots_mut().push(slot, out.object);
            kept.push(out.object);
        }
    }
    kept
}

#[test]
fn floating_garbage_is_reclaimed_within_a_mark_cycle_refresh() {
    let mut heap = Heap::new(HeapConfig::paper_scaled());
    // A lower mixed trigger keeps reclamation active at this test's modest
    // occupancy.
    let mut gc = G1Collector::new(GcConfig {
        mixed_trigger_fraction: 0.25,
        ..GcConfig::default()
    });
    gc.attach(&mut heap);
    // Promote a large rooted cohort into old space.
    // Enough rooted mass (~120 MiB promoted) that old-space occupancy keeps
    // the mixed trigger armed after the cohort dies.
    let kept = churn(&mut heap, &mut gc, 120_000, 2, "cohort");
    let missing = kept.iter().filter(|&&o| heap.object(o).is_none()).count();
    assert_eq!(
        missing,
        0,
        "rooted objects vanished during churn: {missing} of {}",
        kept.len()
    );
    let live_before = heap.object_count();
    // Kill the cohort: it is now floating garbage w.r.t. any cached mark.
    let slot = heap.roots_mut().find_slot("cohort").unwrap();
    heap.roots_mut().clear_slot(slot);
    drop(kept);
    // Keep allocating: mixed pauses must eventually refresh the mark cycle
    // and drain the dead cohort.
    churn(&mut heap, &mut gc, 120_000, 0, "none");
    assert!(
        heap.object_count() < live_before / 4,
        "dead cohort must drain: {} live of {live_before} before",
        heap.object_count()
    );
    heap.check_invariants();
}

#[test]
fn mixed_pauses_respect_the_collection_set_bound() {
    let config = GcConfig {
        max_compact_regions_per_pause: 8,
        mixed_trigger_fraction: 0.25,
        ..GcConfig::default()
    };
    let region_bytes = HeapConfig::paper_scaled().region_bytes;
    let mut heap = Heap::new(HeapConfig::paper_scaled());
    let mut gc = G1Collector::new(config);
    gc.attach(&mut heap);
    let slot = heap.roots_mut().create_slot("keep");
    let mut events = Vec::new();
    for i in 0..200_000 {
        let r = req(&mut heap, 2048, false);
        let out = gc
            .alloc(&mut heap, r, &SafepointRoots::none())
            .expect("alloc");
        if i % 3 == 0 {
            heap.roots_mut().push(slot, out.object);
        }
        if i % 9 == 0 {
            heap.roots_mut().remove(slot, out.object);
        }
        events.extend(out.pauses);
    }
    let mixed: Vec<_> = events.iter().filter(|p| p.kind == GcKind::Mixed).collect();
    assert!(!mixed.is_empty(), "the churn must trigger mixed pauses");
    for p in &mixed {
        assert!(
            p.work.compacted_bytes <= 8 * region_bytes,
            "collection set exceeded: {} bytes compacted",
            p.work.compacted_bytes
        );
    }
}

#[test]
fn ng2c_cohort_death_is_mostly_region_frees_not_compaction() {
    let mut heap = Heap::new(HeapConfig::paper_scaled());
    let mut gc = Ng2cCollector::new(GcConfig::default());
    gc.attach(&mut heap);
    let gen = gc.new_generation(&mut heap);
    gc.set_target_gen(ThreadId::new(0), gen).unwrap();
    let slot = heap.roots_mut().create_slot("cohort");
    let mut freed_whole = 0u64;
    let mut compacted = 0u64;
    for round in 0..6 {
        // A pretenured cohort lives while young garbage churns, then dies.
        for _ in 0..8_192 {
            let r = req(&mut heap, 2048, true);
            let out = gc
                .alloc(&mut heap, r, &SafepointRoots::none())
                .expect("alloc");
            heap.roots_mut().push(slot, out.object);
        }
        for _ in 0..16_384 {
            let r = req(&mut heap, 2048, false);
            let out = gc
                .alloc(&mut heap, r, &SafepointRoots::none())
                .expect("alloc");
            for p in out.pauses {
                freed_whole += p.work.freed_regions;
                compacted += p.work.compacted_bytes;
            }
        }
        let _ = round;
        heap.roots_mut().clear_slot(slot);
    }
    assert!(
        freed_whole > 50,
        "cohort regions must be freed whole: {freed_whole}"
    );
    assert!(
        compacted < freed_whole * HeapConfig::paper_scaled().region_bytes / 4,
        "segregated cohorts should rarely need compaction: {compacted} bytes vs {freed_whole} regions"
    );
    heap.check_invariants();
}

#[test]
fn collectors_agree_on_what_is_garbage() {
    // Whatever the collector, after the workload ends and a full collection
    // runs, exactly the rooted objects survive.
    for collector in ["g1", "ng2c", "c4"] {
        let mut heap = Heap::new(HeapConfig::paper_scaled());
        let mut gc: Box<dyn Collector> = match collector {
            "g1" => Box::new(G1Collector::new(GcConfig::default())),
            "ng2c" => Box::new(Ng2cCollector::new(GcConfig::default())),
            _ => Box::new(C4Collector::new(GcConfig::default())),
        };
        gc.attach(&mut heap);
        let kept = churn(&mut heap, gc.as_mut(), 30_000, 10, "keep");
        gc.collect(&mut heap, &SafepointRoots::none());
        gc.collect(&mut heap, &SafepointRoots::none());
        assert_eq!(
            heap.object_count(),
            kept.len(),
            "{collector}: survivors must equal the rooted set"
        );
        for obj in kept {
            assert!(
                heap.object(obj).is_some(),
                "{collector}: rooted object lost"
            );
        }
        heap.check_invariants();
    }
}

#[test]
fn target_generation_survives_across_collections() {
    let mut heap = Heap::new(HeapConfig::paper_scaled());
    let mut gc = Ng2cCollector::new(GcConfig::default());
    gc.attach(&mut heap);
    let gen = gc.new_generation(&mut heap);
    gc.set_target_gen(ThreadId::new(0), gen).unwrap();
    // Enough churn to force collections between pretenured allocations.
    for i in 0..60_000 {
        let pretenure = i % 7 == 0;
        let r = req(&mut heap, 2048, pretenure);
        let out = gc
            .alloc(&mut heap, r, &SafepointRoots::none())
            .expect("alloc");
        if pretenure {
            let rec = heap.object(out.object).unwrap();
            assert_eq!(
                rec.allocated_gen(),
                gen,
                "target generation drifted at op {i}"
            );
        }
    }
    assert_eq!(gc.target_gen(ThreadId::new(0)), gen);
}

// ----------------------------------------------------------------------
// Pinned absolute trajectories
// ----------------------------------------------------------------------

/// Heap-verification mode from `POLM2_VERIFY_HEAP` (`scripts/check.sh`
/// reruns this suite with `gc`): at `gc` or `full` every safepoint that
/// collected is followed by a full integrity pass. Verification is
/// read-only, so the pinned hashes hold at every mode.
fn env_verify_mode() -> VerifyMode {
    match std::env::var("POLM2_VERIFY_HEAP").as_deref() {
        Ok("gc") => VerifyMode::Gc,
        Ok("full") => VerifyMode::Full,
        _ => VerifyMode::Off,
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn fnv_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Object placement, page flags and the free pool, folded to one hash.
fn heap_fingerprint(heap: &Heap) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for space in heap.spaces() {
        for id in heap.objects_in_space(space.id()).expect("space exists") {
            let rec = heap.object(id).expect("listed object exists");
            h = fnv_mix(h, id.raw());
            h = fnv_mix(h, u64::from(rec.addr().region.raw()));
            h = fnv_mix(h, u64::from(rec.addr().offset));
            h = fnv_mix(h, u64::from(rec.size()));
            h = fnv_mix(h, u64::from(rec.age()));
            h = fnv_mix(h, u64::from(rec.allocated_gen().raw()));
        }
    }
    for flags in heap.page_table().iter() {
        h = fnv_mix(h, u64::from(flags.dirty) | u64::from(flags.no_need) << 1);
    }
    fnv_mix(h, u64::from(heap.free_region_count()))
}

fn kind_index(kind: GcKind) -> usize {
    match kind {
        GcKind::Minor => 0,
        GcKind::Mixed => 1,
        GcKind::Full => 2,
        GcKind::ConcurrentPhase => 3,
    }
}

/// What one pinned drive did.
#[derive(Debug, Default)]
struct Trajectory {
    /// Every pause (kind, pause, every `GcWork` field), the emergency count,
    /// the OOM verdict and the final heap fingerprint, folded to one hash.
    hash: u64,
    /// Pauses taken, by [`kind_index`].
    kinds: [u64; 4],
    /// Allocations placed in each of the two generations the drive created.
    in_created_gens: [u64; 2],
    /// Allocations that found the free pool under pressure.
    pool_pressured: u64,
    emergencies: u64,
    /// The step at which allocation failed with the OOM verdict, if any.
    oom_at: Option<u64>,
}

impl Trajectory {
    fn record(&mut self, pauses: &[PauseEvent]) {
        for p in pauses {
            self.kinds[kind_index(p.kind)] += 1;
            let w = p.work;
            self.hash = [
                kind_index(p.kind) as u64,
                p.pause.as_micros(),
                w.traced_bytes,
                w.traced_objects,
                w.copied_bytes,
                w.promoted_bytes,
                w.compacted_bytes,
                w.swept_objects,
                w.freed_regions,
            ]
            .into_iter()
            .fold(self.hash, fnv_mix);
        }
    }
}

/// Pinned drives run this many allocations...
const PINNED_STEPS: u64 = 20_000;
/// ...and stop dropping the long-lived set from this step on, so occupancy
/// climbs to pool pressure (and, under a limit, to the OOM verdict).
const FLOOD_FROM: u64 = 4_000;
/// The hard commit limit of the limited drives.
const PINNED_LIMIT_BYTES: u64 = 5 << 20;

/// One seeded allocation/root/collection schedule on a 16 MiB heap with a
/// 2 MiB young generation, optionally under a hard commit limit. Every
/// collector runs the same schedule: a quarter of the allocations ask for
/// pretenuring into the thread's target generation, which cycles through
/// two created generations, the old generation and young (G1 and C4 ignore
/// both). Pretenured objects form cohorts that die together.
fn pinned_drive(collector: &str, backend: BackendKind, limit_bytes: Option<u64>) -> Trajectory {
    let verify = env_verify_mode();
    let mut config = HeapConfig {
        total_bytes: 16 << 20,
        young_bytes: 2 << 20,
        ..HeapConfig::small()
    }
    .with_backend(backend);
    if let Some(limit) = limit_bytes {
        config = config.with_limit_bytes(limit);
    }
    let mut heap = Heap::new(config);
    let gc_config = GcConfig {
        mixed_trigger_fraction: 0.3,
        ..GcConfig::default()
    };
    let mut gc: Box<dyn Collector> = match collector {
        "g1" => Box::new(G1Collector::new(gc_config)),
        "ng2c" => Box::new(Ng2cCollector::new(gc_config)),
        _ => Box::new(C4Collector::new(gc_config)),
    };
    gc.attach(&mut heap);
    let created = [gc.new_generation(&mut heap), gc.new_generation(&mut heap)];
    let targets = [created[0], created[1], GenId::new(1), GenId::YOUNG];
    let thread = ThreadId::new(0);
    let class = heap.classes_mut().intern("T");
    let keep = heap.roots_mut().create_slot("keep");
    let cohort = heap.roots_mut().create_slot("cohort");
    let young_budget = u64::from(heap.config().young_region_budget());
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut t = Trajectory {
        hash: 0xcbf2_9ce4_8422_2325,
        ..Trajectory::default()
    };
    let mut last = None;
    for step in 0..PINNED_STEPS {
        if step % 1_000 == 0 {
            let target = targets[(step / 1_000) as usize % targets.len()];
            // G1 and C4 know only the young generation and refuse the rest.
            let _ = gc.set_target_gen(thread, target);
        }
        // The collectors' own pool-pressure test.
        if u64::from(heap.free_region_count()) < young_budget + 2 {
            t.pool_pressured += 1;
        }
        let size = 256 + (xorshift(&mut rng) % 3_840) as u32;
        let pretenure = xorshift(&mut rng).is_multiple_of(4);
        let req = AllocRequest {
            class,
            size,
            site: SiteId::new((xorshift(&mut rng) % 6) as u32),
            pretenure,
            thread,
        };
        let out = match gc.alloc(&mut heap, req, &SafepointRoots::none()) {
            Ok(out) => out,
            Err(GcError::OutOfMemory { requested }) if limit_bytes.is_some() => {
                t.hash = fnv_mix(t.hash, requested);
                t.oom_at = Some(step);
                break;
            }
            Err(e) => panic!("{collector}: allocation failed at step {step}: {e}"),
        };
        t.record(&out.pauses);
        if verify != VerifyMode::Off && !out.pauses.is_empty() {
            heap.verify_integrity().expect("post-collection verify");
        }
        let gen = heap.object(out.object).expect("new object").allocated_gen();
        for (count, created) in t.in_created_gens.iter_mut().zip(created) {
            if gen == created && !created.is_young() {
                *count += 1;
            }
        }
        if pretenure {
            heap.roots_mut().push(cohort, out.object);
        } else if xorshift(&mut rng).is_multiple_of(2) {
            heap.roots_mut().push(keep, out.object);
            if let Some(prev) = last {
                let _ = heap.add_ref(out.object, prev);
            }
            last = Some(out.object);
        }
        if step % 1_500 == 1_499 {
            heap.roots_mut().clear_slot(cohort);
        }
        if step < FLOOD_FROM && step % 700 == 699 {
            heap.roots_mut().clear_slot(keep);
            last = None;
        }
        if step % 5_000 == 4_999 {
            let pauses = gc.collect(&mut heap, &SafepointRoots::none());
            t.record(&pauses);
            if verify != VerifyMode::Off {
                heap.verify_integrity().expect("post-collection verify");
            }
        }
    }
    t.emergencies = gc.emergency_collections();
    t.hash = fnv_mix(t.hash, t.emergencies);
    t.hash = fnv_mix(t.hash, t.oom_at.unwrap_or(u64::MAX));
    if t.oom_at.is_none() {
        heap.check_invariants();
    }
    t.hash = fnv_mix(t.hash, heap_fingerprint(&heap));
    t
}

/// Each collector's pinned trajectory: the unlimited drive's hash folded
/// with the limited drive's. Recorded before G1, NG2C and C4 were made to
/// share one collection policy, allocation ladder and young/full routine;
/// any change to what a collector does moves its constant. Re-pin only for
/// an intended behavior change, and say so in CHANGES.md.
const PINNED: [(&str, u64); 3] = [
    ("g1", 16_611_675_025_099_111_450),
    ("ng2c", 10_241_028_226_844_721_118),
    ("c4", 8_062_180_223_665_984_493),
];

#[test]
fn collectors_follow_their_pinned_trajectories() {
    for (collector, pinned) in PINNED {
        for backend in [BackendKind::Sim, BackendKind::Real] {
            let free = pinned_drive(collector, backend, None);
            let limited = pinned_drive(collector, backend, Some(PINNED_LIMIT_BYTES));
            // The drives must reach what they exist to pin.
            assert!(free.pool_pressured > 0, "{collector}: no pool pressure");
            assert!(
                free.oom_at.is_none(),
                "{collector}: unlimited drive hit OOM"
            );
            assert!(
                limited.emergencies > 0 && limited.oom_at.is_some(),
                "{collector}: the limited drive must reach an emergency collection and OOM"
            );
            match collector {
                "g1" => assert!(
                    free.kinds[..3].iter().all(|&n| n > 0),
                    "G1 must take minor, mixed and full pauses: {:?}",
                    free.kinds
                ),
                "ng2c" => assert!(
                    free.in_created_gens.iter().all(|&n| n > 0),
                    "NG2C must place objects in both created generations"
                ),
                _ => assert!(free.kinds[3] > 0, "C4 must take phase pauses"),
            }
            assert_eq!(
                fnv_mix(free.hash, limited.hash),
                pinned,
                "{collector} on the {backend:?} backend left its pinned trajectory"
            );
        }
    }
}
