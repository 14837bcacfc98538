//! The [`Collector`] trait and the shared collection phases.

use std::fmt;

use polm2_heap::{EvacDecision, GenId, Heap, HeapError, LiveSet, ObjectId, SpaceId};

use crate::{GcConfig, GcError, GcWork, PauseEvent};

/// Identifies one mutator thread (the unit NG2C's target generation is local
/// to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(u32);

impl ThreadId {
    /// Wraps a raw thread index.
    pub const fn new(raw: u32) -> Self {
        ThreadId(raw)
    }

    /// The raw thread index.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread#{}", self.0)
    }
}

/// The mutator stack roots visible at a safepoint.
///
/// The runtime maintains frame roots per thread; when allocation triggers a
/// collection, it hands the flattened set here so in-flight objects survive.
#[derive(Debug, Clone, Copy)]
pub struct SafepointRoots<'a> {
    stack_roots: &'a [ObjectId],
}

impl<'a> SafepointRoots<'a> {
    /// Roots from the given slice.
    pub fn new(stack_roots: &'a [ObjectId]) -> Self {
        SafepointRoots { stack_roots }
    }

    /// No stack roots (tests, detached contexts).
    pub fn none() -> SafepointRoots<'static> {
        SafepointRoots { stack_roots: &[] }
    }

    /// The stack roots.
    pub fn stack_roots(&self) -> &[ObjectId] {
        self.stack_roots
    }
}

/// One allocation request from the runtime.
#[derive(Debug, Clone, Copy)]
pub struct AllocRequest {
    /// Class of the new object.
    pub class: polm2_heap::ClassId,
    /// Size in bytes.
    pub size: u32,
    /// Allocation site performing the request.
    pub site: polm2_heap::SiteId,
    /// True if the site is `@Gen`-annotated: allocate into the requesting
    /// thread's current target generation instead of the young generation.
    /// Collectors without pretenuring support ignore this.
    pub pretenure: bool,
    /// The requesting thread.
    pub thread: ThreadId,
}

/// The result of a successful allocation: the object plus any pauses the
/// collector had to take to satisfy it.
#[derive(Debug, Clone)]
pub struct AllocOutcome {
    /// The new object.
    pub object: ObjectId,
    /// Stop-the-world pauses incurred (usually empty). The runtime stamps
    /// and logs them, and advances the simulated clock.
    pub pauses: Vec<PauseEvent>,
}

/// A garbage collector driving the simulated heap.
///
/// Implementations: [`G1Collector`], [`Ng2cCollector`], [`C4Collector`].
///
/// [`G1Collector`]: crate::G1Collector
/// [`Ng2cCollector`]: crate::Ng2cCollector
/// [`C4Collector`]: crate::C4Collector
pub trait Collector: fmt::Debug {
    /// Short collector name ("G1", "NG2C", "C4").
    fn name(&self) -> &'static str;

    /// Creates the collector's spaces on a fresh heap.
    fn attach(&mut self, heap: &mut Heap);

    /// Allocates, collecting first if necessary.
    ///
    /// # Errors
    ///
    /// [`GcError::OutOfMemory`] if even a full collection cannot make room;
    /// [`GcError::Heap`] for programming errors surfaced by the heap.
    fn alloc(
        &mut self,
        heap: &mut Heap,
        req: AllocRequest,
        roots: &SafepointRoots<'_>,
    ) -> Result<AllocOutcome, GcError>;

    /// Forces a full collection cycle (used at workload phase boundaries and
    /// by tests).
    fn collect(&mut self, heap: &mut Heap, roots: &SafepointRoots<'_>) -> Vec<PauseEvent>;

    /// Creates a new generation (NG2C API). Collectors without dynamic
    /// generations return [`GenId::YOUNG`].
    fn new_generation(&mut self, heap: &mut Heap) -> GenId {
        let _ = heap;
        GenId::YOUNG
    }

    /// Sets `thread`'s target generation, returning the previous one
    /// (NG2C's `setGeneration`).
    ///
    /// # Errors
    ///
    /// [`GcError::UnknownGeneration`] if `gen` was never created.
    fn set_target_gen(&mut self, thread: ThreadId, gen: GenId) -> Result<GenId, GcError> {
        let _ = thread;
        if gen.is_young() {
            Ok(GenId::YOUNG)
        } else {
            Err(GcError::UnknownGeneration { gen: gen.raw() })
        }
    }

    /// `thread`'s current target generation (NG2C's `getGeneration`).
    fn target_gen(&self, thread: ThreadId) -> GenId {
        let _ = thread;
        GenId::YOUNG
    }

    /// Extra mutator cost imposed by collector barriers, in permille of each
    /// operation's base cost (C4's read/write barriers).
    ///
    /// The value is fixed for the collector's lifetime: a runtime may read
    /// it once, when it is built, and charge every later operation with
    /// that value.
    fn mutator_overhead_permille(&self) -> u32 {
        0
    }

    /// Committed memory as the process would report it (C4 pre-reserves the
    /// whole heap at launch).
    fn reported_committed_bytes(&self, heap: &Heap) -> u64 {
        heap.committed_bytes()
    }

    /// Emergency full collections taken so far: last-resort cycles forced by
    /// an allocation that could not be satisfied any other way (the retry
    /// before a [`GcError::OutOfMemory`] verdict). Ledger- and CLI-visible
    /// through the metrics fault counters.
    fn emergency_collections(&self) -> u64 {
        0
    }
}

// ----------------------------------------------------------------------
// Shared collection phases
// ----------------------------------------------------------------------

/// Evacuates the young generation: drops the dead, copies survivors within
/// young (into the survivor space, bounded by `survivor_cap_bytes`), and
/// promotes into `promote_to` objects that are at or above
/// `tenure_threshold` — or that overflow the survivor space, G1's *premature
/// promotion*. Workloads whose in-flight cohorts exceed the survivor space
/// therefore promote en masse, the paper's motivating pathology.
///
/// Returns the work done. Panics only on heap-protocol bugs; allocation
/// failures during relocation surface as errors.
pub(crate) fn evacuate_young(
    heap: &mut Heap,
    live: &LiveSet,
    tenure_threshold: u8,
    promote_to: SpaceId,
    survivor_cap_bytes: u64,
) -> Result<GcWork, HeapError> {
    let mut work = GcWork::default();
    let young_objects = heap.objects_in_space(Heap::YOUNG_SPACE)?;
    let sources = heap.begin_evacuation(Heap::YOUNG_SPACE)?;
    let mut survivor_bytes: u64 = 0;
    let mut promoted: Vec<ObjectId> = Vec::new();
    // Read-only decision pass in allocation order, then one batched
    // evacuation: planning stays deterministic while the fix-up phase may
    // run on the heap's configured `gc_workers`.
    let mut ops: Vec<(ObjectId, EvacDecision)> = Vec::with_capacity(young_objects.len());
    for obj in young_objects {
        work.traced_objects += 1;
        if !live.contains(obj) {
            ops.push((obj, EvacDecision::Drop));
            work.swept_objects += 1;
            continue;
        }
        let rec = heap.object(obj).expect("live object");
        let size = u64::from(rec.size());
        work.traced_bytes += size;
        // The move bumps the age; decide on the post-bump value, matching
        // the old bump-then-test sequence.
        let age = rec.age().saturating_add(1);
        if age >= tenure_threshold || survivor_bytes + size > survivor_cap_bytes {
            ops.push((
                obj,
                EvacDecision::Move {
                    dest: promote_to,
                    bump_age: true,
                },
            ));
            work.promoted_bytes += size;
            promoted.push(obj);
        } else {
            ops.push((
                obj,
                EvacDecision::Move {
                    dest: Heap::YOUNG_SPACE,
                    bump_age: true,
                },
            ));
            work.copied_bytes += size;
            survivor_bytes += size;
        }
    }
    heap.evacuate_batch(&ops)?;
    work.freed_regions += sources.len() as u64;
    heap.finish_evacuation()?;
    // Promotion turns edges to still-young children into old->young edges
    // the write barrier never saw; remember them now (the promotion buffer
    // of a real generational collector).
    for obj in promoted {
        let children: Vec<ObjectId> = heap
            .object(obj)
            .map(|r| r.refs().to_vec())
            .unwrap_or_default();
        for child in children {
            heap.remember_if_young(child);
        }
    }
    heap.prune_remembered();
    Ok(work)
}

/// The survivor-space size implied by the heap geometry and the collector's
/// survivor ratio (the `-XX:SurvivorRatio` analogue).
pub(crate) fn survivor_cap(heap: &Heap, survivor_ratio: u64) -> u64 {
    (heap.config().young_bytes / survivor_ratio.max(1)).max(heap.config().region_bytes)
}

/// A completed (conceptually concurrent) marking cycle, reused across
/// several incremental mixed pauses — G1's concurrent-marking design. The
/// watermark records the allocation counter at mark time: younger ids are
/// conservatively live (they were born after the mark).
#[derive(Debug)]
pub(crate) struct MarkCycle {
    pub(crate) live: LiveSet,
    pub(crate) watermark: u64,
    pub(crate) uses: u32,
}

impl MarkCycle {
    pub(crate) fn run(heap: &mut Heap, roots: &SafepointRoots<'_>) -> MarkCycle {
        let watermark = heap.stats().allocated_objects;
        let live = heap.mark_live(roots.stack_roots());
        MarkCycle {
            live,
            watermark,
            uses: 0,
        }
    }

    /// Liveness answer for sweep/compact decisions: objects born after the
    /// mark are live until the next cycle (SATB floating garbage).
    pub(crate) fn is_live(&self, obj: ObjectId) -> bool {
        obj.raw() >= self.watermark || self.live.contains(obj)
    }
}

/// Reclaims old spaces incrementally: releases wholly-dead regions, then
/// sweeps + compacts up to `max_regions` victim regions chosen by lowest
/// live fraction (G1's collection set). Liveness comes from the marking
/// cycle; regions not selected keep their floating garbage until a later
/// pause. Pass `u32::MAX` and threshold 1.0 for a full compaction.
pub(crate) fn reclaim_spaces(
    heap: &mut Heap,
    mark: &MarkCycle,
    spaces: &[SpaceId],
    compact_live_fraction: f64,
    max_regions: u32,
) -> Result<GcWork, HeapError> {
    let mut work = GcWork::default();

    // Pass 1 — metadata only: find wholly-dead regions and compaction
    // victims across the given spaces.
    let mut dead_regions = Vec::new();
    let mut victims: Vec<(f64, SpaceId, polm2_heap::RegionId)> = Vec::new();
    for &space in spaces {
        for &region in heap.space(space)?.regions() {
            let r = heap.region(region);
            if r.live_bytes() == 0 {
                dead_regions.push(region);
            } else {
                let fraction = r.live_fraction();
                if fraction < compact_live_fraction {
                    victims.push((fraction, space, region));
                }
            }
        }
    }

    // Pass 2 — release wholly-dead regions (the cheap path pretenuring
    // produces: cohorts die with their region). Verify per object rather
    // than trusting the nomination: region live-byte accounting and the
    // collector's cached mark cycle refresh at *different* times (any
    // `Heap::mark_live` — including the profiling Dumper's snapshot marks —
    // rewrites the accounting, while the cycle here may be older and
    // conservatively considers more objects live). A region with a
    // cycle-live resident is left alone; the next cycle refresh reclaims
    // it.
    for region in dead_regions {
        let residents = heap.live_objects_in_region(region);
        if residents.iter().any(|&obj| mark.is_live(obj)) {
            continue;
        }
        work.swept_objects += residents.len() as u64;
        work.traced_objects += residents.len() as u64;
        let ops: Vec<(ObjectId, EvacDecision)> = residents
            .into_iter()
            .map(|obj| (obj, EvacDecision::Drop))
            .collect();
        heap.evacuate_batch(&ops)?;
        heap.purge_region_objects(region);
        heap.release_region(region)?;
        work.freed_regions += 1;
    }

    // Pass 3 — sweep + compact the collection set, sparsest regions first.
    victims.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite fractions"));
    victims.truncate(max_regions as usize);
    // Each victim keeps its own begin/finish pair: the freed region returns
    // to the pool before the next victim is evacuated, preserving the pool's
    // LIFO region-reuse order. Parallelism lives inside the batch.
    for (_, space, victim) in victims {
        heap.begin_evacuation_of(space, &[victim])?;
        let residents = heap.live_objects_in_region(victim);
        let mut ops: Vec<(ObjectId, EvacDecision)> = Vec::with_capacity(residents.len());
        for obj in residents {
            work.traced_objects += 1;
            if !mark.is_live(obj) {
                ops.push((obj, EvacDecision::Drop));
                work.swept_objects += 1;
            } else {
                let size = u64::from(heap.object(obj).expect("resident record").size());
                ops.push((
                    obj,
                    EvacDecision::Move {
                        dest: space,
                        bump_age: false,
                    },
                ));
                work.compacted_bytes += size;
                work.traced_bytes += size;
            }
        }
        heap.evacuate_batch(&ops)?;
        heap.finish_evacuation()?;
        work.freed_regions += 1;
    }
    Ok(work)
}

/// A young collection: marks the young generation (remembered set plus
/// roots; the old spaces are assumed live), evacuates it at the configured
/// tenuring threshold, promoting into `promote_to`, and retires the live
/// set.
pub(crate) fn collect_young(
    heap: &mut Heap,
    roots: &SafepointRoots<'_>,
    config: &GcConfig,
    promote_to: SpaceId,
) -> Result<GcWork, GcError> {
    let live = heap.mark_live_young(roots.stack_roots());
    let work = evacuate_young(
        heap,
        &live,
        config.tenure_threshold,
        promote_to,
        survivor_cap(heap, config.survivor_ratio),
    )?;
    heap.retire_live_set(live);
    Ok(work)
}

/// A full collection: marks afresh, evacuates young at `tenure_threshold`
/// (0 promotes every survivor) into the first of `old_spaces`, compacts
/// every region of `old_spaces` that is not completely full, and retires
/// the live set.
pub(crate) fn collect_full(
    heap: &mut Heap,
    roots: &SafepointRoots<'_>,
    config: &GcConfig,
    tenure_threshold: u8,
    old_spaces: &[SpaceId],
) -> Result<GcWork, GcError> {
    let cycle = MarkCycle::run(heap, roots);
    let young = evacuate_young(
        heap,
        &cycle.live,
        tenure_threshold,
        old_spaces[0],
        survivor_cap(heap, config.survivor_ratio),
    )?;
    let old = reclaim_spaces(heap, &cycle, old_spaces, 1.0, u32::MAX)?;
    heap.retire_live_set(cycle.live);
    Ok(young.merged(old))
}

/// Why the allocation ladder asks a collector to collect.
pub(crate) enum Rung {
    /// The free pool is too small to absorb a young evacuation, so old space
    /// is reclaimed before the first attempt: promotion and pretenuring
    /// drain the pool without ever failing a young allocation.
    PoolPressure,
    /// The first attempt failed: collect, then retry.
    Retry,
    /// The retry failed too: one last-resort full collection, then the
    /// verdict.
    Emergency,
}

/// The allocation ladder every collector climbs: collect first under pool
/// pressure, try to allocate `req` in `space`, collect and retry, and take
/// one emergency collection before the [`GcError::OutOfMemory`] verdict.
/// `collect` appends the pauses of the collection each rung asks for.
///
/// Pool exhaustion *during* a collection is that verdict too: if even the
/// collector cannot find a region to copy survivors into, the heap is truly
/// full. The heap may then be left mid-evacuation; an out-of-memory
/// collector, like an OOM JVM, is not expected to resume.
pub(crate) fn alloc_ladder(
    heap: &mut Heap,
    req: &AllocRequest,
    space: SpaceId,
    mut collect: impl FnMut(&mut Heap, Rung, &mut Vec<PauseEvent>) -> Result<(), GcError>,
) -> Result<AllocOutcome, GcError> {
    let requested = u64::from(req.size);
    let exhausted = |e| match e {
        GcError::Heap(e) if is_exhaustion(&e) => GcError::OutOfMemory { requested },
        other => other,
    };
    let mut pauses = Vec::new();
    if pool_pressure(heap) {
        collect(heap, Rung::PoolPressure, &mut pauses).map_err(exhausted)?;
    }
    for rung in [Rung::Retry, Rung::Emergency] {
        if let Some(object) = try_alloc(heap, req, space)? {
            return Ok(AllocOutcome { object, pauses });
        }
        collect(heap, rung, &mut pauses).map_err(exhausted)?;
    }
    match try_alloc(heap, req, space) {
        Ok(Some(object)) => Ok(AllocOutcome { object, pauses }),
        _ => Err(GcError::OutOfMemory { requested }),
    }
}

/// One allocation attempt: `Ok(None)` when a collection may make room.
/// Other heap errors are bugs and pass through.
fn try_alloc(
    heap: &mut Heap,
    req: &AllocRequest,
    space: SpaceId,
) -> Result<Option<ObjectId>, GcError> {
    match heap.allocate(req.class, req.size, req.site, space) {
        Ok(object) => Ok(Some(object)),
        Err(e) if is_exhaustion(&e) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// The heap errors a collection can cure: the space or the region pool is
/// exhausted, or the hard heap limit was hit (collection frees budget too).
fn is_exhaustion(e: &HeapError) -> bool {
    matches!(
        e,
        HeapError::SpaceFull { .. }
            | HeapError::OutOfRegions { .. }
            | HeapError::OutOfMemory { .. }
    )
}

/// True when the heap occupancy crosses the mixed-collection trigger.
pub(crate) fn over_mixed_trigger(heap: &Heap, fraction: f64) -> bool {
    heap.committed_bytes() as f64 > heap.config().total_bytes as f64 * fraction
}

/// True when the free pool is too small to absorb a young evacuation — the
/// signal to reclaim old spaces before attempting one.
pub(crate) fn pool_pressure(heap: &Heap) -> bool {
    let young_budget = heap.config().young_region_budget() as u64;
    u64::from(heap.free_region_count()) < young_budget + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::{HeapConfig, SiteId};

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId::new(3).to_string(), "thread#3");
        assert_eq!(ThreadId::new(3).raw(), 3);
    }

    #[test]
    fn safepoint_roots_accessors() {
        let ids = [ObjectId::new(1)];
        let roots = SafepointRoots::new(&ids);
        assert_eq!(roots.stack_roots().len(), 1);
        assert!(SafepointRoots::none().stack_roots().is_empty());
    }

    #[test]
    fn evacuate_young_separates_live_from_dead() {
        let mut heap = Heap::new(HeapConfig::small());
        let old = heap.create_space(GenId::new(1), None);
        let class = heap.classes_mut().intern("T");
        let keep = heap
            .allocate(class, 64, SiteId::new(0), Heap::YOUNG_SPACE)
            .unwrap();
        let dead = heap
            .allocate(class, 64, SiteId::new(0), Heap::YOUNG_SPACE)
            .unwrap();
        let slot = heap.roots_mut().create_slot("r");
        heap.roots_mut().push(slot, keep);
        let live = heap.mark_live(&[]);
        let work = evacuate_young(&mut heap, &live, 15, old, u64::MAX).unwrap();
        assert_eq!(work.swept_objects, 1);
        assert_eq!(work.copied_bytes, 64);
        assert_eq!(work.promoted_bytes, 0);
        assert!(heap.object(keep).is_some());
        assert!(heap.object(dead).is_none());
        heap.check_invariants();
    }

    #[test]
    fn evacuate_young_promotes_aged_objects() {
        let mut heap = Heap::new(HeapConfig::small());
        let old = heap.create_space(GenId::new(1), None);
        let class = heap.classes_mut().intern("T");
        let obj = heap
            .allocate(class, 64, SiteId::new(0), Heap::YOUNG_SPACE)
            .unwrap();
        let slot = heap.roots_mut().create_slot("r");
        heap.roots_mut().push(slot, obj);
        // Age out over repeated young collections.
        for round in 0..3 {
            let live = heap.mark_live(&[]);
            let work = evacuate_young(&mut heap, &live, 3, old, u64::MAX).unwrap();
            if round < 2 {
                assert_eq!(work.copied_bytes, 64, "round {round}");
            } else {
                assert_eq!(work.promoted_bytes, 64, "round {round}");
            }
        }
        assert_eq!(heap.object(obj).unwrap().space(), old);
    }

    #[test]
    fn reclaim_releases_dead_regions_whole() {
        let mut heap = Heap::new(HeapConfig::small());
        let old = heap.create_space(GenId::new(1), None);
        let class = heap.classes_mut().intern("T");
        // Fill an old region with objects that all die together.
        for _ in 0..32 {
            heap.allocate(class, 4096, SiteId::new(0), old).unwrap();
        }
        let cycle = MarkCycle::run(&mut heap, &SafepointRoots::none()); // nothing rooted -> all dead
        let work = reclaim_spaces(&mut heap, &cycle, &[old], 0.75, u32::MAX).unwrap();
        assert_eq!(work.swept_objects, 32);
        assert!(work.freed_regions >= 1);
        assert_eq!(
            work.compacted_bytes, 0,
            "whole-region death needs no copying"
        );
        heap.check_invariants();
    }

    #[test]
    fn reclaim_compacts_sparse_regions() {
        let mut heap = Heap::new(HeapConfig::small());
        let old = heap.create_space(GenId::new(1), None);
        let class = heap.classes_mut().intern("T");
        let slot = heap.roots_mut().create_slot("r");
        // Interleave survivors and garbage so regions end up sparse.
        for i in 0..64 {
            let obj = heap.allocate(class, 4096, SiteId::new(0), old).unwrap();
            if i % 4 == 0 {
                heap.roots_mut().push(slot, obj);
            }
        }
        let cycle = MarkCycle::run(&mut heap, &SafepointRoots::none());
        let work = reclaim_spaces(&mut heap, &cycle, &[old], 0.75, u32::MAX).unwrap();
        assert!(work.compacted_bytes > 0, "sparse survivors must be moved");
        assert!(work.freed_regions > 0);
        heap.check_invariants();
    }

    #[test]
    fn reclaim_respects_region_budget() {
        let mut heap = Heap::new(HeapConfig::small());
        let old = heap.create_space(GenId::new(1), None);
        let class = heap.classes_mut().intern("T");
        let slot = heap.roots_mut().create_slot("r");
        for i in 0..128 {
            let obj = heap.allocate(class, 4096, SiteId::new(0), old).unwrap();
            if i % 8 == 0 {
                heap.roots_mut().push(slot, obj);
            }
        }
        let cycle = MarkCycle::run(&mut heap, &SafepointRoots::none());
        let limited = reclaim_spaces(&mut heap, &cycle, &[old], 0.75, 1).unwrap();
        // One region compacted at most.
        assert!(limited.compacted_bytes <= heap.config().region_bytes);
    }

    #[test]
    fn promotion_remembers_young_children() {
        // The promotion-buffer scenario: a parent is promoted while its
        // child survives in young; the next young-only collection must not
        // reclaim the child.
        let mut heap = Heap::new(HeapConfig::small());
        let old = heap.create_space(GenId::new(1), None);
        let class = heap.classes_mut().intern("T");
        let parent = heap
            .allocate(class, 64, SiteId::new(0), Heap::YOUNG_SPACE)
            .unwrap();
        let child = heap
            .allocate(class, 64, SiteId::new(0), Heap::YOUNG_SPACE)
            .unwrap();
        heap.add_ref(parent, child).unwrap();
        let slot = heap.roots_mut().create_slot("r");
        heap.roots_mut().push(slot, parent);
        // Tenure threshold 1 with a tight survivor cap: parent promotes,
        // child squeaks into the survivor space.
        for _ in 0..2 {
            let live = heap.mark_live_young(&[]);
            evacuate_young(&mut heap, &live, 3, old, 64).unwrap();
        }
        // One of them is old by now; run another young-only cycle and the
        // young one must survive via the promotion-buffer entries.
        let live = heap.mark_live_young(&[]);
        evacuate_young(&mut heap, &live, 3, old, 64).unwrap();
        assert!(heap.object(parent).is_some());
        assert!(
            heap.object(child).is_some(),
            "child lost: promotion buffer broken"
        );
        heap.check_invariants();
    }

    #[test]
    fn survivor_overflow_promotes_prematurely() {
        let mut heap = Heap::new(HeapConfig::small()); // young budget: 1 MiB
        let old = heap.create_space(GenId::new(1), None);
        let class = heap.classes_mut().intern("Block");
        let slot = heap.roots_mut().create_slot("batch");
        // Root 512 KiB of young objects; with a 128 KiB survivor cap, most
        // of the cohort must be promoted even though it is far below the
        // tenuring threshold.
        for _ in 0..128 {
            let obj = heap
                .allocate(class, 4096, SiteId::new(0), Heap::YOUNG_SPACE)
                .unwrap();
            heap.roots_mut().push(slot, obj);
        }
        let live = heap.mark_live(&[]);
        let cap: u64 = 128 << 10;
        let work = evacuate_young(&mut heap, &live, 15, old, cap).unwrap();
        assert!(work.copied_bytes <= cap, "survivor space respected");
        assert_eq!(work.copied_bytes + work.promoted_bytes, 512 << 10);
        assert!(
            work.promoted_bytes >= (384 << 10),
            "overflow promoted en masse"
        );
        heap.check_invariants();
    }

    #[test]
    fn collection_phases_are_backend_invariant() {
        // Young evacuation then an old-space reclaim, on both memory
        // backends: identical GcWork and identical surviving placement —
        // the collector-phase slice of the sim/real equality invariant.
        use polm2_heap::BackendKind;
        type Placement = (u64, u32, u32, SpaceId);
        fn drive(backend: BackendKind) -> (Vec<GcWork>, Vec<Placement>) {
            let mut heap = Heap::new(HeapConfig::small().with_backend(backend));
            let old = heap.create_space(GenId::new(1), None);
            let class = heap.classes_mut().intern("T");
            let slot = heap.roots_mut().create_slot("r");
            let mut ids = Vec::new();
            for i in 0..96 {
                let obj = heap
                    .allocate(
                        class,
                        2048 + (i % 5) * 1024,
                        SiteId::new(0),
                        Heap::YOUNG_SPACE,
                    )
                    .unwrap();
                if i % 3 == 0 {
                    heap.roots_mut().push(slot, obj);
                    ids.push(obj);
                }
            }
            let mut works = Vec::new();
            let live = heap.mark_live(&[]);
            works.push(evacuate_young(&mut heap, &live, 1, old, u64::MAX).unwrap());
            let cycle = MarkCycle::run(&mut heap, &SafepointRoots::none());
            works.push(reclaim_spaces(&mut heap, &cycle, &[old], 1.0, u32::MAX).unwrap());
            heap.check_invariants();
            let placement = ids
                .iter()
                .map(|&id| {
                    let rec = heap.object(id).expect("rooted object survives");
                    (
                        id.raw(),
                        rec.addr().region.raw(),
                        rec.addr().offset,
                        rec.space(),
                    )
                })
                .collect();
            (works, placement)
        }
        assert_eq!(drive(BackendKind::Sim), drive(BackendKind::Real));
    }

    #[test]
    fn survivor_cap_floor_is_one_region() {
        let heap = Heap::new(HeapConfig::small());
        // young/8 = 128 KiB is below one region, so the floor applies.
        assert_eq!(survivor_cap(&heap, 8), heap.config().region_bytes);
        assert_eq!(survivor_cap(&heap, 2), 512 << 10);
        // A huge ratio still leaves one region of survivor space.
        assert_eq!(survivor_cap(&heap, 1_000_000), heap.config().region_bytes);
    }

    #[test]
    fn trigger_predicates() {
        let mut heap = Heap::new(HeapConfig::small());
        assert!(!over_mixed_trigger(&heap, 0.5));
        assert!(!pool_pressure(&heap));
        let class = heap.classes_mut().intern("T");
        let old = heap.create_space(GenId::new(1), None);
        // Commit most of the heap.
        for _ in 0..12 * 64 {
            heap.allocate(class, 4096, SiteId::new(0), old).unwrap();
        }
        assert!(over_mixed_trigger(&heap, 0.5));
        assert!(pool_pressure(&heap));
    }
}
