//! The G1-like baseline collector.

use polm2_heap::{GenId, Heap, SpaceId};

use crate::collector::{
    alloc_ladder, collect_full, collect_young, over_mixed_trigger, pool_pressure, reclaim_spaces,
    AllocOutcome, AllocRequest, Collector, MarkCycle, Rung, SafepointRoots,
};
use crate::{GcConfig, GcError, GcKind, GcWork, PauseEvent};

/// The OpenJDK-default collector the paper compares against.
///
/// Two generations. Every object is born young; survivors are copied within
/// the young generation until they reach the tenuring threshold and are then
/// promoted. Old regions are reclaimed by incremental *mixed* collections
/// that compact the sparsest regions first, and by *full* collections under
/// pressure. Middle-lived Big-Data objects are therefore copied repeatedly,
/// promoted en masse, and compacted after they die — the paper's motivating
/// pathology.
///
/// [`Ng2cCollector`](crate::Ng2cCollector) is this collector plus the
/// generations it creates: mixed and full pauses reclaim every space after
/// young.
///
/// See the [crate documentation](crate) for a usage example.
#[derive(Debug)]
pub struct G1Collector {
    config: GcConfig,
    /// Young, old, then every generation NG2C creates, in creation order.
    /// Empty until attached.
    pub(crate) spaces: Vec<SpaceId>,
    /// The current (conceptually concurrent) marking cycle.
    mark: Option<MarkCycle>,
    /// Last-resort full collections forced by a failed allocation.
    emergency_collections: u64,
}

impl G1Collector {
    /// Creates a G1 collector with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GcConfig::validate`].
    pub fn new(config: GcConfig) -> Self {
        config.validate().expect("invalid GC configuration");
        G1Collector {
            config,
            spaces: Vec::new(),
            mark: None,
            emergency_collections: 0,
        }
    }

    /// The promotion target: the classic old generation.
    fn old_space(&self) -> SpaceId {
        *self.spaces.get(1).expect("collector not attached")
    }

    fn priced(&self, kind: GcKind, work: GcWork) -> PauseEvent {
        PauseEvent {
            kind,
            pause: self.config.cost.pause(&work),
            work,
        }
    }

    /// Retires the cached mark cycle, so the next mixed pause marks afresh.
    fn drop_mark(&mut self, heap: &mut Heap) {
        if let Some(stale) = self.mark.take() {
            heap.retire_live_set(stale.live);
        }
    }

    fn minor(
        &mut self,
        heap: &mut Heap,
        roots: &SafepointRoots<'_>,
    ) -> Result<PauseEvent, GcError> {
        let work = collect_young(heap, roots, &self.config, self.old_space())?;
        Ok(self.priced(GcKind::Minor, work))
    }

    fn mixed(
        &mut self,
        heap: &mut Heap,
        roots: &SafepointRoots<'_>,
    ) -> Result<PauseEvent, GcError> {
        let young = collect_young(heap, roots, &self.config, self.old_space())?;
        // One marking cycle serves `mark_cycle_uses` mixed pauses; then the
        // next (conceptually concurrent) cycle runs.
        let uses = self.config.mark_cycle_uses;
        if self.mark.as_ref().is_none_or(|m| m.uses >= uses) {
            self.drop_mark(heap);
            self.mark = Some(MarkCycle::run(heap, roots));
        }
        let mark = self.mark.as_mut().expect("refreshed above");
        mark.uses += 1;
        let old = reclaim_spaces(
            heap,
            mark,
            &self.spaces[1..],
            self.config.compact_live_fraction,
            self.config.max_compact_regions_per_pause,
        )?;
        Ok(self.priced(GcKind::Mixed, young.merged(old)))
    }

    fn full(&mut self, heap: &mut Heap, roots: &SafepointRoots<'_>) -> Result<PauseEvent, GcError> {
        // Full collections promote every survivor (threshold 0).
        let work = collect_full(heap, roots, &self.config, 0, &self.spaces[1..])?;
        // The heap changed wholesale; the next mixed pause re-marks.
        self.drop_mark(heap);
        // Cycle boundary: let the backend run deferred allocator
        // maintenance (tenured free-list coalescing).
        heap.note_gc_cycle_finished();
        Ok(self.priced(GcKind::Full, work))
    }

    /// Allocates `req` in `space`: young, or the target generation of an
    /// NG2C pretenured request.
    pub(crate) fn alloc_in(
        &mut self,
        heap: &mut Heap,
        req: AllocRequest,
        space: SpaceId,
        roots: &SafepointRoots<'_>,
    ) -> Result<AllocOutcome, GcError> {
        alloc_ladder(heap, &req, space, |heap, rung, pauses| {
            match rung {
                // The floating garbage of the current mark cycle is what is
                // squeezing the pool: refresh the mark, then reclaim
                // incrementally; a full collection is the last resort.
                Rung::PoolPressure => {
                    self.drop_mark(heap);
                    pauses.push(self.mixed(heap, roots)?);
                    if pool_pressure(heap) {
                        pauses.push(self.full(heap, roots)?);
                    }
                }
                // Make sure old-space pressure will not sink the
                // evacuation, then run the young collection.
                Rung::Retry => pauses.push(if pool_pressure(heap) {
                    self.full(heap, roots)?
                } else if over_mixed_trigger(heap, self.config.mixed_trigger_fraction) {
                    self.mixed(heap, roots)?
                } else {
                    self.minor(heap, roots)?
                }),
                Rung::Emergency => {
                    self.emergency_collections += 1;
                    pauses.push(self.full(heap, roots)?);
                }
            }
            Ok(())
        })
    }
}

impl Collector for G1Collector {
    fn name(&self) -> &'static str {
        "G1"
    }

    fn attach(&mut self, heap: &mut Heap) {
        assert!(self.spaces.is_empty(), "collector already attached");
        self.spaces = vec![Heap::YOUNG_SPACE, heap.create_space(GenId::new(1), None)];
        heap.set_gc_workers(self.config.gc_workers);
    }

    fn alloc(
        &mut self,
        heap: &mut Heap,
        req: AllocRequest,
        roots: &SafepointRoots<'_>,
    ) -> Result<AllocOutcome, GcError> {
        self.alloc_in(heap, req, Heap::YOUNG_SPACE, roots)
    }

    fn collect(&mut self, heap: &mut Heap, roots: &SafepointRoots<'_>) -> Vec<PauseEvent> {
        let pause = self.full(heap, roots);
        vec![pause.unwrap_or_else(|_| self.priced(GcKind::Full, GcWork::default()))]
    }

    fn emergency_collections(&self) -> u64 {
        self.emergency_collections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::{HeapConfig, ObjectId, SiteId};

    use crate::ThreadId;

    fn setup() -> (Heap, G1Collector) {
        let mut heap = Heap::new(HeapConfig::small());
        let mut gc = G1Collector::new(GcConfig::default());
        gc.attach(&mut heap);
        (heap, gc)
    }

    fn req(heap: &mut Heap, size: u32) -> AllocRequest {
        AllocRequest {
            class: heap.classes_mut().intern("T"),
            size,
            site: SiteId::new(0),
            pretenure: false,
            thread: ThreadId::new(0),
        }
    }

    #[test]
    fn fast_path_allocates_without_pauses() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 128);
        let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
        assert!(out.pauses.is_empty());
        assert!(heap.object(out.object).is_some());
    }

    #[test]
    fn young_exhaustion_triggers_minor_collection() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 4096);
        let mut total_pauses = 0;
        for _ in 0..1000 {
            // No roots: everything dies young, so minor GCs keep the heap flat.
            let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
            total_pauses += out.pauses.len();
        }
        assert!(total_pauses >= 3, "expected several minor collections");
        heap.check_invariants();
        // Everything was garbage, nothing should have been promoted.
        assert_eq!(heap.used_bytes(gc.old_space()).unwrap(), 0);
    }

    #[test]
    fn surviving_objects_get_promoted_eventually() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 4096);
        let slot = heap.roots_mut().create_slot("keep");
        // Root a handful of objects, then churn garbage through young.
        let mut kept = Vec::new();
        for i in 0..2000 {
            let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
            if i < 8 {
                heap.roots_mut().push(slot, out.object);
                kept.push(out.object);
            }
        }
        for obj in kept {
            assert_eq!(
                heap.object(obj).map(|o| o.space()),
                Some(gc.old_space()),
                "rooted object should be tenured after enough collections"
            );
        }
    }

    #[test]
    fn full_collection_reclaims_dead_old_objects() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 4096);
        let slot = heap.roots_mut().create_slot("keep");
        let mut kept: Vec<ObjectId> = Vec::new();
        for _ in 0..600 {
            let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
            heap.roots_mut().push(slot, out.object);
            kept.push(out.object);
        }
        // Everything is rooted and much of it promoted; now drop all roots.
        heap.roots_mut().clear_slot(slot);
        let pauses = gc.collect(&mut heap, &SafepointRoots::none());
        assert_eq!(pauses.len(), 1);
        assert_eq!(pauses[0].kind, GcKind::Full);
        assert_eq!(heap.object_count(), 0);
        heap.check_invariants();
    }

    #[test]
    fn out_of_memory_when_everything_is_live() {
        let mut heap = Heap::new(HeapConfig::small());
        let mut gc = G1Collector::new(GcConfig::default());
        gc.attach(&mut heap);
        let r = req(&mut heap, 4096);
        let slot = heap.roots_mut().create_slot("keep");
        let mut last_err = None;
        for _ in 0..2000 {
            match gc.alloc(&mut heap, r, &SafepointRoots::none()) {
                Ok(out) => heap.roots_mut().push(slot, out.object),
                Err(e) => {
                    last_err = Some(e);
                    break;
                }
            }
        }
        assert!(
            matches!(last_err, Some(GcError::OutOfMemory { .. })),
            "rooting everything must eventually exhaust the heap: {last_err:?}"
        );
    }

    #[test]
    fn stack_roots_survive_collections() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 4096);
        let pinned = gc
            .alloc(&mut heap, r, &SafepointRoots::none())
            .unwrap()
            .object;
        let stack = [pinned];
        let roots = SafepointRoots::new(&stack);
        for _ in 0..500 {
            gc.alloc(&mut heap, r, &roots).unwrap();
        }
        assert!(
            heap.object(pinned).is_some(),
            "stack-rooted object must survive"
        );
    }

    #[test]
    fn pretenure_flag_is_ignored_by_g1() {
        let (mut heap, mut gc) = setup();
        let mut r = req(&mut heap, 128);
        r.pretenure = true;
        let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
        assert_eq!(heap.object(out.object).unwrap().space(), Heap::YOUNG_SPACE);
    }
}
