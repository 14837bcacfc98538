//! The NG2C pretenuring collector.

use std::collections::HashMap;

use polm2_heap::{GenId, Heap, SpaceId};

use crate::collector::{AllocOutcome, AllocRequest, Collector, SafepointRoots, ThreadId};
use crate::{G1Collector, GcConfig, GcError, PauseEvent};

/// NG2C: an N-generational pretenuring collector (Bruno et al., ISMM '17).
///
/// NG2C is [`G1Collector`] plus dynamically created generations and the API
/// POLM2's Instrumenter targets:
///
/// * [`new_generation`](Collector::new_generation) — create a generation at
///   runtime;
/// * [`set_target_gen`](Collector::set_target_gen) /
///   [`target_gen`](Collector::target_gen) — the thread-local *target
///   generation*;
/// * `@Gen`-annotated allocation — an [`AllocRequest`] with
///   `pretenure: true` is placed directly in the thread's target generation.
///
/// Young, mixed and full collections are G1's; mixed and full pauses
/// reclaim every created generation along with the old one. Because objects
/// with similar lifetimes are co-located, whole regions die together and
/// are released without copying — the mechanism behind the paper's
/// pause-time reductions.
#[derive(Debug)]
pub struct Ng2cCollector {
    /// The G1 policy; its spaces double as the generation table:
    /// `g1.spaces[g]` backs logical generation `g`.
    g1: G1Collector,
    /// Thread-local target generations (NG2C keeps these in the JVM thread).
    targets: HashMap<ThreadId, GenId>,
}

impl Ng2cCollector {
    /// Creates an NG2C collector with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GcConfig::validate`].
    pub fn new(config: GcConfig) -> Self {
        Ng2cCollector {
            g1: G1Collector::new(config),
            targets: HashMap::new(),
        }
    }

    /// Number of generations currently in existence (young included).
    pub fn generation_count(&self) -> usize {
        self.g1.spaces.len()
    }

    /// The space backing logical generation `gen`.
    ///
    /// # Errors
    ///
    /// [`GcError::UnknownGeneration`] if the generation was never created.
    pub fn space_of(&self, gen: GenId) -> Result<SpaceId, GcError> {
        self.g1
            .spaces
            .get(gen.raw() as usize)
            .copied()
            .ok_or(GcError::UnknownGeneration { gen: gen.raw() })
    }
}

impl Collector for Ng2cCollector {
    fn name(&self) -> &'static str {
        "NG2C"
    }

    fn attach(&mut self, heap: &mut Heap) {
        // Generation 1 is G1's old generation (the age-out target).
        self.g1.attach(heap);
    }

    fn alloc(
        &mut self,
        heap: &mut Heap,
        req: AllocRequest,
        roots: &SafepointRoots<'_>,
    ) -> Result<AllocOutcome, GcError> {
        let space = if req.pretenure {
            self.space_of(self.target_gen(req.thread))?
        } else {
            Heap::YOUNG_SPACE
        };
        self.g1.alloc_in(heap, req, space, roots)
    }

    fn collect(&mut self, heap: &mut Heap, roots: &SafepointRoots<'_>) -> Vec<PauseEvent> {
        self.g1.collect(heap, roots)
    }

    fn new_generation(&mut self, heap: &mut Heap) -> GenId {
        let gen = GenId::new(self.g1.spaces.len() as u32);
        self.g1.spaces.push(heap.create_space(gen, None));
        gen
    }

    fn set_target_gen(&mut self, thread: ThreadId, gen: GenId) -> Result<GenId, GcError> {
        self.space_of(gen)?;
        Ok(self.targets.insert(thread, gen).unwrap_or(GenId::YOUNG))
    }

    fn target_gen(&self, thread: ThreadId) -> GenId {
        self.targets.get(&thread).copied().unwrap_or(GenId::YOUNG)
    }

    fn emergency_collections(&self) -> u64 {
        self.g1.emergency_collections()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::{HeapConfig, SiteId};

    fn setup() -> (Heap, Ng2cCollector) {
        let mut heap = Heap::new(HeapConfig::small());
        let mut gc = Ng2cCollector::new(GcConfig::default());
        gc.attach(&mut heap);
        (heap, gc)
    }

    fn req(heap: &mut Heap, size: u32, pretenure: bool) -> AllocRequest {
        AllocRequest {
            class: heap.classes_mut().intern("T"),
            size,
            site: SiteId::new(0),
            pretenure,
            thread: ThreadId::new(0),
        }
    }

    #[test]
    fn attach_creates_young_and_old() {
        let (_, gc) = setup();
        assert_eq!(gc.generation_count(), 2);
        assert_eq!(gc.space_of(GenId::YOUNG).unwrap(), Heap::YOUNG_SPACE);
        assert!(gc.space_of(GenId::new(2)).is_err());
    }

    #[test]
    fn target_generation_api_round_trips() {
        let (mut heap, mut gc) = setup();
        let t = ThreadId::new(7);
        assert_eq!(gc.target_gen(t), GenId::YOUNG);
        let g2 = gc.new_generation(&mut heap);
        assert_eq!(g2, GenId::new(2));
        let prev = gc.set_target_gen(t, g2).unwrap();
        assert_eq!(prev, GenId::YOUNG);
        assert_eq!(gc.target_gen(t), g2);
        let prev = gc.set_target_gen(t, GenId::YOUNG).unwrap();
        assert_eq!(prev, g2);
        assert!(gc.set_target_gen(t, GenId::new(9)).is_err());
    }

    #[test]
    fn pretenured_allocation_lands_in_target_generation() {
        let (mut heap, mut gc) = setup();
        let t = ThreadId::new(0);
        let gen = gc.new_generation(&mut heap);
        gc.set_target_gen(t, gen).unwrap();
        let r = req(&mut heap, 256, true);
        let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
        assert_eq!(
            heap.object(out.object).unwrap().space(),
            gc.space_of(gen).unwrap()
        );
        assert_eq!(heap.object(out.object).unwrap().allocated_gen(), gen);
        // Non-pretenured allocation still goes young.
        let r = req(&mut heap, 256, false);
        let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
        assert_eq!(heap.object(out.object).unwrap().space(), Heap::YOUNG_SPACE);
    }

    #[test]
    fn pretenuring_reduces_copying_for_cohort_lifetimes() {
        // A memtable-style cohort: N objects live together, then die together.
        // Compare collector work with and without pretenuring.
        let run = |pretenure: bool| -> (u64, u64) {
            let (mut heap, mut gc) = setup();
            let t = ThreadId::new(0);
            if pretenure {
                let gen = gc.new_generation(&mut heap);
                gc.set_target_gen(t, gen).unwrap();
            }
            let slot = heap.roots_mut().create_slot("memtable");
            let mut moved = 0u64;
            let mut freed_whole = 0u64;
            for _batch in 0..6 {
                let mut cohort = Vec::new();
                // Allocate a cohort that outlives several young collections.
                for _ in 0..512 {
                    let r = req(&mut heap, 2048, pretenure);
                    let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
                    for p in &out.pauses {
                        moved += p.work.moved_bytes();
                        freed_whole += p.work.freed_regions;
                    }
                    heap.roots_mut().push(slot, out.object);
                    cohort.push(out.object);
                }
                // Churn young garbage so collections happen while the cohort lives.
                for _ in 0..512 {
                    let r = req(&mut heap, 2048, false);
                    let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
                    for p in &out.pauses {
                        moved += p.work.moved_bytes();
                        freed_whole += p.work.freed_regions;
                    }
                }
                // Flush: the whole cohort dies at once.
                heap.roots_mut().clear_slot(slot);
            }
            (moved, freed_whole)
        };
        let (moved_plain, _) = run(false);
        let (moved_pretenured, freed_pretenured) = run(true);
        assert!(
            moved_pretenured * 2 < moved_plain,
            "pretenuring should at least halve moved bytes: {moved_pretenured} vs {moved_plain}"
        );
        assert!(freed_pretenured > 0, "cohort regions should be freed whole");
    }

    #[test]
    fn generation_spaces_are_reclaimed_when_cohorts_die() {
        let (mut heap, mut gc) = setup();
        let t = ThreadId::new(0);
        let gen = gc.new_generation(&mut heap);
        gc.set_target_gen(t, gen).unwrap();
        let slot = heap.roots_mut().create_slot("cohort");
        for _ in 0..256 {
            let r = req(&mut heap, 4096, true);
            let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
            heap.roots_mut().push(slot, out.object);
        }
        let space = gc.space_of(gen).unwrap();
        assert!(heap.used_bytes(space).unwrap() > 0);
        heap.roots_mut().clear_slot(slot);
        gc.collect(&mut heap, &SafepointRoots::none());
        assert_eq!(
            heap.used_bytes(space).unwrap(),
            0,
            "dead cohort space must drain"
        );
        heap.check_invariants();
    }

    #[test]
    fn distinct_threads_have_distinct_targets() {
        let (mut heap, mut gc) = setup();
        let g2 = gc.new_generation(&mut heap);
        let g3 = gc.new_generation(&mut heap);
        gc.set_target_gen(ThreadId::new(1), g2).unwrap();
        gc.set_target_gen(ThreadId::new(2), g3).unwrap();
        assert_eq!(gc.target_gen(ThreadId::new(1)), g2);
        assert_eq!(gc.target_gen(ThreadId::new(2)), g3);
        assert_eq!(gc.target_gen(ThreadId::new(3)), GenId::YOUNG);
    }
}
