//! The C4-like concurrent collector model.

use polm2_heap::{GenId, Heap, SpaceId};

use crate::collector::{
    alloc_ladder, collect_full, collect_young, over_mixed_trigger, pool_pressure, AllocOutcome,
    AllocRequest, Collector, Rung, SafepointRoots,
};
use crate::{GcConfig, GcError, GcKind, GcWork, PauseEvent};

/// Barrier tax in permille of each mutator operation's base cost (28%).
const BARRIER_PERMILLE: u32 = 280;
/// Upper bound on any single safepoint (8 ms).
const MAX_PHASE_PAUSE_US: u64 = 8_000;

/// Azul's Continuously Concurrent Compacting Collector, as the paper models
/// it.
///
/// The paper reports three observables for C4 and this model reproduces all
/// three:
///
/// 1. **Pauses** — "the duration of all pauses fall below 10 ms" (§5): the
///    heavy lifting happens concurrently; only short phase-flip safepoints
///    stop the world. Reclamation work is still *performed* (the heap must
///    stay healthy) but is not charged to pauses.
/// 2. **Throughput** — worst of all collectors (Figures 7–8), because every
///    mutator operation pays a read/write-barrier tax
///    ([`mutator_overhead_permille`](Collector::mutator_overhead_permille)).
/// 3. **Memory** — the process pre-reserves the entire heap at launch
///    (Figure 9 text: "results for C4 would be close to 2" for Cassandra), so
///    [`reported_committed_bytes`](Collector::reported_committed_bytes)
///    returns the full heap size.
#[derive(Debug)]
pub struct C4Collector {
    config: GcConfig,
    old: Option<SpaceId>,
    /// Last-resort full cycles forced by a failed allocation.
    emergency_collections: u64,
}

impl C4Collector {
    /// Creates a C4 collector with the given tuning, a 28% barrier tax and
    /// an 8 ms phase-pause bound.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`GcConfig::validate`].
    pub fn new(config: GcConfig) -> Self {
        config.validate().expect("invalid GC configuration");
        C4Collector {
            config,
            old: None,
            emergency_collections: 0,
        }
    }

    fn old_space(&self) -> SpaceId {
        self.old.expect("collector not attached")
    }

    /// Prices a concurrent cycle: four phase-flip safepoints, each bounded.
    /// Phase pauses grow with the number of threadsworth of roots, not with
    /// heap size — modeled as a slice of the safepoint cost plus a small
    /// work-dependent term, clamped to the bound.
    fn phase_pauses(&self, work: &GcWork) -> Vec<PauseEvent> {
        let base = self.config.cost.safepoint_us / 2;
        let phases = [
            base + (work.traced_objects / 2_000),
            base + (work.traced_objects / 4_000),
            base + (work.swept_objects / 4_000),
            base,
        ];
        phases
            .into_iter()
            .map(|us| PauseEvent {
                kind: GcKind::ConcurrentPhase,
                pause: polm2_metrics::SimDuration::from_micros(us.min(MAX_PHASE_PAUSE_US)),
                work: GcWork::default(),
            })
            .collect()
    }

    /// One concurrent cycle: young only, or, when `full` or past the mixed
    /// trigger, a full mark that also compacts the old space (promoting
    /// every survivor only when `full`).
    fn cycle(
        &mut self,
        heap: &mut Heap,
        roots: &SafepointRoots<'_>,
        full: bool,
    ) -> Result<Vec<PauseEvent>, GcError> {
        let old = self.old_space();
        let work = if full || over_mixed_trigger(heap, self.config.mixed_trigger_fraction) {
            let threshold = if full {
                0
            } else {
                self.config.tenure_threshold
            };
            collect_full(heap, roots, &self.config, threshold, &[old])?
        } else {
            collect_young(heap, roots, &self.config, old)?
        };
        // Cycle boundary: let the backend run deferred allocator
        // maintenance (tenured free-list coalescing).
        heap.note_gc_cycle_finished();
        Ok(self.phase_pauses(&work))
    }
}

impl Collector for C4Collector {
    fn name(&self) -> &'static str {
        "C4"
    }

    fn attach(&mut self, heap: &mut Heap) {
        assert!(self.old.is_none(), "collector already attached");
        self.old = Some(heap.create_space(GenId::new(1), None));
        heap.set_gc_workers(self.config.gc_workers);
    }

    fn alloc(
        &mut self,
        heap: &mut Heap,
        req: AllocRequest,
        roots: &SafepointRoots<'_>,
    ) -> Result<AllocOutcome, GcError> {
        alloc_ladder(heap, &req, Heap::YOUNG_SPACE, |heap, rung, pauses| {
            let full = match rung {
                Rung::PoolPressure => true,
                Rung::Retry => pool_pressure(heap),
                Rung::Emergency => {
                    self.emergency_collections += 1;
                    true
                }
            };
            pauses.extend(self.cycle(heap, roots, full)?);
            Ok(())
        })
    }

    fn collect(&mut self, heap: &mut Heap, roots: &SafepointRoots<'_>) -> Vec<PauseEvent> {
        self.cycle(heap, roots, true).unwrap_or_default()
    }

    fn mutator_overhead_permille(&self) -> u32 {
        BARRIER_PERMILLE
    }

    fn reported_committed_bytes(&self, heap: &Heap) -> u64 {
        heap.config().total_bytes
    }

    fn emergency_collections(&self) -> u64 {
        self.emergency_collections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::{HeapConfig, SiteId};
    use polm2_metrics::SimDuration;

    use crate::ThreadId;

    fn setup() -> (Heap, C4Collector) {
        let mut heap = Heap::new(HeapConfig::small());
        let mut gc = C4Collector::new(GcConfig::default());
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
    fn all_pauses_stay_below_ten_ms() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 4096);
        let slot = heap.roots_mut().create_slot("keep");
        for i in 0..3000 {
            let out = gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
            if i % 3 == 0 {
                heap.roots_mut().push(slot, out.object);
            }
            if i % 500 == 0 {
                heap.roots_mut().clear_slot(slot);
            }
            for p in &out.pauses {
                assert!(
                    p.pause < SimDuration::from_millis(10),
                    "C4 pause {} exceeds the paper's 10 ms bound",
                    p.pause
                );
                assert_eq!(p.kind, GcKind::ConcurrentPhase);
            }
        }
        heap.check_invariants();
    }

    #[test]
    fn barrier_tax_and_memory_reservation() {
        let (heap, gc) = setup();
        assert_eq!(gc.mutator_overhead_permille(), 280);
        assert_eq!(
            gc.reported_committed_bytes(&heap),
            heap.config().total_bytes
        );
    }

    #[test]
    fn heap_stays_healthy_under_churn() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 2048);
        for _ in 0..5000 {
            gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
        }
        // All garbage: the concurrent cycles must have kept occupancy bounded.
        assert!(heap.object_count() < 3000, "dead objects must be reclaimed");
        heap.check_invariants();
    }

    #[test]
    fn forced_collect_emits_phase_pauses() {
        let (mut heap, mut gc) = setup();
        let r = req(&mut heap, 1024);
        gc.alloc(&mut heap, r, &SafepointRoots::none()).unwrap();
        let pauses = gc.collect(&mut heap, &SafepointRoots::none());
        assert_eq!(pauses.len(), 4);
    }
}
