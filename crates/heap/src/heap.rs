//! The heap façade: allocation, mutation, marking, relocation, reclamation.
//!
//! # Panic policy (audited for PR 10)
//!
//! Every panic reachable through the public API by *misuse* — releasing a
//! region that still holds live objects, nesting evacuations, naming an
//! evacuation victim from the wrong space — has been converted to a typed
//! [`HeapError`] (`region-empty-on-release`, `no-nested-evacuation`,
//! `victim-in-space`). The `expect`s that remain fall into exactly two
//! classes, both programming errors rather than runtime states:
//!
//! * **internal bookkeeping invariants** the heap itself maintains (a live
//!   slab slot always has a record, page occupancy counts never underflow,
//!   a fresh region fits a size validated against `region_bytes`) — the
//!   integrity verifier ([`Heap::verify_integrity`]) checks the same facts
//!   non-fatally, so a corrupted process reports a typed
//!   `IntegrityViolation` at the next safepoint instead of relying on these;
//! * **constructor contracts**: [`Heap::new`] panics on a config that fails
//!   [`HeapConfig::validate`], which is documented and unreachable from the
//!   CLI (flag parsing enforces `--heap-mb ≥ 1` MiB ≥ `region_bytes`).

use std::sync::atomic::AtomicU32;
use std::time::Instant;

use polm2_metrics::RememberedSetChurn;

use crate::backend::{BackendKind, BackendStats, HeapBackend, RealBackend, SimBackend};
use crate::evac::{self, DropEntry, EvacDecision, MoveEntry};
use crate::fasthash::IdHashSet;
use crate::mark;

use crate::{
    Addr, ClassId, ClassRegistry, GenId, HeapConfig, HeapError, HeapStats, ObjectId, ObjectRecord,
    PageTable, Region, RegionId, RootTable, SiteId, Space, SpaceId,
};

/// Integrity verification and corruption planting (child module so it can
/// re-derive invariants straight from the private bookkeeping fields).
#[path = "verify.rs"]
mod verify;
pub use verify::{CorruptionKind, PlantedCorruption};

/// Default break-even: below this many live records a sharded mark is not
/// worth the thread scaffolding, and `mark_live*` falls back to the serial
/// tracer (whose output is bit-identical by construction). Measured on the
/// synthetic GC churn workloads frozen in `BENCH_gc.json`: the small one
/// (~5.5k records) loses wall-clock to spawn/join overhead at any worker
/// count, while marks past ~16k records start amortizing it.
const MIN_PARALLEL_MARK_RECORDS: usize = 16384;

/// Default break-even: below this many batched evacuation ops the fix-up
/// phase applies serially (same measurement basis as the mark threshold;
/// fix-up does less work per op than marking, so the bar is lower).
const MIN_PARALLEL_EVAC_OPS: usize = 8192;

/// Default break-even: below this many payload bytes in one batch the
/// evacuation copy phase runs on one thread — memcpying less than ~1 MiB
/// finishes faster than the workers can be spawned.
const MIN_PARALLEL_COPY_BYTES: u64 = 1 << 20;

/// When the GC safepoint phases actually fan out across worker threads.
///
/// `gc_workers` is a *configuration* — output is bit-identical at any value —
/// but spawning scoped threads below the break-even, or beyond the machine's
/// cores, makes the pause *slower* (the regression `BENCH_gc.json` recorded
/// before PR 8). The tuning separates the two: thresholds gate small work
/// onto the serial path, and `respect_cpu_budget` caps the fan-out at
/// `available_parallelism`. Tests that must exercise the parallel code paths
/// regardless of host size use [`ParallelTuning::force`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelTuning {
    /// Minimum live records before a mark shards across workers.
    pub min_mark_records: usize,
    /// Minimum batched ops before the evacuation fix-up fans out.
    pub min_evac_ops: usize,
    /// Minimum payload bytes in one batch before the evacuation copy phase
    /// fans out across workers (real backend only; the partition itself is
    /// always computed, only the thread spawn is gated).
    pub min_copy_bytes: u64,
    /// Cap the effective worker count at the host's available parallelism.
    pub respect_cpu_budget: bool,
}

impl ParallelTuning {
    /// Forces the parallel paths on: zero thresholds, no CPU cap. For
    /// determinism tests; never faster in production.
    pub fn force() -> Self {
        ParallelTuning {
            min_mark_records: 0,
            min_evac_ops: 0,
            min_copy_bytes: 0,
            respect_cpu_budget: false,
        }
    }
}

impl Default for ParallelTuning {
    fn default() -> Self {
        ParallelTuning {
            min_mark_records: MIN_PARALLEL_MARK_RECORDS,
            min_evac_ops: MIN_PARALLEL_EVAC_OPS,
            min_copy_bytes: MIN_PARALLEL_COPY_BYTES,
            respect_cpu_budget: true,
        }
    }
}

/// Retired `(bits, order)` buffer pairs kept for reuse by later marks.
const MAX_RETIRED_LIVE_BUFFERS: usize = 4;

/// Slot-table sentinel: the id has no record (dead, or not yet allocated).
pub(crate) const DEAD_SLOT: u32 = u32::MAX;

#[inline]
pub(crate) fn bit_set(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1u64 << (i & 63);
}

#[inline]
pub(crate) fn bit_get(bits: &[u64], i: usize) -> bool {
    bits.get(i >> 6)
        .is_some_and(|w| w & (1u64 << (i & 63)) != 0)
}

/// Rebuilds `order` as the ascending-id enumeration of the set bits — the
/// canonical [`LiveSet::order`]. Sort-free: one pass over the bitmap with
/// zero-word skips, so serial and sharded marks produce identical orders.
pub(crate) fn order_from_bits(bits: &[u64], order: &mut Vec<ObjectId>) {
    order.clear();
    for (w, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let b = word.trailing_zeros() as usize;
            order.push(ObjectId::new(((w << 6) + b) as u64));
            word &= word - 1;
        }
    }
}

/// Two-level slab lookup shared by `Heap::object` and the retain closures
/// (free function so callers can hold disjoint field borrows).
#[inline]
fn slab_get<'a>(
    slots: &[u32],
    records: &'a [Option<ObjectRecord>],
    id: ObjectId,
) -> Option<&'a ObjectRecord> {
    match slots.get(id.index()).copied() {
        Some(slot) if slot != DEAD_SLOT => records[slot as usize].as_ref(),
        _ => None,
    }
}

/// The result of a marking pass: which objects are reachable and how much
/// they weigh.
///
/// Produced by [`Heap::mark_live`]; consumed by collectors (to decide what to
/// copy or sweep), by the Dumper's no-need walk, and by the Analyzer's
/// snapshot contents. Membership is a dense bitmap over the ids allocated
/// when the mark ran — ids issued later test not-live, exactly as they would
/// have against the seed's hash set.
#[derive(Debug, Clone)]
pub struct LiveSet {
    /// Membership bitmap indexed by `ObjectId::index()`.
    bits: Vec<u64>,
    /// Live objects in canonical ascending object-id order. The canonical
    /// order (rather than BFS discovery order) makes the returned set
    /// independent of how the mark was sharded across workers.
    order: Vec<ObjectId>,
    live_bytes: u64,
}

impl LiveSet {
    /// True if `obj` was reachable at mark time.
    pub fn contains(&self, obj: ObjectId) -> bool {
        bit_get(&self.bits, obj.index())
    }

    /// Live objects in canonical ascending object-id order (identical at any
    /// `gc_workers` count).
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.order.iter().copied()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if nothing was reachable.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total bytes of live objects.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }
}

/// Shared marking machinery over the slab table.
///
/// Holds disjoint borrows of the heap fields a trace mutates so root
/// iteration can proceed from the (unborrowed) root table. Discovery order
/// doubles as the BFS queue: `trace` scans `order` by index, which visits
/// nodes in exactly the order the seed's explicit `VecDeque` did.
struct MarkCtx<'a> {
    epoch: u32,
    slots: &'a [u32],
    records: &'a mut [Option<ObjectRecord>],
    bits: Vec<u64>,
    order: Vec<ObjectId>,
    region_live: Vec<u32>,
    live_bytes: u64,
    young_only: bool,
}

impl MarkCtx<'_> {
    fn visit(&mut self, id: ObjectId) {
        let Some(&slot) = self.slots.get(id.index()) else {
            return;
        };
        if slot == DEAD_SLOT {
            return;
        }
        let rec = self.records[slot as usize]
            .as_mut()
            .expect("live slot has a record");
        if rec.mark_epoch() == self.epoch {
            return;
        }
        if self.young_only && rec.space() != Heap::YOUNG_SPACE {
            return;
        }
        rec.set_mark_epoch(self.epoch);
        bit_set(&mut self.bits, id.index());
        self.order.push(id);
        self.live_bytes += u64::from(rec.size());
        self.region_live[rec.addr().region.index()] += rec.size();
    }

    fn trace(&mut self) {
        let mut scratch: Vec<ObjectId> = Vec::new();
        let mut i = 0;
        while i < self.order.len() {
            let id = self.order[i];
            i += 1;
            let slot = self.slots[id.index()] as usize;
            // One reusable scratch buffer instead of a fresh clone per node.
            scratch.clear();
            scratch.extend_from_slice(self.records[slot].as_ref().expect("marked record").refs());
            for &child in scratch.iter() {
                self.visit(child);
            }
        }
    }
}

/// The simulated managed heap.
///
/// See the [crate documentation](crate) for the layout model and an example.
#[derive(Debug)]
pub struct Heap {
    config: HeapConfig,
    classes: ClassRegistry,
    roots: RootTable,
    /// Two-level slab object table. `slots[id.index()]` holds the record's
    /// slot in `records` (or [`DEAD_SLOT`]). Object ids are never reused, so
    /// `slots` grows one entry per allocation; record slots are recycled
    /// through `free_slots`, keeping `records` proportional to the live
    /// population. Lookups are two array loads — no hashing per edge.
    slots: Vec<u32>,
    records: Vec<Option<ObjectRecord>>,
    free_slots: Vec<u32>,
    live_records: usize,
    next_object: u64,
    regions: Vec<Region>,
    /// Free pool; regions are handed out lowest-id first.
    free_regions: Vec<RegionId>,
    spaces: Vec<Space>,
    /// Regions detached from their space for evacuation (still assigned, not
    /// allocatable). See [`Heap::begin_evacuation`].
    evacuating: Vec<RegionId>,
    page_table: PageTable,
    mark_epoch: u32,
    /// Incremental page occupancy: how many object records overlap each
    /// page, adjusted at allocate time and by every evacuation move or
    /// drop. `> 0` means the page holds object bytes (reachable or
    /// not-yet-swept).
    page_object_counts: Vec<u32>,
    /// Remembered set: young objects referenced from non-young objects
    /// (appended by the `add_ref` write barrier, pruned after each young
    /// collection). Lets minor collections avoid tracing the old spaces.
    remembered: Vec<ObjectId>,
    /// Retained dedup scratch for [`Heap::prune_remembered`] — cleared in
    /// place each prune instead of rebuilding the table.
    remembered_scratch: IdHashSet<ObjectId>,
    /// Remembered-set traffic counters (bench- and CLI-visible).
    remembered_churn: RememberedSetChurn,
    /// Worker threads used inside GC safepoints (mark + evacuate fix-up).
    /// `1` keeps every path serial; any value yields bit-identical output.
    gc_workers: usize,
    /// When the safepoint phases actually fan out (see [`ParallelTuning`]).
    tuning: ParallelTuning,
    /// `available_parallelism()` cached at construction; caps the effective
    /// worker count when `tuning.respect_cpu_budget` is set.
    cpu_budget: usize,
    /// Memory behavior behind the logical address layout (see
    /// [`crate::backend`]). Never influences placement.
    backend: Box<dyn HeapBackend>,
    /// Per-record claim stamps for the sharded mark, indexed by record slot.
    /// A slot is claimed for the current epoch by an atomic swap; stale
    /// stamps never equal a fresh epoch because epochs strictly increase.
    mark_stamps: Vec<AtomicU32>,
    /// Retained per-mark region live-byte accumulator (cleared in place).
    region_live_scratch: Vec<u32>,
    /// Bounded pool of retired `(bits, order)` buffers from consumed
    /// [`LiveSet`]s, reused by later marks (see [`Heap::retire_live_set`]).
    retired_live_buffers: Vec<(Vec<u64>, Vec<ObjectId>)>,
    /// Completed integrity-verifier passes (see `verify.rs`). Deliberately
    /// outside [`HeapStats`]: verification must never change any state a
    /// trajectory fingerprint could see.
    verify_passes: u64,
    stats: HeapStats,
}

impl Heap {
    /// The space id of the always-present young generation.
    pub const YOUNG_SPACE: SpaceId = SpaceId::new(0);

    /// Creates a heap with the given geometry. The young generation (space 0)
    /// exists from the start, budgeted to `config.young_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`HeapConfig::validate`].
    pub fn new(config: HeapConfig) -> Self {
        config.validate().expect("invalid heap configuration");
        let region_count = config.region_count();
        let pages_per_region = config.pages_per_region();
        let regions: Vec<Region> = (0..region_count)
            .map(|i| Region::new(RegionId::new(i), crate::PageId::new(i * pages_per_region)))
            .collect();
        let free_regions: Vec<RegionId> = (0..region_count).rev().map(RegionId::new).collect();
        let mut page_table = PageTable::new(
            config.page_count(),
            pages_per_region,
            config.page_bytes as u32,
        );
        // Unassigned regions hold no live data.
        for p in 0..config.page_count() {
            page_table.set_no_need(p, true);
        }
        let young = Space::new(
            Heap::YOUNG_SPACE,
            GenId::YOUNG,
            Some(config.young_region_budget()),
        );
        let page_count = config.page_count() as usize;
        let backend: Box<dyn HeapBackend> = match config.backend {
            BackendKind::Sim => Box::new(SimBackend),
            BackendKind::Real => Box::new(RealBackend::new(&config)),
        };
        let cpu_budget = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Heap {
            config,
            classes: ClassRegistry::new(),
            roots: RootTable::new(),
            slots: Vec::new(),
            records: Vec::new(),
            free_slots: Vec::new(),
            live_records: 0,
            next_object: 0,
            regions,
            free_regions,
            spaces: vec![young],
            evacuating: Vec::new(),
            page_table,
            mark_epoch: 0,
            page_object_counts: vec![0; page_count],
            remembered: Vec::new(),
            remembered_scratch: IdHashSet::default(),
            remembered_churn: RememberedSetChurn::default(),
            gc_workers: 1,
            tuning: ParallelTuning::default(),
            cpu_budget,
            backend,
            mark_stamps: Vec::new(),
            region_live_scratch: Vec::new(),
            retired_live_buffers: Vec::new(),
            verify_passes: 0,
            stats: HeapStats::default(),
        }
    }

    /// Worker threads used inside GC safepoints (see [`set_gc_workers`]).
    ///
    /// [`set_gc_workers`]: Heap::set_gc_workers
    pub fn gc_workers(&self) -> usize {
        self.gc_workers
    }

    /// Sets the number of worker threads the mark and evacuation fix-up
    /// phases may use behind a safepoint. Values below 1 clamp to 1. Output
    /// is bit-identical at any worker count; this only trades wall-clock
    /// time inside the pause.
    pub fn set_gc_workers(&mut self, workers: usize) {
        self.gc_workers = workers.max(1);
    }

    /// Replaces the break-even tuning (see [`ParallelTuning`]). Output is
    /// bit-identical under any tuning; this only moves the serial/parallel
    /// crossover.
    pub fn set_parallel_tuning(&mut self, tuning: ParallelTuning) {
        self.tuning = tuning;
    }

    /// Worker threads a safepoint phase will actually use: `gc_workers`,
    /// capped at the host's available parallelism when the tuning says to
    /// respect it. Fanning out past the core count can only slow a pause.
    fn effective_gc_workers(&self) -> usize {
        if self.tuning.respect_cpu_budget {
            self.gc_workers.min(self.cpu_budget).max(1)
        } else {
            self.gc_workers
        }
    }

    /// Which memory backend this heap runs on.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// The backend's byte counters (real bytes written/copied; all zero for
    /// the sim backend).
    pub fn backend_stats(&self) -> BackendStats {
        self.backend.stats()
    }

    /// Tells the backend one GC cycle just completed so it can run deferred
    /// allocator maintenance (tenured free-list coalescing). Collectors call
    /// this once at the end of `collect`; it never touches logical state.
    pub fn note_gc_cycle_finished(&mut self) {
        self.backend.gc_cycle_finished();
    }

    /// The heap geometry.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// The class intern table.
    pub fn classes(&self) -> &ClassRegistry {
        &self.classes
    }

    /// Mutable access to the class intern table.
    pub fn classes_mut(&mut self) -> &mut ClassRegistry {
        &mut self.classes
    }

    /// The root table.
    pub fn roots(&self) -> &RootTable {
        &self.roots
    }

    /// Mutable access to the root table.
    pub fn roots_mut(&mut self) -> &mut RootTable {
        &mut self.roots
    }

    /// Cumulative allocation/reclamation counters.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// The kernel-style page table (dirty / no-need bits).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Mutable access to the page table (used by the Dumper to clear dirty
    /// bits after a snapshot).
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    // ------------------------------------------------------------------
    // Spaces
    // ------------------------------------------------------------------

    /// Creates a new space representing logical generation `gen`.
    ///
    /// `region_budget` bounds the space (young is bounded; older spaces are
    /// usually unbounded, competing for the shared pool).
    pub fn create_space(&mut self, gen: GenId, region_budget: Option<u32>) -> SpaceId {
        let id = SpaceId::new(self.spaces.len() as u32);
        self.spaces.push(Space::new(id, gen, region_budget));
        id
    }

    /// All spaces, creation order.
    pub fn spaces(&self) -> &[Space] {
        &self.spaces
    }

    /// One space.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchSpace`] for an unknown id.
    pub fn space(&self, id: SpaceId) -> Result<&Space, HeapError> {
        self.spaces
            .get(id.index())
            .ok_or(HeapError::NoSuchSpace { space: id })
    }

    /// One region.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (region ids are created only by this
    /// heap, so an out-of-range id is a logic error).
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// All regions (free and assigned).
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of regions in the free pool.
    pub fn free_region_count(&self) -> u32 {
        self.free_regions.len() as u32
    }

    // ------------------------------------------------------------------
    // Allocation & mutation
    // ------------------------------------------------------------------

    /// Allocates an object of `size` bytes of class `class` from allocation
    /// site `site` into `space`.
    ///
    /// # Errors
    ///
    /// * [`HeapError::ObjectTooLarge`] if `size` exceeds one region.
    /// * [`HeapError::SpaceFull`] if the space is at its region budget —
    ///   the young generation signals a collection this way.
    /// * [`HeapError::OutOfRegions`] if the shared pool is empty.
    /// * [`HeapError::NoSuchSpace`] for an unknown space.
    pub fn allocate(
        &mut self,
        class: ClassId,
        size: u32,
        site: SiteId,
        space: SpaceId,
    ) -> Result<ObjectId, HeapError> {
        let gen = self.space(space)?.gen();
        let addr = self.bump_into(space, size)?;
        let id = ObjectId::new(self.next_object);
        self.next_object += 1;
        let record = ObjectRecord::new(id, class, site, size, space, gen, addr);
        self.backend
            .write_object(addr, size, record.identity_hash());
        self.regions[addr.region.index()].push_object(id);
        // Objects allocated after the last mark are conservatively counted
        // live; marking recomputes the truth.
        let live = self.regions[addr.region.index()].live_bytes();
        self.regions[addr.region.index()].set_live_bytes(live + size);
        self.page_table.mark_dirty_range(addr, size);
        self.page_table.clear_no_need_range(addr, size);
        let (first, last) = self.page_table.pages_of(addr, size);
        for p in first..=last {
            self.page_object_counts[p as usize] += 1;
        }
        debug_assert_eq!(self.slots.len(), id.index(), "slot table out of step");
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.records[slot as usize] = Some(record);
                slot
            }
            None => {
                self.records.push(Some(record));
                (self.records.len() - 1) as u32
            }
        };
        self.slots.push(slot);
        self.live_records += 1;
        self.stats.allocated_objects += 1;
        self.stats.allocated_bytes += u64::from(size);
        Ok(id)
    }

    fn bump_into(&mut self, space: SpaceId, size: u32) -> Result<Addr, HeapError> {
        let capacity = self.config.region_bytes as u32;
        if size > capacity {
            return Err(HeapError::ObjectTooLarge {
                size: u64::from(size),
                max: u64::from(capacity),
            });
        }
        if space.index() >= self.spaces.len() {
            return Err(HeapError::NoSuchSpace { space });
        }
        // Try the current allocation region.
        if let Some(region) = self.spaces[space.index()].current_region() {
            if let Some(offset) = self.regions[region.index()].try_bump(size, capacity) {
                return Ok(Addr { region, offset });
            }
        }
        // Acquire a fresh region.
        if self.spaces[space.index()].at_budget() {
            return Err(HeapError::SpaceFull { space });
        }
        // Hard commit budget (`--heap-mb`): committing one more region past
        // the limit fails typed instead of drawing from the pool. Committed
        // bytes are purely logical, so the check is bit-identical on either
        // backend. Exempt while an evacuation is in flight — denying the
        // collector a to-space region mid-copy could wedge the emergency
        // collection that is supposed to relieve the pressure.
        if let Some(limit) = self.config.limit_bytes {
            if self.evacuating.is_empty()
                && self.committed_bytes() + self.config.region_bytes > limit
            {
                return Err(HeapError::OutOfMemory {
                    requested: u64::from(size),
                    limit_bytes: limit,
                });
            }
        }
        let region = self
            .free_regions
            .pop()
            .ok_or(HeapError::OutOfRegions { space })?;
        self.regions[region.index()].assign(space);
        self.backend
            .ensure_region(region, space == Heap::YOUNG_SPACE);
        self.spaces[space.index()].push_region(region);
        let offset = self.regions[region.index()]
            .try_bump(size, capacity)
            .expect("fresh region fits a validated size");
        Ok(Addr { region, offset })
    }

    /// The record of a live object.
    pub fn object(&self, id: ObjectId) -> Option<&ObjectRecord> {
        slab_get(&self.slots, &self.records, id)
    }

    fn record_mut(&mut self, id: ObjectId) -> Option<&mut ObjectRecord> {
        match self.slots.get(id.index()).copied() {
            Some(slot) if slot != DEAD_SLOT => self.records[slot as usize].as_mut(),
            _ => None,
        }
    }

    /// Number of live object records.
    pub fn object_count(&self) -> usize {
        self.live_records
    }

    /// Number of object records overlapping `page` (incremental occupancy
    /// accounting; `0` means the page holds no object bytes). Counts every
    /// undropped record, reachable or not.
    pub fn page_object_count(&self, page: u32) -> u32 {
        self.page_object_counts[page as usize]
    }

    /// Adds a reference edge `parent -> child` (a field write: the parent's
    /// memory is dirtied).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchObject`] if either end is not live.
    pub fn add_ref(&mut self, parent: ObjectId, child: ObjectId) -> Result<(), HeapError> {
        let child_space = self
            .object(child)
            .map(|r| r.space())
            .ok_or(HeapError::NoSuchObject { object: child })?;
        let record = self
            .record_mut(parent)
            .ok_or(HeapError::NoSuchObject { object: parent })?;
        record.refs_mut().push(child);
        let (addr, size, parent_space) = (record.addr(), record.size(), record.space());
        self.page_table.mark_dirty_range(addr, size);
        // Generational write barrier: remember old->young edges so minor
        // collections need not trace the old spaces.
        if parent_space != Heap::YOUNG_SPACE && child_space == Heap::YOUNG_SPACE {
            self.remembered.push(child);
            self.remembered_churn.recorded += 1;
        }
        Ok(())
    }

    /// Removes one occurrence of the edge `parent -> child`; returns whether
    /// it was present.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchObject`] if `parent` is not live.
    pub fn remove_ref(&mut self, parent: ObjectId, child: ObjectId) -> Result<bool, HeapError> {
        let record = self
            .record_mut(parent)
            .ok_or(HeapError::NoSuchObject { object: parent })?;
        let refs = record.refs_mut();
        let removed = if let Some(pos) = refs.iter().position(|&o| o == child) {
            refs.swap_remove(pos);
            true
        } else {
            false
        };
        if removed {
            let (addr, size) = (record.addr(), record.size());
            self.page_table.mark_dirty_range(addr, size);
        }
        Ok(removed)
    }

    /// Records a plain field write to `obj` (dirties its pages without
    /// changing the reference graph) — e.g. updating a counter inside a
    /// vertex object.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchObject`] if `obj` is not live.
    pub fn write_field(&mut self, obj: ObjectId) -> Result<(), HeapError> {
        let (addr, size) = self
            .object(obj)
            .map(|r| (r.addr(), r.size()))
            .ok_or(HeapError::NoSuchObject { object: obj })?;
        self.page_table.mark_dirty_range(addr, size);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Marking
    // ------------------------------------------------------------------

    /// Marks every object reachable from the root table plus `extra_roots`
    /// (mutator stack roots supplied by the runtime).
    ///
    /// Updates each assigned region's `live_bytes` so collectors and the
    /// no-need walk can reason about occupancy.
    ///
    /// Visited state is an epoch stamp in each record's header — no per-trace
    /// hash set — and every edge dereference is a slab index.
    pub fn mark_live(&mut self, extra_roots: &[ObjectId]) -> LiveSet {
        self.mark(extra_roots, false)
    }

    /// Marks only the *young* generation: everything outside young is
    /// assumed live (the generational bargain), and old->young edges come
    /// from the remembered set maintained by the `add_ref` write barrier.
    /// The returned [`LiveSet`] covers young objects only — exactly what a
    /// minor collection needs — and only young regions' `live_bytes` are
    /// refreshed.
    ///
    /// Prune the remembered set with [`prune_remembered`](Heap::prune_remembered)
    /// once the collection has moved or dropped every young object.
    pub fn mark_live_young(&mut self, extra_roots: &[ObjectId]) -> LiveSet {
        self.mark(extra_roots, true)
    }

    /// The one mark routine behind [`mark_live`](Heap::mark_live) and
    /// [`mark_live_young`](Heap::mark_live_young): serial, or sharded across
    /// workers when [`use_parallel_mark`](Heap::use_parallel_mark) says so,
    /// with bit-identical results either way.
    fn mark(&mut self, extra_roots: &[ObjectId], young_only: bool) -> LiveSet {
        self.mark_epoch += 1;
        let (mut bits, mut order) = self.take_mark_buffers();
        let mut region_live = std::mem::take(&mut self.region_live_scratch);
        region_live.clear();
        region_live.resize(self.regions.len(), 0);

        let parallel = self.use_parallel_mark();
        let workers = self.effective_gc_workers();
        let remembered: &[ObjectId] = if young_only { &self.remembered } else { &[] };
        let roots = self
            .roots
            .iter()
            .chain(extra_roots.iter().copied())
            .chain(remembered.iter().copied());
        let live_bytes = if parallel {
            let roots: Vec<ObjectId> = roots.collect();
            self.mark_stamps
                .resize_with(self.records.len(), || AtomicU32::new(0));
            mark::parallel_mark(
                &mark::MarkShards {
                    workers,
                    epoch: self.mark_epoch,
                    slots: &self.slots,
                    records: &self.records,
                    stamps: &self.mark_stamps,
                    young_only,
                },
                &roots,
                &mut bits,
                &mut region_live,
            )
        } else {
            let mut ctx = MarkCtx {
                epoch: self.mark_epoch,
                slots: &self.slots,
                records: &mut self.records,
                bits,
                order,
                region_live,
                live_bytes: 0,
                young_only,
            };
            for id in roots {
                ctx.visit(id);
            }
            ctx.trace();
            let MarkCtx {
                bits: b,
                order: o,
                region_live: rl,
                live_bytes,
                ..
            } = ctx;
            bits = b;
            order = o;
            region_live = rl;
            live_bytes
        };
        // Canonicalize the returned order (ascending object id) so serial
        // and sharded marks are indistinguishable to every consumer.
        order_from_bits(&bits, &mut order);

        // Refresh per-region live-byte accounting for the regions the mark
        // covered.
        for region in &mut self.regions {
            if region
                .space()
                .is_some_and(|space| !young_only || space == Heap::YOUNG_SPACE)
            {
                region.set_live_bytes(region_live[region.id().index()]);
            }
        }
        self.region_live_scratch = region_live;

        LiveSet {
            bits,
            order,
            live_bytes,
        }
    }

    /// True when the next mark should shard across workers: more than one
    /// worker is configured and the live population is large enough to pay
    /// for the thread scaffolding.
    fn use_parallel_mark(&self) -> bool {
        self.effective_gc_workers() > 1 && self.live_records >= self.tuning.min_mark_records
    }

    /// Pops a retired `(bits, order)` buffer pair (or allocates fresh ones)
    /// and prepares them for the next mark: bits zeroed to the current id
    /// range, order emptied.
    fn take_mark_buffers(&mut self) -> (Vec<u64>, Vec<ObjectId>) {
        let words = (self.next_object as usize).div_ceil(64);
        let (mut bits, mut order) = self.retired_live_buffers.pop().unwrap_or_default();
        bits.clear();
        bits.resize(words, 0);
        order.clear();
        (bits, order)
    }

    /// Returns a consumed [`LiveSet`]'s buffers to the retained pool so the
    /// next mark can reuse them instead of allocating. Collectors call this
    /// once a collection no longer needs its set, and the Dumper once a
    /// snapshot is captured. Dropping a set instead of retiring it is always
    /// correct — just slower.
    pub fn retire_live_set(&mut self, live: LiveSet) {
        if self.retired_live_buffers.len() < MAX_RETIRED_LIVE_BUFFERS {
            self.retired_live_buffers.push((live.bits, live.order));
        }
    }

    /// Prunes the remembered set after a young collection: entries whose
    /// object died or left the young generation are dropped, duplicates
    /// collapse.
    pub fn prune_remembered(&mut self) {
        let before = self.remembered.len();
        let (slots, records) = (&self.slots, &self.records);
        let seen = &mut self.remembered_scratch;
        seen.clear();
        self.remembered.retain(|&id| {
            slab_get(slots, records, id).map(|r| r.space()) == Some(Heap::YOUNG_SPACE)
                && seen.insert(id)
        });
        let after = self.remembered.len();
        self.remembered_churn.note_prune(before, after);
    }

    /// Remembered-set traffic counters accumulated over the heap's life.
    pub fn remembered_churn(&self) -> RememberedSetChurn {
        self.remembered_churn
    }

    /// Current remembered-set length (diagnostics).
    pub fn remembered_len(&self) -> usize {
        self.remembered.len()
    }

    /// Adds `obj` to the remembered set if it is a young object. Collectors
    /// call this for the young children of objects they promote — those
    /// edges become old->young without passing through the `add_ref`
    /// barrier.
    pub fn remember_if_young(&mut self, obj: ObjectId) {
        if self.object(obj).map(|r| r.space()) == Some(Heap::YOUNG_SPACE) {
            self.remembered.push(obj);
            self.remembered_churn.recorded += 1;
        }
    }

    // ------------------------------------------------------------------
    // Relocation & reclamation (collector back-end)
    // ------------------------------------------------------------------

    /// Applies one batch of evacuation decisions — drops and moves — as a
    /// deterministic serial *planning* phase followed by a *fix-up* phase
    /// that may run on [`gc_workers`](Heap::gc_workers) threads. This is the
    /// heap's only way to move or free an object.
    ///
    /// A move keeps the object's id, identity hash and edges; its address
    /// changes and its destination pages are dirtied, as a real copying
    /// collector would. A drop removes the record and accounts the freed
    /// bytes; the caller (a collector's sweep) must only drop objects the
    /// latest mark proved unreachable. Either way the source region keeps a
    /// stale list entry: collectors purge stale entries in bulk
    /// ([`purge_region_objects`](Heap::purge_region_objects)) or release the
    /// region outright, since per-object list surgery would make sweeps
    /// quadratic in region population.
    ///
    /// Planning walks `ops` in order and performs every order-dependent
    /// mutation in op order: destination addresses bump-allocate, and
    /// region object lists and live-byte accounting update. The fix-up
    /// phase then applies only commutative effects (record address/age
    /// rewrites on disjoint slots, atomic page count and dirty/no-need flag
    /// updates), so the final heap state is bit-identical at any worker
    /// count, and a batch equals the same ops issued as single-op batches.
    ///
    /// Each object id must appear at most once per batch.
    ///
    /// # Errors
    ///
    /// * [`HeapError::NoSuchObject`] if an op names a dead object.
    /// * Any allocation error from a move's destination space. On error the
    ///   heap is left mid-evacuation (ops before the failing one applied,
    ///   later fix-ups dropped) — collectors treat such errors as fatal,
    ///   matching the documented out-of-memory contract.
    pub fn evacuate_batch(&mut self, ops: &[(ObjectId, EvacDecision)]) -> Result<(), HeapError> {
        #[cfg(debug_assertions)]
        {
            let mut seen: IdHashSet<ObjectId> = IdHashSet::default();
            for &(obj, _) in ops {
                debug_assert!(seen.insert(obj), "object {obj} appears twice in one batch");
            }
        }
        let mut moves: Vec<MoveEntry> = Vec::with_capacity(ops.len());
        let mut drops: Vec<DropEntry> = Vec::new();
        for &(obj, decision) in ops {
            let slot = match self.slots.get(obj.index()).copied() {
                Some(slot) if slot != DEAD_SLOT => slot,
                _ => return Err(HeapError::NoSuchObject { object: obj }),
            };
            match decision {
                EvacDecision::Drop => {
                    let rec = self.records[slot as usize]
                        .take()
                        .expect("live slot has a record");
                    self.slots[obj.index()] = DEAD_SLOT;
                    self.free_slots.push(slot);
                    self.live_records -= 1;
                    let (first, last) = self.page_table.pages_of(rec.addr(), rec.size());
                    drops.push(DropEntry { first, last });
                    self.stats.freed_objects += 1;
                    self.stats.freed_bytes += u64::from(rec.size());
                }
                EvacDecision::Move { dest, bump_age } => {
                    let (size, old_addr) = {
                        let rec = self.records[slot as usize]
                            .as_ref()
                            .expect("live slot has a record");
                        (rec.size(), rec.addr())
                    };
                    let new_addr = self.bump_into(dest, size)?;
                    self.regions[new_addr.region.index()].push_object(obj);
                    let src_live = self.regions[old_addr.region.index()].live_bytes();
                    self.regions[old_addr.region.index()]
                        .set_live_bytes(src_live.saturating_sub(size));
                    let dst_live = self.regions[new_addr.region.index()].live_bytes();
                    self.regions[new_addr.region.index()].set_live_bytes(dst_live + size);
                    let (old_first, old_last) = self.page_table.pages_of(old_addr, size);
                    let (new_first, new_last) = self.page_table.pages_of(new_addr, size);
                    moves.push(MoveEntry {
                        slot,
                        dest,
                        old_addr,
                        new_addr,
                        size,
                        bump_age,
                        old_first,
                        old_last,
                        new_first,
                        new_last,
                    });
                    self.stats.relocated_objects += 1;
                    self.stats.relocated_bytes += u64::from(size);
                }
            }
        }
        let workers = self.effective_gc_workers();
        // Copy phase (real backend only): memcpy the planned payloads,
        // partitioned by destination region and timed on its own so
        // bandwidth figures measure the copier. Runs before fix-up and
        // cannot influence logical state — it only moves bytes to addresses
        // the planning phase already fixed.
        if !moves.is_empty() {
            if let Some(copier) = self.backend.copier() {
                let total_bytes: u64 = moves.iter().map(|m| u64::from(m.size)).sum();
                let copy_workers = if workers > 1 && total_bytes >= self.tuning.min_copy_bytes {
                    workers
                } else {
                    1
                };
                let shards = evac::plan_copy_shards(&moves, copy_workers);
                let start = Instant::now();
                evac::run_copy_phase(&copier, &moves, &shards);
                let ns = start.elapsed().as_nanos() as u64;
                drop(copier);
                self.backend.note_copy_phase(ns);
            }
        }
        if workers > 1 && moves.len() + drops.len() >= self.tuning.min_evac_ops {
            evac::apply_parallel(
                workers,
                &mut self.records,
                &mut self.page_object_counts,
                &mut self.page_table,
                &moves,
                &drops,
            );
        } else {
            for m in &moves {
                let rec = self.records[m.slot as usize]
                    .as_mut()
                    .expect("planned move has a record");
                rec.relocate(m.dest, m.new_addr);
                if m.bump_age {
                    rec.bump_age();
                }
                self.page_table.mark_dirty_range(m.new_addr, m.size);
                self.page_table.clear_no_need_range(m.new_addr, m.size);
                for p in m.new_first..=m.new_last {
                    self.page_object_counts[p as usize] += 1;
                }
                for p in m.old_first..=m.old_last {
                    let c = &mut self.page_object_counts[p as usize];
                    *c = c.checked_sub(1).expect("page occupancy count underflow");
                }
            }
            for d in &drops {
                for p in d.first..=d.last {
                    let c = &mut self.page_object_counts[p as usize];
                    *c = c.checked_sub(1).expect("page occupancy count underflow");
                }
            }
        }
        Ok(())
    }

    /// Releases `region` back to the free pool and marks all of its pages
    /// no-need.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::IntegrityViolation`] (invariant
    /// `region-empty-on-release`) if the region still contains live object
    /// records; collectors must evacuate or drop them first. Stale list
    /// entries are fine. The region is left untouched on error.
    pub fn release_region(&mut self, region: RegionId) -> Result<(), HeapError> {
        // The incremental page-occupancy counters make the emptiness check
        // O(pages-per-region); the resident list is only materialized for
        // the error detail.
        let first = self.regions[region.index()].first_page().raw();
        let occupied = (first..first + self.config.pages_per_region())
            .any(|p| self.page_object_counts[p as usize] > 0);
        if occupied {
            let live = self.live_objects_in_region(region);
            return Err(HeapError::IntegrityViolation {
                invariant: "region-empty-on-release",
                detail: format!(
                    "released region {region} still holds {} live objects",
                    live.len()
                ),
            });
        }
        let r = &mut self.regions[region.index()];
        if let Some(space) = r.space() {
            self.spaces[space.index()].remove_region(region);
        }
        r.release();
        self.backend.release_region(region);
        for p in first..first + self.config.pages_per_region() {
            self.page_table.set_no_need(p, true);
        }
        self.free_regions.push(region);
        Ok(())
    }

    /// Detaches every region of `space` for evacuation.
    ///
    /// The regions stay assigned (their objects remain addressable) but the
    /// space's region list empties, so subsequent allocation into the space
    /// starts on fresh regions — the to-space of a copying collection. The
    /// collector must then move survivors and drop the dead with
    /// [`evacuate_batch`](Heap::evacuate_batch), after which
    /// [`finish_evacuation`](Heap::finish_evacuation) releases the sources.
    ///
    /// # Errors
    ///
    /// * [`HeapError::NoSuchSpace`] for an unknown id.
    /// * [`HeapError::IntegrityViolation`] (invariant
    ///   `no-nested-evacuation`) if an evacuation is already in progress —
    ///   a collector protocol violation, reachable from the public API.
    pub fn begin_evacuation(&mut self, space: SpaceId) -> Result<Vec<RegionId>, HeapError> {
        if !self.evacuating.is_empty() {
            return Err(HeapError::IntegrityViolation {
                invariant: "no-nested-evacuation",
                detail: format!(
                    "evacuation of {} regions already in progress",
                    self.evacuating.len()
                ),
            });
        }
        if space.index() >= self.spaces.len() {
            return Err(HeapError::NoSuchSpace { space });
        }
        let regions = self.spaces[space.index()].take_regions();
        self.evacuating = regions.clone();
        Ok(regions)
    }

    /// Detaches specific regions of `space` for evacuation (incremental
    /// compaction picks its victims; see [`begin_evacuation`] for the
    /// whole-space variant and the protocol).
    ///
    /// [`begin_evacuation`]: Heap::begin_evacuation
    ///
    /// # Errors
    ///
    /// * [`HeapError::NoSuchSpace`] for an unknown id.
    /// * [`HeapError::IntegrityViolation`] if an evacuation is already in
    ///   progress (`no-nested-evacuation`) or a victim region does not
    ///   belong to `space` (`victim-in-space`) — collector protocol
    ///   violations, reachable from the public API. No region is detached
    ///   until every victim is vetted.
    pub fn begin_evacuation_of(
        &mut self,
        space: SpaceId,
        regions: &[RegionId],
    ) -> Result<(), HeapError> {
        if !self.evacuating.is_empty() {
            return Err(HeapError::IntegrityViolation {
                invariant: "no-nested-evacuation",
                detail: format!(
                    "evacuation of {} regions already in progress",
                    self.evacuating.len()
                ),
            });
        }
        if space.index() >= self.spaces.len() {
            return Err(HeapError::NoSuchSpace { space });
        }
        for &r in regions {
            if self.regions[r.index()].space() != Some(space) {
                return Err(HeapError::IntegrityViolation {
                    invariant: "victim-in-space",
                    detail: format!("evacuation victim {r} does not belong to {space}"),
                });
            }
        }
        for &r in regions {
            self.spaces[space.index()].remove_region(r);
        }
        self.evacuating = regions.to_vec();
        Ok(())
    }

    /// Releases all evacuated regions back to the free pool.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::IntegrityViolation`] (invariant
    /// `region-empty-on-release`) if an evacuated region still holds object
    /// records — the collector failed to relocate or drop something.
    /// Regions released before the failing one stay released; the failing
    /// region and any after it remain detached in `evacuating`.
    pub fn finish_evacuation(&mut self) -> Result<(), HeapError> {
        // Release in detach order: the pool's LIFO region-reuse order is
        // part of the deterministic trajectory.
        let regions = std::mem::take(&mut self.evacuating);
        for (i, &region) in regions.iter().enumerate() {
            if let Err(e) = self.release_region(region) {
                self.evacuating = regions[i..].to_vec();
                return Err(e);
            }
        }
        Ok(())
    }

    /// The regions currently detached for evacuation.
    pub fn evacuating_regions(&self) -> &[RegionId] {
        &self.evacuating
    }

    /// Objects currently residing in `space`, region by region in allocation
    /// order. Stale list entries (dead or relocated-away objects) are
    /// filtered out.
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchSpace`] for an unknown id.
    pub fn objects_in_space(&self, space: SpaceId) -> Result<Vec<ObjectId>, HeapError> {
        let s = self.space(space)?;
        let mut out = Vec::new();
        for &region in s.regions() {
            for &obj in self.regions[region.index()].objects() {
                if self.object(obj).map(|r| r.addr().region) == Some(region) {
                    out.push(obj);
                }
            }
        }
        Ok(out)
    }

    /// Live objects currently residing in `region` (stale entries filtered).
    pub fn live_objects_in_region(&self, region: RegionId) -> Vec<ObjectId> {
        self.regions[region.index()]
            .objects()
            .iter()
            .copied()
            .filter(|&obj| self.object(obj).map(|r| r.addr().region) == Some(region))
            .collect()
    }

    /// Rebuilds `region`'s object list, dropping stale entries — O(list
    /// length), done once per region per sweep.
    pub fn purge_region_objects(&mut self, region: RegionId) {
        let (slots, records) = (&self.slots, &self.records);
        self.regions[region.index()].retain_objects(|obj| {
            slab_get(slots, records, obj).map(|r| r.addr().region) == Some(region)
        });
    }

    // ------------------------------------------------------------------
    // Occupancy accounting
    // ------------------------------------------------------------------

    /// Bytes committed to assigned regions (the JVM-process RSS analogue the
    /// paper's Figure 9 tracks).
    pub fn committed_bytes(&self) -> u64 {
        let assigned = self.regions.iter().filter(|r| r.space().is_some()).count() as u64;
        assigned * self.config.region_bytes
    }

    /// Bytes bump-allocated in `space`'s regions (includes dead-but-unswept
    /// objects, like real occupancy).
    ///
    /// # Errors
    ///
    /// Returns [`HeapError::NoSuchSpace`] for an unknown id.
    pub fn used_bytes(&self, space: SpaceId) -> Result<u64, HeapError> {
        let s = self.space(space)?;
        Ok(s.regions()
            .iter()
            .map(|&r| u64::from(self.regions[r.index()].used_bytes()))
            .sum())
    }

    /// The Dumper's capture walk: one pass over `live` streams its identity
    /// hashes into `column` as the sorted, duplicate-free u64 column a
    /// `SnapshotSeries` ingests, reading each hash back out of the backend's
    /// object headers where real memory exists (falling back to the object
    /// table for sim heaps and tiny objects), so no per-snapshot hash set is
    /// ever materialized.
    ///
    /// With `mark_no_need`, the same pass records the pages each live object
    /// spans, and the Recorder's pre-snapshot heap walk (paper §3.2/§4.1)
    /// follows: the no-need bit is set on every page of every assigned
    /// region that holds no live object byte and cleared on every page that
    /// does. Without it, page flags are left untouched. Page liveness is
    /// derived from `live` against current object addresses, so it is exact
    /// for any set; it is meaningful right after a fresh
    /// [`mark_live`](Heap::mark_live).
    ///
    /// Returns the number of pages newly marked no-need.
    ///
    /// `SnapshotSeries` lives in `polm2-snapshot`; the column contract
    /// (ascending, deduplicated, widened raw hashes) is shared between the
    /// two crates.
    pub fn capture_live(
        &mut self,
        live: &LiveSet,
        column: &mut Vec<u64>,
        mark_no_need: bool,
    ) -> u32 {
        column.clear();
        column.reserve(live.len());
        let mut needed = Vec::new();
        if mark_no_need {
            needed.resize((self.page_table.page_count() as usize).div_ceil(64), 0u64);
        }
        for id in live.iter() {
            if let Some(rec) = slab_get(&self.slots, &self.records, id) {
                let hash = self
                    .backend
                    .read_header_hash(rec.addr(), rec.size())
                    .unwrap_or_else(|| rec.identity_hash());
                debug_assert_eq!(
                    hash,
                    rec.identity_hash(),
                    "backend object header drifted from the object table"
                );
                column.push(u64::from(hash.raw()));
                if mark_no_need {
                    let (first, last) = self.page_table.pages_of(rec.addr(), rec.size());
                    for p in first..=last {
                        bit_set(&mut needed, p as usize);
                    }
                }
            }
        }
        column.sort_unstable();
        column.dedup();
        if !mark_no_need {
            return 0;
        }
        let mut marked = 0;
        for region in &self.regions {
            if region.space().is_none() {
                continue; // free-pool pages are already no-need
            }
            let first = region.first_page().raw();
            for p in first..first + self.config.pages_per_region() {
                let should = !bit_get(&needed, p as usize);
                if should && !self.page_table.flags_of(p).no_need {
                    marked += 1;
                }
                self.page_table.set_no_need(p, should);
            }
        }
        marked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap() -> Heap {
        Heap::new(HeapConfig::small())
    }

    fn alloc(h: &mut Heap, size: u32) -> ObjectId {
        let class = h.classes_mut().intern("T");
        h.allocate(class, size, SiteId::new(0), Heap::YOUNG_SPACE)
            .expect("alloc")
    }

    /// Moves one object into `dest` as a one-op batch.
    fn move_to(h: &mut Heap, obj: ObjectId, dest: SpaceId) {
        let op = EvacDecision::Move {
            dest,
            bump_age: false,
        };
        h.evacuate_batch(&[(obj, op)]).expect("move");
    }

    /// Drops one object as a one-op batch.
    fn drop_one(h: &mut Heap, obj: ObjectId) {
        h.evacuate_batch(&[(obj, EvacDecision::Drop)])
            .expect("drop");
    }

    #[test]
    fn allocation_assigns_addresses_and_dirties_pages() {
        let mut h = heap();
        let a = alloc(&mut h, 100);
        let b = alloc(&mut h, 100);
        let ra = h.object(a).unwrap().addr();
        let rb = h.object(b).unwrap().addr();
        assert_eq!(ra.region, rb.region);
        assert_eq!(rb.offset, 100);
        assert!(h.page_table().dirty_count() > 0);
        assert_eq!(h.stats().allocated_objects, 2);
        h.check_invariants();
    }

    #[test]
    fn young_budget_signals_space_full() {
        let mut h = heap(); // young budget = 4 regions of 256 KiB
        let class = h.classes_mut().intern("Blob");
        let mut err = None;
        for _ in 0..2048 {
            match h.allocate(class, 4096, SiteId::new(0), Heap::YOUNG_SPACE) {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(
            err,
            Some(HeapError::SpaceFull {
                space: Heap::YOUNG_SPACE
            })
        );
        h.check_invariants();
    }

    #[test]
    fn object_too_large_is_rejected() {
        let mut h = heap();
        let class = h.classes_mut().intern("Huge");
        let err = h.allocate(class, (256 << 10) + 1, SiteId::new(0), Heap::YOUNG_SPACE);
        assert!(matches!(err, Err(HeapError::ObjectTooLarge { .. })));
    }

    #[test]
    fn mark_live_traces_through_edges() {
        let mut h = heap();
        let a = alloc(&mut h, 64);
        let b = alloc(&mut h, 64);
        let c = alloc(&mut h, 64);
        h.add_ref(a, b).unwrap();
        let slot = h.roots_mut().create_slot("r");
        h.roots_mut().push(slot, a);
        let live = h.mark_live(&[]);
        assert!(live.contains(a));
        assert!(live.contains(b));
        assert!(!live.contains(c));
        assert_eq!(live.live_bytes(), 128);
        assert_eq!(live.len(), 2);
    }

    #[test]
    fn extra_roots_keep_objects_alive() {
        let mut h = heap();
        let a = alloc(&mut h, 64);
        let live = h.mark_live(&[a]);
        assert!(live.contains(a));
        let live = h.mark_live(&[]);
        assert!(!live.contains(a));
    }

    #[test]
    fn cycles_do_not_hang_marking() {
        let mut h = heap();
        let a = alloc(&mut h, 64);
        let b = alloc(&mut h, 64);
        h.add_ref(a, b).unwrap();
        h.add_ref(b, a).unwrap();
        let slot = h.roots_mut().create_slot("r");
        h.roots_mut().push(slot, a);
        let live = h.mark_live(&[]);
        assert_eq!(live.len(), 2);
    }

    #[test]
    fn relocation_moves_object_between_spaces() {
        let mut h = heap();
        let old = h.create_space(GenId::new(1), None);
        let a = alloc(&mut h, 128);
        let hash = h.object(a).unwrap().identity_hash();
        move_to(&mut h, a, old);
        let rec = h.object(a).unwrap();
        assert_eq!(rec.space(), old);
        assert_eq!(rec.identity_hash(), hash);
        assert_eq!(h.stats().relocated_objects, 1);
        assert_eq!(h.stats().relocated_bytes, 128);
        h.check_invariants();
    }

    #[test]
    fn drop_and_release_region() {
        let mut h = heap();
        let a = alloc(&mut h, 128);
        let region = h.object(a).unwrap().addr().region;
        drop_one(&mut h, a);
        assert_eq!(h.stats().freed_bytes, 128);
        assert!(h.object(a).is_none());
        let before = h.free_region_count();
        h.release_region(region).unwrap();
        assert_eq!(h.free_region_count(), before + 1);
        h.check_invariants();
    }

    #[test]
    fn releasing_populated_region_is_a_typed_violation() {
        let mut h = heap();
        let a = alloc(&mut h, 128);
        let region = h.object(a).unwrap().addr().region;
        let err = h.release_region(region).unwrap_err();
        match err {
            HeapError::IntegrityViolation { invariant, .. } => {
                assert_eq!(invariant, "region-empty-on-release");
            }
            other => panic!("expected integrity violation, got {other}"),
        }
        // The failed release must leave the region untouched.
        assert!(h.object(a).is_some());
        h.check_invariants();
    }

    #[test]
    fn committed_and_used_bytes() {
        let mut h = heap();
        assert_eq!(h.committed_bytes(), 0);
        alloc(&mut h, 1000);
        assert_eq!(h.committed_bytes(), 256 << 10);
        assert_eq!(h.used_bytes(Heap::YOUNG_SPACE).unwrap(), 1000);
    }

    #[test]
    fn no_need_walk_marks_dead_pages() {
        let mut h = heap();
        // Fill a few pages, keep only the first object alive.
        let keep = alloc(&mut h, 4096);
        for _ in 0..16 {
            alloc(&mut h, 4096);
        }
        let slot = h.roots_mut().create_slot("r");
        h.roots_mut().push(slot, keep);
        let live = h.mark_live(&[]);
        let marked = h.capture_live(&live, &mut Vec::new(), true);
        assert!(
            marked >= 16,
            "dead pages should be marked no-need, got {marked}"
        );
        // The page holding `keep` must not be no-need.
        let rec = h.object(keep).unwrap();
        let (first, _) = h.page_table().pages_of(rec.addr(), rec.size());
        assert!(!h.page_table().flags_of(first).no_need);
    }

    #[test]
    fn objects_in_space_enumerates_in_allocation_order() {
        let mut h = heap();
        let a = alloc(&mut h, 64);
        let b = alloc(&mut h, 64);
        assert_eq!(h.objects_in_space(Heap::YOUNG_SPACE).unwrap(), vec![a, b]);
    }

    #[test]
    fn ref_errors_on_dead_objects() {
        let mut h = heap();
        let a = alloc(&mut h, 64);
        let b = alloc(&mut h, 64);
        drop_one(&mut h, b);
        assert!(h.add_ref(a, b).is_err());
        assert!(h.add_ref(b, a).is_err());
        assert!(h.write_field(b).is_err());
    }

    #[test]
    fn young_marking_uses_remembered_set() {
        let mut h = heap();
        let old = h.create_space(GenId::new(1), None);
        let class = h.classes_mut().intern("T");
        // An old parent referencing a young child: the write barrier must
        // keep the child alive for young-only marking.
        let parent = h.allocate(class, 64, SiteId::new(0), old).unwrap();
        let slot = h.roots_mut().create_slot("r");
        h.roots_mut().push(slot, parent);
        let child = alloc(&mut h, 64);
        h.add_ref(parent, child).unwrap();
        assert_eq!(h.remembered_len(), 1);
        let live = h.mark_live_young(&[]);
        assert!(live.contains(child), "remembered edge keeps the child");
        assert!(
            !live.contains(parent),
            "old objects are outside the young live set"
        );
        // A young object with no remembered edge and no root dies.
        let orphan = alloc(&mut h, 64);
        let live = h.mark_live_young(&[]);
        assert!(!live.contains(orphan));
        // Pruning drops entries for promoted children.
        move_to(&mut h, child, old);
        h.prune_remembered();
        assert_eq!(h.remembered_len(), 0);
    }

    #[test]
    fn remember_if_young_filters_by_space() {
        let mut h = heap();
        let old = h.create_space(GenId::new(1), None);
        let class = h.classes_mut().intern("T");
        let old_obj = h.allocate(class, 64, SiteId::new(0), old).unwrap();
        let young_obj = alloc(&mut h, 64);
        h.remember_if_young(old_obj);
        h.remember_if_young(young_obj);
        assert_eq!(h.remembered_len(), 1);
    }

    #[test]
    fn evacuation_protocol() {
        let mut h = heap();
        let keep = alloc(&mut h, 4096);
        let dead = alloc(&mut h, 4096);
        let src = h.begin_evacuation(Heap::YOUNG_SPACE).unwrap();
        assert_eq!(src.len(), 1);
        assert_eq!(h.evacuating_regions(), &src[..]);
        h.check_invariants();
        // Survivor moves to a fresh young region; the dead object is dropped.
        move_to(&mut h, keep, Heap::YOUNG_SPACE);
        drop_one(&mut h, dead);
        h.finish_evacuation().unwrap();
        assert!(h.evacuating_regions().is_empty());
        let rec = h.object(keep).unwrap();
        assert_ne!(rec.addr().region, src[0], "survivor left the source region");
        h.check_invariants();
    }

    #[test]
    fn partial_evacuation_of_selected_regions() {
        let mut h = heap();
        // Fill two regions.
        let mut ids = Vec::new();
        for _ in 0..100 {
            ids.push(alloc(&mut h, 4096));
        }
        let regions: Vec<_> = h.space(Heap::YOUNG_SPACE).unwrap().regions().to_vec();
        assert!(regions.len() >= 2);
        let victim = regions[0];
        h.begin_evacuation_of(Heap::YOUNG_SPACE, &[victim]).unwrap();
        let to_move: Vec<_> = h.region(victim).objects().to_vec();
        for obj in to_move {
            move_to(&mut h, obj, Heap::YOUNG_SPACE);
        }
        h.finish_evacuation().unwrap();
        assert_eq!(h.region(victim).space(), None);
        h.check_invariants();
    }

    #[test]
    fn nested_evacuation_is_a_typed_violation() {
        let mut h = heap();
        alloc(&mut h, 64);
        h.begin_evacuation(Heap::YOUNG_SPACE).unwrap();
        let err = h.begin_evacuation(Heap::YOUNG_SPACE).unwrap_err();
        match err {
            HeapError::IntegrityViolation { invariant, .. } => {
                assert_eq!(invariant, "no-nested-evacuation");
            }
            other => panic!("expected integrity violation, got {other}"),
        }
    }

    #[test]
    fn slab_reuses_slots_after_drop() {
        let mut h = heap();
        let a = alloc(&mut h, 64);
        let b = alloc(&mut h, 64);
        drop_one(&mut h, a);
        let c = alloc(&mut h, 64);
        // The record slab recycled `a`'s slot for `c`; ids stay unique.
        assert_eq!(h.object_count(), 2);
        assert!(h.object(a).is_none());
        assert!(h.object(b).is_some());
        assert_eq!(h.object(c).unwrap().id(), c);
        assert_ne!(a, c);
        h.check_invariants();
    }

    #[test]
    fn marking_twice_yields_equal_sets() {
        let mut h = heap();
        let a = alloc(&mut h, 64);
        let b = alloc(&mut h, 64);
        alloc(&mut h, 64);
        h.add_ref(a, b).unwrap();
        let slot = h.roots_mut().create_slot("r");
        h.roots_mut().push(slot, a);
        let first = h.mark_live(&[]);
        let second = h.mark_live(&[]);
        assert_eq!(
            first.iter().collect::<Vec<_>>(),
            second.iter().collect::<Vec<_>>()
        );
        assert_eq!(first.live_bytes(), second.live_bytes());
    }

    #[test]
    fn page_object_counts_track_alloc_drop_relocate() {
        let mut h = heap();
        let old = h.create_space(GenId::new(1), None);
        let a = alloc(&mut h, 4096);
        let rec = h.object(a).unwrap();
        let (first, _) = h.page_table().pages_of(rec.addr(), rec.size());
        assert_eq!(h.page_object_count(first), 1);
        move_to(&mut h, a, old);
        assert_eq!(h.page_object_count(first), 0, "source page emptied");
        let rec = h.object(a).unwrap();
        let (dst, _) = h.page_table().pages_of(rec.addr(), rec.size());
        assert_eq!(h.page_object_count(dst), 1);
        drop_one(&mut h, a);
        assert_eq!(h.page_object_count(dst), 0);
        h.check_invariants();
    }

    /// Deterministic xorshift for test graph construction.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Allocates `n` small objects with seeded random edges and roots the
    /// first `rooted` of them. Big enough to cross the parallel-mark gate.
    fn seeded_graph(h: &mut Heap, n: usize, rooted: usize, seed: u64) -> Vec<ObjectId> {
        let class = h.classes_mut().intern("T");
        let ids: Vec<ObjectId> = (0..n)
            .map(|_| {
                h.allocate(class, 32, SiteId::new(0), Heap::YOUNG_SPACE)
                    .expect("alloc")
            })
            .collect();
        let mut s = seed | 1;
        for &a in &ids {
            for _ in 0..2 {
                let b = ids[(xorshift(&mut s) % n as u64) as usize];
                h.add_ref(a, b).unwrap();
            }
        }
        let slot = h.roots_mut().create_slot("r");
        for &id in &ids[..rooted] {
            h.roots_mut().push(slot, id);
        }
        ids
    }

    fn live_fingerprint(h: &Heap, live: &LiveSet) -> (Vec<ObjectId>, u64, Vec<u32>) {
        (
            live.iter().collect(),
            live.live_bytes(),
            h.regions().iter().map(|r| r.live_bytes()).collect(),
        )
    }

    #[test]
    fn parallel_mark_matches_serial_at_any_worker_count() {
        let mut h = heap();
        // Force the parallel paths regardless of host core count or the
        // production break-even thresholds — this test pins equality, not
        // wall-clock.
        h.set_parallel_tuning(ParallelTuning::force());
        seeded_graph(&mut h, 2000, 40, 0xDEADBEEF);
        h.set_gc_workers(1);
        let reference = {
            let live = h.mark_live(&[]);
            let fp = live_fingerprint(&h, &live);
            h.retire_live_set(live);
            fp
        };
        assert!(!reference.0.is_empty());
        for workers in [2usize, 4, 8] {
            h.set_gc_workers(workers);
            let live = h.mark_live(&[]);
            let fp = live_fingerprint(&h, &live);
            h.retire_live_set(live);
            assert_eq!(fp, reference, "{workers}-worker mark diverged");
        }
        h.check_invariants();
    }

    #[test]
    fn parallel_young_mark_matches_serial_with_remembered_set() {
        let mut h = heap();
        h.set_parallel_tuning(ParallelTuning::force());
        let old = h.create_space(GenId::new(1), None);
        let class = h.classes_mut().intern("Old");
        let parent = h.allocate(class, 64, SiteId::new(0), old).unwrap();
        let slot = h.roots_mut().create_slot("r");
        h.roots_mut().push(slot, parent);
        let ids = seeded_graph(&mut h, 1600, 10, 0xFEEDFACE);
        // Old->young edges flow through the write barrier into the
        // remembered set.
        for &child in &ids[1500..1520.min(ids.len())] {
            h.add_ref(parent, child).unwrap();
        }
        h.set_gc_workers(1);
        let reference = {
            let live = h.mark_live_young(&[]);
            let fp = live_fingerprint(&h, &live);
            h.retire_live_set(live);
            fp
        };
        for workers in [2usize, 4, 8] {
            h.set_gc_workers(workers);
            let live = h.mark_live_young(&[]);
            let fp = live_fingerprint(&h, &live);
            h.retire_live_set(live);
            assert_eq!(fp, reference, "{workers}-worker young mark diverged");
        }
    }

    /// Full observable heap state, for serial-vs-parallel evacuation
    /// equality: object placements, stats, dirty/no-need/free-region
    /// counts, and per-page object counts.
    type HeapFingerprint = (
        Vec<(ObjectId, Addr, SpaceId, u8)>,
        HeapStats,
        u32,
        u32,
        u32,
        Vec<u32>,
    );

    fn heap_fingerprint(h: &Heap) -> HeapFingerprint {
        let mut objects = Vec::new();
        for space in h.spaces() {
            for id in h.objects_in_space(space.id()).unwrap() {
                let rec = h.object(id).unwrap();
                (objects).push((id, rec.addr(), rec.space(), rec.age()));
            }
        }
        let counts = (0..h.page_table().page_count())
            .map(|p| h.page_object_count(p))
            .collect();
        (
            objects,
            h.stats(),
            h.page_table().dirty_count(),
            h.page_table().no_need_count(),
            h.free_region_count(),
            counts,
        )
    }

    fn evacuation_workload(workers: usize) -> Heap {
        evacuation_workload_on(HeapConfig::small(), workers)
    }

    fn evacuation_workload_on(config: HeapConfig, workers: usize) -> Heap {
        let mut h = Heap::new(config);
        h.set_parallel_tuning(ParallelTuning::force());
        h.set_gc_workers(workers);
        let ids = seeded_graph(&mut h, 1500, 30, 0xABCD);
        let old = h.create_space(GenId::new(1), None);
        let sources = h.begin_evacuation(Heap::YOUNG_SPACE).unwrap();
        assert!(!sources.is_empty());
        let mut ops = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let op = match i % 3 {
                0 => EvacDecision::Drop,
                1 => EvacDecision::Move {
                    dest: Heap::YOUNG_SPACE,
                    bump_age: true,
                },
                _ => EvacDecision::Move {
                    dest: old,
                    bump_age: false,
                },
            };
            ops.push((id, op));
        }
        h.evacuate_batch(&ops).unwrap();
        h.finish_evacuation().unwrap();
        h.check_invariants();
        h
    }

    #[test]
    fn evacuate_batch_is_identical_serial_and_parallel() {
        let reference = heap_fingerprint(&evacuation_workload(1));
        for workers in [2usize, 4, 8] {
            let fp = heap_fingerprint(&evacuation_workload(workers));
            assert_eq!(fp, reference, "{workers}-worker evacuation diverged");
        }
    }

    #[test]
    fn real_backend_matches_sim_on_evacuation_workload() {
        let real = HeapConfig::small().with_backend(BackendKind::Real);
        let reference = heap_fingerprint(&evacuation_workload(1));
        for workers in [1usize, 2, 4] {
            let h = evacuation_workload_on(real, workers);
            assert_eq!(h.backend_kind(), BackendKind::Real);
            let fp = heap_fingerprint(&h);
            assert_eq!(fp, reference, "real backend diverged at {workers}w");
            let stats = h.backend_stats();
            assert!(stats.bytes_written > 0, "payloads were written");
            assert!(stats.bytes_copied > 0, "moves were memcpy'd");
        }
    }

    #[test]
    fn real_backend_streams_identical_hash_columns() {
        let mut sim = heap();
        let mut real = Heap::new(HeapConfig::small().with_backend(BackendKind::Real));
        for h in [&mut sim, &mut real] {
            seeded_graph(h, 600, 20, 0x5EED);
        }
        let (mut sim_col, mut real_col) = (Vec::new(), Vec::new());
        let live = sim.mark_live(&[]);
        sim.capture_live(&live, &mut sim_col, true);
        let live_r = real.mark_live(&[]);
        real.capture_live(&live_r, &mut real_col, true);
        assert!(!sim_col.is_empty());
        assert_eq!(sim_col, real_col, "streamed hash columns diverged");
        assert!(sim_col.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    }

    #[test]
    fn cpu_budget_caps_effective_workers_under_default_tuning() {
        let mut h = heap();
        h.set_gc_workers(64);
        assert_eq!(h.gc_workers(), 64, "configured count is preserved");
        let budgeted = h.effective_gc_workers();
        assert!(
            budgeted <= std::thread::available_parallelism().map_or(1, |n| n.get()),
            "default tuning respects the cpu budget"
        );
        h.set_parallel_tuning(ParallelTuning::force());
        assert_eq!(h.effective_gc_workers(), 64, "force() lifts the cap");
    }

    #[test]
    fn evacuate_batch_matches_single_op_batches() {
        let run = |batched: bool| {
            let mut h = heap();
            let ids: Vec<ObjectId> = (0..8).map(|_| alloc(&mut h, 4096)).collect();
            let old = h.create_space(GenId::new(1), None);
            h.begin_evacuation(Heap::YOUNG_SPACE).unwrap();
            let ops: Vec<(ObjectId, EvacDecision)> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| {
                    let op = match i % 3 {
                        0 => EvacDecision::Drop,
                        1 => EvacDecision::Move {
                            dest: old,
                            bump_age: true,
                        },
                        _ => EvacDecision::Move {
                            dest: Heap::YOUNG_SPACE,
                            bump_age: false,
                        },
                    };
                    (id, op)
                })
                .collect();
            if batched {
                h.evacuate_batch(&ops).unwrap();
            } else {
                for op in &ops {
                    h.evacuate_batch(std::slice::from_ref(op)).unwrap();
                }
            }
            h.finish_evacuation().unwrap();
            h.check_invariants();
            heap_fingerprint(&h)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn evacuate_batch_errors_on_dead_object() {
        let mut h = heap();
        let a = alloc(&mut h, 64);
        drop_one(&mut h, a);
        let err = h.evacuate_batch(&[(a, EvacDecision::Drop)]);
        assert!(matches!(err, Err(HeapError::NoSuchObject { .. })));
    }

    #[test]
    fn remembered_churn_counters_track_barrier_and_prune() {
        let mut h = heap();
        let old = h.create_space(GenId::new(1), None);
        let class = h.classes_mut().intern("T");
        let parent = h.allocate(class, 64, SiteId::new(0), old).unwrap();
        let child = alloc(&mut h, 64);
        h.add_ref(parent, child).unwrap();
        h.add_ref(parent, child).unwrap(); // duplicate entry
        assert_eq!(h.remembered_churn().recorded, 2);
        h.prune_remembered();
        let churn = h.remembered_churn();
        assert_eq!(churn.prune_calls, 1);
        assert_eq!(churn.peak_len, 2);
        assert_eq!(churn.pruned, 1, "duplicate collapses");
        assert_eq!(churn.retained(), 1);
        h.remember_if_young(child);
        assert_eq!(h.remembered_churn().recorded, 3);
    }

    #[test]
    fn retired_mark_buffers_are_reused_without_corruption() {
        let mut h = heap();
        let a = alloc(&mut h, 64);
        let b = alloc(&mut h, 64);
        h.add_ref(a, b).unwrap();
        let slot = h.roots_mut().create_slot("r");
        h.roots_mut().push(slot, a);
        let first = h.mark_live(&[]);
        let reference: Vec<ObjectId> = first.iter().collect();
        h.retire_live_set(first);
        // The next marks draw from the retained pool; results must be
        // unaffected by whatever the buffers previously held.
        for _ in 0..3 {
            let live = h.mark_live(&[]);
            assert_eq!(live.iter().collect::<Vec<_>>(), reference);
            assert_eq!(live.live_bytes(), 128);
            h.retire_live_set(live);
        }
    }

    #[test]
    fn live_set_order_is_ascending_object_id() {
        let mut h = heap();
        let a = alloc(&mut h, 64);
        let b = alloc(&mut h, 64);
        let c = alloc(&mut h, 64);
        // Root c first and wire edges so BFS discovery order (c, a, b)
        // differs from id order (a, b, c).
        h.add_ref(c, a).unwrap();
        h.add_ref(a, b).unwrap();
        let slot = h.roots_mut().create_slot("r");
        h.roots_mut().push(slot, c);
        let live = h.mark_live(&[]);
        assert_eq!(live.iter().collect::<Vec<_>>(), vec![a, b, c]);
    }

    #[test]
    fn remove_ref_round_trip() {
        let mut h = heap();
        let a = alloc(&mut h, 64);
        let b = alloc(&mut h, 64);
        h.add_ref(a, b).unwrap();
        assert!(h.remove_ref(a, b).unwrap());
        assert!(!h.remove_ref(a, b).unwrap());
        let slot = h.roots_mut().create_slot("r");
        h.roots_mut().push(slot, a);
        let live = h.mark_live(&[]);
        assert!(!live.contains(b));
    }
}
