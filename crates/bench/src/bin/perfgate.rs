//! Perf gates for the online GC+snapshot pipeline, the collectors' mark and
//! evacuation, and the real-memory heap backend.
//!
//! The Analyzer-replay and recorder arms are gone with the alternate paths
//! they raced; their last numbers stay committed as frozen records in
//! `BENCH_analyzer.json` and `BENCH_recorder.json`, and `polm2-benchmark`'s
//! end-to-end metrics now guard those layers.
//!
//! **Pipeline gate** — times full GC+snapshot cycles on a churn workload
//! (a large stable old generation plus a young garbage wave per cycle)
//! three ways: a seed-equivalent emulation (fresh hash-set trace plus
//! hash-set no-need walk per snapshot, the pre-slab online path), the
//! optimized path with snapshot live-set reuse disabled (fresh epoch-mark
//! trace per snapshot), and the full zero-retrace path. All three runs
//! drive bit-identical heap trajectories; the produced snapshot sequences
//! are compared field by field. Medians land in `BENCH_pipeline.json`.
//!
//! **GC gate** — drives identical collection trajectories (stable old
//! generation, churn waves with rotating survivor roots) through full
//! mark+evacuate cycles four ways: a seed-equivalent emulation (hash-set
//! BFS mark plus the per-object evacuation bookkeeping of the pre-slab
//! layout, timed against a mirrored table) and the real engine at 1, 2,
//! and 4 GC workers. Per-cycle heap fingerprints and `GcWork` accounting
//! must be bit-identical across all variants (the hard equality gate).
//! Wall-clock medians gate single-worker throughput against the serial
//! baseline; the 4-vs-1-worker pause speedup comes from the cost model's
//! Amdahl split over the measured work (per-byte and per-object charges
//! divide across workers; safepoint and region frees stay serial), since
//! wall-clock parallel speedups are not measurable on a single-CPU CI
//! host. Medians land in `BENCH_gc.json`.
//!
//! **Heap gate** — drives the GC-gate churn workload on the real-memory
//! heap backend (page-aligned regions, bump-allocated young, free-list
//! tenured, payloads actually written and memcpy'd) and on the simulated
//! backend. Measures real allocation cost (ns/object, header + payload
//! stores included) and copy/compact bandwidth (payload bytes memcpy'd per
//! collection wall-clock second) at 1, 2, and 4 GC workers with the
//! break-even tuning forced so multi-worker copies genuinely run. The hard
//! gate: per-cycle heap fingerprints, `GcWork` accounting, and streamed
//! snapshot sequences must be bit-identical between sim and real at every
//! worker count. Medians land in `BENCH_heap.json`.
//!
//! ```text
//! perfgate [--quick] [--min-pipeline-speedup <x>] [--min-gc-speedup <x>]
//!          [--min-heap-gbps <x>] [--min-copy-scaling <x>]
//!          [--pipeline-out <path>] [--gc-out <path>] [--heap-out <path>]
//! ```
//!
//! * `--quick` — fewer timed cycles (CI smoke; equality gates still run).
//! * `--min-pipeline-speedup <x>` — exit non-zero unless the zero-retrace
//!   cycle beats the seed-equivalent cycle by `x` on the largest workload.
//! * `--min-gc-speedup <x>` — exit non-zero unless the modeled 4-worker
//!   pause beats the 1-worker pause by `x` on the largest workload
//!   (default 2.0; this gate is always on, as is the single-worker
//!   throughput floor at 95% of the serial baseline).
//! * `--min-heap-gbps <x>` — exit non-zero unless the real backend's best
//!   copy/compact bandwidth on the largest workload reaches `x` GB/s
//!   (default 0.05; this gate is always on, as is the sim/real equality
//!   hard gate).
//! * `--pipeline-out <path>` — pipeline JSON path (default
//!   `BENCH_pipeline.json`).
//! * `--gc-out <path>` — GC JSON path (default `BENCH_gc.json`).
//! * `--heap-out <path>` — heap-backend JSON path (default
//!   `BENCH_heap.json`).
//!
//! Exits non-zero if any variant's outputs differ from its baseline, a
//! speedup gate fails, or a committed default-path `BENCH_*.json` this gate
//! writes carries a schema version older than [`SCHEMA_VERSION`] (stale
//! results must be regenerated in the same change that bumps the schema).

use std::collections::{HashSet, VecDeque};
use std::time::Instant;

use polm2_gc::{Collector, G1Collector, GcConfig, GcWork, SafepointRoots};
use polm2_heap::{
    BackendKind, BuildIdHasher, Heap, HeapConfig, IdHashMap, IdHashSet, IdentityHash, ObjectId,
    ParallelTuning, RegionId, SiteId,
};
use polm2_metrics::SimTime;
use polm2_snapshot::{CriuDumper, DumperOptions, HeapDumper, Snapshot};

/// Version of the emitted JSON schema. Bump when fields are added, removed,
/// or change meaning; the staleness check at the end of `main` fails the
/// gate until every committed default-path `BENCH_*.json` is regenerated at
/// this version.
const SCHEMA_VERSION: u32 = 2;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// ---------------------------------------------------------------------------
// Online pipeline gate
// ---------------------------------------------------------------------------

struct PipelineWorkload {
    name: &'static str,
    /// Rooted old-generation objects, all live for the whole run.
    stable_objects: u32,
    /// Unrooted young allocations per cycle, all dead by the next GC.
    churn_per_cycle: u32,
    /// Timed GC+snapshot cycles (one extra warmup cycle is untimed).
    cycles: usize,
}

const PIPELINE_WORKLOADS: &[PipelineWorkload] = &[
    PipelineWorkload {
        name: "small",
        stable_objects: 4_000,
        churn_per_cycle: 500,
        cycles: 6,
    },
    PipelineWorkload {
        name: "large",
        stable_objects: 30_000,
        churn_per_cycle: 3_000,
        cycles: 10,
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum PipelineVariant {
    /// Timed: GC + the seed's snapshot path, emulated (see
    /// [`seed_snapshot_cost`]). The real dumper advances heap state untimed.
    SeedEquivalent,
    /// Timed: GC + real snapshot with live-set reuse disabled (fresh
    /// epoch-mark trace per snapshot).
    FreshTrace,
    /// Timed: GC + real snapshot reusing the collector's published live set.
    Reuse,
}

/// The seed's object table, mirrored: the pre-slab heap kept every record
/// behind an `IdHashMap` probe. Rebuilt (untimed) after each GC so the timed
/// emulation runs the seed's algorithms over the seed's data layout.
struct SeedRecord {
    size: u32,
    region: RegionId,
    first_page: u32,
    last_page: u32,
    hash: IdentityHash,
    refs: Vec<ObjectId>,
}

fn build_seed_mirror(heap: &Heap) -> IdHashMap<ObjectId, SeedRecord> {
    let mut mirror: IdHashMap<ObjectId, SeedRecord> = IdHashMap::default();
    for space in heap.spaces() {
        for id in heap.objects_in_space(space.id()).expect("space exists") {
            let rec = heap.object(id).expect("listed object exists");
            let (first_page, last_page) = heap.page_table().pages_of(rec.addr(), rec.size());
            mirror.insert(
                id,
                SeedRecord {
                    size: rec.size(),
                    region: rec.addr().region,
                    first_page,
                    last_page,
                    hash: rec.identity_hash(),
                    refs: rec.refs().to_vec(),
                },
            );
        }
    }
    mirror
}

/// The seed's per-snapshot work, transcribed from the pre-optimization
/// sources: `mark_live` (BFS with a fresh visited hash-set, a hash-map probe
/// per edge, and hash-map region accounting), the Dumper's hash collection
/// (no pre-sizing), `mark_no_need_pages` (live pages accumulated into a
/// `HashSet`, then a per-page `contains` sweep over every assigned region),
/// the captured-page count, and `Snapshot::new`'s eager column sort.
///
/// Runs against the mirror, read-only; returns a checksum so the optimizer
/// cannot discard the work.
fn seed_snapshot_cost(heap: &Heap, mirror: &IdHashMap<ObjectId, SeedRecord>) -> u64 {
    // -- seed mark_live --
    let mut queue: VecDeque<ObjectId> = VecDeque::new();
    let mut order: Vec<ObjectId> = Vec::new();
    let mut live: IdHashSet<ObjectId> = IdHashSet::default();
    let mut live_bytes: u64 = 0;
    let mut region_live: IdHashMap<RegionId, u32> = IdHashMap::default();
    for id in heap.roots().iter() {
        if let Some(rec) = mirror.get(&id) {
            if live.insert(id) {
                order.push(id);
                live_bytes += u64::from(rec.size);
                *region_live.entry(rec.region).or_insert(0) += rec.size;
                queue.push_back(id);
            }
        }
    }
    let mut scratch: Vec<ObjectId> = Vec::new();
    while let Some(id) = queue.pop_front() {
        let rec = mirror.get(&id).expect("queued objects are live");
        scratch.clear();
        scratch.extend_from_slice(&rec.refs);
        for &child in &scratch {
            if let Some(child_rec) = mirror.get(&child) {
                if live.insert(child) {
                    order.push(child);
                    live_bytes += u64::from(child_rec.size);
                    *region_live.entry(child_rec.region).or_insert(0) += child_rec.size;
                    queue.push_back(child);
                }
            }
        }
    }
    // -- seed Dumper hash collection --
    let hashes: IdHashSet<IdentityHash> = live
        .iter()
        .filter_map(|id| mirror.get(id).map(|r| r.hash))
        .collect();
    // -- seed mark_no_need_pages --
    let mut live_pages: HashSet<u32, BuildIdHasher> = Default::default();
    for id in live.iter() {
        if let Some(rec) = mirror.get(id) {
            for p in rec.first_page..=rec.last_page {
                live_pages.insert(p);
            }
        }
    }
    let mut no_need = vec![false; heap.page_table().page_count() as usize];
    let mut marked = 0u64;
    for region in heap.regions() {
        if region.space().is_none() {
            continue;
        }
        let first = region.first_page().raw();
        for p in first..first + heap.config().pages_per_region() {
            let should = !live_pages.contains(&p);
            if should {
                marked += 1;
            }
            no_need[p as usize] = should;
        }
    }
    // -- seed captured-page count --
    let mut captured = 0u64;
    for (page, flags) in heap.page_table().iter().enumerate() {
        if flags.dirty && !no_need[page] {
            captured += 1;
        }
    }
    // -- seed Snapshot::new: eager sorted column --
    let mut sorted: Vec<u64> = hashes.iter().map(|h| u64::from(h.raw())).collect();
    sorted.sort_unstable();
    live_bytes.rotate_left(17)
        ^ order.len() as u64
        ^ region_live.len() as u64
        ^ marked.rotate_left(7)
        ^ captured
        ^ sorted.last().copied().unwrap_or(0)
}

/// One full pipeline run: identical heap trajectory for every variant, so
/// the snapshot sequences must come out bit-identical. Returns the per-cycle
/// timings (warmup excluded) and the snapshots for the equality gate.
fn run_pipeline(w: &PipelineWorkload, variant: PipelineVariant) -> (Vec<u64>, Vec<Snapshot>) {
    let mut heap = Heap::new(HeapConfig::paper_scaled());
    let mut gc = G1Collector::new(GcConfig::default());
    gc.attach(&mut heap);
    let old = heap
        .spaces()
        .iter()
        .map(|s| s.id())
        .find(|&id| id != Heap::YOUNG_SPACE)
        .expect("collector old space");

    // Stable old generation: star groups of 16 hanging off rooted hubs,
    // hubs chained together — the trace does real pointer chasing.
    let class = heap.classes_mut().intern("Stable");
    let keep = heap.roots_mut().create_slot("stable");
    let mut hub: Option<ObjectId> = None;
    for i in 0..w.stable_objects {
        let id = heap
            .allocate(class, 2_048, SiteId::new(i % 7), old)
            .expect("stable allocation");
        if i % 16 == 0 {
            heap.roots_mut().push(keep, id);
            if let Some(prev) = hub {
                heap.add_ref(prev, id).expect("hub chain");
            }
            hub = Some(id);
        } else {
            heap.add_ref(hub.expect("hub allocated first"), id)
                .expect("star edge");
        }
    }

    let churn_class = heap.classes_mut().intern("Churn");
    let mut dumper = CriuDumper::with_options(DumperOptions {
        reuse_live_set: variant == PipelineVariant::Reuse,
        ..DumperOptions::default()
    });
    let mut samples = Vec::with_capacity(w.cycles);
    let mut snaps = Vec::with_capacity(w.cycles);
    let mut sink = 0u64;
    for cycle in 0..w.cycles + 1 {
        for i in 0..w.churn_per_cycle {
            heap.allocate(
                churn_class,
                4_096,
                SiteId::new(8 + i % 5),
                Heap::YOUNG_SPACE,
            )
            .expect("churn allocation");
        }
        let (elapsed, snap) = match variant {
            PipelineVariant::SeedEquivalent => {
                let start = Instant::now();
                gc.collect(&mut heap, &SafepointRoots::none());
                let gc_time = start.elapsed();
                // The mirror rebuild stands in for the bookkeeping the seed
                // heap did throughout the cycle; it is not timed.
                let mirror = build_seed_mirror(&heap);
                let start = Instant::now();
                sink ^= seed_snapshot_cost(&heap, &mirror);
                let snap_time = start.elapsed();
                // Advance dirty/no-need state exactly like the other runs,
                // outside the timed window.
                let snap = dumper
                    .snapshot(&mut heap, SimTime::from_secs(cycle as u64))
                    .expect("snapshot");
                (gc_time + snap_time, snap)
            }
            PipelineVariant::FreshTrace | PipelineVariant::Reuse => {
                let start = Instant::now();
                gc.collect(&mut heap, &SafepointRoots::none());
                if variant == PipelineVariant::Reuse {
                    assert!(
                        heap.has_current_published_live(),
                        "the collector must have published a reusable live set"
                    );
                }
                let snap = dumper
                    .snapshot(&mut heap, SimTime::from_secs(cycle as u64))
                    .expect("snapshot");
                (start.elapsed(), snap)
            }
        };
        if cycle > 0 {
            samples.push(elapsed.as_nanos() as u64);
            snaps.push(snap);
        }
    }
    std::hint::black_box(sink);
    (samples, snaps)
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn snapshots_equal(a: &Snapshot, b: &Snapshot) -> bool {
    a.seq == b.seq
        && a.at == b.at
        && a.live_objects == b.live_objects
        && a.size_bytes == b.size_bytes
        && a.capture_time == b.capture_time
        && a.sorted_hashes() == b.sorted_hashes()
}

// ---------------------------------------------------------------------------
// GC mark+evacuate gate
// ---------------------------------------------------------------------------

struct GcGateWorkload {
    name: &'static str,
    /// Rooted old-generation objects, live for the whole run.
    stable_objects: u32,
    /// Young allocations per cycle; every 8th is rooted for roughly two
    /// cycles by a rotating slot, so each collection copies survivors,
    /// promotes, and later compacts the regions the dead wave leaves behind.
    churn_per_cycle: u32,
    /// Timed collection cycles (one extra warmup cycle is untimed).
    cycles: usize,
}

const GC_GATE_WORKLOADS: &[GcGateWorkload] = &[
    GcGateWorkload {
        name: "small",
        stable_objects: 4_000,
        churn_per_cycle: 1_500,
        cycles: 6,
    },
    GcGateWorkload {
        name: "large",
        stable_objects: 30_000,
        churn_per_cycle: 3_000,
        cycles: 10,
    },
];

/// One timed collection cycle's observables.
struct GcCycle {
    wall_ns: u64,
    work: GcWork,
    fingerprint: u64,
}

fn fnv_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Everything observable about the heap after a cycle, folded to one hash:
/// per-space object placement (id, region, offset, size, age), every page's
/// dirty/no-need bits, and the free pool size. Bit-identical trajectories
/// across worker counts must produce identical fingerprints.
fn gc_heap_fingerprint(heap: &Heap) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for space in heap.spaces() {
        for id in heap.objects_in_space(space.id()).expect("space exists") {
            let rec = heap.object(id).expect("listed object exists");
            h = fnv_mix(h, id.raw());
            h = fnv_mix(h, u64::from(rec.addr().region.raw()));
            h = fnv_mix(h, u64::from(rec.addr().offset));
            h = fnv_mix(h, u64::from(rec.size()));
            h = fnv_mix(h, u64::from(rec.age()));
        }
    }
    for flags in heap.page_table().iter() {
        h = fnv_mix(h, u64::from(flags.dirty) | u64::from(flags.no_need) << 1);
    }
    fnv_mix(h, u64::from(heap.free_region_count()))
}

/// The seed's per-pause mark+evacuate work, transcribed from the
/// pre-optimization sources: `mark_live` as a hash-set BFS (a map probe per
/// edge, hash-map region accounting — the pre-slab layout), then the young
/// evacuation loop's per-object bookkeeping: a map probe, a liveness probe,
/// survivor accounting, the vacated/destination page walks, and the
/// promotion buffer's ref clone. Runs against the mirror, read-only;
/// returns a checksum so the optimizer cannot discard the work.
fn seed_mark_evacuate_cost(heap: &Heap, mirror: &IdHashMap<ObjectId, SeedRecord>) -> u64 {
    // -- seed mark_live --
    let mut queue: VecDeque<ObjectId> = VecDeque::new();
    let mut live: IdHashSet<ObjectId> = IdHashSet::default();
    let mut live_bytes: u64 = 0;
    let mut region_live: IdHashMap<RegionId, u32> = IdHashMap::default();
    for id in heap.roots().iter() {
        if let Some(rec) = mirror.get(&id) {
            if live.insert(id) {
                live_bytes += u64::from(rec.size);
                *region_live.entry(rec.region).or_insert(0) += rec.size;
                queue.push_back(id);
            }
        }
    }
    let mut scratch: Vec<ObjectId> = Vec::new();
    while let Some(id) = queue.pop_front() {
        let rec = mirror.get(&id).expect("queued objects are live");
        scratch.clear();
        scratch.extend_from_slice(&rec.refs);
        for &child in &scratch {
            if let Some(child_rec) = mirror.get(&child) {
                if live.insert(child) {
                    live_bytes += u64::from(child_rec.size);
                    *region_live.entry(child_rec.region).or_insert(0) += child_rec.size;
                    queue.push_back(child);
                }
            }
        }
    }
    // -- seed evacuate_young --
    let mut checksum = live_bytes ^ live.len() as u64;
    let mut survivor_bytes = 0u64;
    let mut promoted: Vec<ObjectId> = Vec::new();
    for id in heap
        .objects_in_space(Heap::YOUNG_SPACE)
        .expect("young space")
    {
        let rec = mirror.get(&id).expect("young object mirrored");
        if !live.contains(&id) {
            // Dead: the vacated page range is walked for occupancy updates.
            for p in rec.first_page..=rec.last_page {
                checksum = checksum.rotate_left(1) ^ u64::from(p);
            }
            continue;
        }
        survivor_bytes += u64::from(rec.size);
        // Survivor: destination page walk (dirty, no-need, occupancy) plus
        // the vacated range.
        for p in rec.first_page..=rec.last_page {
            checksum = checksum.rotate_left(3) ^ u64::from(p);
        }
        checksum ^= u64::from(region_live.get(&rec.region).copied().unwrap_or(0));
        promoted.push(id);
    }
    // The promotion buffer: the seed cloned each promoted object's refs to
    // rebuild the remembered set after the move.
    let mut remembered: Vec<ObjectId> = Vec::new();
    for id in &promoted {
        remembered.extend_from_slice(&mirror.get(id).expect("promoted object").refs);
    }
    checksum ^ survivor_bytes.rotate_left(13) ^ remembered.len() as u64
}

/// One full GC-gate run: the heap trajectory is a pure function of the
/// workload, so every worker count (and the seed emulation, which advances
/// state with the real collector untimed) must produce identical per-cycle
/// fingerprints and work accounting.
fn run_gc_gate(w: &GcGateWorkload, workers: usize, seed_equivalent: bool) -> Vec<GcCycle> {
    let mut heap = Heap::new(HeapConfig::paper_scaled());
    let mut gc = G1Collector::new(GcConfig {
        gc_workers: workers,
        ..GcConfig::default()
    });
    gc.attach(&mut heap);
    let old = heap
        .spaces()
        .iter()
        .map(|s| s.id())
        .find(|&id| id != Heap::YOUNG_SPACE)
        .expect("collector old space");

    // Stable old generation: star groups of 16 hanging off rooted hubs,
    // hubs chained together — the mark does real pointer chasing.
    let class = heap.classes_mut().intern("Stable");
    let keep = heap.roots_mut().create_slot("stable");
    let mut hub: Option<ObjectId> = None;
    for i in 0..w.stable_objects {
        let id = heap
            .allocate(class, 2_048, SiteId::new(i % 7), old)
            .expect("stable allocation");
        if i % 16 == 0 {
            heap.roots_mut().push(keep, id);
            if let Some(prev) = hub {
                heap.add_ref(prev, id).expect("hub chain");
            }
            hub = Some(id);
        } else {
            heap.add_ref(hub.expect("hub allocated first"), id)
                .expect("star edge");
        }
    }

    let churn_class = heap.classes_mut().intern("Churn");
    let waves = [
        heap.roots_mut().create_slot("wave-a"),
        heap.roots_mut().create_slot("wave-b"),
    ];
    let mut out = Vec::with_capacity(w.cycles);
    let mut sink = 0u64;
    for cycle in 0..w.cycles + 1 {
        // Rotate the survivor roots: last cycle's wave dies, this cycle's
        // survives the collection and is promoted.
        heap.roots_mut().clear_slot(waves[cycle % 2]);
        for i in 0..w.churn_per_cycle {
            let id = heap
                .allocate(
                    churn_class,
                    4_096,
                    SiteId::new(8 + i % 5),
                    Heap::YOUNG_SPACE,
                )
                .expect("churn allocation");
            if i % 8 == 0 {
                heap.roots_mut().push(waves[cycle % 2], id);
            }
        }
        let (wall_ns, pauses) = if seed_equivalent {
            // The mirror rebuild stands in for the bookkeeping the seed heap
            // did throughout the cycle; it is not timed. The real collector
            // advances the trajectory outside the timed window.
            let mirror = build_seed_mirror(&heap);
            let start = Instant::now();
            sink ^= seed_mark_evacuate_cost(&heap, &mirror);
            let ns = start.elapsed().as_nanos() as u64;
            (ns, gc.collect(&mut heap, &SafepointRoots::none()))
        } else {
            let start = Instant::now();
            let pauses = gc.collect(&mut heap, &SafepointRoots::none());
            (start.elapsed().as_nanos() as u64, pauses)
        };
        if cycle > 0 {
            let work = pauses
                .iter()
                .fold(GcWork::default(), |acc, p| acc.merged(p.work));
            out.push(GcCycle {
                wall_ns,
                work,
                fingerprint: gc_heap_fingerprint(&heap),
            });
        }
    }
    std::hint::black_box(sink);
    out
}

// ---------------------------------------------------------------------------
// Real-memory heap backend gate
// ---------------------------------------------------------------------------

/// One heap-gate run's observables: the per-cycle trajectory (heap
/// fingerprint + merged `GcWork`), the streamed snapshot sequence, and the
/// raw material for the allocation-cost and copy-bandwidth figures.
struct HeapGateRun {
    /// Per timed cycle: heap fingerprint and merged collection work.
    cycles: Vec<(u64, GcWork)>,
    /// Streamed snapshots, one per timed cycle.
    snaps: Vec<Snapshot>,
    /// Wall-clock spent inside `Heap::allocate` calls, and how many.
    alloc_ns: u64,
    allocs: u64,
    /// Payload bytes the backend memcpy'd across the run (0 on sim).
    copied_bytes: u64,
    /// Wall-clock of the collections that did the copying.
    collect_ns: u64,
    /// Wall-clock spent inside the evacuation copy phases alone — the
    /// phase-accurate denominator for copy bandwidth (collection wall-clock
    /// also pays mark, planning, and fix-up, which PR 8's figure wrongly
    /// charged to the copier).
    copy_phase_ns: u64,
    /// Critical-path bytes of those copy phases: each phase's largest
    /// destination-region shard, summed. Equals `copied_bytes` at one
    /// worker; `copied_bytes / copy_critical_bytes` is the partition's
    /// modeled parallel speedup (the single-CPU host cannot show wall-clock
    /// copy scaling, same convention as the GC arm's Amdahl split).
    copy_critical_bytes: u64,
    /// TLAB window refills on the allocation path.
    tlab_refills: u64,
}

/// Drives the GC-gate churn workload on the given backend and worker count,
/// with the parallel break-even tuning forced so multi-worker copies run
/// even on a single-CPU host. Each cycle also streams a snapshot off the
/// heap — on the real backend the hash column comes out of the object
/// headers the backend wrote, so snapshot equality checks the payload
/// stores end to end.
fn run_heap_gate(w: &GcGateWorkload, workers: usize, backend: BackendKind) -> HeapGateRun {
    let mut heap = Heap::new(HeapConfig::paper_scaled().with_backend(backend));
    heap.set_parallel_tuning(ParallelTuning::force());
    let mut gc = G1Collector::new(GcConfig {
        gc_workers: workers,
        ..GcConfig::default()
    });
    gc.attach(&mut heap);
    let old = heap
        .spaces()
        .iter()
        .map(|s| s.id())
        .find(|&id| id != Heap::YOUNG_SPACE)
        .expect("collector old space");

    let mut alloc_ns = 0u64;
    let mut allocs = 0u64;

    // Stable old generation, identical to the GC gate's; the allocation
    // loop is timed (header + payload stores are the real backend's cost).
    let class = heap.classes_mut().intern("Stable");
    let keep = heap.roots_mut().create_slot("stable");
    let mut hub: Option<ObjectId> = None;
    for i in 0..w.stable_objects {
        let start = Instant::now();
        let id = heap
            .allocate(class, 2_048, SiteId::new(i % 7), old)
            .expect("stable allocation");
        alloc_ns += start.elapsed().as_nanos() as u64;
        allocs += 1;
        if i % 16 == 0 {
            heap.roots_mut().push(keep, id);
            if let Some(prev) = hub {
                heap.add_ref(prev, id).expect("hub chain");
            }
            hub = Some(id);
        } else {
            heap.add_ref(hub.expect("hub allocated first"), id)
                .expect("star edge");
        }
    }

    let churn_class = heap.classes_mut().intern("Churn");
    let waves = [
        heap.roots_mut().create_slot("wave-a"),
        heap.roots_mut().create_slot("wave-b"),
    ];
    let mut dumper = CriuDumper::new();
    let mut cycles = Vec::with_capacity(w.cycles);
    let mut snaps = Vec::with_capacity(w.cycles);
    let mut copied_bytes = 0u64;
    let mut collect_ns = 0u64;
    let mut copy_phase_ns = 0u64;
    let mut copy_critical_bytes = 0u64;
    for cycle in 0..w.cycles + 1 {
        heap.roots_mut().clear_slot(waves[cycle % 2]);
        for i in 0..w.churn_per_cycle {
            let start = Instant::now();
            let id = heap
                .allocate(
                    churn_class,
                    4_096,
                    SiteId::new(8 + i % 5),
                    Heap::YOUNG_SPACE,
                )
                .expect("churn allocation");
            alloc_ns += start.elapsed().as_nanos() as u64;
            allocs += 1;
            if i % 8 == 0 {
                heap.roots_mut().push(waves[cycle % 2], id);
            }
        }
        let before = heap.backend_stats();
        let start = Instant::now();
        let pauses = gc.collect(&mut heap, &SafepointRoots::none());
        let ns = start.elapsed().as_nanos() as u64;
        let after = heap.backend_stats();
        let snap = dumper
            .snapshot(&mut heap, SimTime::from_secs(cycle as u64))
            .expect("snapshot");
        if cycle > 0 {
            let work = pauses
                .iter()
                .fold(GcWork::default(), |acc, p| acc.merged(p.work));
            cycles.push((gc_heap_fingerprint(&heap), work));
            snaps.push(snap);
            copied_bytes += after.bytes_copied - before.bytes_copied;
            collect_ns += ns;
            copy_phase_ns += after.copy_phase_ns - before.copy_phase_ns;
            copy_critical_bytes += after.copy_critical_bytes - before.copy_critical_bytes;
        }
    }
    let tlab_refills = heap.backend_stats().tlab_refills;
    HeapGateRun {
        cycles,
        snaps,
        alloc_ns,
        allocs,
        copied_bytes,
        collect_ns,
        copy_phase_ns,
        copy_critical_bytes,
        tlab_refills,
    }
}

/// Fails the gate when a committed default-path bench JSON is missing,
/// carries an older schema version, or lacks a field the current gate
/// emits (`required` substrings): stale numbers alongside new code are
/// worse than no numbers.
fn check_committed_bench(path: &str, required: &[&str]) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{path}: not readable ({e}); regenerate with `perfgate`"))?;
    let tail = text
        .split("\"schema_version\":")
        .nth(1)
        .ok_or_else(|| format!("{path}: no schema_version field (pre-v{SCHEMA_VERSION} output)"))?;
    let version: u32 = tail
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .map_err(|_| format!("{path}: unparsable schema_version"))?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "{path}: schema_version {version} != gate version {SCHEMA_VERSION}; regenerate with `perfgate`"
        ));
    }
    for field in required {
        if !text.contains(field) {
            return Err(format!(
                "{path}: missing field \"{field}\" the current gate emits; regenerate with `perfgate`"
            ));
        }
    }
    Ok(())
}

fn main() {
    let mut quick = false;
    let mut min_pipeline_speedup: Option<f64> = None;
    let mut min_gc_speedup = 2.0f64;
    let mut min_heap_gbps = 0.05f64;
    let mut min_copy_scaling = 1.0f64;
    let mut pipeline_out_path = String::from("BENCH_pipeline.json");
    let mut gc_out_path = String::from("BENCH_gc.json");
    let mut heap_out_path = String::from("BENCH_heap.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--min-pipeline-speedup" => {
                let v = args.next().expect("--min-pipeline-speedup needs a value");
                min_pipeline_speedup =
                    Some(v.parse().expect("--min-pipeline-speedup needs a number"));
            }
            "--min-gc-speedup" => {
                let v = args.next().expect("--min-gc-speedup needs a value");
                min_gc_speedup = v.parse().expect("--min-gc-speedup needs a number");
            }
            "--pipeline-out" => {
                pipeline_out_path = args.next().expect("--pipeline-out needs a path");
            }
            "--gc-out" => gc_out_path = args.next().expect("--gc-out needs a path"),
            "--heap-out" => heap_out_path = args.next().expect("--heap-out needs a path"),
            "--min-heap-gbps" => {
                let v = args.next().expect("--min-heap-gbps needs a value");
                min_heap_gbps = v.parse().expect("--min-heap-gbps needs a number");
            }
            "--min-copy-scaling" => {
                let v = args.next().expect("--min-copy-scaling needs a value");
                min_copy_scaling = v.parse().expect("--min-copy-scaling needs a number");
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let mut diverged = false;

    // ---- online pipeline gate -------------------------------------------
    println!("perfgate: online GC+snapshot pipeline, median over timed cycles");
    println!(
        "{:<8} {:>8} {:>7} {:>6} | {:>14} {:>14} {:>14} | {:>8}",
        "size", "stable", "churn", "cycles", "seed-equiv", "fresh-trace", "reuse", "speedup"
    );
    let mut pipeline_rows = Vec::new();
    let mut large_pipeline_speedup = 0.0f64;
    for w in PIPELINE_WORKLOADS {
        let cycles = if quick { w.cycles.min(4) } else { w.cycles };
        let w = PipelineWorkload { cycles, ..*w };
        let (seed_samples, seed_snaps) = run_pipeline(&w, PipelineVariant::SeedEquivalent);
        let (fresh_samples, fresh_snaps) = run_pipeline(&w, PipelineVariant::FreshTrace);
        let (reuse_samples, reuse_snaps) = run_pipeline(&w, PipelineVariant::Reuse);

        let identical = seed_snaps.len() == reuse_snaps.len()
            && fresh_snaps.len() == reuse_snaps.len()
            && reuse_snaps.iter().enumerate().all(|(i, snap)| {
                snapshots_equal(snap, &seed_snaps[i]) && snapshots_equal(snap, &fresh_snaps[i])
            });
        if !identical {
            diverged = true;
            eprintln!(
                "FAIL: {} snapshot sequences diverge between pipeline variants",
                w.name
            );
        }
        let seed_ns = median(seed_samples);
        let fresh_ns = median(fresh_samples);
        let reuse_ns = median(reuse_samples);
        let speedup = seed_ns as f64 / reuse_ns.max(1) as f64;
        if w.name == "large" {
            large_pipeline_speedup = speedup;
        }
        println!(
            "{:<8} {:>8} {:>7} {:>6} | {:>11} ns {:>11} ns {:>11} ns | {:>7.2}x",
            w.name,
            w.stable_objects,
            w.churn_per_cycle,
            w.cycles,
            seed_ns,
            fresh_ns,
            reuse_ns,
            speedup
        );
        pipeline_rows.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"stable_objects\": {}, ",
                "\"churn_per_cycle\": {}, \"cycles\": {}, ",
                "\"seed_equivalent_ns_per_cycle\": {}, ",
                "\"fresh_trace_ns_per_cycle\": {}, ",
                "\"reuse_ns_per_cycle\": {}, ",
                "\"speedup_reuse_vs_seed\": {:.2}, ",
                "\"speedup_reuse_vs_fresh\": {:.2}, ",
                "\"outputs_identical\": {}}}"
            ),
            json_escape(w.name),
            w.stable_objects,
            w.churn_per_cycle,
            w.cycles,
            seed_ns,
            fresh_ns,
            reuse_ns,
            speedup,
            fresh_ns as f64 / reuse_ns.max(1) as f64,
            identical
        ));
    }
    let pipeline_json = format!(
        "{{\n  \"bench\": \"online_pipeline\",\n  \"schema_version\": {},\n  \"units\": \"median ns per GC+snapshot cycle\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        SCHEMA_VERSION,
        pipeline_rows.join(",\n")
    );
    std::fs::write(&pipeline_out_path, &pipeline_json).expect("write pipeline bench json");
    println!("wrote {pipeline_out_path}");

    // ---- GC mark+evacuate gate -------------------------------------------
    println!();
    println!("perfgate: GC mark+evacuate, median over timed cycles");
    println!(
        "{:<8} {:>8} {:>7} {:>6} | {:>13} {:>13} | {:>8} {:>9}",
        "size", "stable", "churn", "cycles", "seed-equiv", "engine-1w", "vs-seed", "4w/1w-mod"
    );
    let cost = GcConfig::default().cost;
    let mut gc_rows = Vec::new();
    let mut large_gc_speedup = 0.0f64;
    let mut gc_single_worker_ok = true;
    for w in GC_GATE_WORKLOADS {
        let cycles = if quick { w.cycles.min(4) } else { w.cycles };
        let w = GcGateWorkload { cycles, ..*w };
        let seed = run_gc_gate(&w, 1, true);
        let engine1 = run_gc_gate(&w, 1, false);
        let engine2 = run_gc_gate(&w, 2, false);
        let engine4 = run_gc_gate(&w, 4, false);

        let identical = [&engine1, &engine2, &engine4].iter().all(|run| {
            run.len() == seed.len()
                && run
                    .iter()
                    .zip(seed.iter())
                    .all(|(a, b)| a.fingerprint == b.fingerprint && a.work == b.work)
        });
        if !identical {
            diverged = true;
            eprintln!(
                "FAIL: {} heap trajectories diverge across GC worker counts",
                w.name
            );
        }

        let seed_ns = median(seed.iter().map(|c| c.wall_ns).collect());
        let engine1_ns = median(engine1.iter().map(|c| c.wall_ns).collect());
        let engine2_ns = median(engine2.iter().map(|c| c.wall_ns).collect());
        let engine4_ns = median(engine4.iter().map(|c| c.wall_ns).collect());
        let vs_seed = seed_ns as f64 / engine1_ns.max(1) as f64;
        // The single-CPU host cannot show wall-clock parallel gains; the
        // 4-vs-1 number is the cost model's Amdahl split over measured work.
        let pause1_us = median(
            engine1
                .iter()
                .map(|c| cost.pause_with_workers(&c.work, 1).as_micros())
                .collect(),
        );
        let pause4_us = median(
            engine1
                .iter()
                .map(|c| cost.pause_with_workers(&c.work, 4).as_micros())
                .collect(),
        );
        let modeled = pause1_us as f64 / pause4_us.max(1) as f64;
        if w.name == "large" {
            large_gc_speedup = modeled;
        }
        // The parallel claim/steal machinery must not tax the 1-worker path:
        // the engine must stay within 5% of the seed-equivalent serial cost.
        let single_ok = vs_seed >= 0.95;
        if !single_ok {
            gc_single_worker_ok = false;
            eprintln!(
                "FAIL: {} single-worker engine at {:.2}x of the serial baseline (floor 0.95x)",
                w.name, vs_seed
            );
        }
        println!(
            "{:<8} {:>8} {:>7} {:>6} | {:>10} ns {:>10} ns | {:>7.2}x {:>8.2}x",
            w.name,
            w.stable_objects,
            w.churn_per_cycle,
            w.cycles,
            seed_ns,
            engine1_ns,
            vs_seed,
            modeled
        );
        gc_rows.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"stable_objects\": {}, ",
                "\"churn_per_cycle\": {}, \"cycles\": {}, ",
                "\"seed_equivalent_ns_per_cycle\": {}, ",
                "\"engine_1w_ns_per_cycle\": {}, ",
                "\"engine_2w_ns_per_cycle\": {}, ",
                "\"engine_4w_ns_per_cycle\": {}, ",
                "\"speedup_engine_vs_seed\": {:.2}, ",
                "\"modeled_pause_1w_us\": {}, ",
                "\"modeled_pause_4w_us\": {}, ",
                "\"speedup_modeled_4w_vs_1w\": {:.2}, ",
                "\"single_worker_within_5pct_of_serial\": {}, ",
                "\"outputs_identical\": {}}}"
            ),
            json_escape(w.name),
            w.stable_objects,
            w.churn_per_cycle,
            w.cycles,
            seed_ns,
            engine1_ns,
            engine2_ns,
            engine4_ns,
            vs_seed,
            pause1_us,
            pause4_us,
            modeled,
            single_ok,
            identical
        ));
    }
    let gc_json = format!(
        "{{\n  \"bench\": \"gc_mark_evacuate\",\n  \"schema_version\": {},\n  \"units\": \"median ns per collection cycle; pauses in modeled us\",\n  \"workloads\": [\n{}\n  ]\n}}\n",
        SCHEMA_VERSION,
        gc_rows.join(",\n")
    );
    std::fs::write(&gc_out_path, &gc_json).expect("write gc bench json");
    println!("wrote {gc_out_path}");

    // ---- real-memory heap backend gate -----------------------------------
    println!();
    println!("perfgate: heap backend, real alloc + copy bandwidth, sim/real equality");
    println!(
        "{:<8} {:>6} | {:>11} {:>11} | {:>9} {:>9} {:>9} | {:>9}",
        "size", "cycles", "alloc-sim", "alloc-real", "copy-1w", "copy-2w", "copy-4w", "identical"
    );
    let mut heap_rows = Vec::new();
    let mut large_heap_gbps = 0.0f64;
    let mut large_copy_scaling = 0.0f64;
    for w in GC_GATE_WORKLOADS {
        let cycles = if quick { w.cycles.min(4) } else { w.cycles };
        let w = GcGateWorkload { cycles, ..*w };
        let sim = run_heap_gate(&w, 1, BackendKind::Sim);
        // Two more sim runs feed the alloc baseline only (the first run's
        // snapshots anchor the equality gate): the real alloc figure below
        // is the fastest of three repetitions, so the sim side must use
        // the same estimator or host noise in a single sim run skews the
        // real/sim ratio either way.
        let sim_alloc_reruns = [
            run_heap_gate(&w, 1, BackendKind::Sim),
            run_heap_gate(&w, 1, BackendKind::Sim),
        ];
        let real1 = run_heap_gate(&w, 1, BackendKind::Real);
        let real2 = run_heap_gate(&w, 2, BackendKind::Real);
        let real4 = run_heap_gate(&w, 4, BackendKind::Real);

        // The hard gate: identical trajectories (placement fingerprints +
        // GcWork) and identical streamed snapshot sequences, sim vs real at
        // every worker count. On the real backend the snapshot columns are
        // read back out of object headers, so this also proves every payload
        // store and memcpy landed where the logical layout says it did.
        let identical = [&real1, &real2, &real4].iter().all(|r| {
            r.cycles == sim.cycles
                && r.snaps.len() == sim.snaps.len()
                && r.snaps
                    .iter()
                    .zip(sim.snaps.iter())
                    .all(|(a, b)| snapshots_equal(a, b))
        });
        if !identical {
            diverged = true;
            eprintln!("FAIL: {} sim and real backends diverged", w.name);
        }
        if real1.copied_bytes == 0 || sim.copied_bytes != 0 {
            diverged = true;
            eprintln!(
                "FAIL: {} backend byte accounting wrong (real copied {} bytes, sim {})",
                w.name, real1.copied_bytes, sim.copied_bytes
            );
        }

        let alloc_sim_ns = [&sim, &sim_alloc_reruns[0], &sim_alloc_reruns[1]]
            .iter()
            .map(|r| r.alloc_ns / r.allocs.max(1))
            .min()
            .expect("three sim runs");
        // The allocation loop is identical across the three real runs (the
        // worker count only changes collection phases), so they are three
        // repetitions of one alloc benchmark; report the fastest, the
        // steady-state figure. The first run's arena is freshly prefaulted
        // and still pays one-time host-side page-materialization debt that
        // the recycled arenas of the later runs do not.
        let alloc_real_ns = [&real1, &real2, &real4]
            .iter()
            .map(|r| r.alloc_ns / r.allocs.max(1))
            .min()
            .expect("three real runs");
        // Phase-accurate copy bandwidth: bytes/ns == GB/s over the *copy
        // phase* wall-clock only. The serial per-byte cost is measured at
        // one worker — the only clean measurement a single-CPU host can
        // make, since a scoped-thread copy phase there pays per-batch
        // spawn and timeslice overhead a multi-core host would not. The
        // multi-worker figures apply the partition-balance split
        // `copied / critical` (each phase's largest destination-region
        // shard is the critical path) to that measured serial rate — the
        // same measured-work/modeled-split convention as the GC arm's
        // pauses. At one worker critical == copied, so the figure is the
        // plain measured phase bandwidth; the raw multi-worker phase
        // wall-clocks still land in the JSON row unmodeled.
        let serial_gbps = real1.copied_bytes as f64 / real1.copy_phase_ns.max(1) as f64;
        let gbps = |r: &HeapGateRun| {
            serial_gbps * (r.copied_bytes as f64 / r.copy_critical_bytes.max(1) as f64)
        };
        let (g1, g2, g4) = (gbps(&real1), gbps(&real2), gbps(&real4));
        let copy_scaling = g4 / g1.max(f64::MIN_POSITIVE);
        if w.name == "large" {
            large_heap_gbps = g1.max(g2).max(g4);
            large_copy_scaling = copy_scaling;
        }
        println!(
            "{:<8} {:>6} | {:>8} ns {:>8} ns | {:>9.2} {:>9.2} {:>9.2} | {:>9}",
            w.name, w.cycles, alloc_sim_ns, alloc_real_ns, g1, g2, g4, identical
        );
        heap_rows.push(format!(
            concat!(
                "    {{\"name\": \"{}\", \"cycles\": {}, ",
                "\"alloc_ns_per_object_sim\": {}, ",
                "\"alloc_ns_per_object_real\": {}, ",
                "\"alloc_real_over_sim\": {:.2}, ",
                "\"tlab_refills\": {}, ",
                "\"real_copied_bytes_per_run\": {}, ",
                "\"copy_phase_ns_1w\": {}, ",
                "\"copy_phase_ns_2w\": {}, ",
                "\"copy_phase_ns_4w\": {}, ",
                "\"copy_gbps_1w\": {:.3}, ",
                "\"copy_gbps_2w\": {:.3}, ",
                "\"copy_gbps_4w\": {:.3}, ",
                "\"copy_gbps_wallclock_1w\": {:.3}, ",
                "\"copy_scaling_4w_over_1w\": {:.2}, ",
                "\"outputs_identical\": {}}}"
            ),
            json_escape(w.name),
            w.cycles,
            alloc_sim_ns,
            alloc_real_ns,
            alloc_real_ns as f64 / alloc_sim_ns.max(1) as f64,
            real1.tlab_refills,
            real1.copied_bytes,
            real1.copy_phase_ns,
            real2.copy_phase_ns,
            real4.copy_phase_ns,
            g1,
            g2,
            g4,
            // PR 8's convention — payload bytes over *collection* wall-clock
            // — kept in the row so the phase-accurate figure's gain over it
            // stays visible (collection wall-clock also pays mark, planning,
            // and fix-up).
            real1.copied_bytes as f64 / real1.collect_ns.max(1) as f64,
            copy_scaling,
            identical
        ));
    }
    let heap_json = format!(
        concat!(
            "{{\n  \"bench\": \"heap_backend\",\n",
            "  \"schema_version\": {},\n",
            "  \"units\": \"alloc in ns/object; copy bandwidth in GB/s of payload memcpy over copy-phase wall-clock, measured at 1 worker and scaled by the partition-balance split at >1 worker\",\n",
            "  \"workloads\": [\n{}\n  ]\n}}\n"
        ),
        SCHEMA_VERSION,
        heap_rows.join(",\n")
    );
    std::fs::write(&heap_out_path, &heap_json).expect("write heap bench json");
    println!("wrote {heap_out_path}");

    if diverged {
        std::process::exit(1);
    }
    if let Some(min) = min_pipeline_speedup {
        if large_pipeline_speedup < min {
            eprintln!(
                "FAIL: large-workload pipeline speedup {large_pipeline_speedup:.2}x below required {min:.2}x"
            );
            std::process::exit(1);
        }
        println!("pipeline speedup gate passed: {large_pipeline_speedup:.2}x >= {min:.2}x");
    }
    if large_gc_speedup < min_gc_speedup {
        eprintln!(
            "FAIL: large-workload modeled 4-worker GC speedup {large_gc_speedup:.2}x below required {min_gc_speedup:.2}x"
        );
        std::process::exit(1);
    }
    println!("gc speedup gate passed: {large_gc_speedup:.2}x >= {min_gc_speedup:.2}x");
    if !gc_single_worker_ok {
        eprintln!("FAIL: single-worker GC throughput fell below 95% of the serial baseline");
        std::process::exit(1);
    }
    println!("gc single-worker throughput gate passed");
    if large_heap_gbps < min_heap_gbps {
        eprintln!(
            "FAIL: large-workload real copy bandwidth {large_heap_gbps:.3} GB/s below required {min_heap_gbps:.3} GB/s"
        );
        std::process::exit(1);
    }
    println!(
        "heap copy-bandwidth gate passed: {large_heap_gbps:.3} GB/s >= {min_heap_gbps:.3} GB/s"
    );
    if large_copy_scaling < min_copy_scaling {
        eprintln!(
            "FAIL: large-workload copy scaling (4w/1w) {large_copy_scaling:.2}x below required {min_copy_scaling:.2}x"
        );
        std::process::exit(1);
    }
    println!("heap copy-scaling gate passed: {large_copy_scaling:.2}x >= {min_copy_scaling:.2}x");

    // ---- committed-results staleness check -------------------------------
    // Checked at the default paths regardless of --*-out overrides: CI runs
    // write throwaway files but the repo's committed numbers must match the
    // gate's schema.
    let mut stale = false;
    for (path, required) in [
        ("BENCH_pipeline.json", &[][..]),
        ("BENCH_gc.json", &[]),
        (
            "BENCH_heap.json",
            &[
                "copy_phase_ns_1w",
                "copy_gbps_4w",
                "copy_gbps_wallclock_1w",
                "copy_scaling_4w_over_1w",
                "tlab_refills",
                "alloc_real_over_sim",
            ],
        ),
    ] {
        if let Err(reason) = check_committed_bench(path, required) {
            eprintln!("FAIL: stale committed bench results — {reason}");
            stale = true;
        }
    }
    if stale {
        std::process::exit(1);
    }
    println!("committed bench results are at schema version {SCHEMA_VERSION}");
}
