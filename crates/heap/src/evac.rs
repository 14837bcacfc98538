//! Batched evacuation: plan/apply split and the parallel fix-up phase.
//!
//! [`Heap::evacuate_batch`] is the heap's only way to move or free an
//! object; a single move or drop is a one-op batch. It runs in three phases. The *planning* phase is
//! serial and deterministic: it walks the ops in order, takes dead records,
//! bump-allocates every destination address, and updates region lists and
//! live-byte accounting — everything whose outcome depends on order. The
//! *copy* phase (real backend only) memcpys the planned payloads,
//! partitioned by **destination region** ([`plan_copy_shards`]): moves into
//! the same region stay on one worker, so workers stream into disjoint
//! memory instead of interleaving stores across each other's cache lines,
//! and the phase is timed on its own so bandwidth figures measure the
//! copier. What remains for the *fix-up* phase is strictly commutative:
//! rewriting each moved record's address/age (disjoint slots), adjusting
//! per-page occupancy counters (atomic add/sub), and ORing/ANDNOT-ing page
//! dirty/no-need bits. Commutativity is what makes the fix-up safe to shard
//! across workers with no coordination and bit-identical at any worker
//! count; the copy phase is safe because destination ranges are distinct
//! bump allocations, and *placement-identical* because copying bytes can
//! never alter logical state.
//!
//! [`Heap::evacuate_batch`]: crate::Heap::evacuate_batch

use std::sync::atomic::Ordering;

use crate::backend::RegionCopier;
use crate::region::as_atomic_words;
use crate::{Addr, ObjectRecord, PageTable, SpaceId};

/// What a collector decided to do with one object during an evacuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvacDecision {
    /// The object is dead: take its record and free its pages.
    Drop,
    /// The object survives: copy it into `dest`.
    Move {
        /// Destination space (same space for survivor copying, an older
        /// space for promotion or compaction).
        dest: SpaceId,
        /// Bump the object's young-generation age as part of the move
        /// (survivor copying and promotion do; compaction does not).
        bump_age: bool,
    },
}

/// A planned move, carrying everything the fix-up phase needs without
/// touching shared heap state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MoveEntry {
    /// Record slot of the moved object (unique within one batch).
    pub slot: u32,
    pub dest: SpaceId,
    /// Address the object is copied from (the payload source).
    pub old_addr: Addr,
    pub new_addr: Addr,
    pub size: u32,
    pub bump_age: bool,
    /// Global page range the object vacated.
    pub old_first: u32,
    pub old_last: u32,
    /// Global page range the object now occupies.
    pub new_first: u32,
    pub new_last: u32,
}

/// A planned drop: only the vacated page range remains to account.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DropEntry {
    pub first: u32,
    pub last: u32,
}

/// Shares the record slab across fix-up workers.
///
/// Safety rests on the batch contract: every [`MoveEntry::slot`] is unique
/// within the batch, so no two workers ever touch the same record, and the
/// exclusive `&mut` borrow held by the caller guarantees nothing else reads
/// the slab while workers write disjoint slots.
struct RecordsCell {
    ptr: *mut Option<ObjectRecord>,
    len: usize,
}

unsafe impl Sync for RecordsCell {}

impl RecordsCell {
    /// Returns the slot's address; the caller may form a `&mut` from it only
    /// while no other worker holds the same slot (guaranteed by slot
    /// uniqueness within the batch).
    fn record(&self, slot: u32) -> *mut Option<ObjectRecord> {
        assert!((slot as usize) < self.len, "record slot out of range");
        // SAFETY: `slot < len` was just asserted, so the offset stays inside
        // the slab allocation `ptr` was derived from.
        unsafe { self.ptr.add(slot as usize) }
    }
}

/// One worker's share of a copy phase: the indices into the move list it
/// copies, and their total payload bytes.
#[derive(Debug, Default)]
pub(crate) struct CopyShard {
    pub moves: Vec<u32>,
    pub bytes: u64,
}

/// Partitions a batch's moves into per-worker copy shards, keyed by
/// **destination region**: all moves into one region land on one worker
/// (disjoint destination memory per worker, no cross-worker cache-line
/// interleaving), and region groups are spread across workers
/// largest-bytes-first onto the least-loaded shard (deterministic LPT).
/// Returns exactly `workers.max(1)` shards; trailing shards may be empty
/// when there are fewer destination regions than workers.
pub(crate) fn plan_copy_shards(moves: &[MoveEntry], workers: usize) -> Vec<CopyShard> {
    let workers = workers.max(1);
    let mut shards: Vec<CopyShard> = (0..workers).map(|_| CopyShard::default()).collect();
    if moves.is_empty() {
        return shards;
    }
    // Group move indices by destination region, preserving planning order
    // within each group (sort is stable; the key ignores the index).
    let mut by_dest: Vec<u32> = (0..moves.len() as u32).collect();
    by_dest.sort_by_key(|&i| moves[i as usize].new_addr.region.raw());
    let mut groups: Vec<(u64, Vec<u32>)> = Vec::new();
    let mut start = 0;
    while start < by_dest.len() {
        let region = moves[by_dest[start] as usize].new_addr.region;
        let mut end = start;
        let mut bytes = 0u64;
        while end < by_dest.len() && moves[by_dest[end] as usize].new_addr.region == region {
            bytes += u64::from(moves[by_dest[end] as usize].size);
            end += 1;
        }
        groups.push((bytes, by_dest[start..end].to_vec()));
        start = end;
    }
    // LPT: biggest groups first, each onto the currently lightest shard.
    // Ties break on the group's first move index, keeping the plan a pure
    // function of the batch.
    groups.sort_by_key(|(bytes, idxs)| (std::cmp::Reverse(*bytes), idxs[0]));
    for (bytes, idxs) in groups {
        let lightest = shards
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.bytes, *i))
            .map(|(i, _)| i)
            .expect("workers >= 1");
        shards[lightest].bytes += bytes;
        shards[lightest].moves.extend(idxs);
    }
    shards
}

/// Runs the copy phase: each non-empty shard's payload memcpys on its own
/// scoped thread (or inline when only one shard has work). Safe because
/// destination ranges are distinct bump allocations and source regions are
/// detached (the [`RegionCopier`] contract), and shard partitioning by
/// destination region additionally keeps each worker's stores inside its
/// own regions.
pub(crate) fn run_copy_phase(copier: &RegionCopier<'_>, moves: &[MoveEntry], shards: &[CopyShard]) {
    let busy = shards.iter().filter(|s| !s.moves.is_empty()).count();
    if busy <= 1 {
        for shard in shards {
            for &i in &shard.moves {
                let m = &moves[i as usize];
                copier.copy(m.old_addr, m.new_addr, m.size);
            }
        }
        return;
    }
    std::thread::scope(|s| {
        for shard in shards.iter().filter(|s| !s.moves.is_empty()) {
            s.spawn(move || {
                for &i in &shard.moves {
                    let m = &moves[i as usize];
                    copier.copy(m.old_addr, m.new_addr, m.size);
                }
            });
        }
    });
}

/// Applies the fix-up phase across `workers` scoped threads. Every effect is
/// commutative, so chunk boundaries and interleaving cannot change the final
/// state. Payload copies happen earlier, in the dedicated copy phase
/// ([`run_copy_phase`]); by the time fix-up runs, the bytes have landed.
pub(crate) fn apply_parallel(
    workers: usize,
    records: &mut [Option<ObjectRecord>],
    page_object_counts: &mut [u32],
    page_table: &mut PageTable,
    moves: &[MoveEntry],
    drops: &[DropEntry],
) {
    let workers = workers.max(1);
    let cell = RecordsCell {
        ptr: records.as_mut_ptr(),
        len: records.len(),
    };
    let counts = as_atomic_words(page_object_counts);
    let (dirty, no_need) = page_table.atomic_views();
    let move_chunk = moves.len().div_ceil(workers).max(1);
    let drop_chunk = drops.len().div_ceil(workers).max(1);
    std::thread::scope(|s| {
        for w in 0..workers {
            let cell = &cell;
            let counts = &counts;
            let dirty = &dirty;
            let no_need = &no_need;
            s.spawn(move || {
                let mstart = (w * move_chunk).min(moves.len());
                let mend = ((w + 1) * move_chunk).min(moves.len());
                for m in &moves[mstart..mend] {
                    // SAFETY: slots are unique within the batch; this worker
                    // is the only one holding this slot.
                    let rec = unsafe { &mut *cell.record(m.slot) }
                        .as_mut()
                        .expect("planned move has a record");
                    rec.relocate(m.dest, m.new_addr);
                    if m.bump_age {
                        rec.bump_age();
                    }
                    for p in m.new_first..=m.new_last {
                        dirty.set(p);
                        no_need.clear(p);
                        counts[p as usize].fetch_add(1, Ordering::Relaxed);
                    }
                    for p in m.old_first..=m.old_last {
                        counts[p as usize].fetch_sub(1, Ordering::Relaxed);
                    }
                }
                let dstart = (w * drop_chunk).min(drops.len());
                let dend = ((w + 1) * drop_chunk).min(drops.len());
                for d in &drops[dstart..dend] {
                    for p in d.first..=d.last {
                        counts[p as usize].fetch_sub(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
}
