//! The sharded mark: scoped worker threads tracing the object graph behind
//! a safepoint, bit-identical to the serial tracer at any worker count.
//!
//! Discipline:
//!
//! * **Claim at discovery.** A worker owns an object iff it wins the atomic
//!   swap of the record's claim stamp to the current epoch — one `AtomicU32`
//!   RMW per record, the CAS the slab table + epoch bits were built for.
//!   The winner accounts the object (membership bit, bytes, region bytes)
//!   into its private buffers and queues it for ref expansion;
//!   losers skip. Claims make every accounting effect exactly-once, so the
//!   merged result is independent of which worker got there first.
//! * **Per-worker overflow + stealing.** Each worker drains a private stack;
//!   when it grows past a threshold the worker donates half to a shared
//!   overflow queue, and idle workers steal batches from it. Termination:
//!   queue and active-count live under one mutex, so "queue empty and no
//!   worker active" is checked atomically — no missed-wakeup race.
//! * **Deterministic merge.** Private bitmaps OR together, byte counters
//!   add, and the returned [`LiveSet::order`] is re-derived from the merged
//!   bitmap in ascending-id order — sort-free and schedule-independent.
//!
//! [`LiveSet::order`]: crate::LiveSet

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::heap::{bit_set, DEAD_SLOT};
use crate::{Heap, ObjectId, ObjectRecord};

/// Donate half the private stack once it grows past this many entries.
const DONATE_THRESHOLD: usize = 512;
/// Re-check the donation condition every this many processed nodes.
const DONATE_CHECK_EVERY: usize = 64;
/// Keep the shared overflow queue below this many entries.
const QUEUE_CAP: usize = 8192;
/// Steal at most this many ids per visit to the shared queue.
const STEAL_BATCH: usize = 256;

/// Immutable inputs shared by every mark worker.
pub(crate) struct MarkShards<'a> {
    pub workers: usize,
    pub epoch: u32,
    pub slots: &'a [u32],
    pub records: &'a [Option<ObjectRecord>],
    /// Per-slot claim stamps; a slot whose stamp already equals `epoch` is
    /// claimed. Stale values are from past epochs and can never collide.
    pub stamps: &'a [AtomicU32],
    pub young_only: bool,
}

/// One worker's private accounting, merged serially after the join.
struct WorkerState {
    bits: Vec<u64>,
    region_live: Vec<u32>,
    live_bytes: u64,
    /// Claimed objects awaiting ref expansion.
    local: Vec<ObjectId>,
}

/// Shared overflow queue plus the count of workers still holding work; both
/// under one lock so termination ("empty and nobody active") is atomic.
struct SharedQueue {
    queue: Vec<ObjectId>,
    active: usize,
}

impl MarkShards<'_> {
    /// Attempts to claim `id` for this epoch. Returns the record iff this
    /// caller won the claim *and* the object is in scope (young-only marks
    /// discard non-young objects after claiming — harmless, since stamps
    /// are scratch and the object is simply never accounted).
    fn try_claim(&self, id: ObjectId) -> Option<&ObjectRecord> {
        let slot = self.slots.get(id.index()).copied()?;
        if slot == DEAD_SLOT {
            return None;
        }
        if self.stamps[slot as usize].swap(self.epoch, Ordering::Relaxed) == self.epoch {
            return None;
        }
        let rec = self.records[slot as usize]
            .as_ref()
            .expect("live slot has a record");
        if self.young_only && rec.space() != Heap::YOUNG_SPACE {
            return None;
        }
        Some(rec)
    }
}

/// Accounts a freshly claimed object into the worker's private buffers.
fn account(state: &mut WorkerState, id: ObjectId, rec: &ObjectRecord) {
    bit_set(&mut state.bits, id.index());
    state.live_bytes += u64::from(rec.size());
    state.region_live[rec.addr().region.index()] += rec.size();
}

fn worker_loop(
    shards: &MarkShards<'_>,
    shared: &Mutex<SharedQueue>,
    mut state: WorkerState,
) -> WorkerState {
    let mut since_check = 0usize;
    loop {
        while let Some(id) = state.local.pop() {
            let slot = shards.slots[id.index()] as usize;
            let rec = shards.records[slot].as_ref().expect("claimed record");
            for &child in rec.refs() {
                if let Some(crec) = shards.try_claim(child) {
                    account(&mut state, child, crec);
                    state.local.push(child);
                }
            }
            since_check += 1;
            if since_check >= DONATE_CHECK_EVERY {
                since_check = 0;
                if state.local.len() >= DONATE_THRESHOLD {
                    let mut sq = shared.lock().expect("mark queue poisoned");
                    if sq.queue.len() < QUEUE_CAP {
                        let keep = state.local.len() / 2;
                        sq.queue.extend(state.local.drain(keep..));
                    }
                }
            }
        }
        // Local stack dry: steal or retire. `active` counts workers that may
        // still produce donations; the last one out confirms the queue is
        // empty under the same lock, so no work can be stranded.
        let mut sq = shared.lock().expect("mark queue poisoned");
        if !sq.queue.is_empty() {
            let n = sq.queue.len().saturating_sub(STEAL_BATCH);
            state.local.extend(sq.queue.drain(n..));
            continue;
        }
        sq.active -= 1;
        if sq.active == 0 {
            return state;
        }
        drop(sq);
        loop {
            std::thread::yield_now();
            let mut sq = shared.lock().expect("mark queue poisoned");
            if !sq.queue.is_empty() {
                sq.active += 1;
                let n = sq.queue.len().saturating_sub(STEAL_BATCH);
                state.local.extend(sq.queue.drain(n..));
                break;
            }
            if sq.active == 0 {
                return state;
            }
        }
    }
}

/// Runs a sharded mark from `roots` and merges per-worker results into the
/// caller's buffers (`bits` and `region_live`, both pre-zeroed). Returns the
/// total live bytes.
///
/// The caller rebuilds the canonical order from the merged `bits`.
pub(crate) fn parallel_mark(
    shards: &MarkShards<'_>,
    roots: &[ObjectId],
    bits: &mut [u64],
    region_live: &mut [u32],
) -> u64 {
    let workers = shards.workers.max(1);
    let bit_words = bits.len();
    let region_count = region_live.len();
    let shared = Mutex::new(SharedQueue {
        queue: Vec::new(),
        active: workers,
    });
    let states = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let shared = &shared;
                s.spawn(move || {
                    let mut state = WorkerState {
                        bits: vec![0u64; bit_words],
                        region_live: vec![0u32; region_count],
                        live_bytes: 0,
                        local: Vec::new(),
                    };
                    // Round-robin root partition; claims dedupe overlaps.
                    for id in roots.iter().skip(w).step_by(workers).copied() {
                        if let Some(rec) = shards.try_claim(id) {
                            account(&mut state, id, rec);
                            state.local.push(id);
                        }
                    }
                    worker_loop(shards, shared, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mark worker panicked"))
            .collect::<Vec<_>>()
    });

    let mut live_bytes = 0u64;
    for state in states {
        for (dst, src) in bits.iter_mut().zip(state.bits.iter()) {
            *dst |= src;
        }
        for (dst, src) in region_live.iter_mut().zip(state.region_live.iter()) {
            *dst += src;
        }
        live_bytes += state.live_bytes;
    }
    live_bytes
}
