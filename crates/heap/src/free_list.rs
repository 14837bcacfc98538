//! Size-class segregated free-list allocator backing tenured region memory.
//!
//! A [`FreeList`] owns large page-aligned chunks obtained from the system
//! allocator and serves variable-sized blocks out of them. Every block
//! handed out is **zeroed**, the same handout contract as
//! [`BumpArena`](crate::bump::BumpArena): fresh chunks come zeroed, and
//! uncommitted until first touch, from the system allocator, and freed
//! blocks are re-zeroed at [`free`](FreeList::free) time — which the
//! backend only reaches from a region release inside a collection, so the
//! bulk memset is charged to GC wall-clock, never to the allocation path.
//! Splitting and merging preserve the contract for free (zeroed fragments
//! of zeroed blocks), which is what lets tenured allocation store only the
//! 8-byte object header.
//!
//! Free space is **segregated by size class**: class `c` holds free blocks
//! of `granule * 2^c ..= granule * (2^(c+1) - 1)` bytes (the last class is
//! open-ended), each class a LIFO stack, with a nonempty-class bitmap on
//! top. Allocation is O(1): a bounded first-fit scan of the request's own
//! class, then a bitmap scan for the lowest nonempty *strictly higher*
//! class, any block of which is guaranteed to fit. The class of a size is
//! a precomputed table lookup ([`FreeList::class_of`]).
//!
//! `free` does O(1) bookkeeping — push, set a bit — because coalescing is
//! **deferred**: instead of merging neighbors on every free, the whole
//! list is address-sorted and merged in one pass by [`FreeList::coalesce`],
//! which the real backend runs once per GC cycle (and `alloc` runs itself
//! before growing, so a fit fragmented across deferred frees is always
//! found before the footprint grows). The invariants "no overlap, classes
//! consistent, bytes accounted" hold at every step
//! ([`FreeList::assert_invariants`]); "no two adjacent free blocks"
//! additionally holds right after a coalesce
//! ([`FreeList::assert_coalesced`]).
//!
//! Like [`BumpArena`](crate::bump::BumpArena), blocks are identified by
//! handles ([`FreeBlock`]) rather than raw addresses, which keeps pointer
//! provenance clean under Miri and makes `free` order-independent with no
//! address lookup.

use std::ptr::NonNull;

use crate::bump::{rezero, Chunk};

/// Number of size classes. Class `c` holds free blocks of
/// `granule * 2^c ..= granule * (2^(c+1) - 1)` bytes; the last class is
/// open-ended.
const NUM_CLASSES: usize = 16;

/// Granule counts covered by the precomputed size-class table; larger
/// counts (blocks over 16 MiB at the 4 KiB production granule) fall back
/// to the bit-scan formula.
const CLASS_LUT_GRANULES: usize = 4096;

/// How many blocks of the request's own class the bounded first-fit scan
/// inspects before escalating to a strictly higher class.
const CLASS_SCAN: usize = 8;

/// Handle to one allocated block. Must be passed back to
/// [`FreeList::free`] exactly once; the memory stays valid until then (or
/// until the list is dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeBlock {
    chunk: u32,
    offset: usize,
    /// The rounded size actually reserved for the block.
    pub(crate) size: usize,
}

impl FreeBlock {
    /// The rounded size actually reserved for the block, in bytes.
    pub fn size(&self) -> usize {
        self.size
    }
}

/// A free block on one of the class lists.
#[derive(Debug, Clone, Copy)]
struct Slot {
    chunk: u32,
    offset: usize,
    size: usize,
}

/// A size-class segregated free-list allocator with deferred address-order
/// coalescing.
#[derive(Debug)]
pub struct FreeList {
    /// Size granule and alignment of every block — the heap page size.
    granule: usize,
    /// Preferred chunk size; oversized requests get a dedicated chunk.
    min_chunk: usize,
    chunks: Vec<Chunk>,
    /// Per size class: LIFO stack of free blocks.
    classes: Vec<Vec<Slot>>,
    /// Bit `c` set iff `classes[c]` is nonempty.
    nonempty: u32,
    /// `granule count -> class`, precomputed so the alloc path does one
    /// indexed load instead of a bit scan.
    class_lut: Box<[u8; CLASS_LUT_GRANULES]>,
    /// Frees since the last coalesce (deferred-merge debt).
    pending_frees: usize,
    /// Retained scratch for [`FreeList::coalesce`].
    scratch: Vec<Slot>,
    /// Bytes currently handed out to callers.
    allocated_bytes: usize,
}

// SAFETY: the list exclusively owns its chunks; the raw pointers are never
// shared, so moving the whole list to another thread is sound.
unsafe impl Send for FreeList {}

impl FreeList {
    /// Creates a free list serving blocks rounded to `granule` (a power of
    /// two, typically the heap page size), growing in `min_chunk`-sized
    /// chunks.
    pub fn new(granule: usize, min_chunk: usize) -> Self {
        assert!(granule.is_power_of_two(), "granule must be a power of two");
        let mut class_lut = Box::new([0u8; CLASS_LUT_GRANULES]);
        for (g, slot) in class_lut.iter_mut().enumerate().skip(1) {
            *slot = Self::class_of_granules(g) as u8;
        }
        FreeList {
            granule,
            min_chunk: min_chunk.max(granule),
            chunks: Vec::new(),
            classes: vec![Vec::new(); NUM_CLASSES],
            nonempty: 0,
            class_lut,
            pending_frees: 0,
            scratch: Vec::new(),
            allocated_bytes: 0,
        }
    }

    fn round_up(&self, size: usize) -> usize {
        size.max(1).div_ceil(self.granule) * self.granule
    }

    /// `floor(log2(g))` clamped to the last class — the bit-scan fallback
    /// behind the lookup table.
    fn class_of_granules(g: usize) -> usize {
        debug_assert!(g >= 1);
        ((usize::BITS - 1 - g.leading_zeros()) as usize).min(NUM_CLASSES - 1)
    }

    /// The size class of a rounded block size: one table load for every
    /// block up to [`CLASS_LUT_GRANULES`] granules, bit scan beyond.
    #[inline]
    fn class_of(&self, size: usize) -> usize {
        debug_assert!(size >= self.granule && size.is_multiple_of(self.granule));
        let g = size / self.granule;
        match self.class_lut.get(g) {
            Some(&c) => c as usize,
            None => Self::class_of_granules(g),
        }
    }

    fn push_slot(&mut self, slot: Slot) {
        let class = self.class_of(slot.size);
        self.classes[class].push(slot);
        self.nonempty |= 1 << class;
    }

    fn take_slot(&mut self, class: usize, index: usize) -> Slot {
        let slot = self.classes[class].swap_remove(index);
        if self.classes[class].is_empty() {
            self.nonempty &= !(1 << class);
        }
        slot
    }

    /// O(1) segregated fit: a bounded first-fit scan of the request's own
    /// class (newest blocks first), then the lowest nonempty strictly
    /// higher class, whose every block is guaranteed large enough.
    fn try_alloc(&mut self, size: usize) -> Option<FreeBlock> {
        let class = self.class_of(size);
        let len = self.classes[class].len();
        for i in (len.saturating_sub(CLASS_SCAN)..len).rev() {
            if self.classes[class][i].size >= size {
                let slot = self.take_slot(class, i);
                return Some(self.carve(slot, size));
            }
        }
        let higher = self.nonempty >> (class + 1);
        if higher != 0 {
            let c = class + 1 + higher.trailing_zeros() as usize;
            let index = self.classes[c].len() - 1;
            let slot = self.take_slot(c, index);
            debug_assert!(slot.size >= size, "higher-class block too small");
            return Some(self.carve(slot, size));
        }
        None
    }

    /// Splits `size` bytes off the low end of `slot`, returning the
    /// remainder (if any) to its class.
    fn carve(&mut self, slot: Slot, size: usize) -> FreeBlock {
        if slot.size > size {
            self.push_slot(Slot {
                chunk: slot.chunk,
                offset: slot.offset + size,
                size: slot.size - size,
            });
        }
        self.allocated_bytes += size;
        FreeBlock {
            chunk: slot.chunk,
            offset: slot.offset,
            size,
        }
    }

    /// Allocates a block of at least `size` bytes (rounded up to the
    /// granule) with every byte zeroed (see the module docs), splitting the
    /// chosen free block and keeping the remainder on the list.
    pub fn alloc(&mut self, size: usize) -> FreeBlock {
        let size = self.round_up(size);
        if let Some(block) = self.try_alloc(size) {
            return block;
        }
        // The fit may exist but be fragmented across deferred frees;
        // coalesce before paying for fresh memory.
        if self.pending_frees > 0 {
            self.coalesce();
            if let Some(block) = self.try_alloc(size) {
                return block;
            }
        }
        // Grow. Fresh chunks come zeroed: no memset, pages commit on touch.
        let bytes = self.round_up(size.max(self.min_chunk));
        self.chunks.push(Chunk::zeroed(bytes, self.granule));
        self.push_slot(Slot {
            chunk: (self.chunks.len() - 1) as u32,
            offset: 0,
            size: bytes,
        });
        self.try_alloc(size).expect("fresh chunk fits the request")
    }

    /// Returns a block to the list, re-zeroing it in bulk — the GC-side
    /// half of the zeroed-handout contract (the backend frees only from a
    /// region release inside a collection). The list bookkeeping is O(1):
    /// coalescing with neighbors is deferred to the next
    /// [`coalesce`](FreeList::coalesce) pass. The caller must not touch
    /// the block's memory afterwards, and must not free the same block
    /// twice.
    pub fn free(&mut self, block: FreeBlock) {
        // SAFETY: the block is live (not yet freed) and spans `size`
        // writable bytes of its chunk; the caller surrenders it here.
        unsafe { rezero(self.ptr(block).as_ptr(), block.size) };
        self.push_slot(Slot {
            chunk: block.chunk,
            offset: block.offset,
            size: block.size,
        });
        self.pending_frees += 1;
        self.allocated_bytes -= block.size;
    }

    /// Address-order coalescing pass: sorts every free block and merges
    /// adjacent neighbors in one sweep, rebuilding the class lists. Run
    /// once per GC cycle by the real backend (and by
    /// [`alloc`](FreeList::alloc) before it grows the footprint), instead
    /// of on every `free`.
    pub fn coalesce(&mut self) {
        self.pending_frees = 0;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for class in &mut self.classes {
            scratch.append(class);
        }
        self.nonempty = 0;
        scratch.sort_unstable_by_key(|s| (s.chunk, s.offset));
        let mut merged: Option<Slot> = None;
        for slot in scratch.drain(..) {
            match &mut merged {
                Some(m) if m.chunk == slot.chunk && m.offset + m.size == slot.offset => {
                    m.size += slot.size;
                }
                _ => {
                    if let Some(m) = merged.take() {
                        self.push_slot(m);
                    }
                    merged = Some(slot);
                }
            }
        }
        if let Some(m) = merged {
            self.push_slot(m);
        }
        self.scratch = scratch;
    }

    /// Frees recorded since the last coalescing pass.
    pub fn pending_frees(&self) -> usize {
        self.pending_frees
    }

    /// The base pointer of `block`.
    pub fn ptr(&self, block: FreeBlock) -> NonNull<u8> {
        self.chunks[block.chunk as usize].at(block.offset, block.size)
    }

    /// Chunk bytes obtained from the system allocator; pages commit on touch.
    pub fn footprint_bytes(&self) -> usize {
        self.chunks.iter().map(Chunk::len).sum()
    }

    /// Bytes currently handed out to callers.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }

    /// Number of free blocks across all chunks. Between coalescing passes
    /// this includes unmerged neighbors; right after
    /// [`coalesce`](FreeList::coalesce) it is the minimum possible for the
    /// current allocation pattern.
    pub fn free_block_count(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Checks the structural invariants that hold at *every* step —
    /// in-bounds, granule-aligned, non-overlapping free blocks, class and
    /// bitmap consistency, byte accounting — returning a description of the
    /// first violation instead of panicking. The integrity verifier's entry
    /// point; [`assert_invariants`](FreeList::assert_invariants) is the
    /// panicking wrapper tests use.
    pub fn validate(&self) -> Result<(), String> {
        let mut all: Vec<Slot> = Vec::new();
        let mut free_bytes = 0usize;
        for (class, list) in self.classes.iter().enumerate() {
            if list.is_empty() != (self.nonempty & (1 << class) == 0) {
                return Err(format!("nonempty bitmap out of sync for class {class}"));
            }
            for slot in list {
                if slot.size == 0 || !slot.size.is_multiple_of(self.granule) {
                    return Err(format!("bad free size {}", slot.size));
                }
                if !slot.offset.is_multiple_of(self.granule) {
                    return Err(format!("misaligned free offset {:#x}", slot.offset));
                }
                if slot.offset + slot.size > self.chunks[slot.chunk as usize].len() {
                    return Err(format!(
                        "free block out of bounds: chunk {} offset {:#x} size {}",
                        slot.chunk, slot.offset, slot.size
                    ));
                }
                if self.class_of(slot.size) != class {
                    return Err(format!(
                        "free block of {} bytes filed under class {class}",
                        slot.size
                    ));
                }
                free_bytes += slot.size;
                all.push(*slot);
            }
        }
        all.sort_unstable_by_key(|s| (s.chunk, s.offset));
        for pair in all.windows(2) {
            if pair[0].chunk == pair[1].chunk && pair[0].offset + pair[0].size > pair[1].offset {
                return Err(format!(
                    "free blocks overlap in chunk {} at offset {:#x}",
                    pair[0].chunk, pair[1].offset
                ));
            }
        }
        if free_bytes + self.allocated_bytes != self.footprint_bytes() {
            return Err(format!(
                "free ({free_bytes}) + allocated ({}) bytes do not equal the footprint ({})",
                self.allocated_bytes,
                self.footprint_bytes()
            ));
        }
        Ok(())
    }

    /// Checks the zeroed-handout contract on every *free* block: freed
    /// memory is re-zeroed at [`free`](FreeList::free) time and nothing may
    /// legitimately write it afterwards, so any non-zero byte is proof of a
    /// stale or wild write. Returns a description of the first dirty byte.
    pub fn check_zeroed(&self) -> Result<(), String> {
        for slot in self.classes.iter().flatten() {
            let p = self.chunks[slot.chunk as usize].at(slot.offset, slot.size);
            // SAFETY: the slot lies in-bounds of its chunk (validated at
            // every push) and the list exclusively owns the memory.
            let bytes = unsafe { std::slice::from_raw_parts(p.as_ptr(), slot.size) };
            if let Some(pos) = bytes.iter().position(|&b| b != 0) {
                return Err(format!(
                    "free block at chunk {} offset {:#x} holds non-zero byte {:#04x} at +{:#x}",
                    slot.chunk, slot.offset, bytes[pos], pos
                ));
            }
        }
        Ok(())
    }

    /// XORs `mask` into a deterministically chosen byte of one free block —
    /// the chaos arm's "stray write into freed memory" class. Returns
    /// `false` when no free blocks exist or `mask` is zero.
    pub(crate) fn corrupt_free(&mut self, selector: u64, mask: u8) -> bool {
        let total = self.free_block_count();
        if total == 0 || mask == 0 {
            return false;
        }
        let mut k = (selector % total as u64) as usize;
        for list in &self.classes {
            if k >= list.len() {
                k -= list.len();
                continue;
            }
            let slot = list[k];
            let offset = ((selector >> 8) % slot.size as u64) as usize;
            let p = self.chunks[slot.chunk as usize].at(slot.offset + offset, 1);
            // SAFETY: `slot.offset + offset < slot.offset + slot.size`,
            // in-bounds of the chunk the list owns.
            unsafe { p.write(p.read() ^ mask) };
            return true;
        }
        false
    }

    /// Panicking wrapper around [`validate`](FreeList::validate), used by
    /// unit and property tests.
    pub fn assert_invariants(&self) {
        if let Err(msg) = self.validate() {
            panic!("{msg}");
        }
    }

    /// [`assert_invariants`](FreeList::assert_invariants) plus the
    /// post-coalesce guarantee: no two adjacent free blocks remain.
    pub fn assert_coalesced(&self) {
        self.assert_invariants();
        let mut all: Vec<Slot> = self.classes.iter().flatten().copied().collect();
        all.sort_unstable_by_key(|s| (s.chunk, s.offset));
        for pair in all.windows(2) {
            if pair[0].chunk == pair[1].chunk {
                assert!(
                    pair[0].offset + pair[0].size < pair[1].offset,
                    "adjacent free blocks not coalesced"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_rounds_and_aligns() {
        let mut fl = FreeList::new(4096, 1 << 20);
        let a = fl.alloc(1);
        assert_eq!(a.size, 4096);
        assert_eq!(fl.ptr(a).as_ptr() as usize % 4096, 0);
        let b = fl.alloc(4097);
        assert_eq!(b.size, 8192);
        fl.assert_invariants();
        fl.free(a);
        fl.free(b);
        fl.assert_invariants();
    }

    #[test]
    fn class_lut_matches_the_bit_scan() {
        let fl = FreeList::new(4096, 1 << 20);
        for g in 1..CLASS_LUT_GRANULES {
            assert_eq!(
                fl.class_of(g * 4096),
                FreeList::class_of_granules(g),
                "granules {g}"
            );
        }
        // Beyond the table the fallback serves (and clamps to the last
        // class).
        assert_eq!(
            fl.class_of(CLASS_LUT_GRANULES * 2 * 4096),
            FreeList::class_of_granules(CLASS_LUT_GRANULES * 2)
        );
        assert_eq!(fl.class_of(1usize << 40), NUM_CLASSES - 1);
    }

    #[test]
    fn coalescing_round_trips_to_one_block() {
        let mut fl = FreeList::new(4096, 1 << 20);
        let blocks: Vec<FreeBlock> = (0..16).map(|_| fl.alloc(64 << 10)).collect();
        fl.assert_invariants();
        // Free in a shuffled-but-deterministic order; merging is deferred,
        // so the fragments persist until the coalescing pass runs.
        for &i in &[3, 7, 0, 12, 15, 1, 9, 4, 11, 2, 14, 6, 8, 13, 5, 10] {
            fl.free(blocks[i]);
            fl.assert_invariants();
        }
        assert_eq!(fl.allocated_bytes(), 0);
        assert!(fl.pending_frees() > 0, "frees must be recorded as pending");
        fl.coalesce();
        assert_eq!(fl.pending_frees(), 0);
        assert_eq!(fl.free_block_count(), 1, "full coalescing expected");
        fl.assert_coalesced();
    }

    #[test]
    fn split_then_refill_reuses_the_hole() {
        let mut fl = FreeList::new(4096, 1 << 20);
        let a = fl.alloc(256 << 10);
        let _b = fl.alloc(256 << 10);
        fl.free(a);
        // The freed hole must be reused, not fresh footprint grown.
        let footprint = fl.footprint_bytes();
        let c = fl.alloc(128 << 10);
        assert_eq!((c.chunk, c.offset), (a.chunk, a.offset));
        assert_eq!(fl.footprint_bytes(), footprint);
        fl.assert_invariants();
    }

    #[test]
    fn higher_class_serves_when_native_class_is_empty() {
        let mut fl = FreeList::new(4096, 1 << 20);
        // Carve the whole chunk, then free one large block: a small request
        // must split it via the bitmap's higher-class path in O(1).
        let big = fl.alloc(512 << 10);
        let _rest = fl.alloc((1 << 20) - (512 << 10));
        fl.free(big);
        let small = fl.alloc(4096);
        assert_eq!((small.chunk, small.offset), (big.chunk, big.offset));
        fl.assert_invariants();
    }

    #[test]
    fn fragmented_fit_coalesces_before_growing() {
        let mut fl = FreeList::new(4096, 64 << 10);
        // Two adjacent 32 KiB blocks carve the whole 64 KiB chunk; freed
        // un-coalesced, neither alone fits a 64 KiB request.
        let a = fl.alloc(32 << 10);
        let b = fl.alloc(32 << 10);
        let footprint = fl.footprint_bytes();
        fl.free(a);
        fl.free(b);
        assert_eq!(fl.free_block_count(), 2, "coalescing must be deferred");
        let whole = fl.alloc(64 << 10);
        assert_eq!(
            fl.footprint_bytes(),
            footprint,
            "alloc must coalesce the fragments instead of growing"
        );
        assert_eq!(whole.size, 64 << 10);
        fl.assert_invariants();
    }

    #[test]
    fn oversized_requests_get_dedicated_chunks() {
        let mut fl = FreeList::new(4096, 64 << 10);
        let big = fl.alloc(3 << 20);
        assert_eq!(big.size, 3 << 20);
        // SAFETY: `big` spans `size` bytes of the chunk it was carved from.
        unsafe { std::ptr::write_bytes(fl.ptr(big).as_ptr(), 0xCD, big.size) };
        fl.free(big);
        fl.assert_invariants();
    }

    #[test]
    fn blocks_hand_out_zeroed_even_after_dirty_free() {
        let mut fl = FreeList::new(4096, 64 << 10);
        let a = fl.alloc(16 << 10);
        // SAFETY: `a` is live and spans its reserved bytes.
        unsafe { std::ptr::write_bytes(fl.ptr(a).as_ptr(), 0x77, a.size) };
        fl.free(a);
        let b = fl.alloc(16 << 10);
        assert_eq!((b.chunk, b.offset), (a.chunk, a.offset), "hole reused");
        // SAFETY: reading `b`'s live range.
        let dirty = (0..b.size).any(|i| unsafe { fl.ptr(b).as_ptr().add(i).read() } != 0);
        assert!(!dirty, "freed block handed out dirty");
    }
}
