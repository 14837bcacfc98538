//! Pointer-bump block allocator backing young/eden region memory.
//!
//! A [`BumpArena`] owns a set of large page-aligned chunks obtained from the
//! system allocator and carves fixed-alignment blocks out of them by
//! bumping a cursor — the allocation discipline of a young generation,
//! where regions are handed out whole and returned whole. Every block the
//! arena hands out is **zeroed**: fresh chunks come zeroed, and uncommitted
//! until first touch, from the system allocator, and recycled blocks are
//! re-zeroed at [`recycle`](BumpArena::recycle) time — the HotSpot
//! `ZeroTLAB` discipline, where bulk re-zeroing rides along with the GC
//! that releases the memory instead of being paid per object on the
//! allocation fast path. That contract is what lets the backend's young
//! allocation store only the 8-byte object header. Released blocks go on
//! a LIFO recycle stack and are reused before the cursor advances, so
//! steady-state young-generation churn touches the same hot memory over
//! and over instead of growing the footprint.
//!
//! Blocks are identified by handles ([`BumpBlock`]) rather than raw
//! addresses, so the arena never has to re-derive which chunk a pointer came
//! from — and the pointer arithmetic stays provenance-clean under Miri.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

/// Re-zeroes released memory in one memset — the GC-side half of the
/// zeroed-handout contract, paid inside the collection that released the
/// block so that allocation stays a header store.
///
/// # Safety
///
/// `ptr` must be valid for writes of `bytes` bytes.
pub(crate) unsafe fn rezero(ptr: *mut u8, bytes: usize) {
    // SAFETY: the caller guarantees `bytes` writable bytes at `ptr`.
    unsafe { std::ptr::write_bytes(ptr, 0, bytes) };
}

/// A zeroed, aligned span of system memory that [`BumpArena`] and
/// [`FreeList`](crate::free_list::FreeList) carve blocks from.
#[derive(Debug)]
pub(crate) struct Chunk {
    /// Start of the usable span.
    ptr: NonNull<u8>,
    /// Usable bytes from `ptr`.
    len: usize,
    /// The system allocation behind the span, freed on drop.
    raw: NonNull<u8>,
    layout: Layout,
}

impl Chunk {
    /// `len` zeroed bytes aligned to `align`, left untouched: the kernel
    /// commits and zero-fills each page on first touch (a JVM heap without
    /// `-XX:+AlwaysPreTouch`), so pages the heap never uses cost nothing.
    pub(crate) fn zeroed(len: usize, align: usize) -> Chunk {
        // Byte alignment keeps std's `alloc_zeroed` on `calloc`, which zeroes
        // only memory it recycles and leaves fresh pages to the kernel; an
        // over-aligned layout gets `posix_memalign` plus a memset of the
        // whole span. The extra `align` bytes make room to align by hand.
        let layout = Layout::from_size_align(len + align, 1).expect("valid chunk layout");
        // SAFETY: `layout` has non-zero size (align >= 1).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(raw) = NonNull::new(raw) else {
            handle_alloc_error(layout)
        };
        let pad = raw.as_ptr().addr().wrapping_neg() & (align - 1);
        // SAFETY: `pad < align`, so `[pad, pad + len)` is in bounds.
        let ptr = unsafe { raw.add(pad) };
        Chunk {
            ptr,
            len,
            raw,
            layout,
        }
    }

    /// Usable bytes in the span.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The address `offset` bytes into the span, where a block of `size`
    /// bytes was carved. Panics if the block does not fit in the span.
    pub(crate) fn at(&self, offset: usize, size: usize) -> NonNull<u8> {
        assert!(size <= self.len && offset <= self.len - size);
        // SAFETY: the assert keeps `[offset, offset + size)` in the span.
        unsafe { self.ptr.add(offset) }
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        // SAFETY: `raw` was allocated with exactly this layout and is
        // deallocated once, here.
        unsafe { dealloc(self.raw.as_ptr(), self.layout) };
    }
}

/// Handle to one block carved from a [`BumpArena`].
///
/// Valid until the block is [`recycle`](BumpArena::recycle)d, the arena is
/// [`reset`](BumpArena::reset), or the arena is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BumpBlock {
    chunk: u32,
    offset: usize,
    /// The rounded size actually reserved for the block.
    pub(crate) size: usize,
}

impl BumpBlock {
    /// The rounded size actually reserved for the block, in bytes.
    pub fn size(&self) -> usize {
        self.size
    }
}

/// A pointer-bump block allocator over page-aligned chunks.
#[derive(Debug)]
pub struct BumpArena {
    /// Alignment (and size granule) of every block — the heap's page size.
    align: usize,
    /// Preferred chunk size; oversized requests get a dedicated chunk.
    chunk_bytes: usize,
    chunks: Vec<Chunk>,
    /// Chunk currently being carved (always the last one, except right
    /// after [`reset`](BumpArena::reset)).
    current: usize,
    /// Bump cursor within the current chunk.
    cursor: usize,
    /// LIFO recycle stack of released blocks, reused size-exact.
    recycled: Vec<BumpBlock>,
}

// SAFETY: the arena exclusively owns its chunks; the raw pointers are never
// shared, so moving the whole arena to another thread is sound.
unsafe impl Send for BumpArena {}

impl BumpArena {
    /// Creates an arena carving blocks aligned to `align` (a power of two,
    /// typically the heap page size) out of `chunk_bytes`-sized chunks.
    pub fn new(align: usize, chunk_bytes: usize) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let chunk_bytes = chunk_bytes.max(align);
        BumpArena {
            align,
            chunk_bytes,
            chunks: Vec::new(),
            current: 0,
            cursor: 0,
            recycled: Vec::new(),
        }
    }

    fn round_up(&self, size: usize) -> usize {
        size.max(1).div_ceil(self.align) * self.align
    }

    /// Allocates a block of at least `size` bytes, aligned to the arena
    /// alignment, with every byte zeroed (see the module docs). Recycled
    /// blocks of the exact rounded size are reused
    /// (most-recently-released first) before fresh memory is carved.
    pub fn alloc(&mut self, size: usize) -> BumpBlock {
        let size = self.round_up(size);
        if let Some(pos) = self.recycled.iter().rposition(|b| b.size == size) {
            return self.recycled.remove(pos);
        }
        // Advance through (or grow) the chunk list until the block fits.
        loop {
            if self.current < self.chunks.len() {
                let capacity = self.chunks[self.current].len;
                if self.cursor + size <= capacity {
                    let block = BumpBlock {
                        chunk: self.current as u32,
                        offset: self.cursor,
                        size,
                    };
                    self.cursor += size;
                    return block;
                }
                // Tail waste: the remainder of this chunk is skipped, as a
                // real bump allocator retires a region it cannot fit into.
                self.current += 1;
                self.cursor = 0;
                continue;
            }
            // Fresh chunks come zeroed: no memset, pages commit on touch.
            self.chunks
                .push(Chunk::zeroed(self.chunk_bytes.max(size), self.align));
        }
    }

    /// Returns a block for reuse, re-zeroing it in bulk — the GC-side half
    /// of the zeroed-handout contract (the caller is a region release
    /// inside a collection, so the memset is charged to GC wall-clock, not
    /// to the allocation path). The caller must not touch the block's
    /// memory afterwards; the next [`alloc`](BumpArena::alloc) of the same
    /// size may hand it out again.
    pub fn recycle(&mut self, block: BumpBlock) {
        debug_assert!((block.chunk as usize) < self.chunks.len());
        // SAFETY: the block was carved from this chunk and is being
        // surrendered by its sole owner; its `size` bytes are writable.
        unsafe { rezero(self.ptr(block).as_ptr(), block.size) };
        self.recycled.push(block);
    }

    /// Forgets every outstanding block and rewinds the cursor to the start
    /// of the first chunk. Chunks are kept for reuse and re-zeroed whole so
    /// the handout contract holds for the re-carve. All previously issued
    /// blocks and pointers are invalidated.
    pub fn reset(&mut self) {
        self.recycled.clear();
        self.current = 0;
        self.cursor = 0;
        for chunk in &self.chunks {
            // SAFETY: each chunk spans `len` writable bytes and no
            // outstanding block references remain after a reset.
            unsafe { rezero(chunk.ptr.as_ptr(), chunk.len) };
        }
    }

    /// The base pointer of `block`.
    pub fn ptr(&self, block: BumpBlock) -> NonNull<u8> {
        self.chunks[block.chunk as usize].at(block.offset, block.size)
    }

    /// Chunk bytes obtained from the system allocator; pages commit on touch.
    pub fn footprint_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.len).sum()
    }

    /// Number of blocks currently on the recycle stack.
    pub fn recycled_len(&self) -> usize {
        self.recycled.len()
    }

    /// XORs `mask` into a deterministically chosen byte of one recycled
    /// block — the chaos arm's "stray write into freed memory" class.
    /// Returns `false` when no recycled blocks exist or `mask` is zero.
    pub(crate) fn corrupt_recycled(&mut self, selector: u64, mask: u8) -> bool {
        if self.recycled.is_empty() || mask == 0 {
            return false;
        }
        let block = self.recycled[(selector % self.recycled.len() as u64) as usize];
        let offset = ((selector >> 8) % block.size as u64) as usize;
        // SAFETY: `offset < size` of a live recycled block the arena owns.
        unsafe {
            let p = self.ptr(block).as_ptr().add(offset);
            p.write(p.read() ^ mask);
        }
        true
    }

    /// Checks the zeroed-handout contract on every recycled block: the
    /// memory was re-zeroed at [`recycle`](BumpArena::recycle) time and
    /// nothing may legitimately write it while it waits for reuse, so any
    /// non-zero byte is proof of a stale or wild write. Returns a
    /// description of the first dirty byte.
    pub fn check_recycled_zeroed(&self) -> Result<(), String> {
        for block in &self.recycled {
            // SAFETY: recycled blocks stay in-bounds of their chunks and
            // the arena exclusively owns the memory.
            let bytes =
                unsafe { std::slice::from_raw_parts(self.ptr(*block).as_ptr(), block.size) };
            if let Some(pos) = bytes.iter().position(|&b| b != 0) {
                return Err(format!(
                    "recycled block at chunk {} offset {:#x} holds non-zero byte {:#04x} at +{:#x}",
                    block.chunk, block.offset, bytes[pos], pos
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_aligned_and_disjoint() {
        let mut arena = BumpArena::new(4096, 64 << 10);
        let blocks: Vec<BumpBlock> = (0..8).map(|_| arena.alloc(10_000)).collect();
        let mut ranges: Vec<(usize, usize)> = blocks
            .iter()
            .map(|&b| {
                let p = arena.ptr(b).as_ptr() as usize;
                assert_eq!(p % 4096, 0, "block not page aligned");
                (p, p + b.size)
            })
            .collect();
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "blocks overlap: {w:?}");
        }
    }

    #[test]
    fn recycle_reuses_lifo() {
        let mut arena = BumpArena::new(4096, 64 << 10);
        let a = arena.alloc(4096);
        let b = arena.alloc(4096);
        arena.recycle(a);
        arena.recycle(b);
        assert_eq!(arena.recycled_len(), 2);
        let c = arena.alloc(4096);
        assert_eq!(c, b, "most recently released block is reused first");
        let d = arena.alloc(4096);
        assert_eq!(d, a);
        assert_eq!(arena.recycled_len(), 0);
    }

    #[test]
    fn oversized_requests_get_dedicated_chunks() {
        let mut arena = BumpArena::new(4096, 16 << 10);
        let big = arena.alloc(1 << 20);
        assert_eq!(big.size, 1 << 20);
        assert!(arena.footprint_bytes() >= 1 << 20);
        // Writing the whole block must be in bounds.
        // SAFETY: `big` spans `size` bytes of the chunk it was carved from.
        unsafe { std::ptr::write_bytes(arena.ptr(big).as_ptr(), 0xAB, big.size) };
    }

    #[test]
    fn blocks_hand_out_zeroed_even_after_dirty_recycle() {
        let mut arena = BumpArena::new(4096, 64 << 10);
        let a = arena.alloc(8192);
        // SAFETY: `a` is live and spans 8192 writable bytes.
        unsafe { std::ptr::write_bytes(arena.ptr(a).as_ptr(), 0x5A, a.size) };
        arena.recycle(a);
        let b = arena.alloc(8192);
        assert_eq!(b, a, "recycled block is reused");
        // SAFETY: reading `b`'s live range.
        let dirty = (0..b.size).any(|i| unsafe { arena.ptr(b).as_ptr().add(i).read() } != 0);
        assert!(!dirty, "recycled block handed out dirty");
    }

    #[test]
    fn reset_rewinds_the_cursor() {
        let mut arena = BumpArena::new(4096, 64 << 10);
        let first = arena.alloc(4096);
        for _ in 0..31 {
            arena.alloc(4096);
        }
        let footprint = arena.footprint_bytes();
        arena.reset();
        let again = arena.alloc(4096);
        assert_eq!(again, first, "reset rewinds to the first block");
        assert_eq!(
            arena.footprint_bytes(),
            footprint,
            "reset keeps chunks for reuse"
        );
    }
}
