//! Pluggable memory backends: simulated addresses vs real allocation.
//!
//! The heap's *logical* layout — region assignment order, bump cursors, page
//! ranges, object addresses — is computed by [`Heap`](crate::Heap) itself
//! and is the single source of truth for every profile, snapshot, and
//! GcWork ledger. A [`HeapBackend`] only decides whether those logical
//! addresses are *backed by real memory*:
//!
//! - [`SimBackend`] is the historical behavior: pure address arithmetic,
//!   every hook a no-op. Zero cost, zero memory.
//! - [`RealBackend`] maps each assigned region to a page-aligned block of
//!   real memory — young regions from a pointer-bump arena
//!   ([`BumpArena`]), tenured regions from a size-class segregated free
//!   list ([`FreeList`]) — establishes each object's bytes on allocation,
//!   and `memcpy`s payloads on relocate/evacuate.
//!
//! The allocation hot path is TLAB-style: one cached write window per
//! generation ([`TlabWindow`]) serves consecutive `write_object` calls
//! with a single bounds compare and one header store, refilling (and
//! counting the refill) only when an allocation falls off the window.
//! Both allocators hand their blocks out zeroed — fresh chunks by the
//! system allocator, released blocks re-zeroed in bulk inside the
//! collection that frees them, HotSpot's `ZeroTLAB` discipline — so an
//! object's payload content is defined (zeros) without the allocation
//! path streaming payload-sized stores through the host's write-bandwidth
//! ceiling; only the evacuation copy phase moves payload bytes. Nothing is
//! committed up front (`-XX:+AlwaysPreTouch` off): a heap page commits
//! when an object store or copy first touches it. The tenured free list
//! defers neighbor coalescing to one address-order pass per GC cycle
//! ([`HeapBackend::gc_cycle_finished`]), keeping `free` O(1). The
//! evacuation copy phase reports its own timing
//! ([`HeapBackend::note_copy_phase`]) so bandwidth figures measure the
//! copier, not the whole collection.
//!
//! Because the physical offset of an object inside its region's backing
//! equals its logical [`Addr::offset`], the two backends produce
//! bit-identical ObjectIds, page bits, snapshot columns, and GcWork at any
//! worker count (`tests/backend_properties.rs` checks it).

use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::bump::{BumpArena, BumpBlock};
use crate::config::HeapConfig;
use crate::free_list::{FreeBlock, FreeList};
use crate::ids::{IdentityHash, RegionId};
use crate::region::Addr;
use crate::tlab::TlabWindow;

/// Object header written at the start of every real-memory payload of at
/// least this many bytes: `(identity_hash as u64) << 32 | size`, little
/// endian. Smaller objects carry no header (their whole payload is the
/// zeros the allocator handed out) and readers fall back to the object
/// table. Payload content past the header is backend-internal — zeros
/// until the object is evacuated, whatever the memcpy carried after —
/// and only the header is ever read back
/// ([`HeapBackend::read_header_hash`]).
pub const OBJECT_HEADER_BYTES: usize = 8;

/// Which memory backend a heap runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Pure address arithmetic (the historical default).
    #[default]
    Sim,
    /// Real page-aligned memory: bump-allocated young regions, free-list
    /// tenured regions, payloads written and memcpy'd.
    Real,
}

impl BackendKind {
    /// Parses a CLI value (`sim` or `real`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(BackendKind::Sim),
            "real" => Some(BackendKind::Real),
            _ => None,
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Sim => "sim",
            BackendKind::Real => "real",
        })
    }
}

/// Byte counters a backend accumulates; `polm2-benchmark` reports them as
/// its `heap.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Object bytes established by `write_object` (allocation path).
    /// Payloads are pre-zeroed in bulk when the backing is recycled, so
    /// the store itself touches only the header line; the count is the
    /// object bytes made valid, not the bytes the store streamed.
    pub bytes_written: u64,
    /// Payload bytes memcpy'd by `copy_object` / the parallel copier.
    pub bytes_copied: u64,
    /// Wall-clock nanoseconds spent inside evacuation *copy phases* only
    /// (reported via [`HeapBackend::note_copy_phase`]), as opposed to
    /// whole-pause wall clock.
    pub copy_phase_ns: u64,
    /// TLAB window refills on the allocation path (each covers many
    /// `write_object` calls when the windows are doing their job).
    pub tlab_refills: u64,
    /// Regions currently backed by real memory.
    pub regions_backed: u64,
    /// Chunk bytes obtained from the system allocator; pages commit on touch.
    pub footprint_bytes: u64,
}

/// Memory behavior behind the heap's logical address layout.
///
/// Implementations must never influence logical placement: the heap calls
/// these hooks *after* it has decided addresses, and sim and real outputs
/// must be bit-identical.
pub trait HeapBackend: fmt::Debug + Send {
    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// A region was just assigned to a space; back it with memory if this
    /// backend uses any. `young` selects the bump arena over the tenured
    /// free list.
    fn ensure_region(&mut self, region: RegionId, young: bool);

    /// A region was released back to the free pool; its backing returns to
    /// the allocator it came from.
    fn release_region(&mut self, region: RegionId);

    /// An object was just allocated at `addr`: establish its bytes — write
    /// the header; the payload's defined content is the zeros the
    /// allocator handed the backing out with.
    fn write_object(&mut self, addr: Addr, size: u32, hash: IdentityHash);

    /// An object was relocated from `from` to `to`: copy its payload.
    fn copy_object(&mut self, from: Addr, to: Addr, size: u32);

    /// Reads the identity hash back out of the object header at `addr`, or
    /// `None` if this backend keeps no memory or the object is too small to
    /// carry a header. Callers fall back to the object table; the streamed
    /// snapshot path uses this so capture reads heap pages, not a
    /// materialized side table.
    fn read_header_hash(&self, addr: Addr, size: u32) -> Option<IdentityHash>;

    /// A shareable copier for the parallel evacuation apply phase, or
    /// `None` if copying is a no-op for this backend.
    fn copier(&self) -> Option<RegionCopier<'_>>;

    /// Reads `buf.len()` raw bytes starting at `addr` into `buf`, returning
    /// `false` when this backend keeps no memory or the region is unbacked.
    /// The integrity verifier reads headers through this rather than
    /// [`read_header_hash`](HeapBackend::read_header_hash), which
    /// debug-asserts on the very drift the verifier exists to report.
    fn read_bytes(&self, addr: Addr, buf: &mut [u8]) -> bool {
        let _ = (addr, buf);
        false
    }

    /// Whether every byte of `[addr.offset, addr.offset + len)` in the
    /// region's backing is zero, or `None` when this backend keeps no
    /// memory or the region is unbacked.
    fn range_is_zero(&self, addr: Addr, len: usize) -> Option<bool> {
        let _ = (addr, len);
        None
    }

    /// XORs `mask` into the byte at `addr` — the memory-corruption chaos
    /// arm's planting primitive, never called outside fault injection.
    /// Returns `false` (nothing planted) when this backend keeps no memory,
    /// the region is unbacked, or `mask` is zero.
    fn corrupt_byte(&mut self, addr: Addr, mask: u8) -> bool {
        let _ = (addr, mask);
        false
    }

    /// XORs `mask` into a deterministically chosen byte of the allocators'
    /// *free* memory (a free tenured block or a recycled young block) — the
    /// chaos arm's "stray write into freed memory" class. Returns `false`
    /// when this backend keeps no memory, no free blocks exist, or `mask`
    /// is zero.
    fn corrupt_free_byte(&mut self, selector: u64, mask: u8) -> bool {
        let _ = (selector, mask);
        false
    }

    /// Verifies allocator-internal invariants: free-list structure, the
    /// zeroed-handout contract on free memory, and TLAB window validity.
    /// Returns `(invariant, detail)` for the first violation; trivially
    /// clean for memory-less backends.
    ///
    /// # Errors
    ///
    /// The failing invariant's stable name plus a description.
    fn verify_allocator(&self) -> Result<(), (&'static str, String)> {
        Ok(())
    }

    /// The heap finished one evacuation-copy phase that took `ns`
    /// wall-clock nanoseconds. Accumulated into [`BackendStats`]; a no-op
    /// for backends that never copy.
    fn note_copy_phase(&mut self, _ns: u64) {}

    /// A GC cycle just completed: run deferred allocator maintenance
    /// (address-order free-list coalescing). Never influences logical
    /// placement; a no-op for memory-less backends.
    fn gc_cycle_finished(&mut self) {}

    /// Current byte counters.
    fn stats(&self) -> BackendStats;
}

/// The historical simulated backend: address arithmetic only.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

impl HeapBackend for SimBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sim
    }
    fn ensure_region(&mut self, _region: RegionId, _young: bool) {}
    fn release_region(&mut self, _region: RegionId) {}
    fn write_object(&mut self, _addr: Addr, _size: u32, _hash: IdentityHash) {}
    fn copy_object(&mut self, _from: Addr, _to: Addr, _size: u32) {}
    fn read_header_hash(&self, _addr: Addr, _size: u32) -> Option<IdentityHash> {
        None
    }
    fn copier(&self) -> Option<RegionCopier<'_>> {
        None
    }
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }
}

/// Where a region's backing memory came from.
#[derive(Debug, Clone, Copy)]
enum Backing {
    /// No memory backs this region (it is in the free pool).
    None,
    /// Backed by the young bump arena.
    Bump(BumpBlock),
    /// Backed by the tenured free list.
    Tenured(FreeBlock),
}

/// Real-memory backend: every assigned region is a page-aligned block, every
/// object's bytes are established on allocation (a header store into
/// pre-zeroed backing) and memcpy'd on move.
pub struct RealBackend {
    region_bytes: usize,
    /// Base pointer of each region's backing, null when unbacked. Kept as a
    /// flat array so the hot paths are one indexed load.
    bases: Vec<*mut u8>,
    backing: Vec<Backing>,
    bump: BumpArena,
    tenured: FreeList,
    /// Per-generation allocation windows (young, tenured): the TLAB-style
    /// fast path `write_object` hits before any region lookup.
    tlabs: [TlabWindow; 2],
    /// Window length installed on refill (the `--tlab-kb` knob), clamped
    /// to the region size.
    tlab_bytes: u32,
    tlab_refills: u64,
    bytes_written: u64,
    /// Atomic because the parallel apply phase adds to it through
    /// [`RegionCopier`] while the backend itself is only borrowed shared.
    bytes_copied: AtomicU64,
    copy_phase_ns: u64,
    regions_backed: u64,
}

// SAFETY: the backend exclusively owns its arena/free-list memory; the raw
// base pointers alias that memory and are never shared outside `&self`
// methods (the copier borrows the backend for its lifetime), so moving the
// backend between threads is sound.
unsafe impl Send for RealBackend {}

impl fmt::Debug for RealBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RealBackend")
            .field("region_bytes", &self.region_bytes)
            .field("regions_backed", &self.regions_backed)
            .field("bytes_written", &self.bytes_written)
            .field("bytes_copied", &self.bytes_copied.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl RealBackend {
    /// Chunks are sized to hold several regions so split/coalesce in the
    /// tenured free list is genuinely exercised.
    const REGIONS_PER_CHUNK: usize = 8;

    /// Creates a real backend for the given heap geometry. Nothing is
    /// allocated up front: the bump arena and the tenured free list grow a
    /// chunk at a time as regions are assigned, and each chunk's pages
    /// commit on first touch, so a heap costs only the memory it fills.
    pub fn new(config: &HeapConfig) -> Self {
        let region_bytes = config.region_bytes as usize;
        let page_bytes = config.page_bytes as usize;
        let chunk_bytes = region_bytes * Self::REGIONS_PER_CHUNK;
        let regions = config.region_count() as usize;
        RealBackend {
            region_bytes,
            bases: vec![ptr::null_mut(); regions],
            backing: vec![Backing::None; regions],
            bump: BumpArena::new(page_bytes, chunk_bytes),
            tenured: FreeList::new(page_bytes, chunk_bytes),
            tlabs: [TlabWindow::empty(), TlabWindow::empty()],
            tlab_bytes: (config.tlab_bytes.min(config.region_bytes) as u32).max(1),
            tlab_refills: 0,
            bytes_written: 0,
            bytes_copied: AtomicU64::new(0),
            copy_phase_ns: 0,
            regions_backed: 0,
        }
    }

    #[inline]
    fn base(&self, region: RegionId) -> *mut u8 {
        self.bases[region.index()]
    }

    /// `write_object`'s miss path: re-derive the region base, install a
    /// fresh window over `[offset, offset + tlab_bytes)` (clamped to the
    /// region and stretched to cover oversized objects) in the slot of the
    /// region's generation, and retry the write through it.
    #[cold]
    fn refill_and_write(&mut self, addr: Addr, size: u32, raw: u32) {
        let idx = addr.region.index();
        let base = self.bases[idx];
        debug_assert!(!base.is_null(), "write into unbacked region {addr:?}");
        debug_assert!(addr.offset as usize + size as usize <= self.region_bytes);
        let way = match self.backing[idx] {
            Backing::Bump(_) => 0,
            Backing::Tenured(_) => 1,
            Backing::None => return,
        };
        let limit = addr
            .offset
            .saturating_add(self.tlab_bytes.max(size))
            .min(self.region_bytes as u32);
        // SAFETY: the backing block spans the full region (`ensure_region`
        // carved it region-sized), so it is live for `limit <=
        // region_bytes` bytes, and it outlives the window because
        // `release_region` retires the window before recycling the block.
        // The two generation windows never cover the same region: a region
        // is backed by exactly one allocator, and the previous window over
        // this region (if any) is the one being replaced.
        unsafe { self.tlabs[way].install(base, addr.region.raw(), addr.offset, limit) };
        self.tlab_refills += 1;
        let wrote = self.tlabs[way].write(addr.region.raw(), addr.offset, size, raw);
        debug_assert!(wrote, "freshly installed window must cover its trigger");
        self.bytes_written += u64::from(size);
    }
}

impl HeapBackend for RealBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Real
    }

    fn ensure_region(&mut self, region: RegionId, young: bool) {
        let idx = region.index();
        if !self.bases[idx].is_null() {
            return;
        }
        if young {
            let block = self.bump.alloc(self.region_bytes);
            self.bases[idx] = self.bump.ptr(block).as_ptr();
            self.backing[idx] = Backing::Bump(block);
        } else {
            let block = self.tenured.alloc(self.region_bytes);
            self.bases[idx] = self.tenured.ptr(block).as_ptr();
            self.backing[idx] = Backing::Tenured(block);
        }
        self.regions_backed += 1;
    }

    fn release_region(&mut self, region: RegionId) {
        let idx = region.index();
        // Retire any window over the region first: its backing is about to
        // be recycled, and a stale window must never write into whatever
        // that memory backs next.
        for tlab in &mut self.tlabs {
            if tlab.region() == Some(region.raw()) {
                tlab.retire();
            }
        }
        match std::mem::replace(&mut self.backing[idx], Backing::None) {
            Backing::None => return,
            Backing::Bump(block) => self.bump.recycle(block),
            Backing::Tenured(block) => self.tenured.free(block),
        }
        self.bases[idx] = ptr::null_mut();
        self.regions_backed -= 1;
    }

    fn write_object(&mut self, addr: Addr, size: u32, hash: IdentityHash) {
        let raw = hash.raw();
        let region = addr.region.raw();
        // TLAB fast path: consecutive allocations into the same generation
        // land inside a cached window — one bounds compare, one header
        // store into pre-zeroed backing, no region lookup.
        if self.tlabs[0].write(region, addr.offset, size, raw)
            || self.tlabs[1].write(region, addr.offset, size, raw)
        {
            self.bytes_written += u64::from(size);
            return;
        }
        if self.base(addr.region).is_null() {
            debug_assert!(false, "write into unbacked region {addr:?}");
            return;
        }
        self.refill_and_write(addr, size, raw);
    }

    fn copy_object(&mut self, from: Addr, to: Addr, size: u32) {
        let src = self.base(from.region);
        let dst = self.base(to.region);
        debug_assert!(!src.is_null() && !dst.is_null(), "copy via unbacked region");
        if src.is_null() || dst.is_null() {
            return;
        }
        let size = size as usize;
        debug_assert!(from.offset as usize + size <= self.region_bytes);
        debug_assert!(to.offset as usize + size <= self.region_bytes);
        // Destinations are freshly bump-allocated above every live object in
        // their region, so source and destination ranges never overlap even
        // within one region.
        debug_assert!(
            from.region != to.region
                || to.offset >= from.offset + size as u32
                || from.offset >= to.offset + size as u32,
            "overlapping copy {from:?} -> {to:?}"
        );
        // SAFETY: both ranges lie inside their regions' backing blocks (the
        // heap sized them), and they are disjoint per the argument above.
        unsafe {
            ptr::copy_nonoverlapping(
                src.add(from.offset as usize),
                dst.add(to.offset as usize),
                size,
            );
        }
        self.bytes_copied.fetch_add(size as u64, Ordering::Relaxed);
    }

    fn read_header_hash(&self, addr: Addr, size: u32) -> Option<IdentityHash> {
        if (size as usize) < OBJECT_HEADER_BYTES {
            return None;
        }
        let base = self.base(addr.region);
        if base.is_null() {
            return None;
        }
        debug_assert!(addr.offset as usize + size as usize <= self.region_bytes);
        let mut bytes = [0u8; OBJECT_HEADER_BYTES];
        // SAFETY: the object spans at least OBJECT_HEADER_BYTES at
        // [offset, offset+size) inside this region's backing block.
        unsafe {
            ptr::copy_nonoverlapping(
                base.add(addr.offset as usize),
                bytes.as_mut_ptr(),
                OBJECT_HEADER_BYTES,
            );
        }
        let header = u64::from_le_bytes(bytes);
        debug_assert_eq!(header as u32, size, "object header size drifted");
        Some(IdentityHash::from_raw((header >> 32) as u32))
    }

    fn copier(&self) -> Option<RegionCopier<'_>> {
        Some(RegionCopier {
            bases: self.bases.clone(),
            region_bytes: self.region_bytes,
            bytes_copied: &self.bytes_copied,
        })
    }

    fn read_bytes(&self, addr: Addr, buf: &mut [u8]) -> bool {
        let base = self.base(addr.region);
        if base.is_null() {
            return false;
        }
        debug_assert!(addr.offset as usize + buf.len() <= self.region_bytes);
        // SAFETY: the range lies inside this region's backing block, which
        // the backend exclusively owns.
        unsafe {
            ptr::copy_nonoverlapping(base.add(addr.offset as usize), buf.as_mut_ptr(), buf.len());
        }
        true
    }

    fn range_is_zero(&self, addr: Addr, len: usize) -> Option<bool> {
        let base = self.base(addr.region);
        if base.is_null() {
            return None;
        }
        debug_assert!(addr.offset as usize + len <= self.region_bytes);
        // SAFETY: in-bounds of the exclusively-owned backing block.
        let bytes = unsafe { std::slice::from_raw_parts(base.add(addr.offset as usize), len) };
        Some(bytes.iter().all(|&b| b == 0))
    }

    fn corrupt_byte(&mut self, addr: Addr, mask: u8) -> bool {
        let base = self.base(addr.region);
        if base.is_null() || mask == 0 {
            return false;
        }
        debug_assert!((addr.offset as usize) < self.region_bytes);
        // SAFETY: a single in-bounds byte of the exclusively-owned backing.
        unsafe {
            let p = base.add(addr.offset as usize);
            p.write(p.read() ^ mask);
        }
        true
    }

    // Not `if_same_then_else`: the branches try the two allocators in
    // opposite orders, and `||` short-circuits after the first plant.
    #[allow(clippy::if_same_then_else)]
    fn corrupt_free_byte(&mut self, selector: u64, mask: u8) -> bool {
        // Alternate which allocator is hit first so both free-memory pools
        // get exercised across seeds.
        if selector & 1 == 0 {
            self.bump.corrupt_recycled(selector, mask) || self.tenured.corrupt_free(selector, mask)
        } else {
            self.tenured.corrupt_free(selector, mask) || self.bump.corrupt_recycled(selector, mask)
        }
    }

    fn verify_allocator(&self) -> Result<(), (&'static str, String)> {
        self.tenured
            .validate()
            .map_err(|d| ("free-list-structure", d))?;
        self.tenured
            .check_zeroed()
            .map_err(|d| ("free-memory-zero", format!("tenured: {d}")))?;
        self.bump
            .check_recycled_zeroed()
            .map_err(|d| ("free-memory-zero", format!("young: {d}")))?;
        for (way, tlab) in self.tlabs.iter().enumerate() {
            let Some(region) = tlab.region() else {
                continue;
            };
            let base = self
                .bases
                .get(region as usize)
                .copied()
                .unwrap_or(ptr::null_mut());
            if base.is_null() {
                return Err((
                    "tlab-window",
                    format!("window {way} installed over unbacked region {region}"),
                ));
            }
            if tlab.base_ptr() != base {
                return Err((
                    "tlab-window",
                    format!("window {way} base pointer drifted for region {region}"),
                ));
            }
            if tlab.start() > tlab.limit() || tlab.limit() as usize > self.region_bytes {
                return Err((
                    "tlab-window",
                    format!(
                        "window {way} bounds [{}, {}) exceed region {region}",
                        tlab.start(),
                        tlab.limit()
                    ),
                ));
            }
        }
        Ok(())
    }

    fn note_copy_phase(&mut self, ns: u64) {
        self.copy_phase_ns += ns;
    }

    fn gc_cycle_finished(&mut self) {
        // Deferred maintenance point: fold this cycle's O(1) frees into
        // address-coalesced blocks in one sorted pass.
        self.tenured.coalesce();
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            bytes_written: self.bytes_written,
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            copy_phase_ns: self.copy_phase_ns,
            tlab_refills: self.tlab_refills,
            regions_backed: self.regions_backed,
            footprint_bytes: (self.bump.footprint_bytes() + self.tenured.footprint_bytes()) as u64,
        }
    }
}

/// Shareable payload copier for the parallel evacuation apply phase.
///
/// Snapshot of the backend's region base pointers, handed to the scoped
/// worker threads. Soundness leans on the same contract as the rest of the
/// apply phase (see [`crate::evac`]): every move in a batch has a distinct
/// destination range (bump-allocated), and source regions are detached from
/// their spaces before evacuation, so no two threads ever write overlapping
/// bytes and no thread reads bytes another writes.
pub struct RegionCopier<'a> {
    bases: Vec<*mut u8>,
    region_bytes: usize,
    bytes_copied: &'a AtomicU64,
}

// SAFETY: per the batch contract above, concurrent `copy` calls touch
// disjoint destination ranges and read only regions no move writes; the
// byte counter is atomic.
unsafe impl Sync for RegionCopier<'_> {}
// SAFETY: the copier only holds pointers into the backend it borrows from;
// sending it to a scoped worker thread cannot outlive that borrow.
unsafe impl Send for RegionCopier<'_> {}

impl RegionCopier<'_> {
    /// Copies one object payload; called from the apply-phase workers.
    pub(crate) fn copy(&self, from: Addr, to: Addr, size: u32) {
        let src = self.bases[from.region.index()];
        let dst = self.bases[to.region.index()];
        debug_assert!(!src.is_null() && !dst.is_null(), "copy via unbacked region");
        if src.is_null() || dst.is_null() {
            return;
        }
        let size = size as usize;
        debug_assert!(from.offset as usize + size <= self.region_bytes);
        debug_assert!(to.offset as usize + size <= self.region_bytes);
        // SAFETY: ranges are in-bounds of their backing blocks; disjointness
        // across the batch is the apply-phase contract (distinct bump
        // destinations, detached sources), making concurrent copies sound.
        unsafe {
            ptr::copy_nonoverlapping(
                src.add(from.offset as usize),
                dst.add(to.offset as usize),
                size,
            );
        }
        self.bytes_copied.fetch_add(size as u64, Ordering::Relaxed);
    }
}

impl fmt::Debug for RegionCopier<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegionCopier")
            .field("regions", &self.bases.len())
            .field("region_bytes", &self.region_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real() -> RealBackend {
        RealBackend::new(&HeapConfig::small())
    }

    fn addr(region: u32, offset: u32) -> Addr {
        Addr {
            region: RegionId::new(region),
            offset,
        }
    }

    #[test]
    fn header_round_trips_through_real_memory() {
        let mut b = real();
        b.ensure_region(RegionId::new(0), true);
        let hash = IdentityHash::from_raw(0xDEAD_BEEF);
        b.write_object(addr(0, 128), 64, hash);
        assert_eq!(b.read_header_hash(addr(0, 128), 64), Some(hash));
        // Tiny objects carry no header.
        b.write_object(addr(0, 0), 4, hash);
        assert_eq!(b.read_header_hash(addr(0, 0), 4), None);
        assert_eq!(b.stats().bytes_written, 68);
    }

    #[test]
    fn copy_moves_payload_across_regions() {
        let mut b = real();
        b.ensure_region(RegionId::new(0), true);
        b.ensure_region(RegionId::new(5), false);
        let hash = IdentityHash::from_raw(42);
        b.write_object(addr(0, 256), 512, hash);
        b.copy_object(addr(0, 256), addr(5, 1024), 512);
        assert_eq!(b.read_header_hash(addr(5, 1024), 512), Some(hash));
        assert_eq!(b.stats().bytes_copied, 512);
    }

    #[test]
    fn release_returns_backing_to_its_origin() {
        let mut b = real();
        b.ensure_region(RegionId::new(1), true);
        b.ensure_region(RegionId::new(2), false);
        assert_eq!(b.stats().regions_backed, 2);
        b.release_region(RegionId::new(1));
        b.release_region(RegionId::new(2));
        assert_eq!(b.stats().regions_backed, 0);
        // Releasing an unbacked region is a no-op.
        b.release_region(RegionId::new(3));
        // Re-assigning reuses the recycled memory, footprint stays flat.
        let footprint = b.stats().footprint_bytes;
        b.ensure_region(RegionId::new(7), true);
        b.ensure_region(RegionId::new(8), false);
        assert_eq!(b.stats().footprint_bytes, footprint);
    }

    #[test]
    fn heap_pages_commit_on_first_touch_and_hand_out_zeroed() {
        let config = HeapConfig::paper_scaled().with_backend(BackendKind::Real);
        let mut b = RealBackend::new(&config);
        let fresh = (b.stats().footprint_bytes, b.stats().regions_backed);
        assert_eq!(fresh, (0, 0), "construction must grow no chunk");
        let chunk = RealBackend::REGIONS_PER_CHUNK as u64 * config.region_bytes;
        // Only the first and last page of a block are read, which keeps the
        // test fast under miri.
        let page = config.page_bytes as usize;
        let last_page = (config.region_bytes - config.page_bytes) as u32;
        let ends_zero = |b: &RealBackend, region: u32| {
            b.range_is_zero(addr(region, 0), page) == Some(true)
                && b.range_is_zero(addr(region, last_page), page) == Some(true)
        };
        let hash = IdentityHash::from_raw(0xC0FF_EE00);
        for (region, young, footprint) in [(0, true, chunk), (40, false, 2 * chunk)] {
            b.ensure_region(RegionId::new(region), young);
            assert_eq!(b.stats().footprint_bytes, footprint, "one chunk per grow");
            assert!(ends_zero(&b, region), "fresh chunk handed out dirty");
            b.write_object(addr(region, 0), 64, hash);
            b.write_object(addr(region, last_page), page as u32, hash);
            assert!(!ends_zero(&b, region));
            b.release_region(RegionId::new(region));
            b.ensure_region(RegionId::new(region), young);
            assert_eq!(b.stats().footprint_bytes, footprint, "block reused");
            assert!(ends_zero(&b, region), "released block handed back dirty");
        }
    }

    #[test]
    fn sim_backend_is_inert() {
        let mut s = SimBackend;
        s.ensure_region(RegionId::new(0), true);
        s.write_object(addr(0, 0), 64, IdentityHash::from_raw(1));
        assert_eq!(s.read_header_hash(addr(0, 0), 64), None);
        assert!(s.copier().is_none());
        assert_eq!(s.stats(), BackendStats::default());
    }

    #[test]
    fn copier_counts_bytes_into_the_backend() {
        let mut b = real();
        b.ensure_region(RegionId::new(0), true);
        b.ensure_region(RegionId::new(1), false);
        b.write_object(addr(0, 0), 4096, IdentityHash::from_raw(7));
        let copier = b.copier().expect("real backend has a copier");
        copier.copy(addr(0, 0), addr(1, 0), 4096);
        drop(copier);
        assert_eq!(b.stats().bytes_copied, 4096);
        assert_eq!(
            b.read_header_hash(addr(1, 0), 4096),
            Some(IdentityHash::from_raw(7))
        );
    }
}
