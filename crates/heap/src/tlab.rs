//! TLAB-style allocation windows and the header-only object store.
//!
//! A [`TlabWindow`] is a thread-local-allocation-buffer analogue for the
//! real-memory backend: a cached `[start, limit)` write window over one
//! region's backing block. The heap still decides every logical address
//! (region + offset) before any backend hook fires — the window never
//! influences placement — but while consecutive allocations land inside the
//! window, the backend skips the per-object region lookup and bounds
//! re-derivation entirely and goes straight to one store. Falling off the
//! window's end (or switching regions) triggers a *refill*: the backend
//! re-derives the base pointer once, installs a fresh window of up to
//! `tlab_bytes`, and counts the refill. Releasing a region *retires* any
//! window over it, so a recycled backing block can never be written
//! through a stale window.
//!
//! The store itself ([`TlabWindow::write`]) is **header-only**: both
//! allocators hand out their blocks pre-zeroed (the HotSpot `ZeroTLAB`
//! discipline — bulk re-zeroing rides along with the GC that recycles or
//! frees the memory, see [`BumpArena`](crate::bump::BumpArena) and
//! [`FreeList`](crate::free_list::FreeList)), so establishing an object
//! costs one unaligned store of the 8-byte header
//! `(hash << 32) | size` and the payload's defined content is the zeros
//! already there (the first store into a never-touched page also takes the
//! kernel's fault that commits it). That is what keeps real allocation
//! near sim speed: a 4 KiB object touches one cache line, not 64, and the
//! allocation path never streams payload-sized stores through the host's
//! write-bandwidth ceiling. Payload bytes move only in the evacuation copy
//! phase, which `memcpy`s header + payload together.
//!
//! # Safety model
//!
//! A window is only a *view*: it borrows no lifetime but holds a raw base
//! pointer, so the type that installs it (the backend) must guarantee the
//! backing block outlives the window — retiring on region release is what
//! maintains that. Writes are bounds-checked against `[start, limit)`
//! before any unsafe store, so a window can never write outside the range
//! it was installed over; disjoint windows therefore never overlap, which
//! is what the cross-thread property fuzz in `backend_properties.rs`
//! pins down.

use crate::backend::OBJECT_HEADER_BYTES;

/// A cached write window over one region's backing memory.
///
/// See the [module docs](self) for the refill/retire protocol and safety
/// model.
#[derive(Debug)]
pub struct TlabWindow {
    /// Base pointer of the *region* backing (not of the window), so object
    /// offsets index directly. Dangling iff `region == EMPTY`.
    base: *mut u8,
    /// Raw region id this window is installed over, [`TlabWindow::EMPTY`]
    /// when retired.
    region: u32,
    /// Inclusive first offset the window may write.
    start: u32,
    /// Exclusive end offset of the window.
    limit: u32,
}

// SAFETY: the window is a plain (pointer, range) pair; sending it to
// another thread is sound. Concurrent use is governed by the installer's
// contract that live windows cover disjoint ranges.
unsafe impl Send for TlabWindow {}

impl TlabWindow {
    /// Sentinel region id of a retired window.
    const EMPTY: u32 = u32::MAX;

    /// A retired window that covers nothing.
    pub const fn empty() -> Self {
        TlabWindow {
            base: std::ptr::null_mut(),
            region: Self::EMPTY,
            start: 0,
            limit: 0,
        }
    }

    /// Installs the window over `[start, limit)` of the region whose
    /// backing begins at `base`.
    ///
    /// # Safety
    ///
    /// `base` must point to a live allocation spanning at least `limit`
    /// bytes, and that allocation must outlive every [`write`] through
    /// this window (retire the window before the backing is released).
    /// No other live window may cover an overlapping range of the same
    /// backing while both are written.
    ///
    /// [`write`]: TlabWindow::write
    pub unsafe fn install(&mut self, base: *mut u8, region: u32, start: u32, limit: u32) {
        debug_assert!(!base.is_null() && start <= limit && region != Self::EMPTY);
        self.base = base;
        self.region = region;
        self.start = start;
        self.limit = limit;
    }

    /// Retires the window; every subsequent [`write`](TlabWindow::write)
    /// misses until it is installed again.
    pub fn retire(&mut self) {
        self.region = Self::EMPTY;
        self.base = std::ptr::null_mut();
        self.start = 0;
        self.limit = 0;
    }

    /// The raw region id the window is installed over, if any.
    pub fn region(&self) -> Option<u32> {
        (self.region != Self::EMPTY).then_some(self.region)
    }

    /// The base pointer the window was installed with (null when retired).
    /// Exposed for the integrity verifier's window-validity check only.
    pub(crate) fn base_ptr(&self) -> *mut u8 {
        self.base
    }

    /// The window's inclusive start offset.
    pub(crate) fn start(&self) -> u32 {
        self.start
    }

    /// The window's exclusive end offset.
    pub(crate) fn limit(&self) -> u32 {
        self.limit
    }

    /// Whether `[offset, offset + size)` of `region` lies inside the
    /// window.
    #[inline]
    pub fn covers(&self, region: u32, offset: u32, size: u32) -> bool {
        // One compare chain, no data-dependent branches beyond it: this is
        // the allocation fast path's only check.
        region == self.region && offset >= self.start && offset + size <= self.limit
    }

    /// Writes one object's header at `offset` if the window covers it;
    /// returns `false` (a *miss*, prompting a refill) if not. Misses never
    /// touch memory.
    #[inline]
    pub fn write(&mut self, region: u32, offset: u32, size: u32, hash_raw: u32) -> bool {
        if !self.covers(region, offset, size) {
            return false;
        }
        // SAFETY: `covers` proved [offset, offset+size) ⊆ [start, limit),
        // and the install contract guarantees the backing spans `limit`
        // bytes and is live; no other window overlaps this range.
        unsafe { write_header(self.base.add(offset as usize), size as usize, hash_raw) };
        true
    }
}

/// Header-only object store for pre-zeroed backing: writes the 8-byte
/// object header `(hash << 32) | size` (little endian) and nothing else —
/// the payload's defined content is the zeros the block provider handed
/// out (fresh from the system allocator, or re-zeroed in bulk at recycle or
/// free). Objects smaller than a header store nothing at all; their whole
/// payload is zeros and readers fall back to the object table.
///
/// # Safety
///
/// `dst` must be valid for writes of `size` bytes.
pub(crate) unsafe fn write_header(dst: *mut u8, size: usize, hash_raw: u32) {
    if size < OBJECT_HEADER_BYTES {
        return;
    }
    let header = ((u64::from(hash_raw)) << 32) | size as u64;
    // SAFETY: the header occupies [0, 8) of the caller-guaranteed `size`
    // writable bytes; `write_unaligned` because object offsets are
    // byte-granular.
    unsafe { (dst as *mut u64).write_unaligned(header.to_le()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_store_matches_the_reference_layout() {
        // Sizes on both sides of the header threshold; the buffer models
        // pre-zeroed backing with 0xEE guard bytes outside the object.
        for size in [1usize, 4, 7, 8, 9, 16, 64, 2048, 4097] {
            let mut buf = vec![0u8; size + 16];
            buf[..3].fill(0xEE);
            buf[3 + size..].fill(0xEE);
            // Offset by 3 to exercise the unaligned store.
            let dst = unsafe { buf.as_mut_ptr().add(3) };
            unsafe { write_header(dst, size, 0xAB12_34CD) };
            if size < OBJECT_HEADER_BYTES {
                assert!(
                    buf[3..3 + size].iter().all(|&b| b == 0),
                    "tiny object must store nothing (size {size})"
                );
            } else {
                let header = ((0xAB12_34CDu64) << 32) | size as u64;
                assert_eq!(&buf[3..11], &header.to_le_bytes(), "size {size}");
                assert!(
                    buf[11..3 + size].iter().all(|&b| b == 0),
                    "payload touched (size {size})"
                );
            }
            // Guard bytes on both sides untouched.
            assert!(buf[..3].iter().all(|&b| b == 0xEE), "size {size} underran");
            assert!(
                buf[3 + size..].iter().all(|&b| b == 0xEE),
                "size {size} overran"
            );
        }
    }

    #[test]
    fn window_bounds_misses_never_write() {
        let mut backing = vec![0u8; 4096];
        let mut w = TlabWindow::empty();
        assert!(!w.write(0, 0, 8, 1), "retired window must miss");
        unsafe { w.install(backing.as_mut_ptr(), 7, 1024, 2048) };
        assert_eq!(w.region(), Some(7));
        assert!(!w.write(8, 1024, 8, 1), "wrong region");
        assert!(!w.write(7, 1000, 8, 1), "below start");
        assert!(!w.write(7, 2040, 16, 1), "crosses limit");
        assert!(backing.iter().all(|&b| b == 0), "misses wrote memory");
        assert!(w.write(7, 1024, 64, 0x55), "covered write");
        assert_eq!(backing[1024], 64, "header size byte");
        assert_eq!(backing[1028], 0x55, "header hash byte");
        w.retire();
        assert_eq!(w.region(), None);
        assert!(!w.write(7, 1024, 8, 1), "retired window must miss again");
    }

    #[test]
    fn header_survives_the_store_and_payload_stays_zero() {
        let mut backing = vec![0u8; 4096];
        let mut w = TlabWindow::empty();
        unsafe { w.install(backing.as_mut_ptr(), 0, 0, 4096) };
        assert!(w.write(0, 128, 512, 0xDEAD_BEEF));
        let mut header = [0u8; 8];
        header.copy_from_slice(&backing[128..136]);
        let header = u64::from_le_bytes(header);
        assert_eq!(header as u32, 512);
        assert_eq!((header >> 32) as u32, 0xDEAD_BEEF);
        assert!(
            backing[136..128 + 512].iter().all(|&b| b == 0),
            "payload must stay the zeros the backing was handed out with"
        );
    }
}
