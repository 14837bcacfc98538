//! Heap integrity verification and the memory-corruption chaos arm.
//!
//! [`Heap::verify_integrity`] re-derives the heap's full invariant set from
//! scratch and compares it against the incremental state the hot paths
//! maintain — the self-check a production profiler runs at safepoints
//! (`--verify-heap {off,gc,full}`, see
//! [`VerifyMode`](crate::config::VerifyMode)). Violations surface as typed
//! [`HeapError::IntegrityViolation`] values carrying a stable invariant
//! name, never as panics, so a supervisor can quarantine the heap instead
//! of dying with it.
//!
//! The catalogue splits into three layers:
//!
//! **Logical invariants** (both backends): the slot table and record slab
//! are a bijection on live ids (`slab-bijection`, `live-record-count`,
//! `record-slab-slots`); every record's region is owned by the record's
//! space and lists the object (`region-ownership`, `region-membership`,
//! `object-in-bounds`); incremental page-occupancy counters equal a
//! from-scratch recomputation (`page-occupancy`); pool regions are
//! unassigned and empty (`free-region-clean`); and every region is free,
//! owned, or detached for evacuation, exactly once (`region-partition`).
//!
//! **Memory invariants** (real backend): every live object's header reads
//! back as `(hash << 32) | size` (`header-matches-record`, `region-backed`)
//! and its payload past the header is zero (`payload-zero`) — the
//! zeroed-handout discipline means nothing but the header store and the
//! evacuation memcpy ever writes an object's extent, so zeros are the only
//! legitimate payload content; and every backed region's bytes past its
//! bump cursor are zero (`unallocated-zero`).
//!
//! **Allocator invariants** (real backend, via
//! [`HeapBackend::verify_allocator`](crate::backend::HeapBackend::verify_allocator)):
//! free-list structure — disjointness, size-class filing, nonempty-bitmap
//! sync, byte accounting (`free-list-structure`); freed memory stays zero
//! (`free-memory-zero`); and TLAB windows cover only backed regions within
//! bounds (`tlab-window`).
//!
//! Verification is strictly read-only (one counter aside, which no
//! trajectory fingerprint can see): heap trajectories are bit-identical
//! with verification on or off, on either backend, at any worker count.
//!
//! [`Heap::plant_corruption`] is the other half of the contract: it plants
//! one seeded corruption of a chosen [`CorruptionKind`] directly into real
//! heap memory — bypassing every logical bookkeeping path, exactly like a
//! stray write — and returns ground truth so tests and the chaos pipeline
//! can assert the verifier detects every planted class.

use crate::backend::{BackendKind, OBJECT_HEADER_BYTES};
use crate::{Addr, HeapError, ObjectId, RegionId};

use super::{Heap, DEAD_SLOT};

/// The memory-corruption classes the chaos arm can plant (real backend
/// only; the sim backend has no memory to corrupt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Flip one bit somewhere inside a live object's extent.
    BitFlip,
    /// Clobber a byte of a live object's 8-byte header.
    HeaderClobber,
    /// Write a non-zero byte into memory no live object owns: the
    /// allocators' free blocks when any exist, else a backed region's
    /// space past the bump cursor.
    StrayWrite,
}

impl CorruptionKind {
    /// Every corruption class, in a stable order (test sweeps iterate this).
    pub const ALL: [CorruptionKind; 3] = [
        CorruptionKind::BitFlip,
        CorruptionKind::HeaderClobber,
        CorruptionKind::StrayWrite,
    ];

    /// Short stable label (ledger and log lines).
    pub fn label(self) -> &'static str {
        match self {
            CorruptionKind::BitFlip => "bit-flip",
            CorruptionKind::HeaderClobber => "header-clobber",
            CorruptionKind::StrayWrite => "stray-write",
        }
    }

    /// The verifier invariants that can legitimately flag this class —
    /// tests assert a detection's invariant is in this set.
    pub fn detectable_by(self) -> &'static [&'static str] {
        match self {
            CorruptionKind::BitFlip => &["header-matches-record", "payload-zero"],
            CorruptionKind::HeaderClobber => &["header-matches-record"],
            CorruptionKind::StrayWrite => &["free-memory-zero", "unallocated-zero"],
        }
    }
}

/// Ground truth for one planted corruption: what was corrupted, where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantedCorruption {
    /// The class planted.
    pub kind: CorruptionKind,
    /// Human-readable description of the exact byte hit.
    pub detail: String,
}

/// Deterministic splitmix64 step for target selection; unrelated to (and
/// isolated from) every PRNG stream the fault injector owns.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn violation(invariant: &'static str, detail: String) -> HeapError {
    HeapError::IntegrityViolation { invariant, detail }
}

impl Heap {
    /// Completed integrity-verifier passes (clean or not). Surfaced through
    /// the metrics fault counters so ledgers can prove verification ran.
    pub fn verify_passes(&self) -> u64 {
        self.verify_passes
    }

    /// Checks the full invariant catalogue (logical, memory and allocator
    /// layers), returning the first violation found. Strictly read-only: the
    /// heap's trajectory is bit-identical whether and however often this
    /// runs.
    ///
    /// # Errors
    ///
    /// [`HeapError::IntegrityViolation`] naming the failed invariant.
    pub fn verify_integrity(&mut self) -> Result<(), HeapError> {
        self.verify_passes += 1;
        self.verify_logical()?;
        self.verify_memory()?;
        self.backend
            .verify_allocator()
            .map_err(|(invariant, detail)| violation(invariant, detail))
    }

    /// Checks the logical invariants on either backend, for tests.
    ///
    /// # Panics
    ///
    /// Panics with the [`HeapError::IntegrityViolation`] that
    /// [`verify_integrity`](Heap::verify_integrity) would report for the
    /// first violated logical invariant.
    pub fn check_invariants(&self) {
        if let Err(e) = self.verify_logical() {
            panic!("{e}");
        }
    }

    /// The logical layer: slab bijection, region ownership/membership,
    /// page-occupancy agreement, pool cleanliness, region partition.
    fn verify_logical(&self) -> Result<(), HeapError> {
        let mut live = 0usize;
        for (index, &slot) in self.slots.iter().enumerate() {
            if slot == DEAD_SLOT {
                continue;
            }
            let Some(rec) = self.records.get(slot as usize).and_then(|r| r.as_ref()) else {
                return Err(violation(
                    "slab-bijection",
                    format!("slot table points id #{index} at an empty slot {slot}"),
                ));
            };
            if rec.id().index() != index {
                return Err(violation(
                    "slab-bijection",
                    format!("record {} occupies the slot of id #{index}", rec.id()),
                ));
            }
            live += 1;
        }
        if live != self.live_records {
            return Err(violation(
                "live-record-count",
                format!(
                    "slot table holds {live} live ids, counter says {}",
                    self.live_records
                ),
            ));
        }
        if self.records.len() != live + self.free_slots.len() {
            return Err(violation(
                "record-slab-slots",
                format!(
                    "{} record slots != {live} live + {} free",
                    self.records.len(),
                    self.free_slots.len()
                ),
            ));
        }
        let region_bytes = self.config.region_bytes;
        for rec in self.records.iter().flatten() {
            let id = rec.id();
            let region = &self.regions[rec.addr().region.index()];
            if region.space() != Some(rec.space()) {
                return Err(violation(
                    "region-ownership",
                    format!("object {id} resides in a region owned by a different space"),
                ));
            }
            if !region.objects().contains(&id) {
                return Err(violation(
                    "region-membership",
                    format!("object {id} missing from its region's object list"),
                ));
            }
            let end = u64::from(rec.addr().offset) + u64::from(rec.size());
            if end > u64::from(region.used_bytes()) || end > region_bytes {
                return Err(violation(
                    "object-in-bounds",
                    format!("object {id} extends past its region's bump cursor"),
                ));
            }
        }
        let mut counts = vec![0u32; self.page_object_counts.len()];
        for rec in self.records.iter().flatten() {
            let (first, last) = self.page_table.pages_of(rec.addr(), rec.size());
            for p in first..=last {
                counts[p as usize] += 1;
            }
        }
        for (p, (&have, &want)) in self
            .page_object_counts
            .iter()
            .zip(counts.iter())
            .enumerate()
        {
            if have != want {
                return Err(violation(
                    "page-occupancy",
                    format!("page {p} occupancy count is {have}, recomputation says {want}"),
                ));
            }
        }
        for &r in &self.free_regions {
            let region = &self.regions[r.index()];
            if region.space().is_some() || !region.objects().is_empty() {
                return Err(violation(
                    "free-region-clean",
                    format!("pool region {r} is assigned or holds stale objects"),
                ));
            }
        }
        let owned: usize = self.spaces.iter().map(|s| s.regions().len()).sum();
        if owned + self.free_regions.len() + self.evacuating.len() != self.regions.len() {
            return Err(violation(
                "region-partition",
                format!(
                    "{owned} owned + {} free + {} evacuating != {} regions",
                    self.free_regions.len(),
                    self.evacuating.len(),
                    self.regions.len()
                ),
            ));
        }
        Ok(())
    }

    /// The memory layer (real backend only): headers read back from heap
    /// memory match the logical records, payloads and unallocated region
    /// tails hold the zeros the handout discipline guarantees.
    fn verify_memory(&self) -> Result<(), HeapError> {
        if self.backend.kind() != BackendKind::Real {
            return Ok(());
        }
        for rec in self.records.iter().flatten() {
            let id = rec.id();
            let addr = rec.addr();
            let size = rec.size() as usize;
            if size >= OBJECT_HEADER_BYTES {
                let mut buf = [0u8; OBJECT_HEADER_BYTES];
                if !self.backend.read_bytes(addr, &mut buf) {
                    return Err(violation(
                        "region-backed",
                        format!("live object {id} resides in an unbacked region"),
                    ));
                }
                let have = u64::from_le_bytes(buf);
                let want = (u64::from(rec.identity_hash().raw()) << 32) | size as u64;
                if have != want {
                    return Err(violation(
                        "header-matches-record",
                        format!("object {id} header reads {have:#018x}, record says {want:#018x}"),
                    ));
                }
                let payload = Addr {
                    region: addr.region,
                    offset: addr.offset + OBJECT_HEADER_BYTES as u32,
                };
                if self
                    .backend
                    .range_is_zero(payload, size - OBJECT_HEADER_BYTES)
                    == Some(false)
                {
                    return Err(violation(
                        "payload-zero",
                        format!("object {id} payload holds a non-zero byte"),
                    ));
                }
            } else {
                match self.backend.range_is_zero(addr, size) {
                    Some(true) => {}
                    Some(false) => {
                        return Err(violation(
                            "payload-zero",
                            format!("headerless object {id} holds a non-zero byte"),
                        ));
                    }
                    None => {
                        return Err(violation(
                            "region-backed",
                            format!("live object {id} resides in an unbacked region"),
                        ));
                    }
                }
            }
        }
        let region_bytes = self.config.region_bytes as u32;
        for region in &self.regions {
            if region.space().is_none() {
                continue;
            }
            let cursor = region.used_bytes();
            if cursor >= region_bytes {
                continue;
            }
            let tail = Addr {
                region: region.id(),
                offset: cursor,
            };
            if self
                .backend
                .range_is_zero(tail, (region_bytes - cursor) as usize)
                == Some(false)
            {
                return Err(violation(
                    "unallocated-zero",
                    format!(
                        "region {} holds a non-zero byte past its bump cursor {cursor:#x}",
                        region.id()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Plants one seeded corruption of `kind` directly into real heap
    /// memory, bypassing all logical bookkeeping — exactly what a stray or
    /// wild write does. Target selection is a pure function of the current
    /// heap state and `seed`. Returns ground truth for the planted fault,
    /// or `None` when no eligible target exists (sim backend, no live
    /// objects of the required shape, no free/unallocated memory).
    ///
    /// After a successful plant, [`Heap::verify_integrity`] is guaranteed
    /// to fail with an invariant from
    /// [`CorruptionKind::detectable_by`] — the detection contract the
    /// proptest suite pins.
    pub fn plant_corruption(
        &mut self,
        kind: CorruptionKind,
        seed: u64,
    ) -> Option<PlantedCorruption> {
        let mut state = seed;
        match kind {
            CorruptionKind::BitFlip => {
                let candidates: Vec<(ObjectId, Addr, u32)> = self
                    .records
                    .iter()
                    .flatten()
                    .map(|r| (r.id(), r.addr(), r.size()))
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                let (id, addr, size) =
                    candidates[(mix(&mut state) % candidates.len() as u64) as usize];
                let offset = addr.offset + (mix(&mut state) % u64::from(size)) as u32;
                let mask = 1u8 << (mix(&mut state) % 8);
                let target = Addr {
                    region: addr.region,
                    offset,
                };
                self.backend
                    .corrupt_byte(target, mask)
                    .then(|| PlantedCorruption {
                        kind,
                        detail: format!(
                            "bit mask {mask:#04x} flipped at {}+{offset:#x} inside {id}",
                            addr.region
                        ),
                    })
            }
            CorruptionKind::HeaderClobber => {
                let candidates: Vec<(ObjectId, Addr)> = self
                    .records
                    .iter()
                    .flatten()
                    .filter(|r| r.size() as usize >= OBJECT_HEADER_BYTES)
                    .map(|r| (r.id(), r.addr()))
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                let (id, addr) = candidates[(mix(&mut state) % candidates.len() as u64) as usize];
                let offset = addr.offset + (mix(&mut state) % OBJECT_HEADER_BYTES as u64) as u32;
                let mask = (mix(&mut state) % 255 + 1) as u8;
                let target = Addr {
                    region: addr.region,
                    offset,
                };
                self.backend
                    .corrupt_byte(target, mask)
                    .then(|| PlantedCorruption {
                        kind,
                        detail: format!(
                            "header byte at {}+{offset:#x} of {id} clobbered with {mask:#04x}",
                            addr.region
                        ),
                    })
            }
            CorruptionKind::StrayWrite => {
                let selector = mix(&mut state);
                let mask = (mix(&mut state) % 255 + 1) as u8;
                if self.backend.corrupt_free_byte(selector, mask) {
                    return Some(PlantedCorruption {
                        kind,
                        detail: format!("free-block byte xor'd with {mask:#04x}"),
                    });
                }
                // No free blocks yet (e.g. before the first collection):
                // hit a backed region's space past the bump cursor instead.
                let region_bytes = self.config.region_bytes as u32;
                let candidates: Vec<(RegionId, u32)> = self
                    .regions
                    .iter()
                    .filter(|r| r.space().is_some() && r.used_bytes() < region_bytes)
                    .map(|r| (r.id(), r.used_bytes()))
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                let (region, cursor) =
                    candidates[(mix(&mut state) % candidates.len() as u64) as usize];
                let offset = cursor + (mix(&mut state) % u64::from(region_bytes - cursor)) as u32;
                let target = Addr { region, offset };
                self.backend.corrupt_byte(target, mask).then(|| PlantedCorruption {
                    kind,
                    detail: format!(
                        "stray byte {mask:#04x} written at {region}+{offset:#x} past cursor {cursor:#x}"
                    ),
                })
            }
        }
    }
}
