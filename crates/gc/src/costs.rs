//! The pause-time cost model.
//!
//! The paper measures wall-clock stop-the-world pauses on a Xeon E5505. The
//! simulation replaces the machine with a deterministic linear model: a pause
//! is a fixed safepoint cost plus per-byte charges for the work the collector
//! actually performed. The paper's claims are relative (percent reductions,
//! normalized ratios), and a linear model preserves exactly the relative
//! structure — who copies less, pauses less.

use polm2_metrics::SimDuration;

/// The work performed during one stop-the-world pause.
///
/// Collectors fill this in as they operate on the heap; the cost model prices
/// it. Note that *tracing* here covers only the collected spaces — G1 and
/// NG2C both mark concurrently, so full-heap marking is not charged to the
/// pause (matching G1's concurrent-marking design).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcWork {
    /// Live bytes scanned in the collected spaces (evacuation scan).
    pub traced_bytes: u64,
    /// Objects visited while scanning.
    pub traced_objects: u64,
    /// Bytes copied within a generation (young survivor copying).
    pub copied_bytes: u64,
    /// Bytes promoted into an older space.
    pub promoted_bytes: u64,
    /// Bytes moved by old-space compaction.
    pub compacted_bytes: u64,
    /// Objects reclaimed without moving anything (swept).
    pub swept_objects: u64,
    /// Regions released whole (the cheap path pretenuring enables).
    pub freed_regions: u64,
}

impl GcWork {
    /// Sums two work records (e.g. the phases of a full collection).
    pub fn merged(self, other: GcWork) -> GcWork {
        GcWork {
            traced_bytes: self.traced_bytes + other.traced_bytes,
            traced_objects: self.traced_objects + other.traced_objects,
            copied_bytes: self.copied_bytes + other.copied_bytes,
            promoted_bytes: self.promoted_bytes + other.promoted_bytes,
            compacted_bytes: self.compacted_bytes + other.compacted_bytes,
            swept_objects: self.swept_objects + other.swept_objects,
            freed_regions: self.freed_regions + other.freed_regions,
        }
    }

    /// Total bytes physically moved (copy + promote + compact).
    pub fn moved_bytes(&self) -> u64 {
        self.copied_bytes + self.promoted_bytes + self.compacted_bytes
    }
}

/// Linear pause-time coefficients.
///
/// The default calibration targets the paper's scale: with the 256 MiB
/// scaled heap, a young collection with a few MiB of survivors prices at tens
/// of milliseconds, and a full compaction of ~150 MiB of live data prices at
/// over a second — the band Figure 5 reports for G1's worst pauses.
///
/// # Examples
///
/// ```
/// use polm2_gc::{CostModel, GcWork};
///
/// let model = CostModel::default();
/// let cheap = model.pause(&GcWork { freed_regions: 10, ..GcWork::default() });
/// let pricey = model.pause(&GcWork { compacted_bytes: 64 << 20, ..GcWork::default() });
/// assert!(cheap < pricey);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost of stopping and restarting the world, in microseconds.
    pub safepoint_us: u64,
    /// Scanning live data in collected spaces, µs per MiB.
    pub trace_us_per_mib: u64,
    /// Copying an object within its generation, µs per MiB.
    pub copy_us_per_mib: u64,
    /// Promoting into an older space (copy + remembered-set update), µs/MiB.
    pub promote_us_per_mib: u64,
    /// Old-space compaction (copy + reference fix-up), µs per MiB.
    pub compact_us_per_mib: u64,
    /// Per-object visit overhead, in nanoseconds.
    pub visit_ns_per_object: u64,
    /// Releasing a whole dead region, in microseconds (the cheap path).
    pub free_region_us: u64,
}

impl CostModel {
    /// The calibration used for all recorded experiments (see DESIGN.md §7).
    pub fn paper_scaled() -> Self {
        CostModel {
            safepoint_us: 800,
            trace_us_per_mib: 1_200,
            copy_us_per_mib: 9_000,
            promote_us_per_mib: 12_000,
            compact_us_per_mib: 11_000,
            visit_ns_per_object: 150,
            free_region_us: 30,
        }
    }

    /// Prices one pause, whatever `gc_workers` is: a worker-dependent
    /// simulated pause would change how many mutator operations fit a
    /// time-budgeted run, and with them every profile (DESIGN.md §15). The
    /// per-term integer divisions are part of the calibration; every
    /// recorded simulated pause depends on them.
    pub fn pause(&self, work: &GcWork) -> SimDuration {
        const MIB: u64 = 1 << 20;
        let work_us = work.traced_bytes * self.trace_us_per_mib / MIB
            + work.copied_bytes * self.copy_us_per_mib / MIB
            + work.promoted_bytes * self.promote_us_per_mib / MIB
            + work.compacted_bytes * self.compact_us_per_mib / MIB
            + work.traced_objects * self.visit_ns_per_object / 1_000;
        let fixed_us = self.safepoint_us + work.freed_regions * self.free_region_us;
        SimDuration::from_micros(fixed_us + work_us)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_work_costs_the_safepoint() {
        let model = CostModel::default();
        assert_eq!(
            model.pause(&GcWork::default()),
            SimDuration::from_micros(model.safepoint_us)
        );
    }

    #[test]
    fn costs_scale_linearly_with_bytes() {
        let model = CostModel::default();
        let one = model.pause(&GcWork {
            copied_bytes: 1 << 20,
            ..GcWork::default()
        });
        let two = model.pause(&GcWork {
            copied_bytes: 2 << 20,
            ..GcWork::default()
        });
        let base = SimDuration::from_micros(model.safepoint_us);
        assert_eq!((two - base).as_micros(), 2 * (one - base).as_micros());
    }

    #[test]
    fn promotion_costs_more_than_copy() {
        let model = CostModel::default();
        let copy = model.pause(&GcWork {
            copied_bytes: 8 << 20,
            ..GcWork::default()
        });
        let promote = model.pause(&GcWork {
            promoted_bytes: 8 << 20,
            ..GcWork::default()
        });
        assert!(promote > copy);
    }

    #[test]
    fn region_free_path_is_cheap() {
        let model = CostModel::default();
        // Releasing 100 dead regions must be far cheaper than compacting
        // the same 100 MiB.
        let free = model.pause(&GcWork {
            freed_regions: 100,
            ..GcWork::default()
        });
        let compact = model.pause(&GcWork {
            compacted_bytes: 100 << 20,
            ..GcWork::default()
        });
        assert!(free.as_micros() * 50 < compact.as_micros());
    }

    #[test]
    fn merged_accumulates_all_fields() {
        let a = GcWork {
            traced_bytes: 1,
            traced_objects: 2,
            copied_bytes: 3,
            promoted_bytes: 4,
            compacted_bytes: 5,
            swept_objects: 6,
            freed_regions: 7,
        };
        let m = a.merged(a);
        assert_eq!(m.traced_bytes, 2);
        assert_eq!(m.swept_objects, 12);
        assert_eq!(m.freed_regions, 14);
        assert_eq!(m.moved_bytes(), 2 * (3 + 4 + 5));
    }

    #[test]
    fn young_collection_magnitude_is_tens_of_ms() {
        // 4 MiB of survivors copied + traced: should land in the
        // 10–100 ms band the paper reports for G1 young pauses.
        let model = CostModel::default();
        let pause = model.pause(&GcWork {
            traced_bytes: 4 << 20,
            traced_objects: 20_000,
            copied_bytes: 4 << 20,
            ..GcWork::default()
        });
        let ms = pause.as_millis();
        assert!((10..100).contains(&ms), "young pause {ms}ms out of band");
    }

    #[test]
    fn full_compaction_magnitude_is_about_a_second() {
        let model = CostModel::default();
        let pause = model.pause(&GcWork {
            traced_bytes: 150 << 20,
            traced_objects: 500_000,
            compacted_bytes: 120 << 20,
            ..GcWork::default()
        });
        let ms = pause.as_millis();
        assert!((500..3_000).contains(&ms), "full pause {ms}ms out of band");
    }
}
