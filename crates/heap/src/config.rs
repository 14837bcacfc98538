//! Heap geometry configuration.

use std::fmt;

use crate::backend::BackendKind;

/// When the heap's integrity verifier runs (the `--verify-heap` knob).
///
/// The heap never reads it: the runtime's safepoint decides, from its
/// `RuntimeConfig::verify_heap`, when to call
/// [`Heap::verify_integrity`](crate::Heap::verify_integrity).
/// Verification is strictly read-only: trajectories are bit-identical at
/// every mode, on either backend, at any worker count. The modes only trade
/// detection latency against mutator overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Never verify (the historical behavior, zero overhead).
    #[default]
    Off,
    /// Verify at every safepoint that performed a collection — the cheap
    /// production setting: corruption is caught before its effects spread
    /// through a copy phase.
    Gc,
    /// Verify at every allocation safepoint — the chaos-test setting: a
    /// planted fault is detected at the very next safepoint.
    Full,
}

impl VerifyMode {
    /// Parses a CLI value (`off`, `gc`, or `full`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(VerifyMode::Off),
            "gc" => Some(VerifyMode::Gc),
            "full" => Some(VerifyMode::Full),
            _ => None,
        }
    }
}

impl fmt::Display for VerifyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VerifyMode::Off => "off",
            VerifyMode::Gc => "gc",
            VerifyMode::Full => "full",
        })
    }
}

/// Geometry of the simulated heap.
///
/// The paper's evaluation fixes a 12 GiB heap with a 2 GiB young generation.
/// The simulation scales everything down (default 256 MiB / 32 MiB) and
/// scales workload object counts accordingly; ratios, not absolute sizes,
/// drive every figure.
///
/// # Examples
///
/// ```
/// use polm2_heap::HeapConfig;
///
/// let cfg = HeapConfig::default();
/// assert_eq!(cfg.total_bytes % cfg.region_bytes, 0);
/// assert_eq!(cfg.region_bytes % cfg.page_bytes, 0);
/// assert!(cfg.young_bytes < cfg.total_bytes);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapConfig {
    /// Total committed heap, in bytes.
    pub total_bytes: u64,
    /// Young-generation budget, in bytes (the `-Xmn` analogue).
    pub young_bytes: u64,
    /// Region size, in bytes. Spaces grow region by region.
    pub region_bytes: u64,
    /// Page size, in bytes. Pages carry dirty/no-need bits for the Dumper.
    pub page_bytes: u64,
    /// Which memory backend the heap runs on. [`BackendKind::Sim`] keeps the
    /// historical pure-address-arithmetic behavior; [`BackendKind::Real`]
    /// backs every region with real page-aligned memory. Logical layout —
    /// and therefore every profile, snapshot, and GcWork ledger — is
    /// identical either way.
    pub backend: BackendKind,
    /// TLAB window size for the real backend's allocation fast path, in
    /// bytes ([`HeapConfig::DEFAULT_TLAB_BYTES`] unless set). Clamped to the
    /// region size; ignored by the sim backend. Never affects logical
    /// placement, only how often the real backend's write window refills.
    pub tlab_bytes: u64,
    /// Optional hard commit budget in bytes (the `--heap-mb` knob): growing
    /// a space beyond this many committed bytes fails with
    /// [`HeapError::OutOfMemory`] instead of drawing from the region pool.
    /// `None` (the default) keeps the historical behavior where
    /// `total_bytes` alone bounds the heap.
    ///
    /// [`HeapError::OutOfMemory`]: crate::HeapError::OutOfMemory
    pub limit_bytes: Option<u64>,
}

impl HeapConfig {
    /// The default evaluation geometry: 256 MiB heap, 32 MiB young,
    /// 1 MiB regions, 4 KiB pages — a 1:48 scale model of the paper's
    /// 12 GiB / 2 GiB setup.
    pub fn paper_scaled() -> Self {
        HeapConfig {
            total_bytes: 256 << 20,
            young_bytes: 32 << 20,
            region_bytes: 1 << 20,
            page_bytes: 4 << 10,
            backend: BackendKind::Sim,
            tlab_bytes: Self::DEFAULT_TLAB_BYTES,
            limit_bytes: None,
        }
    }

    /// A small geometry for unit tests: 4 MiB heap, 1 MiB young,
    /// 256 KiB regions, 4 KiB pages.
    pub fn small() -> Self {
        HeapConfig {
            total_bytes: 4 << 20,
            young_bytes: 1 << 20,
            region_bytes: 256 << 10,
            page_bytes: 4 << 10,
            backend: BackendKind::Sim,
            tlab_bytes: Self::DEFAULT_TLAB_BYTES,
            limit_bytes: None,
        }
    }

    /// Default TLAB window size (256 KiB): large enough that the gate
    /// workloads refill a handful of times per region, small enough that a
    /// window never outlives its usefulness across survivor turnover.
    pub const DEFAULT_TLAB_BYTES: u64 = 256 << 10;

    /// This geometry with the given memory backend (chainable).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// This geometry with the given TLAB window size in bytes (chainable).
    pub fn with_tlab_bytes(mut self, tlab_bytes: u64) -> Self {
        self.tlab_bytes = tlab_bytes;
        self
    }

    /// This geometry with the given hard commit budget in bytes (chainable).
    pub fn with_limit_bytes(mut self, limit_bytes: u64) -> Self {
        self.limit_bytes = Some(limit_bytes);
        self
    }

    /// Number of regions in the pool.
    pub fn region_count(&self) -> u32 {
        (self.total_bytes / self.region_bytes) as u32
    }

    /// Number of pages per region.
    pub fn pages_per_region(&self) -> u32 {
        (self.region_bytes / self.page_bytes) as u32
    }

    /// Total number of pages.
    pub fn page_count(&self) -> u32 {
        self.region_count() * self.pages_per_region()
    }

    /// Number of regions the young generation may hold.
    pub fn young_region_budget(&self) -> u32 {
        (self.young_bytes / self.region_bytes) as u32
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a message if sizes are zero, not multiples of each other, or
    /// the young budget does not fit in the heap.
    pub fn validate(&self) -> Result<(), String> {
        if self.page_bytes == 0 || self.region_bytes == 0 || self.total_bytes == 0 {
            return Err("heap sizes must be non-zero".into());
        }
        if !self.region_bytes.is_multiple_of(self.page_bytes) {
            return Err("region size must be a multiple of the page size".into());
        }
        if !self.total_bytes.is_multiple_of(self.region_bytes) {
            return Err("heap size must be a multiple of the region size".into());
        }
        if !self.young_bytes.is_multiple_of(self.region_bytes) {
            return Err("young size must be a multiple of the region size".into());
        }
        if self.young_bytes == 0 || self.young_bytes >= self.total_bytes {
            return Err("young generation must be non-empty and smaller than the heap".into());
        }
        if self.tlab_bytes == 0 {
            return Err("TLAB window size must be non-zero".into());
        }
        if let Some(limit) = self.limit_bytes {
            if limit < self.region_bytes {
                return Err("heap limit must cover at least one region".into());
            }
        }
        Ok(())
    }
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig::paper_scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_is_valid() {
        assert!(HeapConfig::default().validate().is_ok());
        assert!(HeapConfig::small().validate().is_ok());
    }

    #[test]
    fn derived_counts() {
        let cfg = HeapConfig::small();
        assert_eq!(cfg.region_count(), 16);
        assert_eq!(cfg.pages_per_region(), 64);
        assert_eq!(cfg.page_count(), 1024);
        assert_eq!(cfg.young_region_budget(), 4);
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        let mut cfg = HeapConfig::small();
        cfg.region_bytes = 100_000; // not a multiple of page size
        assert!(cfg.validate().is_err());

        let mut cfg = HeapConfig::small();
        cfg.young_bytes = cfg.total_bytes;
        assert!(cfg.validate().is_err());

        let mut cfg = HeapConfig::small();
        cfg.young_bytes = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = HeapConfig::small();
        cfg.total_bytes = 0;
        assert!(cfg.validate().is_err());

        let cfg = HeapConfig::small().with_tlab_bytes(0);
        assert!(cfg.validate().is_err());

        // A budget smaller than one region could never grow any space.
        let cfg = HeapConfig::small().with_limit_bytes(1);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn verify_mode_parses_and_displays() {
        assert_eq!(VerifyMode::parse("off"), Some(VerifyMode::Off));
        assert_eq!(VerifyMode::parse("gc"), Some(VerifyMode::Gc));
        assert_eq!(VerifyMode::parse("full"), Some(VerifyMode::Full));
        assert_eq!(VerifyMode::parse("sometimes"), None);
        assert_eq!(VerifyMode::Gc.to_string(), "gc");
    }

    #[test]
    fn limit_chainable() {
        let cfg = HeapConfig::small().with_limit_bytes(2 << 20);
        assert_eq!(cfg.limit_bytes, Some(2 << 20));
        assert!(cfg.validate().is_ok());
    }
}
