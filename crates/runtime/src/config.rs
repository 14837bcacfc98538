//! Runtime configuration.

use polm2_gc::GcConfig;
use polm2_heap::HeapConfig;

/// Configuration for a [`Jvm`](crate::Jvm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// Heap geometry.
    pub heap: HeapConfig,
    /// Collector tuning.
    pub gc: GcConfig,
    /// Mutator cost charged per interpreted instruction, in nanoseconds.
    pub instr_cost_ns: u64,
    /// Extra mutator cost charged per allocation, in nanoseconds.
    pub alloc_cost_ns: u64,
    /// Maximum interpreter call depth.
    pub max_stack_depth: usize,
}

impl RuntimeConfig {
    /// The evaluation configuration: paper-scaled heap, default GC tuning.
    pub fn paper_scaled() -> Self {
        RuntimeConfig {
            heap: HeapConfig::paper_scaled(),
            gc: GcConfig::default(),
            instr_cost_ns: 50,
            alloc_cost_ns: 200,
            max_stack_depth: 256,
        }
    }

    /// This configuration with the given GC worker count (chainable).
    /// Profiles are bit-identical at any worker count; workers shorten the
    /// collector's wall-clock work, never the simulated trajectory. Zero is
    /// clamped to one.
    pub fn with_gc_workers(mut self, workers: usize) -> Self {
        self.gc.gc_workers = workers.max(1);
        self
    }

    /// This configuration with the given heap memory backend (chainable).
    /// The backend changes what the heap's bytes are made of, never where
    /// they go: profiles, snapshots, and GcWork ledgers are identical on
    /// [`BackendKind::Sim`] and [`BackendKind::Real`].
    ///
    /// [`BackendKind::Sim`]: polm2_heap::BackendKind::Sim
    /// [`BackendKind::Real`]: polm2_heap::BackendKind::Real
    pub fn with_heap_backend(mut self, backend: polm2_heap::BackendKind) -> Self {
        self.heap.backend = backend;
        self
    }

    /// This configuration with the given heap-integrity verification mode,
    /// the CLI's `--verify-heap` knob (chainable). Verification is strictly
    /// read-only: trajectories are bit-identical at any mode.
    pub fn with_verify_heap(mut self, mode: polm2_heap::VerifyMode) -> Self {
        self.heap.verify = mode;
        self
    }

    /// This configuration with a hard heap limit in MiB, the CLI's
    /// `--heap-mb` knob (chainable). `None` removes the limit. Allocation
    /// past the budget triggers one emergency full collection, then a typed
    /// out-of-memory error that unwinds cleanly.
    pub fn with_heap_limit_mb(mut self, limit_mb: Option<u64>) -> Self {
        self.heap.limit_bytes = limit_mb.map(|mb| mb << 20);
        self
    }

    /// A small configuration for unit tests.
    pub fn small() -> Self {
        RuntimeConfig {
            heap: HeapConfig::small(),
            ..RuntimeConfig::paper_scaled()
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig::paper_scaled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_valid() {
        assert!(RuntimeConfig::default().heap.validate().is_ok());
        assert!(RuntimeConfig::small().heap.validate().is_ok());
        assert!(RuntimeConfig::default().gc.validate().is_ok());
        assert!(RuntimeConfig::default().max_stack_depth > 0);
    }

    #[test]
    fn with_heap_backend_selects_the_backend() {
        use polm2_heap::BackendKind;
        let cfg = RuntimeConfig::small().with_heap_backend(BackendKind::Real);
        assert_eq!(cfg.heap.backend, BackendKind::Real);
        assert_eq!(RuntimeConfig::small().heap.backend, BackendKind::Sim);
    }

    #[test]
    fn with_verify_heap_and_limit_set_the_heap_config() {
        use polm2_heap::VerifyMode;
        let cfg = RuntimeConfig::small()
            .with_verify_heap(VerifyMode::Full)
            .with_heap_limit_mb(Some(64));
        assert_eq!(cfg.heap.verify, VerifyMode::Full);
        assert_eq!(cfg.heap.limit_bytes, Some(64 << 20));
        assert_eq!(cfg.with_heap_limit_mb(None).heap.limit_bytes, None);
        assert_eq!(RuntimeConfig::small().heap.verify, VerifyMode::Off);
    }

    #[test]
    fn with_gc_workers_sets_and_clamps() {
        assert_eq!(RuntimeConfig::small().with_gc_workers(4).gc.gc_workers, 4);
        assert_eq!(RuntimeConfig::small().with_gc_workers(0).gc.gc_workers, 1);
        assert!(RuntimeConfig::small()
            .with_gc_workers(0)
            .gc
            .validate()
            .is_ok());
    }
}
