//! Allocation events: what the Recorder drains from the runtime.

use polm2_heap::IdentityHash;

use crate::trie::TraceNodeId;

/// One frame of a captured stack trace, in compact (index) form.
///
/// Indices refer to the [`LoadedProgram`]; resolve to a human-readable
/// [`CodeLoc`] with [`LoadedProgram::code_loc`].
///
/// [`LoadedProgram`]: crate::LoadedProgram
/// [`LoadedProgram::code_loc`]: crate::LoadedProgram::code_loc
/// [`CodeLoc`]: crate::CodeLoc
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceFrame {
    /// Class index in the loaded program.
    pub class_idx: u16,
    /// Method index within the class.
    pub method_idx: u16,
    /// Source line within the method (call line for caller frames, the
    /// allocation line for the innermost frame).
    pub line: u32,
}

/// Per-thread buffer of recorded allocations: parallel `(trace node,
/// identity hash)` columns (structure-of-arrays) — what the paper's Recorder
/// logs per allocation, with the stack trace held as its node in the
/// runtime's [`TraceTrie`](crate::TraceTrie).
///
/// `RecordAlloc` pushes one entry per allocation — two integer stores, no
/// heap allocation. The buffer is created with a fixed capacity
/// ([`AllocEventBuffer::DEFAULT_CAPACITY`]) and keeps that storage across
/// drains ([`clear`](AllocEventBuffer::clear) retains capacity), so the
/// steady state allocates nothing; an operation that records more events
/// than the capacity between drains grows it once and the larger buffer is
/// then reused.
#[derive(Debug, Default)]
pub struct AllocEventBuffer {
    nodes: Vec<TraceNodeId>,
    hashes: Vec<IdentityHash>,
}

impl AllocEventBuffer {
    /// Events buffered per thread before the profiling session's next drain.
    pub const DEFAULT_CAPACITY: usize = 4_096;

    /// Creates a buffer with the default fixed capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a buffer with a given capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        AllocEventBuffer {
            nodes: Vec::with_capacity(capacity),
            hashes: Vec::with_capacity(capacity),
        }
    }

    /// Appends one recorded allocation: the trie node of its stack trace
    /// and the identity hash stored in the object's header (what snapshots
    /// are matched by).
    #[inline]
    pub fn push(&mut self, node: TraceNodeId, hash: IdentityHash) {
        self.nodes.push(node);
        self.hashes.push(hash);
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the buffer, retaining its storage.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.hashes.clear();
    }

    /// The trace-trie node column.
    pub fn nodes(&self) -> &[TraceNodeId] {
        &self.nodes
    }

    /// The identity-hash column.
    pub fn hashes(&self) -> &[IdentityHash] {
        &self.hashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::ObjectId;

    #[test]
    fn trace_frames_order_and_compare() {
        let a = TraceFrame {
            class_idx: 0,
            method_idx: 0,
            line: 1,
        };
        let b = TraceFrame {
            class_idx: 0,
            method_idx: 0,
            line: 2,
        };
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn event_buffer_columns_stay_parallel_and_capacity_survives_clear() {
        let mut buf = AllocEventBuffer::with_capacity(2);
        let hash = IdentityHash::of(ObjectId::new(1));
        buf.push(TraceNodeId::ROOT, hash);
        assert_eq!(buf.len(), 1);
        assert!(!buf.is_empty());
        assert_eq!(buf.nodes(), &[TraceNodeId::ROOT]);
        assert_eq!(buf.hashes(), &[hash]);
        let cap = buf.nodes.capacity();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.nodes.capacity(), cap, "clear retains storage");
    }
}
