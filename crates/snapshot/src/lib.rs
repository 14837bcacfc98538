//! Heap snapshotting: the POLM2 Dumper and the `jmap` baseline.
//!
//! The paper's Dumper is CRIU configured with two optimizations (§3.2, §4.2):
//!
//! 1. **Incremental capture** — only pages dirtied since the previous
//!    snapshot are included (the kernel soft-dirty bit, cleared per
//!    snapshot).
//! 2. **No-need filtering** — before each snapshot the Recorder walks the
//!    heap and `madvise`-marks pages holding no live objects; CRIU skips
//!    them.
//!
//! [`CriuDumper`] reproduces both against the simulated page table;
//! [`JmapDumper`] reproduces the baseline the paper normalizes against in
//! Figures 3 and 4 (a full live-object heap dump). Both also extract the
//! *content* POLM2's Analyzer needs: the identity hashes of the live objects
//! (paper §4.3 — ids must survive object moves, hence header hashes, not
//! addresses).
//!
//! # Examples
//!
//! ```
//! use polm2_heap::{Heap, HeapConfig, SiteId};
//! use polm2_metrics::SimTime;
//! use polm2_snapshot::{CriuDumper, HeapDumper};
//!
//! let mut heap = Heap::new(HeapConfig::small());
//! let class = heap.classes_mut().intern("Row");
//! let obj = heap.allocate(class, 64, SiteId::new(0), Heap::YOUNG_SPACE)?;
//! let slot = heap.roots_mut().create_slot("keep");
//! heap.roots_mut().push(slot, obj);
//!
//! let mut dumper = CriuDumper::new();
//! let snap = dumper.snapshot(&mut heap, SimTime::ZERO)?;
//! assert!(snap.contains(heap.object(obj).unwrap().identity_hash()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod criu;
mod index;
mod jmap;
pub mod journal;
mod record;

pub use criu::{CriuDumper, DumperOptions};
pub use index::{SnapshotIndex, SurvivalCounts};
pub use jmap::JmapDumper;
pub use journal::{
    crc32, Frame, FsMedia, FsckReport, JournalError, JournalMedia, JournalWriter, RecoveredJournal,
    SegmentDefect,
};
pub use record::{Snapshot, SnapshotMeta, SnapshotSeries};

use std::error::Error;
use std::fmt;

use polm2_heap::Heap;
use polm2_metrics::SimTime;

/// A snapshot capture attempt failed.
///
/// The paper's Dumper is an external process (CRIU) driven over RPC (§3.2):
/// a dump can fail outright — the target process was busy at the safepoint,
/// the image directory filled up, the coordinator timed out. The profiling
/// pipeline must treat every capture as fallible and recover (retry, or skip
/// and count) rather than assume snapshots always arrive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// Sequence number the failed capture would have had.
    pub seq: u32,
    /// Human-readable description of the failure.
    pub reason: String,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot {} failed: {}", self.seq, self.reason)
    }
}

impl Error for SnapshotError {}

/// Anything that can capture a heap snapshot.
///
/// Implementations must capture the identity hashes of all *live* objects
/// (dead objects are excluded, as with `jmap -dump:live`) and report the
/// capture's cost (bytes written, stop time).
pub trait HeapDumper {
    /// Short name for tables ("criu-dumper", "jmap").
    fn name(&self) -> &'static str;

    /// Captures a snapshot at simulated time `now`.
    ///
    /// Marks the heap (snapshots run right after a GC cycle, between
    /// operations, so no mutator stack roots exist) and accounts the capture
    /// cost.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the capture could not be completed. A failed
    /// attempt must leave the heap's page-table bookkeeping untouched so a
    /// retry can still capture everything the failed attempt would have.
    fn snapshot(&mut self, heap: &mut Heap, now: SimTime) -> Result<Snapshot, SnapshotError>;
}
