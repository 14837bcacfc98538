//! Deterministic, seeded fault injection for the profiling pipeline.
//!
//! The paper's pipeline crosses three process boundaries — the in-process
//! Recorder agent, the external CRIU Dumper, and the offline Analyzer reading
//! files — and every boundary can fail: a dump RPC times out, a record stream
//! is cut short, a profile file is corrupted on disk. This module reproduces
//! those failures *inside the simulation*, driven by a seeded PRNG so chaos
//! runs are exactly reproducible: same seed, same faults, same degraded (but
//! never wrong) profile.
//!
//! Fault kinds:
//!
//! * **Snapshot failure** — the Dumper returns an error instead of a
//!   snapshot ([`FaultyDumper`]); the session retries with bounded backoff
//!   against the simulated clock, then skips and counts.
//! * **Snapshot truncation** — the dump succeeds but loses a fraction of its
//!   live-object hashes (a partial image). Objects merely look shorter-lived.
//! * **Record drop / duplication / corruption** — a drained allocation
//!   batch loses events, repeats them, or delivers events through trace
//!   nodes that resolve to no allocation path (caught at ingest and dropped
//!   with a counter). The mutated batch feeds the same columnar ingest a
//!   fault-free session runs.
//! * **Profile-text corruption** — bytes of a serialized profile are
//!   clobbered before parsing (surfaces as a typed parse error downstream).
//! * **Disk faults** — the session journal's I/O surface misbehaves
//!   ([`FaultyMedia`]): transient `EIO` (retried with backoff on the
//!   simulated clock), silent short writes (torn frames), single bit flips
//!   (caught by the per-frame CRC), and torn renames (a segment vanishes
//!   mid-rotation, exactly the crash-between-unlink-and-link window).
//!
//! Every fault only ever *removes or garbles evidence*; none fabricates a
//! plausible long-lived object. That is what makes degradation graceful: the
//! Analyzer can only lose pretenuring opportunities, never invent them.

use std::cell::RefCell;
use std::io;
use std::path::Path;
use std::rc::Rc;

use polm2_heap::{CorruptionKind, Heap, IdHashSet, IdentityHash, PlantedCorruption};
use polm2_metrics::SimTime;
use polm2_runtime::{AllocEventBuffer, TraceNodeId};
use polm2_snapshot::{HeapDumper, JournalMedia, Snapshot, SnapshotError};

/// Which faults to inject, and how often. All rates are probabilities in
/// `[0, 1]`; the default is all-zero (no faults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// PRNG seed; the same seed reproduces the same fault sequence.
    pub seed: u64,
    /// Probability that a snapshot capture attempt fails outright.
    pub snapshot_failure_rate: f64,
    /// Probability that a captured snapshot is truncated.
    pub snapshot_truncation_rate: f64,
    /// Fraction of live-object hashes a truncated snapshot loses.
    pub truncated_fraction: f64,
    /// Per-event probability that an allocation record is dropped.
    pub record_drop_rate: f64,
    /// Per-event probability that an allocation record is duplicated.
    pub record_duplicate_rate: f64,
    /// Per-event probability that an allocation record is structurally
    /// corrupted (its trace node resolves to no allocation path; dropped at
    /// ingest).
    pub record_corrupt_rate: f64,
    /// Per-character probability that profile text is clobbered by
    /// [`FaultInjector::corrupt_profile_text`].
    pub profile_corrupt_rate: f64,
    /// Per-operation probability that a journal write/sync/rename fails with
    /// a transient `EIO` *before touching the disk* (so a retry is safe and
    /// complete).
    pub io_error_rate: f64,
    /// Per-append probability that only a prefix of the bytes reaches the
    /// disk, silently — the torn-frame crash signature.
    pub io_short_write_rate: f64,
    /// Per-append probability that one bit of the written bytes flips —
    /// caught by the per-frame CRC at recovery.
    pub io_bit_flip_rate: f64,
    /// Per-rename probability that the file vanishes instead of arriving at
    /// its destination (crash between unlink and link).
    pub io_torn_rename_rate: f64,
    /// Per-operation probability that one bit of a live object's heap memory
    /// flips (real backend only; detected by the integrity verifier).
    pub heap_bit_flip_rate: f64,
    /// Per-operation probability that a byte of a live object's header is
    /// clobbered (real backend only).
    pub heap_header_clobber_rate: f64,
    /// Per-operation probability of a stray write into free or unallocated
    /// heap memory (real backend only).
    pub heap_stray_write_rate: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            snapshot_failure_rate: 0.0,
            snapshot_truncation_rate: 0.0,
            truncated_fraction: 0.5,
            record_drop_rate: 0.0,
            record_duplicate_rate: 0.0,
            record_corrupt_rate: 0.0,
            profile_corrupt_rate: 0.0,
            io_error_rate: 0.0,
            io_short_write_rate: 0.0,
            io_bit_flip_rate: 0.0,
            io_torn_rename_rate: 0.0,
            heap_bit_flip_rate: 0.0,
            heap_header_clobber_rate: 0.0,
            heap_stray_write_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// A config that injects every fault kind at `rate` (truncation keeps
    /// its default lost fraction).
    pub fn all_at(rate: f64, seed: u64) -> Self {
        FaultConfig {
            seed,
            snapshot_failure_rate: rate,
            snapshot_truncation_rate: rate,
            record_drop_rate: rate,
            record_duplicate_rate: rate,
            record_corrupt_rate: rate,
            profile_corrupt_rate: rate,
            io_error_rate: rate,
            io_short_write_rate: rate,
            io_bit_flip_rate: rate,
            io_torn_rename_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// A config that injects only disk faults, each at `rate` (the journal
    /// chaos suite: the pipeline itself stays healthy, the disk does not).
    pub fn disk_only_at(rate: f64, seed: u64) -> Self {
        FaultConfig {
            seed,
            io_error_rate: rate,
            io_short_write_rate: rate,
            io_bit_flip_rate: rate,
            io_torn_rename_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// A config that injects only memory corruption, each class at `rate`
    /// (the `--chaos-heap` arm: the pipeline and disk stay healthy, the
    /// heap's bytes do not). Kept out of [`FaultConfig::all_at`] so existing
    /// chaos suites keep their exact PRNG streams.
    pub fn heap_only_at(rate: f64, seed: u64) -> Self {
        FaultConfig {
            seed,
            heap_bit_flip_rate: rate,
            heap_header_clobber_rate: rate,
            heap_stray_write_rate: rate,
            ..FaultConfig::default()
        }
    }

    /// True if no fault can ever fire (all rates zero).
    pub fn is_inert(&self) -> bool {
        self.snapshot_failure_rate == 0.0
            && self.snapshot_truncation_rate == 0.0
            && !self.mutates_records()
            && self.profile_corrupt_rate == 0.0
            && self.io_error_rate == 0.0
            && self.io_short_write_rate == 0.0
            && self.io_bit_flip_rate == 0.0
            && self.io_torn_rename_rate == 0.0
            && !self.corrupts_heap()
    }

    /// True if any record-stream fault (drop, duplicate, corrupt) can fire.
    pub fn mutates_records(&self) -> bool {
        self.record_drop_rate > 0.0
            || self.record_duplicate_rate > 0.0
            || self.record_corrupt_rate > 0.0
    }

    /// True if any memory-corruption class can fire.
    pub fn corrupts_heap(&self) -> bool {
        self.heap_bit_flip_rate > 0.0
            || self.heap_header_clobber_rate > 0.0
            || self.heap_stray_write_rate > 0.0
    }
}

/// Tallies of the faults an injector actually fired (ground truth for tests;
/// the pipeline's own view of what it *detected* lives in
/// [`polm2_metrics::FaultCounters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedFaults {
    /// Snapshot capture attempts failed.
    pub snapshot_failures: u64,
    /// Snapshots truncated.
    pub snapshots_truncated: u64,
    /// Live-object hashes removed by truncation.
    pub hashes_lost: u64,
    /// Allocation events dropped.
    pub records_dropped: u64,
    /// Allocation events duplicated.
    pub records_duplicated: u64,
    /// Allocation events structurally corrupted.
    pub records_corrupted: u64,
    /// Characters clobbered in profile text.
    pub profile_chars_corrupted: u64,
    /// Transient I/O errors returned to the journal writer.
    pub io_errors: u64,
    /// Journal appends silently cut short.
    pub io_short_writes: u64,
    /// Journal appends with one bit flipped.
    pub io_bit_flips: u64,
    /// Journal renames that lost the file.
    pub io_torn_renames: u64,
    /// Bits flipped inside live heap objects.
    pub heap_bit_flips: u64,
    /// Live-object headers clobbered in heap memory.
    pub heap_header_clobbers: u64,
    /// Stray writes planted in free or unallocated heap memory.
    pub heap_stray_writes: u64,
}

impl InjectedFaults {
    /// Total memory corruptions planted (the chaos arm's ground truth: the
    /// verifier must detect exactly this many).
    pub fn heap_corruptions(&self) -> u64 {
        self.heap_bit_flips + self.heap_header_clobbers + self.heap_stray_writes
    }
}

/// The seeded fault source. Deterministic: a splitmix64 stream drives every
/// decision, so no wall-clock or OS entropy enters the simulation.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    state: u64,
    injected: InjectedFaults,
}

impl FaultInjector {
    /// Creates an injector for `config`.
    pub fn new(config: FaultConfig) -> Self {
        // Offset the seed so seed 0 does not start on splitmix64's weak
        // all-zero state.
        FaultInjector {
            config,
            state: config.seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
            injected: InjectedFaults::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// What has actually been injected so far.
    pub fn injected(&self) -> InjectedFaults {
        self.injected
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64: tiny, seedable, and plenty for fault scheduling.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn roll(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.next_f64() < rate
    }

    /// Applies record-stream faults to one drained batch: writes the
    /// surviving events of `batch`, in order, into `out` (cleared first; its
    /// storage is reused across batches). Per event the draws are: drop
    /// roll, corrupt roll, then either the corruption-kind draw or the
    /// duplicate roll. A rate of zero draws nothing, so a config without
    /// record faults copies the batch unchanged and leaves the PRNG stream
    /// untouched.
    pub fn mutate_batch(&mut self, batch: &AllocEventBuffer, out: &mut AllocEventBuffer) {
        out.clear();
        for (&node, &hash) in batch.nodes().iter().zip(batch.hashes()) {
            if self.roll(self.config.record_drop_rate) {
                self.injected.records_dropped += 1;
                continue;
            }
            if self.roll(self.config.record_corrupt_rate) {
                self.injected.records_corrupted += 1;
                out.push(self.corrupt_node(), hash);
                continue;
            }
            if self.roll(self.config.record_duplicate_rate) {
                self.injected.records_duplicated += 1;
                out.push(node, hash);
            }
            out.push(node, hash);
        }
    }

    /// A trace node that resolves to no allocation path: the root (the
    /// empty path) or an id no trie issues. The corruption is always
    /// *detectable*: corrupt records must be caught at ingest and dropped,
    /// never silently misattributed to a real allocation path.
    fn corrupt_node(&mut self) -> TraceNodeId {
        match self.next_u64() % 3 {
            0 => TraceNodeId::ROOT,
            _ => TraceNodeId::from_raw(u32::MAX),
        }
    }

    /// Rolls the memory-corruption rates and, on a hit, plants one seeded
    /// corruption directly into real heap memory (at most one per call).
    /// Returns the planted ground truth, or `None` when no roll hit or the
    /// heap had no eligible target (sim backend, empty heap).
    ///
    /// The guard keeps the PRNG stream untouched when every heap rate is
    /// zero, so adding this arm never perturbs existing chaos suites.
    pub fn maybe_corrupt_heap(&mut self, heap: &mut Heap) -> Option<PlantedCorruption> {
        if !self.config.corrupts_heap() {
            return None;
        }
        for kind in CorruptionKind::ALL {
            let rate = match kind {
                CorruptionKind::BitFlip => self.config.heap_bit_flip_rate,
                CorruptionKind::HeaderClobber => self.config.heap_header_clobber_rate,
                CorruptionKind::StrayWrite => self.config.heap_stray_write_rate,
            };
            if !self.roll(rate) {
                continue;
            }
            let seed = self.next_u64();
            if let Some(planted) = heap.plant_corruption(kind, seed) {
                match kind {
                    CorruptionKind::BitFlip => self.injected.heap_bit_flips += 1,
                    CorruptionKind::HeaderClobber => self.injected.heap_header_clobbers += 1,
                    CorruptionKind::StrayWrite => self.injected.heap_stray_writes += 1,
                }
                return Some(planted);
            }
        }
        None
    }

    /// Clobbers characters of serialized profile text (disk corruption).
    pub fn corrupt_profile_text(&mut self, text: &mut String) {
        if self.config.profile_corrupt_rate == 0.0 {
            return;
        }
        let rate = self.config.profile_corrupt_rate;
        let mut corrupted = 0;
        let out: String = text
            .chars()
            .map(|c| {
                if c != '\n' && self.roll(rate) {
                    corrupted += 1;
                    '\u{FFFD}'
                } else {
                    c
                }
            })
            .collect();
        self.injected.profile_chars_corrupted += corrupted;
        *text = out;
    }
}

/// A [`HeapDumper`] wrapper that injects capture failures and truncation.
///
/// Failure is decided *before* delegating to the inner dumper, so a failed
/// attempt does not clear soft-dirty bits — exactly like a CRIU dump that
/// died before writing its image: the next attempt still sees every page the
/// failed one would have captured.
pub struct FaultyDumper {
    inner: Box<dyn HeapDumper>,
    injector: Rc<RefCell<FaultInjector>>,
    seq_guess: u32,
}

impl FaultyDumper {
    /// Wraps `inner`, drawing faults from `injector`.
    pub fn new(inner: Box<dyn HeapDumper>, injector: Rc<RefCell<FaultInjector>>) -> Self {
        FaultyDumper {
            inner,
            injector,
            seq_guess: 0,
        }
    }
}

impl std::fmt::Debug for FaultyDumper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyDumper")
            .field("inner", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl HeapDumper for FaultyDumper {
    fn name(&self) -> &'static str {
        "faulty-dumper"
    }

    fn snapshot(&mut self, heap: &mut Heap, now: SimTime) -> Result<Snapshot, SnapshotError> {
        {
            let mut inj = self.injector.borrow_mut();
            let rate = inj.config.snapshot_failure_rate;
            if inj.roll(rate) {
                inj.injected.snapshot_failures += 1;
                return Err(SnapshotError {
                    seq: self.seq_guess,
                    reason: "injected capture failure".to_string(),
                });
            }
        }
        let snap = self.inner.snapshot(heap, now)?;
        self.seq_guess = snap.seq + 1;

        let mut inj = self.injector.borrow_mut();
        let truncation_rate = inj.config.snapshot_truncation_rate;
        let truncate = inj.roll(truncation_rate);
        if !truncate {
            return Ok(snap);
        }
        inj.injected.snapshots_truncated += 1;
        let keep_rate = 1.0 - inj.config.truncated_fraction;
        let mut kept: IdHashSet<IdentityHash> = IdHashSet::default();
        let mut lost = 0u64;
        for &hash in snap.hashes() {
            if inj.roll(keep_rate) {
                kept.insert(hash);
            } else {
                lost += 1;
            }
        }
        inj.injected.hashes_lost += lost;
        Ok(Snapshot::new(
            snap.seq,
            snap.at,
            kept,
            snap.size_bytes,
            snap.capture_time,
        ))
    }
}

/// A [`JournalMedia`] wrapper that injects disk faults between the session
/// journal and the real storage — the `DiskFaultInjector` arm of the chaos
/// suite.
///
/// Fault semantics, chosen so every fault class maps to a *detectable*
/// journal defect:
///
/// * **Transient `EIO`** ([`FaultConfig::io_error_rate`], on append, sync,
///   and rename) fires *before* any bytes move, so the writer's retry is
///   safe and complete. Detected immediately (the error is returned).
/// * **Short write** ([`FaultConfig::io_short_write_rate`]) silently writes
///   a strict prefix of an append → a torn frame, detected by length/CRC at
///   recovery.
/// * **Bit flip** ([`FaultConfig::io_bit_flip_rate`]) flips one bit of an
///   append → detected by the per-frame CRC (CRC-32 catches all single-bit
///   errors).
/// * **Torn rename** ([`FaultConfig::io_torn_rename_rate`]) removes the
///   source instead of renaming it — the crash window between unlink and
///   link — leaving a missing segment, detected as a numbering gap (or an
///   absent commit, when the last segment is lost).
pub struct FaultyMedia {
    inner: Box<dyn JournalMedia>,
    injector: Rc<RefCell<FaultInjector>>,
}

impl FaultyMedia {
    /// Wraps `inner`, drawing faults from `injector`.
    pub fn new(inner: Box<dyn JournalMedia>, injector: Rc<RefCell<FaultInjector>>) -> Self {
        FaultyMedia { inner, injector }
    }

    fn transient(&mut self, op: &'static str) -> io::Result<()> {
        let mut inj = self.injector.borrow_mut();
        let rate = inj.config.io_error_rate;
        if inj.roll(rate) {
            inj.injected.io_errors += 1;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient I/O error during {op}"),
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for FaultyMedia {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyMedia").finish_non_exhaustive()
    }
}

impl JournalMedia for FaultyMedia {
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.transient("append")?;
        let mut inj = self.injector.borrow_mut();
        let short_rate = inj.config.io_short_write_rate;
        if bytes.len() > 1 && inj.roll(short_rate) {
            inj.injected.io_short_writes += 1;
            let keep = 1 + (inj.next_u64() as usize % (bytes.len() - 1));
            drop(inj);
            return self.inner.append(path, &bytes[..keep]);
        }
        let flip_rate = inj.config.io_bit_flip_rate;
        if !bytes.is_empty() && inj.roll(flip_rate) {
            inj.injected.io_bit_flips += 1;
            let bit = inj.next_u64() as usize % (bytes.len() * 8);
            drop(inj);
            let mut garbled = bytes.to_vec();
            garbled[bit / 8] ^= 1 << (bit % 8);
            return self.inner.append(path, &garbled);
        }
        drop(inj);
        self.inner.append(path, bytes)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        self.transient("sync")?;
        self.inner.sync(path)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.transient("rename")?;
        let mut inj = self.injector.borrow_mut();
        let torn_rate = inj.config.io_torn_rename_rate;
        if inj.roll(torn_rate) {
            inj.injected.io_torn_renames += 1;
            drop(inj);
            // The crash landed between unlink and link: the file is gone.
            return self.inner.remove(from);
        }
        drop(inj);
        self.inner.rename(from, to)
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn list(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::ObjectId;
    use polm2_runtime::{TraceFrame, TraceTrie};

    /// A trie with `n` real nodes under the root, one per line.
    fn trie_with(n: u32) -> (TraceTrie, Vec<TraceNodeId>) {
        let mut trie = TraceTrie::new();
        let nodes = (1..=n)
            .map(|line| {
                let frame = TraceFrame {
                    class_idx: 0,
                    method_idx: 0,
                    line,
                };
                trie.child(TraceNodeId::ROOT, frame)
            })
            .collect();
        (trie, nodes)
    }

    /// `len` events cycling through `nodes`, hashes of objects 0, 1, ...
    fn batch(nodes: &[TraceNodeId], len: u64) -> AllocEventBuffer {
        let mut batch = AllocEventBuffer::new();
        for i in 0..len {
            batch.push(
                nodes[i as usize % nodes.len()],
                IdentityHash::of(ObjectId::new(i)),
            );
        }
        batch
    }

    fn columns(batch: &AllocEventBuffer) -> (Vec<TraceNodeId>, Vec<IdentityHash>) {
        (batch.nodes().to_vec(), batch.hashes().to_vec())
    }

    /// Mutates a fresh 200-event batch under `config`.
    fn mutated(config: FaultConfig) -> ((Vec<TraceNodeId>, Vec<IdentityHash>), InjectedFaults) {
        let (_, nodes) = trie_with(5);
        let mut inj = FaultInjector::new(config);
        let mut out = AllocEventBuffer::new();
        inj.mutate_batch(&batch(&nodes, 200), &mut out);
        (columns(&out), inj.injected())
    }

    #[test]
    fn inert_config_never_mutates() {
        let (_, nodes) = trie_with(5);
        let input = batch(&nodes, 100);
        let mut inj = FaultInjector::new(FaultConfig::default());
        // Stale contents in the reused scratch must not leak through.
        let mut out = batch(&nodes, 7);
        inj.mutate_batch(&input, &mut out);
        assert_eq!(columns(&out), columns(&input));
        let mut text = "polm2-profile v1\n".to_string();
        inj.corrupt_profile_text(&mut text);
        assert_eq!(text, "polm2-profile v1\n");
        assert_eq!(inj.injected(), InjectedFaults::default());
        assert!(FaultConfig::default().is_inert());
        assert!(!FaultConfig::default().mutates_records());
        assert!(!FaultConfig::all_at(0.1, 7).is_inert());
        assert!(FaultConfig::all_at(0.1, 7).mutates_records());
        assert!(!FaultConfig::disk_only_at(0.1, 7).mutates_records());
    }

    #[test]
    fn same_seed_same_faults() {
        let config = FaultConfig::all_at(0.3, 42);
        let (a, ia) = mutated(config);
        let (b, ib) = mutated(config);
        assert_eq!(a, b);
        assert_eq!(ia, ib);
        let (c, _) = mutated(FaultConfig { seed: 43, ..config });
        assert_ne!(a, c, "a different seed must produce a different stream");
    }

    #[test]
    fn drops_and_duplicates_are_tallied() {
        let ((nodes, hashes), injected) = mutated(FaultConfig {
            seed: 1,
            record_drop_rate: 0.25,
            record_duplicate_rate: 0.25,
            ..FaultConfig::default()
        });
        assert!(injected.records_dropped > 0);
        assert!(injected.records_duplicated > 0);
        assert_eq!(
            nodes.len() as u64,
            200 - injected.records_dropped + injected.records_duplicated
        );
        assert_eq!(hashes.len(), nodes.len(), "columns stay parallel");
    }

    #[test]
    fn corrupted_events_never_resolve_in_the_trie() {
        let (trie, nodes) = trie_with(5);
        let mut inj = FaultInjector::new(FaultConfig {
            seed: 5,
            record_corrupt_rate: 1.0,
            ..FaultConfig::default()
        });
        let input = batch(&nodes, 50);
        let mut out = AllocEventBuffer::new();
        inj.mutate_batch(&input, &mut out);
        assert_eq!(inj.injected().records_corrupted, 50);
        assert_eq!(out.hashes(), input.hashes(), "only the node is garbled");
        assert!(out.nodes().contains(&TraceNodeId::ROOT));
        for &node in out.nodes() {
            assert!(
                node.is_root() || node.index() >= trie.len(),
                "corruption must be structurally detectable: {node:?}"
            );
        }
    }

    /// In-memory [`JournalMedia`] for exercising [`FaultyMedia`] without
    /// touching the real filesystem.
    #[derive(Default)]
    struct MemMedia {
        files: std::collections::BTreeMap<std::path::PathBuf, Vec<u8>>,
    }

    impl JournalMedia for MemMedia {
        fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.files
                .entry(path.to_path_buf())
                .or_default()
                .extend_from_slice(bytes);
            Ok(())
        }
        fn sync(&mut self, _path: &Path) -> io::Result<()> {
            Ok(())
        }
        fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
            let bytes = self
                .files
                .remove(from)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))?;
            self.files.insert(to.to_path_buf(), bytes);
            Ok(())
        }
        fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
            self.files
                .get(path)
                .cloned()
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
        }
        fn list(&mut self, dir: &Path) -> io::Result<Vec<String>> {
            Ok(self
                .files
                .keys()
                .filter(|p| p.parent() == Some(dir))
                .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
                .collect())
        }
        fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
            match self.files.get_mut(path) {
                Some(bytes) => {
                    bytes.truncate(len as usize);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
            }
        }
        fn remove(&mut self, path: &Path) -> io::Result<()> {
            self.files
                .remove(path)
                .map(|_| ())
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
        }
        fn create_dir_all(&mut self, _dir: &Path) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn faulty_media_injects_every_disk_fault_class_deterministically() {
        let run = |seed: u64| {
            let injector = Rc::new(RefCell::new(FaultInjector::new(FaultConfig::disk_only_at(
                0.3, seed,
            ))));
            let mut media = FaultyMedia::new(Box::<MemMedia>::default(), Rc::clone(&injector));
            let dir = Path::new("/mem");
            let mut errors = 0u64;
            for i in 0..200u32 {
                let from = dir.join(format!("f{i}.tmp"));
                if media.append(&from, &[0xAB; 64]).is_err() {
                    errors += 1;
                    continue;
                }
                let _ = media.sync(&from);
                let _ = media.rename(&from, &dir.join(format!("f{i}")));
            }
            let injected = injector.borrow().injected();
            (errors, injected)
        };
        let (errors, injected) = run(11);
        assert!(errors > 0, "append-time EIOs must fire");
        assert!(injected.io_errors >= errors, "sync/rename EIOs also count");
        assert!(injected.io_short_writes > 0);
        assert!(injected.io_bit_flips > 0);
        assert!(injected.io_torn_renames > 0);
        assert_eq!(run(11), (errors, injected), "same seed, same disk faults");
        assert_ne!(run(12).1, injected, "different seed, different faults");
    }

    #[test]
    fn profile_corruption_clobbers_but_keeps_line_structure() {
        let config = FaultConfig {
            seed: 9,
            profile_corrupt_rate: 0.2,
            ..FaultConfig::default()
        };
        let mut inj = FaultInjector::new(config);
        let original = "polm2-profile v1\nsite A b 1 gen 2\ncall C d 3 gen 2\n".to_string();
        let mut text = original.clone();
        inj.corrupt_profile_text(&mut text);
        assert_ne!(text, original);
        assert_eq!(
            inj.injected().profile_chars_corrupted,
            text.matches('\u{FFFD}').count() as u64
        );
        assert_eq!(
            text.lines().count(),
            original.lines().count(),
            "newlines survive"
        );
    }
}
