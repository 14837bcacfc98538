//! The session layer of the `polm2-journal v1` format: what the profiling
//! session writes into the journal, and how a journal replays back into
//! Recorder and Dumper state.
//!
//! The byte-level format — segments, frames, CRCs, recovery — lives in
//! [`polm2_snapshot::journal`]; this module defines the *frame kinds* and
//! their payloads:
//!
//! | kind | name          | payload                                              |
//! |-----:|---------------|------------------------------------------------------|
//! | 1    | session       | workload name, seed, duration µs, snapshot stride    |
//! | 2    | trace-def     | trace id + its frames (class, method, line)          |
//! | 3    | alloc-batch   | per-trace runs of identity hashes, columnar          |
//! | 4    | snapshot      | seq, times, size + delta columns vs. previous        |
//! | 5    | commit        | totals + fault counters (clean-shutdown record)      |
//!
//! # What gets journaled, and why replay is lossless
//!
//! The Recorder's in-memory state is columnar: interned trace definitions
//! (dense [`TraceId`]s in first-seen order) and one identity-hash stream per
//! trace. [`SessionJournal`] streams exactly that — trace definitions the
//! first time each trace appears, then batches of per-trace hash runs
//! straight from the stream tails. Because trace ids and frame symbols
//! depend only on first-seen order, replaying the definitions in journal
//! order through [`AllocationRecords::trace_id_for`] reassigns the identical
//! ids, and replaying the hash runs through
//! [`AllocationRecords::record_traced`] rebuilds byte-identical streams.
//!
//! Snapshots are journaled as *delta columns* — the sorted added/removed
//! hash sets each [`SnapshotSeries`] push already computed for its columnar
//! index (closing the ROADMAP item: serialization streams out of push order,
//! never re-diffing, never re-materializing a full column). Replay applies
//! each delta to the replayed series' newest column and pushes the result,
//! so the reconstructed series is value-identical to the captured one and,
//! like it, holds one full column at a time.
//!
//! The commit frame records the totals the session saw at shutdown; replay
//! cross-checks them, so a journal that replays cleanly *and* matches its
//! commit record is a proven-complete profile input.
//!
//! # Degradation
//!
//! Journaling is strictly best-effort: transient I/O errors are retried with
//! exponential backoff charged to the simulated clock, and when the retry
//! budget runs out the journal goes *dead* — no further frames are written,
//! the loss is counted in [`FaultCounters`], and the in-memory session
//! continues unharmed. A dead journal simply has no commit record, which
//! resume treats like any crash.

use polm2_heap::IdentityHash;
use polm2_metrics::{FaultCounters, SimDuration, SimTime};
use polm2_runtime::TraceFrame;
use polm2_snapshot::journal::{put_str, put_u16, put_u32, put_u64, WireReader};
use polm2_snapshot::{Frame, JournalError, JournalWriter, Snapshot, SnapshotMeta, SnapshotSeries};

use crate::recorder::{AllocationRecords, TraceId};

/// Frame kind: session header (first frame of every journal).
pub const KIND_SESSION: u8 = 1;
/// Frame kind: one interned stack-trace definition.
pub const KIND_TRACE_DEF: u8 = 2;
/// Frame kind: a columnar batch of allocation records.
pub const KIND_ALLOC_BATCH: u8 = 3;
/// Frame kind: one snapshot, delta encoded against its predecessor.
pub const KIND_SNAPSHOT: u8 = 4;
/// Frame kind: the clean-shutdown commit record.
pub const KIND_COMMIT: u8 = 5;

/// Default number of pending allocation records that triggers a batch frame.
pub const DEFAULT_FLUSH_THRESHOLD: u64 = 4096;

/// What a profiling session is, for the journal: enough to re-execute it
/// deterministically if the journal turns out to be torn.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionMeta {
    /// Workload name (the registry key the runner resolves).
    pub workload: String,
    /// Workload seed; same seed, same event stream, same journal bytes.
    pub seed: u64,
    /// Profiling duration on the simulated clock.
    pub duration: SimDuration,
    /// Snapshot stride (GC cycles per snapshot).
    pub every_n_cycles: u32,
}

impl SessionMeta {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_str(&mut out, &self.workload);
        put_u64(&mut out, self.seed);
        put_u64(&mut out, self.duration.as_micros());
        put_u32(&mut out, self.every_n_cycles);
        out
    }

    fn decode(payload: &[u8]) -> Result<Self, JournalError> {
        let mut r = WireReader::new(payload);
        let meta = SessionMeta {
            workload: r.str()?,
            seed: r.u64()?,
            duration: SimDuration::from_micros(r.u64()?),
            every_n_cycles: r.u32()?,
        };
        r.expect_exhausted()?;
        Ok(meta)
    }
}

/// What the commit record claimed at clean shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitSummary {
    /// Total allocation records the session had journaled.
    pub total_records: u64,
    /// Distinct traces the session had interned.
    pub trace_count: u32,
    /// Snapshots the session had captured.
    pub snapshot_count: u32,
    /// The session's fault/recovery ledger at commit time.
    pub counters: FaultCounters,
}

impl CommitSummary {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.total_records);
        put_u32(&mut out, self.trace_count);
        put_u32(&mut out, self.snapshot_count);
        let entries = self.counters.entries();
        put_u16(&mut out, entries.len() as u16);
        for (name, value) in entries {
            put_str(&mut out, name);
            put_u64(&mut out, value);
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<Self, JournalError> {
        let mut r = WireReader::new(payload);
        let total_records = r.u64()?;
        let trace_count = r.u32()?;
        let snapshot_count = r.u32()?;
        let n = r.u16()?;
        let mut counters = FaultCounters::new();
        for _ in 0..n {
            let name = r.str()?;
            let value = r.u64()?;
            // Unknown names are tolerated: a newer writer may count more.
            counters.set_by_name(&name, value);
        }
        r.expect_exhausted()?;
        Ok(CommitSummary {
            total_records,
            trace_count,
            snapshot_count,
            counters,
        })
    }
}

fn encode_trace_def(id: TraceId, frames: &[TraceFrame]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, id.raw());
    put_u16(&mut out, frames.len() as u16);
    for f in frames {
        put_u16(&mut out, f.class_idx);
        put_u16(&mut out, f.method_idx);
        put_u32(&mut out, f.line);
    }
    out
}

fn decode_trace_def(payload: &[u8]) -> Result<(u32, Vec<TraceFrame>), JournalError> {
    let mut r = WireReader::new(payload);
    let id = r.u32()?;
    let n = r.u16()?;
    let mut frames = Vec::with_capacity(n as usize);
    for _ in 0..n {
        frames.push(TraceFrame {
            class_idx: r.u16()?,
            method_idx: r.u16()?,
            line: r.u32()?,
        });
    }
    r.expect_exhausted()?;
    Ok((id, frames))
}

fn encode_snapshot(snap: &SnapshotMeta, added: &[u64], removed: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, snap.seq);
    put_u64(&mut out, snap.at.as_micros());
    put_u64(&mut out, snap.size_bytes);
    put_u64(&mut out, snap.capture_time.as_micros());
    put_u32(&mut out, added.len() as u32);
    put_u32(&mut out, removed.len() as u32);
    // Identity hashes are 32-bit values; the columns store them widened.
    for &h in added {
        put_u32(&mut out, h as u32);
    }
    for &h in removed {
        put_u32(&mut out, h as u32);
    }
    out
}

/// Appends one profiling session's state changes into a [`JournalWriter`]
/// as it runs: trace definitions on first sight, allocation batches from the
/// Recorder's stream tails, snapshot deltas from push order, and finally the
/// commit record.
pub struct SessionJournal {
    writer: JournalWriter,
    retry: JournalRetryPolicy,
    flush_threshold: u64,
    /// Trace definitions journaled so far (== next TraceId to journal).
    trace_cursor: usize,
    /// Per-trace stream lengths journaled so far.
    stream_cursors: Vec<usize>,
    /// Total records journaled (cheap pending-work check against
    /// [`AllocationRecords::total_records`]).
    records_journaled: u64,
    /// Snapshots journaled so far.
    snapshot_cursor: usize,
    /// Set when a frame was abandoned: the journal is no longer a faithful
    /// prefix of the session, so it stops growing (and never commits).
    dead: bool,
}

/// Retry policy for transient journal I/O errors, mirroring
/// [`RecoveryPolicy`](crate::RecoveryPolicy) for snapshots: bounded retries
/// with exponential backoff charged to the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalRetryPolicy {
    /// Retries after the first failed write.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub backoff: SimDuration,
}

impl Default for JournalRetryPolicy {
    fn default() -> Self {
        JournalRetryPolicy {
            max_retries: 2,
            backoff: SimDuration::from_millis(5),
        }
    }
}

impl std::fmt::Debug for SessionJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionJournal")
            .field("dir", &self.writer.dir())
            .field("records_journaled", &self.records_journaled)
            .field("dead", &self.dead)
            .finish_non_exhaustive()
    }
}

impl SessionJournal {
    /// Wraps a fresh [`JournalWriter`] and writes the session-header frame.
    ///
    /// # Errors
    ///
    /// [`JournalError`] if even the retried header write fails — a journal
    /// that cannot record *what session it is* is useless, so creation (and
    /// only creation) is fail-fast.
    pub fn create(
        writer: JournalWriter,
        meta: &SessionMeta,
        retry: JournalRetryPolicy,
        charge: &mut dyn FnMut(SimDuration),
    ) -> Result<Self, JournalError> {
        let mut journal = SessionJournal {
            writer,
            retry,
            flush_threshold: DEFAULT_FLUSH_THRESHOLD,
            trace_cursor: 0,
            stream_cursors: Vec::new(),
            records_journaled: 0,
            snapshot_cursor: 0,
            dead: false,
        };
        let mut scratch = FaultCounters::new();
        journal.append_retrying(KIND_SESSION, &meta.encode(), &mut scratch, charge)?;
        if journal.dead {
            return Err(JournalError::Replay {
                frame: 0,
                reason: "could not write the session header".to_string(),
            });
        }
        Ok(journal)
    }

    /// Overrides the batch-flush threshold (records pending before a batch
    /// frame is emitted). Tests use 0 to journal every drain.
    pub fn with_flush_threshold(mut self, threshold: u64) -> Self {
        self.flush_threshold = threshold;
        self
    }

    /// True once the commit record was durably written.
    pub fn is_committed(&self) -> bool {
        self.writer.is_committed()
    }

    /// Appends one frame with retry/backoff. On exhaustion the journal goes
    /// dead and the loss is counted — never an error to the session.
    ///
    /// # Errors
    ///
    /// Never, after construction; the `Result` exists for
    /// [`create`](SessionJournal::create)'s fail-fast header write.
    fn append_retrying(
        &mut self,
        kind: u8,
        payload: &[u8],
        counters: &mut FaultCounters,
        charge: &mut dyn FnMut(SimDuration),
    ) -> Result<(), JournalError> {
        if self.dead {
            return Ok(());
        }
        let mut backoff = self.retry.backoff;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let result = if kind == KIND_COMMIT {
                self.writer.commit(kind, payload)
            } else {
                self.writer.append(kind, payload)
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() => {
                    counters.journal_write_errors += 1;
                    if attempts > self.retry.max_retries {
                        counters.journal_frames_lost += 1;
                        self.dead = true;
                        return Ok(());
                    }
                    counters.journal_retries += 1;
                    // Wait the failure out on the simulated clock, like
                    // snapshot recovery.
                    charge(backoff);
                    backoff = backoff * 2;
                }
                Err(e) => {
                    counters.journal_frames_lost += 1;
                    self.dead = true;
                    return Err(e);
                }
            }
        }
    }

    /// Journals everything `records` holds beyond the journal's cursors —
    /// new trace definitions first, then one columnar batch of per-trace
    /// hash runs — but only once at least
    /// [the flush threshold](SessionJournal::with_flush_threshold) of
    /// records are pending. [`flush_records`](SessionJournal::flush_records)
    /// bypasses the threshold.
    pub fn sync_records(
        &mut self,
        records: &AllocationRecords,
        counters: &mut FaultCounters,
        charge: &mut dyn FnMut(SimDuration),
    ) {
        if self.dead || records.total_records() - self.records_journaled < self.flush_threshold {
            return;
        }
        self.flush_records(records, counters, charge);
    }

    /// Journals all pending trace definitions and allocation records
    /// unconditionally.
    pub fn flush_records(
        &mut self,
        records: &AllocationRecords,
        counters: &mut FaultCounters,
        charge: &mut dyn FnMut(SimDuration),
    ) {
        if self.dead {
            return;
        }
        // Trace definitions, first-seen order — replay re-interns them in
        // the same order and gets the same ids.
        for raw in self.trace_cursor as u32..records.trace_count() as u32 {
            let id = TraceId::from_raw(raw);
            let payload = encode_trace_def(id, &records.trace(id));
            let _ = self.append_retrying(KIND_TRACE_DEF, &payload, counters, charge);
            if self.dead {
                return;
            }
            self.trace_cursor += 1;
        }
        self.stream_cursors.resize(records.trace_count(), 0);

        // One batch frame holding every stream's new tail, columnar.
        let mut payload = Vec::new();
        let mut groups = 0u32;
        let mut new_records = 0u64;
        put_u32(&mut payload, 0); // group count, patched below
        for raw in 0..records.trace_count() as u32 {
            let id = TraceId::from_raw(raw);
            let stream = records.stream(id);
            let from = self.stream_cursors[raw as usize];
            if stream.len() == from {
                continue;
            }
            groups += 1;
            new_records += (stream.len() - from) as u64;
            put_u32(&mut payload, raw);
            put_u32(&mut payload, (stream.len() - from) as u32);
            for &hash in &stream[from..] {
                put_u32(&mut payload, hash.raw());
            }
        }
        if groups == 0 {
            return;
        }
        payload[..4].copy_from_slice(&groups.to_le_bytes());
        let _ = self.append_retrying(KIND_ALLOC_BATCH, &payload, counters, charge);
        if self.dead {
            return;
        }
        for raw in 0..records.trace_count() {
            self.stream_cursors[raw] = records.stream(TraceId::from_raw(raw as u32)).len();
        }
        self.records_journaled += new_records;
    }

    /// Journals every snapshot `series` holds beyond the journal's cursor,
    /// as delta frames encoded straight from the index's push-time diffs.
    /// Called right after each push, so "beyond the cursor" is normally
    /// exactly one snapshot, but a caller may batch pushes.
    pub fn sync_snapshots(
        &mut self,
        series: &SnapshotSeries,
        counters: &mut FaultCounters,
        charge: &mut dyn FnMut(SimDuration),
    ) {
        if self.dead {
            return;
        }
        while self.snapshot_cursor < series.len() {
            let i = self.snapshot_cursor;
            let (added, removed) = series
                .index()
                .delta(i)
                .expect("a series indexes every snapshot it holds");
            let payload = encode_snapshot(&series.snapshots()[i], added, removed);
            let _ = self.append_retrying(KIND_SNAPSHOT, &payload, counters, charge);
            if self.dead {
                return;
            }
            self.snapshot_cursor += 1;
        }
    }

    /// Flushes everything pending, then writes the commit record and seals
    /// the journal. A dead journal skips the commit (its absence is the
    /// signal that the journal is incomplete).
    pub fn commit(
        &mut self,
        records: &AllocationRecords,
        snapshots: &SnapshotSeries,
        counters: &mut FaultCounters,
        charge: &mut dyn FnMut(SimDuration),
    ) {
        self.flush_records(records, counters, charge);
        self.sync_snapshots(snapshots, counters, charge);
        if self.dead {
            return;
        }
        let summary = CommitSummary {
            total_records: records.total_records(),
            trace_count: records.trace_count() as u32,
            snapshot_count: snapshots.len() as u32,
            counters: *counters,
        };
        let _ = self.append_retrying(KIND_COMMIT, &summary.encode(), counters, charge);
    }
}

/// A journal replayed back into session state.
#[derive(Debug)]
pub struct ReplayedSession {
    /// The session header, if the journal got far enough to have one.
    pub meta: Option<SessionMeta>,
    /// The Recorder state, rebuilt id-for-id and stream-for-stream.
    pub records: AllocationRecords,
    /// The snapshot series, rebuilt from the delta frames.
    pub snapshots: SnapshotSeries,
    /// The commit record, when the journal ends in a clean shutdown. A
    /// replay with a commit is proven complete (the totals cross-check);
    /// without one it is a valid *prefix* of a crashed session.
    pub commit: Option<CommitSummary>,
    /// Frames consumed.
    pub frames: u64,
}

impl ReplayedSession {
    /// True when the journal ends in a validated commit record.
    pub fn committed(&self) -> bool {
        self.commit.is_some()
    }
}

fn replay_err(frame: u64, reason: impl Into<String>) -> JournalError {
    JournalError::Replay {
        frame,
        reason: reason.into(),
    }
}

/// Replays recovered frames into fresh Recorder and Dumper state.
///
/// Strict by design: ids must be dense and in order, batches may only
/// reference defined traces, snapshot deltas must apply cleanly, the commit
/// totals must match the replayed state, and nothing may follow a commit.
/// Any violation means the journal — though CRC-valid — is not a faithful
/// session prefix, and the caller must fall back to re-execution.
///
/// # Errors
///
/// [`JournalError::Replay`] naming the offending frame.
pub fn replay(frames: &[Frame]) -> Result<ReplayedSession, JournalError> {
    let mut meta = None;
    let mut records = AllocationRecords::default();
    let mut snapshots = SnapshotSeries::new();
    let mut commit: Option<CommitSummary> = None;

    for (i, frame) in frames.iter().enumerate() {
        let at = i as u64;
        if commit.is_some() {
            // A retried commit can legitimately duplicate the final frame;
            // anything else after a commit is inconsistent.
            if frame.kind != KIND_COMMIT {
                return Err(replay_err(at, "frame after commit record"));
            }
        }
        match frame.kind {
            KIND_SESSION => {
                if i != 0 {
                    return Err(replay_err(at, "session header not first"));
                }
                meta = Some(SessionMeta::decode(&frame.payload)?);
            }
            _ if i == 0 => {
                return Err(replay_err(
                    at,
                    "journal does not start with a session header",
                ));
            }
            KIND_TRACE_DEF => {
                let (id, trace) = decode_trace_def(&frame.payload)?;
                if id as usize != records.trace_count() {
                    return Err(replay_err(
                        at,
                        format!(
                            "trace {} defined out of order (expected {})",
                            id,
                            records.trace_count()
                        ),
                    ));
                }
                if trace.is_empty() {
                    return Err(replay_err(at, "empty trace definition"));
                }
                let assigned = records.trace_id_for(&trace);
                if assigned.raw() != id {
                    return Err(replay_err(
                        at,
                        format!("trace {id} is a duplicate definition"),
                    ));
                }
            }
            KIND_ALLOC_BATCH => {
                let mut r = WireReader::new(&frame.payload);
                let groups = r.u32()?;
                for _ in 0..groups {
                    let raw_id = r.u32()?;
                    if raw_id as usize >= records.trace_count() {
                        return Err(replay_err(
                            at,
                            format!("batch references undefined trace {raw_id}"),
                        ));
                    }
                    let id = TraceId::from_raw(raw_id);
                    let count = r.u32()?;
                    for _ in 0..count {
                        records.record_traced(id, IdentityHash::from_raw(r.u32()?));
                    }
                }
                r.expect_exhausted()?;
            }
            KIND_SNAPSHOT => {
                let mut r = WireReader::new(&frame.payload);
                let seq = r.u32()?;
                if seq as usize != snapshots.len() {
                    return Err(replay_err(
                        at,
                        format!(
                            "snapshot {} out of order (expected {})",
                            seq,
                            snapshots.len()
                        ),
                    ));
                }
                let at_time = SimTime::from_micros(r.u64()?);
                let size_bytes = r.u64()?;
                let capture = SimDuration::from_micros(r.u64()?);
                let n_added = r.u32()? as usize;
                let n_removed = r.u32()? as usize;
                let mut added = Vec::with_capacity(n_added);
                for _ in 0..n_added {
                    added.push(u64::from(r.u32()?));
                }
                let mut removed = Vec::with_capacity(n_removed);
                for _ in 0..n_removed {
                    removed.push(u64::from(r.u32()?));
                }
                r.expect_exhausted()?;
                let column = apply_delta(at, snapshots.newest_column(), &added, &removed)?;
                snapshots.push(Snapshot::from_sorted_column(
                    seq, at_time, column, size_bytes, capture,
                ));
            }
            KIND_COMMIT => {
                let summary = CommitSummary::decode(&frame.payload)?;
                if summary.total_records != records.total_records()
                    || summary.trace_count as usize != records.trace_count()
                    || summary.snapshot_count as usize != snapshots.len()
                {
                    return Err(replay_err(
                        at,
                        format!(
                            "commit totals disagree with replay: commit says {} records / {} traces / {} snapshots, replay has {} / {} / {}",
                            summary.total_records,
                            summary.trace_count,
                            summary.snapshot_count,
                            records.total_records(),
                            records.trace_count(),
                            snapshots.len()
                        ),
                    ));
                }
                commit = Some(summary);
            }
            kind => return Err(replay_err(at, format!("unknown frame kind {kind}"))),
        }
    }

    Ok(ReplayedSession {
        meta,
        records,
        snapshots,
        commit,
        frames: frames.len() as u64,
    })
}

/// `prev + added − removed`, verifying the delta actually applies: every
/// removed hash must be present, no added hash may already be present.
fn apply_delta(
    frame: u64,
    prev: &[u64],
    added: &[u64],
    removed: &[u64],
) -> Result<Vec<u64>, JournalError> {
    if !is_sorted_unique(added) || !is_sorted_unique(removed) {
        return Err(replay_err(frame, "snapshot delta columns not sorted"));
    }
    let mut out = Vec::with_capacity(prev.len() + added.len() - removed.len().min(prev.len()));
    let mut ai = 0usize;
    let mut ri = 0usize;
    for &h in prev {
        while ai < added.len() && added[ai] < h {
            out.push(added[ai]);
            ai += 1;
        }
        if ai < added.len() && added[ai] == h {
            return Err(replay_err(frame, "snapshot delta adds an existing hash"));
        }
        if ri < removed.len() && removed[ri] == h {
            ri += 1;
            continue;
        }
        out.push(h);
    }
    out.extend_from_slice(&added[ai..]);
    if ri != removed.len() {
        return Err(replay_err(frame, "snapshot delta removes an absent hash"));
    }
    Ok(out)
}

fn is_sorted_unique(v: &[u64]) -> bool {
    v.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_snapshot::{journal, FsMedia, JournalWriter};
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("polm2-sessionj-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn frame(class_idx: u16, line: u32) -> TraceFrame {
        TraceFrame {
            class_idx,
            method_idx: 0,
            line,
        }
    }

    fn hash(i: u64) -> IdentityHash {
        IdentityHash::of(polm2_heap::ObjectId::new(i))
    }

    fn meta() -> SessionMeta {
        SessionMeta {
            workload: "toy".to_string(),
            seed: 7,
            duration: SimDuration::from_millis(1500),
            every_n_cycles: 1,
        }
    }

    fn snap(seq: u32, ids: &[u64]) -> Snapshot {
        Snapshot::new(
            seq,
            SimTime::from_micros(u64::from(seq) * 1000),
            ids.iter().map(|&i| hash(i)).collect(),
            4096,
            SimDuration::from_micros(250),
        )
    }

    /// Builds a small session in memory, journals it, recovers + replays,
    /// and hands both sides to the assertion closure.
    fn round_trip(tag: &str) -> (AllocationRecords, SnapshotSeries, ReplayedSession) {
        let dir = tempdir(tag);
        let writer = JournalWriter::create_clean(Box::new(FsMedia), &dir, 1 << 20).unwrap();
        let mut j =
            SessionJournal::create(writer, &meta(), JournalRetryPolicy::default(), &mut |_| {})
                .unwrap()
                .with_flush_threshold(0);

        let mut records = AllocationRecords::default();
        let mut series = SnapshotSeries::new();
        let mut counters = FaultCounters::new();
        let mut charge = |_d: SimDuration| {};

        let t0 = records.trace_id_for(&[frame(0, 1), frame(1, 5)]);
        let t1 = records.trace_id_for(&[frame(0, 2)]);
        for i in 0..100u64 {
            records.record_traced(if i % 3 == 0 { t0 } else { t1 }, hash(i));
            if i % 40 == 39 {
                j.flush_records(&records, &mut counters, &mut charge);
                series.push(snap(series.len() as u32, &[i, i + 1, i / 2]));
                j.sync_snapshots(&series, &mut counters, &mut charge);
            }
        }
        let t2 = records.trace_id_for(&[frame(2, 9)]);
        records.record_traced(t2, hash(500));
        series.push(snap(series.len() as u32, &[500]));
        j.sync_snapshots(&series, &mut counters, &mut charge);
        j.commit(&records, &series, &mut counters, &mut charge);
        assert!(j.is_committed());
        assert!(counters.is_clean());

        let recovered = journal::recover(&mut FsMedia, &dir, KIND_COMMIT).unwrap();
        assert!(recovered.report.is_clean());
        assert!(recovered.report.committed);
        let replayed = replay(&recovered.frames).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (records, series, replayed)
    }

    fn assert_records_equal(a: &AllocationRecords, b: &AllocationRecords) {
        assert_eq!(a.total_records(), b.total_records());
        assert_eq!(a.trace_count(), b.trace_count());
        for id in a.trace_ids() {
            assert_eq!(a.trace(id), b.trace(id), "trace {}", id.raw());
            assert_eq!(a.stream(id), b.stream(id), "stream {}", id.raw());
            assert_eq!(a.trace_symbols(id), b.trace_symbols(id));
        }
    }

    fn assert_series_equal(a: &SnapshotSeries, b: &SnapshotSeries) {
        assert_eq!(a.snapshots(), b.snapshots(), "per-capture metadata");
        for i in 0..a.len() {
            assert_eq!(a.index().delta(i), b.index().delta(i), "delta {i}");
        }
        assert_eq!(a.newest_column(), b.newest_column(), "newest column");
        assert_eq!(
            a.index().survival_counts(),
            b.index().survival_counts(),
            "replayed index must produce identical counts"
        );
    }

    #[test]
    fn session_round_trips_identically() {
        let (records, series, replayed) = round_trip("roundtrip");
        assert_eq!(replayed.meta.as_ref(), Some(&meta()));
        assert!(replayed.committed());
        assert_records_equal(&records, &replayed.records);
        assert_series_equal(&series, &replayed.snapshots);
        let commit = replayed.commit.unwrap();
        assert_eq!(commit.total_records, records.total_records());
    }

    #[test]
    fn batched_snapshot_pushes_journal_every_delta() {
        let dir = tempdir("batched");
        let writer = JournalWriter::create_clean(Box::new(FsMedia), &dir, 1 << 20).unwrap();
        let mut j =
            SessionJournal::create(writer, &meta(), JournalRetryPolicy::default(), &mut |_| {})
                .unwrap();
        let records = AllocationRecords::default();
        let mut series = SnapshotSeries::new();
        for ids in [&[1u64, 2, 3][..], &[2, 3, 4], &[4, 9]] {
            series.push(snap(series.len() as u32, ids));
        }
        let mut counters = FaultCounters::new();
        j.sync_snapshots(&series, &mut counters, &mut |_| {});
        j.commit(&records, &series, &mut counters, &mut |_| {});
        assert!(j.is_committed());
        let frames = journal::recover(&mut FsMedia, &dir, KIND_COMMIT)
            .unwrap()
            .frames;
        std::fs::remove_dir_all(&dir).unwrap();
        assert_series_equal(&series, &replay(&frames).unwrap().snapshots);
    }

    #[test]
    fn every_frame_prefix_replays_or_fails_cleanly() {
        // A truncated journal (cut at any *frame* boundary) must either
        // replay into a valid prefix or fail with a typed error — never
        // panic, never fabricate state.
        let dir = tempdir("prefix");
        let writer = JournalWriter::create_clean(Box::new(FsMedia), &dir, 1 << 20).unwrap();
        let mut j =
            SessionJournal::create(writer, &meta(), JournalRetryPolicy::default(), &mut |_| {})
                .unwrap()
                .with_flush_threshold(0);
        let mut records = AllocationRecords::default();
        let mut series = SnapshotSeries::new();
        let mut counters = FaultCounters::new();
        let t0 = records.trace_id_for(&[frame(0, 1)]);
        for i in 0..30u64 {
            records.record_traced(t0, hash(i));
            if i % 10 == 9 {
                j.flush_records(&records, &mut counters, &mut |_| {});
                series.push(snap(series.len() as u32, &[i, i - 1]));
                j.sync_snapshots(&series, &mut counters, &mut |_| {});
            }
        }
        j.commit(&records, &series, &mut counters, &mut |_| {});
        let frames = journal::recover(&mut FsMedia, &dir, KIND_COMMIT)
            .unwrap()
            .frames;
        std::fs::remove_dir_all(&dir).unwrap();

        for cut in 0..=frames.len() {
            let prefix = &frames[..cut];
            match replay(prefix) {
                Ok(r) => {
                    assert!(r.records.total_records() <= records.total_records());
                    assert!(r.snapshots.len() <= series.len());
                    assert_eq!(r.committed(), cut == frames.len());
                }
                Err(e) => panic!("prefix of {cut} frames must replay: {e}"),
            }
        }
    }

    #[test]
    fn replay_rejects_inconsistent_journals() {
        let (_, _, good) = round_trip("reject");
        let _ = good;
        let dir = tempdir("reject2");
        let writer = JournalWriter::create_clean(Box::new(FsMedia), &dir, 1 << 20).unwrap();
        let mut j =
            SessionJournal::create(writer, &meta(), JournalRetryPolicy::default(), &mut |_| {})
                .unwrap();
        let mut records = AllocationRecords::default();
        let t0 = records.trace_id_for(&[frame(0, 1)]);
        records.record_traced(t0, hash(1));
        let mut counters = FaultCounters::new();
        j.flush_records(&records, &mut counters, &mut |_| {});
        j.commit(&records, &SnapshotSeries::new(), &mut counters, &mut |_| {});
        let frames = journal::recover(&mut FsMedia, &dir, KIND_COMMIT)
            .unwrap()
            .frames;
        std::fs::remove_dir_all(&dir).unwrap();

        // Batch referencing an undefined trace.
        let mut bad = frames.clone();
        bad.remove(1); // drop the trace-def
        assert!(replay(&bad).is_err());

        // Commit totals that disagree with the replayed state.
        let mut bad = frames.clone();
        bad.remove(2); // drop the batch; commit now over-claims
        assert!(replay(&bad).is_err());

        // No session header.
        let bad = frames[1..].to_vec();
        assert!(replay(&bad).is_err());

        // Frame after commit.
        let mut bad = frames.clone();
        bad.push(bad[1].clone());
        assert!(replay(&bad).is_err());

        // Unknown kind.
        let mut bad = frames;
        bad[1].kind = 99;
        assert!(replay(&bad).is_err());
    }

    #[test]
    fn empty_journal_replays_to_an_empty_session() {
        let replayed = replay(&[]).unwrap();
        assert!(replayed.meta.is_none());
        assert!(!replayed.committed());
        assert_eq!(replayed.records.total_records(), 0);
        assert!(replayed.snapshots.is_empty());
    }

    #[test]
    fn flush_threshold_batches_frames() {
        let dir = tempdir("threshold");
        let writer = JournalWriter::create_clean(Box::new(FsMedia), &dir, 1 << 20).unwrap();
        let mut j =
            SessionJournal::create(writer, &meta(), JournalRetryPolicy::default(), &mut |_| {})
                .unwrap()
                .with_flush_threshold(50);
        let mut records = AllocationRecords::default();
        let mut counters = FaultCounters::new();
        let t0 = records.trace_id_for(&[frame(0, 1)]);
        for i in 0..49u64 {
            records.record_traced(t0, hash(i));
            j.sync_records(&records, &mut counters, &mut |_| {});
        }
        // Below threshold: header only.
        let n = journal::recover(&mut FsMedia, &dir, KIND_COMMIT)
            .unwrap()
            .frames
            .len();
        assert_eq!(n, 1, "no batch below the threshold");
        records.record_traced(t0, hash(49));
        j.sync_records(&records, &mut counters, &mut |_| {});
        let n = journal::recover(&mut FsMedia, &dir, KIND_COMMIT)
            .unwrap()
            .frames
            .len();
        assert_eq!(n, 3, "threshold crossing emits trace-def + batch");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
