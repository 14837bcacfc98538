//! The two phases of POLM2 (paper §3.5): profiling and production.

use std::cell::RefCell;
use std::rc::Rc;

use polm2_metrics::{FaultCounters, SimDuration};
use polm2_runtime::{AllocEventBuffer, ClassTransformer, Jvm, Program, RuntimeError};
use polm2_snapshot::{CriuDumper, HeapDumper, SnapshotSeries};

use crate::analyzer::{AnalysisOutcome, Analyzer, AnalyzerConfig};
use crate::error::PipelineError;
use crate::faults::{FaultConfig, FaultInjector, FaultyDumper, InjectedFaults};
use crate::instrumenter::{InstrumentationStats, Instrumenter};
use crate::journal::SessionJournal;
use crate::profile::ProfileValidation;
use crate::recorder::Recorder;
use crate::AllocationProfile;

/// When the Recorder asks the Dumper for a snapshot.
///
/// "By default (this is configurable), the Recorder asks for a new memory
/// snapshot at the end of every GC cycle" (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Take a snapshot after every `every_n_cycles` completed GC cycles.
    pub every_n_cycles: u32,
}

impl Default for SnapshotPolicy {
    fn default() -> Self {
        SnapshotPolicy { every_n_cycles: 1 }
    }
}

/// How the profiling session recovers from Dumper failures.
///
/// A failed capture is retried with exponentially growing backoff (the
/// coordinator waiting out a busy safepoint), charged to the simulated clock
/// so recovery costs real — simulated — time. When the retry budget runs
/// out the snapshot is *skipped and counted*: profiling is best-effort by
/// design, and a missing snapshot only makes objects look shorter-lived
/// (the safe direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries after the first failed capture attempt.
    pub max_snapshot_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub retry_backoff: SimDuration,
    /// Abort the session with [`PipelineError::Snapshot`] instead of
    /// skipping when the retry budget is exhausted.
    pub fail_on_snapshot_loss: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_snapshot_retries: 2,
            retry_backoff: SimDuration::from_millis(10),
            fail_on_snapshot_loss: false,
        }
    }
}

/// Everything the profiling phase produced: the analysis, the snapshots it
/// was based on, and the fault/recovery ledger.
#[derive(Debug, Clone)]
pub struct ProfilingReport {
    /// The Analyzer's output (profile, lifetimes, conflicts).
    pub outcome: AnalysisOutcome,
    /// The snapshot series the analysis consumed (including the final one).
    pub snapshots: SnapshotSeries,
    /// Faults absorbed and recovery actions taken during the run.
    pub counters: FaultCounters,
}

/// Drives the profiling phase: Recorder + Dumper + Analyzer.
///
/// The workload driver calls [`after_op`](ProfilingSession::after_op) after
/// every operation; the session drains allocation events into the Recorder
/// and, whenever the policy says a GC cycle has completed, asks the Dumper
/// for an incremental snapshot. [`finish`](ProfilingSession::finish) runs the
/// Analyzer and yields the allocation profile.
pub struct ProfilingSession {
    recorder: Recorder,
    dumper: Box<dyn HeapDumper>,
    snapshots: SnapshotSeries,
    policy: SnapshotPolicy,
    recovery: RecoveryPolicy,
    counters: FaultCounters,
    injector: Option<Rc<RefCell<FaultInjector>>>,
    /// Reused destination of the injector's record-fault mutation of each
    /// drained batch (chaos sessions with a nonzero record-fault rate only).
    mutated_batch: AllocEventBuffer,
    journal: Option<SessionJournal>,
    cycles_at_last_snapshot: usize,
}

impl std::fmt::Debug for ProfilingSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfilingSession")
            .field("dumper", &self.dumper.name())
            .field("snapshots", &self.snapshots.len())
            .field("policy", &self.policy)
            .field("recovery", &self.recovery)
            .finish_non_exhaustive()
    }
}

impl ProfilingSession {
    /// Creates a session with the CRIU Dumper.
    pub fn new(policy: SnapshotPolicy) -> Self {
        ProfilingSession::with_dumper(policy, Box::new(CriuDumper::new()))
    }

    /// Creates a session with a custom dumper (ablations, jmap baseline).
    pub fn with_dumper(policy: SnapshotPolicy, dumper: Box<dyn HeapDumper>) -> Self {
        ProfilingSession {
            recorder: Recorder::new(),
            dumper,
            snapshots: SnapshotSeries::new(),
            policy,
            recovery: RecoveryPolicy::default(),
            counters: FaultCounters::new(),
            injector: None,
            mutated_batch: AllocEventBuffer::default(),
            journal: None,
            cycles_at_last_snapshot: 0,
        }
    }

    /// Creates a session whose Dumper and Recorder streams suffer the
    /// seeded faults of `faults` (chaos testing). With an inert config this
    /// is behaviorally identical to [`new`](ProfilingSession::new).
    pub fn with_faults(policy: SnapshotPolicy, faults: FaultConfig) -> Self {
        let injector = Rc::new(RefCell::new(FaultInjector::new(faults)));
        let dumper = FaultyDumper::new(Box::new(CriuDumper::new()), Rc::clone(&injector));
        let mut session = ProfilingSession::with_dumper(policy, Box::new(dumper));
        session.injector = Some(injector);
        session
    }

    /// Replaces the recovery policy (chainable).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Attaches a durable session journal: from now on every drained
    /// allocation batch, every snapshot, and the final commit record stream
    /// into it, so a crash loses at most the unflushed tail instead of the
    /// whole run. To also inject disk faults, build the journal's writer
    /// over [`FaultyMedia`](crate::FaultyMedia) sharing
    /// [`fault_injector`](ProfilingSession::fault_injector).
    pub fn attach_journal(&mut self, journal: SessionJournal) {
        self.journal = Some(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&SessionJournal> {
        self.journal.as_ref()
    }

    /// The session's shared fault injector, when built with
    /// [`with_faults`](ProfilingSession::with_faults) — lets callers hang
    /// more fault surfaces (e.g. [`FaultyMedia`](crate::FaultyMedia)) off
    /// the same seeded stream.
    pub fn fault_injector(&self) -> Option<Rc<RefCell<FaultInjector>>> {
        self.injector.clone()
    }

    /// The Recorder's load-time agent; install it in the profiling JVM.
    pub fn recorder_agent(&self) -> Box<dyn ClassTransformer> {
        self.recorder.agent()
    }

    /// Allocation sites the Recorder instrumented at load time.
    pub fn instrumented_sites(&self) -> u64 {
        self.recorder.instrumented_sites()
    }

    /// Called after each workload operation: drains allocation events and
    /// takes a snapshot if a GC cycle completed since the last one.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Snapshot`] only when the recovery policy demands
    /// aborting on snapshot loss; with the default policy faults are
    /// absorbed into [`fault_counters`](ProfilingSession::fault_counters).
    /// [`PipelineError::Runtime`] wrapping a heap integrity violation when
    /// the memory-corruption chaos arm planted a fault (detection is
    /// synchronous: corrupt memory never reaches a snapshot read).
    pub fn after_op(&mut self, jvm: &mut Jvm) -> Result<(), PipelineError> {
        self.maybe_corrupt_heap(jvm)?;
        self.drain_events(jvm);
        if let Some(journal) = self.journal.as_mut() {
            let records = self.recorder.records();
            journal.sync_records(&records, &mut self.counters, &mut |d| {
                jvm.advance_mutator(d)
            });
        }
        let cycles = jvm.gc_log().cycle_count();
        if cycles >= self.cycles_at_last_snapshot + self.policy.every_n_cycles as usize {
            self.take_snapshot(jvm)?;
        }
        Ok(())
    }

    /// The memory-corruption chaos arm: rolls the injector's heap rates and,
    /// on a plant, runs the integrity verifier *immediately* — synchronous
    /// detection, before any snapshot or hash-column read can trip over the
    /// corrupt bytes. A plant the verifier misses is itself reported as a
    /// violation (`corruption-undetected`), so corrupt memory never survives
    /// this call unnoticed.
    fn maybe_corrupt_heap(&mut self, jvm: &mut Jvm) -> Result<(), PipelineError> {
        let Some(injector) = &self.injector else {
            return Ok(());
        };
        let planted = injector.borrow_mut().maybe_corrupt_heap(jvm.heap_mut());
        let Some(planted) = planted else {
            return Ok(());
        };
        match jvm.heap_mut().verify_integrity() {
            Err(e) => Err(PipelineError::Runtime(RuntimeError::Heap(e))),
            Ok(()) => Err(PipelineError::Runtime(RuntimeError::Heap(
                polm2_heap::HeapError::IntegrityViolation {
                    invariant: "corruption-undetected",
                    detail: format!(
                        "verifier passed a corrupted heap: {} ({})",
                        planted.kind.label(),
                        planted.detail
                    ),
                },
            ))),
        }
    }

    /// Drains the runtime's buffered allocation events into the Recorder:
    /// each per-thread columnar batch goes straight to [`Recorder::ingest`]
    /// — no trace materialization, no per-event allocation. A session with
    /// record-fault rates first has the injector write each batch's
    /// surviving events into a reused scratch batch, which then takes the
    /// same ingest; without them the runtime's batch is ingested directly,
    /// with no copy.
    fn drain_events(&mut self, jvm: &mut Jvm) {
        let injector = self
            .injector
            .as_ref()
            .filter(|injector| injector.borrow().config().mutates_records());
        let recorder = &mut self.recorder;
        let counters = &mut self.counters;
        let mutated = &mut self.mutated_batch;
        jvm.drain_alloc_batches(|trie, program, batch| {
            let batch = match injector {
                Some(injector) => {
                    injector.borrow_mut().mutate_batch(batch, mutated);
                    &*mutated
                }
                None => batch,
            };
            counters.records_dropped_corrupt += recorder.ingest(trie, program, batch);
        });
    }

    /// Takes a snapshot unconditionally (the end-of-run snapshot, or tests),
    /// retrying per the recovery policy. After the retry budget is spent the
    /// snapshot is skipped and counted (or, with
    /// [`RecoveryPolicy::fail_on_snapshot_loss`], the error is returned).
    ///
    /// # Errors
    ///
    /// See [`after_op`](ProfilingSession::after_op).
    pub fn take_snapshot(&mut self, jvm: &mut Jvm) -> Result<(), PipelineError> {
        let mut backoff = self.recovery.retry_backoff;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let now = jvm.now();
            match self.dumper.snapshot(jvm.heap_mut(), now) {
                Ok(snap) => {
                    self.snapshots.push(snap);
                    self.cycles_at_last_snapshot = jvm.gc_log().cycle_count();
                    if let Some(journal) = self.journal.as_mut() {
                        // Flush pending records first so the journal's frame
                        // order mirrors the session, then stream the delta
                        // the push just computed.
                        let records = self.recorder.records();
                        journal.flush_records(&records, &mut self.counters, &mut |d| {
                            jvm.advance_mutator(d)
                        });
                        journal.sync_snapshots(&self.snapshots, &mut self.counters, &mut |d| {
                            jvm.advance_mutator(d)
                        });
                    }
                    return Ok(());
                }
                Err(source) => {
                    self.counters.snapshots_failed += 1;
                    if attempts > self.recovery.max_snapshot_retries {
                        self.counters.snapshots_lost += 1;
                        // Move the watermark anyway: one lost snapshot must
                        // not make every subsequent operation retry.
                        self.cycles_at_last_snapshot = jvm.gc_log().cycle_count();
                        if self.recovery.fail_on_snapshot_loss {
                            return Err(PipelineError::Snapshot { attempts, source });
                        }
                        return Ok(());
                    }
                    self.counters.snapshot_retries += 1;
                    // Wait out the failure on the simulated clock before
                    // retrying; the budget doubles per attempt.
                    jvm.advance_mutator(backoff);
                    backoff = backoff * 2;
                }
            }
        }
    }

    /// The snapshots taken so far.
    pub fn snapshots(&self) -> &SnapshotSeries {
        &self.snapshots
    }

    /// Allocations recorded so far.
    pub fn recorded_allocations(&self) -> u64 {
        self.recorder.records().total_records()
    }

    /// Faults absorbed and recovery actions taken so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.counters
    }

    /// Ground-truth injection tallies, if this session was built with
    /// [`with_faults`](ProfilingSession::with_faults).
    pub fn injected_faults(&self) -> Option<InjectedFaults> {
        self.injector.as_ref().map(|i| i.borrow().injected())
    }

    /// Folds the JVM-side robustness tallies into the session ledger:
    /// heap-verifier passes, emergency full collections, and (when the run
    /// hit its hard heap limit) the out-of-memory abort. Call once, right
    /// before [`finish`](ProfilingSession::finish) — the counters then land
    /// in the journal's commit frame, so a replayed session reports the same
    /// ledger as the uninterrupted run.
    pub fn absorb_runtime_health(&mut self, jvm: &Jvm, oom_aborts: u64) {
        self.counters.heap_verify_passes += jvm.heap().verify_passes();
        self.counters.emergency_collections += jvm.collector().emergency_collections();
        self.counters.heap_oom_aborts += oom_aborts;
    }

    /// Ends the profiling phase: final drain, final snapshot (unless the
    /// last scheduled snapshot already covers the current GC cycle), then
    /// analysis.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Snapshot`] per the recovery policy (see
    /// [`after_op`](ProfilingSession::after_op));
    /// [`PipelineError::RecorderBusy`] if the profiling JVM still holding
    /// the Recorder's agent is alive.
    pub fn finish(
        mut self,
        jvm: &mut Jvm,
        config: &AnalyzerConfig,
    ) -> Result<ProfilingReport, PipelineError> {
        self.drain_events(jvm);
        // End-of-run snapshot — but only if it adds information. When the
        // last per-cycle snapshot already covered the current GC cycle, a
        // second capture of the identical heap would double-count every
        // live object's survival.
        if self.snapshots.is_empty() || jvm.gc_log().cycle_count() > self.cycles_at_last_snapshot {
            self.take_snapshot(jvm)?;
        }
        if let Some(journal) = self.journal.as_mut() {
            let records = self.recorder.records();
            journal.commit(&records, &self.snapshots, &mut self.counters, &mut |d| {
                jvm.advance_mutator(d)
            });
        }
        let records = self.recorder.into_records()?;
        let outcome = Analyzer::new(*config).analyze(&records, &self.snapshots, jvm.program());
        let mut counters = self.counters;
        counters.traces_demoted += outcome.demoted_traces;
        Ok(ProfilingReport {
            outcome,
            snapshots: self.snapshots,
            counters,
        })
    }
}

/// Sets up the production phase: the Instrumenter agent plus launch-time
/// generation creation.
///
/// "The generations necessary to accommodate application objects are
/// automatically created (by calling the newGeneration NG2C API call) at
/// launch time" (§3.4).
#[derive(Debug)]
pub struct ProductionSetup {
    instrumenter: Instrumenter,
}

impl ProductionSetup {
    /// Creates the production setup for a profile.
    pub fn new(profile: AllocationProfile) -> Self {
        ProductionSetup {
            instrumenter: Instrumenter::new(profile),
        }
    }

    /// Creates a production setup that validates `profile` against the
    /// program first: entries whose locations no longer exist (the
    /// application changed since profiling, or the file was edited) are
    /// skipped and reported via [`stale`](ProductionSetup::stale) instead of
    /// being silently ignored at rewrite time.
    pub fn checked(profile: &AllocationProfile, program: &Program) -> Self {
        ProductionSetup {
            instrumenter: Instrumenter::checked(profile, program),
        }
    }

    /// Profile entries dropped as stale (empty for
    /// [`new`](ProductionSetup::new)).
    pub fn stale(&self) -> &ProfileValidation {
        self.instrumenter.stale()
    }

    /// The stale skips as fault counters (for merging into a run's ledger).
    pub fn fault_counters(&self) -> FaultCounters {
        let stale = self.instrumenter.stale();
        FaultCounters {
            stale_sites_skipped: stale.stale_sites.len() as u64,
            stale_gen_calls_skipped: stale.stale_gen_calls.len() as u64,
            ..FaultCounters::new()
        }
    }

    /// The Instrumenter's load-time agent; install it in the production JVM.
    pub fn agent(&self) -> Box<dyn ClassTransformer> {
        self.instrumenter.agent()
    }

    /// Creates the generations the profile references (call once, right
    /// after building the JVM).
    pub fn prepare_generations(&self, jvm: &mut Jvm) {
        let max = self.instrumenter.profile().max_gen().raw();
        // The collector starts with generations 0 (young) and 1 (old);
        // dynamic generations 2..=max are created here.
        for _ in 1..max {
            jvm.new_generation();
        }
    }

    /// What the agent rewrote.
    pub fn stats(&self) -> InstrumentationStats {
        self.instrumenter.stats()
    }

    /// The profile being applied.
    pub fn profile(&self) -> &AllocationProfile {
        self.instrumenter.profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_gc::{GcConfig, Ng2cCollector};
    use polm2_heap::GenId;
    use polm2_runtime::{
        ClassDef, HookAction, HookRegistry, Instr, MethodDef, Program, RuntimeConfig, SizeSpec,
    };

    /// A memtable-style toy workload: `put` cells that live until `flush`,
    /// plus `scratch` garbage.
    fn workload_program() -> Program {
        let mut p = Program::new();
        p.add_class(
            ClassDef::new("Store")
                .with_method(
                    MethodDef::new("put")
                        .push(Instr::call("Cell", "create", 10))
                        .push(Instr::native("insert", 11)),
                )
                .with_method(MethodDef::new("scratch").push(Instr::alloc(
                    "Tmp",
                    SizeSpec::Fixed(512),
                    20,
                )))
                .with_method(MethodDef::new("flush").push(Instr::native("flush", 30))),
        );
        p.add_class(ClassDef::new("Cell").with_method(
            MethodDef::new("create").push(Instr::alloc("Cell", SizeSpec::Fixed(1024), 5)),
        ));
        p
    }

    fn workload_hooks() -> HookRegistry {
        let mut h = HookRegistry::new();
        h.register_action("insert", |ctx| {
            let obj = ctx.acc.expect("cell before insert");
            let slot = ctx.heap.roots_mut().create_slot("memtable");
            ctx.heap.roots_mut().push(slot, obj);
            HookAction::default()
        });
        h.register_action("flush", |ctx| {
            if let Some(slot) = ctx.heap.roots().find_slot("memtable") {
                ctx.heap.roots_mut().clear_slot(slot);
            }
            HookAction::default()
        });
        h
    }

    /// Cohorts must outlive several GC cycles for the analyzer to see them:
    /// each batch churns ~1.5 MiB through the 1 MiB young generation, and the
    /// memtable flushes only every third batch.
    fn drive(jvm: &mut Jvm, session: Option<&mut ProfilingSession>, batches: usize) {
        let t = jvm.spawn_thread();
        let mut session = session;
        for batch in 0..batches {
            for _ in 0..300 {
                jvm.invoke(t, "Store", "put").unwrap();
                for _ in 0..8 {
                    jvm.invoke(t, "Store", "scratch").unwrap();
                }
                if let Some(s) = session.as_deref_mut() {
                    s.after_op(jvm).expect("after_op");
                }
            }
            if batch % 3 == 2 {
                jvm.invoke(t, "Store", "flush").unwrap();
            }
        }
    }

    #[test]
    fn profiling_phase_produces_a_useful_profile() {
        let mut session = ProfilingSession::new(SnapshotPolicy::default());
        let mut jvm = Jvm::builder(RuntimeConfig::small())
            .hooks(workload_hooks())
            .transformer(session.recorder_agent())
            .build(workload_program())
            .unwrap();
        assert_eq!(session.instrumented_sites(), 2);
        drive(&mut jvm, Some(&mut session), 9);
        assert!(session.recorded_allocations() > 0);
        assert!(
            session.snapshots().len() > 1,
            "GC cycles must trigger snapshots"
        );

        let report = session
            .finish(&mut jvm, &AnalyzerConfig::default())
            .unwrap();
        assert!(
            report.counters.is_clean(),
            "fault-free run: {}",
            report.counters
        );
        let outcome = report.outcome;
        // The cell site is pretenured; the scratch site is not.
        let cell = outcome
            .profile
            .site_at(&polm2_runtime::CodeLoc::new("Cell", "create", 5))
            .expect("cell site pretenured");
        assert!(!cell.gen.is_young());
        assert!(outcome
            .profile
            .site_at(&polm2_runtime::CodeLoc::new("Store", "scratch", 20))
            .is_none());
    }

    #[test]
    fn production_phase_pretenures_according_to_profile() {
        // Phase 1: profile.
        let mut session = ProfilingSession::new(SnapshotPolicy::default());
        let mut jvm = Jvm::builder(RuntimeConfig::small())
            .hooks(workload_hooks())
            .transformer(session.recorder_agent())
            .build(workload_program())
            .unwrap();
        drive(&mut jvm, Some(&mut session), 9);
        let outcome = session
            .finish(&mut jvm, &AnalyzerConfig::default())
            .unwrap()
            .outcome;
        assert!(!outcome.profile.is_empty());

        // Phase 2: production under NG2C + Instrumenter.
        let setup = ProductionSetup::new(outcome.profile.clone());
        let mut jvm = Jvm::builder(RuntimeConfig::small())
            .collector(Box::new(Ng2cCollector::new(GcConfig::default())))
            .hooks(workload_hooks())
            .transformer(setup.agent())
            .build(workload_program())
            .unwrap();
        setup.prepare_generations(&mut jvm);
        drive(&mut jvm, None, 7);
        assert!(setup.stats().annotated_sites > 0);

        // Cells ended up outside the young generation at allocation time.
        let mut pretenured = 0;
        let mut total_cells = 0;
        let cell_class = jvm.heap().classes().lookup("Cell").unwrap();
        let live = jvm.heap_mut().mark_live(&[]);
        for id in live.iter() {
            let rec = jvm.heap().object(id).unwrap();
            if rec.class() == cell_class {
                total_cells += 1;
                if !rec.allocated_gen().is_young() {
                    pretenured += 1;
                }
            }
        }
        assert!(total_cells > 0);
        assert_eq!(pretenured, total_cells, "every live cell was pretenured");
    }

    #[test]
    fn prepare_generations_creates_profile_generations() {
        let mut profile = AllocationProfile::new();
        profile.add_site(crate::PretenuredSite {
            loc: polm2_runtime::CodeLoc::new("X", "y", 1),
            gen: GenId::new(3),
            local: true,
        });
        let setup = ProductionSetup::new(profile);
        let mut jvm = Jvm::builder(RuntimeConfig::small())
            .collector(Box::new(Ng2cCollector::new(GcConfig::default())))
            .build(workload_program())
            .unwrap();
        setup.prepare_generations(&mut jvm);
        // Young + old + gens 2 and 3 = four spaces.
        assert_eq!(jvm.heap().spaces().len(), 4);
    }

    #[test]
    fn snapshot_policy_respects_cycle_stride() {
        let mut s1 = ProfilingSession::new(SnapshotPolicy { every_n_cycles: 1 });
        let mut jvm = Jvm::builder(RuntimeConfig::small())
            .hooks(workload_hooks())
            .transformer(s1.recorder_agent())
            .build(workload_program())
            .unwrap();
        drive(&mut jvm, Some(&mut s1), 3);
        let every_cycle = s1.snapshots().len();

        let mut s4 = ProfilingSession::new(SnapshotPolicy { every_n_cycles: 4 });
        let mut jvm = Jvm::builder(RuntimeConfig::small())
            .hooks(workload_hooks())
            .transformer(s4.recorder_agent())
            .build(workload_program())
            .unwrap();
        drive(&mut jvm, Some(&mut s4), 3);
        let every_fourth = s4.snapshots().len();

        assert!(
            every_fourth < every_cycle,
            "{every_fourth} !< {every_cycle}"
        );
    }

    /// A dumper whose first `fail_next` capture attempts fail.
    struct FlakyDumper {
        inner: CriuDumper,
        fail_next: u32,
    }

    impl HeapDumper for FlakyDumper {
        fn name(&self) -> &'static str {
            "flaky"
        }

        fn snapshot(
            &mut self,
            heap: &mut polm2_heap::Heap,
            now: polm2_metrics::SimTime,
        ) -> Result<polm2_snapshot::Snapshot, polm2_snapshot::SnapshotError> {
            if self.fail_next > 0 {
                self.fail_next -= 1;
                return Err(polm2_snapshot::SnapshotError {
                    seq: self.inner.snapshots_taken(),
                    reason: "dump coordinator down".to_string(),
                });
            }
            self.inner.snapshot(heap, now)
        }
    }

    fn boot(session: &ProfilingSession) -> Jvm {
        Jvm::builder(RuntimeConfig::small())
            .hooks(workload_hooks())
            .transformer(session.recorder_agent())
            .build(workload_program())
            .unwrap()
    }

    #[test]
    fn transient_snapshot_failures_are_retried_on_the_simulated_clock() {
        let dumper = FlakyDumper {
            inner: CriuDumper::new(),
            fail_next: 2,
        };
        let mut session =
            ProfilingSession::with_dumper(SnapshotPolicy::default(), Box::new(dumper));
        let mut jvm = boot(&session);
        let before = jvm.now();
        session.take_snapshot(&mut jvm).unwrap();
        assert_eq!(session.snapshots().len(), 1, "third attempt succeeds");
        let counters = session.fault_counters();
        assert_eq!(counters.snapshots_failed, 2);
        assert_eq!(counters.snapshot_retries, 2);
        assert_eq!(counters.snapshots_lost, 0);
        // 10ms + 20ms of backoff were charged to the simulated clock.
        assert!(jvm.now().saturating_since(before) >= SimDuration::from_millis(30));
    }

    #[test]
    fn exhausted_retries_skip_and_count_by_default() {
        let dumper = FlakyDumper {
            inner: CriuDumper::new(),
            fail_next: u32::MAX,
        };
        let mut session =
            ProfilingSession::with_dumper(SnapshotPolicy::default(), Box::new(dumper));
        let mut jvm = boot(&session);
        session.take_snapshot(&mut jvm).unwrap();
        assert_eq!(session.snapshots().len(), 0);
        let counters = session.fault_counters();
        assert_eq!(counters.snapshots_failed, 3, "initial attempt + 2 retries");
        assert_eq!(counters.snapshots_lost, 1);
    }

    #[test]
    fn strict_recovery_policy_surfaces_snapshot_loss_as_an_error() {
        let dumper = FlakyDumper {
            inner: CriuDumper::new(),
            fail_next: u32::MAX,
        };
        let session = ProfilingSession::with_dumper(SnapshotPolicy::default(), Box::new(dumper))
            .with_recovery(RecoveryPolicy {
                fail_on_snapshot_loss: true,
                ..RecoveryPolicy::default()
            });
        let mut session = session;
        let mut jvm = boot(&session);
        let err = session.take_snapshot(&mut jvm).unwrap_err();
        match err {
            PipelineError::Snapshot { attempts, source } => {
                assert_eq!(attempts, 3);
                assert!(source.reason.contains("down"));
            }
            other => panic!("expected Snapshot error, got {other}"),
        }
    }

    #[test]
    fn finish_skips_redundant_end_of_run_snapshot() {
        let mut session = ProfilingSession::new(SnapshotPolicy::default());
        let mut jvm = boot(&session);
        drive(&mut jvm, Some(&mut session), 9);
        // Force a snapshot at the current cycle: finish must not add a
        // second capture of the identical heap.
        session.take_snapshot(&mut jvm).unwrap();
        let taken = session.snapshots().len();
        let report = session
            .finish(&mut jvm, &AnalyzerConfig::default())
            .unwrap();
        assert_eq!(
            report.snapshots.len(),
            taken,
            "no duplicate end-of-run snapshot"
        );

        // But a session that never snapshotted still gets its final one.
        let session = ProfilingSession::new(SnapshotPolicy::default());
        let mut jvm = boot(&session);
        let report = session
            .finish(&mut jvm, &AnalyzerConfig::default())
            .unwrap();
        assert_eq!(report.snapshots.len(), 1);
    }

    #[test]
    fn checked_setup_reports_stale_profile_entries() {
        let mut profile = AllocationProfile::new();
        profile.add_site(crate::PretenuredSite {
            loc: polm2_runtime::CodeLoc::new("Cell", "create", 5),
            gen: GenId::new(2),
            local: false,
        });
        profile.add_site(crate::PretenuredSite {
            loc: polm2_runtime::CodeLoc::new("Deleted", "method", 1),
            gen: GenId::new(2),
            local: true,
        });
        let setup = ProductionSetup::checked(&profile, &workload_program());
        assert_eq!(setup.stale().stale_sites.len(), 1);
        assert_eq!(setup.fault_counters().stale_sites_skipped, 1);
        assert_eq!(setup.profile().sites().len(), 1, "valid entry survives");
        assert!(ProductionSetup::new(profile).stale().is_clean());
    }
}
