//! The `Jvm` facade and its builder.

use std::any::Any;
use std::fmt;
use std::rc::Rc;

use polm2_gc::{Collector, G1Collector, GcEvent, GcLog, PauseEvent, ThreadId};
use polm2_heap::{Heap, ObjectId};
use polm2_metrics::{SimDuration, SimTime};

use crate::config::RecorderPath;
use crate::events::{AllocEvent, AllocEventBuffer};
use crate::hooks::BoundHooks;
use crate::ir::Program;
use crate::loader::{ClassTransformer, LoadedProgram, Loader};
use crate::thread::MutatorThread;
use crate::trie::TraceTrie;
use crate::{HookRegistry, RuntimeConfig, RuntimeError, SimClock};

/// Builder for a [`Jvm`].
///
/// Collector defaults to [`G1Collector`]; hooks, workload state, and
/// load-time transformers (agents) are optional.
pub struct JvmBuilder {
    config: RuntimeConfig,
    collector: Box<dyn Collector>,
    hooks: HookRegistry,
    state: Box<dyn Any>,
    transformers: Vec<Box<dyn ClassTransformer>>,
}

impl fmt::Debug for JvmBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JvmBuilder")
            .field("config", &self.config)
            .field("collector", &self.collector.name())
            .field("transformers", &self.transformers.len())
            .finish_non_exhaustive()
    }
}

impl JvmBuilder {
    /// Replaces the collector.
    pub fn collector(mut self, collector: Box<dyn Collector>) -> Self {
        self.collector = collector;
        self
    }

    /// Installs the hook registry.
    pub fn hooks(mut self, hooks: HookRegistry) -> Self {
        self.hooks = hooks;
        self
    }

    /// Installs the workload state (retrieved in hooks via
    /// [`HookCtx::state`](crate::HookCtx::state)).
    pub fn state(mut self, state: Box<dyn Any>) -> Self {
        self.state = state;
        self
    }

    /// Appends a load-time transformer (Java agent). Agents run in
    /// registration order on every class.
    pub fn transformer(mut self, t: Box<dyn ClassTransformer>) -> Self {
        self.transformers.push(t);
        self
    }

    /// Loads `program` (through the agent chain) and boots the runtime.
    ///
    /// # Errors
    ///
    /// Propagates load-time resolution failures.
    pub fn build(mut self, program: Program) -> Result<Jvm, RuntimeError> {
        let mut heap = Heap::new(self.config.heap);
        self.collector.attach(&mut heap);
        let mut refs: Vec<&mut dyn ClassTransformer> = self
            .transformers
            .iter_mut()
            .map(|b| b.as_mut() as &mut dyn ClassTransformer)
            .collect();
        let loaded = Loader::load(program, &mut refs, &mut heap)?;
        let hooks = self.hooks.bind(loaded.hook_names());
        // Allocation contexts are only read by `RecordAlloc`, which the
        // Recorder agent inserts; without one the trie is never consulted.
        let tracks_context =
            self.config.recorder == RecorderPath::TraceTrie && loaded.records_allocs();
        let barrier_permille = u64::from(self.collector.mutator_overhead_permille());
        Ok(Jvm {
            config: self.config,
            heap,
            collector: self.collector,
            program: Rc::new(loaded),
            hooks,
            tracks_context,
            barrier_permille,
            state: self.state,
            clock: SimClock::new(),
            gc_log: GcLog::new(),
            threads: Vec::new(),
            trace_trie: TraceTrie::new(),
            safepoint_scratch: Vec::new(),
            ns_debt: 0,
        })
    }
}

/// The simulated JVM: heap + collector + loaded program + interpreter state.
///
/// See the [crate documentation](crate) for an end-to-end example.
pub struct Jvm {
    pub(crate) config: RuntimeConfig,
    pub(crate) heap: Heap,
    pub(crate) collector: Box<dyn Collector>,
    pub(crate) program: Rc<LoadedProgram>,
    pub(crate) hooks: BoundHooks,
    /// True if calls maintain each thread's trie context: the trie
    /// recorder path on a program that records allocations.
    pub(crate) tracks_context: bool,
    /// The collector's barrier tax, fixed for its lifetime.
    pub(crate) barrier_permille: u64,
    pub(crate) state: Box<dyn Any>,
    pub(crate) clock: SimClock,
    pub(crate) gc_log: GcLog,
    pub(crate) threads: Vec<MutatorThread>,
    /// The shared trie of call edges (trie recorder path).
    pub(crate) trace_trie: TraceTrie,
    /// Reused safepoint-root collection buffer (allocation + force_collect).
    pub(crate) safepoint_scratch: Vec<ObjectId>,
    /// Sub-microsecond mutator cost not yet charged to the clock.
    pub(crate) ns_debt: u64,
}

impl fmt::Debug for Jvm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Jvm")
            .field("collector", &self.collector.name())
            .field("now", &self.clock.now())
            .field("threads", &self.threads.len())
            .field("gc_cycles", &self.gc_log.cycle_count())
            .finish_non_exhaustive()
    }
}

impl Jvm {
    /// Starts building a runtime.
    pub fn builder(config: RuntimeConfig) -> JvmBuilder {
        JvmBuilder {
            config,
            collector: Box::new(G1Collector::new(config.gc)),
            hooks: HookRegistry::new(),
            state: Box::new(()),
            transformers: Vec::new(),
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable heap access (root manipulation between operations).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// The collector.
    pub fn collector(&self) -> &dyn Collector {
        self.collector.as_ref()
    }

    /// Mutable collector access (e.g. pre-creating NG2C generations at
    /// launch time, as the Instrumenter does).
    pub fn collector_mut(&mut self) -> &mut dyn Collector {
        self.collector.as_mut()
    }

    /// NG2C-style generation creation routed through the collector with heap
    /// access (the `System.newGeneration` analogue).
    pub fn new_generation(&mut self) -> polm2_heap::GenId {
        self.collector.new_generation(&mut self.heap)
    }

    /// The loaded program.
    pub fn program(&self) -> &LoadedProgram {
        &self.program
    }

    /// The GC event log.
    pub fn gc_log(&self) -> &GcLog {
        &self.gc_log
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Downcasts the workload state.
    ///
    /// # Panics
    ///
    /// Panics if the state is not an `S`.
    pub fn state_mut<S: 'static>(&mut self) -> &mut S {
        self.state
            .downcast_mut::<S>()
            .expect("workload state has unexpected type")
    }

    /// Creates a mutator thread.
    pub fn spawn_thread(&mut self) -> ThreadId {
        let id = ThreadId::new(self.threads.len() as u32);
        self.threads.push(MutatorThread::new(id));
        id
    }

    /// The live mutator threads.
    pub fn threads(&self) -> &[MutatorThread] {
        &self.threads
    }

    /// The recorder path this runtime was configured with.
    pub fn recorder_path(&self) -> RecorderPath {
        self.config.recorder
    }

    /// The shared trace trie (read access; the interpreter maintains it
    /// while the program records allocations on the trie recorder path, and
    /// leaves it at its root otherwise).
    pub fn trace_trie(&self) -> &TraceTrie {
        &self.trace_trie
    }

    /// True if any thread holds undrained allocation events.
    pub fn has_pending_alloc_events(&self) -> bool {
        self.threads
            .iter()
            .any(|t| !t.events.is_empty() || !t.pending_events.is_empty())
    }

    /// Drains buffered allocation events (the Recorder's input stream) as
    /// materialized [`AllocEvent`]s, per-thread batches concatenated in
    /// thread order.
    ///
    /// On the trie recorder path this *materializes* every trace from the
    /// trie — the compatibility/chaos route. The fast route is
    /// [`drain_alloc_batches`](Jvm::drain_alloc_batches), which hands the
    /// Recorder the columnar buffers directly.
    pub fn drain_alloc_events(&mut self) -> Vec<AllocEvent> {
        let mut out = Vec::new();
        for t in &mut self.threads {
            out.append(&mut t.pending_events);
            for i in 0..t.events.len() {
                out.push(AllocEvent {
                    trace: self.trace_trie.path(t.events.nodes()[i]),
                    object: t.events.objects()[i],
                    hash: t.events.hashes()[i],
                    site: t.events.sites()[i],
                    at: t.events.ats()[i],
                });
            }
            t.events.clear();
        }
        out
    }

    /// Drains buffered trie-form allocation events in place: `f` is called
    /// once per non-empty per-thread buffer, in thread order, with the
    /// shared trie, the loaded program, and the columnar batch. Buffers are
    /// cleared (retaining capacity) after their callback — the steady state
    /// allocates nothing.
    ///
    /// Only the trie recorder path fills these buffers; on
    /// [`RecorderPath::StackWalk`] this is a no-op and events must be
    /// drained via [`drain_alloc_events`](Jvm::drain_alloc_events).
    pub fn drain_alloc_batches(
        &mut self,
        mut f: impl FnMut(&TraceTrie, &LoadedProgram, &AllocEventBuffer),
    ) {
        for t in &mut self.threads {
            if !t.events.is_empty() {
                f(&self.trace_trie, &self.program, &t.events);
                t.events.clear();
            }
        }
    }

    /// Advances the clock by mutator "think time" (per-operation work beyond
    /// interpretation), applying the collector's barrier tax.
    pub fn advance_mutator(&mut self, d: SimDuration) {
        let us = d.as_micros() * (1_000 + self.barrier_permille) / 1_000;
        self.clock.advance(SimDuration::from_micros(us));
    }

    /// Forces a full collection cycle and logs its pauses (workload phase
    /// boundaries; also what `System.gc()` would do).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Heap`] with
    /// [`HeapError::IntegrityViolation`](polm2_heap::HeapError::IntegrityViolation)
    /// if post-collection verification (`--verify-heap gc` or `full`) finds
    /// the heap inconsistent.
    pub fn force_collect(&mut self) -> Result<(), RuntimeError> {
        let mut roots = std::mem::take(&mut self.safepoint_scratch);
        roots.clear();
        for t in &self.threads {
            t.stack_roots_into(&mut roots);
        }
        let pauses = self
            .collector
            .collect(&mut self.heap, &polm2_gc::SafepointRoots::new(&roots));
        self.safepoint_scratch = roots;
        self.log_pauses(pauses);
        self.verify_at_safepoint(true)
    }

    /// Runs the heap's integrity verifier if the configured
    /// [`VerifyMode`](polm2_heap::VerifyMode) asks for it at this safepoint
    /// (`collected` = a collection just ran). Verification is read-only;
    /// trajectories are bit-identical at any mode.
    pub(crate) fn verify_at_safepoint(&mut self, collected: bool) -> Result<(), RuntimeError> {
        use polm2_heap::VerifyMode;
        let run = match self.config.heap.verify {
            VerifyMode::Off => false,
            VerifyMode::Gc => collected,
            VerifyMode::Full => true,
        };
        if run {
            self.heap.verify_integrity()?;
        }
        Ok(())
    }

    /// Committed memory as the collector reports it (C4 pre-reserves).
    pub fn reported_committed_bytes(&self) -> u64 {
        self.collector.reported_committed_bytes(&self.heap)
    }

    pub(crate) fn log_pauses(&mut self, pauses: Vec<PauseEvent>) {
        for p in pauses {
            let at = self.clock.now();
            self.clock.advance_paused(p.pause);
            self.gc_log.push(GcEvent {
                at,
                kind: p.kind,
                pause: p.pause,
                work: p.work,
            });
        }
    }

    /// Charges interpreted-instruction cost to the clock, with the barrier
    /// tax, accumulating sub-microsecond amounts.
    pub(crate) fn charge_ns(&mut self, ns: u64) {
        self.ns_debt += ns * (1_000 + self.barrier_permille) / 1_000;
        if self.ns_debt >= 1_000 {
            let us = self.ns_debt / 1_000;
            self.ns_debt %= 1_000;
            self.clock.advance(SimDuration::from_micros(us));
        }
    }
}
