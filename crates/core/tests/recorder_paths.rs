//! The Recorder checked against an independent oracle, plus golden
//! fingerprints of full profiling sessions.
//!
//! The oracle never looks at the runtime's frame stack or trace trie. A walk
//! of the source `Program` gives every invocation's allocation paths as
//! `CodeLoc`s (caller frames at their call lines, the site at its alloc
//! line); a forwarding `Collector` logs each thread's allocation hashes in
//! order; and the drain schedule (threads in order at each drain) interleaves
//! the two. The records must match it trace by trace: trace-id order,
//! resolved paths and identity-hash streams.
//!
//! The golden fingerprints pin full sessions — fault-free and under chaos —
//! to what the recorder produced before fault injection moved onto the
//! columnar batch: the rendered profile's CRC-32, a CRC-32 of the lifetimes'
//! debug form, and the literal fault ledgers. Fault draws happen in event
//! order, so any change to the drain order, the draw sequence or ingest
//! moves at least one of them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use polm2_core::{
    AnalysisOutcome, AnalyzerConfig, FaultConfig, InjectedFaults, ProfilingSession, Recorder,
    SnapshotPolicy,
};
use polm2_gc::{
    AllocOutcome, AllocRequest, Collector, G1Collector, GcConfig, GcError, PauseEvent,
    SafepointRoots, ThreadId,
};
use polm2_heap::{GenId, Heap, IdentityHash};
use polm2_metrics::FaultCounters;
use polm2_runtime::{
    ClassDef, CodeLoc, HookAction, HookRegistry, Instr, Jvm, MethodDef, Program, RuntimeConfig,
    SizeSpec,
};
use polm2_snapshot::journal::crc32;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A seeded random call graph: methods allocate and call strictly-later
/// methods (a DAG, so depth is bounded), with lines drawn from the rng.
fn random_program(seed: u64) -> Program {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let classes = 2 + (xorshift(&mut rng) % 3) as usize;
    let methods = 3 + (xorshift(&mut rng) % 3) as usize;
    let total = classes * methods;
    let mut program = Program::new();
    for c in 0..classes {
        let mut class = ClassDef::new(format!("Class{c}"));
        for m in 0..methods {
            let idx = c * methods + m;
            let mut method = MethodDef::new(format!("method{m}"));
            let allocs = 1 + (xorshift(&mut rng) % 2);
            for _ in 0..allocs {
                method = method.push(Instr::alloc(
                    "Obj",
                    SizeSpec::Fixed(16 + (xorshift(&mut rng) % 48) as u32),
                    1 + (xorshift(&mut rng) % 30) as u32,
                ));
            }
            // Up to two calls, each to a method strictly later in the
            // flattened order — no recursion, bounded depth.
            for _ in 0..(xorshift(&mut rng) % 3) {
                if idx + 1 >= total {
                    break;
                }
                let target = idx + 1 + (xorshift(&mut rng) as usize % (total - idx - 1));
                method = method.push(Instr::call(
                    format!("Class{}", target / methods),
                    format!("method{}", target % methods),
                    1 + (xorshift(&mut rng) % 30) as u32,
                ));
            }
            class = class.with_method(method);
        }
        program.add_class(class);
    }
    program
}

/// A chain of `depth` methods, each calling the next; the innermost
/// allocates. Exercises deep stacks near `max_stack_depth`.
fn deep_program(depth: usize) -> Program {
    let mut class = ClassDef::new("Deep");
    for i in 0..depth {
        let mut method = MethodDef::new(format!("m{i}"));
        if i + 1 < depth {
            method = method.push(Instr::call("Deep", format!("m{}", i + 1), i as u32 + 1));
        } else {
            method = method.push(Instr::alloc("Leaf", SizeSpec::Fixed(32), 999));
        }
        class = class.with_method(method);
    }
    let mut program = Program::new();
    program.add_class(class);
    program
}

/// Appends to `out` the allocation paths one invocation of `class.method`
/// takes, in execution order, read straight off the source program:
/// `callers` (each frozen at its call line), then the site at its alloc
/// line.
fn alloc_paths(
    program: &Program,
    class: &str,
    method: &str,
    callers: &mut Vec<CodeLoc>,
    out: &mut Vec<Vec<CodeLoc>>,
) {
    let body = &program
        .class(class)
        .and_then(|c| c.method(method))
        .expect("invoked method exists")
        .body;
    for instr in body {
        match instr {
            Instr::Alloc { line, .. } => {
                let mut path = callers.clone();
                path.push(CodeLoc::new(class, method, *line));
                out.push(path);
            }
            Instr::Call {
                class: callee,
                method: callee_method,
                line,
            } => {
                callers.push(CodeLoc::new(class, method, *line));
                alloc_paths(program, callee, callee_method, callers, out);
                callers.pop();
            }
            other => panic!("the generators emit only allocs and calls, not {other:?}"),
        }
    }
}

/// Forwards to a real collector and logs, per thread, the identity hash of
/// every object it hands out: the order the Recorder must see them in.
#[derive(Debug)]
struct HashLog {
    inner: Box<dyn Collector>,
    hashes: Rc<RefCell<Vec<Vec<IdentityHash>>>>,
}

impl Collector for HashLog {
    fn name(&self) -> &'static str {
        "hash-log"
    }

    fn attach(&mut self, heap: &mut Heap) {
        self.inner.attach(heap);
    }

    fn alloc(
        &mut self,
        heap: &mut Heap,
        req: AllocRequest,
        roots: &SafepointRoots<'_>,
    ) -> Result<AllocOutcome, GcError> {
        let thread = req.thread.raw() as usize;
        let outcome = self.inner.alloc(heap, req, roots)?;
        let hash = heap
            .object(outcome.object)
            .expect("freshly allocated object")
            .identity_hash();
        let mut hashes = self.hashes.borrow_mut();
        if hashes.len() <= thread {
            hashes.resize(thread + 1, Vec::new());
        }
        hashes[thread].push(hash);
        Ok(outcome)
    }

    fn collect(&mut self, heap: &mut Heap, roots: &SafepointRoots<'_>) -> Vec<PauseEvent> {
        self.inner.collect(heap, roots)
    }

    fn new_generation(&mut self, heap: &mut Heap) -> GenId {
        self.inner.new_generation(heap)
    }

    fn set_target_gen(&mut self, thread: ThreadId, gen: GenId) -> Result<GenId, GcError> {
        self.inner.set_target_gen(thread, gen)
    }

    fn target_gen(&self, thread: ThreadId) -> GenId {
        self.inner.target_gen(thread)
    }
}

/// Per trace id, in id order: the resolved path and the hash stream.
type Traces = Vec<(Vec<CodeLoc>, Vec<IdentityHash>)>;

/// The expected records for an event stream: traces numbered in first-seen
/// order, each with its hashes in event order.
fn oracle_traces(events: &[(Vec<CodeLoc>, IdentityHash)]) -> Traces {
    let mut index: HashMap<&[CodeLoc], usize> = HashMap::new();
    let mut traces: Traces = Vec::new();
    for (path, hash) in events {
        let i = *index.entry(path).or_insert_with(|| {
            traces.push((path.clone(), Vec::new()));
            traces.len() - 1
        });
        traces[i].1.push(*hash);
    }
    traces
}

/// Runs `program` on two threads, draining every `stride` operations (and
/// once at the end), and checks the records against the oracle. The op
/// sequence is a pure function of `seed`. Returns the number of records.
fn check_against_oracle(
    program: Program,
    entries: &[(String, String)],
    seed: u64,
    ops: usize,
    stride: usize,
) -> u64 {
    let hashes = Rc::new(RefCell::new(Vec::new()));
    let collector = HashLog {
        inner: Box::new(G1Collector::new(GcConfig::default())),
        hashes: Rc::clone(&hashes),
    };
    let mut recorder = Recorder::new();
    let mut jvm = Jvm::builder(RuntimeConfig::small())
        .collector(Box::new(collector))
        .transformer(recorder.agent())
        .build(program.clone())
        .expect("boot");
    let threads = [jvm.spawn_thread(), jvm.spawn_thread()];

    // Per thread, the oracle's paths not yet drained and how many of the
    // thread's logged hashes earlier drains consumed.
    let mut undrained: [Vec<Vec<CodeLoc>>; 2] = Default::default();
    let mut consumed = [0usize; 2];
    let mut expected: Vec<(Vec<CodeLoc>, IdentityHash)> = Vec::new();
    let mut drain = |jvm: &mut Jvm, undrained: &mut [Vec<Vec<CodeLoc>>; 2]| {
        let mut dropped = 0;
        jvm.drain_alloc_batches(|trie, program, batch| {
            dropped += recorder.ingest(trie, program, batch);
        });
        assert_eq!(dropped, 0, "no corrupt events");
        let hashes = hashes.borrow();
        for (t, paths) in undrained.iter_mut().enumerate() {
            let logged = hashes.get(t).map_or(&[][..], |h| &h[consumed[t]..]);
            assert_eq!(paths.len(), logged.len(), "one hash per allocation path");
            expected.extend(paths.drain(..).zip(logged.iter().copied()));
            consumed[t] += logged.len();
        }
    };

    let mut rng = seed | 1;
    for op in 0..ops {
        let t = (xorshift(&mut rng) % 2) as usize;
        let (class, method) = &entries[xorshift(&mut rng) as usize % entries.len()];
        jvm.invoke(threads[t], class, method).expect("invoke");
        alloc_paths(&program, class, method, &mut Vec::new(), &mut undrained[t]);
        if (op + 1) % stride == 0 {
            drain(&mut jvm, &mut undrained);
        }
    }
    drain(&mut jvm, &mut undrained);
    assert!(!jvm.has_pending_alloc_events());

    let records = recorder.into_records().expect("sole owner");
    let actual: Traces = records
        .trace_ids()
        .map(|id| {
            (
                records.resolve_trace(id, jvm.program()),
                records.stream(id).to_vec(),
            )
        })
        .collect();
    assert_eq!(actual, oracle_traces(&expected));
    assert_eq!(records.total_records(), expected.len() as u64);
    records.total_records()
}

#[test]
fn seeded_random_sessions_match_the_oracle_at_every_drain_stride() {
    for seed in [1u64, 42, 0xdead_beef] {
        let program = random_program(seed);
        let entries: Vec<(String, String)> = program
            .classes()
            .iter()
            .map(|c| (c.name.clone(), c.methods[0].name.clone()))
            .collect();
        // Every-op, ragged, and finish-only (stride > ops) drains.
        for stride in [1usize, 7, usize::MAX] {
            let records = check_against_oracle(program.clone(), &entries, seed, 120, stride);
            assert!(records > 0, "seed {seed}: trivial workload");
        }
    }
}

#[test]
fn deep_recursion_matches_the_oracle() {
    // A 200-deep chain under the default max_stack_depth of 256: one unique
    // 200-frame trace.
    let entries = vec![("Deep".to_string(), "m0".to_string())];
    assert_eq!(
        check_against_oracle(deep_program(200), &entries, 9, 40, 3),
        40
    );
}

// ---------------------------------------------------------------------------
// Golden fingerprints: full profiling sessions (drains inside `after_op`,
// snapshots, analysis), fault-free and under chaos.
// ---------------------------------------------------------------------------

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
    p.add_class(
        ClassDef::new("Cell").with_method(MethodDef::new("create").push(Instr::alloc(
            "Cell",
            SizeSpec::Fixed(1024),
            5,
        ))),
    );
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

/// What a session's golden fingerprint pins: the rendered profile's
/// CRC-32, a CRC-32 of the lifetimes' debug form, the detected fault
/// ledger and the injected ground truth.
type Golden = (u32, u32, FaultCounters, Option<InjectedFaults>);

fn run_session(faults: Option<FaultConfig>) -> (AnalysisOutcome, Golden) {
    let mut session = match faults {
        Some(f) => ProfilingSession::with_faults(SnapshotPolicy::default(), f),
        None => ProfilingSession::new(SnapshotPolicy::default()),
    };
    let mut jvm = Jvm::builder(RuntimeConfig::small())
        .hooks(workload_hooks())
        .transformer(session.recorder_agent())
        .build(workload_program())
        .expect("boot");
    let t = jvm.spawn_thread();
    for batch in 0..9 {
        for _ in 0..300 {
            jvm.invoke(t, "Store", "put").expect("put");
            for _ in 0..8 {
                jvm.invoke(t, "Store", "scratch").expect("scratch");
            }
            session.after_op(&mut jvm).expect("after_op");
        }
        if batch % 3 == 2 {
            jvm.invoke(t, "Store", "flush").expect("flush");
        }
    }
    let injected = session.injected_faults();
    let report = session
        .finish(&mut jvm, &AnalyzerConfig::default())
        .expect("finish");
    let outcome = report.outcome;
    let golden = (
        crc32(outcome.profile.to_string().as_bytes()),
        crc32(format!("{:?}", outcome.lifetimes).as_bytes()),
        report.counters,
        injected,
    );
    (outcome, golden)
}

#[test]
fn fault_free_session_matches_its_golden_fingerprint() {
    let (outcome, golden) = run_session(None);
    assert!(
        !outcome.profile.is_empty(),
        "workload produces a real profile"
    );
    assert_eq!(
        golden,
        (0x1ddc_e91b, 0xb83d_cfc3, FaultCounters::new(), None)
    );
}

#[test]
fn chaos_sessions_match_their_golden_fingerprints() {
    let seed_11 = (
        0x1ddc_e91b,
        0x085b_1df3,
        FaultCounters {
            snapshots_failed: 2,
            snapshot_retries: 2,
            records_dropped_corrupt: 2162,
            ..FaultCounters::new()
        },
        Some(InjectedFaults {
            snapshot_failures: 2,
            snapshots_truncated: 1,
            hashes_lost: 310,
            records_dropped: 2440,
            records_duplicated: 1988,
            records_corrupted: 2162,
            ..InjectedFaults::default()
        }),
    );
    let seed_23 = (
        0x1ddc_e91b,
        0x257b_008f,
        FaultCounters {
            snapshots_failed: 4,
            snapshot_retries: 4,
            records_dropped_corrupt: 2134,
            ..FaultCounters::new()
        },
        Some(InjectedFaults {
            snapshot_failures: 4,
            snapshots_truncated: 6,
            hashes_lost: 1502,
            records_dropped: 2467,
            records_duplicated: 2003,
            records_corrupted: 2134,
            ..InjectedFaults::default()
        }),
    );
    for (fault_seed, expected) in [(11u64, seed_11), (23, seed_23)] {
        let (_, golden) = run_session(Some(FaultConfig::all_at(0.10, fault_seed)));
        assert_eq!(golden, expected, "fault seed {fault_seed}");
    }
}
