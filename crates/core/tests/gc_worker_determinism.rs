//! End-to-end determinism contract for parallel GC: `gc_workers` is a pure
//! performance knob, so a full profiling session — interpreter, collector,
//! recorder, snapshots, analysis — must produce a bit-identical
//! [`AnalysisOutcome`] at any worker count, including under seeded fault
//! injection (the chaos faults are deterministic per seed, so divergence can
//! only come from the collector reordering or re-weighing its work).
//!
//! The collector-level trajectory check lives in
//! `crates/gc/tests/worker_determinism.rs`.

use polm2_core::{AnalysisOutcome, AnalyzerConfig, FaultConfig, ProfilingSession, SnapshotPolicy};
use polm2_heap::{BackendKind, ParallelTuning, VerifyMode};
use polm2_runtime::{
    ClassDef, HookAction, HookRegistry, Instr, Jvm, MethodDef, Program, RuntimeConfig, SizeSpec,
};

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

/// Heap-verification mode for every session in this suite, from the
/// `POLM2_VERIFY_HEAP` environment variable (`scripts/check.sh` re-runs the
/// whole suite with `gc` set). Verification is read-only, so every
/// bit-identity assertion below must hold unchanged at any mode.
fn env_verify_mode() -> VerifyMode {
    match std::env::var("POLM2_VERIFY_HEAP").as_deref() {
        Ok("gc") => VerifyMode::Gc,
        Ok("full") => VerifyMode::Full,
        _ => VerifyMode::Off,
    }
}

/// One full profiling session at the given GC worker count; `fault_seed`
/// `Some(s)` runs it as a chaos session with every fault class enabled.
fn run_profiling(gc_workers: usize, fault_seed: Option<u64>) -> AnalysisOutcome {
    run_profiling_on(gc_workers, fault_seed, BackendKind::Sim, env_verify_mode())
}

fn run_profiling_on(
    gc_workers: usize,
    fault_seed: Option<u64>,
    backend: BackendKind,
    verify: VerifyMode,
) -> AnalysisOutcome {
    let mut session = match fault_seed {
        Some(seed) => ProfilingSession::with_faults(
            SnapshotPolicy::default(),
            FaultConfig {
                record_duplicate_rate: 0.0,
                ..FaultConfig::all_at(0.10, seed)
            },
        ),
        None => ProfilingSession::new(SnapshotPolicy::default()),
    };
    let mut jvm = Jvm::builder(
        RuntimeConfig::small()
            .with_gc_workers(gc_workers)
            .with_heap_backend(backend)
            .with_verify_heap(verify),
    )
    .hooks(workload_hooks())
    .transformer(session.recorder_agent())
    .build(workload_program())
    .expect("boot");
    // The small-heap session stays under the production break-even
    // thresholds; force them to zero so multi-worker runs genuinely take
    // the parallel mark/evacuate paths this contract is about.
    jvm.heap_mut().set_parallel_tuning(ParallelTuning::force());
    let t = jvm.spawn_thread();
    for batch in 0..6 {
        for _ in 0..200 {
            jvm.invoke(t, "Store", "put").expect("put");
            for _ in 0..4 {
                jvm.invoke(t, "Store", "scratch").expect("scratch");
            }
            session.after_op(&mut jvm).expect("after_op absorbs faults");
        }
        if batch % 3 == 2 {
            jvm.invoke(t, "Store", "flush").expect("flush");
        }
    }
    session
        .finish(&mut jvm, &AnalyzerConfig::default())
        .expect("finish")
        .outcome
}

#[test]
fn profiles_are_bit_identical_across_gc_worker_counts() {
    let baseline = run_profiling(1, None);
    assert!(
        !baseline.lifetimes.traces().is_empty(),
        "workload produced a trivial profile"
    );
    for workers in [2usize, 4, 8] {
        assert_eq!(
            run_profiling(workers, None),
            baseline,
            "profile diverged at gc_workers={workers}"
        );
    }
}

#[test]
fn profiles_are_bit_identical_on_the_real_memory_backend() {
    let baseline = run_profiling(1, None);
    for workers in [1usize, 2, 4] {
        assert_eq!(
            run_profiling_on(workers, None, BackendKind::Real, env_verify_mode()),
            baseline,
            "real-backend profile diverged at gc_workers={workers}"
        );
    }
}

/// Safepoint verification is observation, not participation: enabling it at
/// any mode, on either backend, at any worker count, must leave the profile
/// bit-identical to a run with it off.
#[test]
fn profiles_are_bit_identical_with_verification_enabled() {
    let baseline = run_profiling_on(1, None, BackendKind::Sim, VerifyMode::Off);
    for backend in [BackendKind::Sim, BackendKind::Real] {
        for verify in [VerifyMode::Gc, VerifyMode::Full] {
            for workers in [1usize, 4] {
                assert_eq!(
                    run_profiling_on(workers, None, backend, verify),
                    baseline,
                    "profile diverged with verify={verify:?} backend={backend:?} workers={workers}"
                );
            }
        }
    }
}

#[test]
fn chaos_profiles_are_bit_identical_across_gc_worker_counts() {
    for fault_seed in [11u64, 23] {
        let baseline = run_profiling(1, Some(fault_seed));
        for workers in [2usize, 4, 8] {
            assert_eq!(
                run_profiling(workers, Some(fault_seed)),
                baseline,
                "fault seed {fault_seed}: chaos profile diverged at gc_workers={workers}"
            );
        }
    }
}
