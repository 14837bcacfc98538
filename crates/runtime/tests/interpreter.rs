//! End-to-end interpreter tests: programs with calls, branches, loops,
//! hooks, agents, and collections.

use std::cell::RefCell;
use std::rc::Rc;

use polm2_gc::{
    AllocOutcome, AllocRequest, Collector, GcConfig, GcError, Ng2cCollector, PauseEvent,
    SafepointRoots, ThreadId,
};
use polm2_heap::{GenId, Heap, ObjectId};
use polm2_metrics::SimDuration;
use polm2_runtime::{
    ClassDef, ClassTransformer, CodeLoc, CountSpec, HookAction, HookRegistry, Instr, Jvm,
    MethodDef, Program, RuntimeConfig, RuntimeError, SizeSpec,
};

/// Workload state for these tests.
#[derive(Debug, Default)]
struct TestState {
    inserts: u64,
    flag: bool,
}

fn kv_program() -> Program {
    // Store.put -> Cell.create (alloc) -> insert hook roots the cell.
    // Store.scratch allocates garbage.
    let mut p = Program::new();
    p.add_class(
        ClassDef::new("Store")
            .with_method(
                MethodDef::new("put")
                    .push(Instr::call("Cell", "create", 10))
                    .push(Instr::native("insert", 11)),
            )
            .with_method(MethodDef::new("scratch").push(Instr::alloc(
                "Temp",
                SizeSpec::Fixed(512),
                20,
            )))
            .with_method(MethodDef::new("mixed").push(Instr::Branch {
                cond: "flag".into(),
                then_block: vec![Instr::call("Store", "put", 31)],
                else_block: vec![Instr::call("Store", "scratch", 33)],
                line: 30,
            }))
            .with_method(MethodDef::new("batch").push(Instr::Repeat {
                count: CountSpec::Fixed(10),
                body: vec![Instr::call("Store", "scratch", 41)],
                line: 40,
            })),
    );
    p.add_class(
        ClassDef::new("Cell").with_method(MethodDef::new("create").push(Instr::alloc(
            "Cell",
            SizeSpec::Hook("cell_size".into()),
            5,
        ))),
    );
    p
}

fn hooks() -> HookRegistry {
    let mut h = HookRegistry::new();
    h.register_action("insert", |ctx| {
        let obj = ctx.acc.expect("cell allocated before insert");
        let slot = ctx.heap.roots_mut().create_slot("store");
        ctx.heap.roots_mut().push(slot, obj);
        ctx.state::<TestState>().inserts += 1;
        HookAction {
            cost: Some(SimDuration::from_micros(2)),
        }
    });
    h.register_cond("flag", |ctx| ctx.state::<TestState>().flag);
    h.register_size("cell_size", |_| 256);
    h
}

fn jvm() -> Jvm {
    Jvm::builder(RuntimeConfig::small())
        .hooks(hooks())
        .state(Box::new(TestState::default()))
        .build(kv_program())
        .expect("program loads")
}

#[test]
fn put_roots_object_and_scratch_dies() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    vm.invoke(t, "Store", "put").unwrap();
    vm.invoke(t, "Store", "scratch").unwrap();
    assert_eq!(vm.state_mut::<TestState>().inserts, 1);
    assert_eq!(vm.heap().stats().allocated_objects, 2);
    vm.force_collect().unwrap();
    // The inserted cell survives; the scratch buffer does not.
    assert_eq!(vm.heap().object_count(), 1);
}

#[test]
fn branch_follows_condition_hook() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    vm.state_mut::<TestState>().flag = true;
    vm.invoke(t, "Store", "mixed").unwrap();
    assert_eq!(vm.state_mut::<TestState>().inserts, 1);
    vm.state_mut::<TestState>().flag = false;
    vm.invoke(t, "Store", "mixed").unwrap();
    assert_eq!(
        vm.state_mut::<TestState>().inserts,
        1,
        "else branch allocates scratch only"
    );
    assert_eq!(vm.heap().stats().allocated_objects, 2);
}

#[test]
fn repeat_runs_body_n_times_and_scopes_locals() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    vm.invoke(t, "Store", "batch").unwrap();
    assert_eq!(vm.heap().stats().allocated_objects, 10);
    // Loop locals must not accumulate as stack roots: after the invoke
    // everything is garbage.
    vm.force_collect().unwrap();
    assert_eq!(vm.heap().object_count(), 0);
}

#[test]
fn clock_advances_with_work() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    let before = vm.now();
    for _ in 0..100 {
        vm.invoke(t, "Store", "put").unwrap();
    }
    assert!(vm.now() > before, "interpretation and hooks must cost time");
    assert!(vm.clock().mutator_time() > SimDuration::ZERO);
}

#[test]
fn gc_cycles_are_logged_under_churn() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    for _ in 0..5_000 {
        vm.invoke(t, "Store", "scratch").unwrap();
    }
    assert!(
        vm.gc_log().cycle_count() > 0,
        "churn must trigger collections"
    );
    assert!(vm.clock().pause_time() > SimDuration::ZERO);
    vm.heap().check_invariants();
}

#[test]
fn in_flight_objects_survive_collection_via_stack_roots() {
    // Cell.create allocates, then Store.put's frame holds the cell while
    // `insert` runs; a collection in between must not reclaim it. Force the
    // situation with a tiny young generation via mass allocation in a loop
    // of puts.
    let mut vm = jvm();
    let t = vm.spawn_thread();
    for _ in 0..3_000 {
        vm.invoke(t, "Store", "put").unwrap();
    }
    let inserts = vm.state_mut::<TestState>().inserts;
    assert_eq!(inserts, 3_000);
    vm.force_collect().unwrap();
    assert_eq!(
        vm.heap().object_count() as u64,
        inserts,
        "all inserted cells live"
    );
}

#[test]
fn recorder_style_transformer_sees_allocation_events() {
    struct RecorderAgent;
    impl ClassTransformer for RecorderAgent {
        fn name(&self) -> &str {
            "recorder"
        }
        fn transform(&mut self, class: &mut ClassDef) {
            for method in &mut class.methods {
                let mut body = Vec::new();
                for instr in method.body.drain(..) {
                    let line = instr.line();
                    let is_alloc = matches!(instr, Instr::Alloc { .. });
                    body.push(instr);
                    if is_alloc {
                        body.push(Instr::RecordAlloc { line });
                    }
                }
                method.body = body;
            }
        }
    }
    let mut vm = Jvm::builder(RuntimeConfig::small())
        .hooks(hooks())
        .state(Box::new(TestState::default()))
        .transformer(Box::new(RecorderAgent))
        .build(kv_program())
        .unwrap();
    let t = vm.spawn_thread();
    vm.invoke(t, "Store", "put").unwrap();
    vm.invoke(t, "Store", "scratch").unwrap();
    let events = vm.drain_alloc_events();
    assert_eq!(events.len(), 2);
    // The put's trace is Store.put -> Cell.create with the alloc line last.
    let trace: Vec<CodeLoc> = events[0]
        .trace
        .iter()
        .map(|&f| vm.program().code_loc(f))
        .collect();
    assert_eq!(trace.len(), 2);
    assert_eq!(trace[0], CodeLoc::new("Store", "put", 10));
    assert_eq!(trace[1], CodeLoc::new("Cell", "create", 5));
    // The event's hash matches the live object's header.
    let rec = vm.heap().object(events[0].object).unwrap();
    assert_eq!(rec.identity_hash(), events[0].hash);
    // Draining empties the buffer.
    assert!(vm.drain_alloc_events().is_empty());
}

#[test]
fn set_gen_instructions_drive_ng2c_pretenuring() {
    // Build a program where the allocation site is @Gen-annotated and the
    // caller sets the target generation — what the Instrumenter emits.
    let mut p = Program::new();
    p.add_class(
        ClassDef::new("App")
            .with_method(
                MethodDef::new("main")
                    .push(Instr::SetGen {
                        gen: polm2_heap::GenId::new(2),
                        line: 1,
                    })
                    .push(Instr::call("App", "make", 2))
                    .push(Instr::RestoreGen { line: 3 }),
            )
            .with_method(MethodDef::new("make").push(Instr::Alloc {
                class_name: "Block".into(),
                size: SizeSpec::Fixed(128),
                line: 9,
                pretenure: true,
            })),
    );
    let mut vm = Jvm::builder(RuntimeConfig::small())
        .collector(Box::new(Ng2cCollector::new(GcConfig::default())))
        .build(p)
        .unwrap();
    let gen = vm.new_generation();
    assert_eq!(gen, polm2_heap::GenId::new(2));
    let t = vm.spawn_thread();
    vm.invoke(t, "App", "main").unwrap();
    let obj = ObjectId::new(0);
    let rec = vm.heap().object(obj).expect("allocated");
    assert_eq!(
        rec.allocated_gen(),
        gen,
        "@Gen allocation must land in the target generation"
    );
}

#[test]
fn unbalanced_restore_gen_errors() {
    let mut p = Program::new();
    p.add_class(
        ClassDef::new("App")
            .with_method(MethodDef::new("main").push(Instr::RestoreGen { line: 1 })),
    );
    let mut vm = Jvm::builder(RuntimeConfig::small()).build(p).unwrap();
    let t = vm.spawn_thread();
    assert_eq!(
        vm.invoke(t, "App", "main"),
        Err(RuntimeError::UnbalancedRestoreGen)
    );
}

#[test]
fn recursion_hits_stack_limit() {
    let mut p = Program::new();
    p.add_class(
        ClassDef::new("App")
            .with_method(MethodDef::new("spin").push(Instr::call("App", "spin", 1))),
    );
    let mut vm = Jvm::builder(RuntimeConfig::small()).build(p).unwrap();
    let t = vm.spawn_thread();
    assert!(matches!(
        vm.invoke(t, "App", "spin"),
        Err(RuntimeError::StackOverflow { .. })
    ));
}

#[test]
fn unknown_entry_points_error() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    assert!(matches!(
        vm.invoke(t, "Nope", "x"),
        Err(RuntimeError::UnknownClass { .. })
    ));
    assert!(matches!(
        vm.invoke(t, "Store", "nope"),
        Err(RuntimeError::UnknownMethod { .. })
    ));
}

#[test]
fn hook_cost_advances_clock() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    let before = vm.clock().mutator_time();
    vm.invoke(t, "Store", "put").unwrap(); // insert hook costs 2us
    let spent = vm.clock().mutator_time() - before;
    assert!(spent >= SimDuration::from_micros(2));
}

/// Forwards to an inner collector, logging the stack roots handed to every
/// allocation and every target generation set.
#[derive(Debug)]
struct Spy {
    inner: Box<dyn Collector>,
    log: Rc<RefCell<SpyLog>>,
}

#[derive(Debug, Default)]
struct SpyLog {
    roots: Vec<Vec<ObjectId>>,
    gens: Vec<GenId>,
}

impl Collector for Spy {
    fn name(&self) -> &'static str {
        "spy"
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
        self.log
            .borrow_mut()
            .roots
            .push(roots.stack_roots().to_vec());
        self.inner.alloc(heap, req, roots)
    }

    fn collect(&mut self, heap: &mut Heap, roots: &SafepointRoots<'_>) -> Vec<PauseEvent> {
        self.inner.collect(heap, roots)
    }

    fn new_generation(&mut self, heap: &mut Heap) -> GenId {
        self.inner.new_generation(heap)
    }

    fn set_target_gen(&mut self, thread: ThreadId, gen: GenId) -> Result<GenId, GcError> {
        self.log.borrow_mut().gens.push(gen);
        self.inner.set_target_gen(thread, gen)
    }

    fn target_gen(&self, thread: ThreadId) -> GenId {
        self.inner.target_gen(thread)
    }
}

fn spied(program: Program) -> (Jvm, Rc<RefCell<SpyLog>>) {
    let log = Rc::new(RefCell::new(SpyLog::default()));
    let spy = Spy {
        inner: Box::new(Ng2cCollector::new(GcConfig::default())),
        log: Rc::clone(&log),
    };
    let vm = Jvm::builder(RuntimeConfig::small())
        .collector(Box::new(spy))
        .build(program)
        .expect("program loads");
    (vm, log)
}

fn obj(raw: u64) -> ObjectId {
    ObjectId::new(raw)
}

#[test]
fn an_untaken_branch_may_name_an_unregistered_hook() {
    let mut p = Program::new();
    p.add_class(
        ClassDef::new("App").with_method(MethodDef::new("main").push(Instr::Branch {
            cond: "flag".into(),
            then_block: vec![Instr::native("ghost", 2)],
            else_block: vec![Instr::alloc("X", SizeSpec::Fixed(16), 3)],
            line: 1,
        })),
    );
    let mut vm = Jvm::builder(RuntimeConfig::small())
        .hooks(hooks())
        .state(Box::new(TestState::default()))
        .build(p)
        .expect("an unregistered hook does not fail the build");
    let t = vm.spawn_thread();
    vm.invoke(t, "App", "main").unwrap();
    assert_eq!(vm.heap().stats().allocated_objects, 1);

    vm.state_mut::<TestState>().flag = true;
    assert_eq!(
        vm.invoke(t, "App", "main"),
        Err(RuntimeError::UnknownHook {
            hook: "ghost".into()
        })
    );
}

#[test]
fn safepoint_roots_are_each_frames_locals_then_its_acc() {
    // main allocates #0, loops twice over mid (which allocates and calls
    // leaf), then calls mid once more.
    let mut p = Program::new();
    p.add_class(
        ClassDef::new("App")
            .with_method(
                MethodDef::new("main")
                    .push(Instr::alloc("A", SizeSpec::Fixed(16), 1))
                    .push(Instr::Repeat {
                        count: CountSpec::Fixed(2),
                        body: vec![Instr::call("App", "mid", 3)],
                        line: 2,
                    })
                    .push(Instr::call("App", "mid", 4)),
            )
            .with_method(
                MethodDef::new("mid")
                    .push(Instr::alloc("B", SizeSpec::Fixed(16), 10))
                    .push(Instr::call("App", "leaf", 11)),
            )
            .with_method(MethodDef::new("leaf").push(Instr::alloc("C", SizeSpec::Fixed(16), 20))),
    );
    let (mut vm, log) = spied(p);
    let t = vm.spawn_thread();
    vm.invoke(t, "App", "main").unwrap();

    // One thread, so each safepoint's roots are exactly that thread's
    // stack roots: per frame, outermost first, its locals then its acc.
    let frames = |frames: &[(&[u64], Option<u64>)]| -> Vec<ObjectId> {
        let mut out = Vec::new();
        for (locals, acc) in frames {
            out.extend(locals.iter().map(|&o| obj(o)));
            out.extend(acc.map(obj));
        }
        out
    };
    let expected = vec![
        // #0 in main: an empty stack.
        frames(&[(&[], None)]),
        // #1 in mid, first iteration.
        frames(&[(&[0], Some(0)), (&[], None)]),
        // #2 in leaf.
        frames(&[(&[0], Some(0)), (&[1], Some(1)), (&[], None)]),
        // #3 in mid, second iteration: the first iteration's result (#2)
        // left main's locals with the loop body, not its acc.
        frames(&[(&[0], Some(2)), (&[], None)]),
        // #4 in leaf.
        frames(&[(&[0], Some(2)), (&[3], Some(3)), (&[], None)]),
        // #5 in mid, after the loop.
        frames(&[(&[0], Some(4)), (&[], None)]),
        // #6 in leaf.
        frames(&[(&[0], Some(4)), (&[5], Some(5)), (&[], None)]),
    ];
    assert_eq!(log.borrow().roots, expected);

    // The invocation unwound everything.
    let thread = &vm.threads()[t.raw() as usize];
    assert_eq!(thread.depth(), 0);
    let mut rest = Vec::new();
    thread.stack_roots_into(&mut rest);
    assert!(rest.is_empty());
}

#[test]
fn a_callee_error_unwinds_only_the_callees_frame_state() {
    // main holds an object and a saved generation, then calls a callee
    // that allocates, sets its own generation, and fails.
    let mut p = Program::new();
    p.add_class(
        ClassDef::new("App")
            .with_method(
                MethodDef::new("main")
                    .push(Instr::alloc("A", SizeSpec::Fixed(16), 1))
                    .push(Instr::SetGen {
                        gen: GenId::new(2),
                        line: 2,
                    })
                    .push(Instr::call("App", "risky", 3))
                    .push(Instr::RestoreGen { line: 4 }),
            )
            .with_method(
                MethodDef::new("risky")
                    .push(Instr::alloc("B", SizeSpec::Fixed(16), 10))
                    .push(Instr::SetGen {
                        gen: GenId::new(3),
                        line: 11,
                    })
                    .push(Instr::alloc("C", SizeSpec::Fixed(16), 12))
                    .push(Instr::native("boom", 13)),
            )
            // Restores a generation it never saved; its caller's saved one
            // is not its to pop.
            .with_method(MethodDef::new("overreach").push(Instr::RestoreGen { line: 20 }))
            .with_method(
                MethodDef::new("guarded")
                    .push(Instr::alloc("D", SizeSpec::Fixed(16), 30))
                    .push(Instr::SetGen {
                        gen: GenId::new(2),
                        line: 31,
                    })
                    .push(Instr::call("App", "overreach", 32)),
            ),
    );
    let (mut vm, log) = spied(p);
    assert_eq!(vm.new_generation(), GenId::new(2));
    assert_eq!(vm.new_generation(), GenId::new(3));
    let t = vm.spawn_thread();

    assert_eq!(
        vm.invoke(t, "App", "risky").map_err(|e| e.to_string()),
        Err("unknown hook boom".to_string())
    );
    log.borrow_mut().roots.clear();
    log.borrow_mut().gens.clear();

    assert!(matches!(
        vm.invoke(t, "App", "main"),
        Err(RuntimeError::UnknownHook { .. })
    ));
    {
        let log = log.borrow();
        // The failed first invocation left nothing behind: main starts on
        // an empty stack, and the callee's allocations see main's #2.
        assert_eq!(
            log.roots,
            vec![
                vec![],
                vec![obj(2), obj(2)],
                vec![obj(2), obj(2), obj(3), obj(3)]
            ]
        );
        // Set 2 (main), set 3 (risky); the callee's pop restores 2, then
        // main's pop restores young.
        assert_eq!(
            log.gens,
            vec![GenId::new(2), GenId::new(3), GenId::new(2), GenId::YOUNG]
        );
    }
    assert_eq!(vm.collector().target_gen(t), GenId::YOUNG);
    assert_eq!(vm.threads()[t.raw() as usize].depth(), 0);

    assert_eq!(
        vm.invoke(t, "App", "guarded"),
        Err(RuntimeError::UnbalancedRestoreGen)
    );
    assert_eq!(vm.collector().target_gen(t), GenId::YOUNG);
}

#[test]
fn without_record_alloc_the_trace_trie_stays_at_its_root() {
    let mut vm = jvm();
    let t = vm.spawn_thread();
    for i in 0..2_000 {
        vm.state_mut::<TestState>().flag = i % 3 == 0;
        vm.invoke(t, "Store", "mixed").unwrap();
        vm.invoke(t, "Store", "batch").unwrap();
    }
    assert!(vm.gc_log().cycle_count() > 0);
    assert!(!vm.program().records_allocs());
    assert!(vm.trace_trie().is_empty(), "no context was ever recorded");
    assert!(!vm.has_pending_alloc_events());
}
