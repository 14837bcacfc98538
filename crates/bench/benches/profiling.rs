//! Criterion benches: the profiling-phase components (Recorder ingestion,
//! STTree conflict machinery, the Analyzer pipeline) — the paper's concern
//! that profiling must not disrupt the application, measured in host time.

use criterion::{criterion_group, criterion_main, Criterion};

use polm2_core::{AllocationRecords, Analyzer, AnalyzerConfig, Recorder, SttTree};
use polm2_heap::{GenId, Heap, HeapConfig, IdentityHash, ObjectId};
use polm2_metrics::{SimDuration, SimTime};
use polm2_runtime::{
    AllocEventBuffer, ClassDef, CodeLoc, Instr, LoadedProgram, Loader, MethodDef, Program,
    SizeSpec, TraceFrame, TraceNodeId, TraceTrie,
};
use polm2_snapshot::{Snapshot, SnapshotSeries};

/// A loaded program with `A.m` (allocating at line 1) and `A.n` (calling
/// `m` at line 2): trace frames resolve at class 0, methods 0 and 1.
fn loaded_program() -> LoadedProgram {
    let mut program = Program::new();
    program.add_class(
        ClassDef::new("A")
            .with_method(MethodDef::new("m").push(Instr::alloc("X", SizeSpec::Fixed(8), 1)))
            .with_method(MethodDef::new("n").push(Instr::call("A", "m", 2))),
    );
    let mut heap = Heap::new(HeapConfig::small());
    Loader::load(program, &mut [], &mut heap).expect("load")
}

fn recorder_ingest(c: &mut Criterion) {
    let loaded = loaded_program();
    // Seven call lines into one allocation frame: seven trie nodes.
    let mut trie = TraceTrie::new();
    let nodes: Vec<TraceNodeId> = (0..7u32)
        .map(|line| {
            let caller = TraceFrame {
                class_idx: 0,
                method_idx: 1,
                line,
            };
            let site = TraceFrame {
                class_idx: 0,
                method_idx: 0,
                line: 1,
            };
            let context = trie.child(TraceNodeId::ROOT, caller);
            trie.child(context, site)
        })
        .collect();
    let mut batch = AllocEventBuffer::new();
    for i in 0..10_000u64 {
        batch.push(
            nodes[i as usize % nodes.len()],
            IdentityHash::of(ObjectId::new(i)),
        );
    }
    c.bench_function("recorder_ingest_10k_events", |b| {
        b.iter(|| {
            let mut recorder = Recorder::new();
            recorder.ingest(&trie, &loaded, &batch);
            let total = recorder.records().total_records();
            total
        })
    });
}

fn sttree_conflicts(c: &mut Criterion) {
    c.bench_function("sttree_build_detect_solve_200_paths", |b| {
        b.iter(|| {
            let mut tree = SttTree::new();
            let shared = CodeLoc::new("Helper", "alloc", 9);
            for i in 0..200u32 {
                tree.insert_path(
                    &[
                        CodeLoc::new("App", "op", i),
                        CodeLoc::new("Mid", "call", 5),
                        shared.clone(),
                    ],
                    GenId::new(i % 3),
                );
            }
            let conflicts = tree.detect_conflicts();
            tree.solve_conflicts(&conflicts).len()
        })
    });
}

fn analyzer_pipeline(c: &mut Criterion) {
    let loaded = loaded_program();
    let trace = [
        TraceFrame {
            class_idx: 0,
            method_idx: 1,
            line: 2,
        },
        TraceFrame {
            class_idx: 0,
            method_idx: 0,
            line: 1,
        },
    ];
    let mut records = AllocationRecords::default();
    for i in 0..50_000u64 {
        records.record(&trace, IdentityHash::of(ObjectId::new(i)));
    }

    let mut series = SnapshotSeries::new();
    for s in 0..30u32 {
        let hashes = (0..50_000u64)
            .filter(|i| i % 5 >= (s % 5) as u64)
            .map(|i| IdentityHash::of(ObjectId::new(i)))
            .collect();
        series.push(Snapshot::new(
            s,
            SimTime::from_secs(u64::from(s)),
            hashes,
            4096,
            SimDuration::from_millis(1),
        ));
    }

    c.bench_function("analyzer_50k_records_30_snapshots", |b| {
        b.iter(|| {
            Analyzer::new(AnalyzerConfig::default())
                .analyze(&records, &series, &loaded)
                .profile
                .sites()
                .len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = recorder_ingest, sttree_conflicts, analyzer_pipeline
}
criterion_main!(benches);
