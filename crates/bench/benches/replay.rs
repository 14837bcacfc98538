//! Criterion benches for the Analyzer's replay path (the columnar survival
//! table) and the snapshot series build that maintains it, for interactive
//! profiling. `polm2-benchmark` is the end-to-end regression gate.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use polm2_core::{AllocationRecords, Analyzer, AnalyzerConfig};
use polm2_heap::{Heap, HeapConfig, IdentityHash, ObjectId};
use polm2_metrics::{SimDuration, SimTime};
use polm2_runtime::{
    ClassDef, Instr, LoadedProgram, Loader, MethodDef, Program, SizeSpec, TraceFrame,
};
use polm2_snapshot::{Snapshot, SnapshotSeries};

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// 100k records over 512 traces, 32 snapshots with per-trace lifespan bias.
fn build_inputs() -> (AllocationRecords, Vec<Snapshot>, LoadedProgram) {
    const CLASSES: usize = 32;
    const METHODS: usize = 8;
    const RECORDS: u64 = 100_000;
    const SNAPSHOTS: u32 = 32;
    let mut rng = 0x5eed_0000_0000_0001u64;
    let mut program = Program::new();
    for c in 0..CLASSES {
        let mut class = ClassDef::new(format!("Class{c}"));
        for m in 0..METHODS {
            class = class.with_method(MethodDef::new(format!("method{m}")).push(Instr::alloc(
                "Obj",
                SizeSpec::Fixed(32),
                1,
            )));
        }
        program.add_class(class);
    }
    let mut heap = Heap::new(HeapConfig::small());
    let loaded = Loader::load(program, &mut [], &mut heap).expect("load");

    let traces: Vec<Vec<TraceFrame>> = (0..512)
        .map(|_| {
            let depth = 1 + (xorshift(&mut rng) % 5) as usize;
            (0..depth)
                .map(|_| TraceFrame {
                    class_idx: (xorshift(&mut rng) % CLASSES as u64) as u16,
                    method_idx: (xorshift(&mut rng) % METHODS as u64) as u16,
                    line: 1 + (xorshift(&mut rng) % 60) as u32,
                })
                .collect()
        })
        .collect();
    let biases: Vec<u64> = (0..traces.len())
        .map(|_| xorshift(&mut rng) % (u64::from(SNAPSHOTS) + 1))
        .collect();

    let mut records = AllocationRecords::default();
    let mut live: Vec<Vec<IdentityHash>> = vec![Vec::new(); SNAPSHOTS as usize];
    for object in 0..RECORDS {
        let t = (xorshift(&mut rng) % traces.len() as u64) as usize;
        let hash = IdentityHash::of(ObjectId::new(object + 1));
        records.record(&traces[t], hash);
        let jitter = xorshift(&mut rng) % 4;
        let lifespan = (biases[t] + jitter).min(u64::from(SNAPSHOTS));
        for snap in live.iter_mut().take(lifespan as usize) {
            snap.push(hash);
        }
    }
    let snapshots = live
        .into_iter()
        .enumerate()
        .map(|(seq, hashes)| {
            Snapshot::new(
                seq as u32,
                SimTime::from_secs(seq as u64),
                hashes.iter().copied().collect(),
                4096,
                SimDuration::from_millis(1),
            )
        })
        .collect();
    (records, snapshots, loaded)
}

fn replay(c: &mut Criterion) {
    let (records, snapshots, loaded) = build_inputs();
    let series: SnapshotSeries = snapshots.into_iter().collect();
    let analyzer = Analyzer::new(AnalyzerConfig {
        min_survivals: 1,
        ..AnalyzerConfig::default()
    });
    c.bench_function("replay_merge_seq", |b| {
        b.iter(|| {
            analyzer
                .analyze(&records, &series, &loaded)
                .profile
                .sites()
                .len()
        })
    });
}

fn index_build(c: &mut Criterion) {
    let (_, snapshots, _) = build_inputs();
    c.bench_function("snapshot_series_build_and_accumulate", |b| {
        b.iter_batched(
            || snapshots.clone(),
            |snapshots| {
                let series: SnapshotSeries = snapshots.into_iter().collect();
                series.index().survival_counts().len()
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = replay, index_build
}
criterion_main!(benches);
