//! The Analyzer's per-trace lifetime statistics checked against a
//! brute-force oracle: for every recorded object, count the test's own
//! snapshots containing its hash (one membership probe per snapshot — the
//! seed's replay, kept here as the test-side oracle, never read through a
//! series or its index), then recount each trace's histogram, object count
//! and median survival from scratch. The Analyzer reads the same counts off
//! the snapshot index's merged survival table instead; any disagreement is
//! a replay bug.
//!
//! `proptest` is not available offline, so the generator is a hand-rolled
//! deterministic xorshift: each seed yields one reproducible random workload
//! (program shape, trace depths, object counts, lifespans), and the property
//! is checked across a spread of seeds.

use std::collections::BTreeMap;

use polm2_core::{AllocationRecords, AnalysisOutcome, Analyzer, AnalyzerConfig};
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

/// One seeded random workload: a loaded program plus records and snapshots
/// generated directly (no JVM run needed — the Analyzer only sees these).
fn random_workload(seed: u64) -> (AllocationRecords, Vec<Snapshot>, LoadedProgram) {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let classes = 3 + (xorshift(&mut rng) % 4) as usize;
    let methods = 2 + (xorshift(&mut rng) % 4) as usize;
    let mut program = Program::new();
    for c in 0..classes {
        let mut class = ClassDef::new(format!("Class{c}"));
        for m in 0..methods {
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

    let snapshot_count = 2 + (xorshift(&mut rng) % 15) as u32;
    let traces = 8 + (xorshift(&mut rng) % 40) as usize;
    let mut records = AllocationRecords::default();
    let mut live: Vec<Vec<IdentityHash>> = vec![Vec::new(); snapshot_count as usize];
    let mut next_object = 0u64;
    for _ in 0..traces {
        let depth = 1 + (xorshift(&mut rng) % 4) as usize;
        let trace: Vec<TraceFrame> = (0..depth)
            .map(|_| TraceFrame {
                class_idx: (xorshift(&mut rng) % classes as u64) as u16,
                method_idx: (xorshift(&mut rng) % methods as u64) as u16,
                line: 1 + (xorshift(&mut rng) % 50) as u32,
            })
            .collect();
        let objects = 1 + (xorshift(&mut rng) % 48);
        // A per-trace lifespan bias so traces differ in typical survivals;
        // per-object jitter keeps histograms multi-bucket.
        let bias = xorshift(&mut rng) % (u64::from(snapshot_count) + 1);
        for _ in 0..objects {
            next_object += 1;
            let hash = IdentityHash::of(ObjectId::new(next_object));
            records.record(&trace, hash);
            let jitter = xorshift(&mut rng) % 3;
            let lifespan = (bias + jitter).min(u64::from(snapshot_count));
            for snap in live.iter_mut().take(lifespan as usize) {
                snap.push(hash);
            }
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

/// The thresholds every check runs under: `min_survivals: 1` so that
/// short-lived traces also reach the generation mapping.
const CONFIG: AnalyzerConfig = AnalyzerConfig {
    min_survivals: 1,
    min_objects: 4,
    min_snapshots: 2,
};

/// Analyzes the inputs as a series and checks every trace's statistics
/// against the brute-force recount over `snapshots`; returns the outcome
/// for further checks.
fn analyze_and_check(
    records: &AllocationRecords,
    snapshots: &[Snapshot],
    program: &LoadedProgram,
) -> AnalysisOutcome {
    let series: SnapshotSeries = snapshots.iter().cloned().collect();
    let outcome = Analyzer::new(CONFIG).analyze(records, &series, program);
    let lifetimes = outcome.lifetimes.traces();
    assert_eq!(
        lifetimes.len(),
        records.trace_count(),
        "one lifetime per trace"
    );
    let under_observed = (snapshots.len() as u32) < CONFIG.min_snapshots;
    let mut classes: Vec<u32> = Vec::new();
    for (lifetime, id) in lifetimes.iter().zip(records.trace_ids()) {
        assert_eq!(lifetime.trace, id, "lifetimes in trace-id order");
        let mut survivals: Vec<u32> = records
            .stream(id)
            .iter()
            .map(|&hash| snapshots.iter().filter(|s| s.contains(hash)).count() as u32)
            .collect();
        let mut histogram = BTreeMap::new();
        for &s in &survivals {
            *histogram.entry(s).or_insert(0u64) += 1;
        }
        // The weighted median is the lower median of the sorted counts.
        survivals.sort_unstable();
        let typical = survivals[(survivals.len() - 1) / 2];
        assert_eq!(lifetime.objects, survivals.len() as u64, "trace {id:?}");
        assert_eq!(lifetime.histogram, histogram, "trace {id:?}");
        assert_eq!(lifetime.typical_survivals, typical, "trace {id:?}");
        let pretenured = !under_observed
            && lifetime.objects >= CONFIG.min_objects
            && typical >= CONFIG.min_survivals;
        assert_eq!(!lifetime.gen.is_young(), pretenured, "trace {id:?}");
        if pretenured {
            classes.push(typical.ilog2());
        }
    }
    // Lifetime classes map, in increasing order, onto generations 2, 3, ...
    classes.sort_unstable();
    classes.dedup();
    for lifetime in lifetimes.iter().filter(|t| !t.gen.is_young()) {
        let class = lifetime.typical_survivals.ilog2();
        let rank = classes.binary_search(&class).expect("a pretenured class");
        assert_eq!(
            lifetime.gen.raw(),
            2 + rank as u32,
            "trace {:?}",
            lifetime.trace
        );
    }
    outcome
}

#[test]
fn seeded_workloads_match_the_brute_force_recount() {
    for seed in [1u64, 7, 42, 1234, 0xdead_beef] {
        let (records, snapshots, program) = random_workload(seed);
        let outcome = analyze_and_check(&records, &snapshots, &program);
        assert!(
            !outcome.lifetimes.traces().is_empty(),
            "seed {seed}: generator produced a trivial workload"
        );
        assert!(
            !outcome.profile.is_empty(),
            "seed {seed}: nothing pretenured, the generation checks ran idle"
        );
    }
}

#[test]
fn degenerate_inputs_match_the_brute_force_recount() {
    // Empty snapshot series: every object survives zero snapshots, and the
    // under-observed guard keeps every trace young.
    let (records, _, program) = random_workload(3);
    let outcome = analyze_and_check(&records, &[], &program);
    assert!(!outcome.lifetimes.traces().is_empty());
    assert!(outcome.profile.is_empty());
    // Empty records.
    let (_, snapshots, program) = random_workload(4);
    let outcome = analyze_and_check(&AllocationRecords::default(), &snapshots, &program);
    assert!(outcome.lifetimes.traces().is_empty());
    assert!(outcome.profile.is_empty());
}
