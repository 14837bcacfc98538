//! Chaos integration suite: the full profiling pipeline under seeded fault
//! injection.
//!
//! The contract under test is *graceful monotone degradation*: every injected
//! fault only removes or garbles evidence, so a faulty profiling run may
//! pretenure fewer sites than a fault-free one — never different or wrong
//! ones — and the pipeline itself never panics; faults surface as typed
//! errors or counted skips.

use polm2_core::{
    AllocationProfile, AnalyzerConfig, FaultConfig, InjectedFaults, ProfileParseError,
    ProfilingReport, ProfilingSession, SnapshotPolicy,
};
use polm2_metrics::FaultCounters;
use polm2_runtime::{
    ClassDef, CodeLoc, HookAction, HookRegistry, Instr, Jvm, MethodDef, Program, RuntimeConfig,
    SizeSpec,
};
use polm2_snapshot::journal::crc32;

/// A memtable-style toy workload: `put` cells that live until `flush`, plus
/// `scratch` garbage — enough lifetime contrast for the Analyzer to pretenure
/// the cell site and leave the scratch site young.
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

/// Runs the profiling phase to completion and returns its report plus the
/// injector's ground truth (for chaos sessions).
fn run_session(session: ProfilingSession) -> (ProfilingReport, Option<InjectedFaults>) {
    let mut session = session;
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
            session.after_op(&mut jvm).expect("after_op absorbs faults");
        }
        if batch % 3 == 2 {
            jvm.invoke(t, "Store", "flush").expect("flush");
        }
    }
    let injected = session.injected_faults();
    let report = session
        .finish(&mut jvm, &AnalyzerConfig::default())
        .expect("finish");
    (report, injected)
}

/// Runs the profiling phase to completion and returns what it produced.
fn run_profiling(session: ProfilingSession) -> (AllocationProfile, FaultCounters) {
    let (report, _) = run_session(session);
    (report.outcome.profile, report.counters)
}

/// The chaos configuration for the degradation tests: every fault kind at
/// `rate` except duplication, which is excluded from the subset property
/// (a duplicated record adds evidence instead of removing it, so it can
/// legitimately push a borderline site over the Analyzer's thresholds).
fn chaos_without_duplication(rate: f64, seed: u64) -> FaultConfig {
    FaultConfig {
        record_duplicate_rate: 0.0,
        ..FaultConfig::all_at(rate, seed)
    }
}

fn site_locs(profile: &AllocationProfile) -> Vec<CodeLoc> {
    profile.sites().iter().map(|s| s.loc.clone()).collect()
}

#[test]
fn inert_chaos_session_is_byte_identical_to_a_plain_one() {
    let (plain, plain_counters) = run_profiling(ProfilingSession::new(SnapshotPolicy::default()));
    let (chaos, chaos_counters) = run_profiling(ProfilingSession::with_faults(
        SnapshotPolicy::default(),
        FaultConfig::default(),
    ));
    assert_eq!(
        chaos.to_string(),
        plain.to_string(),
        "0% fault rate must change nothing"
    );
    assert!(plain_counters.is_clean());
    assert!(chaos_counters.is_clean());
    assert!(
        !plain.is_empty(),
        "the workload must yield a non-trivial profile"
    );
}

#[test]
fn ten_percent_chaos_completes_and_degrades_monotonically() {
    let (clean_profile, _) = run_profiling(ProfilingSession::new(SnapshotPolicy::default()));
    let clean_sites = site_locs(&clean_profile);
    assert!(!clean_sites.is_empty());

    for seed in [3u64, 17, 99] {
        let (report, injected) = run_session(ProfilingSession::with_faults(
            SnapshotPolicy::default(),
            chaos_without_duplication(0.10, seed),
        ));
        let injected = injected.expect("chaos session");

        // Faults actually fired, and the detected ledger is consistent with
        // the injected ground truth: every structurally corrupt record was
        // caught at ingest, every injected capture failure was observed.
        assert_ne!(injected, Default::default(), "seed {seed}: no faults fired");
        assert_eq!(
            report.counters.records_dropped_corrupt, injected.records_corrupted,
            "seed {seed}: every corrupt record is dropped at ingest"
        );
        assert_eq!(
            report.counters.snapshots_failed, injected.snapshot_failures,
            "seed {seed}: every injected capture failure is counted"
        );
        assert!(
            !report.counters.is_clean(),
            "seed {seed}: degradation must be visible"
        );

        // Monotone degradation: chaos may lose pretenured sites, never
        // invent them.
        for loc in site_locs(&report.outcome.profile) {
            assert!(
                clean_sites.contains(&loc),
                "seed {seed}: chaos invented a pretenured site {loc} not in the fault-free set"
            );
        }
    }
}

/// Golden fingerprints of the degradation seeds, taken before fault
/// injection moved onto the columnar batch: the rendered profile's CRC-32,
/// a CRC-32 of the lifetimes' debug form, and the literal fault ledgers.
/// The injector draws in event order, so a change to the drain order, the
/// draw sequence or ingest moves at least one of them.
#[test]
fn degradation_seeds_match_their_golden_fingerprints() {
    let golden = |lifetimes_crc: u32, counters: FaultCounters, injected: InjectedFaults| {
        (0x1ddc_e91b_u32, lifetimes_crc, counters, injected)
    };
    let expected = [
        (
            3u64,
            golden(
                0x733e_e288,
                FaultCounters {
                    snapshots_failed: 3,
                    snapshot_retries: 3,
                    records_dropped_corrupt: 2243,
                    ..FaultCounters::new()
                },
                InjectedFaults {
                    snapshot_failures: 3,
                    snapshots_truncated: 1,
                    hashes_lost: 132,
                    records_dropped: 2455,
                    records_corrupted: 2243,
                    ..InjectedFaults::default()
                },
            ),
        ),
        (
            17,
            golden(
                0x3787_0a68,
                FaultCounters {
                    snapshots_failed: 1,
                    snapshot_retries: 1,
                    records_dropped_corrupt: 2178,
                    ..FaultCounters::new()
                },
                InjectedFaults {
                    snapshot_failures: 1,
                    records_dropped: 2421,
                    records_corrupted: 2178,
                    ..InjectedFaults::default()
                },
            ),
        ),
        (
            99,
            golden(
                0x6d5d_551f,
                FaultCounters {
                    snapshots_failed: 1,
                    snapshot_retries: 1,
                    records_dropped_corrupt: 2208,
                    ..FaultCounters::new()
                },
                InjectedFaults {
                    snapshot_failures: 1,
                    snapshots_truncated: 2,
                    hashes_lost: 536,
                    records_dropped: 2378,
                    records_corrupted: 2208,
                    ..InjectedFaults::default()
                },
            ),
        ),
    ];
    for (seed, expected) in expected {
        let (report, injected) = run_session(ProfilingSession::with_faults(
            SnapshotPolicy::default(),
            chaos_without_duplication(0.10, seed),
        ));
        let actual = (
            crc32(report.outcome.profile.to_string().as_bytes()),
            crc32(format!("{:?}", report.outcome.lifetimes).as_bytes()),
            report.counters,
            injected.expect("chaos session"),
        );
        assert_eq!(actual, expected, "seed {seed}");
    }
}

#[test]
fn same_chaos_seed_reproduces_the_same_degraded_profile() {
    let config = chaos_without_duplication(0.10, 11);
    let (a, ca) = run_profiling(ProfilingSession::with_faults(
        SnapshotPolicy::default(),
        config,
    ));
    let (b, cb) = run_profiling(ProfilingSession::with_faults(
        SnapshotPolicy::default(),
        config,
    ));
    assert_eq!(a.to_string(), b.to_string());
    assert_eq!(ca, cb);
}

#[test]
fn corrupted_profile_text_yields_typed_errors_never_panics() {
    let (profile, _) = run_profiling(ProfilingSession::new(SnapshotPolicy::default()));
    let original = profile.to_string();

    let mut parse_failures = 0u32;
    for seed in 0..32u64 {
        let mut injector = polm2_core::FaultInjector::new(FaultConfig {
            profile_corrupt_rate: 0.05,
            seed,
            ..FaultConfig::default()
        });
        let mut text = original.clone();
        injector.corrupt_profile_text(&mut text);
        // Parsing corrupted text must return a typed error or a (possibly
        // smaller) profile — never panic.
        match text.parse::<AllocationProfile>() {
            Ok(parsed) => {
                // Anything that still parses is either an original entry or
                // visibly clobbered (the replacement character never maps
                // back to a clean location).
                for site in parsed.sites() {
                    assert!(
                        profile.sites().contains(site) || site.loc.to_string().contains('\u{FFFD}'),
                        "seed {seed}: corruption fabricated a clean-looking entry {:?}",
                        site.loc
                    );
                }
            }
            Err(err) => {
                parse_failures += 1;
                let _: &ProfileParseError = &err;
                assert!(!err.to_string().is_empty());
            }
        }
    }
    assert!(
        parse_failures > 0,
        "5% per-char corruption must break some parse"
    );
}
