//! The `polm2` command-line tool: profile a workload, save the allocation
//! profile, run workloads under any collector setup, and inspect profiles —
//! the paper's two-phase operation (§3.5) as a CLI.
//!
//! ```text
//! polm2 workloads
//! polm2 profile cassandra-wi --out wi.profile --minutes 6 --seed 7
//! polm2 run cassandra-wi --collector polm2 --profile wi.profile --minutes 15
//! polm2 run cassandra-wi --collector g1 --minutes 15
//! polm2 inspect wi.profile
//! ```

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use polm2::core::journal::KIND_COMMIT;
use polm2::core::merge::TenantInput;
use polm2::core::{seal_profile_text, AllocationProfile, FaultConfig, PipelineError};
use polm2::gc::GcError;
use polm2::heap::{BackendKind, HeapError, VerifyMode};
use polm2::metrics::report::TextTable;
use polm2::metrics::{FaultCounters, SimDuration, STANDARD_PERCENTILES};
use polm2::runtime::{RuntimeConfig, RuntimeError};
use polm2::snapshot::{journal, FsMedia};
use polm2::workloads::registry::{paper_workloads, workload_by_name};
use polm2::workloads::{
    merge_fleet, profile_workload, profile_workload_journaled, resume_profile, run_fleet,
    run_workload, ChaosPlan, CollectorSetup, FleetConfig, ProfilePhaseConfig, ResumeMode,
    RunConfig, TenantSpec,
};

/// Exit code: generic failure.
const EXIT_FAILURE: u8 = 1;
/// Exit code: a required profile file does not exist.
const EXIT_PROFILE_MISSING: u8 = 2;
/// Exit code: a profile or journal exists but is corrupt (parse or
/// checksum failure, journal defects).
const EXIT_CORRUPT: u8 = 3;
/// Exit code: the profile parses but no longer matches the program (the
/// application changed since profiling; regenerate the profile).
const EXIT_PROFILE_STALE: u8 = 4;
/// Exit code: a fleet run (or merge) completed, but degraded — at least one
/// tenant was quarantined; the merged profile covers the survivors only.
const EXIT_FLEET_DEGRADED: u8 = 5;
/// Exit code: every tenant of a fleet was quarantined; no merged payload.
const EXIT_FLEET_ALL_QUARANTINED: u8 = 6;
/// Exit code: the heap-integrity verifier detected memory corruption
/// (`--verify-heap`, or the `--chaos-heap` arm's synchronous check).
const EXIT_HEAP_CORRUPT: u8 = 7;
/// Exit code: the run hit its hard heap limit (`--heap-mb`) even after an
/// emergency full collection. The unwind is clean: the journal (if any) is
/// committed and the partial profile is flushed with a `# polm2-oom` footer.
const EXIT_OOM: u8 = 8;

/// A CLI failure with a distinct exit code, so scripts can tell a missing
/// profile from a corrupt one from a stale one.
struct CliError {
    code: u8,
    message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            code: EXIT_FAILURE,
            message,
        }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::from(message.to_string())
    }
}

fn fail(code: u8, message: impl Into<String>) -> CliError {
    CliError {
        code,
        message: message.into(),
    }
}

/// Maps a pipeline failure to its exit code: detected heap corruption and
/// heap-limit exhaustion get distinct codes so scripts (and CI chaos jobs)
/// can tell them from generic failures.
fn pipeline_error(e: PipelineError) -> CliError {
    let code = match &e {
        PipelineError::Runtime(RuntimeError::Heap(HeapError::IntegrityViolation { .. }))
        | PipelineError::Runtime(RuntimeError::Gc(GcError::Heap(
            HeapError::IntegrityViolation { .. },
        ))) => EXIT_HEAP_CORRUPT,
        PipelineError::Runtime(RuntimeError::Gc(GcError::OutOfMemory { .. }))
        | PipelineError::Runtime(RuntimeError::Heap(HeapError::OutOfMemory { .. })) => EXIT_OOM,
        _ => EXIT_FAILURE,
    };
    fail(code, e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("workloads") => cmd_workloads(),
        Some("profile") => cmd_profile(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("fsck") => cmd_fsck(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::from(format!(
            "unknown command {other:?}; try --help"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

fn print_usage() {
    println!(
        "polm2 — object lifetime-aware memory management, reproduced\n\n\
         USAGE:\n\
         \x20 polm2 workloads                          list the paper's workloads\n\
         \x20 polm2 profile <workload> [options]       run the profiling phase\n\
         \x20     --out <file>       write the allocation profile (default: <workload>.profile)\n\
         \x20     --minutes <n>      profiling length in simulated minutes (default 6)\n\
         \x20     --seed <n>         workload seed (default 7)\n\
         \x20     --chaos <rate>     inject faults at this rate, 0.0-1.0 (default 0)\n\
         \x20     --chaos-seed <n>   fault-injection seed (default 1)\n\
         \x20     --gc-workers <n>   GC mark/evacuate worker threads (default 1; the\n\
         \x20                        profile is bit-identical at any worker count)\n\
         \x20     --heap-backend <b> sim | real (default sim; real backs regions with\n\
         \x20                        actual memory — the profile is bit-identical)\n\
         \x20     --verify-heap <m>  off | gc | full — run the heap-integrity verifier at\n\
         \x20                        safepoints (default off; trajectories are bit-identical\n\
         \x20                        at any mode); violations exit 7\n\
         \x20     --heap-mb <n>      hard heap limit in MiB; an allocation that still fails\n\
         \x20                        after an emergency full collection aborts the run with\n\
         \x20                        exit 8, leaving a committed journal and a partial\n\
         \x20                        profile marked `# polm2-oom`\n\
         \x20     --chaos-heap <r>   plant seeded memory corruption (bit flips, header\n\
         \x20                        clobbers, stray writes) at this rate; needs\n\
         \x20                        --heap-backend real, implies --verify-heap full\n\
         \x20     --journal <dir>    stream the session into a crash-safe journal\n\
         \x20     --resume           finish from the journal in <dir>: replay a committed\n\
         \x20                        run, or re-execute a crashed one deterministically\n\
         \x20 polm2 fsck <dir> [--repair]              check (and repair) a session journal\n\
         \x20     exit 0 = clean, 3 = defects found; --repair truncates to the\n\
         \x20     last valid frame and drops unreachable segments — it never invents data\n\
         \x20 polm2 fleet [options]                    run a supervised multi-tenant fleet\n\
         \x20     --tenants <n>      concurrent tenant runtimes (default 4)\n\
         \x20     --minutes <n>      per-tenant profiling length in simulated minutes (default 2)\n\
         \x20     --seed <n>         base workload seed; tenant i uses seed+i (default 7)\n\
         \x20     --chaos <rate>     per-tenant fault probability, 0.0-1.0 (default 0)\n\
         \x20     --chaos-seed <n>   chaos plan seed (default 1)\n\
         \x20     --gc-workers <n>   GC worker threads per tenant runtime (default 1)\n\
         \x20     --heap-backend <b> sim | real per tenant heap (default sim)\n\
         \x20     --verify-heap <m>  off | gc | full per tenant runtime (default off)\n\
         \x20     --heap-mb <n>      hard per-tenant heap quota in MiB; a tenant that\n\
         \x20                        exhausts it is quarantined (reason `oom`)\n\
         \x20     --chaos-heap <r>   plant per-tenant seeded memory corruption; a tenant\n\
         \x20                        whose verifier trips is quarantined (`heap-corrupt`);\n\
         \x20                        needs --heap-backend real, implies --verify-heap full\n\
         \x20     --journal-root <d> per-tenant journal directories (default polm2-fleet)\n\
         \x20     --out <file>       write the merged fleet profile (default fleet.profile)\n\
         \x20     --merge <root>     merge-only: recover and merge existing tenant journals\n\
         \x20                        under <root> (no tenants are run)\n\
         \x20     exit 0 = all tenants healthy, 5 = completed degraded (quarantines;\n\
         \x20     merged profile covers survivors only), 6 = every tenant quarantined\n\
         \x20 polm2 run <workload> [options]           run the production phase\n\
         \x20     --collector <c>    g1 | ng2c | c4 | polm2 (default g1)\n\
         \x20     --profile <file>   allocation profile (required for --collector polm2)\n\
         \x20                        exit 2 = missing, 3 = corrupt, 4 = stale profile\n\
         \x20     --minutes <n>      run length in simulated minutes (default 15)\n\
         \x20     --warmup <n>       ignored prefix in simulated minutes (default 3)\n\
         \x20     --seed <n>         workload seed (default 42)\n\
         \x20     --gc-workers <n>   GC mark/evacuate worker threads (default 1)\n\
         \x20     --heap-backend <b> sim | real (default sim)\n\
         \x20     --verify-heap <m>  off | gc | full (default off); violations exit 7\n\
         \x20     --heap-mb <n>      hard heap limit in MiB; exhaustion exits 8\n\
         \x20 polm2 inspect <file>                     pretty-print a profile"
    );
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} expects a number, got {v:?}")),
        None => Ok(default),
    }
}

fn parse_f64(args: &[String], name: &str, default: f64) -> Result<f64, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} expects a number, got {v:?}")),
        None => Ok(default),
    }
}

fn parse_backend(args: &[String]) -> Result<BackendKind, String> {
    match flag(args, "--heap-backend") {
        Some(v) => BackendKind::parse(&v)
            .ok_or_else(|| format!("--heap-backend expects sim or real, got {v:?}")),
        None => Ok(BackendKind::Sim),
    }
}

/// Parses `--verify-heap` (default `off`).
fn parse_verify(args: &[String]) -> Result<VerifyMode, String> {
    match flag(args, "--verify-heap") {
        Some(v) => VerifyMode::parse(&v)
            .ok_or_else(|| format!("--verify-heap expects off, gc, or full, got {v:?}")),
        None => Ok(VerifyMode::Off),
    }
}

/// Parses `--heap-mb` if present; `None` leaves the heap unlimited.
fn parse_heap_mb(args: &[String]) -> Result<Option<u64>, String> {
    match flag(args, "--heap-mb") {
        Some(v) => match v.parse::<u64>() {
            Ok(mb) if mb > 0 => Ok(Some(mb)),
            _ => Err(format!("--heap-mb expects a positive MiB count, got {v:?}")),
        },
        None => Ok(None),
    }
}

/// Applies the runtime flags `profile`, `fleet` and `run` share to
/// `runtime`: `--gc-workers`, `--heap-backend`, `--verify-heap` and
/// `--heap-mb`.
fn parse_runtime(args: &[String], runtime: RuntimeConfig) -> Result<RuntimeConfig, String> {
    Ok(runtime
        .with_gc_workers(parse_u64(args, "--gc-workers", 1)? as usize)
        .with_heap_backend(parse_backend(args)?)
        .with_verify_heap(parse_verify(args)?)
        .with_heap_limit_mb(parse_heap_mb(args)?))
}

/// Parses `--chaos-heap` (memory-corruption injection rate) for `profile`
/// and `fleet`, and checks its prerequisites against `runtime`: planting
/// needs real memory to flip bits in, and detection needs the verifier on
/// at every safepoint, so a nonzero rate turns `--verify-heap off` into
/// `full`.
fn parse_chaos_heap(args: &[String], runtime: &mut RuntimeConfig) -> Result<f64, String> {
    let rate = parse_f64(args, "--chaos-heap", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "--chaos-heap expects a rate in 0.0..=1.0, got {rate}"
        ));
    }
    if rate > 0.0 && runtime.heap.backend != BackendKind::Real {
        return Err(
            "--chaos-heap needs --heap-backend real (there is no memory to corrupt \
                    on the sim backend)"
                .into(),
        );
    }
    if rate > 0.0 && runtime.verify_heap == VerifyMode::Off {
        // A planted corruption must be *detected*, not silently executed
        // on: the chaos arm implies the strictest verification cadence.
        *runtime = runtime.with_verify_heap(VerifyMode::Full);
    }
    Ok(rate)
}

fn cmd_workloads() -> Result<(), CliError> {
    let mut table = TextTable::new(vec![
        "name".into(),
        "entry".into(),
        "candidate sites".into(),
        "op cost".into(),
    ]);
    for w in paper_workloads() {
        let (class, method) = w.entry();
        table.add_row(vec![
            w.name().into(),
            format!("{class}.{method}"),
            w.candidate_sites().to_string(),
            w.op_cost().to_string(),
        ]);
    }
    println!("{}", table.render());
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), CliError> {
    let name = args.first().ok_or("profile needs a workload name")?;
    let workload = workload_by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let minutes = parse_u64(args, "--minutes", 6)?;
    let seed = parse_u64(args, "--seed", 7)?;
    let chaos = parse_f64(args, "--chaos", 0.0)?;
    if !(0.0..=1.0).contains(&chaos) {
        return Err(CliError::from(format!(
            "--chaos expects a rate in 0.0..=1.0, got {chaos}"
        )));
    }
    let chaos_seed = parse_u64(args, "--chaos-seed", 1)?;
    let mut runtime = parse_runtime(args, ProfilePhaseConfig::paper().runtime)?;
    let chaos_heap = parse_chaos_heap(args, &mut runtime)?;
    let out = flag(args, "--out").unwrap_or_else(|| format!("{name}.profile"));
    let journal_dir = flag(args, "--journal");
    let resume = args.iter().any(|a| a == "--resume");
    if resume && journal_dir.is_none() {
        return Err(CliError::from("--resume needs --journal <dir>"));
    }

    let mut faults = FaultConfig::all_at(chaos, chaos_seed);
    if chaos_heap > 0.0 {
        faults.heap_bit_flip_rate = chaos_heap;
        faults.heap_header_clobber_rate = chaos_heap;
        faults.heap_stray_write_rate = chaos_heap;
    }
    let config = ProfilePhaseConfig {
        duration: SimDuration::from_secs(minutes * 60),
        seed,
        faults,
        runtime,
        ..ProfilePhaseConfig::paper()
    };
    if chaos > 0.0 {
        eprintln!(
            "profiling {name} for {minutes} simulated minutes \
             (seed {seed}, chaos {chaos} seed {chaos_seed}) ..."
        );
    } else {
        eprintln!("profiling {name} for {minutes} simulated minutes (seed {seed}) ...");
    }
    let result = match &journal_dir {
        Some(dir) if resume => {
            let resumed = resume_profile(workload.as_ref(), &config, Path::new(dir))
                .map_err(pipeline_error)?;
            match resumed.mode {
                ResumeMode::Replayed => eprintln!(
                    "journal {dir} is committed ({} frames): profile finalized from \
                     replay, no re-execution",
                    resumed.report.frames_valid
                ),
                ResumeMode::ReExecuted => eprintln!(
                    "journal {dir} is incomplete ({} valid frames, {} defective \
                     segments): re-executed the session deterministically",
                    resumed.report.frames_valid,
                    resumed.report.defective_segments()
                ),
            }
            resumed.result
        }
        Some(dir) => profile_workload_journaled(workload.as_ref(), &config, Path::new(dir))
            .map_err(pipeline_error)?,
        None => profile_workload(workload.as_ref(), &config).map_err(pipeline_error)?,
    };
    eprintln!(
        "recorded {} allocations over {} snapshots; {} sites pretenured, {} conflicts",
        result.recorded_allocations,
        result.snapshots.len(),
        result.outcome.profile.sites().len(),
        result.outcome.conflicts.len(),
    );
    if !result.counters.is_clean() {
        eprintln!("degraded: {}", result.counters);
    }
    let mut text = result.outcome.profile.to_string();
    // Record the degradation ledger in the file itself: `#` lines are
    // comments to the profile parser, so the round trip is unaffected.
    for (name, value) in result.counters.entries() {
        if value > 0 {
            text.push_str(&format!("# polm2-faults {name} {value}\n"));
        }
    }
    if result.oom {
        // The profile is still valid (under-observation only demotes sites),
        // but mark it partial so downstream readers know the run was cut.
        text.push_str("# polm2-oom profiling run hit its hard heap limit; partial profile\n");
    }
    // Seal and write atomically: readers never see a torn profile, and the
    // checksum footer turns later on-disk corruption into a typed error.
    seal_profile_text(&mut text);
    write_atomic(&out, &text)?;
    println!("wrote {out}");
    if result.oom {
        return Err(fail(
            EXIT_OOM,
            format!(
                "{name}: profiling run hit its hard heap limit; partial profile written to {out}"
            ),
        ));
    }
    Ok(())
}

/// Writes via a temp file + fsync + rename, so a crash mid-write leaves
/// either the old file or the new one — never a torn mix.
fn write_atomic(path: &str, text: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    let write = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    write.map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("writing {path}: {e}")
    })
}

fn cmd_fsck(args: &[String]) -> Result<(), CliError> {
    let dir = args.first().ok_or("fsck needs a journal directory")?;
    let repair = args.iter().any(|a| a == "--repair");
    if !Path::new(dir).is_dir() {
        return Err(fail(
            EXIT_PROFILE_MISSING,
            format!("{dir}: no such journal directory"),
        ));
    }
    let mut media = FsMedia;
    let report = if repair {
        journal::repair(&mut media, Path::new(dir), KIND_COMMIT)
    } else {
        journal::fsck(&mut media, Path::new(dir), KIND_COMMIT)
    }
    .map_err(|e| e.to_string())?;
    println!("{report}");
    if !report.is_clean() {
        return Err(fail(
            EXIT_CORRUPT,
            format!(
                "{dir}: {} defective segment(s), {} missing; run `polm2 fsck {dir} --repair` \
                 to truncate to the last valid frame",
                report.defective_segments(),
                report.missing_segments.len()
            ),
        ));
    }
    Ok(())
}

fn cmd_fleet(args: &[String]) -> Result<(), CliError> {
    let out = flag(args, "--out").unwrap_or_else(|| "fleet.profile".into());
    let analyzer = polm2::core::AnalyzerConfig::default();

    let merged = if let Some(root) = flag(args, "--merge") {
        // Merge-only mode: every subdirectory of <root> is one tenant's
        // journal; the workload is resolved from the journaled session
        // header, so the journals are self-describing.
        if !Path::new(&root).is_dir() {
            return Err(fail(
                EXIT_PROFILE_MISSING,
                format!("{root}: no such fleet journal root"),
            ));
        }
        let mut inputs: Vec<TenantInput> = std::fs::read_dir(&root)
            .map_err(|e| format!("reading {root}: {e}"))?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .map(|e| TenantInput {
                tenant: e.file_name().to_string_lossy().into_owned(),
                dir: e.path(),
                exclude: None,
            })
            .collect();
        inputs.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        if inputs.is_empty() {
            return Err(fail(
                EXIT_PROFILE_MISSING,
                format!("{root}: no tenant journal directories found"),
            ));
        }
        eprintln!(
            "merging {} tenant journal(s) under {root} ...",
            inputs.len()
        );
        merge_fleet(&inputs, &analyzer, workload_by_name)
    } else {
        let tenants = parse_u64(args, "--tenants", 4)?;
        if tenants == 0 {
            return Err(CliError::from("--tenants expects at least 1"));
        }
        let minutes = parse_u64(args, "--minutes", 2)?;
        let seed = parse_u64(args, "--seed", 7)?;
        let chaos = parse_f64(args, "--chaos", 0.0)?;
        if !(0.0..=1.0).contains(&chaos) {
            return Err(CliError::from(format!(
                "--chaos expects a rate in 0.0..=1.0, got {chaos}"
            )));
        }
        let chaos_seed = parse_u64(args, "--chaos-seed", 1)?;
        // The heap budget is a per-tenant quota: each tenant's runtime owns
        // its own heap.
        let mut runtime = parse_runtime(args, ProfilePhaseConfig::paper().runtime)?;
        let chaos_heap = parse_chaos_heap(args, &mut runtime)?;
        let root = flag(args, "--journal-root").unwrap_or_else(|| "polm2-fleet".into());

        let workloads = paper_workloads();
        let specs: Vec<TenantSpec> = (0..tenants)
            .map(|i| {
                let workload = &workloads[i as usize % workloads.len()];
                let mut config = ProfilePhaseConfig {
                    duration: SimDuration::from_secs(minutes * 60),
                    seed: seed + i,
                    runtime,
                    ..ProfilePhaseConfig::paper()
                };
                if chaos_heap > 0.0 {
                    // Each tenant draws its corruption plants from its own
                    // seeded stream, so one tenant's faults never shift
                    // another's — the fleet's isolation contract.
                    config.faults = FaultConfig::heap_only_at(chaos_heap, chaos_seed + i);
                }
                TenantSpec {
                    tenant: format!("tenant-{i:02}"),
                    workload: workload.name().to_string(),
                    config,
                }
            })
            .collect();
        let config = FleetConfig {
            chaos: if chaos > 0.0 {
                ChaosPlan::Seeded {
                    seed: chaos_seed,
                    rate: chaos,
                }
            } else {
                ChaosPlan::None
            },
            ..FleetConfig::default()
        };
        if chaos > 0.0 {
            eprintln!(
                "running {tenants} supervised tenants for {minutes} simulated minutes each \
                 (seed {seed}, chaos {chaos} seed {chaos_seed}) ..."
            );
        } else {
            eprintln!(
                "running {tenants} supervised tenants for {minutes} simulated minutes each \
                 (seed {seed}) ..."
            );
        }
        let outcome = run_fleet(&specs, Path::new(&root), &config, workload_by_name);
        let ledger = outcome.ledger();
        eprintln!(
            "fleet done: {} healthy, {} quarantined, {} retries granted{}",
            outcome.healthy_count(),
            outcome.quarantined_count(),
            ledger.total_retries(),
            ledger
                .mean_throughput()
                .map(|t| format!(", {t:.0} records/sim-s mean per tenant"))
                .unwrap_or_default(),
        );
        merge_fleet(&outcome.tenant_inputs(), &analyzer, workload_by_name)
    };

    // The quarantine summary: one row per tenant, healthy or not.
    let mut table = TextTable::new(vec![
        "tenant".into(),
        "workload".into(),
        "status".into(),
        "records".into(),
        "snapshots".into(),
        "detail".into(),
    ]);
    for t in &merged.tenants {
        table.add_row(vec![
            t.tenant.clone(),
            t.workload.clone(),
            t.status.label().into(),
            t.records.to_string(),
            t.snapshots.to_string(),
            t.status.detail(),
        ]);
    }
    println!("{}", table.render());
    let aggregate = merged.aggregate_counters();
    if !aggregate.is_clean() {
        eprintln!("fleet degradation: {aggregate}");
    }

    write_atomic(&out, &merged.render())?;
    println!(
        "wrote {out} ({} tenant(s) merged, {} quarantined)",
        merged.merged_count(),
        merged.quarantined_count()
    );
    if merged.all_quarantined() {
        Err(fail(
            EXIT_FLEET_ALL_QUARANTINED,
            "every tenant was quarantined; the merged profile has no payload",
        ))
    } else if merged.is_degraded() {
        Err(fail(
            EXIT_FLEET_DEGRADED,
            format!(
                "fleet completed degraded: {} of {} tenant(s) quarantined; \
                 merged profile covers the survivors only",
                merged.quarantined_count(),
                merged.tenants.len()
            ),
        ))
    } else {
        Ok(())
    }
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let name = args.first().ok_or("run needs a workload name")?;
    let workload = workload_by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let minutes = parse_u64(args, "--minutes", 15)?;
    let warmup = parse_u64(args, "--warmup", 3)?;
    let seed = parse_u64(args, "--seed", 42)?;
    let collector = flag(args, "--collector").unwrap_or_else(|| "g1".into());
    let setup = match collector.as_str() {
        "g1" => CollectorSetup::G1,
        "ng2c" => CollectorSetup::Ng2cManual,
        "c4" => CollectorSetup::C4,
        "polm2" => {
            let path = flag(args, "--profile").ok_or("--collector polm2 needs --profile <file>")?;
            let text = std::fs::read_to_string(&path).map_err(|e| {
                let code = if e.kind() == std::io::ErrorKind::NotFound {
                    EXIT_PROFILE_MISSING
                } else {
                    EXIT_FAILURE
                };
                fail(code, format!("reading {path}: {e}"))
            })?;
            let profile: AllocationProfile = text
                .parse()
                .map_err(|e| fail(EXIT_CORRUPT, format!("{path}: {e}")))?;
            // A profile whose entries no longer match the program means the
            // application changed since profiling: refuse to launch on it
            // rather than silently pretenure nothing.
            let stale = profile.validate(&workload.program());
            if !stale.is_clean() {
                return Err(fail(
                    EXIT_PROFILE_STALE,
                    format!(
                        "{path}: profile is stale — {} site(s) and {} call(s) no longer \
                         exist in {name}; re-run `polm2 profile {name}`",
                        stale.stale_sites.len(),
                        stale.stale_gen_calls.len()
                    ),
                ));
            }
            CollectorSetup::Polm2(profile)
        }
        other => {
            return Err(CliError::from(format!(
                "unknown collector {other:?} (g1|ng2c|c4|polm2)"
            )))
        }
    };

    let config = RunConfig {
        duration: SimDuration::from_secs(minutes * 60),
        warmup: SimDuration::from_secs(warmup * 60),
        seed,
        runtime: parse_runtime(args, RunConfig::paper().runtime)?,
    };
    eprintln!(
        "running {name} under {} for {minutes} simulated minutes (warmup {warmup}, seed {seed}) ...",
        setup.label()
    );
    let result = run_workload(workload.as_ref(), &setup, &config).map_err(pipeline_error)?;
    if !result.fault_counters.is_clean() {
        eprintln!("stale profile entries skipped: {}", result.fault_counters);
    }

    let mut table = TextTable::new(vec!["metric".into(), "value".into()]);
    let mut pauses = result.pause_histogram();
    for &p in &STANDARD_PERCENTILES {
        let label = if p >= 100.0 {
            "worst pause".to_string()
        } else {
            format!("p{p} pause")
        };
        table.add_row(vec![
            label,
            pauses
                .percentile(p)
                .map(|d| d.to_string())
                .unwrap_or_else(|| "n/a".into()),
        ]);
    }
    table.add_row(vec!["pauses".into(), pauses.len().to_string()]);
    let mut latency = result.op_latency.clone();
    table.add_row(vec![
        "p99 op latency".into(),
        latency
            .percentile(99.0)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "n/a".into()),
    ]);
    table.add_row(vec![
        "worst op latency".into(),
        latency
            .max()
            .map(|d| d.to_string())
            .unwrap_or_else(|| "n/a".into()),
    ]);
    table.add_row(vec![
        "total stop".into(),
        result.gc_log.total_pause().to_string(),
    ]);
    table.add_row(vec![
        "throughput".into(),
        format!("{:.1} ops/s", result.mean_throughput()),
    ]);
    table.add_row(vec![
        "max memory".into(),
        polm2::metrics::report::bytes(result.max_memory_bytes()),
    ]);
    println!("{}", table.render());
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), CliError> {
    let path = args.first().ok_or("inspect needs a profile file")?;
    let text = std::fs::read_to_string(path).map_err(|e| {
        let code = if e.kind() == std::io::ErrorKind::NotFound {
            EXIT_PROFILE_MISSING
        } else {
            EXIT_FAILURE
        };
        fail(code, format!("reading {path}: {e}"))
    })?;
    let profile: AllocationProfile = text
        .parse()
        .map_err(|e| fail(EXIT_CORRUPT, format!("{path}: {e}")))?;
    println!(
        "{path}: {} pretenured sites, {} setGeneration call sites, generations {:?}",
        profile.sites().len(),
        profile.gen_calls().len(),
        profile
            .generations_used()
            .iter()
            .map(|g| g.raw())
            .collect::<Vec<_>>(),
    );
    let mut table = TextTable::new(vec![
        "kind".into(),
        "location".into(),
        "generation".into(),
        "mode".into(),
    ]);
    for s in profile.sites() {
        table.add_row(vec![
            "site (@Gen)".into(),
            s.loc.to_string(),
            s.gen.to_string(),
            if s.local {
                "site-local setGeneration"
            } else {
                "generation set by caller"
            }
            .into(),
        ]);
    }
    for c in profile.gen_calls() {
        table.add_row(vec![
            "call wrapper".into(),
            c.at.to_string(),
            c.gen.to_string(),
            "setGeneration / restore pair".into(),
        ]);
    }
    println!("{}", table.render());

    // A `# polm2-faults <name> <value>` footer records how degraded the
    // profiling run that produced this file was.
    let mut counters = FaultCounters::new();
    let mut footer_seen = false;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# polm2-faults ") {
            if let Some((counter, value)) = rest.trim().split_once(' ') {
                if let Ok(value) = value.trim().parse::<u64>() {
                    footer_seen |= counters.set_by_name(counter.trim(), value);
                }
            }
        }
    }
    if footer_seen {
        println!("profiling-run degradation: {counters}");
        let mut table = TextTable::new(vec!["fault counter".into(), "count".into()]);
        for (counter, value) in counters.entries() {
            if value > 0 {
                table.add_row(vec![counter.into(), value.to_string()]);
            }
        }
        println!("{}", table.render());
    }
    Ok(())
}
