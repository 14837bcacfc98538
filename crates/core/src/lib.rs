//! POLM2: automatic profiling for object lifetime-aware memory management.
//!
//! This crate is the paper's primary contribution, built on the simulated
//! substrates in the sibling crates. The four components of Figure 1:
//!
//! * [`Recorder`] — a load-time agent ([`Recorder::agent`]) that instruments
//!   every allocation site to log (stack trace, object identity hash) pairs,
//!   plus the snapshot scheduling policy (one heap snapshot per GC cycle by
//!   default, §3.2). The runtime buffers the pairs as columnar (trace-trie
//!   node, hash) batches; [`Recorder::ingest`] is the one route from a batch
//!   to interned traces and per-trace hash streams.
//! * **Dumper** — lives in [`polm2-snapshot`]: CRIU-style incremental,
//!   no-need-filtered heap snapshots.
//! * [`Analyzer`] — offline: replays allocation records against the snapshot
//!   series (one lookup per object in the snapshot index's survival table),
//!   estimates per-allocation-site lifetime distributions
//!   ([`SiteLifetimes`]), derives target generations, and builds the
//!   stack-trace tree ([`SttTree`]) to detect and resolve conflicts —
//!   allocation sites reached through call paths with different lifetimes
//!   (§3.3, Algorithm 1).
//! * [`Instrumenter`] — a load-time agent that applies an
//!   [`AllocationProfile`]: `@Gen`-annotates allocation sites and inserts
//!   `setGeneration`/restore pairs at the call sites the STTree chose
//!   (§3.4), with the subtree-hoisting optimization of §4.4.
//!
//! The two phases (§3.5) are driven by [`ProfilingSession`] (profiling) and
//! [`ProductionSetup`] (production).
//!
//! Every step of the pipeline is fallible and typed ([`PipelineError`]):
//! snapshots can fail and are retried on the simulated clock per a
//! [`RecoveryPolicy`], corrupt allocation records are dropped and counted,
//! stale profile entries are skipped and reported. Chaos testing is built in:
//! [`ProfilingSession::with_faults`] injects seeded, deterministic faults
//! ([`FaultConfig`]) to exercise exactly those paths — record faults mutate
//! the drained columnar batches, so chaos runs the same ingest as
//! production.
//!
//! [`polm2-snapshot`]: ../polm2_snapshot/index.html
//!
//! # Examples
//!
//! The profiling→production round trip on a toy program lives in the crate's
//! integration tests and the repository's `examples/quickstart.rs`; the
//! pieces compose like this:
//!
//! ```no_run
//! use polm2_core::{AnalyzerConfig, ProfilingSession, SnapshotPolicy};
//! use polm2_runtime::{Jvm, Program, RuntimeConfig};
//! # fn workload_program() -> Program { Program::new() }
//!
//! // Profiling phase: run the workload under the Recorder.
//! let mut session = ProfilingSession::new(SnapshotPolicy::default());
//! let mut jvm = Jvm::builder(RuntimeConfig::paper_scaled())
//!     .transformer(session.recorder_agent())
//!     .build(workload_program())?;
//! let thread = jvm.spawn_thread();
//! // ... invoke workload operations, calling session.after_op(&mut jvm)? ...
//! let report = session.finish(&mut jvm, &AnalyzerConfig::default())?;
//! let profile = report.outcome.profile;
//!
//! // Production phase: run again with the Instrumenter applying the profile.
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]

mod analyzer;
mod error;
mod faults;
mod instrumenter;
pub mod journal;
pub mod merge;
mod pipeline;
mod profile;
mod recorder;
mod sttree;
mod symbols;

pub use analyzer::{AnalysisOutcome, Analyzer, AnalyzerConfig, SiteLifetimes, TraceLifetime};
pub use error::PipelineError;
pub use faults::{FaultConfig, FaultInjector, FaultyDumper, FaultyMedia, InjectedFaults};
pub use instrumenter::{InstrumentationStats, Instrumenter};
pub use journal::{
    CommitSummary, JournalRetryPolicy, ReplayedSession, SessionJournal, SessionMeta,
};
pub use merge::{
    merge_tenants, recover_tenants, MergedProfile, RecoveredTenant, TenantInput, TenantProfile,
    TenantStatus,
};
pub use pipeline::{
    ProductionSetup, ProfilingReport, ProfilingSession, RecoveryPolicy, SnapshotPolicy,
};
pub use profile::{
    seal_profile_text, AllocationProfile, GenCall, PretenuredSite, ProfileError, ProfileParseError,
    ProfileValidation, CRC_FOOTER_PREFIX, MAX_PROFILE_GEN,
};
pub use recorder::{AllocationRecords, Recorder, TraceId};
pub use sttree::{Conflict, LeafView, Resolution, SttTree};
pub use symbols::{FrameInterner, SymbolId};
