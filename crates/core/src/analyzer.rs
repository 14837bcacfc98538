//! The Analyzer: from allocation records + snapshots to an allocation
//! profile (paper §3.3).
//!
//! Survival counts come from the columnar
//! [`SnapshotIndex`](polm2_snapshot::SnapshotIndex) the series maintains at
//! capture time: its running accumulator already holds every hash's
//! appearance count, so the replay builds one directory-indexed lookup table
//! ([`SnapshotIndex::survival_counts`](polm2_snapshot::SnapshotIndex::survival_counts))
//! and each recorded object costs one lookup instead of one hash probe per
//! snapshot.

use std::collections::{BTreeMap, HashMap};

use polm2_heap::{GenId, IdHashSet};
use polm2_runtime::{CodeLoc, LoadedProgram};
use polm2_snapshot::SnapshotSeries;

use crate::recorder::{AllocationRecords, TraceId};
use crate::sttree::{Conflict, Resolution, SttTree};
use crate::{AllocationProfile, GenCall, PretenuredSite};

/// Analyzer tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzerConfig {
    /// A trace whose objects typically survive fewer snapshots than this
    /// stays in the young generation (its objects die young enough for the
    /// normal young collection to handle them).
    pub min_survivals: u32,
    /// Traces with fewer recorded objects than this are left young — too
    /// little evidence to pretenure (misplacing rare allocations costs more
    /// than it saves).
    pub min_objects: u64,
    /// With fewer snapshots than this in the whole series, no trace is
    /// pretenured at all: lifetime estimates from one (or zero) snapshots
    /// are guesses, and the safe degradation is the young-generation
    /// default. Traces demoted by this guard are counted in
    /// [`AnalysisOutcome::demoted_traces`].
    pub min_snapshots: u32,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            min_survivals: 2,
            min_objects: 4,
            min_snapshots: 2,
        }
    }
}

/// Lifetime statistics for one allocation path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLifetime {
    /// The trace.
    pub trace: TraceId,
    /// The allocation path (outermost frame first).
    pub path: Vec<CodeLoc>,
    /// survivals → object count: the paper's buckets (§3.3) — bucket *k*
    /// holds objects that appeared in *k* snapshots.
    pub histogram: BTreeMap<u32, u64>,
    /// The typical survival count: the weighted median of the buckets.
    ///
    /// The paper takes the bucket "most objects" fall into (the mode); for
    /// cohort lifetimes (a memtable's cells die together at flush,
    /// regardless of birth time) the survival distribution is nearly
    /// uniform, making the mode a coin-flip between adjacent buckets. The
    /// median estimates the same "typical lifetime" robustly.
    pub typical_survivals: u32,
    /// Objects recorded through this path.
    pub objects: u64,
    /// The generation the analyzer assigned.
    pub gen: GenId,
}

/// Per-site lifetime distributions (the "application allocation profile"
/// §3.3 derives generations from).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteLifetimes {
    traces: Vec<TraceLifetime>,
}

impl SiteLifetimes {
    /// All per-path lifetime records.
    pub fn traces(&self) -> &[TraceLifetime] {
        &self.traces
    }

    /// Lifetime records whose allocation site is `loc`.
    pub fn at_site<'a>(&'a self, loc: &'a CodeLoc) -> impl Iterator<Item = &'a TraceLifetime> {
        self.traces
            .iter()
            .filter(move |t| t.path.last() == Some(loc))
    }
}

/// Everything the analysis produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisOutcome {
    /// The profile to feed the Instrumenter.
    pub profile: AllocationProfile,
    /// Per-path lifetime distributions.
    pub lifetimes: SiteLifetimes,
    /// Conflicts detected (paper Table 1's "# Conflicts Encountered").
    pub conflicts: Vec<Conflict>,
    /// How each conflict path was resolved.
    pub resolutions: Vec<Resolution>,
    /// Traces that had enough evidence to pretenure but were demoted to the
    /// young generation because the run was under-observed (fewer than
    /// [`AnalyzerConfig::min_snapshots`] snapshots).
    pub demoted_traces: u64,
}

/// The offline analyzer.
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    config: AnalyzerConfig,
}

impl Analyzer {
    /// Creates an analyzer with the given tuning.
    pub fn new(config: AnalyzerConfig) -> Self {
        Analyzer { config }
    }

    /// Runs the full §3.3 pipeline:
    ///
    /// 1. count, per recorded object, the number of snapshots it appears in
    ///    (the bucket walk) — one lookup in the snapshot index's survival
    ///    table per object;
    /// 2. per allocation path, find the survivor-mass median and map it to a
    ///    target generation (log₂ quantization: lifetimes within 2× share a
    ///    generation);
    /// 3. build the STTree, detect conflicts, resolve them (Algorithm 1);
    /// 4. assemble the profile with the §4.4 subtree-hoisting optimization.
    ///
    /// Output is a pure function of the inputs and the `min_*` thresholds.
    pub fn analyze(
        &self,
        records: &AllocationRecords,
        snapshots: &SnapshotSeries,
        program: &LoadedProgram,
    ) -> AnalysisOutcome {
        // Step 1: survivals per object hash. The series maintains its
        // columnar index at capture time; the replay only pays for the
        // lookup directory.
        let survivals = snapshots.index().survival_counts();

        // Step 2: per-trace histograms, medians, and lifetime classes.
        // Location strings are resolved once per interned frame symbol;
        // the per-trace loop only clones from this table.
        let locs: Vec<CodeLoc> = records.symbols().loc_table(program);
        let under_observed = (snapshots.len() as u32) < self.config.min_snapshots;
        // Survival counts are bounded by the snapshot count, so a flat
        // bucket array (reused across traces) replaces per-record BTreeMap
        // inserts.
        let mut buckets = vec![0u64; snapshots.len() + 1];
        let mut lifetimes: Vec<TraceLifetime> = Vec::with_capacity(records.trace_count());
        // Per trace, its log₂ lifetime class, or `None` if it stays young.
        let mut trace_classes: Vec<Option<u32>> = Vec::with_capacity(records.trace_count());
        let mut demoted_traces = 0u64;
        for trace in records.trace_ids() {
            let stream = records.stream(trace);
            for &hash in stream {
                buckets[survivals.get(u64::from(hash.raw())) as usize] += 1;
            }
            let objects = stream.len() as u64;
            let typical_survivals = {
                let mut remaining = objects.div_ceil(2);
                let mut median = 0;
                for (s, &count) in buckets.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    if count >= remaining {
                        median = s as u32;
                        break;
                    }
                    remaining -= count;
                }
                median
            };
            let histogram: BTreeMap<u32, u64> = buckets
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(s, &count)| (s as u32, count))
                .collect();
            buckets.iter_mut().for_each(|c| *c = 0);
            let path: Vec<CodeLoc> = records
                .trace_symbols(trace)
                .iter()
                .map(|&s| locs[s.index()].clone())
                .collect();
            let class = if objects < self.config.min_objects
                || typical_survivals < self.config.min_survivals
            {
                None
            } else if under_observed {
                // Enough evidence to pretenure in a healthy run, but too few
                // snapshots actually arrived (lost captures): fall back to
                // the young default and count the demotion.
                demoted_traces += 1;
                None
            } else {
                Some(typical_survivals.ilog2())
            };
            lifetimes.push(TraceLifetime {
                trace,
                path,
                histogram,
                typical_survivals,
                objects,
                gen: GenId::YOUNG,
            });
            trace_classes.push(class);
        }

        // Map lifetime classes to generations 2, 3, ... (generation 1 is the
        // collectors' age-out old generation; pretenured cohorts get their
        // own spaces above it, like NG2C's dynamic generations).
        let mut classes: Vec<u32> = trace_classes.iter().flatten().copied().collect();
        classes.sort_unstable();
        classes.dedup();
        let gen_of_class: HashMap<u32, GenId> = classes
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, GenId::new(2 + i as u32)))
            .collect();
        for (lifetime, class) in lifetimes.iter_mut().zip(&trace_classes) {
            if let Some(class) = class {
                lifetime.gen = gen_of_class[class];
            }
        }

        // Step 3: STTree. A trace with no resolvable frames (possible only
        // for records of untrusted provenance, e.g. a replayed journal) has
        // no place in the tree; skipping it beats tripping `insert_path`'s
        // non-empty assertion.
        let mut tree = SttTree::new();
        for t in &lifetimes {
            if !t.path.is_empty() {
                tree.insert_path(&t.path, t.gen);
            }
        }
        let conflicts = tree.detect_conflicts();
        let resolutions = tree.solve_conflicts(&conflicts);
        // Conflicted locations as interned tree ids: membership tests in the
        // profile-assembly loop are integer set probes, no CodeLoc clones.
        // Conflicts come from the tree, so every location interns; the
        // filter keeps this typed rather than asserting it.
        let conflicted: IdHashSet<u32> = conflicts
            .iter()
            .filter_map(|c| tree.loc_id(&c.loc))
            .collect();

        // Step 4: profile assembly.
        let mut profile = AllocationProfile::new();
        for leaf in tree.leaves() {
            if leaf.gen.is_young() {
                continue;
            }
            if conflicted.contains(&leaf.sym) {
                // Conflicted site: @Gen annotation; generation arrives via
                // the resolutions' call-site wrappers.
                profile.add_site(PretenuredSite {
                    loc: leaf.loc,
                    gen: leaf.gen,
                    local: false,
                });
            } else {
                let (at, is_local) = tree.hoist_point_sym(leaf.idx, &conflicted);
                profile.add_site(PretenuredSite {
                    loc: leaf.loc,
                    gen: leaf.gen,
                    local: is_local,
                });
                if !is_local {
                    profile.add_gen_call(GenCall {
                        at: tree.loc_at(at).clone(),
                        gen: leaf.gen,
                    });
                }
            }
        }
        for r in &resolutions {
            if !r.gen.is_young() {
                profile.add_gen_call(GenCall {
                    at: r.at.clone(),
                    gen: r.gen,
                });
            }
        }

        AnalysisOutcome {
            profile,
            lifetimes: SiteLifetimes { traces: lifetimes },
            conflicts,
            resolutions,
            demoted_traces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polm2_heap::{Heap, HeapConfig, IdentityHash, ObjectId};
    use polm2_metrics::{SimDuration, SimTime};
    use polm2_runtime::{ClassDef, Instr, Loader, MethodDef, Program, SizeSpec, TraceFrame};
    use polm2_snapshot::Snapshot;

    /// Builds a loaded program with two callers reaching one allocation
    /// site, as in the paper's Listing 1.
    fn loaded() -> (Heap, LoadedProgram) {
        let mut p = Program::new();
        p.add_class(
            ClassDef::new("C")
                .with_method(MethodDef::new("longCaller").push(Instr::call("C", "make", 10)))
                .with_method(MethodDef::new("shortCaller").push(Instr::call("C", "make", 20)))
                .with_method(MethodDef::new("make").push(Instr::alloc(
                    "Buf",
                    SizeSpec::Fixed(64),
                    5,
                ))),
        );
        let mut heap = Heap::new(HeapConfig::small());
        let loaded = Loader::load(p, &mut [], &mut heap).unwrap();
        (heap, loaded)
    }

    fn hash(i: u64) -> IdentityHash {
        IdentityHash::of(ObjectId::new(i))
    }

    fn snapshot(seq: u32, hashes: &[IdentityHash]) -> Snapshot {
        Snapshot::new(
            seq,
            SimTime::from_secs(seq as u64),
            hashes.iter().copied().collect(),
            4096,
            SimDuration::from_millis(1),
        )
    }

    /// Trace through longCaller (frames: longCaller@10 -> make@5).
    fn long_trace() -> Vec<TraceFrame> {
        vec![
            TraceFrame {
                class_idx: 0,
                method_idx: 0,
                line: 10,
            },
            TraceFrame {
                class_idx: 0,
                method_idx: 2,
                line: 5,
            },
        ]
    }

    fn short_trace() -> Vec<TraceFrame> {
        vec![
            TraceFrame {
                class_idx: 0,
                method_idx: 1,
                line: 20,
            },
            TraceFrame {
                class_idx: 0,
                method_idx: 2,
                line: 5,
            },
        ]
    }

    #[test]
    fn long_lived_sites_get_pretenured() {
        let (_, program) = loaded();
        let mut records = AllocationRecords::default();
        // 8 objects through the long path, all surviving 4 snapshots.
        let long_hashes: Vec<_> = (0..8).map(hash).collect();
        for &h in &long_hashes {
            records.record(&long_trace(), h);
        }
        let series: SnapshotSeries = (0..4).map(|s| snapshot(s, &long_hashes)).collect();
        let outcome = Analyzer::default().analyze(&records, &series, &program);
        assert!(outcome.conflicts.is_empty());
        assert_eq!(outcome.profile.sites().len(), 1);
        let site = &outcome.profile.sites()[0];
        assert_eq!(site.loc, CodeLoc::new("C", "make", 5));
        assert!(!site.gen.is_young());
        // Single-gen subtree hoists to the caller's call site.
        assert_eq!(outcome.profile.gen_calls().len(), 1);
        assert_eq!(
            outcome.profile.gen_calls()[0].at,
            CodeLoc::new("C", "longCaller", 10)
        );
    }

    #[test]
    fn short_lived_sites_stay_young() {
        let (_, program) = loaded();
        let mut records = AllocationRecords::default();
        for i in 0..8 {
            records.record(&short_trace(), hash(i));
        }
        // Objects never appear in any snapshot: they die before the first.
        let series: SnapshotSeries = (0..4).map(|s| snapshot(s, &[])).collect();
        let outcome = Analyzer::default().analyze(&records, &series, &program);
        assert!(
            outcome.profile.is_empty(),
            "short-lived sites must not be instrumented"
        );
        assert_eq!(outcome.lifetimes.traces()[0].gen, GenId::YOUNG);
        assert_eq!(outcome.lifetimes.traces()[0].typical_survivals, 0);
    }

    #[test]
    fn conflicting_paths_are_detected_and_resolved() {
        let (_, program) = loaded();
        let mut records = AllocationRecords::default();
        let long_hashes: Vec<_> = (0..8).map(hash).collect();
        let short_hashes: Vec<_> = (100..108).map(hash).collect();
        for &h in &long_hashes {
            records.record(&long_trace(), h);
        }
        for &h in &short_hashes {
            records.record(&short_trace(), h);
        }
        let series: SnapshotSeries = (0..4).map(|s| snapshot(s, &long_hashes)).collect();
        let outcome = Analyzer::default().analyze(&records, &series, &program);
        assert_eq!(outcome.conflicts.len(), 1, "same site, different lifetimes");
        // The long path's generation is set at its distinguishing caller.
        let call = outcome
            .profile
            .gen_calls()
            .iter()
            .find(|c| c.at == CodeLoc::new("C", "longCaller", 10))
            .expect("resolution wraps the long caller");
        assert!(!call.gen.is_young());
        // No wrapper for the short path (young is the default).
        assert!(outcome
            .profile
            .gen_calls()
            .iter()
            .all(|c| c.at != CodeLoc::new("C", "shortCaller", 20)));
        // The site is annotated but not local.
        let site = outcome
            .profile
            .site_at(&CodeLoc::new("C", "make", 5))
            .unwrap();
        assert!(!site.local);
    }

    #[test]
    fn lifetime_classes_map_to_distinct_generations() {
        let (_, program) = loaded();
        let mut records = AllocationRecords::default();
        // Long path survives 16 snapshots, short path 2 — different log2
        // classes, hence different generations.
        let a: Vec<_> = (0..8).map(hash).collect();
        let b: Vec<_> = (100..108).map(hash).collect();
        for &h in &a {
            records.record(&long_trace(), h);
        }
        for &h in &b {
            records.record(&short_trace(), h);
        }
        let mut series = SnapshotSeries::new();
        for s in 0..16 {
            let mut live: Vec<_> = a.clone();
            if s < 2 {
                live.extend(&b);
            }
            series.push(snapshot(s, &live));
        }
        let outcome = Analyzer::default().analyze(&records, &series, &program);
        let gens = outcome.profile.generations_used();
        assert_eq!(
            gens.len(),
            2,
            "two lifetime classes, two generations: {gens:?}"
        );
    }

    #[test]
    fn sparse_traces_are_left_alone() {
        let (_, program) = loaded();
        let mut records = AllocationRecords::default();
        // Only two objects — below min_objects.
        for i in 0..2 {
            records.record(&long_trace(), hash(i));
        }
        let series: SnapshotSeries = (0..8).map(|s| snapshot(s, &[hash(0), hash(1)])).collect();
        let outcome = Analyzer::default().analyze(&records, &series, &program);
        assert!(outcome.profile.is_empty());
    }

    #[test]
    fn under_observed_runs_demote_to_young_and_count_it() {
        let (_, program) = loaded();
        let mut records = AllocationRecords::default();
        let hashes: Vec<_> = (0..8).map(hash).collect();
        for &h in &hashes {
            records.record(&long_trace(), h);
        }
        // One snapshot only (the rest were lost): the same evidence that
        // pretenures in `long_lived_sites_get_pretenured` must now demote.
        let series: SnapshotSeries = std::iter::once(snapshot(0, &hashes)).collect();
        let config = AnalyzerConfig {
            min_survivals: 1,
            ..AnalyzerConfig::default()
        };
        let outcome = Analyzer::new(config).analyze(&records, &series, &program);
        assert!(outcome.profile.is_empty(), "one snapshot is not evidence");
        assert_eq!(outcome.demoted_traces, 1);
        assert_eq!(outcome.lifetimes.traces()[0].gen, GenId::YOUNG);

        // With the guard relaxed the same inputs pretenure — proving the
        // guard (not the evidence) made the difference.
        let relaxed = AnalyzerConfig {
            min_survivals: 1,
            min_snapshots: 1,
            ..config
        };
        let outcome = Analyzer::new(relaxed).analyze(&records, &series, &program);
        assert!(!outcome.profile.is_empty());
        assert_eq!(outcome.demoted_traces, 0);
    }

    #[test]
    fn site_lifetimes_expose_histograms() {
        let (_, program) = loaded();
        let mut records = AllocationRecords::default();
        for i in 0..8 {
            records.record(&long_trace(), hash(i));
        }
        let series: SnapshotSeries = (0..3)
            .map(|s| snapshot(s, &(0..8).map(hash).collect::<Vec<_>>()))
            .collect();
        let outcome = Analyzer::default().analyze(&records, &series, &program);
        let site = CodeLoc::new("C", "make", 5);
        let stats: Vec<_> = outcome.lifetimes.at_site(&site).collect();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].objects, 8);
        assert_eq!(stats[0].typical_survivals, 3);
        assert_eq!(stats[0].histogram[&3], 8);
    }
}
