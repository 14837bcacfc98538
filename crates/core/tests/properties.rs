//! Property-based tests for POLM2's data structures: the profile format (and
//! its parser under damaged input) and the STTree conflict machinery.

use proptest::prelude::*;

use polm2_core::{seal_profile_text, AllocationProfile, GenCall, PretenuredSite, SttTree};
use polm2_heap::GenId;
use polm2_runtime::CodeLoc;

fn arb_loc() -> impl Strategy<Value = CodeLoc> {
    ("[A-Z][a-z]{1,8}", "[a-z]{1,8}", 1u32..200)
        .prop_map(|(class, method, line)| CodeLoc::new(class, method, line))
}

fn arb_site() -> impl Strategy<Value = PretenuredSite> {
    (arb_loc(), 1u32..6, any::<bool>()).prop_map(|(loc, gen, local)| PretenuredSite {
        loc,
        gen: GenId::new(gen),
        local,
    })
}

fn arb_call() -> impl Strategy<Value = GenCall> {
    (arb_loc(), 1u32..6).prop_map(|(at, gen)| GenCall {
        at,
        gen: GenId::new(gen),
    })
}

/// One character edit of a rendering: `(kind, char, position)`, with kind
/// 0 = delete, 1 = insert, 2 = replace, 3 = truncate. The position is taken
/// modulo the text length when the edit is applied.
fn arb_edit() -> impl Strategy<Value = (u8, char, usize)> {
    let chars = prop_oneof![
        6 => (32u8..127).prop_map(char::from),
        Just('\n'),
        Just('é'),
        Just('\0'),
    ];
    (0u8..4, chars, any::<usize>())
}

fn apply_edit(text: &mut Vec<char>, (kind, c, pos): (u8, char, usize)) {
    let at = pos % (text.len() + 1);
    match kind {
        0 if at < text.len() => {
            text.remove(at);
        }
        1 => text.insert(at, c),
        2 if at < text.len() => text[at] = c,
        3 => text.truncate(at),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any profile survives serialization to text and back.
    #[test]
    fn profile_text_round_trip(
        sites in proptest::collection::vec(arb_site(), 0..20),
        calls in proptest::collection::vec(arb_call(), 0..20),
    ) {
        let mut profile = AllocationProfile::new();
        for s in sites {
            profile.add_site(s);
        }
        for c in calls {
            profile.add_gen_call(c);
        }
        let text = profile.to_string();
        let parsed: AllocationProfile = text.parse().expect("well-formed output");
        // Entries survive as sets (serialization orders them; duplicates at
        // the same location collapse deterministically to the rendered one).
        for site in parsed.sites() {
            prop_assert!(profile.sites().contains(site), "{site:?} not in source");
        }
        for call in parsed.gen_calls() {
            prop_assert!(profile.gen_calls().contains(call), "{call:?} not in source");
        }
        // Re-serializing the parse is a fixpoint.
        prop_assert_eq!(parsed.to_string(), text);
    }

    /// STTree conflict resolution always terminates and yields, per
    /// conflict, one resolution per path, anchored at a node on that path.
    #[test]
    fn sttree_resolutions_are_per_path(
        paths in proptest::collection::vec(
            (proptest::collection::vec(arb_loc(), 1..5), 0u32..4),
            1..30,
        ),
    ) {
        let mut tree = SttTree::new();
        for (path, gen) in &paths {
            tree.insert_path(path, GenId::new(*gen));
        }
        let conflicts = tree.detect_conflicts();
        let resolutions = tree.solve_conflicts(&conflicts);
        let members: usize = conflicts.iter().map(|c| c.path_count()).sum();
        prop_assert_eq!(resolutions.len(), members);
        for conflict in &conflicts {
            // Every conflict involves at least two distinct generations.
            let gens: std::collections::HashSet<u32> = resolutions
                .iter()
                .filter(|r| r.leaf == conflict.loc)
                .map(|r| r.gen.raw())
                .collect();
            prop_assert!(gens.len() >= 2, "conflict without generation diversity");
        }
    }

    /// Leaves reachable through a single path never conflict.
    #[test]
    fn unique_paths_do_not_conflict(
        stems in proptest::collection::vec(arb_loc(), 2..12),
        gens in proptest::collection::vec(0u32..4, 2..12),
    ) {
        let mut tree = SttTree::new();
        for (i, stem) in stems.iter().enumerate() {
            // Each path ends in a site unique to it.
            let site = CodeLoc::new("Site", "alloc", 1_000 + i as u32);
            tree.insert_path(&[stem.clone(), site], GenId::new(gens[i % gens.len()]));
        }
        prop_assert!(tree.detect_conflicts().is_empty());
    }

    /// Hoisting never picks a location deeper than the leaf and always
    /// returns the leaf itself when siblings disagree.
    #[test]
    fn hoist_points_are_sound(gen_a in 1u32..4, gen_b in 1u32..4) {
        let mut tree = SttTree::new();
        let caller = CodeLoc::new("App", "run", 1);
        tree.insert_path(&[caller.clone(), CodeLoc::new("A", "make", 2)], GenId::new(gen_a));
        tree.insert_path(&[caller.clone(), CodeLoc::new("B", "make", 3)], GenId::new(gen_b));
        let none = std::collections::HashSet::new();
        for leaf in tree.leaves() {
            let (at, is_leaf) = tree.hoist_point(leaf.idx, &none);
            if gen_a == gen_b {
                prop_assert_eq!(&at, &caller, "same gens hoist to the shared caller");
                prop_assert!(!is_leaf);
            } else {
                prop_assert_eq!(at, leaf.loc.clone(), "mixed gens stay site-local");
                prop_assert!(is_leaf);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The profile parser survives damaged files: after 1–4 random
    /// character edits of a rendering, sealed or not, `from_str` never
    /// panics, and anything it accepts renders to a render → parse → render
    /// fixpoint.
    #[test]
    fn damaged_profile_text_never_panics_the_parser(
        sites in proptest::collection::vec(arb_site(), 0..8),
        calls in proptest::collection::vec(arb_call(), 0..8),
        edits in proptest::collection::vec(arb_edit(), 1..5),
    ) {
        let mut profile = AllocationProfile::new();
        for s in sites {
            profile.add_site(s);
        }
        for c in calls {
            profile.add_gen_call(c);
        }
        let plain = profile.to_string();
        let mut sealed = plain.clone();
        seal_profile_text(&mut sealed);
        for rendering in [plain, sealed] {
            let mut text: Vec<char> = rendering.chars().collect();
            for &edit in &edits {
                apply_edit(&mut text, edit);
            }
            let damaged: String = text.into_iter().collect();
            if let Ok(parsed) = damaged.parse::<AllocationProfile>() {
                let rendered = parsed.to_string();
                let reparsed: AllocationProfile =
                    rendered.parse().expect("a rendering parses");
                prop_assert_eq!(reparsed.to_string(), rendered, "from {:?}", damaged);
            }
        }
    }
}
