//! Differential tests for the width-generic mask redesign: multi-word
//! overlays against the single-word fast path, the Gray-code enumerator
//! against the ascending enumerator, and incremental toggles against full
//! reloads — including graphs beyond the historical 64-link wall.

use frr_graph::{generators, Graph, Node};
use frr_routing::failure::{FailureMasks, GrayFailureSets, GrayMasks};
use frr_routing::mask::MaskBuf;
use frr_routing::pattern::{RotorPattern, ShortestPathPattern};
use frr_routing::resilience::{
    check_bounded_r_resilience, check_bounded_touring_resilience, is_k_resilient_touring,
    EdgeLimitExceeded, BOUNDED_EDGE_LIMIT,
};
use frr_routing::simulator::{route, state_space_bound, tour};
use frr_routing::sweep::SweepEngine;
use frr_routing::walk::Forwarder;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Small builtin graphs whose masks still fit one word.
fn single_word_graphs() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(0xF19);
    let mut graphs = vec![
        generators::complete(5),
        generators::petersen(),
        generators::complete_bipartite(3, 4),
        generators::wheel(6),
        generators::grid(4, 4),
        generators::hypercube(4),
    ];
    graphs.extend((0..4).map(|_| generators::random_connected(9, 6, &mut rng)));
    graphs
}

/// Graphs past the 64-link wall (two or three mask words).
fn multi_word_graphs() -> Vec<Graph> {
    vec![
        generators::hypercube(5), // 80 links
        generators::random_connected(40, 30, &mut StdRng::seed_from_u64(0xBEEF)), // 69 links
        generators::wheel(70),    // 140 links, a degree-70 hub: two failed-port words
    ]
}

#[test]
fn gray_enumeration_equals_ascending_as_sets_at_every_cap() {
    for g in single_word_graphs() {
        let m = g.edge_count();
        // Small caps everywhere; the uncapped walk only where 2^m is small.
        let caps: Vec<Option<usize>> = (0..=3)
            .map(Some)
            .chain((m <= 14).then_some(None))
            .chain((m <= 14).then_some(Some(m)))
            .collect();
        for k in caps {
            let mut ascending: Vec<u64> = FailureMasks::with_max_failures(m, k).collect();
            let mut gray = Vec::new();
            let mut e = GrayMasks::with_max_failures(m, k);
            while e.advance() {
                gray.push(e.current().as_u64().expect("single word"));
            }
            let unsorted = gray.clone();
            ascending.sort_unstable();
            gray.sort_unstable();
            gray.dedup();
            assert_eq!(gray, ascending, "m={m}, k={k:?}");
            assert_eq!(gray.len(), unsorted.len(), "Gray emits no duplicates");
        }
    }
}

#[test]
fn gray_enumeration_equals_ascending_beyond_64_links() {
    // Same set equivalence on two-word masks, via the width-generic
    // ascending enumerator (`next_mask`).
    let m = 70;
    for k in [0usize, 1, 2] {
        let mut ascending: Vec<Vec<u64>> = Vec::new();
        let mut fm = FailureMasks::with_max_failures(m, Some(k));
        while let Some(mask) = fm.next_mask() {
            ascending.push(mask.words().to_vec());
        }
        let mut gray: Vec<Vec<u64>> = Vec::new();
        let mut e = GrayMasks::with_max_failures(m, Some(k));
        while e.advance() {
            gray.push(e.current().words().to_vec());
        }
        assert_eq!(gray.len(), ascending.len(), "k={k}");
        ascending.sort_unstable();
        gray.sort_unstable();
        assert_eq!(gray, ascending, "k={k}");
    }
}

#[test]
fn wide_zero_extended_masks_match_single_word_loads() {
    // The multi-word entry point fed a zero-extended wide mask must behave
    // exactly like the historical single-word fast path.
    let mut rng = StdRng::seed_from_u64(0x51DE);
    for g in single_word_graphs() {
        let m = g.edge_count();
        let p = ShortestPathPattern::new(&g);
        let p = Forwarder::Interpreted(&p);
        let max_hops = state_space_bound(&g);
        let mut wide = SweepEngine::new(&g);
        let mut narrow = SweepEngine::new(&g);
        for _ in 0..40 {
            let mask = rand::Rng::gen_range(&mut rng, 0..1u64 << m);
            wide.load_mask(&[mask, 0, 0][..]);
            narrow.load_mask(&mask);
            assert_eq!(wide.current_mask(), narrow.current_mask());
            assert_eq!(wide.current_failure_set(), narrow.current_failure_set());
            for s in g.nodes() {
                assert_eq!(wide.component_size(s), narrow.component_size(s));
                for t in g.nodes() {
                    assert_eq!(wide.same_component(s, t), narrow.same_component(s, t));
                    assert_eq!(
                        wide.route(&p, s, t, max_hops),
                        narrow.route(&p, s, t, max_hops)
                    );
                }
            }
        }
    }
}

#[test]
fn incremental_toggle_equals_full_reload_beyond_64_links() {
    // Drive the capped Gray sequence on >64-link topologies by toggles and
    // compare the full observable engine state against fresh reloads.
    for g in multi_word_graphs() {
        let m = g.edge_count();
        assert!(m > 64, "test graphs must be past the wall");
        let mut inc = SweepEngine::new(&g);
        let mut reference = SweepEngine::new(&g);
        assert!(inc.mask_width_words() >= 2);
        let mut gray = GrayMasks::with_max_failures(m, Some(2));
        let mut first = true;
        let mut checked = 0usize;
        while gray.advance() {
            if first {
                inc.load_mask(gray.current());
                first = false;
            } else {
                assert!(!gray.last_flips().is_empty());
                assert!(gray.last_flips().len() <= 2, "Gray steps flip at most 2");
                for &f in gray.last_flips() {
                    inc.toggle_edge(f as usize);
                }
            }
            reference.load_mask(gray.current());
            assert_eq!(inc.current_mask(), reference.current_mask());
            for e in g.edges() {
                assert_eq!(
                    inc.link_failed(e.u(), e.v()),
                    reference.link_failed(e.u(), e.v())
                );
            }
            for s in g.nodes() {
                assert_eq!(inc.component_size(s), reference.component_size(s));
            }
            // Pairwise connectivity on a sample of masks (quadratic in n).
            if checked.is_multiple_of(17) {
                for s in g.nodes() {
                    for t in g.nodes() {
                        assert_eq!(inc.same_component(s, t), reference.same_component(s, t));
                    }
                }
                assert_eq!(inc.current_failure_set(), reference.current_failure_set());
            }
            checked += 1;
        }
        assert!(checked > u64::BITS as usize, "swept past the wall");
    }
}

#[test]
fn multi_word_overlays_route_and_tour_like_the_simulator() {
    // Both decision sources on multi-word masks: the hypercube and random
    // graph compile, the wheel's degree-70 hub does not, so its walks read
    // the interpreted source's multi-word failed-port rows.
    let mut rng = StdRng::seed_from_u64(0x3A7);
    for g in multi_word_graphs() {
        let m = g.edge_count();
        let p = ShortestPathPattern::new(&g);
        let rotor = RotorPattern::clockwise(&g);
        let (routing, touring) = (Forwarder::new(&g, &p), Forwarder::new(&g, &rotor));
        let wide = g.nodes().any(|v| g.neighbors(v).count() >= 64);
        assert_eq!(matches!(routing, Forwarder::Interpreted(_)), wide);
        let max_hops = state_space_bound(&g);
        let mut engine = SweepEngine::new(&g);
        for k in [0usize, 1, 3, 8, 40] {
            let mut mask = MaskBuf::for_edges(m);
            for _ in 0..k {
                mask.set(rand::Rng::gen_range(&mut rng, 0..m));
            }
            engine.load_mask(&mask);
            let failures = engine.current_failure_set();
            for s in g.nodes().step_by(3) {
                for t in [Node(0), Node(g.node_count() / 2), Node(g.node_count() - 1)] {
                    assert_eq!(
                        engine.route(&routing, s, t, max_hops),
                        route(&g, &failures, &p, s, t, max_hops).outcome,
                        "{} nodes, {s}->{t}, F = {failures}",
                        g.node_count()
                    );
                }
                assert_eq!(
                    engine.tour_covers(&touring, s, max_hops),
                    tour(&g, &failures, &rotor, s, max_hops).covered_component,
                    "{} nodes, start {s}, F = {failures}",
                    g.node_count()
                );
            }
        }
    }
}

#[test]
fn bounded_touring_sweep_beyond_64_links_matches_simulator_reference() {
    // End-to-end: the bounded touring checker on an 80-link graph against a
    // clone-based simulator walk of the same canonical Gray order.
    let g = generators::hypercube(5);
    assert!(g.edge_count() > 64 && g.edge_count() <= BOUNDED_EDGE_LIMIT);
    let p = RotorPattern::clockwise(&g);
    let max_hops = state_space_bound(&g);
    let reference = GrayFailureSets::with_max_failures(&g, Some(1)).find_map(|failures| {
        g.nodes()
            .find(|&start| !tour(&g, &failures, &p, start, max_hops).covered_component)
            .map(|start| (failures, start))
    });
    match (is_k_resilient_touring(&g, &p, 1), reference) {
        (Ok(()), None) => {}
        (Err(ce), Some((failures, start))) => {
            assert_eq!(ce.failures, failures);
            assert_eq!(ce.source, start);
        }
        (checked, reference) => panic!(
            "checker and reference disagree: {checked:?} vs reference-found={}",
            reference.is_some()
        ),
    }
}

#[test]
fn bounded_checkers_reject_oversized_graphs_gracefully() {
    // complete(17) has 136 links — past BOUNDED_EDGE_LIMIT.  The Result API
    // reports the limit instead of panicking.
    let g = generators::complete(17);
    assert!(g.edge_count() > BOUNDED_EDGE_LIMIT);
    let p = ShortestPathPattern::new(&g);
    let expected = EdgeLimitExceeded {
        links: g.edge_count(),
        limit: BOUNDED_EDGE_LIMIT,
    };
    assert_eq!(check_bounded_r_resilience(&g, &p, 1).unwrap_err(), expected);
    let rotor = RotorPattern::clockwise(&g);
    let err = check_bounded_touring_resilience(&g, &rotor, 1).unwrap_err();
    assert_eq!(err, expected);
    assert!(err.to_string().contains("136"));
}
