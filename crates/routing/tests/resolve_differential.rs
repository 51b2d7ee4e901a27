//! Differential tests for the memoized resolve pass: for every failure mask,
//! `SweepEngine::first_undelivered` must name exactly the pair a plain
//! `s`-major scan of `SweepEngine::route` finds first — on the memoized path
//! (compiled destination-only and uniform tables) and on both per-pair
//! fallbacks (source–destination tables, interpreted patterns) — and every
//! checker and adversary built on it must return the counterexample of a
//! sequential per-pair reference sweep of the canonical Gray order.

use frr_core::algorithms::{
    ArborescenceFailoverPattern, K5SourcePattern, OuterplanarDestinationPattern,
};
use frr_graph::{generators, Graph, Node};
use frr_routing::adversary::{Adversary, BruteForceAdversary, Counterexample};
use frr_routing::budget::{RunBudget, Verdict};
use frr_routing::compiled::CompilePattern;
use frr_routing::failure::GrayMasks;
use frr_routing::model::{LocalContext, RoutingModel};
use frr_routing::pattern::{FnPattern, ForwardingPattern, RotorPattern, ShortestPathPattern};
use frr_routing::resilience::{check_bounded_r_resilience, is_perfectly_resilient};
use frr_routing::simulator::{route, state_space_bound};
use frr_routing::sweep::SweepEngine;
use frr_routing::walk::Forwarder;
use std::ops::Range;

/// SplitMix64's finalizer: a seeded, deterministic stand-in for randomness
/// that a pattern closure can evaluate on any local context.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded random destination-only pattern: per local context (node,
/// in-port, destination, failed neighbors — never the source) it delivers
/// to an alive destination neighbor most of the time, drops with
/// probability `drop_per_mille`, and otherwise forwards to a random alive
/// neighbor, which makes forwarding loops common.
fn random_destination_only(seed: u64, drop_per_mille: u64) -> Box<dyn CompilePattern> {
    Box::new(FnPattern::new(
        RoutingModel::DestinationOnly,
        format!("random-dest-{seed:x}"),
        move |ctx: &LocalContext<'_>| {
            let mut h = mix(seed ^ ctx.node.index() as u64);
            h = mix(h ^ ctx.inport.map_or(u64::MAX, |u| u.index() as u64));
            h = mix(h ^ (ctx.destination.index() as u64) << 32);
            for u in ctx.failed_neighbors {
                h = mix(h ^ u.index() as u64);
            }
            if ctx.destination_is_alive_neighbor() && !h.is_multiple_of(4) {
                return Some(ctx.destination);
            }
            if (h >> 8) % 1000 < drop_per_mille {
                return None;
            }
            let alive = ctx.alive_neighbors();
            (!alive.is_empty()).then(|| alive[(h >> 20) as usize % alive.len()])
        },
    ))
}

/// A seeded random source–destination pattern (the per-pair table path).
fn random_source_destination(seed: u64) -> Box<dyn CompilePattern> {
    Box::new(FnPattern::new(
        RoutingModel::SourceDestination,
        format!("random-pair-{seed:x}"),
        move |ctx: &LocalContext<'_>| {
            let mut h = mix(seed ^ ctx.node.index() as u64);
            h = mix(h ^ ctx.inport.map_or(u64::MAX, |u| u.index() as u64));
            h = mix(h ^ (ctx.destination.index() as u64) << 32 ^ ctx.source.index() as u64);
            if ctx.destination_is_alive_neighbor() && !h.is_multiple_of(3) {
                return Some(ctx.destination);
            }
            let alive = ctx.alive_neighbors();
            (!alive.is_empty()).then(|| alive[(h >> 20) as usize % alive.len()])
        },
    ))
}

/// The destination-only portfolio every graph gets.
fn portfolio(g: &Graph, seed: u64) -> Vec<Box<dyn CompilePattern>> {
    vec![
        random_destination_only(seed, 0),
        random_destination_only(seed ^ 0x5EED, 50),
        random_destination_only(seed ^ 0xD20B, 300),
        Box::new(ShortestPathPattern::new(g)),
        Box::new(RotorPattern::clockwise_with_shortcut(g)),
        Box::new(OuterplanarDestinationPattern::new(g)),
    ]
}

/// The test graphs and the failure cap each is swept with.
fn graphs() -> Vec<(&'static str, Graph, Option<usize>)> {
    vec![
        ("cycle12", generators::cycle(12), None),
        ("grid4x4", generators::grid(4, 4), Some(2)),
        ("hypercube3", generators::hypercube(3), None),
        ("wheel9", generators::wheel(9), Some(3)),
        ("k6", generators::complete(6), Some(3)),
        // Two mask words.
        ("cycle70", generators::cycle(70), Some(1)),
    ]
}

/// The reference: the earliest undelivered pair by a plain `s`-major scan
/// of per-pair routes.
fn reference_first<P: ForwardingPattern + ?Sized>(
    engine: &mut SweepEngine<'_>,
    forwarder: &Forwarder<'_, P>,
    destinations: Range<usize>,
    max_hops: usize,
) -> Option<(Node, Node)> {
    let n = engine.graph().node_count();
    for s in (0..n).map(Node) {
        for t in destinations.clone().map(Node) {
            if s != t
                && engine.same_component(s, t)
                && !engine.route(forwarder, s, t, max_hops).is_delivered()
            {
                return Some((s, t));
            }
        }
    }
    None
}

/// The destination ranges the masks are checked with: all destinations, a
/// middle window, and the first, a middle and the last single destination.
fn destination_ranges(n: usize) -> [Range<usize>; 5] {
    [0..n, n / 3..n - n / 3, 0..1, n / 2..n / 2 + 1, n - 1..n]
}

/// Asserts `first_undelivered` ≡ the per-pair `s`-major scan on every mask
/// of `g`'s (capped) sweep space and every destination range; returns how
/// many masks had an undelivered pair, so callers can check the case is not
/// vacuous.
fn assert_matches_reference<P: ForwardingPattern + ?Sized>(
    label: &str,
    g: &Graph,
    cap: Option<usize>,
    forwarder: &Forwarder<'_, P>,
) -> usize {
    let n = g.node_count();
    let max_hops = state_space_bound(g);
    let mut engine = SweepEngine::new(g);
    let mut masks = GrayMasks::with_max_failures(g.edge_count(), cap);
    let mut undelivered = vec![false; n * n];
    let mut refuted = 0;
    while masks.advance() {
        engine.load_mask(masks.current());
        // Every pair routed once per mask; each range's reference is the
        // first undelivered pair of an `s`-major scan of this table.
        for (i, cell) in undelivered.iter_mut().enumerate() {
            let (s, t) = (Node(i / n), Node(i % n));
            *cell = s != t
                && engine.same_component(s, t)
                && !engine.route(forwarder, s, t, max_hops).is_delivered();
        }
        for range in destination_ranges(n) {
            let expected = (0..n)
                .flat_map(|s| range.clone().map(move |t| (s, t)))
                .find(|&(s, t)| undelivered[s * n + t])
                .map(|(s, t)| (Node(s), Node(t)));
            assert_eq!(
                engine.first_undelivered(forwarder, range.clone()),
                expected,
                "{label}: mask {}, destinations {range:?}",
                engine.current_failure_set()
            );
        }
        refuted += undelivered.contains(&true) as usize;
    }
    refuted
}

#[test]
fn memoized_pass_matches_per_pair_scan() {
    let mut refuted_somewhere = 0;
    for (gi, (name, g, cap)) in graphs().into_iter().enumerate() {
        for pattern in portfolio(&g, 0xA5A5 + gi as u64) {
            let compiled = Forwarder::new(&g, &pattern);
            assert!(
                matches!(compiled, Forwarder::Compiled(_)),
                "{name}: {} compiles",
                pattern.name()
            );
            let label = format!("{name}/{}", pattern.name());
            refuted_somewhere += assert_matches_reference(&label, &g, cap, &compiled);
        }
    }
    assert!(refuted_somewhere > 0, "the portfolio must produce failures");
}

#[test]
fn memoized_pass_matches_on_arborescence_failover() {
    // The Walecki construction needs odd n; K7's ≤ 5-failure space is where
    // multi-hop reroutes dominate.
    for (n, cap) in [(5, None), (7, Some(5))] {
        let g = generators::complete(n);
        let pattern = ArborescenceFailoverPattern::for_complete(n);
        let compiled = Forwarder::new(&g, &pattern);
        assert!(matches!(compiled, Forwarder::Compiled(_)));
        assert_matches_reference(&format!("k{n}/arborescence"), &g, cap, &compiled);
    }
}

#[test]
fn per_pair_fallbacks_match_per_pair_scan() {
    // Source–destination tables route pair by pair.
    let k5 = generators::complete(5);
    let k5_source = K5SourcePattern::new(&k5);
    let compiled = Forwarder::new(&k5, &k5_source);
    assert!(matches!(compiled, Forwarder::Compiled(_)));
    assert_eq!(
        assert_matches_reference("k5/k5-source", &k5, None, &compiled),
        0
    );
    for (name, g, cap) in [
        ("cycle12", generators::cycle(12), None),
        ("wheel9", generators::wheel(9), Some(3)),
    ] {
        let pattern = random_source_destination(0x50D);
        let compiled = Forwarder::new(&g, &pattern);
        assert!(matches!(compiled, Forwarder::Compiled(_)));
        let refuted = assert_matches_reference(&format!("{name}/pair"), &g, cap, &compiled);
        assert!(
            refuted > 0,
            "{name}: the random pair pattern fails somewhere"
        );
    }
    // Interpreted patterns route pair by pair whatever model they declare
    // (their `next_hop` sees the real source).  That they agree with the
    // memoized pass on the same pattern's tables follows from the test
    // above and the compiled ≡ interpreted differential suite.
    for (gi, (name, g, cap)) in graphs().into_iter().enumerate().take(4) {
        for pattern in portfolio(&g, 0x1A7E + gi as u64) {
            let label = format!("{name}/{}/interpreted", pattern.name());
            assert_matches_reference(&label, &g, cap, &Forwarder::Interpreted(&pattern));
        }
    }
}

/// The counterexample a sequential per-pair reference sweep of the Gray
/// order returns first, replayed through the simulator like the checkers.
fn reference_counterexample<P: CompilePattern + ?Sized>(
    g: &Graph,
    pattern: &P,
    cap: Option<usize>,
) -> Option<Counterexample> {
    let max_hops = state_space_bound(g);
    let forwarder = Forwarder::new(g, pattern);
    let mut engine = SweepEngine::new(g);
    let mut masks = GrayMasks::with_max_failures(g.edge_count(), cap);
    while masks.advance() {
        engine.load_mask(masks.current());
        if let Some((s, t)) = reference_first(&mut engine, &forwarder, 0..g.node_count(), max_hops)
        {
            let failures = engine.current_failure_set();
            let result = route(g, &failures, pattern, s, t, max_hops);
            return Some(Counterexample {
                failures,
                source: s,
                destination: t,
                outcome: result.outcome,
                path: result.path,
            });
        }
    }
    None
}

#[test]
fn checker_counterexamples_match_per_pair_reference() {
    let mut found = 0;
    for (gi, (name, g, cap)) in graphs().into_iter().enumerate() {
        let mut patterns = portfolio(&g, 0xC4EC + gi as u64);
        if g.edge_count() > 64 {
            // On the 70-link ring a pattern that delivers everywhere has the
            // reference route all 4 830 pairs of every mask; the seeded
            // random patterns fail early and still cover the multi-word
            // checkers.
            patterns.truncate(3);
        }
        patterns.push(random_source_destination(0xC4EC ^ gi as u64));
        for pattern in &patterns {
            let label = format!("{name}/{}", pattern.name());
            let r = cap.unwrap_or(2).min(2);
            let bounded = reference_counterexample(&g, pattern, Some(r));
            found += bounded.is_some() as usize;
            assert_eq!(
                check_bounded_r_resilience(&g, pattern, r)
                    .expect("test graphs fit the bounded sweep")
                    .err(),
                bounded,
                "{label}: check_bounded_r_resilience r={r}"
            );
            let adversary = BruteForceAdversary::with_max_failures(r);
            assert_eq!(
                adversary.find_counterexample(&g, pattern),
                bounded,
                "{label}: brute force"
            );
            let verdict = adversary
                .search_with_budget(&g, pattern, &RunBudget::unlimited())
                .expect("no probe panics");
            match (&verdict, &bounded) {
                (Verdict::Refuted(ce), Some(expected)) => assert_eq!(ce, expected, "{label}"),
                (Verdict::Proven, None) => {}
                _ => panic!("{label}: budgeted brute force gave {verdict:?}"),
            }
            if cap.is_none() {
                assert_eq!(
                    is_perfectly_resilient(&g, pattern).err(),
                    reference_counterexample(&g, pattern, None),
                    "{label}: is_perfectly_resilient"
                );
            }
        }
    }
    assert!(found > 0, "some reference sweep must find a counterexample");
}
