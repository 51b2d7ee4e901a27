//! Differential tests for the compiled-pattern substrate: the dense rule
//! tables must replicate the interpreted `ForwardingPattern` **exactly** —
//! same outcomes, same paths, same hop counts, same tour coverage — for every
//! pattern shape, including deliberately broken ones (non-neighbor forwards,
//! failed-link forwards, non-priority-list decision functions), across seeded
//! random graphs × failure masks, through every consumer layer (the generic
//! tabulator, `CompiledSim`, the sweep engine's walk kernel on compiled
//! tables, and the
//! checkers/adversaries that compile internally).

use frr_graph::{generators, Graph, Node};
use frr_routing::adversary::{Adversary, BruteForceAdversary, RandomAdversary};
use frr_routing::compiled::{tabulate, CompilePattern, CompiledPattern, CompiledSim};
use frr_routing::failure::{failure_set_from_mask, FailureSet};
use frr_routing::model::RoutingModel;
use frr_routing::pattern::{FnPattern, ForwardingPattern, RotorPattern, ShortestPathPattern};
use frr_routing::simulator::{route, state_space_bound, tour};
use frr_routing::sweep::SweepEngine;
use frr_routing::walk::Forwarder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded random connected graphs spanning sparse trees-plus-chords to dense
/// little meshes.
fn random_graphs(seed: u64, count: usize) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let n = rng.gen_range(4..9);
            let extra = rng.gen_range(0..6);
            generators::random_connected(n, extra, &mut rng)
        })
        .collect()
}

/// A deterministic sample of failure masks of `g`: every mask for tiny edge
/// counts, a seeded sample otherwise.
fn sample_masks(g: &Graph, rng: &mut StdRng) -> Vec<u64> {
    let m = g.edge_count();
    if m <= 10 {
        return (0..1u64 << m).collect();
    }
    let mut masks = vec![0u64, (1u64 << m) - 1];
    masks.extend((0..150).map(|_| rng.gen_range(0..1u64 << m)));
    masks
}

/// The generic pattern portfolio, including hostile shapes: a pattern that
/// teleports to a non-neighbor, one that forwards onto failed links, and one
/// whose decision function is not expressible as a priority list.
fn portfolio(g: &Graph) -> Vec<Box<dyn CompilePattern>> {
    let n = g.node_count();
    vec![
        Box::new(RotorPattern::clockwise(g)),
        Box::new(RotorPattern::clockwise_with_shortcut(g)),
        Box::new(ShortestPathPattern::new(g)),
        Box::new(FnPattern::new(RoutingModel::DestinationOnly, "teleport", {
            move |_: &frr_routing::model::LocalContext<'_>| Some(Node(n + 7))
        })),
        Box::new(FnPattern::new(
            RoutingModel::DestinationOnly,
            "ignore-failures",
            |ctx: &frr_routing::model::LocalContext<'_>| {
                // Forwards to its smallest static neighbor even when that
                // link failed — the simulator must fault identically.
                ctx.graph.neighbors(ctx.node).next()
            },
        )),
        Box::new(FnPattern::new(
            RoutingModel::SourceDestination,
            "largest-unless-lonely",
            |ctx: &frr_routing::model::LocalContext<'_>| {
                let alive = ctx.alive_neighbors();
                match alive.len() {
                    0 => None,
                    1 => Some(alive[0]),
                    _ => alive.last().copied(),
                }
            },
        )),
    ]
}

#[test]
fn compiled_routing_matches_interpreter_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for g in random_graphs(11, 8) {
        let max_hops = state_space_bound(&g);
        let mut engine = SweepEngine::new(&g);
        for pattern in portfolio(&g) {
            let cp = pattern
                .compile(&g)
                .expect("small graphs compile within budget");
            let mut sim = CompiledSim::new(&cp);
            let compiled = Forwarder::new(&g, &cp);
            assert!(matches!(compiled, Forwarder::Compiled(_)));
            for mask in sample_masks(&g, &mut rng) {
                engine.load_mask(&mask);
                let failures = failure_set_from_mask(engine.edges(), &mask);
                sim.load_failures(&cp, &failures);
                for s in g.nodes() {
                    for t in g.nodes() {
                        let reference = route(&g, &failures, &pattern, s, t, max_hops);
                        // Full result equality (outcome, path, hops) on the
                        // standalone compiled simulator...
                        assert_eq!(
                            sim.route(&cp, s, t, max_hops),
                            reference,
                            "graph {g:?}, mask {mask:#b}, {s}->{t}, {}",
                            pattern.name()
                        );
                        // ...and outcome equality on the sweep engine's
                        // compiled hot loop.
                        assert_eq!(
                            engine.route(&compiled, s, t, max_hops),
                            reference.outcome,
                            "graph {g:?}, mask {mask:#b}, {s}->{t}, {}",
                            pattern.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn compiled_touring_matches_interpreter_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0x7007);
    for g in random_graphs(23, 6) {
        let max_hops = state_space_bound(&g);
        let mut engine = SweepEngine::new(&g);
        let patterns: Vec<Box<dyn CompilePattern>> = vec![
            Box::new(RotorPattern::clockwise(&g)),
            Box::new(FnPattern::new(
                RoutingModel::Touring,
                "largest-unless-lonely",
                |ctx: &frr_routing::model::LocalContext<'_>| {
                    let alive = ctx.alive_neighbors();
                    match alive.len() {
                        0 => None,
                        1 => Some(alive[0]),
                        _ => alive.last().copied(),
                    }
                },
            )),
        ];
        for pattern in patterns {
            let cp = pattern.compile(&g).expect("compiles");
            let mut sim = CompiledSim::new(&cp);
            let compiled = Forwarder::new(&g, &cp);
            for mask in sample_masks(&g, &mut rng) {
                engine.load_mask(&mask);
                let failures = failure_set_from_mask(engine.edges(), &mask);
                sim.load_failures(&cp, &failures);
                for start in g.nodes() {
                    let reference = tour(&g, &failures, &pattern, start, max_hops);
                    // Full TourResult equality: visited set, coverage,
                    // return-to-start, and the walk itself.
                    assert_eq!(
                        sim.tour(&cp, start, max_hops),
                        reference,
                        "graph {g:?}, mask {mask:#b}, start {start}, {}",
                        pattern.name()
                    );
                    assert_eq!(
                        engine.tour_covers(&compiled, start, max_hops),
                        reference.covered_component,
                    );
                }
            }
        }
    }
}

#[test]
fn compiled_pattern_next_hop_agrees_as_forwarding_pattern() {
    // `CompiledPattern` is itself a `ForwardingPattern`; its `next_hop` must
    // agree with the source pattern on every reachable local context.
    for g in random_graphs(77, 6) {
        for pattern in portfolio(&g) {
            let cp: CompiledPattern = pattern.compile(&g).expect("compiles");
            let max_hops = state_space_bound(&g);
            let mut rng = StdRng::seed_from_u64(5);
            for mask in sample_masks(&g, &mut rng) {
                let failures = failure_set_from_mask(&g.edges(), &mask);
                for s in g.nodes() {
                    for t in g.nodes() {
                        assert_eq!(
                            route(&g, &failures, &cp, s, t, max_hops),
                            route(&g, &failures, &pattern, s, t, max_hops),
                            "graph {g:?}, mask {mask:#b}, {s}->{t}, {}",
                            pattern.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn checkers_produce_identical_counterexamples_with_and_without_compilation() {
    // The checkers compile internally; a wrapper that refuses compilation
    // forces the interpreted path, and the results must be byte-identical.
    struct NoCompile<P>(P);
    impl<P: ForwardingPattern> ForwardingPattern for NoCompile<P> {
        fn model(&self) -> RoutingModel {
            self.0.model()
        }
        fn next_hop(&self, ctx: &frr_routing::model::LocalContext<'_>) -> Option<frr_graph::Node> {
            self.0.next_hop(ctx)
        }
        fn name(&self) -> std::borrow::Cow<'static, str> {
            self.0.name()
        }
    }
    impl<P: ForwardingPattern> CompilePattern for NoCompile<P> {
        fn compile(&self, _g: &Graph) -> Option<CompiledPattern> {
            None
        }
    }

    for g in random_graphs(4242, 6) {
        let p = ShortestPathPattern::new(&g);
        let uncompiled = NoCompile(ShortestPathPattern::new(&g));
        assert_eq!(
            frr_routing::resilience::is_perfectly_resilient(&g, &p),
            frr_routing::resilience::is_perfectly_resilient(&g, &uncompiled),
            "graph {g:?}"
        );
        let rotor = RotorPattern::clockwise(&g);
        assert_eq!(
            frr_routing::resilience::is_perfectly_resilient_touring(&g, &rotor),
            frr_routing::resilience::is_perfectly_resilient_touring(
                &g,
                &NoCompile(RotorPattern::clockwise(&g))
            ),
            "graph {g:?}"
        );
        let brute = BruteForceAdversary::with_max_failures(3);
        assert_eq!(
            brute.find_counterexample(&g, &p),
            brute.find_counterexample(&g, &uncompiled),
            "graph {g:?}"
        );
        let random = RandomAdversary::new(300, 3, 99);
        assert_eq!(
            random.find_counterexample(&g, &p),
            random.find_counterexample(&g, &uncompiled),
            "graph {g:?}"
        );
    }
}

#[test]
fn metrics_identical_with_and_without_compilation() {
    let g = generators::complete(6);
    let p = ShortestPathPattern::new(&g);
    let cp = tabulate(&g, &p).expect("compiles");
    let mut sim = CompiledSim::new(&cp);
    let mut rng = StdRng::seed_from_u64(31);
    let mut scenarios = Vec::new();
    for _ in 0..120 {
        let k = rng.gen_range(0..4);
        let failures = frr_routing::failure::random_failure_set(&g, k, &mut rng);
        let s = Node(rng.gen_range(0..6));
        let t = Node(rng.gen_range(0..6));
        scenarios.push((failures, s, t));
    }
    let stats = frr_routing::metrics::evaluate_scenarios(&g, &p, &scenarios);
    // Replay by hand on the compiled simulator and compare the tallies.
    let mut delivered = 0usize;
    for (failures, s, t) in &scenarios {
        if s == t || !FailureSet::keeps_connected(failures, &g, *s, *t) {
            continue;
        }
        sim.load_failures(&cp, failures);
        delivered += sim
            .route(&cp, *s, *t, state_space_bound(&g))
            .outcome
            .is_delivered() as usize;
    }
    assert_eq!(stats.delivered, delivered);
    assert!(stats.connected_scenarios >= stats.delivered);
}
