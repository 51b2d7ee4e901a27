//! `verify-sparse` and `verify-dense`: exhaustive failure-set sweeps of the
//! budgeted resilience checkers, in two families timed apart.
//!
//! * sparse — long walks: the outerplanar members with 20–36 links of two
//!   seeded zoos (`OuterplanarDestinationPattern`, r = 2), `cycle(40)`
//!   shortest-path r = 2 and `cycle(72)` rotor touring k = 2.
//! * dense — one- or two-hop walks, where mask enumeration and component
//!   upkeep weigh more: K7 r = 5 (arborescence, shortest-path, rotor), K8
//!   r = 5 (shortest-path, rotor), K5 perfect resilience with
//!   `K5SourcePattern`, and the Theorem 14/15 adversary rows.
//!
//! A check is one element of the swept space, counted from the case:
//! Σ_{i≤r} C(m,i) masks × n(n−1) ordered pairs for routing, masks × n start
//! nodes for touring.

use crate::trace::{total_ns_by_name, Tracer};
use crate::zoo::{derived_seed, seeded_zoo};
use crate::{Gates, Workload};
use frr_core::algorithms::{
    ArborescenceFailoverPattern, K5SourcePattern, OuterplanarDestinationPattern,
};
use frr_core::impossibility::{
    bipartite_few_failures_with_budget, complete_few_failures_with_budget, FewFailuresVerdict,
};
use frr_graph::outerplanar::{is_outerplanar_without, OuterplanarScratch};
use frr_graph::{generators, BitGraph, Graph};
use frr_routing::adversary::verify_counterexample;
use frr_routing::budget::{RunBudget, Verdict, WorkerPanicked};
use frr_routing::compiled::CompilePattern;
use frr_routing::pattern::{RotorPattern, ShortestPathPattern};
use frr_routing::resilience::{
    check_bounded_r_resilience_with_budget, check_bounded_touring_resilience_with_budget,
    is_perfectly_resilient_with_budget,
};
use frr_routing::sweep::sweep_find_first;
use std::marker::PhantomData;
use std::time::Instant;

/// Which family a `VerifySweep` runs.
pub trait Family {
    const NAME: &'static str;
    const MASK_MS: &'static str;
    const WALK_MS: &'static str;
    const WALK_NS_PER_CHECK: &'static str;
    fn cases(seed: u64, tracer: &mut Tracer) -> (Vec<Case>, Vec<AdversaryRow>);
}

pub struct Sparse;
/// Zoos the sparse family draws its graphs from: the seed's own and one
/// from a derived seed.  One zoo holds about 30 such graphs, and their walk
/// lengths set the per-check cost, so a second zoo halves how much the
/// seed's draw moves the figures.
const SPARSE_ZOOS: usize = 2;
pub struct Dense;

/// The swept property.
#[derive(Clone, Copy)]
pub enum Property {
    /// Routing under at most `r` failures (`None`: every failure set).
    Routing(Option<usize>),
    /// Touring under at most `k` failures.
    Touring(usize),
}

pub struct Case {
    label: String,
    graph: Graph,
    pattern: Box<dyn CompilePattern>,
    property: Property,
}

/// A Theorem 14 (`K_n`) or 15 (`K_{a,b}`) bounded-failure construction.
pub struct AdversaryRow {
    label: String,
    graph: Graph,
    parts: Option<(usize, usize)>,
    pattern: Box<dyn CompilePattern>,
    /// The failure-set size `thm14_15_few_failures` prints for this row.
    expected_size: usize,
}

/// `C(m, i)` summed over `i ≤ cap` (all `2^m` without a cap).
pub fn masks_in_space(m: usize, cap: Option<usize>) -> u64 {
    let cap = cap.unwrap_or(m).min(m);
    let mut total = 0u64;
    let mut c = 1u64;
    for i in 0..=cap {
        total += c;
        c = c * (m - i) as u64 / (i as u64 + 1);
    }
    total
}

impl Case {
    fn cap(&self) -> Option<usize> {
        match self.property {
            Property::Routing(r) => r,
            Property::Touring(k) => Some(k),
        }
    }

    fn masks(&self) -> u64 {
        masks_in_space(self.graph.edge_count(), self.cap())
    }

    /// Elements of the swept space: masks × ordered pairs (routing) or ×
    /// start nodes (touring).
    pub fn checks(&self) -> u64 {
        let n = self.graph.node_count() as u64;
        let per_mask = match self.property {
            Property::Routing(_) => n * (n - 1),
            Property::Touring(_) => n,
        };
        self.masks() * per_mask
    }

    fn run(&self) -> Result<Verdict, WorkerPanicked> {
        let (g, p, budget) = (&self.graph, self.pattern.as_ref(), &RunBudget::unlimited());
        match self.property {
            Property::Routing(None) => is_perfectly_resilient_with_budget(g, p, budget),
            Property::Routing(Some(r)) => check_bounded_r_resilience_with_budget(g, p, r, budget),
            Property::Touring(k) => check_bounded_touring_resilience_with_budget(g, p, k, budget),
        }
    }
}

fn case(label: String, graph: Graph, pattern: Box<dyn CompilePattern>, property: Property) -> Case {
    Case {
        label,
        graph,
        pattern,
        property,
    }
}

impl Family for Sparse {
    const NAME: &'static str = "verify-sparse";
    const MASK_MS: &'static str = "routing.mask.sparse.ms";
    const WALK_MS: &'static str = "routing.walk.sparse.ms";
    const WALK_NS_PER_CHECK: &'static str = "routing.walk.sparse.ns_per_check";

    fn cases(seed: u64, tracer: &mut Tracer) -> (Vec<Case>, Vec<AdversaryRow>) {
        let mut scratch = OuterplanarScratch::default();
        let mut cases = Vec::new();
        for j in 0..SPARSE_ZOOS {
            // Later zoos add their synthetic graphs only; the bundled ones
            // are the same in every zoo.
            for t in seeded_zoo(derived_seed(seed, j), tracer) {
                let g = &t.graph;
                if (j > 0 && t.real)
                    || !(20..=36).contains(&g.edge_count())
                    || !is_outerplanar_without(&BitGraph::from_graph(g), None, &mut scratch)
                {
                    continue;
                }
                let p = Box::new(OuterplanarDestinationPattern::new(g));
                let label = if j == 0 {
                    t.name
                } else {
                    format!("{}#{j}", t.name)
                };
                cases.push(case(label, t.graph, p, Property::Routing(Some(2))));
            }
        }
        let c40 = generators::cycle(40);
        let p = Box::new(ShortestPathPattern::new(&c40));
        cases.push(case("cycle(40)".into(), c40, p, Property::Routing(Some(2))));
        let c72 = generators::cycle(72);
        let p = Box::new(RotorPattern::clockwise(&c72));
        cases.push(case("cycle(72)".into(), c72, p, Property::Touring(2)));
        (cases, Vec::new())
    }
}

impl Family for Dense {
    const NAME: &'static str = "verify-dense";
    const MASK_MS: &'static str = "routing.mask.dense.ms";
    const WALK_MS: &'static str = "routing.walk.dense.ms";
    const WALK_NS_PER_CHECK: &'static str = "routing.walk.dense.ns_per_check";

    /// The dense inputs are fixed graphs: complete graphs are invariant
    /// under relabelling, so the seed has nothing to vary.
    fn cases(_seed: u64, _tracer: &mut Tracer) -> (Vec<Case>, Vec<AdversaryRow>) {
        let k7 = generators::complete(7);
        let k8 = generators::complete(8);
        let k5 = generators::complete(5);
        let r5 = Property::Routing(Some(5));
        let cases = vec![
            case(
                "K7 arborescence".into(),
                k7.clone(),
                Box::new(ArborescenceFailoverPattern::for_complete(7)),
                r5,
            ),
            case(
                "K7 shortest-path".into(),
                k7.clone(),
                Box::new(ShortestPathPattern::new(&k7)),
                r5,
            ),
            case(
                "K7 rotor".into(),
                k7.clone(),
                Box::new(RotorPattern::clockwise_with_shortcut(&k7)),
                r5,
            ),
            case(
                "K8 shortest-path".into(),
                k8.clone(),
                Box::new(ShortestPathPattern::new(&k8)),
                r5,
            ),
            case(
                "K8 rotor".into(),
                k8.clone(),
                Box::new(RotorPattern::clockwise_with_shortcut(&k8)),
                r5,
            ),
            case(
                "K5 perfect".into(),
                k5.clone(),
                Box::new(K5SourcePattern::new(&k5)),
                Property::Routing(None),
            ),
        ];
        let mut rows = Vec::new();
        let portfolio = |g: &Graph| -> Vec<Box<dyn CompilePattern>> {
            vec![
                Box::new(RotorPattern::clockwise_with_shortcut(g)),
                Box::new(ShortestPathPattern::new(g)),
            ]
        };
        for n in [8usize, 9, 10, 12, 14, 16] {
            let g = generators::complete(n);
            for pattern in portfolio(&g) {
                rows.push(AdversaryRow {
                    label: format!("K{n} {}", pattern.name()),
                    graph: g.clone(),
                    parts: None,
                    pattern,
                    expected_size: 6 * n - 28,
                });
            }
        }
        for (a, b) in [(4usize, 4usize), (5, 4), (5, 5), (6, 5), (7, 6)] {
            let g = generators::complete_bipartite(a, b);
            for pattern in portfolio(&g) {
                rows.push(AdversaryRow {
                    label: format!("K{a},{b} {}", pattern.name()),
                    graph: g.clone(),
                    parts: Some((a, b)),
                    pattern,
                    expected_size: 3 * a + 4 * b - 20,
                });
            }
        }
        (cases, rows)
    }
}

impl AdversaryRow {
    fn run(&self, gates: &mut Gates) {
        let run = RunBudget::unlimited();
        let (g, p) = (&self.graph, self.pattern.as_ref());
        let verdict = match self.parts {
            None => complete_few_failures_with_budget(g, p, &run),
            Some((a, b)) => bipartite_few_failures_with_budget(g, a, b, p, &run),
        };
        match verdict {
            Ok(FewFailuresVerdict::Defeated(res)) => {
                let ce = &res.counterexample;
                let size = ce.failures.len();
                let replays = verify_counterexample(g, p, ce);
                gates.check(size == self.expected_size && replays, || {
                    let expected = self.expected_size;
                    format!(
                        "{}: |F| = {size} (expected {expected}), replays: {replays}",
                        self.label
                    )
                });
            }
            other => gates.check(false, || format!("{}: not refuted: {other:?}", self.label)),
        }
    }
}

/// An operation is one pass over the family (every case's verdict), timed
/// per this many checks: the seed sets how many zoo graphs the sparse
/// family holds, and per-check time does not depend on that count.
const OP_CHECKS: f64 = 1e6;

/// The program's `sweep.*` counters, read around a checker call.
const SWEEP_COUNTERS: [&str; 6] = [
    "sweep.masks_swept",
    "sweep.routes",
    "sweep.tours",
    "sweep.edges_toggled",
    "sweep.bridge_tests",
    "sweep.bridges_found",
];

fn read_counters() -> [u64; 6] {
    let registry = frr_obs::global();
    SWEEP_COUNTERS.map(|name| registry.counter(name).get())
}

pub struct VerifySweep<F> {
    cases: Vec<Case>,
    rows: Vec<AdversaryRow>,
    family: PhantomData<F>,
}

impl<F> VerifySweep<F> {
    fn total_checks(&self) -> u64 {
        self.cases.iter().map(Case::checks).sum()
    }

    /// Runs one case's checker and gates it: Proven, with exactly the
    /// case's mask space swept.  Returns the counter deltas.
    fn check_case(c: &Case, gates: &mut Gates) -> [u64; 6] {
        let before = read_counters();
        let verdict = c.run();
        let after = read_counters();
        let delta: [u64; 6] = std::array::from_fn(|i| after[i] - before[i]);
        let proven = matches!(verdict, Ok(Verdict::Proven));
        gates.check(proven && delta[0] == c.masks(), || {
            format!(
                "{}: verdict {:?}, {} masks swept, expected Proven over {}",
                c.label,
                verdict.map(|v| format!("{v:?}")),
                delta[0],
                c.masks()
            )
        });
        delta
    }
}

impl<F: Family> Workload for VerifySweep<F> {
    fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let (cases, rows) = F::cases(seed, tracer);
        VerifySweep {
            cases,
            rows,
            family: PhantomData,
        }
    }

    fn profile(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "{}: {} checker cases, {} adversary rows, {} masks, {} checks per pass",
            F::NAME,
            self.cases.len(),
            self.rows.len(),
            self.cases.iter().map(Case::masks).sum::<u64>(),
            self.total_checks()
        )];
        for c in &self.cases {
            let what = match c.property {
                Property::Routing(None) => "perfect".to_string(),
                Property::Routing(Some(r)) => format!("r={r}"),
                Property::Touring(k) => format!("touring k={k}"),
            };
            lines.push(format!(
                "  {:<20} n={:<3} m={:<3} {:<13} {:<34} masks={:<7} checks={}",
                c.label,
                c.graph.node_count(),
                c.graph.edge_count(),
                what,
                c.pattern.name(),
                c.masks(),
                c.checks()
            ));
        }
        for r in &self.rows {
            lines.push(format!(
                "  adversary {:<40} m={:<3} expected |F|={}",
                r.label,
                r.graph.edge_count(),
                r.expected_size
            ));
        }
        lines.push(
            "  unit of work: one check; operation: one pass over every case, per million checks"
                .into(),
        );
        lines
    }

    fn pass(&mut self, ops_ms: &mut Vec<f64>, gates: &mut Gates) -> f64 {
        let t0 = Instant::now();
        for c in &self.cases {
            Self::check_case(c, gates);
        }
        for r in &self.rows {
            r.run(gates);
        }
        let checks = self.total_checks() as f64;
        ops_ms.push(t0.elapsed().as_secs_f64() * 1e3 * OP_CHECKS / checks);
        checks
    }

    fn layer_pass(&mut self, t: &mut Tracer, gates: &mut Gates) -> Vec<(&'static str, f64)> {
        let from = t.mark();
        let mut sums = [0u64; 6];
        for c in &self.cases {
            t.span("routing.mask", |_| {
                sweep_find_first(&c.graph, c.cap(), |_| None::<()>)
            });
            let delta = t.span("routing.check", |_| Self::check_case(c, gates));
            for (s, d) in sums.iter_mut().zip(delta) {
                *s += d;
            }
        }
        for r in &self.rows {
            t.span("core.impossibility", |_| r.run(gates));
        }
        let totals = total_ns_by_name(t.since(from));
        let ns = |name: &str| totals.get(name).copied().unwrap_or(0) as f64;
        let walk_ns = (ns("routing.check") - ns("routing.mask")).max(0.0);
        let [masks, routes, tours, toggled, bridge_tests, bridges] = sums;
        vec![
            (F::MASK_MS, ns("routing.mask") / 1e6),
            (F::WALK_MS, walk_ns / 1e6),
            (F::WALK_NS_PER_CHECK, walk_ns / self.total_checks() as f64),
            ("core.impossibility.ms", ns("core.impossibility") / 1e6),
            ("routing.sweep.masks", masks as f64),
            ("routing.sweep.routes", routes as f64),
            ("routing.sweep.tours", tours as f64),
            ("routing.sweep.edges_toggled", toggled as f64),
            ("routing.sweep.bridge_tests", bridge_tests as f64),
            (
                "routing.sweep.bridge_hit_ratio",
                if bridge_tests == 0 {
                    0.0
                } else {
                    bridges as f64 / bridge_tests as f64
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The check-count formula's mask term equals what the program's own
    /// `sweep.masks_swept` counter records on a tiny graph.
    #[test]
    fn mask_formula_matches_the_sweep_counter() {
        let g = generators::cycle(6);
        let counter = frr_obs::global().counter("sweep.masks_swept");
        for cap in [Some(0), Some(1), Some(2), Some(4), None] {
            let before = counter.get();
            let hit = sweep_find_first(&g, cap, |_| None::<()>);
            assert!(hit.is_none());
            assert_eq!(
                counter.get() - before,
                masks_in_space(6, cap),
                "cap {cap:?}"
            );
        }
        assert_eq!(masks_in_space(6, None), 64);
        assert_eq!(masks_in_space(36, Some(2)), 1 + 36 + 630);
        let c = case(
            "c6".into(),
            g.clone(),
            Box::new(ShortestPathPattern::new(&g)),
            Property::Routing(Some(1)),
        );
        assert_eq!(c.checks(), 7 * 30);
    }

    /// The same seed yields byte-identical sparse cases.
    #[test]
    fn same_seed_same_cases() {
        let fingerprint = |seed| {
            let (cases, _) = Sparse::cases(seed, &mut Tracer::new(false));
            cases
                .iter()
                .map(|c| format!("{}:{:?}", c.label, c.graph.edges()))
                .collect::<Vec<_>>()
        };
        assert_eq!(fingerprint(5), fingerprint(5));
        assert_ne!(fingerprint(5), fingerprint(6));
    }
}
