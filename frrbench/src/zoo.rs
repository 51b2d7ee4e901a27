//! `zoo-classify`: the §VIII Topology Zoo classification behind Fig. 7/8.
//!
//! Measured pass: one `classify::batch_with_budget_and_workers` over one
//! 260-graph zoo with the default budget and two workers.  A run cycles
//! through [`ZOOS`] zoos: the seed's own (the one `fig7_zoo` classifies at
//! the default seed) and zoos from seeds derived from it.  A few
//! heavy-tailed graphs set each batch's time, so one zoo per run would make
//! the figures depend on which graphs that seed happened to draw.  Layer
//! pass: the seed's zoo classified one graph at a time, with the
//! `frr-graph` calls `classify` makes, in `classify`'s order, then
//! `classify_with_budget` per graph.

use crate::trace::{durations_ns, total_ns_by_name, Tracer};
use crate::{median, quantile, Gates, Workload, DEFAULT_SEED};
use frr_core::classify::{
    batch_with_budget_and_workers, classify_with_budget, fits_in_k33, Classification,
    ClassifyBudget,
};
use frr_graph::minors::{forbidden, MinorAnswer, MinorEngine};
use frr_graph::outerplanar::{is_outerplanar_without, OuterplanarScratch};
use frr_graph::planarity::is_planar_bit;
use frr_graph::{BitGraph, Graph, Node};
use frr_routing::budget::RunBudget;
use frr_topologies::{full_zoo, Topology, ZooConfig};
use std::time::Instant;

/// Classification workers: the container's two cores.
const WORKERS: usize = 2;

/// Class counts `fig7_zoo` prints at the default seed (its percentages of
/// 260 graphs): touring, destination-only, source-destination, each as
/// (Possible, Sometimes, Unknown, Impossible).
const FIG7_COUNTS: [[usize; 4]; 3] = [[122, 0, 0, 138], [122, 39, 19, 80], [122, 56, 63, 19]];

const CLASSES: [&str; 4] = ["Possible", "Sometimes", "Unknown", "Impossible"];

/// Zoos classified per run, one per measured pass in turn.
const ZOOS: usize = 16;

pub struct ZooClassify {
    seed: u64,
    /// `zoos[0]` is the seed's own zoo.
    zoos: Vec<Vec<Topology>>,
    /// Digest of each zoo's first batch; every later batch must match it.
    reference: Vec<Option<u64>>,
    /// Measured passes so far; pass `p` classifies `zoos[p % ZOOS]`.
    passes: usize,
    /// The latest classifications of `zoos[0]`.
    last: Vec<Classification>,
}

/// The seed of the `j`-th zoo of a run: the run's seed itself for `j = 0`.
pub fn derived_seed(seed: u64, j: usize) -> u64 {
    seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Generates the seeded zoo inside a `topologies.full_zoo` span.
pub fn seeded_zoo(seed: u64, tracer: &mut Tracer) -> Vec<Topology> {
    tracer.span("topologies.full_zoo", |_| {
        full_zoo(&ZooConfig {
            seed,
            ..ZooConfig::default()
        })
    })
}

/// One line per topology, as the classification pin test renders it.
fn render(name: &str, c: &Classification) -> String {
    format!(
        "{name}|n={}|m={}|planar={}|outer={}|tour={}|dest={}|srcdest={}",
        c.nodes,
        c.edges,
        c.planar,
        c.outerplanar,
        c.touring,
        c.destination_only,
        c.source_destination
    )
}

/// FNV-1a over the rendered lines, newline-terminated.
pub fn fnv_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for byte in line.bytes().chain([b'\n']) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

fn class_counts(cs: &[Classification]) -> [[usize; 4]; 3] {
    let mut out = [[0; 4]; 3];
    for c in cs {
        for (model, f) in [c.touring, c.destination_only, c.source_destination]
            .iter()
            .enumerate()
        {
            let k = CLASSES
                .iter()
                .position(|l| *l == f.label())
                .expect("known class");
            out[model][k] += 1;
        }
    }
    out
}

fn digest(zoo: &[Topology], cs: &[Classification]) -> u64 {
    let lines: Vec<String> = zoo
        .iter()
        .zip(cs)
        .map(|(t, c)| render(&t.name, c))
        .collect();
    fnv_lines(lines.iter().map(String::as_str))
}

impl ZooClassify {
    /// One batch over zoo `j`; `None` (and a failed gate) when it panicked
    /// or left a graph unclassified.
    fn batch(&self, j: usize, workers: usize, gates: &mut Gates) -> Option<Vec<Classification>> {
        let graphs: Vec<&Graph> = self.zoos[j].iter().map(|t| &t.graph).collect();
        let result = batch_with_budget_and_workers(
            &graphs,
            ClassifyBudget::default(),
            &RunBudget::unlimited(),
            workers,
        );
        let slots = match result {
            Ok(slots) => slots,
            Err(p) => {
                gates.check(false, || format!("classification batch panicked: {p}"));
                return None;
            }
        };
        let cs: Option<Vec<Classification>> = slots.into_iter().collect();
        if cs.is_none() {
            gates.check(false, || {
                "an unlimited batch left a graph unclassified".into()
            });
        }
        cs
    }
}

/// Per-pass tallies of the `frr-graph` calls.
#[derive(Default)]
struct GraphCalls {
    planarity: u64,
    outerplanar: u64,
    minors: u64,
    unknown: u64,
}

/// A forbidden-minor search at the default budget, in its own span.
fn minor(
    t: &mut Tracer,
    span: &'static str,
    engine: &mut MinorEngine,
    b: &BitGraph,
    pattern: &Graph,
    calls: &mut GraphCalls,
) -> MinorAnswer {
    let budget = ClassifyBudget::default().minor_budget;
    let answer = t.span(span, |_| engine.solve_bit(b, pattern, budget));
    calls.minors += 1;
    calls.unknown += u64::from(answer.is_unknown());
    answer
}

/// The per-destination outerplanarity probes of the "sometimes" fraction,
/// with the same stride sampling `classify` uses.
fn destination_probes(
    t: &mut Tracer,
    b: &BitGraph,
    scratch: &mut OuterplanarScratch,
    calls: &mut GraphCalls,
) {
    let n = b.node_count();
    let max_probes = ClassifyBudget::default().max_destination_probes;
    if n == 0 || max_probes == 0 {
        return;
    }
    for v in (0..n).step_by(n.div_ceil(max_probes).max(1)) {
        t.span("graph.outerplanar", |_| {
            is_outerplanar_without(b, Some(Node(v)), scratch)
        });
        calls.outerplanar += 1;
    }
}

impl Workload for ZooClassify {
    fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        ZooClassify {
            seed,
            zoos: (0..ZOOS)
                .map(|j| seeded_zoo(derived_seed(seed, j), tracer))
                .collect(),
            reference: vec![None; ZOOS],
            passes: 0,
            last: Vec::new(),
        }
    }

    fn profile(&self) -> Vec<String> {
        let zoo = &self.zoos[0];
        let n: Vec<f64> = zoo.iter().map(|t| t.graph.node_count() as f64).collect();
        let m: Vec<f64> = zoo.iter().map(|t| t.graph.edge_count() as f64).collect();
        vec![
            format!(
                "zoo-classify: {} zoos of {} graphs ({} bundled + {} synthetic), batches of {} workers, default budget",
                self.zoos.len(),
                zoo.len(),
                zoo.iter().filter(|t| t.real).count(),
                zoo.iter().filter(|t| !t.real).count(),
                WORKERS
            ),
            format!(
                "  seed's zoo: nodes p50 {} max {}; links p50 {} max {}; total links {}",
                median(&n),
                quantile(&n, 1.0),
                median(&m),
                quantile(&m, 1.0),
                m.iter().sum::<f64>()
            ),
            "  unit of work: one graph classified; operation: one batch over the zoo".into(),
        ]
    }

    fn pass(&mut self, ops_ms: &mut Vec<f64>, gates: &mut Gates) -> f64 {
        let j = self.passes % ZOOS;
        self.passes += 1;
        let t0 = Instant::now();
        let batch = self.batch(j, WORKERS, gates);
        ops_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(cs) = batch {
            let digest = digest(&self.zoos[j], &cs);
            let reference = *self.reference[j].get_or_insert(digest);
            gates.check(digest == reference, || {
                format!(
                    "zoo {j}: batch digest {digest:#018x} differs from its first {reference:#018x}"
                )
            });
            if j == 0 {
                self.last = cs;
            }
        }
        self.zoos[j].len() as f64
    }

    fn final_checks(&mut self, gates: &mut Gates) {
        let counts = class_counts(&self.last);
        for (model, row) in ["Touring", "Destination only", "Source-Destination"]
            .iter()
            .zip(&counts)
        {
            let cells: Vec<String> = CLASSES
                .iter()
                .zip(row)
                .map(|(class, k)| format!("{class} {k} ({:.1}%)", 100.0 * *k as f64 / 260.0))
                .collect();
            println!("  {model:<19} {}", cells.join(", "));
        }
        println!(
            "  classification digest {:#018x}",
            self.reference[0].unwrap_or(0)
        );
        gates.check(self.last.len() == 260, || {
            format!("classified {} graphs, expected 260", self.last.len())
        });
        if self.seed == DEFAULT_SEED {
            gates.check(counts == FIG7_COUNTS, || {
                format!("class counts {counts:?} differ from fig7_zoo's {FIG7_COUNTS:?}")
            });
        }
    }

    fn layer_pass(&mut self, t: &mut Tracer, gates: &mut Gates) -> Vec<(&'static str, f64)> {
        let from = t.mark();
        let budget = ClassifyBudget::default();
        let patterns = [
            forbidden::k5_minus1(),
            forbidden::k33_minus1(),
            forbidden::k7_minus1(),
            forbidden::k44_minus1(),
        ];
        if self.last.is_empty() {
            if let Some(cs) = t.span("core.batch", |_| self.batch(0, WORKERS, gates)) {
                self.last = cs;
            }
        }
        let mut engine = MinorEngine::new();
        let mut scratch = OuterplanarScratch::default();
        let mut calls = GraphCalls::default();
        let mut sequential = Vec::with_capacity(self.zoos[0].len());
        for topo in &self.zoos[0] {
            let g = &topo.graph;
            let b = t.span("graph.bitgraph", |_| BitGraph::from_graph(g));
            let planar = t.span("graph.planarity", |_| is_planar_bit(&b));
            calls.planarity += 1;
            let outer = planar && {
                calls.outerplanar += 1;
                t.span("graph.outerplanar", |_| {
                    is_outerplanar_without(&b, None, &mut scratch)
                })
            };
            let mut probed = false;
            if !outer && planar {
                let k5 = minor(
                    t,
                    "graph.minors.k5m1",
                    &mut engine,
                    &b,
                    &patterns[0],
                    &mut calls,
                );
                let k33 = minor(
                    t,
                    "graph.minors.k33m1",
                    &mut engine,
                    &b,
                    &patterns[1],
                    &mut calls,
                );
                if !k5.is_yes() && !k33.is_yes() {
                    destination_probes(t, &b, &mut scratch, &mut calls);
                    probed = true;
                }
            }
            let small =
                outer || g.node_count() <= 5 || t.span("core.fits_in_k33", |_| fits_in_k33(g));
            if !small {
                let found = !planar && {
                    minor(
                        t,
                        "graph.minors.k7m1",
                        &mut engine,
                        &b,
                        &patterns[2],
                        &mut calls,
                    )
                    .is_yes()
                        || minor(
                            t,
                            "graph.minors.k44m1",
                            &mut engine,
                            &b,
                            &patterns[3],
                            &mut calls,
                        )
                        .is_yes()
                };
                if !found && !probed {
                    destination_probes(t, &b, &mut scratch, &mut calls);
                }
            }
            sequential.push(t.span("core.classify", |_| classify_with_budget(g, budget)));
        }
        gates.check(sequential == self.last, || {
            "sequential classify_with_budget differs from the batch".into()
        });
        let memo = engine.take_memo_stats();
        let spans = t.since(from);
        let totals = total_ns_by_name(spans);
        let total_ms = |name: &str| totals.get(name).copied().unwrap_or(0) as f64 / 1e6;
        let graph_ms: Vec<f64> = durations_ns(spans, "core.classify")
            .into_iter()
            .map(|ns| ns / 1e6)
            .collect();
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        vec![
            ("graph.planarity.ms", total_ms("graph.planarity")),
            ("graph.planarity.calls", calls.planarity as f64),
            ("graph.outerplanar.ms", total_ms("graph.outerplanar")),
            ("graph.outerplanar.calls", calls.outerplanar as f64),
            ("graph.minors.k5m1.ms", total_ms("graph.minors.k5m1")),
            ("graph.minors.k33m1.ms", total_ms("graph.minors.k33m1")),
            ("graph.minors.k7m1.ms", total_ms("graph.minors.k7m1")),
            ("graph.minors.k44m1.ms", total_ms("graph.minors.k44m1")),
            ("graph.minors.calls", calls.minors as f64),
            ("graph.minors.contractions", memo.contractions as f64),
            ("graph.minors.memo_hit_ratio", ratio(memo.hits, memo.probes)),
            (
                "graph.minors.unknown_ratio",
                ratio(calls.unknown, calls.minors),
            ),
            ("core.classify.graph_ms.p50", quantile(&graph_ms, 0.50)),
            ("core.classify.graph_ms.p95", quantile(&graph_ms, 0.95)),
            ("core.classify.graph_ms.max", quantile(&graph_ms, 1.0)),
        ]
    }

    fn layer_extras(&mut self, gates: &mut Gates) -> Vec<(&'static str, f64)> {
        let registry = frr_obs::global();
        let (hits, misses) = (
            registry.counter("classify.cache_hits"),
            registry.counter("classify.cache_misses"),
        );
        let t0 = Instant::now();
        self.batch(0, 1, gates);
        let one = t0.elapsed().as_secs_f64();
        let (h0, m0) = (hits.get(), misses.get());
        let t0 = Instant::now();
        self.batch(0, WORKERS, gates);
        let two = t0.elapsed().as_secs_f64();
        let (h, m) = (hits.get() - h0, misses.get() - m0);
        vec![
            ("core.classify.parallel_eff", one / (WORKERS as f64 * two)),
            (
                "core.classify.cache_hit_ratio",
                if h + m == 0 {
                    0.0
                } else {
                    h as f64 / (h + m) as f64
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same seed yields byte-identical zoos; another seed does not.
    #[test]
    fn same_seed_same_zoos() {
        let fingerprint = |seed| {
            let w = ZooClassify::setup(seed, &mut Tracer::new(false));
            let lines: Vec<String> = w
                .zoos
                .iter()
                .flatten()
                .map(|t| format!("{}:{:?}", t.name, t.graph.edges()))
                .collect();
            fnv_lines(lines.iter().map(String::as_str))
        };
        assert_eq!(fingerprint(DEFAULT_SEED), fingerprint(DEFAULT_SEED));
        assert_ne!(fingerprint(DEFAULT_SEED), fingerprint(1));
    }
}
