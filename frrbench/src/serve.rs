//! `serve-churn`: a closed loop against the `frr-serve` control plane.
//!
//! One client thread submits each link event of the seeded churn trace as
//! its own batch and waits for `tick` to publish the Settled epoch, then
//! asks the settled snapshot `QUERIES_PER_EVENT` route queries with 0–2
//! extra failed links.  The service is configured as `frr-serve replay`
//! configures it (shortest-path tables, no table store, no deadline, no
//! backoff sleep, a queue of four slots per batch); `final_checks` proves
//! it by replaying a trace prefix through `replay::replay` and comparing
//! digests and answers.

use crate::trace::{durations_ns, Tracer};
use crate::{median, quantile, Gates, Workload};
use frr_graph::budget::StopSignal;
use frr_graph::{generators, Node};
use frr_routing::compiled::{CompilePattern, CompiledSim};
use frr_routing::failure::FailureSet;
use frr_routing::pattern::ShortestPathPattern;
use frr_serve::event::Event;
use frr_serve::replay::{generate_trace, replay, ReplayConfig};
use frr_serve::service::{PatternSpec, QueryError, RouteAnswer, Service, Snapshot};
use frr_serve::supervisor::{rebuild_tables, SupervisorConfig};
use frr_topologies::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Link events in the churn trace.
const EVENTS: usize = 1000;
/// Route queries after each settled event.
const QUERIES_PER_EVENT: usize = 50;
/// Extra failed links per query: 0 to this many.
const MAX_QUERY_FAILURES: usize = 2;
/// Supervisor rebuild threads: the container's two cores.
const THREADS: usize = 2;
/// Events per batch: each event is settled on its own.
const BATCH: usize = 1;
/// Trace prefix `final_checks` replays through `replay::replay`.
const PREFIX_EVENTS: usize = 200;
/// The layer pass probes digest, rebuild, compile and a compiled route on
/// every this-many settled snapshots.
const PROBE_EVERY: usize = 10;
/// Nodes and links of the churned mesh.  The seed draws the mesh from the
/// synthetic zoo's mesh generator at this fixed shape (that of SynMesh196,
/// the zoo mesh nearest 50 nodes at the default seed): every settle
/// recompiles all destinations, so its cost grows with the cube of the node
/// count, and a seed-drawn size would swamp the run-to-run figures.
const MESH_SHAPE: (usize, usize) = (51, 63);

type Answer = Result<RouteAnswer, QueryError>;
/// A route query: source, destination, extra failed links.
type Query = (usize, usize, FailureSet);
/// Called on sampled settled snapshots with their first query and answer.
type Probe<'a> = &'a mut dyn FnMut(&mut Tracer, &Snapshot, &Query, &Answer);

pub struct ServeChurn {
    seed: u64,
    topology: Topology,
    trace: Vec<Event>,
    /// A service stood up by `setup`; later passes stand up their own.
    fresh: Option<Service>,
    /// The first pass's digest sequence; every later pass must match it.
    reference: Option<Vec<u64>>,
    /// The first pass's answers over the trace prefix, for `final_checks`.
    prefix_answers: Vec<Answer>,
}

fn supervisor() -> SupervisorConfig {
    SupervisorConfig {
        threads: THREADS,
        deadline: None,
        backoff_base: Duration::ZERO,
        store: None,
        ..SupervisorConfig::default()
    }
}

/// `replay`'s query stream: one RNG per run, seeded from the trace seed.
fn query_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x7175_6572_795f_3332)
}

/// The next query exactly as `replay` draws it from the settled snapshot.
fn next_query(rng: &mut StdRng, snap: &Snapshot, edges: &[frr_graph::Edge]) -> Query {
    let n = snap.base.node_count();
    let s = rng.gen_range(0..n);
    let mut t = rng.gen_range(0..n);
    if t == s {
        t = (t + 1) % n;
    }
    let mut failures = FailureSet::new();
    if !edges.is_empty() {
        let k = rng.gen_range(0..=MAX_QUERY_FAILURES);
        for _ in 0..k {
            failures.insert(edges[rng.gen_range(0..edges.len())]);
        }
    }
    (s, t, failures)
}

/// What one pass over (a prefix of) the trace observed.
#[derive(Default)]
struct PassLog {
    digests: Vec<u64>,
    settle_ms: Vec<f64>,
    query_ns: Vec<f64>,
    answers: Vec<Answer>,
}

impl ServeChurn {
    fn stand_up(&self) -> Service {
        Service::new(
            vec![self.topology.clone()],
            &self.topology.name,
            PatternSpec::ShortestPath,
            supervisor(),
            BATCH * 4,
        )
        .expect("the churned topology is in the catalog")
    }

    /// Drives `events` trace events through a fresh service.  With `probe`,
    /// every `PROBE_EVERY`-th settled snapshot is also handed to it.
    fn drive(
        &mut self,
        events: usize,
        t: &mut Tracer,
        gates: &mut Gates,
        keep_answers: bool,
        mut probe: Option<Probe<'_>>,
    ) -> PassLog {
        let mut service = self.fresh.take().unwrap_or_else(|| self.stand_up());
        let mut rng = query_rng(self.seed);
        let mut log = PassLog {
            digests: vec![service.snapshot().digest()],
            ..PassLog::default()
        };
        for (i, ev) in self.trace[..events].iter().enumerate() {
            let t0 = Instant::now();
            t.span("serve.submit", |_| service.submit(ev.clone()));
            let report = t.span("serve.tick", |_| service.tick(usize::MAX));
            log.settle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match report {
                Some(r) if r.applied == 1 && r.quarantined == 0 => {
                    log.digests.push(r.digest_ingested);
                    log.digests.push(r.digest_settled);
                }
                other => gates.check(false, || {
                    format!("event {i} ({ev:?}) did not settle cleanly: {other:?}")
                }),
            }
            let snap = service.snapshot();
            let edges = snap.survivor.edges();
            for q in 0..QUERIES_PER_EVENT {
                let query = next_query(&mut rng, &snap, &edges);
                let (s, tt, failures) = &query;
                let answer = t.span("serve.query", |_| {
                    let t0 = Instant::now();
                    let answer = snap.route(Node(*s), Node(*tt), failures);
                    log.query_ns.push(t0.elapsed().as_nanos() as f64);
                    answer
                });
                gates.check(answer.is_ok(), || {
                    format!("query {s}->{tt} after event {i}: {answer:?}")
                });
                if q == 0 && i % PROBE_EVERY == 0 {
                    if let Some(p) = probe.as_mut() {
                        p(t, &snap, &query, &answer);
                    }
                }
                if keep_answers {
                    log.answers.push(answer);
                }
            }
        }
        let last = service.snapshot();
        gates.check(
            service.quarantined() == 0 && last.degraded().is_empty(),
            || {
                format!(
                    "after the trace: {} events quarantined, degraded destinations {:?}",
                    service.quarantined(),
                    last.degraded()
                )
            },
        );
        log
    }
}

/// The seeded mesh: a random spanning tree plus extra links, as the zoo's
/// `SynMesh` archetype builds it.
fn seeded_mesh(seed: u64, tracer: &mut Tracer) -> Topology {
    let (n, m) = MESH_SHAPE;
    let graph = tracer.span("graph.random_connected", |_| {
        generators::random_connected(n, m - (n - 1), &mut StdRng::seed_from_u64(seed))
    });
    Topology {
        name: format!("Mesh{n}x{m}"),
        graph,
        real: false,
    }
}

impl Workload for ServeChurn {
    fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let topology = seeded_mesh(seed, tracer);
        let trace = generate_trace(&topology.graph, EVENTS, seed, None);
        let mut w = ServeChurn {
            seed,
            topology,
            trace,
            fresh: None,
            reference: None,
            prefix_answers: Vec::new(),
        };
        w.fresh = Some(w.stand_up());
        w
    }

    fn profile(&self) -> Vec<String> {
        let downs = self
            .trace
            .iter()
            .filter(|e| matches!(e, Event::LinkDown { .. }))
            .count();
        vec![
            format!(
                "serve-churn: {} (n={}, m={}), {} link events ({} down, {} up), batch {}, {} supervisor threads",
                self.topology.name,
                self.topology.graph.node_count(),
                self.topology.graph.edge_count(),
                self.trace.len(),
                downs,
                self.trace.len() - downs,
                BATCH,
                THREADS
            ),
            format!(
                "  {} route queries per settled event ({} per pass), 0-{} extra failed links each",
                QUERIES_PER_EVENT,
                QUERIES_PER_EVENT * self.trace.len(),
                MAX_QUERY_FAILURES
            ),
            "  unit of work: one link event settled; operation: submit to Settled publication".into(),
        ]
    }

    fn pass(&mut self, ops_ms: &mut Vec<f64>, gates: &mut Gates) -> f64 {
        let first = self.reference.is_none();
        let log = self.drive(EVENTS, &mut Tracer::new(false), gates, first, None);
        ops_ms.extend(&log.settle_ms);
        if first {
            self.prefix_answers = log
                .answers
                .into_iter()
                .take(PREFIX_EVENTS * QUERIES_PER_EVENT)
                .collect();
        }
        let reference = self.reference.get_or_insert_with(|| log.digests.clone());
        gates.check(log.digests == *reference, || {
            "digest sequence differs from the run's first pass".into()
        });
        self.trace.len() as f64
    }

    fn final_checks(&mut self, gates: &mut Gates) {
        let g = &self.topology.graph;
        gates.check((g.node_count(), g.edge_count()) == MESH_SHAPE, || {
            format!(
                "the mesh has {} nodes and {} links",
                g.node_count(),
                g.edge_count()
            )
        });
        let cfg = ReplayConfig {
            topology: self.topology.name.clone(),
            events: PREFIX_EVENTS,
            batch: BATCH,
            seed: self.seed,
            threads: THREADS,
            queries_per_epoch: QUERIES_PER_EVENT,
            max_query_failures: MAX_QUERY_FAILURES,
            resilience_r: 0,
            keep_ledger: true,
            ..ReplayConfig::default()
        };
        let reference = self.reference.clone().unwrap_or_default();
        match replay(std::slice::from_ref(&self.topology), &cfg) {
            Ok(out) => {
                let answers: Vec<&Answer> = out.ledger.iter().map(|e| &e.answer).collect();
                let ours: Vec<&Answer> = self.prefix_answers.iter().collect();
                gates.check(
                    reference.len() > out.digests.len()
                        && out.digests[..] == reference[..out.digests.len()]
                        && answers == ours,
                    || {
                        "replay::replay over the trace prefix disagrees with the benchmark's loop"
                            .into()
                    },
                );
                println!(
                    "  replay cross-check: {} events, {} digests, {} answers identical to replay::replay",
                    out.events,
                    out.digests.len(),
                    answers.len()
                );
            }
            Err(e) => gates.check(false, || format!("replay::replay failed: {e}")),
        }
    }

    fn layer_pass(&mut self, t: &mut Tracer, gates: &mut Gates) -> Vec<(&'static str, f64)> {
        let from = t.mark();
        let mut rule_words = Vec::new();
        let mut probe_failures = 0u64;
        let mut probe = |t: &mut Tracer, snap: &Snapshot, q: &Query, answer: &Answer| {
            t.span("serve.digest", |_| snap.digest());
            let dests: Vec<usize> = (0..snap.survivor.node_count()).collect();
            let outcomes = t.span("serve.rebuild", |_| {
                rebuild_tables(
                    &snap.survivor,
                    &PatternSpec::ShortestPath,
                    &dests,
                    &supervisor(),
                    &StopSignal::none(),
                )
            });
            probe_failures += outcomes.iter().filter(|o| o.table.is_none()).count() as u64;
            let compiled = t.span("routing.compile", |_| {
                ShortestPathPattern::new(&snap.survivor).compile(&snap.survivor)
            });
            rule_words.push(compiled.map_or(0.0, |c| c.rule_words() as f64));
            let (s, dest, failures) = q;
            if let Some(table) = snap.entries[*dest].table.as_deref() {
                let result = t.span("routing.compiled_sim", |_| {
                    let mut sim = CompiledSim::new(table);
                    sim.load_failures(table, failures);
                    sim.route(table, Node(*s), Node(*dest), table.csr().state_count() + 1)
                });
                if answer.as_ref().map(|a| a.outcome) != Ok(result.outcome) {
                    probe_failures += 1;
                }
            }
        };
        let log = self.drive(EVENTS, t, gates, false, Some(&mut probe));
        gates.check(probe_failures == 0, || {
            format!("{probe_failures} probe rebuilds failed or compiled routes disagreed with Snapshot::route")
        });
        let spans = t.since(from);
        let med = |name: &str| median(&durations_ns(spans, name));
        let digest_ns = med("serve.digest");
        let rebuild_ns = med("serve.rebuild");
        vec![
            ("serve.submit.ns", med("serve.submit")),
            ("serve.rebuild.ms", rebuild_ns / 1e6),
            ("serve.digest.us", digest_ns / 1e3),
            (
                "serve.tick_self.ms",
                (med("serve.tick") - rebuild_ns - 2.0 * digest_ns) / 1e6,
            ),
            ("serve.settle_ms.p99", quantile(&log.settle_ms, 0.99)),
            ("serve.query_ns.p50", quantile(&log.query_ns, 0.50)),
            ("serve.query_ns.p99", quantile(&log.query_ns, 0.99)),
            ("routing.compile.ms", med("routing.compile") / 1e6),
            ("routing.compile.rule_words", median(&rule_words)),
            ("routing.compiled_sim.route_ns", med("routing.compiled_sim")),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The same seed yields byte-identical inputs: the same mesh and the
    /// same churn trace.
    #[test]
    fn same_seed_same_inputs() {
        let build = |seed| {
            let w = ServeChurn::setup(seed, &mut Tracer::new(false));
            format!(
                "{}|{:?}|{:?}",
                w.topology.name,
                w.topology.graph.edges(),
                w.trace
            )
        };
        assert_eq!(build(7), build(7));
        assert_ne!(build(7), build(8));
    }
}
