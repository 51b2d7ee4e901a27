//! The walk kernel: the one route loop and the one tour loop the fast
//! simulators share.
//!
//! Both walk the CSR state ids of [`crate::compiled::PortGraph`] (node `v`
//! entered over local port `p`, `p = deg(v)` for `⊥`: `2m + n` ids in one
//! packed bitset for exact loop detection).  They are generic, and so
//! monomorphised, over a decision source — `TableSource` (a compiled rule
//! table against the node's failed-port word) or `InterpretedSource` (the
//! pattern's `next_hop` on a [`LocalContext`] built from a sweep overlay) —
//! and over a path sink: the sweeps record nothing, `CompiledSim` records
//! the walk.  [`Forwarder::new`] is the one place that picks the source.
//!
//! [`crate::simulator::route`] / [`crate::simulator::tour`] stay separate
//! loops on purpose: they are the independent oracle the differential suites
//! compare these kernels against.

use crate::compiled::{CompilePattern, CompiledPattern, CompiledSim, PortGraph, RuleTable};
use crate::failure::FailureSet;
use crate::model::LocalContext;
use crate::pattern::ForwardingPattern;
use crate::simulator::{route as oracle_route, Outcome, RouteResult};
use frr_graph::{Graph, Node};
use std::panic::{catch_unwind, AssertUnwindSafe};

const WORD_BITS: usize = u64::BITS as usize;

/// Sets bit `i` of a packed bitset; `true` if it was clear.
#[inline]
pub(crate) fn insert_bit(words: &mut [u64], i: usize) -> bool {
    let (w, b) = (i / WORD_BITS, 1u64 << (i % WORD_BITS));
    let fresh = words[w] & b == 0;
    words[w] |= b;
    fresh
}

/// The kernels' reusable scratch: the packed visited-state bitset over the
/// `2m + n` state ids, and a node bitset that holds a tour's visited nodes.
#[derive(Debug, Clone, Default)]
pub(crate) struct WalkScratch {
    seen: Vec<u64>,
    visited: Vec<u64>,
}

impl WalkScratch {
    /// Scratch sized for `csr`'s state space.
    pub(crate) fn new(csr: &PortGraph) -> Self {
        WalkScratch {
            seen: vec![0; csr.state_count().div_ceil(WORD_BITS).max(1)],
            visited: vec![0; csr.node_count().div_ceil(WORD_BITS).max(1)],
        }
    }

    /// Whether the last tour visited `v`.
    #[inline]
    pub(crate) fn visited(&self, v: usize) -> bool {
        self.visited[v / WORD_BITS] & (1u64 << (v % WORD_BITS)) != 0
    }
}

/// Maps a CSR state `(v, in-port index)` to the global out-port the packet
/// leaves by, or `None` to drop it.
pub(crate) trait DecisionSource {
    /// The CSR port view the state ids and out-ports refer to.
    fn csr(&self) -> &PortGraph;

    /// The forwarding decision at node `v` for a packet that arrived over
    /// local port `inport_idx`.  An out-port is always an alive link.
    fn decide(&self, v: usize, inport_idx: u32) -> Option<u32>;
}

/// A compiled rule table consulted against per-node failed-port words.
pub(crate) struct TableSource<'a> {
    cp: &'a CompiledPattern,
    table: &'a RuleTable,
    /// Failed-port rows, `stride` words per node; only word 0 of a row is
    /// read (compilation refuses nodes of degree ≥ 64).
    failed_ports: &'a [u64],
    stride: usize,
}

impl<'a> TableSource<'a> {
    /// The table of `cp` serving header `(source, destination)`.
    pub(crate) fn new(
        cp: &'a CompiledPattern,
        source: Node,
        destination: Node,
        failed_ports: &'a [u64],
        stride: usize,
    ) -> Self {
        TableSource {
            cp,
            table: cp.table(source, destination),
            failed_ports,
            stride,
        }
    }
}

impl DecisionSource for TableSource<'_> {
    #[inline]
    fn csr(&self) -> &PortGraph {
        self.cp.csr()
    }

    // Forced: left to the compiler, this per-hop call stayed out of line in
    // the sweep walks.
    #[inline(always)]
    fn decide(&self, v: usize, inport_idx: u32) -> Option<u32> {
        self.cp.decide(
            self.table,
            v,
            inport_idx,
            self.failed_ports[v * self.stride],
        )
    }
}

/// A pattern's `next_hop` interpreted against a sweep overlay.
pub(crate) struct InterpretedSource<'a, P: ?Sized> {
    pub(crate) pattern: &'a P,
    pub(crate) graph: &'a Graph,
    pub(crate) csr: &'a PortGraph,
    /// Per-node failed neighbors, sorted ascending.
    pub(crate) failed_list: &'a [Vec<Node>],
    /// Failed-port rows, `port_words` words per node (any degree).
    pub(crate) failed_ports: &'a [u64],
    pub(crate) port_words: usize,
    pub(crate) source: Node,
    pub(crate) destination: Node,
}

impl<P: ForwardingPattern + ?Sized> DecisionSource for InterpretedSource<'_, P> {
    #[inline]
    fn csr(&self) -> &PortGraph {
        self.csr
    }

    fn decide(&self, v: usize, inport_idx: u32) -> Option<u32> {
        let ports = self.csr.ports_of(v);
        let ctx = LocalContext {
            node: Node(v),
            inport: ports.get(inport_idx as usize).map(|&u| Node(u as usize)),
            source: self.source,
            destination: self.destination,
            failed_neighbors: &self.failed_list[v],
            graph: self.graph,
        };
        let next = self.pattern.next_hop(&ctx)?.index();
        // Forwarding to a non-node, a non-neighbor or over a failed link is
        // a drop.  The range check comes first: `port_of` compares `u32`s.
        if next >= self.csr.node_count() {
            return None;
        }
        let p = self.csr.port_of(v, next)? as usize;
        let failed = self.failed_ports[v * self.port_words + p / WORD_BITS] >> (p % WORD_BITS) & 1;
        (failed == 0).then(|| self.csr.port_offsets()[v] + p as u32)
    }
}

/// Where a walk reports the nodes it enters.
pub(crate) trait PathSink {
    /// Whether the walk must run to its natural end.  A sink that records
    /// nothing has nothing left to observe once a tour has covered its
    /// component, so the tour kernel returns right there.
    const FULL_WALK: bool;

    /// Records the node a hop entered.
    fn push(&mut self, v: Node);
}

impl PathSink for () {
    const FULL_WALK: bool = false;

    #[inline]
    fn push(&mut self, _v: Node) {}
}

impl PathSink for Vec<Node> {
    const FULL_WALK: bool = true;

    #[inline]
    fn push(&mut self, v: Node) {
        Vec::push(self, v);
    }
}

/// Routes one packet from `source` to `destination`: the outcome and the hop
/// count.  The semantics are those of [`crate::simulator::route`].
pub(crate) fn route<D: DecisionSource, S: PathSink>(
    src: &D,
    scratch: &mut WalkScratch,
    source: Node,
    destination: Node,
    max_hops: usize,
    path: &mut S,
) -> (Outcome, usize) {
    if source == destination {
        return (Outcome::Delivered, 0);
    }
    let (seen, csr) = (scratch.seen.as_mut_slice(), src.csr());
    seen.fill(0);
    let (mut v, mut inport_idx) = (source.index(), csr.degree(source.index()));
    insert_bit(seen, (csr.state_base(v) + inport_idx) as usize);
    for hops in 0..max_hops {
        let Some(port) = src.decide(v, inport_idx) else {
            return (Outcome::Stuck, hops);
        };
        (v, inport_idx) = (
            csr.port_target(port as usize),
            csr.reverse_port(port as usize),
        );
        path.push(Node(v));
        if v == destination.index() {
            return (Outcome::Delivered, hops + 1);
        }
        if !insert_bit(seen, (csr.state_base(v) + inport_idx) as usize) {
            return (Outcome::Loop, hops + 1);
        }
    }
    (Outcome::HopLimit, max_hops)
}

/// Walks the touring model from `start` until a state repeats or the packet
/// is dropped, tracking coverage of `start`'s component in `G \ F`, of
/// which `remaining` nodes besides `start` are still unvisited.  The walk
/// only crosses alive links, so every node it enters is in that component.
/// Returns `(covered, returned_to_start)`: whether the whole component was
/// visited, and whether the walk came back to `start` afterwards (tracked
/// on full walks only).  The semantics are those of
/// [`crate::simulator::tour`].
pub(crate) fn tour<D: DecisionSource, S: PathSink>(
    src: &D,
    scratch: &mut WalkScratch,
    mut remaining: u32,
    start: Node,
    max_hops: usize,
    path: &mut S,
) -> (bool, bool) {
    if !S::FULL_WALK && remaining == 0 {
        return (true, false);
    }
    let (seen, visited) = (scratch.seen.as_mut_slice(), scratch.visited.as_mut_slice());
    let csr = src.csr();
    seen.fill(0);
    visited.fill(0);
    insert_bit(visited, start.index());
    let (mut v, mut inport_idx) = (start.index(), csr.degree(start.index()));
    insert_bit(seen, (csr.state_base(v) + inport_idx) as usize);
    let mut returned_to_start = false;
    for _ in 0..max_hops {
        let Some(port) = src.decide(v, inport_idx) else {
            break;
        };
        (v, inport_idx) = (
            csr.port_target(port as usize),
            csr.reverse_port(port as usize),
        );
        path.push(Node(v));
        if insert_bit(visited, v) {
            remaining -= 1;
            if !S::FULL_WALK && remaining == 0 {
                return (true, false);
            }
        }
        if S::FULL_WALK {
            returned_to_start |= v == start.index() && remaining == 0;
        }
        if !insert_bit(seen, (csr.state_base(v) + inport_idx) as usize) {
            break;
        }
    }
    (remaining == 0, returned_to_start)
}

/// A pattern ready to walk: its compiled tables when it compiles, the
/// pattern itself otherwise.  Outcomes are identical either way (the
/// compiled tables replicate `next_hop` exactly); only the speed differs.
pub enum Forwarder<'p, P: ?Sized> {
    /// Compiled rule tables.
    Compiled(Box<CompiledPattern>),
    /// The pattern's own `next_hop`.
    Interpreted(&'p P),
}

impl<'p, P: CompilePattern + ?Sized> Forwarder<'p, P> {
    /// Compiles `pattern` for `g`, keeping it interpreted when compilation
    /// is refused (a node of degree ≥ 64, tabulation over budget) **or
    /// panics**: a misbehaving `compile` must not abort a checker whose
    /// per-probe isolation would report a forwarding-time fault as a typed
    /// error.  The only place that chooses between the two.
    pub fn new(g: &Graph, pattern: &'p P) -> Self {
        match catch_unwind(AssertUnwindSafe(|| pattern.compile(g))) {
            Ok(Some(cp)) => Forwarder::Compiled(Box::new(cp)),
            _ => Forwarder::Interpreted(pattern),
        }
    }
}

impl<P: ForwardingPattern + ?Sized> Forwarder<'_, P> {
    /// Scratch for [`Forwarder::route_failures`].
    pub fn scratch(&self) -> CompiledSim {
        match self {
            Forwarder::Compiled(cp) => CompiledSim::new(cp),
            Forwarder::Interpreted(_) => CompiledSim::default(),
        }
    }

    /// Routes one packet on `g` under a materialized failure set, with its
    /// path: through [`CompiledSim`] when compiled, through the reference
    /// simulator otherwise.  `sim` comes from [`Forwarder::scratch`].
    pub fn route_failures(
        &self,
        g: &Graph,
        failures: &FailureSet,
        source: Node,
        destination: Node,
        max_hops: usize,
        sim: &mut CompiledSim,
    ) -> RouteResult {
        match self {
            Forwarder::Compiled(cp) => {
                sim.load_failures(cp, failures);
                sim.route(cp, source, destination, max_hops)
            }
            Forwarder::Interpreted(p) => {
                oracle_route(g, failures, *p, source, destination, max_hops)
            }
        }
    }
}
