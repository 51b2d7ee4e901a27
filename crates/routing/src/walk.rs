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
//! Beside them, [`resolve`] is the memoized form of the route loop for
//! tables that ignore the packet's source: it answers "delivered?" for every
//! source of one `(mask, destination)` pass while walking each state once.
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

/// The resolve pass's state marks: one `u32` per CSR state, `epoch << 1 |
/// delivered`, where a mark counts only if its epoch is the current pass's.
/// Starting a pass bumps the epoch, so nothing is cleared between passes
/// except once every `MAX_EPOCH` passes, when the epoch wraps.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResolveMemo {
    marks: Vec<u32>,
    epoch: u32,
    /// The states the current walk entered, labelled when it ends.
    path: Vec<u32>,
}

/// The outcome bit of a [`ResolveMemo`] mark.  Epochs start at 1, so a
/// zeroed array holds no mark for any pass.
const DELIVERED: u32 = 1;
/// The largest epoch that fits beside the outcome bit.
const MAX_EPOCH: u32 = u32::MAX >> 1;

impl ResolveMemo {
    /// A memo sized for `csr`'s state space.
    pub(crate) fn new(csr: &PortGraph) -> Self {
        ResolveMemo {
            marks: vec![0; csr.state_count()],
            epoch: 0,
            path: Vec::with_capacity(csr.state_count()),
        }
    }

    /// Starts a pass for a new `(mask, destination)` pair: forgets every
    /// mark, in `O(1)` except on epoch wrap.
    #[inline]
    pub(crate) fn next_pass(&mut self) {
        if self.epoch == MAX_EPOCH {
            self.marks.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }
}

/// Whether a packet from `source` reaches `destination` under a decision
/// source that ignores the packet's source, sharing work with the earlier
/// calls of the same [`ResolveMemo::next_pass`] pass.
///
/// With the source out of the header, the next hop is a function of the
/// state alone, so a state's outcome is the same for every walk that enters
/// it.  The walk marks each state it enters as not delivered and stops at
/// the first state already marked, inheriting its outcome: a state the
/// same walk marked means a loop, which is no delivery either.  A walk
/// that delivers relabels its states as delivered.  The start state
/// `(source, ⊥)` is never entered by a hop, so it is not marked, and a
/// one-hop delivery touches the memo not at all.  Every hop enters a fresh
/// state or ends the walk, so a walk takes at most `2m + n` hops and needs
/// no hop limit; callers must only use this where [`route`] would have a
/// hop limit at least that large, where the two agree on delivery.
/// `source != destination`.
pub(crate) fn resolve<D: DecisionSource>(
    src: &D,
    memo: &mut ResolveMemo,
    source: Node,
    destination: Node,
) -> bool {
    debug_assert_ne!(source, destination);
    debug_assert_ne!(memo.epoch, 0, "resolve before the first next_pass");
    let csr = src.csr();
    let epoch = memo.epoch;
    memo.path.clear();
    let (mut v, mut inport_idx) = (source.index(), csr.degree(source.index()));
    let delivered = loop {
        let Some(port) = src.decide(v, inport_idx) else {
            break false;
        };
        (v, inport_idx) = (
            csr.port_target(port as usize),
            csr.reverse_port(port as usize),
        );
        if v == destination.index() {
            break true;
        }
        let state = csr.state_base(v) + inport_idx;
        let mark = &mut memo.marks[state as usize];
        if *mark >> 1 == epoch {
            break *mark & DELIVERED != 0;
        }
        *mark = epoch << 1;
        memo.path.push(state);
    };
    if delivered {
        for &state in &memo.path {
            memo.marks[state as usize] = epoch << 1 | DELIVERED;
        }
    }
    delivered
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{RotorPattern, ShortestPathPattern};
    use crate::simulator::state_space_bound;
    use frr_graph::generators;

    /// One failed-port word per node for `failures` on `csr`.
    fn failed_port_words(csr: &PortGraph, failures: &FailureSet) -> Vec<u64> {
        (0..csr.node_count())
            .map(|v| {
                csr.ports_of(v)
                    .iter()
                    .enumerate()
                    .filter(|&(_, &u)| failures.contains(Node(v), Node(u as usize)))
                    .fold(0, |word, (p, _)| word | 1 << p)
            })
            .collect()
    }

    #[test]
    fn resolve_survives_epoch_wrap() {
        let g = generators::grid(3, 4);
        let csr = PortGraph::new(&g);
        let max_hops = state_space_bound(&g);
        let n = g.node_count();
        let patterns: [Box<dyn CompilePattern>; 2] = [
            Box::new(ShortestPathPattern::new(&g)),
            Box::new(RotorPattern::clockwise(&g)),
        ];
        for pattern in &patterns {
            let cp = pattern.compile(&g).expect("the grid compiles");
            for skip in [1, 3, 5] {
                let failures = FailureSet::from_edges(g.edges().into_iter().step_by(skip).take(4));
                let ports = failed_port_words(&csr, &failures);
                let mut scratch = WalkScratch::new(&csr);
                let mut memo = ResolveMemo::new(&csr);
                let mut resolve_all = |memo: &mut ResolveMemo, t: usize| {
                    let t = Node(t);
                    let src = TableSource::new(&cp, t, t, &ports, 1);
                    memo.next_pass();
                    for s in g.nodes().filter(|&s| s != t) {
                        let expected = route(&src, &mut scratch, s, t, max_hops, &mut ()).0;
                        assert_eq!(
                            resolve(&src, memo, s, t),
                            expected.is_delivered(),
                            "{} under {failures}, {s}->{t}, epoch {}",
                            pattern.name(),
                            memo.epoch
                        );
                    }
                };
                // Epoch 1 leaves marks for destination 0; after the wrap,
                // epoch 1 comes round again for another destination, and
                // only the wrap's clear keeps those stale marks unread.
                resolve_all(&mut memo, 0);
                memo.epoch = MAX_EPOCH - 2;
                for t in 1..n {
                    resolve_all(&mut memo, t);
                }
                // Passes ran at MAX_EPOCH - 1, MAX_EPOCH, then 1..=n - 3.
                assert_eq!(memo.epoch as usize, n - 3, "the epoch wrapped");
            }
        }
    }
}
