//! Dijkstra shortest paths with link/node exclusion.
//!
//! This is the workhorse behind FUBAR's path generator (paper §2.4): the
//! *global*, *local* and *link-local* alternative paths are all "lowest
//! delay path avoiding set X of links", which is exactly
//! [`DiGraph::shortest_path`] with a different `X`.
//!
//! The relax-and-settle loop exists once, in the labels-and-heap state
//! that [`SpTree`] and [`PathSearch`] share: a search kept between
//! queries and advanced only as far as the targets asked of it need. A
//! per-pair query, a node-constrained query and the one-to-all
//! distances are that search asked for one target, or for everything;
//! [`PathSearch`] is the per-pair query with reusable buffers, and it
//! records what each query read ([`SearchRecord`]).
//!
//! Determinism: when two tentative paths to a node tie on cost, the one
//! with fewer hops wins; a remaining tie is broken by the incoming link id.
//! This makes every experiment in the repository reproducible across runs
//! and platforms.

use crate::bitset::{LinkSet, NodeSet};
use crate::graph::{DiGraph, LinkId, NodeId};
use crate::path::Path;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Priority-queue entry. Ordered as a *min*-heap by (cost, hops, link id)
/// through the reversed `Ord` implementation below.
#[derive(Clone, Copy, Debug)]
struct QueueEntry {
    cost: f64,
    hops: u32,
    node: NodeId,
    /// Link we arrived through; `None` only for the source entry.
    via: Option<LinkId>,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so that BinaryHeap (a max-heap) pops the smallest.
        other
            .cost
            .total_cmp(&self.cost)
            .then(other.hops.cmp(&self.hops))
            .then_with(|| {
                let a = self.via.map_or(u32::MAX, |l| l.0);
                let b = other.via.map_or(u32::MAX, |l| l.0);
                b.cmp(&a)
            })
    }
}

/// Per-node label state during a run.
#[derive(Clone, Copy)]
struct Label {
    cost: f64,
    hops: u32,
    pred: Option<LinkId>,
    settled: bool,
}

const UNREACHED: Label = Label {
    cost: f64::INFINITY,
    hops: u32::MAX,
    pred: None,
    settled: false,
};

fn better(cand_cost: f64, cand_hops: u32, cand_via: Option<LinkId>, cur: &Label) -> bool {
    match cand_cost.total_cmp(&cur.cost) {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => match cand_hops.cmp(&cur.hops) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => {
                cand_via.map_or(u32::MAX, |l| l.0) < cur.pred.map_or(u32::MAX, |l| l.0)
            }
        },
    }
}

/// The labels and the heap of one Dijkstra run: what [`SpTree`] keeps
/// between the queries of one search and [`PathSearch`] keeps between
/// searches, resetting it instead of allocating a new one.
#[derive(Default)]
struct Frontier {
    labels: Vec<Label>,
    heap: BinaryHeap<QueueEntry>,
}

impl Frontier {
    /// Starts a search from `src` over `nodes` nodes, keeping the
    /// buffers' capacity.
    fn reset(&mut self, nodes: usize, src: NodeId) {
        self.labels.clear();
        self.labels.resize(nodes, UNREACHED);
        self.labels[src.index()] = Label {
            cost: 0.0,
            hops: 0,
            pred: None,
            settled: false,
        };
        self.heap.clear();
        self.heap.push(QueueEntry {
            cost: 0.0,
            hops: 0,
            node: src,
            via: None,
        });
    }

    /// The one relax-and-settle loop: pops until `target` has been
    /// settled *and relaxed* (so the search can resume behind it), or,
    /// without a target, until the heap runs dry.
    fn settle(
        &mut self,
        graph: &DiGraph,
        excluded_links: &LinkSet,
        excluded_nodes: Option<&NodeSet>,
        target: Option<NodeId>,
    ) {
        if target.is_some_and(|t| self.labels[t.index()].settled) {
            return;
        }
        while let Some(entry) = self.heap.pop() {
            let label = &mut self.labels[entry.node.index()];
            if label.settled {
                continue;
            }
            // Stale heap entry (a better label was pushed later).
            if entry.cost.total_cmp(&label.cost) == Ordering::Greater
                || (entry.cost == label.cost && entry.hops > label.hops)
            {
                continue;
            }
            label.settled = true;
            let (cost_here, hops_here) = (label.cost, label.hops);
            for &lid in graph.out_links(entry.node) {
                if excluded_links.contains(lid) {
                    continue;
                }
                let link = graph.link(lid);
                if excluded_nodes.is_some_and(|set| set.contains(link.dst)) {
                    continue;
                }
                let next = &mut self.labels[link.dst.index()];
                if next.settled {
                    continue;
                }
                let cand_cost = cost_here + link.cost;
                let cand_hops = hops_here + 1;
                if better(cand_cost, cand_hops, Some(lid), next) {
                    next.cost = cand_cost;
                    next.hops = cand_hops;
                    next.pred = Some(lid);
                    self.heap.push(QueueEntry {
                        cost: cand_cost,
                        hops: cand_hops,
                        node: link.dst,
                        via: Some(lid),
                    });
                }
            }
            if target == Some(entry.node) {
                return;
            }
        }
    }

    /// Writes the links of the settled path from `src` to `dst` into
    /// `links`, source first.
    fn trace(&self, graph: &DiGraph, src: NodeId, dst: NodeId, links: &mut Vec<LinkId>) {
        links.clear();
        let mut at = dst;
        while at != src {
            let lid = self.labels[at.index()]
                .pred
                .expect("settled non-source has pred");
            links.push(lid);
            at = graph.link(lid).src;
        }
        links.reverse();
    }
}

/// A single-source shortest-path search that settles nodes **on
/// demand** ([`DiGraph::shortest_path_tree`]): it keeps the labels and
/// the heap of one Dijkstra run between queries, and a query for a
/// target not settled yet resumes popping where the last one stopped.
/// Many targets from one source — every aggregate of one ingress — then
/// cost one search between them, and a near target still costs only the
/// few pops an early-exit run would have spent on it.
///
/// Why every answer is bit-for-bit [`DiGraph::shortest_path`]'s, in any
/// query order: that function is this loop stopped at the pop that
/// settles its target, and stopping changes nothing before it — the heap
/// order and the `better` tie-break do not depend on the target, and a
/// settled label is never written again. So an early-exit run is a
/// *prefix* of the full run, every query here reads a label of that one
/// full run, and so does the per-pair call.
pub struct SpTree<'g> {
    graph: &'g DiGraph,
    src: NodeId,
    excluded_links: &'g LinkSet,
    excluded_nodes: Option<&'g NodeSet>,
    frontier: Frontier,
}

impl<'g> SpTree<'g> {
    fn new(
        graph: &'g DiGraph,
        src: NodeId,
        excluded_links: &'g LinkSet,
        excluded_nodes: Option<&'g NodeSet>,
    ) -> Self {
        let mut frontier = Frontier::default();
        frontier.reset(graph.node_count(), src);
        SpTree {
            graph,
            src,
            excluded_links,
            excluded_nodes,
            frontier,
        }
    }

    fn node_excluded(&self, node: NodeId) -> bool {
        self.excluded_nodes.is_some_and(|set| set.contains(node))
    }

    fn settle(&mut self, target: Option<NodeId>) {
        (self.frontier).settle(self.graph, self.excluded_links, self.excluded_nodes, target);
    }

    /// The lowest-cost path from the search's source to `dst` under its
    /// exclusions — exactly what [`DiGraph::shortest_path`] returns for
    /// the pair — or `None` when there is none. Settles only as much of
    /// the graph as this and the earlier queries needed.
    pub fn path_to(&mut self, dst: NodeId) -> Option<Path> {
        let src = self.src;
        if self.node_excluded(src) || self.node_excluded(dst) {
            return None;
        }
        if src == dst {
            return Some(Path::trivial(src));
        }
        self.settle(Some(dst));
        if !self.frontier.labels[dst.index()].settled {
            return None;
        }
        let mut links = Vec::new();
        self.frontier.trace(self.graph, src, dst, &mut links);
        let cost = self.frontier.labels[dst.index()].cost;
        Some(path_from_links(self.graph, src, links, cost))
    }
}

fn path_from_links(graph: &DiGraph, src: NodeId, links: Vec<LinkId>, cost: f64) -> Path {
    let mut nodes = Vec::with_capacity(links.len() + 1);
    nodes.push(src);
    for &l in &links {
        nodes.push(graph.link(l).dst);
    }
    Path::from_parts_unchecked(links, nodes, cost)
}

/// [`DiGraph::shortest_path`] as a reusable search: the same loop and
/// the same answer, bit for bit, but the labels, the heap, the answer's
/// links and the avoid set stay in the search and are reset between
/// queries, so past warm-up a query allocates nothing. A query also
/// leaves behind what it read ([`PathSearch::record_into`]), which is
/// what lets a caller keep the answer while the links that changed since
/// are ones the query never looked at ([`SearchRecord::stands`]).
pub struct PathSearch {
    frontier: Frontier,
    src: NodeId,
    dst: NodeId,
    found: bool,
    links: Vec<LinkId>,
    /// The last query's avoid set.
    avoided: LinkSet,
}

impl Default for PathSearch {
    fn default() -> Self {
        PathSearch {
            frontier: Frontier::default(),
            src: NodeId(0),
            dst: NodeId(0),
            found: false,
            links: Vec::new(),
            avoided: LinkSet::new(),
        }
    }
}

impl PathSearch {
    /// An empty search; its buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Searches for the lowest-cost path from `src` to `dst` avoiding
    /// `excluded`; returns whether there is one. Afterwards
    /// [`PathSearch::links`] and [`PathSearch::cost`] are
    /// [`DiGraph::shortest_path`]'s answer for the same query.
    pub fn run(&mut self, graph: &DiGraph, src: NodeId, dst: NodeId, excluded: &LinkSet) -> bool {
        (self.src, self.dst) = (src, dst);
        self.avoided.clone_from(excluded);
        self.links.clear();
        if src == dst {
            // The trivial path reads nothing.
            self.found = true;
            return true;
        }
        self.frontier.reset(graph.node_count(), src);
        self.frontier.settle(graph, excluded, None, Some(dst));
        self.found = self.frontier.labels[dst.index()].settled;
        if self.found {
            self.frontier.trace(graph, src, dst, &mut self.links);
        }
        self.found
    }

    /// The links of the last query's path, source first (empty when
    /// there was none, or for `src == dst`).
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// The cost of the last query's path (`0.0` for `src == dst`,
    /// infinite when there was none).
    pub fn cost(&self) -> f64 {
        match self.src == self.dst {
            true => 0.0,
            false => self.frontier.labels[self.dst.index()].cost,
        }
    }

    /// The last query's answer as the [`Path`] `shortest_path` returns.
    pub fn path(&self, graph: &DiGraph) -> Option<Path> {
        match (self.found, self.src == self.dst) {
            (false, _) => None,
            (true, true) => Some(Path::trivial(self.src)),
            (true, false) => Some(path_from_links(
                graph,
                self.src,
                self.links.clone(),
                self.cost(),
            )),
        }
    }

    /// Writes into `record` what the last query read: when it reached
    /// its target, its settled tree, and the avoided links out of every
    /// node it settled before its target. The query stops at its
    /// target, so the nodes it settled are those up to and including
    /// it. Reuses `record`'s buffers.
    pub fn record_into(&self, graph: &DiGraph, record: &mut SearchRecord) {
        record.tree.clear();
        record.skipped.clear();
        if self.src == self.dst {
            return;
        }
        let settled = (self.frontier.labels.iter().enumerate()).filter(|(_, l)| l.settled);
        for (node, label) in settled {
            if let (true, Some(pred)) = (self.found, label.pred) {
                record.tree.push(pred.0);
            }
            if node != self.dst.index() {
                let out = graph.out_links(NodeId(node as u32)).iter();
                let skipped = out.filter(|&&l| self.avoided.contains(l));
                record.skipped.extend(skipped.map(|l| l.0));
            }
        }
    }
}

/// What one [`PathSearch`] query read: when it reached its target, its
/// *settled tree* — the link through which it reached each node it
/// settled, the target included — and the links of its avoid set out
/// of the nodes it settled before its target, the ones it skipped.
/// [`SearchRecord::stands`] says from this alone whether the query,
/// asked again with some links flipped in or out of its avoid set,
/// would answer the same; the argument is written out in
/// `fubar_core::pathgen`'s module docs.
#[derive(Debug, Default)]
pub struct SearchRecord {
    tree: Vec<u32>,
    skipped: Vec<u32>,
}

/// `clone_from` reuses the target's buffers.
impl Clone for SearchRecord {
    fn clone(&self) -> Self {
        SearchRecord {
            tree: self.tree.clone(),
            skipped: self.skipped.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.tree.clone_from(&source.tree);
        self.skipped.clone_from(&source.skipped);
    }
}

impl SearchRecord {
    /// Whether the recorded query returns the same path with the same
    /// cost bits (or again none) when run avoiding `now` instead. It
    /// does when every link in one avoid set and not the other is
    ///
    /// * newly avoided and not in the settled tree (any newly avoided
    ///   link, when the target was unreachable: avoiding more cannot
    ///   reach it), or
    /// * newly admitted, with its tail not settled before the target.
    ///
    /// A tree link was not avoided (the query went through it), so one
    /// in `now` is a newly avoided tree link; a skipped link out of
    /// `now` is a newly admitted one whose tail settled before the
    /// target. No other flip can break the rule, so those two walks are
    /// the whole check.
    pub fn stands(&self, now: &LinkSet) -> bool {
        let id = |&l: &u32| LinkId(l);
        !self.tree.iter().map(id).any(|l| now.contains(l))
            && self.skipped.iter().map(id).all(|l| now.contains(l))
    }
}

impl DiGraph {
    /// Lowest-cost path from `src` to `dst` that avoids every link in
    /// `excluded_links`. Returns `None` when no such path exists.
    ///
    /// `src == dst` yields the trivial empty path (even if links are
    /// excluded): an aggregate whose endpoints coincide never needs the
    /// backbone.
    pub fn shortest_path(
        &self,
        src: NodeId,
        dst: NodeId,
        excluded_links: &LinkSet,
    ) -> Option<Path> {
        self.shortest_path_tree(src, excluded_links).path_to(dst)
    }

    /// An on-demand search from `src` avoiding `excluded_links`: ask it
    /// for as many destinations as needed ([`SpTree::path_to`]); each
    /// answer is [`DiGraph::shortest_path`]'s for that pair, and the
    /// graph is searched once between them.
    pub fn shortest_path_tree<'g>(
        &'g self,
        src: NodeId,
        excluded_links: &'g LinkSet,
    ) -> SpTree<'g> {
        SpTree::new(self, src, excluded_links, None)
    }

    /// Like [`DiGraph::shortest_path`] but additionally avoiding the nodes
    /// in `excluded_nodes` (needed by Yen's spur computation). The source
    /// and destination themselves must not be excluded.
    pub fn shortest_path_constrained(
        &self,
        src: NodeId,
        dst: NodeId,
        excluded_links: &LinkSet,
        excluded_nodes: &NodeSet,
    ) -> Option<Path> {
        SpTree::new(self, src, excluded_links, Some(excluded_nodes)).path_to(dst)
    }

    /// One-to-all lowest costs from `src`, avoiding `excluded_links`.
    /// Unreachable nodes get `f64::INFINITY`.
    pub fn distances(&self, src: NodeId, excluded_links: &LinkSet) -> Vec<f64> {
        let mut tree = self.shortest_path_tree(src, excluded_links);
        tree.settle(None);
        tree.frontier.labels.into_iter().map(|l| l.cost).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic diamond: a->b->d is cheap, a->c->d is pricey, plus a
    /// direct a->d link in the middle.
    fn diamond() -> (DiGraph, [NodeId; 4], [LinkId; 5]) {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        let ab = g.add_link(a, b, 1.0);
        let bd = g.add_link(b, d, 1.0);
        let ac = g.add_link(a, c, 2.0);
        let cd = g.add_link(c, d, 2.0);
        let ad = g.add_link(a, d, 3.0);
        (g, [a, b, c, d], [ab, bd, ac, cd, ad])
    }

    #[test]
    fn picks_cheapest() {
        let (g, [a, _, _, d], [ab, bd, ..]) = diamond();
        let p = g.shortest_path(a, d, &LinkSet::new()).unwrap();
        assert_eq!(p.links(), &[ab, bd]);
        assert_eq!(p.cost(), 2.0);
    }

    #[test]
    fn exclusion_reroutes() {
        let (g, [a, _, _, d], [ab, _, _, _, ad]) = diamond();
        let mut excl = LinkSet::new();
        excl.insert(ab);
        let p = g.shortest_path(a, d, &excl).unwrap();
        assert_eq!(p.links(), &[ad]);
        assert_eq!(p.cost(), 3.0);
    }

    #[test]
    fn full_exclusion_gives_none() {
        let (g, [a, _, _, d], links) = diamond();
        let excl: LinkSet = links.into_iter().collect();
        assert!(g.shortest_path(a, d, &excl).is_none());
    }

    #[test]
    fn node_exclusion() {
        let (g, [a, b, c, d], _) = diamond();
        let mut nodes = NodeSet::new();
        nodes.insert(b);
        let p = g
            .shortest_path_constrained(a, d, &LinkSet::new(), &nodes)
            .unwrap();
        // With b banned, a->d direct (3.0) beats a->c->d (4.0).
        assert_eq!(p.nodes(), &[a, d]);
        nodes.insert(c);
        let p = g
            .shortest_path_constrained(a, d, &LinkSet::new(), &nodes)
            .unwrap();
        assert_eq!(p.cost(), 3.0);
    }

    #[test]
    fn excluded_endpoint_is_unreachable() {
        let (g, [a, _, _, d], _) = diamond();
        let mut nodes = NodeSet::new();
        nodes.insert(d);
        assert!(g
            .shortest_path_constrained(a, d, &LinkSet::new(), &nodes)
            .is_none());
    }

    #[test]
    fn self_path_is_trivial() {
        let (g, [a, ..], _) = diamond();
        let p = g.shortest_path(a, a, &LinkSet::new()).unwrap();
        assert!(p.is_trivial());
    }

    #[test]
    fn tie_break_prefers_fewer_hops() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_link(a, b, 1.0);
        g.add_link(b, c, 1.0);
        let ac = g.add_link(a, c, 2.0); // same cost, one hop
        let p = g.shortest_path(a, c, &LinkSet::new()).unwrap();
        assert_eq!(p.links(), &[ac]);
    }

    #[test]
    fn tie_break_prefers_lower_link_id() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let l0 = g.add_link(a, b, 1.0);
        let _l1 = g.add_link(a, b, 1.0); // parallel, same cost
        let p = g.shortest_path(a, b, &LinkSet::new()).unwrap();
        assert_eq!(p.links(), &[l0]);
    }

    #[test]
    fn distances_match_individual_queries() {
        let (g, [a, b, c, d], _) = diamond();
        let dist = g.distances(a, &LinkSet::new());
        for &n in &[a, b, c, d] {
            let via_query = g
                .shortest_path(a, n, &LinkSet::new())
                .map_or(f64::INFINITY, |p| p.cost());
            assert_eq!(dist[n.index()], via_query);
        }
    }

    #[test]
    fn unreachable_distance_is_infinite() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let _ = b;
        let dist = g.distances(a, &LinkSet::new());
        assert_eq!(dist[1], f64::INFINITY);
        assert!(g.shortest_path(a, NodeId(1), &LinkSet::new()).is_none());
    }

    #[test]
    fn path_search_answers_as_shortest_path_query_after_query() {
        let (g, [a, b, c, d], [ab, ..]) = diamond();
        let mut search = PathSearch::new();
        let excl: LinkSet = [ab].into_iter().collect();
        for (src, dst, excluded) in [
            (a, d, LinkSet::new()),
            (a, d, excl.clone()),
            (b, a, LinkSet::new()),
            (c, c, excl),
        ] {
            let want = g.shortest_path(src, dst, &excluded);
            assert_eq!(search.run(&g, src, dst, &excluded), want.is_some());
            assert_eq!(search.path(&g), want);
            if let Some(want) = want {
                assert_eq!(search.links(), want.links());
                assert_eq!(search.cost().to_bits(), want.cost().to_bits());
            }
        }
    }

    #[test]
    fn record_keeps_what_the_search_never_read() {
        // The diamond plus a far node e with a free link into d. From a,
        // the search settles a, b, c (cost 2, one hop) and then d (cost
        // 2, two hops, through b); e is reached at 5 and never settled.
        let (mut g, [a, _, _, d], [ab, bd, ac, _, ad]) = diamond();
        let e = g.add_node();
        let ae = g.add_link(a, e, 5.0);
        let ed = g.add_link(e, d, 0.0);
        let with = |links: &[LinkId]| links.iter().copied().collect::<LinkSet>();
        let mut search = PathSearch::new();
        let mut record = SearchRecord::default();
        let avoided = with(&[ed]);
        search.run(&g, a, d, &avoided);
        search.record_into(&g, &mut record);
        assert_eq!(search.links(), &[ab, bd]);
        // e->d admitted: its tail was never settled.
        assert!(record.stands(&LinkSet::new()));
        // a->e avoided: it reached no settled node.
        assert!(record.stands(&with(&[ed, ae])));
        // a->d avoided: relaxed, but d was settled through b.
        assert!(record.stands(&with(&[ed, ad])));
        // a->c avoided: off the answer, but c's way in.
        assert!(!record.stands(&with(&[ed, ac])));
        // b->d avoided: on the answer.
        assert!(!record.stands(&with(&[ed, bd])));

        // Unreachable: every link out of a avoided. Avoiding more stands;
        // admitting a link out of the settled source does not.
        let cut = with(&[ab, ac, ad, ae]);
        assert!(!search.run(&g, a, d, &cut));
        search.record_into(&g, &mut record);
        assert!(record.stands(&with(&[ab, ac, ad, ae, bd, ed])));
        assert!(!record.stands(&with(&[ac, ad, ae])));
    }

    /// Why a newly avoided link must be off the whole settled tree, not
    /// just off the answer: rounding can hide a cost difference, so a
    /// node the avoided link reached more cheaply can offer the target a
    /// path of equal cost and fewer hops once it is reached otherwise.
    #[test]
    fn an_avoided_tree_link_off_the_answer_can_move_it() {
        let mut g = DiGraph::new();
        let [s, z1, z2, z3, z4, w, m, q1, q2, q3, p, t] = [(); 12].map(|()| g.add_node());
        for (x, y) in [(s, z1), (z1, z2), (z2, z3), (z3, z4)] {
            g.add_link(x, y, 0.0);
        }
        let z4w = g.add_link(z4, w, 0.0); // w at cost 0, five hops
        g.add_link(s, m, 1e-20);
        g.add_link(m, w, 0.0); // w at cost 1e-20, two hops
        g.add_link(w, p, 1.0); // 0 + 1 and 1e-20 + 1 both round to 1
        for (x, y) in [(s, q1), (q1, q2), (q2, q3), (q3, p)] {
            g.add_link(x, y, 0.25); // p at cost 1, four hops
        }
        g.add_link(p, t, 1.0);

        let mut search = PathSearch::new();
        let mut record = SearchRecord::default();
        search.run(&g, s, t, &LinkSet::new());
        search.record_into(&g, &mut record);
        assert!(!search.links().contains(&z4w));
        let avoided: LinkSet = [z4w].into_iter().collect();
        let moved = g.shortest_path(s, t, &avoided).unwrap();
        assert_ne!(moved.links(), search.links(), "the answer moves");
        assert_eq!(moved.hop_count(), 4);
        assert!(!record.stands(&avoided), "the tree rule sees it");
    }

    #[test]
    fn zero_cost_links_are_fine() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_link(a, b, 0.0);
        g.add_link(b, c, 0.0);
        let p = g.shortest_path(a, c, &LinkSet::new()).unwrap();
        assert_eq!(p.cost(), 0.0);
        assert_eq!(p.hop_count(), 2);
    }
}
