//! Dijkstra shortest paths with link/node exclusion.
//!
//! This is the workhorse behind FUBAR's path generator (paper §2.4): the
//! *global*, *local* and *link-local* alternative paths are all "lowest
//! delay path avoiding set X of links", which is exactly
//! [`DiGraph::shortest_path`] with a different `X`.
//!
//! The relax-and-settle loop exists once, in [`SpTree`]: a search kept
//! between queries and advanced only as far as the targets asked of it
//! need. A per-pair query, a node-constrained query and the one-to-all
//! distances are that search asked for one target, or for everything.
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
    labels: Vec<Label>,
    heap: BinaryHeap<QueueEntry>,
}

impl<'g> SpTree<'g> {
    fn new(
        graph: &'g DiGraph,
        src: NodeId,
        excluded_links: &'g LinkSet,
        excluded_nodes: Option<&'g NodeSet>,
    ) -> Self {
        let mut labels = vec![UNREACHED; graph.node_count()];
        labels[src.index()] = Label {
            cost: 0.0,
            hops: 0,
            pred: None,
            settled: false,
        };
        let mut heap = BinaryHeap::new();
        heap.push(QueueEntry {
            cost: 0.0,
            hops: 0,
            node: src,
            via: None,
        });
        SpTree {
            graph,
            src,
            excluded_links,
            excluded_nodes,
            labels,
            heap,
        }
    }

    fn node_excluded(&self, node: NodeId) -> bool {
        self.excluded_nodes.is_some_and(|set| set.contains(node))
    }

    /// The one relax-and-settle loop: pops until `target` has been
    /// settled *and relaxed* (so the search can resume behind it), or,
    /// without a target, until the heap runs dry.
    fn settle(&mut self, target: Option<NodeId>) {
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
            for &lid in self.graph.out_links(entry.node) {
                if self.excluded_links.contains(lid) {
                    continue;
                }
                let link = self.graph.link(lid);
                if self.node_excluded(link.dst) {
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
        if !self.labels[dst.index()].settled {
            return None;
        }
        let mut links = Vec::new();
        let mut at = dst;
        while at != src {
            let lid = self.labels[at.index()]
                .pred
                .expect("settled non-source has pred");
            links.push(lid);
            at = self.graph.link(lid).src;
        }
        links.reverse();
        let mut nodes = Vec::with_capacity(links.len() + 1);
        nodes.push(src);
        for &l in &links {
            nodes.push(self.graph.link(l).dst);
        }
        Some(Path::from_parts_unchecked(
            links,
            nodes,
            self.labels[dst.index()].cost,
        ))
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
        tree.labels.into_iter().map(|l| l.cost).collect()
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
