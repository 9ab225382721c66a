//! Property-based tests for the graph substrate.
//!
//! Random graphs are generated from a seed; Dijkstra is cross-checked
//! against the independent Bellman–Ford implementation, and Yen's output
//! is checked for the defining K-shortest-simple-path invariants.

use fubar_graph::{bellman_ford, yen, DiGraph, LinkId, LinkSet, NodeId, Path};
use proptest::prelude::*;

/// A reproducible random digraph described by value-level data so proptest
/// can shrink it.
#[derive(Debug, Clone)]
struct RandomGraph {
    nodes: usize,
    /// (src, dst, cost) triples; indices taken modulo `nodes`.
    edges: Vec<(usize, usize, f64)>,
}

fn random_graph() -> impl Strategy<Value = RandomGraph> {
    (2usize..12).prop_flat_map(|nodes| {
        let edge = (0..nodes, 0..nodes, 0.0f64..100.0);
        proptest::collection::vec(edge, 1..60).prop_map(move |edges| RandomGraph { nodes, edges })
    })
}

fn build(rg: &RandomGraph) -> DiGraph {
    let mut g = DiGraph::new();
    g.add_nodes(rg.nodes);
    for &(s, d, c) in &rg.edges {
        g.add_link(NodeId(s as u32), NodeId(d as u32), c);
    }
    g
}

proptest! {
    /// Dijkstra's one-to-all distances equal Bellman–Ford's on every graph
    /// and from every source.
    #[test]
    fn dijkstra_matches_bellman_ford(rg in random_graph(), src_raw in 0usize..12) {
        let g = build(&rg);
        let src = NodeId((src_raw % rg.nodes) as u32);
        let d1 = g.distances(src, &LinkSet::new());
        let d2 = bellman_ford::distances(&g, src, &LinkSet::new());
        for (a, b) in d1.iter().zip(&d2) {
            if a.is_finite() || b.is_finite() {
                prop_assert!((a - b).abs() < 1e-9, "dijkstra {a} vs bellman-ford {b}");
            }
        }
    }

    /// Distances agree under random link exclusions too.
    #[test]
    fn dijkstra_matches_bellman_ford_with_exclusions(
        rg in random_graph(),
        src_raw in 0usize..12,
        excl_bits in proptest::collection::vec(any::<bool>(), 60),
    ) {
        let g = build(&rg);
        let src = NodeId((src_raw % rg.nodes) as u32);
        let excl: LinkSet = (0..g.link_count())
            .filter(|&i| excl_bits.get(i).copied().unwrap_or(false))
            .map(|i| LinkId(i as u32))
            .collect();
        let d1 = g.distances(src, &excl);
        let d2 = bellman_ford::distances(&g, src, &excl);
        for (a, b) in d1.iter().zip(&d2) {
            if a.is_finite() || b.is_finite() {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// A reconstructed shortest path re-validates, has the claimed cost,
    /// and its cost matches the one-to-all distance.
    #[test]
    fn shortest_path_is_valid_and_optimal(rg in random_graph(), s in 0usize..12, t in 0usize..12) {
        let g = build(&rg);
        let src = NodeId((s % rg.nodes) as u32);
        let dst = NodeId((t % rg.nodes) as u32);
        let dist = g.distances(src, &LinkSet::new());
        match g.shortest_path(src, dst, &LinkSet::new()) {
            Some(p) => {
                let validated = Path::new(&g, src, p.links().to_vec()).unwrap();
                prop_assert!((validated.cost() - p.cost()).abs() < 1e-9);
                prop_assert!((p.cost() - dist[dst.index()]).abs() < 1e-9);
                prop_assert_eq!(p.source(), src);
                prop_assert_eq!(p.destination(), dst);
            }
            None => prop_assert!(dist[dst.index()].is_infinite()),
        }
    }

    /// Yen invariants: non-decreasing costs, all simple, all distinct, the
    /// first equals Dijkstra's path cost, and no returned path uses an
    /// excluded link.
    #[test]
    fn yen_invariants(rg in random_graph(), s in 0usize..12, t in 0usize..12, k in 1usize..6) {
        let g = build(&rg);
        let src = NodeId((s % rg.nodes) as u32);
        let dst = NodeId((t % rg.nodes) as u32);
        let paths = yen::k_shortest_paths(&g, src, dst, k, &LinkSet::new());
        prop_assert!(paths.len() <= k);
        if let Some(best) = g.shortest_path(src, dst, &LinkSet::new()) {
            prop_assert!(!paths.is_empty());
            prop_assert!((paths[0].cost() - best.cost()).abs() < 1e-9);
        } else {
            prop_assert!(paths.is_empty());
        }
        for w in paths.windows(2) {
            prop_assert!(w[0].cost() <= w[1].cost() + 1e-9);
            prop_assert_ne!(&w[0], &w[1]);
        }
        for p in &paths {
            if src != dst {
                Path::new(&g, src, p.links().to_vec()).expect("yen path must be simple & connected");
            }
        }
    }

    /// **tree ≡ per-pair Dijkstra**: one on-demand search answers every
    /// destination with bit-for-bit the path a fresh `shortest_path` call
    /// returns — links, nodes and cost bits — whatever the order of the
    /// queries and however often one repeats, unreachable destinations
    /// and `src == dst` included. Half the cases round the costs to
    /// {0, 1, 2} so that equal-cost and equal-hop ties decide most paths.
    #[test]
    fn tree_matches_per_pair_dijkstra_in_any_query_order(
        rg in random_graph(),
        src_raw in 0usize..12,
        excl_bits in proptest::collection::vec(any::<bool>(), 60),
        tie_heavy in any::<bool>(),
        shuffle_seed in any::<u64>(),
    ) {
        let mut rg = rg;
        if tie_heavy {
            for e in &mut rg.edges {
                e.2 = (e.2 as u64 % 3) as f64;
            }
        }
        let g = build(&rg);
        let src = NodeId((src_raw % rg.nodes) as u32);
        // Every third set bit: most pairs stay connected, some do not.
        let excl: LinkSet = (0..g.link_count())
            .filter(|&i| i % 3 == 0 && excl_bits[i])
            .map(|i| LinkId(i as u32))
            .collect();
        let per_pair: Vec<Option<Path>> = (0..rg.nodes)
            .map(|d| g.shortest_path(src, NodeId(d as u32), &excl))
            .collect();

        let ascending: Vec<usize> = (0..rg.nodes).collect();
        let descending: Vec<usize> = (0..rg.nodes).rev().collect();
        let mut x = shuffle_seed | 1;
        let shuffled: Vec<usize> = (0..3 * rg.nodes)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % rg.nodes as u64) as usize
            })
            .collect();
        for order in [ascending, descending, shuffled] {
            let mut tree = g.shortest_path_tree(src, &excl);
            for &d in &order {
                let got = tree.path_to(NodeId(d as u32));
                match (&got, &per_pair[d]) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.links(), b.links(), "dst {}", d);
                        prop_assert_eq!(a.nodes(), b.nodes(), "dst {}", d);
                        prop_assert_eq!(a.cost().to_bits(), b.cost().to_bits(), "dst {}", d);
                    }
                    _ => prop_assert!(false, "dst {d}: tree {got:?} vs per-pair {:?}", per_pair[d]),
                }
            }
        }
        prop_assert!(per_pair[src.index()].as_ref().is_some_and(Path::is_trivial));
    }

    /// Excluding the links of the best path forces a strictly different
    /// (or no) path, never a cheaper one.
    #[test]
    fn exclusion_never_improves(rg in random_graph(), s in 0usize..12, t in 0usize..12) {
        let g = build(&rg);
        let src = NodeId((s % rg.nodes) as u32);
        let dst = NodeId((t % rg.nodes) as u32);
        if src == dst {
            return Ok(());
        }
        if let Some(best) = g.shortest_path(src, dst, &LinkSet::new()) {
            if best.links().is_empty() {
                return Ok(());
            }
            let excl: LinkSet = best.links().iter().copied().collect();
            if let Some(alt) = g.shortest_path(src, dst, &excl) {
                prop_assert!(alt.cost() + 1e-9 >= best.cost());
                for l in alt.links() {
                    prop_assert!(!excl.contains(*l));
                }
            }
        }
    }
}
