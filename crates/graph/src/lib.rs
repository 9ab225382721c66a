//! # fubar-graph
//!
//! Directed, weighted graph substrate for the FUBAR reproduction.
//!
//! FUBAR's path generator (paper §2.4) needs exactly three primitives, all
//! of which this crate provides without any external dependencies:
//!
//! * a compact directed graph with non-negative edge costs
//!   ([`DiGraph`]), where the cost is the propagation delay of a link;
//! * lowest-cost path queries that can *exclude* arbitrary sets of links
//!   and nodes ([`DiGraph::shortest_path`], used for the paper's
//!   *global* / *local* / *link-local* alternative paths), one pair at a
//!   time or many destinations of one source from a single on-demand
//!   search ([`DiGraph::shortest_path_tree`]), or as a reusable search
//!   that allocates nothing past warm-up and records what it read
//!   ([`PathSearch`], [`SearchRecord`]), so that a caller can tell when
//!   a changed exclusion set cannot change the answer;
//! * K-shortest *simple* path enumeration ([`yen::k_shortest_paths`]),
//!   used by the path-set ablation experiments and as a building block
//!   for policy-compliant path generation.
//!
//! The crate is deliberately minimal and allocation-conscious: node and
//! link identifiers are dense `u32` indices ([`NodeId`], [`LinkId`]),
//! exclusion sets are bitsets ([`LinkSet`], [`NodeSet`]), and all
//! algorithms are deterministic (ties broken by hop count, then by link
//! identifier) so that experiments are reproducible bit-for-bit.
//!
//! ```
//! use fubar_graph::{DiGraph, LinkSet};
//!
//! let mut g = DiGraph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! let c = g.add_node();
//! let ab = g.add_link(a, b, 1.0);
//! let _bc = g.add_link(b, c, 1.0);
//! let _ac = g.add_link(a, c, 5.0);
//!
//! // Lowest-delay path goes through `b`...
//! let p = g.shortest_path(a, c, &LinkSet::new()).unwrap();
//! assert_eq!(p.cost(), 2.0);
//!
//! // ...unless the a->b link is excluded (e.g. it is congested).
//! let mut excl = LinkSet::new();
//! excl.insert(ab);
//! let p = g.shortest_path(a, c, &excl).unwrap();
//! assert_eq!(p.cost(), 5.0);
//! ```
#![forbid(unsafe_code)]

pub mod bellman_ford;
mod bitset;
mod dijkstra;
mod graph;
pub mod maxflow;
mod path;
pub mod yen;

pub use bitset::{LinkSet, NodeSet};
pub use dijkstra::{PathSearch, SearchRecord, SpTree};
pub use graph::{DiGraph, Link, LinkId, NodeId};
pub use maxflow::{max_flow, MaxFlowResult};
pub use path::{Path, PathError};
