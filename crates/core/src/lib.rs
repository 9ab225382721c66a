//! # fubar-core
//!
//! The FUBAR optimizer — the primary contribution of *"FUBAR: Flow
//! Utility Based Routing"* (Gvozdiev, Karp, Handley; HotNets-XIII 2014).
//!
//! Given a [`Topology`](fubar_topology::Topology), a
//! [`TrafficMatrix`](fubar_traffic::TrafficMatrix) of flow aggregates,
//! and per-aggregate bandwidth×delay utility functions, the
//! [`Optimizer`] splits each aggregate across a small, iteratively-grown
//! set of policy-compliant paths so as to maximize total network
//! utility, eliminating congestion when capacity permits and diffusing
//! it when it doesn't.
//!
//! Module map (paper section in parentheses):
//!
//! * [`pathset`] / [`allocation`] — path sets and flow-to-path state (§2.4);
//! * [`pathgen`] — the global / local / link-local path generator (§2.4);
//! * [`optimizer`] — the greedy allocation loop with local-optimum
//!   escape (§2.5, Listings 1–2);
//! * [`objective`] — network utility vs. min-max utilization;
//! * [`baselines`] — shortest path, isolation upper bound, ECMP, CSPF,
//!   min-max search (§3 reference lines, §4 comparators);
//! * [`recorder`] — progress traces behind Figures 3–5;
//! * [`experiments`] — drivers for every figure in §3.
//!
//! ```
//! use fubar_core::{Optimizer, OptimizerConfig};
//! use fubar_topology::{generators, Bandwidth, Delay};
//! use fubar_traffic::{Aggregate, AggregateId, TrafficMatrix};
//! use fubar_utility::TrafficClass;
//!
//! // A ring with one heavy aggregate that does not fit its shortest path:
//! // 4 flows x 1 Mb/s demand vs 500 kb/s links. FUBAR splits it across
//! // both directions of the ring.
//! let topo = generators::ring(4, Bandwidth::from_kbps(500.0), Delay::from_ms(1.0));
//! let tm = TrafficMatrix::new(vec![Aggregate::new(
//!     AggregateId(0),
//!     topo.node("n0").unwrap(),
//!     topo.node("n2").unwrap(),
//!     TrafficClass::LargeFile { peak_mbps: 1.0 },
//!     4,
//! )]);
//! let result = Optimizer::with_defaults(&topo, &tm).run();
//! let initial = result.trace.initial().unwrap().network_utility;
//! assert!(result.report.network_utility > initial);
//! ```
#![forbid(unsafe_code)]

pub mod allocation;
pub mod analysis;
pub mod baselines;
pub mod experiments;
pub mod objective;
pub mod optimizer;
pub mod pathgen;
pub mod pathset;
pub mod recorder;
pub mod shard;

pub use allocation::{Allocation, Move};
pub use analysis::{certify_allocation, cut_certificates, CutCertificate};
pub use objective::Objective;
pub use optimizer::{OptimizeResult, Optimizer, OptimizerConfig, Termination};
pub use pathgen::PathPolicy;
pub use pathset::PathSet;
pub use recorder::{RunTrace, TracePoint};
pub use shard::{RegionPartition, ShardRunStats};
