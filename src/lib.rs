//! # fubar
//!
//! A complete Rust reproduction of **"FUBAR: Flow Utility Based
//! Routing"** (Nikola Gvozdiev, Brad Karp, Mark Handley — HotNets-XIII,
//! 2014): a centralized, offline traffic-engineering system that routes
//! *flow aggregates* over multiple paths so as to maximize total network
//! utility, where utility is a per-application function of **both
//! bandwidth and delay**.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`graph`] | directed graphs, Dijkstra with exclusions, Yen K-shortest |
//! | [`topology`] | POPs, capacitated duplex links, generators, text format |
//! | [`utility`] | bandwidth × delay utility functions (paper §2.2) |
//! | [`traffic`] | aggregates, traffic matrices, the §3 workload |
//! | [`model`] | the TCP-like progressive-filling flow model (§2.3) |
//! | [`core`] | the FUBAR optimizer, baselines, experiment drivers (§2.4–2.5) |
//! | [`sdn`] | simulated SDN deployment: fabric, measurement, controller |
//! | [`scenario`] | deterministic discrete-event scenarios: churn, failures, drift |
//!
//! ## Quickstart
//!
//! ```
//! use fubar::prelude::*;
//!
//! // The paper's provisioned scenario, scaled down: synthesized HE core
//! // topology with a seeded random traffic matrix.
//! let topo = fubar::topology::generators::abilene(Bandwidth::from_mbps(3.0));
//! let tm = fubar::traffic::workload::generate(
//!     &topo,
//!     &WorkloadConfig { include_intra_pop: false, flow_count: (2, 8), ..Default::default() },
//!     42,
//! );
//! let result = Optimizer::with_defaults(&topo, &tm).run();
//! let sp = result.trace.initial().unwrap().network_utility;
//! assert!(result.report.network_utility >= sp);
//! ```
#![forbid(unsafe_code)]

pub use fubar_core as core;
pub use fubar_graph as graph;
pub use fubar_model as model;
pub use fubar_scenario as scenario;
pub use fubar_sdn as sdn;
pub use fubar_topology as topology;
pub use fubar_traffic as traffic;
pub use fubar_utility as utility;

/// The most common imports, for examples and downstream users.
pub mod prelude {
    pub use fubar_core::{
        Allocation, Objective, OptimizeResult, Optimizer, OptimizerConfig, PathPolicy, Termination,
    };
    pub use fubar_graph::{LinkId, LinkSet, NodeId, Path};
    pub use fubar_model::{BundleSpec, FlowModel, UtilityReport};
    pub use fubar_scenario::{Scenario, ScenarioLog};
    pub use fubar_sdn::{Fabric, FubarController, RuleSet};
    pub use fubar_topology::{Bandwidth, Delay, Topology, TopologyBuilder};
    pub use fubar_traffic::{Aggregate, AggregateId, TrafficMatrix, WorkloadConfig};
    pub use fubar_utility::{TrafficClass, UtilityFunction};
}
