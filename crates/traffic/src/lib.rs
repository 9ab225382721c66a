//! # fubar-traffic
//!
//! Traffic-matrix machinery for the FUBAR reproduction: aggregates (the
//! unit FUBAR routes — paper §2.4), the [`TrafficMatrix`] container, the
//! `.tm` text [`mod@format`], and a deterministic generator for the paper's
//! §3 evaluation workload.
//!
//! ```
//! use fubar_topology::{generators, Bandwidth};
//! use fubar_traffic::{workload, WorkloadConfig};
//!
//! let topo = generators::he_core(Bandwidth::from_mbps(100.0));
//! let tm = workload::generate(&topo, &WorkloadConfig::default(), 42);
//! assert_eq!(tm.len(), 961); // the paper's aggregate count
//! ```
#![forbid(unsafe_code)]

mod aggregate;
pub mod format;
mod matrix;
pub mod workload;

pub use aggregate::{Aggregate, AggregateId, MAX_PRIORITY_WEIGHT};
pub use matrix::TrafficMatrix;
pub use workload::WorkloadConfig;
