//! # fubar-sdn
//!
//! The deployment substrate the paper describes but defers (§2.1, §5):
//! FUBAR "will be separate from the SDN controller", working "offline to
//! periodically adjust the distribution of traffic on paths", with an
//! online component admitting flows to the computed paths.
//!
//! This crate simulates that environment so the control loop can be
//! exercised and failure-injected without hardware. Flows are not
//! admitted one by one: the fabric spreads each aggregate's traffic over
//! its installed paths by weight.
//!
//! * [`RuleSet`] — installed forwarding state: weighted path buckets per
//!   aggregate (OpenFlow group-table style);
//! * [`Fabric`] — the data plane: maps *true* (possibly drifted) traffic
//!   onto installed rules, enforces link failures with IGP-style
//!   fallback, evaluates the shared flow model, accumulates counters;
//! * [`Estimator`] — the measurement pipeline: noisy counters, EWMA
//!   smoothing, and demand-peak inference (paper §2.2);
//! * [`FubarController`] — one re-optimization: optimizer run on the
//!   failure-aware view, warm-started from the previously installed
//!   allocation so path sets carry across runs.
//!
//! Nothing here steps time: `fubar_scenario::Engine` drives a
//! [`Fabric`] through a run. One measure → optimize → install turn:
//!
//! ```
//! use fubar_sdn::{Fabric, FubarController};
//! use fubar_topology::{generators, Bandwidth, Delay};
//! use fubar_traffic::{workload, WorkloadConfig};
//!
//! let topo = generators::abilene(Bandwidth::from_mbps(2.0));
//! let tm = workload::generate(&topo, &WorkloadConfig {
//!     include_intra_pop: false,
//!     flow_count: (2, 6),
//!     ..Default::default()
//! }, 7);
//! let mut fabric = Fabric::new(topo, tm.clone(), Delay::from_secs(30.0));
//! let boot = fabric.peek().report.network_utility;
//! let r = FubarController::default().reoptimize(&fabric, &tm, None);
//! fabric.install(r.rules);
//! assert!(fabric.peek().report.network_utility >= boot);
//! ```
#![forbid(unsafe_code)]

mod controller;
mod fabric;
mod measurement;
mod rules;

pub use controller::{FubarController, Reoptimization};
pub use fabric::{AggregateCounter, EpochReport, Fabric};
pub use measurement::{AggregateEstimate, Estimator, MeasurementConfig};
pub use rules::{GroupEntry, RuleSet};
