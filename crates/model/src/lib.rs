//! # fubar-model
//!
//! FUBAR's TCP-like traffic model (paper §2.3): a fast, deterministic
//! progressive-filling procedure that predicts how flow bundles share a
//! capacitated network, assuming congestion-controlled flows whose
//! throughput is inversely proportional to RTT.
//!
//! This model is "the building block of \[the\] optimization algorithm":
//! every candidate move the optimizer considers is scored by re-running
//! it. The implementation is event-driven (`O((B + Σ|path|) log B)`) so a
//! full 961-aggregate evaluation takes well under a millisecond.
//!
//! The model has no settings: [`FlowModel::with_defaults`] binds it to a
//! topology, every link fills to its full capacity (as in the paper's
//! evaluation), and round-trip times are floored at 1 ms so an intra-POP
//! bundle still gets a finite growth weight.
//!
//! * [`BundleSpec`] — flows of one aggregate pinned to one path;
//! * [`FlowModel::evaluate`] — run progressive filling, yielding a
//!   [`ModelOutcome`] (rates, loads, congestion report);
//! * [`utility_report`] — fold an outcome into per-aggregate and
//!   network-wide utilities (paper §3's "total average");
//! * [`Incumbent`] — the incremental path: a bundle table with its
//!   traced [`Evaluation`] and [`UtilityReport`], measured once
//!   ([`Incumbent::measure`]) and then patched **in place** after a
//!   small change ([`Incumbent::replace`]: one new segment per changed
//!   aggregate) by re-filling only the affected bottleneck component
//!   and re-folding only the affected aggregates, bitwise identical to
//!   a full recompute;
//! * [`FlowModel::score_delta`] / [`BundleDelta`] — the same core over a
//!   *spliced view* of the incumbent's table, so a caller scoring many
//!   one-segment candidate changes (the optimizer's inner loop) never
//!   materializes the candidates it rejects — and, after
//!   [`Incumbent::prepare_component`] has compiled the bottleneck
//!   component around the congested link they all move flows off, fills
//!   each one by patching that component instead of deriving its own.
#![forbid(unsafe_code)]

mod component;
mod engine;
mod incumbent;
mod outcome;
pub mod queueing;
mod report;
mod spec;
mod splice;

#[doc(hidden)]
pub use engine::border_load_bound;
pub use engine::{DeltaScore, Evaluation, FlowModel, ParallelWorkspace, Workspace, WorkspaceStats};
pub use incumbent::{Incumbent, PatchScratch};
pub use outcome::{ModelOutcome, UtilizationSummary};
pub use queueing::{queueing_report, QueueingReport};
pub use report::{
    score_network_utility_delta, score_network_utility_from_leaves, utility_report, ReportScratch,
    UtilityReport,
};
pub use spec::{BundleSpec, BundleStatus};
pub use splice::BundleDelta;
