//! The offline controller's one step: measure → optimize → install.
//!
//! The paper positions FUBAR as "an offline controller in SDN or MPLS
//! networks, in conjunction with an online controller to actually admit
//! flows to the paths that have been computed" (§5), working "offline to
//! periodically adjust the distribution of traffic on paths" (abstract).
//! [`FubarController::reoptimize`] is that adjustment: it runs the
//! `fubar-core` optimizer against an estimated matrix on the fabric's
//! failure-aware topology view and returns installable rules. It keeps
//! no clock — *when* it runs is the scenario engine's business
//! (`fubar_scenario::Engine`), the only code that steps a [`Fabric`]
//! through time. Each re-optimization **warm-starts** from the
//! previously installed allocation ([`Optimizer::run_from`]) so its
//! path sets — typically grown over many earlier runs — carry across
//! instead of being rediscovered from the shortest-path boot state
//! every time.

use crate::fabric::Fabric;
use crate::rules::RuleSet;
use fubar_core::{Allocation, Optimizer, OptimizerConfig, ShardRunStats};
use fubar_model::WorkspaceStats;
use fubar_traffic::TrafficMatrix;

/// The re-optimization controller.
pub struct FubarController {
    /// Optimizer configuration used on every re-optimization.
    pub optimizer: OptimizerConfig,
    /// Warm-start each run from the previously installed allocation
    /// (the default). When false every re-optimization cold-starts from
    /// shortest paths — the pre-warm-start behavior, kept for A/B
    /// comparisons and tests.
    pub warm_start: bool,
}

impl Default for FubarController {
    fn default() -> Self {
        FubarController {
            optimizer: OptimizerConfig::default(),
            warm_start: true,
        }
    }
}

/// What one controller run produced: the rules to install plus the
/// allocation to warm-start the next run from.
pub struct Reoptimization {
    /// Installable rule set for the fabric.
    pub rules: RuleSet,
    /// The allocation behind `rules` — feed it back as `previous` on
    /// the next call to carry path sets across runs.
    pub allocation: Allocation,
    /// Moves the optimizer committed (warm starts after small
    /// perturbations need far fewer than cold starts).
    pub commits: usize,
    /// Whether this run actually warm-started.
    pub warm: bool,
    /// High-water marks of the optimizer's per-candidate scoring
    /// scratch during this run (`fubar-cli scenario run --stats`).
    pub scratch: WorkspaceStats,
    /// Per-shard execution statistics of the run; the last entry is
    /// the trunk core.
    pub shards: Vec<ShardRunStats>,
}

impl FubarController {
    /// Runs the optimizer against the estimated matrix on the fabric's
    /// (failure-aware) topology view — warm-started from `previous`
    /// when [`FubarController::warm_start`] is set and a previous
    /// allocation exists — and returns installable rules plus the
    /// allocation to seed the next run.
    pub fn reoptimize(
        &self,
        fabric: &Fabric,
        estimated: &TrafficMatrix,
        previous: Option<&Allocation>,
    ) -> Reoptimization {
        let view = fabric.topology_view();
        let mut cfg = self.optimizer.clone();
        cfg.excluded_links = fabric.failed_links().clone();
        let optimizer = Optimizer::new(&view, estimated, cfg);
        let warm = self.warm_start && previous.is_some();
        let result = match previous {
            Some(prev) if warm => optimizer.run_from(prev),
            _ => optimizer.run(),
        };
        Reoptimization {
            rules: RuleSet::from_allocation(&result.allocation, estimated),
            allocation: result.allocation,
            commits: result.commits,
            warm,
            scratch: result.scratch,
            shards: result.shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fubar_graph::NodeId;
    use fubar_topology::{generators, Bandwidth, Delay};
    use fubar_traffic::{Aggregate, AggregateId};
    use fubar_utility::TrafficClass;

    fn small_fabric() -> Fabric {
        // A theta network: two disjoint 2-hop routes between n0 and n2.
        let topo = generators::ring(4, Bandwidth::from_kbps(800.0), Delay::from_ms(2.0));
        let tm = TrafficMatrix::new(vec![
            Aggregate::new(
                AggregateId(0),
                NodeId(0),
                NodeId(2),
                TrafficClass::BulkTransfer,
                10, // 1.2 Mb/s: needs both sides of the ring
            ),
            Aggregate::new(
                AggregateId(0),
                NodeId(1),
                NodeId(3),
                TrafficClass::RealTime,
                6,
            ),
        ]);
        Fabric::new(topo, tm, Delay::from_secs(10.0))
    }

    #[test]
    fn controller_improves_true_utility() {
        let mut fabric = small_fabric();
        let before = fabric.peek().report.network_utility; // shortest-path boot rules
        let tm = fabric.true_tm().clone();
        let r = FubarController::default().reoptimize(&fabric, &tm, None);
        assert!(!r.warm, "nothing to warm from");
        fabric.install(r.rules);
        let after = fabric.peek().report.network_utility;
        assert!(
            after > before,
            "controller should improve true utility: {before} -> {after}"
        );
    }
}
