//! The closed control loop: measure → optimize → install.
//!
//! The paper positions FUBAR as "an offline controller in SDN or MPLS
//! networks, in conjunction with an online controller to actually admit
//! flows to the paths that have been computed" (§5), working "offline to
//! periodically adjust the distribution of traffic on paths" (abstract).
//! [`ClosedLoop`] wires the simulated [`Fabric`], the noisy
//! [`Estimator`], and the `fubar-core` optimizer into exactly that loop,
//! with optional demand drift and link-failure injection. Each
//! re-optimization **warm-starts** from the previously installed
//! allocation ([`Optimizer::run_from`]) so its path sets — typically
//! grown over many earlier epochs — carry across epochs instead of being
//! rediscovered from the shortest-path boot state every time.

use crate::fabric::{EpochReport, Fabric};
use crate::measurement::{Estimator, MeasurementConfig};
use crate::rules::RuleSet;
use fubar_core::{Allocation, Optimizer, OptimizerConfig, ShardRunStats};
use fubar_graph::LinkId;
use fubar_model::WorkspaceStats;
use fubar_traffic::{Aggregate, TrafficMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The periodic re-optimization controller.
pub struct FubarController {
    /// Optimizer configuration used on every re-optimization.
    pub optimizer: OptimizerConfig,
    /// Re-optimize every this many epochs (≥ 1).
    pub reoptimize_every: usize,
    /// Epochs of measurement to accumulate before the first run.
    pub warmup_epochs: usize,
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
            reoptimize_every: 5,
            warmup_epochs: 2,
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
    /// the next call to carry path sets across epochs.
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

    /// Whether this epoch index triggers a re-optimization.
    pub fn should_run(&self, epoch: usize) -> bool {
        epoch >= self.warmup_epochs
            && (epoch - self.warmup_epochs).is_multiple_of(self.reoptimize_every)
    }
}

/// Random-walk demand drift: each epoch, every aggregate's flow count
/// moves by ±`max_step` (clamped to `[min_flows, max_flows]`).
#[derive(Clone, Debug)]
pub struct DriftConfig {
    /// Largest per-epoch change in flow count.
    pub max_step: u32,
    /// Lower clamp.
    pub min_flows: u32,
    /// Upper clamp.
    pub max_flows: u32,
}

/// One scheduled failure: fail `link` at `fail_epoch`, repair it at
/// `repair_epoch` (if any).
#[derive(Clone, Copy, Debug)]
pub struct FailureEvent {
    /// Epoch at which the link goes down.
    pub fail_epoch: usize,
    /// Epoch at which it comes back, if it does.
    pub repair_epoch: Option<usize>,
    /// The directed link id (its duplex pair fails too).
    pub link: LinkId,
}

/// Full closed-loop simulation configuration.
pub struct ClosedLoopConfig {
    /// Measurement pipeline settings.
    pub measurement: MeasurementConfig,
    /// Controller settings.
    pub controller: FubarController,
    /// Optional demand drift.
    pub drift: Option<DriftConfig>,
    /// Scheduled failures.
    pub failures: Vec<FailureEvent>,
    /// Controller blackout windows as half-open epoch ranges
    /// `[start, end)`: re-optimizations due inside a window are
    /// skipped (recorded via [`LoopRecord::skipped`]) and a catch-up
    /// run fires at the first epoch after the window if anything was
    /// suppressed.
    pub blackouts: Vec<(usize, usize)>,
    /// RNG seed for drift and measurement noise.
    pub seed: u64,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig {
            measurement: MeasurementConfig::default(),
            controller: FubarController::default(),
            drift: None,
            failures: Vec::new(),
            blackouts: Vec::new(),
            seed: 1,
        }
    }
}

/// One epoch's record in the closed-loop log.
#[derive(Clone, Debug)]
pub struct LoopRecord {
    /// The fabric's epoch report (true utilities, congestion).
    pub epoch: EpochReport<'static>,
    /// Whether the controller re-optimized after this epoch.
    pub reoptimized: bool,
    /// Moves the optimizer committed, when it ran this epoch.
    pub commits: Option<usize>,
    /// Whether the re-optimization warm-started from the previous
    /// allocation.
    pub warm: bool,
    /// A re-optimization was due this epoch but suppressed by a
    /// controller blackout window — the stale incumbent kept serving.
    pub skipped: bool,
    /// Links currently failed.
    pub failed_links: usize,
}

/// Drives a [`Fabric`] through `epochs` epochs under a controller.
pub struct ClosedLoop {
    fabric: Fabric,
    estimator: Estimator,
    config: ClosedLoopConfig,
    rng: StdRng,
    /// The last installed allocation — the warm-start seed carrying
    /// path sets across epochs.
    previous: Option<Allocation>,
    /// Per-shard statistics accumulated across every re-optimization
    /// (sums of work, maxes of peaks).
    shards: Vec<ShardRunStats>,
}

impl ClosedLoop {
    /// Builds the loop around an existing fabric.
    pub fn new(fabric: Fabric, config: ClosedLoopConfig) -> Self {
        let estimator = Estimator::new(
            fabric.true_tm().len(),
            config.measurement.clone(),
            config.seed ^ 0x5eed,
        );
        let rng = StdRng::seed_from_u64(config.seed);
        ClosedLoop {
            fabric,
            estimator,
            config,
            rng,
            previous: None,
            shards: Vec::new(),
        }
    }

    /// Access to the fabric (e.g. for assertions after running).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The last installed allocation, if the controller has run.
    pub fn previous_allocation(&self) -> Option<&Allocation> {
        self.previous.as_ref()
    }

    /// Per-shard optimizer statistics accumulated over every
    /// re-optimization so far (empty when the optimizer ran flat).
    pub fn shard_stats(&self) -> &[ShardRunStats] {
        &self.shards
    }

    fn apply_drift(&mut self) {
        let Some(drift) = self.config.drift.clone() else {
            return;
        };
        let tm = self.fabric.true_tm();
        let mut aggregates: Vec<Aggregate> = tm.iter().cloned().collect();
        for a in &mut aggregates {
            let step = self.rng.gen_range(0..=drift.max_step);
            let up = self.rng.gen::<bool>();
            let flows = if up {
                a.flow_count.saturating_add(step)
            } else {
                a.flow_count.saturating_sub(step)
            };
            a.flow_count = flows.clamp(drift.min_flows.max(1), drift.max_flows);
        }
        self.fabric.set_true_tm(TrafficMatrix::new(aggregates));
    }

    fn apply_failures(&mut self, epoch: usize) {
        // Collect first: failing mutates the fabric.
        let to_fail: Vec<LinkId> = self
            .config
            .failures
            .iter()
            .filter(|f| f.fail_epoch == epoch)
            .map(|f| f.link)
            .collect();
        let to_repair: Vec<LinkId> = self
            .config
            .failures
            .iter()
            .filter(|f| f.repair_epoch == Some(epoch))
            .map(|f| f.link)
            .collect();
        for l in to_fail {
            self.fabric.fail_link(l);
        }
        for l in to_repair {
            self.fabric.repair_link(l);
        }
    }

    /// Runs the loop for `epochs` epochs and returns the per-epoch log.
    pub fn run(&mut self, epochs: usize) -> Vec<LoopRecord> {
        let mut log = Vec::with_capacity(epochs);
        // A due-but-blacked-out run leaves a debt: the controller
        // catches up at the first epoch outside every window.
        let mut catchup_due = false;
        for epoch in 0..epochs {
            self.apply_failures(epoch);
            self.apply_drift();

            // Kept across the install below, so cloned out of the cache.
            let report = self.fabric.run_epoch().into_owned();
            self.estimator
                .observe(self.fabric.counters(), self.fabric.epoch_duration());

            let blacked_out = self
                .config
                .blackouts
                .iter()
                .any(|&(from, until)| epoch >= from && epoch < until);
            let due = self.config.controller.should_run(epoch);
            let skipped = due && blacked_out;
            if skipped {
                catchup_due = true;
            }
            let reoptimized = (due || catchup_due) && !blacked_out;
            if reoptimized {
                catchup_due = false;
            }
            let mut commits = None;
            let mut warm = false;
            if reoptimized {
                let estimated = self.estimator.estimated_matrix(self.fabric.true_tm());
                let r = self.config.controller.reoptimize(
                    &self.fabric,
                    &estimated,
                    self.previous.as_ref(),
                );
                self.fabric.install(r.rules);
                self.previous = Some(r.allocation);
                commits = Some(r.commits);
                warm = r.warm;
                fubar_core::shard::merge_shard_stats(&mut self.shards, &r.shards);
            }
            log.push(LoopRecord {
                epoch: report,
                reoptimized,
                commits,
                warm,
                skipped,
                failed_links: self.fabric.failed_links().len(),
            });
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fubar_graph::NodeId;
    use fubar_topology::{generators, Bandwidth, Delay};
    use fubar_traffic::AggregateId;
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
        let fabric = small_fabric();
        let cfg = ClosedLoopConfig {
            controller: FubarController {
                reoptimize_every: 100,
                warmup_epochs: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut looper = ClosedLoop::new(fabric, cfg);
        let log = looper.run(6);
        let before = log[1].epoch.report.network_utility; // pre-optimization
        let after = log[4].epoch.report.network_utility; // post-install
        assert!(log[2].reoptimized);
        assert!(
            after > before,
            "controller should improve true utility: {before} -> {after}"
        );
    }

    #[test]
    fn loop_survives_failure_and_recovers() {
        let fabric = small_fabric();
        // Find a link on the initial shortest path of aggregate 0.
        let link = fabric.rules().group(AggregateId(0)).unwrap().buckets[0]
            .0
            .links()[0];
        let cfg = ClosedLoopConfig {
            controller: FubarController {
                reoptimize_every: 2,
                warmup_epochs: 1,
                ..Default::default()
            },
            failures: vec![FailureEvent {
                fail_epoch: 3,
                repair_epoch: Some(7),
                link,
            }],
            ..Default::default()
        };
        let mut looper = ClosedLoop::new(fabric, cfg);
        let log = looper.run(9);
        assert_eq!(log[2].failed_links, 0);
        assert!(log[3].failed_links > 0, "failure applied");
        assert_eq!(log[8].failed_links, 0, "repair applied");
        // Traffic keeps flowing through the failure (fallback or
        // reoptimized routes).
        for r in &log {
            assert!(
                r.epoch.report.network_utility > 0.0,
                "epoch {}: network must not black-hole",
                r.epoch.epoch
            );
        }
    }

    #[test]
    fn drift_keeps_population_and_bounds() {
        let fabric = small_fabric();
        let cfg = ClosedLoopConfig {
            drift: Some(DriftConfig {
                max_step: 3,
                min_flows: 2,
                max_flows: 20,
            }),
            ..Default::default()
        };
        let mut looper = ClosedLoop::new(fabric, cfg);
        looper.run(10);
        let tm = looper.fabric().true_tm();
        assert_eq!(tm.len(), 2);
        for a in tm.iter() {
            assert!((2..=20).contains(&a.flow_count));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let fabric = small_fabric();
            let cfg = ClosedLoopConfig {
                seed,
                drift: Some(DriftConfig {
                    max_step: 2,
                    min_flows: 1,
                    max_flows: 30,
                }),
                ..Default::default()
            };
            let mut looper = ClosedLoop::new(fabric, cfg);
            looper
                .run(8)
                .iter()
                .map(|r| r.epoch.report.network_utility)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds should drift differently");
    }

    #[test]
    fn reoptimizations_warm_start_after_the_first() {
        let fabric = small_fabric();
        let cfg = ClosedLoopConfig {
            controller: FubarController {
                reoptimize_every: 2,
                warmup_epochs: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut looper = ClosedLoop::new(fabric, cfg);
        let log = looper.run(8);
        let reopts: Vec<&LoopRecord> = log.iter().filter(|r| r.reoptimized).collect();
        assert!(reopts.len() >= 3);
        assert!(!reopts[0].warm, "first run has nothing to warm from");
        assert!(reopts[0].commits.is_some());
        assert!(reopts[1..].iter().all(|r| r.warm), "later runs warm-start");
        assert!(looper.previous_allocation().is_some());
        // Steady state (no drift, no failures): warm-starting from the
        // previous optimum is a no-op re-optimization.
        let last = reopts.last().unwrap();
        assert_eq!(last.commits, Some(0), "steady state needs no moves");
    }

    #[test]
    fn warm_start_spends_no_more_commits_than_cold() {
        let run = |warm_start: bool| {
            let fabric = small_fabric();
            let cfg = ClosedLoopConfig {
                controller: FubarController {
                    reoptimize_every: 2,
                    warmup_epochs: 1,
                    warm_start,
                    ..Default::default()
                },
                drift: Some(DriftConfig {
                    max_step: 2,
                    min_flows: 2,
                    max_flows: 20,
                }),
                seed: 9,
                ..Default::default()
            };
            let mut looper = ClosedLoop::new(fabric, cfg);
            let log = looper.run(10);
            let commits: usize = log.iter().filter_map(|r| r.commits).sum();
            let utility: f64 = log
                .iter()
                .map(|r| r.epoch.report.network_utility)
                .sum::<f64>()
                / log.len() as f64;
            (commits, utility)
        };
        let (warm_commits, warm_u) = run(true);
        let (cold_commits, cold_u) = run(false);
        assert!(
            warm_commits <= cold_commits,
            "warm start must not work harder: {warm_commits} vs {cold_commits}"
        );
        assert!(
            warm_u >= cold_u - 0.01,
            "warm start must stay within 1% mean utility: {warm_u} vs {cold_u}"
        );
    }

    #[test]
    fn blackout_skips_due_runs_and_catches_up_on_wake() {
        let fabric = small_fabric();
        let cfg = ClosedLoopConfig {
            controller: FubarController {
                reoptimize_every: 2,
                warmup_epochs: 1,
                ..Default::default()
            },
            // Due epochs are 1, 3, 5, 7, 9; the window swallows 3 and 5.
            blackouts: vec![(3, 6)],
            ..Default::default()
        };
        let mut looper = ClosedLoop::new(fabric, cfg);
        let log = looper.run(10);
        assert!(log[1].reoptimized && !log[1].skipped);
        for (e, r) in log.iter().enumerate().take(6).skip(3) {
            assert!(!r.reoptimized, "epoch {e} is inside the blackout");
        }
        assert!(log[3].skipped && log[5].skipped, "due runs are recorded");
        assert!(!log[4].skipped, "epoch 4 was never due");
        assert!(
            log[6].reoptimized,
            "first epoch after the window catches up even though it is off-schedule"
        );
        assert!(log[7].reoptimized && log[9].reoptimized, "schedule resumes");
        // The stale incumbent kept serving: utility never NaNs or dies.
        for r in &log {
            assert!(r.epoch.report.network_utility.is_finite());
        }
    }

    #[test]
    fn should_run_schedule() {
        let c = FubarController {
            reoptimize_every: 3,
            warmup_epochs: 2,
            ..Default::default()
        };
        assert!(!c.should_run(0));
        assert!(!c.should_run(1));
        assert!(c.should_run(2));
        assert!(!c.should_run(3));
        assert!(c.should_run(5));
    }
}
