//! The bundled [`EventConsumer`]: a `fubar_sdn::Fabric` data plane, the
//! noisy measurement pipeline, and a periodically re-optimizing FUBAR
//! controller with **warm start** — each re-optimization seeds from the
//! previous allocation (`Optimizer::run_from`), so tracking a small
//! perturbation costs a handful of commits instead of a full run.
//!
//! [`build`] turns a declarative [`Scenario`] into a ready
//! [`Engine`]; [`run`] goes all the way to a [`ScenarioLog`] plus the
//! run's [`RunStats`]. [`RunOptions`] is everything a caller can vary
//! without changing a byte of that log.

use crate::engine::{Engine, EventConsumer, Measure};
use crate::event::{Event, EventKind};
use crate::log::ScenarioLog;
use crate::spec::{Action, ChaosSpec, Scenario, TopologySpec};
use crate::stats::RunStats;
use crate::stochastic::{ChurnSource, FailureSource};
use fubar_core::{Allocation, ShardRunStats};
use fubar_graph::LinkId;
use fubar_model::WorkspaceStats;
use fubar_sdn::{Estimator, Fabric, FubarController, GroupEntry, MeasurementConfig};
use fubar_topology::{catalog as topo_catalog, format as topo_format, generators, Delay, Topology};
use fubar_traffic::{workload, AggregateId, TrafficMatrix, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Runtime state behind the scenario's [`ChaosSpec`]. All of it is
/// deterministic: the drop coin has its own directive-declared seed,
/// staleness snapshots are taken at epoch boundaries without touching
/// any RNG, and blackout checks are pure interval tests — so chaos
/// leaves the churn/failure/measurement draw sequences untouched and a
/// chaos run shares its event stream with the equivalent clean run.
#[derive(Default)]
struct ChaosState {
    spec: ChaosSpec,
    /// Seeded coin for `install drop` (one draw per install, in
    /// install order).
    drop_rng: Option<StdRng>,
    /// Estimator snapshots for `measure stale`: `(taken-at, matrix)`,
    /// oldest first. The boot snapshot at t=0 backstops early runs.
    snapshots: Vec<(Delay, TrafficMatrix)>,
    /// Follow-up events (staged install commits/drops) handed to the
    /// engine after the current event.
    followups: Vec<(Delay, EventKind)>,
}

/// The fabric-driving consumer.
pub struct SdnConsumer {
    fabric: Fabric,
    estimator: Estimator,
    /// The re-optimization mechanics (optimizer config, warm-start
    /// gating); the event engine drives the cadence.
    controller: FubarController,
    previous: Option<Allocation>,
    /// Baseline flow counts from the generated workload (zeroed while
    /// an aggregate has departed, so stochastic churn leaves it alone).
    baseline: Vec<u32>,
    /// Active surge factor per aggregate (1.0 = baseline).
    surge: Vec<f64>,
    /// High-water marks of the optimizer scoring scratch across every
    /// re-optimization so far (`scenario run --stats`).
    scratch: WorkspaceStats,
    /// Per-shard accumulators across every re-optimization —
    /// `scenario run --stats`.
    shards: Vec<ShardRunStats>,
    /// Control-plane fault injection (inert unless the scenario has
    /// chaos directives).
    chaos: ChaosState,
}

impl SdnConsumer {
    /// Builds the consumer around a fabric whose matrix is the scenario
    /// baseline.
    pub fn new(fabric: Fabric, measurement_seed: u64, warm_start: bool) -> Self {
        let n = fabric.true_tm().len();
        let baseline: Vec<u32> = fabric.true_tm().iter().map(|a| a.flow_count).collect();
        let estimator = Estimator::new(n, MeasurementConfig::default(), measurement_seed);
        SdnConsumer {
            fabric,
            estimator,
            controller: FubarController {
                warm_start,
                ..Default::default()
            },
            previous: None,
            baseline,
            surge: vec![1.0; n],
            scratch: WorkspaceStats::default(),
            shards: Vec::new(),
            chaos: ChaosState::default(),
        }
    }

    /// Arms the consumer's control-plane fault injection. Must run
    /// before the first event: the `measure stale` boot snapshot is
    /// taken here, and the drop coin is seeded from the directive's own
    /// seed so it never perturbs the run's other draw sequences.
    pub fn set_chaos(&mut self, spec: ChaosSpec) {
        self.chaos.drop_rng = spec
            .install_drop
            .map(|(_, seed)| StdRng::seed_from_u64(seed));
        if spec.measure_stale.is_some() {
            let boot = self.estimator.estimated_matrix(self.fabric.true_tm());
            self.chaos.snapshots.push((Delay::ZERO, boot));
        }
        self.chaos.spec = spec;
    }

    /// Peak optimizer scoring-scratch sizes across the run's
    /// re-optimizations.
    pub fn scratch_stats(&self) -> WorkspaceStats {
        self.scratch
    }

    /// Per-shard commit/score/fill accumulators across the run's
    /// re-optimizations. The last entry is the inter-region trunk core.
    pub fn shard_stats(&self) -> &[ShardRunStats] {
        &self.shards
    }

    /// The log record of the fabric's current state: the two scalars
    /// read off its (borrowed) measurement — a [`Fabric::run_epoch`]
    /// when `close_epoch`, else a [`Fabric::peek`] — plus the live
    /// totals.
    fn measure(&mut self, close_epoch: bool) -> Measure {
        let live_flows = self.fabric.true_tm().total_flows();
        let failed_links = self.fabric.failed_links().len();
        let report = if close_epoch {
            self.fabric.run_epoch()
        } else {
            self.fabric.peek()
        };
        Measure {
            utility: report.report.network_utility,
            congested_links: report.outcome.congested.len(),
            live_flows,
            failed_links,
            commits: None,
            warm: false,
        }
    }

    fn reoptimize(&mut self, now: Delay) -> (usize, bool) {
        let estimated = match self.chaos.spec.measure_stale {
            // The controller sees the newest snapshot at least `d` old;
            // the boot snapshot backstops runs before the first one
            // ages enough. Older snapshots are pruned as they expire.
            Some(d) => {
                let idx = (0..self.chaos.snapshots.len())
                    .rev()
                    .find(|&i| self.chaos.snapshots[i].0 + d <= now)
                    .unwrap_or(0);
                self.chaos.snapshots.drain(..idx);
                self.chaos.snapshots[0].1.clone()
            }
            None => self.estimator.estimated_matrix(self.fabric.true_tm()),
        };
        let r = self
            .controller
            .reoptimize(&self.fabric, &estimated, self.previous.as_ref());
        if self.chaos.spec.install_delay.is_some() || self.chaos.spec.install_drop.is_some() {
            // Asynchronous install: stage the rules and let a follow-up
            // event commit (or drop) them after the configured latency.
            // The previous group keeps serving until then.
            let dropped = match (self.chaos.spec.install_drop, self.chaos.drop_rng.as_mut()) {
                (Some((p, _)), Some(rng)) => rng.gen::<f64>() < p,
                _ => false,
            };
            let latency = self.chaos.spec.install_delay.unwrap_or(Delay::ZERO);
            let ticket = self.fabric.stage(r.rules);
            let kind = if dropped {
                EventKind::InstallDrop { ticket }
            } else {
                EventKind::InstallCommit { ticket }
            };
            self.chaos.followups.push((now + latency, kind));
        } else {
            self.fabric.install(r.rules);
        }
        // The warm-start seed advances even when the install is in
        // flight or lost: the controller planned from this allocation,
        // and the allocation/rules split tolerates the divergence.
        self.previous = Some(r.allocation);
        self.scratch.merge(&r.scratch);
        fubar_core::shard::merge_shard_stats(&mut self.shards, &r.shards);
        (r.commits, r.warm)
    }

    fn pair_name(&self, aggregate: AggregateId) -> String {
        let a = self.fabric.true_tm().aggregate(aggregate);
        let t = self.fabric.topology();
        format!("{}->{}", t.node_name(a.ingress), t.node_name(a.egress))
    }

    fn link_name(&self, link: LinkId) -> String {
        let t = self.fabric.topology();
        let l = t.graph().link(link);
        format!("{}-{}", t.node_name(l.src), t.node_name(l.dst))
    }
}

impl EventConsumer for SdnConsumer {
    fn on_event(&mut self, event: &Event) -> Measure {
        match &event.kind {
            // Flow churn and surges target *live* aggregates; a
            // departed pair (baseline parked at zero by
            // `AggregateDeparture`) stays idle until an explicit
            // `arrive`. The guard matters because churn windows are
            // sampled an epoch ahead: arrivals queued before a
            // mid-window depart must not resurrect the pair, and a
            // surge's 1-flow floor must not either.
            EventKind::FlowArrival { aggregate, count } => {
                if self.baseline[aggregate.index()] > 0 {
                    let now = self.fabric.flow_count(*aggregate);
                    self.fabric
                        .set_flow_count(*aggregate, now.saturating_add(*count));
                }
            }
            EventKind::FlowDeparture { aggregate, count } => {
                if self.baseline[aggregate.index()] > 0 {
                    let now = self.fabric.flow_count(*aggregate);
                    self.fabric
                        .set_flow_count(*aggregate, now.saturating_sub(*count));
                }
            }
            EventKind::LinkFailure { link } => self.fabric.fail_link(*link),
            EventKind::LinkRecovery { link } => self.fabric.repair_link(*link),
            EventKind::CapacityChange { link, capacity } => {
                self.fabric.set_capacity(*link, *capacity)
            }
            EventKind::Surge { aggregate, factor } => {
                self.surge[aggregate.index()] = *factor;
                if self.baseline[aggregate.index()] > 0 {
                    let target =
                        (f64::from(self.baseline[aggregate.index()]) * factor).round() as u32;
                    self.fabric.set_flow_count(*aggregate, target.max(1));
                }
            }
            EventKind::Relax { aggregate } => {
                self.surge[aggregate.index()] = 1.0;
                self.fabric
                    .set_flow_count(*aggregate, self.baseline[aggregate.index()]);
            }
            EventKind::AggregateArrival { aggregate, flows } => {
                // Aggregate-level (re)admission: the new population
                // becomes the churn baseline, and the data plane gets a
                // single-aggregate rule update (`set_group`) pointing at
                // the live shortest path — the controller re-plans it
                // properly at the next re-optimization.
                self.surge[aggregate.index()] = 1.0;
                self.baseline[aggregate.index()] = *flows;
                self.fabric.set_flow_count(*aggregate, *flows);
                let a = self.fabric.true_tm().aggregate(*aggregate);
                let (ingress, egress) = (a.ingress, a.egress);
                let path = self.fabric.topology().graph().shortest_path(
                    ingress,
                    egress,
                    self.fabric.failed_links(),
                );
                match path {
                    Some(p) => self
                        .fabric
                        .set_group(*aggregate, GroupEntry::single(p, *flows)),
                    // Partitioned: leave the group empty; the fabric
                    // black-holes the traffic exactly as a full install
                    // would.
                    None => self.fabric.clear_group(*aggregate),
                }
            }
            EventKind::AggregateDeparture { aggregate } => {
                // Aggregate-level departure: clear the installed group
                // (`clear_group`) and park the pair idle; zero baseline
                // stops the stochastic churn from resurrecting it.
                self.surge[aggregate.index()] = 1.0;
                self.baseline[aggregate.index()] = 0;
                self.fabric.set_flow_count(*aggregate, 0);
                self.fabric.clear_group(*aggregate);
            }
            EventKind::Reoptimize => {
                if self.chaos.spec.in_blackout(event.time) {
                    // Controller blackout: the run is suppressed — no
                    // optimizer call, no RNG draws — and the stale
                    // incumbent keeps serving. `commits` stays None, so
                    // the log line is visibly a skip.
                    return self.measure(false);
                }
                let (commits, warm) = self.reoptimize(event.time);
                let mut m = self.measure(false);
                m.commits = Some(commits);
                m.warm = warm;
                return m;
            }
            EventKind::InstallCommit { ticket } => {
                self.fabric.commit_staged(*ticket);
            }
            EventKind::InstallDrop { ticket } => {
                self.fabric.discard_staged(*ticket);
            }
            EventKind::MeasurementEpoch => {
                // One measurement serves everything: `run_epoch` reuses
                // the evaluation cached by the preceding event's peek
                // (the flow model used to be re-run here even when
                // nothing had changed), the counters feed the estimator,
                // and the same report becomes the log record.
                let m = self.measure(true);
                self.estimator
                    .observe(self.fabric.counters(), self.fabric.epoch_duration());
                if self.chaos.spec.measure_stale.is_some() {
                    // Snapshot for `measure stale`; `estimated_matrix`
                    // draws no randomness, so this cannot perturb the
                    // run's other sequences.
                    let snap = self.estimator.estimated_matrix(self.fabric.true_tm());
                    self.chaos.snapshots.push((event.time, snap));
                }
                return m;
            }
        }
        self.measure(false)
    }

    fn describe(&self, event: &Event) -> String {
        match &event.kind {
            EventKind::FlowArrival { aggregate, count } => {
                format!("arrive {} +{}", self.pair_name(*aggregate), count)
            }
            EventKind::FlowDeparture { aggregate, count } => {
                format!("depart {} -{}", self.pair_name(*aggregate), count)
            }
            EventKind::LinkFailure { link } => format!("fail {}", self.link_name(*link)),
            EventKind::LinkRecovery { link } => format!("repair {}", self.link_name(*link)),
            EventKind::CapacityChange { link, capacity } => {
                format!("capacity {} {}bps", self.link_name(*link), capacity.bps())
            }
            EventKind::Surge { aggregate, factor } => {
                format!("surge {} x{}", self.pair_name(*aggregate), factor)
            }
            EventKind::Relax { aggregate } => format!("relax {}", self.pair_name(*aggregate)),
            EventKind::AggregateArrival { aggregate, flows } => {
                format!("agg-arrive {} ={}", self.pair_name(*aggregate), flows)
            }
            EventKind::AggregateDeparture { aggregate } => {
                format!("agg-depart {}", self.pair_name(*aggregate))
            }
            EventKind::Reoptimize if self.chaos.spec.in_blackout(event.time) => {
                "reoptimize skipped (blackout)".to_string()
            }
            EventKind::Reoptimize => "reoptimize".to_string(),
            EventKind::InstallCommit { ticket } => format!("install commit #{ticket}"),
            EventKind::InstallDrop { ticket } => format!("install dropped #{ticket}"),
            EventKind::MeasurementEpoch => format!("epoch {}", self.fabric.epochs_run()),
        }
    }

    fn take_followups(&mut self) -> Vec<(Delay, EventKind)> {
        std::mem::take(&mut self.chaos.followups)
    }

    fn aggregate_count(&self) -> usize {
        self.fabric.true_tm().len()
    }

    fn flow_count(&self, aggregate: AggregateId) -> u32 {
        self.fabric.flow_count(aggregate)
    }

    fn churn_target(&self, aggregate: AggregateId) -> f64 {
        f64::from(self.baseline[aggregate.index()]) * self.surge[aggregate.index()]
    }

    fn healthy_duplex_links(&self) -> Vec<LinkId> {
        let t = self.fabric.topology();
        let down = self.fabric.failed_links();
        t.links()
            .filter(|&l| {
                !down.contains(l) && t.reverse_of(l).is_some_and(|r| r.index() > l.index())
            })
            .collect()
    }
}

/// A scenario that does not resolve against its own topology (or whose
/// topology file cannot be loaded). When the failure is attributable to
/// a specific `.scn` line — an unknown node name in a timeline event —
/// the message carries it, `ParseError`-style.
#[derive(Clone, Debug, PartialEq)]
pub struct BuildError(pub String);

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BuildError {}

/// Prefixes a resolution failure with the `.scn` line it came from
/// (line 0 marks programmatically built events, which have no source).
fn at_line(line: usize, e: BuildError) -> BuildError {
    if line == 0 {
        e
    } else {
        BuildError(format!("scenario line {line}: {}", e.0))
    }
}

/// Loads the topology a `topology file <path>` directive names.
/// Resolution order: `base`-relative (the `.scn` file's directory),
/// then the path as given (working directory), then the bundled
/// `fubar_topology::catalog` by file stem — so committed catalog
/// scenarios referencing `topologies/*.topo` run from anywhere, and an
/// on-disk file always wins over the embedded copy.
pub fn load_file_topology(path: &str, base: Option<&Path>) -> Result<Topology, BuildError> {
    let candidates = [base.map(|b| b.join(path)), Some(path.into())];
    for candidate in candidates.into_iter().flatten() {
        if candidate.is_file() {
            let text = std::fs::read_to_string(&candidate)
                .map_err(|e| BuildError(format!("{}: {e}", candidate.display())))?;
            return topo_format::parse(&text)
                .map_err(|e| BuildError(format!("{}: {e}", candidate.display())));
        }
    }
    if let Some(text) = topo_catalog::find(path) {
        return topo_format::parse(text)
            .map_err(|e| BuildError(format!("bundled topology {path}: {e}")));
    }
    Err(BuildError(format!(
        "topology file {path:?} not found (tried the scenario directory, the working \
         directory, and the bundled catalog: {})",
        topo_catalog::names().join(", ")
    )))
}

fn build_topology(spec: &TopologySpec, base: Option<&Path>) -> Result<Topology, BuildError> {
    Ok(match spec {
        TopologySpec::He { capacity } => generators::he_core(*capacity),
        TopologySpec::Abilene { capacity } => generators::abilene(*capacity),
        TopologySpec::Ring {
            nodes,
            capacity,
            hop_delay,
        } => generators::ring(*nodes, *capacity, *hop_delay),
        TopologySpec::Hypergrowth { capacity } => generators::hypergrowth(8, 8, *capacity),
        TopologySpec::Planetary { capacity } => generators::planetary(16, 16, *capacity),
        TopologySpec::File { path } => load_file_topology(path, base)?,
    })
}

fn duplex_between(topo: &Topology, a: &str, b: &str) -> Result<LinkId, BuildError> {
    let na = topo.node(a).map_err(|e| BuildError(e.to_string()))?;
    let nb = topo.node(b).map_err(|e| BuildError(e.to_string()))?;
    topo.graph()
        .find_link(na, nb)
        .ok_or_else(|| BuildError(format!("no link between {a:?} and {b:?}")))
}

fn aggregates_on(
    tm: &fubar_traffic::TrafficMatrix,
    topo: &Topology,
    src: &str,
    dst: &str,
) -> Result<Vec<AggregateId>, BuildError> {
    let s = topo.node(src).map_err(|e| BuildError(e.to_string()))?;
    let d = topo.node(dst).map_err(|e| BuildError(e.to_string()))?;
    let ids = tm.for_pair(s, d).to_vec();
    if ids.is_empty() {
        return Err(BuildError(format!("no aggregate flows {src} -> {dst}")));
    }
    Ok(ids)
}

/// The concrete `(topology, traffic matrix)` a scenario resolves to for
/// one seed — exposed so tests and tools can probe the same inputs the
/// engine runs on. File topologies resolve as in [`inputs_at`] with no
/// scenario directory.
pub fn inputs(
    scenario: &Scenario,
    seed: u64,
) -> Result<(Topology, fubar_traffic::TrafficMatrix), BuildError> {
    inputs_at(scenario, seed, None)
}

/// Like [`inputs`], resolving `topology file` paths relative to `base`
/// (the directory the `.scn` file was loaded from) before the working
/// directory and the bundled catalog.
pub fn inputs_at(
    scenario: &Scenario,
    seed: u64,
    base: Option<&Path>,
) -> Result<(Topology, fubar_traffic::TrafficMatrix), BuildError> {
    let topo = build_topology(&scenario.topology, base)?;
    let (lo, hi) = scenario.workload.flows;
    let mut tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: scenario.workload.intra_pop,
            intra_region_only: scenario.workload.intra_region_only,
            flow_count: (lo, hi),
            large_probability: scenario.workload.large_probability,
            large_flow_count: (lo, hi.max(lo.saturating_add(1))),
        },
        seed,
    );
    if let Some(w) = scenario.large_priority {
        tm = tm.with_large_priority(w);
    }
    Ok((topo, tm))
}

/// How a scenario is run — nothing here changes a byte of the log for
/// a given `(spec, seed)`: full-recompute runs are bitwise equal to
/// incremental ones, an invariant the property tests and the CI
/// catalog replay `cmp` end to end.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Directory `topology file` paths resolve against first (the
    /// `.scn` file's directory); see [`load_file_topology`].
    pub base: Option<PathBuf>,
    /// Full-recompute mode for *both* hot paths: fabric measurement
    /// (every probe re-measures the world) and optimizer candidate
    /// scoring (`OptimizerConfig::incremental = false`) — the oracle
    /// the equality property tests and the CI cross-mode `cmp` compare
    /// the default incremental run against.
    pub full_recompute: bool,
}

/// Builds the engine for `scenario` under the default [`RunOptions`],
/// overriding its default seed with `seed`. Everything downstream
/// (workload, measurement noise, churn, failures) derives
/// deterministically from that one number.
pub fn build(scenario: &Scenario, seed: u64) -> Result<Engine<SdnConsumer>, BuildError> {
    build_with(scenario, seed, &RunOptions::default())
}

/// Like [`build`], under explicit [`RunOptions`]. The timeline is
/// validated eagerly here, as soon as the topology is known — unknown
/// `surge` / `fail` / `arrive` / `depart` endpoints fail the build with
/// the offending `.scn` line number instead of an opaque late failure.
pub fn build_with(
    scenario: &Scenario,
    seed: u64,
    options: &RunOptions,
) -> Result<Engine<SdnConsumer>, BuildError> {
    let (topo, tm) = inputs_at(scenario, seed, options.base.as_deref())?;

    // Resolve the timeline against the concrete topology and matrix
    // before anything is consumed by the fabric.
    let mut timeline: Vec<(Delay, EventKind)> = Vec::new();
    for e in &scenario.timeline {
        let line = e.line;
        match &e.action {
            Action::Fail { a, b } => timeline.push((
                e.at,
                EventKind::LinkFailure {
                    link: duplex_between(&topo, a, b).map_err(|err| at_line(line, err))?,
                },
            )),
            Action::Repair { a, b } => timeline.push((
                e.at,
                EventKind::LinkRecovery {
                    link: duplex_between(&topo, a, b).map_err(|err| at_line(line, err))?,
                },
            )),
            Action::Capacity { a, b, capacity } => timeline.push((
                e.at,
                EventKind::CapacityChange {
                    link: duplex_between(&topo, a, b).map_err(|err| at_line(line, err))?,
                    capacity: *capacity,
                },
            )),
            Action::Surge { src, dst, factor } => {
                for id in aggregates_on(&tm, &topo, src, dst).map_err(|err| at_line(line, err))? {
                    timeline.push((
                        e.at,
                        EventKind::Surge {
                            aggregate: id,
                            factor: *factor,
                        },
                    ));
                }
            }
            Action::Relax { src, dst } => {
                for id in aggregates_on(&tm, &topo, src, dst).map_err(|err| at_line(line, err))? {
                    timeline.push((e.at, EventKind::Relax { aggregate: id }));
                }
            }
            Action::Arrive { src, dst, flows } => {
                for id in aggregates_on(&tm, &topo, src, dst).map_err(|err| at_line(line, err))? {
                    timeline.push((
                        e.at,
                        EventKind::AggregateArrival {
                            aggregate: id,
                            flows: *flows,
                        },
                    ));
                }
            }
            Action::Depart { src, dst } => {
                for id in aggregates_on(&tm, &topo, src, dst).map_err(|err| at_line(line, err))? {
                    timeline.push((e.at, EventKind::AggregateDeparture { aggregate: id }));
                }
            }
            Action::Reoptimize => timeline.push((e.at, EventKind::Reoptimize)),
        }
    }

    // Controller blackout wake-ups: if a window swallows any scheduled
    // or timeline re-optimization, a catch-up run is appended at the
    // window's end so the controller recovers as soon as it is back —
    // unless a re-optimization already fires exactly then, or the end
    // itself sits inside another (overlapping) window.
    let mut reopt_times: Vec<Delay> = {
        let mut times = Vec::new();
        let mut t = scenario.reoptimize.warmup;
        while t <= scenario.duration {
            times.push(t);
            t += scenario.reoptimize.every;
        }
        times.extend(
            timeline
                .iter()
                .filter(|(_, k)| matches!(k, EventKind::Reoptimize))
                .map(|&(at, _)| at),
        );
        times
    };
    for &(from, until) in &scenario.chaos.blackouts {
        let suppressed = reopt_times.iter().any(|&t| t >= from && t < until);
        let already = reopt_times.contains(&until);
        if suppressed
            && !already
            && until <= scenario.duration
            && !scenario.chaos.in_blackout(until)
        {
            timeline.push((until, EventKind::Reoptimize));
            reopt_times.push(until);
        }
    }

    let mut fabric = Fabric::new(topo, tm, scenario.epoch);
    fabric.set_incremental(!options.full_recompute);
    let mut consumer = SdnConsumer::new(fabric, seed ^ 0x5eed, scenario.reoptimize.warm_start);
    // Oracle mode covers *both* incremental hot paths: full-recompute
    // fabric measurement and full-recompute candidate scoring in the
    // optimizer — a cross-mode log `cmp` therefore checks the whole
    // stack of bitwise-equality invariants end to end.
    consumer.controller.optimizer.incremental = !options.full_recompute;
    // The anytime budget is a move-count deadline — the one optimizer
    // deadline that is bit-identical at any thread count — mapped
    // straight onto `OptimizerConfig::max_commits`.
    if let Some(budget) = scenario.chaos.optimize_budget {
        consumer.controller.optimizer.max_commits = budget;
    }
    consumer.set_chaos(scenario.chaos.clone());

    let churn = (scenario.arrivals.is_some() || scenario.departures.is_some()).then(|| {
        ChurnSource::new(
            seed,
            scenario.arrivals.clone(),
            scenario.departures.clone(),
            scenario.diurnal.clone(),
        )
    });
    let failures = scenario
        .failures
        .clone()
        .map(|spec| FailureSource::new(seed, spec));

    Ok(Engine::new(
        consumer,
        scenario.duration,
        scenario.epoch,
        Some((scenario.reoptimize.warmup, scenario.reoptimize.every)),
        timeline,
        churn,
        failures,
    ))
}

/// Runs `scenario` end to end with `seed` and returns the log with the
/// run's performance statistics: per-event measurement and
/// re-optimization timing percentiles, the optimizer's peak scratch
/// sizes, and per-shard commit counts and score timings (the last
/// entry is the inter-region trunk core) — what `fubar-cli scenario run
/// --stats` prints. Wall-clock numbers never enter the log.
pub fn run(
    scenario: &Scenario,
    seed: u64,
    options: &RunOptions,
) -> Result<(ScenarioLog, RunStats), BuildError> {
    let engine = build_with(scenario, seed, options)?;
    let (log, mut stats, consumer) = engine.run_instrumented(&scenario.name, seed);
    stats.scratch = consumer.scratch_stats();
    stats.shards = consumer.shard_stats().to_vec();
    Ok((log, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;

    fn log_of(spec: &Scenario, seed: u64) -> ScenarioLog {
        run(spec, seed, &RunOptions::default()).unwrap().0
    }

    fn full_log_of(spec: &Scenario, seed: u64) -> ScenarioLog {
        let full = RunOptions {
            full_recompute: true,
            ..Default::default()
        };
        run(spec, seed, &full).unwrap().0
    }

    fn ring_spec(extra: &str) -> Scenario {
        Scenario::parse(&format!(
            "scenario ring_test\n\
             topology ring 5 600kbps 2ms\n\
             duration 100s\n\
             epoch 10s\n\
             workload flows 2 5\n\
             reoptimize every 30s warmup 15s\n\
             {extra}"
        ))
        .unwrap()
    }

    #[test]
    fn widest_flow_range_builds_inputs() {
        // The large-flow range widens the baseline one by a flow; at the
        // top of `u32` that must saturate, not overflow.
        let spec = Scenario::parse("scenario w\nworkload flows 4294967295 4294967295\n").unwrap();
        let (_, tm) = inputs(&spec, 1).unwrap();
        assert!(!tm.is_empty() && tm.iter().all(|a| a.flow_count == u32::MAX));
    }

    /// Departures at `u32::MAX`-scale flow counts: the sampler's cost
    /// does not grow with the live count, so a spec that once drew one
    /// uniform per flow per epoch (minutes of CPU) runs to its end, and
    /// flows do leave.
    #[test]
    fn departures_at_the_top_of_u32_run_to_completion() {
        let spec = Scenario::parse(
            "scenario big_departures\n\
             topology ring 5 2Mbps 1ms\n\
             duration 100s\n\
             epoch 10s\n\
             workload flows 1 4294967295\n\
             reoptimize every 30s warmup 15s\n\
             departures prob 0.1\n",
        )
        .unwrap();
        let text = log_of(&spec, 1).to_text();
        assert!(
            text.contains("epoch 9"),
            "the run must reach its last epoch"
        );
        assert!(text.contains("depart "), "flows must depart");
    }

    /// A Weibull draw past every representable time — a tiny shape, or
    /// a scale near `f64::MAX` — is a failure or repair that does not
    /// come within the run. The first spec draws one at any seed, the
    /// second at seeds 6, 7 and 8; each run reaches its last epoch with
    /// no infinite time in its log.
    #[test]
    fn weibull_draws_past_every_representable_time_are_not_within_the_run() {
        for failures in [
            "failures shape 0.001 scale 1ms repair-shape 0.001 repair-scale 1ms",
            "failures shape 1 scale 1e308s repair-shape 1 repair-scale 1s",
        ] {
            let spec = Scenario::parse(&format!(
                "scenario weibull_overflow\n\
                 topology ring 4 1Mbps 1ms\n\
                 duration 60s\n\
                 epoch 10s\n\
                 {failures}\n"
            ))
            .unwrap();
            for seed in 0..10 {
                let text = log_of(&spec, seed).to_text();
                assert!(text.contains("epoch 5"), "{failures} seed {seed}");
                assert!(!text.contains("inf"), "{failures} seed {seed}");
            }
        }
    }

    #[test]
    fn same_seed_is_byte_identical_different_seed_is_not() {
        let spec = ring_spec("arrivals rate 0.2 max-flows 30\ndepartures prob 0.2\n");
        let a = log_of(&spec, 7).to_text();
        let b = log_of(&spec, 7).to_text();
        assert_eq!(a, b);
        let c = log_of(&spec, 8).to_text();
        assert_ne!(a, c);
    }

    #[test]
    fn timeline_failure_is_applied_and_survived() {
        let spec = ring_spec("at 25s fail n0 n1\nat 55s repair n0 n1\n");
        let log = log_of(&spec, 3);
        let fail = log.records.iter().find(|r| r.what.starts_with("fail"));
        let repair = log.records.iter().find(|r| r.what.starts_with("repair"));
        assert!(fail.is_some() && repair.is_some());
        assert_eq!(fail.unwrap().failed_links, 2, "duplex pair counts as 2");
        assert_eq!(repair.unwrap().failed_links, 0);
        for r in &log.records {
            assert!(r.utility > 0.0, "ring survives one cut: {}", r.to_line());
        }
    }

    #[test]
    fn surge_and_relax_move_the_population() {
        let spec = ring_spec("at 20s surge n0 n2 x4\nat 60s relax n0 n2\n");
        let log = log_of(&spec, 5);
        let surged = log
            .records
            .iter()
            .find(|r| r.what.starts_with("surge"))
            .unwrap();
        let before = log.records.first().unwrap().live_flows;
        assert!(
            surged.live_flows > before,
            "{} vs {}",
            surged.live_flows,
            before
        );
        let relaxed = log
            .records
            .iter()
            .find(|r| r.what.starts_with("relax"))
            .unwrap();
        assert_eq!(relaxed.live_flows, before);
    }

    /// A finite but absurd surge saturates the flow count at `u32::MAX`;
    /// a churn arrival on top of it must stay there, not overflow.
    #[test]
    fn flow_arrival_after_a_saturating_surge_stays_saturated() {
        let mut engine = build(&ring_spec(""), 1).unwrap();
        let consumer = engine.consumer_mut();
        let aggregate = AggregateId(consumer.baseline.iter().position(|&b| b > 0).unwrap() as u32);
        let surge = EventKind::Surge {
            aggregate,
            factor: 1e12,
        };
        let arrival = EventKind::FlowArrival {
            aggregate,
            count: 5,
        };
        for (seq, kind) in [(0, surge), (1, arrival)] {
            let time = Delay::from_secs(1.0);
            consumer.on_event(&Event { time, seq, kind });
        }
        assert_eq!(consumer.fabric.flow_count(aggregate), u32::MAX);
    }

    #[test]
    fn reoptimizations_run_warm_after_the_first() {
        let spec = ring_spec("");
        let log = log_of(&spec, 2);
        let reopts: Vec<_> = log.records.iter().filter(|r| r.commits.is_some()).collect();
        assert!(reopts.len() >= 2);
        assert!(!reopts[0].warm, "first run has nothing to warm from");
        assert!(reopts[1..].iter().all(|r| r.warm));
    }

    #[test]
    fn aggregate_departure_and_arrival_round_trip() {
        let spec = ring_spec("at 20s depart n0 n2\nat 60s arrive n0 n2 8\n");
        let log = log_of(&spec, 4);
        let first = log.records.first().unwrap().live_flows;
        let depart = log
            .records
            .iter()
            .find(|r| r.what.starts_with("agg-depart"))
            .unwrap();
        let arrive = log
            .records
            .iter()
            .find(|r| r.what.starts_with("agg-arrive"))
            .unwrap();
        assert!(
            depart.live_flows < first,
            "departure must drop the population: {} vs {first}",
            depart.live_flows
        );
        assert!(
            arrive.live_flows > depart.live_flows,
            "arrival must restore flows: {} vs {}",
            arrive.live_flows,
            depart.live_flows
        );
        // The single-aggregate group plumbing upholds the whole-stack
        // bitwise invariant: the oracle run's log is byte-identical.
        let full = full_log_of(&spec, 4);
        assert_eq!(log.to_text(), full.to_text());
    }

    /// The spec `optimize budget` and thread-count tests share: every
    /// hypergrowth region an isolated, congested component, so each
    /// re-optimization is per-component passes plus the whole-instance
    /// loop.
    fn deep_spec(extra: &str) -> Scenario {
        Scenario::parse(&format!(
            "scenario deep\n\
             topology hypergrowth 1Mbps\n\
             duration 30s\n\
             epoch 10s\n\
             workload flows 1 3 intra-region\n\
             reoptimize every 15s warmup 5s\n\
             {extra}"
        ))
        .unwrap()
    }

    /// A run's log with the optimizer pinned to `threads` workers.
    fn log_at_threads(spec: &Scenario, seed: u64, threads: usize) -> String {
        let mut engine = build(spec, seed).unwrap();
        engine.consumer_mut().controller.optimizer.threads = threads;
        engine.run(&spec.name, seed).to_text()
    }

    #[test]
    fn parallel_knobs_leave_the_log_byte_identical() {
        // The optimizer's worker count fans out each step's path
        // generation and scoring, passes included; it must never alter
        // a log: same spec, different thread counts, same bytes.
        let spec = deep_spec("");
        let serial = log_at_threads(&spec, 11, 1);
        for threads in [2, 4] {
            assert_eq!(log_at_threads(&spec, 11, threads), serial, "{threads}");
        }
    }

    #[test]
    fn optimize_budget_caps_passes_and_the_whole_instance_loop_together() {
        let spec = deep_spec("optimize budget 5\n");
        let log = log_of(&spec, 11);
        let reopts: Vec<_> = log.records.iter().filter_map(|r| r.commits).collect();
        assert!(reopts.contains(&5), "the budget must bind");
        assert!(reopts.iter().all(|&c| c <= 5), "{reopts:?}");
        assert_eq!(log_at_threads(&spec, 11, 1), log_at_threads(&spec, 11, 4));
    }

    #[test]
    fn blackout_skips_reopts_and_wakes_at_window_end() {
        // The schedule fires at 15, 45, 75, 105; the window swallows 45
        // and 75, a wake catch-up is appended at 80, and 105 runs on
        // schedule again.
        let spec = ring_spec("duration 130s\ncontroller blackout 40s 80s\n");
        let (log, stats) = run(&spec, 3, &RunOptions::default()).unwrap();
        let skipped: Vec<_> = log
            .records
            .iter()
            .filter(|r| r.what == "reoptimize skipped (blackout)")
            .collect();
        let skipped_at: Vec<f64> = skipped.iter().map(|r| r.time_s).collect();
        assert_eq!(skipped_at, vec![45.0, 75.0], "only due times are skips");
        assert!(
            skipped.iter().all(|r| r.commits.is_none()),
            "skips must not report commits"
        );
        let executed: Vec<f64> = log
            .records
            .iter()
            .filter(|r| r.commits.is_some())
            .map(|r| r.time_s)
            .collect();
        assert_eq!(
            executed,
            vec![15.0, 80.0, 105.0],
            "warmup run, the off-schedule wake, then the schedule resumes"
        );
        // A skip is a measurement, not a microsecond "re-optimization".
        assert_eq!(stats.reoptimize().count, log.reoptimizations());
        // The stale incumbent kept serving: utility never NaNs or dies.
        assert!(log.records.iter().all(|r| r.utility.is_finite()));
        // Chaos replays byte-identically and bitwise across oracles.
        assert_eq!(log.to_text(), log_of(&spec, 3).to_text());
        assert_eq!(log.to_text(), full_log_of(&spec, 3).to_text());
    }

    #[test]
    fn install_delay_defers_commits_and_drop_discards_them() {
        let spec = ring_spec("install delay 2s\n");
        let log = log_of(&spec, 5);
        let commits: Vec<_> = log
            .records
            .iter()
            .filter(|r| r.what.starts_with("install commit"))
            .collect();
        assert_eq!(commits.len(), 3, "every reopt's install lands, 2s later");
        for (reopt, commit) in log
            .records
            .iter()
            .filter(|r| r.commits.is_some())
            .zip(&commits)
        {
            assert_eq!(commit.time_s, reopt.time_s + 2.0);
        }
        assert_eq!(log.to_text(), full_log_of(&spec, 5).to_text());

        // p=1: every install is lost; the boot rules serve forever.
        let spec = ring_spec("install delay 2s\ninstall drop 1 seed 9\n");
        let log = log_of(&spec, 5);
        assert!(!log
            .records
            .iter()
            .any(|r| r.what.starts_with("install commit")));
        assert_eq!(
            log.records
                .iter()
                .filter(|r| r.what.starts_with("install dropped"))
                .count(),
            3
        );
        assert_eq!(log.to_text(), full_log_of(&spec, 5).to_text());

        // p=0 with only the coin configured: commits still fire (at the
        // same time as the reopt, strictly after it in event order).
        let spec = ring_spec("install drop 0 seed 9\n");
        let log = log_of(&spec, 5);
        assert_eq!(
            log.records
                .iter()
                .filter(|r| r.what.starts_with("install commit"))
                .count(),
            3
        );
    }

    #[test]
    fn measure_stale_and_budget_run_bitwise_across_oracles() {
        let spec = ring_spec("measure stale 20s\noptimize budget 3\n");
        let log = log_of(&spec, 6);
        for r in log.records.iter().filter(|r| r.commits.is_some()) {
            assert!(
                r.commits.unwrap() <= 3,
                "anytime budget bounds every run: {}",
                r.to_line()
            );
        }
        assert_eq!(log.to_text(), log_of(&spec, 6).to_text());
        assert_eq!(log.to_text(), full_log_of(&spec, 6).to_text());
    }

    #[test]
    fn unknown_names_fail_the_build() {
        let spec = ring_spec("at 10s fail n0 nope\n");
        let e = run(&spec, 1, &RunOptions::default()).unwrap_err();
        assert!(e.0.contains("nope"), "{e}");
        let spec = ring_spec("at 10s surge n0 n0 x2\n");
        assert!(
            run(&spec, 1, &RunOptions::default()).is_err(),
            "intra-pop pair absent by default"
        );
    }

    #[test]
    fn unknown_names_carry_their_scn_line() {
        // The bad event is the 7th non-empty line of the assembled spec
        // text; the diagnostic must point at it, ParseError-style, and
        // must fire at build time — before any event runs.
        let spec = ring_spec("at 10s surge n0 zzz x2\n");
        let bad = &spec.timeline[0];
        assert!(bad.line > 0);
        let Err(e) = build(&spec, 1) else {
            panic!("unknown surge endpoint must fail the build")
        };
        assert!(
            e.0.contains(&format!("scenario line {}", bad.line)),
            "diagnostic {e:?} must carry line {}",
            bad.line
        );
        assert!(e.0.contains("zzz"), "{e}");
        // Programmatic events (line 0) keep the bare message.
        let mut spec = ring_spec("");
        spec.timeline.push(crate::spec::TimelineEvent {
            at: Delay::from_secs(10.0),
            action: Action::Fail {
                a: "n0".into(),
                b: "ghost".into(),
            },
            line: 0,
        });
        let Err(e) = build(&spec, 1) else {
            panic!("programmatic ghost endpoint must fail the build")
        };
        assert!(!e.0.contains("scenario line"), "{e}");
        assert!(e.0.contains("ghost"), "{e}");
    }

    #[test]
    fn file_topology_scenarios_build_and_replay_bitwise() {
        // A scenario on a catalog-resolved file topology: events resolve
        // against the file's node names, the run is seed-deterministic,
        // and the whole incremental stack stays bitwise-equal to the
        // full-recompute oracle on a substrate no generator produced.
        let spec = Scenario::parse(
            "scenario nren_smoke\n\
             topology file topologies/nren-eu.topo\n\
             duration 60s\n\
             epoch 10s\n\
             workload flows 2 4\n\
             reoptimize every 30s warmup 15s\n\
             at 20s fail Frankfurt Zurich\n\
             at 25s surge London Athens x5\n\
             at 45s repair Frankfurt Zurich\n",
        )
        .unwrap();
        let a = log_of(&spec, 9);
        let b = log_of(&spec, 9);
        assert_eq!(a.to_text(), b.to_text());
        let full = full_log_of(&spec, 9);
        assert_eq!(a.to_text(), full.to_text());
        assert!(a.records.iter().any(|r| r.what.starts_with("fail")));

        // Unknown node names on a *file* topology also carry the line.
        let bad = Scenario::parse(
            "scenario nren_bad\ntopology file topologies/nren-eu.topo\nat 5s fail London Narnia\n",
        )
        .unwrap();
        let Err(e) = build(&bad, 1) else {
            panic!("unknown node on a file topology must fail the build")
        };
        assert!(e.0.contains("scenario line 3"), "{e}");
        assert!(e.0.contains("Narnia"), "{e}");

        // A missing file is a clean build error naming the path.
        let missing = Scenario::parse("scenario m\ntopology file no/such/thing.topo\n").unwrap();
        let Err(e) = build(&missing, 1) else {
            panic!("missing topology file must fail the build")
        };
        assert!(e.0.contains("no/such/thing.topo"), "{e}");
    }

    #[test]
    fn base_dir_resolution_prefers_the_scenario_directory() {
        // A .topo next to the .scn wins over the bundled catalog even
        // when the file stem collides with a catalog name.
        let dir = std::env::temp_dir().join(format!("fubar-scn-base-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let topo = fubar_topology::generators::ring(
            4,
            fubar_topology::Bandwidth::from_kbps(700.0),
            Delay::from_ms(2.0),
        );
        std::fs::write(dir.join("nren-eu.topo"), topo_format::serialize(&topo)).unwrap();
        let spec = Scenario::parse(
            "scenario based\ntopology file nren-eu.topo\nduration 30s\nworkload flows 1 3\n",
        )
        .unwrap();
        // With the base dir: the 4-node ring (names n0..n3).
        let (t, _) = inputs_at(&spec, 1, Some(&dir)).unwrap();
        assert_eq!(t.node_count(), 4);
        assert!(t.node("n0").is_ok());
        // Without it: falls back to the bundled 25-node NREN.
        let (t, _) = inputs(&spec, 1).unwrap();
        assert_eq!(t.node_count(), 25);
        std::fs::remove_dir_all(&dir).ok();
    }
}
