//! The FUBAR flow-allocation optimizer (paper §2.5, Listings 1–2).
//!
//! Greedy local search: start from everything on lowest-delay paths,
//! then repeatedly pick the most oversubscribed congested link, try
//! moving a chunk of each crossing flow path onto the three generated
//! alternatives, and commit the single best utility-improving move. When
//! stuck in a local optimum, progressively enlarge the moved chunk
//! (the paper's cheap stand-in for simulated annealing) until even
//! whole-aggregate moves cannot help.
//!
//! There is one greedy loop (`Optimizer::greedy`) over one loop state,
//! which every call of it changes in place. What varies between its
//! calls is the *scope* — the whole instance, or one isolated region
//! shard's congested links (a per-component pass, see [`crate::shard`]),
//! run one after the other — and, independently, the *scorer*:
//! incremental deltas or the full-recompute oracle
//! ([`OptimizerConfig::incremental`]).
//!
//! The invariant (mirroring the fabric's measurement invariant, enforced
//! by property tests in `tests/properties.rs`): **a default run is
//! bitwise identical to a full-recompute run**, move for move.
//! [`OptimizerConfig::incremental`] selects that oracle: it rebuilds
//! every bundle and re-runs full water-filling for every candidate of
//! every step, runs every search of every aggregate in every step that
//! meets it, never writes the memo (so never finds anything in it)
//! and never prepares a component, so it audits the delta scoring, both
//! halves of the memo and the patched fills alike.

mod claim;
mod memo;
mod step;

use crate::allocation::{Allocation, Move};
use crate::objective::Objective;
use crate::pathgen::PathPolicy;
use crate::recorder::{RunTrace, TracePoint};
use crate::shard::{self, CrossingIndex, RegionPartition, ShardRunStats};
use fubar_graph::{LinkId, LinkSet};
use fubar_model::{
    FlowModel, Incumbent, ModelOutcome, PatchScratch, UtilityReport, WorkspaceStats,
};
use fubar_topology::{Bandwidth, Topology};
use fubar_traffic::TrafficMatrix;
use memo::Memo;
use std::sync::atomic::AtomicUsize;
use std::sync::Mutex;
use std::time::Instant;
use step::{pool_stats, Candidate, ScoreScratch};

/// Why an optimization run stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Termination {
    /// No congested links remain; the allocation is optimal (every flow
    /// satisfied on its lowest-delay available path).
    NoCongestion,
    /// No move — even whole-aggregate moves at maximum escape level —
    /// improves the objective.
    NoImprovement,
    /// The configured commit budget was exhausted.
    CommitLimit,
}

/// Optimizer tunables. Defaults reproduce the paper's setup.
#[derive(Clone, Debug)]
pub struct OptimizerConfig {
    /// Fraction of an aggregate's flows moved per step for large
    /// aggregates ("there is a tradeoff between speed and utility — the
    /// more flows are moved at a time the faster the algorithm will
    /// converge, but the lower the overall utility", §2.5).
    pub move_fraction: f64,
    /// Enable the local-optimum escape (progressively larger moves).
    pub escape: bool,
    /// Hard cap on committed moves (safety valve; effectively unlimited
    /// by default).
    pub max_commits: usize,
    /// Which alternative paths the generator offers.
    pub path_policy: PathPolicy,
    /// What the greedy steps maximize.
    pub objective: Objective,
    /// Links the optimizer must never route onto (e.g. links the
    /// operator knows are down). The initial allocation avoids them and
    /// the path generator never offers them.
    pub excluded_links: LinkSet,
    /// Workers, the calling thread included, that claim a step's work
    /// — path generation and candidate scoring, one aggregate at a time
    /// (see the module docs) — each with its own scoring scratch.
    /// Results are identical at any count; at 1 nothing is spawned. The
    /// default uses the available parallelism. Validated (≥ 1), never
    /// silently clamped.
    pub threads: usize,
    /// Incremental candidate scoring (the default): score each move as
    /// a one-aggregate bundle delta patched over the cached incumbent
    /// evaluation, once per incumbent. When false, every candidate of
    /// every step rebuilds all bundles and re-runs full water-filling —
    /// the oracle mode (mirroring `Fabric::peek_full`) whose runs the
    /// default must match move for move, bitwise.
    pub incremental: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            move_fraction: 0.25,
            escape: true,
            max_commits: usize::MAX,
            path_policy: PathPolicy::ThreePaths,
            objective: Objective::NetworkUtility,
            excluded_links: LinkSet::new(),
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            incremental: true,
        }
    }
}

impl OptimizerConfig {
    fn validate(&self) {
        assert!(
            self.move_fraction > 0.0 && self.move_fraction <= 1.0,
            "move_fraction must be in (0, 1]"
        );
        assert!(self.threads >= 1, "at least one evaluation thread");
    }
}

/// The result of one optimization run.
#[derive(Clone, Debug)]
pub struct OptimizeResult {
    /// The final flow-to-path assignment.
    pub allocation: Allocation,
    /// The progress trace (one point per commit, plus initial/final).
    pub trace: RunTrace,
    /// Utility report of the final allocation.
    pub report: UtilityReport,
    /// Model outcome of the final allocation.
    pub outcome: ModelOutcome,
    /// Number of committed moves.
    pub commits: usize,
    /// The committed moves in order — the scoring-equivalence property
    /// tests compare incremental and oracle runs move for move.
    pub moves: Vec<Move>,
    /// Why the run stopped.
    pub termination: Termination,
    /// High-water marks of the run's per-candidate scoring scratches
    /// (largest re-filled component, most links touched by one fill,
    /// deepest event heap) and the fills they ran, which the shards'
    /// fill counts add up to — `fubar-cli scenario run --stats`
    /// surfaces these.
    pub scratch: WorkspaceStats,
    /// Per-shard execution statistics (see [`crate::shard`]). The last
    /// entry is the trunk-core shard. Wall-clock fields ride outside
    /// the byte-exact replay surface, like `scratch`.
    pub shards: Vec<ShardRunStats>,
}

/// Everything the greedy loop ([`Optimizer::greedy`]) reads and writes:
/// one per run, changed in place by every call.
struct LoopState {
    alloc: Allocation,
    /// The measurement of `alloc`. In incremental mode candidates are
    /// scored as one-aggregate [`BundleDelta`] splices against it; in
    /// full (oracle) mode it merely memoizes the measurement between
    /// commits.
    ///
    /// [`BundleDelta`]: fubar_model::BundleDelta
    incumbent: Incumbent,
    /// What a commit patches the incumbent with — apart from the
    /// scoring scratch, whose fill counters count scored candidates
    /// only.
    patch: PatchScratch,
    index: CrossingIndex,
    /// The committed moves in commit order.
    commits: Vec<Move>,
    trace: RunTrace,
    /// Per shard, the trunk core last: commits whose focus link the
    /// shard owned, seconds spent on its candidates and the fills they
    /// took.
    shards: Vec<ShardRunStats>,
}

/// What one call of the greedy loop may touch, and with what.
#[derive(Clone, Copy)]
struct Scope<'s> {
    partition: &'s RegionPartition,
    /// The run's scoring scratches, one per evaluation thread —
    /// uncontended: worker `i` of a step only ever locks scratch `i`.
    pool: &'s [Mutex<ScoreScratch>],
    /// The run's start, which the trace counts from.
    started: Instant,
    /// `Some(s)`: a per-component pass, visiting only the congested
    /// links shard `s` owns. `None`: every congested link.
    shard: Option<usize>,
    /// Links no alternative may use: the configured exclusions, which a
    /// pass widens to every link outside its shard.
    excluded: &'s LinkSet,
}

/// The optimizer, bound to one topology and one traffic matrix.
pub struct Optimizer<'a> {
    topology: &'a Topology,
    tm: &'a TrafficMatrix,
    config: OptimizerConfig,
    model: FlowModel<'a>,
    /// Aggregates whose total demand is at or below this are "small" and
    /// moved in their entirety (§2.5): 2% of the topology's mean link
    /// capacity — "small" is relative to the pipes the aggregate might
    /// congest.
    small_threshold: Bandwidth,
    /// Scores the memo answered over this optimizer's runs (a
    /// statistic, read by `test_support::memo_hits`).
    memo_hits: AtomicUsize,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer.
    pub fn new(topology: &'a Topology, tm: &'a TrafficMatrix, config: OptimizerConfig) -> Self {
        config.validate();
        let links = topology.link_count().max(1) as f64;
        let small_threshold = topology.total_capacity() / links * 0.02;
        Optimizer {
            topology,
            tm,
            config,
            model: FlowModel::with_defaults(topology),
            small_threshold,
            memo_hits: AtomicUsize::new(0),
        }
    }

    /// Creates an optimizer with default configuration.
    pub fn with_defaults(topology: &'a Topology, tm: &'a TrafficMatrix) -> Self {
        Self::new(topology, tm, OptimizerConfig::default())
    }

    /// Measures `alloc` from scratch (run start and, in oracle mode,
    /// after every commit).
    fn measure(&self, alloc: &Allocation) -> Incumbent {
        let (bundles, spans) = alloc.bundles_with_spans(self.tm);
        Incumbent::measure(&self.model, self.tm, bundles, spans)
    }

    fn trace_point(&self, started: Instant, commits: usize, incumbent: &Incumbent) -> TracePoint {
        let (outcome, report) = (incumbent.outcome(), incumbent.report());
        let util = outcome.utilization_summary();
        TracePoint {
            elapsed: started.elapsed(),
            commits,
            network_utility: report.network_utility,
            large_utility: report.large_average,
            small_utility: report.small_average,
            actual_utilization: util.actual,
            demanded_utilization: util.demanded,
            congested_links: outcome.congested.len(),
            congested_bundles: outcome.congested_bundle_count(),
        }
    }

    /// The (unclamped) fraction of an aggregate moved per step at escape
    /// level `level`: the move fraction doubles per level.
    fn move_fraction_at(&self, level: u32) -> f64 {
        const ESCAPE_GROWTH: f64 = 2.0;
        self.config.move_fraction * ESCAPE_GROWTH.powi(level as i32)
    }

    /// Commits a candidate onto `state`: applies the move to the
    /// allocation, refreshes the incumbent cache — one in-place delta
    /// patch in incremental mode, a full re-measurement in oracle mode —
    /// registers a brand-new path in the crossing index, and logs the
    /// commit (attributed to `owner`, the shard owning the focus link)
    /// with its trace point.
    fn commit(&self, state: &mut LoopState, c: Candidate, owner: usize, started: Instant) {
        let (alloc, incumbent) = (&mut state.alloc, &mut state.incumbent);
        if self.config.incremental {
            let segment = alloc.bundles_after_move(self.tm, c.aggregate, c.from, &c.alt, c.count);
            incumbent.replace(
                &self.model,
                self.tm,
                [(c.aggregate, segment)],
                &[],
                &mut state.patch,
            );
        }
        let known_paths = alloc.path_set(c.aggregate).len();
        let to = alloc.add_path(c.aggregate, c.alt.clone());
        let m = Move {
            aggregate: c.aggregate,
            from: c.from,
            to,
            count: c.count,
        };
        alloc.apply(m);
        if !self.config.incremental {
            *incumbent = self.measure(alloc);
        }
        if to == known_paths {
            // The commit appended a brand-new path: register it on
            // every link it crosses so future enumeration sees it.
            state.index.insert(c.aggregate, to as u32, &c.alt);
        }
        state.shards[owner].commits += 1;
        state.commits.push(m);
        let point = self.trace_point(started, state.commits.len(), &state.incumbent);
        state.trace.push(point);
    }

    /// Listing 1: the main loop. Runs to termination and returns the
    /// final allocation with its full progress trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use fubar_core::{Optimizer, OptimizerConfig};
    /// use fubar_topology::{generators, Bandwidth};
    /// use fubar_traffic::{workload, WorkloadConfig};
    ///
    /// let topo = generators::abilene(Bandwidth::from_mbps(3.0));
    /// let tm = workload::generate(&topo, &WorkloadConfig::default(), 7);
    /// let opt = Optimizer::new(&topo, &tm, OptimizerConfig::default());
    /// let result = opt.run();
    /// // The trace never regresses: each commit weakly improves utility.
    /// assert!(result.trace.is_monotone());
    /// ```
    pub fn run(&self) -> OptimizeResult {
        self.run_with(self.boot()).0
    }

    /// The shortest-path boot state a cold run starts from.
    fn boot(&self) -> Allocation {
        Allocation::all_on_shortest_paths_avoiding(
            self.topology,
            self.tm,
            &self.config.excluded_links,
        )
    }

    /// Warm start: seeds the greedy loop from a previous allocation
    /// instead of the shortest-path boot state. `previous` is first
    /// [rebased](Allocation::rebase) onto this optimizer's matrix,
    /// topology, and exclusion set, so it may come from an earlier epoch
    /// with different flow counts or a different failure pattern.
    ///
    /// After a small perturbation (drift, one failure, a flash crowd)
    /// the previous optimum is already close to the new one, so far
    /// fewer commits are needed than from scratch — this is what makes
    /// per-event re-optimization affordable in the scenario engine.
    pub fn run_from(&self, previous: &Allocation) -> OptimizeResult {
        let rebased = previous.rebase(self.topology, self.tm, &self.config.excluded_links);
        self.run_with(rebased).0
    }

    /// The run from an explicit starting allocation (which must already
    /// satisfy `validate` against this optimizer's matrix): per-component
    /// passes where the instance decomposes, then the whole-instance
    /// loop — every one a call of [`Optimizer::greedy`] on the same
    /// state. Also hands back the crossing index the loop maintained,
    /// which the `indexed gather ≡ scan` property test compares against
    /// a rebuilt one.
    fn run_with(&self, initial: Allocation) -> (OptimizeResult, CrossingIndex) {
        let started = Instant::now(); // lint:allow(wall-clock): timing observability only; never feeds a decision
        debug_assert!(initial.validate(self.tm).is_ok());
        let shard_count = shard::shard_count_for(self.topology);
        let partition = RegionPartition::new(self.topology, self.tm, shard_count);
        let pool: Vec<Mutex<ScoreScratch>> = (0..self.config.threads)
            .map(|_| Mutex::new(ScoreScratch::default()))
            .collect();
        let incumbent = self.measure(&initial);
        let mut trace = RunTrace::new();
        trace.push(self.trace_point(started, 0, &incumbent));
        let mut state = LoopState {
            index: CrossingIndex::build(self.topology, self.tm, &initial),
            alloc: initial,
            incumbent,
            patch: PatchScratch::default(),
            commits: Vec::new(),
            trace,
            shards: (0..=shard_count)
                .map(|i| ShardRunStats {
                    shard: i,
                    aggregates: partition.aggregates_in(i),
                    links: partition.links_in(i),
                    ..Default::default()
                })
                .collect(),
        };
        let whole = Scope {
            partition: &partition,
            pool: &pool,
            started,
            shard: None,
            excluded: &self.config.excluded_links,
        };

        // The network utility is a weighted sum over aggregates, and an
        // isolated component shares no links and no aggregates with the
        // rest of the instance, so a pass leaves every other component's
        // rates, utilities and candidates as they were. The min-max
        // objective does not decompose across components.
        let mut memo = Memo::new(self.topology.link_count(), self.tm.len());
        if self.config.objective == Objective::NetworkUtility {
            self.run_passes(&mut state, &mut memo, &whole);
        }
        let termination = self.greedy(&mut state, &mut memo, &whole);
        debug_assert!(state.alloc.validate(self.tm).is_ok());

        let (outcome, report) = state.incumbent.into_measurement();
        let result = OptimizeResult {
            allocation: state.alloc,
            trace: state.trace,
            report,
            outcome,
            commits: state.commits.len(),
            moves: state.commits,
            termination,
            scratch: pool_stats(&pool),
            shards: state.shards,
        };
        (result, state.index)
    }

    /// Per-component passes: every shard
    /// [`shard::isolated_congested_shards`] names on the starting state
    /// optimizes its own congested links, in ascending shard order, each
    /// pass starting where the one before it stopped. A pass rescans
    /// only its own component's stuck links, which is where the time
    /// goes on deeply congested regional instances. A pass never leaves
    /// its shard, so the shards after it stay isolated; what it reads of
    /// them is the congestion the passes before it left (an aggregate's
    /// link-local alternative avoids the most congested of its used or
    /// excluded links, and a pass excludes every link outside its
    /// shard). With no isolated congested shard this is one no-op scan.
    fn run_passes(&self, state: &mut LoopState, memo: &mut Memo, whole: &Scope<'_>) {
        let shards = shard::isolated_congested_shards(
            whole.partition,
            &state.index,
            &state.alloc,
            &state.incumbent.outcome().congested,
        );
        for shard in shards {
            // Widen the exclusion set to every link the shard does not
            // own, so alternatives never leave the component.
            let mut excluded = whole.excluded.clone();
            for l in self.topology.links() {
                if whole.partition.shard_of_link(l) != shard {
                    excluded.insert(l);
                }
            }
            let scope = Scope {
                shard: Some(shard),
                excluded: &excluded,
                ..*whole
            };
            self.greedy(state, memo, &scope);
        }
    }

    /// Listing 1: the one greedy loop. Visits the congested links in
    /// `scope` from most to least oversubscribed, commits the best move
    /// of the first link where progress is made, and escalates the move
    /// size on a local optimum. `max_commits` is read against the state's
    /// whole commit log, so it caps the run, not the call.
    fn greedy(&self, state: &mut LoopState, memo: &mut Memo, scope: &Scope<'_>) -> Termination {
        let mut escape_level: u32 = 0;
        loop {
            let outcome = state.incumbent.outcome();
            let in_scope = |l: &LinkId| {
                scope
                    .shard
                    .is_none_or(|s| scope.partition.shard_of_link(*l) == s)
            };
            let congested: Vec<LinkId> =
                outcome.congested.iter().copied().filter(in_scope).collect();
            if congested.is_empty() {
                return Termination::NoCongestion;
            }
            if state.commits.len() >= self.config.max_commits {
                return Termination::CommitLimit;
            }

            // Stop at the first link where progress is made (Listing 1
            // lines 6-9); each link's work is credited to the shard
            // owning it.
            let mut winner: Option<(Candidate, usize)> = None;
            for link in congested {
                let owner = scope.partition.shard_of_link(link);
                // lint:allow(wall-clock): timing observability only; never feeds a decision
                let t0 = Instant::now();
                let found = self.step(state, memo, link, escape_level, scope, owner);
                state.shards[owner].score_s += t0.elapsed().as_secs_f64();
                if let Some(c) = found {
                    winner = Some((c, owner));
                    break;
                }
            }

            if let Some((c, owner)) = winner {
                let moved = c.aggregate;
                self.commit(state, c, owner, scope.started);
                // A score survives the commit iff it read nothing the
                // commit re-filled; the alternatives answer for their
                // own validity.
                if self.config.incremental {
                    memo.note_commit(state, moved);
                }
                escape_level = 0;
                continue;
            }

            // Local optimum: escalate or give up (§2.5 "Escaping local
            // optima").
            let fraction_maxed = self.move_fraction_at(escape_level) >= 1.0;
            if !self.config.escape || fraction_maxed {
                return Termination::NoImprovement;
            }
            escape_level += 1;
        }
    }
}

/// Internal hooks for this crate's integration tests and the
/// benchmark's layer replay: the scoring harness of the zero-allocation
/// regression test (`tests/zero_alloc.rs`), which builds an incumbent
/// over a congested instance, enumerates one step's candidates, and
/// re-scores them on demand through the exact per-candidate path the
/// inner loop uses; the probe harness of the fan-out allocation test
/// (`tests/probe_alloc.rs`), which runs one step's fan-out over and
/// over; the crossing-index view the `indexed gather ≡ scan` property
/// test reads; and the memo's hit count. Not a public API — gated
/// behind the `test-support` feature and hidden from docs.
#[cfg(feature = "test-support")]
#[doc(hidden)]
pub mod test_support;

#[cfg(test)]
mod tests {
    use super::*;
    use fubar_graph::NodeId;
    use fubar_topology::{Delay, TopologyBuilder};
    use fubar_traffic::{Aggregate, AggregateId};
    use fubar_utility::TrafficClass;

    fn kb(v: f64) -> Bandwidth {
        Bandwidth::from_kbps(v)
    }
    fn ms(v: f64) -> Delay {
        Delay::from_ms(v)
    }

    /// Tight direct link, roomy detour: the optimizer must offload.
    fn diamond(direct_kbps: f64) -> (Topology, TrafficMatrix) {
        let mut b = TopologyBuilder::new("diamond");
        for n in ["s", "x", "t"] {
            b.add_node(n).unwrap();
        }
        b.add_duplex_link("s", "t", kb(direct_kbps), ms(1.0))
            .unwrap();
        b.add_duplex_link("s", "x", kb(100_000.0), ms(3.0)).unwrap();
        b.add_duplex_link("x", "t", kb(100_000.0), ms(3.0)).unwrap();
        let topo = b.build();
        let tm = TrafficMatrix::new(vec![Aggregate::new(
            AggregateId(0),
            NodeId(0),
            NodeId(2),
            TrafficClass::BulkTransfer,
            20, // 2.4 Mb/s demand
        )]);
        (topo, tm)
    }

    #[test]
    fn uncongested_network_terminates_immediately() {
        let (topo, tm) = diamond(100_000.0);
        let result = Optimizer::with_defaults(&topo, &tm).run();
        assert_eq!(result.termination, Termination::NoCongestion);
        assert_eq!(result.commits, 0);
        assert!((result.report.network_utility - 1.0).abs() < 1e-9);
    }

    #[test]
    fn congested_aggregate_gets_offloaded() {
        let (topo, tm) = diamond(600.0);
        let result = Optimizer::with_defaults(&topo, &tm).run();
        let initial = result.trace.initial().unwrap().network_utility;
        assert!(
            result.report.network_utility > initial + 0.05,
            "utility {initial} -> {} should improve",
            result.report.network_utility
        );
        // The aggregate is bulky (2.4M > 1.5M threshold): moved in
        // chunks; flows should now ride both paths.
        assert!(result.allocation.active_path_count() >= 2);
        assert!(result.trace.is_monotone());
        result.allocation.validate(&tm).unwrap();
    }

    #[test]
    fn small_aggregates_move_whole() {
        // One small aggregate (demand 240k <= threshold), tight direct
        // pipe: a single commit moves all of it.
        let mut b = TopologyBuilder::new("diamond");
        for n in ["s", "x", "t"] {
            b.add_node(n).unwrap();
        }
        b.add_duplex_link("s", "t", kb(100.0), ms(1.0)).unwrap();
        b.add_duplex_link("s", "x", kb(100_000.0), ms(2.0)).unwrap();
        b.add_duplex_link("x", "t", kb(100_000.0), ms(2.0)).unwrap();
        let topo = b.build();
        let tm = TrafficMatrix::new(vec![Aggregate::new(
            AggregateId(0),
            NodeId(0),
            NodeId(2),
            TrafficClass::BulkTransfer,
            2,
        )]);
        let result = Optimizer::with_defaults(&topo, &tm).run();
        assert_eq!(result.termination, Termination::NoCongestion);
        assert_eq!(result.commits, 1, "small aggregate moves in one commit");
        assert!((result.report.network_utility - 1.0).abs() < 1e-3);
    }

    #[test]
    fn utility_never_decreases_along_the_trace() {
        let (topo, tm) = diamond(500.0);
        let result = Optimizer::with_defaults(&topo, &tm).run();
        assert!(result.trace.is_monotone());
        // Shortest-path is the lower bound (paper §3 "Solution quality").
        let sp = result.trace.initial().unwrap().network_utility;
        assert!(result.report.network_utility >= sp - 1e-12);
    }

    #[test]
    fn commit_limit_respected() {
        let (topo, tm) = diamond(300.0);
        let cfg = OptimizerConfig {
            max_commits: 1,
            ..Default::default()
        };
        let result = Optimizer::new(&topo, &tm, cfg).run();
        assert!(result.commits <= 1);
        if result.commits == 1 && result.outcome.is_congested() {
            assert_eq!(result.termination, Termination::CommitLimit);
        }
    }

    #[test]
    fn no_escape_gives_up_earlier_or_equal() {
        let (topo, tm) = diamond(500.0);
        let with = Optimizer::new(
            &topo,
            &tm,
            OptimizerConfig {
                move_fraction: 0.05,
                ..Default::default()
            },
        )
        .run();
        let without = Optimizer::new(
            &topo,
            &tm,
            OptimizerConfig {
                move_fraction: 0.05,
                escape: false,
                ..Default::default()
            },
        )
        .run();
        assert!(with.report.network_utility >= without.report.network_utility - 1e-9);
    }

    #[test]
    fn minmax_objective_also_decongests() {
        let (topo, tm) = diamond(600.0);
        let cfg = OptimizerConfig {
            objective: Objective::MinMaxUtilization,
            ..Default::default()
        };
        let result = Optimizer::new(&topo, &tm, cfg).run();
        let before = result.trace.initial().unwrap().congested_links;
        let after = result.outcome.congested.len();
        assert!(after <= before);
    }

    #[test]
    fn warm_start_from_own_optimum_needs_no_commits() {
        let (topo, tm) = diamond(600.0);
        let opt = Optimizer::with_defaults(&topo, &tm);
        let cold = opt.run();
        let warm = opt.run_from(&cold.allocation);
        assert_eq!(warm.commits, 0, "re-running from the optimum is a no-op");
        assert!(
            (warm.report.network_utility - cold.report.network_utility).abs() < 1e-12,
            "{} vs {}",
            warm.report.network_utility,
            cold.report.network_utility
        );
    }

    #[test]
    fn warm_start_tracks_a_perturbation_cheaply() {
        let (topo, tm) = diamond(600.0);
        let cold = Optimizer::with_defaults(&topo, &tm).run();
        // Perturb: one more flow in the aggregate.
        let mut tm2 = tm.clone();
        tm2.set_flow_count(fubar_traffic::AggregateId(0), 21);
        let opt2 = Optimizer::with_defaults(&topo, &tm2);
        let warm = opt2.run_from(&cold.allocation);
        let cold2 = opt2.run();
        assert!(
            warm.commits <= cold2.commits,
            "warm start must not work harder: {} vs {}",
            warm.commits,
            cold2.commits
        );
        assert!(
            warm.report.network_utility >= cold2.report.network_utility - 0.01,
            "warm start must stay within 1%: {} vs {}",
            warm.report.network_utility,
            cold2.report.network_utility
        );
    }

    #[test]
    #[should_panic(expected = "move_fraction")]
    fn bad_config_rejected() {
        let (topo, tm) = diamond(600.0);
        let cfg = OptimizerConfig {
            move_fraction: 0.0,
            ..Default::default()
        };
        let _ = Optimizer::new(&topo, &tm, cfg);
    }
}
