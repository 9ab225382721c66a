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
//! There is one greedy loop (`Optimizer::greedy`) over one loop state.
//! What varies between its calls is the *scope* — the whole instance, or
//! one isolated region shard's congested links (a per-component pass,
//! see [`crate::shard`]) — and, independently, the *scorer*: incremental
//! deltas or the full-recompute oracle ([`OptimizerConfig::incremental`]).
//!
//! ### Incremental candidate scoring
//!
//! Each candidate move perturbs exactly one aggregate's path split, so
//! the inner loop does not rebuild the world per candidate: the
//! optimizer caches the incumbent allocation's measurement (an
//! [`Incumbent`]: the bundle table with per-aggregate spans, its traced
//! flow-model evaluation, and its utility report) and scores a
//! candidate by splicing the moved aggregate's new bundle segment over
//! the cache as a [`BundleDelta`] and scoring it through
//! [`FlowModel::score_delta`] — water-filling re-runs only on the
//! affected bottleneck component, utilities refresh only for affected
//! aggregates. Rejected candidates never touch the cache; the winner is
//! patched into it **in place** once per commit
//! ([`Incumbent::replace`]), so a commit costs the component too, not
//! the instance. The invariant (mirroring the fabric's
//! measurement invariant, enforced by property tests in
//! `tests/properties.rs`): **incremental candidate scoring is bitwise
//! identical to full-recompute scoring**, move for move, over whole
//! optimization runs. [`OptimizerConfig::incremental`] selects the
//! full-recompute oracle the tests compare against.
//!
//! Scoring is also **O(component) in memory**: each evaluation thread
//! owns a reusable scratch (the flow model's epoch-stamped
//! [`Workspace`], the report fold scratch, and the candidate segment
//! buffer), the candidate's network utility is folded through an
//! O(log n) patch of the incumbent report's summation tree rather than
//! a full re-fold, and the min-max objective reads a sparse
//! changed-link overlay instead of a rebuilt link array. Past buffer
//! warm-up, a scored move performs zero heap allocations
//! (`tests/zero_alloc.rs` enforces it with a counting allocator), which
//! is what keeps per-move cost flat as instances grow past HE-961 — the
//! CI perf gate requires the incremental-vs-full speedup on the
//! 4,096-aggregate hypergrowth tier to *exceed* the HE-961 one.

use crate::allocation::{Allocation, Move};
use crate::objective::Objective;
use crate::pathgen::{alternatives, PathPolicy};
use crate::recorder::{RunTrace, TracePoint};
use crate::shard::{self, CrossingIndex, RegionPartition, ShardRunStats};
use fubar_graph::Path;
use fubar_graph::{LinkId, LinkSet};
use fubar_model::{
    score_network_utility_delta, utility_report, BundleDelta, BundleSpec, DeltaScore, FlowModel,
    Incumbent, ModelConfig, ModelOutcome, PatchScratch, ReportScratch, UtilityReport, Workspace,
    WorkspaceStats,
};
use fubar_topology::{Bandwidth, Topology};
use fubar_traffic::{Aggregate, AggregateId, TrafficMatrix};
use std::sync::Mutex;
use std::time::Instant;

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
    /// Aggregates whose total demand is at or below this are "small" and
    /// moved in their entirety. `None` (the default) means 2% of the
    /// topology's mean link capacity — "small" is relative to the pipes
    /// the aggregate might congest.
    pub small_demand_threshold: Option<Bandwidth>,
    /// Enable the local-optimum escape (progressively larger moves).
    pub escape: bool,
    /// Hard cap on committed moves (safety valve; effectively unlimited
    /// by default).
    pub max_commits: usize,
    /// Which alternative paths the generator offers.
    pub path_policy: PathPolicy,
    /// What the greedy steps maximize.
    pub objective: Objective,
    /// Flow-model configuration.
    pub model: ModelConfig,
    /// Links the optimizer must never route onto (e.g. links the
    /// operator knows are down). The initial allocation avoids them and
    /// the path generator never offers them.
    pub excluded_links: LinkSet,
    /// Worker threads, for candidate evaluation inside a step and for
    /// running per-component passes side by side (see the module docs).
    /// Results are identical at any thread count; 1 disables threading.
    /// The default uses the available parallelism. Validated (≥ 1),
    /// never silently clamped.
    pub threads: usize,
    /// Incremental candidate scoring (the default): score each move as
    /// a one-aggregate bundle delta patched over the cached incumbent
    /// evaluation. When false, every candidate rebuilds all bundles and
    /// re-runs full water-filling — the oracle mode (mirroring
    /// `Fabric::peek_full`) whose runs the incremental path must match
    /// move for move, bitwise.
    pub incremental: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            move_fraction: 0.25,
            small_demand_threshold: None,
            escape: true,
            max_commits: usize::MAX,
            path_policy: PathPolicy::ThreePaths,
            objective: Objective::NetworkUtility,
            model: ModelConfig::default(),
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

/// One tentative move under evaluation.
#[derive(Clone)]
struct Candidate {
    aggregate: AggregateId,
    from: usize,
    count: u32,
    alt: Path,
}

/// One evaluation thread's reusable scoring scratch: the flow-model
/// [`Workspace`], the report-fold scratch, and the candidate bundle
/// segment buffer. Past warm-up, scoring a candidate move allocates
/// nothing (enforced by the counting-allocator test in
/// `tests/zero_alloc.rs`).
#[derive(Default)]
struct ScoreScratch {
    model: Workspace,
    report: ReportScratch,
    segment: Vec<BundleSpec>,
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
    /// High-water marks of the per-candidate scoring scratch (largest
    /// re-filled component, most links touched by one fill, deepest
    /// event heap) — `fubar-cli scenario run --stats` surfaces these.
    pub scratch: WorkspaceStats,
    /// Per-shard execution statistics (see [`crate::shard`]). The last
    /// entry is the trunk-core shard. Wall-clock fields ride outside
    /// the byte-exact replay surface, like `scratch`.
    pub shards: Vec<ShardRunStats>,
}

/// Everything one call of the greedy loop ([`Optimizer::greedy`]) reads
/// and writes. Cloning the master state before its first commit
/// branches a per-component pass, whose `commits` are then replayed
/// verbatim onto the master.
#[derive(Clone)]
struct LoopState {
    alloc: Allocation,
    /// The measurement of `alloc`. In incremental mode candidates are
    /// scored as one-aggregate [`BundleDelta`] splices against it; in
    /// full (oracle) mode it merely memoizes the measurement between
    /// commits.
    incumbent: Incumbent,
    index: CrossingIndex,
    /// The committed candidates in commit order, with the moves they
    /// became.
    commits: Vec<(Candidate, Move)>,
    trace: RunTrace,
    /// Per shard, the trunk core last: commits whose focus link the
    /// shard owned and seconds spent on its candidates (the scratch
    /// peaks are read off the pools when the run ends).
    shards: Vec<ShardRunStats>,
}

/// What one call of the greedy loop may touch, and with what.
#[derive(Clone, Copy)]
struct Scope<'s> {
    partition: &'s RegionPartition,
    /// One scoring scratch pool per shard, one scratch per evaluation
    /// thread — uncontended: concurrent passes own different shards, and
    /// worker `i` of a step only ever locks scratch `i`.
    pools: &'s [Vec<Mutex<ScoreScratch>>],
    /// The run's start, which the trace counts from.
    started: Instant,
    /// `Some(s)`: a per-component pass, visiting only the congested
    /// links shard `s` owns. `None`: every congested link.
    shard: Option<usize>,
    /// Links no alternative may use: the configured exclusions, which a
    /// pass widens to every link outside its shard.
    excluded: &'s LinkSet,
    /// Scoring threads per step.
    threads: usize,
}

/// Maps `work` over `items` cut into at most `workers` contiguous
/// chunks — inline for one worker, else one scoped thread per chunk —
/// and returns the results in item order. `work` also gets its chunk's
/// number, so worker `i` can own scratch `i`; which thread ran what
/// never shows in the result.
fn map_chunks<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    work: impl Fn(usize, &[T]) -> Vec<R> + Sync,
) -> Vec<R> {
    if workers <= 1 {
        return work(0, items);
    }
    let (chunk, work) = (items.len().div_ceil(workers), &work);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(i, part)| scope.spawn(move || work(i, part)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// The optimizer, bound to one topology and one traffic matrix.
pub struct Optimizer<'a> {
    topology: &'a Topology,
    tm: &'a TrafficMatrix,
    config: OptimizerConfig,
    model: FlowModel<'a>,
    small_threshold: Bandwidth,
    /// What a commit patches the incumbent with. Shared by every commit
    /// of a run (concurrent passes take turns) and apart from the
    /// scoring scratch, whose fill counters count scored candidates
    /// only.
    commit: Mutex<PatchScratch>,
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer.
    pub fn new(topology: &'a Topology, tm: &'a TrafficMatrix, config: OptimizerConfig) -> Self {
        config.validate();
        let model = FlowModel::new(topology, config.model);
        let small_threshold = config.small_demand_threshold.unwrap_or_else(|| {
            let links = topology.link_count().max(1) as f64;
            topology.total_capacity() / links * 0.02
        });
        Optimizer {
            topology,
            tm,
            config,
            model,
            small_threshold,
            commit: Mutex::default(),
        }
    }

    /// Creates an optimizer with default configuration.
    pub fn with_defaults(topology: &'a Topology, tm: &'a TrafficMatrix) -> Self {
        Self::new(topology, tm, OptimizerConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    fn eval(&self, alloc: &Allocation) -> (ModelOutcome, UtilityReport) {
        let bundles = alloc.bundles(self.tm);
        let outcome = self.model.evaluate(&bundles);
        let report = utility_report(self.tm, &bundles, &outcome);
        (outcome, report)
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

    /// How many flows of `agg`'s flow path (currently `on_path` flows) to
    /// move at escape level `level` (Listing 2 line 3, plus the escape
    /// tweak). Small aggregates move whole.
    fn flows_to_move(&self, agg: &Aggregate, on_path: u32, level: u32) -> u32 {
        if agg.total_demand() <= self.small_threshold {
            return on_path;
        }
        let fraction = self.move_fraction_at(level).min(1.0);
        let n = (fraction * f64::from(agg.flow_count)).round().max(1.0) as u32;
        n.min(on_path)
    }

    /// Oracle scoring: applies the candidate to a scratch allocation,
    /// rebuilds every bundle, re-runs full water-filling and the full
    /// utility report, then reverts (the scratch's path set may grow,
    /// which is harmless).
    fn score_candidate_full(&self, scratch: &mut Allocation, c: &Candidate) -> f64 {
        let to = scratch.add_path(c.aggregate, c.alt.clone());
        let m = Move {
            aggregate: c.aggregate,
            from: c.from,
            to,
            count: c.count,
        };
        scratch.apply(m);
        let (o2, r2) = self.eval(scratch);
        let score = self.config.objective.score(&r2, &o2);
        scratch.revert(m);
        score
    }

    /// Incremental scoring: rewrites the moved aggregate's post-move
    /// bundle segment into the thread's scratch buffer (no allocation
    /// mutation, no fresh vectors), splices it over the incumbent cache
    /// as a [`BundleDelta`], runs the component-bound
    /// [`FlowModel::score_delta`], and folds the objective from the
    /// partial result — the network utility via an O(log n) fold-tree
    /// patch, min-max via the sparse link-demand overlay. Past scratch
    /// warm-up this path performs **zero heap allocations** per scored
    /// move. Bitwise identical to [`Optimizer::score_candidate_full`].
    fn score_candidate_incremental(
        &self,
        alloc: &Allocation,
        incumbent: &Incumbent,
        c: &Candidate,
        ws: &mut ScoreScratch,
    ) -> f64 {
        let seg_len = alloc.bundles_after_move_into(
            self.tm,
            c.aggregate,
            c.from,
            &c.alt,
            c.count,
            &mut ws.segment,
        );
        let (start, len) = incumbent.spans()[c.aggregate.index()];
        let delta = BundleDelta::new(
            incumbent.bundles(),
            start as usize,
            len as usize,
            &ws.segment[..seg_len],
        );
        match self
            .model
            .score_delta(incumbent.eval(), &delta, &mut ws.model)
        {
            DeltaScore::Partial {
                affected,
                rates,
                changed_link_demand,
            } => match self.config.objective {
                Objective::NetworkUtility => score_network_utility_delta(
                    self.tm,
                    &delta,
                    affected,
                    rates,
                    incumbent.outcome(),
                    incumbent.report(),
                    c.aggregate,
                    incumbent.spans(),
                    &mut ws.report,
                ),
                Objective::MinMaxUtilization => {
                    // Merge the sparse demand overlay over the incumbent's
                    // per-link arrays — the same (demand, capacity) stream,
                    // in the same order, a materialized outcome would feed
                    // the objective.
                    let prev_d = &incumbent.outcome().link_demand;
                    let prev_c = &incumbent.outcome().link_capacity;
                    let mut k = 0usize;
                    self.config.objective.score_with_links(
                        incumbent.report(),
                        (0..prev_d.len()).map(|li| {
                            let d = if k < changed_link_demand.len()
                                && changed_link_demand[k].0 as usize == li
                            {
                                k += 1;
                                changed_link_demand[k - 1].1
                            } else {
                                prev_d[li].bps()
                            };
                            (d, prev_c[li].bps())
                        }),
                    )
                }
            },
            // Rare fallback (component ≈ whole instance): score like the
            // oracle does.
            DeltaScore::Full => self.score_candidate_full(&mut alloc.clone(), c),
        }
    }

    /// Listing 2's candidate enumeration: all (flow path × alternative)
    /// moves off `link`, gathered through the crossing index without
    /// mutating the allocation — the same pairs, in the same order, as
    /// the full-matrix `Allocation::flow_paths_over` scan, at O(entries
    /// on the link).
    fn gather(
        &self,
        alloc: &Allocation,
        incumbent: &Incumbent,
        index: &CrossingIndex,
        link: LinkId,
        escape_level: u32,
        excluded: &LinkSet,
    ) -> Vec<Candidate> {
        let outcome = incumbent.outcome();
        let mut candidates: Vec<Candidate> = Vec::new();
        for &(agg_raw, path_idx) in &index.per_link[link.index()] {
            let (agg_id, path_idx) = (AggregateId(agg_raw), path_idx as usize);
            let on_path = alloc.flows_on(agg_id, path_idx);
            if on_path == 0 {
                continue;
            }
            let agg = self.tm.aggregate(agg_id);
            let count = self.flows_to_move(agg, on_path, escape_level);
            if count == 0 {
                continue;
            }
            let alts = alternatives(
                self.topology,
                agg,
                alloc,
                outcome,
                self.config.path_policy,
                excluded,
            );
            for alt in alts {
                // The alternate path must exclude the congested link and
                // differ from the source path.
                if alt.uses_link(link) || &alt == alloc.path_set(agg_id).path(path_idx) {
                    continue;
                }
                candidates.push(Candidate {
                    aggregate: agg_id,
                    from: path_idx,
                    count,
                    alt,
                });
            }
        }
        candidates
    }

    /// Listing 2: one step focused on `link`. Tries all (flow path ×
    /// alternative) moves and returns the best improving one, if any.
    ///
    /// Candidate evaluations are independent, so with `scope.threads >
    /// 1` they run on worker threads ([`map_chunks`]) — sharing the
    /// read-only incumbent cache (each with its own reusable scoring
    /// scratch from `pool`) in incremental mode, each over its own
    /// scratch clone of the allocation in oracle mode. The reduction (max score, earliest
    /// candidate on ties) makes the result identical to the sequential
    /// order at any thread count and in both scoring modes.
    fn step(
        &self,
        state: &LoopState,
        link: LinkId,
        escape_level: u32,
        scope: &Scope<'_>,
        pool: &[Mutex<ScoreScratch>],
    ) -> Option<Candidate> {
        let (alloc, incumbent) = (&state.alloc, &state.incumbent);
        let initial_score = self
            .config
            .objective
            .score(incumbent.report(), incumbent.outcome());

        let mut candidates = self.gather(
            alloc,
            incumbent,
            &state.index,
            link,
            escape_level,
            scope.excluded,
        );
        if candidates.is_empty() {
            return None;
        }

        let threads = scope.threads.min(candidates.len());
        let scores: Vec<f64> = map_chunks(&candidates, threads, |worker, cands| {
            if self.config.incremental {
                let mut ws = pool[worker].lock().expect("scratch lock poisoned");
                cands
                    .iter()
                    .map(|c| self.score_candidate_incremental(alloc, incumbent, c, &mut ws))
                    .collect()
            } else {
                let mut copy = alloc.clone();
                cands
                    .iter()
                    .map(|c| self.score_candidate_full(&mut copy, c))
                    .collect()
            }
        });

        // Max score; ties keep the earliest candidate (the sequential
        // loop's strict-improvement rule).
        let (best_idx, &best_score) = scores
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.total_cmp(b).then(ib.cmp(ia)))
            .expect("candidates is non-empty");

        // Minimum objective improvement for a move to count as progress.
        const IMPROVEMENT_EPS: f64 = 1e-9;
        if best_score > initial_score + IMPROVEMENT_EPS {
            Some(candidates.swap_remove(best_idx))
        } else {
            None
        }
    }

    /// Commits a candidate onto `state`: applies the move to the
    /// allocation, refreshes the incumbent cache — one in-place delta
    /// patch in incremental mode, a full re-measurement in oracle mode —
    /// registers a brand-new path in the crossing index, and logs the
    /// commit (attributed to `owner`, the shard owning the focus link)
    /// with its trace point. Shared by the loop's winners and the replay
    /// of a per-component pass.
    fn commit(&self, state: &mut LoopState, c: Candidate, owner: usize, started: Instant) -> Move {
        let (alloc, incumbent) = (&mut state.alloc, &mut state.incumbent);
        if self.config.incremental {
            let segment = alloc.bundles_after_move(self.tm, c.aggregate, c.from, &c.alt, c.count);
            incumbent.replace(
                &self.model,
                self.tm,
                [(c.aggregate, segment)],
                &[],
                &mut self.commit.lock().expect("commit scratch lock poisoned"),
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
        state.commits.push((c, m));
        let point = self.trace_point(started, state.commits.len(), &state.incumbent);
        state.trace.push(point);
        m
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
    /// loop — every one a call of [`Optimizer::greedy`]. Also hands back
    /// the crossing index the loop maintained, which the `indexed gather
    /// ≡ scan` property test compares against a rebuilt one.
    fn run_with(&self, initial: Allocation) -> (OptimizeResult, CrossingIndex) {
        let started = Instant::now(); // lint:allow(wall-clock): timing observability only; never feeds a decision
        debug_assert!(initial.validate(self.tm).is_ok());
        let shard_count = shard::shard_count_for(self.topology);
        let partition = RegionPartition::new(self.topology, self.tm, shard_count);
        let pools: Vec<Vec<Mutex<ScoreScratch>>> = (0..=shard_count)
            .map(|_| {
                (0..self.config.threads)
                    .map(|_| Mutex::new(ScoreScratch::default()))
                    .collect()
            })
            .collect();
        let incumbent = self.measure(&initial);
        let mut trace = RunTrace::new();
        trace.push(self.trace_point(started, 0, &incumbent));
        let mut master = LoopState {
            index: CrossingIndex::build(self.topology, self.tm, &initial),
            alloc: initial,
            incumbent,
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
            pools: &pools,
            started,
            shard: None,
            excluded: &self.config.excluded_links,
            threads: self.config.threads,
        };

        // The network utility is a weighted sum over aggregates, and an
        // isolated component shares no links and no aggregates with the
        // rest of the instance, so a pass's improvements carry over
        // exactly to the merged state. The min-max objective does not
        // decompose across components.
        if self.config.objective == Objective::NetworkUtility {
            self.run_passes(&mut master, &whole);
        }
        let termination = self.greedy(&mut master, &whole);
        debug_assert!(master.alloc.validate(self.tm).is_ok());

        let mut scratch = WorkspaceStats::default();
        for (stats, pool) in master.shards.iter_mut().zip(&pools) {
            for ws in pool {
                let ws = ws.lock().expect("scratch lock poisoned");
                stats.scratch.merge(&ws.model.stats());
            }
            scratch.merge(&stats.scratch);
        }
        let (outcome, report) = master.incumbent.into_measurement();
        let result = OptimizeResult {
            allocation: master.alloc,
            trace: master.trace,
            report,
            outcome,
            commits: master.commits.len(),
            moves: master.commits.into_iter().map(|(_, m)| m).collect(),
            termination,
            scratch,
            shards: master.shards,
        };
        (result, master.index)
    }

    /// Per-component passes: every shard
    /// [`shard::isolated_congested_shards`] names optimizes its own
    /// congested links from a private branch of the initial state, side
    /// by side on up to `threads` workers, and the commit sequences are
    /// replayed onto `master` shard-ascending. A pass rescans only its
    /// own component's stuck links, which is where the time goes on
    /// deeply congested regional instances.
    ///
    /// Determinism: every pass depends only on `(config, initial state,
    /// shard id)` and the merge order is fixed (ascending shard id,
    /// commit order within a shard), so the result is **bitwise
    /// identical at any thread count** — the worker assignment decides
    /// only which thread runs which pass, never what a pass computes.
    /// With no isolated congested shard this is one no-op scan.
    fn run_passes(&self, master: &mut LoopState, whole: &Scope<'_>) {
        let jobs = shard::isolated_congested_shards(
            whole.partition,
            &master.index,
            &master.alloc,
            &master.incumbent.outcome().congested,
        );
        if jobs.is_empty() {
            return;
        }
        let workers = whole.threads.min(jobs.len());
        let run_pass = |shard: usize| {
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
                // Workers a short job list leaves idle score candidates.
                threads: whole.threads / workers,
                ..*whole
            };
            let mut state = master.clone();
            self.greedy(&mut state, &scope);
            // Only the log outlives the pass: a branch is O(instance),
            // and keeping every pass's alive until the merge would
            // multiply the run's peak memory by the shard count.
            (state.commits, state.shards[shard].score_s)
        };
        let passes = map_chunks(&jobs, workers, |_, shards| {
            shards.iter().map(|&s| run_pass(s)).collect()
        });

        // Merge: replay every pass's commit sequence onto the master
        // state, shard-ascending, stopping at the global commit cap.
        // Path-set growth per aggregate is confined to its owning
        // shard's pass, so each replayed `add_path` lands on exactly
        // the index the pass recorded.
        for (&shard, (commits, score_s)) in jobs.iter().zip(passes) {
            master.shards[shard].score_s += score_s;
            for (c, recorded) in commits {
                if master.commits.len() >= self.config.max_commits {
                    return;
                }
                let m = self.commit(master, c, shard, whole.started);
                debug_assert_eq!(m, recorded, "pass replay must reproduce the recorded move");
            }
        }
    }

    /// Listing 1: the one greedy loop. Visits the congested links in
    /// `scope` from most to least oversubscribed, commits the best move
    /// of the first link where progress is made, and escalates the move
    /// size on a local optimum. `max_commits` is read against the state's
    /// whole commit log, so it caps the run, not the call.
    fn greedy(&self, state: &mut LoopState, scope: &Scope<'_>) -> Termination {
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
            // lines 6-9); each link's work runs on its owning shard's
            // scratch pool.
            let mut winner: Option<(Candidate, usize)> = None;
            for link in congested {
                let owner = scope.partition.shard_of_link(link);
                // lint:allow(wall-clock): timing observability only; never feeds a decision
                let t0 = Instant::now();
                let found = self.step(state, link, escape_level, scope, &scope.pools[owner]);
                state.shards[owner].score_s += t0.elapsed().as_secs_f64();
                if let Some(c) = found {
                    winner = Some((c, owner));
                    break;
                }
            }

            if let Some((c, owner)) = winner {
                self.commit(state, c, owner, scope.started);
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
/// over a congested instance, gathers one step's candidates, and
/// re-scores them on demand through the exact per-candidate path the
/// inner loop uses; and the crossing-index view the `indexed gather ≡
/// scan` property test reads. Not a public API — gated behind the
/// `test-support` feature and hidden from docs.
#[cfg(feature = "test-support")]
#[doc(hidden)]
pub mod test_support {
    use super::*;
    use std::cell::RefCell;

    /// A crossing index as plain data: per link, the sorted
    /// `(aggregate, path index)` pairs whose path crosses it.
    pub type IndexEntries = Vec<Vec<(u32, u32)>>;

    /// Runs `optimizer` cold and returns the result with two crossing
    /// indices: the one its loop maintained commit by commit, and one
    /// rebuilt from scratch over the final allocation.
    pub fn run_with_index(optimizer: &Optimizer<'_>) -> (OptimizeResult, [IndexEntries; 2]) {
        let (result, maintained) = optimizer.run_with(optimizer.boot());
        let rebuilt = CrossingIndex::build(optimizer.topology, optimizer.tm, &result.allocation);
        (result, [maintained.per_link, rebuilt.per_link])
    }

    /// See the module docs.
    pub struct ScoringHarness<'a> {
        optimizer: Optimizer<'a>,
        alloc: Allocation,
        incumbent: Incumbent,
        candidates: Vec<Candidate>,
        scratch: RefCell<ScoreScratch>,
    }

    impl<'a> ScoringHarness<'a> {
        /// Builds the harness from the boot allocation of a congested
        /// instance; candidates come from the most oversubscribed link.
        ///
        /// # Panics
        ///
        /// Panics when the instance is uncongested or yields no
        /// candidate moves.
        pub fn new(topology: &'a Topology, tm: &'a TrafficMatrix) -> Self {
            let optimizer = Optimizer::new(
                topology,
                tm,
                OptimizerConfig {
                    threads: 1,
                    ..OptimizerConfig::default()
                },
            );
            let alloc = Allocation::all_on_shortest_paths(topology, tm);
            let incumbent = optimizer.measure(&alloc);
            let link = incumbent
                .outcome()
                .congested
                .first()
                .copied()
                .expect("harness instance must be congested");
            let candidates = optimizer.gather(
                &alloc,
                &incumbent,
                &CrossingIndex::build(topology, tm, &alloc),
                link,
                0,
                &optimizer.config.excluded_links,
            );
            assert!(!candidates.is_empty(), "harness needs candidate moves");
            ScoringHarness {
                optimizer,
                alloc,
                incumbent,
                candidates,
                scratch: RefCell::default(),
            }
        }

        /// How many candidate moves one call to
        /// [`ScoringHarness::score_all`] scores.
        pub fn candidate_count(&self) -> usize {
            self.candidates.len()
        }

        /// Scores every candidate through the incremental path and
        /// returns the best score. After the first call has warmed the
        /// scratch buffers, this performs zero heap allocations.
        pub fn score_all(&self) -> f64 {
            let mut best = f64::NEG_INFINITY;
            let mut ws = self.scratch.borrow_mut();
            for c in &self.candidates {
                let s = self.optimizer.score_candidate_incremental(
                    &self.alloc,
                    &self.incumbent,
                    c,
                    &mut ws,
                );
                best = best.max(s);
            }
            best
        }
    }
}

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
                small_demand_threshold: Some(kb(1.0)), // force fractional moves
                ..Default::default()
            },
        )
        .run();
        let without = Optimizer::new(
            &topo,
            &tm,
            OptimizerConfig {
                move_fraction: 0.05,
                small_demand_threshold: Some(kb(1.0)),
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
