//! ### What a step costs
//!
//! A step (`Optimizer::step`, Listing 2) scores every move off one
//! congested link and is where a run's time goes. Four things keep it
//! from repeating work; none of them can change a result bit.
//!
//! **A candidate is a delta, not a world.** Each move perturbs exactly
//! one aggregate's path split, so the optimizer caches the incumbent
//! allocation's measurement (an [`Incumbent`]: the bundle table with
//! per-aggregate spans, its traced flow-model evaluation, and its
//! utility report) and scores a candidate by splicing the moved
//! aggregate's new bundle segment over the cache as a [`BundleDelta`]
//! and scoring it through [`FlowModel::score_delta`] — water-filling
//! re-runs only on the affected bottleneck component, and utilities
//! refresh only for the aggregates whose rates came out different.
//! Rejected candidates never touch the cache; the winner is patched into
//! it **in place** once per commit ([`Incumbent::replace`]), so a commit
//! costs the component too, not the instance. Each evaluation thread
//! owns a reusable scratch (the flow model's epoch-stamped [`Workspace`],
//! the report fold scratch, and the candidate segment buffer), the
//! candidate's network utility is folded through an O(log n) patch of
//! the incumbent report's summation tree, and the min-max objective
//! reads a sparse changed-link overlay — so, past buffer warm-up, a
//! scored move performs zero heap allocations (`tests/zero_alloc.rs`
//! enforces it with a counting allocator), which is what keeps per-move
//! cost flat as instances grow past HE-961.
//!
//!
//!
//! **Workers claim, they are not dealt.** A step's work items are the
//! focus link's crossing-index entries, one run of entries per
//! aggregate; up to [`OptimizerConfig::threads`] workers — the calling
//! thread is one of them — each claim the next unclaimed run from a
//! shared counter, generate that aggregate's alternatives unless the
//! memo's still stand, and score its moves (`map_claimed`). Results are placed
//! by run, so the candidate order — and with it the tie-break, the
//! winner and the memo — is the sequential one at any thread count. A
//! worker's moves and the searches it ran stay in its own scratch until
//! the step joins them, and each probe's result goes into a slot made
//! before the workers start, so past warm-up a step whose alternatives
//! all stand allocates nothing between a worker's claim and its last
//! result (`tests/probe_alloc.rs`): the workers never contend for the
//! allocator.
//!
//! **One bottleneck component per focus link.** Every move off a link
//! takes flows off it, so every candidate of a step re-fills the same
//! set: the link's crossers closed over the incumbent's saturated
//! links, give or take the moved aggregate's own bundles. The step has
//! the incumbent compile that component once before fanning out
//! ([`Incumbent::prepare_component`]: closure, link sums, crossing rows,
//! and the members' satisfaction events already in event order), and
//! [`FlowModel::score_delta`] fills each candidate by patching it —
//! removed bundles frozen from the start, replacement bundles appended,
//! the few links either crosses re-summed — instead of closing, summing
//! and heap-sorting a component of its own. A candidate that changes a
//! saturated link outside the component, and any re-fill after a border
//! expansion, is scored as before. The component lives in the
//! incumbent, so the commit that changes the incumbent drops it.
//!
//! [`FlowModel::score_delta`]: fubar_model::FlowModel::score_delta
//! [`OptimizerConfig::threads`]: super::OptimizerConfig::threads

use super::claim::map_claimed;
use super::memo::{KeptCopy, Memo, Scored};
use super::{LoopState, Optimizer, Scope};
use crate::allocation::{Allocation, Move};
use crate::objective::Objective;
use crate::pathgen;
use fubar_graph::{LinkId, LinkSet, Path};
use fubar_model::{
    score_network_utility_delta, score_network_utility_from_leaves, utility_report, BundleDelta,
    BundleSpec, DeltaScore, Incumbent, ModelOutcome, ReportScratch, UtilityReport, Workspace,
    WorkspaceStats,
};
use fubar_traffic::{Aggregate, AggregateId};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};

/// One tentative move: `count` flows of `aggregate` off its path `from`
/// onto `alt`. Scoring borrows the path from wherever the alternatives
/// live (`Candidate<&Path>`); a step's winner owns it.
pub(super) struct Candidate<P = Path> {
    pub(super) aggregate: AggregateId,
    pub(super) from: usize,
    pub(super) count: u32,
    pub(super) alt: P,
}

/// What every worker of one step reads.
pub(super) struct Focus<'s> {
    pub(super) alloc: &'s Allocation,
    pub(super) incumbent: &'s Incumbent,
    pub(super) memo: &'s Memo,
    /// The congested link the step moves flows off.
    pub(super) link: LinkId,
    pub(super) escape_level: u32,
    /// What the alternatives are generated from; its global avoid set
    /// is the same for every aggregate, so built once.
    pub(super) network: pathgen::Network<'s>,
    /// Whether a score of this step can outlive its incumbent.
    pub(super) keeps: bool,
}

/// What one worker of a step owns while it claims work: its scoring
/// scratch and, in oracle mode, its scratch copy of the allocation.
pub(super) struct Worker<'p> {
    /// Its index in the pool, which `ws` is.
    index: usize,
    pub(super) ws: MutexGuard<'p, ScoreScratch>,
    copy: Option<Allocation>,
}

impl<'p> Worker<'p> {
    /// Worker `index` of a step, on scratch `index` of `pool`, emptied
    /// of what the last step left in it.
    pub(super) fn claim(pool: &'p [Mutex<ScoreScratch>], index: usize) -> Self {
        let mut ws = pool[index].lock().expect("scratch lock poisoned");
        ws.kept_links.clear();
        ws.last_links = 0..0;
        ws.kept_leaves.clear();
        ws.scorings.clear();
        ws.paths.begin_step();
        Worker {
            index,
            ws,
            copy: None,
        }
    }
}

/// One aggregate's part of a step.
pub(super) struct Probed {
    pub(super) aggregate: u32,
    /// What the probe made of its alternatives; `None` when it had no
    /// flows to move.
    pub(super) resolution: Option<pathgen::Resolution>,
    /// The worker that probed it, and where its moves are in that
    /// worker's `ScoreScratch::scorings`, in Listing 2's enumeration
    /// order.
    pub(super) worker: usize,
    pub(super) scored: Range<u32>,
    /// How many of the moves the memo answered, and how many of those
    /// with a score kept from an earlier incumbent.
    hits: usize,
    kept_hits: usize,
}

/// One move of a probe.
pub(super) struct Scoring {
    pub(super) from: u32,
    pub(super) count: u32,
    /// The move's path: candidate `alt` of the aggregate's resolution
    /// (`pathgen::Resolution::answer`).
    alt: u32,
    score: f64,
    /// Whether this probe scored the move (the memo had no score).
    fresh: bool,
    /// What would let a fresh score outlive its incumbent, when its
    /// leaves fit the step's cap.
    kept: Option<Keepable>,
}

/// Where in worker `worker`'s scratch a fresh score left the links it
/// read and its leaves (see `ScoreScratch::kept_links`).
pub(super) struct Keepable {
    pub(super) worker: usize,
    pub(super) links: Range<u32>,
    pub(super) leaves: Range<u32>,
}

/// One evaluation thread's reusable scoring scratch: the flow-model
/// [`Workspace`], the report-fold scratch, and the candidate bundle
/// segment buffer. Past warm-up, scoring a candidate move allocates
/// nothing (enforced by the counting-allocator test in
/// `tests/zero_alloc.rs`).
#[derive(Default)]
pub(super) struct ScoreScratch {
    model: Workspace,
    report: ReportScratch,
    segment: Vec<BundleSpec>,
    /// What the keepable scores of the current step read and changed,
    /// back to back ([`Keepable`] names ranges of them), so the
    /// scoring path allocates nothing: the links, a run of equal sets
    /// stored once (the last one stored is `last_links`), and the
    /// leaves. Reset when a step hands the scratch to a worker.
    pub(super) kept_links: Vec<u32>,
    last_links: Range<u32>,
    pub(super) kept_leaves: Vec<(u32, f64)>,
    /// Sort scratch of the links one score read.
    read: Vec<u32>,
    /// The moves this worker scored in the current step, back to back
    /// ([`Probed::scored`] names its range).
    pub(super) scorings: Vec<Scoring>,
    /// Where the worker resolves alternatives, and the searches it ran
    /// in the current step.
    pub(super) paths: pathgen::PathScratch,
    /// Where debug builds re-fill every move whose kept score they
    /// take, to check it, off the books of the fill counters.
    #[cfg(debug_assertions)]
    audit: Option<Box<ScoreScratch>>,
}

/// The summed statistics of a scratch pool: fill counts added up, peaks
/// maxed.
pub(super) fn pool_stats(pool: &[Mutex<ScoreScratch>]) -> WorkspaceStats {
    let mut stats = WorkspaceStats::default();
    for ws in pool {
        stats.merge(&ws.lock().expect("scratch lock poisoned").model.stats());
    }
    stats
}

/// The path of the move `s` of probe `p`: `p`'s candidate `s.alt`,
/// resolved against the alternatives `memo` kept before the step.
pub(super) fn alt_path<'a>(memo: &'a Memo, p: &'a Probed, s: &Scoring) -> &'a Arc<Path> {
    let resolution = (p.resolution.as_ref()).expect("a probe with moves resolved its paths");
    (resolution.answer(memo.alts.get(&p.aggregate), s.alt as usize))
        .expect("a scored move's path is among the candidates")
}

impl<'a> Optimizer<'a> {
    fn eval(&self, alloc: &Allocation) -> (ModelOutcome, UtilityReport) {
        let bundles = alloc.bundles(self.tm);
        let outcome = self.model.evaluate(&bundles);
        let report = utility_report(self.tm, &bundles, &outcome);
        (outcome, report)
    }

    /// What alternatives are generated from under `alloc` and `outcome`
    /// when no path may use `forbidden`; `avoid` is
    /// `pathgen::congested_or_forbidden` of the two.
    pub(super) fn network<'s>(
        &'s self,
        alloc: &'s Allocation,
        outcome: &'s ModelOutcome,
        forbidden: &'s LinkSet,
        avoid: &'s LinkSet,
    ) -> pathgen::Network<'s> {
        pathgen::Network {
            graph: self.topology.graph(),
            allocation: alloc,
            outcome,
            policy: self.config.path_policy,
            forbidden,
            avoid,
        }
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
    fn score_candidate_full(&self, scratch: &mut Allocation, c: Candidate<&Path>) -> f64 {
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
    /// patch, min-max via the sparse link-demand overlay, which only
    /// that arm asks for ([`FlowModel::changed_link_demand`]). Past
    /// scratch warm-up this path performs **zero heap allocations** per
    /// scored move. Bitwise identical to
    /// [`Optimizer::score_candidate_full`].
    ///
    /// [`FlowModel::changed_link_demand`]: fubar_model::FlowModel::changed_link_demand
    /// [`FlowModel::score_delta`]: fubar_model::FlowModel::score_delta
    pub(super) fn score_candidate_incremental(
        &self,
        alloc: &Allocation,
        incumbent: &Incumbent,
        c: Candidate<&Path>,
        ws: &mut ScoreScratch,
    ) -> f64 {
        let seg_len = alloc.bundles_after_move_into(
            self.tm,
            c.aggregate,
            c.from,
            c.alt,
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
        let DeltaScore { affected, rates } =
            self.model
                .score_delta(incumbent.eval(), &delta, &mut ws.model);
        match self.config.objective {
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
                let changed_link_demand =
                    self.model
                        .changed_link_demand(incumbent.eval(), &delta, &mut ws.model);
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
        }
    }

    /// One aggregate's part of Listing 2's candidate enumeration: every
    /// (flow path × alternative) move off `focus.link` for the
    /// aggregate owning `run` — its run of the link's crossing-index
    /// entries — scored. The same moves, in the same order, as the
    /// full-matrix `Allocation::flow_paths_over` scan yields for the
    /// aggregate, found without mutating the allocation. Alternatives
    /// and scores the memo holds are read from it; the rest are
    /// generated and scored here, on `worker`'s scratch.
    pub(super) fn probe(
        &self,
        focus: &Focus<'_>,
        run: &[(u32, u32)],
        worker: &mut Worker<'_>,
    ) -> Probed {
        let aggregate = run[0].0;
        let agg_id = AggregateId(aggregate);
        let agg = self.tm.aggregate(agg_id);
        let start = worker.ws.scorings.len() as u32;
        let mut probed = Probed {
            aggregate,
            resolution: None,
            worker: worker.index,
            scored: start..start,
            hits: 0,
            kept_hits: 0,
        };
        // The aggregate's live flow paths over the link, each with how
        // many flows a move takes off it.
        let mut live = (run.iter())
            .filter_map(|&(_, from)| {
                let on_path = focus.alloc.flows_on(agg_id, from as usize);
                let count = match on_path {
                    0 => 0,
                    _ => self.flows_to_move(agg, on_path, focus.escape_level),
                };
                (count > 0).then_some((from, count))
            })
            .peekable();
        if live.peek().is_none() {
            return probed;
        }

        // Each kept search stands while no link it read has flipped.
        let known = focus.memo.alts.get(&aggregate);
        let resolution = worker.ws.paths.resolve(&focus.network, agg, known);

        for (from, count) in live {
            for (alt_idx, shared) in resolution.candidates(known) {
                let alt = &**shared;
                // The alternate path must exclude the congested link and
                // differ from the source path.
                if alt.uses_link(focus.link)
                    || alt == focus.alloc.path_set(agg_id).path(from as usize)
                {
                    continue;
                }
                let mut scoring = Scoring {
                    from,
                    count,
                    alt: alt_idx as u32,
                    score: 0.0,
                    fresh: false,
                    kept: None,
                };
                match focus.memo.score_of(aggregate, from, count, shared) {
                    Some(e) if e.at == focus.memo.commits => {
                        probed.hits += 1;
                        scoring.score = e.score;
                    }
                    Some(e) => {
                        // Nothing it read has been re-filled since: its
                        // leaves stand, and the tree they fold into is
                        // the current one.
                        probed.hits += 1;
                        probed.kept_hits += 1;
                        let kept = e.kept.as_ref().expect("a score past its incumbent is kept");
                        scoring.score = score_network_utility_from_leaves(
                            self.tm,
                            focus.incumbent.report(),
                            &kept.leaves,
                            &mut worker.ws.report,
                        );
                        #[cfg(debug_assertions)]
                        {
                            let c = Candidate {
                                aggregate: agg_id,
                                from: from as usize,
                                count,
                                alt,
                            };
                            let audit = worker.ws.audit.get_or_insert_with(Box::default);
                            let fresh = self.score_candidate_incremental(
                                focus.alloc,
                                focus.incumbent,
                                c,
                                audit,
                            );
                            assert_eq!(
                                fresh.to_bits(),
                                scoring.score.to_bits(),
                                "kept score of aggregate {aggregate}'s move off path {from} \
                                 differs from a fresh fill"
                            );
                        }
                    }
                    None => {
                        let c = Candidate {
                            aggregate: agg_id,
                            from: from as usize,
                            count,
                            alt,
                        };
                        scoring.fresh = true;
                        if self.config.incremental {
                            scoring.score = self.score_candidate_incremental(
                                focus.alloc,
                                focus.incumbent,
                                c,
                                &mut worker.ws,
                            );
                            scoring.kept = focus.keeps.then(|| self.keepable(worker));
                        } else {
                            let copy = worker.copy.get_or_insert_with(|| focus.alloc.clone());
                            scoring.score = self.score_candidate_full(copy, c);
                        }
                    }
                }
                worker.ws.scorings.push(scoring);
            }
        }
        probed.scored = start..worker.ws.scorings.len() as u32;
        probed.resolution = Some(resolution);
        probed
    }

    /// What the incremental scoring just run on `worker` read and
    /// changed, copied out for a score that can outlive its incumbent.
    /// They stay in `worker`'s scratch until the step decides what to
    /// keep, so scoring allocates nothing past warm-up. Moves off one
    /// link mostly re-fill the same component, so a run of scores that
    /// read the same links stores them once.
    fn keepable(&self, worker: &mut Worker<'_>) -> Keepable {
        let ws = &mut *worker.ws;
        let start = ws.kept_leaves.len() as u32;
        ws.kept_leaves.extend_from_slice(ws.report.leaves());
        let leaves = start..ws.kept_leaves.len() as u32;
        ws.read.clear();
        ws.read.extend(ws.model.filled_links());
        ws.read.sort_unstable();
        ws.read.dedup();
        let last = &ws.kept_links[ws.last_links.start as usize..ws.last_links.end as usize];
        if last != ws.read.as_slice() {
            let start = ws.kept_links.len() as u32;
            ws.kept_links.extend_from_slice(&ws.read);
            ws.last_links = start..ws.kept_links.len() as u32;
        }
        Keepable {
            worker: worker.index,
            links: ws.last_links.clone(),
            leaves,
        }
    }

    /// Listing 2: one step focused on `link`. Tries all (flow path ×
    /// alternative) moves and returns the best improving one, if any.
    ///
    /// The aggregates crossing `link` are independent work items, so
    /// with more than one thread workers claim them ([`map_claimed`]) —
    /// sharing the read-only incumbent cache and memo, each with its own
    /// reusable scoring scratch from the run's pool and, in oracle mode,
    /// its own scratch clone of the allocation. Their results come back
    /// in crossing-index order, and the reduction (max score, earliest
    /// candidate on ties) makes the winner the sequential loop's at any
    /// thread count and in both scoring modes. What the workers found
    /// out then joins the memo, unless this is the oracle, and the fills
    /// they ran are credited to shard `owner`.
    pub(super) fn step(
        &self,
        state: &mut LoopState,
        memo: &mut Memo,
        link: LinkId,
        escape_level: u32,
        scope: &Scope<'_>,
        owner: usize,
    ) -> Option<Candidate> {
        let LoopState {
            alloc,
            incumbent,
            index,
            shards,
            ..
        } = state;
        if self.config.incremental {
            incumbent.prepare_component(&self.model, link);
        }
        let incumbent = &*incumbent;
        let outcome = incumbent.outcome();
        let initial_score = self.config.objective.score(incumbent.report(), outcome);
        let avoid = pathgen::congested_or_forbidden(outcome, scope.excluded);
        // One work item per aggregate is one resolution of its
        // alternatives per aggregate.
        let runs: Vec<&[(u32, u32)]> = index.runs(link).collect();
        // Only network-utility scores can outlive the incumbent (min-max
        // reads every link's demand), and none can when the focus link's
        // component holds every saturated link: any commit then
        // re-fills the focus link, which every fill of this step read.
        // A step whose scores cannot outlive it records nothing.
        let keeps = self.config.objective == Objective::NetworkUtility
            && !incumbent.component_holds_every_saturated(link);
        let focus = Focus {
            alloc,
            incumbent,
            memo,
            link,
            escape_level,
            network: self.network(alloc, outcome, scope.excluded, &avoid),
            keeps,
        };
        let filled = pool_stats(scope.pool);
        let probed = map_claimed(
            &runs,
            scope.pool.len(),
            |index| Worker::claim(scope.pool, index),
            |worker, run| self.probe(&focus, run, worker),
        );
        let now = pool_stats(scope.pool);
        let stats = &mut shards[owner];
        stats.scratch.fills += now.fills - filled.fills;
        stats.scratch.compiled_fills += now.compiled_fills - filled.compiled_fills;

        // What the workers left in their scratches: the moves they
        // scored, the searches they ran and what scores would keep.
        let arenas: Vec<MutexGuard<'_, ScoreScratch>> = (scope.pool.iter())
            .map(|ws| ws.lock().expect("scratch lock poisoned"))
            .collect();
        let scorings = |p: &Probed| {
            let range = p.scored.start as usize..p.scored.end as usize;
            &arenas[p.worker].scorings[range]
        };

        // Max score; only a strictly better score displaces the best so
        // far, so ties keep the earliest candidate (the sequential
        // loop's strict-improvement rule).
        let mut best: Option<(f64, &Probed, &Scoring)> = None;
        for p in &probed {
            for s in scorings(p) {
                if best.is_none_or(|(b, ..)| s.score.total_cmp(&b).is_gt()) {
                    best = Some((s.score, p, s));
                }
            }
        }
        // Minimum objective improvement for a move to count as progress.
        const IMPROVEMENT_EPS: f64 = 1e-9;
        let winner = best
            .filter(|&(score, ..)| score > initial_score + IMPROVEMENT_EPS)
            .map(|(_, p, s)| Candidate {
                aggregate: AggregateId(p.aggregate),
                from: s.from as usize,
                count: s.count,
                alt: Path::clone(alt_path(memo, p, s)),
            });

        let mut kept_copy = KeptCopy::default();
        for p in &probed {
            let Some(resolution) = &p.resolution else {
                continue;
            };
            stats.paths_generated += usize::from(resolution.generated);
            stats.paths_reused += usize::from(!resolution.generated);
            stats.searches += resolution.searches_run;
            if !self.config.incremental {
                continue;
            }
            self.memo_hits.fetch_add(p.hits, Ordering::Relaxed);
            stats.scores_kept += p.kept_hits;
            // Every move of a winning step read the focus link, which
            // its commit re-fills: none of its scores could outlive it.
            if winner.is_none() {
                for s in scorings(p).iter().filter(|s| s.fresh) {
                    let entry = Scored {
                        from: s.from,
                        count: s.count,
                        alt: Arc::clone(alt_path(memo, p, s)),
                        at: memo.commits,
                        score: s.score,
                        kept: s.kept.as_ref().map(|k| kept_copy.take(&arenas, k)),
                    };
                    memo.insert(p.aggregate, entry);
                }
            }
        }
        // The searches the workers ran join the kept alternatives; the
        // oracle keeps none.
        if self.config.incremental {
            for p in probed {
                if let Some(resolution) = p.resolution {
                    let ran = &arenas[p.worker].paths;
                    resolution.keep(&mut memo.alts, p.aggregate, ran);
                }
            }
        }
        winner
    }
}
