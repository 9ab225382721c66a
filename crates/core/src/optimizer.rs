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
//! **Nothing is worked out twice while what it depends on stands.**
//! The greedy loop keeps a memo with two kinds of entry, each dropped
//! when — and only when — one of its inputs moves. *A score stands until
//! a commit re-fills something its fill read*: the score of a move
//! `(aggregate, from, count, alternative path)` is a function of the
//! incumbent alone — not of the focus link, not of the escape level —
//! so the same move reached again from a second congested link its path
//! crosses, or re-gathered at the next escape level with an unchanged
//! `count`, is looked up instead of re-filled. Nor does every commit
//! change it. A candidate's fill read only the links its final component
//! crosses and the links its removed and replacement bundles cross
//! ([`Workspace::filled_links`]), and its network utility is the
//! incumbent report's summation tree with a few leaves replaced: the
//! moved aggregate's and those of the aggregates a re-filled bundle of
//! which came out at a new rate. A commit re-derives the same two kinds
//! of link for its own move ([`PatchScratch::refilled_links`]), so the
//! memo stamps each link, and each aggregate owning a re-filled bundle
//! ([`PatchScratch::refilled_bundles`]) or moved, with the ordinal of
//! the last commit that re-filled it. A score survives a commit iff no
//! link it read and no aggregate among its leaves carries a newer stamp:
//! everything the fill read is then as it was, up to the monotone
//! renumbering a resized segment leaves behind, which no fill can see.
//! A surviving score is not reused as a number, because another
//! component's commit moved other leaves of the tree: its kept leaves
//! are folded into the current tree
//! ([`score_network_utility_from_leaves`]), the O(log n) patch a fresh
//! scoring ends with too; debug builds re-fill the move as well and
//! assert the same bits. Only network-utility scores survive (min-max
//! reads every link's demand), only winner-less steps keep scores (every
//! move of a winning step reads the focus link, which its commit
//! re-fills), and a score keeps its leaves only if it has at most
//! `aggregates / work items of its step` of them and the whole memo
//! then holds at most `aggregates`; any other score dies at the next
//! commit. Scores are keyed by the alternative path, not by its index,
//! so they outlive a regeneration of the alternatives.
//! *An alternative stands while what its search read stands*: each of
//! an aggregate's three paths is one lowest-delay search avoiding a set
//! of links — the congested-or-excluded ones, the congested ones its
//! own live paths use, or the most oversubscribed of those (the list is
//! derived in [`crate::pathgen`]) — and a search reads only the
//! out-links of the nodes it settles before its target. The memo keeps
//! every search with what it read (its settled tree and the avoided
//! links it skipped); a probe recomputes the three avoid sets — a walk
//! of the aggregate's own path links — and runs a search again only
//! when a link that flipped in or out of its avoid set is one the
//! search could have read ([`fubar_graph::SearchRecord::stands`], proved in
//! [`crate::pathgen`]). A search that would avoid what an earlier one
//! of the three avoids is not run: the candidate list drops its answer
//! as a duplicate anyway. Most commits flip no link, and most flips are
//! far from a given aggregate, so alternatives live for the run like
//! scores — across commits and changes of the congested set, and from
//! one per-component pass into the next and into the whole-instance
//! loop, a pass's exclusions being only more avoided links. The
//! candidate list is re-derived from the three searches every time —
//! global, local, link-local, later duplicates dropped — so it is what
//! three fresh searches would give.
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
//! The invariant (mirroring the fabric's measurement invariant, enforced
//! by property tests in `tests/properties.rs`): **a default run is
//! bitwise identical to a full-recompute run**, move for move.
//! [`OptimizerConfig::incremental`] selects that oracle: it rebuilds
//! every bundle and re-runs full water-filling for every candidate of
//! every step, runs every search of every aggregate in every step that
//! meets it, never writes the memo (so never finds anything in it)
//! and never prepares a component, so it audits the delta scoring, both
//! halves of the memo and the patched fills alike.

use crate::allocation::{Allocation, Move};
use crate::objective::Objective;
use crate::pathgen::{self, PathPolicy};
use crate::recorder::{RunTrace, TracePoint};
use crate::shard::{self, CrossingIndex, RegionPartition, ShardRunStats};
use fubar_graph::Path;
use fubar_graph::{LinkId, LinkSet};
use fubar_model::{
    score_network_utility_delta, score_network_utility_from_leaves, utility_report, BundleDelta,
    BundleSpec, DeltaScore, FlowModel, Incumbent, ModelOutcome, PatchScratch, ReportScratch,
    UtilityReport, Workspace, WorkspaceStats,
};
use fubar_topology::{Bandwidth, Topology};
use fubar_traffic::{Aggregate, AggregateId, TrafficMatrix};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
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

/// One tentative move: `count` flows of `aggregate` off its path `from`
/// onto `alt`. Scoring borrows the path from wherever the alternatives
/// live (`Candidate<&Path>`); a step's winner owns it.
struct Candidate<P = Path> {
    aggregate: AggregateId,
    from: usize,
    count: u32,
    alt: P,
}

/// What the loop has worked out and need not work out again while what
/// it depends on stands (see the module docs): scores until a commit
/// re-fills something they read, searches for alternatives until a
/// link they read flips in or out of their avoid set. One per run.
/// Looked up by key; only a commit walks the scores, to drop the ones
/// it invalidated.
#[derive(Default)]
struct Memo {
    /// Per aggregate, the searches its alternatives came from.
    alts: BTreeMap<u32, pathgen::Alternatives>,
    /// Per aggregate, the scored moves of it that still stand against
    /// the current incumbent: every entry here is valid (a commit drops
    /// the ones it invalidates).
    scores: BTreeMap<u32, Vec<Scored>>,
    /// Commits this memo has seen: the ordinal of the current
    /// incumbent.
    commits: u32,
    /// Per link and per aggregate, the ordinal of the last commit that
    /// re-filled it (0: none yet).
    link_stamp: Vec<u32>,
    agg_stamp: Vec<u32>,
    /// Leaves the kept entries hold, together: at most one report's
    /// worth (the aggregate count).
    leaves_held: usize,
}

/// The score of the move of `count` flows of an aggregate off its path
/// `from` onto `alt`. The path itself is the key, not its index among
/// the aggregate's alternatives, which a regeneration renumbers.
struct Scored {
    from: u32,
    count: u32,
    alt: Arc<Path>,
    /// The ordinal of the incumbent `score` is against.
    at: u32,
    score: f64,
    /// What lets the score outlive its incumbent; without it the entry
    /// dies at the next commit.
    kept: Option<Kept>,
}

/// What a scoring read and what it changed: the links its fill read,
/// ascending, and its changed fold-tree leaves as `(aggregate,
/// utility)`. The score stands as long as no commit re-fills one of
/// those links or any bundle of those aggregates, and is re-derived by
/// folding the leaves into the current report's tree.
struct Kept {
    links: Arc<[u32]>,
    leaves: Box<[(u32, f64)]>,
}

/// Copies kept scores out of the workers' scratches, sharing one copy
/// of a link set among the scores that name the same range of it.
#[derive(Default)]
struct KeptCopy {
    /// Per worker, the range of its scratch copied last, and the copy.
    last: Vec<Option<Shared>>,
}

/// A range of a worker's link scratch and the one copy made of it.
type Shared = (Range<u32>, Arc<[u32]>);

impl KeptCopy {
    fn take(&mut self, arenas: &[MutexGuard<'_, ScoreScratch>], k: &Keepable) -> Kept {
        let ws = &arenas[k.worker];
        let range = |r: &Range<u32>| r.start as usize..r.end as usize;
        self.last.resize(arenas.len(), None);
        let links = match &self.last[k.worker] {
            Some((r, links)) if *r == k.links => Arc::clone(links),
            _ => {
                let links: Arc<[u32]> = Arc::from(&ws.kept_links[range(&k.links)]);
                self.last[k.worker] = Some((k.links.clone(), Arc::clone(&links)));
                links
            }
        };
        Kept {
            links,
            leaves: ws.kept_leaves[range(&k.leaves)].into(),
        }
    }
}

impl Memo {
    fn new(links: usize, aggregates: usize) -> Self {
        Memo {
            link_stamp: vec![0; links],
            agg_stamp: vec![0; aggregates],
            ..Memo::default()
        }
    }

    /// The entry for a move, if one stands. An entry scored against the
    /// same generation of alternatives shares its path.
    fn score_of(&self, aggregate: u32, from: u32, count: u32, alt: &Arc<Path>) -> Option<&Scored> {
        (self.scores.get(&aggregate)?.iter()).find(|e| {
            e.from == from && e.count == count && (Arc::ptr_eq(&e.alt, alt) || e.alt == *alt)
        })
    }

    /// Whether `e` read nothing a commit after it re-filled.
    fn stands(&self, e: &Scored) -> bool {
        e.kept.as_ref().is_some_and(|k| {
            k.links.iter().all(|&l| self.link_stamp[l as usize] <= e.at)
                && (k.leaves.iter()).all(|&(a, _)| self.agg_stamp[a as usize] <= e.at)
        })
    }

    /// Stamps what the commit just landed in `state` re-filled — its
    /// links, the owners of its re-filled bundles and the moved
    /// aggregate — and drops every score that read any of it.
    fn note_commit(&mut self, state: &LoopState, moved: AggregateId) {
        self.commits += 1;
        let now = self.commits;
        for l in state.patch.refilled_links() {
            self.link_stamp[l as usize] = now;
        }
        let bundles = state.incumbent.bundles();
        for &bi in state.patch.refilled_bundles() {
            self.agg_stamp[bundles[bi as usize].aggregate.index()] = now;
        }
        self.agg_stamp[moved.index()] = now;
        let mut scores = std::mem::take(&mut self.scores);
        scores.retain(|_, entries| {
            entries.retain(|e| {
                let stands = self.stands(e);
                if !stands {
                    self.leaves_held -= e.kept.as_ref().map_or(0, |k| k.leaves.len());
                }
                stands
            });
            !entries.is_empty()
        });
        self.scores = scores;
    }

    /// Adds a score of a move of `aggregate`. The memo keeps at most one
    /// report's worth of leaves (the aggregate count): a score whose
    /// leaves do not fit any more is kept for its own incumbent only.
    fn insert(&mut self, aggregate: u32, mut entry: Scored) {
        let fits = |k: &Kept| self.leaves_held + k.leaves.len() <= self.agg_stamp.len();
        entry.kept = entry.kept.filter(fits);
        self.leaves_held += entry.kept.as_ref().map_or(0, |k| k.leaves.len());
        self.scores.entry(aggregate).or_default().push(entry);
    }
}

/// What every worker of one step reads.
struct Focus<'s> {
    alloc: &'s Allocation,
    incumbent: &'s Incumbent,
    memo: &'s Memo,
    /// The congested link the step moves flows off.
    link: LinkId,
    escape_level: u32,
    /// What the alternatives are generated from; its global avoid set
    /// is the same for every aggregate, so built once.
    network: pathgen::Network<'s>,
    /// The most leaves a score of this step may keep: the aggregate
    /// count over the step's work items; `None` when no score of the
    /// step can outlive its incumbent.
    leaf_cap: Option<usize>,
}

/// What one worker of a step owns while it claims work: its scoring
/// scratch and, in oracle mode, its scratch copy of the allocation.
struct Worker<'p> {
    /// Its index in the pool, which `ws` is.
    index: usize,
    ws: MutexGuard<'p, ScoreScratch>,
    copy: Option<Allocation>,
}

impl<'p> Worker<'p> {
    /// Worker `index` of a step, on scratch `index` of `pool`, emptied
    /// of what the last step left in it.
    fn claim(pool: &'p [Mutex<ScoreScratch>], index: usize) -> Self {
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
struct Probed {
    aggregate: u32,
    /// What the probe made of its alternatives; `None` when it had no
    /// flows to move.
    resolution: Option<pathgen::Resolution>,
    /// The worker that probed it, and where its moves are in that
    /// worker's `ScoreScratch::scorings`, in Listing 2's enumeration
    /// order.
    worker: usize,
    scored: Range<u32>,
    /// How many of the moves the memo answered, and how many of those
    /// with a score kept from an earlier incumbent.
    hits: usize,
    kept_hits: usize,
}

/// One move of a probe.
struct Scoring {
    from: u32,
    count: u32,
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
struct Keepable {
    worker: usize,
    links: Range<u32>,
    leaves: Range<u32>,
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
    /// What the keepable scores of the current step read and changed,
    /// back to back ([`Keepable`] names ranges of them), so the
    /// scoring path allocates nothing: the links, a run of equal sets
    /// stored once (the last one stored is `last_links`), and the
    /// leaves. Reset when a step hands the scratch to a worker.
    kept_links: Vec<u32>,
    last_links: Range<u32>,
    kept_leaves: Vec<(u32, f64)>,
    /// Sort scratch of the links one score read.
    read: Vec<u32>,
    /// The moves this worker scored in the current step, back to back
    /// ([`Probed::scored`] names its range).
    scorings: Vec<Scoring>,
    /// Where the worker resolves alternatives, and the searches it ran
    /// in the current step.
    paths: pathgen::PathScratch,
    /// Where debug builds re-fill every move whose kept score they
    /// take, to check it, off the books of the fill counters.
    #[cfg(debug_assertions)]
    audit: Option<Box<ScoreScratch>>,
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

/// The summed statistics of a scratch pool: fill counts added up, peaks
/// maxed.
fn pool_stats(pool: &[Mutex<ScoreScratch>]) -> WorkspaceStats {
    let mut stats = WorkspaceStats::default();
    for ws in pool {
        stats.merge(&ws.lock().expect("scratch lock poisoned").model.stats());
    }
    stats
}

/// Maps `work` over `items` on at most `workers` workers and returns the
/// results in item order. The calling thread is worker 0 and the rest
/// are scoped threads; each builds its own state with `init` (handed its
/// worker number, so worker `i` can own scratch `i`) and then claims the
/// next unclaimed item until none is left, so an expensive item delays
/// one worker, not the items dealt after it. Each result goes straight
/// into its item's slot, made before any worker starts, so a worker's
/// claims allocate nothing of their own, and which worker ran what never
/// shows in the result. A worker's panic resurfaces on the caller with
/// its own payload.
fn map_claimed<T: Sync, S, R: Send + Sync>(
    items: &[T],
    workers: usize,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    // Relaxed: the counter only hands out indices. The items were
    // shared before any thread started and results travel through
    // `join`.
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    let run = |worker: usize| {
        let mut state = init(worker);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return;
            };
            let placed = slots[i].set(work(&mut state, item));
            debug_assert!(placed.is_ok(), "item {i} claimed twice");
        }
    };
    let workers = workers.min(items.len());
    if workers <= 1 {
        run(0);
    } else {
        std::thread::scope(|scope| {
            let run = &run;
            let spawned: Vec<_> = (1..workers)
                .map(|worker| scope.spawn(move || run(worker)))
                .collect();
            run(0);
            for handle in spawned {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            }
        });
    }
    slots
        .into_iter()
        .map(|r| r.into_inner().expect("every item is claimed exactly once"))
        .collect()
}

/// The path of the move `s` of probe `p`: `p`'s candidate `s.alt`,
/// resolved against the alternatives `memo` kept before the step.
fn alt_path<'a>(memo: &'a Memo, p: &'a Probed, s: &Scoring) -> &'a Arc<Path> {
    let resolution = (p.resolution.as_ref()).expect("a probe with moves resolved its paths");
    (resolution.answer(memo.alts.get(&p.aggregate), s.alt as usize))
        .expect("a scored move's path is among the candidates")
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

    /// What alternatives are generated from under `alloc` and `outcome`
    /// when no path may use `forbidden`; `avoid` is
    /// `pathgen::congested_or_forbidden` of the two.
    fn network<'s>(
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
    fn score_candidate_incremental(
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
    fn probe(&self, focus: &Focus<'_>, run: &[(u32, u32)], worker: &mut Worker<'_>) -> Probed {
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
                            scoring.kept = (focus.leaf_cap)
                                .and_then(|leaf_cap| self.keepable(worker, leaf_cap));
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

    /// What the incremental scoring just run on `ws` read and changed,
    /// copied out, if the score can outlive its incumbent: only a
    /// network-utility score can (min-max reads every link's demand),
    /// and only with at most `leaf_cap` changed leaves.
    /// They stay in `worker`'s scratch until the step decides what to
    /// keep, so scoring allocates nothing past warm-up. Moves off one
    /// link mostly re-fill the same component, so a run of scores that
    /// read the same links stores them once.
    fn keepable(&self, worker: &mut Worker<'_>, leaf_cap: usize) -> Option<Keepable> {
        let ws = &mut *worker.ws;
        let leaves = ws.report.leaves();
        if self.config.objective != Objective::NetworkUtility || leaves.len() > leaf_cap {
            return None;
        }
        let start = ws.kept_leaves.len() as u32;
        ws.kept_leaves.extend_from_slice(leaves);
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
        Some(Keepable {
            worker: worker.index,
            links: ws.last_links.clone(),
            leaves,
        })
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
    fn step(
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
        // When the focus link's component holds every saturated link,
        // any commit re-fills the focus link, which every fill of this
        // step read: none of its scores can outlive the incumbent, so
        // none records what it read.
        let leaf_cap = (!incumbent.component_holds_every_saturated(link))
            .then(|| self.tm.len() / runs.len().max(1));
        let focus = Focus {
            alloc,
            incumbent,
            memo,
            link,
            escape_level,
            network: self.network(alloc, outcome, scope.excluded, &avoid),
            leaf_cap,
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
pub mod test_support {
    use super::*;

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

    /// How many candidate scores the per-incumbent memo has answered
    /// over every run of `optimizer` so far (always 0 in oracle mode).
    pub fn memo_hits(optimizer: &Optimizer<'_>) -> usize {
        optimizer.memo_hits.load(Ordering::Relaxed)
    }

    /// See the module docs.
    pub struct ScoringHarness<'a> {
        optimizer: Optimizer<'a>,
        alloc: Allocation,
        incumbent: Incumbent,
        candidates: Vec<Candidate>,
        scratch: Mutex<ScoreScratch>,
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
            let mut incumbent = optimizer.measure(&alloc);
            let link = incumbent
                .outcome()
                .congested
                .first()
                .copied()
                .expect("harness instance must be congested");
            // What a step does first, then its own enumeration against
            // an empty memo.
            incumbent.prepare_component(&optimizer.model, link);
            let excluded = &optimizer.config.excluded_links;
            let avoid = pathgen::congested_or_forbidden(incumbent.outcome(), excluded);
            let memo = Memo::default();
            let focus = Focus {
                alloc: &alloc,
                incumbent: &incumbent,
                memo: &memo,
                link,
                escape_level: 0,
                network: optimizer.network(&alloc, incumbent.outcome(), excluded, &avoid),
                leaf_cap: None,
            };
            let scratch = [Mutex::new(ScoreScratch::default())];
            let mut worker = Worker::claim(&scratch, 0);
            let index = CrossingIndex::build(topology, tm, &alloc);
            let mut candidates = Vec::new();
            for run in index.runs(link) {
                let p = optimizer.probe(&focus, run, &mut worker);
                let range = p.scored.start as usize..p.scored.end as usize;
                for s in &worker.ws.scorings[range] {
                    candidates.push(Candidate {
                        aggregate: AggregateId(p.aggregate),
                        from: s.from as usize,
                        count: s.count,
                        alt: Path::clone(alt_path(&memo, &p, s)),
                    });
                }
            }
            drop(worker);
            let [scratch] = scratch;
            assert!(!candidates.is_empty(), "harness needs candidate moves");
            ScoringHarness {
                optimizer,
                alloc,
                incumbent,
                candidates,
                scratch,
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
            let mut ws = self.scratch.lock().expect("scratch lock poisoned");
            for c in &self.candidates {
                let c = Candidate {
                    aggregate: c.aggregate,
                    from: c.from,
                    count: c.count,
                    alt: &c.alt,
                };
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

    /// What one [`ProbeHarness::fan_out`] did.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct FanOut {
        /// Aggregates whose alternatives were resolved.
        pub probes: usize,
        /// How many of those had a search run again or dropped.
        pub generated: usize,
        /// Searches run.
        pub searches: usize,
        /// Moves scored or looked up.
        pub moves: usize,
    }

    /// The fan-out of one step, on the boot state of a congested
    /// instance and its most oversubscribed link, run as often as asked:
    /// workers claim the link's aggregates and probe them exactly as
    /// [`Optimizer::step`] has them do, and the searches they ran join
    /// the kept alternatives as in a step. Scores are not kept, so every
    /// fan-out scores every move.
    pub struct ProbeHarness<'a> {
        optimizer: Optimizer<'a>,
        alloc: Allocation,
        incumbent: Incumbent,
        index: CrossingIndex,
        link: LinkId,
        /// The global search's avoid set: the congested links, until
        /// [`ProbeHarness::flip`] changes it.
        avoid: LinkSet,
        memo: Memo,
        pool: Vec<Mutex<ScoreScratch>>,
    }

    /// A worker of a [`ProbeHarness`] fan-out, and the call that closes
    /// its window when the worker is done.
    struct Windowed<'p> {
        worker: Worker<'p>,
        window: fn(bool),
    }

    impl Drop for Windowed<'_> {
        fn drop(&mut self) {
            (self.window)(false);
        }
    }

    impl<'a> ProbeHarness<'a> {
        /// The harness on `topology` and `tm` with a pool of `threads`
        /// scoring scratches.
        ///
        /// # Panics
        ///
        /// Panics when the instance is uncongested.
        pub fn new(topology: &'a Topology, tm: &'a TrafficMatrix, threads: usize) -> Self {
            let config = OptimizerConfig {
                threads,
                ..OptimizerConfig::default()
            };
            let optimizer = Optimizer::new(topology, tm, config);
            let alloc = optimizer.boot();
            let mut incumbent = optimizer.measure(&alloc);
            let outcome = incumbent.outcome();
            let link = *outcome
                .congested
                .first()
                .expect("harness instance must be congested");
            let avoid = pathgen::congested_or_forbidden(outcome, &optimizer.config.excluded_links);
            incumbent.prepare_component(&optimizer.model, link);
            ProbeHarness {
                index: CrossingIndex::build(topology, tm, &alloc),
                pool: (0..threads).map(|_| Mutex::default()).collect(),
                memo: Memo::new(topology.link_count(), tm.len()),
                optimizer,
                alloc,
                incumbent,
                link,
                avoid,
            }
        }

        /// Flips `link` in or out of the global search's avoid set, as a
        /// change of the congested set would: the fan-outs after it check
        /// the kept searches against the flip.
        pub fn flip(&mut self, link: LinkId) {
            if !self.avoid.remove(link) {
                self.avoid.insert(link);
            }
        }

        /// One fan-out on `workers` workers, worker `i` on scratch `i`.
        /// Each worker calls `window(true)` once it holds its scratch,
        /// before its first claim, and `window(false)` after its last.
        pub fn fan_out(&mut self, workers: usize, window: fn(bool)) -> FanOut {
            self.fan_out_on(workers, |i| i, window)
        }

        /// One fan-out on each scratch of the pool in turn, by one
        /// worker, so that each has held everything one worker of a
        /// fan-out can ask of it. Returns the searches they ran.
        pub fn warm_up(&mut self) -> usize {
            (0..self.pool.len())
                .map(|scratch| self.fan_out_on(1, |_| scratch, |_| {}).searches)
                .sum()
        }

        fn fan_out_on(
            &mut self,
            workers: usize,
            scratch: impl Fn(usize) -> usize + Sync,
            window: fn(bool),
        ) -> FanOut {
            let runs: Vec<&[(u32, u32)]> = self.index.runs(self.link).collect();
            let (opt, memo) = (&self.optimizer, &self.memo);
            let outcome = self.incumbent.outcome();
            let focus = Focus {
                alloc: &self.alloc,
                incumbent: &self.incumbent,
                memo,
                link: self.link,
                escape_level: 0,
                network: opt.network(
                    &self.alloc,
                    outcome,
                    &opt.config.excluded_links,
                    &self.avoid,
                ),
                leaf_cap: Some(opt.tm.len() / runs.len().max(1)),
            };
            let probed = map_claimed(
                &runs,
                workers,
                |i| {
                    let worker = Worker::claim(&self.pool, scratch(i));
                    window(true);
                    Windowed { worker, window }
                },
                |w, run| opt.probe(&focus, run, &mut w.worker),
            );
            let arenas: Vec<_> = (self.pool.iter())
                .map(|ws| ws.lock().expect("scratch lock poisoned"))
                .collect();
            let mut done = FanOut {
                probes: 0,
                generated: 0,
                searches: 0,
                moves: 0,
            };
            for p in probed {
                done.moves += p.scored.len();
                if let Some(resolution) = p.resolution {
                    done.probes += 1;
                    done.generated += usize::from(resolution.generated);
                    done.searches += resolution.searches_run;
                    let ran = &arenas[p.worker].paths;
                    resolution.keep(&mut self.memo.alts, p.aggregate, ran);
                }
            }
            done
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

    /// A deterministic stand-in for an item of uneven cost.
    fn grind(item: u64) -> u64 {
        (0..(item % 7) * 2_000).fold(item, |x, k| x.rotate_left(5) ^ k)
    }

    #[test]
    fn map_claimed_returns_results_in_item_order() {
        let expected = |items: &[u64]| items.iter().map(|&i| grind(i)).collect::<Vec<_>>();
        let many: Vec<u64> = (0..41).map(|i| i * 2_654_435_761 % 97).collect();
        for workers in [1, 2, 3, 8] {
            for items in [&many[..], &many[..2], &many[..0]] {
                let got = map_claimed(items, workers, |_| (), |(), &i| grind(i));
                assert_eq!(got, expected(items), "workers={workers}");
            }
        }
        // Completion order forced against item order: whoever claims
        // item 0 holds its result back until item 1's is in.
        let second_done = std::sync::atomic::AtomicBool::new(false);
        let got = map_claimed(
            &[0u64, 1],
            2,
            |_| (),
            |(), &i| {
                if i == 0 {
                    while !second_done.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                } else {
                    second_done.store(true, Ordering::Release);
                }
                i
            },
        );
        assert_eq!(got, [0, 1]);
    }

    #[test]
    fn map_claimed_builds_each_workers_state_once() {
        let built = AtomicUsize::new(0);
        let items: Vec<u64> = (0..64).collect();
        let got = map_claimed(
            &items,
            3,
            |worker| {
                built.fetch_add(1, Ordering::Relaxed);
                worker
            },
            |&mut worker, &i| (worker, i),
        );
        assert!(got.iter().all(|&(worker, _)| worker < 3));
        assert!(got.iter().map(|&(_, i)| i).eq(0..64));
        assert_eq!(built.load(Ordering::Relaxed), 3, "one state per worker");
    }

    /// A spawned worker's panic reaches the caller with the message it
    /// was raised with. Worker 0 (the caller) is held until worker 1 has
    /// claimed an item, so the panic cannot come from the calling thread.
    #[test]
    #[should_panic(expected = "span check failed on worker 1")]
    fn map_claimed_resurfaces_a_workers_own_panic() {
        let claimed = std::sync::atomic::AtomicBool::new(false);
        map_claimed(
            &[(), ()],
            2,
            |worker| worker,
            |&mut worker, ()| {
                if worker == 0 {
                    while !claimed.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                } else {
                    claimed.store(true, Ordering::Release);
                    panic!("span check failed on worker {worker}");
                }
            },
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
