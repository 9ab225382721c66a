//! The progressive-filling engine (paper §2.3).
//!
//! "We imagine the network as a series of empty pipes. We fill them by
//! having each flow grow at a rate inversely proportional to its RTT. A
//! flow can stop growing either because it satisfies its demand ... or
//! because there is no more room to grow because a link along its path
//! has become congested. The algorithm proceeds in steps, congesting a
//! link or satisfying a bundle at each step until each bundle is either
//! congested or has its demands met."
//!
//! ### Implementation
//!
//! Because every bundle starts at rate 0 at the common "water level"
//! `T = 0` and grows linearly with its fixed weight `w = flows / RTT`
//! until it freezes, the whole process is an event sequence over `T`:
//!
//! * a bundle satisfies at the precomputed `T_sat = demand / w`;
//! * a link `l` saturates when `frozen_load(l) + active_weight(l) · T`
//!   reaches its capacity — a time that only changes when one of its
//!   crossing bundles freezes.
//!
//! Events are processed in one total order — water level, satisfaction
//! before saturation, then bundle index or link id — by one loop
//! (`FillState::run` in `component.rs`). Link events, whose times move,
//! go through a lazy min-heap; stale ones are detected with per-link
//! version counters. Only a link that is *binding* over the fill's own
//! crossers — their summed demand reaches its capacity, up to
//! [`BINDING_SLACK`] — enters the heap: any other link's load stays
//! below that sum at every water level (observation 1 below), so it can
//! never saturate, and arming it would only ever pop a stale or a dead
//! event. Bundle events never move: every fill sorts its members' once
//! when it compiles them, and merges that stream with the heap, which
//! holds link events and nothing else — except a patch's replacement
//! bundles (see *Compiled components* below).
//! Each event freezes at least one bundle or deactivates one link, so
//! the loop runs at most `bundles + links` times, and the whole
//! evaluation is `O((B + Σ path length) log B)` — fast enough for the
//! optimizer to call thousands of times per run. What the loop fills is
//! always a `Component`: the bundles in question *compiled* into local
//! indices — per-bundle link lists over compact link slots, per-slot
//! crossing rows and initial sums, presorted satisfaction events — by
//! every caller alike.
//!
//! ### Incremental re-evaluation
//!
//! A small change to an evaluated bundle list is described as a
//! *splice view* over it ([`BundleDelta`]): `k ≥ 1` ascending ranges of
//! the previous list, each replaced by a new segment — one range per
//! changed aggregate, since an aggregate's bundles are contiguous.
//! Nobody materializes the changed list. [`FlowModel::score_delta`]
//! fills the view just far enough to score it (the optimizer's
//! per-candidate path); [`FlowModel::apply_delta`] lands an accepted
//! change **in place**: it writes the re-filled bundles' rates, statuses
//! and freeze keys into the existing [`Evaluation`], re-derives load,
//! demand and saturation for dirty links only, patches the congested
//! list and the touched links' crossing rows, and splices the cached
//! bundle table with `Vec::splice`. While every segment keeps its
//! length, that is all — O(changed segments + affected component +
//! crossing rows of the links the change touches, whose demand is
//! re-summed entry by entry in the full run's order, + crossing rows of
//! the dirty links whose load is re-summed), no instance-sized pass.
//! Scoring walks no border row and sums no touched row its load bound
//! settles (*Bounded border verification* below), and a dirty link none
//! of whose crossers froze differently keeps its load (*Kept loads*). A
//! segment that changes length shifts every later bundle's index, so
//! the *tail renumber* is paid then, and only then: freeze keys and
//! crossing entries behind the first resized segment are rewritten, and
//! the per-bundle arrays move their tails.
//! Two observations bound the affected set:
//!
//! 1. a link whose offered demand is strictly below its capacity can
//!    never saturate (the load is bounded by the demand at every water
//!    level), so it never freezes anyone and never couples bundles;
//! 2. a link that *never actually saturated* in the previous
//!    equilibrium constrained nobody — removing demand from it cannot
//!    make it saturate (its load only drops pointwise), so influence
//!    propagates only through links that previously froze somebody.
//!
//! ### Memory model of candidate scoring
//!
//! [`FlowModel::score_delta`] is additionally **allocation-free in
//! steady state**: per-bundle demands are read through the borrowed
//! splice view (the previous evaluation's cached demand table plus the
//! replacement segment), per-link capacities and the
//! previously-saturated mask come straight from the cached
//! [`Evaluation`], per-link offered demand changes are kept as a sparse
//! overlay, and every mask, queue, heap, and per-link table lives in a
//! caller-owned [`Workspace`] whose entries are *epoch-stamped* — a new
//! candidate bumps a counter instead of clearing O(bundles + links)
//! arrays. After warm-up, scoring a move costs O(component) time and
//! zero heap allocations (a counting-allocator test in `fubar-core`
//! enforces this).
//!
//! The affected set is therefore the closure of the changed bundles over
//! shared *previously-saturating* links, and only that subset is
//! re-filled; everything else keeps its previous rate bitwise. The one
//! risk in rule 2 is a never-saturated link whose load *rises* because a
//! re-filled crosser sped up — or because its capacity shrank or a
//! bundle landed on it: after the fill, every binding
//! (demand ≥ capacity) link partially crossed by the component or
//! touched directly by the change is verified to end strictly below
//! capacity (re-filled rates plus carried rates, with a
//! [`BINDING_SLACK`] margin); if the optimism was wrong —
//! the fill saturated it or the true load reaches the bar — the
//! component absorbs that link's crossers and the fill re-runs. Since
//! loads only grow with the water level, the final load is the
//! trajectory maximum, so a passed check proves the link never fires and
//! the spliced trajectory is exactly the full run's. Per-bundle freeze
//! records ([`FreezeKey`]) then let the patcher re-accumulate dirty
//! links' loads in exactly the order the full run would have used, so
//! the patched evaluation is bit-for-bit identical to a full recompute
//! (multi-segment changes included: they are one joint fill, never `k`
//! sequential ones).
//!
//! ### Bounded border verification
//!
//! Border verification walks a link only if it is binding, and then
//! needs its post-fill load — the fold, in spliced row order, of every
//! crosser's rate: the fill's rate for a member of the fill, the
//! previous rate for anyone else — for one decision only: whether it
//! reaches `bar = capacity · (1 − BINDING_SLACK)`. The walk is as long
//! as the link's crossing row, thousands of entries on a trunk, so the
//! core first bounds the load from three numbers it already holds:
//!
//! ```text
//! L ≤ B = F + P − C + (F + P + C) · 2nε,   n = 2c + 2
//! ```
//!
//! `F` is the fill's `frozen_load` on the link — the fold of its
//! crossing members' new rates. `P` is the link's previous load — the
//! fold of every previous crosser's rate. `C` is the fold of the fill's
//! crossing members' previous rates; compiling a component sums it per
//! slot from the evaluation the list came from (a replacement bundle
//! carried nothing), and a patch re-sums it only for the slots it
//! touches. Crossers outside the fill carried their previous rates
//! through it, and removed crossers only lower the true sum, so `F + P −
//! C` is an upper bound in exact arithmetic. `c` — the previous row's
//! length plus the replacement crossings — bounds every count involved:
//! the walked row, the fill's crossers, the previous crossers. With `u
//! = ε/2` and `γ_k = ku / (1 − ku)`, each fold of `k` non-negative terms
//! lies within `1 ± γ_{k−1}` of its true sum (Higham, *Accuracy and
//! Stability of Numerical Algorithms*, §4.2), so the walk exceeds `F + P − C`
//! by at most about `u · (k(F + P) + 2kF + 2pP + qC)` ≤ `3cu · (F + P +
//! C)` to first order, and forming `B` adds about `3u · (F + P + C)`.
//! The widening is `(8c + 8)u · (F + P + C)`, which covers both with
//! `(5c + 5)u` to spare for second-order terms and its own rounding.
//! So a bound below `bar` proves the walk would find a load below it,
//! and the link is passed exactly where the walk would pass it; only a
//! bound at the bar, or a link the fill saturated, pays for the walk.
//! `P` is read from the evaluation's carried load, which is the fold
//! capped at capacity: a load below its capacity is the fold itself,
//! but one at it may be the cap, and a change that moves a capacity
//! leaves loads capped at the old one, so the bound is not used in
//! either case. An untouched link keeps its previous offered demand,
//! which decides whether it is binding for free; a touched link's new
//! demand is a fold over its whole spliced crossing row, so it is tested
//! after the load bound, and a touched link is summed only where the
//! load bound leaves the test open, or where its value is consumed —
//! the in-place patch's link demands, the congested order, the min-max
//! objective's overlay ([`FlowModel::changed_link_demand`]), which
//! settle every touched link exactly first. Both tests only skip a
//! link, so their order changes nothing, and the walks, expansions and
//! bits are those of the walk-every-link rule.
//!
//! ### Kept loads
//!
//! A dirty link's load is the fold of its crossers' rates in freeze
//! order. The in-place patch keeps the previous load, unsorted and
//! unsummed, when the re-filled component crosses the link, no removed
//! or replacement bundle (and no capacity change) touches it, and every
//! re-filled crosser came out with the same rate bits and the same
//! [`FreezeKey`] rank as before. The link's crossers are then the same
//! bundles; the tail renumber shifts indices monotonically, so it keeps
//! their rank order; hence the `(rank, rate)` sequence the fold walks is
//! the previous one, entry for entry, and so is its sum. Every other
//! dirty link re-sorts and re-sums; saturation and the congested list
//! are re-derived for all of them alike.
//!
//! ### Compiled components
//!
//! Between two changes of an [`Evaluation`] every candidate moving
//! flows off one congested link re-derives the same affected set: the
//! link's crossers closed over previously-saturating links.
//! [`FlowModel::prepare_component`] derives it once — members
//! ascending, compiled and presorted as above — and keeps it inside the
//! evaluation it describes; [`FlowModel::apply_delta`] forgets it, so it
//! cannot outlive that evaluation.
//! [`FlowModel::score_delta`] then treats a one-segment candidate whose
//! changed previously-saturated links (at least one) all lie in one
//! compiled component as a `Patch` of it: the members inside the
//! replaced span start frozen, the replacement bundles are appended,
//! and only the links either crosses get new sums and a row of their
//! own. The result is the unprepared call's, bit for bit:
//!
//! 1. *Same set.* The compiled set is closed under
//!    previously-saturating links and, by the condition above, holds
//!    every changed saturated link. The unprepared closure starts from
//!    exactly those links' crossers and the replacement bundles, and
//!    cannot leave the set; and it reaches every kept member, because a
//!    path of shared saturated links from a changed one to that member
//!    that runs through a removed bundle re-enters the seeds at that
//!    bundle's next link. So (members − removed) ∪ replacement *is* the
//!    unprepared affected set, which fills to the full run's bits by the
//!    argument above.
//! 2. *Same sums.* A link no removed or replacement bundle crosses has
//!    the same crossers in the same order in both fills, hence the same
//!    initial weight and demand sums; the others are re-summed walking
//!    the compiled row below the span, the replacement bundles, then the
//!    row above it — the spliced list's order, which is the order the
//!    unprepared fill accumulates in.
//! 3. *Same event sequence.* The event order is total on (time, kind,
//!    index), and a kept member's index in the spliced list is its old
//!    one plus a constant behind the span — monotone — so the presorted
//!    members are still in event order, and merging them with a heap
//!    that holds the link events and the replacement bundles' pops
//!    exactly what one heap holding everything pops. An unprepared fill
//!    is the case with no replacement bundle in the heap: its own
//!    members' stream, sorted by list index on ties, merged with its
//!    link events.
//!
//! Border verification then runs on the patched fill's results as on any
//! other, and a component that has to grow re-fills the unprepared way.

use crate::component::{Component, FillState, Patch, NONE};
use crate::outcome::ModelOutcome;
use crate::spec::{BundleSpec, BundleStatus};
use crate::splice::{merge_row, repl_row, splice_copy, BundleDelta, Seg, Splice, POOL};
use fubar_graph::LinkId;
use fubar_topology::{Bandwidth, Topology};
use std::cmp::Ordering;

/// The TCP-like traffic model, bound to a topology.
#[derive(Clone, Debug)]
pub struct FlowModel<'a> {
    topology: &'a Topology,
}

/// Relative binding slack: a link counts as *binding* (able to
/// saturate) when its offered demand reaches `capacity · (1 − SLACK)`.
/// The theoretical condition is `demand ≥ capacity`; the slack absorbs
/// the difference between the setup-order demand sum and the
/// freeze-order load sum (different float orderings of the same terms).
/// Being conservative here only grows the re-evaluated component — it
/// can never make the patched result diverge from a full recompute.
const BINDING_SLACK: f64 = 1e-9;

pub(crate) fn is_binding(demand: f64, capacity: f64) -> bool {
    demand >= capacity * (1.0 - BINDING_SLACK)
}

/// An upper bound on a border link's load after a fill, from what the
/// fill knows without walking the link's crossing row: `filled`, the
/// load the fill's crossers of the link ended with (their fold);
/// `prev_load`, the link's uncapped previous load (the fold of every
/// previous crosser's rate); and `carried`, the fold of the fill's
/// crossers' previous rates. Crossers outside the fill carried their
/// previous rates through it, and removed ones are left in. `crossers`
/// is the previous row's length plus the replacement crossings, at
/// least the length of the row a walk folds; the result is widened by
/// `2nε` of the three magnitudes, `n = 2 · crossers + 2`, to cover every
/// rounding of the four folds and of the bound itself (see *Bounded
/// border verification* in the module docs). Hidden: the scoring
/// core's, exposed for its property test.
#[doc(hidden)]
pub fn border_load_bound(filled: f64, prev_load: f64, carried: f64, crossers: usize) -> f64 {
    let n = 2 * crossers + 2;
    let widen = 2.0 * n as f64 * f64::EPSILON;
    filled + prev_load - carried + (filled + prev_load + carried) * widen
}

/// Where in the global freeze sequence a bundle froze — enough to
/// replay the order in which `frozen_load` was accumulated on any link.
///
/// The engine processes same-time events in a fixed order: satisfaction
/// before saturation, then ascending bundle index (satisfactions) or
/// ascending link id with victims in ascending bundle index
/// (saturations). The key mirrors that order lexicographically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FreezeKey {
    /// Water level at which the bundle froze.
    time: f64,
    /// 0 = satisfied its demand, 1 = frozen by a saturating link.
    kind: u8,
    /// kind 0: the bundle's global index; kind 1: the saturating link.
    primary: u32,
    /// kind 0: unused; kind 1: the bundle's global index.
    secondary: u32,
}

impl FreezeKey {
    pub(crate) fn satisfied(time: f64, bundle: u32) -> Self {
        FreezeKey {
            time,
            kind: 0,
            primary: bundle,
            secondary: 0,
        }
    }

    pub(crate) fn congested(time: f64, link: u32, bundle: u32) -> Self {
        FreezeKey {
            time,
            kind: 1,
            primary: link,
            secondary: bundle,
        }
    }

    /// The same freeze event with the bundle renumbered — used when a
    /// previous evaluation's bundles shift position in a new input list.
    fn with_bundle(self, bundle: u32) -> Self {
        if self.kind == 0 {
            FreezeKey {
                primary: bundle,
                ..self
            }
        } else {
            FreezeKey {
                secondary: bundle,
                ..self
            }
        }
    }

    /// The key's rank in the engine's event-processing order — water
    /// level (in `f64::total_cmp` order), then kind, primary, secondary
    /// — packed so that one integer comparison sorts by it.
    fn rank(&self) -> u128 {
        debug_assert!(self.kind <= 1 && self.primary < 1 << 31);
        let bits = self.time.to_bits() as i64;
        // `total_cmp`'s transform, shifted from signed to unsigned order.
        let time = (bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64 ^ (1 << 63);
        let event =
            u64::from(self.kind) << 63 | u64::from(self.primary) << 32 | u64::from(self.secondary);
        u128::from(time) << 64 | u128::from(event)
    }
}

/// A model outcome plus the traces [`crate::Incumbent::replace`] and
/// [`FlowModel::score_delta`] need to patch it incrementally.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The equilibrium, exactly as [`FlowModel::evaluate`] returns it.
    pub outcome: ModelOutcome,
    /// Per-bundle freeze records (same order as the input bundles).
    freeze_keys: Vec<FreezeKey>,
    /// Per-bundle demands in bps — cached so delta scoring splices
    /// instead of recomputing O(bundles) demands per candidate.
    demands: Vec<f64>,
    /// Crossing lists: `crossers[l]` holds the bundles crossing link
    /// `l`, ascending — cached so delta scoring merges per-link
    /// crossers lazily instead of rebuilding the structure per
    /// candidate, and one row per link so an in-place patch rewrites
    /// only the rows a change touches.
    crossers: Vec<Vec<u32>>,
    /// Capacity per link in bps, exactly as the fill consumed it
    /// — cached so delta scoring borrows capacities from the incumbent
    /// instead of re-deriving (and re-allocating) them from the
    /// topology per candidate.
    caps: Vec<f64>,
    /// Per-link "actually saturated in this equilibrium" mask (the
    /// congested list, unpacked) — the closure test of the incremental
    /// core reads it per link instead of re-building a mask per
    /// candidate.
    saturated: Vec<bool>,
    /// Bottleneck components of this equilibrium compiled for candidate
    /// scoring ([`FlowModel::prepare_component`]). They describe the
    /// arrays above and live exactly as long as those stand: every
    /// in-place patch forgets them.
    compiled: Compiled,
}

/// The components compiled from one [`Evaluation`] since it last
/// changed. Forgetting them keeps their buffers, so a run compiles into
/// the same memory commit after commit.
#[derive(Clone, Debug, Default)]
struct Compiled {
    /// Per previously-saturated link: the live component whose closure
    /// holds it, or [`NONE`].
    of_link: Vec<u32>,
    /// The first `live` are valid.
    comps: Vec<Component>,
    live: usize,
    /// Closure work list.
    queue: Vec<u32>,
}

impl Compiled {
    fn forget(&mut self) {
        for comp in &self.comps[..self.live] {
            for &li in &comp.slot_link {
                self.of_link[li as usize] = NONE;
            }
        }
        self.live = 0;
    }

    /// The component a one-segment candidate can be filled through: the
    /// one whose closure holds every previously-saturated link among
    /// `changed_links` — at least one, or there is no closure to
    /// share.
    fn covering(&self, changed_links: &[u32], saturated: &[bool]) -> Option<&Component> {
        if self.live == 0 {
            return None;
        }
        let mut changed = changed_links
            .iter()
            .filter(|&&li| saturated[li as usize])
            .map(|&li| self.of_link[li as usize]);
        let id = changed.next().filter(|&id| id != NONE)?;
        changed
            .all(|other| other == id)
            .then(|| &self.comps[id as usize])
    }
}

impl Evaluation {
    /// Whether the live compiled component holding `link` holds every
    /// saturated link too.
    pub(crate) fn component_holds_every_saturated(&self, link: LinkId) -> bool {
        let of = |l: LinkId| {
            self.compiled
                .of_link
                .get(l.index())
                .copied()
                .unwrap_or(NONE)
        };
        let id = of(link);
        id != NONE && self.outcome.congested.iter().all(|&l| of(l) == id)
    }

    /// Builds an evaluation, deriving the crossing lists from the
    /// bundles and the per-link saturation mask from the outcome's
    /// congested list.
    fn assemble(
        outcome: ModelOutcome,
        freeze_keys: Vec<FreezeKey>,
        demands: Vec<f64>,
        bundles: &[BundleSpec],
        caps: Vec<f64>,
    ) -> Evaluation {
        let mut saturated = vec![false; caps.len()];
        for l in &outcome.congested {
            saturated[l.index()] = true;
        }
        Evaluation {
            outcome,
            freeze_keys,
            demands,
            crossers: build_crossers(bundles, caps.len()),
            caps,
            saturated,
            compiled: Compiled::default(),
        }
    }

    /// The first *bitwise* difference against `other`, if any, traces
    /// included — the oracle check behind the in-place patcher
    /// ([`crate::Incumbent::replace`] ≡ [`FlowModel::evaluate_traced`]).
    /// Hidden: a test helper, not a `PartialEq`.
    #[doc(hidden)]
    pub fn bitwise_mismatch(&self, other: &Self) -> Option<String> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let key = |k: &FreezeKey| (k.time.to_bits(), k.kind, k.primary, k.secondary);
        if let Some(field) = self.outcome.bitwise_mismatch(&other.outcome) {
            return Some(field);
        }
        if !self
            .freeze_keys
            .iter()
            .map(key)
            .eq(other.freeze_keys.iter().map(key))
        {
            return Some("freeze keys".to_string());
        }
        if bits(&self.demands) != bits(&other.demands) {
            return Some("bundle demands".to_string());
        }
        if self.crossers != other.crossers {
            return Some("crossing lists".to_string());
        }
        if bits(&self.caps) != bits(&other.caps) {
            return Some("capacities".to_string());
        }
        (self.saturated != other.saturated).then(|| "saturation mask".to_string())
    }

    /// Writes a partial delta fill (left in `ws` by
    /// [`FlowModel::delta_fill_core`]) into this evaluation in place:
    /// per-bundle arrays spliced, the re-filled subset's rates, statuses
    /// and freeze keys written over them, crossing rows rewritten for
    /// touched links, and load, demand, saturation and the congested
    /// list re-derived for dirty links only. Bundles and crossing
    /// entries behind the first length-changing segment are renumbered;
    /// when every segment keeps its length nothing else moves. Every
    /// touched link's demand must be settled ([`Workspace::settle`]).
    fn patch(&mut self, segs: &[Seg], ws: &mut Workspace) {
        let Evaluation {
            outcome: o,
            freeze_keys,
            demands,
            crossers,
            caps,
            saturated,
            compiled,
        } = self;
        debug_assert_eq!(compiled.live, 0, "a patch must forget compiled components");
        let fill = &ws.fill.state;
        splice_copy(&mut o.bundle_rates, segs, Bandwidth::ZERO);
        splice_copy(&mut o.bundle_status, segs, BundleStatus::Satisfied);
        splice_copy(freeze_keys, segs, FreezeKey::satisfied(0.0, 0));
        splice_copy(demands, segs, 0.0);
        for s in segs {
            let repl = s.repl_start as usize..(s.repl_start + s.repl_len) as usize;
            demands[s.new_start as usize..s.new_end()].copy_from_slice(&ws.seg_demand[repl]);
        }
        let resized = segs.iter().find(|s| s.resizes());
        if let Some(s) = resized {
            for (i, key) in freeze_keys.iter_mut().enumerate().skip(s.new_end()) {
                *key = key.with_bundle(i as u32);
            }
        }
        // Per re-filled bundle: whether it is new or froze differently —
        // at another rate, or at another place in the freeze order
        // (against its key as the tail renumber left it).
        ws.moved.clear();
        for (local, &gi) in ws.subset.iter().enumerate() {
            let (g, rate, key) = (gi as usize, fill.rates[local], fill.keys[local]);
            ws.moved.push(
                ws.src[g] & POOL != 0
                    || o.bundle_rates[g].bps().to_bits() != rate.to_bits()
                    || freeze_keys[g].rank() != key.rank(),
            );
            o.bundle_rates[g] = Bandwidth::from_bps(rate);
            o.bundle_status[g] = fill.status[local];
            freeze_keys[g] = key;
        }

        // Crossing rows: a row is re-merged from its old entries and the
        // replacement bundles — every row (renumbering what lies behind
        // the length change) when a segment changes length, else the
        // touched links' rows, and none when every replacement rides its
        // predecessor's links (plain flow churn).
        let (repl, buf) = (&ws.repl_cross, &mut ws.cs_buf);
        let remerge = |li: u32| {
            let row = &mut crossers[li as usize];
            buf.clear();
            merge_row(row, segs, repl, li, |i, _| buf.push(i));
            row.clear();
            row.extend_from_slice(buf);
        };
        if resized.is_some() {
            (0..caps.len() as u32).for_each(remerge);
        } else if !ws.rows_kept {
            ws.changed_links.iter().copied().for_each(remerge);
        }

        // Dirty links — touched by the change or crossed by the
        // re-filled component: loads re-accumulate in freeze order (the
        // exact order, and therefore the exact float sum, of a full
        // run), unless the previous sum provably stands; the
        // component's saturations replace theirs.
        let comp = &ws.fill.comp;
        let fill_dirty = |li: usize| comp.slot_of[li] != NONE;
        let n_filled = fill.touched_links.len();
        for k in 0..n_filled + ws.changed_links.len() {
            let li = match k.checked_sub(n_filled) {
                None => fill.touched_links[k] as usize,
                Some(c) if fill_dirty(ws.changed_links[c] as usize) => continue,
                Some(c) => ws.changed_links[c] as usize,
            };
            let touched = ws.touched_stamp[li] == ws.stamp;
            if touched {
                debug_assert_eq!(ws.summed[li], ws.stamp, "unsettled demand");
                o.link_demand[li] = Bandwidth::from_bps(ws.touched_demand[li]);
            }
            saturated[li] = false;
            // A link whose every crosser re-filled (slot `k` of the fill
            // holds its whole row — every previously saturated link of
            // the component, by closure) was accumulated by the fill
            // itself, in that order.
            let covered = k < n_filled && comp.row(k).len() == crossers[li].len();
            let sum = if covered {
                fill.links[k].frozen_load
            } else if k < n_filled && !touched && comp.row(k).iter().all(|&b| !ws.moved[b as usize])
            {
                // Same crossers, same (rank, rate) sequence: the same
                // fold (see *Kept loads* in the module docs).
                #[cfg(test)]
                {
                    ws.probe.loads_kept += 1;
                }
                continue;
            } else {
                ws.entries.clear();
                ws.entries.extend(crossers[li].iter().map(|&bi| {
                    let rate = o.bundle_rates[bi as usize].bps();
                    (freeze_keys[bi as usize].rank(), rate)
                }));
                // Keys of distinct bundles are distinct, so the unstable
                // sort reaches the one sorted order without allocating.
                ws.entries.sort_unstable_by_key(|e| e.0);
                ws.entries.iter().fold(0.0, |sum, &(_, r)| sum + r)
            };
            o.link_load[li] = Bandwidth::from_bps(sum.min(caps[li]));
        }
        let (link_demand, congested) = (&o.link_demand, &mut o.congested);
        congested.retain(|l| !fill_dirty(l.index()) && ws.touched_stamp[l.index()] != ws.stamp);
        // The survivors' sort keys did not move, so they are still in
        // order; each new saturation is inserted at its place.
        for &l in &fill.saturated {
            saturated[l.index()] = true;
            let demand = |x: LinkId| link_demand[x.index()].bps();
            let at = congested
                .partition_point(|&c| congestion_order(c, l, &demand, caps) == Ordering::Less);
            congested.insert(at, l);
        }
    }
}

/// High-water marks of a [`Workspace`] — how big the per-candidate
/// scratch actually got over its lifetime (`fubar-cli scenario run
/// --stats` surfaces these).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Largest re-filled bottleneck component (bundles).
    pub peak_component: usize,
    /// Most links touched by one component fill.
    pub peak_component_links: usize,
    /// Largest event-heap population in one fill: armed link events
    /// and a patch's replacement bundles — a component's own members'
    /// events come presorted and never enter the heap.
    pub peak_heap: usize,
    /// Total component fills performed — the number of water-filling
    /// passes this workspace ran. Unlike the peaks this is a *count*:
    /// merging sums it, so per-shard fill totals expose load imbalance
    /// in the sharded optimizer.
    pub fills: usize,
    /// How many of `fills` patched a component compiled once for the
    /// incumbent ([`crate::Incumbent::prepare_component`]) instead of
    /// compiling the candidate's own.
    pub compiled_fills: usize,
}

impl WorkspaceStats {
    /// Folds another workspace's marks into this one: peaks by
    /// per-field max, fill counts by sum.
    pub fn merge(&mut self, other: &WorkspaceStats) {
        self.peak_component = self.peak_component.max(other.peak_component);
        self.peak_component_links = self.peak_component_links.max(other.peak_component_links);
        self.peak_heap = self.peak_heap.max(other.peak_heap);
        self.fills += other.fills;
        self.compiled_fills += other.compiled_fills;
    }
}

/// Reusable scratch for the incremental scoring core.
///
/// Every mask, queue, heap, and per-link table [`FlowModel::score_delta`]
/// needs lives here and is *epoch-stamped*: instead of clearing an
/// O(bundles) or O(links) array per candidate, each entry carries the
/// stamp of the candidate (or fill) that last wrote it, and stale
/// entries read as unset. After the first few candidates have grown the
/// buffers to their steady-state capacity, scoring a move performs
/// **zero heap allocations** (enforced by the counting-allocator test in
/// `fubar-core`). One workspace serves one thread; the optimizer owns
/// one per evaluation thread.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Candidate stamp: bumped once per `score_delta`/`apply_delta`.
    stamp: u32,
    /// Per bundle: membership stamp of the affected set, and each
    /// member's source tag (see [`POOL`]).
    in_set: Vec<u32>,
    src: Vec<u32>,
    /// Per member of the affected set: its position in the last fill,
    /// [`NONE`] when it was absorbed since.
    filled_at: Vec<u32>,
    /// Per link: stamp marking links touched by the change, and their
    /// new offered demand, re-accumulated where the `summed` stamp
    /// says so.
    touched_stamp: Vec<u32>,
    touched_demand: Vec<f64>,
    summed: Vec<u32>,
    /// Per link: closure already expanded through this link.
    link_seen: Vec<u32>,
    /// Fill stamp — bumped once per fill, several times per candidate
    /// when border verification expands the component — and per link
    /// the fill border verification last ran against, so every re-fill
    /// re-verifies.
    fill_stamp: u32,
    border_seen: Vec<u32>,
    /// Closure work list.
    queue: Vec<u32>,
    /// The affected component (sorted ascending before each fill).
    subset: Vec<u32>,
    /// Crossing-row scratch of the in-place patcher.
    cs_buf: Vec<u32>,
    /// Rate scratch of a patched fill's hand-over.
    cs_rates: Vec<f64>,
    /// Demands of the replacement segment (splice path).
    seg_demand: Vec<f64>,
    /// Links touched by the change, as a list.
    changed_links: Vec<u32>,
    /// Whether every replacement bundle rides the links of the bundle
    /// it replaces, so that no crossing row changes.
    rows_kept: bool,
    /// Whether every capacity is the one the previous loads were capped
    /// at — false when the change moved one — so that a previous load
    /// below its capacity is its uncapped fold.
    caps_kept: bool,
    /// `(link, new offered demand)` pairs, ascending by link — the
    /// sparse overlay minmax scoring merges over the incumbent.
    changed_demand: Vec<(u32, f64)>,
    /// `(link, spliced index, source tag)` per link crossing of a
    /// replacement bundle, sorted — what [`Crossings`] merges over the
    /// previous rows.
    repl_cross: Vec<(u32, u32, u32)>,
    /// `(freeze rank, rate)` scratch of the in-place patcher's per-link
    /// load re-accumulation.
    entries: Vec<(u128, f64)>,
    /// Per member of the patched fill: whether it is new or froze
    /// differently (the in-place patcher's kept-load test).
    moved: Vec<bool>,
    /// The fill's own scratch.
    fill: FillScratch,
    #[cfg(test)]
    probe: tests::Probe,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// The high-water marks accumulated so far.
    pub fn stats(&self) -> WorkspaceStats {
        self.fill.stats()
    }

    /// Indices (in the patched table) of the bundles the last
    /// [`FlowModel::apply_delta`] re-filled — the affected bottleneck
    /// component, every replacement bundle included; empty after a full
    /// recompute.
    pub(crate) fn affected(&self) -> &[u32] {
        &self.subset
    }

    /// The links the last delta fill on this workspace read (after
    /// [`FlowModel::score_delta`]) or re-derived (after an in-place
    /// patch): every link its final component crosses, then every link
    /// a removed or replacement bundle crosses — the two may overlap.
    /// Every closure, border and binding test of the fill lies on one of
    /// them, and so does every bundle whose rate or demand it read: a
    /// change that re-derives none of these links cannot change what
    /// the fill computes.
    pub fn filled_links(&self) -> impl Iterator<Item = u32> + '_ {
        (self.fill.state.touched_links.iter())
            .chain(&self.changed_links)
            .copied()
    }

    /// Starts a new candidate epoch, growing buffers if the instance
    /// got bigger. Handles stamp wrap-around by a one-off reset.
    fn begin(&mut self, n_bundles: usize, n_links: usize) {
        if self.stamp == u32::MAX {
            self.in_set.iter_mut().for_each(|s| *s = 0);
            self.touched_stamp.iter_mut().for_each(|s| *s = 0);
            self.summed.iter_mut().for_each(|s| *s = 0);
            self.link_seen.iter_mut().for_each(|s| *s = 0);
            self.stamp = 0;
        }
        self.stamp += 1;
        if self.in_set.len() < n_bundles {
            self.in_set.resize(n_bundles, 0);
            self.src.resize(n_bundles, 0);
            self.filled_at.resize(n_bundles, NONE);
        }
        if self.touched_stamp.len() < n_links {
            self.touched_stamp.resize(n_links, 0);
            self.touched_demand.resize(n_links, 0.0);
            self.summed.resize(n_links, 0);
            self.link_seen.resize(n_links, 0);
            self.border_seen.resize(n_links, 0);
        }
        self.queue.clear();
        self.subset.clear();
        self.seg_demand.clear();
        self.changed_links.clear();
        self.changed_demand.clear();
        self.repl_cross.clear();
    }

    /// Opens border verification of a fill of `subset`: a new fill
    /// epoch, and every member's position in it.
    fn begin_verification(&mut self) {
        if self.fill_stamp == u32::MAX {
            self.border_seen.iter_mut().for_each(|s| *s = 0);
            self.fill_stamp = 0;
        }
        self.fill_stamp += 1;
        for (at, &gi) in self.subset.iter().enumerate() {
            self.filled_at[gi as usize] = at as u32;
        }
    }

    /// Marks link `li` as touched by the change (idempotent).
    fn touch_link(&mut self, li: usize) {
        if self.touched_stamp[li] != self.stamp {
            self.touched_stamp[li] = self.stamp;
            self.changed_links.push(li as u32);
        }
    }

    /// Whether border link `li` provably ends below `bar` after the
    /// fill: `filled` and `carried` are its crossing members' new load
    /// and prior load ([`border_load_bound`]). A previous load at its
    /// capacity may be a cap, not the fold, and proves nothing.
    fn load_below(
        &mut self,
        li: usize,
        prev: &Evaluation,
        crossings: &Crossings<'_>,
        (filled, carried): (f64, f64),
        bar: f64,
    ) -> bool {
        let prev_load = prev.outcome.link_load[li].bps();
        if !self.caps_kept || prev_load >= prev.caps[li] {
            return false;
        }
        #[cfg(test)]
        if self.probe.walk_all {
            return false;
        }
        let crossers = prev.crossers[li].len() + repl_row(crossings.repl, li as u32).len();
        let below = border_load_bound(filled, prev_load, carried, crossers) < bar;
        #[cfg(test)]
        {
            self.probe.load_decided += usize::from(below);
        }
        below
    }

    /// The exact new offered demand of touched link `li`, summed over
    /// its spliced crossing row on first request.
    fn exact_demand(&mut self, li: usize, crossings: &Crossings<'_>) -> f64 {
        if self.summed[li] != self.stamp {
            self.summed[li] = self.stamp;
            let mut sum = 0.0;
            crossings.walk(li, |_, src| sum += crossings.demand(src));
            self.touched_demand[li] = sum;
        }
        self.touched_demand[li]
    }

    /// Settles every touched link's new offered demand to its exact
    /// sum, for the splice `segs` of `prev` that the last candidate
    /// fill on this workspace filled.
    fn settle(&mut self, prev: &Evaluation, segs: &[Seg]) {
        let seg_demand = std::mem::take(&mut self.seg_demand);
        let repl_cross = std::mem::take(&mut self.repl_cross);
        let crossings = Crossings::new(prev, segs, &repl_cross, &seg_demand);
        for k in 0..self.changed_links.len() {
            self.exact_demand(self.changed_links[k] as usize, &crossings);
        }
        self.seg_demand = seg_demand;
        self.repl_cross = repl_cross;
    }

    /// Takes the bundles the last fill filled — `comp` under
    /// `self.fill.patch` — for affected set, exactly as if they had
    /// been absorbed one by one and filled in list order: members with
    /// their sources, `subset` ascending, the fill's rates parallel to
    /// it.
    fn adopt_patched_fill(&mut self, comp: &Component) {
        let FillScratch { patch, state, .. } = &mut self.fill;
        self.cs_rates.clear();
        for (gi, local) in patch.filled(comp) {
            self.in_set[gi as usize] = self.stamp;
            self.src[gi as usize] = match local.checked_sub(comp.len()) {
                None => comp.members[local],
                Some(r) => POOL | r as u32,
            };
            self.subset.push(gi);
            self.cs_rates.push(state.rates[local]);
        }
        std::mem::swap(&mut state.rates, &mut self.cs_rates);
    }

    /// Adds bundle `gi`, which comes from `src`, to the affected set
    /// (idempotent).
    fn absorb(&mut self, gi: u32, src: u32) {
        if self.in_set[gi as usize] != self.stamp {
            self.in_set[gi as usize] = self.stamp;
            self.src[gi as usize] = src;
            self.filled_at[gi as usize] = NONE;
            self.queue.push(gi);
            self.subset.push(gi);
        }
    }
}

/// What a fill needs besides its input: the component a subset met
/// once compiles into, the patch a candidate lays over a component
/// compiled for its incumbent, and the fill's state and results.
#[derive(Debug, Default)]
struct FillScratch {
    comp: Component,
    patch: Patch,
    state: FillState,
}

impl FillScratch {
    fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            peak_component: self.state.peak_component,
            peak_component_links: self.state.peak_links,
            peak_heap: self.state.peak_heap,
            fills: self.state.fills,
            compiled_fills: self.state.compiled_fills,
        }
    }

    /// Progressive filling over `subset` — ascending indices into the
    /// list `bundle` reads, whose rates before the change `prior` reads:
    /// compiles it, presorts its satisfaction events and fills it as it
    /// stands. Results are left in `self.state`, parallel to `subset`
    /// and to `state.touched_links`.
    fn fill<'b>(
        &mut self,
        bundle: impl Fn(u32) -> &'b BundleSpec,
        prior: impl Fn(u32) -> f64,
        subset: &[u32],
        caps: &[f64],
    ) {
        self.comp.members.clear();
        self.comp.members.extend_from_slice(subset);
        self.comp.compile(bundle, prior, caps);
        #[cfg(test)]
        let presorted = !self.state.probe.heap_bundles;
        #[cfg(not(test))]
        let presorted = true;
        if presorted {
            self.comp.presort();
        }
        self.state.run(&self.comp, &Patch::EMPTY);
    }
}

/// The minimal product of a delta evaluation, for scoring: the
/// re-filled component and its rates — no spliced per-bundle outcome,
/// no link loads or demands (the min-max objective asks
/// [`FlowModel::changed_link_demand`] for the latter), no congestion
/// list, and no allocation: the slices borrow the caller's
/// [`Workspace`]. Produced by [`FlowModel::score_delta`] at any
/// component size; every value is bitwise identical to the
/// corresponding piece of a full recompute.
#[derive(Debug)]
pub struct DeltaScore<'w> {
    /// Global (spliced-list) indices of re-filled bundles, ascending.
    pub affected: &'w [u32],
    /// New rates in bps, parallel to `affected`.
    pub rates: &'w [f64],
}

/// One worker's slice of a parallel fill: its own [`FillScratch`] plus
/// append-only component outputs that the deterministic merge scatters
/// back into the global result arrays after the join.
#[derive(Debug, Default)]
struct FillWorker {
    /// The worker's private fill scratch (stamped like [`Workspace`]'s).
    fill: FillScratch,
    /// `(global bundle index, rate, status, freeze key)` per filled
    /// bundle, in the order this worker's components produced them.
    out_bundles: Vec<(u32, f64, BundleStatus, FreezeKey)>,
    /// `(link, frozen load, offered demand, saturated)` per link touched
    /// by this worker's components.
    out_links: Vec<(u32, f64, f64, bool)>,
}

/// Reusable scratch for [`FlowModel::evaluate_traced_parallel`] — the
/// deterministic parallel water-filling path.
///
/// A parallel fill partitions the bundle list into *bottleneck
/// components* (connected components of the bundle–link graph: two
/// bundles sharing **any** link are coupled, because the shared link's
/// load and demand sums depend on both) and fills each component
/// independently. Determinism is structural, not scheduled:
///
/// * component ids are assigned by first appearance over ascending
///   bundle index, so the partition is a pure function of the input;
/// * component → worker assignment is `id % workers`, each worker
///   processing its components in ascending id order — never by
///   scheduling order;
/// * per-link and per-bundle results are written by exactly one
///   component, so the merge is a scatter with **no cross-worker float
///   accumulation** — no sum is ever reassociated;
/// * the merged congested list is sorted by the same total order
///   (oversubscription descending, then link id) the serial path uses.
///
/// Together with the serial fill's global-index event tie-breaking this makes
/// the result **bitwise identical to the serial fill at any worker
/// count** (property-tested in `crates/model/tests/properties.rs`).
/// Buffers are reused across fills like [`Workspace`]'s.
#[derive(Debug)]
pub struct ParallelWorkspace {
    workers: Vec<FillWorker>,
    /// Union–find parent per link, rebuilt per fill.
    parent: Vec<u32>,
    /// Per bundle: normalized component id.
    comp_of: Vec<u32>,
    /// Per link: component id of the link's DSU root (`u32::MAX` =
    /// unassigned), rebuilt per fill.
    root_comp: Vec<u32>,
    comp_count: usize,
    /// Bundle indices grouped by component (ascending within each), CSR.
    members: Vec<u32>,
    member_start: Vec<u32>,
    member_pos: Vec<u32>,
    /// Global input tables, identical to the serial path's.
    demands: Vec<f64>,
    caps: Vec<f64>,
    /// Merged outputs (indexed globally).
    rates: Vec<f64>,
    status: Vec<BundleStatus>,
    keys: Vec<FreezeKey>,
    link_frozen: Vec<f64>,
    link_demand: Vec<f64>,
    congested: Vec<LinkId>,
}

impl ParallelWorkspace {
    /// A workspace with `workers` fill workers (clamped to at least 1).
    /// Fills spawn scoped threads when more than one worker exists and
    /// the instance has more than one component.
    pub fn new(workers: usize) -> Self {
        ParallelWorkspace {
            workers: (0..workers.max(1)).map(|_| FillWorker::default()).collect(),
            parent: Vec::new(),
            comp_of: Vec::new(),
            root_comp: Vec::new(),
            comp_count: 0,
            members: Vec::new(),
            member_start: Vec::new(),
            member_pos: Vec::new(),
            demands: Vec::new(),
            caps: Vec::new(),
            rates: Vec::new(),
            status: Vec::new(),
            keys: Vec::new(),
            link_frozen: Vec::new(),
            link_demand: Vec::new(),
            congested: Vec::new(),
        }
    }

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let g = parent[parent[x as usize] as usize];
            parent[x as usize] = g;
            x = g;
        }
        x
    }

    /// Partitions `bundles` into bottleneck components: union–find over
    /// links (two links crossed by one bundle are coupled), component
    /// ids normalized by first appearance over ascending bundle index.
    /// Bundles with no links are singleton components.
    fn partition(&mut self, bundles: &[BundleSpec], n_links: usize) {
        let n = bundles.len();
        self.parent.clear();
        self.parent.extend(0..n_links as u32);
        for b in bundles {
            for w in b.links.windows(2) {
                let ra = Self::find(&mut self.parent, w[0].index() as u32);
                let rb = Self::find(&mut self.parent, w[1].index() as u32);
                if ra != rb {
                    // Union by smaller root id: deterministic and keeps
                    // find paths shallow enough with path halving.
                    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                    self.parent[hi as usize] = lo;
                }
            }
        }
        self.root_comp.clear();
        self.root_comp.resize(n_links, u32::MAX);
        self.comp_of.clear();
        let mut count = 0u32;
        for b in bundles {
            let id = match b.links.first() {
                None => {
                    // Trivial path: crosses nothing, couples with
                    // nothing — its own component.
                    count += 1;
                    count - 1
                }
                Some(l) => {
                    let r = Self::find(&mut self.parent, l.index() as u32) as usize;
                    if self.root_comp[r] == u32::MAX {
                        self.root_comp[r] = count;
                        count += 1;
                    }
                    self.root_comp[r]
                }
            };
            self.comp_of.push(id);
        }
        self.comp_count = count as usize;

        // Member lists in CSR form, ascending bundle index within each
        // component (the scatter below preserves input order).
        self.member_start.clear();
        self.member_start.resize(self.comp_count + 1, 0);
        for &c in &self.comp_of {
            self.member_start[c as usize + 1] += 1;
        }
        for c in 0..self.comp_count {
            self.member_start[c + 1] += self.member_start[c];
        }
        self.members.clear();
        self.members.resize(n, 0);
        self.member_pos.clear();
        self.member_pos
            .extend_from_slice(&self.member_start[..self.comp_count]);
        for (bi, &c) in self.comp_of.iter().enumerate() {
            let p = &mut self.member_pos[c as usize];
            self.members[*p as usize] = bi as u32;
            *p += 1;
        }
    }
}

/// One worker's share of a parallel fill: components `wi, wi + stride,
/// wi + 2·stride, …` in ascending id order. A free function so scoped
/// threads can borrow one worker mutably while sharing the read-only
/// partition and input tables.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    w: &mut FillWorker,
    wi: usize,
    stride: usize,
    bundles: &[BundleSpec],
    members: &[u32],
    member_start: &[u32],
    comp_count: usize,
    caps: &[f64],
) {
    w.out_bundles.clear();
    w.out_links.clear();
    let mut c = wi;
    while c < comp_count {
        let subset = &members[member_start[c] as usize..member_start[c + 1] as usize];
        w.fill
            .fill(|gi| &bundles[gi as usize], |_| 0.0, subset, caps);
        let fill = &w.fill.state;
        for (local, &gi) in subset.iter().enumerate() {
            w.out_bundles
                .push((gi, fill.rates[local], fill.status[local], fill.keys[local]));
        }
        for (&li, ls) in fill.touched_links.iter().zip(&fill.links) {
            w.out_links
                .push((li, ls.frozen_load, ls.demand, ls.saturated));
        }
        c += stride;
    }
}

impl<'a> FlowModel<'a> {
    /// Creates a model over `topology`: every link fills to its full
    /// capacity (paper §2.3).
    pub fn with_defaults(topology: &'a Topology) -> Self {
        FlowModel { topology }
    }

    /// The bound topology.
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The capacity of one link in bps.
    fn capacity(&self, l: LinkId) -> f64 {
        self.topology.capacity(l).bps()
    }

    /// Per-link capacities, in the order full evaluation uses.
    fn capacities(&self) -> Vec<f64> {
        self.topology.links().map(|l| self.capacity(l)).collect()
    }

    /// Runs progressive filling over `bundles` and returns the
    /// equilibrium.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if a bundle references a link outside the
    /// topology.
    pub fn evaluate(&self, bundles: &[BundleSpec]) -> ModelOutcome {
        self.evaluate_traced(bundles).outcome
    }

    /// Like [`FlowModel::evaluate`], but also records the freeze trace
    /// so a later [`crate::Incumbent::replace`] can patch the result.
    pub fn evaluate_traced(&self, bundles: &[BundleSpec]) -> Evaluation {
        self.evaluate_in(bundles, &mut FillScratch::default())
    }

    /// [`FlowModel::evaluate_traced`] on the given fill scratch.
    fn evaluate_in(&self, bundles: &[BundleSpec], scratch: &mut FillScratch) -> Evaluation {
        let caps = self.capacities();
        let n_links = caps.len();
        let demands: Vec<f64> = bundles.iter().map(|b| b.demand().bps()).collect();
        let subset: Vec<u32> = (0..bundles.len() as u32).collect();
        let bundle = |gi: u32| &bundles[gi as usize];
        scratch.fill(bundle, |_| 0.0, &subset, &caps);
        let fill = &scratch.state;

        let mut link_frozen = vec![0.0_f64; n_links];
        let mut link_demand = vec![0.0_f64; n_links];
        for (&li, ls) in fill.touched_links.iter().zip(&fill.links) {
            link_frozen[li as usize] = ls.frozen_load;
            link_demand[li as usize] = ls.demand;
        }
        let mut congested = fill.saturated.clone();
        congested.sort_by(|&a, &b| congestion_order(a, b, &|l| link_demand[l.index()], &caps));
        let outcome = outcome_of(
            &fill.rates,
            &fill.status,
            &link_frozen,
            &link_demand,
            &caps,
            congested,
        );
        Evaluation::assemble(outcome, fill.keys.clone(), demands, bundles, caps)
    }

    /// Like [`FlowModel::evaluate_traced`], but water-fills disjoint
    /// bottleneck components concurrently on `pw`'s workers. The result
    /// is **bitwise identical** to the serial path at any worker count:
    /// the partition, component → worker assignment, and merge are all
    /// pure functions of the input (see [`ParallelWorkspace`]), and
    /// the serial fill's event tie-breaking uses global indices throughout.
    ///
    /// # Examples
    ///
    /// ```
    /// use fubar_model::{FlowModel, ParallelWorkspace};
    /// use fubar_topology::{generators, Bandwidth};
    /// use fubar_traffic::{workload, WorkloadConfig};
    /// use fubar_model::BundleSpec;
    ///
    /// let topo = generators::he_core(Bandwidth::from_mbps(50.0));
    /// let tm = workload::generate(&topo, &WorkloadConfig::default(), 7);
    /// let bundles: Vec<BundleSpec> = tm
    ///     .iter()
    ///     .map(|a| {
    ///         let p = topo
    ///             .graph()
    ///             .shortest_path(a.ingress, a.egress, &fubar_graph::LinkSet::new())
    ///             .unwrap();
    ///         BundleSpec::new(a, &p, a.flow_count)
    ///     })
    ///     .collect();
    /// let model = FlowModel::with_defaults(&topo);
    /// let mut pw = ParallelWorkspace::new(4);
    /// let parallel = model.evaluate_traced_parallel(&bundles, &mut pw);
    /// let serial = model.evaluate_traced(&bundles);
    /// assert!(parallel
    ///     .outcome
    ///     .bitwise_mismatch(&serial.outcome)
    ///     .is_none());
    /// ```
    pub fn evaluate_traced_parallel(
        &self,
        bundles: &[BundleSpec],
        pw: &mut ParallelWorkspace,
    ) -> Evaluation {
        self.fill_parallel(bundles, pw);
        let outcome = outcome_of(
            &pw.rates,
            &pw.status,
            &pw.link_frozen,
            &pw.link_demand,
            &pw.caps,
            pw.congested.clone(),
        );
        let (keys, demands, caps) = (pw.keys.clone(), pw.demands.clone(), pw.caps.clone());
        Evaluation::assemble(outcome, keys, demands, bundles, caps)
    }

    /// The non-assembling parallel fill: partitions `bundles` into
    /// bottleneck components, fills them on `pw`'s workers, and leaves
    /// the merged results in `pw` (rates, statuses, freeze keys,
    /// per-link loads/demands, sorted congested list).
    fn fill_parallel(&self, bundles: &[BundleSpec], pw: &mut ParallelWorkspace) {
        let n = bundles.len();
        let n_links = self.topology.link_count();
        // Global input tables, computed exactly as the serial path does.
        pw.caps.clear();
        pw.caps
            .extend(self.topology.links().map(|l| self.capacity(l)));
        pw.demands.clear();
        pw.demands.extend(bundles.iter().map(|b| b.demand().bps()));
        pw.partition(bundles, n_links);

        let stride = pw.workers.len();
        // Threads only pay off when there is work to split; either way
        // the iteration shape (worker wi takes components ≡ wi mod
        // stride, ascending) is identical, so so is the output.
        let threaded = stride > 1 && pw.comp_count > 1;
        {
            let ParallelWorkspace {
                workers,
                members,
                member_start,
                comp_count,
                caps,
                ..
            } = &mut *pw;
            let (members, member_start, caps) = (&*members, &*member_start, &*caps);
            let comp_count = *comp_count;
            if threaded {
                std::thread::scope(|s| {
                    for (wi, w) in workers.iter_mut().enumerate() {
                        s.spawn(move || {
                            run_worker(
                                w,
                                wi,
                                stride,
                                bundles,
                                members,
                                member_start,
                                comp_count,
                                caps,
                            )
                        });
                    }
                });
            } else {
                for (wi, w) in workers.iter_mut().enumerate() {
                    run_worker(
                        w,
                        wi,
                        stride,
                        bundles,
                        members,
                        member_start,
                        comp_count,
                        caps,
                    );
                }
            }
        }

        // Deterministic merge: every bundle and every touched link
        // belongs to exactly one component, so this is a scatter — no
        // float sum ever crosses a worker boundary.
        pw.rates.clear();
        pw.rates.resize(n, 0.0);
        pw.status.clear();
        pw.status.resize(n, BundleStatus::Satisfied);
        pw.keys.clear();
        pw.keys.resize(n, FreezeKey::satisfied(0.0, 0));
        pw.link_frozen.clear();
        pw.link_frozen.resize(n_links, 0.0);
        pw.link_demand.clear();
        pw.link_demand.resize(n_links, 0.0);
        pw.congested.clear();
        for w in &pw.workers {
            for &(gi, rate, st, key) in &w.out_bundles {
                pw.rates[gi as usize] = rate;
                pw.status[gi as usize] = st;
                pw.keys[gi as usize] = key;
            }
            for &(li, frozen, demand, saturated) in &w.out_links {
                pw.link_frozen[li as usize] = frozen;
                pw.link_demand[li as usize] = demand;
                if saturated {
                    pw.congested.push(LinkId(li));
                }
            }
        }
        // The serial path sorts one fill's saturation-order list with a
        // stable sort; the key (oversubscription desc, link id asc) is a
        // total order over distinct links, so an unstable in-place sort
        // of the concatenation reaches the same unique permutation —
        // independent of worker count, and allocation-free.
        let (link_demand, caps) = (&pw.link_demand, &pw.caps);
        pw.congested
            .sort_unstable_by(|&a, &b| congestion_order(a, b, &|l| link_demand[l.index()], caps));
    }

    /// Patches `eval` — the traced evaluation of `bundles` — and the
    /// table itself **in place** into the evaluation of `splice`'s
    /// spliced list, re-running water-filling only on the affected
    /// bottleneck component. This is how an accepted change lands: the
    /// fabric's dirty aggregates (one segment each) after every event,
    /// the optimizer's winning move at every commit. `splice` is drained
    /// into `bundles`; `touched_links` lists every link whose capacity
    /// changed since `eval` was computed (links crossed by a removed or
    /// replacement bundle are found from the splice).
    ///
    /// The cost is O(changed segments + affected component + crossing
    /// rows of the dirty links) when every segment keeps its length; a
    /// segment that changes length
    /// additionally renumbers what lies behind it — freeze keys, crossing
    /// entries, and `Vec::splice`'s move of the per-bundle tails. Nothing
    /// instance-sized is allocated either way: all scratch lives in `ws`.
    ///
    /// [`Workspace::affected`] then lists the re-filled bundles — all
    /// of them when the affected component is the whole list. The
    /// result is bitwise identical to `evaluate_traced` of the spliced
    /// list.
    ///
    /// # Panics
    ///
    /// Panics when `eval` was not computed from `bundles` over this
    /// model's link population.
    pub(crate) fn apply_delta(
        &self,
        eval: &mut Evaluation,
        bundles: &mut Vec<BundleSpec>,
        splice: &mut Splice,
        touched_links: &[LinkId],
        ws: &mut Workspace,
    ) {
        assert_eq!(
            eval.caps.len(),
            self.topology.link_count(),
            "previous evaluation is for a different topology shape"
        );
        eval.compiled.forget();
        for &l in touched_links {
            eval.caps[l.index()] = self.capacity(l);
            eval.outcome.link_capacity[l.index()] = Bandwidth::from_bps(self.capacity(l));
        }
        debug_assert!(
            self.topology
                .links()
                .all(|l| eval.caps[l.index()] == self.capacity(l)),
            "a capacity changed on a link missing from `touched_links`"
        );
        self.delta_fill_core(eval, &splice.over(bundles), touched_links, ws);
        ws.settle(eval, &splice.segs);
        eval.patch(&splice.segs, ws);
        splice.apply_to(bundles);
    }

    /// Evaluates `delta` just far enough to *score* it: the component
    /// fill runs (with the same closure and verification as the
    /// in-place patch), but nothing is patched or assembled, and —
    /// past buffer warm-up — nothing is heap-allocated:
    /// demands read through the splice view, capacities come from the
    /// incumbent's cache, and all scratch lives in `ws`. This is the
    /// optimizer's per-candidate fast path — rejected candidates never
    /// pay for a patch; the winner is committed through
    /// [`crate::Incumbent::replace`]. Every value returned is bitwise
    /// identical to the corresponding piece of a full recompute. The
    /// topology must be unchanged since `prev` was computed.
    pub fn score_delta<'w>(
        &self,
        prev: &Evaluation,
        delta: &BundleDelta<'_>,
        ws: &'w mut Workspace,
    ) -> DeltaScore<'w> {
        self.delta_fill_core(prev, delta, &[], ws);
        DeltaScore {
            affected: &ws.subset,
            rates: &ws.fill.state.rates,
        }
    }

    /// The sparse per-link demand overlay of the candidate the last
    /// [`FlowModel::score_delta`] on `ws` scored — called with the same
    /// `prev` and `delta`: `(link, new offered demand)` for every link a
    /// removed or replacement bundle crosses, ascending by link id; every
    /// other link keeps `prev`'s demand, and capacities are unchanged by
    /// a candidate move. Each value is bitwise what a full recompute
    /// sums. Scoring itself only bounds these demands, so an objective
    /// that reads no link demand never pays for the sums; the min-max
    /// objective asks for them here. Allocation-free past warm-up.
    pub fn changed_link_demand<'w>(
        &self,
        prev: &Evaluation,
        delta: &BundleDelta<'_>,
        ws: &'w mut Workspace,
    ) -> &'w [(u32, f64)] {
        debug_assert_eq!(prev.demands.len(), delta.prev.len());
        ws.settle(prev, delta.segs());
        ws.changed_demand.clear();
        for k in 0..ws.changed_links.len() {
            let li = ws.changed_links[k];
            ws.changed_demand.push((li, ws.touched_demand[li as usize]));
        }
        ws.changed_demand.sort_unstable_by_key(|&(l, _)| l);
        &ws.changed_demand
    }

    /// Compiles, once for `eval`, the bottleneck component around
    /// `link`: the closure of its crossers over the links that saturated
    /// in `eval` — the affected set of any change to `bundles` that
    /// touches one of those links and no saturated link outside them.
    /// [`FlowModel::score_delta`] then fills such a candidate by
    /// patching the compiled component instead of closing, summing and
    /// sorting its own (see the module docs); every other candidate is
    /// scored as if nothing had been prepared, and either way to the
    /// same bits. A no-op when `link` did not saturate or a prepared
    /// component already holds it. `bundles` must be the list `eval`
    /// evaluates.
    pub(crate) fn prepare_component(
        &self,
        eval: &mut Evaluation,
        bundles: &[BundleSpec],
        link: LinkId,
    ) {
        assert_eq!(
            eval.demands.len(),
            bundles.len(),
            "`eval` evaluates a different bundle list"
        );
        let Evaluation {
            outcome,
            crossers,
            caps,
            saturated,
            compiled,
            ..
        } = eval;
        compiled.of_link.resize(caps.len(), NONE);
        if !saturated[link.index()] || compiled.of_link[link.index()] != NONE {
            return;
        }
        let id = compiled.live;
        if compiled.comps.len() == id {
            compiled.comps.push(Component::default());
        }
        let comp = &mut compiled.comps[id];
        comp.members.clear();
        compiled.of_link[link.index()] = id as u32;
        compiled.queue.push(link.0);
        while let Some(li) = compiled.queue.pop() {
            for &bi in &crossers[li as usize] {
                comp.members.push(bi);
                for l in &bundles[bi as usize].links {
                    if saturated[l.index()] && compiled.of_link[l.index()] == NONE {
                        compiled.of_link[l.index()] = id as u32;
                        compiled.queue.push(l.0);
                    }
                }
            }
        }
        comp.members.sort_unstable();
        comp.members.dedup();
        let rate = |gi: u32| outcome.bundle_rates[gi as usize].bps();
        comp.compile(|gi| &bundles[gi as usize], rate, caps);
        comp.presort();
        compiled.live += 1;
    }

    /// The shared incremental core: seeds the affected set from the
    /// splice, closes it over previously-saturating links, and runs the
    /// optimistic component fill with border verification — all in
    /// `ws`'s reusable, epoch-stamped scratch. `prev.caps` must already
    /// hold the current capacities, with every changed link listed in
    /// `touched_links`. The results are left in `ws`, whatever the
    /// component's size: the sorted `subset`, fill results parallel to
    /// it, the touched links with their demands (bounds until
    /// [`Workspace::settle`]), and the replacement bundles' demands
    /// (`seg_demand`) and link crossings (`repl_cross`).
    fn delta_fill_core(
        &self,
        prev: &Evaluation,
        delta: &BundleDelta<'_>,
        touched_links: &[LinkId],
        ws: &mut Workspace,
    ) {
        let n_links = self.topology.link_count();
        let n = delta.len();
        let caps: &[f64] = &prev.caps;
        assert_eq!(caps.len(), n_links, "capacity table must cover every link");
        assert_eq!(
            prev.demands.len(),
            delta.prev.len(),
            "delta splices over a different bundle list than `prev` evaluated"
        );
        ws.begin(n, n_links);
        ws.caps_kept = touched_links.is_empty();
        let segs = delta.segs();

        // The replacement bundles' demands and link crossings; the
        // latter doubles as the list of links they touch.
        for s in segs {
            for k in 0..s.repl_len {
                let b = &delta.pool[(s.repl_start + k) as usize];
                debug_assert!(
                    b.links.iter().all(|l| l.index() < n_links),
                    "replacement bundle references a link outside the topology"
                );
                ws.seg_demand.push(b.demand().bps());
                for l in &b.links {
                    ws.repl_cross
                        .push((l.0, s.new_start + k, POOL | (s.repl_start + k)));
                }
            }
        }
        ws.repl_cross.sort_unstable();

        // Per-link crossers of the spliced list, merged lazily from the
        // previous rows, and per-bundle demands read through the splice
        // view instead of materializing an O(bundles) vector per
        // candidate.
        let seg_demand = std::mem::take(&mut ws.seg_demand);
        let repl_cross = std::mem::take(&mut ws.repl_cross);
        let crossings = Crossings::new(prev, segs, &repl_cross, &seg_demand);

        // Touched links (links of removed and replacement bundles,
        // capacity changes); the exact sum of their new offered demand
        // waits until something needs it (see *Bounded border
        // verification* in the module docs). Untouched links keep their
        // previous sums verbatim (same crossers, same demands, same
        // input order ⇒ the same float sum).
        ws.rows_kept = true;
        for s in segs {
            let removed = &delta.prev[s.start as usize..s.prev_end()];
            for b in removed {
                for l in &b.links {
                    ws.touch_link(l.index());
                }
            }
            let repl = &delta.pool[s.repl_start as usize..(s.repl_start + s.repl_len) as usize];
            ws.rows_kept &= removed
                .iter()
                .map(|b| &b.links)
                .eq(repl.iter().map(|b| &b.links));
        }
        for &(l, ..) in &repl_cross {
            ws.touch_link(l as usize);
        }
        for l in touched_links {
            ws.touch_link(l.index());
        }

        // A one-segment change whose previously-saturated links all lie
        // in one component compiled for `prev` has that component,
        // spliced, for affected set: its first fill patches the
        // compiled form. Anything else seeds the affected set — the
        // replacement bundles, plus the full crosser sets of touched
        // links that saturated before (their frozen victims must
        // re-fill to redistribute freed or re-claimed capacity) — and
        // closes it.
        let mut compiled = match segs {
            [_] => prev.compiled.covering(&ws.changed_links, &prev.saturated),
            _ => None,
        };
        if compiled.is_none() {
            for s in segs {
                for k in 0..s.repl_len {
                    ws.absorb(s.new_start + k, POOL | (s.repl_start + k));
                }
            }
            for k in 0..ws.changed_links.len() {
                let li = ws.changed_links[k] as usize;
                if prev.saturated[li] {
                    crossings.absorb_crossers(li, ws);
                }
            }
            close_component(delta, prev, &crossings, ws);
        }

        // The optimistic fill + border-verification loop (see the
        // module docs for the correctness argument).
        let rate = |src: u32| match src & POOL {
            0 => prev.outcome.bundle_rates[src as usize].bps(),
            _ => 0.0, // a replacement bundle carried nothing before
        };
        loop {
            let fill = &mut ws.fill;
            // The first fill only; a component that had to grow
            // re-fills as a subset of its own.
            match compiled.take() {
                Some(comp) => {
                    let s = &segs[0];
                    debug_assert_eq!((s.new_start, s.repl_start), (s.start, 0));
                    debug_assert!(
                        comp.describes(&prev.demands),
                        "component compiled from another evaluation"
                    );
                    fill.patch
                        .build(comp, s.start, s.removed, delta.pool, rate, caps);
                    fill.state.run(comp, &fill.patch);
                    fill.state.compiled_fills += 1;
                    ws.adopt_patched_fill(comp);
                }
                None => {
                    ws.subset.sort_unstable();
                    // Sources were resolved when the members joined the
                    // set, so no fill ever searches the segment list.
                    let src = &ws.src;
                    let (bundle, prior) =
                        (|gi| delta.at(src[gi as usize]), |gi| rate(src[gi as usize]));
                    fill.fill(bundle, prior, &ws.subset, caps);
                }
            }
            ws.begin_verification();

            // Border verification: every never-saturated binding link
            // that the delta could have pushed over — partially crossed
            // by the re-filled component, or touched directly — must end
            // strictly below capacity, or the optimism was wrong and the
            // component grows. Fully-covered links need no check. The
            // fill's links come first, each at its slot, so a touched
            // link the second pass still verifies is one no member of
            // the fill crosses.
            let mut expanded = false;
            for k in 0..ws.fill.state.touched_links.len() {
                let li = ws.fill.state.touched_links[k] as usize;
                verify_border(li, Some(k), prev, &crossings, ws, &mut expanded);
            }
            for k in 0..ws.changed_links.len() {
                let li = ws.changed_links[k] as usize;
                verify_border(li, None, prev, &crossings, ws, &mut expanded);
            }
            if !expanded {
                break;
            }
            close_component(delta, prev, &crossings, ws);
        }

        ws.seg_demand = seg_demand;
        ws.repl_cross = repl_cross;
    }
}

/// One border-verification probe of link `li`, at `slot` of the fill
/// if a member crosses it (see [`FlowModel::delta_fill_core`]): checks
/// a never-saturated binding link's true post-fill load and expands the
/// component when the optimistic assumption fails. The crossing row is
/// walked only when neither the binding tests nor the load bound settle
/// the link (see *Bounded border verification* in the module docs).
fn verify_border(
    li: usize,
    slot: Option<usize>,
    prev: &Evaluation,
    crossings: &Crossings<'_>,
    ws: &mut Workspace,
    expanded: &mut bool,
) {
    // Stamped with the *fill* stamp so every re-fill re-verifies.
    if ws.border_seen[li] == ws.fill_stamp || prev.saturated[li] {
        return;
    }
    ws.border_seen[li] = ws.fill_stamp;
    // An untouched link keeps its previous offered demand; a touched
    // link's is summed only if the load bound leaves the link open.
    let cap = prev.caps[li];
    let touched = ws.touched_stamp[li] == ws.stamp;
    if !touched && !is_binding(prev.outcome.link_demand[li].bps(), cap) {
        return;
    }
    let fill = &ws.fill.state;
    let (filled, carried, saturated) = match slot {
        Some(k) => (
            fill.links[k].frozen_load,
            fill.prior[k],
            fill.links[k].saturated,
        ),
        None => (0.0, 0.0, false),
    };
    let bar = cap * (1.0 - BINDING_SLACK);
    if !saturated && ws.load_below(li, prev, crossings, (filled, carried), bar) {
        return;
    }
    if touched && !is_binding(ws.exact_demand(li, crossings), cap) {
        return;
    }
    #[cfg(test)]
    {
        ws.probe.walks += 1;
    }
    // One walk of the link's crossers: whether any lies outside the
    // affected set, and the load they end with. Bundles absorbed
    // earlier in this same scan are in the set but not in this fill;
    // they carried their previous rate through it (replacement bundles
    // are in every fill, so a bundle outside this one has a previous
    // index for source).
    let (mut load, mut partial) = (0.0, false);
    let rates = &ws.fill.state.rates;
    crossings.walk(li, |i, src| {
        let at = if ws.in_set[i as usize] == ws.stamp {
            ws.filled_at[i as usize]
        } else {
            partial = true;
            NONE
        };
        load += match rates.get(at as usize) {
            Some(&rate) => rate,
            None => prev.outcome.bundle_rates[src as usize].bps(),
        };
    });
    if !partial {
        return;
    }
    if saturated || load >= bar {
        *expanded = true;
        crossings.absorb_crossers(li, ws);
    }
}

/// Closes the affected set over previously-saturating links: any bundle
/// in the set pulls in every crosser of every previously-saturating
/// link it rides (influence propagates only through links that actually
/// froze somebody — see the module docs).
fn close_component(
    delta: &BundleDelta<'_>,
    prev: &Evaluation,
    crossings: &Crossings<'_>,
    ws: &mut Workspace,
) {
    while let Some(bi) = ws.queue.pop() {
        for l in &delta.at(ws.src[bi as usize]).links {
            let li = l.index();
            if prev.saturated[li] && ws.link_seen[li] != ws.stamp {
                ws.link_seen[li] = ws.stamp;
                crossings.absorb_crossers(li, ws);
            }
        }
    }
}

/// Per-link crosser lists of a *spliced* bundle list, merged lazily
/// from the previous evaluation's rows and the replacement bundles, and
/// the demands of the bundles in them.
struct Crossings<'a> {
    rows: &'a [Vec<u32>],
    segs: &'a [Seg],
    /// `(link, spliced index, source tag)` per link crossing of a
    /// replacement bundle, sorted.
    repl: &'a [(u32, u32, u32)],
    /// Per-bundle demands of the previous list and of the replacement
    /// bundles.
    demands: &'a [f64],
    seg_demand: &'a [f64],
}

impl<'a> Crossings<'a> {
    fn new(
        prev: &'a Evaluation,
        segs: &'a [Seg],
        repl: &'a [(u32, u32, u32)],
        seg_demand: &'a [f64],
    ) -> Self {
        Crossings {
            rows: &prev.crossers,
            segs,
            repl,
            demands: &prev.demands,
            seg_demand,
        }
    }

    /// The demand of the bundle a source tag names.
    fn demand(&self, src: u32) -> f64 {
        if src & POOL != 0 {
            self.seg_demand[(src ^ POOL) as usize]
        } else {
            self.demands[src as usize]
        }
    }
    /// Visits the crossers of link `li` as `(spliced index, source
    /// tag)`, ascending, with exactly the multiplicity and order a
    /// direct build over the spliced list would produce.
    fn walk(&self, li: usize, visit: impl FnMut(u32, u32)) {
        merge_row(&self.rows[li], self.segs, self.repl, li as u32, visit);
    }

    /// Adds every crosser of link `li` to the affected set.
    fn absorb_crossers(&self, li: usize, ws: &mut Workspace) {
        self.walk(li, |i, src| ws.absorb(i, src));
    }
}

/// Builds per-link crossing lists (`rows[l]`: the bundles crossing
/// link `l`, ascending).
fn build_crossers(bundles: &[BundleSpec], n_links: usize) -> Vec<Vec<u32>> {
    let mut counts = vec![0u32; n_links];
    for b in bundles {
        for l in &b.links {
            counts[l.index()] += 1;
        }
    }
    let mut rows: Vec<Vec<u32>> = counts
        .iter()
        .map(|&c| Vec::with_capacity(c as usize))
        .collect();
    for (bi, b) in bundles.iter().enumerate() {
        for l in &b.links {
            rows[l.index()].push(bi as u32);
        }
    }
    rows
}

/// A full fill's raw tables (bps) as a [`ModelOutcome`]; carried load is
/// the frozen load capped at capacity.
fn outcome_of(
    rates: &[f64],
    status: &[BundleStatus],
    link_frozen: &[f64],
    link_demand: &[f64],
    caps: &[f64],
    congested: Vec<LinkId>,
) -> ModelOutcome {
    let bw = |v: &[f64]| v.iter().copied().map(Bandwidth::from_bps).collect();
    ModelOutcome::new(
        bw(rates),
        status.to_vec(),
        link_frozen
            .iter()
            .zip(caps)
            .map(|(&f, &c)| Bandwidth::from_bps(f.min(c)))
            .collect(),
        bw(link_demand),
        bw(caps),
        congested,
    )
}

/// The order Listing 1 visits congested links in: oversubscription
/// descending, ties broken on link id.
fn congestion_order(
    a: LinkId,
    b: LinkId,
    link_demand: &dyn Fn(LinkId) -> f64,
    caps: &[f64],
) -> Ordering {
    let oa = link_demand(a) / caps[a.index()].max(1e-9);
    let ob = link_demand(b) / caps[b.index()].max(1e-9);
    ob.total_cmp(&oa).then(a.0.cmp(&b.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BundleSpec;
    use fubar_graph::NodeId;
    use fubar_topology::{generators, Delay, TopologyBuilder};
    use fubar_traffic::{Aggregate, AggregateId, TrafficMatrix};
    use fubar_utility::TrafficClass;

    fn mbps(v: f64) -> Bandwidth {
        Bandwidth::from_mbps(v)
    }
    fn kbps(v: f64) -> Bandwidth {
        Bandwidth::from_kbps(v)
    }
    fn ms(v: f64) -> Delay {
        Delay::from_ms(v)
    }

    /// Two nodes, one duplex link of the given capacity.
    fn pipe(cap: Bandwidth, delay: Delay) -> Topology {
        let mut b = TopologyBuilder::new("pipe");
        b.add_node("a").unwrap();
        b.add_node("b").unwrap();
        b.add_duplex_link("a", "b", cap, delay).unwrap();
        b.build()
    }

    /// Bundle helper: flows × per-flow demand over the given links.
    fn bundle(
        aggregate: u32,
        flows: u32,
        links: Vec<LinkId>,
        path_delay: Delay,
        per_flow: Bandwidth,
    ) -> BundleSpec {
        BundleSpec {
            aggregate: AggregateId(aggregate),
            flow_count: flows,
            links,
            path_delay,
            per_flow_demand: per_flow,
        }
    }

    #[test]
    fn single_satisfied_bundle() {
        let t = pipe(mbps(10.0), ms(5.0));
        let m = FlowModel::with_defaults(&t);
        let out = m.evaluate(&[bundle(0, 10, vec![LinkId(0)], ms(5.0), kbps(50.0))]);
        assert_eq!(out.bundle_rates[0], kbps(500.0));
        assert_eq!(out.bundle_status[0], BundleStatus::Satisfied);
        assert!(!out.is_congested());
        assert_eq!(out.link_load[0], kbps(500.0));
    }

    #[test]
    fn single_bundle_hits_capacity() {
        let t = pipe(kbps(300.0), ms(5.0));
        let m = FlowModel::with_defaults(&t);
        let out = m.evaluate(&[bundle(0, 10, vec![LinkId(0)], ms(5.0), kbps(50.0))]);
        assert!((out.bundle_rates[0].kbps() - 300.0).abs() < 1e-6);
        assert_eq!(out.bundle_status[0], BundleStatus::Congested(LinkId(0)));
        assert_eq!(out.congested, vec![LinkId(0)]);
        assert!((out.oversubscription(LinkId(0)) - 500.0 / 300.0).abs() < 1e-9);
    }

    #[test]
    fn equal_rtt_bundles_share_equally_per_flow() {
        let t = pipe(kbps(600.0), ms(5.0));
        let m = FlowModel::with_defaults(&t);
        // 10 flows vs 20 flows, same RTT, both unsatisfiable: the pipe
        // splits 1:2 (per-flow fairness).
        let out = m.evaluate(&[
            bundle(0, 10, vec![LinkId(0)], ms(5.0), kbps(50.0)),
            bundle(1, 20, vec![LinkId(0)], ms(5.0), kbps(50.0)),
        ]);
        assert!((out.bundle_rates[0].kbps() - 200.0).abs() < 1e-6);
        assert!((out.bundle_rates[1].kbps() - 400.0).abs() < 1e-6);
    }

    #[test]
    fn shorter_rtt_wins_proportionally() {
        // Two bundles on separate ingress links converge on a shared
        // bottleneck; the near one has half the RTT so grows twice as
        // fast.
        let mut b = TopologyBuilder::new("vee");
        for n in ["s1", "s2", "m", "d"] {
            b.add_node(n).unwrap();
        }
        b.add_duplex_link("s1", "m", mbps(100.0), ms(5.0)).unwrap();
        b.add_duplex_link("s2", "m", mbps(100.0), ms(15.0)).unwrap();
        let (bottleneck, _) = b.add_duplex_link("m", "d", kbps(900.0), ms(5.0)).unwrap();
        let t = b.build();
        let g = t.graph();
        let s1m = g
            .find_link(t.node("s1").unwrap(), t.node("m").unwrap())
            .unwrap();
        let s2m = g
            .find_link(t.node("s2").unwrap(), t.node("m").unwrap())
            .unwrap();
        let m = FlowModel::with_defaults(&t);
        // RTTs: near 2*(5+5)=20ms, far 2*(15+5)=40ms.
        let out = m.evaluate(&[
            bundle(0, 10, vec![s1m, bottleneck], ms(10.0), kbps(1000.0)),
            bundle(1, 10, vec![s2m, bottleneck], ms(20.0), kbps(1000.0)),
        ]);
        let near = out.bundle_rates[0].kbps();
        let far = out.bundle_rates[1].kbps();
        assert!((near + far - 900.0).abs() < 1e-6, "bottleneck fully used");
        assert!(
            (near / far - 2.0).abs() < 1e-6,
            "near/far = {} (want 2.0)",
            near / far
        );
    }

    #[test]
    fn satisfied_bundle_frees_room_for_others() {
        let t = pipe(kbps(500.0), ms(5.0));
        let m = FlowModel::with_defaults(&t);
        // Bundle 0 wants only 100k and satisfies early; bundle 1 is
        // greedy and should end with the remaining 400k.
        let out = m.evaluate(&[
            bundle(0, 10, vec![LinkId(0)], ms(5.0), kbps(10.0)),
            bundle(1, 10, vec![LinkId(0)], ms(5.0), kbps(100.0)),
        ]);
        assert_eq!(out.bundle_status[0], BundleStatus::Satisfied);
        assert!((out.bundle_rates[0].kbps() - 100.0).abs() < 1e-6);
        assert!((out.bundle_rates[1].kbps() - 400.0).abs() < 1e-6);
        assert_eq!(out.bundle_status[1], BundleStatus::Congested(LinkId(0)));
    }

    #[test]
    fn cascading_bottlenecks() {
        // line: a -1-> b -2-> c, link1 100k, link2 60k.
        // Bundle X rides both; bundle Y rides only link1.
        // Stage 1: X and Y grow equally until link2 fills at X=60k... but
        // X also competes on link1. Trace: equal weights w. Link2 load =
        // w t; saturates at t2 = 60k/w. Link1 load = 2 w t; saturates at
        // t1 = 100k/(2w) = 50k/w < t2. So link1 saturates first, freezing
        // both at 50k each. Link2 never fills: X=50k, Y=50k.
        let mut b = TopologyBuilder::new("line");
        for n in ["a", "b", "c"] {
            b.add_node(n).unwrap();
        }
        let (l1, _) = b.add_duplex_link("a", "b", kbps(100.0), ms(5.0)).unwrap();
        let (l2, _) = b.add_duplex_link("b", "c", kbps(60.0), ms(5.0)).unwrap();
        let t = b.build();
        let m = FlowModel::with_defaults(&t);
        let out = m.evaluate(&[
            bundle(0, 10, vec![l1, l2], ms(10.0), kbps(100.0)),
            bundle(1, 10, vec![l1], ms(10.0), kbps(100.0)),
        ]);
        // Same flows but X's RTT is longer (20ms vs ... wait both paths
        // have different delays: X path 10ms -> rtt 20ms, Y path 10ms
        // (we set both to 10ms) -> equal weights as constructed above.
        assert!((out.bundle_rates[0].kbps() - 50.0).abs() < 1e-6);
        assert!((out.bundle_rates[1].kbps() - 50.0).abs() < 1e-6);
        assert_eq!(out.bundle_status[0], BundleStatus::Congested(LinkId(0)));
        assert_eq!(out.congested, vec![LinkId(0)]);
        assert!(out.link_load[l2.index()].kbps() <= 60.0 + 1e-9);
    }

    #[test]
    fn second_bottleneck_fills_after_first() {
        // Same line, but Y wants only 20k: Y satisfies early, then X
        // is limited by link2 (60k), not link1 (100k - ... X alone on
        // link1 after Y: link1 has 80k headroom, link2 has 60k).
        let mut b = TopologyBuilder::new("line");
        for n in ["a", "b", "c"] {
            b.add_node(n).unwrap();
        }
        let (l1, _) = b.add_duplex_link("a", "b", kbps(100.0), ms(5.0)).unwrap();
        let (l2, _) = b.add_duplex_link("b", "c", kbps(60.0), ms(5.0)).unwrap();
        let t = b.build();
        let m = FlowModel::with_defaults(&t);
        let out = m.evaluate(&[
            bundle(0, 10, vec![l1, l2], ms(10.0), kbps(100.0)),
            bundle(1, 10, vec![l1], ms(10.0), kbps(2.0)),
        ]);
        assert_eq!(out.bundle_status[1], BundleStatus::Satisfied);
        assert!((out.bundle_rates[0].kbps() - 60.0).abs() < 1e-6);
        assert_eq!(out.bundle_status[0], BundleStatus::Congested(l2));
        assert_eq!(out.congested, vec![l2]);
    }

    #[test]
    fn trivial_paths_always_satisfied() {
        let t = pipe(kbps(1.0), ms(5.0));
        let m = FlowModel::with_defaults(&t);
        let out = m.evaluate(&[bundle(0, 100, vec![], Delay::ZERO, mbps(10.0))]);
        assert_eq!(out.bundle_status[0], BundleStatus::Satisfied);
        assert_eq!(out.bundle_rates[0], mbps(1000.0));
        assert!(!out.is_congested());
    }

    #[test]
    fn empty_input() {
        let t = pipe(kbps(1.0), ms(5.0));
        let m = FlowModel::with_defaults(&t);
        let out = m.evaluate(&[]);
        assert!(out.bundle_rates.is_empty());
        assert!(!out.is_congested());
    }

    #[test]
    fn congested_links_sorted_by_oversubscription() {
        // Two independent pipes with different oversubscription.
        let mut b = TopologyBuilder::new("two-pipes");
        for n in ["a", "b", "c", "d"] {
            b.add_node(n).unwrap();
        }
        let (p1, _) = b.add_duplex_link("a", "b", kbps(100.0), ms(5.0)).unwrap();
        let (p2, _) = b.add_duplex_link("c", "d", kbps(100.0), ms(5.0)).unwrap();
        let t = b.build();
        let m = FlowModel::with_defaults(&t);
        let out = m.evaluate(&[
            bundle(0, 10, vec![p1], ms(5.0), kbps(20.0)), // 2x oversubscribed
            bundle(1, 10, vec![p2], ms(5.0), kbps(50.0)), // 5x oversubscribed
        ]);
        assert_eq!(out.congested, vec![p2, p1]);
    }

    #[test]
    fn he_core_full_matrix_runs_fast_and_sane() {
        let (topo, bundles) = he_bundles(mbps(100.0), 7);
        let m = FlowModel::with_defaults(&topo);
        let out = m.evaluate(&bundles);
        // Conservation invariants.
        for l in topo.links() {
            assert!(
                out.link_load[l.index()].bps() <= topo.capacity(l).bps() + 1e-3,
                "link {} over capacity",
                topo.link_label(l)
            );
        }
        for (i, b) in bundles.iter().enumerate() {
            assert!(out.bundle_rates[i].bps() <= b.demand().bps() + 1e-3);
        }
    }

    /// Bitwise outcome equality — the incremental contract.
    fn assert_outcomes_identical(a: &ModelOutcome, b: &ModelOutcome) {
        if let Some(field) = a.bitwise_mismatch(b) {
            panic!("outcomes differ bitwise in {field}");
        }
    }

    /// What [`evaluate_from`] produced.
    struct Patched {
        evaluation: Evaluation,
        affected: Vec<u32>,
    }

    /// Test wrapper over the in-place patcher: clones `prev` and `old`,
    /// turns the `new` list into a splice (`prev_index[i]` is bundle
    /// `i`'s index in `old` when it is unchanged, `None` when it is new
    /// or changed; unmapped old bundles count as removed), applies it in
    /// place, and checks the patched table is `new`.
    fn evaluate_from(
        m: &FlowModel<'_>,
        prev: &Evaluation,
        old: &[BundleSpec],
        new: &[BundleSpec],
        prev_index: &[Option<u32>],
        touched: &[LinkId],
    ) -> Patched {
        assert_eq!(prev_index.len(), new.len());
        let mut splice = Splice::default();
        let mut at = 0usize; // next unconsumed old bundle
        let mut run: Vec<BundleSpec> = Vec::new();
        for (b, pi) in new.iter().zip(prev_index) {
            match pi {
                None => run.push(b.clone()),
                Some(j) => {
                    splice.push(at, *j as usize - at, run.drain(..));
                    at = *j as usize + 1;
                }
            }
        }
        splice.push(at, old.len() - at, run.drain(..));
        let mut evaluation = prev.clone();
        let mut table = old.to_vec();
        let mut ws = Workspace::new();
        m.apply_delta(&mut evaluation, &mut table, &mut splice, touched, &mut ws);
        assert_eq!(table.len(), new.len());
        for (a, b) in table.iter().zip(new) {
            assert_eq!((&a.links, a.flow_count), (&b.links, b.flow_count));
        }
        if let Some(field) = evaluation.bitwise_mismatch(&m.evaluate_traced(new)) {
            panic!("patched evaluation differs from a full one in {field}");
        }
        Patched {
            evaluation,
            affected: ws.affected().to_vec(),
        }
    }

    #[test]
    fn evaluate_from_identity_touches_nothing() {
        let t = pipe(kbps(300.0), ms(5.0));
        let m = FlowModel::with_defaults(&t);
        let bundles = vec![bundle(0, 10, vec![LinkId(0)], ms(5.0), kbps(50.0))];
        let prev = m.evaluate_traced(&bundles);
        let inc = evaluate_from(&m, &prev, &bundles, &bundles, &[Some(0)], &[]);
        assert!(inc.affected.is_empty(), "nothing was dirty");
        assert_outcomes_identical(&inc.evaluation.outcome, &prev.outcome);
    }

    #[test]
    fn evaluate_from_refills_only_the_affected_component() {
        // Two independent congested pipes; changing the bundle on one
        // must not re-fill the other.
        let mut b = TopologyBuilder::new("two-pipes");
        for n in ["a", "b", "c", "d"] {
            b.add_node(n).unwrap();
        }
        let (p1, _) = b.add_duplex_link("a", "b", kbps(100.0), ms(5.0)).unwrap();
        let (p2, _) = b.add_duplex_link("c", "d", kbps(100.0), ms(5.0)).unwrap();
        let t = b.build();
        let m = FlowModel::with_defaults(&t);
        let old = vec![
            bundle(0, 10, vec![p1], ms(5.0), kbps(20.0)),
            bundle(1, 10, vec![p2], ms(5.0), kbps(50.0)),
        ];
        let prev = m.evaluate_traced(&old);
        // Shrink bundle 0's demand below the pipe: its component
        // decongests; bundle 1 is untouched.
        let new = vec![
            bundle(0, 10, vec![p1], ms(5.0), kbps(5.0)),
            bundle(1, 10, vec![p2], ms(5.0), kbps(50.0)),
        ];
        let inc = evaluate_from(&m, &prev, &old, &new, &[None, Some(1)], &[p1]);
        assert_eq!(inc.affected, vec![0], "only the changed pipe re-fills");
        assert_outcomes_identical(&inc.evaluation.outcome, &m.evaluate(&new));
        assert_eq!(inc.evaluation.outcome.congested, vec![p2]);
    }

    #[test]
    fn evaluate_from_couples_through_binding_links() {
        // Three bundles: 0 and 1 share a saturating pipe, 2 is
        // independent. Dirtying 0 must pull 1 into the re-fill (their
        // shared link is binding) but leave 2 untouched.
        let mut b = TopologyBuilder::new("shared");
        for n in ["a", "b", "c", "d"] {
            b.add_node(n).unwrap();
        }
        let (shared, _) = b.add_duplex_link("a", "b", kbps(100.0), ms(5.0)).unwrap();
        let (solo, _) = b.add_duplex_link("c", "d", kbps(100.0), ms(5.0)).unwrap();
        let t = b.build();
        let m = FlowModel::with_defaults(&t);
        let old = vec![
            bundle(0, 10, vec![shared], ms(5.0), kbps(30.0)),
            bundle(1, 10, vec![shared], ms(5.0), kbps(30.0)),
            bundle(2, 10, vec![solo], ms(5.0), kbps(5.0)),
        ];
        let prev = m.evaluate_traced(&old);
        assert_eq!(prev.outcome.congested, vec![shared]);
        let new = vec![
            bundle(0, 4, vec![shared], ms(5.0), kbps(30.0)),
            bundle(1, 10, vec![shared], ms(5.0), kbps(30.0)),
            bundle(2, 10, vec![solo], ms(5.0), kbps(5.0)),
        ];
        let inc = evaluate_from(&m, &prev, &old, &new, &[None, Some(1), Some(2)], &[shared]);
        assert_eq!(inc.affected, vec![0, 1], "sharer re-fills, loner survives");
        assert_outcomes_identical(&inc.evaluation.outcome, &m.evaluate(&new));
    }

    #[test]
    fn evaluate_from_handles_added_and_removed_bundles() {
        let mut b = TopologyBuilder::new("two-pipes");
        for n in ["a", "b", "c", "d"] {
            b.add_node(n).unwrap();
        }
        let (p1, _) = b.add_duplex_link("a", "b", kbps(100.0), ms(5.0)).unwrap();
        let (p2, _) = b.add_duplex_link("c", "d", kbps(100.0), ms(5.0)).unwrap();
        let t = b.build();
        let m = FlowModel::with_defaults(&t);
        let old = vec![
            bundle(0, 10, vec![p1], ms(5.0), kbps(20.0)),
            bundle(1, 10, vec![p2], ms(5.0), kbps(50.0)),
        ];
        let prev = m.evaluate_traced(&old);
        // Bundle 0 disappears (its aggregate went idle); a new bundle 2
        // appears on the same pipe as the survivor.
        let new = vec![
            bundle(1, 10, vec![p2], ms(5.0), kbps(50.0)),
            bundle(2, 3, vec![p2], ms(5.0), kbps(10.0)),
        ];
        let inc = evaluate_from(&m, &prev, &old, &new, &[Some(1), None], &[p1, p2]);
        assert_outcomes_identical(&inc.evaluation.outcome, &m.evaluate(&new));
        // The vacated pipe carries nothing.
        assert_eq!(
            inc.evaluation.outcome.link_load[p1.index()],
            Bandwidth::ZERO
        );
    }

    #[test]
    fn evaluate_from_matches_full_on_he_under_random_churn() {
        let (topo, mut bundles) = he_bundles(mbps(5.0), 3); // scarce: real contention
        let m = FlowModel::with_defaults(&topo);
        let mut prev = m.evaluate_traced(&bundles);
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut bounded = 0usize;
        for _ in 0..40 {
            // Churn one bundle's flow count.
            let victim = (next() % bundles.len() as u64) as usize;
            let mut changed = bundles.clone();
            changed[victim].flow_count = 1 + (next() % 40) as u32;
            let prev_index: Vec<Option<u32>> = (0..bundles.len())
                .map(|i| (i != victim).then_some(i as u32))
                .collect();
            let touched: Vec<LinkId> = bundles[victim].links.clone();
            let inc = evaluate_from(&m, &prev, &bundles, &changed, &prev_index, &touched);
            let full = m.evaluate_traced(&changed);
            assert_outcomes_identical(&inc.evaluation.outcome, &full.outcome);
            bounded += usize::from(inc.affected.len() < changed.len());
            bundles = changed;
            prev = inc.evaluation;
        }
        assert!(bounded > 0, "no churn re-filled less than the whole table");
    }

    /// HE-core bundle table on shortest paths — the shared parallel-fill
    /// fixture: many independent pipes ⇒ many components.
    fn he_bundles(cap: Bandwidth, seed: u64) -> (Topology, Vec<BundleSpec>) {
        use fubar_traffic::{workload, WorkloadConfig};
        let topo = generators::he_core(cap);
        let tm = workload::generate(&topo, &WorkloadConfig::default(), seed);
        let mut bundles = Vec::new();
        for a in tm.iter() {
            let path = topo
                .graph()
                .shortest_path(a.ingress, a.egress, &fubar_graph::LinkSet::new())
                .expect("HE core is connected");
            bundles.push(BundleSpec::new(a, &path, a.flow_count));
        }
        (topo, bundles)
    }

    #[test]
    fn parallel_fill_matches_serial_at_any_worker_count() {
        let (topo, bundles) = he_bundles(mbps(5.0), 3); // scarce: congested
        let m = FlowModel::with_defaults(&topo);
        let serial = m.evaluate_traced(&bundles);
        assert!(serial.outcome.is_congested(), "fixture must contend");
        for workers in [1, 2, 4, 8] {
            let mut pw = ParallelWorkspace::new(workers);
            let par = m.evaluate_traced_parallel(&bundles, &mut pw);
            assert_outcomes_identical(&par.outcome, &serial.outcome);
            assert_eq!(par.freeze_keys, serial.freeze_keys, "workers={workers}");
            assert_eq!(par.demands, serial.demands, "workers={workers}");
            assert!(pw.comp_count > 1, "HE must decompose");
            let fills: usize = pw.workers.iter().map(|w| w.fill.stats().fills).sum();
            assert_eq!(fills, pw.comp_count);
        }
    }

    #[test]
    fn parallel_fill_handles_empty_and_trivial_bundles() {
        let t = pipe(kbps(300.0), ms(5.0));
        let m = FlowModel::with_defaults(&t);
        let mut pw = ParallelWorkspace::new(4);
        let empty = m.evaluate_traced_parallel(&[], &mut pw);
        assert!(empty.outcome.bundle_rates.is_empty());
        // A linkless bundle is its own singleton component.
        let bundles = vec![
            bundle(0, 10, vec![LinkId(0)], ms(5.0), kbps(50.0)),
            bundle(1, 100, vec![], Delay::ZERO, mbps(10.0)),
        ];
        let par = m.evaluate_traced_parallel(&bundles, &mut pw);
        assert_outcomes_identical(&par.outcome, &m.evaluate(&bundles));
        assert_eq!(pw.comp_count, 2);
    }

    #[test]
    fn evaluate_from_parallel_matches_serial_on_fallback() {
        let (topo, mut bundles) = he_bundles(mbps(5.0), 5);
        let m = FlowModel::with_defaults(&topo);
        let prev = m.evaluate_traced(&bundles);
        let old = bundles.clone();
        // Change every bundle: the affected set is the whole input, and
        // the engine patches it in place all the same, which
        // `evaluate_from` checks against `evaluate_traced` like any
        // other patch.
        for b in &mut bundles {
            b.flow_count += 1;
        }
        let prev_index: Vec<Option<u32>> = vec![None; bundles.len()];
        let touched: Vec<LinkId> = topo.links().collect();
        let inc = evaluate_from(&m, &prev, &old, &bundles, &prev_index, &touched);
        let every: Vec<u32> = (0..bundles.len() as u32).collect();
        assert_eq!(
            inc.affected, every,
            "an all-dirty splice re-fills every bundle"
        );
    }

    #[test]
    fn aggregate_with_multiple_bundles_is_additive() {
        // Splitting an aggregate across two disjoint pipes gives each
        // bundle its own share.
        let mut b = TopologyBuilder::new("par");
        for n in ["a", "b"] {
            b.add_node(n).unwrap();
        }
        let (l1, _) = b.add_duplex_link("a", "b", kbps(100.0), ms(5.0)).unwrap();
        let t = b.build();
        // Same aggregate id across two bundles on the same link is also
        // legal: they are distinct bundles to the model.
        let m = FlowModel::with_defaults(&t);
        let out = m.evaluate(&[
            bundle(0, 5, vec![l1], ms(5.0), kbps(30.0)),
            bundle(0, 5, vec![l1], ms(5.0), kbps(30.0)),
        ]);
        let a = Aggregate::new(
            AggregateId(0),
            NodeId(0),
            NodeId(1),
            TrafficClass::RealTime,
            10,
        );
        let _ = a;
        let total: f64 = out.bundle_rates.iter().map(|r| r.kbps()).sum();
        assert!(
            (total - 100.0).abs() < 1e-6,
            "pipe fully shared, got {total}"
        );
    }

    /// What the border load bound and the kept-load rule did, observed
    /// through a workspace's private state.
    #[derive(Debug, Default)]
    pub(super) struct Probe {
        /// Dirty links whose load an in-place patch kept.
        pub(super) loads_kept: usize,
        /// Walk every binding border link's crossing row.
        pub(super) walk_all: bool,
        /// Border links the load bound settled, and crossing rows
        /// border verification walked.
        pub(super) load_decided: usize,
        pub(super) walks: usize,
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// A traffic matrix on `topo` and one bundle per aggregate on its
    /// shortest path (bundle `i` is aggregate `i`'s).
    fn shortest_path_instance(topo: &Topology, seed: u64) -> (TrafficMatrix, Vec<BundleSpec>) {
        use fubar_traffic::{workload, WorkloadConfig};
        let tm = workload::generate(topo, &WorkloadConfig::default(), seed);
        let none = fubar_graph::LinkSet::new();
        let bundles = (tm.iter())
            .map(|a| {
                let path = topo.graph().shortest_path(a.ingress, a.egress, &none);
                BundleSpec::new(a, &path.expect("connected"), a.flow_count)
            })
            .collect();
        (tm, bundles)
    }

    /// HE-961 and `planetary(4, 4)`, both congested.
    fn congested_instances() -> Vec<(Topology, TrafficMatrix, Vec<BundleSpec>)> {
        [
            (generators::he_core(mbps(75.0)), 1),
            (generators::planetary(4, 4, mbps(20.0)), 5),
        ]
        .into_iter()
        .map(|(topo, seed)| {
            let (tm, bundles) = shortest_path_instance(&topo, seed);
            (topo, tm, bundles)
        })
        .collect()
    }

    /// A new segment for aggregate `a`, whose bundles are `segment`: a
    /// random bundle's path with one random link avoided carries the
    /// whole aggregate (a move, or a merge of a split), or — for a
    /// one-bundle segment with flows to spare, half the time — some of
    /// its flows beside the old path (a 1 → 2 split).
    fn reroute(
        topo: &Topology,
        a: &Aggregate,
        segment: &[BundleSpec],
        r: &mut impl FnMut() -> u64,
    ) -> Option<Vec<BundleSpec>> {
        let from = segment.get((r() % segment.len().max(1) as u64) as usize)?;
        if from.links.is_empty() {
            return None;
        }
        let mut avoid = fubar_graph::LinkSet::new();
        avoid.insert(from.links[(r() % from.links.len() as u64) as usize]);
        let detour = topo.graph().shortest_path(a.ingress, a.egress, &avoid)?;
        let flows: u32 = segment.iter().map(|b| b.flow_count).sum();
        Some(
            if segment.len() == 1 && flows >= 2 && r().is_multiple_of(2) {
                let moved = 1 + (r() % u64::from(flows - 1)) as u32;
                let mut stay = from.clone();
                stay.flow_count -= moved;
                vec![stay, BundleSpec::new(a, &detour, moved)]
            } else {
                vec![BundleSpec::new(a, &detour, flows)]
            },
        )
    }

    /// A scored candidate, bit for bit: affected set, rates, and the
    /// min-max overlay.
    type Scored = (Vec<u32>, Vec<u64>, Vec<(u32, u64)>);

    fn score(
        m: &FlowModel<'_>,
        prev: &Evaluation,
        delta: &BundleDelta<'_>,
        ws: &mut Workspace,
    ) -> Scored {
        let DeltaScore { affected, rates } = m.score_delta(prev, delta, ws);
        let bits = rates.iter().map(|r| r.to_bits()).collect();
        let affected = affected.to_vec();
        let overlay = m.changed_link_demand(prev, delta, ws);
        let overlay = overlay.iter().map(|&(l, d)| (l, d.to_bits())).collect();
        (affected, bits, overlay)
    }

    /// The three ways a fill skips work, each switched back to the rule
    /// it replaced: arm every link with active weight, push an
    /// unprepared fill's bundle events through the heap, walk every
    /// binding border link's crossing row.
    const RULES_REPLACED: [&str; 3] = ["arm all", "heap bundles", "walk all"];

    fn by_rule_replaced(rule: &str) -> Workspace {
        let mut ws = Workspace::new();
        let probe = &mut ws.fill.state.probe;
        match rule {
            "arm all" => probe.arm_all = true,
            "heap bundles" => probe.heap_bundles = true,
            _ => ws.probe.walk_all = true,
        }
        ws
    }

    /// A scored candidate and the freeze keys of its fill, bit for bit.
    fn score_keyed(
        m: &FlowModel<'_>,
        prev: &Evaluation,
        delta: &BundleDelta<'_>,
        ws: &mut Workspace,
    ) -> (Scored, Vec<(u64, u8, u32, u32)>) {
        let scored = score(m, prev, delta, ws);
        let key = |k: &FreezeKey| (k.time.to_bits(), k.kind, k.primary, k.secondary);
        (scored, ws.fill.state.keys.iter().map(key).collect())
    }

    /// Per link a member of the last fill crosses, ascending: its load
    /// when the fill ended and its crossing members' prior load, bit for
    /// bit.
    fn slot_sums(ws: &Workspace) -> Vec<(u32, u64, u64)> {
        let f = &ws.fill.state;
        let slots = f.touched_links.iter().zip(&f.links).zip(&f.prior);
        let mut sums: Vec<_> = (slots.filter(|((_, ls), _)| ls.demand > 0.0))
            .map(|((&l, ls), p)| (l, ls.frozen_load.to_bits(), p.to_bits()))
            .collect();
        sums.sort_unstable();
        sums
    }

    /// Binding-only arming, presorted bundle events in every fill and
    /// the border load bound are transparent: every candidate — on
    /// HE-961 and on `planetary(4, 4)`, whose trunks carry many
    /// aggregates; whole moves and 1 → 2 splits; filled through a
    /// compiled component or ad hoc — scores to the same affected set,
    /// rates, freeze keys and min-max overlay with each switched back
    /// to the rule it replaced, and a full evaluation under the old
    /// arming and heap is the same evaluation. A fill through a prepared
    /// component ends with the loads and prior loads, link for link, of
    /// the same candidate's fill against an evaluation with nothing
    /// prepared. Each shortcut must have run: on each instance some link
    /// left unarmed and some unprepared fill; on the two together some
    /// border link settled by the load bound (HE-961's, whose border
    /// links have room), so that walking every link walks more, and some
    /// still walked (`planetary(4, 4)`'s, which run full).
    #[test]
    fn fill_shortcuts_score_like_the_rules_they_replace() {
        let (mut load_decided, mut walks, mut walks_saved) = (0, 0, 0);
        for (topo, tm, bundles) in congested_instances() {
            let m = FlowModel::with_defaults(&topo);
            let plain = m.evaluate_traced(&bundles);
            let mut eval = plain.clone();
            for l in eval.outcome.congested.clone().into_iter().take(2) {
                m.prepare_component(&mut eval, &bundles, l);
            }
            let (mut fast, mut unprepared) = (Workspace::new(), Workspace::new());
            let mut replaced = RULES_REPLACED.map(by_rule_replaced);
            let mut r = xorshift(0x51AB_0BE5);
            for round in 0..300 {
                let i = (r() % bundles.len() as u64) as usize;
                let a = tm.aggregate(AggregateId(i as u32));
                let Some(repl) = reroute(&topo, a, &bundles[i..=i], &mut r) else {
                    continue;
                };
                let delta = BundleDelta::new(&bundles, i, 1, &repl);
                let scored = score_keyed(&m, &eval, &delta, &mut fast);
                score(&m, &plain, &delta, &mut unprepared);
                let sums = slot_sums(&fast);
                assert_eq!(
                    sums,
                    slot_sums(&unprepared),
                    "{} round {round}",
                    topo.name()
                );
                for (rule, ws) in RULES_REPLACED.iter().zip(&mut replaced) {
                    let old = score_keyed(&m, &eval, &delta, ws);
                    assert_eq!(scored, old, "{} round {round}: {rule}", topo.name());
                }
            }
            let name = topo.name();
            let stats = fast.stats();
            assert!(fast.fill.state.probe.unarmed > 0, "{name}: all armed");
            assert!(stats.fills > stats.compiled_fills, "{name}: all prepared");
            (load_decided, walks) = (
                load_decided + fast.probe.load_decided,
                walks + fast.probe.walks,
            );
            let [arm_all, _, walk_all] = &replaced;
            assert_eq!(arm_all.fill.state.probe.unarmed, 0);
            assert_eq!(walk_all.probe.load_decided, 0);
            walks_saved += walk_all.probe.walks - fast.probe.walks;

            let mut old = FillScratch::default();
            old.state.probe.arm_all = true;
            old.state.probe.heap_bundles = true;
            let mut new = FillScratch::default();
            let full = m.evaluate_in(&bundles, &mut new);
            assert_eq!(
                full.bitwise_mismatch(&m.evaluate_in(&bundles, &mut old)),
                None
            );
            assert!(new.state.probe.unarmed > 0, "{name}: all armed in full");
        }
        assert!(load_decided > 0, "the load bound never decided");
        assert!(walks > 0, "nothing was walked");
        assert!(walks_saved > 0, "walking every link walked no more");
    }

    /// One changed segment: `(start, removed, new bundles)`, the range
    /// over the table as it was.
    type Change = (usize, usize, Vec<BundleSpec>);

    /// One commit of a commit sequence: one or two aggregates crossing
    /// `eval`'s most congested link rerouted (`segments` takes their new
    /// bundles) and, every third commit, a random link's capacity
    /// changed on `topo`. Returns the changes over `table`, which `eval`
    /// evaluates, and the links whose capacity changed.
    fn hot_commit(
        topo: &mut Topology,
        tm: &TrafficMatrix,
        segments: &mut [Vec<BundleSpec>],
        table: &[BundleSpec],
        eval: &Evaluation,
        commit: usize,
        r: &mut impl FnMut() -> u64,
    ) -> (Vec<Change>, Vec<LinkId>) {
        let hot = eval.outcome.congested.first().copied();
        let crossers: Vec<usize> = (0..segments.len())
            .filter(|&i| {
                segments[i]
                    .iter()
                    .any(|b| hot.is_some_and(|l| b.links.contains(&l)))
            })
            .collect();
        let mut picked: Vec<usize> = (0..1 + r() % 2)
            .map(|_| match crossers.len() {
                0 => (r() % segments.len() as u64) as usize,
                n => crossers[(r() % n as u64) as usize],
            })
            .collect();
        picked.sort_unstable();
        picked.dedup();
        let mut touched = Vec::new();
        if commit % 3 == 2 {
            let l = LinkId((r() % topo.link_count() as u64) as u32);
            topo.set_capacity(l, mbps(10.0 + (r() % 60) as f64));
            touched.push(l);
        }
        let mut changes = Vec::new();
        for &i in &picked {
            let a = tm.aggregate(AggregateId(i as u32));
            let Some(new) = reroute(topo, a, &segments[i], r) else {
                continue;
            };
            let start = table.iter().take_while(|b| b.aggregate.index() < i).count();
            changes.push((start, segments[i].len(), new.clone()));
            segments[i] = new;
        }
        (changes, touched)
    }

    fn splice_of(changes: &[Change]) -> Splice {
        let mut splice = Splice::default();
        for (start, removed, new) in changes {
            splice.push(*start, *removed, new.clone());
        }
        splice
    }

    /// The same through commits: on HE-961 and `planetary(4, 4)`, sixty
    /// in-place patches each — one or two aggregates moved or split off
    /// the most congested link, every third commit with a capacity
    /// change riding along — land the same evaluation with each fill
    /// shortcut switched back to the rule it replaced, and that
    /// evaluation is the full one. Each shortcut must have run.
    #[test]
    fn fill_shortcuts_patch_like_the_rules_they_replace() {
        let (mut unarmed, mut load_decided, mut walks) = (0, 0, 0);
        let instances = [
            (generators::he_core(mbps(75.0)), 1),
            (generators::planetary(4, 4, mbps(20.0)), 5),
        ];
        for (mut topo, seed) in instances {
            let (tm, bundles) = shortest_path_instance(&topo, seed);
            let mut segments: Vec<Vec<BundleSpec>> = bundles.into_iter().map(|b| vec![b]).collect();
            let table = segments.concat();
            let eval = FlowModel::with_defaults(&topo).evaluate_traced(&table);
            let mut fast = (eval.clone(), table.clone(), Workspace::new());
            let mut replaced =
                RULES_REPLACED.map(|rule| (eval.clone(), table.clone(), by_rule_replaced(rule)));
            let mut r = xorshift(0x0DDB_A115);
            for commit in 0..60 {
                let (table, eval) = (&fast.1, &fast.0);
                let (changes, touched) =
                    hot_commit(&mut topo, &tm, &mut segments, table, eval, commit, &mut r);
                let m = FlowModel::with_defaults(&topo);
                for (eval, table, ws) in std::iter::once(&mut fast).chain(&mut replaced) {
                    m.apply_delta(eval, table, &mut splice_of(&changes), &touched, ws);
                }
                let (name, full) = (topo.name(), m.evaluate_traced(&fast.1));
                assert_eq!(
                    fast.0.bitwise_mismatch(&full),
                    None,
                    "{name} commit {commit}"
                );
                for (rule, (eval, ..)) in RULES_REPLACED.iter().zip(&replaced) {
                    let old = eval.bitwise_mismatch(&fast.0);
                    assert_eq!(old, None, "{name} commit {commit}: {rule}");
                }
            }
            let ws = &fast.2;
            unarmed += ws.fill.state.probe.unarmed;
            load_decided += ws.probe.load_decided;
            walks += ws.probe.walks;
        }
        assert!(unarmed > 0, "all armed");
        assert!(load_decided > 0, "the load bound never decided");
        assert!(walks > 0, "nothing was walked");
    }

    /// The kept-load rule is transparent: through commit sequences on
    /// `planetary(4, 4)` — moves, 1 → 2 splits and 2 → 1 merges (so
    /// segments change length and the tail renumbers), one or two
    /// aggregates per commit, every third commit with a capacity change
    /// riding along — the in-place patch equals `evaluate_traced` of the
    /// spliced table bit for bit, and some dirty link kept its load.
    /// Keeping a touched link fails it; comparing rates but not freeze
    /// ranks does not (see `kept_loads_require_the_same_freeze_rank`).
    #[test]
    fn kept_loads_match_a_full_evaluation_through_commit_sequences() {
        let mut topo = generators::planetary(4, 4, mbps(20.0));
        let (tm, bundles) = shortest_path_instance(&topo, 5);
        let mut segments: Vec<Vec<BundleSpec>> = bundles.into_iter().map(|b| vec![b]).collect();
        let mut table = segments.concat();
        let mut eval = FlowModel::with_defaults(&topo).evaluate_traced(&table);
        let mut ws = Workspace::new();
        let mut r = xorshift(0x0C0F_FEE5);
        let mut resized = 0;
        for commit in 0..60 {
            let (changes, touched) =
                hot_commit(&mut topo, &tm, &mut segments, &table, &eval, commit, &mut r);
            resized += (changes.iter())
                .filter(|(_, removed, new)| new.len() != *removed)
                .count();
            let m = FlowModel::with_defaults(&topo);
            let mut splice = splice_of(&changes);
            m.apply_delta(&mut eval, &mut table, &mut splice, &touched, &mut ws);
            let expected = segments.concat();
            assert_eq!(table, expected, "commit {commit}");
            if let Some(field) = eval.bitwise_mismatch(&m.evaluate_traced(&table)) {
                panic!("commit {commit}: patched evaluation differs in {field}");
            }
        }
        assert!(resized > 0, "no segment changed length");
        assert!(ws.probe.loads_kept > 0, "no dirty link kept its load");
    }

    /// A re-filled crosser that keeps its rate but freezes at another
    /// place in the freeze order moves the link's load. Links `a`, `c`
    /// and `b` (ids ascending) all saturate at one water level `t`;
    /// bundle X rides `a`, `b` and the roomy link `l`, which Q
    /// (satisfied early, outside the component) and P (frozen by `c`
    /// at `t`, outside it too) also cross. Before the change `a`
    /// freezes X ahead of P; after Z on `a` sheds a flow, `b` freezes
    /// X at the same `t` — same rate bits, later rank — so `l`'s load
    /// folds `q + p + x` instead of `q + x + p`, which differ in the
    /// last bit. The patch must re-sum `l`, and does.
    #[test]
    fn kept_loads_require_the_same_freeze_rank() {
        let mut tb = TopologyBuilder::new("tie");
        for n in ["u", "v"] {
            tb.add_node(n).unwrap();
        }
        let bps = Bandwidth::from_bps;
        let mut link = |cap| tb.add_duplex_link("u", "v", bps(cap), ms(1.0)).unwrap().0;
        let (a, c, b, l) = (link(10.0), link(10.0), link(10.0), link(1e6));
        let topo = tb.build();
        let m = FlowModel::with_defaults(&topo);
        let rtt_1s = Delay::from_secs(0.5);
        let old = vec![
            bundle(0, 1, vec![l], rtt_1s, bps(0.3)),       // Q
            bundle(1, 1, vec![a, b, l], rtt_1s, bps(1e3)), // X
            bundle(2, 2, vec![a], rtt_1s, bps(1e3)),       // Z
            bundle(3, 2, vec![b], rtt_1s, bps(1e3)),       // W
            bundle(4, 3, vec![c, l], rtt_1s, bps(1e3)),    // P
        ];
        let prev = m.evaluate_traced(&old);
        let mut new = old.clone();
        new[2].flow_count = 1;
        let full = m.evaluate_traced(&new);
        let (before, after) = (prev.freeze_keys[1], full.freeze_keys[1]);
        assert_eq!((before.kind, before.primary), (1, a.0));
        assert_eq!((after.kind, after.primary), (1, b.0));
        assert_eq!(
            prev.outcome.bundle_rates[1].bps().to_bits(),
            full.outcome.bundle_rates[1].bps().to_bits(),
            "X keeps its rate"
        );
        assert_ne!(
            prev.outcome.link_load[l.index()].bps().to_bits(),
            full.outcome.link_load[l.index()].bps().to_bits(),
            "the fixture must move `l`'s load"
        );
        let prev_index = [Some(0), Some(1), None, Some(3), Some(4)];
        let inc = evaluate_from(&m, &prev, &old, &new, &prev_index, &[]);
        assert_eq!(inc.affected, vec![1, 2, 3], "X, Z and W re-fill");
    }

    /// `Workspace::begin` clears every stamped array when the candidate
    /// stamp wraps. A workspace warmed up at low stamps and then moved
    /// to `u32::MAX - 2` scores candidates across the wrap — the ones
    /// it scored at the stamps the wrap reuses among them — exactly as
    /// a fresh workspace does: affected set, rates and min-max overlay
    /// (which reads the "exact demand summed" stamp), bit for bit. So
    /// does a candidate that lands, right after the wrap, on the stamp
    /// at which another one summed a link they both touch to another
    /// demand: it must sum the link afresh.
    #[test]
    fn workspace_scores_alike_across_a_stamp_wrap() {
        let topo = generators::he_core(mbps(75.0));
        let (tm, bundles) = shortest_path_instance(&topo, 1);
        let m = FlowModel::with_defaults(&topo);
        let eval = m.evaluate_traced(&bundles);
        let mut r = xorshift(0x57A3_9E11);
        let mut candidates: Vec<(usize, Vec<BundleSpec>)> = Vec::new();
        while candidates.len() < 8 {
            let i = (r() % bundles.len() as u64) as usize;
            let a = tm.aggregate(AggregateId(i as u32));
            if let Some(repl) = reroute(&topo, a, &bundles[i..=i], &mut r) {
                candidates.push((i, repl));
            }
        }
        let delta = |c: usize| BundleDelta::new(&bundles, candidates[c].0, 1, &candidates[c].1);
        let fresh: Vec<Scored> = (0..candidates.len())
            .map(|c| score(&m, &eval, &delta(c), &mut Workspace::new()))
            .collect();

        let mut ws = Workspace::new();
        for c in 0..6 {
            score(&m, &eval, &delta(c), &mut ws);
        }
        ws.stamp = u32::MAX - 2;
        ws.fill_stamp = u32::MAX - 2;
        // Stamps u32::MAX - 1 and u32::MAX, then 1, 2, … again.
        let order = [6, 7, 0, 1, 2, 3, 4, 5];
        for (k, &c) in order.iter().enumerate() {
            let scored = score(&m, &eval, &delta(c), &mut ws);
            assert_eq!(scored, fresh[c], "candidate {k} after the jump");
        }
        assert_eq!(ws.stamp, 6, "the stamp wrapped");

        let clash = |a: usize, b: usize| {
            (fresh[a].2.iter()).any(|&(l, d)| fresh[b].2.iter().any(|&(k, e)| k == l && e != d))
        };
        let pairs = (0..8).flat_map(|a| (0..8).map(move |b| (a, b)));
        let (a, b) = (pairs.filter(|&(a, b)| a != b).find(|&(a, b)| clash(a, b)))
            .expect("two candidates sum a common link to different demands");
        let mut ws = Workspace::new();
        score(&m, &eval, &delta(a), &mut ws);
        ws.stamp = u32::MAX;
        assert_eq!(score(&m, &eval, &delta(b), &mut ws), fresh[b]);
        assert_eq!(ws.stamp, 1, "the stamp wrapped onto candidate {a}'s");
    }
}
