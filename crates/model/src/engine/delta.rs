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
//! settles (*Bounded border verification* in `border.rs`), and a dirty link none
//! of whose crossers froze differently keeps its load (*Kept loads* in `patch.rs`). A
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
//!
//! [`BINDING_SLACK`]: super::BINDING_SLACK
//! [`FreezeKey`]: super::FreezeKey

use super::border::{close_component, verify_border, Crossings};
use super::evaluation::Evaluation;
use super::workspace::{DeltaScore, Workspace};
use super::FlowModel;
use crate::component::{Component, NONE};
use crate::spec::BundleSpec;
use crate::splice::{BundleDelta, Splice, POOL};
use fubar_graph::LinkId;
use fubar_topology::Bandwidth;

impl<'a> FlowModel<'a> {
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
        // verification* in `border.rs`). Untouched links keep their
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

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::super::workspace::FillScratch;
    use super::super::FreezeKey;
    use super::*;
    use fubar_topology::{generators, Topology, TopologyBuilder};
    use fubar_traffic::{AggregateId, TrafficMatrix};

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
}
