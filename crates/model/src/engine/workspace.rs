use super::border::{border_load_bound, Crossings};
use super::evaluation::Evaluation;
use crate::component::{Component, FillState, Patch, NONE};
use crate::spec::BundleSpec;
use crate::splice::{repl_row, Seg, POOL};

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
///
/// [`FlowModel::score_delta`]: super::FlowModel::score_delta
#[derive(Debug, Default)]
pub struct Workspace {
    /// Candidate stamp: bumped once per `score_delta`/`apply_delta`.
    pub(super) stamp: u32,
    /// Per bundle: membership stamp of the affected set, and each
    /// member's source tag (see [`POOL`]).
    pub(super) in_set: Vec<u32>,
    pub(super) src: Vec<u32>,
    /// Per member of the affected set: its position in the last fill,
    /// [`NONE`] when it was absorbed since.
    pub(super) filled_at: Vec<u32>,
    /// Per link: stamp marking links touched by the change, and their
    /// new offered demand, re-accumulated where the `summed` stamp
    /// says so.
    pub(super) touched_stamp: Vec<u32>,
    pub(super) touched_demand: Vec<f64>,
    pub(super) summed: Vec<u32>,
    /// Per link: closure already expanded through this link.
    pub(super) link_seen: Vec<u32>,
    /// Fill stamp — bumped once per fill, several times per candidate
    /// when border verification expands the component — and per link
    /// the fill border verification last ran against, so every re-fill
    /// re-verifies.
    pub(super) fill_stamp: u32,
    pub(super) border_seen: Vec<u32>,
    /// Closure work list.
    pub(super) queue: Vec<u32>,
    /// The affected component (sorted ascending before each fill).
    pub(super) subset: Vec<u32>,
    /// Crossing-row scratch of the in-place patcher.
    pub(super) cs_buf: Vec<u32>,
    /// Rate scratch of a patched fill's hand-over.
    cs_rates: Vec<f64>,
    /// Demands of the replacement segment (splice path).
    pub(super) seg_demand: Vec<f64>,
    /// Links touched by the change, as a list.
    pub(super) changed_links: Vec<u32>,
    /// Whether every replacement bundle rides the links of the bundle
    /// it replaces, so that no crossing row changes.
    pub(super) rows_kept: bool,
    /// Whether every capacity is the one the previous loads were capped
    /// at — false when the change moved one — so that a previous load
    /// below its capacity is its uncapped fold.
    pub(super) caps_kept: bool,
    /// `(link, new offered demand)` pairs, ascending by link — the
    /// sparse overlay minmax scoring merges over the incumbent.
    pub(super) changed_demand: Vec<(u32, f64)>,
    /// `(link, spliced index, source tag)` per link crossing of a
    /// replacement bundle, sorted — what [`Crossings`] merges over the
    /// previous rows.
    pub(super) repl_cross: Vec<(u32, u32, u32)>,
    /// `(freeze rank, rate)` scratch of the in-place patcher's per-link
    /// load re-accumulation.
    pub(super) entries: Vec<(u128, f64)>,
    /// Per member of the patched fill: whether it is new or froze
    /// differently (the in-place patcher's kept-load test).
    pub(super) moved: Vec<bool>,
    /// The fill's own scratch.
    pub(super) fill: FillScratch,
    #[cfg(test)]
    pub(super) probe: super::tests::Probe,
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
    ///
    /// [`FlowModel::apply_delta`]: super::FlowModel::apply_delta
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
    ///
    /// [`FlowModel::score_delta`]: super::FlowModel::score_delta
    pub fn filled_links(&self) -> impl Iterator<Item = u32> + '_ {
        (self.fill.state.touched_links.iter())
            .chain(&self.changed_links)
            .copied()
    }

    /// Starts a new candidate epoch, growing buffers if the instance
    /// got bigger. Handles stamp wrap-around by a one-off reset.
    pub(super) fn begin(&mut self, n_bundles: usize, n_links: usize) {
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
    pub(super) fn begin_verification(&mut self) {
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
    pub(super) fn touch_link(&mut self, li: usize) {
        if self.touched_stamp[li] != self.stamp {
            self.touched_stamp[li] = self.stamp;
            self.changed_links.push(li as u32);
        }
    }

    /// Whether border link `li` provably ends below `bar` after the
    /// fill: `filled` and `carried` are its crossing members' new load
    /// and prior load ([`border_load_bound`]). A previous load at its
    /// capacity may be a cap, not the fold, and proves nothing.
    pub(super) fn load_below(
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
    pub(super) fn exact_demand(&mut self, li: usize, crossings: &Crossings<'_>) -> f64 {
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
    pub(super) fn settle(&mut self, prev: &Evaluation, segs: &[Seg]) {
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
    pub(super) fn adopt_patched_fill(&mut self, comp: &Component) {
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
    pub(super) fn absorb(&mut self, gi: u32, src: u32) {
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
pub(super) struct FillScratch {
    pub(super) comp: Component,
    pub(super) patch: Patch,
    pub(super) state: FillState,
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
    pub(super) fn fill<'b>(
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
///
/// [`FlowModel::changed_link_demand`]: super::FlowModel::changed_link_demand
/// [`FlowModel::score_delta`]: super::FlowModel::score_delta
#[derive(Debug)]
pub struct DeltaScore<'w> {
    /// Global (spliced-list) indices of re-filled bundles, ascending.
    pub affected: &'w [u32],
    /// New rates in bps, parallel to `affected`.
    pub rates: &'w [f64],
}

#[cfg(test)]
mod tests {
    use super::super::tests::{mbps, reroute, score, shortest_path_instance, xorshift, Scored};
    use super::*;
    use crate::engine::FlowModel;
    use crate::splice::BundleDelta;
    use fubar_topology::generators;
    use fubar_traffic::AggregateId;

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
