//! The simulated data plane.
//!
//! [`Fabric`] owns the ground-truth topology and traffic, the installed
//! [`RuleSet`], the set of failed links, and per-aggregate/per-link
//! counters. Each call to [`Fabric::run_epoch`] maps the *true* traffic
//! matrix onto the installed weighted paths (falling back to live
//! shortest paths when a rule's path has failed — the data plane's
//! IGP-style protection), evaluates the flow model, and accumulates
//! counters exactly as switch hardware would.
//!
//! ### Incremental measurement
//!
//! Event-driven callers probe the fabric after every single change
//! ([`Fabric::peek`]), so the fabric keeps its last measurement — an
//! [`Incumbent`]: the bundle table with per-aggregate spans, the traced
//! flow-model evaluation, and the utility report — and tracks which
//! aggregates and links each mutation dirties. The next
//! `peek`/`run_epoch` re-routes only the dirty aggregates and hands
//! their new bundle segments to [`Incumbent::replace`] (one segment per
//! dirty aggregate, however many an event dirtied — a failure's hundred
//! aggregates are still *one* joint fill), which patches table,
//! evaluation and report **in place**: water-filling re-runs only on
//! the affected bottleneck component, loads re-derive only for dirty
//! links, utilities only for affected aggregates. When every dirty
//! aggregate keeps its bundle count — all flow churn on single-path
//! rules — a measurement costs O(dirty segments + component + crossing
//! rows of the dirty links) and allocates nothing but the dirty
//! aggregates' route vectors; an aggregate that gains or loses a
//! bundle additionally renumbers what lies behind it (spans, freeze
//! keys, crossing entries). [`Fabric::install`] dirties the aggregates
//! whose buckets it changed, like any other mutation; only the first
//! measurement builds the cache from nothing. The invariant (enforced
//! by property tests): the incremental measurement is **bitwise
//! identical** to the full recompute [`Fabric::peek_full`] performs.

use crate::rules::{GroupEntry, RuleSet};
use fubar_graph::{LinkSet, Path};
use fubar_model::{BundleSpec, FlowModel, Incumbent, ModelOutcome, PatchScratch, UtilityReport};
use fubar_topology::{Bandwidth, Delay, Topology};
use fubar_traffic::{Aggregate, AggregateId, TrafficMatrix};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Per-aggregate counters, as an SDN controller would read from
/// ingress-switch flow rules.
#[derive(Clone, Copy, Debug, Default)]
pub struct AggregateCounter {
    /// Bytes forwarded in the last epoch.
    pub bytes_last_epoch: f64,
    /// Cumulative bytes since the fabric started.
    pub bytes_total: f64,
    /// Flow count observed in the last epoch (ground truth; the
    /// estimator adds measurement noise on top).
    pub flows_last_epoch: u32,
    /// Whether any of the aggregate's bundles was congested last epoch.
    pub congested_last_epoch: bool,
}

/// What one epoch of the data plane produced. A probe
/// ([`Fabric::peek`], [`Fabric::run_epoch`]) lends the equilibrium and
/// the utilities from the measurement cache; the full-recompute oracle
/// [`Fabric::peek_full`] owns them.
#[derive(Clone, Debug)]
pub struct EpochReport<'a> {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// The model equilibrium of the installed routing under true load.
    pub outcome: Cow<'a, ModelOutcome>,
    /// True utilities achieved (computed against the true matrix).
    pub report: Cow<'a, UtilityReport>,
    /// Number of aggregates whose installed rules had to fall back to a
    /// live shortest path because every bucket crossed a failed link.
    pub fallback_count: usize,
    /// Flows that could not be routed at all (network partition); they
    /// score zero utility.
    pub blackholed_flows: u64,
}

impl EpochReport<'_> {
    /// Detaches the report from the measurement cache, to keep it
    /// across the fabric's next mutation.
    pub fn into_owned(self) -> EpochReport<'static> {
        EpochReport {
            epoch: self.epoch,
            outcome: Cow::Owned(self.outcome.into_owned()),
            report: Cow::Owned(self.report.into_owned()),
            fallback_count: self.fallback_count,
            blackholed_flows: self.blackholed_flows,
        }
    }

    /// The first *bitwise* difference against `other`, if any — the
    /// oracle check behind the incremental-measurement invariant
    /// ([`Fabric::peek`] ≡ [`Fabric::peek_full`], bit for bit). Hidden:
    /// a test helper, not a `PartialEq`.
    #[doc(hidden)]
    pub fn bitwise_mismatch(&self, other: &EpochReport<'_>) -> Option<String> {
        if self.epoch != other.epoch {
            return Some("epoch".to_string());
        }
        if self.fallback_count != other.fallback_count {
            return Some("fallback count".to_string());
        }
        if self.blackholed_flows != other.blackholed_flows {
            return Some("blackholed flows".to_string());
        }
        self.outcome
            .bitwise_mismatch(&other.outcome)
            .or_else(|| self.report.bitwise_mismatch(&other.report))
    }
}

/// One aggregate's routed state inside the measurement cache.
#[derive(Clone, Copy, Debug, Default)]
struct AggRoute {
    /// True when every installed bucket crossed a failed link and the
    /// aggregate rides a live shortest path instead.
    fallback: bool,
    /// Flows black-holed by a partition (no path at all).
    blackholed: u64,
}

/// The cached measurement.
struct MeasureCache {
    /// Per-aggregate routing state, indexed by aggregate id.
    routes: Vec<AggRoute>,
    /// The canonical bundle table (every aggregate's bundles
    /// concatenated in id order, the exact list a full rebuild yields)
    /// with its evaluation and its utility report against the true
    /// matrix.
    incumbent: Incumbent,
    /// The fallback and black-hole totals of `routes`.
    fallback_count: usize,
    blackholed_flows: u64,
}

/// The simulated SDN data plane.
pub struct Fabric {
    topology: Topology,
    true_tm: TrafficMatrix,
    rules: RuleSet,
    down: LinkSet,
    counters: Vec<AggregateCounter>,
    epoch: usize,
    epoch_duration: Delay,
    /// When false, every measurement recomputes from scratch (the
    /// oracle mode the equality property tests compare against).
    incremental: bool,
    cache: Option<MeasureCache>,
    /// Scratch the in-place patch reuses from probe to probe.
    scratch: PatchScratch,
    dirty_aggs: Vec<bool>,
    dirty_list: Vec<u32>,
    dirty_links: Vec<fubar_graph::LinkId>,
    /// Rule sets staged by [`Fabric::stage`] but not yet committed —
    /// in-flight installs under `install delay` / `install drop` chaos.
    /// Tickets are handed out monotonically; the queue stays in ticket
    /// order because staging order is commit order.
    staged: Vec<(u64, RuleSet)>,
    next_ticket: u64,
}

impl Fabric {
    /// Builds a fabric with shortest-path rules installed (the state of
    /// a freshly booted network before FUBAR has run).
    pub fn new(topology: Topology, true_tm: TrafficMatrix, epoch_duration: Delay) -> Self {
        assert!(
            epoch_duration > Delay::ZERO,
            "epoch duration must be positive"
        );
        let alloc = fubar_core::Allocation::all_on_shortest_paths(&topology, &true_tm);
        let rules = RuleSet::from_allocation(&alloc, &true_tm);
        let n = true_tm.len();
        Fabric {
            topology,
            true_tm,
            rules,
            down: LinkSet::new(),
            counters: vec![AggregateCounter::default(); n],
            epoch: 0,
            epoch_duration,
            incremental: true,
            cache: None,
            scratch: PatchScratch::default(),
            dirty_aggs: vec![false; n],
            dirty_list: Vec::new(),
            dirty_links: Vec::new(),
            staged: Vec::new(),
            next_ticket: 0,
        }
    }

    /// The ground-truth topology (without failure annotations).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The ground-truth traffic matrix.
    pub fn true_tm(&self) -> &TrafficMatrix {
        &self.true_tm
    }

    /// Switches between incremental (default) and full-recompute
    /// measurement. Full mode re-derives every bundle and re-runs the
    /// whole flow model on each probe — the oracle the incremental path
    /// must match bitwise.
    pub fn set_incremental(&mut self, on: bool) {
        self.incremental = on;
        if !on {
            self.cache = None;
        }
    }

    /// Sets one aggregate's live flow count (a single churn event). Zero
    /// parks the aggregate as *idle*: it keeps its id, counters, and installed
    /// rules, but contributes no traffic until flows arrive again.
    pub fn set_flow_count(&mut self, id: AggregateId, flows: u32) {
        if self.flow_count(id) == flows {
            return; // a clamped departure, a relax of an un-surged pair
        }
        self.true_tm.set_flow_count(id, flows);
        self.mark_aggregate(id);
    }

    /// One aggregate's current live flow count.
    pub fn flow_count(&self, id: AggregateId) -> u32 {
        self.true_tm.aggregate(id).flow_count
    }

    /// Changes the capacity of a link and (for duplex links) its reverse
    /// — a maintenance downgrade or upgrade, as opposed to the binary
    /// [`Fabric::fail_link`].
    ///
    /// # Panics
    ///
    /// Panics on a non-positive capacity; use [`Fabric::fail_link`] to
    /// take a link out of service.
    pub fn set_capacity(&mut self, link: fubar_graph::LinkId, capacity: Bandwidth) {
        assert!(
            capacity > Bandwidth::ZERO,
            "capacity must be positive; fail the link instead"
        );
        self.topology.set_capacity(link, capacity);
        self.dirty_links.push(link);
        if let Some(r) = self.topology.reverse_of(link) {
            self.topology.set_capacity(r, capacity);
            self.dirty_links.push(r);
        }
    }

    /// Installs a new rule set (the controller's output). Against a
    /// live measurement cache only the aggregates whose buckets differ
    /// from the installed ones are dirtied — a re-optimization that
    /// moved a handful of aggregates costs the next probe that handful,
    /// not the instance. `Path` equality includes the cost, so a path
    /// re-costed on another topology view counts as changed.
    pub fn install(&mut self, rules: RuleSet) {
        assert_eq!(
            rules.len(),
            self.true_tm.len(),
            "rules must cover every aggregate"
        );
        let previous = std::mem::replace(&mut self.rules, rules);
        if self.cache.is_none() {
            return; // the first measurement routes everything anyway
        }
        for i in 0..previous.len() {
            let id = AggregateId(i as u32);
            let (old, new) = (previous.group(id), self.rules.group(id));
            if old.map(|g| &g.buckets) != new.map(|g| &g.buckets) {
                self.mark_aggregate(id);
            }
        }
    }

    /// Currently installed rules.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Stages a rule set for a later [`Fabric::commit_staged`] — the
    /// in-flight half of a delayed or droppable install. The previous
    /// rules keep serving until the commit lands; a
    /// [`Fabric::discard_staged`] models the install being lost with
    /// the previous group still live. Returns the ticket identifying
    /// this install.
    pub fn stage(&mut self, rules: RuleSet) -> u64 {
        assert_eq!(
            rules.len(),
            self.true_tm.len(),
            "rules must cover every aggregate"
        );
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.staged.push((ticket, rules));
        ticket
    }

    /// Commits a staged install: the ticket's rules become live. Any
    /// older tickets still pending are discarded — a newer install
    /// supersedes them, exactly as a real switch applies the last
    /// write. Returns false (a no-op) if the ticket is unknown or was
    /// already superseded.
    pub fn commit_staged(&mut self, ticket: u64) -> bool {
        let Some(i) = self.staged.iter().position(|&(t, _)| t == ticket) else {
            return false;
        };
        let (_, rules) = self.staged.swap_remove(i);
        self.staged.retain(|&(t, _)| t > ticket);
        self.install(rules);
        true
    }

    /// Drops a staged install without applying it (the seeded
    /// `install drop` coin came up tails): the previously live rules
    /// keep serving. Returns false if the ticket is unknown.
    pub fn discard_staged(&mut self, ticket: u64) -> bool {
        let before = self.staged.len();
        self.staged.retain(|&(t, _)| t != ticket);
        self.staged.len() != before
    }

    /// Number of installs currently in flight.
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Replaces one aggregate's installed group in place — a
    /// single-aggregate rule update (OpenFlow group-mod), as opposed to
    /// reinstalling the whole table via [`Fabric::install`].
    ///
    /// # Panics
    ///
    /// Panics when `id` is not covered by the installed rules.
    pub fn set_group(&mut self, id: AggregateId, entry: GroupEntry) {
        self.rules.set_group(id, entry);
        self.mark_aggregate(id);
    }

    /// Removes one aggregate's installed paths (the aggregate
    /// departed); its traffic rides the live shortest path until rules
    /// are reinstalled.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not covered by the installed rules.
    pub fn clear_group(&mut self, id: AggregateId) {
        self.rules.clear_group(id);
        self.mark_aggregate(id);
    }

    /// Marks a link (and its reverse, for duplex links) as failed.
    pub fn fail_link(&mut self, link: fubar_graph::LinkId) {
        self.down.insert(link);
        let rev = self.topology.reverse_of(link);
        if let Some(r) = rev {
            self.down.insert(r);
        }
        self.note_link_state_change(link, rev);
    }

    /// Repairs a previously failed link (and its reverse).
    pub fn repair_link(&mut self, link: fubar_graph::LinkId) {
        self.down.remove(link);
        let rev = self.topology.reverse_of(link);
        if let Some(r) = rev {
            self.down.remove(r);
        }
        self.note_link_state_change(link, rev);
    }

    /// The currently failed links.
    pub fn failed_links(&self) -> &LinkSet {
        &self.down
    }

    /// The topology as the controller should see it: failed links are
    /// costed out (huge delay, 1 b/s capacity) so any optimizer run on
    /// this view routes around them.
    pub fn topology_view(&self) -> Topology {
        let mut view = self.topology.clone();
        if self.down.is_empty() {
            return view;
        }
        // Keep link ids stable: cost failed links out of the routing
        // graph (hour-scale delay keeps every path cost finite while
        // making any route across them both unattractive and worthless —
        // every delay curve is long dead by then) and starve them of
        // capacity (Topology requires strictly positive values). The
        // data plane additionally reroutes around failures in
        // `route_aggregate`, so this is belt and braces.
        for l in self.down.iter() {
            view.set_capacity(l, Bandwidth::from_bps(1.0));
            view.set_delay(l, Delay::from_secs(3600.0));
        }
        view
    }

    /// Per-aggregate counters.
    pub fn counters(&self) -> &[AggregateCounter] {
        &self.counters
    }

    /// Marks one aggregate's cached routing stale.
    fn mark_aggregate(&mut self, id: AggregateId) {
        let i = id.index();
        if !self.dirty_aggs[i] {
            self.dirty_aggs[i] = true;
            self.dirty_list.push(i as u32);
        }
    }

    /// After a failure or repair of `link` (+ its reverse), marks every
    /// aggregate whose routing could change: groups with a bucket
    /// crossing the link, and aggregates currently riding a live
    /// shortest path (fallback or black-holed) — their path can change
    /// whenever *any* link flips state.
    fn note_link_state_change(
        &mut self,
        link: fubar_graph::LinkId,
        rev: Option<fubar_graph::LinkId>,
    ) {
        self.dirty_links.push(link);
        if let Some(r) = rev {
            self.dirty_links.push(r);
        }
        if self.cache.is_none() {
            return;
        }
        let mut stale: Vec<AggregateId> = Vec::new();
        for a in self.true_tm.iter() {
            if a.flow_count == 0 {
                continue; // idle: no bundles either way
            }
            let group = self.rules.group(a.id).expect("rules cover every aggregate");
            let crosses = group
                .buckets
                .iter()
                .any(|(p, _)| p.uses_link(link) || rev.is_some_and(|r| p.uses_link(r)));
            if crosses || group.alive_buckets(&self.down).is_empty() {
                stale.push(a.id);
            }
        }
        for id in stale {
            self.mark_aggregate(id);
        }
    }

    /// Maps one aggregate's true traffic onto its installed group,
    /// honouring failures: `(bundles, used_fallback, blackholed_flows)`.
    /// `live_path` answers the live shortest path a fallback rider takes
    /// (`None`: partitioned). Takes the fields it reads, not `&self`, so
    /// the measurement can route while it patches the cache.
    fn route_aggregate(
        rules: &RuleSet,
        down: &LinkSet,
        a: &Aggregate,
        live_path: impl FnOnce(&Aggregate) -> Option<Path>,
    ) -> (Vec<BundleSpec>, bool, u64) {
        if a.flow_count == 0 {
            // Idle aggregate: keeps its rules but sends nothing.
            return (Vec::new(), false, 0);
        }
        let group = rules.group(a.id).expect("rules cover every aggregate");
        let alive = group.alive_buckets(down);
        if alive.is_empty() {
            // Data-plane protection: fall back to the live shortest
            // path (what an IGP underlay would do). If the network is
            // partitioned the traffic black-holes: no bundle, zero
            // utility. An empty group (nothing installed yet) is not a
            // *fallback* — there was no rule to fail.
            let fallback = !group.buckets.is_empty();
            return match live_path(a) {
                Some(p) => (vec![BundleSpec::new(a, &p, a.flow_count)], fallback, 0),
                None => (Vec::new(), fallback, u64::from(a.flow_count)),
            };
        }
        let refs: Vec<(&Path, u32)> = alive.iter().map(|(p, w)| (p, *w)).collect();
        let split = RuleSet::split_flows(&refs, a.flow_count);
        let mut out = Vec::new();
        for (i, &n) in split.iter().enumerate() {
            if n > 0 {
                out.push(BundleSpec::new(a, refs[i].0, n));
            }
        }
        (out, false, 0)
    }

    /// Routes every aggregate from scratch (the full-recompute path):
    /// `(routes, spans, bundle table, fallback count, black-holed flows)`.
    #[allow(clippy::type_complexity)]
    fn build_all(&self) -> (Vec<AggRoute>, Vec<(u32, u32)>, Vec<BundleSpec>, usize, u64) {
        let mut routes = Vec::with_capacity(self.true_tm.len());
        let mut spans = Vec::with_capacity(self.true_tm.len());
        let mut bundles = Vec::new();
        let mut fallback_count = 0usize;
        let mut blackholed = 0u64;
        let graph = self.topology.graph();
        for a in self.true_tm.iter() {
            let (bs, fallback, bh) = Self::route_aggregate(&self.rules, &self.down, a, |a| {
                graph.shortest_path(a.ingress, a.egress, &self.down)
            });
            routes.push(AggRoute {
                fallback,
                blackholed: bh,
            });
            spans.push((bundles.len() as u32, bs.len() as u32));
            fallback_count += usize::from(fallback);
            blackholed += bh;
            bundles.extend(bs);
        }
        (routes, spans, bundles, fallback_count, blackholed)
    }

    /// Clears all dirtiness bookkeeping (after a measurement).
    fn clear_dirt(&mut self) {
        for &i in &self.dirty_list {
            self.dirty_aggs[i as usize] = false;
        }
        self.dirty_list.clear();
        self.dirty_links.clear();
    }

    /// Brings the measurement cache up to date — the single call site
    /// both [`Fabric::peek`] and [`Fabric::run_epoch`] measure from.
    fn measure(&mut self) {
        if self.cache.is_none() || !self.incremental {
            self.measure_full();
        } else if !(self.dirty_list.is_empty() && self.dirty_links.is_empty()) {
            self.measure_dirty();
        }
    }

    /// The cached measurement as the report of epoch `epoch`.
    fn cached_report(&self, epoch: usize) -> EpochReport<'_> {
        let cache = self.cache.as_ref().expect("measure() populates the cache");
        EpochReport {
            epoch,
            outcome: Cow::Borrowed(cache.incumbent.outcome()),
            report: Cow::Borrowed(cache.incumbent.report()),
            fallback_count: cache.fallback_count,
            blackholed_flows: cache.blackholed_flows,
        }
    }

    /// Rebuilds the cache from scratch.
    fn measure_full(&mut self) {
        let (routes, spans, bundles, fallback_count, blackholed_flows) = self.build_all();
        let model = FlowModel::with_defaults(&self.topology);
        self.cache = Some(MeasureCache {
            routes,
            incumbent: Incumbent::measure(&model, &self.true_tm, bundles, spans),
            fallback_count,
            blackholed_flows,
        });
        self.clear_dirt();
    }

    /// Patches the cache in place: every dirty aggregate is re-routed
    /// (ascending) and its new segment replaces the cached one; the
    /// model re-fills the affected component jointly. An aggregate
    /// re-routed onto the very bundles it had (a fallback rider a link
    /// flip left alone, a black-holed pair whose flow count moved) is
    /// still named: its utility and its totals may have changed.
    /// Fallback riders share one on-demand shortest-path search per
    /// ingress, each answer bitwise the per-pair search's.
    fn measure_dirty(&mut self) {
        let cache = self.cache.as_mut().expect("incremental path has a cache");
        self.dirty_list.sort_unstable();
        let (graph, down) = (self.topology.graph(), &self.down);
        let mut trees = BTreeMap::new();
        let changes = self.dirty_list.iter().map(|&i| {
            let id = AggregateId(i);
            let (bs, fallback, blackholed) =
                Self::route_aggregate(&self.rules, down, self.true_tm.aggregate(id), |a| {
                    (trees.entry(a.ingress))
                        .or_insert_with(|| graph.shortest_path_tree(a.ingress, down))
                        .path_to(a.egress)
                });
            let old = std::mem::replace(
                &mut cache.routes[id.index()],
                AggRoute {
                    fallback,
                    blackholed,
                },
            );
            cache.fallback_count =
                cache.fallback_count - usize::from(old.fallback) + usize::from(fallback);
            cache.blackholed_flows = cache.blackholed_flows - old.blackholed + blackholed;
            (id, bs)
        });
        let model = FlowModel::with_defaults(&self.topology);
        cache.incumbent.replace(
            &model,
            &self.true_tm,
            changes,
            &self.dirty_links,
            &mut self.scratch,
        );
        self.clear_dirt();
    }

    /// Evaluates the current state (installed rules, live failures, true
    /// traffic) *without* advancing the epoch or touching counters — a
    /// read-only probe for event-driven callers that need a utility
    /// measurement between epochs. Incremental: only aggregates dirtied
    /// since the last measurement are re-routed (no shortest-path or
    /// split work for the rest), the flow model re-runs water-filling
    /// only on the affected bottleneck component, and the cached table,
    /// evaluation and report are patched in place (see the module docs
    /// for what a probe costs) — an unprobed fabric with nothing dirty
    /// returns the cache outright. The report borrows from the cache
    /// and carries the index of the epoch in progress;
    /// [`EpochReport::into_owned`] keeps it across the next mutation.
    pub fn peek(&mut self) -> EpochReport<'_> {
        self.measure();
        self.cached_report(self.epoch)
    }

    /// Full-recompute probe: rebuilds every bundle and re-runs the whole
    /// flow model, ignoring (and not touching) the measurement cache.
    /// This is the oracle [`Fabric::peek`] must match bitwise.
    pub fn peek_full(&self) -> EpochReport<'static> {
        let (_, _, bundles, fallback_count, blackholed_flows) = self.build_all();
        let model = FlowModel::with_defaults(&self.topology);
        let outcome = model.evaluate(&bundles);
        let report = fubar_model::utility_report(&self.true_tm, &bundles, &outcome);
        EpochReport {
            epoch: self.epoch,
            outcome: Cow::Owned(outcome),
            report: Cow::Owned(report),
            fallback_count,
            blackholed_flows,
        }
    }

    /// Runs one epoch: route true traffic over installed rules, update
    /// counters, return the epoch report (borrowed from the measurement
    /// cache, like [`Fabric::peek`]'s). Shares the measurement with
    /// `peek` — when nothing changed since the last probe the flow model
    /// is not re-evaluated at all.
    pub fn run_epoch(&mut self) -> EpochReport<'_> {
        self.measure();

        // Refresh counters.
        let dt = self.epoch_duration.secs();
        for c in &mut self.counters {
            c.bytes_last_epoch = 0.0;
            c.flows_last_epoch = 0;
            c.congested_last_epoch = false;
        }
        let incumbent = &self.cache.as_ref().expect("measured above").incumbent;
        let outcome = incumbent.outcome();
        for (i, b) in incumbent.bundles().iter().enumerate() {
            let c = &mut self.counters[b.aggregate.index()];
            let bytes = outcome.bundle_rates[i].bps() * dt / 8.0;
            c.bytes_last_epoch += bytes;
            c.bytes_total += bytes;
            c.flows_last_epoch += b.flow_count;
            c.congested_last_epoch |= outcome.bundle_status[i].is_congested();
        }

        self.epoch += 1;
        self.cached_report(self.epoch - 1)
    }

    /// The duration the counters integrate over.
    pub fn epoch_duration(&self) -> Delay {
        self.epoch_duration
    }

    /// Number of epochs run so far.
    pub fn epochs_run(&self) -> usize {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fubar_graph::NodeId;
    use fubar_topology::{generators, Bandwidth, Delay};
    use fubar_traffic::{Aggregate, AggregateId};
    use fubar_utility::TrafficClass;

    fn fixture() -> Fabric {
        let topo = generators::ring(4, Bandwidth::from_kbps(500.0), Delay::from_ms(1.0));
        let tm = TrafficMatrix::new(vec![Aggregate::new(
            AggregateId(0),
            NodeId(0),
            NodeId(2),
            TrafficClass::LargeFile { peak_mbps: 1.0 },
            2, // 2 Mb/s demand vs 500 kb/s links: splittable across the ring
        )]);
        Fabric::new(topo, tm, Delay::from_secs(10.0))
    }

    /// Asserts two epoch reports are bitwise identical, field by field.
    fn assert_reports_identical(a: &EpochReport, b: &EpochReport) {
        if let Some(field) = a.bitwise_mismatch(b) {
            panic!("reports differ bitwise in {field}");
        }
    }

    #[test]
    fn boot_state_is_shortest_path_and_congested() {
        let mut f = fixture();
        let r = f.run_epoch();
        assert_eq!(r.epoch, 0);
        assert!(r.outcome.is_congested());
        assert_eq!(r.fallback_count, 0);
        assert_eq!(f.epochs_run(), 1);
    }

    #[test]
    fn counters_accumulate() {
        let mut f = fixture();
        f.run_epoch();
        let after_one = f.counters()[0].bytes_total;
        assert!(after_one > 0.0);
        // 500 kb/s for 10 s = 625_000 bytes.
        assert!((after_one - 625_000.0).abs() < 1.0, "got {after_one}");
        f.run_epoch();
        let after_two = f.counters()[0].bytes_total;
        assert!((after_two - 2.0 * after_one).abs() < 1.0);
        assert!(f.counters()[0].congested_last_epoch);
        assert_eq!(f.counters()[0].flows_last_epoch, 2);
    }

    #[test]
    fn installing_optimized_rules_improves_true_utility() {
        let mut f = fixture();
        let before = f.run_epoch().into_owned();
        // Run FUBAR against ground truth and install.
        let result = fubar_core::Optimizer::with_defaults(f.topology(), f.true_tm()).run();
        let rules = RuleSet::from_allocation(&result.allocation, f.true_tm());
        f.install(rules);
        let after = f.run_epoch();
        assert!(
            after.report.network_utility > before.report.network_utility,
            "{} -> {}",
            before.report.network_utility,
            after.report.network_utility
        );
    }

    #[test]
    fn staged_installs_commit_drop_and_supersede() {
        let mut f = fixture();
        let before = f.run_epoch().into_owned();
        let result = fubar_core::Optimizer::with_defaults(f.topology(), f.true_tm()).run();
        let optimized = RuleSet::from_allocation(&result.allocation, f.true_tm());

        // Staging alone changes nothing: the previous group serves.
        let t0 = f.stage(optimized.clone());
        assert_eq!(f.staged_len(), 1);
        let r = f.run_epoch();
        assert_eq!(
            r.report.network_utility, before.report.network_utility,
            "staged rules must not serve traffic before their commit"
        );

        // A dropped install leaves the previous group live.
        assert!(f.discard_staged(t0));
        assert!(!f.discard_staged(t0), "double discard is a no-op");
        assert_eq!(f.staged_len(), 0);
        let r = f.run_epoch();
        assert_eq!(r.report.network_utility, before.report.network_utility);

        // A committed install goes live.
        let t1 = f.stage(optimized.clone());
        assert!(f.commit_staged(t1));
        let r = f.run_epoch();
        assert!(r.report.network_utility > before.report.network_utility);

        // A newer commit supersedes an older in-flight ticket.
        let old = f.stage(RuleSet::from_allocation(
            &fubar_core::Allocation::all_on_shortest_paths(f.topology(), f.true_tm()),
            f.true_tm(),
        ));
        let new = f.stage(optimized);
        assert!(f.commit_staged(new));
        assert!(!f.commit_staged(old), "superseded ticket must not apply");
        assert_eq!(f.staged_len(), 0);
        let r = f.run_epoch();
        assert!(r.report.network_utility > before.report.network_utility);
    }

    #[test]
    fn failed_path_falls_back_to_live_shortest() {
        let mut f = fixture();
        let first = f.run_epoch();
        assert_eq!(first.fallback_count, 0);
        // Fail the first link of the installed path.
        let g = f.rules().group(AggregateId(0)).unwrap();
        let link = g.buckets[0].0.links()[0];
        f.fail_link(link);
        let r = f.run_epoch();
        assert_eq!(r.fallback_count, 1, "aggregate must fall back");
        // Traffic still flows (the other way around the ring).
        assert!(r.report.network_utility > 0.0);
        // Nothing crosses the failed link.
        assert_eq!(r.outcome.link_load[link.index()], Bandwidth::ZERO);
        // Repair restores the original path.
        f.repair_link(link);
        let r = f.run_epoch();
        assert_eq!(r.fallback_count, 0);
    }

    #[test]
    fn topology_view_costs_out_failed_links() {
        let mut f = fixture();
        let link = fubar_graph::LinkId(0);
        f.fail_link(link);
        let view = f.topology_view();
        assert_eq!(view.capacity(link), Bandwidth::from_bps(1.0));
        assert_eq!(view.delay(link), Delay::from_secs(3600.0));
        let rev = f.topology().reverse_of(link).unwrap();
        assert_eq!(view.capacity(rev), Bandwidth::from_bps(1.0));
        // Shortest paths on the view route around the failure.
        let l = view.graph().link(link);
        let p = view
            .graph()
            .shortest_path(l.src, l.dst, &LinkSet::new())
            .unwrap();
        assert!(!p.uses_link(link));
    }

    #[test]
    fn idle_aggregate_sends_nothing_and_revives() {
        let mut f = fixture();
        f.set_flow_count(AggregateId(0), 0);
        assert_eq!(f.flow_count(AggregateId(0)), 0);
        let r = f.run_epoch();
        assert!(r.outcome.bundle_rates.is_empty(), "idle sends no bundles");
        assert_eq!(r.report.network_utility, 0.0);
        assert!(r.report.network_utility.is_finite(), "no NaN from 0 flows");
        assert_eq!(f.counters()[0].flows_last_epoch, 0);
        // Revival restores traffic on the still-installed rules.
        f.set_flow_count(AggregateId(0), 2);
        let r = f.run_epoch();
        assert!(r.report.network_utility > 0.0);
        assert_eq!(f.counters()[0].flows_last_epoch, 2);
    }

    #[test]
    fn capacity_change_applies_to_both_directions() {
        let mut f = fixture();
        let link = fubar_graph::LinkId(0);
        let rev = f.topology().reverse_of(link).unwrap();
        f.set_capacity(link, Bandwidth::from_mbps(3.0));
        assert_eq!(f.topology().capacity(link), Bandwidth::from_mbps(3.0));
        assert_eq!(f.topology().capacity(rev), Bandwidth::from_mbps(3.0));
        // Upgrading every link of the installed path decongests the
        // 2 Mb/s demand that the 500 kb/s pipes were starving.
        let path_links: Vec<_> = f.rules().group(AggregateId(0)).unwrap().buckets[0]
            .0
            .links()
            .to_vec();
        for l in path_links {
            f.set_capacity(l, Bandwidth::from_mbps(3.0));
        }
        let r = f.run_epoch();
        assert!(!r.outcome.bundle_status[0].is_congested());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let mut f = fixture();
        f.set_capacity(fubar_graph::LinkId(0), Bandwidth::ZERO);
    }

    #[test]
    fn group_mod_updates_routing_incrementally() {
        let mut f = fixture();
        let before = f.peek().into_owned();
        // Replace the group with the other way around the ring.
        let used: LinkSet = f.rules().group(AggregateId(0)).unwrap().buckets[0]
            .0
            .links()
            .iter()
            .copied()
            .collect();
        let alt = f
            .topology()
            .graph()
            .shortest_path(NodeId(0), NodeId(2), &used)
            .unwrap();
        f.set_group(AggregateId(0), GroupEntry::single(alt.clone(), 2));
        let after = f.peek();
        assert_ne!(
            before.outcome.link_load, after.outcome.link_load,
            "traffic must move to the new path"
        );
        let after = after.into_owned();
        assert_reports_identical(&after, &f.peek_full());
        // Clearing the group drops to the live shortest path (the
        // original route), not a fallback.
        f.clear_group(AggregateId(0));
        let cleared = f.peek().into_owned();
        assert_eq!(cleared.fallback_count, 0);
        assert_reports_identical(&cleared, &f.peek_full());
    }

    #[test]
    fn empty_group_is_not_a_fallback_but_a_dead_bucket_is() {
        let mut f = fixture();
        // Empty group: routed on the live shortest path, fallback_count
        // stays 0 (there was no installed rule to fail).
        f.clear_group(AggregateId(0));
        let r = f.peek();
        assert_eq!(r.fallback_count, 0);
        assert_eq!(r.blackholed_flows, 0);
        assert_eq!(r.outcome.bundle_rates.len(), 1, "traffic still routed");
        // A group whose single bucket is dead is a fallback.
        let p = f
            .topology()
            .graph()
            .shortest_path(NodeId(0), NodeId(2), &LinkSet::new())
            .unwrap();
        f.set_group(AggregateId(0), GroupEntry::single(p.clone(), 2));
        f.fail_link(p.links()[0]);
        let r = f.peek().into_owned();
        assert_eq!(r.fallback_count, 1);
        assert_reports_identical(&r, &f.peek_full());
    }

    #[test]
    fn all_zero_weight_buckets_fall_on_first_alive_bucket() {
        let mut f = fixture();
        // Two buckets, both weight 0 (degenerate), on disjoint paths.
        let p0 = f.rules().group(AggregateId(0)).unwrap().buckets[0]
            .0
            .clone();
        let used: LinkSet = p0.links().iter().copied().collect();
        let p1 = f
            .topology()
            .graph()
            .shortest_path(NodeId(0), NodeId(2), &used)
            .unwrap();
        f.set_group(
            AggregateId(0),
            GroupEntry {
                buckets: vec![(p0.clone(), 0), (p1.clone(), 0)],
            },
        );
        let r = f.peek();
        // Degenerate split: all flows pile onto the first bucket.
        assert_eq!(r.outcome.bundle_rates.len(), 1);
        assert!(r.outcome.link_load[p0.links()[0].index()] > Bandwidth::ZERO);
        // Now fail the first bucket: the degenerate split must land on
        // the first *alive* bucket, not the dead bucket 0.
        f.fail_link(p0.links()[0]);
        let r = f.peek().into_owned();
        assert_eq!(r.fallback_count, 0, "second bucket is alive");
        assert_eq!(r.outcome.link_load[p0.links()[0].index()], Bandwidth::ZERO);
        assert!(r.outcome.link_load[p1.links()[0].index()] > Bandwidth::ZERO);
        assert_reports_identical(&r, &f.peek_full());
    }

    #[test]
    fn install_dirties_exactly_the_groups_it_changed() {
        let topo = generators::ring(6, Bandwidth::from_kbps(700.0), Delay::from_ms(2.0));
        let tm = fubar_traffic::workload::generate(
            &topo,
            &fubar_traffic::WorkloadConfig {
                include_intra_pop: false,
                flow_count: (2, 6),
                ..Default::default()
            },
            11,
        );
        let mut f = Fabric::new(topo, tm, Delay::from_secs(10.0));

        // No cache yet: nothing to diff against, the first probe routes
        // everything.
        f.install(f.rules().clone());
        assert!(f.dirty_list.is_empty());
        let booted = f.peek().into_owned();

        // The live rules again: nothing is dirty, the probe is the cache.
        f.install(f.rules().clone());
        assert!(f.dirty_list.is_empty(), "re-installing changes no group");
        assert_reports_identical(&f.peek(), &booted);
        assert_reports_identical(&booted, &f.peek_full());

        // Rules differing in three groups: a detour, a re-weighting of
        // nothing but the weight, and the same links at another cost.
        let mut rules = f.rules().clone();
        let bucket =
            |rules: &RuleSet, i: u32| rules.group(AggregateId(i)).unwrap().buckets[0].clone();
        let (p2, w2) = bucket(&rules, 2);
        let detour = f
            .topology()
            .graph()
            .shortest_path(
                p2.source(),
                p2.destination(),
                &p2.links().iter().copied().collect(),
            )
            .unwrap();
        rules.set_group(AggregateId(2), GroupEntry::single(detour, w2));
        let (p5, w5) = bucket(&rules, 5);
        rules.set_group(AggregateId(5), GroupEntry::single(p5, w5 + 1));
        let (p9, w9) = bucket(&rules, 9);
        let mut slower = f.topology().clone();
        slower.set_delay(p9.links()[0], Delay::from_ms(3.0));
        let recosted = Path::new(slower.graph(), p9.source(), p9.links().to_vec()).unwrap();
        assert_ne!(recosted, p9, "path equality includes the cost");
        rules.set_group(AggregateId(9), GroupEntry::single(recosted, w9));
        f.install(rules);
        f.dirty_list.sort_unstable();
        assert_eq!(f.dirty_list, vec![2, 5, 9]);
        let full = f.peek_full();
        assert_reports_identical(&f.peek(), &full);
        assert_ne!(full.outcome.link_load, booted.outcome.link_load);

        // A staged install commits through the same diff.
        let mut rules = f.rules().clone();
        rules.clear_group(AggregateId(4));
        let ticket = f.stage(rules);
        assert!(f.dirty_list.is_empty(), "staging touches nothing live");
        assert!(f.commit_staged(ticket));
        assert_eq!(f.dirty_list, vec![4]);
        let full = f.peek_full();
        assert_reports_identical(&f.peek(), &full);
    }

    #[test]
    fn same_count_set_flow_count_leaves_the_cache_clean() {
        let mut f = fixture();
        let cached = f.peek().into_owned();
        // A departure clamped at zero flows left, a relax of an
        // un-surged pair, the churn guard's re-set: all land here.
        f.set_flow_count(AggregateId(0), 2);
        assert!(
            f.dirty_list.is_empty(),
            "an unchanged count dirties nothing"
        );
        assert_reports_identical(&f.peek(), &cached);
        // A real change still does.
        f.set_flow_count(AggregateId(0), 3);
        assert_eq!(f.dirty_list, vec![0]);
        let full = f.peek_full();
        assert_reports_identical(&f.peek(), &full);
    }

    #[test]
    fn incremental_peek_matches_full_recompute_through_event_storm() {
        let topo = generators::ring(6, Bandwidth::from_kbps(700.0), Delay::from_ms(2.0));
        let tm = fubar_traffic::workload::generate(
            &topo,
            &fubar_traffic::WorkloadConfig {
                include_intra_pop: false,
                flow_count: (2, 6),
                ..Default::default()
            },
            11,
        );
        let n = tm.len() as u32;
        let mut f = Fabric::new(topo, tm, Delay::from_secs(10.0));
        // A deterministic pseudo-random event storm touching every
        // mutation kind the fabric tracks.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Two-bucket groups over link-disjoint paths, for the split
        // that drops and regains a bucket.
        let two_buckets = |f: &Fabric, id: AggregateId| -> Option<GroupEntry> {
            let a = f.true_tm().aggregate(id);
            let g = f.topology().graph();
            let p0 = g.shortest_path(a.ingress, a.egress, &LinkSet::new())?;
            let used: LinkSet = p0.links().iter().copied().collect();
            let p1 = g.shortest_path(a.ingress, a.egress, &used)?;
            Some(GroupEntry {
                buckets: vec![(p0, 1), (p1, 3)],
            })
        };
        let check = |f: &mut Fabric| {
            let full = f.peek_full();
            assert_reports_identical(&f.peek(), &full);
        };
        let mut failed: Vec<fubar_graph::LinkId> = Vec::new();
        for _ in 0..240 {
            let id = AggregateId((next() % u64::from(n)) as u32);
            let links = f.topology().link_count() as u64;
            let l = fubar_graph::LinkId((next() % links) as u32);
            match next() % 14 {
                0..=3 => f.set_flow_count(id, (next() % 12) as u32),
                4 => {
                    // Idle and back: the segment goes 1 → 0 → 1 bundles,
                    // shifting every later index twice.
                    let flows = f.flow_count(id).max(1);
                    f.set_flow_count(id, 0);
                    check(&mut f);
                    f.set_flow_count(id, flows);
                }
                5 => f.set_capacity(l, Bandwidth::from_kbps(300.0 + (next() % 800) as f64)),
                6 => {
                    // Capacity change and churn in the same probe.
                    f.set_capacity(l, Bandwidth::from_kbps(300.0 + (next() % 800) as f64));
                    f.set_flow_count(id, 1 + (next() % 9) as u32);
                }
                7 => {
                    if !f.failed_links().contains(l) && failed.len() < 2 {
                        // Fail with an idle aggregate around: it must
                        // stay out of the dirty set and the table.
                        f.set_flow_count(id, 0);
                        f.fail_link(l);
                        failed.push(l);
                    }
                }
                8 => {
                    if let Some(l) = failed.pop() {
                        f.repair_link(l);
                    }
                }
                9 => {
                    // A 1:3 split of one flow rides one bucket only; of
                    // five, both: the segment drops and regains a bundle.
                    if let Some(group) = two_buckets(&f, id) {
                        f.set_group(id, group);
                        let bundles =
                            |f: &Fabric| f.cache.as_ref().unwrap().incumbent.spans()[id.index()].1;
                        f.set_flow_count(id, 1);
                        check(&mut f);
                        assert!(bundles(&f) == 1 || !failed.is_empty());
                        f.set_flow_count(id, 5);
                        check(&mut f);
                        assert!(bundles(&f) == 2 || !failed.is_empty());
                        f.set_flow_count(id, 1);
                    }
                }
                10 | 11 => {
                    // Several aggregates dirtied before one probe: one
                    // joint splice of growing, shrinking and unchanged
                    // segments.
                    for k in 0..2 + next() % 4 {
                        let id = AggregateId((next() % u64::from(n)) as u32);
                        f.set_flow_count(id, if k == 1 { 0 } else { (next() % 12) as u32 });
                    }
                    if let Some(group) = two_buckets(&f, id) {
                        f.set_group(id, group);
                    }
                }
                12 => f.clear_group(id),
                _ => {
                    let _ = f.run_epoch();
                }
            }
            check(&mut f);
        }

        // A partitioned POP: an aggregate black-holed behind the cut
        // owns no bundles before or after its flow count changes, yet
        // its weight in the averages moves — the report's dirty set is
        // the changed aggregates, not the changed segments.
        let island = NodeId(0);
        for l in f.topology().graph().out_links(island).to_vec() {
            f.fail_link(l);
        }
        let id = f
            .true_tm()
            .iter()
            .find(|a| a.ingress == island)
            .expect("the island sources traffic")
            .id;
        f.set_flow_count(id, 3);
        check(&mut f);
        f.set_flow_count(id, 9);
        check(&mut f);
        assert!(f.peek().blackholed_flows >= 9);
        let spans = f.cache.as_ref().unwrap().incumbent.spans();
        assert_eq!(spans[id.index()].1, 0, "black-holed: no bundles");
    }
}
