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
//! below that sum at every water level (observation 1 in `delta.rs`), so it can
//! never saturate, and arming it would only ever pop a stale or a dead
//! event. Bundle events never move: every fill sorts its members' once
//! when it compiles them, and merges that stream with the heap, which
//! holds link events and nothing else — except a patch's replacement
//! bundles (see *Compiled components* in `delta.rs`).
//! Each event freezes at least one bundle or deactivates one link, so
//! the loop runs at most `bundles + links` times, and the whole
//! evaluation is `O((B + Σ path length) log B)` — fast enough for the
//! optimizer to call thousands of times per run. What the loop fills is
//! always a `Component`: the bundles in question *compiled* into local
//! indices — per-bundle link lists over compact link slots, per-slot
//! crossing rows and initial sums, presorted satisfaction events — by
//! every caller alike.

mod border;
mod delta;
mod evaluation;
mod patch;
mod workspace;

pub use border::border_load_bound;
pub use evaluation::{Evaluation, FreezeKey};
pub use workspace::{DeltaScore, Workspace, WorkspaceStats};

use crate::outcome::ModelOutcome;
use crate::spec::BundleSpec;
use evaluation::outcome_of;
use fubar_graph::LinkId;
use fubar_topology::Topology;
use std::cmp::Ordering;
use workspace::FillScratch;

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

/// Fill scratch for [`FlowModel::evaluate_traced_parallel`]; kept only
/// because `benchmark/src/adapter.rs` names it, until that call goes.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct ParallelWorkspace(FillScratch);

impl ParallelWorkspace {
    /// A fill scratch; the worker count is ignored.
    pub fn new(_workers: usize) -> Self {
        ParallelWorkspace::default()
    }
}

impl<'a> FlowModel<'a> {
    /// Creates a model over `topology`: every link fills to its full
    /// capacity (paper §2.3).
    pub fn with_defaults(topology: &'a Topology) -> Self {
        FlowModel { topology }
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

    /// [`FlowModel::evaluate_traced`] on `pw`'s reused scratch; kept only
    /// because `benchmark/src/adapter.rs` names it, until that call goes.
    #[doc(hidden)]
    pub fn evaluate_traced_parallel(
        &self,
        bundles: &[BundleSpec],
        pw: &mut ParallelWorkspace,
    ) -> Evaluation {
        self.evaluate_in(bundles, &mut pw.0)
    }
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
    use crate::spec::{BundleSpec, BundleStatus};
    use crate::splice::{BundleDelta, Splice};
    use fubar_graph::NodeId;
    use fubar_topology::{generators, Bandwidth, Delay, TopologyBuilder};
    use fubar_traffic::{Aggregate, AggregateId, TrafficMatrix};
    use fubar_utility::TrafficClass;

    pub(super) fn mbps(v: f64) -> Bandwidth {
        Bandwidth::from_mbps(v)
    }
    pub(super) fn kbps(v: f64) -> Bandwidth {
        Bandwidth::from_kbps(v)
    }
    pub(super) fn ms(v: f64) -> Delay {
        Delay::from_ms(v)
    }

    /// Two nodes, one duplex link of the given capacity.
    pub(super) fn pipe(cap: Bandwidth, delay: Delay) -> Topology {
        let mut b = TopologyBuilder::new("pipe");
        b.add_node("a").unwrap();
        b.add_node("b").unwrap();
        b.add_duplex_link("a", "b", cap, delay).unwrap();
        b.build()
    }

    /// Bundle helper: flows × per-flow demand over the given links.
    pub(super) fn bundle(
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
    pub(super) fn assert_outcomes_identical(a: &ModelOutcome, b: &ModelOutcome) {
        if let Some(field) = a.bitwise_mismatch(b) {
            panic!("outcomes differ bitwise in {field}");
        }
    }

    /// What [`evaluate_from`] produced.
    pub(super) struct Patched {
        pub(super) evaluation: Evaluation,
        pub(super) affected: Vec<u32>,
    }

    /// Test wrapper over the in-place patcher: clones `prev` and `old`,
    /// turns the `new` list into a splice (`prev_index[i]` is bundle
    /// `i`'s index in `old` when it is unchanged, `None` when it is new
    /// or changed; unmapped old bundles count as removed), applies it in
    /// place, and checks the patched table is `new`.
    pub(super) fn evaluate_from(
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

    /// HE-core bundle table on shortest paths: many independent pipes ⇒
    /// many components.
    pub(super) fn he_bundles(cap: Bandwidth, seed: u64) -> (Topology, Vec<BundleSpec>) {
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
    fn parallel_fill_handles_empty_and_trivial_bundles() {
        let t = pipe(kbps(300.0), ms(5.0));
        let m = FlowModel::with_defaults(&t);
        let mut pw = ParallelWorkspace::new(4);
        let empty = m.evaluate_traced_parallel(&[], &mut pw);
        assert!(empty.outcome.bundle_rates.is_empty());
        // The scratch is reused, and a linkless bundle fills like any other.
        let bundles = vec![
            bundle(0, 10, vec![LinkId(0)], ms(5.0), kbps(50.0)),
            bundle(1, 100, vec![], Delay::ZERO, mbps(10.0)),
        ];
        let par = m.evaluate_traced_parallel(&bundles, &mut pw);
        assert_outcomes_identical(&par.outcome, &m.evaluate(&bundles));
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

    pub(super) fn xorshift(seed: u64) -> impl FnMut() -> u64 {
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
    pub(super) fn shortest_path_instance(
        topo: &Topology,
        seed: u64,
    ) -> (TrafficMatrix, Vec<BundleSpec>) {
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

    /// A new segment for aggregate `a`, whose bundles are `segment`: a
    /// random bundle's path with one random link avoided carries the
    /// whole aggregate (a move, or a merge of a split), or — for a
    /// one-bundle segment with flows to spare, half the time — some of
    /// its flows beside the old path (a 1 → 2 split).
    pub(super) fn reroute(
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
    pub(super) type Scored = (Vec<u32>, Vec<u64>, Vec<(u32, u64)>);

    pub(super) fn score(
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

    /// One changed segment: `(start, removed, new bundles)`, the range
    /// over the table as it was.
    pub(super) type Change = (usize, usize, Vec<BundleSpec>);

    /// One commit of a commit sequence: one or two aggregates crossing
    /// `eval`'s most congested link rerouted (`segments` takes their new
    /// bundles) and, every third commit, a random link's capacity
    /// changed on `topo`. Returns the changes over `table`, which `eval`
    /// evaluates, and the links whose capacity changed.
    pub(super) fn hot_commit(
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

    pub(super) fn splice_of(changes: &[Change]) -> Splice {
        let mut splice = Splice::default();
        for (start, removed, new) in changes {
            splice.push(*start, *removed, new.clone());
        }
        splice
    }
}
