//! The path generator (paper §2.4).
//!
//! When an aggregate is congested, the optimizer "queries a path
//! generator to find three alternative different policy-compliant paths
//! not currently in the path set for that aggregate:
//!
//! 1. A **global** path: the lowest delay path that avoids all congested
//!    links, regardless of whether they are currently used by this
//!    aggregate.
//! 2. A **local** path: the lowest delay path that avoids all congested
//!    links that are being used by the congested aggregate.
//! 3. A **link-local** path: the lowest delay path that simply avoids the
//!    most congested link used by the aggregate."
//!
//! The ablation experiment A1 additionally exercises degenerate policies
//! (global-only, link-local-only) and a plain K-shortest generator, which
//! the paper says it tried before settling on the three-path design.
//!
//! ### What the alternatives depend on
//!
//! Read off the three definitions: for a fixed topology, policy and
//! `forbidden` set, an aggregate's alternatives are a pure function of
//!
//! 1. the **set** of congested-or-forbidden links (the global path) —
//!    the same for every aggregate;
//! 2. the congested links the aggregate's own live paths use (the local
//!    path);
//! 3. which of those is the most oversubscribed (the link-local path) —
//!    the one place the *order* of congestion enters;
//!
//! and of nothing else: not the flow counts, not the rates, not the
//! other aggregates' paths. `alt_inputs` computes 2 and 3,
//! `alternatives_from` maps the triple to paths. A commit that leaves
//! all three as they were — most commits move some flows and change no
//! link's congested/uncongested status — leaves the paths as they were,
//! so the optimizer keeps an aggregate's alternatives together with the
//! inputs they came from and searches again only when one differs (see
//! [`crate::optimizer`]).

use crate::allocation::Allocation;
use fubar_graph::{yen, LinkId, LinkSet, Path};
use fubar_model::ModelOutcome;
use fubar_topology::Topology;
use fubar_traffic::Aggregate;

/// Which alternative paths the optimizer may request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PathPolicy {
    /// The paper's design: global + local + link-local.
    #[default]
    ThreePaths,
    /// Only the global path (ablation).
    GlobalOnly,
    /// Only the link-local path (ablation).
    LinkLocalOnly,
    /// The K lowest-delay simple paths, ignoring congestion (ablation —
    /// "an optimal algorithm would need to consider all the possible
    /// policy-compliant paths ... clearly computationally infeasible").
    KShortest(usize),
}

/// Generates candidate alternative paths for one congested aggregate.
///
/// `congested` must list every currently congested link;
/// `most_congested` is the highest-oversubscription congested link used
/// by this aggregate (for the link-local path). Candidates are
/// deduplicated against each other; paths already in the aggregate's set
/// are *kept* (moving flows onto an existing alternative is a legal and
/// useful move), but duplicates among the three are collapsed.
pub fn alternatives(
    topology: &Topology,
    aggregate: &Aggregate,
    allocation: &Allocation,
    outcome: &ModelOutcome,
    policy: PathPolicy,
    forbidden: &LinkSet,
) -> Vec<Path> {
    let avoid = congested_or_forbidden(outcome, forbidden);
    let inputs = alt_inputs(aggregate, allocation, outcome, forbidden, &avoid);
    alternatives_from(topology, aggregate, policy, forbidden, &avoid, &inputs)
}

/// The global path's exclusion set: every congested link of `outcome`
/// plus the `forbidden` ones. It is the same for every aggregate, so the
/// optimizer builds it once per step.
pub(crate) fn congested_or_forbidden(outcome: &ModelOutcome, forbidden: &LinkSet) -> LinkSet {
    let mut all: LinkSet = outcome.congested.iter().copied().collect();
    all.union_with(forbidden);
    all
}

/// What an aggregate's alternatives depend on besides the network-wide
/// `congested_or_forbidden` set (see the module docs): a walk of the
/// aggregate's own live paths, cheap next to the searches it may spare.
#[derive(PartialEq)]
pub(crate) struct AltInputs {
    /// The congested links the aggregate's live paths use, plus the
    /// forbidden ones: what the local path avoids.
    used_congested: LinkSet,
    /// The most oversubscribed of them: what the link-local path avoids.
    most_congested_used: Option<LinkId>,
}

/// `aggregate`'s [`AltInputs`] under `allocation` and `outcome`;
/// `all_congested` is [`congested_or_forbidden`] of the same `outcome`
/// and `forbidden`.
pub(crate) fn alt_inputs(
    aggregate: &Aggregate,
    allocation: &Allocation,
    outcome: &ModelOutcome,
    forbidden: &LinkSet,
    all_congested: &LinkSet,
) -> AltInputs {
    let mut used_congested = allocation.congested_links_used_by(aggregate.id, all_congested);
    used_congested.union_with(forbidden);
    // `outcome.congested` is sorted by oversubscription, descending.
    let most_congested_used =
        (outcome.congested.iter().copied()).find(|&l| used_congested.contains(l));
    AltInputs {
        used_congested,
        most_congested_used,
    }
}

/// The alternatives themselves: a function of the arguments alone — no
/// allocation, no outcome — which is what lets the optimizer keep them
/// for as long as the arguments compare equal.
pub(crate) fn alternatives_from(
    topology: &Topology,
    aggregate: &Aggregate,
    policy: PathPolicy,
    forbidden: &LinkSet,
    all_congested: &LinkSet,
    inputs: &AltInputs,
) -> Vec<Path> {
    let src = aggregate.ingress;
    let dst = aggregate.egress;
    if src == dst {
        return Vec::new(); // intra-POP traffic never reroutes
    }
    let g = topology.graph();
    let mut out: Vec<Path> = Vec::with_capacity(3);
    let push = |p: Option<Path>, out: &mut Vec<Path>| {
        if let Some(p) = p {
            if !out.contains(&p) {
                out.push(p);
            }
        }
    };

    match policy {
        PathPolicy::KShortest(k) => {
            return yen::k_shortest_paths(g, src, dst, k, forbidden);
        }
        PathPolicy::ThreePaths | PathPolicy::GlobalOnly | PathPolicy::LinkLocalOnly => {}
    }

    if matches!(policy, PathPolicy::ThreePaths | PathPolicy::GlobalOnly) {
        // Global: avoid every congested link in the network.
        push(g.shortest_path(src, dst, all_congested), &mut out);
    }
    if matches!(policy, PathPolicy::ThreePaths) {
        // Local: avoid the congested links this aggregate touches.
        push(g.shortest_path(src, dst, &inputs.used_congested), &mut out);
    }
    if matches!(policy, PathPolicy::ThreePaths | PathPolicy::LinkLocalOnly) {
        // Link-local: avoid only the most congested link the aggregate
        // uses.
        if let Some(link) = inputs.most_congested_used {
            let mut only: LinkSet = forbidden.clone();
            only.insert(link);
            push(g.shortest_path(src, dst, &only), &mut out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fubar_graph::NodeId;
    use fubar_model::FlowModel;
    use fubar_topology::{Bandwidth, Delay, TopologyBuilder};
    use fubar_traffic::{AggregateId, TrafficMatrix};
    use fubar_utility::TrafficClass;

    fn kb(v: f64) -> Bandwidth {
        Bandwidth::from_kbps(v)
    }
    fn ms(v: f64) -> Delay {
        Delay::from_ms(v)
    }

    /// A diamond with a tight direct link and two roomy detours:
    /// s->t direct (cheap delay, tiny capacity), s->x->t, s->y->t.
    fn diamond() -> (Topology, TrafficMatrix) {
        let mut b = TopologyBuilder::new("diamond");
        for n in ["s", "x", "y", "t"] {
            b.add_node(n).unwrap();
        }
        b.add_duplex_link("s", "t", kb(100.0), ms(1.0)).unwrap();
        b.add_duplex_link("s", "x", kb(10_000.0), ms(2.0)).unwrap();
        b.add_duplex_link("x", "t", kb(10_000.0), ms(2.0)).unwrap();
        b.add_duplex_link("s", "y", kb(10_000.0), ms(5.0)).unwrap();
        b.add_duplex_link("y", "t", kb(10_000.0), ms(5.0)).unwrap();
        let topo = b.build();
        let tm = TrafficMatrix::new(vec![fubar_traffic::Aggregate::new(
            AggregateId(0),
            NodeId(0),
            NodeId(3),
            TrafficClass::BulkTransfer,
            10, // 1.2 Mb/s demand >> 100 kb/s direct link
        )]);
        (topo, tm)
    }

    fn run(topo: &Topology, tm: &TrafficMatrix) -> (Allocation, ModelOutcome) {
        let alloc = Allocation::all_on_shortest_paths(topo, tm);
        let out = FlowModel::with_defaults(topo).evaluate(&alloc.bundles(tm));
        (alloc, out)
    }

    #[test]
    fn three_paths_avoid_the_bottleneck() {
        let (topo, tm) = diamond();
        let (alloc, out) = run(&topo, &tm);
        assert!(out.is_congested(), "direct link must congest");
        let agg = tm.aggregate(AggregateId(0));
        let alts = alternatives(
            &topo,
            agg,
            &alloc,
            &out,
            PathPolicy::ThreePaths,
            &LinkSet::new(),
        );
        assert!(!alts.is_empty());
        // All alternatives dodge the congested direct link; the best is
        // via x (4 ms).
        let congested = out.congested[0];
        for p in &alts {
            assert!(!p.uses_link(congested), "alternative reuses the bottleneck");
        }
        assert!((alts[0].cost() - 0.004).abs() < 1e-9);
    }

    #[test]
    fn global_local_linklocal_collapse_when_identical() {
        // With a single congested link that the aggregate itself uses,
        // all three exclusion sets coincide, so dedup leaves one path.
        let (topo, tm) = diamond();
        let (alloc, out) = run(&topo, &tm);
        let agg = tm.aggregate(AggregateId(0));
        let alts = alternatives(
            &topo,
            agg,
            &alloc,
            &out,
            PathPolicy::ThreePaths,
            &LinkSet::new(),
        );
        assert_eq!(alts.len(), 1);
    }

    #[test]
    fn local_differs_from_global_when_congestion_is_elsewhere() {
        // Congest a link the aggregate does NOT use: global avoids it,
        // local/link-local don't care.
        let mut b = TopologyBuilder::new("two-pairs");
        for n in ["s", "t", "u", "v", "m"] {
            b.add_node(n).unwrap();
        }
        // s->m->t is the short path for s->t. u->m->v shares node m but
        // different links; congest u->m with its own traffic.
        b.add_duplex_link("s", "m", kb(10_000.0), ms(1.0)).unwrap();
        b.add_duplex_link("m", "t", kb(10_000.0), ms(1.0)).unwrap();
        b.add_duplex_link("u", "m", kb(50.0), ms(1.0)).unwrap();
        b.add_duplex_link("m", "v", kb(10_000.0), ms(1.0)).unwrap();
        // Long detour s->t avoiding nothing in particular.
        b.add_duplex_link("s", "t", kb(10_000.0), ms(10.0)).unwrap();
        let topo = b.build();
        let tm = TrafficMatrix::new(vec![
            fubar_traffic::Aggregate::new(
                AggregateId(0),
                topo.node("s").unwrap(),
                topo.node("t").unwrap(),
                TrafficClass::BulkTransfer,
                5,
            ),
            fubar_traffic::Aggregate::new(
                AggregateId(0),
                topo.node("u").unwrap(),
                topo.node("v").unwrap(),
                TrafficClass::BulkTransfer,
                10,
            ),
        ]);
        let (alloc, out) = run(&topo, &tm);
        assert!(out.is_congested());
        let st = tm.aggregate(AggregateId(0));
        let alts = alternatives(
            &topo,
            st,
            &alloc,
            &out,
            PathPolicy::ThreePaths,
            &LinkSet::new(),
        );
        // Global avoids u->m (trivially true for s->m->t already);
        // local has an empty exclusion set -> the current shortest path.
        // Both dedupe into candidates; at least the local one equals the
        // s->m->t path.
        assert!(alts.iter().any(|p| p.cost() <= 0.002 + 1e-12));
    }

    #[test]
    fn kshortest_policy_enumerates_by_delay() {
        let (topo, tm) = diamond();
        let (alloc, out) = run(&topo, &tm);
        let agg = tm.aggregate(AggregateId(0));
        let alts = alternatives(
            &topo,
            agg,
            &alloc,
            &out,
            PathPolicy::KShortest(3),
            &LinkSet::new(),
        );
        assert_eq!(alts.len(), 3);
        assert!(alts[0].cost() <= alts[1].cost());
        assert!(alts[1].cost() <= alts[2].cost());
    }

    #[test]
    fn intra_pop_gets_no_alternatives() {
        let (topo, _) = diamond();
        let tm = TrafficMatrix::new(vec![fubar_traffic::Aggregate::new(
            AggregateId(0),
            NodeId(0),
            NodeId(0),
            TrafficClass::BulkTransfer,
            5,
        )]);
        let (alloc, out) = run(&topo, &tm);
        let agg = tm.aggregate(AggregateId(0));
        assert!(alternatives(
            &topo,
            agg,
            &alloc,
            &out,
            PathPolicy::ThreePaths,
            &LinkSet::new()
        )
        .is_empty());
    }

    #[test]
    fn global_only_policy_returns_at_most_one() {
        let (topo, tm) = diamond();
        let (alloc, out) = run(&topo, &tm);
        let agg = tm.aggregate(AggregateId(0));
        let alts = alternatives(
            &topo,
            agg,
            &alloc,
            &out,
            PathPolicy::GlobalOnly,
            &LinkSet::new(),
        );
        assert!(alts.len() <= 1);
    }
}
