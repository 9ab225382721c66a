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
//! Each of the three is one lowest-delay search from the aggregate's
//! ingress to its egress avoiding a set of links, and the sets are, with
//! `forbidden` the links no alternative may use:
//!
//! 1. global: every congested link plus `forbidden`
//!    (`congested_or_forbidden`, the same for every aggregate);
//! 2. local: the congested links the aggregate's own live paths use,
//!    plus `forbidden`;
//! 3. link-local: `forbidden` plus the most oversubscribed of those
//!    used links — the one place the *order* of congestion enters — and
//!    no search at all when the aggregate uses none.
//!
//! Nothing else enters: not the flow counts, not the rates, not the
//! other aggregates' paths. So the optimizer keeps every search it ran
//! as a [`SearchRecord`] with its answer (`Search`), and a probe
//! (`PathScratch::resolve`) recomputes the three avoid sets into
//! worker scratch and runs a search again only when its record says the
//! answer could differ. A record outlives commits, changes of the
//! congested set and the greedy loop's calls alike (a per-component
//! pass's exclusions are only more avoided links), so alternatives live
//! for the run. The candidate list is re-derived from the three records
//! every time — the answers in global, local, link-local order, a later
//! duplicate of an earlier one dropped — so it is always what three
//! fresh searches would give. A search avoiding what an earlier one of
//! the three avoids is not run: its answer would be dropped as a
//! duplicate. `KShortest` (Yen) depends on `forbidden` alone; its paths
//! are kept while `forbidden` is the set they were generated under.
//!
//! ### When a search's answer stands
//!
//! A search avoiding X keeps the answer under another set X' when
//! every link of X Δ X' is
//!
//! * **newly admitted** (in X, not in X') and its tail was not settled
//!   before the target t; or
//! * **newly avoided** (in X', not in X) and not in the *settled tree*,
//!   the link through which each node settled up to and including t was
//!   reached — or any newly avoided link, when t was unreachable.
//!
//! Its record ([`SearchRecord`]) holds exactly what that needs: the
//! settled tree when t was reached, and the links of X out of the nodes
//! settled before t. A tree link is not in X (the search went through
//! it), so a tree link in X' is a newly avoided one; a recorded link of
//! X missing from X' is a newly admitted one whose tail settled before
//! t; and no other flip breaks the rule. So the check
//! ([`SearchRecord::stands`]) walks those two lists and reads X' alone.
//!
//! *The loop, read as a function.* `dijkstra.rs`'s relax-and-settle
//! loop is, step by step: among the unsettled nodes with a finite label,
//! settle the one whose label has the least key (cost, hops, incoming
//! link id — the source's id counting as `u32::MAX`); then, for each of
//! its out-links not in the avoid set whose head is unsettled, lower the
//! head's label to the extended key if that is less. The heap only
//! implements the pick: a node's live entry carries its label's key, its
//! stale entries sort after that one and are dropped once it is settled,
//! and no two nodes share a key, because an incoming link has one head.
//! The query ends at the step that settles t, or when no unsettled node
//! has a finite label (t unreachable). A run is thus a sequence of label
//! writes, and a link is read only when its tail is settled. Nothing here
//! asks costs to be positive or sums to round any particular way: a
//! zero-cost link gives its head its tail's cost, and hops, then link id,
//! order the two like any other pair.
//!
//! *Admitting u→v, u not settled before t.* The two runs, without and
//! with the link, take the same steps for as long as u is unsettled,
//! because the link is read only when u settles. The old run settles u
//! after t or never, so both runs settle t at the same step with the
//! same labels everywhere they settled: the same path, the same cost
//! bits. If t was unreachable, the old run ended with u unsettled, the
//! new run is the same run, and t stays unreachable.
//!
//! *Avoiding u→v, no settled node's way in.* Compare the runs step by
//! step up to the old run's settling of t. Invariant: both have settled
//! the same nodes with the same labels; every unsettled node other than
//! v has the same label in both; v's new label is the least of its old
//! candidates but the one through u→v, so it is no less than its old
//! label. The old run settles the node y with the unique least key. If
//! y ≠ v, y's key is the same in the new run and every other node's is
//! no less than its old key, which exceeds y's, so the new run settles
//! y too and relaxes the same links, u→v aside, which only touches v.
//! If y = v, v's old label did not come through u→v, so it is among the
//! new run's candidates for v and, least among the old ones, v's new
//! label as well: the new run settles v too. So t settles at the same
//! step with the same label, and the path to it, made of settled nodes'
//! ways in, is the same. If t was unreachable, avoiding more links keeps
//! it so: the set of paths only shrinks.
//!
//! *Many flips.* Apply the admissions first, then the avoidances. Each
//! step leaves the answer, the settled tree and the nodes settled before
//! t as they were (for a reachable t) or keeps t unreachable with no
//! more nodes settled, so the conditions, checked against the one
//! record, hold at every step.
//!
//! *Why the tree and not the answer.* With floating-point sums, avoiding
//! a link off the answer can raise a node's cost by less than a later
//! sum rounds away; reached over fewer hops, that node then offers t the
//! same cost in fewer hops, and the answer moves. `dijkstra.rs`'s
//! `an_avoided_tree_link_off_the_answer_can_move_it` builds such a
//! graph. In exact arithmetic off-answer would do; here it does not.

use crate::allocation::Allocation;
use fubar_graph::{yen, DiGraph, LinkSet, Path, PathSearch, SearchRecord};
use fubar_model::ModelOutcome;
use fubar_topology::Topology;
use fubar_traffic::Aggregate;
use std::collections::BTreeMap;
use std::sync::Arc;

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
    let network = Network {
        graph: topology.graph(),
        allocation,
        outcome,
        policy,
        forbidden,
        avoid: &congested_or_forbidden(outcome, forbidden),
    };
    let resolution = PathScratch::default().resolve(&network, aggregate, None);
    (resolution.candidates(None))
        .map(|(_, p)| Path::clone(p))
        .collect()
}

/// The global path's exclusion set: every congested link of `outcome`
/// plus the `forbidden` ones. It is the same for every aggregate, so the
/// optimizer builds it once per step.
pub(crate) fn congested_or_forbidden(outcome: &ModelOutcome, forbidden: &LinkSet) -> LinkSet {
    let mut all: LinkSet = outcome.congested.iter().copied().collect();
    all.union_with(forbidden);
    all
}

/// What the alternatives of every aggregate of one step are generated
/// from (see the module docs).
pub(crate) struct Network<'a> {
    pub(crate) graph: &'a DiGraph,
    pub(crate) allocation: &'a Allocation,
    pub(crate) outcome: &'a ModelOutcome,
    pub(crate) policy: PathPolicy,
    /// The links no alternative may use.
    pub(crate) forbidden: &'a LinkSet,
    /// [`congested_or_forbidden`] of `outcome` and `forbidden`: the
    /// global search's avoid set.
    pub(crate) avoid: &'a LinkSet,
}

/// The searches of the three-path design, in the order their answers
/// are offered: global, local, link-local.
const SEARCHES: usize = 3;

/// One search of an aggregate's alternatives: what it avoided and read,
/// and what it answered.
pub(crate) struct Search {
    record: SearchRecord,
    /// Shared with the scores of moves onto it.
    answer: Option<Arc<Path>>,
}

/// An aggregate's alternatives as the optimizer keeps them for the run.
// The three searches are what every run but the K-shortest ablation
// keeps, one entry per aggregate: boxing them would only add an
// allocation per aggregate.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Alternatives {
    /// Global, local and link-local; `None` where the policy runs no such
    /// search or the aggregate uses no congested link to avoid.
    Searched([Option<Search>; SEARCHES]),
    /// `KShortest`: Yen's paths, and the forbidden links they were
    /// generated under.
    Enumerated {
        forbidden: LinkSet,
        paths: Vec<Arc<Path>>,
    },
}

/// What a probe made of one of the three searches.
enum Resolved {
    /// As kept: the kept search stands, or none was kept and none is
    /// due.
    Kept,
    /// Run by this probe. Its record is `PathScratch::ran[slot]` of the
    /// worker that ran it; its answer is
    /// the kept one, shared, when the search found the same path.
    Ran {
        slot: u32,
        answer: Option<Arc<Path>>,
    },
    /// No longer due (no congested link to avoid): the kept search goes.
    Dropped,
}

/// What a probe made of an aggregate's alternatives, against the entry
/// it found kept (`known` below).
pub(crate) struct Resolution {
    searches: ResolvedAlts,
    /// Whether anything differs from the kept entry, or there was none:
    /// the alternatives were generated rather than reused.
    pub(crate) generated: bool,
    /// The searches this probe ran.
    pub(crate) searches_run: usize,
}

enum ResolvedAlts {
    Searched([Resolved; SEARCHES]),
    /// `None`: the kept paths stand. Otherwise Yen's paths and the
    /// forbidden links they were generated under.
    Enumerated(Option<(LinkSet, Vec<Arc<Path>>)>),
}

impl Resolution {
    /// Candidate `k`'s path: the answer of search `k`, or Yen's `k`-th.
    pub(crate) fn answer<'a>(
        &'a self,
        known: Option<&'a Alternatives>,
        k: usize,
    ) -> Option<&'a Arc<Path>> {
        match (&self.searches, known) {
            (ResolvedAlts::Searched(resolved), _) => match (&resolved[k], known) {
                (Resolved::Ran { answer, .. }, _) => answer.as_ref(),
                (Resolved::Kept, Some(Alternatives::Searched(kept))) => {
                    kept[k].as_ref()?.answer.as_ref()
                }
                _ => None,
            },
            (ResolvedAlts::Enumerated(Some((_, paths))), _) => paths.get(k),
            (ResolvedAlts::Enumerated(None), Some(Alternatives::Enumerated { paths, .. })) => {
                paths.get(k)
            }
            (ResolvedAlts::Enumerated(None), _) => None,
        }
    }

    /// The candidate paths in offer order, each with its index for
    /// [`Resolution::answer`]; a path equal to an earlier one is left
    /// out.
    pub(crate) fn candidates<'a>(
        &'a self,
        known: Option<&'a Alternatives>,
    ) -> impl Iterator<Item = (usize, &'a Arc<Path>)> + 'a {
        let count = match (&self.searches, known) {
            (ResolvedAlts::Searched(_), _) => SEARCHES,
            (ResolvedAlts::Enumerated(Some((_, paths))), _) => paths.len(),
            (ResolvedAlts::Enumerated(None), Some(Alternatives::Enumerated { paths, .. })) => {
                paths.len()
            }
            (ResolvedAlts::Enumerated(None), _) => 0,
        };
        (0..count).filter_map(move |k| {
            let path = self.answer(known, k)?;
            let same = |p: &Arc<Path>| Arc::ptr_eq(p, path) || **p == **path;
            let seen = (0..k).any(|j| self.answer(known, j).is_some_and(same));
            (!seen).then_some((k, path))
        })
    }

    /// Folds this resolution of `aggregate` into the kept alternatives;
    /// `ran` is the scratch of the worker that resolved it.
    pub(crate) fn keep(
        self,
        alts: &mut BTreeMap<u32, Alternatives>,
        aggregate: u32,
        ran: &PathScratch,
    ) {
        let resolved = match self.searches {
            ResolvedAlts::Enumerated(None) => return,
            ResolvedAlts::Enumerated(Some((forbidden, paths))) => {
                alts.insert(aggregate, Alternatives::Enumerated { forbidden, paths });
                return;
            }
            ResolvedAlts::Searched(resolved) => resolved,
        };
        let entry = alts
            .entry(aggregate)
            .or_insert_with(|| Alternatives::Searched([None, None, None]));
        let Alternatives::Searched(kept) = entry else {
            unreachable!("a run keeps one path policy");
        };
        for (k, resolved) in resolved.into_iter().enumerate() {
            let (slot, answer) = match resolved {
                Resolved::Kept => continue,
                Resolved::Dropped => {
                    kept[k] = None;
                    continue;
                }
                Resolved::Ran { slot, answer } => (slot, answer),
            };
            let record = &ran.ran[slot as usize];
            match &mut kept[k] {
                Some(search) => {
                    search.record.clone_from(record);
                    search.answer = answer;
                }
                None => {
                    kept[k] = Some(Search {
                        record: record.clone(),
                        answer,
                    })
                }
            }
        }
    }
}

/// One worker's scratch for resolving alternatives: the probed
/// aggregate's local and link-local avoid sets, the reusable search,
/// and the record of each search it ran in the current step, which the
/// step folds into the kept alternatives once its workers are done.
/// Past warm-up, resolving alternatives that stand allocates nothing.
#[derive(Default)]
pub(crate) struct PathScratch {
    local: LinkSet,
    link_local: LinkSet,
    search: PathSearch,
    /// The first `recorded` are this step's.
    ran: Vec<SearchRecord>,
    recorded: usize,
}

impl PathScratch {
    /// Forgets the last step's searches, keeping their buffers.
    pub(crate) fn begin_step(&mut self) {
        self.recorded = 0;
    }

    /// `aggregate`'s alternatives under `network`, given the entry kept
    /// for it: each search whose record stands is taken as it is, and
    /// the others run again here (see the module docs). Debug builds
    /// run every kept search again too and assert the same answer.
    pub(crate) fn resolve(
        &mut self,
        network: &Network<'_>,
        aggregate: &Aggregate,
        known: Option<&Alternatives>,
    ) -> Resolution {
        let (src, dst) = (aggregate.ingress, aggregate.egress);
        let policy = network.policy;
        if let PathPolicy::KShortest(k) = policy {
            let forbidden = network.forbidden;
            let stands = matches!(known, Some(Alternatives::Enumerated { forbidden: then, .. })
                if then == forbidden);
            // Intra-POP traffic never reroutes: no search is due.
            let due = !stands && src != dst;
            let paths = (!stands).then(|| {
                let paths = match due {
                    true => yen::k_shortest_paths(network.graph, src, dst, k, forbidden),
                    false => Vec::new(),
                };
                (forbidden.clone(), paths.into_iter().map(Arc::new).collect())
            });
            return Resolution {
                generated: !stands,
                searches_run: usize::from(due),
                searches: ResolvedAlts::Enumerated(paths),
            };
        }
        let kept: [Option<&Search>; SEARCHES] = match known {
            Some(Alternatives::Searched(kept)) => [0, 1, 2].map(|k| kept[k].as_ref()),
            _ => [None; SEARCHES],
        };
        let three = policy == PathPolicy::ThreePaths;
        let forbidden = network.forbidden;
        let mut most_congested = None;
        // Intra-POP traffic never reroutes: no search is due.
        if src != dst && (three || policy == PathPolicy::LinkLocalOnly) {
            self.local.clear();
            let allocation = network.allocation;
            allocation.congested_links_used_by(aggregate.id, network.avoid, &mut self.local);
            self.local.union_with(forbidden);
            // `outcome.congested` is sorted by oversubscription, descending.
            most_congested =
                (network.outcome.congested.iter().copied()).find(|&l| self.local.contains(l));
            if let Some(link) = most_congested {
                self.link_local.clone_from(forbidden);
                self.link_local.insert(link);
            }
        }
        let mut due = [
            (src != dst && (three || policy == PathPolicy::GlobalOnly)).then_some(network.avoid),
            (src != dst && three).then_some(&self.local),
            most_congested.map(|_| &self.link_local),
        ];
        // A search avoiding what an earlier one avoids answers what that
        // one answers, which the candidate list drops as a duplicate:
        // it is not due.
        for k in 1..SEARCHES {
            if (0..k).any(|j| due[j].is_some() && due[j] == due[k]) {
                due[k] = None;
            }
        }
        let mut searches_run = 0;
        // The answers of the searches run here so far: with the kept
        // ones, the paths a new answer may share.
        let mut ran: [Option<Arc<Path>>; SEARCHES] = Default::default();
        let resolved = [0, 1, 2].map(|k| match (due[k], kept[k]) {
            (None, None) => Resolved::Kept,
            (None, Some(_)) => Resolved::Dropped,
            (Some(avoid), Some(kept)) if kept.record.stands(avoid) => {
                #[cfg(debug_assertions)]
                {
                    self.search.run(network.graph, src, dst, avoid);
                    assert!(
                        same_answer(&self.search, kept.answer.as_deref()),
                        "kept search {k} of aggregate {} differs from a fresh search",
                        aggregate.id.0
                    );
                }
                Resolved::Kept
            }
            (Some(avoid), own) => {
                searches_run += 1;
                let search = &mut self.search;
                search.run(network.graph, src, dst, avoid);
                if self.recorded == self.ran.len() {
                    self.ran.push(SearchRecord::default());
                }
                search.record_into(network.graph, &mut self.ran[self.recorded]);
                let slot = self.recorded as u32;
                self.recorded += 1;
                // This search's last answer first, so that an unchanged
                // answer keeps its path.
                let known = (own.into_iter().chain(kept.into_iter().flatten()))
                    .filter_map(|search| search.answer.as_ref())
                    .chain(ran.iter().flatten())
                    .find(|&path| same_answer(search, Some(path)));
                let answer = match known {
                    Some(path) => Some(Arc::clone(path)),
                    None => search.path(network.graph).map(Arc::new),
                };
                ran[k].clone_from(&answer);
                Resolved::Ran { slot, answer }
            }
        });
        let generated = known.is_none() || resolved.iter().any(|r| !matches!(r, Resolved::Kept));
        Resolution {
            searches: ResolvedAlts::Searched(resolved),
            generated,
            searches_run,
        }
    }
}

/// Whether `search`'s last answer is `path`: the same links and the
/// same cost bits, or no path for `None`.
fn same_answer(search: &PathSearch, path: Option<&Path>) -> bool {
    match path {
        Some(path) => {
            search.links() == path.links() && search.cost().to_bits() == path.cost().to_bits()
        }
        None => search.links().is_empty() && search.cost().is_infinite(),
    }
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
    fn kshortest_paths_follow_the_forbidden_set() {
        // Two calls under the same congested-or-forbidden set, one with
        // the congested link forbidden too (as in a pass) and one
        // without: Yen reads the forbidden links alone, so the second
        // call must not reuse the first one's paths.
        let (topo, tm) = diamond();
        let (alloc, out) = run(&topo, &tm);
        let agg = tm.aggregate(AggregateId(0));
        let direct = out.congested[0];
        let open = LinkSet::new();
        let closed: LinkSet = [direct].into_iter().collect();
        assert_eq!(congested_or_forbidden(&out, &open), closed);
        let network = |forbidden| Network {
            graph: topo.graph(),
            allocation: &alloc,
            outcome: &out,
            policy: PathPolicy::KShortest(3),
            forbidden,
            avoid: &closed,
        };
        let mut alts = BTreeMap::new();
        let mut scratch = PathScratch::default();
        let first = scratch.resolve(&network(&open), agg, None);
        assert!(first.candidates(None).any(|(_, p)| p.uses_link(direct)));
        first.keep(&mut alts, 0, &scratch);

        let known = alts.get(&0);
        let second = scratch.resolve(&network(&closed), agg, known);
        assert!(second.generated);
        let paths: Vec<Path> = (second.candidates(known))
            .map(|(_, p)| Path::clone(p))
            .collect();
        let g = topo.graph();
        let want = yen::k_shortest_paths(g, agg.ingress, agg.egress, 3, &closed);
        assert_eq!(paths, want);
        second.keep(&mut alts, 0, &scratch);
        // The same forbidden links again: the paths stand.
        let third = scratch.resolve(&network(&closed), agg, alts.get(&0));
        assert!(!third.generated);
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
        for policy in [
            PathPolicy::ThreePaths,
            PathPolicy::GlobalOnly,
            PathPolicy::LinkLocalOnly,
            PathPolicy::KShortest(3),
        ] {
            let alts = alternatives(&topo, agg, &alloc, &out, policy, &LinkSet::new());
            assert!(alts.is_empty(), "{policy:?}: {alts:?}");
        }
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
