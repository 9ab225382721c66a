//! Turning model equilibria into utilities (paper §2.2 + §3).
//!
//! "The 'total average' is the overall utility of the network — the
//! average of utilities of all aggregates, weighted by number of flows
//! in the aggregate" (§3); prioritization (Fig 5) additionally scales an
//! aggregate's weight by its priority factor.

use crate::outcome::ModelOutcome;
use crate::spec::BundleSpec;
use fubar_topology::Bandwidth;
use fubar_traffic::{Aggregate, AggregateId, TrafficMatrix};

/// One aggregate's contribution to the network-wide folds: the
/// numerators and denominators of the three averages `finalize`
/// produces. Internal nodes of the [`FoldTree`] hold field-wise sums.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct FoldCell {
    obj_num: f64,
    obj_den: f64,
    large_num: f64,
    large_den: f64,
    small_num: f64,
    small_den: f64,
}

impl FoldCell {
    fn leaf(a: &Aggregate, u: f64) -> FoldCell {
        let w = a.objective_weight();
        let flows = f64::from(a.flow_count);
        let mut c = FoldCell {
            obj_num: w * u,
            obj_den: w,
            ..FoldCell::default()
        };
        if a.is_large() {
            c.large_num = flows * u;
            c.large_den = flows;
        } else {
            c.small_num = flows * u;
            c.small_den = flows;
        }
        c
    }

    fn combine(l: FoldCell, r: FoldCell) -> FoldCell {
        FoldCell {
            obj_num: l.obj_num + r.obj_num,
            obj_den: l.obj_den + r.obj_den,
            large_num: l.large_num + r.large_num,
            large_den: l.large_den + r.large_den,
            small_num: l.small_num + r.small_num,
            small_den: l.small_den + r.small_den,
        }
    }
}

/// A fixed-shape pairwise summation tree over per-aggregate fold cells.
///
/// The network-wide averages are *defined* as this tree's root (both the
/// full and the incremental report paths build the identical shape), so
/// a point change to one aggregate's utility can be folded into the
/// root by recombining only the `O(log n)` nodes on its leaf-to-root
/// path — with a result bitwise identical to rebuilding the whole tree.
/// That is what lets the optimizer score a candidate's network utility
/// in O(component · log n) instead of re-folding every aggregate.
#[derive(Clone, Debug)]
struct FoldTree {
    /// Leaf count rounded up to a power of two; leaves of aggregate `i`
    /// sit at `base + i`, the root at node 1 (node 0 unused).
    base: usize,
    nodes: Vec<FoldCell>,
}

impl FoldTree {
    fn build(tm: &TrafficMatrix, per_aggregate: &[f64]) -> FoldTree {
        let base = tm.len().next_power_of_two().max(1);
        let mut nodes = vec![FoldCell::default(); 2 * base];
        for a in tm.iter() {
            nodes[base + a.id.index()] = FoldCell::leaf(a, per_aggregate[a.id.index()]);
        }
        for i in (1..base).rev() {
            nodes[i] = FoldCell::combine(nodes[2 * i], nodes[2 * i + 1]);
        }
        FoldTree { base, nodes }
    }

    fn root(&self) -> FoldCell {
        self.nodes[1]
    }

    /// Recombines the ancestors of the given (already rewritten) leaves
    /// — each leaf-to-root path when few leaves changed, every internal
    /// node when that is cheaper. Each ancestor is last recombined after
    /// both its children are final, so the tree ends bitwise identical
    /// to one built from scratch.
    fn refold(&mut self, leaves: &[u32]) {
        if leaves.len() * self.base.ilog2() as usize >= self.base {
            for i in (1..self.base).rev() {
                self.nodes[i] = FoldCell::combine(self.nodes[2 * i], self.nodes[2 * i + 1]);
            }
            return;
        }
        for &leaf in leaves {
            let mut i = (self.base + leaf as usize) / 2;
            while i >= 1 {
                self.nodes[i] = FoldCell::combine(self.nodes[2 * i], self.nodes[2 * i + 1]);
                i /= 2;
            }
        }
    }

    /// The root after replacing the given leaves, computed *without*
    /// mutating the tree (candidate scoring shares the incumbent's tree
    /// across threads). `changed` holds `(node index, new value)` pairs,
    /// ascending and unique, starting at the leaf level; `spare` is the
    /// sibling buffer. Both are caller scratch — no allocation past
    /// their warm-up.
    fn patched_root(
        &self,
        changed: &mut Vec<(u32, FoldCell)>,
        spare: &mut Vec<(u32, FoldCell)>,
    ) -> FoldCell {
        debug_assert!(changed.windows(2).all(|w| w[0].0 < w[1].0));
        if changed.is_empty() {
            return self.root();
        }
        while changed[0].0 > 1 {
            spare.clear();
            let mut i = 0;
            while i < changed.len() {
                let (node, value) = changed[i];
                let sibling = node ^ 1;
                let (left, right) = if i + 1 < changed.len() && changed[i + 1].0 == sibling {
                    i += 2;
                    (value, changed[i - 1].1)
                } else {
                    i += 1;
                    let sib_val = self.nodes[sibling as usize];
                    if node & 1 == 0 {
                        (value, sib_val)
                    } else {
                        (sib_val, value)
                    }
                };
                spare.push((node / 2, FoldCell::combine(left, right)));
            }
            std::mem::swap(changed, spare);
        }
        changed[0].1
    }
}

/// Utilities computed from one model evaluation.
#[derive(Clone, Debug)]
pub struct UtilityReport {
    /// The optimization objective: priority-and-flow-weighted average
    /// utility across all aggregates.
    pub network_utility: f64,
    /// Utility of each aggregate (flow-weighted mean over its bundles),
    /// indexed by `AggregateId`.
    pub per_aggregate: Vec<f64>,
    /// Flow-weighted average utility of the large (heavy file-transfer)
    /// aggregates; `None` when the matrix has none. The middle panels of
    /// Figs 3–5.
    pub large_average: Option<f64>,
    /// Flow-weighted average utility of everything that is not large.
    pub small_average: Option<f64>,
    /// The summation tree behind the averages — carried so candidate
    /// scoring can patch single aggregates into the root in O(log n).
    /// Shared (`Arc`) so cloning a report (a caller keeping an epoch's
    /// record) is cheap;
    /// [`UtilityReport::patch`] un-shares it on first write.
    sums: std::sync::Arc<FoldTree>,
}

impl UtilityReport {
    /// The first *bitwise* difference against `other`, if any — the
    /// oracle check behind the incremental-report invariant
    /// ([`UtilityReport::patch`] ≡ [`utility_report`], bit for bit).
    /// Hidden: a test helper, not a `PartialEq`.
    #[doc(hidden)]
    pub fn bitwise_mismatch(&self, other: &Self) -> Option<String> {
        if self.network_utility.to_bits() != other.network_utility.to_bits() {
            return Some("network utility".to_string());
        }
        let bits = |v: &[f64]| v.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
        if bits(&self.per_aggregate) != bits(&other.per_aggregate) {
            return Some("per-aggregate utilities".to_string());
        }
        if self.large_average.map(f64::to_bits) != other.large_average.map(f64::to_bits) {
            return Some("large average".to_string());
        }
        if self.small_average.map(f64::to_bits) != other.small_average.map(f64::to_bits) {
            return Some("small average".to_string());
        }
        None
    }
}

/// One bundle's term `flows_b · U_b` of its aggregate's flow-weighted
/// utility sum.
fn bundle_term(a: &Aggregate, b: &BundleSpec, rate: Bandwidth) -> f64 {
    f64::from(b.flow_count) * a.utility.eval(rate / f64::from(b.flow_count), b.path_delay)
}

/// An aggregate's utility from its summed bundle terms: the sum divided
/// by the aggregate's *full* flow count, so uncovered (black-holed)
/// flows contribute zero. Idle aggregates (zero flows — dynamic
/// scenarios park departed aggregates at zero instead of removing
/// them) carry no traffic and no objective weight; they score 0 rather
/// than 0/0.
fn mean_utility(a: &Aggregate, weighted: f64, covered: u64) -> f64 {
    debug_assert!(
        covered <= u64::from(a.flow_count),
        "aggregate {} has {covered} flows covered but only {} exist",
        a.id,
        a.flow_count
    );
    if a.flow_count == 0 {
        0.0
    } else {
        weighted / f64::from(a.flow_count)
    }
}

/// One aggregate's utility over its `(bundle, rate)` pairs in bundle
/// order — the accumulation [`utility_report`] performs for it, so the
/// patched and candidate-scoring paths agree with it bitwise.
fn aggregate_utility<'b>(
    a: &Aggregate,
    bundles: impl Iterator<Item = (&'b BundleSpec, Bandwidth)>,
) -> f64 {
    let mut weighted = 0.0_f64;
    let mut covered = 0u64;
    for (b, rate) in bundles {
        debug_assert_eq!(b.aggregate, a.id, "span owns a foreign bundle");
        weighted += bundle_term(a, b, rate);
        covered += u64::from(b.flow_count);
    }
    mean_utility(a, weighted, covered)
}

/// Computes utilities for `outcome`, which must have been produced by
/// evaluating exactly `bundles` (same order) against a topology.
///
/// Flows of an aggregate not covered by any bundle (e.g. black-holed by
/// a network partition) count as zero-utility: an aggregate's utility is
/// its flow-weighted bundle utility divided by its *full* flow count.
/// Covering more flows than the aggregate has is a caller bug and is
/// rejected in debug builds.
pub fn utility_report(
    tm: &TrafficMatrix,
    bundles: &[BundleSpec],
    outcome: &ModelOutcome,
) -> UtilityReport {
    assert_eq!(
        bundles.len(),
        outcome.bundle_rates.len(),
        "outcome does not match bundle list"
    );
    let n = tm.len();
    let mut weighted = vec![0.0_f64; n]; // Σ flows_b · U_b
    let mut covered = vec![0u64; n]; // Σ flows_b
    for (b, &rate) in bundles.iter().zip(&outcome.bundle_rates) {
        weighted[b.aggregate.index()] += bundle_term(tm.aggregate(b.aggregate), b, rate);
        covered[b.aggregate.index()] += u64::from(b.flow_count);
    }
    let per_aggregate: Vec<f64> = tm
        .iter()
        .map(|a| mean_utility(a, weighted[a.id.index()], covered[a.id.index()]))
        .collect();
    let sums = std::sync::Arc::new(FoldTree::build(tm, &per_aggregate));
    let mut report = UtilityReport {
        network_utility: 0.0,
        per_aggregate,
        large_average: None,
        small_average: None,
        sums,
    };
    report.read_root();
    report
}

impl UtilityReport {
    /// Reads the network-wide averages off the fold tree's root — the
    /// shared tail of the full and patched report paths.
    fn read_root(&mut self) {
        let r = self.sums.root();
        self.network_utility = if r.obj_den > 0.0 {
            r.obj_num / r.obj_den
        } else {
            0.0
        };
        self.large_average = (r.large_den > 0.0).then(|| r.large_num / r.large_den);
        self.small_average = (r.small_den > 0.0).then(|| r.small_num / r.small_den);
    }

    /// Brings the report up to date **in place** after an in-place
    /// `FlowModel::apply_delta`: utilities re-evaluate only for
    /// the `dirty` aggregates (those whose flow count or bundle segment
    /// changed) and the owners of the `refilled` bundles, and the fold
    /// tree is recombined along their leaf-to-root paths. `spans[a]` is
    /// aggregate `a`'s `(start, len)` bundle range in `bundles`. The
    /// result is bitwise identical to [`utility_report`] of the same
    /// inputs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn patch(
        &mut self,
        tm: &TrafficMatrix,
        bundles: &[BundleSpec],
        outcome: &ModelOutcome,
        spans: &[(u32, u32)],
        refilled: &[u32],
        dirty: &[u32],
        ws: &mut ReportScratch,
    ) {
        let n = tm.len();
        assert_eq!(
            self.per_aggregate.len(),
            n,
            "report covers a different aggregate population"
        );
        assert_eq!(spans.len(), n, "spans must cover every aggregate");
        assert_eq!(
            bundles.len(),
            outcome.bundle_rates.len(),
            "outcome does not match bundle list"
        );
        ws.begin(n);
        for &ai in dirty {
            ws.mark(ai as usize);
        }
        for &bi in refilled {
            ws.mark(bundles[bi as usize].aggregate.index());
        }
        let tree = std::sync::Arc::make_mut(&mut self.sums);
        for &ai in &ws.affected_aggs {
            let a = tm.aggregate(AggregateId(ai));
            let (s, l) = spans[ai as usize];
            let span = s as usize..(s + l) as usize;
            let run = bundles[span.clone()]
                .iter()
                .zip(outcome.bundle_rates[span].iter().copied());
            let u = aggregate_utility(a, run);
            self.per_aggregate[ai as usize] = u;
            tree.nodes[tree.base + ai as usize] = FoldCell::leaf(a, u);
        }
        tree.refold(&ws.affected_aggs);
        self.read_root();
    }
}

/// Reusable scratch for [`score_network_utility_delta`]: aggregate
/// dedup stamps, the candidate's changed leaves and the fold-tree patch
/// buffers. Past warm-up, scoring a candidate allocates nothing.
#[derive(Debug, Default)]
pub struct ReportScratch {
    stamp: u32,
    agg_stamp: Vec<u32>,
    affected_aggs: Vec<u32>,
    /// `(aggregate, utility)` per leaf the last candidate changed.
    leaves: Vec<(u32, f64)>,
    changed: Vec<(u32, FoldCell)>,
    spare: Vec<(u32, FoldCell)>,
}

impl ReportScratch {
    fn begin(&mut self, n: usize) {
        if self.stamp == u32::MAX {
            self.agg_stamp.iter_mut().for_each(|s| *s = 0);
            self.stamp = 0;
        }
        self.stamp += 1;
        if self.agg_stamp.len() < n {
            self.agg_stamp.resize(n, 0);
        }
        self.affected_aggs.clear();
        self.leaves.clear();
    }

    /// The fold-tree leaves the last [`score_network_utility_delta`]
    /// on this scratch changed, as `(aggregate, utility)`: the moved
    /// aggregate and every aggregate a re-filled bundle of which came
    /// out at a new rate. [`score_network_utility_from_leaves`] folds
    /// them into a report's tree.
    pub fn leaves(&self) -> &[(u32, f64)] {
        &self.leaves
    }

    fn mark(&mut self, agg: usize) {
        if self.agg_stamp[agg] != self.stamp {
            self.agg_stamp[agg] = self.stamp;
            self.affected_aggs.push(agg as u32);
        }
    }
}

/// Scores a candidate delta's **network utility** without materializing
/// the spliced list, its outcome, or a report — and, past scratch
/// warm-up, without allocating. Utility curves re-evaluate only for
/// `moved` and the aggregates owning a re-filled bundle whose rate came
/// out different from the incumbent's; every other aggregate's
/// fold-tree leaf carries over from `prev_report`, and the patched root
/// is bitwise identical to the one a full [`utility_report`] of the
/// materialized list would compute.
///
/// `affected`/`rates` are the component fill's product (ascending
/// spliced indices and their new rates, from [`crate::DeltaScore`]);
/// `prev_outcome` must be the outcome
/// `delta` splices over; `prev_spans` maps each aggregate to its
/// `(start, len)` bundle span in the *previous* list, with `moved`'s
/// span equal to the delta's replaced range.
#[allow(clippy::too_many_arguments)]
pub fn score_network_utility_delta(
    tm: &TrafficMatrix,
    delta: &crate::BundleDelta<'_>,
    affected: &[u32],
    rates: &[f64],
    prev_outcome: &ModelOutcome,
    prev_report: &UtilityReport,
    moved: AggregateId,
    prev_spans: &[(u32, u32)],
    ws: &mut ReportScratch,
) -> f64 {
    let n = tm.len();
    // Hard input checks (O(1), nothing allocated on the pass path): a
    // mismatched report or span table must fail fast, not silently
    // index the wrong fold-tree leaves.
    assert_eq!(
        prev_report.per_aggregate.len(),
        n,
        "previous report covers a different aggregate population"
    );
    assert_eq!(prev_spans.len(), n, "spans must cover every aggregate");
    assert_eq!(
        prev_spans[moved.index()].0 as usize,
        delta.start(),
        "moved aggregate's span must equal the delta's replaced range"
    );
    assert_eq!(
        prev_spans[moved.index()].1 as usize,
        delta.removed(),
        "moved aggregate's span must equal the delta's replaced range"
    );
    ws.begin(n);

    // Only a changed rate changes a leaf: an aggregate other than
    // `moved` keeps its bundles, so when every re-filled bundle of it
    // came out at its previous rate bit for bit, re-evaluating it would
    // reproduce the `FoldCell` the tree already holds.
    ws.mark(moved.index());
    for (&bi, &rate) in affected.iter().zip(rates) {
        // A replacement bundle is `moved`'s own.
        let Some(pi) = delta.prev_index(bi as usize) else {
            continue;
        };
        if prev_outcome.bundle_rates[pi as usize].bps().to_bits() != rate.to_bits() {
            ws.mark(delta.prev[pi as usize].aggregate.index());
        }
    }

    let shift = delta.replacement_len() as i64 - delta.removed() as i64;
    for k in 0..ws.affected_aggs.len() {
        let ai = ws.affected_aggs[k] as usize;
        let a = tm.aggregate(AggregateId(ai as u32));
        // The aggregate's bundle span in the *spliced* list: the moved
        // aggregate owns the replacement segment; spans after it shift.
        let (ps, pl) = prev_spans[ai];
        let (s, l) = if ai == moved.index() {
            (delta.start(), delta.replacement_len())
        } else if ps as usize >= delta.start() + delta.removed() {
            ((i64::from(ps) + shift) as usize, pl as usize)
        } else {
            (ps as usize, pl as usize)
        };
        // Flow-weighted utility over the span, in bundle order — the
        // exact accumulation a full report performs for this aggregate.
        let mut cursor = affected.partition_point(|&bi| (bi as usize) < s);
        let run = (s..s + l).map(|i| {
            let rate = if cursor < affected.len() && affected[cursor] as usize == i {
                cursor += 1;
                Bandwidth::from_bps(rates[cursor - 1])
            } else {
                prev_outcome.bundle_rates
                    [delta.prev_index(i).expect("unaffected bundles are mapped") as usize]
            };
            (delta.get(i), rate)
        });
        let u_agg = aggregate_utility(a, run);
        ws.leaves.push((ai as u32, u_agg));
    }
    let leaves = std::mem::take(&mut ws.leaves);
    let score = score_network_utility_from_leaves(tm, prev_report, &leaves, ws);
    ws.leaves = leaves;
    score
}

/// The network utility of `report` with the given fold-tree leaves
/// replaced — `(aggregate, utility)` pairs, each aggregate once, in any
/// order — folded through an O(leaves · log n) patch of its summation
/// tree without mutating it. [`score_network_utility_delta`] ends here
/// with the leaves it derived ([`ReportScratch::leaves`]), so a caller
/// that kept a candidate's leaves re-derives its score against a later
/// report bit for bit as a fresh scoring would, provided neither the
/// candidate's fill nor those aggregates' other bundles changed.
pub fn score_network_utility_from_leaves(
    tm: &TrafficMatrix,
    report: &UtilityReport,
    leaves: &[(u32, f64)],
    ws: &mut ReportScratch,
) -> f64 {
    let base = report.sums.base;
    ws.changed.clear();
    ws.changed.extend(leaves.iter().map(|&(ai, u)| {
        let a = tm.aggregate(AggregateId(ai));
        ((base + ai as usize) as u32, FoldCell::leaf(a, u))
    }));
    ws.changed.sort_unstable_by_key(|&(i, _)| i);
    let root = report.sums.patched_root(&mut ws.changed, &mut ws.spare);
    if root.obj_den > 0.0 {
        root.obj_num / root.obj_den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FlowModel;
    use fubar_graph::NodeId;
    use fubar_topology::{Bandwidth, Delay, TopologyBuilder};
    use fubar_traffic::{Aggregate, AggregateId};
    use fubar_utility::TrafficClass;

    fn kb(v: f64) -> Bandwidth {
        Bandwidth::from_kbps(v)
    }
    fn ms(v: f64) -> Delay {
        Delay::from_ms(v)
    }

    /// One pipe, one real-time aggregate fully satisfied at low delay.
    #[test]
    fn satisfied_low_delay_aggregate_scores_one() {
        let mut b = TopologyBuilder::new("pipe");
        b.add_node("a").unwrap();
        b.add_node("b").unwrap();
        b.add_duplex_link("a", "b", kb(1000.0), ms(2.0)).unwrap();
        let t = b.build();
        let tm = TrafficMatrix::new(vec![Aggregate::new(
            AggregateId(0),
            NodeId(0),
            NodeId(1),
            TrafficClass::RealTime,
            10,
        )]);
        let path = t
            .graph()
            .shortest_path(NodeId(0), NodeId(1), &fubar_graph::LinkSet::new())
            .unwrap();
        let bundles = vec![BundleSpec::new(tm.aggregate(AggregateId(0)), &path, 10)];
        let out = FlowModel::with_defaults(&t).evaluate(&bundles);
        let rep = utility_report(&tm, &bundles, &out);
        assert!((rep.network_utility - 1.0).abs() < 1e-9);
        assert_eq!(rep.large_average, None);
        assert!((rep.small_average.unwrap() - 1.0).abs() < 1e-9);
    }

    /// Starved to half demand: utility = 0.5 for the linear ramp.
    #[test]
    fn half_starved_scores_half() {
        let mut b = TopologyBuilder::new("pipe");
        b.add_node("a").unwrap();
        b.add_node("b").unwrap();
        // 10 flows * 50k = 500k demanded; capacity 250k.
        b.add_duplex_link("a", "b", kb(250.0), ms(2.0)).unwrap();
        let t = b.build();
        let tm = TrafficMatrix::new(vec![Aggregate::new(
            AggregateId(0),
            NodeId(0),
            NodeId(1),
            TrafficClass::RealTime,
            10,
        )]);
        let path = t
            .graph()
            .shortest_path(NodeId(0), NodeId(1), &fubar_graph::LinkSet::new())
            .unwrap();
        let bundles = vec![BundleSpec::new(tm.aggregate(AggregateId(0)), &path, 10)];
        let out = FlowModel::with_defaults(&t).evaluate(&bundles);
        let rep = utility_report(&tm, &bundles, &out);
        assert!((rep.network_utility - 0.5).abs() < 1e-9);
    }

    /// Network utility weights by flows x priority; large average only by
    /// flows.
    #[test]
    fn weighting_rules() {
        let mut b = TopologyBuilder::new("pipes");
        for n in ["a", "b", "c", "d"] {
            b.add_node(n).unwrap();
        }
        // Two disjoint generous pipes.
        b.add_duplex_link("a", "b", Bandwidth::from_mbps(100.0), ms(2.0))
            .unwrap();
        b.add_duplex_link("c", "d", Bandwidth::from_mbps(100.0), ms(2.0))
            .unwrap();
        let t = b.build();
        // Small RT aggregate satisfied (u=1); large aggregate starved by
        // demand? No — give it a generous pipe too, then degrade via
        // delay: impossible for bulk curve at 2ms. Instead use priority
        // to check weighting math with u values (1.0 and 1.0) — so make
        // the large one unsatisfied by giving it 300 flows * 1Mbps =
        // 300M > 100M pipe => per-flow 1/3 of demand => u = 1/3.
        let tm = TrafficMatrix::new(vec![
            Aggregate::new(
                AggregateId(0),
                NodeId(0),
                NodeId(1),
                TrafficClass::RealTime,
                10,
            ),
            Aggregate::new(
                AggregateId(0),
                NodeId(2),
                NodeId(3),
                TrafficClass::LargeFile { peak_mbps: 1.0 },
                300,
            ),
        ])
        .with_large_priority(3.0);
        let excl = fubar_graph::LinkSet::new();
        let p0 = t
            .graph()
            .shortest_path(NodeId(0), NodeId(1), &excl)
            .unwrap();
        let p1 = t
            .graph()
            .shortest_path(NodeId(2), NodeId(3), &excl)
            .unwrap();
        let bundles = vec![
            BundleSpec::new(tm.aggregate(AggregateId(0)), &p0, 10),
            BundleSpec::new(tm.aggregate(AggregateId(1)), &p1, 300),
        ];
        let out = FlowModel::with_defaults(&t).evaluate(&bundles);
        let rep = utility_report(&tm, &bundles, &out);
        let u_large = rep.per_aggregate[1];
        assert!((u_large - 1.0 / 3.0).abs() < 1e-6);
        // network = (10*1*1 + 300*3*u) / (10 + 900)
        let expect = (10.0 + 900.0 * u_large) / 910.0;
        assert!((rep.network_utility - expect).abs() < 1e-9);
        // large average ignores priority: just u_large.
        assert!((rep.large_average.unwrap() - u_large).abs() < 1e-12);
        assert!((rep.small_average.unwrap() - 1.0).abs() < 1e-12);
    }

    /// Splitting an aggregate across two bundles averages flow-weighted.
    #[test]
    fn split_aggregate_averages() {
        let mut b = TopologyBuilder::new("two");
        b.add_node("a").unwrap();
        b.add_node("b").unwrap();
        // Two parallel duplex links with different delays.
        b.add_duplex_link("a", "b", kb(10_000.0), ms(2.0)).unwrap();
        b.add_duplex_link("a", "b", kb(10_000.0), ms(60.0)).unwrap();
        let t = b.build();
        let tm = TrafficMatrix::new(vec![Aggregate::new(
            AggregateId(0),
            NodeId(0),
            NodeId(1),
            TrafficClass::RealTime,
            10,
        )]);
        let a = tm.aggregate(AggregateId(0));
        let g = t.graph();
        let fast = fubar_graph::Path::new(g, NodeId(0), vec![fubar_graph::LinkId(0)]).unwrap();
        let slow = fubar_graph::Path::new(g, NodeId(0), vec![fubar_graph::LinkId(2)]).unwrap();
        let bundles = vec![BundleSpec::new(a, &fast, 5), BundleSpec::new(a, &slow, 5)];
        let out = FlowModel::with_defaults(&t).evaluate(&bundles);
        let rep = utility_report(&tm, &bundles, &out);
        // Fast path: u = 1. Slow path: 60ms -> delay factor (100-60)/90.
        let slow_factor = (100.0 - 60.0) / 90.0;
        let expect = (5.0 * 1.0 + 5.0 * slow_factor) / 10.0;
        assert!(
            (rep.per_aggregate[0] - expect).abs() < 1e-9,
            "got {} want {expect}",
            rep.per_aggregate[0]
        );
    }
}
