//! The traffic matrix: every aggregate FUBAR is currently routing.

use crate::aggregate::{Aggregate, AggregateId, MAX_PRIORITY_WEIGHT};
use fubar_graph::NodeId;
use fubar_topology::Bandwidth;
use fubar_utility::TrafficClass;
use std::collections::BTreeMap;

/// An immutable collection of aggregates, indexed densely by
/// [`AggregateId`]. At most one aggregate may exist per (ingress, egress,
/// class-kind) triple; the paper's workload has exactly one per ordered
/// POP pair.
#[derive(Clone, Debug, Default)]
pub struct TrafficMatrix {
    aggregates: Vec<Aggregate>,
    by_pair: BTreeMap<(NodeId, NodeId), Vec<AggregateId>>,
    /// Σ flow counts, kept current by [`TrafficMatrix::set_flow_count`].
    total_flows: u64,
}

impl TrafficMatrix {
    /// Builds a matrix, re-assigning dense ids in iteration order.
    pub fn new(mut aggregates: Vec<Aggregate>) -> Self {
        let mut by_pair: BTreeMap<(NodeId, NodeId), Vec<AggregateId>> = BTreeMap::new();
        for (i, a) in aggregates.iter_mut().enumerate() {
            a.id = AggregateId(i as u32);
            by_pair.entry((a.ingress, a.egress)).or_default().push(a.id);
        }
        let total_flows = aggregates.iter().map(|a| u64::from(a.flow_count)).sum();
        TrafficMatrix {
            aggregates,
            by_pair,
            total_flows,
        }
    }

    /// Number of aggregates.
    pub fn len(&self) -> usize {
        self.aggregates.len()
    }

    /// True when the matrix holds no aggregates.
    pub fn is_empty(&self) -> bool {
        self.aggregates.is_empty()
    }

    /// The aggregate with the given id.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    #[inline]
    pub fn aggregate(&self, id: AggregateId) -> &Aggregate {
        &self.aggregates[id.index()]
    }

    /// All aggregates in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Aggregate> {
        self.aggregates.iter()
    }

    /// All aggregate ids.
    pub fn ids(&self) -> impl Iterator<Item = AggregateId> {
        (0..self.aggregates.len() as u32).map(AggregateId)
    }

    /// The aggregates flowing from `ingress` to `egress`, if any.
    pub fn for_pair(&self, ingress: NodeId, egress: NodeId) -> &[AggregateId] {
        self.by_pair
            .get(&(ingress, egress))
            .map_or(&[], Vec::as_slice)
    }

    /// Sum of all aggregates' fully-satisfied demands.
    pub fn total_demand(&self) -> Bandwidth {
        self.aggregates.iter().map(Aggregate::total_demand).sum()
    }

    /// Total number of flows across all aggregates (a running total —
    /// event-driven callers read it after every single change).
    pub fn total_flows(&self) -> u64 {
        debug_assert_eq!(
            self.total_flows,
            self.aggregates
                .iter()
                .map(|a| u64::from(a.flow_count))
                .sum::<u64>(),
            "running flow total drifted from the aggregates"
        );
        self.total_flows
    }

    /// Ids of the "large flow" aggregates (heavy file transfers), whose
    /// utility the paper tracks separately.
    pub fn large_ids(&self) -> Vec<AggregateId> {
        self.aggregates
            .iter()
            .filter(|a| a.is_large())
            .map(|a| a.id)
            .collect()
    }

    /// A copy with the priority weight of every *large* aggregate set to
    /// `weight` — the Fig 5 experiment ("priority is given to large flows
    /// by increasing their weighting when computing the network
    /// utility").
    ///
    /// # Panics
    ///
    /// Panics when `weight` is not strictly positive or exceeds
    /// [`MAX_PRIORITY_WEIGHT`].
    pub fn with_large_priority(&self, weight: f64) -> Self {
        assert!(
            weight > 0.0 && weight <= MAX_PRIORITY_WEIGHT,
            "priority weight must be positive and at most {MAX_PRIORITY_WEIGHT:e}"
        );
        let mut m = self.clone();
        for a in &mut m.aggregates {
            if a.is_large() {
                a.priority_weight = weight;
            }
        }
        m
    }

    /// A copy with the delay axis of every *small* (non-large) aggregate
    /// stretched by `factor` — the paper's relaxed-delay experiment runs
    /// "the underprovisioned case with small flows using double the delay
    /// parameter" (Fig 6), i.e. `factor = 2.0`.
    pub fn with_relaxed_small_delays(&self, factor: f64) -> Self {
        let mut m = self.clone();
        for a in &mut m.aggregates {
            if !a.is_large() {
                a.utility = a.utility.with_relaxed_delay(factor);
            }
        }
        m
    }

    /// Sets one aggregate's live flow count in place.
    ///
    /// Unlike [`Aggregate::new`], zero is allowed here: a zero-flow
    /// aggregate is *idle* — it stays in the matrix (ids stay dense, so
    /// per-aggregate state such as data-plane counters keeps its
    /// indexing) but contributes no traffic, no demand, and no objective
    /// weight. Dynamic scenarios park departed aggregates at zero and
    /// revive them on re-arrival.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn set_flow_count(&mut self, id: AggregateId, flows: u32) {
        let count = &mut self.aggregates[id.index()].flow_count;
        self.total_flows = self.total_flows - u64::from(*count) + u64::from(flows);
        *count = flows;
    }

    /// Count of aggregates per class kind `(real-time, bulk, large)`.
    pub fn class_census(&self) -> (usize, usize, usize) {
        let mut rt = 0;
        let mut bulk = 0;
        let mut large = 0;
        for a in &self.aggregates {
            match a.class {
                TrafficClass::RealTime => rt += 1,
                TrafficClass::BulkTransfer => bulk += 1,
                TrafficClass::LargeFile { .. } => large += 1,
            }
        }
        (rt, bulk, large)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(i: u32, from: u32, to: u32, class: TrafficClass, flows: u32) -> Aggregate {
        Aggregate::new(AggregateId(i), NodeId(from), NodeId(to), class, flows)
    }

    fn sample() -> TrafficMatrix {
        TrafficMatrix::new(vec![
            agg(0, 0, 1, TrafficClass::RealTime, 10),
            agg(0, 1, 0, TrafficClass::BulkTransfer, 5),
            agg(0, 0, 1, TrafficClass::LargeFile { peak_mbps: 2.0 }, 2),
        ])
    }

    #[test]
    fn ids_are_reassigned_densely() {
        let m = sample();
        for (i, a) in m.iter().enumerate() {
            assert_eq!(a.id, AggregateId(i as u32));
        }
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn pair_lookup() {
        let m = sample();
        let ids = m.for_pair(NodeId(0), NodeId(1));
        assert_eq!(ids.len(), 2);
        assert!(m.for_pair(NodeId(1), NodeId(1)).is_empty());
    }

    #[test]
    fn totals() {
        let m = sample();
        assert_eq!(m.total_flows(), 17);
        // 10*50k + 5*120k + 2*2M = 0.5M + 0.6M + 4M = 5.1M
        assert!((m.total_demand().mbps() - 5.1).abs() < 1e-9);
    }

    #[test]
    fn large_ids_and_census() {
        let m = sample();
        assert_eq!(m.large_ids(), vec![AggregateId(2)]);
        assert_eq!(m.class_census(), (1, 1, 1));
    }

    #[test]
    fn large_priority_override_only_touches_large() {
        let m = sample().with_large_priority(4.0);
        assert_eq!(m.aggregate(AggregateId(0)).priority_weight, 1.0);
        assert_eq!(m.aggregate(AggregateId(2)).priority_weight, 4.0);
        assert_eq!(m.aggregate(AggregateId(2)).objective_weight(), 8.0);
    }

    #[test]
    fn relaxed_small_delays_leave_large_alone() {
        use fubar_topology::{Bandwidth, Delay};
        let m = sample().with_relaxed_small_delays(2.0);
        let small = m.aggregate(AggregateId(0));
        let large = m.aggregate(AggregateId(2));
        // Real-time normally dies at 100ms; relaxed dies at 200ms.
        assert!(
            small
                .utility
                .eval(Bandwidth::from_kbps(50.0), Delay::from_ms(150.0))
                > 0.0
        );
        // Large unchanged: bulk-shaped curve evaluated identically.
        let reference = TrafficClass::LargeFile { peak_mbps: 2.0 }.utility();
        assert_eq!(
            large
                .utility
                .eval(Bandwidth::from_mbps(1.0), Delay::from_ms(500.0)),
            reference.eval(Bandwidth::from_mbps(1.0), Delay::from_ms(500.0))
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_priority_rejected() {
        sample().with_large_priority(0.0);
    }

    #[test]
    fn empty_matrix() {
        let m = TrafficMatrix::new(vec![]);
        assert!(m.is_empty());
        assert_eq!(m.total_flows(), 0);
        assert_eq!(m.total_demand(), Bandwidth::ZERO);
    }
}
