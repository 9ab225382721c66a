//! Traffic aggregates: the unit FUBAR routes.
//!
//! An aggregate is all the traffic sharing an (ingress POP, egress POP,
//! traffic class) triple — paper §2.4. FUBAR never tracks individual
//! flows; it tracks how many flows an aggregate contains and splits that
//! integer across paths.

use fubar_graph::NodeId;
use fubar_topology::Bandwidth;
use fubar_utility::{TrafficClass, UtilityFunction};
use std::fmt;

/// Dense identifier of an aggregate within a
/// [`TrafficMatrix`](crate::TrafficMatrix).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AggregateId(pub u32);

impl AggregateId {
    /// The id as a usable array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AggregateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

impl fmt::Display for AggregateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// A traffic aggregate: `flow_count` flows from `ingress` to `egress`,
/// all of traffic class `class`, sharing one utility function.
#[derive(Clone, Debug)]
pub struct Aggregate {
    /// Identifier within the owning matrix.
    pub id: AggregateId,
    /// Entry POP.
    pub ingress: NodeId,
    /// Exit POP.
    pub egress: NodeId,
    /// Application class.
    pub class: TrafficClass,
    /// Approximate number of concurrent flows (paper §2.1: FUBAR needs
    /// "approximate flow counts for each aggregate").
    pub flow_count: u32,
    /// The per-flow utility function.
    pub utility: UtilityFunction,
    /// Weight multiplier in the network-utility objective. 1.0 by
    /// default; raised to prioritize (Fig 5 raises it for large flows).
    pub priority_weight: f64,
}

/// The largest priority weight an aggregate may carry. Every fold sum
/// of the network-utility objective stays finite under it: an instance
/// holds at most `u32::MAX` aggregates of at most `u32::MAX` flows each,
/// so a sum of `flows × weight` terms is below `2^64 × 1e288 < 2^64 ×
/// 2^957 = 2^1021`, well inside `f64::MAX` (just under `2^1024`). Any
/// bound below `2^960` would do; a weight near `f64::MAX` overflows one
/// aggregate's `flows × weight` to infinity, and the objective to NaN.
pub const MAX_PRIORITY_WEIGHT: f64 = 1e288;

impl Aggregate {
    /// Creates an aggregate with the class's preset utility function and
    /// unit priority.
    ///
    /// # Panics
    ///
    /// Panics when `flow_count` is zero: an empty aggregate cannot be
    /// routed, measured, or split.
    pub fn new(
        id: AggregateId,
        ingress: NodeId,
        egress: NodeId,
        class: TrafficClass,
        flow_count: u32,
    ) -> Self {
        assert!(flow_count > 0, "aggregate must contain at least one flow");
        Aggregate {
            id,
            ingress,
            egress,
            class,
            flow_count,
            utility: class.utility(),
            priority_weight: 1.0,
        }
    }

    /// Per-flow demand peak (the inflection point of the bandwidth
    /// component).
    pub fn per_flow_demand(&self) -> Bandwidth {
        self.utility.peak_demand()
    }

    /// Total demand if every flow were fully satisfied.
    pub fn total_demand(&self) -> Bandwidth {
        self.per_flow_demand() * f64::from(self.flow_count)
    }

    /// Weight of this aggregate in the network-utility average:
    /// `flow_count × priority_weight` (paper §3: "the average of
    /// utilities of all aggregates, weighted by number of flows in the
    /// aggregate", with Fig 5's prioritization as a multiplier).
    pub fn objective_weight(&self) -> f64 {
        f64::from(self.flow_count) * self.priority_weight
    }

    /// True when the aggregate's endpoints coincide; such aggregates
    /// never touch the backbone and are trivially satisfied.
    pub fn is_intra_pop(&self) -> bool {
        self.ingress == self.egress
    }

    /// True for the heavy file-transfer class (the paper's "large
    /// flows").
    pub fn is_large(&self) -> bool {
        self.class.is_large()
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}->{} {} x{} ({} total)",
            self.id,
            self.ingress,
            self.egress,
            self.class,
            self.flow_count,
            self.total_demand()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fubar_topology::Bandwidth;

    #[test]
    fn demand_scales_with_flow_count() {
        let a = Aggregate::new(
            AggregateId(0),
            NodeId(0),
            NodeId(1),
            TrafficClass::RealTime,
            10,
        );
        assert_eq!(a.per_flow_demand(), Bandwidth::from_kbps(50.0));
        assert_eq!(a.total_demand(), Bandwidth::from_kbps(500.0));
    }

    #[test]
    fn objective_weight_combines_flows_and_priority() {
        let mut a = Aggregate::new(
            AggregateId(1),
            NodeId(0),
            NodeId(1),
            TrafficClass::BulkTransfer,
            20,
        );
        assert_eq!(a.objective_weight(), 20.0);
        a.priority_weight = 2.5;
        assert_eq!(a.objective_weight(), 50.0);
    }

    #[test]
    fn intra_pop_detection() {
        let a = Aggregate::new(
            AggregateId(2),
            NodeId(3),
            NodeId(3),
            TrafficClass::BulkTransfer,
            1,
        );
        assert!(a.is_intra_pop());
    }

    #[test]
    fn large_detection() {
        let a = Aggregate::new(
            AggregateId(3),
            NodeId(0),
            NodeId(1),
            TrafficClass::LargeFile { peak_mbps: 2.0 },
            3,
        );
        assert!(a.is_large());
        assert_eq!(a.total_demand(), Bandwidth::from_mbps(6.0));
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn zero_flows_rejected() {
        Aggregate::new(
            AggregateId(0),
            NodeId(0),
            NodeId(1),
            TrafficClass::RealTime,
            0,
        );
    }

    #[test]
    fn display_is_informative() {
        let a = Aggregate::new(
            AggregateId(7),
            NodeId(0),
            NodeId(1),
            TrafficClass::RealTime,
            4,
        );
        let s = a.to_string();
        assert!(s.contains("A7"));
        assert!(s.contains("real-time"));
        assert!(s.contains("x4"));
    }
}
