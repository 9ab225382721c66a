//! Bundle specifications — the model's input.

use fubar_graph::{LinkId, Path};
use fubar_topology::{Bandwidth, Delay};
use fubar_traffic::{Aggregate, AggregateId};

/// RTT floor in seconds, so a zero-delay (intra-POP) path still gets a
/// finite growth weight: 1 ms, the bits of `Delay::from_ms(1.0)`.
const MIN_RTT_SECS: f64 = 1e-3;

/// One flow bundle: `flow_count` flows of one aggregate pinned to one
/// path (paper §2.3: "we don't deal with individual flows, but with
/// bundles of flows that share the same entry point, exit point, traffic
/// class, and path through the network").
#[derive(Clone, Debug, PartialEq)]
pub struct BundleSpec {
    /// The aggregate these flows belong to.
    pub aggregate: AggregateId,
    /// How many of the aggregate's flows ride this bundle.
    pub flow_count: u32,
    /// Links the bundle traverses, in order (empty for intra-POP).
    pub links: Vec<LinkId>,
    /// One-way propagation delay of the path.
    pub path_delay: Delay,
    /// Per-flow demand peak (from the aggregate's bandwidth component).
    pub per_flow_demand: Bandwidth,
}

impl BundleSpec {
    /// Builds a bundle for `flow_count` flows of `aggregate` on `path`.
    ///
    /// # Panics
    ///
    /// Panics when `flow_count` is zero — empty bundles must be removed
    /// by the allocation layer, not fed to the model.
    pub fn new(aggregate: &Aggregate, path: &Path, flow_count: u32) -> Self {
        assert!(flow_count > 0, "bundle must carry at least one flow");
        BundleSpec {
            aggregate: aggregate.id,
            flow_count,
            links: path.links().to_vec(),
            path_delay: Delay::from_secs(path.cost()),
            per_flow_demand: aggregate.per_flow_demand(),
        }
    }

    /// Overwrites this bundle in place, reusing its link buffer — the
    /// optimizer's zero-allocation candidate path rewrites a scratch
    /// segment with this instead of constructing fresh bundles.
    ///
    /// # Panics
    ///
    /// Panics when `flow_count` is zero (same contract as
    /// [`BundleSpec::new`]).
    pub fn assign(&mut self, aggregate: &Aggregate, path: &Path, flow_count: u32) {
        assert!(flow_count > 0, "bundle must carry at least one flow");
        self.aggregate = aggregate.id;
        self.flow_count = flow_count;
        self.links.clear();
        self.links.extend_from_slice(path.links());
        self.path_delay = Delay::from_secs(path.cost());
        self.per_flow_demand = aggregate.per_flow_demand();
    }

    /// Total demand of the bundle if fully satisfied.
    pub fn demand(&self) -> Bandwidth {
        self.per_flow_demand * f64::from(self.flow_count)
    }

    /// Round-trip time used for the growth weight: twice the one-way
    /// path delay, floored at 1 ms so intra-POP bundles don't get
    /// infinite growth rate.
    pub fn rtt(&self) -> Delay {
        Delay::from_secs(self.rtt_secs())
    }

    /// [`BundleSpec::rtt`] in seconds.
    fn rtt_secs(&self) -> f64 {
        (self.path_delay.secs() * 2.0).max(MIN_RTT_SECS)
    }

    /// Growth weight: flows grow inversely proportional to RTT
    /// (paper §2.3), so a bundle of `n` flows grows with weight
    /// `n / rtt`.
    pub fn weight(&self) -> f64 {
        f64::from(self.flow_count) / self.rtt_secs()
    }
}

/// Terminal state of a bundle after the model runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BundleStatus {
    /// The bundle reached its demand.
    Satisfied,
    /// The bundle was frozen below demand when this link saturated.
    Congested(LinkId),
}

impl BundleStatus {
    /// True for [`BundleStatus::Congested`].
    pub fn is_congested(&self) -> bool {
        matches!(self, BundleStatus::Congested(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fubar_graph::NodeId;
    use fubar_utility::TrafficClass;

    fn agg(flows: u32) -> Aggregate {
        Aggregate::new(
            AggregateId(0),
            NodeId(0),
            NodeId(1),
            TrafficClass::RealTime,
            flows,
        )
    }

    #[test]
    fn demand_and_weight() {
        let a = agg(10);
        let p = Path::trivial(NodeId(0));
        let b = BundleSpec::new(&a, &p, 10);
        assert_eq!(b.demand(), Bandwidth::from_kbps(500.0));
        // Trivial path: rtt floored at 1 ms, to the bit.
        assert_eq!(
            b.rtt().secs().to_bits(),
            Delay::from_ms(1.0).secs().to_bits()
        );
        let w = b.weight();
        assert!((w - 10.0 / 0.001).abs() < 1e-9);
    }

    #[test]
    fn rtt_is_twice_one_way() {
        let a = agg(1);
        let mut b = BundleSpec::new(&a, &Path::trivial(NodeId(0)), 1);
        b.path_delay = Delay::from_ms(25.0);
        assert_eq!(b.rtt(), Delay::from_ms(50.0));
    }

    #[test]
    fn shorter_rtt_means_larger_weight() {
        let a = agg(5);
        let mut near = BundleSpec::new(&a, &Path::trivial(NodeId(0)), 5);
        near.path_delay = Delay::from_ms(5.0);
        let mut far = near.clone();
        far.path_delay = Delay::from_ms(50.0);
        assert!(near.weight() > far.weight());
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn zero_flow_bundle_rejected() {
        let a = agg(1);
        BundleSpec::new(&a, &Path::trivial(NodeId(0)), 0);
    }

    #[test]
    fn status_predicate() {
        assert!(!BundleStatus::Satisfied.is_congested());
        assert!(BundleStatus::Congested(LinkId(3)).is_congested());
    }
}
