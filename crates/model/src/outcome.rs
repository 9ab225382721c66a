//! Model outputs: per-bundle rates, per-link loads, congestion report.

use crate::spec::BundleStatus;
use fubar_graph::LinkId;
use fubar_topology::Bandwidth;

/// The equilibrium the progressive-filling engine reached.
#[derive(Clone, Debug, Default)]
pub struct ModelOutcome {
    /// Achieved rate per input bundle (same order as the input slice).
    pub bundle_rates: Vec<Bandwidth>,
    /// Terminal status per input bundle.
    pub bundle_status: Vec<BundleStatus>,
    /// Carried load per directed link.
    pub link_load: Vec<Bandwidth>,
    /// Offered (unconstrained) demand per directed link: the sum of
    /// crossing bundles' full demands.
    pub link_demand: Vec<Bandwidth>,
    /// Capacity per directed link.
    pub link_capacity: Vec<Bandwidth>,
    /// Links that saturated while starving at least one bundle, sorted by
    /// descending oversubscription — exactly the order Listing 1 wants.
    pub congested: Vec<LinkId>,
}

/// Network-wide utilization figures for the paper's right-hand panels
/// (Figs 3–5): both ratios are computed over *used* links only, per the
/// paper's footnotes 1–2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UtilizationSummary {
    /// "Actual": carried load ÷ capacity, over links with non-zero load.
    pub actual: f64,
    /// "Demanded": offered demand ÷ capacity, over links with non-zero
    /// demand.
    pub demanded: f64,
}

impl ModelOutcome {
    pub(crate) fn new(
        bundle_rates: Vec<Bandwidth>,
        bundle_status: Vec<BundleStatus>,
        link_load: Vec<Bandwidth>,
        link_demand: Vec<Bandwidth>,
        link_capacity: Vec<Bandwidth>,
        congested: Vec<LinkId>,
    ) -> Self {
        ModelOutcome {
            bundle_rates,
            bundle_status,
            link_load,
            link_demand,
            link_capacity,
            congested,
        }
    }

    /// True when any link starved a bundle.
    pub fn is_congested(&self) -> bool {
        !self.congested.is_empty()
    }

    /// Offered demand ÷ capacity on one link (can exceed 1).
    pub fn oversubscription(&self, link: LinkId) -> f64 {
        let cap = self.link_capacity[link.index()].bps();
        if cap <= 0.0 {
            return 0.0;
        }
        self.link_demand[link.index()].bps() / cap
    }

    /// Carried load ÷ capacity on one link (≤ 1 up to rounding).
    pub fn utilization(&self, link: LinkId) -> f64 {
        let cap = self.link_capacity[link.index()].bps();
        if cap <= 0.0 {
            return 0.0;
        }
        self.link_load[link.index()].bps() / cap
    }

    /// Network-wide utilization over used links (paper Figs 3–5, right
    /// panels). Returns zeros for an idle network.
    pub fn utilization_summary(&self) -> UtilizationSummary {
        let mut used_cap = 0.0;
        let mut load = 0.0;
        let mut demand_cap = 0.0;
        let mut demand = 0.0;
        for i in 0..self.link_load.len() {
            let cap = self.link_capacity[i].bps();
            if self.link_load[i].bps() > 0.0 {
                used_cap += cap;
                load += self.link_load[i].bps();
            }
            if self.link_demand[i].bps() > 0.0 {
                demand_cap += cap;
                demand += self.link_demand[i].bps();
            }
        }
        UtilizationSummary {
            actual: if used_cap > 0.0 { load / used_cap } else { 0.0 },
            demanded: if demand_cap > 0.0 {
                demand / demand_cap
            } else {
                0.0
            },
        }
    }

    /// Count of bundles that ended congested.
    pub fn congested_bundle_count(&self) -> usize {
        self.bundle_status
            .iter()
            .filter(|s| s.is_congested())
            .count()
    }

    /// The first *bitwise* difference against `other`, if any — the
    /// oracle check behind the incremental-evaluation invariant
    /// (`apply_delta` ≡ `evaluate`, bit for bit). Hidden: this is a
    /// test helper, not a `PartialEq` (float payloads are only
    /// meaningfully compared bit-for-bit in that context).
    #[doc(hidden)]
    pub fn bitwise_mismatch(&self, other: &Self) -> Option<String> {
        fn bits(v: &[Bandwidth]) -> Vec<u64> {
            v.iter().map(|x| x.bps().to_bits()).collect()
        }
        let fields: [(&str, &[Bandwidth], &[Bandwidth]); 4] = [
            ("bundle rates", &self.bundle_rates, &other.bundle_rates),
            ("link load", &self.link_load, &other.link_load),
            ("link demand", &self.link_demand, &other.link_demand),
            ("link capacity", &self.link_capacity, &other.link_capacity),
        ];
        for (name, a, b) in fields {
            if bits(a) != bits(b) {
                return Some(name.to_string());
            }
        }
        if self.bundle_status != other.bundle_status {
            return Some("bundle status".to_string());
        }
        if self.congested != other.congested {
            return Some("congested links".to_string());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb(v: f64) -> Bandwidth {
        Bandwidth::from_kbps(v)
    }

    fn sample() -> ModelOutcome {
        ModelOutcome::new(
            vec![kb(50.0), kb(100.0)],
            vec![BundleStatus::Congested(LinkId(0)), BundleStatus::Satisfied],
            vec![kb(100.0), kb(50.0), Bandwidth::ZERO],
            vec![kb(200.0), kb(50.0), Bandwidth::ZERO],
            vec![kb(100.0), kb(100.0), kb(100.0)],
            vec![LinkId(0)],
        )
    }

    #[test]
    fn predicates_and_ratios() {
        let o = sample();
        assert!(o.is_congested());
        assert_eq!(o.congested_bundle_count(), 1);
        assert_eq!(o.oversubscription(LinkId(0)), 2.0);
        assert_eq!(o.utilization(LinkId(0)), 1.0);
        assert_eq!(o.utilization(LinkId(1)), 0.5);
        assert_eq!(o.utilization(LinkId(2)), 0.0);
    }

    #[test]
    fn utilization_summary_ignores_idle_links() {
        let o = sample();
        let s = o.utilization_summary();
        // Used links: 0 and 1 -> (100+50)/(100+100) = 0.75.
        assert!((s.actual - 0.75).abs() < 1e-12);
        // Demanded over links with demand: (200+50)/200 = 1.25.
        assert!((s.demanded - 1.25).abs() < 1e-12);
    }

    #[test]
    fn idle_network_summary_is_zero() {
        let o = ModelOutcome::new(
            vec![],
            vec![],
            vec![Bandwidth::ZERO],
            vec![Bandwidth::ZERO],
            vec![kb(100.0)],
            vec![],
        );
        let s = o.utilization_summary();
        assert_eq!(s.actual, 0.0);
        assert_eq!(s.demanded, 0.0);
        assert!(!o.is_congested());
    }
}
