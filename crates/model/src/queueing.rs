//! Queueing-delay estimates — the paper's "avoiding congestion … makes
//! the network more predictable, as queue sizes are minimized" (§3) and
//! "by alleviating congestion, FUBAR avoids building long queues in the
//! network, even when operating at high network utilization" (§1).
//!
//! The flow model predicts steady-state *rates*; this module layers an
//! M/M/1-style queueing estimate on top so those claims can be measured:
//! a link at utilization ρ with capacity C adds roughly
//! `S / (C·(1−ρ))` of queueing delay (S = mean packet size in bits),
//! clamped at a ceiling for saturated links (where the steady-state
//! formula diverges but real queues are bounded by buffer depth).
//!
//! The estimate is deliberately coarse — exactly in the spirit of the
//! paper's "back-of-the-envelope" models — but it orders allocations
//! correctly: an allocation with lower peak utilization has strictly
//! smaller queueing tails.

use crate::outcome::ModelOutcome;
use crate::spec::BundleSpec;
use fubar_topology::Delay;

/// Mean packet size in bits: 1000 bytes.
const PACKET_BITS: f64 = 8_000.0;

/// Ceiling on any single link's queueing delay in milliseconds (models
/// finite buffers: a deep-buffered core port).
const MAX_PER_LINK_MS: f64 = 500.0;

/// Per-link and per-bundle queueing delays derived from a model outcome.
#[derive(Clone, Debug)]
pub struct QueueingReport {
    /// Estimated queueing delay per directed link.
    pub link_queueing: Vec<Delay>,
    /// Total queueing delay along each input bundle's path.
    pub bundle_queueing: Vec<Delay>,
    /// The largest per-link queueing delay.
    pub worst_link: Delay,
    /// Flow-weighted mean queueing delay across bundles.
    pub mean_flow_queueing: Delay,
}

/// Estimates queueing delays for `outcome`, which must correspond to
/// `bundles` (same order).
pub fn queueing_report(bundles: &[BundleSpec], outcome: &ModelOutcome) -> QueueingReport {
    let max_per_link = Delay::from_ms(MAX_PER_LINK_MS);
    let n_links = outcome.link_load.len();
    let mut link_queueing = Vec::with_capacity(n_links);
    let mut worst = Delay::ZERO;
    for i in 0..n_links {
        let cap = outcome.link_capacity[i].bps();
        let load = outcome.link_load[i].bps();
        let q = if cap <= 0.0 || load <= 0.0 {
            Delay::ZERO
        } else {
            let rho = (load / cap).min(1.0);
            if rho >= 1.0 - 1e-9 {
                max_per_link
            } else {
                // M/M/1 sojourn-minus-service: S/(C(1-rho)) − S/C, i.e.
                // the waiting component only.
                let wait = PACKET_BITS / (cap * (1.0 - rho)) - PACKET_BITS / cap;
                Delay::from_secs(wait.max(0.0)).min(max_per_link)
            }
        };
        worst = worst.max(q);
        link_queueing.push(q);
    }

    let mut bundle_queueing = Vec::with_capacity(bundles.len());
    let mut weighted = 0.0;
    let mut flows = 0.0;
    for b in bundles {
        let q: Delay = b.links.iter().map(|l| link_queueing[l.index()]).sum();
        weighted += q.secs() * f64::from(b.flow_count);
        flows += f64::from(b.flow_count);
        bundle_queueing.push(q);
    }
    QueueingReport {
        link_queueing,
        bundle_queueing,
        worst_link: worst,
        mean_flow_queueing: Delay::from_secs(if flows > 0.0 { weighted / flows } else { 0.0 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FlowModel;
    use fubar_graph::LinkId;
    use fubar_topology::{Bandwidth, TopologyBuilder};
    use fubar_traffic::AggregateId;

    fn pipe(cap_kbps: f64) -> fubar_topology::Topology {
        let mut b = TopologyBuilder::new("pipe");
        b.add_node("a").unwrap();
        b.add_node("b").unwrap();
        b.add_duplex_link(
            "a",
            "b",
            Bandwidth::from_kbps(cap_kbps),
            Delay::from_ms(2.0),
        )
        .unwrap();
        b.build()
    }

    fn bundle(flows: u32, demand_kbps: f64) -> BundleSpec {
        BundleSpec {
            aggregate: AggregateId(0),
            flow_count: flows,
            links: vec![LinkId(0)],
            path_delay: Delay::from_ms(2.0),
            per_flow_demand: Bandwidth::from_kbps(demand_kbps),
        }
    }

    #[test]
    fn idle_links_queue_nothing() {
        let t = pipe(1000.0);
        let bundles = vec![bundle(1, 10.0)]; // 1% utilization
        let out = FlowModel::with_defaults(&t).evaluate(&bundles);
        let q = queueing_report(&bundles, &out);
        assert!(q.link_queueing[0].ms() < 0.1, "got {}", q.link_queueing[0]);
        assert_eq!(q.link_queueing[1], Delay::ZERO, "unused direction");
    }

    #[test]
    fn queueing_grows_with_utilization() {
        let t = pipe(1000.0);
        let mut last = Delay::ZERO;
        for demand in [100.0, 500.0, 900.0, 990.0] {
            let bundles = vec![bundle(1, demand)];
            let out = FlowModel::with_defaults(&t).evaluate(&bundles);
            let q = queueing_report(&bundles, &out);
            assert!(
                q.link_queueing[0] >= last,
                "queueing must be monotone in load"
            );
            last = q.link_queueing[0];
        }
        assert!(last.ms() > 5.0, "90%+ utilization queues visibly: {last}");
    }

    #[test]
    fn saturated_links_hit_the_ceiling() {
        let t = pipe(100.0);
        let bundles = vec![bundle(10, 50.0)]; // 500k demand on 100k pipe
        let out = FlowModel::with_defaults(&t).evaluate(&bundles);
        let q = queueing_report(&bundles, &out);
        let ceiling = Delay::from_ms(500.0);
        assert_eq!(q.link_queueing[0], ceiling);
        assert_eq!(q.worst_link, ceiling);
        assert_eq!(q.bundle_queueing[0], ceiling);
    }

    #[test]
    fn bundle_queueing_sums_along_path() {
        let mut b = TopologyBuilder::new("line");
        for n in ["a", "b", "c"] {
            b.add_node(n).unwrap();
        }
        b.add_duplex_link("a", "b", Bandwidth::from_kbps(100.0), Delay::from_ms(1.0))
            .unwrap();
        b.add_duplex_link("b", "c", Bandwidth::from_kbps(100.0), Delay::from_ms(1.0))
            .unwrap();
        let t = b.build();
        let ab = t
            .graph()
            .find_link(t.node("a").unwrap(), t.node("b").unwrap())
            .unwrap();
        let bc = t
            .graph()
            .find_link(t.node("b").unwrap(), t.node("c").unwrap())
            .unwrap();
        let bundles = vec![BundleSpec {
            aggregate: AggregateId(0),
            flow_count: 5,
            links: vec![ab, bc],
            path_delay: Delay::from_ms(2.0),
            per_flow_demand: Bandwidth::from_kbps(40.0), // saturates both
        }];
        let out = FlowModel::with_defaults(&t).evaluate(&bundles);
        let q = queueing_report(&bundles, &out);
        let expected = q.link_queueing[ab.index()] + q.link_queueing[bc.index()];
        assert!((q.bundle_queueing[0].secs() - expected.secs()).abs() < 1e-12);
    }

    #[test]
    fn mean_is_flow_weighted() {
        let t = pipe(1000.0);
        let bundles = vec![bundle(9, 100.0), bundle(1, 1.0)];
        let out = FlowModel::with_defaults(&t).evaluate(&bundles);
        let q = queueing_report(&bundles, &out);
        // Both bundles share the same single link, so the mean equals
        // that link's queueing regardless of weights.
        assert!((q.mean_flow_queueing.secs() - q.link_queueing[0].secs()).abs() < 1e-12);
    }
}
