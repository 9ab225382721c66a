//! The paper's evaluation workload (§3).
//!
//! "For each of all 961 aggregates we randomly pick either a real-time
//! utility function or a bulk-transfer one. To reflect real-world traffic
//! we also add a 2% probability of there being a large aggregate using a
//! file transfer utility function with a higher max bandwidth (1 or
//! 2 Mbps)."
//!
//! 961 = 31², i.e. one aggregate per *ordered* POP pair including the
//! trivial intra-POP pairs ("traffic from all network devices to all
//! other devices", §1 — intra-POP aggregates never touch the backbone and
//! are always satisfied). [`WorkloadConfig::include_intra_pop`] controls
//! whether those are generated.
//!
//! The paper does not publish flow counts per aggregate; the defaults
//! here are calibrated (see `fubar-core`'s integration tests) so that the
//! 100 Mb/s uniform-capacity case is *provisioned* in the paper's sense —
//! congested under shortest-path routing, decongestable by FUBAR — and
//! 75 Mb/s is underprovisioned.

use crate::aggregate::{Aggregate, AggregateId};
use crate::matrix::TrafficMatrix;
use fubar_topology::Topology;
use fubar_utility::TrafficClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probability a (non-large) aggregate is real-time rather than bulk:
/// the paper picks either "randomly".
const REAL_TIME_FRACTION: f64 = 0.5;

/// Candidate per-flow demand peaks for large aggregates, Mb/s (paper:
/// "1 or 2 Mbps").
const LARGE_PEAKS_MBPS: [f64; 2] = [1.0, 2.0];

/// Tunables for [`generate`].
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Generate an aggregate for src == dst pairs (31² = 961 aggregates
    /// on the HE topology, matching the paper's count).
    pub include_intra_pop: bool,
    /// Only generate aggregates whose endpoints share a region (the
    /// node-name prefix before `_`, e.g. `pop3_7` → region `pop3` —
    /// the same convention the optimizer's region sharding uses). On
    /// hierarchical topologies this yields traffic that never rides the
    /// inter-region trunks, so every region is an independent
    /// congestion component — the workload shape that exercises
    /// per-component optimizer passes and deep intra-region
    /// congestion. Nodes without `_` are their own region, so on flat
    /// topologies this keeps only intra-POP pairs.
    pub intra_region_only: bool,
    /// Probability an aggregate is a heavy file-transfer one (paper: 2%).
    pub large_probability: f64,
    /// Inclusive range of flow counts for ordinary aggregates.
    pub flow_count: (u32, u32),
    /// Inclusive range of flow counts for large aggregates.
    pub large_flow_count: (u32, u32),
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            include_intra_pop: true,
            intra_region_only: false,
            large_probability: 0.02,
            flow_count: (8, 30),
            large_flow_count: (2, 5),
        }
    }
}

impl WorkloadConfig {
    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.large_probability),
            "large_probability must be a probability"
        );
        assert!(
            self.flow_count.0 >= 1 && self.flow_count.0 <= self.flow_count.1,
            "bad flow_count range"
        );
        assert!(
            self.large_flow_count.0 >= 1 && self.large_flow_count.0 <= self.large_flow_count.1,
            "bad large_flow_count range"
        );
    }
}

/// The region label of a node name: the prefix before the first `_`,
/// or the whole name when there is none (mirrors the optimizer's
/// region-sharding convention).
fn region_label(name: &str) -> &str {
    name.split_once('_').map_or(name, |(region, _)| region)
}

/// Generates the paper's §3 workload on `topology`, deterministically
/// from `seed`. One aggregate per ordered POP pair (restricted to
/// same-region pairs under [`WorkloadConfig::intra_region_only`]).
pub fn generate(topology: &Topology, config: &WorkloadConfig, seed: u64) -> TrafficMatrix {
    config.validate();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut aggregates = Vec::new();
    for src in topology.nodes() {
        for dst in topology.nodes() {
            if src == dst && !config.include_intra_pop {
                continue;
            }
            // Skipping *before* any RNG draw keeps the generated pairs
            // deterministic per (config, seed).
            if config.intra_region_only
                && region_label(topology.node_name(src)) != region_label(topology.node_name(dst))
            {
                continue;
            }
            let (class, flows) = if rng.gen::<f64>() < config.large_probability {
                let peak = LARGE_PEAKS_MBPS[rng.gen_range(0..LARGE_PEAKS_MBPS.len())];
                (
                    TrafficClass::LargeFile { peak_mbps: peak },
                    rng.gen_range(config.large_flow_count.0..=config.large_flow_count.1),
                )
            } else {
                let class = if rng.gen::<f64>() < REAL_TIME_FRACTION {
                    TrafficClass::RealTime
                } else {
                    TrafficClass::BulkTransfer
                };
                (
                    class,
                    rng.gen_range(config.flow_count.0..=config.flow_count.1),
                )
            };
            aggregates.push(Aggregate::new(AggregateId(0), src, dst, class, flows));
        }
    }
    TrafficMatrix::new(aggregates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fubar_topology::{generators, Bandwidth};

    fn he() -> fubar_topology::Topology {
        generators::he_core(Bandwidth::from_mbps(100.0))
    }

    #[test]
    fn paper_count_is_961() {
        let m = generate(&he(), &WorkloadConfig::default(), 1);
        assert_eq!(m.len(), 961, "31^2 aggregates, as in the paper");
    }

    #[test]
    fn without_intra_pop_930() {
        let cfg = WorkloadConfig {
            include_intra_pop: false,
            ..Default::default()
        };
        let m = generate(&he(), &cfg, 1);
        assert_eq!(m.len(), 930);
        assert!(m.iter().all(|a| !a.is_intra_pop()));
    }

    #[test]
    fn intra_region_only_keeps_pairs_inside_regions() {
        let topo = generators::hypergrowth(4, 4, Bandwidth::from_mbps(10.0));
        let cfg = WorkloadConfig {
            intra_region_only: true,
            ..Default::default()
        };
        let m = generate(&topo, &cfg, 3);
        // 4 regions × 4² ordered intra-region pairs.
        assert_eq!(m.len(), 4 * 16);
        for a in m.iter() {
            let s = topo.node_name(a.ingress);
            let d = topo.node_name(a.egress);
            assert_eq!(s.split('_').next(), d.split('_').next(), "{s} -> {d}");
        }
        // On a flat topology (no `_` in names) only intra-POP pairs
        // survive.
        let flat = generate(&he(), &cfg, 3);
        assert_eq!(flat.len(), 31);
        assert!(flat.iter().all(|a| a.is_intra_pop()));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&he(), &WorkloadConfig::default(), 42);
        let b = generate(&he(), &WorkloadConfig::default(), 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.class, y.class);
            assert_eq!(x.flow_count, y.flow_count);
            assert_eq!(x.ingress, y.ingress);
            assert_eq!(x.egress, y.egress);
        }
        let c = generate(&he(), &WorkloadConfig::default(), 43);
        let differs = a
            .iter()
            .zip(c.iter())
            .any(|(x, y)| x.class != y.class || x.flow_count != y.flow_count);
        assert!(differs, "different seeds should differ");
    }

    #[test]
    fn large_fraction_is_about_two_percent() {
        // Average over several seeds to keep the test robust.
        let mut large = 0usize;
        let mut total = 0usize;
        for seed in 0..20 {
            let m = generate(&he(), &WorkloadConfig::default(), seed);
            large += m.large_ids().len();
            total += m.len();
        }
        let frac = large as f64 / total as f64;
        assert!(
            (0.012..0.03).contains(&frac),
            "large fraction {frac} should be near 0.02"
        );
    }

    #[test]
    fn classes_split_roughly_evenly() {
        let m = generate(&he(), &WorkloadConfig::default(), 5);
        let (rt, bulk, _) = m.class_census();
        let ratio = rt as f64 / (rt + bulk) as f64;
        assert!((0.42..0.58).contains(&ratio), "rt ratio {ratio}");
    }

    #[test]
    fn flow_counts_respect_ranges() {
        let cfg = WorkloadConfig::default();
        let m = generate(&he(), &cfg, 9);
        for a in m.iter() {
            if a.is_large() {
                assert!((cfg.large_flow_count.0..=cfg.large_flow_count.1).contains(&a.flow_count));
            } else {
                assert!((cfg.flow_count.0..=cfg.flow_count.1).contains(&a.flow_count));
            }
        }
    }

    #[test]
    fn large_peaks_come_from_the_menu() {
        for seed in 0..5 {
            let m = generate(&he(), &WorkloadConfig::default(), seed);
            for id in m.large_ids() {
                let a = m.aggregate(id);
                let peak = a.per_flow_demand().mbps();
                assert!(
                    (peak - 1.0).abs() < 1e-9 || (peak - 2.0).abs() < 1e-9,
                    "unexpected large peak {peak}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_probability_rejected() {
        let cfg = WorkloadConfig {
            large_probability: 1.5,
            ..Default::default()
        };
        generate(&he(), &cfg, 0);
    }
}
