//! High-level drivers for the paper's evaluation (§3).
//!
//! Each figure in the paper maps to a function here; the `fubar-bench`
//! figure binaries are thin wrappers that print what these return. See
//! DESIGN.md's experiment index (F3–F7, T1–T3, A1–A2).

use crate::baselines::{self, UpperBound};
use crate::optimizer::{OptimizeResult, Optimizer, OptimizerConfig};
use fubar_topology::{generators, Bandwidth, Topology};
use fubar_traffic::{workload, TrafficMatrix, WorkloadConfig};

/// Link capacity of the paper's *provisioned* case: "each link of the
/// topology has a capacity of 100 Mbps".
pub const PROVISIONED_MBPS: f64 = 100.0;
/// Link capacity of the paper's *underprovisioned* case: 75 Mbps.
pub const UNDERPROVISIONED_MBPS: f64 = 75.0;

/// The two §3 capacity regimes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// 100 Mb/s everywhere — congestion can be eliminated.
    Provisioned,
    /// 75 Mb/s everywhere — congestion can only be diffused.
    Underprovisioned,
}

impl Scenario {
    /// The uniform link capacity of this scenario.
    pub fn capacity(self) -> Bandwidth {
        match self {
            Scenario::Provisioned => Bandwidth::from_mbps(PROVISIONED_MBPS),
            Scenario::Underprovisioned => Bandwidth::from_mbps(UNDERPROVISIONED_MBPS),
        }
    }
}

/// Workload transformations applied on top of the base §3 matrix.
#[derive(Clone, Debug, Default)]
pub struct CaseOptions {
    /// Fig 5: priority weight given to large aggregates (`None` = 1.0).
    pub large_priority: Option<f64>,
    /// Fig 6: stretch factor for small aggregates' delay curves
    /// (`Some(2.0)` is the paper's "double the delay parameter").
    pub relax_small_delay: Option<f64>,
}

/// Builds the paper's topology + traffic matrix for one scenario/seed.
pub fn paper_inputs(
    scenario: Scenario,
    seed: u64,
    options: &CaseOptions,
) -> (Topology, TrafficMatrix) {
    let topo = generators::he_core(scenario.capacity());
    let mut tm = workload::generate(&topo, &WorkloadConfig::default(), seed);
    if let Some(w) = options.large_priority {
        tm = tm.with_large_priority(w);
    }
    if let Some(f) = options.relax_small_delay {
        tm = tm.with_relaxed_small_delays(f);
    }
    (topo, tm)
}

/// One fully-evaluated case: FUBAR's run plus the two reference lines of
/// the figures.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// FUBAR's optimization run (trace included).
    pub fubar: OptimizeResult,
    /// The shortest-path lower bound (network utility).
    pub shortest_path_utility: f64,
    /// Shortest-path utility of large flows only.
    pub shortest_path_large_utility: Option<f64>,
    /// The isolation upper bound.
    pub upper_bound: UpperBound,
}

/// Runs FUBAR and both reference baselines on arbitrary inputs.
pub fn run_case(topology: &Topology, tm: &TrafficMatrix, optimizer: OptimizerConfig) -> CaseReport {
    let sp = baselines::shortest_path(topology, tm);
    let ub = baselines::upper_bound(topology, tm);
    let fubar = Optimizer::new(topology, tm, optimizer).run();
    CaseReport {
        fubar,
        shortest_path_utility: sp.report.network_utility,
        shortest_path_large_utility: sp.report.large_average,
        upper_bound: ub,
    }
}

/// A weighted empirical CDF: sorted `(value, cumulative_fraction)` pairs.
/// Weights must be positive; an empty input yields an empty CDF.
pub fn weighted_cdf(mut samples: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    samples.retain(|&(_, w)| w > 0.0);
    if samples.is_empty() {
        return Vec::new();
    }
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = samples.iter().map(|&(_, w)| w).sum();
    let mut acc = 0.0;
    let mut out = Vec::with_capacity(samples.len());
    for (v, w) in samples {
        acc += w;
        out.push((v, acc / total));
    }
    out
}

/// The per-flow one-way delay CDF of a finished allocation (Fig 6):
/// `(delay_ms, cumulative_fraction)`.
pub fn delay_cdf(result: &OptimizeResult, tm: &TrafficMatrix) -> Vec<(f64, f64)> {
    let samples = result
        .allocation
        .flow_delays(tm)
        .into_iter()
        .map(|(d, n)| (d.ms(), f64::from(n)))
        .collect();
    weighted_cdf(samples)
}

/// The p-th percentile (0..=100) of a weighted CDF produced by
/// [`weighted_cdf`]/[`delay_cdf`]. Returns `None` on an empty CDF.
pub fn percentile(cdf: &[(f64, f64)], p: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let target = p / 100.0;
    cdf.iter()
        .find(|&&(_, frac)| frac >= target - 1e-12)
        .or(cdf.last())
        .map(|&(v, _)| v)
}

/// One row of the Fig 7 repeatability experiment.
#[derive(Clone, Copy, Debug)]
pub struct RepeatabilityRow {
    /// Seed used for the traffic matrix.
    pub seed: u64,
    /// FUBAR's final network utility.
    pub fubar: f64,
    /// Shortest-path network utility.
    pub shortest_path: f64,
    /// The isolation upper bound ("maximal utility").
    pub maximal: f64,
}

/// Fig 7: `runs` provisioned-case optimizations "with the same topology,
/// but with different random seeds for choosing the traffic matrices".
pub fn repeatability(
    scenario: Scenario,
    runs: usize,
    base_seed: u64,
    optimizer: OptimizerConfig,
) -> Vec<RepeatabilityRow> {
    (0..runs)
        .map(|i| {
            let seed = base_seed + i as u64;
            let (topo, tm) = paper_inputs(scenario, seed, &CaseOptions::default());
            let report = run_case(&topo, &tm, optimizer.clone());
            RepeatabilityRow {
                seed,
                fubar: report.fubar.report.network_utility,
                shortest_path: report.shortest_path_utility,
                maximal: report.upper_bound.mean,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_capacities_match_paper() {
        assert_eq!(
            Scenario::Provisioned.capacity(),
            Bandwidth::from_mbps(100.0)
        );
        assert_eq!(
            Scenario::Underprovisioned.capacity(),
            Bandwidth::from_mbps(75.0)
        );
    }

    #[test]
    fn paper_inputs_shape() {
        let (topo, tm) = paper_inputs(Scenario::Provisioned, 3, &CaseOptions::default());
        assert_eq!(topo.node_count(), 31);
        assert_eq!(tm.len(), 961);
    }

    #[test]
    fn options_are_applied() {
        let opts = CaseOptions {
            large_priority: Some(5.0),
            relax_small_delay: Some(2.0),
        };
        let (_, tm) = paper_inputs(Scenario::Underprovisioned, 3, &opts);
        for id in tm.large_ids() {
            assert_eq!(tm.aggregate(id).priority_weight, 5.0);
        }
    }

    #[test]
    fn weighted_cdf_basics() {
        let cdf = weighted_cdf(vec![(5.0, 1.0), (1.0, 1.0), (3.0, 2.0)]);
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0], (1.0, 0.25));
        assert_eq!(cdf[1], (3.0, 0.75));
        assert_eq!(cdf[2], (5.0, 1.0));
    }

    #[test]
    fn weighted_cdf_drops_zero_weights_and_handles_empty() {
        assert!(weighted_cdf(vec![]).is_empty());
        assert!(weighted_cdf(vec![(1.0, 0.0)]).is_empty());
    }

    #[test]
    fn percentiles() {
        let cdf = weighted_cdf(vec![(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)]);
        assert_eq!(percentile(&cdf, 0.0), Some(1.0));
        assert_eq!(percentile(&cdf, 50.0), Some(2.0));
        assert_eq!(percentile(&cdf, 100.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn bad_percentile_rejected() {
        percentile(&[(1.0, 1.0)], 150.0);
    }
}
