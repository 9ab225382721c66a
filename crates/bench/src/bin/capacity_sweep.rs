//! Capacity sweep: where does the network cross from underprovisioned to
//! provisioned? Runs FUBAR on the paper workload across uniform link
//! capacities and reports final utility, residual congestion, and
//! whether a structural (min-cut) certificate still exists — locating
//! the paper's 75 vs 100 Mb/s regimes on a continuum.
//!
//! Usage: `capacity_sweep [seed]` (default 1). Stdout is a pure
//! function of the seed; each capacity's wall time goes to stderr.

use fubar_core::{certify_allocation, Optimizer, OptimizerConfig};
use fubar_topology::{generators, Bandwidth};
use fubar_traffic::{workload, WorkloadConfig};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    println!("# capacity sweep, paper workload, seed {seed}");
    println!("capacity_mbps,final_utility,congested_links,cut_certificates,worst_cut_oversub,termination");
    for mbps in [
        60.0, 70.0, 75.0, 80.0, 85.0, 90.0, 95.0, 100.0, 110.0, 125.0,
    ] {
        let topo = generators::he_core(Bandwidth::from_mbps(mbps));
        let tm = workload::generate(&topo, &WorkloadConfig::default(), seed);
        let result = Optimizer::new(&topo, &tm, OptimizerConfig::default()).run();
        let certs = certify_allocation(&topo, &tm, &result.allocation);
        let worst = certs.first().map_or(0.0, |c| c.oversubscription);
        let last = result.trace.last().unwrap();
        println!(
            "{mbps},{:.6},{},{},{:.3},{:?}",
            last.network_utility,
            last.congested_links,
            certs.len(),
            worst,
            result.termination
        );
        eprintln!("{mbps} elapsed_s {:.2}", last.elapsed.as_secs_f64());
    }
}
