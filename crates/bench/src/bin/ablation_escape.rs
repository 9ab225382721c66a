//! A2: local-optimum escape ablation (DESIGN.md).
//!
//! §2.5: "when the algorithm gets stuck we can try to move larger and
//! larger numbers of flows ... motivated by simulated annealing, but we
//! have found it gives similar results in a much shorter time." This
//! binary compares escape on/off and different base move fractions.
//!
//! Usage: `ablation_escape [seed]` (default 1). Stdout is a pure
//! function of the seed; each variant's wall time goes to stderr.

use fubar_core::experiments::{paper_inputs, CaseOptions, Scenario};
use fubar_core::{Optimizer, OptimizerConfig};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let (topo, tm) = paper_inputs(Scenario::Underprovisioned, seed, &CaseOptions::default());
    println!("# A2: escape-mechanism ablation, underprovisioned, seed {seed}");
    println!("variant,final_utility,commits,congested_links");
    for (name, escape, fraction) in [
        ("escape-on-frac-0.25", true, 0.25),
        ("escape-off-frac-0.25", false, 0.25),
        ("escape-on-frac-0.10", true, 0.10),
        ("escape-off-frac-0.10", false, 0.10),
        ("escape-off-frac-1.00", false, 1.0),
    ] {
        let cfg = OptimizerConfig {
            escape,
            move_fraction: fraction,
            ..Default::default()
        };
        let result = Optimizer::new(&topo, &tm, cfg).run();
        let last = result.trace.last().unwrap();
        println!(
            "{name},{:.6},{},{}",
            last.network_utility, result.commits, last.congested_links
        );
        eprintln!("{name} elapsed_s {:.3}", last.elapsed.as_secs_f64());
    }
}
