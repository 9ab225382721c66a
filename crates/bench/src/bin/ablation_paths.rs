//! A1: path-generator ablation (DESIGN.md).
//!
//! §2.4: "We tried different approaches and found this particular choice
//! of three paths to be the best tradeoff between speed and solution
//! quality." This binary compares the paper's three-path generator
//! against global-only, link-local-only, and K-shortest generators on
//! the underprovisioned case.
//!
//! Usage: `ablation_paths [seed]` (default 1). Stdout is a pure
//! function of the seed; each policy's wall time goes to stderr.

use fubar_core::experiments::{paper_inputs, CaseOptions, Scenario};
use fubar_core::{Optimizer, OptimizerConfig, PathPolicy};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let (topo, tm) = paper_inputs(Scenario::Underprovisioned, seed, &CaseOptions::default());
    println!("# A1: path-generator ablation, underprovisioned, seed {seed}");
    println!("policy,final_utility,commits,congested_links,max_path_set");
    for (name, policy) in [
        ("three-paths", PathPolicy::ThreePaths),
        ("global-only", PathPolicy::GlobalOnly),
        ("link-local-only", PathPolicy::LinkLocalOnly),
        ("k-shortest-3", PathPolicy::KShortest(3)),
        ("k-shortest-8", PathPolicy::KShortest(8)),
    ] {
        let cfg = OptimizerConfig {
            path_policy: policy,
            ..Default::default()
        };
        let result = Optimizer::new(&topo, &tm, cfg).run();
        let last = result.trace.last().unwrap();
        println!(
            "{name},{:.6},{},{},{}",
            last.network_utility,
            result.commits,
            last.congested_links,
            result.allocation.max_path_set_size()
        );
        eprintln!("{name} elapsed_s {:.3}", last.elapsed.as_secs_f64());
    }
}
