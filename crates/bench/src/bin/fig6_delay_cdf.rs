//! Figure 6: CDFs of per-flow one-way delay for the underprovisioned
//! case, normal vs relaxed delay curves ("small flows using double the
//! delay parameter"). Also prints the T2 summary row (utility and
//! utilization both rise slightly; median delay up ~10 ms, tail up tens
//! of ms).
//!
//! Usage: `fig6_delay_cdf [seed] [relax_factor]` (defaults 1, 2.0).

use fubar_core::experiments::{
    delay_cdf, paper_inputs, percentile, run_case, CaseOptions, Scenario,
};
use fubar_core::OptimizerConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    let factor: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2.0);

    let (topo, tm) = paper_inputs(Scenario::Underprovisioned, seed, &CaseOptions::default());
    let normal = run_case(&topo, &tm, OptimizerConfig::default());
    let cdf_normal = delay_cdf(&normal.fubar, &tm);

    let opts = CaseOptions {
        relax_small_delay: Some(factor),
        ..Default::default()
    };
    let (topo_r, tm_r) = paper_inputs(Scenario::Underprovisioned, seed, &opts);
    let relaxed = run_case(&topo_r, &tm_r, OptimizerConfig::default());
    let cdf_relaxed = delay_cdf(&relaxed.fubar, &tm_r);

    println!("# fig6: per-flow delay CDFs, underprovisioned case");
    println!("case,delay_ms,cum_fraction");
    for &(d, f) in &cdf_normal {
        println!("underprovisioned,{d:.3},{f:.6}");
    }
    for &(d, f) in &cdf_relaxed {
        println!("underprovisioned-relaxed,{d:.3},{f:.6}");
    }

    let med_n = percentile(&cdf_normal, 50.0).unwrap_or(0.0);
    let med_r = percentile(&cdf_relaxed, 50.0).unwrap_or(0.0);
    let p95_n = percentile(&cdf_normal, 95.0).unwrap_or(0.0);
    let p95_r = percentile(&cdf_relaxed, 95.0).unwrap_or(0.0);
    println!("# fig6 median_ms: normal {med_n:.2} relaxed {med_r:.2} (paper: ~+10ms)");
    println!("# fig6 p95_ms: normal {p95_n:.2} relaxed {p95_r:.2} (paper tail: ~+50ms)");

    let n = normal.fubar.trace.last().unwrap();
    let r = relaxed.fubar.trace.last().unwrap();
    println!(
        "# T2 relaxation effect: utility {:.4} -> {:.4}, actual_utilization {:.4} -> {:.4} \
         (paper: both rise a little)",
        n.network_utility, r.network_utility, n.actual_utilization, r.actual_utilization
    );
}
