//! The paper's queueing claim (§1/§3): "by alleviating congestion,
//! FUBAR avoids building long queues in the network, even when operating
//! at high network utilization". Compares estimated queueing delays of
//! shortest-path routing vs FUBAR's allocation in both capacity regimes.
//!
//! Usage: `queueing_claim [seed]` (default 1).

use fubar_core::experiments::{paper_inputs, CaseOptions, Scenario};
use fubar_core::{Allocation, Optimizer, OptimizerConfig};
use fubar_model::{queueing_report, FlowModel};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    println!("# queueing-delay claim (M/M/1-style estimate, 500 ms buffer ceiling)");
    println!("case,system,worst_link_queue_ms,mean_flow_queue_ms,saturated_links");
    for (name, scenario) in [
        ("provisioned", Scenario::Provisioned),
        ("underprovisioned", Scenario::Underprovisioned),
    ] {
        let (topo, tm) = paper_inputs(scenario, seed, &CaseOptions::default());
        let model = FlowModel::with_defaults(&topo);

        let sp = Allocation::all_on_shortest_paths(&topo, &tm);
        let sp_bundles = sp.bundles(&tm);
        let sp_out = model.evaluate(&sp_bundles);
        let sp_q = queueing_report(&sp_bundles, &sp_out);

        let fu = Optimizer::new(&topo, &tm, OptimizerConfig::default()).run();
        let fu_bundles = fu.allocation.bundles(&tm);
        let fu_out = model.evaluate(&fu_bundles);
        let fu_q = queueing_report(&fu_bundles, &fu_out);

        for (system, q, out) in [("shortest-path", &sp_q, &sp_out), ("fubar", &fu_q, &fu_out)] {
            let saturated = (0..topo.link_count())
                .filter(|&i| out.link_load[i].bps() >= out.link_capacity[i].bps() * (1.0 - 1e-9))
                .count();
            println!(
                "{name},{system},{:.3},{:.3},{saturated}",
                q.worst_link.ms(),
                q.mean_flow_queueing.ms()
            );
        }
    }
    println!("# measured at seed 1 (paper \u{a7}1/\u{a7}5 claims FUBAR avoids long queues): mean");
    println!("# flow queueing falls 254.1 -> 80.2 ms provisioned and 459.6 -> 307.1 ms");
    println!("# underprovisioned, but queues do not collapse: one saturated link remains");
    println!("# in the provisioned case (5 -> 1; 10 -> 10 underprovisioned) and the worst");
    println!("# link stays at the 500 ms buffer ceiling in both regimes.");
}
