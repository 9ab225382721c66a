//! Failure-injection integration tests: the closed loop under fiber
//! cuts, measurement noise, and demand churn — all at once.

use fubar::prelude::*;
use fubar::sdn::{DriftConfig, FailureEvent, MeasurementConfig};
use fubar::topology::generators;
use fubar::traffic::workload;

fn build_fabric(seed: u64) -> Fabric {
    let topo = generators::abilene(Bandwidth::from_mbps(3.0));
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: false,
            flow_count: (3, 8),
            ..Default::default()
        },
        seed,
    );
    Fabric::new(topo, tm, Delay::from_secs(30.0))
}

#[test]
fn controller_routes_around_a_cut_within_one_cycle() {
    let fabric = build_fabric(11);
    let cut = fabric
        .topology()
        .graph()
        .find_link(
            fabric.topology().node("Denver").unwrap(),
            fabric.topology().node("KansasCity").unwrap(),
        )
        .unwrap();
    let mut sim = ClosedLoop::new(
        fabric,
        ClosedLoopConfig {
            controller: FubarController {
                reoptimize_every: 1,
                warmup_epochs: 0,
                ..Default::default()
            },
            failures: vec![FailureEvent {
                fail_epoch: 3,
                repair_epoch: None,
                link: cut,
            }],
            ..Default::default()
        },
    );
    let log = sim.run(6);
    // Epoch 3 sees the cut with old rules -> fallbacks. Epoch 4 runs
    // with post-cut rules -> no fallbacks, nothing crosses the dead link.
    assert!(log[3].epoch.fallback_count > 0);
    assert_eq!(log[4].epoch.fallback_count, 0);
    assert_eq!(
        log[4].epoch.outcome.link_load[cut.index()],
        Bandwidth::ZERO,
        "no traffic on the failed link after reoptimization"
    );
    // Utility stays strictly positive throughout (no black-holing).
    for r in &log {
        assert!(r.epoch.report.network_utility > 0.2);
    }
}

#[test]
fn double_failure_still_converges() {
    let fabric = build_fabric(13);
    let topo = fabric.topology();
    let cut1 = topo
        .graph()
        .find_link(
            topo.node("Denver").unwrap(),
            topo.node("KansasCity").unwrap(),
        )
        .unwrap();
    let cut2 = topo
        .graph()
        .find_link(topo.node("Chicago").unwrap(), topo.node("NewYork").unwrap())
        .unwrap();
    let mut sim = ClosedLoop::new(
        fabric,
        ClosedLoopConfig {
            controller: FubarController {
                reoptimize_every: 1,
                warmup_epochs: 0,
                ..Default::default()
            },
            failures: vec![
                FailureEvent {
                    fail_epoch: 2,
                    repair_epoch: Some(8),
                    link: cut1,
                },
                FailureEvent {
                    fail_epoch: 4,
                    repair_epoch: Some(8),
                    link: cut2,
                },
            ],
            ..Default::default()
        },
    );
    let log = sim.run(10);
    assert_eq!(log[5].failed_links, 4, "two duplex pairs down");
    assert_eq!(log[9].failed_links, 0, "both repaired");
    // After both repairs and a reoptimization, utility returns to the
    // healthy neighbourhood.
    let healthy = log[1].epoch.report.network_utility;
    let recovered = log[9].epoch.report.network_utility;
    assert!(
        recovered > healthy * 0.9,
        "recovery: healthy {healthy}, recovered {recovered}"
    );
}

#[test]
fn noise_and_drift_do_not_break_the_loop() {
    let fabric = build_fabric(17);
    let mut sim = ClosedLoop::new(
        fabric,
        ClosedLoopConfig {
            measurement: MeasurementConfig {
                noise_rel_std: 0.15, // very noisy counters
                ..Default::default()
            },
            controller: FubarController {
                reoptimize_every: 2,
                warmup_epochs: 1,
                ..Default::default()
            },
            drift: Some(DriftConfig {
                max_step: 2,
                min_flows: 1,
                max_flows: 16,
            }),
            seed: 23,
            ..Default::default()
        },
    );
    let log = sim.run(12);
    for r in &log {
        let u = r.epoch.report.network_utility;
        assert!((0.0..=1.0).contains(&u));
    }
    // The controller should still, on average, beat the boot state.
    let early: f64 = log[..3]
        .iter()
        .map(|r| r.epoch.report.network_utility)
        .sum::<f64>()
        / 3.0;
    let late: f64 = log[9..]
        .iter()
        .map(|r| r.epoch.report.network_utility)
        .sum::<f64>()
        / 3.0;
    assert!(
        late >= early - 0.05,
        "noisy control must not regress badly: early {early}, late {late}"
    );
}

#[test]
fn partitioning_failure_degrades_gracefully() {
    // A line topology: cutting any link partitions it. Traffic across
    // the cut black-holes (utility contribution 0) but the loop and the
    // rest of the network keep working.
    let topo = generators::line(4, Bandwidth::from_mbps(2.0), Delay::from_ms(2.0));
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: false,
            flow_count: (2, 4),
            ..Default::default()
        },
        3,
    );
    let middle = topo
        .graph()
        .find_link(topo.node("n1").unwrap(), topo.node("n2").unwrap())
        .unwrap();
    let fabric = Fabric::new(topo, tm, Delay::from_secs(10.0));
    let mut sim = ClosedLoop::new(
        fabric,
        ClosedLoopConfig {
            controller: FubarController {
                reoptimize_every: 1,
                warmup_epochs: 0,
                ..Default::default()
            },
            failures: vec![FailureEvent {
                fail_epoch: 2,
                repair_epoch: Some(5),
                link: middle,
            }],
            ..Default::default()
        },
    );
    let log = sim.run(7);
    let before = log[1].epoch.report.network_utility;
    let during = log[3].epoch.report.network_utility;
    let after = log[6].epoch.report.network_utility;
    assert!(during < before, "partition must hurt");
    assert!(during > 0.0, "intra-side traffic still flows");
    assert!(after > during, "repair restores utility");
}

#[test]
fn total_partition_carries_zero_utility_aggregates_and_revives() {
    // Ring of 6: cutting both of n0's duplex links isolates it outright
    // — every aggregate into or out of n0 has *no* physical path. The
    // loop must keep re-optimizing through the partition (warm start
    // rebases across the partitioned view), carry the dead aggregates
    // at zero utility without a single NaN, and revive them on repair.
    let topo = generators::ring(6, Bandwidth::from_mbps(1.0), Delay::from_ms(2.0));
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: false,
            flow_count: (2, 4),
            ..Default::default()
        },
        5,
    );
    let cut_a = topo
        .graph()
        .find_link(topo.node("n5").unwrap(), topo.node("n0").unwrap())
        .unwrap();
    let cut_b = topo
        .graph()
        .find_link(topo.node("n0").unwrap(), topo.node("n1").unwrap())
        .unwrap();
    let fabric = Fabric::new(topo, tm, Delay::from_secs(10.0));
    let mut sim = ClosedLoop::new(
        fabric,
        ClosedLoopConfig {
            controller: FubarController {
                reoptimize_every: 1,
                warmup_epochs: 0,
                ..Default::default()
            },
            failures: vec![
                FailureEvent {
                    fail_epoch: 2,
                    repair_epoch: Some(6),
                    link: cut_a,
                },
                FailureEvent {
                    fail_epoch: 2,
                    repair_epoch: Some(6),
                    link: cut_b,
                },
            ],
            ..Default::default()
        },
    );
    let log = sim.run(9);
    for (i, r) in log.iter().enumerate() {
        let u = r.epoch.report.network_utility;
        assert!(
            u.is_finite(),
            "epoch {i}: total partition must never produce NaN/inf utility, got {u}"
        );
    }
    assert_eq!(log[3].failed_links, 4, "both duplex pairs down");
    let before = log[1].epoch.report.network_utility;
    let during = log[4].epoch.report.network_utility;
    let after = log[8].epoch.report.network_utility;
    assert!(during < before, "isolation must hurt: {during} vs {before}");
    assert!(during > 0.0, "the surviving arc still carries traffic");
    assert!(
        after > during,
        "repair + reoptimization must revive n0's aggregates"
    );
    assert!(
        after > before * 0.9,
        "recovery: before {before}, after {after}"
    );
}

#[test]
fn chaos_partition_scenario_survives_total_isolation_of_n5() {
    // The committed worst case found by `scenario search`: the n5-n6
    // cut at 68s plus the scripted n4-n5 cut at 70s isolates n5 until
    // the 120s repair, with the optimizer starved to 4 moves per run.
    // The derived regression: utilities stay finite through the total
    // partition, the partition hurts, and repairs revive the node.
    let mut spec = fubar::scenario::catalog::load("chaos_partition").unwrap();
    spec.duration = fubar::topology::Delay::from_secs(170.0);
    let (log, _) = fubar::scenario::run(&spec, spec.seed, &Default::default()).unwrap();
    let epochs: Vec<(f64, f64)> = log
        .records
        .iter()
        .filter(|r| r.what.starts_with("epoch"))
        .map(|r| (r.time_s, r.utility))
        .collect();
    for &(t, u) in &epochs {
        assert!(u.is_finite(), "NaN/inf utility at t={t}");
    }
    let min_in = |lo: f64, hi: f64| {
        epochs
            .iter()
            .filter(|&&(t, _)| t >= lo && t < hi)
            .map(|&(_, u)| u)
            .fold(f64::INFINITY, f64::min)
    };
    let before = min_in(16.0, 60.0);
    let during = min_in(72.0, 120.0);
    let after = epochs
        .iter()
        .filter(|&&(t, _)| t >= 152.0)
        .map(|&(_, u)| u)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(during < before, "isolation must hurt: {during} vs {before}");
    assert!(during > 0.0, "the surviving arc still carries traffic");
    assert!(after > during, "repairs must revive: {after} vs {during}");
}
