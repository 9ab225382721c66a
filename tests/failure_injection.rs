//! Failure-injection integration tests: the control loop under fiber
//! cuts, measurement noise, and demand churn, stepped by the scenario
//! engine.

use fubar::prelude::*;
use fubar::scenario::{
    ArrivalSpec, ChurnSource, DepartureSpec, Engine, EventKind, EventRecord, ScenarioLog,
    SdnConsumer,
};
use fubar::sdn::{Estimator, MeasurementConfig};
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

/// Steps `fabric` through `epochs` measurement epochs on the scenario
/// engine. Epoch `k` closes at `k` epoch lengths; the controller
/// re-plans (warm) half-way through every epoch from the first close
/// on, so a cut at epoch `k` is routed around by the close of `k + 1`.
/// `cuts` are `(link, fail epoch, repair epoch)`.
fn drive(
    fabric: Fabric,
    epochs: usize,
    cuts: &[(LinkId, usize, Option<usize>)],
    churn: Option<ChurnSource>,
) -> ScenarioLog {
    let epoch = fabric.epoch_duration();
    let mut timeline = Vec::new();
    for &(link, fail, repair) in cuts {
        timeline.push((epoch * fail as f64, EventKind::LinkFailure { link }));
        if let Some(repair) = repair {
            timeline.push((epoch * repair as f64, EventKind::LinkRecovery { link }));
        }
    }
    Engine::new(
        SdnConsumer::new(fabric, 1, true),
        epoch * epochs as f64,
        epoch,
        Some((epoch * 1.5, epoch)),
        timeline,
        churn,
        None,
    )
    .run("failure_injection", 1)
}

/// The record of the measurement epoch closing at `k` epoch lengths.
fn epoch_record(log: &ScenarioLog, k: usize) -> &EventRecord {
    log.records
        .iter()
        .filter(|r| r.what.starts_with("epoch"))
        .nth(k - 1)
        .expect("the run covers epoch k")
}

fn duplex(topo: &Topology, a: &str, b: &str) -> LinkId {
    topo.graph()
        .find_link(topo.node(a).unwrap(), topo.node(b).unwrap())
        .unwrap()
}

#[test]
fn controller_routes_around_a_cut_within_one_cycle() {
    let mut fabric = build_fabric(11);
    let cut = duplex(fabric.topology(), "Denver", "KansasCity");
    let log = drive(build_fabric(11), 5, &[(cut, 3, None)], None);
    assert_eq!(epoch_record(&log, 2).failed_links, 0);
    assert_eq!(epoch_record(&log, 4).failed_links, 2, "the duplex pair");
    // Utility stays strictly positive throughout (no black-holing).
    for r in &log.records {
        assert!(r.utility > 0.2, "{}", r.to_line());
    }

    // What the log cannot show: the cut with the old rules falls back;
    // one re-plan later nothing falls back and nothing crosses the
    // dead link.
    fabric.fail_link(cut);
    assert!(fabric.peek().fallback_count > 0);
    let tm = fabric.true_tm().clone();
    let r = FubarController::default().reoptimize(&fabric, &tm, None);
    fabric.install(r.rules);
    let after = fabric.peek();
    assert_eq!(after.fallback_count, 0);
    assert_eq!(
        after.outcome.link_load[cut.index()],
        Bandwidth::ZERO,
        "no traffic on the failed link after reoptimization"
    );
}

#[test]
fn double_failure_still_converges() {
    let fabric = build_fabric(13);
    let cut1 = duplex(fabric.topology(), "Denver", "KansasCity");
    let cut2 = duplex(fabric.topology(), "Chicago", "NewYork");
    let log = drive(fabric, 9, &[(cut1, 2, Some(8)), (cut2, 4, Some(8))], None);
    assert_eq!(
        epoch_record(&log, 5).failed_links,
        4,
        "two duplex pairs down"
    );
    assert_eq!(epoch_record(&log, 9).failed_links, 0, "both repaired");
    // After both repairs and a reoptimization, utility returns to the
    // healthy neighbourhood.
    let healthy = epoch_record(&log, 1).utility;
    let recovered = epoch_record(&log, 9).utility;
    assert!(
        recovered > healthy * 0.9,
        "recovery: healthy {healthy}, recovered {recovered}"
    );
}

#[test]
fn noise_and_drift_do_not_break_the_loop() {
    // Drift: every aggregate's population wanders under seeded churn.
    let churn = ChurnSource::new(
        23,
        Some(ArrivalSpec {
            rate: 0.2,
            max_flows: 16,
        }),
        Some(DepartureSpec { probability: 0.2 }),
        None,
    );
    let log = drive(build_fabric(17), 12, &[], Some(churn));
    assert!(log.records.iter().any(|r| r.what.starts_with("arrive")));
    assert!(log.records.iter().any(|r| r.what.starts_with("depart")));
    for r in &log.records {
        assert!((0.0..=1.0).contains(&r.utility), "{}", r.to_line());
    }
    // The controller should still, on average, beat the boot state.
    let mean = |ks: [usize; 3]| {
        ks.iter()
            .map(|&k| epoch_record(&log, k).utility)
            .sum::<f64>()
            / 3.0
    };
    let (early, late) = (mean([1, 2, 3]), mean([10, 11, 12]));
    assert!(
        late >= early - 0.05,
        "control under drift must not regress badly: early {early}, late {late}"
    );

    // Noise acts in the estimator: plan from very noisy counters, and
    // the installed rules must still not lose to the boot state.
    let mut fabric = build_fabric(17);
    let mut estimator = Estimator::new(
        fabric.true_tm().len(),
        MeasurementConfig {
            noise_rel_std: 0.15,
            ..Default::default()
        },
        23,
    );
    let mut boot = 0.0;
    for _ in 0..3 {
        boot = fabric.run_epoch().report.network_utility;
        estimator.observe(fabric.counters(), fabric.epoch_duration());
    }
    let estimated = estimator.estimated_matrix(fabric.true_tm());
    let r = FubarController::default().reoptimize(&fabric, &estimated, None);
    fabric.install(r.rules);
    let installed = fabric.peek().report.network_utility;
    assert!(
        installed >= boot - 0.05,
        "noisy control must not regress badly: boot {boot}, installed {installed}"
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
    let middle = duplex(&topo, "n1", "n2");
    let fabric = Fabric::new(topo, tm, Delay::from_secs(10.0));
    let log = drive(fabric, 6, &[(middle, 2, Some(5))], None);
    let before = epoch_record(&log, 1).utility;
    let during = epoch_record(&log, 3).utility;
    let after = epoch_record(&log, 6).utility;
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
    let cut_a = duplex(&topo, "n5", "n0");
    let cut_b = duplex(&topo, "n0", "n1");
    let fabric = Fabric::new(topo, tm, Delay::from_secs(10.0));
    let log = drive(fabric, 8, &[(cut_a, 2, Some(6)), (cut_b, 2, Some(6))], None);
    for r in &log.records {
        assert!(
            r.utility.is_finite(),
            "total partition must never produce NaN/inf utility: {}",
            r.to_line()
        );
    }
    assert_eq!(
        epoch_record(&log, 3).failed_links,
        4,
        "both duplex pairs down"
    );
    let before = epoch_record(&log, 1).utility;
    let during = epoch_record(&log, 4).utility;
    let after = epoch_record(&log, 8).utility;
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
