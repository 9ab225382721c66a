//! Cross-crate integration: serialization round trips feeding the
//! optimizer, rule-set installation, and the public prelude surface.

use fubar::prelude::*;
use fubar::topology::{format, generators};
use fubar::traffic::workload;

#[test]
fn topology_survives_text_round_trip_through_the_optimizer() {
    let topo = generators::abilene(Bandwidth::from_mbps(3.0));
    let text = format::serialize(&topo);
    let back = format::parse(&text).expect("serialized topology parses");
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: false,
            flow_count: (3, 6),
            ..Default::default()
        },
        5,
    );
    let a = Optimizer::with_defaults(&topo, &tm).run();
    let b = Optimizer::with_defaults(&back, &tm).run();
    assert!(
        (a.report.network_utility - b.report.network_utility).abs() < 1e-12,
        "identical topologies must optimize identically"
    );
    assert_eq!(a.commits, b.commits);
}

#[test]
fn rules_round_trip_through_the_fabric() {
    let topo = generators::abilene(Bandwidth::from_mbps(3.0));
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: false,
            flow_count: (2, 6),
            ..Default::default()
        },
        9,
    );
    let result = Optimizer::with_defaults(&topo, &tm).run();
    let rules = RuleSet::from_allocation(&result.allocation, &tm);

    let mut fabric = Fabric::new(topo, tm.clone(), Delay::from_secs(10.0));
    fabric.install(rules);
    let epoch = fabric.run_epoch();
    // With ground-truth traffic equal to what the optimizer planned for,
    // the fabric must reproduce the optimizer's predicted utility.
    assert!(
        (epoch.report.network_utility - result.report.network_utility).abs() < 1e-9,
        "fabric {} vs optimizer {}",
        epoch.report.network_utility,
        result.report.network_utility
    );
}

#[test]
fn flow_conservation_holds_across_the_whole_pipeline() {
    let topo = generators::grid(3, 3, Bandwidth::from_mbps(1.0), Delay::from_ms(1.0));
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: false,
            flow_count: (2, 5),
            ..Default::default()
        },
        17,
    );
    let result = Optimizer::with_defaults(&topo, &tm).run();
    result.allocation.validate(&tm).unwrap();
    let bundles = result.allocation.bundles(&tm);
    // Every aggregate's flows exactly covered.
    let mut per_agg = vec![0u32; tm.len()];
    for b in &bundles {
        per_agg[b.aggregate.index()] += b.flow_count;
    }
    for a in tm.iter() {
        assert_eq!(per_agg[a.id.index()], a.flow_count);
    }
    // And the model never exceeds capacity.
    let out = FlowModel::with_defaults(&topo).evaluate(&bundles);
    for l in topo.links() {
        assert!(out.link_load[l.index()].bps() <= topo.capacity(l).bps() + 1e-3);
    }
}

#[test]
fn prelude_surface_is_usable() {
    // Compile-time check that the prelude exposes what examples need.
    let _cfg = OptimizerConfig::default();
    let _policy = PathPolicy::ThreePaths;
    let _obj = Objective::NetworkUtility;
    let _wc = WorkloadConfig::default();
    let _fc = FubarController::default();
    let _b = Bandwidth::from_mbps(1.0);
    let _d = Delay::from_ms(1.0);
}
