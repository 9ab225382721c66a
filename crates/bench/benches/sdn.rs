//! Criterion benchmarks for the SDN substrate: per-epoch data-plane
//! cost, measurement pipeline, and rule installation.

use criterion::{criterion_group, criterion_main, Criterion};
use fubar_core::Allocation;
use fubar_sdn::{Estimator, Fabric, MeasurementConfig, RuleSet};
use fubar_topology::{generators, Bandwidth, Delay};
use fubar_traffic::{workload, AggregateId, WorkloadConfig};

fn he_fabric() -> Fabric {
    let topo = generators::he_core(Bandwidth::from_mbps(100.0));
    let tm = workload::generate(&topo, &WorkloadConfig::default(), 1);
    Fabric::new(topo, tm, Delay::from_secs(30.0))
}

fn bench_epoch(c: &mut Criterion) {
    let mut fabric = he_fabric();
    c.bench_function("fabric_epoch_he_961_aggregates", |b| {
        b.iter(|| fabric.run_epoch().report.network_utility)
    });
}

/// The headline comparison for incremental measurement: a full
/// recompute of the 961-aggregate HE fabric versus an incremental
/// `peek` after a single-aggregate churn event (the common case in
/// event-driven scenarios). The incremental path must be ≥ 5x faster.
fn bench_peek(c: &mut Criterion) {
    let mut fabric = he_fabric();
    fabric.peek(); // warm the measurement cache

    c.bench_function("peek_full_recompute_he_961", |b| {
        b.iter(|| fabric.peek_full())
    });

    let victim = AggregateId(17);
    let base = fabric.true_tm().aggregate(victim).flow_count;
    let mut bump = false;
    c.bench_function("peek_incremental_one_churn_he_961", |b| {
        b.iter(|| {
            bump = !bump;
            fabric.set_flow_count(victim, base + u32::from(bump));
            fabric.peek().report.network_utility
        })
    });

    c.bench_function("peek_incremental_unchanged_he_961", |b| {
        b.iter(|| fabric.peek().report.network_utility)
    });
}

fn bench_estimator(c: &mut Criterion) {
    let mut fabric = he_fabric();
    fabric.run_epoch();
    let counters = fabric.counters().to_vec();
    let mut estimator = Estimator::new(counters.len(), MeasurementConfig::default(), 1);
    c.bench_function("estimator_observe_961_counters", |b| {
        b.iter(|| estimator.observe(std::hint::black_box(&counters), Delay::from_secs(30.0)))
    });
    estimator.observe(&counters, Delay::from_secs(30.0));
    let template = fabric.true_tm().clone();
    c.bench_function("estimated_matrix_961", |b| {
        b.iter(|| estimator.estimated_matrix(std::hint::black_box(&template)))
    });
}

fn bench_rule_snapshot(c: &mut Criterion) {
    let fabric = he_fabric();
    let alloc = Allocation::all_on_shortest_paths(fabric.topology(), fabric.true_tm());
    c.bench_function("ruleset_from_allocation_961", |b| {
        b.iter(|| RuleSet::from_allocation(std::hint::black_box(&alloc), fabric.true_tm()))
    });
}

criterion_group!(
    benches,
    bench_epoch,
    bench_peek,
    bench_estimator,
    bench_rule_snapshot
);
criterion_main!(benches);
