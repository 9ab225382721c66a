//! Criterion benchmarks for the scenario engine's warm-start claim: when
//! the network perturbs slightly (drift, a surge, one failure), seeding
//! the optimizer from the previous allocation (`Optimizer::run_from`)
//! must beat a from-scratch run (`Optimizer::run`) — that is what makes
//! per-event re-optimization affordable.
//!
//! Run with `cargo bench --bench scenario`. Expected shape: warm-start
//! numbers a small fraction of their cold counterparts (the scenario
//! property tests assert the commit counts; this file measures time).

use criterion::{criterion_group, criterion_main, Criterion};
use fubar_core::{Allocation, Optimizer};
use fubar_scenario::{catalog, RunOptions};
use fubar_topology::{generators, Bandwidth, Topology};
use fubar_traffic::{workload, AggregateId, TrafficMatrix, WorkloadConfig};

/// The flash-crowd benchmark instance: a converged Abilene allocation
/// and the perturbed matrix after an 8x surge on one aggregate.
fn perturbed_abilene() -> (Topology, TrafficMatrix, TrafficMatrix, Allocation) {
    let topo = generators::abilene(Bandwidth::from_mbps(3.0));
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: false,
            flow_count: (2, 6),
            ..Default::default()
        },
        7,
    );
    let converged = Optimizer::with_defaults(&topo, &tm).run().allocation;
    let mut surged = tm.clone();
    let victim = AggregateId(0);
    surged.set_flow_count(victim, surged.aggregate(victim).flow_count * 8);
    (topo, tm, surged, converged)
}

fn bench_cold_vs_warm_after_surge(c: &mut Criterion) {
    let (topo, _, surged, converged) = perturbed_abilene();
    let mut g = c.benchmark_group("scenario_reopt_surge");
    g.sample_size(10);
    g.bench_function("cold_start", |b| {
        b.iter(|| Optimizer::with_defaults(&topo, &surged).run())
    });
    g.bench_function("warm_start", |b| {
        b.iter(|| Optimizer::with_defaults(&topo, &surged).run_from(&converged))
    });
    g.finish();
}

fn bench_cold_vs_warm_unchanged(c: &mut Criterion) {
    // The no-op case: nothing changed since the last run. Warm start
    // should terminate almost immediately; cold start repeats the whole
    // climb.
    let (topo, tm, _, converged) = perturbed_abilene();
    let mut g = c.benchmark_group("scenario_reopt_unchanged");
    g.sample_size(10);
    g.bench_function("cold_start", |b| {
        b.iter(|| Optimizer::with_defaults(&topo, &tm).run())
    });
    g.bench_function("warm_start", |b| {
        b.iter(|| Optimizer::with_defaults(&topo, &tm).run_from(&converged))
    });
    g.finish();
}

fn bench_catalog_end_to_end(c: &mut Criterion) {
    // A whole catalog scenario, horizon-capped: the engine's fixed costs
    // (queue, churn sampling, per-event model evaluations) plus its
    // re-optimizations.
    let mut spec = catalog::load("cascading_failure").expect("bundled scenario");
    spec.duration = fubar_topology::Delay::from_secs(80.0);
    let mut g = c.benchmark_group("scenario_engine");
    g.sample_size(10);
    g.bench_function("cascading_failure_80s", |b| {
        b.iter(|| fubar_scenario::run(&spec, 13, &RunOptions::default()).expect("scenario runs"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cold_vs_warm_after_surge,
    bench_cold_vs_warm_unchanged,
    bench_catalog_end_to_end
);
criterion_main!(benches);
