//! The benchmark's vocabulary: workloads and metric names, units and
//! directions. `BENCHMARK.json` at the repo root carries the same
//! tables plus the regression bounds; a self-test keeps the two in step.

/// The workloads, each a `.scn` file under `benchmark/workloads/`.
pub const WORKLOADS: [&str; 4] = [
    "churn_he961",
    "failover_nren",
    "planetary_surge",
    "regional_deep",
];

/// End-to-end metrics: `(name, unit, better)`. Every workload emits
/// every one of them on an untraced run.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("run_wall_s", "s", "lower"),
    ("reopt_p50_s", "s", "lower"),
    ("reopt_max_s", "s", "lower"),
    ("measure_p50_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("mean_epoch_utility", "fraction", "higher"),
];

/// Per-layer metrics of the traced layer replay: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 49] = [
    ("scenario.parse_us", "us", "lower"),
    ("scenario.build_s", "s", "lower"),
    ("scenario.run_s", "s", "lower"),
    ("scenario.log_render_us", "us", "lower"),
    ("scenario.events", "count", "lower"),
    ("scenario.reopts", "count", "lower"),
    ("scenario.commits", "count", "lower"),
    ("scenario.fills", "count", "lower"),
    ("trace_overhead_pct", "%", "lower"),
    ("topology.build_ms", "ms", "lower"),
    ("topology.nodes", "count", "lower"),
    ("topology.links", "count", "lower"),
    ("traffic.generate_ms", "ms", "lower"),
    ("traffic.aggregates", "count", "lower"),
    ("graph.shortest_path_us", "us", "lower"),
    ("graph.shortest_path_excl_us", "us", "lower"),
    ("utility.eval_ns", "ns", "lower"),
    ("core.initial_alloc_ms", "ms", "lower"),
    ("core.bundles_ms", "ms", "lower"),
    ("core.bundle_count", "count", "lower"),
    ("core.pathgen_us", "us", "lower"),
    ("core.score_us_per_candidate", "us", "lower"),
    ("core.candidates", "count", "lower"),
    ("core.optimize_cold_s", "s", "lower"),
    ("core.cold_commits", "count", "lower"),
    ("core.cold_fills", "count", "lower"),
    ("core.us_per_fill", "us", "lower"),
    ("core.ms_per_commit", "ms", "lower"),
    ("core.peak_component", "count", "lower"),
    ("core.optimize_warm_noop_s", "s", "lower"),
    ("core.partition_ms", "ms", "lower"),
    ("model.fill_full_ms", "ms", "lower"),
    ("model.congested_links", "count", "lower"),
    ("model.fill_parallel_ms", "ms", "lower"),
    ("model.report_ms", "ms", "lower"),
    ("sdn.fabric_new_ms", "ms", "lower"),
    ("sdn.rules_ms", "ms", "lower"),
    ("sdn.topology_view_ms", "ms", "lower"),
    ("sdn.install_peek_ms", "ms", "lower"),
    ("sdn.peek_churn_us", "us", "lower"),
    ("sdn.peek_fail_us", "us", "lower"),
    ("sdn.peek_full_us", "us", "lower"),
    ("sdn.epoch_us", "us", "lower"),
    ("sdn.estimate_ms", "ms", "lower"),
    ("sdn.reoptimize_cold_s", "s", "lower"),
    ("sdn.reoptimize_accounted_share", "fraction", "higher"),
    // Harness self time: what the replay's own bookkeeping (sampling,
    // cloning inputs, span records) cost beside the calls it timed.
    ("harness.self_s", "s", "lower"),
    // The per-event p99 has enough samples only on `churn_he961`, so it
    // is reported here, unbounded, rather than gated end to end.
    ("scenario.measure_p99_us", "us", "lower"),
    ("nproc", "count", "higher"),
];
