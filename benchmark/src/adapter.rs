//! The only file that calls into the crates under test.
//!
//! Two surfaces: the four pipeline steps of an end-to-end iteration
//! (`parse` → `build` → `run` → `render`, the plainest public entry
//! points, the same ones `fubar-cli scenario run` uses), and
//! [`replay_layers`], which calls each layer's public functions one by
//! one under harness spans. A later API collapse in the crates is a fix
//! to this file and nothing else.

use crate::span::Tracer;
use crate::stats::SplitMix64;
use fubar_core::optimizer::test_support::ScoringHarness;
use fubar_core::{pathgen, shard, Allocation, Optimizer, OptimizerConfig, PathPolicy};
use fubar_graph::{LinkId, LinkSet};
use fubar_model::{utility_report, FlowModel, ParallelWorkspace};
use fubar_scenario::{
    driver, Action, Engine, RunStats, Scenario, ScenarioLog, SdnConsumer, TopologySpec,
};
use fubar_sdn::{Estimator, Fabric, FubarController, MeasurementConfig, RuleSet};
use fubar_topology::{generators, Topology};
use fubar_traffic::{workload, AggregateId, TrafficMatrix, WorkloadConfig};
use std::hint::black_box;
use std::path::Path;

/// A parsed workload spec.
pub struct Spec(Scenario);

impl Spec {
    /// The seed written in the `.scn` file.
    pub fn seed(&self) -> u64 {
        self.0.seed
    }
}

/// A built engine, ready to run.
pub struct Built(Engine<SdnConsumer>);

/// A finished run: the log, the program's own timing percentiles, and
/// the consumer (for its fill counters).
pub struct Ran {
    log: ScenarioLog,
    stats: RunStats,
    consumer: SdnConsumer,
}

/// What the harness reads off a finished run.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub events: u64,
    pub reopts: u64,
    pub commits: u64,
    /// Total component fills over all re-optimizations.
    pub fills: u64,
    pub mean_epoch_utility: f64,
    /// Every record's utility is finite and inside `[0, 1]`.
    pub utilities_valid: bool,
    pub reopt_samples: usize,
    pub reopt_p50_s: f64,
    pub reopt_max_s: f64,
    pub measure_samples: usize,
    pub measure_p50_s: f64,
    pub measure_p99_s: f64,
}

pub fn read_spec(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn parse(text: &str) -> Result<Spec, String> {
    Scenario::parse(text).map(Spec).map_err(|e| e.to_string())
}

pub fn build(spec: &Spec, seed: u64) -> Result<Built, String> {
    driver::build(&spec.0, seed)
        .map(Built)
        .map_err(|e| e.to_string())
}

pub fn run(built: Built, spec: &Spec, seed: u64) -> Ran {
    let (log, stats, consumer) = built.0.run_instrumented(&spec.0.name, seed);
    Ran {
        log,
        stats,
        consumer,
    }
}

pub fn render(ran: &Ran) -> String {
    ran.log.to_text()
}

pub fn summarize(ran: &Ran) -> Summary {
    let reopt = ran.stats.reoptimize();
    let measure = ran.stats.measurement();
    Summary {
        events: ran.log.records.len() as u64,
        reopts: ran.log.reoptimizations() as u64,
        commits: ran.log.total_commits() as u64,
        fills: ran
            .consumer
            .shard_stats()
            .iter()
            .map(|s| s.scratch.fills as u64)
            .sum(),
        mean_epoch_utility: ran.log.mean_epoch_utility(),
        utilities_valid: ran
            .log
            .records
            .iter()
            .all(|r| r.utility.is_finite() && (0.0..=1.0).contains(&r.utility)),
        reopt_samples: reopt.count,
        reopt_p50_s: reopt.p50,
        reopt_max_s: reopt.max,
        measure_samples: measure.count,
        measure_p50_s: measure.p50,
        measure_p99_s: measure.p99,
    }
}

/// Calls per sampled probe.
const K: usize = 256;
/// Full-recompute probes (`Fabric::peek_full`) and scoring sweeps.
const FULL_PROBES: usize = 8;

/// The topology a spec names, built the way `driver::build` builds it.
fn build_topology(spec: &TopologySpec) -> Result<Topology, String> {
    Ok(match spec {
        TopologySpec::He { capacity } => generators::he_core(*capacity),
        TopologySpec::Abilene { capacity } => generators::abilene(*capacity),
        TopologySpec::Ring {
            nodes,
            capacity,
            hop_delay,
        } => generators::ring(*nodes, *capacity, *hop_delay),
        TopologySpec::Hypergrowth { capacity } => generators::hypergrowth(8, 8, *capacity),
        TopologySpec::Planetary { capacity } => generators::planetary(16, 16, *capacity),
        TopologySpec::File { path } => {
            driver::load_file_topology(path, None).map_err(|e| e.to_string())?
        }
    })
}

/// The generator settings `driver::inputs` derives from a spec.
fn workload_config(s: &Scenario) -> WorkloadConfig {
    WorkloadConfig {
        include_intra_pop: s.workload.intra_pop,
        intra_region_only: s.workload.intra_region_only,
        flow_count: s.workload.flows,
        large_probability: s.workload.large_probability,
        large_flow_count: (
            s.workload.flows.0,
            s.workload.flows.1.max(s.workload.flows.0 + 1),
        ),
        ..WorkloadConfig::default()
    }
}

/// Applies every `surge` line of the spec to the fabric (the same
/// rounding as the scenario consumer), so instances that are only
/// congested mid-run are probed congested.
fn apply_surges(fabric: &mut Fabric, s: &Scenario) -> Result<(), String> {
    for e in &s.timeline {
        let Action::Surge { src, dst, factor } = &e.action else {
            continue;
        };
        let topo = fabric.topology();
        let a = topo.node(src).map_err(|e| e.to_string())?;
        let b = topo.node(dst).map_err(|e| e.to_string())?;
        let ids: Vec<AggregateId> = fabric.true_tm().for_pair(a, b).to_vec();
        for id in ids {
            let target = (f64::from(fabric.flow_count(id)) * factor).round() as u32;
            fabric.set_flow_count(id, target.max(1));
        }
    }
    Ok(())
}

/// Runs `f` once per item of `items` as leaf spans under a phase span
/// and returns the mean call time in seconds (0 for no items).
fn timed_each<I>(
    tracer: &mut Tracer,
    phase: &'static str,
    call: &'static str,
    items: &[I],
    mut f: impl FnMut(&I),
) -> f64 {
    let id = tracer.enter(phase);
    let mut total = 0.0;
    for item in items {
        total += tracer.call(call, || f(item)).1;
    }
    tracer.exit(id);
    if items.is_empty() {
        0.0
    } else {
        total / items.len() as f64
    }
}

/// Total component fills of one optimizer run.
fn fills_of(result: &fubar_core::OptimizeResult) -> u64 {
    if result.shards.is_empty() {
        result.scratch.fills as u64
    } else {
        result.shards.iter().map(|s| s.scratch.fills as u64).sum()
    }
}

/// The traced pipeline run: the same four steps as an end-to-end
/// iteration, each under its own span. Returns the metrics plus the
/// rendered log and summary so the caller can check them against the
/// untraced run.
pub fn replay_pipeline(
    tracer: &mut Tracer,
    text: &str,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(String, Summary), String> {
    let texts = vec![text; K];
    let parse_s = timed_each(tracer, "scenario.parse", "Scenario::parse", &texts, |t| {
        black_box(Scenario::parse(t).is_ok());
    });
    out.push(("scenario.parse_us", parse_s * 1e6));

    let spec = parse(text)?;
    let seed = spec.seed();
    let (built, build_s) = tracer.call("driver::build", || build(&spec, seed));
    let built = built?;
    out.push(("scenario.build_s", build_s));
    let (ran, run_s) = tracer.call("Engine::run_instrumented", || run(built, &spec, seed));
    out.push(("scenario.run_s", run_s));
    let (log_text, render_s) = tracer.call("ScenarioLog::to_text", || render(&ran));
    out.push(("scenario.log_render_us", render_s * 1e6));

    let summary = summarize(&ran);
    out.push(("scenario.events", summary.events as f64));
    out.push(("scenario.reopts", summary.reopts as f64));
    out.push(("scenario.commits", summary.commits as f64));
    out.push(("scenario.fills", summary.fills as f64));
    out.push(("scenario.measure_p99_us", summary.measure_p99_s * 1e6));
    Ok((log_text, summary))
}

/// The layer replay: every layer's public functions, called directly on
/// the workload's inputs. Core, model and graph probes run on the
/// *stressed* matrix (boot matrix plus every `surge` line of the spec).
/// `sample_seed` picks which aggregates and links the sampled probes
/// touch; `workers` is the parallel-fill worker count.
pub fn replay_layers(
    tracer: &mut Tracer,
    spec: &Spec,
    sample_seed: u64,
    workers: usize,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<(), String> {
    let s = &spec.0;
    let seed = spec.seed();
    let mut rng = SplitMix64::new(sample_seed);

    // topology, traffic
    let (topo, topo_s) = tracer.call("topology generator", || build_topology(&s.topology));
    let topo = topo?;
    out.push(("topology.build_ms", topo_s * 1e3));
    out.push(("topology.nodes", topo.node_count() as f64));
    out.push(("topology.links", topo.link_count() as f64));

    let cfg = workload_config(s);
    let (mut boot, gen_s) = tracer.call("workload::generate", || {
        workload::generate(&topo, &cfg, seed)
    });
    if let Some(w) = s.large_priority {
        boot = boot.with_large_priority(w);
    }
    out.push(("traffic.generate_ms", gen_s * 1e3));
    out.push(("traffic.aggregates", boot.len() as f64));
    // The replica of `driver::inputs` above must not drift from it.
    let (ref_topo, ref_tm) = driver::inputs(s, seed).map_err(|e| e.to_string())?;
    if ref_topo.link_count() != topo.link_count()
        || ref_tm.len() != boot.len()
        || ref_tm.total_flows() != boot.total_flows()
    {
        return Err("layer replay inputs differ from driver::inputs".to_string());
    }

    // O(instance) fabric probes get fewer calls on large instances.
    let k_fabric = (4_194_304 / boot.len().max(1)).clamp(16, K);

    // sdn: boot fabric, then stress it
    let owned = (topo.clone(), boot.clone());
    let (mut fabric, fabric_s) =
        tracer.call("Fabric::new", || Fabric::new(owned.0, owned.1, s.epoch));
    out.push(("sdn.fabric_new_ms", fabric_s * 1e3));
    apply_surges(&mut fabric, s)?;
    let tm: TrafficMatrix = fabric.true_tm().clone();

    // graph
    let routed: Vec<AggregateId> = tm
        .iter()
        .filter(|a| !a.is_intra_pop())
        .map(|a| a.id)
        .collect();
    let pairs: Vec<AggregateId> = rng
        .sample_indices(routed.len(), K)
        .into_iter()
        .map(|i| routed[i])
        .collect();
    let g = topo.graph();
    let none = LinkSet::new();
    let sp_s = timed_each(
        tracer,
        "graph.shortest_path",
        "DiGraph::shortest_path",
        &pairs,
        |&id| {
            let a = tm.aggregate(id);
            black_box(g.shortest_path(a.ingress, a.egress, &none));
        },
    );
    out.push(("graph.shortest_path_us", sp_s * 1e6));

    // core + model on the boot allocation
    let (alloc, alloc_s) = tracer.call("Allocation::all_on_shortest_paths", || {
        Allocation::all_on_shortest_paths(&topo, &tm)
    });
    out.push(("core.initial_alloc_ms", alloc_s * 1e3));
    let ((bundles, _spans), bundles_s) = tracer.call("Allocation::bundles_with_spans", || {
        alloc.bundles_with_spans(&tm)
    });
    out.push(("core.bundles_ms", bundles_s * 1e3));
    out.push(("core.bundle_count", bundles.len() as f64));

    let model = FlowModel::with_defaults(&topo);
    let (eval, fill_s) = tracer.call("FlowModel::evaluate_traced", || {
        model.evaluate_traced(&bundles)
    });
    out.push(("model.fill_full_ms", fill_s * 1e3));
    out.push(("model.congested_links", eval.outcome.congested.len() as f64));
    let mut pw = ParallelWorkspace::new(workers);
    let (par, par_s) = tracer.call("FlowModel::evaluate_traced_parallel", || {
        model.evaluate_traced_parallel(&bundles, &mut pw)
    });
    if par.outcome.bitwise_mismatch(&eval.outcome).is_some() {
        return Err("parallel fill differs from serial fill".to_string());
    }
    out.push(("model.fill_parallel_ms", par_s * 1e3));
    let (report, report_s) = tracer.call("utility_report", || {
        utility_report(&tm, &bundles, &eval.outcome)
    });
    black_box(report.network_utility);
    out.push(("model.report_ms", report_s * 1e3));

    // utility: one batch span over every bundle (a span per call would
    // time the clock, not a ~10 ns evaluation).
    let (sum, eval_s) = tracer.call("UtilityFunction::eval", || {
        bundles
            .iter()
            .map(|b| {
                tm.aggregate(b.aggregate)
                    .utility
                    .eval(b.per_flow_demand * 0.5, b.path_delay)
            })
            .sum::<f64>()
    });
    black_box(sum);
    out.push((
        "utility.eval_ns",
        eval_s * 1e9 / bundles.len().max(1) as f64,
    ));

    // graph + core path generation against the congested link set
    let congested: LinkSet = eval.outcome.congested.iter().copied().collect();
    let excl_s = timed_each(
        tracer,
        "graph.shortest_path_excl",
        "DiGraph::shortest_path",
        &pairs,
        |&id| {
            let a = tm.aggregate(id);
            black_box(g.shortest_path(a.ingress, a.egress, &congested));
        },
    );
    out.push(("graph.shortest_path_excl_us", excl_s * 1e6));

    let crossing: Vec<AggregateId> = match eval.outcome.congested.first() {
        Some(&worst) => {
            let over = alloc.flow_paths_over(&tm, worst);
            rng.sample_indices(over.len(), K)
                .into_iter()
                .map(|i| over[i].0)
                .collect()
        }
        None => Vec::new(),
    };
    let pathgen_s = timed_each(
        tracer,
        "core.pathgen",
        "pathgen::alternatives",
        &crossing,
        |&id| {
            black_box(pathgen::alternatives(
                &topo,
                tm.aggregate(id),
                &alloc,
                &eval.outcome,
                PathPolicy::ThreePaths,
                &none,
            ));
        },
    );
    out.push(("core.pathgen_us", pathgen_s * 1e6));

    let shard_count = shard::region_count(&topo).clamp(1, 16);
    let (partition, partition_s) = tracer.call("RegionPartition::new", || {
        shard::RegionPartition::new(&topo, &tm, shard_count)
    });
    black_box(partition.shard_count());
    out.push(("core.partition_ms", partition_s * 1e3));

    // core: per-candidate scoring (needs a congested boot state)
    let (candidates, score_s) = if eval.outcome.congested.is_empty() {
        (0, 0.0)
    } else {
        let harness = ScoringHarness::new(&topo, &tm);
        black_box(harness.score_all()); // warm the scratch buffers
        let sweeps = [(); FULL_PROBES];
        let sweep_s = timed_each(
            tracer,
            "core.score",
            "ScoringHarness::score_all",
            &sweeps,
            |_| {
                black_box(harness.score_all());
            },
        );
        let n = harness.candidate_count();
        (n, sweep_s / n as f64)
    };
    out.push(("core.score_us_per_candidate", score_s * 1e6));
    out.push(("core.candidates", candidates as f64));

    // core: whole optimizer runs, program defaults
    let optimizer = Optimizer::new(&topo, &tm, OptimizerConfig::default());
    let (cold, cold_s) = tracer.call("Optimizer::run", || optimizer.run());
    let cold_fills = fills_of(&cold);
    out.push(("core.optimize_cold_s", cold_s));
    out.push(("core.cold_commits", cold.commits as f64));
    out.push(("core.cold_fills", cold_fills as f64));
    out.push(("core.us_per_fill", cold_s * 1e6 / cold_fills.max(1) as f64));
    out.push((
        "core.ms_per_commit",
        cold_s * 1e3 / cold.commits.max(1) as f64,
    ));
    out.push(("core.peak_component", cold.scratch.peak_component as f64));
    let (warm, warm_s) = tracer.call("Optimizer::run_from", || {
        optimizer.run_from(&cold.allocation)
    });
    black_box(warm.commits);
    out.push(("core.optimize_warm_noop_s", warm_s));

    // sdn: what the controller adds around the optimizer
    let (rules, rules_s) = tracer.call("RuleSet::from_allocation", || {
        RuleSet::from_allocation(&cold.allocation, &tm)
    });
    out.push(("sdn.rules_ms", rules_s * 1e3));
    let (view, view_s) = tracer.call("Fabric::topology_view", || fabric.topology_view());
    black_box(view.link_count());
    out.push(("sdn.topology_view_ms", view_s * 1e3));
    let controller = FubarController::default();
    let (reopt, reopt_s) = tracer.call("FubarController::reoptimize", || {
        controller.reoptimize(&fabric, &tm, None)
    });
    if reopt.commits != cold.commits {
        return Err(format!(
            "controller cold start committed {} moves, optimizer probe {}",
            reopt.commits, cold.commits
        ));
    }
    out.push(("sdn.reoptimize_cold_s", reopt_s));
    out.push((
        "sdn.reoptimize_accounted_share",
        (view_s + cold_s + rules_s) / reopt_s,
    ));

    // sdn: fabric measurement paths
    let (_, install_s) = tracer.call("Fabric::install + peek", || {
        fabric.install(rules);
        black_box(fabric.peek().report.network_utility);
    });
    out.push(("sdn.install_peek_ms", install_s * 1e3));

    let all: Vec<AggregateId> = tm.ids().collect();
    let churned: Vec<AggregateId> = rng
        .sample_indices(all.len(), k_fabric)
        .into_iter()
        .map(|i| all[i])
        .collect();
    let churn_s = timed_each(
        tracer,
        "sdn.peek_churn",
        "Fabric::set_flow_count + peek",
        &churned,
        |&id| {
            let now = fabric.flow_count(id);
            fabric.set_flow_count(id, now + 1);
            black_box(fabric.peek().report.network_utility);
        },
    );
    out.push(("sdn.peek_churn_us", churn_s * 1e6));

    let duplex: Vec<LinkId> = topo
        .links()
        .filter(|&l| topo.reverse_of(l).is_some_and(|r| r.index() > l.index()))
        .collect();
    let struck: Vec<LinkId> = if duplex.len() <= k_fabric {
        duplex
    } else {
        rng.sample_indices(duplex.len(), k_fabric)
            .into_iter()
            .map(|i| duplex[i])
            .collect()
    };
    let strike = tracer.enter("sdn.peek_fail");
    let mut fail_total = 0.0;
    for &link in &struck {
        fail_total += tracer
            .call("Fabric::fail_link + peek", || {
                fabric.fail_link(link);
                black_box(fabric.peek().report.network_utility);
            })
            .1;
        fail_total += tracer
            .call("Fabric::repair_link + peek", || {
                fabric.repair_link(link);
                black_box(fabric.peek().report.network_utility);
            })
            .1;
    }
    tracer.exit(strike);
    out.push((
        "sdn.peek_fail_us",
        fail_total * 1e6 / (2 * struck.len()).max(1) as f64,
    ));

    let probes = [(); FULL_PROBES];
    let full_s = timed_each(
        tracer,
        "sdn.peek_full",
        "Fabric::peek_full",
        &probes,
        |_| {
            black_box(fabric.peek_full().report.network_utility);
        },
    );
    out.push(("sdn.peek_full_us", full_s * 1e6));

    let mut estimator = Estimator::new(tm.len(), MeasurementConfig::default(), seed ^ 0x5eed);
    let epochs = vec![(); k_fabric];
    let epoch_s = timed_each(
        tracer,
        "sdn.epoch",
        "Fabric::run_epoch + Estimator::observe",
        &epochs,
        |_| {
            black_box(fabric.run_epoch().report.network_utility);
            estimator.observe(fabric.counters(), fabric.epoch_duration());
        },
    );
    out.push(("sdn.epoch_us", epoch_s * 1e6));
    let (estimated, estimate_s) = tracer.call("Estimator::estimated_matrix", || {
        estimator.estimated_matrix(fabric.true_tm())
    });
    black_box(estimated.len());
    out.push(("sdn.estimate_ms", estimate_s * 1e3));
    Ok(())
}
