//! Property-based tests for the optimizer on random topologies and
//! workloads: the invariants of §2.5 must hold on *every* instance, not
//! just the paper's — including the incremental-scoring invariant: a
//! run with incremental candidate scoring
//! (`OptimizerConfig::incremental`, the default) must be
//! **move-for-move, bitwise identical** to the full-recompute oracle.

use fubar_core::optimizer::test_support::{memo_hits, run_with_index};
use fubar_core::{
    Allocation, Objective, OptimizeResult, Optimizer, OptimizerConfig, RegionPartition, Termination,
};
use fubar_topology::{generators, Bandwidth, Topology};
use fubar_traffic::{workload, AggregateId, TrafficMatrix, WorkloadConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Instance {
    nodes: usize,
    topo_seed: u64,
    tm_seed: u64,
    capacity_kbps: f64,
    flows: (u32, u32),
}

fn instance() -> impl Strategy<Value = Instance> {
    (
        4usize..10,
        any::<u64>(),
        any::<u64>(),
        200.0f64..3_000.0,
        (1u32..4, 4u32..9),
    )
        .prop_map(
            |(nodes, topo_seed, tm_seed, capacity_kbps, flows)| Instance {
                nodes,
                topo_seed,
                tm_seed,
                capacity_kbps,
                flows,
            },
        )
}

fn build(i: &Instance) -> (Topology, TrafficMatrix) {
    let topo = generators::waxman(
        i.nodes,
        0.7,
        0.4,
        Bandwidth::from_kbps(i.capacity_kbps),
        i.topo_seed,
    );
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: false,
            flow_count: i.flows,
            ..Default::default()
        },
        i.tm_seed,
    );
    (topo, tm)
}

fn bounded_config() -> OptimizerConfig {
    OptimizerConfig {
        max_commits: 40, // keep each case fast
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The final utility never drops below the shortest-path initial
    /// state, the trace is monotone, and flow conservation holds.
    #[test]
    fn never_worse_than_start_and_conserving(i in instance()) {
        let (topo, tm) = build(&i);
        let result = Optimizer::new(&topo, &tm, bounded_config()).run();
        let initial = result.trace.initial().unwrap().network_utility;
        prop_assert!(result.report.network_utility >= initial - 1e-12);
        prop_assert!(result.trace.is_monotone());
        prop_assert!(result.allocation.validate(&tm).is_ok());
        prop_assert!((0.0..=1.0).contains(&result.report.network_utility));
    }

    /// NoCongestion termination really means no congested links, and
    /// utilization curves meet.
    #[test]
    fn termination_reasons_are_honest(i in instance()) {
        let (topo, tm) = build(&i);
        let result = Optimizer::new(&topo, &tm, bounded_config()).run();
        match result.termination {
            Termination::NoCongestion => {
                prop_assert!(result.outcome.congested.is_empty());
                let last = result.trace.last().unwrap();
                prop_assert!((last.actual_utilization - last.demanded_utilization).abs() < 1e-6);
            }
            Termination::CommitLimit => {
                prop_assert!(result.commits >= 40);
            }
            Termination::NoImprovement => {}
        }
    }

    /// Parallel candidate evaluation is bit-identical to sequential.
    #[test]
    fn parallel_equals_sequential(i in instance()) {
        let (topo, tm) = build(&i);
        let seq = Optimizer::new(&topo, &tm, OptimizerConfig {
            threads: 1,
            ..bounded_config()
        }).run();
        let par = Optimizer::new(&topo, &tm, OptimizerConfig {
            threads: 6,
            ..bounded_config()
        }).run();
        prop_assert_eq!(seq.commits, par.commits);
        prop_assert_eq!(seq.termination, par.termination);
        prop_assert!((seq.report.network_utility - par.report.network_utility).abs() < 1e-15);
        prop_assert_eq!(seq.outcome.congested, par.outcome.congested);
    }

    /// The upper bound dominates whatever the optimizer achieves.
    #[test]
    fn upper_bound_dominates(i in instance()) {
        let (topo, tm) = build(&i);
        let ub = fubar_core::baselines::upper_bound(&topo, &tm);
        let result = Optimizer::new(&topo, &tm, bounded_config()).run();
        prop_assert!(result.report.network_utility <= ub.mean + 1e-9);
    }

    /// Raising every link's capacity never *substantially* lowers the
    /// achieved utility. Strict monotonicity holds for the optimum but
    /// NOT for the greedy search: extra capacity reorders which links
    /// congest first, which can steer Listing 1 into a marginally
    /// different local optimum (proptest found a −0.1% case). We assert
    /// the practical version: any regression stays within 2%.
    #[test]
    fn more_capacity_never_hurts_much(i in instance(), scale in 1.2f64..3.0) {
        let (topo, tm) = build(&i);
        let small = Optimizer::new(&topo, &tm, bounded_config()).run();
        let mut big_topo = topo.clone();
        big_topo.set_uniform_capacity(Bandwidth::from_kbps(i.capacity_kbps * scale));
        let big = Optimizer::new(&big_topo, &tm, bounded_config()).run();
        prop_assert!(
            big.report.network_utility >= small.report.network_utility - 0.02,
            "capacity {} -> x{scale}: utility {} -> {}",
            i.capacity_kbps, small.report.network_utility, big.report.network_utility
        );
        // The *initial* (shortest-path) utility, before any greedy
        // decisions, IS monotone: same paths, weakly better rates.
        let small0 = small.trace.initial().unwrap().network_utility;
        let big0 = big.trace.initial().unwrap().network_utility;
        prop_assert!(big0 >= small0 - 1e-9);
    }
}

// ---------------------------------------------------------------------
// Incremental candidate scoring ≡ full-recompute oracle, move for move.
// ---------------------------------------------------------------------

/// Runs the same instance in incremental and oracle scoring mode.
fn run_both(
    topo: &Topology,
    tm: &TrafficMatrix,
    cfg: OptimizerConfig,
) -> (OptimizeResult, OptimizeResult) {
    let inc_cfg = OptimizerConfig {
        incremental: true,
        ..cfg.clone()
    };
    let full_cfg = OptimizerConfig {
        incremental: false,
        ..cfg
    };
    (
        Optimizer::new(topo, tm, inc_cfg).run(),
        Optimizer::new(topo, tm, full_cfg).run(),
    )
}

/// The invariant in its strictest form: the same accept/reject history
/// (committed move sequence and termination), the same per-commit trace
/// utilities bit for bit, and the same final allocation, outcome, and
/// report bit for bit.
fn assert_runs_identical(
    name: &str,
    inc: &OptimizeResult,
    full: &OptimizeResult,
    tm: &TrafficMatrix,
) {
    assert_eq!(inc.commits, full.commits, "{name}: commit count");
    assert_eq!(inc.termination, full.termination, "{name}: termination");
    assert_eq!(inc.moves, full.moves, "{name}: committed move sequence");

    let ip = inc.trace.points();
    let fp = full.trace.points();
    assert_eq!(ip.len(), fp.len(), "{name}: trace length");
    for (i, (a, b)) in ip.iter().zip(fp).enumerate() {
        assert_eq!(
            a.network_utility.to_bits(),
            b.network_utility.to_bits(),
            "{name}: trace point {i} network utility {} vs {}",
            a.network_utility,
            b.network_utility
        );
        assert_eq!(
            a.actual_utilization.to_bits(),
            b.actual_utilization.to_bits(),
            "{name}: trace point {i} actual utilization"
        );
        assert_eq!(
            a.congested_links, b.congested_links,
            "{name}: trace point {i} congested links"
        );
        assert_eq!(
            a.congested_bundles, b.congested_bundles,
            "{name}: trace point {i} congested bundles"
        );
    }

    if let Some(field) = inc.outcome.bitwise_mismatch(&full.outcome) {
        panic!("{name}: final outcomes differ bitwise in {field}");
    }
    if let Some(field) = inc.report.bitwise_mismatch(&full.report) {
        panic!("{name}: final reports differ bitwise in {field}");
    }

    for a in tm.iter() {
        let pi = inc.allocation.path_set(a.id);
        let pf = full.allocation.path_set(a.id);
        assert_eq!(
            pi.len(),
            pf.len(),
            "{name}: aggregate {} path set size",
            a.id
        );
        for idx in 0..pi.len() {
            assert_eq!(
                pi.path(idx),
                pf.path(idx),
                "{name}: aggregate {} path {idx}",
                a.id
            );
            assert_eq!(
                inc.allocation.flows_on(a.id, idx),
                full.allocation.flows_on(a.id, idx),
                "{name}: aggregate {} flows on path {idx}",
                a.id
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whole optimization runs on random congested instances must agree
    /// between the two scoring modes.
    #[test]
    fn incremental_run_matches_oracle(i in instance()) {
        let (topo, tm) = build(&i);
        let (inc, full) = run_both(&topo, &tm, bounded_config());
        assert_runs_identical("waxman", &inc, &full, &tm);
    }

    /// Warm starts (`Optimizer::run_from`) uphold the same invariant:
    /// after a perturbation, the incremental warm run equals the oracle
    /// warm run move for move.
    #[test]
    fn warm_start_matches_oracle_after_perturbation(i in instance(), bump in 1u32..4) {
        let (topo, tm) = build(&i);
        let cold = Optimizer::new(&topo, &tm, bounded_config()).run();
        let mut tm2 = tm.clone();
        for a in tm.iter().take(3) {
            tm2.set_flow_count(a.id, a.flow_count + bump);
        }
        let inc = Optimizer::new(&topo, &tm2, OptimizerConfig {
            incremental: true,
            ..bounded_config()
        }).run_from(&cold.allocation);
        let full = Optimizer::new(&topo, &tm2, OptimizerConfig {
            incremental: false,
            ..bounded_config()
        }).run_from(&cold.allocation);
        assert_runs_identical("warm", &inc, &full, &tm2);
    }
}

/// A medium real-topology instance (110 aggregates on Abilene) with
/// enough scarcity for a long accept/reject history.
#[test]
fn incremental_run_matches_oracle_on_abilene() {
    let topo = generators::abilene(Bandwidth::from_mbps(3.0));
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: false,
            flow_count: (3, 8),
            ..Default::default()
        },
        5,
    );
    let cfg = OptimizerConfig {
        max_commits: 25,
        ..Default::default()
    };
    let (inc, full) = run_both(&topo, &tm, cfg);
    assert!(inc.commits > 0, "instance must exercise the inner loop");
    assert_runs_identical("abilene", &inc, &full, &tm);

    // Per-component passes do not depend on the scoring mode: every
    // region of this instance is an isolated congested component, so
    // both runs are passes, then the whole-instance loop.
    let (topo, tm) = isolated_regions_instance();
    let (inc, full) = run_both(&topo, &tm, OptimizerConfig::default());
    assert!(inc.commits > 0, "instance must exercise the inner loop");
    assert_runs_identical("isolated-regions", &inc, &full, &tm);
}

/// The commit cap is global: the passes' commits and the
/// whole-instance loop share one `max_commits`, at any thread count.
#[test]
fn commit_cap_spans_passes_and_the_whole_instance_loop() {
    let (topo, tm) = isolated_regions_instance();
    let run = |max_commits: usize, threads: usize| {
        let cfg = OptimizerConfig {
            max_commits,
            threads,
            ..Default::default()
        };
        Optimizer::new(&topo, &tm, cfg).run()
    };
    assert!(run(usize::MAX, 1).commits > 5, "the cap must bind");
    let one = run(5, 1);
    assert_eq!(one.commits, 5);
    assert_eq!(one.termination, Termination::CommitLimit);
    assert_eq!(run(5, 4).moves, one.moves);
}

/// `shard::tests::isolated_regions_instance`: a structurally congested
/// hypergrowth instance whose traffic never leaves its region.
fn isolated_regions_instance() -> (Topology, TrafficMatrix) {
    let topo = generators::hypergrowth(4, 4, Bandwidth::from_mbps(2.0));
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            intra_region_only: true,
            ..Default::default()
        },
        7,
    );
    (topo, tm)
}

/// The min-max objective reads the outcome's link-demand arrays rather
/// than the utility report; the equality must hold there too.
#[test]
fn incremental_run_matches_oracle_with_minmax_objective() {
    let topo = generators::ring(
        6,
        Bandwidth::from_kbps(500.0),
        fubar_topology::Delay::from_ms(2.0),
    );
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: false,
            flow_count: (2, 6),
            ..Default::default()
        },
        11,
    );
    let cfg = OptimizerConfig {
        objective: Objective::MinMaxUtilization,
        max_commits: 40,
        ..Default::default()
    };
    let (inc, full) = run_both(&topo, &tm, cfg);
    assert_runs_identical("minmax", &inc, &full, &tm);
    // The overlay merge ran: candidates were scored by delta fills, not
    // by the oracle's own path.
    assert!(inc.scratch.fills > 0, "minmax: no delta fill ran");
}

/// Tiny move fractions force the local-optimum escape ladder, where a
/// long tail of rejected candidates stresses the patched scoring.
fn escape_pressure_instance() -> (Topology, TrafficMatrix, OptimizerConfig) {
    let topo = generators::ring(
        5,
        Bandwidth::from_kbps(400.0),
        fubar_topology::Delay::from_ms(2.0),
    );
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            include_intra_pop: false,
            flow_count: (2, 6),
            ..Default::default()
        },
        3,
    );
    let cfg = OptimizerConfig {
        move_fraction: 0.05,
        max_commits: 80,
        ..Default::default()
    };
    (topo, tm, cfg)
}

#[test]
fn incremental_run_matches_oracle_under_escape_pressure() {
    let (topo, tm, cfg) = escape_pressure_instance();
    let (inc, full) = run_both(&topo, &tm, cfg);
    assert_runs_identical("escape", &inc, &full, &tm);
    assert!(inc.scratch.fills > 0, "escape: no delta fill ran");
    // The instance does what it exists for: some commit moved only part
    // of its aggregate.
    assert!(
        inc.moves
            .iter()
            .any(|m| m.count < tm.aggregate(m.aggregate).flow_count),
        "escape: every committed move took its whole aggregate"
    );
}

/// The per-incumbent score memo changes no result: where it provably
/// answers candidates — a move reached from a second congested link its
/// path crosses, a move re-gathered up the escape ladder with an
/// unchanged count — the default run still equals the oracle run, which
/// scores every candidate of every step afresh, move for move.
#[test]
fn score_memo_is_transparent() {
    let transparent = |name: &str, topo: &Topology, tm: &TrafficMatrix, cfg: OptimizerConfig| {
        let default = Optimizer::new(topo, tm, cfg.clone());
        let oracle = Optimizer::new(
            topo,
            tm,
            OptimizerConfig {
                incremental: false,
                ..cfg
            },
        );
        assert_runs_identical(name, &default.run(), &oracle.run(), tm);
        assert!(
            memo_hits(&default) >= 1,
            "{name}: the memo answered nothing"
        );
        assert_eq!(memo_hits(&oracle), 0, "{name}: the oracle read the memo");
    };

    // A generated instance whose boot state routes some aggregate over
    // two congested links: once the first link's step finds no improving
    // move, the second link's step meets that aggregate's moves again.
    // With the escape ladder off, nothing else can produce a hit.
    let (topo, tm) = build(&Instance {
        nodes: 8,
        topo_seed: 11,
        tm_seed: 5,
        capacity_kbps: 300.0,
        flows: (2, 7),
    });
    let boot = Allocation::all_on_shortest_paths(&topo, &tm);
    let congested = fubar_model::FlowModel::with_defaults(&topo)
        .evaluate(&boot.bundles(&tm))
        .congested;
    let crosses_two = tm.iter().any(|a| {
        let path = boot.path_set(a.id).path(0);
        congested.iter().filter(|&&l| path.uses_link(l)).count() >= 2
    });
    assert!(crosses_two, "no aggregate crosses two congested links");
    let no_escape = OptimizerConfig {
        escape: false,
        ..Default::default()
    };
    transparent("two-links", &topo, &tm, no_escape);

    let (topo, tm, cfg) = escape_pressure_instance();
    transparent("escape", &topo, &tm, cfg);
}

/// Per shard: commits, fills, compiled fills and scores kept.
fn kept_counters(r: &OptimizeResult) -> Vec<[usize; 4]> {
    (r.shards.iter())
        .map(|s| {
            [
                s.commits,
                s.scratch.fills,
                s.scratch.compiled_fills,
                s.scores_kept,
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// **A score outlives a commit that could not have changed it.** On
    /// planetary instances whose traffic stays inside its region, so
    /// that congestion forms several isolated bottleneck components, a
    /// commit in one component leaves the scores of moves in another
    /// standing, and they are re-derived from their kept leaves instead
    /// of re-filled. The default run still equals, move for move, the
    /// oracle, which keeps no score; the counters are exact at any
    /// thread count.
    #[test]
    fn score_memo_outlives_disjoint_commits(
        regions in 4usize..6,
        pops in 5usize..7,
        tm_seed in any::<u64>(),
        capacity_mbps in 0.2f64..0.5,
    ) {
        let topo = generators::planetary(regions, pops, Bandwidth::from_mbps(capacity_mbps));
        let tm = workload::generate(
            &topo,
            &WorkloadConfig {
                intra_region_only: true,
                flow_count: (1, 4),
                ..Default::default()
            },
            tm_seed,
        );
        let run = |threads: usize, incremental: bool| {
            let cfg = OptimizerConfig {
                threads,
                incremental,
                ..Default::default()
            };
            Optimizer::new(&topo, &tm, cfg).run()
        };
        let (default, oracle) = (run(1, true), run(2, false));
        assert_runs_identical("disjoint-commits", &default, &oracle, &tm);
        let kept = |r: &OptimizeResult| r.shards.iter().map(|s| s.scores_kept).sum::<usize>();
        prop_assert!(kept(&default) >= 1, "no score outlived a commit");
        prop_assert_eq!(kept(&oracle), 0, "the oracle kept a score");
        let two = run(2, true);
        prop_assert_eq!(&two.moves, &default.moves);
        prop_assert_eq!(kept_counters(&two), kept_counters(&default));
    }
}

// ---------------------------------------------------------------------
// Indexed gather ≡ scan — the crossing index is the loop's only
// candidate gather, so it must enumerate exactly what the full-matrix
// `Allocation::flow_paths_over` scan would, and stay exact under the
// loop's own incremental maintenance.
// ---------------------------------------------------------------------

/// Runs the instance cold and checks, on the final state: the index the
/// loop maintained commit by commit equals one rebuilt from the final
/// allocation, and for every link its entries filtered by live flow
/// count are `flow_paths_over` — same pairs, same order.
fn assert_indexed_gather_matches_scan(
    name: &str,
    topo: &Topology,
    tm: &TrafficMatrix,
    cfg: OptimizerConfig,
) -> OptimizeResult {
    let (result, [maintained, rebuilt]) = run_with_index(&Optimizer::new(topo, tm, cfg));
    assert_eq!(maintained, rebuilt, "{name}: maintained vs rebuilt index");
    for l in topo.links() {
        let via_scan = result.allocation.flow_paths_over(tm, l);
        let via_index: Vec<(AggregateId, usize, u32)> = maintained[l.index()]
            .iter()
            .filter_map(|&(a, idx)| {
                let n = result.allocation.flows_on(AggregateId(a), idx as usize);
                (n > 0).then_some((AggregateId(a), idx as usize, n))
            })
            .collect();
        assert_eq!(via_scan, via_index, "{name}: link {l:?}");
    }
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On random congested instances the indexed enumeration equals the
    /// scan after a whole run, and every commit lands on a shard.
    #[test]
    fn indexed_gather_matches_scan(i in instance()) {
        let (topo, tm) = build(&i);
        let result = assert_indexed_gather_matches_scan("waxman", &topo, &tm, bounded_config());
        let shard_commits: usize = result.shards.iter().map(|s| s.commits).sum();
        prop_assert_eq!(shard_commits, result.commits, "commits attribute to shards");
    }

    /// The shard partitioner is a true partition on random
    /// planetary/hypergrowth instances: every aggregate in exactly one
    /// shard, every intra-shard link with both endpoints in that shard,
    /// the trunk set disjoint from every shard's links, everything
    /// covered.
    #[test]
    fn region_partition_is_a_true_partition(
        regions in 3usize..8,
        pops in 3usize..6,
        shards in 1usize..6,
        seed in any::<u64>(),
        planetary in any::<bool>(),
    ) {
        let cap = Bandwidth::from_mbps(10.0);
        let topo = if planetary {
            generators::planetary(regions, pops, cap)
        } else {
            generators::hypergrowth(regions, pops, cap)
        };
        let tm = workload::generate(
            &topo,
            &WorkloadConfig { flow_count: (1, 3), ..Default::default() },
            seed,
        );
        let p = RegionPartition::new(&topo, &tm, shards);
        prop_assert_eq!(p.region_count(), regions);
        let core = p.core_shard();

        // Every aggregate lands in exactly one shard, and in the core
        // iff its endpoint regions' shards disagree.
        let mut agg_total = 0usize;
        for a in tm.iter() {
            let s = p.shard_of_aggregate(a.id);
            prop_assert!(s <= core);
            agg_total += 1;
            let si = p.region_of_node(a.ingress) % shards;
            let se = p.region_of_node(a.egress) % shards;
            if si == se {
                prop_assert_eq!(s, si, "intra-shard aggregate owned by its region shard");
            } else {
                prop_assert_eq!(s, core, "cross-shard aggregate owned by the core");
            }
        }
        prop_assert_eq!(agg_total, (0..=core).map(|s| p.aggregates_in(s)).sum::<usize>());

        // Every link is owned once: by the shard both endpoints map to,
        // or by the trunk core when they disagree — so the trunk set is
        // disjoint from every shard's links by construction, and the
        // union covers the topology.
        let mut link_total = 0usize;
        for l in topo.links() {
            let s = p.shard_of_link(l);
            link_total += 1;
            let link = topo.graph().link(l);
            let ss = p.region_of_node(link.src) % shards;
            let sd = p.region_of_node(link.dst) % shards;
            if ss == sd {
                prop_assert_eq!(s, ss, "intra-shard link endpoints agree on the owner");
                prop_assert!(!p.is_trunk(l));
            } else {
                prop_assert_eq!(s, core, "inter-shard link is a trunk");
                prop_assert!(p.is_trunk(l));
            }
        }
        prop_assert_eq!(link_total, (0..=core).map(|s| p.links_in(s)).sum::<usize>());
    }

    /// Thread-count invariance: on random intra-region workloads (every
    /// region an isolated bottleneck component) the full run —
    /// per-component passes plus the whole-instance loop — must be
    /// move-for-move, bit-for-bit identical at 1, 2, 3, 4 and 8
    /// `threads` (which claim each step's path generation and scoring,
    /// in the passes and in the whole-instance loop alike).
    #[test]
    fn parallel_passes_invariant_under_thread_counts(
        regions in 3usize..5,
        pops in 3usize..5,
        seed in any::<u64>(),
    ) {
        let topo = generators::hypergrowth(regions, pops, Bandwidth::from_mbps(2.0));
        let tm = workload::generate(
            &topo,
            &WorkloadConfig {
                intra_region_only: true,
                flow_count: (1, 3),
                ..Default::default()
            },
            seed,
        );
        let run = |threads: usize| {
            Optimizer::new(&topo, &tm, OptimizerConfig {
                threads,
                ..bounded_config()
            }).run()
        };
        let one = run(1);
        for threads in [2, 3, 4, 8] {
            assert_runs_identical(&format!("threads={threads}"), &one, &run(threads), &tm);
        }
    }
}

/// The full 4,096-aggregate hypergrowth tier, under a workload heavy
/// enough that the instance is genuinely congested.
#[test]
fn indexed_gather_matches_scan_on_hypergrowth_4096() {
    let topo = generators::hypergrowth(8, 8, Bandwidth::from_mbps(60.0));
    let tm = workload::generate(
        &topo,
        &WorkloadConfig {
            flow_count: (2, 6),
            large_flow_count: (2, 4),
            ..WorkloadConfig::default()
        },
        1,
    );
    assert_eq!(tm.len(), 4096, "the hypergrowth tier is 64^2 aggregates");
    let cfg = OptimizerConfig {
        max_commits: 6, // debug-profile budget
        threads: 1,
        ..OptimizerConfig::default()
    };
    let result = assert_indexed_gather_matches_scan("hypergrowth-4096", &topo, &tm, cfg);
    assert!(result.commits > 0, "instance must exercise the inner loop");
}

/// `Optimizer::run_from` with a previous allocation whose aggregate ids
/// were permuted/reassigned (a regenerated matrix attaches the same
/// dense id to a different ingress/egress pair): the warm start must
/// route every aggregate between its *own* endpoints — exercising
/// `Allocation::rebase`'s endpoint check through the optimizer entry
/// point — and still uphold the incremental ≡ oracle invariant.
#[test]
fn run_from_handles_permuted_and_reassigned_aggregates() {
    use fubar_traffic::{Aggregate, AggregateId};
    use fubar_utility::TrafficClass;

    let topo = generators::ring(
        6,
        Bandwidth::from_kbps(500.0),
        fubar_topology::Delay::from_ms(2.0),
    );
    let pair = |i: usize, flows: u32| {
        Aggregate::new(
            AggregateId(0), // reassigned densely by TrafficMatrix::new
            fubar_graph::NodeId(i as u32),
            fubar_graph::NodeId(((i + 3) % 6) as u32),
            TrafficClass::BulkTransfer,
            flows,
        )
    };
    let tm1 = TrafficMatrix::new(vec![pair(0, 8), pair(1, 6), pair(2, 4)]);
    let cold = Optimizer::with_defaults(&topo, &tm1).run();
    assert!(
        cold.allocation.active_path_count() > 3,
        "instance must split traffic so inherited paths matter"
    );

    // Same pairs, permuted order, changed flow counts: every dense id
    // now names a different pair than in `tm1`.
    let tm2 = TrafficMatrix::new(vec![pair(2, 5), pair(0, 9), pair(1, 6)]);
    let warm = Optimizer::with_defaults(&topo, &tm2).run_from(&cold.allocation);
    warm.allocation.validate(&tm2).unwrap();
    for a in tm2.iter() {
        for (idx, p) in warm.allocation.path_set(a.id).iter().enumerate() {
            if warm.allocation.flows_on(a.id, idx) > 0 {
                assert_eq!(p.source(), a.ingress, "aggregate {} wrong source", a.id);
                assert_eq!(p.destination(), a.egress, "aggregate {} wrong dest", a.id);
            }
        }
    }
    let oracle = Optimizer::new(
        &topo,
        &tm2,
        OptimizerConfig {
            incremental: false,
            ..Default::default()
        },
    )
    .run_from(&cold.allocation);
    assert_runs_identical("permuted", &warm, &oracle, &tm2);
}

/// The congested set after every commit of `result` (index 0: the boot
/// state), re-derived by replaying its moves over its final path sets.
fn congested_sets_along(
    topo: &Topology,
    tm: &TrafficMatrix,
    result: &OptimizeResult,
) -> Vec<fubar_graph::LinkSet> {
    let mut replay = Allocation::all_on_shortest_paths(topo, tm);
    for a in tm.iter() {
        for path in result.allocation.path_set(a.id).iter() {
            replay.add_path(a.id, path.clone());
        }
    }
    let model = fubar_model::FlowModel::with_defaults(topo);
    let congested = |alloc: &Allocation| -> fubar_graph::LinkSet {
        (model.evaluate(&alloc.bundles(tm)).congested.iter().copied()).collect()
    };
    let mut sets = vec![congested(&replay)];
    for &m in &result.moves {
        replay.apply(m);
        sets.push(congested(&replay));
    }
    sets
}

/// **Path memo transparency.** Each search behind an aggregate's
/// alternatives outlives a commit, and a change of the congested set,
/// exactly when no link it read flipped in or out of its avoid set. On
/// an instance whose run has commits of both kinds — some keep the
/// congested set, some change it — the default run equals, move for
/// move, the oracle run, which runs every search of every aggregate in
/// every step it meets it (debug builds also re-run every kept search
/// and compare).
#[test]
fn path_memo_is_transparent() {
    let (topo, tm) = build(&Instance {
        nodes: 6,
        topo_seed: 8,
        tm_seed: 11,
        capacity_kbps: 300.0,
        flows: (2, 7),
    });
    let cfg = OptimizerConfig {
        max_commits: 60,
        ..Default::default()
    };
    let (default, oracle) = run_both(&topo, &tm, cfg);
    assert_runs_identical("path-memo", &default, &oracle, &tm);

    let sets = congested_sets_along(&topo, &tm, &default);
    let kept = sets.windows(2).filter(|w| w[0] == w[1]).count();
    assert!(kept >= 1, "no commit kept the congested set");
    assert!(
        kept < default.commits,
        "no commit changed the congested set"
    );

    let paths = |r: &OptimizeResult| -> (usize, usize) {
        let sum = |f: fn(&fubar_core::ShardRunStats) -> usize| r.shards.iter().map(f).sum();
        (sum(|s| s.paths_generated), sum(|s| s.paths_reused))
    };
    let (generated, reused) = paths(&default);
    let (oracle_generated, oracle_reused) = paths(&oracle);
    assert!(reused >= 1, "the memo kept nothing");
    assert_eq!(oracle_reused, 0, "the oracle read the memo");
    assert_eq!(
        generated + reused,
        oracle_generated,
        "both modes resolve alternatives for the same (step, aggregate) pairs"
    );
    // The counters are work counts, exact at any thread count.
    for threads in [1, 3] {
        let cfg = OptimizerConfig {
            max_commits: 60,
            threads,
            ..Default::default()
        };
        let run = Optimizer::new(&topo, &tm, cfg).run();
        assert_eq!(paths(&run), (generated, reused), "threads={threads}");
    }
}
