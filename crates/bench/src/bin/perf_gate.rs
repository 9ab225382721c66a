//! `perf_gate` — the CI performance-regression gate.
//!
//! Times the incremental hot paths against their full-recompute
//! oracles, in release profile, at two scale tiers — the paper's full
//! 961-aggregate HE instance and the beyond-HE 4,096-aggregate
//! `hypergrowth` tier:
//!
//! * the **optimizer inner loop** (both tiers): allocation-free
//!   incremental candidate scoring (`OptimizerConfig::incremental`,
//!   one-aggregate bundle deltas patched over the cached incumbent
//!   evaluation, splice-view demands, cached capacities, O(log n)
//!   utility-fold patches) versus the oracle mode that rebuilds every
//!   bundle and re-runs full water-filling per candidate;
//! * **fabric measurement** (both tiers): `Fabric::peek` after a single
//!   churn event — one aggregate's segment patched into the cached
//!   table, evaluation and report in place — versus the
//!   `Fabric::peek_full` oracle.
//!
//! Because per-move and per-event cost is bound by the bottleneck
//! *component*, not the instance, the incremental-vs-full speedup must
//! **grow** with instance size: the gate fails if the hypergrowth
//! tier's inner-loop or one-churn-peek speedup does not exceed the
//! HE-961 one.
//!
//! While timing, it also cross-checks that the two modes agree (same
//! committed moves, bitwise-identical reports) — a perf gate that
//! silently measured diverging computations would be lying.
//!
//! Writes the measurements to `BENCH_ci.json` and exits non-zero when a
//! speedup falls below the thresholds in `ci/perf_thresholds.json`
//! (see README "Performance gates" for how to read and update them; the
//! committed baseline snapshot lives at `ci/BENCH_ci.json`).
//!
//! ```text
//! perf_gate [--out BENCH_ci.json] [--thresholds ci/perf_thresholds.json]
//! ```

use fubar_core::{Optimizer, OptimizerConfig};
use fubar_sdn::Fabric;
use fubar_topology::{generators, Bandwidth, Delay, Topology};
use fubar_traffic::{workload, AggregateId, TrafficMatrix, WorkloadConfig};
use std::process::ExitCode;
use std::time::Instant;

/// Commit budget for the optimizer measurement: enough steps for the
/// inner loop to dominate, few enough to keep the gate under a minute.
const COMMITS: usize = 5;
/// Timing repetitions; the minimum is reported (robust to CI noise).
const REPS: usize = 5;

fn he_instance() -> (Topology, TrafficMatrix) {
    let topo = generators::he_core(Bandwidth::from_mbps(100.0));
    let tm = workload::generate(&topo, &WorkloadConfig::default(), 1);
    (topo, tm)
}

/// The beyond-HE tier: 64 POPs, 4,096 aggregates (intra-POP pairs
/// included), lightly underprovisioned so the commit budget is
/// exhausted with realistic candidate sets. A smaller flow range than
/// the HE default keeps the *oracle* side of the measurement (full
/// water-filling per candidate) inside a CI-friendly budget.
fn hypergrowth_instance() -> (Topology, TrafficMatrix) {
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
    (topo, tm)
}

/// Minimum wall-clock seconds of `f` over `REPS` runs.
fn min_secs(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Minimum wall-clock seconds of each of `a` and `b` over `REPS`
/// *interleaved* runs — both sides sample the same scheduling windows,
/// so transient machine noise hits them symmetrically instead of
/// skewing the ratio.
fn min_secs_paired(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let mut best_a = f64::INFINITY;
    let mut best_b = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        a();
        best_a = best_a.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        b();
        best_b = best_b.min(t.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

struct Comparison {
    name: &'static str,
    full_s: f64,
    incremental_s: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.full_s / self.incremental_s.max(1e-12)
    }
}

/// Optimizer inner loop on one instance: run a `COMMITS`-commit budget
/// in both scoring modes, subtracting the per-mode zero-commit baseline
/// (initial allocation + first measurement) so the ratio isolates the
/// inner loop itself.
fn measure_optimizer_on(name: &'static str, topo: &Topology, tm: &TrafficMatrix) -> Comparison {
    let cfg = |incremental: bool, commits: usize| OptimizerConfig {
        max_commits: commits,
        incremental,
        threads: 1, // single-core CI runners; keeps the ratio honest
        ..Default::default()
    };

    // Cross-check before timing: both modes must agree move for move.
    let inc = Optimizer::new(topo, tm, cfg(true, COMMITS)).run();
    let full = Optimizer::new(topo, tm, cfg(false, COMMITS)).run();
    assert_eq!(inc.moves, full.moves, "scoring modes diverged on moves");
    assert_eq!(
        inc.report.network_utility.to_bits(),
        full.report.network_utility.to_bits(),
        "scoring modes diverged on utility"
    );
    assert!(inc.commits == COMMITS, "instance must exhaust the budget");

    let (base_inc, base_full) = min_secs_paired(
        || {
            Optimizer::new(topo, tm, cfg(true, 0)).run();
        },
        || {
            Optimizer::new(topo, tm, cfg(false, 0)).run();
        },
    );
    let (t_inc, t_full) = min_secs_paired(
        || {
            Optimizer::new(topo, tm, cfg(true, COMMITS)).run();
        },
        || {
            Optimizer::new(topo, tm, cfg(false, COMMITS)).run();
        },
    );
    Comparison {
        name,
        full_s: (t_full - base_full).max(1e-9),
        incremental_s: (t_inc - base_inc).max(1e-9),
    }
}

/// Fabric measurement on one instance: `peek` after one churn event
/// (the in-place patch of one aggregate's segment) vs the `peek_full`
/// oracle.
fn measure_peek_on(name: &'static str, topo: &Topology, tm: &TrafficMatrix) -> Comparison {
    let mut fabric = Fabric::new(topo.clone(), tm.clone(), Delay::from_secs(30.0));
    fabric.peek(); // warm the measurement cache

    let victim = AggregateId(17);
    let base = fabric.true_tm().aggregate(victim).flow_count;

    // Cross-check: one churn, incremental == full, bitwise.
    fabric.set_flow_count(victim, base + 1);
    let full = fabric.peek_full();
    if let Some(field) = fabric.peek().bitwise_mismatch(&full) {
        panic!("peek modes diverged in {field}");
    }
    fabric.set_flow_count(victim, base);
    fabric.peek();

    const FULL_ITERS: u32 = 20;
    let full_s = min_secs(|| {
        for _ in 0..FULL_ITERS {
            std::hint::black_box(fabric.peek_full());
        }
    }) / f64::from(FULL_ITERS);
    // An incremental probe is microseconds: batch more of them per
    // timing sample than of the oracle.
    const ITERS: u32 = 1000;
    let mut bump = false;
    let incremental_s = min_secs(|| {
        for _ in 0..ITERS {
            bump = !bump;
            fabric.set_flow_count(victim, base + u32::from(bump));
            std::hint::black_box(fabric.peek().report.network_utility);
        }
    }) / f64::from(ITERS);
    Comparison {
        name,
        full_s,
        incremental_s,
    }
}

/// Extracts `"key": <number>` from a JSON text (flat enough for the
/// thresholds file; no dependency on a JSON crate in this offline
/// workspace).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_ci.json".to_string();
    let mut thresholds_path = "ci/perf_thresholds.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--out needs a file");
                    return ExitCode::FAILURE;
                };
                out_path = v.clone();
            }
            "--thresholds" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("--thresholds needs a file");
                    return ExitCode::FAILURE;
                };
                thresholds_path = v.clone();
            }
            other => {
                eprintln!("unknown flag {other:?}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let thresholds = match std::fs::read_to_string(&thresholds_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {thresholds_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let (he_topo, he_tm) = he_instance();
    let (hg_topo, hg_tm) = hypergrowth_instance();
    let comparisons = [
        measure_optimizer_on("optimizer_inner_loop", &he_topo, &he_tm),
        measure_optimizer_on("optimizer_inner_loop_hypergrowth", &hg_topo, &hg_tm),
        measure_peek_on("peek_one_churn", &he_topo, &he_tm),
        measure_peek_on("peek_one_churn_hypergrowth", &hg_topo, &hg_tm),
    ];

    let mut json = String::from("{\n");
    for (i, c) in comparisons.iter().enumerate() {
        json.push_str(&format!(
            "  \"{}\": {{\"full_s\": {:.9}, \"incremental_s\": {:.9}, \"speedup\": {:.2}}}{}\n",
            c.name,
            c.full_s,
            c.incremental_s,
            c.speedup(),
            if i + 1 < comparisons.len() { "," } else { "" }
        ));
    }
    json.push_str("}\n");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");

    let mut ok = true;
    for c in &comparisons {
        let key = format!("{}_speedup_min", c.name);
        let Some(min) = json_number(&thresholds, &key) else {
            eprintln!("error: {thresholds_path} lacks {key}");
            ok = false;
            continue;
        };
        let verdict = if c.speedup() >= min {
            "ok"
        } else {
            "REGRESSED"
        };
        println!(
            "gate {:<33} speedup {:>6.2}x (min {min:.2}x) .. {verdict}",
            c.name,
            c.speedup()
        );
        ok &= c.speedup() >= min;
    }
    // The scale-growth criterion: per-move and per-event cost is
    // component-bound, so the incremental-vs-full speedup must be larger
    // on the 4x bigger hypergrowth instance than on HE-961.
    for (gate, small, large) in [
        ("speedup_grows_with_scale", 0, 1),
        ("peek_speedup_grows_with_scale", 2, 3),
    ] {
        let (he, hg) = (comparisons[small].speedup(), comparisons[large].speedup());
        let verdict = if hg > he { "ok" } else { "REGRESSED" };
        println!("gate {gate:<33} {hg:>6.2}x vs {he:.2}x on HE-961 .. {verdict}");
        ok &= hg > he;
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate failed: incremental path regressed past a stored threshold");
        ExitCode::FAILURE
    }
}
