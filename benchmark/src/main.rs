//! `fubar-benchmark`: the repo's end-to-end, layer-attributed benchmark.
//!
//! ```text
//! fubar-benchmark [run]  [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                        [--scenario-seed N] [--out FILE]
//! fubar-benchmark trace  [--workload W] [--seed N] [--out FILE]     (= run --trace 1)
//! fubar-benchmark agree  A.json B.json
//! ```
//!
//! Run from the repo root (`benchmark/run.sh` does). Without
//! `--workload`, every workload runs in a process of its own and the
//! results are collected into one result set (`--out`). See
//! `benchmark/README.md` for the methodology.

mod adapter;
mod agree;
mod e2e;
mod json;
mod metrics;
mod span;
mod stats;

use json::{obj, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The benchmark's directory, relative to the repo root.
const HOME: &str = "benchmark";
/// Fewest iterations an end-to-end run makes, however short `--seconds`.
const MIN_ITERATIONS: usize = 5;

struct Options {
    workload: Option<String>,
    /// Picks the traced replay's samples; recorded with every result.
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Overrides the seed written in the workload's `.scn` file.
    scenario_seed: Option<u64>,
    out: Option<PathBuf>,
}

/// One workload's result: the last line each run prints.
struct WorkloadResult {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl WorkloadResult {
    fn to_json(&self) -> Value {
        obj([
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        obj([
                            ("value", Value::Num(value)),
                            ("unit", Value::Str(unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn spec_path(workload: &str) -> Result<PathBuf, String> {
    if !metrics::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            metrics::WORKLOADS.join(", ")
        ));
    }
    Ok(Path::new(HOME)
        .join("workloads")
        .join(format!("{workload}.scn")))
}

/// Compares a run's work counters with `expected_counts.json`
/// (report-only: a later change may legitimately move them, but it must
/// show).
fn counts_line(workload: &str, it: &e2e::Iteration) -> String {
    let path = Path::new(HOME).join("expected_counts.json");
    let Some(expected) = read_json(&path)
        .ok()
        .and_then(|doc| doc.get(workload).cloned())
    else {
        return "counts: unrecorded".to_string();
    };
    let s = &it.summary;
    let hash = format!("{:016x}", stats::fnv1a64(it.log_text.as_bytes()));
    let mut drift = Vec::new();
    for (field, new) in [
        ("events", s.events),
        ("reopts", s.reopts),
        ("commits", s.commits),
        ("fills", s.fills),
    ] {
        let old = expected.get(field).and_then(Value::as_f64);
        if old != Some(new as f64) {
            drift.push(format!("{field} {}→{new}", old.unwrap_or(f64::NAN)));
        }
    }
    let old_hash = expected
        .get("log_fnv1a64")
        .and_then(Value::as_str)
        .unwrap_or("");
    if old_hash != hash {
        drift.push(format!("log_fnv1a64 {old_hash}→{hash}"));
    }
    if drift.is_empty() {
        "counts: match".to_string()
    } else {
        format!("counts: drift {}", drift.join(", "))
    }
}

/// The untraced run of one workload.
fn run_end_to_end(workload: &str, opts: &Options) -> Result<WorkloadResult, String> {
    let path = spec_path(workload)?;
    let load = || adapter::read_spec(&path);
    let outcome = e2e::run_loop(&load, opts.scenario_seed, opts.seconds, MIN_ITERATIONS);
    for f in &outcome.failures {
        println!("  FAILED {f}");
    }
    let first = outcome
        .good
        .first()
        .ok_or_else(|| format!("{workload}: no iteration succeeded"))?;
    let n = outcome.good.len();
    let run_wall_s = outcome.median_of(|i| i.run_wall_s);
    let values = [
        outcome.median_of(|i| i.setup_s),
        run_wall_s,
        outcome.median_of(|i| i.summary.reopt_p50_s),
        outcome.median_of(|i| i.summary.reopt_max_s),
        outcome.median_of(|i| i.summary.measure_p50_s * 1e6),
        outcome.peak_rss_mb.ok_or("no VmHWM in /proc/self/status")?,
        first.summary.mean_epoch_utility,
    ];
    let metrics: Vec<_> = metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), v)| (name, v, unit))
        .collect();

    let s = &first.summary;
    println!(
        "workload {workload}  seed {}  scenario-seed {}  nproc {}  iterations {} ({} good)",
        opts.seed,
        opts.scenario_seed
            .map_or("file".to_string(), |s| s.to_string()),
        nproc(),
        outcome.attempted,
        n
    );
    for &(name, v, unit) in &metrics {
        let note = match name {
            "peak_rss_mb" => "VmHWM after the first iteration".to_string(),
            "mean_epoch_utility" => format!("exact, {n} identical logs"),
            "reopt_p50_s" | "reopt_max_s" => {
                format!("median of {n}, {} reopts/iteration", s.reopt_samples)
            }
            "measure_p50_us" => format!("median of {n}, {} events/iteration", s.measure_samples),
            _ => format!("median of {n}"),
        };
        println!("  {name:<20} = {v:>14.6} {unit:<9} ({note})");
    }
    // A p99 needs ten samples beyond it: only the churn workload has them.
    if s.measure_samples >= 1000 {
        println!(
            "  {:<20} = {:>14.6} {:<9} (median of {n}, {} events/iteration; not gated)",
            "measure_p99_us",
            outcome.median_of(|i| i.summary.measure_p99_s * 1e6),
            "us",
            s.measure_samples
        );
    }
    println!(
        "  {:<20} = {:>14.3} {:<9} (derived: {} events / run_wall_s; {} reopts, {} commits, {} fills)",
        "events/s",
        s.events as f64 / run_wall_s,
        "1/s",
        s.events,
        s.reopts,
        s.commits,
        s.fills
    );
    println!(
        "  run_wall_s per iteration: {}",
        outcome
            .good
            .iter()
            .map(|i| format!("{:.4}", i.run_wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  failed_share = {} ({} / {})",
        outcome.failures.len() as f64 / outcome.attempted as f64,
        outcome.failures.len(),
        outcome.attempted
    );
    if opts.scenario_seed.is_none() {
        println!("  {}", counts_line(workload, first));
    }
    Ok(WorkloadResult {
        attempted: outcome.attempted,
        failed: outcome.failures.len(),
        metrics,
    })
}

/// The traced run of one workload: an untraced reference iteration
/// (after one discarded warm-up, so process start-up cost is not booked
/// as negative tracing overhead), the same pipeline under spans, then
/// the layer replay.
fn run_traced(workload: &str, opts: &Options) -> Result<WorkloadResult, String> {
    let path = spec_path(workload)?;
    let load = || adapter::read_spec(&path);
    e2e::iterate(&load, None)?;
    let untraced = e2e::iterate(&load, None)?;

    let mut tracer = span::Tracer::new(workload);
    let root = tracer.enter("trace");
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    let text = load()?;
    let (log_text, summary) = adapter::replay_pipeline(&mut tracer, &text, &mut values)?;
    let value_of = |values: &[(&str, f64)], name: &str| {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    };
    let traced = e2e::Iteration {
        setup_s: value_of(&values, "scenario.build_s"),
        run_wall_s: value_of(&values, "scenario.run_s")
            + value_of(&values, "scenario.log_render_us") * 1e-6,
        log_text,
        summary,
    };
    let failed = match e2e::verify(&untraced, &traced) {
        Ok(()) => 0,
        Err(e) => {
            println!("  FAILED traced run: {e}");
            1
        }
    };
    values.push((
        "trace_overhead_pct",
        (traced.run_wall_s - untraced.run_wall_s) / untraced.run_wall_s * 100.0,
    ));

    let spec = adapter::parse(&text)?;
    adapter::replay_layers(&mut tracer, &spec, opts.seed, nproc().min(2), &mut values)?;
    tracer.exit(root);
    values.push(("harness.self_s", tracer.self_time_ns(root) as f64 * 1e-9));
    values.push(("nproc", nproc() as f64));

    let span_file = Path::new(HOME)
        .join("out")
        .join(format!("trace-{workload}.json"));
    write_file(&span_file, &(tracer.to_json().render() + "\n"))?;

    println!(
        "workload {workload}  seed {}  nproc {}  traced layer replay  ({} spans -> {})",
        opts.seed,
        nproc(),
        tracer.spans().len(),
        span_file.display()
    );
    let mut metrics = Vec::with_capacity(metrics::PER_LAYER.len());
    for &(name, unit, _) in &metrics::PER_LAYER {
        let v = value_of(&values, name);
        if !v.is_finite() {
            return Err(format!("traced replay produced no finite {name}"));
        }
        println!("  {name:<32} = {v:>16.6} {unit}");
        metrics.push((name, v, unit));
    }
    Ok(WorkloadResult {
        attempted: 2,
        failed,
        metrics,
    })
}

/// Runs every workload, one child process each, and collects the
/// children's result lines into one result set.
fn run_all(opts: &Options) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut sets = Vec::new();
    let mut all_correct = true;
    for w in metrics::WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if let Some(s) = opts.scenario_seed {
            cmd.args(["--scenario-seed", &s.to_string()]);
        }
        let output = cmd
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!("workload {w} exited with {}", output.status));
        }
        let last = stdout.lines().last().unwrap_or("");
        let result = json::parse(last).map_err(|e| format!("workload {w} result: {e}"))?;
        all_correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
        sets.push((w, result));
    }
    if let Some(out) = &opts.out {
        let doc = obj([
            ("schema", Value::Str("fubar-benchmark/1".to_string())),
            ("nproc", Value::Num(nproc() as f64)),
            ("seed", Value::Num(opts.seed as f64)),
            ("seconds", Value::Num(opts.seconds)),
            ("trace", Value::Bool(opts.trace)),
            ("workloads", obj(sets)),
        ]);
        write_file(out, &(doc.render() + "\n"))?;
        println!("result set written to {}", out.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_agree(files: &[String]) -> Result<ExitCode, String> {
    let [a, b] = files else {
        return Err("usage: fubar-benchmark agree A.json B.json".to_string());
    };
    let benchmark = read_json(Path::new("BENCHMARK.json"))?;
    let result = agree::agree(
        &benchmark,
        &read_json(Path::new(a))?,
        &read_json(Path::new(b))?,
    )?;
    for row in &result.rows {
        println!("{row}");
    }
    println!("agree: {} row(s) in excess of their bound", result.excess);
    Ok(if result.excess == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 0,
        seconds: 20.0,
        trace: false,
        scenario_seed: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?.to_string()),
            "--seed" => opts.seed = number(value()?)?,
            "--scenario-seed" => opts.scenario_seed = Some(number(value()?)?),
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {v:?}: not a duration"))?;
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?}: expected 0 or 1")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "agree")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    if command == "agree" {
        return run_agree(rest);
    }
    let mut opts = parse_options(rest)?;
    opts.trace |= command == "trace";
    let Some(workload) = opts.workload.clone() else {
        return run_all(&opts);
    };
    let result = if opts.trace {
        run_traced(&workload, &opts)?
    } else {
        run_end_to_end(&workload, &opts)?
    };
    // The result line is the last line of standard output.
    println!("{}", result.to_json().render());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("fubar-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the harness tables name the same workloads
    /// and metrics, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_harness_tables() {
        let doc = read_json(Path::new("../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .expect(key)
                .as_array()
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (f("name"), f("unit"), f("better"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&metrics::END_TO_END));
        assert_eq!(names("per_layer"), table(&metrics::PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, metrics::WORKLOADS);
        for w in metrics::WORKLOADS {
            assert!(Path::new("workloads").join(format!("{w}.scn")).is_file());
        }
        assert!(doc.get("end_to_end").unwrap().as_array().iter().all(|m| m
            .get("bound")
            .and_then(Value::as_f64)
            .is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn options_parse_the_driver_command_line() {
        let args: Vec<String> = "--workload churn_he961 --seed 7 --seconds 25 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.workload.as_deref(), Some("churn_he961"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 25.0, true));
        assert!(o.scenario_seed.is_none());
        for bad in ["--trace 2", "--seconds -1", "--seed x", "--bogus", "--seed"] {
            let args: Vec<String> = bad.split(' ').map(str::to_string).collect();
            assert!(parse_options(&args).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = WorkloadResult {
            attempted: 5,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s")],
        };
        assert_eq!(
            r.to_json().render(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
