//! `fubar-cli` — drive the FUBAR optimizer from topology and
//! traffic-matrix text files (see `fubar_topology::format` and
//! `fubar_traffic::format` for the grammars).
//!
//! ```text
//! fubar-cli generate <he|abilene> <capacity_mbps> <seed>
//!     Emit a topology file and a matching workload matrix to
//!     ./<name>.topo and ./<name>.tm.
//!
//! fubar-cli evaluate <file.topo> <file.tm>
//!     Evaluate shortest-path routing (no optimization).
//!
//! fubar-cli optimize <file.topo> <file.tm> [--minmax] [--trace out.csv]
//!     Run FUBAR and print the computed path splits.
//!
//! fubar-cli topology list
//!     Name and summarize the bundled topology catalog (`topologies/`).
//!
//! fubar-cli topology show <name|file.topo>
//!     Print a topology (canonical serialization: raw-seconds delays,
//!     raw-bps capacities — the exactly round-tripping form).
//!
//! fubar-cli topology export <he|abilene|hypergrowth|planetary> <capacity_mbps> [out.topo]
//!     Export a generator topology to its canonical `.topo` form — how
//!     the generated entries of `topologies/` are produced. `planetary`
//!     is the 256-POP hierarchical tier (inter-region trunks at 4× the
//!     given capacity).
//!
//! fubar-cli topology validate <name|file.topo>...
//!     Parse each topology, require strong connectivity, and prove the
//!     `serialize ∘ parse` round trip is bitwise-exact (capacities,
//!     delays, names, link structure). CI runs this over every
//!     committed `.topo`.
//!
//! fubar-cli scenario list
//!     Name and describe the bundled scenario catalog.
//!
//! fubar-cli scenario show <name|file.scn>
//!     Print a scenario spec (canonical serialization).
//!
//! fubar-cli scenario run <name|file.scn> [--seed N] [--out log.txt]
//!                        [--oracle full] [--stats]
//!     Run a scenario and emit the per-event log on stdout (or to
//!     --out). Same spec + same seed => byte-identical log. The
//!     catalog scales up to `hypergrowth` (4,096 aggregates on the
//!     64-POP tier) and `planetary` (65,536 aggregates on the 256-POP
//!     tier): incremental fabric measurement and the region-sharded
//!     optimizer keep whole runs tractable. `--oracle full` forces
//!     full-recompute measurement *and* scoring on every probe; its
//!     log is byte-identical to the default incremental run's — CI
//!     cross-checks them with `cmp`. `--stats` prints per-event
//!     measurement/re-optimization timing percentiles, the optimizer's
//!     peak scratch sizes, and per-shard commit/score/scratch
//!     accumulators to stderr (never into the log, which stays
//!     byte-deterministic).
//!
//! fubar-cli scenario search <name|file.scn> [--seed N] [--candidates K]
//!                           [--name NAME] [--out file.scn]
//!                           [--check file.scn] [--smoke]
//!     Adversarial worst-case search: run K seeded perturbations of the
//!     base scenario (outage placement, surge timing/magnitude,
//!     controller blackout windows), score each by utility loss plus
//!     recovery time, and print the argmax as a committable `.scn`
//!     (stdout, or --out). Deterministic: same base + --seed +
//!     --candidates always re-finds the same worst case. --check FILE
//!     re-runs the search and fails unless the winner equals the
//!     committed spec in FILE (CI holds the chaos catalog to this).
//!     --smoke bounds the run (few candidates, capped duration) for
//!     quick pipeline checks.
//! ```
//!
//! Exit codes are distinct and scriptable: `0` success, `2` usage
//! errors (bad flags/arity), `65` data errors (parse/validation
//! failures, failed `--check`), `66` unknown catalog names or missing
//! input files, `74` I/O failures. Every failure prints a one-line
//! `error: ...` diagnostic to stderr.

use fubar::core::baselines;
use fubar::prelude::*;
use fubar::scenario::catalog;
use fubar::topology::catalog as topo_catalog;
use fubar::topology::format as topo_format;
use fubar::topology::generators;
use fubar::traffic::format as tm_format;
use fubar::traffic::workload;
use std::process::ExitCode;

/// A classified CLI failure: every variant maps to its own exit code
/// (sysexits-flavored) so scripts and CI can tell a typo'd flag from a
/// corrupt spec from a missing file without scraping stderr.
enum CliError {
    /// Bad arguments: wrong arity, unknown flag, unparsable number.
    Usage(String),
    /// The input was found but is invalid: parse or validation failure.
    Data(String),
    /// Unknown catalog name or nonexistent input file.
    NotFound(String),
    /// The OS failed us: read/write errors on files that should work.
    Io(String),
}

impl CliError {
    fn usage(m: impl Into<String>) -> Self {
        CliError::Usage(m.into())
    }
    fn data(m: impl Into<String>) -> Self {
        CliError::Data(m.into())
    }
    fn not_found(m: impl Into<String>) -> Self {
        CliError::NotFound(m.into())
    }
    fn io(m: impl Into<String>) -> Self {
        CliError::Io(m.into())
    }
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Data(_) => 65,
            CliError::NotFound(_) => 66,
            CliError::Io(_) => 74,
        }
    }
    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Data(m) | CliError::NotFound(m) | CliError::Io(m) => m,
        }
    }
}

type CliResult = Result<(), CliError>;

/// Reads a file, classifying "no such file" apart from real I/O trouble.
fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => CliError::not_found(format!("{path}: {e}")),
        _ => CliError::io(format!("{path}: {e}")),
    })
}

fn write_file(path: &str, text: &str) -> CliResult {
    std::fs::write(path, text).map_err(|e| CliError::io(format!("{path}: {e}")))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fubar-cli generate <he|abilene> <capacity_mbps> <seed>\n  \
         fubar-cli evaluate <file.topo> <file.tm>\n  \
         fubar-cli optimize <file.topo> <file.tm> [--minmax] [--trace out.csv]\n  \
         fubar-cli topology list\n  \
         fubar-cli topology show <name|file.topo>\n  \
         fubar-cli topology export <he|abilene|hypergrowth|planetary> <capacity_mbps> [out.topo]\n  \
         fubar-cli topology validate <name|file.topo>...\n  \
         fubar-cli scenario list\n  \
         fubar-cli scenario show <name|file.scn>\n  \
         fubar-cli scenario run <name|file.scn> [--seed N] [--out log.txt] \
         [--oracle full] [--stats]\n  \
         fubar-cli scenario search <name|file.scn> [--seed N] [--candidates K] \
         [--name NAME] [--out file.scn] [--check file.scn] [--smoke]"
    );
    ExitCode::from(2)
}

fn load(topo_path: &str, tm_path: &str) -> Result<(Topology, TrafficMatrix), CliError> {
    let topo_text = read_file(topo_path)?;
    let topo =
        topo_format::parse(&topo_text).map_err(|e| CliError::data(format!("{topo_path}: {e}")))?;
    let tm_text = read_file(tm_path)?;
    let tm =
        tm_format::parse(&tm_text, &topo).map_err(|e| CliError::data(format!("{tm_path}: {e}")))?;
    Ok((topo, tm))
}

/// A `<capacity_mbps>` argument: the generators assert on a zero
/// capacity and `Bandwidth` on a non-finite one, so refuse both here.
fn parse_capacity_mbps(token: &str) -> Result<Bandwidth, CliError> {
    match token.parse::<f64>() {
        Ok(mbps) if mbps > 0.0 && (mbps * 1e6).is_finite() => Ok(Bandwidth::from_mbps(mbps)),
        _ => Err(CliError::usage(format!(
            "bad capacity {token:?}: need a positive number of Mb/s"
        ))),
    }
}

fn cmd_generate(args: &[String]) -> CliResult {
    let [kind, mbps, seed] = args else {
        return Err(CliError::usage(
            "generate needs <he|abilene> <capacity_mbps> <seed>",
        ));
    };
    let cap = parse_capacity_mbps(mbps)?;
    let seed: u64 = seed
        .parse()
        .map_err(|e| CliError::usage(format!("bad seed: {e}")))?;
    let topo = match kind.as_str() {
        "he" => generators::he_core(cap),
        "abilene" => generators::abilene(cap),
        other => return Err(CliError::usage(format!("unknown topology kind {other:?}"))),
    };
    let tm = workload::generate(&topo, &WorkloadConfig::default(), seed);
    let base = format!("{}-s{seed}", topo.name());
    write_file(&format!("{base}.topo"), &topo_format::serialize(&topo))?;
    write_file(&format!("{base}.tm"), &tm_format::serialize(&tm, &topo))?;
    println!("wrote {base}.topo and {base}.tm ({} aggregates)", tm.len());
    Ok(())
}

fn cmd_evaluate(args: &[String]) -> CliResult {
    let [topo_path, tm_path] = args else {
        return Err(CliError::usage("evaluate needs <file.topo> <file.tm>"));
    };
    let (topo, tm) = load(topo_path, tm_path)?;
    println!("{}", topo.summary());
    println!(
        "{} aggregates, {} flows, demand {}",
        tm.len(),
        tm.total_flows(),
        tm.total_demand()
    );
    let sp = baselines::shortest_path(&topo, &tm);
    println!(
        "shortest-path: utility {:.4}, {} congested links, {} starved bundles",
        sp.report.network_utility,
        sp.outcome.congested.len(),
        sp.outcome.congested_bundle_count()
    );
    for &l in sp.outcome.congested.iter().take(10) {
        println!(
            "  {:<28} oversub {:.3}",
            topo.link_label(l),
            sp.outcome.oversubscription(l)
        );
    }
    Ok(())
}

fn cmd_optimize(args: &[String]) -> CliResult {
    if args.len() < 2 {
        return Err(CliError::usage("optimize needs <file.topo> <file.tm>"));
    }
    let (topo, tm) = load(&args[0], &args[1])?;
    let mut cfg = OptimizerConfig::default();
    let mut trace_path: Option<String> = None;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--minmax" => cfg.objective = Objective::MinMaxUtilization,
            "--trace" => {
                i += 1;
                trace_path = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::usage("--trace needs a file"))?
                        .clone(),
                );
            }
            other => return Err(CliError::usage(format!("unknown flag {other:?}"))),
        }
        i += 1;
    }

    let result = Optimizer::new(&topo, &tm, cfg).run();
    let initial = result.trace.initial().unwrap();
    let last = result.trace.last().unwrap();
    println!(
        "utility {:.4} -> {:.4} in {} moves / {:.1}s ({:?}); congested links {} -> {}",
        initial.network_utility,
        last.network_utility,
        result.commits,
        last.elapsed.as_secs_f64(),
        result.termination,
        initial.congested_links,
        last.congested_links
    );
    if let Some(path) = trace_path {
        write_file(&path, &result.trace.to_csv())?;
        println!("trace written to {path}");
    }
    println!("# computed splits (aggregate, flows, path)");
    for a in tm.iter() {
        let ps = result.allocation.path_set(a.id);
        for (idx, p) in ps.iter().enumerate() {
            let flows = result.allocation.flows_on(a.id, idx);
            if flows == 0 {
                continue;
            }
            let hops: Vec<&str> = p.nodes().iter().map(|&n| topo.node_name(n)).collect();
            println!(
                "split {} {} {} {}",
                topo.node_name(a.ingress),
                topo.node_name(a.egress),
                flows,
                hops.join("->")
            );
        }
    }
    Ok(())
}

/// Loads a topology by catalog name or from a `.topo` file.
fn load_topology(what: &str) -> Result<Topology, CliError> {
    if let Some(t) = topo_catalog::load(what) {
        return Ok(t);
    }
    if std::path::Path::new(what).exists() {
        let text = read_file(what)?;
        return topo_format::parse(&text).map_err(|e| CliError::data(format!("{what}: {e}")));
    }
    if let Some(text) = topo_catalog::find(what) {
        return topo_format::parse(text).map_err(|e| CliError::data(format!("{what}: {e}")));
    }
    Err(CliError::not_found(format!(
        "{what:?} is neither a bundled topology ({}) nor a .topo file",
        topo_catalog::names().join(", ")
    )))
}

fn cmd_topology(args: &[String]) -> CliResult {
    let Some(sub) = args.first() else {
        return Err(CliError::usage(
            "topology needs a subcommand: list, show, export, or validate",
        ));
    };
    match sub.as_str() {
        "list" => {
            for name in topo_catalog::names() {
                let t = topo_catalog::load(name).expect("catalog names load");
                println!("{}", t.summary());
            }
            Ok(())
        }
        "show" => {
            let [what] = &args[1..] else {
                return Err(CliError::usage("show needs <name|file.topo>"));
            };
            print!("{}", topo_format::serialize(&load_topology(what)?));
            Ok(())
        }
        "export" => {
            let (kind, mbps, out) = match &args[1..] {
                [kind, mbps] => (kind, mbps, None),
                [kind, mbps, out] => (kind, mbps, Some(out.clone())),
                _ => {
                    return Err(CliError::usage(
                        "export needs <he|abilene|hypergrowth|planetary> <capacity_mbps> \
                         [out.topo]",
                    ))
                }
            };
            let cap = parse_capacity_mbps(mbps)?;
            let topo = match kind.as_str() {
                "he" => generators::he_core(cap),
                "abilene" => generators::abilene(cap),
                "hypergrowth" => generators::hypergrowth(8, 8, cap),
                "planetary" => generators::planetary(16, 16, cap),
                other => return Err(CliError::usage(format!("unknown topology kind {other:?}"))),
            };
            let out = out.unwrap_or_else(|| format!("{}.topo", topo.name()));
            write_file(&out, &topo_format::serialize(&topo))?;
            println!("wrote {out} ({})", topo.summary());
            Ok(())
        }
        "validate" => {
            if args.len() < 2 {
                return Err(CliError::usage(
                    "validate needs at least one <name|file.topo>",
                ));
            }
            for what in &args[1..] {
                let t = load_topology(what)?;
                if !t.is_connected() {
                    return Err(CliError::data(format!("{what}: not strongly connected")));
                }
                // The round-trip invariant, proven on the actual artifact:
                // parse(serialize(t)) must be bitwise-identical (names,
                // coordinates, capacities, delays, link structure), and
                // the canonical serialization must be a fixed point.
                let text = topo_format::serialize(&t);
                let back = topo_format::parse(&text).map_err(|e| {
                    CliError::data(format!("{what}: canonical form failed to reparse: {e}"))
                })?;
                if back != t {
                    return Err(CliError::data(format!(
                        "{what}: serialize∘parse round trip is not bitwise-exact"
                    )));
                }
                if topo_format::serialize(&back) != text {
                    return Err(CliError::data(format!(
                        "{what}: canonical serialization is not a fixed point"
                    )));
                }
                println!("ok {what}: {} (round trip bitwise-exact)", t.summary());
            }
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown topology subcommand {other:?}"
        ))),
    }
}

/// Loads a scenario by catalog name or from a spec file. For file
/// specs, also returns the `.scn` file's directory so `topology file`
/// paths inside it resolve relative to the spec, not the working
/// directory.
fn load_scenario(what: &str) -> Result<(Scenario, Option<std::path::PathBuf>), CliError> {
    if let Some(s) = catalog::load(what) {
        return Ok((s, None));
    }
    let path = std::path::Path::new(what);
    if path.exists() {
        let text = read_file(what)?;
        let s = Scenario::parse(&text).map_err(|e| CliError::data(format!("{what}: {e}")))?;
        return Ok((s, path.parent().map(|p| p.to_path_buf())));
    }
    Err(CliError::not_found(format!(
        "{what:?} is neither a bundled scenario ({}) nor a spec file",
        catalog::names().join(", ")
    )))
}

fn cmd_scenario_run(args: &[String]) -> CliResult {
    if args.len() < 2 {
        return Err(CliError::usage(
            "run needs <name|file.scn> [--seed N] [--out file] [--oracle full] [--stats]",
        ));
    }
    let (spec, base) = load_scenario(&args[1])?;
    let mut seed = spec.seed;
    let mut out: Option<String> = None;
    let mut stats = false;
    let mut options = fubar::scenario::RunOptions {
        base,
        ..Default::default()
    };
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => stats = true,
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .ok_or_else(|| CliError::usage("--seed needs a value"))?
                    .parse()
                    .map_err(|e| CliError::usage(format!("bad seed: {e}")))?;
            }
            "--out" => {
                i += 1;
                out = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::usage("--out needs a file"))?
                        .clone(),
                );
            }
            "--oracle" => {
                i += 1;
                // The default incremental path has no spelling here:
                // the flag only ever selects the one oracle.
                match args.get(i).map(String::as_str) {
                    Some("full") => options.full_recompute = true,
                    other => {
                        return Err(CliError::usage(format!(
                            "--oracle takes full, not {other:?}"
                        )))
                    }
                }
            }
            other => return Err(CliError::usage(format!("unknown flag {other:?}"))),
        }
        i += 1;
    }
    let (log, run_stats) =
        fubar::scenario::run(&spec, seed, &options).map_err(|e| CliError::data(e.to_string()))?;
    match out {
        Some(path) => {
            write_file(&path, &log.to_text())?;
            println!("log written to {path}");
        }
        None => print!("{}", log.to_text()),
    }
    eprintln!("{}", log.summary());
    if stats {
        eprintln!("{}", run_stats.render());
    }
    Ok(())
}

fn cmd_scenario_search(args: &[String]) -> CliResult {
    if args.len() < 2 {
        return Err(CliError::usage(
            "search needs <name|file.scn> [--seed N] [--candidates K] [--name NAME] \
             [--out file.scn] [--check file.scn] [--smoke]",
        ));
    }
    let (mut spec, base) = load_scenario(&args[1])?;
    let mut seed: u64 = 1;
    let mut candidates: usize = 24;
    let mut name: Option<String> = None;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut smoke = false;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .ok_or_else(|| CliError::usage("--seed needs a value"))?
                    .parse()
                    .map_err(|e| CliError::usage(format!("bad seed: {e}")))?;
            }
            "--candidates" => {
                i += 1;
                candidates = args
                    .get(i)
                    .ok_or_else(|| CliError::usage("--candidates needs a count"))?
                    .parse()
                    .map_err(|e| CliError::usage(format!("bad --candidates: {e}")))?;
                if candidates == 0 {
                    return Err(CliError::usage("--candidates must be >= 1"));
                }
            }
            "--name" => {
                i += 1;
                name = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::usage("--name needs a value"))?
                        .clone(),
                );
            }
            "--out" => {
                i += 1;
                out = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::usage("--out needs a file"))?
                        .clone(),
                );
            }
            "--check" => {
                i += 1;
                check = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::usage("--check needs a file"))?
                        .clone(),
                );
            }
            other => return Err(CliError::usage(format!("unknown flag {other:?}"))),
        }
        i += 1;
    }
    if smoke {
        // Bounded pipeline check: few candidates, short runs. Still
        // fully deterministic — just cheap enough for every CI push.
        candidates = candidates.min(3);
        let cap = fubar::topology::Delay::from_secs(60.0);
        if spec.duration > cap {
            spec.duration = cap;
        }
    }
    let name = name.unwrap_or_else(|| format!("{}_worst", spec.name));
    let outcome = fubar::scenario::search(&spec, &name, seed, candidates, base.as_deref())
        .map_err(|e| CliError::data(e.to_string()))?;
    eprintln!(
        "search: {} candidates over {:?}, winner #{} score {:.4} (base {:.4})",
        outcome.scores.len(),
        spec.name,
        outcome.candidate,
        outcome.score,
        outcome.scores[0]
    );
    if let Some(path) = &check {
        let text = read_file(path)?;
        let committed =
            Scenario::parse(&text).map_err(|e| CliError::data(format!("{path}: {e}")))?;
        if committed != outcome.scenario {
            return Err(CliError::data(format!(
                "{path}: committed spec does not match the search winner for \
                 --seed {seed} --candidates {candidates}"
            )));
        }
        println!(
            "ok {path}: search re-finds the committed worst case (candidate #{}, score {:.4})",
            outcome.candidate, outcome.score
        );
        return Ok(());
    }
    match out {
        Some(path) => {
            write_file(&path, &outcome.scenario.to_string())?;
            println!("worst case written to {path}");
        }
        None => print!("{}", outcome.scenario),
    }
    Ok(())
}

fn cmd_scenario(args: &[String]) -> CliResult {
    let Some(sub) = args.first() else {
        return Err(CliError::usage(
            "scenario needs a subcommand: list, show, run, or search",
        ));
    };
    match sub.as_str() {
        "list" => {
            for name in catalog::names() {
                let s = catalog::load(name).expect("catalog names load");
                println!(
                    "{name:<20} {:>4} events/timeline, duration {}, seed {}",
                    s.timeline.len(),
                    s.duration,
                    s.seed
                );
            }
            Ok(())
        }
        "show" => {
            let [what] = &args[1..] else {
                return Err(CliError::usage("show needs <name|file.scn>"));
            };
            print!("{}", load_scenario(what)?.0);
            Ok(())
        }
        "run" => cmd_scenario_run(args),
        "search" => cmd_scenario_search(args),
        other => Err(CliError::usage(format!(
            "unknown scenario subcommand {other:?}"
        ))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&args[1..]),
        "evaluate" => cmd_evaluate(&args[1..]),
        "optimize" => cmd_optimize(&args[1..]),
        "topology" => cmd_topology(&args[1..]),
        "scenario" => cmd_scenario(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}
