//! `fubar-cli` integration tests: every failure class exits with its
//! own distinct code and a one-line `error: ...` diagnostic, so shell
//! scripts and CI can branch on what went wrong without scraping
//! stderr. The contract (sysexits-flavored):
//!
//! * `0`  — success
//! * `2`  — usage errors: bad arity, unknown flags/subcommands
//! * `65` — data errors: parse/validation failures, failed `--check`
//! * `66` — unknown catalog names, missing input files
//! * `74` — I/O failures on files that should be writable

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fubar-cli"))
        .args(args)
        .output()
        .expect("fubar-cli must spawn")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no exit code (signal?)")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[track_caller]
fn assert_one_line_error(out: &Output) {
    let err = stderr(out);
    assert!(
        err.lines().any(|l| l.starts_with("error: ")),
        "expected a one-line `error: ...` diagnostic, got:\n{err}"
    );
}

#[test]
fn no_arguments_is_a_usage_error() {
    let out = cli(&[]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
}

#[test]
fn unknown_flags_and_subcommands_exit_2() {
    for args in [
        &["scenario", "frobnicate"][..],
        &["topology", "frobnicate"][..],
        &["scenario", "run", "flash_crowd", "--bogus"][..],
        &["scenario", "search", "flash_crowd", "--candidates", "0"][..],
        &["generate", "he", "not-a-number", "1"][..],
        &["generate", "abilene", "0", "1"][..],
        &["topology", "export", "he", "1e308"][..],
    ] {
        let out = cli(args);
        assert_eq!(code(&out), 2, "{args:?}: {}", stderr(&out));
        assert_one_line_error(&out);
    }
}

/// The sharded/flat oracle names and the pass flags are gone with the
/// modes they selected; scripts still passing them must fail loudly,
/// not silently run the default.
#[test]
fn removed_run_modes_exit_2() {
    for mode in [
        &["--oracle", "flat"][..],
        &["--oracle", "sharded"][..],
        &["--parallel-passes"][..],
        &["--pass-threads", "2"][..],
        &["--fill-threads", "4"][..],
    ] {
        let out = cli(&[&["scenario", "run", "flash_crowd"], mode].concat());
        assert_eq!(code(&out), 2, "{mode:?}: {}", stderr(&out));
        assert_one_line_error(&out);
    }
}

#[test]
fn unknown_names_and_missing_files_exit_66() {
    for args in [
        &["scenario", "show", "no_such_scenario"][..],
        &["topology", "show", "no_such_topology"][..],
        &["evaluate", "/definitely/not/here.topo", "/nor/this.tm"][..],
    ] {
        let out = cli(args);
        assert_eq!(code(&out), 66, "{args:?}: {}", stderr(&out));
        assert_one_line_error(&out);
    }
}

#[test]
fn parse_errors_exit_65() {
    let dir = std::env::temp_dir();
    let scn = dir.join("fubar_cli_test_corrupt.scn");
    let topo = dir.join("fubar_cli_test_corrupt.topo");
    std::fs::write(&scn, "scenario broken\nduration -5s\n").unwrap();
    std::fs::write(&topo, "topology broken\nnode a\nlink a a 1e308Gbps 2ms\n").unwrap();
    // Parses as a number, overflows the Poisson mean: must be refused
    // here, not abort the sampler mid-run.
    let overflow = dir.join("fubar_cli_test_overflow.scn");
    std::fs::write(
        &overflow,
        "scenario big\ntopology ring 5 600kbps 2ms\narrivals rate 1e308\n",
    )
    .unwrap();
    for args in [
        &["scenario", "show", scn.to_str().unwrap()][..],
        &["topology", "validate", topo.to_str().unwrap()][..],
        &["scenario", "run", overflow.to_str().unwrap()][..],
    ] {
        let out = cli(args);
        assert_eq!(code(&out), 65, "{args:?}: {}", stderr(&out));
        assert_one_line_error(&out);
    }
    // Periods too short for the run to finish: parsed, never run.
    for line in [
        "epoch 1us",
        "failures shape 1 scale 1e-9s repair-shape 1 repair-scale 1s",
    ] {
        std::fs::write(&scn, format!("scenario short\n{line}\n")).unwrap();
        let out = cli(&["scenario", "show", scn.to_str().unwrap()]);
        assert_eq!(code(&out), 65, "{line:?}: {}", stderr(&out));
        assert!(stderr(&out).starts_with("error: ") && stderr(&out).contains("line 2:"));
    }
    // A zero capacity parses as a bandwidth; the generators and the
    // fabric assert against it, so the spec parser must refuse it.
    for line in [
        "at 5s capacity n0 n1 0bps",
        "topology ring 6 0bps 2ms",
        "topology he 0bps",
        "topology abilene 0bps",
        "topology hypergrowth 0bps",
        "topology planetary 0bps",
    ] {
        std::fs::write(&scn, format!("scenario zero\n{line}\n")).unwrap();
        let out = cli(&["scenario", "run", scn.to_str().unwrap()]);
        assert_eq!(code(&out), 65, "{line:?}: {}", stderr(&out));
        assert_one_line_error(&out);
    }
    // A large peak that is finite in Mb/s but not in bits per second.
    let tm = dir.join("fubar_cli_test_overflow.tm");
    std::fs::write(&topo, "topology t\nnode a\nnode b\nlink a b 1Mbps 2ms\n").unwrap();
    std::fs::write(&tm, "aggregate a b large:1e308 5\n").unwrap();
    let out = cli(&["optimize", topo.to_str().unwrap(), tm.to_str().unwrap()]);
    assert_eq!(code(&out), 65, "{}", stderr(&out));
    assert_one_line_error(&out);
    // A finite priority weight whose flows × priority product overflows
    // the objective's sums (the utility would print as NaN).
    std::fs::write(&tm, "# tm\naggregate a b large:2 4 priority 1e308\n").unwrap();
    let out = cli(&["evaluate", topo.to_str().unwrap(), tm.to_str().unwrap()]);
    assert_eq!(code(&out), 65, "{}", stderr(&out));
    assert_one_line_error(&out);
    assert!(stderr(&out).contains("line 2:"), "{}", stderr(&out));
    std::fs::write(
        &scn,
        "scenario heavy\ntopology ring 5 600kbps 2ms\nlarge-priority 1e308\n",
    )
    .unwrap();
    let out = cli(&["scenario", "run", scn.to_str().unwrap()]);
    assert_eq!(code(&out), 65, "{}", stderr(&out));
    assert_one_line_error(&out);
    assert!(stderr(&out).contains("line 3:"), "{}", stderr(&out));
    let _ = std::fs::remove_file(scn);
    let _ = std::fs::remove_file(topo);
    let _ = std::fs::remove_file(overflow);
    let _ = std::fs::remove_file(tm);
}

#[test]
fn unwritable_output_exits_74() {
    let out = cli(&[
        "scenario",
        "run",
        "flash_crowd",
        "--out",
        "/definitely/not/a/dir/log.txt",
    ]);
    assert_eq!(code(&out), 74, "{}", stderr(&out));
    assert_one_line_error(&out);
}

#[test]
fn success_paths_exit_0_and_round_trip() {
    let out = cli(&["scenario", "show", "chaos_blackout"]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        text.contains("controller blackout 119s 207s"),
        "canonical spec must carry the chaos stanza:\n{text}"
    );
    // What `show` prints is the canonical form: showing it again from a
    // file yields the identical bytes.
    let dir = std::env::temp_dir();
    let path = dir.join("fubar_cli_test_roundtrip.scn");
    std::fs::write(&path, &text).unwrap();
    let again = cli(&["scenario", "show", path.to_str().unwrap()]);
    assert_eq!(code(&again), 0);
    assert_eq!(
        text.as_bytes(),
        &again.stdout[..],
        "canonical serialization must be a fixed point"
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn search_check_mismatch_exits_65() {
    // A tiny base keeps the search cheap in debug CI; the committed
    // spec under --check is just a different scenario, so the check
    // must fail with a data error.
    let dir = std::env::temp_dir();
    let base = dir.join("fubar_cli_test_search_base.scn");
    let committed = dir.join("fubar_cli_test_search_committed.scn");
    std::fs::write(
        &base,
        "scenario tiny\n\
         topology ring 4 600kbps 2ms\n\
         duration 40s\n\
         epoch 10s\n\
         seed 3\n\
         workload flows 2 4\n\
         reoptimize every 20s warmup 10s\n",
    )
    .unwrap();
    std::fs::write(
        &committed,
        "scenario tiny_worst\n\
         topology ring 4 600kbps 2ms\n\
         duration 40s\n\
         epoch 10s\n\
         seed 3\n\
         workload flows 2 4\n\
         reoptimize every 20s warmup 10s\n\
         optimize budget 1\n",
    )
    .unwrap();
    let out = cli(&[
        "scenario",
        "search",
        base.to_str().unwrap(),
        "--seed",
        "1",
        "--candidates",
        "1",
        "--name",
        "tiny_worst",
        "--check",
        committed.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 65, "{}", stderr(&out));
    assert_one_line_error(&out);
    let _ = std::fs::remove_file(base);
    let _ = std::fs::remove_file(committed);
}
