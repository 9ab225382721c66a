//! `fubar-lint` binary integration test: the exit codes follow the
//! `fubar-cli` sysexits contract (`0` clean, `2` usage, `65` findings,
//! `66` missing root, `74` I/O) with a one-line `error: ...` diagnostic.

use std::path::Path;
use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fubar-lint"))
        .args(args)
        .output()
        .expect("fubar-lint must spawn")
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
fn lint_subcommand_honors_the_exit_code_contract() {
    // Clean repo: exit 0 on both passes (workspace.rs asserts the
    // "clean" part; here we assert the binary's plumbing and codes).
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .and_then(Path::to_str)
        .expect("crates/lint sits two levels below the workspace root");
    let out = lint(&["check", "--root", root]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let out = lint(&["ledger", "--root", root]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    // A directory that is not the workspace: not-found (66).
    let out = lint(&["check", "--root", std::env::temp_dir().to_str().unwrap()]);
    assert_eq!(code(&out), 66, "{}", stderr(&out));
    assert_one_line_error(&out);
    // Bad flags: usage (2).
    let out = lint(&["--format", "yaml"]);
    assert_eq!(code(&out), 2, "{}", stderr(&out));
    assert_one_line_error(&out);
    // JSON report lands on disk with the schema header.
    let report = std::env::temp_dir().join("fubar_lint_test_report.json");
    let out = lint(&[
        "ledger",
        "--root",
        root,
        "--format",
        "json",
        "--out",
        report.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"schema\": \"fubar-lint/1\""), "{json}");
    let _ = std::fs::remove_file(report);
}
