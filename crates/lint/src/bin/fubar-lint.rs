//! `fubar-lint` — the workspace determinism linter and invariant-ledger
//! conformance checker, as a standalone binary.
//!
//! ```text
//! fubar-lint [check] [--root DIR] [--format text|json] [--out FILE]
//!     Run the determinism rules over all non-vendor workspace sources.
//!     Exit 0 when clean (warnings allowed), 65 when any error-severity
//!     finding exists.
//!
//! fubar-lint ledger [--root DIR] [--format text|json] [--out FILE]
//!     Cross-check the ARCHITECTURE.md invariant ledger against the
//!     tree and CI, and the scenario/topology catalogs against the
//!     replay loop.
//! ```
//!
//! Exit codes follow the `fubar-cli` sysexits contract: `0` success,
//! `2` usage errors, `65` findings at error severity, `66` missing
//! root/inputs, `74` I/O failures.

use fubar_lint::{check_ledger, check_workspace, LintError, Report};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fubar-lint [check] [--root DIR] [--format text|json] [--out FILE]\n  \
         fubar-lint ledger [--root DIR] [--format text|json] [--out FILE]"
    );
    ExitCode::from(2)
}

fn fail(code: u8, msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(code)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = "check";
    let mut root = PathBuf::from(".");
    let mut format = "text";
    let mut out: Option<String> = None;

    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "check" if i == 0 => mode = "check",
            "ledger" if i == 0 => mode = "ledger",
            "--root" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    return fail(2, "--root needs a directory");
                };
                root = PathBuf::from(dir);
            }
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("text") => format = "text",
                    Some("json") => format = "json",
                    _ => return fail(2, "--format must be text or json"),
                }
            }
            "--out" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    return fail(2, "--out needs a file");
                };
                out = Some(path.clone());
            }
            other => {
                eprintln!("error: unknown argument {other:?}");
                return usage();
            }
        }
        i += 1;
    }

    let report: Result<Report, LintError> = match mode {
        "ledger" => check_ledger(&root),
        _ => check_workspace(&root),
    };
    let report = match report {
        Ok(r) => r,
        Err(LintError::BadRoot(m)) => return fail(66, &m),
        Err(LintError::Io(m)) => return fail(66, &m),
    };

    let rendered = match format {
        "json" => report.to_json(),
        _ => report.render_text(),
    };
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                return fail(74, &format!("{path}: {e}"));
            }
            eprintln!("report written to {path}");
        }
        None => print!("{rendered}"),
    }
    eprintln!(
        "fubar-lint {}: {} error(s), {} warning(s) across {} file(s)",
        report.mode,
        report.errors(),
        report.warnings(),
        report.files_scanned
    );
    if report.errors() > 0 {
        return ExitCode::from(65);
    }
    ExitCode::SUCCESS
}
