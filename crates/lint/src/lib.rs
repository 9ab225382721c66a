//! # fubar-lint
//!
//! The workspace determinism linter and invariant-ledger conformance
//! checker. Every PR since the incremental-measurement work has staked
//! this repo on one property — *incremental ≡ oracle, indexed gather ≡
//! scan, any thread count ≡ one thread, bitwise* — and this crate is
//! the machine that keeps convention from being the only thing guarding
//! it.
//!
//! Two passes, exposed as the `fubar-lint` binary:
//!
//! * [`check_workspace`] — a static-analysis pass over all non-vendor
//!   workspace sources. A hand-rolled [`lexer`] (the build environment
//!   is offline: no `syn`) feeds a [`rules`] engine that flags hash-map
//!   iteration order, wall-clock reads, thread identity, ambient RNG,
//!   environment reads, and hash-ordered float accumulation in the
//!   deterministic crates, with justified inline
//!   `// lint:allow(<rule>): <why>` suppressions.
//! * [`check_ledger`] — parses `ARCHITECTURE.md`'s invariant-ledger
//!   table and verifies every cited test exists in the tree, every
//!   cited CI step exists in `.github/workflows/ci.yml`, and every
//!   committed `scenarios/*.scn` / `topologies/*.topo` is wired into
//!   the CI replay loop.
//!
//! Diagnostics come out human-readable (`file:line:col: severity[rule]:
//! message`) or machine-readable (`--format json`); exit codes follow
//! the CLI's sysexits contract (`0` clean, `65` findings at error
//! severity).

#![forbid(unsafe_code)]

pub mod ledger;
pub mod lexer;
pub mod rules;
mod walk;

use std::fmt;
use std::path::Path;

pub use rules::{analyze_source, classify, FileClass, RULES};
pub use walk::walk_rs_files;

/// How bad a finding is. Errors fail the CI gate; warnings are
/// informational (the unwrap-density report).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails the lint gate.
    Error,
    /// Reported but never fails the gate.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One diagnostic: a rule violation or a conformance failure.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The rule that fired (`hash-iteration`, `ledger-missing-test`, …).
    pub rule: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}[{}]: {}",
            self.file, self.line, self.col, self.severity, self.rule, self.message
        )
    }
}

/// A failure of the lint run itself (not a finding).
#[derive(Clone, Debug)]
pub enum LintError {
    /// The root does not look like the fubar workspace.
    BadRoot(String),
    /// A file the checker needs could not be read.
    Io(String),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::BadRoot(m) => write!(f, "{m}"),
            LintError::Io(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for LintError {}

/// The result of one lint pass.
#[derive(Clone, Debug)]
pub struct Report {
    /// Which pass produced this (`"check"` or `"ledger"`).
    pub mode: &'static str,
    /// All findings, sorted by `(file, line, col, rule)`.
    pub findings: Vec<Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Count of error-severity findings (the gate).
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Count of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// Human-readable diagnostics, one line per finding, plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "fubar-lint {}: {} file(s) scanned, {} error(s), {} warning(s)\n",
            self.mode,
            self.files_scanned,
            self.errors(),
            self.warnings()
        ));
        out
    }

    /// Machine-readable JSON (schema `fubar-lint/1`): findings sorted
    /// deterministically, counts precomputed. Hand-rolled serializer —
    /// the workspace is offline, and the schema is four fields deep.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"fubar-lint/1\",\n");
        out.push_str(&format!("  \"mode\": {},\n", json_str(self.mode)));
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"errors\": {},\n", self.errors()));
        out.push_str(&format!("  \"warnings\": {},\n", self.warnings()));
        out.push_str("  \"findings\": ");
        out.push_str(&findings_json(&self.findings, 2));
        out.push_str("\n}\n");
        out
    }
}

/// Renders a findings array as JSON with the given indent depth (in
/// two-space units). Used by the report and by the fixture goldens.
pub fn findings_json(findings: &[Finding], depth: usize) -> String {
    let pad = "  ".repeat(depth);
    let inner = "  ".repeat(depth + 1);
    if findings.is_empty() {
        return "[]".to_string();
    }
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "{inner}{{\"rule\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \
             \"col\": {}, \"message\": {}}}",
            json_str(f.rule),
            json_str(&f.severity.to_string()),
            json_str(&f.file),
            f.line,
            f.col,
            json_str(&f.message)
        ));
        if i + 1 < findings.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&pad);
    out.push(']');
    out
}

/// JSON string escaping (quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Verifies `root` looks like the workspace this lint understands.
fn validate_root(root: &Path) -> Result<(), LintError> {
    if root.join("Cargo.toml").exists() && root.join("crates").is_dir() {
        Ok(())
    } else {
        Err(LintError::BadRoot(format!(
            "{} does not look like the fubar workspace root \
             (expected Cargo.toml and crates/)",
            root.display()
        )))
    }
}

/// Runs the determinism rules over every non-vendor `.rs` file under
/// `root` and returns the sorted report.
pub fn check_workspace(root: &Path) -> Result<Report, LintError> {
    validate_root(root)?;
    let sources = walk_rs_files(root)?;
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for (rel, src) in &sources {
        let Some(class) = classify(rel) else { continue };
        scanned += 1;
        findings.extend(analyze_source(rel, src, class));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(Report {
        mode: "check",
        findings,
        files_scanned: scanned,
    })
}

/// Runs the invariant-ledger conformance check against `root`.
pub fn check_ledger(root: &Path) -> Result<Report, LintError> {
    validate_root(root)?;
    let findings = ledger::check(root)?;
    Ok(Report {
        mode: "ledger",
        findings,
        files_scanned: 1,
    })
}
