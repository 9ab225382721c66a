//! The invariant-ledger conformance checker (`fubar-lint ledger`).
//!
//! `ARCHITECTURE.md` carries the repo's invariant ledger: a table whose
//! third column names, in free text, the exact test or CI step that
//! enforces each bitwise invariant. Free text rots: a renamed proptest
//! or a reworded CI step silently turns a ledger row into fiction. This
//! module cross-checks every citation against the tree:
//!
//! * backticked **test/function names** (snake_case) must exist as
//!   `fn <name>` in some non-vendor `.rs` file (a trailing `*` makes it
//!   a prefix match), or be a committed scenario/topology/binary stem;
//! * backticked **file paths** must exist;
//! * backticked **CI step references** (multi-word phrases, job names)
//!   must appear verbatim in `.github/workflows/ci.yml`;
//! * every committed `scenarios/*.scn` must be embedded in the scenario
//!   catalog (which the CI replay loop iterates via `scenario list`),
//!   and every `topologies/*.topo` must be embedded in the topology
//!   catalog and covered by the CI validate step — so a committed
//!   artifact can never silently drop out of the replay loop.

use crate::walk::walk_rs_files;
use crate::{Finding, LintError, Severity};
use std::path::Path;

/// How a backticked ledger token is checked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenClass {
    /// `fn <name>` (or scenario/topology/file-stem) must exist;
    /// `true` = prefix match (trailing `*`).
    TestName(String, bool),
    /// The path must exist under the repo root.
    FilePath(String),
    /// The phrase must appear verbatim in `ci.yml`.
    CiStep(String),
    /// Flags, type names, `::` paths, shell fragments: not checkable.
    Ignored,
}

/// Classifies one backticked token from the ledger section.
pub fn classify_token(tok: &str) -> TokenClass {
    let t = tok.trim();
    if t.is_empty() || t.starts_with('-') || t.starts_with('{') {
        return TokenClass::Ignored;
    }
    if t.contains(char::is_whitespace) {
        // Shell fragments with env assignments or quotes span multiple
        // ci.yml lines and cannot be substring-checked; `key: value`
        // phrases are config/code excerpts, not step names.
        if t.contains('=') || t.contains('"') || t.contains(':') {
            return TokenClass::Ignored;
        }
        return TokenClass::CiStep(t.to_string());
    }
    if t.contains("::") {
        return TokenClass::Ignored;
    }
    if t.contains('/') {
        return TokenClass::FilePath(t.to_string());
    }
    if t.starts_with('.') {
        // Bare extensions like `.topo`.
        return TokenClass::Ignored;
    }
    // Single capitalized word (`Docs`) = a CI step name; anything with
    // an interior capital (`ChaosSpec`) is a type name.
    let mut chars = t.chars();
    if chars.next().is_some_and(|c| c.is_ascii_uppercase()) {
        if t.len() > 1 && chars.all(|c| c.is_ascii_lowercase()) {
            return TokenClass::CiStep(t.to_string());
        }
        return TokenClass::Ignored;
    }
    // Lowercase hyphenated names (`perf-gate`, `fubar-cli`) are CI/job
    // references.
    if t.contains('-') && t.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
        return TokenClass::CiStep(t.to_string());
    }
    // snake_case identifiers with an underscore are test names; short
    // plain words (`cmp`, `planetary`) are prose.
    let (name, prefix) = match t.strip_suffix('*') {
        Some(p) => (p, true),
        None => (t, false),
    };
    if name.contains('_')
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return TokenClass::TestName(name.to_string(), prefix);
    }
    TokenClass::Ignored
}

/// Extracts backticked tokens from a chunk of markdown.
fn backticked(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        match after.find('`') {
            Some(close) => {
                out.push(after[..close].to_string());
                rest = &after[close + 1..];
            }
            None => break,
        }
    }
    out
}

/// The relevant lines of the `## Invariant ledger` section, each paired
/// with its 1-based line number and the text to scan (whole line for
/// prose, third cell only for table rows — the "enforced by" column).
fn ledger_lines(arch: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (idx, line) in arch.lines().enumerate() {
        let lineno = idx as u32 + 1;
        if line.starts_with("## ") {
            in_section = line.trim() == "## Invariant ledger";
            continue;
        }
        if !in_section {
            continue;
        }
        let trimmed = line.trim_start();
        if let Some(row) = trimmed.strip_prefix('|') {
            let cells: Vec<&str> = row.split('|').collect();
            if cells.len() >= 3 {
                let third = cells[2].trim();
                if third == "enforced by" || third.chars().all(|c| c == '-' || c == ' ') {
                    continue; // header and separator rows
                }
                out.push((lineno, third.to_string()));
            }
        } else {
            out.push((lineno, line.to_string()));
        }
    }
    out
}

/// Runs the full conformance check. `root` is the repo root.
pub fn check(root: &Path) -> Result<Vec<Finding>, LintError> {
    let arch_path = root.join("ARCHITECTURE.md");
    let ci_path = root.join(".github/workflows/ci.yml");
    let arch = std::fs::read_to_string(&arch_path)
        .map_err(|e| LintError::Io(format!("{}: {e}", arch_path.display())))?;
    let ci = std::fs::read_to_string(&ci_path)
        .map_err(|e| LintError::Io(format!("{}: {e}", ci_path.display())))?;
    let sources = walk_rs_files(root)?;

    let mut findings = Vec::new();
    let lines = ledger_lines(&arch);
    if lines.is_empty() {
        findings.push(Finding {
            rule: "ledger-missing-section",
            severity: Severity::Error,
            file: "ARCHITECTURE.md".into(),
            line: 1,
            col: 1,
            message: "no `## Invariant ledger` section found".into(),
        });
        return Ok(findings);
    }

    for (lineno, text) in &lines {
        for tok in backticked(text) {
            match classify_token(&tok) {
                TokenClass::Ignored => {}
                TokenClass::FilePath(p) => {
                    if !root.join(&p).exists() {
                        findings.push(Finding {
                            rule: "ledger-missing-file",
                            severity: Severity::Error,
                            file: "ARCHITECTURE.md".into(),
                            line: *lineno,
                            col: 1,
                            message: format!(
                                "ledger cites `{p}`, which does not exist in the tree"
                            ),
                        });
                    }
                }
                TokenClass::CiStep(s) => {
                    if !ci.contains(&s) {
                        findings.push(Finding {
                            rule: "ledger-missing-ci-step",
                            severity: Severity::Error,
                            file: "ARCHITECTURE.md".into(),
                            line: *lineno,
                            col: 1,
                            message: format!(
                                "ledger cites CI step/phrase `{s}`, not found in \
                                 .github/workflows/ci.yml"
                            ),
                        });
                    }
                }
                TokenClass::TestName(name, prefix) => {
                    if !test_name_resolves(&name, prefix, &sources, root) {
                        findings.push(Finding {
                            rule: "ledger-missing-test",
                            severity: Severity::Error,
                            file: "ARCHITECTURE.md".into(),
                            line: *lineno,
                            col: 1,
                            message: format!(
                                "ledger cites `{name}{}`, but no `fn {name}` (nor a \
                                 matching scenario/topology/binary) exists in the tree",
                                if prefix { "*" } else { "" }
                            ),
                        });
                    }
                }
            }
        }
    }

    findings.extend(catalog_coverage(root, &ci)?);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(findings)
}

/// A snake_case ledger citation resolves when a matching `fn` exists in
/// any non-vendor `.rs` file, or a committed scenario/topology carries
/// the name, or an `.rs` file stem matches (binaries like `fig3_provisioned`).
fn test_name_resolves(name: &str, prefix: bool, sources: &[(String, String)], root: &Path) -> bool {
    let needle = format!("fn {name}");
    for (rel, src) in sources {
        if src.contains(&needle) {
            // Exact match needs a non-ident char after the name (so
            // `fn foo` does not satisfy a citation of `fn fo`).
            if prefix {
                return true;
            }
            let mut at = 0usize;
            while let Some(found) = src[at..].find(&needle) {
                let end = at + found + needle.len();
                match src[end..].chars().next() {
                    Some(c) if c.is_alphanumeric() || c == '_' => at = end,
                    _ => return true,
                }
            }
        }
        let stem = Path::new(rel)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("");
        if (prefix && stem.starts_with(name)) || (!prefix && stem == name) {
            return true;
        }
    }
    if !prefix {
        if root.join(format!("scenarios/{name}.scn")).exists() {
            return true;
        }
        if root.join(format!("topologies/{name}.topo")).exists() {
            return true;
        }
    }
    false
}

/// Every committed catalog artifact must be wired into the replay loop:
/// `.scn` files into the scenario catalog (iterated by the CI replay's
/// `scenario list`), `.topo` files into the topology catalog and the
/// validate step.
fn catalog_coverage(root: &Path, ci: &str) -> Result<Vec<Finding>, LintError> {
    let mut findings = Vec::new();
    let scn_catalog =
        std::fs::read_to_string(root.join("crates/scenario/src/catalog.rs")).unwrap_or_default();
    let topo_catalog =
        std::fs::read_to_string(root.join("crates/topology/src/catalog.rs")).unwrap_or_default();
    let ci_replays_catalog = ci.contains("scenario list");
    let ci_validates_topologies =
        ci.contains("topologies/*.topo") || ci.contains("topology validate");

    for (dir, ext, catalog, rule, covered_by_ci) in [
        (
            "scenarios",
            "scn",
            &scn_catalog,
            "catalog-unreferenced-scenario",
            ci_replays_catalog,
        ),
        (
            "topologies",
            "topo",
            &topo_catalog,
            "catalog-unreferenced-topology",
            ci_validates_topologies,
        ),
    ] {
        let mut stems: Vec<String> = Vec::new();
        let dir_path = root.join(dir);
        if let Ok(entries) = std::fs::read_dir(&dir_path) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) == Some(ext) {
                    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                        stems.push(stem.to_string());
                    }
                }
            }
        }
        stems.sort();
        for stem in stems {
            let rel = format!("{dir}/{stem}.{ext}");
            let embedded = catalog.contains(&rel);
            let in_ci = covered_by_ci || ci.contains(&rel) || ci.contains(&stem);
            if !embedded || !in_ci {
                findings.push(Finding {
                    rule,
                    severity: Severity::Error,
                    file: rel.clone(),
                    line: 1,
                    col: 1,
                    message: if !embedded {
                        format!(
                            "{rel} is committed but not embedded in the \
                             {dir} catalog — it would silently drop out of the \
                             CI replay loop"
                        )
                    } else {
                        format!("{rel} is not exercised by any CI step")
                    },
                });
            }
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_the_ledger_idiom() {
        use TokenClass::*;
        assert_eq!(
            classify_token("same_seed_replay_is_byte_identical"),
            TestName("same_seed_replay_is_byte_identical".into(), false)
        );
        assert_eq!(
            classify_token("incremental_run_matches_oracle*"),
            TestName("incremental_run_matches_oracle".into(), true)
        );
        assert_eq!(
            classify_token("crates/core/tests/properties.rs"),
            FilePath("crates/core/tests/properties.rs".into())
        );
        assert_eq!(
            classify_token("Scenario replay determinism + oracle cross-check"),
            CiStep("Scenario replay determinism + oracle cross-check".into())
        );
        assert_eq!(classify_token("perf-gate"), CiStep("perf-gate".into()));
        assert_eq!(
            classify_token("fubar-cli topology validate"),
            CiStep("fubar-cli topology validate".into())
        );
        assert_eq!(classify_token("Docs"), CiStep("Docs".into()));
        // Not checkable: flags, type names, paths with ::, extensions,
        // shell fragments, short prose words.
        assert_eq!(classify_token("--oracle full"), Ignored);
        assert_eq!(classify_token("{fill 4, pass 4}"), Ignored);
        assert_eq!(classify_token("ChaosSpec"), Ignored);
        assert_eq!(classify_token("RunTrace::is_monotone"), Ignored);
        assert_eq!(classify_token(".topo"), Ignored);
        assert_eq!(classify_token("incremental: false"), Ignored);
        assert_eq!(classify_token("cmp"), Ignored);
        assert_eq!(classify_token("planetary"), Ignored);
        assert_eq!(
            classify_token(r#"RUSTDOCFLAGS="-D warnings" cargo doc"#),
            Ignored
        );
        // Scenario names with underscores resolve via scenarios/.
        assert_eq!(
            classify_token("chaos_blackout"),
            TestName("chaos_blackout".into(), false)
        );
    }

    #[test]
    fn ledger_lines_scope_to_the_section_and_third_column() {
        let arch = "\
# Architecture\n\
`outside_token_one`\n\
## Invariant ledger\n\
preamble cites `Some Step Name` here\n\
| invariant | statement | enforced by |\n\
|---|---|---|\n\
| a | `stmt_token` ignored | `cited_test_name` |\n\
## Next section\n\
`outside_token_two`\n";
        let lines = ledger_lines(arch);
        let all: String = lines
            .iter()
            .map(|(_, t)| t.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(all.contains("Some Step Name"));
        assert!(all.contains("cited_test_name"));
        assert!(!all.contains("stmt_token"), "{all}");
        assert!(!all.contains("outside_token_one"));
        assert!(!all.contains("outside_token_two"));
    }

    #[test]
    fn backticked_extraction() {
        assert_eq!(
            backticked("a `b` c `d e` f"),
            vec!["b".to_string(), "d e".to_string()]
        );
        assert!(backticked("no ticks").is_empty());
        assert_eq!(backticked("odd `tick"), Vec::<String>::new());
    }
}
