//! The determinism rule engine: crate-scoped rules over a token stream.
//!
//! Every rule here guards the repo's signature invariant — *incremental
//! ≡ oracle, indexed gather ≡ scan, any thread count ≡ one thread,
//! bitwise* — against the classic ways Rust code silently breaks it.
//! The rules fire on the *capability* (the type or call that could leak
//! nondeterminism), and a justified `// lint:allow(<rule>): <why>`
//! documents each reviewed exception in place. An allow without a
//! justification is itself an error: it would be a disabled check, not
//! a reviewed one.
//!
//! Rule applicability is crate-scoped: the hot deterministic crates get
//! the strict set, `crates/bench` and test/bench/example files get a
//! relaxed set (ambient RNG and thread identity still banned — they
//! break test reproducibility too), and the CLI crate is exempt from
//! `env-nondeterminism` only (reading the environment is its job).
//! `#[cfg(test)] mod … { }` regions inside library files are relaxed
//! the same way test files are.

use crate::lexer::{lex, AllowDirective, Lexed, Token, TokenKind};
use crate::{Finding, Severity};
use std::collections::{BTreeMap, BTreeSet};

/// Every determinism rule, in documentation order.
pub const RULES: [&str; 7] = [
    "hash-iteration",
    "wall-clock",
    "thread-identity",
    "ambient-rng",
    "env-nondeterminism",
    "float-accumulate-unordered",
    "todo-unwrap-in-lib",
];

/// How a file is treated by the rule engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// A hot deterministic crate (`model`, `core`, `sdn`, `scenario`,
    /// `traffic`, `topology`, `graph`, `utility`, `lint` itself): the
    /// full strict rule set.
    Strict,
    /// The CLI crate (root `src/`): strict minus `env-nondeterminism`
    /// and minus the library unwrap-density report.
    Cli,
    /// Test, bench, example, and fixture files: relaxed — only
    /// `ambient-rng` and `thread-identity` stay on.
    Relaxed,
}

/// Classifies a repo-relative path (forward slashes). `None` means the
/// file is outside the lint's jurisdiction (vendored shims, build
/// artifacts, generated fixtures).
pub fn classify(rel: &str) -> Option<FileClass> {
    let comps: Vec<&str> = rel.split('/').collect();
    if comps
        .iter()
        .any(|c| matches!(*c, "vendor" | "target" | ".git" | "fixtures"))
    {
        return None;
    }
    if comps
        .iter()
        .any(|c| matches!(*c, "tests" | "benches" | "examples"))
    {
        return Some(FileClass::Relaxed);
    }
    if rel.starts_with("crates/bench/") {
        return Some(FileClass::Relaxed);
    }
    if rel.starts_with("src/") {
        return Some(FileClass::Cli);
    }
    Some(FileClass::Strict)
}

/// True when `rule` applies to `class` (ignoring `#[cfg(test)]`
/// regions, which are handled separately).
fn applies(rule: &str, class: FileClass) -> bool {
    match class {
        FileClass::Strict => true,
        FileClass::Cli => rule != "env-nondeterminism" && rule != "todo-unwrap-in-lib",
        FileClass::Relaxed => matches!(rule, "ambient-rng" | "thread-identity"),
    }
}

/// Analyzes one file's source and returns its findings, sorted by
/// position. `rel` is the repo-relative path used in diagnostics.
pub fn analyze_source(rel: &str, src: &str, class: FileClass) -> Vec<Finding> {
    let lexed = lex(src);
    let test_regions = cfg_test_regions(&lexed.tokens);
    let allow_lines = resolve_allow_targets(&lexed);
    let mut findings = directive_findings(rel, &lexed.allows);

    let in_test_region = |line: u32| test_regions.iter().any(|&(a, b)| line >= a && line <= b);
    let active = |rule: &str, line: u32| {
        let effective = if in_test_region(line) {
            FileClass::Relaxed
        } else {
            class
        };
        applies(rule, effective)
    };
    let allowed = |rule: &str, line: u32| {
        allow_lines
            .get(rule)
            .is_some_and(|lines| lines.contains(&line))
    };
    let fire = |findings: &mut Vec<Finding>,
                rule: &'static str,
                severity: Severity,
                tok: &Token,
                message: String| {
        if active(rule, tok.line) && !allowed(rule, tok.line) {
            findings.push(Finding {
                rule,
                severity,
                file: rel.to_string(),
                line: tok.line,
                col: tok.col,
                message,
            });
        }
    };

    // Statement-window state: reset at `;` and `}` (a closing brace
    // ends the enclosing context; an opening brace does not, so a fn
    // signature and its body share one window and grouped imports like
    // `use std::collections::{HashMap, …}` stay one statement). The
    // leading idents spare `use`/`pub use` lines — the import is not
    // the hazard, the iterating use site is.
    let mut stmt_lead: Vec<String> = Vec::new();
    let mut stmt_hash: Option<String> = None;
    let mut unwrap_count = 0usize;
    let mut first_unwrap: Option<Token> = None;

    let toks = &lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind == TokenKind::Punct && matches!(tok.text.as_str(), ";" | "}") {
            stmt_lead.clear();
            stmt_hash = None;
            continue;
        }
        if tok.kind != TokenKind::Ident {
            continue;
        }
        if stmt_lead.len() < 3 {
            stmt_lead.push(tok.text.clone());
        }
        let in_use_stmt = stmt_lead.iter().any(|t| t == "use");

        match tok.text.as_str() {
            "HashMap" | "HashSet" => {
                stmt_hash = Some(tok.text.clone());
                if !in_use_stmt {
                    fire(
                        &mut findings,
                        "hash-iteration",
                        Severity::Error,
                        tok,
                        format!(
                            "{} in a deterministic crate: iteration order is \
                             unspecified and can leak into float-add order; use \
                             BTreeMap/BTreeSet/sorted Vec, or justify a \
                             lookup-only use with `lint:allow(hash-iteration)`",
                            tok.text
                        ),
                    );
                }
            }
            "Instant" if next_ident_skipping_colons(toks, i) == Some("now") => {
                fire(
                    &mut findings,
                    "wall-clock",
                    Severity::Error,
                    tok,
                    "Instant::now() reads the wall clock; decisions must depend \
                     only on (spec, seed) — keep timing observability-only and \
                     justify with `lint:allow(wall-clock)`"
                        .to_string(),
                );
            }
            "SystemTime" => {
                fire(
                    &mut findings,
                    "wall-clock",
                    Severity::Error,
                    tok,
                    "SystemTime reads the wall clock; runs must be pure \
                     functions of (spec, seed)"
                        .to_string(),
                );
            }
            "thread" if next_ident_skipping_colons(toks, i) == Some("current") => {
                fire(
                    &mut findings,
                    "thread-identity",
                    Severity::Error,
                    tok,
                    "thread::current() makes behavior depend on which thread \
                     runs the code; work must be assigned by deterministic \
                     index, never by scheduling order"
                        .to_string(),
                );
            }
            "ThreadId" => {
                fire(
                    &mut findings,
                    "thread-identity",
                    Severity::Error,
                    tok,
                    "ThreadId identifies the executing thread; determinism \
                     requires identical results at any thread count"
                        .to_string(),
                );
            }
            "thread_rng" | "from_entropy" | "OsRng" => {
                fire(
                    &mut findings,
                    "ambient-rng",
                    Severity::Error,
                    tok,
                    format!(
                        "{} draws ambient (OS/time-seeded) randomness; every \
                         RNG must be seeded from the run seed",
                        tok.text
                    ),
                );
            }
            "env"
                if matches!(
                    next_ident_skipping_colons(toks, i),
                    Some("var") | Some("var_os") | Some("vars") | Some("vars_os")
                ) =>
            {
                fire(
                    &mut findings,
                    "env-nondeterminism",
                    Severity::Error,
                    tok,
                    "std::env::var makes results depend on ambient environment; \
                     only the CLI crate may read the environment"
                        .to_string(),
                );
            }
            "sum" | "fold"
                if i > 0
                    && toks[i - 1].kind == TokenKind::Punct
                    && toks[i - 1].text == "."
                    && stmt_hash.is_some() =>
            {
                let hash = stmt_hash.clone().unwrap_or_default();
                fire(
                    &mut findings,
                    "float-accumulate-unordered",
                    Severity::Error,
                    tok,
                    format!(
                        ".{}() over an iterator derived from a {} in the same \
                         expression: the accumulation order follows unspecified \
                         hash order — collect into a sorted container first",
                        tok.text, hash
                    ),
                );
            }
            "unwrap" | "expect"
                if i > 0
                    && toks[i - 1].kind == TokenKind::Punct
                    && toks[i - 1].text == "."
                    && toks.get(i + 1).is_some_and(|t| t.text == "(")
                    && active("todo-unwrap-in-lib", tok.line)
                    && !allowed("todo-unwrap-in-lib", tok.line) =>
            {
                unwrap_count += 1;
                if first_unwrap.is_none() {
                    first_unwrap = Some(tok.clone());
                }
            }
            _ => {}
        }
    }

    if let Some(tok) = first_unwrap {
        findings.push(Finding {
            rule: "todo-unwrap-in-lib",
            severity: Severity::Warning,
            file: rel.to_string(),
            line: tok.line,
            col: tok.col,
            message: format!(
                "{unwrap_count} unwrap()/expect() call(s) in library code \
                 (density report, warn-only): each is a latent panic path"
            ),
        });
    }

    findings.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    findings
}

/// Looks past any `:` punctuation for the next identifier — matches
/// `Instant::now`, `Instant :: now`, and `time::Instant::now` tails.
fn next_ident_skipping_colons(toks: &[Token], i: usize) -> Option<&str> {
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        match t.kind {
            TokenKind::Punct if t.text == ":" => j += 1,
            TokenKind::Ident => return Some(&t.text),
            _ => return None,
        }
    }
    None
}

/// Line ranges (inclusive) covered by `#[cfg(test)] mod … { … }`.
fn cfg_test_regions(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(toks, i) {
            // Skip the attribute (7 tokens), then any further
            // `#[...]` attribute groups, then expect `mod name {`.
            let mut j = i + 7;
            while toks.get(j).is_some_and(|t| t.text == "#") {
                j += 1; // '#'
                if toks.get(j).is_some_and(|t| t.text == "[") {
                    let mut depth = 0usize;
                    while let Some(t) = toks.get(j) {
                        if t.text == "[" {
                            depth += 1;
                        } else if t.text == "]" {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        j += 1;
                    }
                }
            }
            if toks.get(j).is_some_and(|t| t.text == "mod") {
                // Find the opening brace, then its match.
                let mut k = j;
                while let Some(t) = toks.get(k) {
                    if t.text == "{" {
                        break;
                    }
                    k += 1;
                }
                if let Some(open) = toks.get(k) {
                    let start = open.line;
                    let mut depth = 0usize;
                    let mut end = start;
                    while let Some(t) = toks.get(k) {
                        if t.text == "{" {
                            depth += 1;
                        } else if t.text == "}" {
                            depth -= 1;
                            if depth == 0 {
                                end = t.line;
                                break;
                            }
                        }
                        k += 1;
                    }
                    regions.push((toks[i].line, end));
                    i = k;
                }
            }
        }
        i += 1;
    }
    regions
}

/// True when tokens at `i` spell `# [ cfg ( test ) ]`.
fn is_cfg_test_attr(toks: &[Token], i: usize) -> bool {
    let texts = ["#", "[", "cfg", "(", "test", ")", "]"];
    texts
        .iter()
        .enumerate()
        .all(|(k, want)| toks.get(i + k).is_some_and(|t| t.text == *want))
}

/// Resolves each allow directive to the line it suppresses: its own
/// line when it trails code, otherwise the next token-bearing line.
fn resolve_allow_targets(lexed: &Lexed) -> BTreeMap<String, BTreeSet<u32>> {
    let token_lines: BTreeSet<u32> = lexed.tokens.iter().map(|t| t.line).collect();
    let mut map: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
    for a in &lexed.allows {
        if a.justification.is_none() {
            continue; // unjustified allows suppress nothing
        }
        let target = if a.standalone {
            token_lines
                .range(a.line + 1..)
                .next()
                .copied()
                .unwrap_or(a.line)
        } else {
            a.line
        };
        map.entry(a.rule.clone()).or_default().insert(target);
    }
    map
}

/// Errors about the allow directives themselves: unknown rule names and
/// missing justifications.
fn directive_findings(rel: &str, allows: &[AllowDirective]) -> Vec<Finding> {
    let mut out = Vec::new();
    for a in allows {
        if !RULES.contains(&a.rule.as_str()) {
            out.push(Finding {
                rule: "allow-unknown-rule",
                severity: Severity::Error,
                file: rel.to_string(),
                line: a.line,
                col: 1,
                message: format!(
                    "lint:allow names unknown rule {:?}; known rules: {}",
                    a.rule,
                    RULES.join(", ")
                ),
            });
        } else if a.justification.is_none() {
            out.push(Finding {
                rule: "allow-missing-justification",
                severity: Severity::Error,
                file: rel.to_string(),
                line: a.line,
                col: 1,
                message: format!(
                    "lint:allow({}) has no justification; write \
                     `// lint:allow({}): <why this cannot leak>`",
                    a.rule, a.rule
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(src: &str) -> Vec<Finding> {
        analyze_source("x.rs", src, FileClass::Strict)
    }

    #[test]
    fn use_lines_do_not_fire_hash_iteration() {
        assert!(strict("use std::collections::HashMap;\n").is_empty());
        assert!(strict("pub use std::collections::HashSet;\n").is_empty());
        assert!(strict("use std::collections::{BTreeMap, HashMap};\n").is_empty());
    }

    #[test]
    fn cfg_test_mod_is_relaxed() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m.len(); }\n}\n";
        let f = strict(src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn hash_in_struct_field_fires_and_allow_suppresses() {
        let src = "struct S {\n    m: HashMap<u32, u32>,\n}\n";
        let f = strict(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hash-iteration");
        assert_eq!(f[0].line, 2);
        let src = "struct S {\n    // lint:allow(hash-iteration): lookup-only\n    m: HashMap<u32, u32>,\n}\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn relaxed_files_still_ban_ambient_rng() {
        let f = analyze_source(
            "tests/x.rs",
            "fn f() { let r = thread_rng(); }",
            FileClass::Relaxed,
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ambient-rng");
        let f = analyze_source(
            "tests/x.rs",
            "fn f() { let m: HashMap<u32, u32> = HashMap::new(); m.len(); }",
            FileClass::Relaxed,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cli_is_exempt_from_env_rule_only() {
        let src = "fn f() { let v = std::env::var(\"HOME\"); }";
        assert!(analyze_source("src/bin/cli.rs", src, FileClass::Cli).is_empty());
        assert_eq!(strict(src).len(), 1);
    }

    #[test]
    fn float_accumulate_needs_hash_in_same_statement() {
        let hot = "fn f(m: &HashMap<u32, f64>) -> f64 { m.values().sum::<f64>() }";
        let rules: Vec<_> = strict(hot).iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"float-accumulate-unordered"), "{rules:?}");
        // A sum over a Vec in a statement after the map was last
        // mentioned does not fire the float rule.
        let cold = "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }";
        assert!(strict(cold).is_empty());
    }

    #[test]
    fn unwrap_density_is_one_warning_per_file() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() + x.expect(\"y\") }";
        let f = strict(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "todo-unwrap-in-lib");
        assert_eq!(f[0].severity, Severity::Warning);
        assert!(f[0].message.starts_with("2 unwrap"));
        // unwrap_or_else is not unwrap.
        assert!(strict("fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }").is_empty());
    }

    #[test]
    fn unjustified_allow_is_an_error_and_suppresses_nothing() {
        let src = "// lint:allow(hash-iteration)\nstruct S { m: HashMap<u32, u32> }\n";
        let rules: Vec<_> = strict(src).iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"allow-missing-justification"), "{rules:?}");
        assert!(rules.contains(&"hash-iteration"), "{rules:?}");
    }

    #[test]
    fn unknown_rule_in_allow_is_an_error() {
        let src = "// lint:allow(made-up-rule): because\nfn f() {}\n";
        let f = strict(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "allow-unknown-rule");
    }

    #[test]
    fn classify_maps_the_workspace_shape() {
        assert_eq!(
            classify("crates/model/src/engine.rs"),
            Some(FileClass::Strict)
        );
        assert_eq!(
            classify("crates/lint/src/rules.rs"),
            Some(FileClass::Strict)
        );
        assert_eq!(classify("src/bin/fubar-cli.rs"), Some(FileClass::Cli));
        assert_eq!(classify("src/lib.rs"), Some(FileClass::Cli));
        assert_eq!(
            classify("crates/bench/src/lib.rs"),
            Some(FileClass::Relaxed)
        );
        assert_eq!(
            classify("crates/core/tests/zero_alloc.rs"),
            Some(FileClass::Relaxed)
        );
        assert_eq!(
            classify("examples/scenario_flash_crowd.rs"),
            Some(FileClass::Relaxed)
        );
        assert_eq!(classify("tests/cli.rs"), Some(FileClass::Relaxed));
        assert_eq!(classify("vendor/rand/src/lib.rs"), None);
        assert_eq!(classify("crates/lint/tests/fixtures/x.rs"), None);
        assert_eq!(classify("target/debug/build.rs"), None);
    }

    #[test]
    fn wall_clock_fires_on_qualified_path() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        let f = strict(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
    }

    #[test]
    fn trailing_allow_suppresses_same_line() {
        let src =
            "fn f() { let t = Instant::now(); } // lint:allow(wall-clock): observability only\n";
        assert!(strict(src).is_empty());
    }
}
