//! Parser totality for the `.tm` text format: `format::parse` never
//! panics on any input, and every `Ok` matrix serializes to a fixed
//! point. Same two-sided fuzz as the `.scn` and `.topo` parsers
//! (`crates/scenario/tests/properties.rs`,
//! `crates/topology/tests/properties.rs`).

use fubar_topology::{generators, Bandwidth, Topology};
use fubar_traffic::{format, workload, WorkloadConfig};
use proptest::prelude::*;

fn topo() -> Topology {
    generators::abilene(Bandwidth::from_mbps(10.0))
}

/// Either an error, or a matrix whose serialization reparses to itself.
fn reject_or_fixed_point(text: &str, topo: &Topology) -> Result<(), TestCaseError> {
    if let Ok(tm) = format::parse(text, topo) {
        let canon = format::serialize(&tm, topo);
        let back = format::parse(&canon, topo)
            .map_err(|e| TestCaseError::fail(format!("canonical form must reparse: {e}")))?;
        prop_assert_eq!(canon, format::serialize(&back, topo));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tm_parser_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        reject_or_fixed_point(&String::from_utf8_lossy(&bytes), &topo())?;
    }

    /// Structured fuzz: corrupt one token of a generated Abilene matrix
    /// (overflowing peaks, hostile flow counts and priorities, stray
    /// keywords) or drop a line.
    #[test]
    fn tm_parser_survives_mutated_fixture_tokens(
        line_idx in 0usize..256,
        tok_idx in 0usize..8,
        junk_idx in 0usize..16,
        delete_line in any::<bool>(),
    ) {
        const JUNK: [&str; 16] = [
            "large:1e308", "large:1e302", "large:NaN", "large:inf", "large:-0.0",
            "large:", "NaN", "inf", "-1", "99999999999999999999999999", "1e400",
            "priority", "aggregate", "🦀", "0", "",
        ];
        let topo = topo();
        let tm = workload::generate(&topo, &WorkloadConfig::default(), 7).with_large_priority(2.5);
        let fixture = format::serialize(&tm, &topo);
        let mut lines: Vec<String> = fixture.lines().map(str::to_string).collect();
        let li = line_idx % lines.len();
        if delete_line {
            lines.remove(li);
        } else {
            let mut toks: Vec<String> =
                lines[li].split_whitespace().map(str::to_string).collect();
            let ti = tok_idx % toks.len();
            toks[ti] = JUNK[junk_idx].to_string();
            lines[li] = toks.join(" ");
        }
        reject_or_fixed_point(&lines.join("\n"), &topo)?;
    }
}
