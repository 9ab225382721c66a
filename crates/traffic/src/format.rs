//! A line-oriented text format for traffic matrices.
//!
//! Companion to `fubar_topology::format`: together they make a complete
//! optimization input diffable and reproducible without a serialization
//! framework. Grammar (one directive per line, `#` starts a comment):
//!
//! ```text
//! aggregate <src> <dst> <class> <flows> [priority <w>]
//! ```
//!
//! where `<class>` is `realtime`, `bulk`, or `large:<peak_mbps>` (e.g.
//! `large:2`), `<w>` is in `(0, 1e288]` ([`crate::MAX_PRIORITY_WEIGHT`]),
//! and node names are resolved against the topology the matrix is
//! parsed for.

use crate::aggregate::{Aggregate, AggregateId, MAX_PRIORITY_WEIGHT};
use crate::matrix::TrafficMatrix;
use fubar_topology::Topology;
use fubar_utility::TrafficClass;
use std::fmt;

/// A parse failure, with the 1-based line number where it happened.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

fn class_token(class: &TrafficClass) -> String {
    match class {
        TrafficClass::RealTime => "realtime".into(),
        TrafficClass::BulkTransfer => "bulk".into(),
        TrafficClass::LargeFile { peak_mbps } => format!("large:{peak_mbps}"),
    }
}

fn parse_class(token: &str, line: usize) -> Result<TrafficClass, ParseError> {
    match token {
        "realtime" => Ok(TrafficClass::RealTime),
        "bulk" => Ok(TrafficClass::BulkTransfer),
        other => {
            let peak = other
                .strip_prefix("large:")
                .ok_or_else(|| err(line, format!("unknown class {other:?}")))?;
            let mbps: f64 = peak
                .parse()
                .map_err(|e| err(line, format!("bad large peak: {e}")))?;
            // The peak becomes a `Bandwidth` in bits per second.
            if mbps <= 0.0 || !(mbps * 1e6).is_finite() {
                return Err(err(line, "large peak must be positive and finite in bps"));
            }
            Ok(TrafficClass::LargeFile { peak_mbps: mbps })
        }
    }
}

/// Parses a traffic matrix, resolving node names against `topology`.
pub fn parse(text: &str, topology: &Topology) -> Result<TrafficMatrix, ParseError> {
    let mut aggregates = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens[0] != "aggregate" {
            return Err(err(lineno, format!("unknown directive {:?}", tokens[0])));
        }
        if tokens.len() != 5 && tokens.len() != 7 {
            return Err(err(
                lineno,
                "usage: aggregate <src> <dst> <class> <flows> [priority <w>]",
            ));
        }
        let src = topology
            .node(tokens[1])
            .map_err(|e| err(lineno, e.to_string()))?;
        let dst = topology
            .node(tokens[2])
            .map_err(|e| err(lineno, e.to_string()))?;
        let class = parse_class(tokens[3], lineno)?;
        let flows: u32 = tokens[4]
            .parse()
            .map_err(|e| err(lineno, format!("bad flow count: {e}")))?;
        if flows == 0 {
            return Err(err(lineno, "flow count must be positive"));
        }
        let mut agg = Aggregate::new(AggregateId(0), src, dst, class, flows);
        if tokens.len() == 7 {
            if tokens[5] != "priority" {
                return Err(err(
                    lineno,
                    format!("expected `priority`, got {:?}", tokens[5]),
                ));
            }
            let w: f64 = tokens[6]
                .parse()
                .map_err(|e| err(lineno, format!("bad priority: {e}")))?;
            if !(w > 0.0 && w <= MAX_PRIORITY_WEIGHT) {
                return Err(err(
                    lineno,
                    format!("priority must be positive and at most {MAX_PRIORITY_WEIGHT:e}"),
                ));
            }
            agg.priority_weight = w;
        }
        aggregates.push(agg);
    }
    Ok(TrafficMatrix::new(aggregates))
}

/// Serializes a matrix using `topology` for node names. Only priorities
/// differing from 1.0 are written.
pub fn serialize(tm: &TrafficMatrix, topology: &Topology) -> String {
    let mut out = String::new();
    for a in tm.iter() {
        out.push_str(&format!(
            "aggregate {} {} {} {}",
            topology.node_name(a.ingress),
            topology.node_name(a.egress),
            class_token(&a.class),
            a.flow_count
        ));
        if (a.priority_weight - 1.0).abs() > 1e-12 {
            out.push_str(&format!(" priority {}", a.priority_weight));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use crate::WorkloadConfig;
    use fubar_topology::{generators, Bandwidth};

    fn topo() -> Topology {
        generators::abilene(Bandwidth::from_mbps(10.0))
    }

    #[test]
    fn parses_all_classes_and_priorities() {
        let t = topo();
        let text = "
# demo matrix
aggregate Seattle NewYork realtime 12
aggregate NewYork Seattle bulk 7
aggregate Denver Houston large:2 3 priority 4.5
";
        let tm = parse(text, &t).unwrap();
        assert_eq!(tm.len(), 3);
        assert_eq!(tm.aggregate(AggregateId(0)).class, TrafficClass::RealTime);
        assert_eq!(tm.aggregate(AggregateId(1)).flow_count, 7);
        let large = tm.aggregate(AggregateId(2));
        assert!(large.is_large());
        assert_eq!(large.priority_weight, 4.5);
        assert_eq!(large.per_flow_demand(), Bandwidth::from_mbps(2.0));
    }

    #[test]
    fn round_trips_generated_workloads() {
        let t = topo();
        let tm = workload::generate(
            &t,
            &WorkloadConfig {
                include_intra_pop: false,
                ..Default::default()
            },
            7,
        )
        .with_large_priority(3.0);
        let text = serialize(&tm, &t);
        let back = parse(&text, &t).unwrap();
        assert_eq!(back.len(), tm.len());
        for (a, b) in tm.iter().zip(back.iter()) {
            assert_eq!(a.ingress, b.ingress);
            assert_eq!(a.egress, b.egress);
            assert_eq!(a.class, b.class);
            assert_eq!(a.flow_count, b.flow_count);
            assert!((a.priority_weight - b.priority_weight).abs() < 1e-12);
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let t = topo();
        let e = parse("aggregate Nowhere NewYork bulk 3\n", &t).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("Nowhere"));

        let e = parse("\nroute a b\n", &t).unwrap_err();
        assert_eq!(e.line, 2);

        let e = parse("aggregate Seattle NewYork voip 3\n", &t).unwrap_err();
        assert!(e.message.contains("unknown class"));

        let e = parse("aggregate Seattle NewYork bulk 0\n", &t).unwrap_err();
        assert!(e.message.contains("positive"));

        let e = parse("aggregate Seattle NewYork large:-1 3\n", &t).unwrap_err();
        assert!(e.message.contains("positive"));

        let e = parse("aggregate Seattle Denver large:1e308 5\n", &t).unwrap_err();
        assert!(e.message.contains("finite"));

        let e = parse("aggregate Seattle NewYork bulk 3 weight 2\n", &t).unwrap_err();
        assert!(e.message.contains("priority"));

        // Finite, but flows × priority would overflow the objective.
        let e = parse("\naggregate Seattle Denver large:2 4 priority 1e308\n", &t).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("at most 1e288"), "{}", e.message);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let t = topo();
        let tm = parse(
            "# nothing\n\naggregate Seattle Denver bulk 2 # inline\n",
            &t,
        )
        .unwrap();
        assert_eq!(tm.len(), 1);
    }

    #[test]
    fn empty_input_is_an_empty_matrix() {
        let t = topo();
        assert!(parse("", &t).unwrap().is_empty());
    }
}
