//! `agree A.json B.json`: compares two result sets metric by metric
//! against the bounds in `BENCHMARK.json`. `A` is the baseline (the
//! parent commit, or the first of two sets of one commit), `B` the
//! candidate; a metric is in excess when `B` is worse than `A` by more
//! than its bound.

use crate::json::Value;

/// The comparison table and how many rows are in excess.
pub struct Agreement {
    pub rows: Vec<String>,
    pub excess: usize,
}

fn workload<'a>(set: &'a Value, name: &str) -> Option<&'a Value> {
    set.get("workloads").and_then(|w| w.get(name))
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
}

pub fn agree(benchmark: &Value, a: &Value, b: &Value) -> Result<Agreement, String> {
    let gated = benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end table")?
        .as_array();
    let names = a
        .get("workloads")
        .ok_or("baseline set has no workloads")?
        .as_object();
    let mut out = Agreement {
        rows: vec![format!(
            "{:<16} {:<20} {:>14} {:>14} {:<8} {:>9} {:>7}  verdict",
            "workload", "metric", "A", "B", "unit", "worse by", "bound"
        )],
        excess: 0,
    };
    for (w, ra) in names {
        let Some(rb) = workload(b, w) else {
            out.rows.push(format!("{w:<16} missing from B"));
            out.excess += 1;
            continue;
        };
        if rb.get("correct").and_then(Value::as_bool) != Some(true)
            || rb.get("failed").and_then(Value::as_f64) != Some(0.0)
        {
            out.rows
                .push(format!("{w:<16} B reports failed iterations"));
            out.excess += 1;
        }
        for m in gated {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("");
            let (name, unit) = (field("name"), field("unit"));
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name}: no bound"))?;
            let (Some(va), Some(vb)) = (metric(ra, name), metric(rb, name)) else {
                out.rows.push(format!("{w:<16} {name:<20} missing"));
                out.excess += 1;
                continue;
            };
            let worse = match field("better") {
                "higher" => (va - vb) / va.abs(),
                _ => (vb - va) / va.abs(),
            };
            let over = worse > bound;
            out.excess += usize::from(over);
            out.rows.push(format!(
                "{w:<16} {name:<20} {va:>14.6} {vb:>14.6} {unit:<8} {:>+8.2}% {:>6.1}%  {}",
                worse * 100.0,
                bound * 100.0,
                if over { "EXCESS" } else { "ok" },
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "run_wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "mean_epoch_utility", "unit": "fraction", "better": "higher", "bound": 0.001}]}"#;

    fn set(run_wall: f64, utility: f64, failed: u32) -> Value {
        parse(&format!(
            r#"{{"workloads": {{"w": {{"correct": {}, "attempted": 5, "failed": {failed},
            "metrics": {{"run_wall_s": {{"value": {run_wall}, "unit": "s"}},
            "mean_epoch_utility": {{"value": {utility}, "unit": "fraction"}}}}}}}}}}"#,
            failed == 0
        ))
        .unwrap()
    }

    #[test]
    fn within_bounds_agrees_and_improvements_never_count() {
        let bench = parse(BENCH).unwrap();
        let ok = agree(&bench, &set(1.0, 0.8, 0), &set(1.09, 0.8, 0)).unwrap();
        assert_eq!(ok.excess, 0, "{:#?}", ok.rows);
        assert_eq!(ok.rows.len(), 3);
        let better = agree(&bench, &set(1.0, 0.8, 0), &set(0.5, 0.9, 0)).unwrap();
        assert_eq!(better.excess, 0);
    }

    #[test]
    fn each_direction_of_worse_is_an_excess() {
        let bench = parse(BENCH).unwrap();
        let slow = agree(&bench, &set(1.0, 0.8, 0), &set(1.11, 0.8, 0)).unwrap();
        assert_eq!(slow.excess, 1);
        assert!(slow.rows[1].contains("EXCESS"));
        let dropped = agree(&bench, &set(1.0, 0.8, 0), &set(1.0, 0.79, 0)).unwrap();
        assert_eq!(dropped.excess, 1);
        let failed = agree(&bench, &set(1.0, 0.8, 0), &set(1.0, 0.8, 1)).unwrap();
        assert_eq!(failed.excess, 1);
        let missing = agree(
            &bench,
            &set(1.0, 0.8, 0),
            &parse(r#"{"workloads": {}}"#).unwrap(),
        );
        assert_eq!(missing.unwrap().excess, 1);
    }
}
