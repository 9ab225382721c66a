//! Per-run performance statistics — `fubar-cli scenario run --stats`.
//!
//! The engine times every applied event; this module buckets the
//! samples into the two cost classes that matter for controller-scale
//! operation — *measurement* (every event that ran no optimizer ends
//! in an incremental fabric probe) and *re-optimization* — and renders
//! timing percentiles plus the optimizer's peak scratch sizes. The
//! statistics ride **outside** the scenario log: logs stay byte-exact
//! per (spec, seed), wall-clock numbers do not.

use fubar_core::ShardRunStats;
use fubar_model::WorkspaceStats;

/// Timing and scratch statistics for one scenario run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Seconds spent applying each event that ran no optimizer (churn,
    /// failures, epochs, a re-optimization swallowed by a blackout —
    /// each ends in an incremental measurement).
    measurement_s: Vec<f64>,
    /// Seconds spent in each event that ran the optimizer.
    reoptimize_s: Vec<f64>,
    /// Peak optimizer scoring-scratch sizes across the run.
    pub scratch: WorkspaceStats,
    /// Per-shard accumulators across the run's re-optimizations (empty
    /// when none ran; the last entry is the inter-region trunk core).
    pub shards: Vec<ShardRunStats>,
}

/// Percentiles of a sample set (nearest-rank).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    /// Sample count.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

fn percentiles(samples: &[f64]) -> Percentiles {
    if samples.is_empty() {
        return Percentiles::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pick = |q: f64| {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    };
    Percentiles {
        count: sorted.len(),
        p50: pick(0.50),
        p90: pick(0.90),
        p99: pick(0.99),
        max: sorted[sorted.len() - 1],
    }
}

impl RunStats {
    /// Records one applied event's wall-clock cost, bucketed by what
    /// happened (`reoptimized`: the optimizer ran) rather than by what
    /// was scheduled.
    pub fn record(&mut self, reoptimized: bool, secs: f64) {
        if reoptimized {
            self.reoptimize_s.push(secs);
        } else {
            self.measurement_s.push(secs);
        }
    }

    /// Measurement-event timing percentiles.
    pub fn measurement(&self) -> Percentiles {
        percentiles(&self.measurement_s)
    }

    /// Re-optimization timing percentiles.
    pub fn reoptimize(&self) -> Percentiles {
        percentiles(&self.reoptimize_s)
    }

    /// The human-readable block the CLI prints (to stderr, never into
    /// the log).
    pub fn render(&self) -> String {
        let line = |name: &str, p: Percentiles| {
            format!(
                "{name:<14} n={:<5} p50={:>9.3}ms p90={:>9.3}ms p99={:>9.3}ms max={:>9.3}ms",
                p.count,
                p.p50 * 1e3,
                p.p90 * 1e3,
                p.p99 * 1e3,
                p.max * 1e3,
            )
        };
        let mut out = format!(
            "# per-event timing\n{}\n{}\n# peak optimizer scratch\n\
             component={} bundles, component-links={}, event-heap={}",
            line("measurement", self.measurement()),
            line("reoptimize", self.reoptimize()),
            self.scratch.peak_component,
            self.scratch.peak_component_links,
            self.scratch.peak_heap,
        );
        // Only shards that filled something, plus the trunk core (the
        // last entry): a single-shard instance would otherwise list a
        // row of zeros per empty region and take its percentiles over
        // them.
        let last = self.shards.len().saturating_sub(1);
        let shown: Vec<&ShardRunStats> = (self.shards.iter().enumerate())
            .filter(|(i, s)| s.scratch.fills > 0 || *i == last)
            .map(|(_, s)| s)
            .collect();
        if !shown.is_empty() {
            let score_s: Vec<f64> = shown.iter().map(|s| s.score_s).collect();
            out.push_str(&format!(
                "\n# per-shard (last = trunk core)\n{}",
                line("shard score", percentiles(&score_s))
            ));
            for s in shown {
                out.push_str(&format!(
                    "\nshard {:>3}: aggregates={} links={} commits={} score={:.3}ms \
                     fills={} compiled-fills={} paths generated={} reused={} \
                     scores kept={}",
                    s.shard,
                    s.aggregates,
                    s.links,
                    s.commits,
                    s.score_s * 1e3,
                    s.scratch.fills,
                    s.scratch.compiled_fills,
                    s.paths_generated,
                    s.paths_reused,
                    s.scores_kept,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let p = percentiles(&[0.4, 0.1, 0.2, 0.3]);
        assert_eq!(p.count, 4);
        assert_eq!(p.p50, 0.2);
        assert_eq!(p.p90, 0.4);
        assert_eq!(p.max, 0.4);
        assert_eq!(percentiles(&[]), Percentiles::default());
    }

    #[test]
    fn record_buckets_by_event_class() {
        let mut s = RunStats::default();
        s.record(true, 1.0);
        s.record(false, 0.5);
        s.record(false, 0.25);
        assert_eq!(s.reoptimize().count, 1);
        assert_eq!(s.measurement().count, 2);
        let text = s.render();
        assert!(text.contains("measurement"), "{text}");
        assert!(text.contains("reoptimize"), "{text}");
        assert!(text.contains("peak optimizer scratch"), "{text}");
        assert!(
            !text.contains("per-shard"),
            "flat runs must not print a shard block: {text}"
        );
    }

    #[test]
    fn shard_block_renders_when_present() {
        let filled = |fills, compiled_fills| WorkspaceStats {
            fills,
            compiled_fills,
            ..Default::default()
        };
        let s = RunStats {
            shards: vec![
                ShardRunStats {
                    shard: 0,
                    aggregates: 10,
                    links: 4,
                    commits: 3,
                    score_s: 0.002,
                    paths_generated: 12,
                    paths_reused: 30,
                    scores_kept: 9,
                    scratch: filled(40, 25),
                },
                ShardRunStats {
                    shard: 1,
                    aggregates: 7,
                    links: 3,
                    ..Default::default()
                },
                ShardRunStats {
                    shard: 2,
                    aggregates: 2,
                    links: 1,
                    commits: 1,
                    score_s: 0.001,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let text = s.render();
        assert!(text.contains("per-shard"), "{text}");
        assert!(text.contains("shard score    n=2 "), "{text}");
        assert!(text.contains("shard   0: aggregates=10"), "{text}");
        assert!(
            text.contains("fills=40 compiled-fills=25 paths generated=12 reused=30 scores kept=9"),
            "{text}"
        );
        assert!(
            !text.contains("shard   1:"),
            "a shard that filled nothing is not listed: {text}"
        );
        assert!(
            text.contains("shard   2: aggregates=2"),
            "trunk core: {text}"
        );
    }
}
