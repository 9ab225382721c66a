//! The untraced end-to-end loop: one client, closed loop. Each iteration
//! reads the spec, parses, builds, runs and renders in-process, exactly
//! once, and every reported timing is the median over iterations.

use crate::adapter::{self, Summary};
use crate::span::Clock;
use crate::stats::{fnv1a64, median};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One completed iteration.
#[derive(Clone, Debug)]
pub struct Iteration {
    /// read + parse + build.
    pub setup_s: f64,
    /// run + render.
    pub run_wall_s: f64,
    pub log_text: String,
    pub summary: Summary,
}

/// Everything a run of the loop produced.
pub struct Outcome {
    pub attempted: usize,
    /// One line per failed iteration.
    pub failures: Vec<String>,
    /// The iterations that passed every check, in order; only the first
    /// keeps its log text.
    pub good: Vec<Iteration>,
    /// `VmHWM` once the first iteration has finished: the peak of a
    /// process that ran the scenario exactly once, as `fubar-cli
    /// scenario run` does. Later iterations only add allocator noise
    /// (arenas of short-lived scoring threads land at random).
    pub peak_rss_mb: Option<f64>,
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// One iteration: read spec text, parse, build, run, render. `seed`
/// overrides the file's seed when given.
pub fn iterate(
    load: &dyn Fn() -> Result<String, String>,
    seed: Option<u64>,
) -> Result<Iteration, String> {
    let t0 = Clock::now();
    let text = load()?;
    let spec = adapter::parse(&text)?;
    let seed = seed.unwrap_or_else(|| spec.seed());
    let built = adapter::build(&spec, seed)?;
    let t1 = Clock::now();
    let ran = adapter::run(built, &spec, seed);
    let log_text = adapter::render(&ran);
    let t2 = Clock::now();
    Ok(Iteration {
        setup_s: (t1 - t0).as_secs_f64(),
        run_wall_s: (t2 - t1).as_secs_f64(),
        log_text,
        summary: adapter::summarize(&ran),
    })
}

/// The per-iteration correctness check: utilities are well-formed and
/// the run replays iteration 0 byte for byte, counter for counter.
pub fn verify(first: &Iteration, this: &Iteration) -> Result<(), String> {
    let s = &this.summary;
    if !s.utilities_valid {
        return Err("a record's utility is non-finite or outside [0, 1]".to_string());
    }
    if this.log_text != first.log_text {
        return Err(format!(
            "log differs from iteration 0 (fnv1a64 {:016x} vs {:016x})",
            fnv1a64(this.log_text.as_bytes()),
            fnv1a64(first.log_text.as_bytes())
        ));
    }
    let counters = |s: &Summary| (s.events, s.reopts, s.commits, s.fills);
    if counters(s) != counters(&first.summary) {
        return Err(format!(
            "work counters differ from iteration 0: {:?} vs {:?}",
            counters(s),
            counters(&first.summary)
        ));
    }
    Ok(())
}

/// Repeats [`iterate`] until `seconds` have passed and at least
/// `min_iterations` have been attempted. A panic, a build error or a
/// failed [`verify`] counts the iteration as failed and the loop goes
/// on.
pub fn run_loop(
    load: &dyn Fn() -> Result<String, String>,
    seed: Option<u64>,
    seconds: f64,
    min_iterations: usize,
) -> Outcome {
    let started = Clock::now();
    let mut out = Outcome {
        attempted: 0,
        failures: Vec::new(),
        good: Vec::new(),
        peak_rss_mb: None,
    };
    while out.attempted < min_iterations || started.elapsed().as_secs_f64() < seconds {
        let n = out.attempted;
        out.attempted += 1;
        let result = catch_unwind(AssertUnwindSafe(|| iterate(load, seed)))
            .unwrap_or_else(|_| Err("panicked".to_string()))
            .and_then(|it| verify(out.good.first().unwrap_or(&it), &it).map(|()| it));
        match result {
            Ok(mut it) => {
                if !out.good.is_empty() {
                    it.log_text = String::new();
                }
                out.good.push(it);
            }
            Err(e) => out.failures.push(format!("iteration {n}: {e}")),
        }
        if n == 0 {
            out.peak_rss_mb = peak_rss_mb();
        }
    }
    out
}

impl Outcome {
    /// Median over the good iterations of one per-iteration value (NaN
    /// when no iteration was good).
    pub fn median_of(&self, f: impl Fn(&Iteration) -> f64) -> f64 {
        median(&self.good.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RING: &str = "scenario ring5\n\
        topology ring 5 2Mbps 1ms\n\
        duration 60s\n\
        epoch 10s\n\
        seed 5\n\
        workload flows 2 4\n\
        reoptimize every 20s warmup 10s\n\
        arrivals rate 0.05 max-flows 12\n\
        departures prob 0.1\n\
        at 25s fail n0 n1\n\
        at 45s repair n0 n1\n";

    #[test]
    fn two_iteration_smoke_run_replays_and_never_fails() {
        let out = run_loop(&|| Ok(RING.to_string()), None, 0.0, 2);
        assert_eq!(out.attempted, 2);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.good.len(), 2);
        let (a, b) = (&out.good[0], &out.good[1]);
        assert_eq!(a.summary.mean_epoch_utility, b.summary.mean_epoch_utility);
        assert!(a.summary.events > 6, "epochs, churn and the timeline ran");
        assert!(a.summary.reopts >= 2);
        assert!(a.log_text.starts_with("# scenario ring5 seed 5 events"));
        assert!(b.log_text.is_empty(), "only iteration 0 keeps its log");
        assert!(out.median_of(|i| i.run_wall_s) > 0.0);
        assert!(out.peak_rss_mb.is_some_and(|mb| mb > 1.0));
    }

    #[test]
    fn seed_override_changes_the_run() {
        let load = || Ok(RING.to_string());
        let a = iterate(&load, None).unwrap();
        let b = iterate(&load, Some(6)).unwrap();
        assert!(b.log_text.starts_with("# scenario ring5 seed 6 events"));
        assert_ne!(a.log_text, b.log_text);
    }

    #[test]
    fn a_corrupted_second_log_counts_as_failed() {
        let load = || Ok(RING.to_string());
        let first = iterate(&load, None).unwrap();
        let mut second = iterate(&load, None).unwrap();
        assert!(verify(&first, &second).is_ok());
        second.log_text = second.log_text.replacen("congested=", "congested=9", 1);
        let err = verify(&first, &second).unwrap_err();
        assert!(err.contains("log differs from iteration 0"), "{err}");

        // Through the loop: a second iteration that replays differently
        // (here: a spec whose seed changed under it) is a failure.
        let calls = std::cell::Cell::new(0);
        let out = run_loop(
            &|| {
                calls.set(calls.get() + 1);
                Ok(if calls.get() == 2 {
                    RING.replace("seed 5", "seed 6")
                } else {
                    RING.to_string()
                })
            },
            None,
            0.0,
            3,
        );
        assert_eq!((out.attempted, out.good.len()), (3, 2));
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].starts_with("iteration 1: log differs"));

        let mut drifted = iterate(&load, None).unwrap();
        drifted.summary.fills += 1;
        assert!(verify(&first, &drifted).unwrap_err().contains("counters"));
        let mut invalid = iterate(&load, None).unwrap();
        invalid.summary.utilities_valid = false;
        assert!(verify(&first, &invalid).is_err());
    }

    #[test]
    fn a_spec_that_does_not_build_fails_every_iteration() {
        let out = run_loop(
            &|| Ok("scenario x\ntopology he\n".to_string()),
            None,
            0.0,
            2,
        );
        assert_eq!((out.attempted, out.failures.len()), (2, 2));
        assert!(out.good.is_empty());
        assert!(out.median_of(|i| i.setup_s).is_nan());
    }
}
