//! Adversarial worst-case scenario search.
//!
//! A driver loop that perturbs a base timeline — outage placement,
//! surge timing and magnitude, controller blackout windows — across a
//! seeded candidate set, runs every candidate, scores each by utility
//! loss plus recovery time, and returns the argmax as a ready-to-commit
//! `.scn` regression. The whole search is a pure function of
//! `(base, seed, candidates)`: candidate generation draws from its own
//! [`StdRng`] stream per index, every candidate run is itself
//! deterministic, and ties break toward the lowest candidate index —
//! so `fubar-cli scenario search` re-finds a committed worst case from
//! its seed, forever, and CI can hold it to that.

use crate::driver::{inputs_at, run, BuildError, RunOptions};
use crate::log::ScenarioLog;
use crate::spec::{Action, Scenario, TimelineEvent};
use fubar_topology::Delay;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// What the search found.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The worst-scoring candidate, renamed to the caller's choice —
    /// `to_string()` it for a committed `.scn` regression.
    pub scenario: Scenario,
    /// Its score ([`score_log`]).
    pub score: f64,
    /// Which candidate won (0 is the unperturbed base).
    pub candidate: usize,
    /// Every candidate's score, in candidate order.
    pub scores: Vec<f64>,
}

/// Scores a run for the search: **higher is worse for the network**.
///
/// The score is the total per-epoch utility deficit below the run's own
/// peak (how much utility the timeline destroyed, integrated over
/// epochs) plus half a point per epoch the network needed to climb back
/// within 2% of peak after its worst moment (how long recovery took).
/// Both terms come from the deterministic epoch log, so scoring adds no
/// randomness of its own.
pub fn score_log(log: &ScenarioLog) -> f64 {
    let epochs = log.epoch_utilities();
    if epochs.is_empty() {
        return 0.0;
    }
    let peak = epochs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let loss: f64 = epochs.iter().map(|&u| peak - u).sum();
    let worst = epochs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let tolerance = 0.02 * peak.abs().max(1e-9);
    let recovery = epochs[worst..]
        .iter()
        .position(|&u| u >= peak - tolerance)
        .unwrap_or(epochs.len() - worst);
    loss + 0.5 * recovery as f64
}

fn secs(s: u64) -> Delay {
    Delay::from_secs(s as f64)
}

/// One perturbed candidate. Every mutated value is a whole second (or
/// an exact factor multiple), so candidates serialize to tidy `.scn`
/// text that round-trips exactly like hand-written specs.
fn perturb(base: &Scenario, rng: &mut StdRng, duplex: &[(String, String)]) -> Scenario {
    let mut s = base.clone();
    let dur = (base.duration.secs() as u64).max(10);
    let mutations = rng.gen_range(1..=2u32);
    for _ in 0..mutations {
        match rng.gen_range(0..8u32) {
            // Blackout window placement: blind the controller for a
            // slice of the run.
            0 => {
                let lo = base.reoptimize.warmup.secs() as u64;
                let start = rng.gen_range(lo..=(dur * 3 / 5).max(lo));
                let len = rng.gen_range((dur / 8).max(5)..=(dur * 2 / 5).max(6));
                let end = (start + len).min(dur);
                if end > start {
                    s.chaos.blackouts.push((secs(start), secs(end)));
                }
            }
            // Outage placement: cut a duplex link mid-run, repair later.
            1 if !duplex.is_empty() => {
                let (a, b) = duplex[rng.gen_range(0..duplex.len())].clone();
                let at = rng.gen_range(dur / 5..=dur * 3 / 5);
                let back = (at + rng.gen_range((dur / 10).max(5)..=(dur * 3 / 10).max(6))).min(dur);
                s.timeline.push(TimelineEvent {
                    at: secs(at),
                    action: Action::Fail {
                        a: a.clone(),
                        b: b.clone(),
                    },
                    line: 0,
                });
                if back > at && back < dur {
                    s.timeline.push(TimelineEvent {
                        at: secs(back),
                        action: Action::Repair { a, b },
                        line: 0,
                    });
                }
            }
            // Surge magnitude: amplify an existing flash crowd.
            2 => {
                let surges: Vec<usize> = s
                    .timeline
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| matches!(e.action, Action::Surge { .. }))
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&i) = surges.get(rng.gen_range(0..surges.len().max(1))) {
                    if let Action::Surge { factor, .. } = &mut s.timeline[i].action {
                        *factor *= [1.5, 2.0, 2.5, 3.0][rng.gen_range(0..4usize)];
                    }
                }
            }
            // Surge timing: slide a flash crowd to a nastier moment
            // (e.g. just after a re-optimization, or into a blackout).
            3 => {
                let surges: Vec<usize> = s
                    .timeline
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| matches!(e.action, Action::Surge { .. }))
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&i) = surges.get(rng.gen_range(0..surges.len().max(1))) {
                    let delta = rng.gen_range(0..=30u64) as i64 - 15;
                    let at = (s.timeline[i].at.secs() as i64 + delta).clamp(1, dur as i64 - 1);
                    s.timeline[i].at = secs(at as u64);
                }
            }
            // Install latency: commits reach the fabric late.
            4 => {
                s.chaos.install_delay = Some(secs([1u64, 2, 3, 5][rng.gen_range(0..4usize)]));
            }
            // Install loss: some commits never reach the fabric at all.
            // The drop coin's seed is part of the spec, so the winner
            // stays a pure function of its own text.
            5 => {
                let p = [0.1, 0.2, 0.3, 0.5][rng.gen_range(0..4usize)];
                s.chaos.install_drop = Some((p, rng.gen_range(1..=64u64)));
            }
            // Measurement staleness: optimize against an old snapshot.
            6 => {
                s.chaos.measure_stale = Some(secs([5u64, 10, 15, 20][rng.gen_range(0..4usize)]));
            }
            // Anytime budget: starve the optimizer of moves.
            7 => {
                s.chaos.optimize_budget = Some([4usize, 8, 16, 32][rng.gen_range(0..4usize)]);
            }
            _ => {}
        }
    }
    s
}

/// Searches `candidates` seeded perturbations of `base` (plus the base
/// itself as candidate 0) for the one that hurts most, and returns it
/// renamed to `name`. `base_dir` resolves `topology file` paths, as in
/// [`RunOptions::base`]. Deterministic given
/// `(base, seed, candidates)`; see the module docs.
pub fn search(
    base: &Scenario,
    name: &str,
    seed: u64,
    candidates: usize,
    base_dir: Option<&Path>,
) -> Result<SearchOutcome, BuildError> {
    let (topo, _) = inputs_at(base, base.seed, base_dir)?;
    let duplex: Vec<(String, String)> = topo
        .links()
        .filter(|&l| topo.reverse_of(l).is_some_and(|r| r.index() > l.index()))
        .map(|l| {
            let link = topo.graph().link(l);
            (
                topo.node_name(link.src).to_string(),
                topo.node_name(link.dst).to_string(),
            )
        })
        .collect();

    let options = RunOptions {
        base: base_dir.map(Path::to_path_buf),
        ..Default::default()
    };
    let mut best: Option<(f64, usize, Scenario)> = None;
    let mut scores = Vec::with_capacity(candidates + 1);
    for i in 0..=candidates {
        let cand = if i == 0 {
            base.clone()
        } else {
            // Per-candidate stream: candidate k's draws never depend on
            // how many mutations earlier candidates used.
            let mut rng =
                StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            perturb(base, &mut rng, &duplex)
        };
        let (log, _) = run(&cand, cand.seed, &options)?;
        let score = score_log(&log);
        scores.push(score);
        // Strict >: ties break toward the lowest candidate index.
        if best.as_ref().is_none_or(|(b, _, _)| score > *b) {
            best = Some((score, i, cand));
        }
    }
    let (score, candidate, mut scenario) = best.expect("at least the base candidate ran");
    scenario.name = name.to_string();
    Ok(SearchOutcome {
        scenario,
        score,
        candidate,
        scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Scenario {
        Scenario::parse(
            "scenario search_base\n\
             topology ring 5 600kbps 2ms\n\
             duration 80s\n\
             epoch 10s\n\
             seed 4\n\
             workload flows 2 5\n\
             reoptimize every 20s warmup 10s\n\
             at 30s surge n0 n2 x4\n\
             at 60s relax n0 n2\n",
        )
        .unwrap()
    }

    #[test]
    fn search_is_deterministic_and_candidates_round_trip() {
        let a = search(&base(), "worst", 11, 6, None).unwrap();
        let b = search(&base(), "worst", 11, 6, None).unwrap();
        assert_eq!(a.scenario, b.scenario);
        assert_eq!(a.candidate, b.candidate);
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.scores.len(), 7, "base + 6 candidates");
        assert_eq!(a.scenario.name, "worst");
        // The winner is a committable artifact: exact round trip.
        let text = a.scenario.to_string();
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(a.scenario, back);
        assert_eq!(text, back.to_string());
        // And the argmax is consistent with the reported scores.
        let max = a.scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(a.scores[a.candidate], max);
        assert!(
            a.scores[..a.candidate].iter().all(|&s| s < max),
            "ties must break toward the lowest index"
        );
    }

    #[test]
    fn perturbations_actually_hurt() {
        // With a handful of candidates, at least one perturbation must
        // score worse than the unperturbed base (ring cuts and blackout
        // windows are not free).
        let o = search(&base(), "worst", 3, 5, None).unwrap();
        assert!(
            o.candidate != 0,
            "some perturbation should beat the base: {:?}",
            o.scores
        );
        assert!(o.score > o.scores[0]);
    }

    #[test]
    fn scoring_prefers_deeper_longer_damage() {
        // A run that loses utility and limps should outscore the same
        // base undisturbed.
        let (calm, _) = run(&base(), 4, &RunOptions::default()).unwrap();
        let mut hurt_spec = base();
        hurt_spec.timeline.push(TimelineEvent {
            at: Delay::from_secs(25.0),
            action: Action::Fail {
                a: "n0".into(),
                b: "n1".into(),
            },
            line: 0,
        });
        hurt_spec
            .chaos
            .blackouts
            .push((Delay::from_secs(20.0), Delay::from_secs(70.0)));
        let (hurt, _) = run(&hurt_spec, 4, &RunOptions::default()).unwrap();
        assert!(
            score_log(&hurt) > score_log(&calm),
            "{} vs {}",
            score_log(&hurt),
            score_log(&calm)
        );
    }
}
