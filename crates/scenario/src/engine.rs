//! The discrete-event engine.
//!
//! [`Engine`] owns the [`EventQueue`] and the stochastic sources, and
//! drives any [`EventConsumer`] — the bundled
//! [`SdnConsumer`](crate::driver::SdnConsumer) applies events to a
//! `fubar_sdn::Fabric` plus controller, but tests can plug in anything.
//!
//! Scheduling discipline (everything deterministic given the seed):
//!
//! * measurement epochs close at `epoch, 2·epoch, …` — when one pops,
//!   the next is scheduled and the churn source samples every flow
//!   arrival/departure for the *following* window, placing each at a
//!   random offset inside it;
//! * scheduled re-optimizations are laid out up front at
//!   `warmup, warmup + every, …`;
//! * timeline events are queued up front;
//! * stochastic failures live outside the queue as a "next strike"
//!   clock; when due, a victim is drawn among currently healthy duplex
//!   links and the failure plus its Weibull repair are pushed.

use crate::event::{Event, EventKind, EventQueue};
use crate::log::{EventRecord, ScenarioLog};
use crate::stochastic::{ChurnSource, FailureSource};
use fubar_graph::LinkId;
use fubar_topology::Delay;
use fubar_traffic::AggregateId;

/// The network state a consumer reports after applying one event.
#[derive(Clone, Copy, Debug)]
pub struct Measure {
    /// Network utility.
    pub utility: f64,
    /// Congested link count.
    pub congested_links: usize,
    /// Live flows across all aggregates.
    pub live_flows: u64,
    /// Currently failed links.
    pub failed_links: usize,
    /// Commits spent, when the event was a re-optimization.
    pub commits: Option<usize>,
    /// Whether that re-optimization was warm-started.
    pub warm: bool,
}

/// Something that reacts to scenario events — the seam between the
/// engine (time, queue, stochastic processes) and the system under test
/// (data plane + controller).
pub trait EventConsumer {
    /// Applies one event and reports the state just after it.
    fn on_event(&mut self, event: &Event) -> Measure;

    /// Stable human-readable description of the event (node names
    /// etc.). Receives the whole event, not just the kind, so chaos-
    /// aware consumers can describe the same kind differently by time
    /// (a re-optimization inside a blackout window logs as skipped).
    fn describe(&self, event: &Event) -> String;

    /// Events the consumer wants scheduled as a consequence of the one
    /// just applied (e.g. a staged install committing after its
    /// latency). Drained by the engine after every `on_event`; the
    /// default consumer has none.
    fn take_followups(&mut self) -> Vec<(Delay, EventKind)> {
        Vec::new()
    }

    /// Number of aggregates in the matrix.
    fn aggregate_count(&self) -> usize;

    /// Current live flow count of one aggregate.
    fn flow_count(&self, aggregate: AggregateId) -> u32;

    /// The aggregate's churn target: baseline flows times any active
    /// surge factor.
    fn churn_target(&self, aggregate: AggregateId) -> f64;

    /// Canonical (lower-id) halves of duplex links that are currently
    /// up — the stochastic failure source's victim pool.
    fn healthy_duplex_links(&self) -> Vec<LinkId>;
}

/// `from + gap`, or `None` when the gap or the sum lies past every
/// representable time: a failure or repair that far off is not within
/// the run.
fn later(from: Delay, gap: Option<Delay>) -> Option<Delay> {
    let at = from.secs() + gap?.secs();
    at.is_finite().then(|| Delay::from_secs(at))
}

/// The deterministic discrete-event engine.
pub struct Engine<C: EventConsumer> {
    consumer: C,
    queue: EventQueue,
    duration: Delay,
    epoch: Delay,
    churn: Option<ChurnSource>,
    failures: Option<FailureSource>,
    /// Next stochastic strike time, if the failure source is armed.
    next_failure: Option<Delay>,
    /// Links the failure source has struck and not yet seen recovered —
    /// the `max-down` budget, and the exclusion set that stops one
    /// batch of strikes from picking the same victim twice.
    stochastic_failed: Vec<LinkId>,
}

impl<C: EventConsumer> Engine<C> {
    /// Builds an engine. `timeline` holds pre-resolved deterministic
    /// events; `reoptimize` is `(warmup, every)` for the scheduled
    /// controller chain (`None` disables periodic re-optimization).
    pub fn new(
        consumer: C,
        duration: Delay,
        epoch: Delay,
        reoptimize: Option<(Delay, Delay)>,
        timeline: Vec<(Delay, EventKind)>,
        mut churn: Option<ChurnSource>,
        mut failures: Option<FailureSource>,
    ) -> Self {
        assert!(epoch > Delay::ZERO, "epoch must be positive");
        let mut queue = EventQueue::new();

        // Measurement epochs chain dynamically; seed the first close.
        if epoch <= duration {
            queue.push(epoch, EventKind::MeasurementEpoch);
        }
        // The first epoch window's churn is sampled here; subsequent
        // windows are sampled when the preceding epoch closes.
        if let Some(src) = churn.as_mut() {
            Self::schedule_churn(&mut queue, src, &consumer, Delay::ZERO, epoch, duration);
        }
        // Scheduled re-optimizations, laid out up front.
        if let Some((warmup, every)) = reoptimize {
            let mut t = warmup;
            while t <= duration {
                queue.push(t, EventKind::Reoptimize);
                t += every;
            }
        }
        // Deterministic timeline.
        for (at, kind) in timeline {
            queue.push(at, kind);
        }
        let next_failure = failures
            .as_mut()
            .and_then(|f| later(Delay::ZERO, f.next_failure_in()));

        Engine {
            consumer,
            queue,
            duration,
            epoch,
            churn,
            failures,
            next_failure,
            stochastic_failed: Vec::new(),
        }
    }

    /// Samples one epoch window's churn and queues it.
    fn schedule_churn(
        queue: &mut EventQueue,
        src: &mut ChurnSource,
        consumer: &C,
        window_start: Delay,
        epoch: Delay,
        duration: Delay,
    ) {
        if window_start >= duration {
            return;
        }
        let n = consumer.aggregate_count();
        let baseline: Vec<f64> = (0..n)
            .map(|i| consumer.churn_target(AggregateId(i as u32)))
            .collect();
        let live: Vec<u32> = (0..n)
            .map(|i| consumer.flow_count(AggregateId(i as u32)))
            .collect();
        for draw in src.epoch_events(window_start, epoch, &baseline, &live) {
            let at = window_start + draw.offset;
            if at > duration {
                continue;
            }
            let aggregate = AggregateId(draw.aggregate as u32);
            let kind = if draw.delta >= 0 {
                EventKind::FlowArrival {
                    aggregate,
                    count: draw.delta as u32,
                }
            } else {
                EventKind::FlowDeparture {
                    aggregate,
                    count: (-draw.delta) as u32,
                }
            };
            queue.push(at, kind);
        }
    }

    /// Pushes any stochastic failures due before `horizon`.
    fn materialize_failures(&mut self, horizon: Delay) {
        let Some(src) = self.failures.as_mut() else {
            return;
        };
        while let Some(strike) = self.next_failure {
            if strike > horizon || strike > self.duration {
                break;
            }
            if self.stochastic_failed.len() < src.max_down() {
                // Exclude links this source has already struck: the
                // fabric may not have applied a just-materialized
                // failure yet, so the consumer's healthy set alone
                // could hand two strikes in one batch the same victim.
                let healthy: Vec<LinkId> = self
                    .consumer
                    .healthy_duplex_links()
                    .into_iter()
                    .filter(|l| !self.stochastic_failed.contains(l))
                    .collect();
                if let Some(link) = src.pick_victim(&healthy) {
                    self.queue.push(strike, EventKind::LinkFailure { link });
                    if let Some(back) = later(strike, src.repair_in()) {
                        self.queue.push(back, EventKind::LinkRecovery { link });
                    }
                    self.stochastic_failed.push(link);
                }
            }
            self.next_failure = later(strike, src.next_failure_in());
        }
    }

    /// The consumer, for tests that adjust it between build and run.
    #[cfg(test)]
    pub(crate) fn consumer_mut(&mut self) -> &mut C {
        &mut self.consumer
    }

    /// Runs to the configured horizon and returns the per-event log.
    pub fn run(self, scenario: &str, seed: u64) -> ScenarioLog {
        self.run_instrumented(scenario, seed).0
    }

    /// Like [`Engine::run`], but also returns per-event timing
    /// statistics and the consumer (so callers can read its post-run
    /// state, e.g. optimizer scratch peaks). The log itself is
    /// identical to [`Engine::run`]'s — wall-clock numbers never enter
    /// the determinism contract.
    pub fn run_instrumented(
        mut self,
        scenario: &str,
        seed: u64,
    ) -> (ScenarioLog, crate::stats::RunStats, C) {
        let mut records = Vec::new();
        let mut stats = crate::stats::RunStats::default();
        loop {
            // Materialize stochastic failures due before the next queued
            // event, so they enter the heap before we pop it.
            let horizon = self.queue.peek_time().unwrap_or(self.duration);
            self.materialize_failures(horizon);

            let Some(event) = self.queue.pop() else {
                break;
            };
            if event.time > self.duration {
                break;
            }

            // Engine-side follow-ups before the consumer mutates state:
            // epoch chaining + next window's churn (sampled against the
            // state at the window's start, i.e. right now).
            if event.kind == EventKind::MeasurementEpoch {
                let next = event.time + self.epoch;
                if next <= self.duration {
                    self.queue.push(next, EventKind::MeasurementEpoch);
                }
                if let Some(src) = self.churn.as_mut() {
                    Self::schedule_churn(
                        &mut self.queue,
                        src,
                        &self.consumer,
                        event.time,
                        self.epoch,
                        self.duration,
                    );
                }
            }
            if let EventKind::LinkRecovery { link } = event.kind {
                // Any recovery of a stochastically failed link — the
                // engine's own scheduled repair or an earlier timeline
                // repair — puts it back in service and frees its
                // max-down slot. Recoveries of links the source never
                // struck leave the budget alone, and a scheduled repair
                // arriving after a timeline repair already freed the
                // slot finds nothing to remove.
                if let Some(i) = self.stochastic_failed.iter().position(|&l| l == link) {
                    self.stochastic_failed.swap_remove(i);
                }
            }

            let what = self.consumer.describe(&event);
            // lint:allow(wall-clock): timing observability only; never feeds a decision
            let applied_at = std::time::Instant::now();
            let m = self.consumer.on_event(&event);
            stats.record(m.commits.is_some(), applied_at.elapsed().as_secs_f64());
            // Consumer-requested follow-ups (staged install commits and
            // drops): scheduled here so they get queue sequence numbers
            // in a deterministic order.
            for (at, kind) in self.consumer.take_followups() {
                if at <= self.duration {
                    self.queue.push(at, kind);
                }
            }
            records.push(EventRecord {
                time_s: event.time.secs(),
                seq: event.seq,
                what,
                utility: m.utility,
                congested_links: m.congested_links,
                live_flows: m.live_flows,
                failed_links: m.failed_links,
                commits: m.commits,
                warm: m.warm,
            });
        }
        (
            ScenarioLog {
                scenario: scenario.to_string(),
                seed,
                records,
            },
            stats,
            self.consumer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A consumer that just counts events and pretends everything is
    /// healthy — exercises the engine's scheduling alone.
    struct Counter {
        aggregates: usize,
        flows: Vec<u32>,
        seen: Vec<&'static str>,
    }

    impl Counter {
        fn new(aggregates: usize) -> Self {
            Counter {
                aggregates,
                flows: vec![5; aggregates],
                seen: Vec::new(),
            }
        }
    }

    impl EventConsumer for Counter {
        fn on_event(&mut self, event: &Event) -> Measure {
            self.seen.push(event.kind.tag());
            match event.kind {
                EventKind::FlowArrival { aggregate, count } => {
                    self.flows[aggregate.index()] += count;
                }
                EventKind::FlowDeparture { aggregate, count } => {
                    let f = &mut self.flows[aggregate.index()];
                    *f = f.saturating_sub(count);
                }
                _ => {}
            }
            Measure {
                utility: 1.0,
                congested_links: 0,
                live_flows: self.flows.iter().map(|&f| u64::from(f)).sum(),
                failed_links: 0,
                commits: matches!(event.kind, EventKind::Reoptimize).then_some(0),
                warm: false,
            }
        }

        fn describe(&self, event: &Event) -> String {
            event.kind.tag().to_string()
        }

        fn aggregate_count(&self) -> usize {
            self.aggregates
        }

        fn flow_count(&self, aggregate: AggregateId) -> u32 {
            self.flows[aggregate.index()]
        }

        fn churn_target(&self, _aggregate: AggregateId) -> f64 {
            5.0
        }

        fn healthy_duplex_links(&self) -> Vec<LinkId> {
            vec![LinkId(0), LinkId(2), LinkId(4)]
        }
    }

    fn secs(s: f64) -> Delay {
        Delay::from_secs(s)
    }

    #[test]
    fn epochs_and_reopts_follow_the_schedule() {
        let engine = Engine::new(
            Counter::new(2),
            secs(60.0),
            secs(10.0),
            Some((secs(15.0), secs(20.0))),
            vec![(secs(5.0), EventKind::Reoptimize)],
            None,
            None,
        );
        let log = engine.run("sched", 1);
        let epochs = log.records.iter().filter(|r| r.what == "epoch").count();
        assert_eq!(epochs, 6, "epochs close at 10..60");
        // Scheduled chain at 15, 35, 55 plus one timeline reopt at 5.
        assert_eq!(log.reoptimizations(), 4);
        // Time order is respected.
        let times: Vec<f64> = log.records.iter().map(|r| r.time_s).collect();
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(times, sorted);
    }

    #[test]
    fn churn_events_flow_and_replays_are_identical() {
        use crate::spec::{ArrivalSpec, DepartureSpec};
        let run = |seed: u64| {
            let churn = ChurnSource::new(
                seed,
                Some(ArrivalSpec {
                    rate: 0.5,
                    max_flows: 40,
                }),
                Some(DepartureSpec { probability: 0.2 }),
                None,
            );
            let engine = Engine::new(
                Counter::new(3),
                secs(100.0),
                secs(10.0),
                None,
                Vec::new(),
                Some(churn),
                None,
            );
            engine.run("churn", seed).to_text()
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed: byte-identical log");
        assert_ne!(a, run(8), "different seed: different draws");
        assert!(
            a.lines().any(|l| l.contains("arrive")) && a.lines().any(|l| l.contains("depart")),
            "churn must actually fire:\n{a}"
        );
    }

    #[test]
    fn stochastic_failures_pair_with_recoveries() {
        use crate::spec::FailureSpec;
        let failures = FailureSource::new(
            3,
            FailureSpec {
                shape: 1.0,
                scale: secs(20.0),
                repair_shape: 1.0,
                repair_scale: secs(5.0),
                max_down: 1,
            },
        );
        let engine = Engine::new(
            Counter::new(1),
            secs(200.0),
            secs(50.0),
            None,
            Vec::new(),
            None,
            Some(failures),
        );
        let log = engine.run("fail", 3);
        let fails = log.records.iter().filter(|r| r.what == "fail").count();
        let repairs = log.records.iter().filter(|r| r.what == "repair").count();
        assert!(fails >= 2, "mean strike interval 20s over 200s: {fails}");
        // Every strike schedules its repair; the tail pair may land
        // beyond the horizon.
        assert!(
            repairs <= fails && fails - repairs <= 1,
            "{fails}/{repairs}"
        );
    }
}
