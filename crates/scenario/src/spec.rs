//! The declarative scenario format.
//!
//! A scenario is a plain-text, line-oriented, diffable artifact — same
//! philosophy as `fubar_topology::format` — so scenario suites can be
//! checked into `scenarios/` and reviewed like code. `#` starts a
//! comment; one directive per line:
//!
//! ```text
//! scenario <name>                          # required, first directive
//! topology he <capacity>                   # 31-POP HE core
//! topology abilene <capacity>              # 11-POP Abilene
//! topology ring <n> <capacity> <delay>     # n-node ring
//! topology hypergrowth <capacity>          # 64-POP beyond-HE tier
//! topology planetary <capacity>            # 256-POP sharded tier (trunks 4x)
//! topology file <path.topo>                # parsed topology file
//! duration <delay>                         # simulated horizon (default 300s)
//! epoch <delay>                            # measurement cadence (default 10s)
//! seed <u64>                               # default run seed (default 1)
//! workload flows <min> <max> [intra-pop] [intra-region] [large-prob <p>]
//! reoptimize every <delay> warmup <delay> [cold-start]
//! arrivals rate <r> [max-flows <n>]        # Poisson flow arrivals
//! departures prob <p>                      # per-flow departure probability
//! failures shape <k> scale <delay> repair-shape <k> repair-scale <delay> [max-down <n>]
//! diurnal amplitude <a> period <delay>     # sinusoidal demand modulation
//! large-priority <w>                       # Fig-5 style large-flow weighting
//! controller blackout <t1> <t2>            # chaos: no re-optimization in [t1,t2)
//! install delay <d>                        # chaos: commits land this much later
//! install drop <p> seed <s>                # chaos: seeded coin discards installs
//! measure stale <d>                        # chaos: optimize a d-old snapshot
//! optimize budget <moves>                  # chaos: anytime stop after N commits
//! at <delay> fail <a> <b>                  # timeline: deterministic events
//! at <delay> repair <a> <b>
//! at <delay> capacity <a> <b> <bandwidth>
//! at <delay> surge <src> <dst> x<factor>
//! at <delay> relax <src> <dst>
//! at <delay> arrive <src> <dst> <flows>    # aggregate (re)joins mid-run
//! at <delay> depart <src> <dst>            # aggregate leaves mid-run
//! at <delay> reoptimize
//! ```
//!
//! `topology file` runs the scenario on a parsed `.topo` file (grammar
//! in `fubar_topology::format`): the driver resolves the path relative
//! to the `.scn` file's directory first, then the working directory,
//! then the bundled `fubar_topology::catalog` (so catalog scenarios
//! referencing `topologies/*.topo` run anywhere). Timeline events name
//! whatever nodes the file defines; unknown names are reported with the
//! `.scn` line number at build time, before anything runs.
//!
//! `arrive`/`depart` drive *aggregate-level* churn through the fabric's
//! single-aggregate rule plumbing: `depart` clears the pair's installed
//! group (`Fabric::clear_group`) and parks it idle at zero flows;
//! `arrive` sets the live flow count and installs a shortest-path group
//! (`Fabric::set_group`) until the next re-optimization re-plans it.
//!
//! `arrivals rate` is *per baseline flow per epoch*: an aggregate whose
//! baseline is `f` flows sees Poisson(`rate · f · diurnal(t)`) arrivals
//! each epoch, so with `departures prob` equal to the rate the live
//! population orbits the baseline. [`Scenario::parse`] and the
//! [`Display`](std::fmt::Display) impl round-trip exactly.
//!
//! A spec fits at most a million epochs, scheduled re-optimizations or
//! mean failure gaps (`failures … scale`) into its `duration`: the
//! engine queues each one and stalls once a period drops below the
//! clock's resolution, so a shorter period is refused on its line.

use fubar_topology::{Bandwidth, Delay};
use fubar_traffic::MAX_PRIORITY_WEIGHT;
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

/// Most periods of one kind a spec may fit into its duration.
const MAX_PERIODS: f64 = 1e6;

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Which topology the scenario runs on.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// The 31-POP synthesized Hurricane Electric core.
    He {
        /// Uniform link capacity.
        capacity: Bandwidth,
    },
    /// The 11-POP Abilene research backbone.
    Abilene {
        /// Uniform link capacity.
        capacity: Bandwidth,
    },
    /// An `n`-node ring.
    Ring {
        /// Node count.
        nodes: usize,
        /// Uniform link capacity.
        capacity: Bandwidth,
        /// Per-hop one-way delay.
        hop_delay: Delay,
    },
    /// The 64-POP beyond-HE "hypergrowth" tier (8 regions × 8 POPs,
    /// 4,096 aggregates with intra-POP pairs).
    Hypergrowth {
        /// Uniform link capacity.
        capacity: Bandwidth,
    },
    /// The 256-POP "planetary" tier (16 regions × 16 POPs, 65,536
    /// aggregates with intra-POP pairs) — hierarchical capacities
    /// (inter-region trunks carry 4×) and the sharded optimizer's home
    /// turf.
    Planetary {
        /// Intra-region link capacity (trunks get 4×).
        capacity: Bandwidth,
    },
    /// A parsed `.topo` file — any substrate the generators never
    /// produced, with its own (possibly heterogeneous) capacities.
    File {
        /// The path exactly as written in the spec (token-oriented
        /// format: no whitespace). Resolution order: relative to the
        /// `.scn` file, then the working directory, then the bundled
        /// topology catalog.
        path: String,
    },
}

/// Base-workload knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Inclusive flow-count range for ordinary aggregates.
    pub flows: (u32, u32),
    /// Generate aggregates for src == dst pairs.
    pub intra_pop: bool,
    /// Restrict aggregates to same-region pairs (node-name prefix
    /// before `_`): traffic never rides inter-region trunks, making
    /// every region an independent congestion component — the
    /// deep-congestion shape per-component optimizer passes exploit.
    pub intra_region_only: bool,
    /// Probability an aggregate is a heavy file transfer.
    pub large_probability: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            flows: (2, 6),
            intra_pop: false,
            intra_region_only: false,
            large_probability: 0.02,
        }
    }
}

/// Re-optimization schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ReoptimizeSpec {
    /// Period between scheduled re-optimizations.
    pub every: Delay,
    /// Measurement time before the first one.
    pub warmup: Delay,
    /// Seed each run from the previous allocation (incremental) rather
    /// than from scratch.
    pub warm_start: bool,
}

impl Default for ReoptimizeSpec {
    fn default() -> Self {
        ReoptimizeSpec {
            every: Delay::from_secs(60.0),
            warmup: Delay::from_secs(20.0),
            warm_start: true,
        }
    }
}

/// Poisson flow-arrival source.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrivalSpec {
    /// Mean arrivals per baseline flow per epoch.
    pub rate: f64,
    /// Cap on *stochastic* arrivals: sampled arrivals that would push
    /// an aggregate's live flow count above this are turned away.
    /// Deterministic timeline `surge` events are operator actions and
    /// ignore it.
    pub max_flows: u32,
}

/// Per-flow departure source.
#[derive(Clone, Debug, PartialEq)]
pub struct DepartureSpec {
    /// Probability each live flow departs in an epoch.
    pub probability: f64,
}

/// Weibull failure/repair source.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureSpec {
    /// Weibull shape of inter-failure times (k < 1: bursty, k = 1:
    /// memoryless, k > 1: wear-out).
    pub shape: f64,
    /// Weibull scale of inter-failure times.
    pub scale: Delay,
    /// Weibull shape of repair times.
    pub repair_shape: f64,
    /// Weibull scale of repair times.
    pub repair_scale: Delay,
    /// At most this many stochastic failures down at once.
    pub max_down: usize,
}

/// Sinusoidal demand modulation: `1 + amplitude · sin(2πt / period)`.
#[derive(Clone, Debug, PartialEq)]
pub struct DiurnalSpec {
    /// Peak relative swing, in `[0, 1)`.
    pub amplitude: f64,
    /// Full cycle length.
    pub period: Delay,
}

/// Control-plane fault injection. Everything here is deterministic by
/// construction — blackout windows are fixed intervals, install drops
/// draw from their own dedicated seeded coin, staleness selects an
/// earlier snapshot of the same estimator — so chaos runs replay
/// byte-identically per seed and stay bitwise equal across oracle
/// modes and thread counts.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct ChaosSpec {
    /// Controller blackout windows `[start, end)`: re-optimizations
    /// (scheduled or timeline) inside a window are skipped — the fabric
    /// keeps churning and the stale incumbent keeps serving — and a
    /// catch-up run fires at the window end if anything was suppressed.
    pub blackouts: Vec<(Delay, Delay)>,
    /// Rule-installation latency: a re-optimization's rules are staged
    /// and commit this much later; the previous group serves meanwhile.
    pub install_delay: Option<Delay>,
    /// `(probability, seed)`: each install flips a dedicated seeded
    /// coin (one draw per install, in install order) and is discarded
    /// — previous rules stay live — with this probability.
    pub install_drop: Option<(f64, u64)>,
    /// The controller optimizes against the newest estimator snapshot
    /// at least this old, not the current measurement.
    pub measure_stale: Option<Delay>,
    /// Anytime budget: every re-optimization stops after this many
    /// optimizer commits and returns the best incumbent so far — a
    /// move-count deadline, not wall-clock, so runs stay bit-identical
    /// at any thread count.
    pub optimize_budget: Option<usize>,
}

impl ChaosSpec {
    /// True when no chaos directive is present (the default).
    pub fn is_empty(&self) -> bool {
        self.blackouts.is_empty()
            && self.install_delay.is_none()
            && self.install_drop.is_none()
            && self.measure_stale.is_none()
            && self.optimize_budget.is_none()
    }

    /// True if `t` falls inside a blackout window (`[start, end)`).
    pub fn in_blackout(&self, t: Delay) -> bool {
        self.blackouts
            .iter()
            .any(|&(from, until)| t >= from && t < until)
    }
}

/// A deterministic timeline action (node names resolved at build time).
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Fail the duplex link between two named nodes.
    Fail {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
    },
    /// Repair the duplex link between two named nodes.
    Repair {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
    },
    /// Change the capacity of the duplex link between two named nodes.
    Capacity {
        /// One endpoint.
        a: String,
        /// The other endpoint.
        b: String,
        /// New capacity.
        capacity: Bandwidth,
    },
    /// Multiply the demand of every aggregate on an ordered pair.
    Surge {
        /// Ingress node name.
        src: String,
        /// Egress node name.
        dst: String,
        /// Baseline multiplier.
        factor: f64,
    },
    /// Return every aggregate on an ordered pair to baseline demand.
    Relax {
        /// Ingress node name.
        src: String,
        /// Egress node name.
        dst: String,
    },
    /// An aggregate (re)joins mid-run: its pair's live flow count is
    /// set and a shortest-path group is installed for it.
    Arrive {
        /// Ingress node name.
        src: String,
        /// Egress node name.
        dst: String,
        /// Live flows after the arrival.
        flows: u32,
    },
    /// An aggregate leaves mid-run: its installed group is cleared and
    /// it parks idle at zero flows (keeping its id for a later return).
    Depart {
        /// Ingress node name.
        src: String,
        /// Egress node name.
        dst: String,
    },
    /// Force an unscheduled re-optimization.
    Reoptimize,
}

/// One timeline entry: an action at a time.
#[derive(Clone, Debug)]
pub struct TimelineEvent {
    /// When the action fires.
    pub at: Delay,
    /// What happens.
    pub action: Action,
    /// 1-based `.scn` line the event was parsed from, carried so the
    /// driver can report unresolvable node names with their source
    /// location (0 for programmatically built events).
    pub line: usize,
}

/// Equality ignores [`TimelineEvent::line`]: the `Display` round trip
/// re-derives line numbers from the canonical layout, and two events
/// that fire the same action at the same time are the same event.
impl PartialEq for TimelineEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.action == other.action
    }
}

/// A complete declarative scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (used by the catalog and in log headers).
    pub name: String,
    /// The topology to run on.
    pub topology: TopologySpec,
    /// Simulated horizon.
    pub duration: Delay,
    /// Measurement-epoch cadence.
    pub epoch: Delay,
    /// Default seed (CLI `--seed` overrides it).
    pub seed: u64,
    /// Base workload.
    pub workload: WorkloadSpec,
    /// Controller schedule.
    pub reoptimize: ReoptimizeSpec,
    /// Stochastic flow arrivals, if any.
    pub arrivals: Option<ArrivalSpec>,
    /// Stochastic flow departures, if any.
    pub departures: Option<DepartureSpec>,
    /// Stochastic link failures, if any.
    pub failures: Option<FailureSpec>,
    /// Diurnal demand modulation, if any.
    pub diurnal: Option<DiurnalSpec>,
    /// Priority weight applied to large aggregates, if any.
    pub large_priority: Option<f64>,
    /// Control-plane fault injection (empty by default).
    pub chaos: ChaosSpec,
    /// Deterministic scheduled events, in file order.
    pub timeline: Vec<TimelineEvent>,
}

fn parse_num<T: std::str::FromStr>(line: usize, token: &str, what: &str) -> Result<T, ParseError>
where
    T::Err: fmt::Display,
{
    token
        .parse()
        .map_err(|e| err(line, format!("bad {what} {token:?}: {e}")))
}

/// A link capacity: zero parses as a [`Bandwidth`] but the generators
/// and `Fabric::set_capacity` assert against it, so reject it here.
fn parse_capacity(line: usize, token: &str) -> Result<Bandwidth, ParseError> {
    let capacity: Bandwidth = parse_num(line, token, "capacity")?;
    if capacity.bps() > 0.0 {
        Ok(capacity)
    } else {
        Err(err(line, "capacity must be positive"))
    }
}

impl Scenario {
    /// Parses the text format described in the module docs.
    pub fn parse(text: &str) -> Result<Scenario, ParseError> {
        let mut scenario: Option<Scenario> = None;
        // The line each directive was last given on.
        let mut lines: Vec<(&str, usize)> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let t: Vec<&str> = line.split_whitespace().collect();
            if t[0] == "scenario" {
                if scenario.is_some() {
                    return Err(err(lineno, "duplicate `scenario` directive"));
                }
                if t.len() != 2 {
                    return Err(err(lineno, "usage: scenario <name>"));
                }
                scenario = Some(Scenario {
                    name: t[1].to_string(),
                    topology: TopologySpec::Abilene {
                        capacity: Bandwidth::from_mbps(3.0),
                    },
                    duration: Delay::from_secs(300.0),
                    epoch: Delay::from_secs(10.0),
                    seed: 1,
                    workload: WorkloadSpec::default(),
                    reoptimize: ReoptimizeSpec::default(),
                    arrivals: None,
                    departures: None,
                    failures: None,
                    diurnal: None,
                    large_priority: None,
                    chaos: ChaosSpec::default(),
                    timeline: Vec::new(),
                });
                continue;
            }
            let s = scenario
                .as_mut()
                .ok_or_else(|| err(lineno, format!("`{}` before `scenario`", t[0])))?;
            lines.push((t[0], lineno));
            match t[0] {
                "topology" => {
                    s.topology = match t.get(1).copied() {
                        Some("he") if t.len() == 3 => TopologySpec::He {
                            capacity: parse_capacity(lineno, t[2])?,
                        },
                        Some("abilene") if t.len() == 3 => TopologySpec::Abilene {
                            capacity: parse_capacity(lineno, t[2])?,
                        },
                        Some("ring") if t.len() == 5 => TopologySpec::Ring {
                            nodes: parse_num(lineno, t[2], "node count")?,
                            capacity: parse_capacity(lineno, t[3])?,
                            hop_delay: parse_num(lineno, t[4], "delay")?,
                        },
                        Some("hypergrowth") if t.len() == 3 => TopologySpec::Hypergrowth {
                            capacity: parse_capacity(lineno, t[2])?,
                        },
                        Some("planetary") if t.len() == 3 => TopologySpec::Planetary {
                            capacity: parse_capacity(lineno, t[2])?,
                        },
                        Some("file") if t.len() == 3 => TopologySpec::File {
                            path: t[2].to_string(),
                        },
                        _ => return Err(err(
                            lineno,
                            "usage: topology he <cap> | abilene <cap> | ring <n> <cap> <delay> \
                                 | hypergrowth <cap> | planetary <cap> | file <path.topo>",
                        )),
                    };
                    if let TopologySpec::Ring { nodes, .. } = s.topology {
                        if nodes < 3 {
                            return Err(err(lineno, "ring needs at least 3 nodes"));
                        }
                    }
                }
                "duration" => {
                    if t.len() != 2 {
                        return Err(err(lineno, "usage: duration <delay>"));
                    }
                    s.duration = parse_num(lineno, t[1], "duration")?;
                }
                "epoch" => {
                    if t.len() != 2 {
                        return Err(err(lineno, "usage: epoch <delay>"));
                    }
                    s.epoch = parse_num(lineno, t[1], "epoch")?;
                    if s.epoch <= Delay::ZERO {
                        return Err(err(lineno, "epoch must be positive"));
                    }
                }
                "seed" => {
                    if t.len() != 2 {
                        return Err(err(lineno, "usage: seed <u64>"));
                    }
                    s.seed = parse_num(lineno, t[1], "seed")?;
                }
                "workload" => {
                    if t.len() < 4 || t[1] != "flows" {
                        return Err(err(
                            lineno,
                            "usage: workload flows <min> <max> [intra-pop] [intra-region] \
                             [large-prob <p>]",
                        ));
                    }
                    let mut w = WorkloadSpec {
                        flows: (
                            parse_num(lineno, t[2], "flow count")?,
                            parse_num(lineno, t[3], "flow count")?,
                        ),
                        ..WorkloadSpec::default()
                    };
                    if w.flows.0 < 1 || w.flows.0 > w.flows.1 {
                        return Err(err(lineno, "bad flow range"));
                    }
                    let mut k = 4;
                    while k < t.len() {
                        match t[k] {
                            "intra-pop" => w.intra_pop = true,
                            "intra-region" => w.intra_region_only = true,
                            "large-prob" => {
                                k += 1;
                                let p = t
                                    .get(k)
                                    .ok_or_else(|| err(lineno, "large-prob needs a value"))?;
                                w.large_probability = parse_num(lineno, p, "probability")?;
                                if !(0.0..=1.0).contains(&w.large_probability) {
                                    return Err(err(lineno, "large-prob must be in [0,1]"));
                                }
                            }
                            other => {
                                return Err(err(lineno, format!("unknown workload flag {other:?}")))
                            }
                        }
                        k += 1;
                    }
                    s.workload = w;
                }
                "reoptimize" => {
                    if t.len() < 5 || t[1] != "every" || t[3] != "warmup" {
                        return Err(err(
                            lineno,
                            "usage: reoptimize every <delay> warmup <delay> [cold-start]",
                        ));
                    }
                    let every: Delay = parse_num(lineno, t[2], "period")?;
                    if every <= Delay::ZERO {
                        return Err(err(lineno, "reoptimize period must be positive"));
                    }
                    let warm_start = match t.get(5).copied() {
                        None => true,
                        Some("cold-start") => false,
                        Some(other) => {
                            return Err(err(lineno, format!("unknown reoptimize flag {other:?}")))
                        }
                    };
                    s.reoptimize = ReoptimizeSpec {
                        every,
                        warmup: parse_num(lineno, t[4], "warmup")?,
                        warm_start,
                    };
                }
                "arrivals" => {
                    if t.len() < 3 || t[1] != "rate" {
                        return Err(err(lineno, "usage: arrivals rate <r> [max-flows <n>]"));
                    }
                    let rate: f64 = parse_num(lineno, t[2], "rate")?;
                    if rate < 0.0 || !rate.is_finite() {
                        return Err(err(lineno, "arrival rate must be non-negative"));
                    }
                    let max_flows = match (t.get(3).copied(), t.get(4)) {
                        (None, _) => 1_000,
                        (Some("max-flows"), Some(v)) => parse_num(lineno, v, "max-flows")?,
                        _ => return Err(err(lineno, "usage: arrivals rate <r> [max-flows <n>]")),
                    };
                    // The per-aggregate Poisson mean is rate × target
                    // flows; a rate that overflows against its own
                    // ceiling can only abort the sampler.
                    if !(rate * f64::from(max_flows)).is_finite() {
                        return Err(err(lineno, "arrival rate times max-flows must be finite"));
                    }
                    s.arrivals = Some(ArrivalSpec { rate, max_flows });
                }
                "departures" => {
                    if t.len() != 3 || t[1] != "prob" {
                        return Err(err(lineno, "usage: departures prob <p>"));
                    }
                    let probability: f64 = parse_num(lineno, t[2], "probability")?;
                    if !(0.0..=1.0).contains(&probability) {
                        return Err(err(lineno, "departure prob must be in [0,1]"));
                    }
                    s.departures = Some(DepartureSpec { probability });
                }
                "failures" => {
                    if t.len() < 9
                        || t[1] != "shape"
                        || t[3] != "scale"
                        || t[5] != "repair-shape"
                        || t[7] != "repair-scale"
                    {
                        return Err(err(
                            lineno,
                            "usage: failures shape <k> scale <delay> repair-shape <k> \
                             repair-scale <delay> [max-down <n>]",
                        ));
                    }
                    let shape: f64 = parse_num(lineno, t[2], "shape")?;
                    let repair_shape: f64 = parse_num(lineno, t[6], "repair shape")?;
                    // `NaN <= 0.0` is false, so a plain sign check would
                    // wave NaN shapes through and break the round trip.
                    let shape_ok = |k: f64| k.is_finite() && k > 0.0;
                    if !shape_ok(shape) || !shape_ok(repair_shape) {
                        return Err(err(lineno, "Weibull shapes must be positive and finite"));
                    }
                    let max_down = match (t.get(9).copied(), t.get(10)) {
                        (None, _) => 1,
                        (Some("max-down"), Some(v)) => parse_num(lineno, v, "max-down")?,
                        _ => return Err(err(lineno, "trailing tokens after repair-scale")),
                    };
                    s.failures = Some(FailureSpec {
                        shape,
                        scale: parse_num(lineno, t[4], "scale")?,
                        repair_shape,
                        repair_scale: parse_num(lineno, t[8], "repair scale")?,
                        max_down,
                    });
                }
                "diurnal" => {
                    if t.len() != 5 || t[1] != "amplitude" || t[3] != "period" {
                        return Err(err(lineno, "usage: diurnal amplitude <a> period <delay>"));
                    }
                    let amplitude: f64 = parse_num(lineno, t[2], "amplitude")?;
                    if !(0.0..1.0).contains(&amplitude) {
                        return Err(err(lineno, "amplitude must be in [0,1)"));
                    }
                    let period: Delay = parse_num(lineno, t[4], "period")?;
                    if period <= Delay::ZERO {
                        return Err(err(lineno, "period must be positive"));
                    }
                    s.diurnal = Some(DiurnalSpec { amplitude, period });
                }
                "large-priority" => {
                    if t.len() != 2 {
                        return Err(err(lineno, "usage: large-priority <w>"));
                    }
                    let w: f64 = parse_num(lineno, t[1], "weight")?;
                    if !(w > 0.0 && w <= MAX_PRIORITY_WEIGHT) {
                        return Err(err(
                            lineno,
                            format!(
                                "priority weight must be positive and at most {MAX_PRIORITY_WEIGHT:e}"
                            ),
                        ));
                    }
                    s.large_priority = Some(w);
                }
                "controller" => {
                    if t.len() != 4 || t[1] != "blackout" {
                        return Err(err(lineno, "usage: controller blackout <t1> <t2>"));
                    }
                    let from: Delay = parse_num(lineno, t[2], "blackout start")?;
                    let until: Delay = parse_num(lineno, t[3], "blackout end")?;
                    if until <= from {
                        return Err(err(lineno, "blackout end must be after its start"));
                    }
                    s.chaos.blackouts.push((from, until));
                }
                "install" => match t.get(1).copied() {
                    Some("delay") if t.len() == 3 => {
                        let d: Delay = parse_num(lineno, t[2], "install delay")?;
                        if d <= Delay::ZERO {
                            return Err(err(lineno, "install delay must be positive"));
                        }
                        s.chaos.install_delay = Some(d);
                    }
                    Some("drop") if t.len() == 5 && t[3] == "seed" => {
                        let p: f64 = parse_num(lineno, t[2], "drop probability")?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(err(lineno, "drop probability must be in [0,1]"));
                        }
                        s.chaos.install_drop = Some((p, parse_num(lineno, t[4], "drop seed")?));
                    }
                    _ => {
                        return Err(err(
                            lineno,
                            "usage: install delay <d> | install drop <p> seed <s>",
                        ))
                    }
                },
                "measure" => {
                    if t.len() != 3 || t[1] != "stale" {
                        return Err(err(lineno, "usage: measure stale <d>"));
                    }
                    let d: Delay = parse_num(lineno, t[2], "staleness")?;
                    if d <= Delay::ZERO {
                        return Err(err(lineno, "staleness must be positive"));
                    }
                    s.chaos.measure_stale = Some(d);
                }
                "optimize" => {
                    if t.len() != 3 || t[1] != "budget" {
                        return Err(err(lineno, "usage: optimize budget <moves>"));
                    }
                    let budget: usize = parse_num(lineno, t[2], "budget")?;
                    if budget == 0 {
                        return Err(err(lineno, "budget must allow at least one commit"));
                    }
                    s.chaos.optimize_budget = Some(budget);
                }
                "at" => {
                    if t.len() < 3 {
                        return Err(err(lineno, "usage: at <delay> <action...>"));
                    }
                    let at: Delay = parse_num(lineno, t[1], "time")?;
                    let action = match (t[2], t.len()) {
                        ("fail", 5) => Action::Fail {
                            a: t[3].to_string(),
                            b: t[4].to_string(),
                        },
                        ("repair", 5) => Action::Repair {
                            a: t[3].to_string(),
                            b: t[4].to_string(),
                        },
                        ("capacity", 6) => Action::Capacity {
                            a: t[3].to_string(),
                            b: t[4].to_string(),
                            capacity: parse_capacity(lineno, t[5])?,
                        },
                        ("surge", 6) => {
                            let f = t[5]
                                .strip_prefix('x')
                                .ok_or_else(|| err(lineno, "surge factor must look like x4"))?;
                            let factor: f64 = parse_num(lineno, f, "factor")?;
                            if factor <= 0.0 || !factor.is_finite() {
                                return Err(err(lineno, "surge factor must be positive"));
                            }
                            Action::Surge {
                                src: t[3].to_string(),
                                dst: t[4].to_string(),
                                factor,
                            }
                        }
                        ("relax", 5) => Action::Relax {
                            src: t[3].to_string(),
                            dst: t[4].to_string(),
                        },
                        ("arrive", 6) => {
                            let flows: u32 = parse_num(lineno, t[5], "flow count")?;
                            if flows == 0 {
                                return Err(err(lineno, "arrive needs at least one flow"));
                            }
                            Action::Arrive {
                                src: t[3].to_string(),
                                dst: t[4].to_string(),
                                flows,
                            }
                        }
                        ("depart", 5) => Action::Depart {
                            src: t[3].to_string(),
                            dst: t[4].to_string(),
                        },
                        ("reoptimize", 3) => Action::Reoptimize,
                        (other, _) => {
                            return Err(err(
                                lineno,
                                format!(
                                    "unknown or malformed action {other:?} \
                                     (fail/repair/capacity/surge/relax/arrive/depart/reoptimize)"
                                ),
                            ))
                        }
                    };
                    s.timeline.push(TimelineEvent {
                        at,
                        action,
                        line: lineno,
                    });
                }
                other => return Err(err(lineno, format!("unknown directive {other:?}"))),
            }
        }
        let s = scenario.ok_or_else(|| err(1, "missing `scenario` directive"))?;
        let (d, r) = (s.duration.secs(), &s.reoptimize);
        let gaps = s.failures.as_ref().map_or(0.0, |f| d / f.scale.secs());
        let reopts = (d - r.warmup.secs()) / r.every.secs();
        let periods = [
            ("epoch", d / s.epoch.secs()),
            ("reoptimize", reopts),
            ("failures", gaps),
        ];
        // NaN is `0s / 0s`: a zero failure scale on a zero duration.
        let Some(&(what, _)) = periods.iter().find(|p| p.1 > MAX_PERIODS || p.1.is_nan()) else {
            return Ok(s);
        };
        // A period left at its default is blamed on the `duration` line.
        let last = |d| lines.iter().rev().find(|l| l.0 == d).map(|l| l.1);
        let line = last(what).or(last("duration")).unwrap_or(1);
        let duration = fmt_delay(s.duration);
        Err(err(
            line,
            format!("{what}: more than {MAX_PERIODS:e} periods in {duration}"),
        ))
    }
}

fn fmt_delay(d: Delay) -> String {
    format!("{}s", d.secs())
}

fn fmt_bw(b: Bandwidth) -> String {
    format!("{}bps", b.bps())
}

impl fmt::Display for Scenario {
    /// Serializes into the text format; `parse` round-trips it exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scenario {}", self.name)?;
        match &self.topology {
            TopologySpec::He { capacity } => writeln!(f, "topology he {}", fmt_bw(*capacity))?,
            TopologySpec::Abilene { capacity } => {
                writeln!(f, "topology abilene {}", fmt_bw(*capacity))?
            }
            TopologySpec::Ring {
                nodes,
                capacity,
                hop_delay,
            } => writeln!(
                f,
                "topology ring {} {} {}",
                nodes,
                fmt_bw(*capacity),
                fmt_delay(*hop_delay)
            )?,
            TopologySpec::Hypergrowth { capacity } => {
                writeln!(f, "topology hypergrowth {}", fmt_bw(*capacity))?
            }
            TopologySpec::Planetary { capacity } => {
                writeln!(f, "topology planetary {}", fmt_bw(*capacity))?
            }
            TopologySpec::File { path } => writeln!(f, "topology file {path}")?,
        }
        writeln!(f, "duration {}", fmt_delay(self.duration))?;
        writeln!(f, "epoch {}", fmt_delay(self.epoch))?;
        writeln!(f, "seed {}", self.seed)?;
        write!(
            f,
            "workload flows {} {}",
            self.workload.flows.0, self.workload.flows.1
        )?;
        if self.workload.intra_pop {
            write!(f, " intra-pop")?;
        }
        if self.workload.intra_region_only {
            write!(f, " intra-region")?;
        }
        if self.workload.large_probability != WorkloadSpec::default().large_probability {
            write!(f, " large-prob {}", self.workload.large_probability)?;
        }
        writeln!(f)?;
        write!(
            f,
            "reoptimize every {} warmup {}",
            fmt_delay(self.reoptimize.every),
            fmt_delay(self.reoptimize.warmup)
        )?;
        if !self.reoptimize.warm_start {
            write!(f, " cold-start")?;
        }
        writeln!(f)?;
        if let Some(a) = &self.arrivals {
            writeln!(f, "arrivals rate {} max-flows {}", a.rate, a.max_flows)?;
        }
        if let Some(d) = &self.departures {
            writeln!(f, "departures prob {}", d.probability)?;
        }
        if let Some(w) = &self.failures {
            writeln!(
                f,
                "failures shape {} scale {} repair-shape {} repair-scale {} max-down {}",
                w.shape,
                fmt_delay(w.scale),
                w.repair_shape,
                fmt_delay(w.repair_scale),
                w.max_down
            )?;
        }
        if let Some(d) = &self.diurnal {
            writeln!(
                f,
                "diurnal amplitude {} period {}",
                d.amplitude,
                fmt_delay(d.period)
            )?;
        }
        if let Some(w) = self.large_priority {
            writeln!(f, "large-priority {w}")?;
        }
        for &(from, until) in &self.chaos.blackouts {
            writeln!(
                f,
                "controller blackout {} {}",
                fmt_delay(from),
                fmt_delay(until)
            )?;
        }
        if let Some(d) = self.chaos.install_delay {
            writeln!(f, "install delay {}", fmt_delay(d))?;
        }
        if let Some((p, seed)) = self.chaos.install_drop {
            writeln!(f, "install drop {p} seed {seed}")?;
        }
        if let Some(d) = self.chaos.measure_stale {
            writeln!(f, "measure stale {}", fmt_delay(d))?;
        }
        if let Some(n) = self.chaos.optimize_budget {
            writeln!(f, "optimize budget {n}")?;
        }
        for e in &self.timeline {
            write!(f, "at {} ", fmt_delay(e.at))?;
            match &e.action {
                Action::Fail { a, b } => writeln!(f, "fail {a} {b}")?,
                Action::Repair { a, b } => writeln!(f, "repair {a} {b}")?,
                Action::Capacity { a, b, capacity } => {
                    writeln!(f, "capacity {a} {b} {}", fmt_bw(*capacity))?
                }
                Action::Surge { src, dst, factor } => writeln!(f, "surge {src} {dst} x{factor}")?,
                Action::Relax { src, dst } => writeln!(f, "relax {src} {dst}")?,
                Action::Arrive { src, dst, flows } => writeln!(f, "arrive {src} {dst} {flows}")?,
                Action::Depart { src, dst } => writeln!(f, "depart {src} {dst}")?,
                Action::Reoptimize => writeln!(f, "reoptimize")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = "
# A fully loaded spec.
scenario kitchen_sink
topology ring 6 800kbps 2ms
duration 120s
epoch 5s
seed 42
workload flows 3 9 intra-pop intra-region large-prob 0.1
reoptimize every 30s warmup 10s cold-start
arrivals rate 0.25 max-flows 50
departures prob 0.1
failures shape 1.5 scale 400s repair-shape 1 repair-scale 60s max-down 2
diurnal amplitude 0.4 period 100s
large-priority 4
controller blackout 60s 90s
install delay 2s
install drop 0.25 seed 9
measure stale 10s
optimize budget 64
at 20s fail n0 n1
at 40s repair n0 n1
at 50s capacity n2 n3 200kbps
at 60s surge n0 n3 x5
at 80s relax n0 n3
at 85s depart n1 n4
at 88s arrive n1 n4 7
at 90s reoptimize
";

    #[test]
    fn parses_a_full_spec() {
        let s = Scenario::parse(FULL).unwrap();
        assert_eq!(s.name, "kitchen_sink");
        assert_eq!(
            s.topology,
            TopologySpec::Ring {
                nodes: 6,
                capacity: Bandwidth::from_kbps(800.0),
                hop_delay: Delay::from_ms(2.0)
            }
        );
        assert_eq!(s.duration, Delay::from_secs(120.0));
        assert_eq!(s.seed, 42);
        assert_eq!(s.workload.flows, (3, 9));
        assert!(s.workload.intra_pop);
        assert!(s.workload.intra_region_only);
        assert!(!s.reoptimize.warm_start);
        assert_eq!(s.arrivals.as_ref().unwrap().max_flows, 50);
        assert_eq!(s.failures.as_ref().unwrap().max_down, 2);
        assert_eq!(s.large_priority, Some(4.0));
        assert_eq!(
            s.chaos.blackouts,
            vec![(Delay::from_secs(60.0), Delay::from_secs(90.0))]
        );
        assert_eq!(s.chaos.install_delay, Some(Delay::from_secs(2.0)));
        assert_eq!(s.chaos.install_drop, Some((0.25, 9)));
        assert_eq!(s.chaos.measure_stale, Some(Delay::from_secs(10.0)));
        assert_eq!(s.chaos.optimize_budget, Some(64));
        assert_eq!(s.timeline.len(), 8);
        assert_eq!(
            s.timeline[3].action,
            Action::Surge {
                src: "n0".into(),
                dst: "n3".into(),
                factor: 5.0
            }
        );
        assert_eq!(
            s.timeline[6].action,
            Action::Arrive {
                src: "n1".into(),
                dst: "n4".into(),
                flows: 7
            }
        );
    }

    #[test]
    fn hypergrowth_topology_round_trips() {
        let s = Scenario::parse("scenario hg\ntopology hypergrowth 200Mbps\n").unwrap();
        assert_eq!(
            s.topology,
            TopologySpec::Hypergrowth {
                capacity: Bandwidth::from_mbps(200.0)
            }
        );
        let back = Scenario::parse(&s.to_string()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn planetary_topology_round_trips() {
        let s = Scenario::parse("scenario pl\ntopology planetary 150Mbps\n").unwrap();
        assert_eq!(
            s.topology,
            TopologySpec::Planetary {
                capacity: Bandwidth::from_mbps(150.0)
            }
        );
        let back = Scenario::parse(&s.to_string()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn file_topology_round_trips() {
        let s = Scenario::parse("scenario f\ntopology file topologies/nren-eu.topo\n").unwrap();
        assert_eq!(
            s.topology,
            TopologySpec::File {
                path: "topologies/nren-eu.topo".into()
            }
        );
        let text = s.to_string();
        assert!(text.contains("topology file topologies/nren-eu.topo\n"));
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(s, back);
        // Wrong arity is a usage error.
        let e = Scenario::parse("scenario f\ntopology file\n").unwrap_err();
        assert!(e.message.contains("usage"), "{}", e.message);
        let e = Scenario::parse("scenario f\ntopology file a.topo b.topo\n").unwrap_err();
        assert!(e.message.contains("usage"), "{}", e.message);
    }

    #[test]
    fn timeline_events_remember_their_source_line() {
        let s = Scenario::parse(FULL).unwrap();
        // `at 20s fail n0 n1` is on line 18 of the FULL fixture (the
        // leading newline makes the `scenario` directive line 3).
        let fail = &s.timeline[0];
        assert_eq!(
            fail.action,
            Action::Fail {
                a: "n0".into(),
                b: "n1".into()
            }
        );
        assert!(fail.line > 0, "parsed events carry their line");
        assert_eq!(
            FULL.lines().nth(fail.line - 1).unwrap().trim(),
            "at 20s fail n0 n1"
        );
        // Equality ignores the line: a Display round trip relocates
        // events but must still compare equal (checked in
        // round_trips_exactly), and an explicit witness here:
        let mut moved = fail.clone();
        moved.line = 999;
        assert_eq!(*fail, moved);
    }

    #[test]
    fn zero_flow_arrive_rejected() {
        let e = Scenario::parse("scenario a\nat 5s arrive n0 n1 0\n").unwrap_err();
        assert!(e.message.contains("at least one flow"), "{}", e.message);
    }

    #[test]
    fn round_trips_exactly() {
        let s = Scenario::parse(FULL).unwrap();
        let text = s.to_string();
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(s, back);
        // And serialization is a fixed point.
        assert_eq!(text, back.to_string());
    }

    #[test]
    fn minimal_spec_gets_defaults() {
        let s = Scenario::parse("scenario tiny\ntopology abilene 3Mbps\n").unwrap();
        assert_eq!(s.duration, Delay::from_secs(300.0));
        assert_eq!(s.epoch, Delay::from_secs(10.0));
        assert_eq!(s.seed, 1);
        assert!(s.reoptimize.warm_start);
        assert!(s.arrivals.is_none());
        assert!(s.chaos.is_empty());
        assert!(s.timeline.is_empty());
        let back = Scenario::parse(&s.to_string()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = Scenario::parse("topology he 1Mbps\n").unwrap_err();
        assert!(e.message.contains("before `scenario`"));

        let e = Scenario::parse("scenario a\nscenario b\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate"));

        let e = Scenario::parse("scenario a\nfrobnicate\n").unwrap_err();
        assert!(e.message.contains("unknown directive"));

        let e = Scenario::parse("scenario a\nat 5s explode n0 n1\n").unwrap_err();
        assert!(e.message.contains("unknown or malformed action"));

        let e = Scenario::parse("scenario a\nat 5s surge n0 n1 4\n").unwrap_err();
        assert!(e.message.contains("x4"));

        let e = Scenario::parse("scenario a\ndiurnal amplitude 1.5 period 10s\n").unwrap_err();
        assert!(e.message.contains("amplitude"));

        let e = Scenario::parse("").unwrap_err();
        assert!(e.message.contains("missing"));

        // Finite, but flows × priority would overflow the objective.
        let e = Scenario::parse("scenario a\nlarge-priority 1e308\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("at most 1e288"), "{}", e.message);

        for line in [
            "at 5s capacity n0 n1 0bps",
            "topology ring 6 0bps 2ms",
            "topology he 0bps",
            "topology abilene 0bps",
            "topology hypergrowth 0bps",
            "topology planetary 0bps",
        ] {
            let e = Scenario::parse(&format!("scenario a\n{line}\n")).unwrap_err();
            assert_eq!(
                (e.line, e.message.as_str()),
                (2, "capacity must be positive")
            );
        }

        // A period too short for the duration is blamed on its own
        // directive, or on `duration` when left at its default.
        let f = "failures shape 1 scale";
        for (spec, line) in [
            ("epoch 1us\nseed 1", 2),
            ("seed 1\nduration 1e8s", 3),
            (
                "duration 300s\nepoch 300s\nreoptimize every 0.1us warmup 0s",
                4,
            ),
            (&format!("{f} 1e-9s repair-shape 1 repair-scale 1s"), 2),
            (
                &format!("duration 0s\n{f} 0s repair-shape 1 repair-scale 1s"),
                3,
            ),
        ] {
            let e = Scenario::parse(&format!("scenario a\n{spec}\n")).unwrap_err();
            assert!(
                e.line == line && e.message.contains("more than 1e6"),
                "{spec}: {e}"
            );
        }
        assert!(Scenario::parse("scenario a\nduration 1e6s\nepoch 1s\n").is_ok());
    }

    #[test]
    fn chaos_directives_validate() {
        // Blackout windows must be non-empty.
        let e = Scenario::parse("scenario a\ncontroller blackout 20s 20s\n").unwrap_err();
        assert!(e.message.contains("after its start"), "{}", e.message);
        let e = Scenario::parse("scenario a\ncontroller blackout 30s 10s\n").unwrap_err();
        assert!(e.message.contains("after its start"), "{}", e.message);
        // Drop probability is a probability.
        let e = Scenario::parse("scenario a\ninstall drop 1.5 seed 1\n").unwrap_err();
        assert!(e.message.contains("[0,1]"), "{}", e.message);
        let e = Scenario::parse("scenario a\ninstall drop NaN seed 1\n").unwrap_err();
        assert!(e.message.contains("[0,1]"), "{}", e.message);
        // Budget zero would forbid any move at all.
        let e = Scenario::parse("scenario a\noptimize budget 0\n").unwrap_err();
        assert!(e.message.contains("at least one"), "{}", e.message);
        // Zero latencies degenerate to the synchronous path; reject.
        let e = Scenario::parse("scenario a\ninstall delay 0s\n").unwrap_err();
        assert!(e.message.contains("positive"), "{}", e.message);
        let e = Scenario::parse("scenario a\nmeasure stale 0s\n").unwrap_err();
        assert!(e.message.contains("positive"), "{}", e.message);
    }

    #[test]
    fn chaos_directives_round_trip() {
        let text = "scenario c\ntopology ring 4 500kbps 1ms\n\
                    controller blackout 10s 20s\ncontroller blackout 40s 55s\n\
                    install delay 3s\ninstall drop 0.5 seed 77\n\
                    measure stale 15s\noptimize budget 12\n";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.chaos.blackouts.len(), 2);
        assert!(s.chaos.in_blackout(Delay::from_secs(41.0)));
        assert!(
            !s.chaos.in_blackout(Delay::from_secs(55.0)),
            "end exclusive"
        );
        assert!(
            s.chaos.in_blackout(Delay::from_secs(10.0)),
            "start inclusive"
        );
        let back = Scenario::parse(&s.to_string()).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.to_string(), back.to_string());
    }

    #[test]
    fn non_finite_weibull_shapes_rejected() {
        for bad in ["NaN", "inf", "-inf"] {
            let text = format!(
                "scenario a\nfailures shape {bad} scale 10s repair-shape 1 repair-scale 5s\n"
            );
            let e = Scenario::parse(&text).unwrap_err();
            assert!(e.message.contains("finite"), "{bad}: {}", e.message);
            let text = format!(
                "scenario a\nfailures shape 1 scale 10s repair-shape {bad} repair-scale 5s\n"
            );
            Scenario::parse(&text).unwrap_err();
        }
    }

    #[test]
    fn wrong_arity_reports_usage_not_unknown_directive() {
        for bad in [
            "scenario a\nduration 10s 20s\n",
            "scenario a\nepoch\n",
            "scenario a\nseed 1 2\n",
            "scenario a\nlarge-priority\n",
            "scenario a\ncontroller blackout 5s\n",
            "scenario a\ninstall\n",
            "scenario a\ninstall drop 0.5\n",
            "scenario a\nmeasure stale\n",
            "scenario a\noptimize budget\n",
        ] {
            let e = Scenario::parse(bad).unwrap_err();
            assert!(
                e.message.contains("usage:"),
                "expected a usage error for {bad:?}, got: {}",
                e.message
            );
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let s =
            Scenario::parse("\n# hi\nscenario t # trailing\ntopology he 1Mbps\n\n# bye\n").unwrap();
        assert_eq!(s.name, "t");
    }
}
