//! # fubar-scenario
//!
//! A deterministic discrete-event scenario engine for the FUBAR
//! reproduction: the machinery that stresses the offline controller the
//! way a real network would — flows arrive and depart, links fail and
//! come back, capacity changes under maintenance, demand breathes with
//! the time of day — instead of handing it one static traffic matrix.
//!
//! The crate has four layers:
//!
//! * **[`spec`]** — a declarative, diffable, line-oriented scenario
//!   format ([`Scenario::parse`] / `Display`); scenario suites are
//!   checked into `scenarios/` and embedded as the [`catalog`];
//! * **[`event`]** — typed events and a binary-heap [`EventQueue`]
//!   totally ordered by `(time, seq)`;
//! * **[`stochastic`]** — seeded sources: Poisson flow arrivals and
//!   Binomial departures, Weibull failure/repair processes, and
//!   diurnal demand modulation;
//! * **[`engine`] + [`driver`]** — the engine pops events and drives an
//!   [`EventConsumer`]; the bundled [`SdnConsumer`] applies them to a
//!   `fubar_sdn::Fabric` with a periodically re-optimizing controller
//!   that **warm-starts** each run from the previous allocation
//!   (`fubar_core::Optimizer::run_from`).
//!
//! The determinism contract: a scenario run is a pure function of
//! `(spec, seed)` — two runs with the same pair produce byte-identical
//! [`ScenarioLog`]s.
//!
//! ```
//! use fubar_scenario::{catalog, run, RunOptions};
//!
//! let spec = catalog::load("flash_crowd").unwrap();
//! let mut short = spec.clone();
//! short.duration = fubar_topology::Delay::from_secs(60.0);
//! let (a, _stats) = run(&short, 7, &RunOptions::default()).unwrap();
//! let (b, _stats) = run(&short, 7, &RunOptions::default()).unwrap();
//! assert_eq!(a.to_text(), b.to_text());
//! assert!(a.records.len() > 10);
//! ```
#![forbid(unsafe_code)]

pub mod catalog;
pub mod chaos;
pub mod driver;
pub mod engine;
pub mod event;
pub mod log;
pub mod spec;
pub mod stats;
pub mod stochastic;

pub use chaos::{score_log, search, SearchOutcome};
pub use driver::{build, build_with, load_file_topology, run, BuildError, RunOptions, SdnConsumer};
pub use engine::{Engine, EventConsumer, Measure};
pub use event::{Event, EventKind, EventQueue};
pub use log::{EventRecord, ScenarioLog};
pub use spec::{
    Action, ArrivalSpec, ChaosSpec, DepartureSpec, DiurnalSpec, FailureSpec, ParseError,
    ReoptimizeSpec, Scenario, TimelineEvent, TopologySpec, WorkloadSpec,
};
pub use stats::{Percentiles, RunStats};
pub use stochastic::{diurnal_factor, sample_weibull, ChurnSource, FailureSource};
