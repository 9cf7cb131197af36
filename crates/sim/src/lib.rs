//! # avmon-sim — trace-driven discrete-event simulation of AVMON overlays
//!
//! The paper's evaluation (§5) is "a trace-driven discrete event
//! simulation"; this crate is that simulator. It replays an
//! [`avmon_churn::Trace`] against real [`avmon::Node`] state machines —
//! the exact code that also runs over UDP in `avmon-runtime` — and
//! measures the paper's metrics: discovery time, memory, computation,
//! bandwidth, useless pings, and availability-estimation accuracy.
//!
//! Runs are deterministic: a simulation is a pure function of
//! `(trace, options)` — including options that inject faults.
//!
//! ```
//! use avmon::Config;
//! use avmon_churn::stat;
//! use avmon_sim::{metrics, SimOptions, Simulation};
//!
//! let trace = stat(50, 20 * avmon::MINUTE, 0.1, 3);
//! let config = Config::builder(50).build()?;
//! let report = Simulation::new(trace, SimOptions::new(config)).run();
//! let latencies: Vec<f64> =
//!     report.discovery_latencies(1).iter().map(|&ms| ms as f64).collect();
//! assert!(metrics::mean(&latencies) < 3.0 * 60_000.0);
//! # Ok::<(), avmon::Error>(())
//! ```
//!
//! # Fault injection — a documented deviation from §3
//!
//! The paper assumes "communication between pairs of nodes is reliable
//! and timely if both nodes are currently alive" (§3), and the default
//! [`NetworkModel`] reproduces exactly that. Everything else in the fault
//! subsystem deliberately breaks the assumption, so the reproduction can
//! probe the regimes where AVMON's consistency condition actually earns
//! its keep: message loss, duplication, bounded reordering jitter, healed
//! partitions (symmetric or one-way), loss bursts, and node freezes.
//! All fault randomness derives from the master seed — a faulty run
//! replays byte-identically, and with every knob at zero the RNG stream
//! is identical to the reliable engine.
//!
//! ## Authoring a scenario
//!
//! 1. Describe the fault timeline with [`Scenario::builder`] (or generate
//!    one with [`Scenario::random`] for fuzz sweeps — the seed is embedded
//!    in the name, so failures replay).
//! 2. Attach it with [`SimOptions::scenario`]; tune base link faults via
//!    [`SimOptions::network`] ([`LinkFaults`] has loss / duplication /
//!    jitter knobs).
//! 3. Run, then read [`SimReport::invariants`]: the always-on
//!    [`invariants::InvariantChecker`] has been asserting AVMON's core
//!    properties (no ghost monitors, eventual PS/TS agreement after heal,
//!    monitor-set convergence toward `K`) the whole run.
//!
//! ```
//! use avmon::Config;
//! use avmon_churn::stat;
//! use avmon_sim::{LinkFaults, Scenario, SimOptions, Simulation};
//!
//! let minute = avmon::MINUTE;
//! let trace = stat(60, 60 * minute, 0.1, 3);
//! // Cut ten nodes off for ten minutes mid-run, and lose 5% of all
//! // messages throughout.
//! let island: Vec<_> = trace.control_group.clone();
//! let mainland: Vec<_> = trace
//!     .identities()
//!     .into_iter()
//!     .filter(|id| !island.contains(id))
//!     .collect();
//! let scenario = Scenario::builder("island")
//!     .partition(70 * minute, 10 * minute, island, mainland)
//!     .build()?;
//! let mut opts = SimOptions::new(Config::builder(60).build()?).scenario(scenario);
//! opts.network.faults = LinkFaults { loss: 0.05, ..LinkFaults::default() };
//! let report = Simulation::new(trace, opts).run();
//! assert!(report.invariants.passed(), "{:?}", report.invariants.violations);
//! # Ok::<(), avmon::Error>(())
//! ```
//!
//! ## Adversaries and self-stabilization
//!
//! Beyond link faults, the same timeline can declare coordinated *eclipse
//! campaigns* ([`Fault::Eclipse`] — coalition NOTIFY forgery, join and
//! notify suppression, victim overreporting) and instantaneous *state
//! corruption* ([`Fault::Corrupt`] — ghost PS/TS entries, dropped
//! entries, scrambled monitoring counters). Declared adversary windows
//! are scored rather than fatal: violations by a node inside its window
//! land in [`InvariantSummary::expected_violations`], and the checker
//! then *proves re-convergence* — a node still violating the consistency
//! condition past its derived recovery deadline is a hard
//! [`InvariantViolation::StabilizationFailure`]. Every run additionally
//! produces failure-detector QoS scores ([`SimReport::qos`]):
//! detection-time distribution, mistake rate and duration, per-window
//! stabilization verdicts, and eclipse-resistance.
//!
//! # Module map
//!
//! * [`engine`] — options, the node table (`Vec<SimNode>` in ascending
//!   identity order behind one `NodeId → slot` lookup; DESIGN.md §5), event
//!   loop, churn/corruption handlers, output path
//! * `calendar` — heap + timer lanes + delivery wheel as one `(time, seq)` queue
//! * `crosscheck` — the Fig. 2 cross-check hashed one hop ahead on a second
//!   core, replayed only onto bit-equal sides ([`CrossCheckStats`])
//! * [`network`] — latency model, link faults, compiled partition windows
//! * [`scenario`] — the declarative fault timeline
//! * [`invariants`] — the always-on protocol invariant checker
//! * [`metrics`] — the report types the paper's figures are plotted from
//! * `qos` — streaming failure-detector QoS accumulators
//! * `report` — [`SimReport`] assembly, in slot order

// Library code returns errors; a panic site needs its own reasoned `#[expect]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::missing_panics_doc
    )
)]

mod calendar;
mod crosscheck;
pub mod engine;
pub mod invariants;
pub mod metrics;
pub mod network;
mod qos;
mod report;
pub mod scenario;

pub use calendar::CalendarStats;
pub use crosscheck::CrossCheckStats;
pub use engine::{SimOptions, Simulation};
pub use invariants::{
    CheckStrategy, InvariantChecker, InvariantConfig, InvariantSummary, InvariantViolation,
    RngLedger, WindowOutcome,
};
pub use metrics::{
    AvailabilityMeasure, DetectionDistribution, DiscoveryLog, EclipseScore, FdQos, NodeSeries,
    SimReport,
};
pub use network::{LatencyModel, LinkFaults, NetworkModel};
pub use scenario::{Corruption, Fault, Scenario, ScenarioBuilder, ScenarioEvent};
