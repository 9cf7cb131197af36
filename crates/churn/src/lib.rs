//! # avmon-churn — availability models and traces for AVMON
//!
//! The paper evaluates AVMON under five availability models (§5):
//! three synthetic — **STAT** (static), **SYNTH** (Poisson join/leave at
//! 20%/hour), **SYNTH-BD** (plus births/deaths at 20%/day, with the
//! high-churn **SYNTH-BD2** variant at 40%/day) — and two measured,
//! **PL** (PlanetLab all-pairs pings) and **OV** (Overnet p2p churn).
//!
//! This crate generates all five as [`Trace`] values: sorted, validated
//! sequences of per-node birth/join/leave/death events that the
//! `avmon-sim` discrete-event simulator replays. The measured traces are
//! synthesized to the paper's published aggregate statistics (see
//! DESIGN.md §3 for the substitution argument); real traces can be
//! imported through the text format in [`io`].
//!
//! ```
//! use avmon_churn::{synthetic, SynthParams};
//!
//! let trace = synthetic(SynthParams::synth_bd(500));
//! let stats = trace.stats();
//! assert!(stats.births > 500); // births occurred beyond the initial 500
//! ```

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

pub mod event;
pub mod io;
pub mod synth;
pub mod traces;

pub use event::{ChurnEvent, ChurnEventKind, Trace, TraceStats};
pub use io::{from_json, from_text, load_json, save_json, to_json, to_text, TraceIoError};
pub use synth::{stat, synthetic, SynthParams};
pub use traces::{overnet_like, planetlab_like, OVERNET_N, OVERNET_SLOT, PLANETLAB_N};
