//! Deterministic async application runtime over the AVMON sans-io core.
//!
//! Application code — replica selection, churn watchdogs, multicast parent
//! choice — is written **once** as async tasks against an [`AvmonHandle`]
//! (query PS/TS snapshots, await availability events, sleep, request
//! monitor reports and histories, send and receive opaque app messages,
//! draw from a registered `app` stream), then run by one [`Executor`]
//! over any [`World`] without changing a line. This crate is the
//! only way applications reach the overlay: the paper's §3.3 client is
//! [`apps::query_availability`], and every example that acts on an
//! availability figure obtains it there.
//!
//! * [`avmon_sim::Simulation`] — the discrete-event engine. A run pauses
//!   right after each event of a node that has a task, so same-seed runs
//!   produce **byte-identical** decision logs, and the app stream's draw
//!   count lands in the report's `RngLedger` (`app_draws`).
//! * [`avmon_runtime::Hub`] — the runtime's own driver code, N nodes run
//!   by one loop on the caller's thread, over the codec and the timer
//!   queue a deployment runs, on one of two wires:
//!   [`avmon_runtime::VirtualHub`] in virtual time, as replayable as the
//!   simulator, or [`avmon_runtime::Cluster`] over UDP on the wall clock,
//!   where sleeps resolve in real time.
//!
//! Determinism rules for app tasks: draw randomness only via
//! [`AvmonHandle::rng_u64`] (the registered `app` stream), take time only
//! from [`AvmonHandle::now`] / sleeps, and never touch wall clocks, OS
//! randomness, or iteration-order-unstable collections in decision paths.

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

pub mod apps;
mod decision;
mod exec;
mod handle;

pub use decision::{Decision, DecisionLog};
pub use exec::{Executor, World};
pub use handle::{AvmonHandle, EventWait, Sleep};

/// Salt folded into the master seed for the executor-owned `app` RNG
/// stream: `mix64(master ^ APP_STREAM_SALT)` (see
/// [`app_stream_seed`]), mirroring how node and corruption streams are
/// derived so no two streams ever alias.
pub const APP_STREAM_SALT: u64 = 0xA4B1_C0DE_5EED_0A99;

/// Derives the `app` stream seed from the run's master seed.
#[must_use]
pub fn app_stream_seed(master: u64) -> u64 {
    avmon_hash::fast64::mix64(master ^ APP_STREAM_SALT)
}
