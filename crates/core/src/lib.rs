//! # AVMON — consistent availability monitoring overlays
//!
//! A from-scratch Rust implementation of **AVMON** (Ramses V. Morales and
//! Indranil Gupta, *"AVMON: Optimal and Scalable Discovery of Consistent
//! Availability Monitoring Overlays for Distributed Systems"*, ICDCS 2007).
//!
//! AVMON selects and discovers, for every node `x` of a churned distributed
//! system, a *pinging set* `PS(x)` of nodes that monitor `x`'s long-term
//! availability — in a way that is simultaneously:
//!
//! 1. **consistent** — `y ∈ PS(x)` never changes, regardless of churn;
//! 2. **verifiable** — any third node can check the relationship;
//! 3. **random** — pinging sets are uniform and uncorrelated;
//! 4. **discoverable** — monitors are found within about one protocol period;
//! 5. **load-balanced** — overheads are uniform across nodes;
//! 6. **scalable** — per-node cost is `O(cvs)` memory/bandwidth and
//!    `O(cvs²)` hash checks per period, with `cvs` as small as `N^{1/4}`.
//!
//! The selection scheme is the hash-based consistency condition
//! `y ∈ PS(x) ⇔ H(y,x) ≤ K/N` (§3.1); discovery runs over a random
//! bounded *coarse view* maintained by join spanning-trees and periodic
//! shuffles (§3.2); monitors then ping their targets, store availability
//! histories, and answer verifiable "l out of K" reports (§3.3).
//!
//! ## Architecture
//!
//! The protocol is a **poll-based sans-io state machine**: [`Node`]
//! consumes inputs stamped with a driver-supplied clock ([`Node::start`],
//! [`Node::handle_message`], [`Node::handle_timer`]), queues the resulting
//! effects internally, and drivers drain them through three poll methods:
//!
//! * [`Node::poll_transmit`] → [`Transmit`] — datagrams to put on the wire,
//! * [`Node::poll_timer`] → `(Timer, at)` — timers to arm,
//! * [`Node::poll_event`] → [`AppEvent`] — events for the application.
//!
//! The queues are reused across inputs, so the hot path allocates nothing
//! per message — this is what makes the §4 overhead analysis (`O(cvs)`
//! memory, `O(cvs²)` hash checks per period) hold in the implementation,
//! not just on paper. The [`driver`] module provides the shared harness
//! (drain loop, deterministic timer queue, snapshots, control commands);
//! the same state machine is driven by:
//!
//! * `avmon-sim` — the trace-driven discrete-event simulator used to
//!   reproduce the paper's evaluation,
//! * `avmon-runtime` — thread-per-node clusters over real UDP sockets, and
//!   a virtual-time hub that runs the same driver code in tests,
//! * anything else: see the "Driver authoring" section of [`driver`].
//!
//! ## Quickstart
//!
//! ```
//! use avmon::{Config, HashSelector, JoinKind, Node, NodeId, Transmit};
//! use std::sync::Arc;
//!
//! // Consistent system parameters shared by every node.
//! let config = Config::builder(1_000).build()?;
//! let selector = Arc::new(HashSelector::from_config(&config));
//!
//! // A node is pure state: drivers feed it time, messages and timers…
//! let mut node = Node::new(NodeId::new([10, 0, 0, 1], 4000), config, selector, 7);
//! node.start(0, JoinKind::Fresh, Some(NodeId::new([10, 0, 0, 2], 4000)));
//!
//! // …and drain the queued effects through the poll interface.
//! let mut wire: Vec<Transmit> = Vec::new();
//! while let Some(transmit) = node.poll_transmit() {
//!     wire.push(transmit); // a real driver encodes + sends these
//! }
//! let mut timers = avmon::TimerQueue::new();
//! while let Some((timer, at)) = node.poll_timer() {
//!     timers.arm(timer, at); // deterministic FIFO-on-tie ordering
//! }
//! assert!(!wire.is_empty(), "JOIN + init-view request queued");
//! # Ok::<(), avmon::Error>(())
//! ```
//!
//! See the workspace `examples/` directory for complete scenarios
//! (simulated overlays, replica selection, multicast, a real UDP cluster,
//! and a from-scratch sans-io driver).

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

pub mod behavior;
pub mod codec;
pub mod config;
pub mod driver;
pub mod error;
pub mod id;
pub mod message;
pub mod node;
pub mod rng;
pub mod selector;
pub mod stats;
pub mod table;
pub mod time;
pub mod view;

pub use behavior::Behavior;
pub use config::{Config, ConfigBuilder, CvsPolicy, DiscoveryMode, ForgetfulConfig};
pub use driver::{Command, DriverEnv, NodeSnapshot, TimerQueue};
pub use error::{CodecError, Error};
pub use id::{NodeId, ParseNodeIdError};
pub use message::{Message, MessageKind, Nonce};
pub use node::{
    Action, AppEvent, Destination, JoinKind, MemoPolicy, Node, OutputQueues, PersistentState,
    TargetRecord, Timer, Transmit,
};
pub use selector::{
    verify_report, CentralSelector, DhtRingSelector, HashSelector, MonitorSelector,
    ReportVerification, SelfReportSelector, SharedSelector,
};
pub use stats::NodeStats;
pub use table::{FlatMap, FlatSet, TableKey};
pub use time::{DurMs, Stamp, TimeMs, HOUR, MINUTE, SECOND};
pub use view::CoarseView;

// Re-export the hashing substrate: it is part of the public API surface
// (custom deployments may pick their hasher).
pub use avmon_hash::{
    Fast64PairHasher, HashPoint, HasherKind, Md5PairHasher, PairHasher, Threshold,
};

// Re-export the byte-buffer types the wire codec speaks, so drivers can
// use the zero-copy `codec::encode_into` path without a separate dep.
pub use bytes;
