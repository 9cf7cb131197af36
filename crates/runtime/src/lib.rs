//! # avmon-runtime — live drivers for AVMON nodes
//!
//! The same poll-based sans-io [`avmon::Node`] that powers the paper's
//! discrete-event evaluation, run by the runtime's own driver code:
//!
//! * [`Cluster`]: a thread per node over UDP on localhost, where a
//!   [`avmon::NodeId`] *is* the socket address (the paper's `<IP, port>`),
//!   on a wall clock that starts at the spawn ([`Cluster::now`]);
//! * [`VirtualHub`]: N nodes on one thread in virtual time, for
//!   deterministic tests, where every instant is a consistent cut.
//!
//! Both expose the same small surface — a clock, `command`, `snapshot`,
//! `drain_events`, `kill` — and both are worlds of the app layer's one
//! executor (`avmon_app::Executor`): on the hub,
//! [`VirtualHub::run_until_event`] stops at the first instant whose inputs
//! emitted application events, so async app tasks interleave with the
//! nodes deterministically.
//!
//! ## The driver loop
//!
//! [`DriverCore`] is one node over one [`Transport`], built on the shared
//! harness in [`avmon::driver`]: it feeds each input (a datagram, the due
//! timers, a [`Command`]) to the node at a time its caller gives, and
//! drains the node's outputs — transmits encoded onto the transport, timers
//! into an [`avmon::driver::TimerQueue`], events to a channel. It reads no
//! clock. [`NodeDriver`] is the wall-clock shell a [`Cluster`] thread runs
//! around one core: it polls commands, blocks on the socket until the next
//! deadline, and publishes [`NodeSnapshot`]s to a shared board.
//!
//! ```no_run
//! use avmon::Config;
//! use avmon_runtime::Cluster;
//! use std::time::Duration;
//!
//! let config = Config::builder(16)
//!     .protocol_period(250)
//!     .monitoring_period(250)
//!     .ping_timeout(100)
//!     .build()?;
//! let cluster = Cluster::builder(config, 16).spawn()?;
//! cluster.wait_for_discovery(1, Duration::from_secs(20));
//! cluster.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The same overlay in virtual time, twenty minutes in a few milliseconds:
//!
//! ```
//! use avmon::{Config, MINUTE};
//! use avmon_runtime::VirtualHub;
//!
//! let mut hub = VirtualHub::new(Config::builder(16).k(10).build()?, 16, 7, 0.0)?;
//! hub.run_until(20 * MINUTE);
//! assert!(hub.snapshots().values().all(|s| !s.ps.is_empty()));
//! # Ok::<(), avmon::Error>(())
//! ```
//!
//! ## Driver authoring: hooking a custom transport into the harness
//!
//! To run AVMON over your own transport, implement [`Transport`] (three
//! methods: identity, best-effort send, timeout receive) and hand it to
//! [`NodeDriver`] — everything else (timers, encoding, broadcast fan-out,
//! snapshot publication, control commands) comes from the harness:
//!
//! ```no_run
//! use avmon::{Config, HashSelector, JoinKind, Node, NodeId};
//! use avmon_runtime::{NodeDriver, SnapshotBoard, Transport};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! /// A transport that carries datagrams over your medium of choice.
//! struct MyTransport { /* socket, queue, radio, … */ }
//!
//! impl Transport for MyTransport {
//!     fn local_id(&self) -> NodeId { NodeId::from_index(1) }
//!     fn send(&mut self, to: NodeId, bytes: &[u8]) { /* write */ }
//!     fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
//!         None // read one datagram, or None on timeout
//!     }
//! }
//!
//! let config = Config::builder(64).build()?;
//! let selector = Arc::new(HashSelector::from_config(&config));
//! let node = Node::new(NodeId::from_index(1), config, selector, 7);
//! let (_cmd_tx, cmd_rx) = crossbeam::channel::unbounded();
//! let (event_tx, _event_rx) = crossbeam::channel::unbounded();
//! let board = SnapshotBoard::default();
//! let driver = NodeDriver::new(
//!     node, MyTransport {}, cmd_rx, event_tx, board, Vec::new());
//! std::thread::spawn(move || driver.run(JoinKind::Fresh, None));
//! # Ok::<(), avmon::Error>(())
//! ```
//!
//! If your backend is not thread-shaped (an async reactor, a select-loop
//! over many nodes), drive [`DriverCore`]s yourself, as [`VirtualHub`]
//! does. If it does not even speak bytes (a simulator), build directly on
//! [`avmon::driver`]: implement `DriverEnv` for your executor and call
//! `drain` after every input — see that module's "Driver authoring"
//! section.

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
// Live-cluster crate: std maps are its job; each wall-clock read still
// carries its own `#[expect(clippy::disallowed_methods, reason = …)]`.
#![allow(clippy::disallowed_types, reason = "live-cluster crate")]

pub mod cluster;
pub mod driver;
pub mod hub;
pub mod transport;

pub use cluster::{Cluster, ClusterBuilder};
pub use driver::{Command, DriverCore, NodeDriver, NodeSnapshot, SnapshotBoard};
pub use hub::VirtualHub;
pub use transport::{Transport, UdpTransport};
