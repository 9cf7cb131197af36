//! The shared driver harness: everything a driver needs to run [`Node`]s
//! over *any* backend — a discrete-event simulator, OS threads over UDP, a
//! virtual-time hub, or a custom transport.
//!
//! The protocol state machine is poll-based sans-io: inputs queue effects,
//! and drivers drain them via [`Node::poll_transmit`], [`Node::poll_timer`]
//! and [`Node::poll_event`]. This module deduplicates the machinery every
//! driver otherwise re-implements:
//!
//! * [`DriverEnv`] + [`drain`] — the canonical drain loop, generic over
//!   how transmits, timers and events are executed;
//! * [`TimerQueue`] — a deterministic (FIFO on ties) pending-timer heap;
//! * [`NodeSnapshot`] — point-in-time observability capture of one node;
//! * [`Command`] — the control-plane verbs a running driver accepts, and
//!   [`apply_command`] to execute them.
//!
//! # Driver authoring
//!
//! A minimal single-threaded driver is a loop over four steps: deliver
//! inputs, drain outputs, fire due timers, repeat. With the harness:
//!
//! ```
//! use avmon::driver::{drain, DriverEnv, TimerQueue};
//! use avmon::{AppEvent, Config, HashSelector, JoinKind, Node, NodeId, TimeMs, Timer, Transmit};
//! use std::sync::Arc;
//!
//! /// How this driver executes drained outputs.
//! struct LoggingEnv {
//!     timers: TimerQueue,
//!     sent: Vec<(NodeId, Transmit)>,
//! }
//!
//! impl DriverEnv for LoggingEnv {
//!     fn transmit(&mut self, from: NodeId, transmit: Transmit) {
//!         self.sent.push((from, transmit)); // a real driver writes a socket
//!     }
//!     fn arm_timer(&mut self, _node: NodeId, timer: Timer, at: TimeMs) {
//!         self.timers.arm(timer, at);
//!     }
//!     fn handle_event(&mut self, _node: NodeId, _event: AppEvent) {}
//! }
//!
//! let config = Config::builder(64).build()?;
//! let selector = Arc::new(HashSelector::from_config(&config));
//! let mut node = Node::new(NodeId::from_index(1), config, selector, 7);
//! let mut env = LoggingEnv { timers: TimerQueue::new(), sent: Vec::new() };
//!
//! node.start(0, JoinKind::Fresh, Some(NodeId::from_index(2)));
//! drain(&mut node, &mut env);
//! assert!(!env.sent.is_empty());
//!
//! // Later, fire whatever came due and drain again.
//! let now = 120_000;
//! while let Some(timer) = env.timers.pop_due(now) {
//!     node.handle_timer(now, timer);
//!     drain(&mut node, &mut env);
//! }
//! # Ok::<(), avmon::Error>(())
//! ```
//!
//! See `avmon-runtime` for a production driver (threads, real sockets,
//! snapshot publication) and `avmon-sim` for the simulator built on the
//! same drain loop.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::node::{Action, AppEvent, Destination, Node, Timer, Transmit};
use crate::stats::NodeStats;
use crate::time::TimeMs;
use crate::{NodeId, PersistentState};

/// How a driver executes the three output streams of a node.
///
/// Implementations decide what "transmit" means (socket write, in-memory
/// delivery, simulated latency), where timers live, and where application
/// events go.
pub trait DriverEnv {
    /// Executes one outgoing datagram from `from`.
    fn transmit(&mut self, from: NodeId, transmit: Transmit);

    /// Arms `timer` for `node` at absolute protocol time `at`.
    fn arm_timer(&mut self, node: NodeId, timer: Timer, at: TimeMs);

    /// Surfaces an application event produced by `node`.
    fn handle_event(&mut self, node: NodeId, event: AppEvent);
}

/// Drains all pending output of `node` into `env`: transmits first, then
/// timer requests, then application events, each in FIFO order.
pub fn drain<E: DriverEnv + ?Sized>(node: &mut Node, env: &mut E) {
    let id = node.id();
    while let Some(transmit) = node.poll_transmit() {
        env.transmit(id, transmit);
    }
    while let Some((timer, at)) = node.poll_timer() {
        env.arm_timer(id, timer, at);
    }
    while let Some(event) = node.poll_event() {
        env.handle_event(id, event);
    }
}

/// Drains all pending output of `node` into a freshly allocated unified
/// [`Action`] stream (transmits, then timers, then events — each FIFO).
///
/// A diagnostic and testing utility: it allocates per call, so drivers
/// must not use it on the hot path — implement [`DriverEnv`] and call
/// [`drain`], or consume the poll methods directly.
#[must_use]
pub fn collect_actions(node: &mut Node) -> Vec<Action> {
    let mut actions = Vec::new();
    while let Some(t) = node.poll_transmit() {
        actions.push(match t.to {
            Destination::Node(to) => Action::Send { to, msg: t.msg },
            Destination::AllNodes => Action::Broadcast { msg: t.msg },
        });
    }
    while let Some((timer, at)) = node.poll_timer() {
        actions.push(Action::SetTimer { timer, at });
    }
    while let Some(event) = node.poll_event() {
        actions.push(Action::App(event));
    }
    actions
}

/// A pending-timer priority queue with deterministic FIFO tie-breaking.
///
/// Replaces the per-driver timer heaps the pre-poll drivers each carried.
/// `u64` sequence numbers break `at` ties in arm order, so two drivers
/// arming the same timers produce the same firing order.
///
/// Almost every [`Timer::Expire`] dies unfired — the ping it guards is
/// answered. The one mechanism that keeps dead timers out of the node's
/// way is [`TimerQueue::pop_due_where`], which discards due timers a
/// caller-supplied predicate (typically [`Node::timer_live`]) rejects;
/// there is no cancellation.
#[derive(Debug, Default)]
pub struct TimerQueue {
    heap: BinaryHeap<Reverse<(TimeMs, u64, Timer)>>,
    seq: u64,
}

impl TimerQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        TimerQueue::default()
    }

    /// Arms `timer` to fire at absolute time `at`.
    pub fn arm(&mut self, timer: Timer, at: TimeMs) {
        self.heap.push(Reverse((at, self.seq, timer)));
        self.seq += 1;
    }

    /// Pops the next timer due at or before `now`, if any.
    pub fn pop_due(&mut self, now: TimeMs) -> Option<Timer> {
        self.pop_due_where(now, |_| true)
    }

    /// Pops the next *live* timer due at or before `now`: due entries that
    /// `live` rejects are discarded without being returned. Pass
    /// [`Node::timer_live`] to let ponged-ping expiries die in the queue
    /// instead of round-tripping through the node.
    pub fn pop_due_where(
        &mut self,
        now: TimeMs,
        mut live: impl FnMut(&Timer) -> bool,
    ) -> Option<Timer> {
        loop {
            let top = self.heap.peek_mut()?;
            let Reverse((at, _, _)) = *top;
            if at > now {
                return None;
            }
            let Reverse((_, _, timer)) = PeekMut::pop(top);
            if live(&timer) {
                return Some(timer);
            }
        }
    }

    /// The deadline of the earliest pending timer.
    #[must_use]
    pub fn next_deadline(&self) -> Option<TimeMs> {
        self.heap.peek().map(|&Reverse((at, _, _))| at)
    }

    /// Number of pending timers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no timers are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending timers (driver restart hygiene).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// A point-in-time view of one node, published for observers.
///
/// Shared by every driver that exposes node state (the threaded cluster's
/// snapshot board, dashboards, tests).
#[derive(Debug, Clone, Default)]
pub struct NodeSnapshot {
    /// The node's pinging set.
    pub ps: Vec<NodeId>,
    /// The node's target set.
    pub ts: Vec<NodeId>,
    /// Coarse-view entries (invariant checkers verify no self-reference
    /// and no overflow; dashboards show membership and occupancy).
    pub view: Vec<NodeId>,
    /// Memory entries `|CV|+|PS|+|TS|`.
    pub memory_entries: usize,
    /// The node's combined change epoch ([`Node::change_epoch`]) at capture
    /// time: equal epochs across two snapshots of the same incarnation
    /// guarantee identical `ps`/`ts`/`view` membership, so observers can
    /// skip diffing (or re-verifying) unchanged nodes in O(1).
    pub change_epoch: u64,
    /// When this incarnation started (basis for uptime / discovery-delay
    /// observations).
    pub started_at: TimeMs,
    /// Protocol counters.
    pub stats: NodeStats,
    /// Per-target availability estimates.
    pub estimates: Vec<(NodeId, f64)>,
    /// The durable state (what a real node would write to disk) — used by
    /// drivers to restart a killed node with its history intact.
    pub persistent: PersistentState,
}

impl NodeSnapshot {
    /// Captures the current state of `node`.
    #[must_use]
    pub fn capture(node: &Node) -> Self {
        NodeSnapshot {
            ps: node.pinging_set().collect(),
            ts: node.target_set().collect(),
            view: node.view().iter().collect(),
            memory_entries: node.memory_entries(),
            change_epoch: node.change_epoch(),
            started_at: node.started_at(),
            stats: *node.stats(),
            estimates: node
                .target_set()
                .filter_map(|t| node.availability_estimate(t).map(|a| (t, a)))
                .collect(),
            persistent: node.snapshot_persistent(),
        }
    }
}

/// Control-plane commands accepted by a running driver.
#[derive(Debug)]
#[non_exhaustive]
pub enum Command {
    /// Stop the event loop and drop the node.
    Stop,
    /// Issue an l-out-of-K report request to `target`.
    RequestReport {
        /// The node whose monitors are requested.
        target: NodeId,
        /// How many monitors to request.
        count: u8,
    },
    /// Ask `monitor` for its availability history of `target`.
    RequestHistory {
        /// The monitor to query.
        monitor: NodeId,
        /// The monitored node of interest.
        target: NodeId,
    },
    /// Send an opaque application payload to `to` over the overlay.
    SendApp {
        /// The destination node.
        to: NodeId,
        /// Application-defined bytes.
        payload: Vec<u8>,
    },
}

/// Applies a control command to `node` at time `now`.
///
/// Returns `false` if the command asks the driver to stop; the queued
/// effects (if any) still need to be drained.
pub fn apply_command(node: &mut Node, now: TimeMs, command: Command) -> bool {
    match command {
        Command::Stop => return false,
        Command::RequestReport { target, count } => node.request_report(now, target, count),
        Command::RequestHistory { monitor, target } => {
            node.request_history(now, monitor, target);
        }
        Command::SendApp { to, payload } => node.send_app(to, payload),
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Nonce;

    #[test]
    fn timer_queue_orders_by_deadline_then_fifo() {
        let mut q = TimerQueue::new();
        q.arm(Timer::Monitoring, 50);
        q.arm(Timer::Protocol, 10);
        q.arm(Timer::Expire(Nonce(1)), 10);
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_deadline(), Some(10));
        // Same deadline: FIFO (Protocol armed before Expire).
        assert_eq!(q.pop_due(100), Some(Timer::Protocol));
        assert_eq!(q.pop_due(100), Some(Timer::Expire(Nonce(1))));
        assert_eq!(q.pop_due(40), None, "not due yet");
        assert_eq!(q.pop_due(50), Some(Timer::Monitoring));
        assert!(q.is_empty());
    }

    #[test]
    fn timer_queue_clear() {
        let mut q = TimerQueue::new();
        q.arm(Timer::Protocol, 5);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop_due(u64::MAX), None);
    }

    #[test]
    fn timer_queue_pop_due_where_filters_dead_timers() {
        let mut q = TimerQueue::new();
        q.arm(Timer::Expire(Nonce(7)), 10);
        q.arm(Timer::Monitoring, 10);
        q.arm(Timer::Expire(Nonce(8)), 10);
        // The predicate plays the role of Node::timer_live: nonce 7 was
        // already answered, so its expiry must never reach the node.
        let live = |t: &Timer| !matches!(t, Timer::Expire(Nonce(7)));
        assert_eq!(q.pop_due_where(100, live), Some(Timer::Monitoring));
        assert_eq!(q.pop_due_where(100, live), Some(Timer::Expire(Nonce(8))));
        assert_eq!(q.pop_due_where(100, live), None);
        // Not-yet-due timers are untouched by the filter.
        q.arm(Timer::Protocol, 500);
        assert_eq!(q.pop_due_where(100, |_| false), None);
        assert_eq!(q.len(), 1);
    }
}
