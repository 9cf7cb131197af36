//! The application-facing handle and the executor-shared state behind it.
//!
//! Every async task holds an [`AvmonHandle`] bound to one node. All state
//! a handle touches lives in one `Rc<RefCell<Shared>>` shared with the
//! executor, so handle calls are synchronous borrows — no channels, no
//! wakers with payloads, and (over a simulation or a hub) no source of
//! nondeterminism: the single RNG here is the registered `app` stream.
//!
//! **One inbox per node.** Events are queued per *node*, not per task:
//! tasks spawned on the same node pop from the same queue, and whichever
//! polls first takes the event. A task that awaits specific answers
//! ([`crate::apps::query_availability`]) and one that drains everything
//! (a [`AvmonHandle::drain_events`] watchdog) must therefore not share a
//! node — each would eat what the other is waiting for.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, Waker};

use avmon::driver::{Command, NodeSnapshot};
use avmon::rng::Stream;
use avmon::{AppEvent, DurMs, NodeId, TimeMs};

use crate::decision::{Decision, DecisionLog};
use crate::exec::World;

/// Executor state shared with every handle.
pub(crate) struct Shared {
    /// The executor's world, for [`AvmonHandle::snapshot`]. The executor
    /// keeps the statically typed strong end of the same cell, so a handle
    /// that outlives its executor finds no world.
    world: Weak<RefCell<dyn World>>,
    /// The executor's current time: the world's clock as of the last
    /// poll round.
    pub(crate) now: TimeMs,
    /// The `app` RNG stream (seeded [`crate::app_stream_seed`]); a
    /// simulation records its draw count in `RngLedger::app_draws`.
    pub(crate) rng: Stream,
    /// Registered sleep deadlines, keyed by registration id.
    pub(crate) sleeps: BTreeMap<u64, TimeMs>,
    pub(crate) next_sleep_id: u64,
    /// Per-node event inboxes fed by the executor; a node has one while
    /// it has an unfinished task, and events of other nodes are dropped.
    pub(crate) inboxes: BTreeMap<NodeId, VecDeque<(TimeMs, AppEvent)>>,
    /// Commands `(issuing node, command)` queued by the handles, applied
    /// to the world by the executor after each poll round, in record
    /// order.
    pub(crate) outbox: Vec<(NodeId, Command)>,
    pub(crate) log: DecisionLog,
}

impl Shared {
    pub(crate) fn new(world: Weak<RefCell<dyn World>>, now: TimeMs, rng: Stream) -> Self {
        Shared {
            world,
            now,
            rng,
            sleeps: BTreeMap::new(),
            next_sleep_id: 0,
            inboxes: BTreeMap::new(),
            outbox: Vec::new(),
            log: DecisionLog::default(),
        }
    }

    /// The earliest registered sleep deadline, if any.
    pub(crate) fn next_deadline(&self) -> Option<TimeMs> {
        self.sleeps.values().copied().min()
    }
}

/// The application's window onto its AVMON node: snapshots, events,
/// virtual/real time, app messaging, and the registered `app` RNG stream.
///
/// Cloneable; all clones of one executor's handles share state.
#[derive(Clone)]
pub struct AvmonHandle {
    node: NodeId,
    shared: Rc<RefCell<Shared>>,
}

impl AvmonHandle {
    pub(crate) fn new(node: NodeId, shared: Rc<RefCell<Shared>>) -> Self {
        AvmonHandle { node, shared }
    }

    /// The node this handle is bound to.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current executor time: the world's clock as of the last poll round
    /// (simulated or hub ms, or a cluster's wall ms since its spawn).
    #[must_use]
    pub fn now(&self) -> TimeMs {
        self.shared.borrow().now
    }

    /// Sleeps for `dur` on the world's clock (virtual time in a simulation
    /// or on a hub, wall time on a cluster).
    #[must_use]
    pub fn sleep(&self, dur: DurMs) -> Sleep {
        let deadline = self.shared.borrow().now.saturating_add(dur);
        Sleep {
            shared: Rc::clone(&self.shared),
            deadline,
            id: None,
        }
    }

    /// Awaits the next buffered application event for this node.
    #[must_use]
    pub fn next_event(&self) -> EventWait {
        EventWait {
            shared: Rc::clone(&self.shared),
            node: self.node,
        }
    }

    /// Drains every buffered event for this node without blocking.
    pub fn drain_events(&self) -> Vec<(TimeMs, AppEvent)> {
        let mut shared = self.shared.borrow_mut();
        shared
            .inboxes
            .get_mut(&self.node)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    /// A snapshot of the node's protocol state (PS, TS, coarse view,
    /// availability estimates) — [`NodeSnapshot::capture`] in sim, the
    /// latest published board entry live. `None` while the node is down
    /// (or, live, before its first publish), and once the executor is
    /// torn down.
    #[must_use]
    pub fn snapshot(&self) -> Option<NodeSnapshot> {
        let world = self.shared.borrow().world.upgrade()?;
        let snapshot = world.borrow().snapshot(self.node);
        snapshot
    }

    /// Queues `command` for this node; the executor applies it once the
    /// current poll round ends.
    fn command(&self, command: Command) {
        self.shared.borrow_mut().outbox.push((self.node, command));
    }

    /// Sends an opaque payload to `to` over the overlay; it arrives at
    /// `to`'s handle as an [`AppEvent::AppData`] event.
    pub fn send_app(&self, to: NodeId, payload: Vec<u8>) {
        self.command(Command::SendApp { to, payload });
    }

    /// Asks `target` to report `count` of its monitors (§3.3, "l out of
    /// K"). The node re-hashes every claim; the result arrives as
    /// [`AppEvent::ReportOutcome`], or [`AppEvent::RequestTimedOut`] if
    /// `target` never answers.
    pub fn request_report(&self, target: NodeId, count: u8) {
        self.command(Command::RequestReport { target, count });
    }

    /// Asks `monitor` for its measured availability of `target`; the
    /// answer arrives as [`AppEvent::HistoryOutcome`], or
    /// [`AppEvent::RequestTimedOut`] if `monitor` never answers.
    pub fn request_history(&self, monitor: NodeId, target: NodeId) {
        self.command(Command::RequestHistory { monitor, target });
    }

    /// Draws 64 bits from the registered `app` stream (the only
    /// randomness an app task may use under the determinism rules).
    pub fn rng_u64(&self) -> u64 {
        self.shared.borrow_mut().rng.gen()
    }

    /// Records an observable decision in the executor's [`DecisionLog`].
    pub fn record(&self, decision: Decision) {
        self.shared.borrow_mut().log.decisions.push(decision);
    }
}

/// Future returned by [`AvmonHandle::sleep`].
pub struct Sleep {
    shared: Rc<RefCell<Shared>>,
    deadline: TimeMs,
    id: Option<u64>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut shared = this.shared.borrow_mut();
        if shared.now >= this.deadline {
            if let Some(id) = this.id.take() {
                shared.sleeps.remove(&id);
            }
            Poll::Ready(())
        } else {
            if this.id.is_none() {
                let id = shared.next_sleep_id;
                shared.next_sleep_id += 1;
                shared.sleeps.insert(id, this.deadline);
                this.id = Some(id);
            }
            Poll::Pending
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(id) = self.id.take() {
            self.shared.borrow_mut().sleeps.remove(&id);
        }
    }
}

/// Future returned by [`AvmonHandle::next_event`].
pub struct EventWait {
    shared: Rc<RefCell<Shared>>,
    node: NodeId,
}

impl Future for EventWait {
    type Output = (TimeMs, AppEvent);

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<(TimeMs, AppEvent)> {
        let mut shared = self.shared.borrow_mut();
        match shared
            .inboxes
            .get_mut(&self.node)
            .and_then(VecDeque::pop_front)
        {
            Some(event) => Poll::Ready(event),
            None => Poll::Pending,
        }
    }
}

/// One spawned task: the node it serves and its pinned future.
pub(crate) struct Task {
    pub(crate) node: NodeId,
    pub(crate) fut: Pin<Box<dyn Future<Output = ()>>>,
    pub(crate) done: bool,
}

/// Polls every live task once, in spawn order — the executor's
/// scheduling rule — and returns the nodes of the tasks that completed.
/// Futures here only return `Pending` when genuinely blocked on a future
/// deadline or an empty inbox, and nothing a task does synchronously
/// unblocks *another* task (app messages travel through the backend), so
/// one round per cycle is complete.
pub(crate) fn poll_tasks(tasks: &mut [Task]) -> Vec<NodeId> {
    // Scheduling is the executor's outer loop, driven by the world's
    // clock, so the waker does nothing.
    let mut cx = Context::from_waker(Waker::noop());
    let mut finished = Vec::new();
    for task in tasks.iter_mut().filter(|t| !t.done) {
        if task.fut.as_mut().poll(&mut cx).is_ready() {
            task.done = true;
            finished.push(task.node);
        }
    }
    finished
}
