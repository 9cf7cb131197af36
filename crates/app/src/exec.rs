//! The executor: async app tasks over a world of AVMON nodes.
//!
//! [`Executor`] runs the same tasks over any [`World`] — a
//! [`Simulation`], or a [`Hub`] on either wire (`VirtualHub`, `Cluster`) —
//! with one loop, [`Executor::run_until`]:
//!
//! 1. poll every task (spawn order); apply the commands they queued to
//!    the world, in record order;
//! 2. take `target = min(earliest registered sleep deadline, deadline)`;
//! 3. [`World::advance`]`(target)` — the world runs until `target`, or
//!    stops early at the first instant where a node emitted an
//!    application event;
//! 4. file the timestamped events in the per-node inboxes, move executor
//!    time to the world's clock, and repeat until it reaches `deadline`.
//!
//! In the simulator and on a `VirtualHub` every step is a function of the
//! seed, so the whole cycle — task poll order, RNG draws, commands
//! entering the world — repeats byte for byte.

use std::cell::RefCell;
use std::future::Future;
use std::rc::{Rc, Weak};

use avmon::driver::{Command, NodeSnapshot};
use avmon::rng::Stream;
use avmon::{AppEvent, NodeId, TimeMs};
use avmon_runtime::{Hub, Wire};
use avmon_sim::{SimReport, Simulation};

use crate::app_stream_seed;
use crate::decision::DecisionLog;
use crate::handle::{poll_tasks, AvmonHandle, Shared, Task};

/// The seam between the app layer and the world its nodes live in: a
/// clock, a way to move it, the one way in (a control [`Command`]) and
/// the one synchronous way out (a [`NodeSnapshot`]).
pub trait World {
    /// The world's clock, in ms.
    fn now(&self) -> TimeMs;
    /// Runs the world up to `until`, or returns early at the first instant
    /// where a node emitted application events; never past `until`.
    /// Returns those events, each as `(emitted at, node, event)`.
    fn advance(&mut self, until: TimeMs) -> Vec<(TimeMs, NodeId, AppEvent)>;
    /// Applies `command` to node `id`; a down or unknown node ignores it.
    fn command(&mut self, id: NodeId, command: Command);
    /// `id`'s protocol state, `None` while the node is down.
    fn snapshot(&self, id: NodeId) -> Option<NodeSnapshot>;
    /// Whether `id` has a task to hear its events. A world that reports
    /// every node's events anyway ignores this.
    fn listen(&mut self, _id: NodeId, _on: bool) {}
    /// The `app` RNG stream's draw count so far, for a world that keeps a
    /// ledger of its streams.
    fn record_app_draws(&mut self, _draws: u64) {}
}

/// The simulator reports and pauses only for the nodes that have a task.
impl World for Simulation {
    fn now(&self) -> TimeMs {
        Simulation::now(self)
    }

    fn advance(&mut self, until: TimeMs) -> Vec<(TimeMs, NodeId, AppEvent)> {
        self.run_until_event(until);
        self.take_app_events()
    }

    fn command(&mut self, id: NodeId, command: Command) {
        Simulation::command(self, id, command);
    }

    fn snapshot(&self, id: NodeId) -> Option<NodeSnapshot> {
        self.node(id).map(NodeSnapshot::capture)
    }

    fn listen(&mut self, id: NodeId, on: bool) {
        if on {
            self.subscribe_app(id);
        } else {
            self.unsubscribe_app(id);
        }
    }

    fn record_app_draws(&mut self, draws: u64) {
        self.set_app_draws(draws);
    }
}

/// A hub's events all carry the instant it stopped at — a virtual one, or
/// wall time since a UDP cluster was built.
impl<W: Wire> World for Hub<W> {
    fn now(&self) -> TimeMs {
        Hub::now(self)
    }

    fn advance(&mut self, until: TimeMs) -> Vec<(TimeMs, NodeId, AppEvent)> {
        self.run_until_event(until);
        let at = self.now();
        let events = self.drain_events().into_iter();
        events.map(|(id, event)| (at, id, event)).collect()
    }

    fn command(&mut self, id: NodeId, command: Command) {
        Hub::command(self, id, command);
    }

    fn snapshot(&self, id: NodeId) -> Option<NodeSnapshot> {
        Hub::snapshot(self, id)
    }
}

/// Runs async application tasks over a [`World`]: sleeps resolve on the
/// world's clock, and events reach the tasks stamped with the instant
/// they were emitted at.
pub struct Executor<W> {
    /// The world's one strong owner: handles reach it through a `Weak`.
    world: Rc<RefCell<W>>,
    shared: Rc<RefCell<Shared>>,
    tasks: Vec<Task>,
}

impl<W: World + 'static> Executor<W> {
    /// Wraps `world` at its current time. The `app` RNG stream is seeded
    /// [`app_stream_seed`]`(master_seed)` in every world — pass the master
    /// seed the world itself uses, so the stream is derived, not
    /// independent, and a task's draw *sequence* depends only on the seed
    /// and its draw order.
    #[must_use]
    pub fn new(world: W, master_seed: u64) -> Self {
        let now = world.now();
        let world = Rc::new(RefCell::new(world));
        let rng = Stream::seeded(app_stream_seed(master_seed));
        let weak: Weak<RefCell<W>> = Rc::downgrade(&world);
        let shared = Shared::new(weak, now, rng);
        Executor {
            world,
            shared: Rc::new(RefCell::new(shared)),
            tasks: Vec::new(),
        }
    }

    /// Spawns an app task bound to `node`, which hears its node's events
    /// until its last task completes. Spawn order is poll order — part of
    /// the deterministic contract, so spawn in a fixed order.
    pub fn spawn<F, Fut>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(AvmonHandle) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        self.world.borrow_mut().listen(node, true);
        self.shared.borrow_mut().inboxes.entry(node).or_default();
        let handle = AvmonHandle::new(node, Rc::clone(&self.shared));
        self.tasks.push(Task {
            node,
            fut: Box::pin(f(handle)),
            done: false,
        });
    }

    /// Read access to the world (clock, membership, node state — anything
    /// it exposes immutably).
    pub fn world<R>(&self, f: impl FnOnce(&W) -> R) -> R {
        f(&self.world.borrow())
    }

    /// Mutable access to the world, between two runs (kill a node).
    pub fn world_mut<R>(&mut self, f: impl FnOnce(&mut W) -> R) -> R {
        f(&mut self.world.borrow_mut())
    }

    /// Advances the world, and every task, to `deadline`.
    pub fn run_until(&mut self, deadline: TimeMs) {
        loop {
            let now = self.world.borrow().now();
            self.shared.borrow_mut().now = now;
            self.poll();
            if now >= deadline {
                break;
            }
            // A sleep at or before `now` is one the poll just resolved.
            let next = self.shared.borrow().next_deadline().filter(|&at| at > now);
            let target = next.map_or(deadline, |at| at.min(deadline));
            let mut world = self.world.borrow_mut();
            let events = world.advance(target);
            // A world that neither moved nor spoke has ended before
            // `deadline` (a simulation at its horizon).
            let ended = events.is_empty() && world.now() == now;
            drop(world);
            let mut shared = self.shared.borrow_mut();
            for (at, id, event) in events {
                if let Some(inbox) = shared.inboxes.get_mut(&id) {
                    inbox.push_back((at, event));
                }
            }
            if ended {
                break;
            }
        }
    }

    /// One scheduling round: polls every task, then applies the commands
    /// they queued to the world, in the order the tasks recorded them. A
    /// node whose last task completed loses its inbox and its listener,
    /// so nothing buffers events nobody will read.
    fn poll(&mut self) {
        let mut idle = poll_tasks(&mut self.tasks);
        let (outbox, draws) = {
            let mut shared = self.shared.borrow_mut();
            idle.retain(|&node| {
                self.tasks.iter().all(|t| t.done || t.node != node)
                    && shared.inboxes.remove(&node).is_some()
            });
            (std::mem::take(&mut shared.outbox), shared.rng.draws())
        };
        let mut world = self.world.borrow_mut();
        for (from, command) in outbox {
            world.command(from, command);
        }
        for node in idle {
            world.listen(node, false);
        }
        world.record_app_draws(draws);
    }

    /// A copy of the decision log recorded so far.
    #[must_use]
    pub fn log(&self) -> DecisionLog {
        self.shared.borrow().log.clone()
    }

    /// Tears the executor down: the world, wherever it stands, plus the
    /// decision log. A handle a task kept past this point sees no world:
    /// its snapshots are `None`.
    #[must_use]
    pub fn into_parts(self) -> (W, DecisionLog) {
        let log = std::mem::take(&mut self.shared.borrow_mut().log);
        // This `Rc` is the world's only strong owner, so the unwrap holds.
        #[expect(clippy::unreachable, reason = "handles hold only a `Weak`")]
        let Ok(world) = Rc::try_unwrap(self.world) else {
            unreachable!("a strong reference to the world outlived its executor")
        };
        (world.into_inner(), log)
    }
}

impl Executor<Simulation> {
    /// Runs to the trace horizon.
    pub fn run(&mut self) {
        let horizon = self.world(|sim| sim.trace().horizon);
        self.run_until(horizon);
    }

    /// Finishes the run: the simulation's report plus the decision log.
    #[must_use]
    pub fn into_report(self) -> (SimReport, DecisionLog) {
        let (sim, log) = self.into_parts();
        (sim.into_report(), log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmon::Config;
    use avmon_runtime::VirtualHub;

    /// A task may keep a clone of its handle anywhere; tearing the
    /// executor down still hands back the world and the log, and the
    /// leaked handle sees no world after that.
    #[test]
    fn a_leaked_handle_outlives_teardown_without_the_world() {
        let config = Config::builder(2).build().unwrap();
        let hub = VirtualHub::new(config, 2, 3, 0.0).unwrap();
        let id = hub.ids()[0];
        let mut exec = Executor::new(hub, 3);
        let leaked = Rc::new(RefCell::new(None));
        let slot = Rc::clone(&leaked);
        exec.spawn(id, move |h| async move {
            h.sleep(1_000).await;
            h.record(crate::Decision::Alarm {
                at: h.now(),
                node: id,
                target: id,
            });
            *slot.borrow_mut() = Some(h.clone());
        });
        exec.run_until(2_000);
        let handle: AvmonHandle = leaked.borrow().clone().unwrap();
        assert!(handle.snapshot().is_some(), "the node runs before teardown");
        let (hub, log) = exec.into_parts();
        assert_eq!((hub.now(), log.decisions.len()), (2_000, 1));
        assert!(
            handle.snapshot().is_none(),
            "a torn-down executor has no world"
        );
    }
}
