//! The executors: async app tasks over a world of AVMON nodes.
//!
//! [`Core`] is everything the two executors share — the task list, the
//! state behind the handles, and the round that polls every task and
//! then hands the commands they queued to the world. [`SimExecutor`]
//! wraps it around a [`Simulation`]; `live.rs` wraps it around a cluster.
//!
//! The sim executor's interleaving protocol with [`Simulation`]:
//!
//! 1. poll every task (spawn order); apply the queued commands to the sim;
//! 2. schedule the earliest registered sleep deadline as an `AppWake`
//!    calendar event (deduplicated — one wake per distinct instant);
//! 3. [`Simulation::run_until_wake`] — the engine runs until the wake
//!    fires or a subscribed node emits an application event, pausing with
//!    the clock at that exact `(time, seq)` calendar position;
//! 4. ingest the timestamped events into the per-node inboxes, advance
//!    executor time to the pause instant, and repeat.
//!
//! Every step is a function of the seed, so the whole cycle — task poll
//! order, RNG draws, commands entering the calendar — repeats byte for
//! byte.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::future::Future;
use std::rc::Rc;

use avmon::rng::Stream;
use avmon::{AppEvent, NodeId, TimeMs};
use avmon_sim::{SimReport, Simulation};

use crate::app_stream_seed;
use crate::decision::DecisionLog;
use crate::handle::{poll_tasks, AvmonHandle, Shared, Task, World};

/// The executor body both worlds share: tasks, the state behind their
/// handles, and the statically typed end of the world cell.
pub(crate) struct Core<W> {
    pub(crate) world: Rc<RefCell<W>>,
    pub(crate) shared: Rc<RefCell<Shared>>,
    tasks: Vec<Task>,
}

impl<W: World + 'static> Core<W> {
    /// Wraps `world` at executor time `now`; the `app` RNG stream is
    /// seeded [`app_stream_seed`]`(master_seed)` in either world, so a
    /// task's draw *sequence* depends only on the seed and its draw order.
    pub(crate) fn new(world: W, now: TimeMs, master_seed: u64) -> Self {
        let world = Rc::new(RefCell::new(world));
        let rng = Stream::seeded(app_stream_seed(master_seed));
        let shared = Shared::new(Rc::clone(&world) as Rc<RefCell<dyn World>>, now, rng);
        Core {
            world,
            shared: Rc::new(RefCell::new(shared)),
            tasks: Vec::new(),
        }
    }

    /// Spawns a task bound to `node` and opens the node's inbox.
    pub(crate) fn spawn<F, Fut>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(AvmonHandle) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        self.shared.borrow_mut().inboxes.entry(node).or_default();
        let handle = AvmonHandle::new(node, Rc::clone(&self.shared));
        self.tasks.push(Task {
            node,
            fut: Box::pin(f(handle)),
            done: false,
        });
    }

    /// One scheduling round: polls every task, then applies the commands
    /// they queued to the world, in the order the tasks recorded them.
    /// Returns the nodes whose last task completed this round; their
    /// inboxes are dropped, so nothing buffers events nobody will read.
    pub(crate) fn poll(&mut self) -> Vec<NodeId> {
        let mut idle = poll_tasks(&mut self.tasks);
        let outbox = {
            let mut shared = self.shared.borrow_mut();
            idle.retain(|&node| {
                self.tasks.iter().all(|t| t.done || t.node != node)
                    && shared.inboxes.remove(&node).is_some()
            });
            std::mem::take(&mut shared.outbox)
        };
        let mut world = self.world.borrow_mut();
        for (from, command) in outbox {
            world.command(from, command);
        }
        idle
    }

    /// Moves executor time to `now` and files `events` in the inboxes of
    /// the nodes that have tasks.
    pub(crate) fn advance(
        &self,
        now: TimeMs,
        events: impl IntoIterator<Item = (TimeMs, NodeId, AppEvent)>,
    ) {
        let mut shared = self.shared.borrow_mut();
        shared.now = now;
        for (at, id, event) in events {
            if let Some(inbox) = shared.inboxes.get_mut(&id) {
                inbox.push_back((at, event));
            }
        }
    }

    /// A copy of the decision log recorded so far.
    pub(crate) fn log(&self) -> DecisionLog {
        self.shared.borrow().log.clone()
    }

    /// Drops the tasks and returns the world plus the decision log.
    pub(crate) fn into_parts(self) -> (W, DecisionLog) {
        drop(self.tasks);
        let log = sole_owner(self.shared).log;
        (sole_owner(self.world), log)
    }
}

/// Unwraps a cell every task-held clone of which is gone.
#[expect(clippy::panic, reason = "a leaked handle is an executor bug")]
fn sole_owner<T>(cell: Rc<RefCell<T>>) -> T {
    Rc::try_unwrap(cell)
        .unwrap_or_else(|_| panic!("a task leaked its handle past executor teardown"))
        .into_inner()
}

/// Runs async application tasks deterministically inside a
/// [`Simulation`]: sleeps resolve through sim time, events arrive at
/// their exact emission instants, and the `app` RNG stream is recorded
/// in the report's `RngLedger`.
pub struct SimExecutor {
    core: Core<Simulation>,
    /// Wake instants already sitting in the calendar (token == instant),
    /// so repeated pauses before a far deadline don't re-schedule it.
    scheduled: BTreeSet<u64>,
}

impl SimExecutor {
    /// Wraps `sim`; the `app` RNG stream is seeded
    /// [`app_stream_seed`]`(master_seed)` — pass the same master seed the
    /// simulation uses so the stream is derived, not independent.
    #[must_use]
    pub fn new(sim: Simulation, master_seed: u64) -> Self {
        let now = sim.now();
        SimExecutor {
            core: Core::new(sim, now, master_seed),
            scheduled: BTreeSet::new(),
        }
    }

    /// Spawns an app task bound to `node` and subscribes the node's
    /// events until its last task completes. Spawn order is poll order —
    /// part of the deterministic contract, so spawn in a fixed order.
    pub fn spawn<F, Fut>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(AvmonHandle) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        self.core.world.borrow_mut().subscribe_app(node);
        self.core.spawn(node, f);
    }

    /// Read access to the wrapped simulation (clock, trace, alive set,
    /// node state — anything [`Simulation`] exposes immutably).
    pub fn sim<R>(&self, f: impl FnOnce(&Simulation) -> R) -> R {
        f(&self.core.world.borrow())
    }

    /// One [`Core::poll`] round; a node whose last task completed stops
    /// pausing the engine and filling its event buffer.
    fn poll(&mut self) {
        let idle = self.core.poll();
        let mut sim = self.core.world.borrow_mut();
        for node in idle {
            sim.unsubscribe_app(node);
        }
    }

    /// Advances the simulation (and every task) to `deadline`.
    pub fn run_until(&mut self, deadline: TimeMs) {
        loop {
            self.poll();
            let next = self.core.shared.borrow().next_deadline();
            let (paused, now, events, wakes) = {
                let mut sim = self.core.world.borrow_mut();
                if let Some(at) = next {
                    if at <= deadline && self.scheduled.insert(at) {
                        sim.schedule_app_wake(at, at);
                    }
                }
                let paused = sim.run_until_wake(deadline);
                (paused, sim.now(), sim.take_app_events(), sim.take_wakes())
            };
            self.core.advance(now, events);
            for wake in wakes {
                self.scheduled.remove(&wake);
            }
            if !paused {
                self.poll();
                break;
            }
        }
        self.sync_app_draws();
    }

    /// Runs to the trace horizon.
    pub fn run(&mut self) {
        let horizon = self.sim(|sim| sim.trace().horizon);
        self.run_until(horizon);
    }

    /// Pushes the app stream's draw count into the simulation's ledger.
    fn sync_app_draws(&mut self) {
        let draws = self.core.shared.borrow().rng.draws();
        self.core.world.borrow_mut().set_app_draws(draws);
    }

    /// A copy of the decision log recorded so far.
    #[must_use]
    pub fn log(&self) -> DecisionLog {
        self.core.log()
    }

    /// Tears the executor down (as `LiveExecutor::into_parts` does): the
    /// simulation, wherever it stands, plus the decision log.
    #[must_use]
    pub fn into_parts(mut self) -> (Simulation, DecisionLog) {
        self.sync_app_draws();
        self.core.into_parts()
    }

    /// Finishes the run: the simulation's report plus the decision log.
    #[must_use]
    pub fn into_report(self) -> (SimReport, DecisionLog) {
        let (sim, log) = self.into_parts();
        (sim.into_report(), log)
    }
}
