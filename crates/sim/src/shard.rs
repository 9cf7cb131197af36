//! The sharded engine loop (active when [`SimOptions::workers`] > 1).
//!
//! Repeatedly carves a conservative window `[t0, t0 + lookahead)` off the
//! calendar head, classifies each event in pop order — shared-state events
//! **cut** the batch and run sequentially, no-op-on-live-nodes events run
//! **inline**, and live-node deliveries/timers **batch** — then executes
//! the batch in two phases: workers apply the node-local handlers
//! concurrently on nodes moved out of the engine (phase 1), and the main
//! thread replays every captured output in the original pop order through
//! [`Simulation::apply_outputs`] (phase 2), which is where all sequence
//! numbers are allocated and all shared RNG draws happen. The pop/replay
//! sequence is therefore *identical* to the sequential loop's, making
//! same-seed reports byte-identical at any worker count.
//!
//! The workers are the main thread and `workers - 1` spawned ones. A
//! window is a few hundred microseconds of work, so a thread that waits
//! for the next hand-off polls before it sleeps ([`recv_polling`]): a
//! sleeping thread's wake-up was 40 % of a sharded run and the part that
//! differed most from one run to the next.
//!
//! [`SimOptions::workers`]: crate::SimOptions::workers

use std::sync::mpsc;

use avmon::driver::{drain, DriverEnv};
use avmon::{AppEvent, Node, NodeId, TimeMs, Timer, Transmit};

use crate::calendar::{Event, EventKind};
use crate::engine::Simulation;

/// Everything one batched input made a node produce, drained node-locally
/// by a worker and replayed by the main thread in the original pop order.
#[derive(Debug, Default)]
pub(crate) struct ItemOutput {
    transmits: Vec<Transmit>,
    timers: Vec<(Timer, TimeMs)>,
    events: Vec<AppEvent>,
    /// Lane-origin timer discarded dead without touching the handler.
    expire_skip: bool,
}

impl DriverEnv for ItemOutput {
    fn transmit(&mut self, _from: NodeId, transmit: Transmit) {
        self.transmits.push(transmit);
    }
    fn arm_timer(&mut self, _node: NodeId, timer: Timer, at: TimeMs) {
        self.timers.push((timer, at));
    }
    fn handle_event(&mut self, _node: NodeId, event: AppEvent) {
        self.events.push(event);
    }
}

impl ItemOutput {
    /// Feeds the captured outputs to `env` in the order [`drain`] would
    /// have.
    pub(crate) fn replay<E: DriverEnv>(self, node: NodeId, env: &mut E) {
        for transmit in self.transmits {
            env.transmit(node, transmit);
        }
        for (timer, at) in self.timers {
            env.arm_timer(node, timer, at);
        }
        for event in self.events {
            env.handle_event(node, event);
        }
    }
}

/// One node's share of a batch: its protocol state moved out of the
/// engine plus its inputs in pop order, coming home with one output per
/// input. Owning the `Node` is what makes the fan-out safe without locks
/// — nothing borrows the engine.
#[derive(Debug)]
struct ShardJob {
    index: usize,
    /// The node's row in `Simulation::nodes`.
    slot: usize,
    proto: Node,
    /// Popped events, each with whether it rode a timer lane.
    inputs: Vec<(Event, bool)>,
    outputs: Vec<ItemOutput>,
}

/// Phase 1 of a batch for one node: apply each input at its own
/// timestamp and capture the outputs. Pure node-local computation — the
/// node's own state and RNG, nothing shared — so any number of these run
/// concurrently with no observable ordering. The detlint region below
/// machine-checks the purity claim: no engine RNG, no seq allocation,
/// no process streams may appear between the markers.
// detlint::region(worker-context)
fn run_shard(mut job: ShardJob) -> ShardJob {
    let inputs = std::mem::take(&mut job.inputs);
    job.outputs.reserve(inputs.len());
    for (Event { at, kind, .. }, from_lane) in inputs {
        let mut out = ItemOutput::default();
        match kind {
            EventKind::Deliver { from, msg, .. } => job.proto.handle_message(at, from, msg),
            // Liveness is evaluated *here*, after this node's earlier batch
            // inputs — an earlier pong in the same window may have retired
            // the request, exactly as in the sequential loop. (The drain
            // below then finds nothing.)
            EventKind::Timer { timer, .. } if from_lane && !job.proto.timer_live(timer, at) => {
                out.expire_skip = true;
            }
            EventKind::Timer { timer, .. } => job.proto.handle_timer(at, timer),
            other => unreachable!("unbatchable event in a batch: {other:?}"),
        }
        drain(&mut job.proto, &mut out);
        job.outputs.push(out);
    }
    job
}
// detlint::endregion(worker-context)

/// `try_recv` attempts, a `yield_now` apart, before [`recv_polling`] falls
/// back to a blocking `recv`, when every worker can have a core of its
/// own. A batch follows the last within a few hundred microseconds
/// (`stat_10k_w2`: ~430 attempts per wait on average, 97 of 54 000 waits
/// ran out), so between batches nobody sleeps; across a cut event that
/// takes milliseconds the threads park.
const POLLS_BEFORE_BLOCKING: u32 = 4096;

/// `rx.recv()` that polls up to `polls` times before it sleeps. One
/// hand-off per window is the sharded loop's whole overhead, and a
/// sleeping thread's wake-up is its slow and unsteady part (on a virtual
/// machine an idle core's wake is a trip through the hypervisor: ~150 us
/// to reach a worker and ~115 us back on the 2-core box, 7 of
/// `stat_10k_w2`'s 18 s, and several times that when the host is busy).
/// The budget is a number of attempts, not a duration: the simulator
/// reads no wall clock (detlint `banned-clock`).
fn recv_polling<T>(rx: &mpsc::Receiver<T>, polls: u32) -> Result<T, mpsc::RecvError> {
    for _ in 0..polls {
        match rx.try_recv() {
            Ok(value) => return Ok(value),
            Err(mpsc::TryRecvError::Disconnected) => return Err(mpsc::RecvError),
            Err(mpsc::TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
    rx.recv()
}

/// How batch collection treats the calendar head (see
/// [`Simulation::classify_head`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadClass {
    /// Ends the batch *before* this event; it then runs sequentially.
    /// Anything that touches shared state (churn, sampling, corruption,
    /// behavior switches) or needs a pop-time requeue (frozen nodes).
    Cut,
    /// Node-local processing for the live node at this slot: joins the
    /// batch.
    Batch(usize),
    /// Guaranteed not to touch any live node (dead/unknown destination,
    /// stale incarnation): dispatched on the spot during collection —
    /// the sequential dispatch path already reduces to the right side
    /// effects (useless-ping accounting, silent drops).
    Inline,
}

impl Simulation {
    /// Runs batches until `deadline`; returns whether it paused early on
    /// an app wake (see [`Simulation::run_until_wake`]).
    pub(crate) fn run_window_batches(&mut self, deadline: TimeMs, stop_on_wake: bool) -> bool {
        let mut paused = false;
        let (res_tx, res_rx) = mpsc::channel::<Vec<ShardJob>>();
        // With more workers than cores a polling thread only takes time
        // from one that has work, so there a wait sleeps at once.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let polls = if self.workers <= cores {
            POLLS_BEFORE_BLOCKING
        } else {
            0
        };
        std::thread::scope(|scope| {
            // The calling thread is one of the workers (it runs the last
            // share of every batch itself), so `workers - 1` threads are
            // spawned, once for the whole call, each with its own job
            // channel; jobs own their nodes, so the threads borrow nothing.
            let mut job_txs: Vec<mpsc::Sender<Vec<ShardJob>>> =
                Vec::with_capacity(self.workers - 1);
            for _ in 1..self.workers {
                let (job_tx, job_rx) = mpsc::channel::<Vec<ShardJob>>();
                job_txs.push(job_tx);
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    while let Ok(jobs) = recv_polling(&job_rx, polls) {
                        let done: Vec<ShardJob> = jobs.into_iter().map(run_shard).collect();
                        if res_tx.send(done).is_err() {
                            break;
                        }
                    }
                });
            }
            while let Some((t0, _)) = self.calendar.peek() {
                if t0 > deadline {
                    break;
                }
                let window_end = t0.saturating_add(self.lookahead);
                let (order, groups, cut) = self.collect_batch(window_end, deadline);
                if !groups.is_empty() {
                    self.execute_batch(order, groups, window_end, &job_txs, &res_rx, polls);
                }
                // The cut event is still the calendar head: everything
                // scheduled by the batch lands at or beyond the window
                // end, or at the same instant with a larger sequence.
                // Wakes and subscribed-node events only ever arise from
                // cut dispatches (they classify as Cut), so this is the
                // only pause check the parallel loop needs.
                if cut && self.step(deadline) && stop_on_wake && self.wake_pending() {
                    paused = true;
                    break;
                }
            }
            // Hang up the job channels so the workers drain and exit.
            drop(job_txs);
        });
        paused
    }

    /// Collects one batch in pop order, consuming batchable and inline
    /// heads and stopping at the window end or the first cut event.
    /// Returns the replay order as `(group, time)` pairs, the per-node
    /// jobs (each owning its `Node`), and whether a cut event is pending.
    fn collect_batch(
        &mut self,
        window_end: TimeMs,
        deadline: TimeMs,
    ) -> (Vec<(usize, TimeMs)>, Vec<ShardJob>, bool) {
        let mut order: Vec<(usize, TimeMs)> = Vec::new();
        let mut groups: Vec<ShardJob> = Vec::new();
        while let Some((at, kind)) = self.calendar.peek() {
            let addressee = kind.addressee();
            if at >= window_end || at > deadline {
                break;
            }
            match self.classify_head(addressee, at) {
                HeadClass::Cut => return (order, groups, true),
                // Inline events never touch a live node, so the ordinary
                // dispatch path is exact: dead-destination deliveries do
                // their useless-ping accounting, stale timers fall
                // through the incarnation check, nothing else happens.
                HeadClass::Inline => {
                    self.step(at);
                }
                HeadClass::Batch(slot) => {
                    let input = self.calendar.pop_due(at).expect("peeked");
                    self.now = at;
                    let sim_node = &mut self.nodes[slot];
                    let gi = *sim_node.batch_group.get_or_insert_with(|| {
                        groups.push(ShardJob {
                            index: groups.len(),
                            slot,
                            proto: sim_node.proto.take().expect("classified live"),
                            inputs: Vec::new(),
                            outputs: Vec::new(),
                        });
                        groups.len() - 1
                    });
                    groups[gi].inputs.push(input);
                    order.push((gi, at));
                }
            }
        }
        (order, groups, false)
    }

    /// Classifies the calendar head for batch collection. A node already
    /// in this batch has its `proto` moved out into its job — it is still
    /// live, which its `batch_group` says.
    fn classify_head(&self, addressee: Option<(NodeId, Option<u64>)>, at: TimeMs) -> HeadClass {
        let Some((node, incarnation)) = addressee else {
            return HeadClass::Cut;
        };
        let Some(slot) = self.slot(node) else {
            return HeadClass::Inline;
        };
        let n = &self.nodes[slot];
        if n.frozen_at(at).is_some() || n.app_subscribed {
            // Frozen nodes requeue at pop time with a fresh sequence
            // number — that allocation must happen at the sequential
            // position, so the event cuts the batch. App-subscribed nodes
            // cut too: their events must pause `run_until_wake` at the
            // exact sequential calendar position, independent of worker
            // count.
            HeadClass::Cut
        } else if incarnation.is_none_or(|i| i == n.incarnation)
            && (n.proto.is_some() || n.batch_group.is_some())
        {
            HeadClass::Batch(slot)
        } else {
            HeadClass::Inline
        }
    }

    /// Executes a collected batch: phase 1 deals the per-node jobs into
    /// one share per worker, hands all but the last to the spawned threads
    /// and runs the last on this thread (everything inline for tiny
    /// batches, where the hand-off would dominate), phase 2 restores the
    /// nodes and replays every output strictly in the original pop order.
    fn execute_batch(
        &mut self,
        order: Vec<(usize, TimeMs)>,
        groups: Vec<ShardJob>,
        window_end: TimeMs,
        job_txs: &[mpsc::Sender<Vec<ShardJob>>],
        res_rx: &mpsc::Receiver<Vec<ShardJob>>,
        polls: u32,
    ) {
        let n_groups = groups.len();
        let mut done_jobs: Vec<Option<ShardJob>> = (0..n_groups).map(|_| None).collect();
        if n_groups < 2 || order.len() < 16 {
            for job in groups {
                let gi = job.index;
                done_jobs[gi] = Some(run_shard(job));
            }
        } else {
            let shares = job_txs.len() + 1;
            let mut per_worker: Vec<Vec<ShardJob>> = (0..shares).map(|_| Vec::new()).collect();
            for job in groups {
                per_worker[job.index % shares].push(job);
            }
            let own = per_worker.pop().expect("shares >= 1");
            let mut outstanding = 0;
            for (tx, jobs) in job_txs.iter().zip(per_worker) {
                if !jobs.is_empty() {
                    tx.send(jobs).expect("worker alive");
                    outstanding += 1;
                }
            }
            for job in own {
                let gi = job.index;
                done_jobs[gi] = Some(run_shard(job));
            }
            for _ in 0..outstanding {
                for done in recv_polling(res_rx, polls).expect("worker alive") {
                    let gi = done.index;
                    done_jobs[gi] = Some(done);
                }
            }
        }
        // Bring every node home before replaying: replay routes messages
        // and folds metrics but never touches protocol state.
        let mut slots: Vec<usize> = Vec::with_capacity(n_groups);
        let mut outputs: Vec<std::vec::IntoIter<ItemOutput>> = Vec::with_capacity(n_groups);
        for done in done_jobs {
            let done = done.expect("every group completes");
            let sim_node = &mut self.nodes[done.slot];
            sim_node.proto = Some(done.proto);
            sim_node.batch_group = None;
            slots.push(done.slot);
            outputs.push(done.outputs.into_iter());
        }
        // With a window wider than one instant, nothing a handler did may
        // schedule inside the window; width-1 windows may schedule at the
        // same instant, which the fresh (larger) sequence numbers order
        // correctly.
        let barrier = if self.lookahead > 1 { window_end } else { 0 };
        for (gi, at) in order {
            let out = outputs[gi].next().expect("one output per item");
            self.now = at;
            if out.expire_skip {
                self.calendar.note_expire_skip();
            } else {
                self.apply_outputs(slots[gi], Some((out, barrier)));
            }
        }
    }
}
