//! The Fig. 2 cross-check, hashed one network hop ahead on a second core.
//!
//! When node `x`'s `ViewFetch` to `w` is routed, the two sides of the
//! cross-check `x` will run on `w`'s reply are already readable:
//! `A = CV(x) ∪ {x, w}` and `B = CV(w) ∪ {x, w}` ([`Node::fig2_sides`]
//! over `w`'s current view). The engine hands them to one helper thread,
//! which runs the selector's unchanged `accepted_pairs(A, B)` and
//! `accepted_pairs(B, A)`. When the reply is delivered, the node reaches
//! its selector through a [`ReplaySelector`] that has been lent the
//! finished result: it replays the recorded matches only for sides equal
//! element for element to the prepared ones, and asks the inner selector
//! otherwise — a view changed in flight, the job was taken back, the fetch
//! was lost. The matches are a pure function of the sides, so a replay is
//! the very sequence of `out(mi, ti)` calls the inner selector would have
//! made.
//! Nothing else the helper computes reaches the simulation (DESIGN.md §5,
//! "One loop, one helper").
//!
//! Every handed-over cross-check is hashed by exactly one thread. At the
//! reply, a job the helper has not started is taken back and the node
//! hashes inline; a job the helper holds is waited for, yielding the core
//! meanwhile. It engages only where the process may run two threads at
//! once.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use avmon::{DurMs, MonitorSelector, NodeId, Nonce, SharedSelector, TimeMs};

/// Jobs handed to the helper and not yet collected. With this many out,
/// the helper is behind and the engine stops submitting: those nodes hash
/// inline.
const MAX_IN_FLIGHT: usize = 8;

/// Empty polls an idle helper makes, yielding after each, before it parks
/// on the queue. A parked helper costs the engine a wake-up per job;
/// this bounds how long it polls instead. On a core of its own a yield
/// returns at once, so this is about a millisecond. On the engine's core
/// each yield hands the engine the rest of its time slice, so the helper
/// costs it little, yet stays runnable: it shows as CPU pressure, which is
/// what a host that turns load balancing on only under pressure reacts to.
const IDLE_POLLS: u32 = 4_000;

/// Counters of the cross-check helper, outside the report like
/// [`CalendarStats`](crate::CalendarStats): the report is the same whether
/// or not the helper ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossCheckStats {
    /// Cross-checks handed to the helper.
    pub submitted: u64,
    /// Received views whose cross-check was replayed from the helper.
    pub replayed: u64,
    /// Received views whose cross-check the node hashed itself.
    pub hashed_inline: u64,
    /// Handed-over cross-checks taken back unstarted at their reply and
    /// hashed by the node.
    pub stolen: u64,
    /// Replies that waited for the helper to finish their cross-check.
    pub waited: u64,
}

/// One cross-check prepared ahead: the fetch it belongs to, the sides the
/// engine predicted, and the selector's matches over them in each order.
#[derive(Debug, Default)]
pub(crate) struct Prepared {
    slot: usize,
    nonce: Nonce,
    /// When the `ViewFetch` was sent; its reply is void `ping_timeout` later.
    at: TimeMs,
    a: Vec<NodeId>,
    b: Vec<NodeId>,
    /// `accepted_pairs(a, b)`, in call order.
    forward: Vec<(usize, usize)>,
    /// `accepted_pairs(b, a)`, in call order.
    reverse: Vec<(usize, usize)>,
    /// `accepted_pairs` calls answered from `forward` / `reverse` while lent.
    replays: u32,
}

impl Prepared {
    /// Fills `forward` and `reverse` from `selector`, reusing their buffers.
    fn hash(&mut self, selector: &dyn MonitorSelector) {
        let Prepared {
            a,
            b,
            forward,
            reverse,
            ..
        } = self;
        forward.clear();
        reverse.clear();
        selector.accepted_pairs(a, b, &mut |i, j| forward.push((i, j)));
        selector.accepted_pairs(b, a, &mut |i, j| reverse.push((i, j)));
    }
}

/// The selector every node of an engaged simulation holds: the inner one,
/// plus the one prepared result the engine lends it for the duration of a
/// `ViewFetchReply`'s `handle_message`.
#[derive(Debug)]
pub(crate) struct ReplaySelector {
    inner: SharedSelector,
    lent: Mutex<Option<Prepared>>,
}

impl ReplaySelector {
    pub(crate) fn new(inner: SharedSelector) -> Self {
        ReplaySelector {
            inner,
            lent: Mutex::new(None),
        }
    }

    /// The lent result. A poisoned lock still holds a plain value: take it.
    fn lent(&self) -> std::sync::MutexGuard<'_, Option<Prepared>> {
        self.lent.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn lend(&self, prepared: Prepared) {
        *self.lent() = Some(prepared);
    }

    pub(crate) fn take_back(&self) -> Option<Prepared> {
        self.lent().take()
    }
}

impl MonitorSelector for ReplaySelector {
    fn is_monitor(&self, monitor: NodeId, target: NodeId) -> bool {
        self.inner.is_monitor(monitor, target)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// Replays the lent result for exactly its sides, in either order;
    /// anything else goes to the inner selector. The result leaves the
    /// lock while `out` runs, so `out` may call back into the selector.
    fn accepted_pairs(
        &self,
        monitors: &[NodeId],
        targets: &[NodeId],
        out: &mut dyn FnMut(usize, usize),
    ) {
        let lent = self.lent().take();
        let Some(mut prepared) = lent else {
            return self.inner.accepted_pairs(monitors, targets, out);
        };
        let matches = if monitors == prepared.a && targets == prepared.b {
            Some(&prepared.forward)
        } else if monitors == prepared.b && targets == prepared.a {
            Some(&prepared.reverse)
        } else {
            None
        };
        match matches {
            Some(matches) => {
                for &(i, j) in matches {
                    out(i, j);
                }
                prepared.replays += 1;
            }
            None => self.inner.accepted_pairs(monitors, targets, out),
        }
        *self.lent() = Some(prepared);
    }
}

/// Logical CPUs this process may run on (affinity masks and cgroup quotas
/// included), read once per process.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// The jobs handed over and not started yet, shared with the helper.
#[derive(Debug, Default)]
struct Queue {
    jobs: VecDeque<Prepared>,
    /// Whether the helper is parked on [`Shared::wake`].
    parked: bool,
    /// Set when the engine hangs up: the helper exits.
    closed: bool,
}

#[derive(Debug, Default)]
struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
}

impl Shared {
    /// The queue. A poisoned lock still holds plain values: take it.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The helper thread, its job queue and the channel of finished results.
#[derive(Debug)]
struct Helper {
    shared: Arc<Shared>,
    done: Receiver<Prepared>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn(selector: SharedSelector) -> Option<Helper> {
        let shared = Arc::new(Shared::default());
        let (outbox, done) = sync_channel::<Prepared>(MAX_IN_FLIGHT);
        let queue = shared.clone();
        let thread = std::thread::Builder::new()
            .name("avmon-crosscheck".into())
            .spawn(move || serve(&*selector, &queue, &outbox))
            .ok()?;
        Some(Helper {
            shared,
            done,
            thread: Some(thread),
        })
    }

    /// Queues `job` and wakes the helper if it is parked.
    fn push(&self, job: Prepared) {
        let mut queue = self.shared.queue();
        queue.jobs.push_back(job);
        if queue.parked {
            self.shared.wake.notify_one();
        }
    }

    /// Takes back the queued job of `slot`'s fetch `nonce`, if the helper
    /// has not started it.
    fn steal(&self, slot: usize, nonce: Nonce) -> Option<Prepared> {
        let mut queue = self.shared.queue();
        let i = queue
            .jobs
            .iter()
            .position(|p| p.slot == slot && p.nonce == nonce)?;
        queue.jobs.remove(i)
    }

    /// Takes back every queued job whose reply is void at `now`, into
    /// `void`.
    fn steal_void(&self, now: TimeMs, timeout: DurMs, void: &mut Vec<Prepared>) {
        let mut queue = self.shared.queue();
        while let Some(i) = queue.jobs.iter().position(|p| p.at + timeout < now) {
            void.extend(queue.jobs.remove(i));
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.shared.queue().closed = true;
        self.shared.wake.notify_one();
        if let Some(thread) = self.thread.take() {
            // A helper that panicked has nothing left to hand back.
            let _ = thread.join();
        }
    }
}

/// The helper's loop: hash each job and hand it back, until the engine
/// hangs up.
fn serve(selector: &dyn MonitorSelector, shared: &Shared, outbox: &SyncSender<Prepared>) {
    while let Some(mut job) = next_job(shared) {
        job.hash(selector);
        if outbox.send(job).is_err() {
            return;
        }
    }
}

/// The next job, taken off the queue: polled up to `IDLE_POLLS` times,
/// yielding in between, then waited for. `None` once the engine hung up,
/// even with jobs left: nobody will collect them.
fn next_job(shared: &Shared) -> Option<Prepared> {
    let mut polls = 0;
    let mut queue = shared.queue();
    loop {
        if queue.closed {
            return None;
        }
        if let Some(job) = queue.jobs.pop_front() {
            return Some(job);
        }
        if polls < IDLE_POLLS {
            polls += 1;
            drop(queue);
            std::thread::yield_now();
            queue = shared.queue();
        } else {
            queue.parked = true;
            queue = shared
                .wake
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.parked = false;
        }
    }
}

/// The engine's side of the helper: the gate, the selector nodes get, the
/// results waiting for their reply, and recycled buffers.
#[derive(Debug, Default)]
pub(crate) struct CrossCheckAhead {
    /// Whether the gate was read (at the first node built).
    gated: bool,
    /// The selector nodes hold, when the gate passed.
    replay: Option<Arc<ReplaySelector>>,
    /// Whether the helper was spawned (at the first submission).
    spawned: bool,
    /// The helper; `None` until spawned, and again once it hung up.
    helper: Option<Helper>,
    /// `(slot, nonce)` of the jobs submitted and not yet collected: queued,
    /// held by the helper, or finished and still in its channel.
    in_flight: Vec<(usize, Nonce)>,
    /// Finished results waiting for their `ViewFetchReply`.
    ready: Vec<Prepared>,
    /// Spent results whose buffers the next submission reuses.
    spare: Vec<Prepared>,
    stats: CrossCheckStats,
}

impl CrossCheckAhead {
    /// The selector a new node gets. The first call reads the gate: two
    /// or more cores give every node the replay wrapper; otherwise nodes
    /// get `inner` and nothing here runs. Replaying is sound for every
    /// selector the engine holds: it only builds `HashSelector`s, whose
    /// matches are a pure function of the two sides.
    pub(crate) fn node_selector(&mut self, inner: &SharedSelector) -> SharedSelector {
        if !self.gated {
            self.gated = true;
            if cores() >= 2 {
                self.replay = Some(Arc::new(ReplaySelector::new(inner.clone())));
            }
        }
        match &self.replay {
            Some(replay) => replay.clone(),
            None => inner.clone(),
        }
    }

    pub(crate) fn stats(&self) -> CrossCheckStats {
        self.stats
    }

    /// Whether a submission now would be taken: the gate passed, the
    /// helper (spawned here on first use) is up, and it is not behind.
    /// Collects finished results and drops those whose reply is void at
    /// `now`; with no room left, also the queued jobs whose reply is void.
    pub(crate) fn has_room(&mut self, now: TimeMs, timeout: DurMs) -> bool {
        let Some(replay) = &self.replay else {
            return false;
        };
        if !self.spawned {
            self.spawned = true;
            self.helper = Helper::spawn(replay.inner.clone());
        }
        self.collect();
        let mut i = 0;
        while i < self.ready.len() {
            if self.ready[i].at + timeout < now {
                self.spare.push(self.ready.swap_remove(i));
            } else {
                i += 1;
            }
        }
        let Some(helper) = &self.helper else {
            return false;
        };
        if self.in_flight.len() >= MAX_IN_FLIGHT {
            let spent = self.spare.len();
            helper.steal_void(now, timeout, &mut self.spare);
            for job in &self.spare[spent..] {
                self.in_flight.retain(|&k| k != (job.slot, job.nonce));
            }
        }
        self.in_flight.len() < MAX_IN_FLIGHT
    }

    /// Hands the cross-check of `slot`'s fetch `nonce`, sent at `at`, over
    /// `sides` to the helper. Call only after [`Self::has_room`] said yes.
    pub(crate) fn submit(
        &mut self,
        slot: usize,
        nonce: Nonce,
        at: TimeMs,
        sides: (Vec<NodeId>, Vec<NodeId>),
    ) {
        let Some(helper) = &self.helper else {
            return;
        };
        let mut job = self.spare.pop().unwrap_or_default();
        (job.slot, job.nonce, job.at) = (slot, nonce, at);
        (job.a, job.b) = sides;
        job.replays = 0;
        helper.push(job);
        self.in_flight.push((slot, nonce));
        self.stats.submitted += 1;
    }

    /// Takes one finished result off the helper's channel into `ready`:
    /// `Some(key)` of the job it belongs to, `None` if there is none yet.
    /// A disconnected channel means the helper is gone, and every later
    /// cross-check is hashed inline.
    fn receive(&mut self) -> Option<(usize, Nonce)> {
        let received = self.helper.as_ref()?.done.try_recv();
        match received {
            Ok(job) => {
                let key = (job.slot, job.nonce);
                if let Some(i) = self.in_flight.iter().position(|&k| k == key) {
                    self.in_flight.swap_remove(i);
                }
                self.ready.push(job);
                Some(key)
            }
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                self.helper = None;
                None
            }
        }
    }

    /// Moves every result the helper finished into `ready`.
    fn collect(&mut self) {
        while self.receive().is_some() {}
    }

    /// Before `slot` handles the `ViewFetchReply` for `nonce`: settles the
    /// hand-off of that fetch's cross-check, so that exactly one thread
    /// hashes it. A job the helper has not started is taken back, and the
    /// node hashes inline; a job the helper holds is waited for, yielding
    /// the core meanwhile so that a helper sharing it can finish. A
    /// finished result is lent to the replay selector.
    pub(crate) fn lend(&mut self, slot: usize, nonce: Nonce) {
        let key = (slot, nonce);
        self.collect();
        if let Some(i) = self.in_flight.iter().position(|&k| k == key) {
            let Some(helper) = &self.helper else {
                return;
            };
            if let Some(job) = helper.steal(slot, nonce) {
                self.in_flight.swap_remove(i);
                self.spare.push(job);
                self.stats.stolen += 1;
                return;
            }
            self.stats.waited += 1;
            while self.helper.is_some() {
                match self.receive() {
                    Some(got) if got == key => break,
                    Some(_) => {}
                    None => std::thread::yield_now(),
                }
            }
        }
        let found = self
            .ready
            .iter()
            .position(|p| p.slot == slot && p.nonce == nonce);
        if let (Some(i), Some(replay)) = (found, &self.replay) {
            replay.lend(self.ready.swap_remove(i));
        }
    }

    /// After that `handle_message`: takes the result back and counts the
    /// cross-check, if the node ran one (`processed`), as replayed or as
    /// hashed inline.
    pub(crate) fn settle(&mut self, processed: bool) {
        let mut replays = 0;
        if let Some(prepared) = self.replay.as_ref().and_then(|r| r.take_back()) {
            replays = prepared.replays;
            self.spare.push(prepared);
        }
        if processed {
            if replays >= 2 {
                self.stats.replayed += 1;
            } else {
                self.stats.hashed_inline += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmon::rng::Stream;
    use avmon::{Config, HashSelector, HasherKind};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;

    /// Counts the batch calls that reach the real selector. On the helper
    /// thread a call first counts itself in `entered`, then fails if
    /// `helper_fails`, and waits while `open` is false: a test can hold a
    /// job queued behind the one the helper is in, or mid-hash.
    #[derive(Debug)]
    struct Counting {
        inner: SharedSelector,
        batches: AtomicU64,
        entered: AtomicU64,
        open: AtomicBool,
        helper_fails: bool,
    }

    impl Counting {
        fn new(inner: SharedSelector, open: bool, helper_fails: bool) -> Arc<Counting> {
            Arc::new(Counting {
                inner,
                batches: AtomicU64::new(0),
                entered: AtomicU64::new(0),
                open: AtomicBool::new(open),
                helper_fails,
            })
        }

        /// Returns once the helper is inside a batch call.
        fn await_helper(&self) {
            while self.entered.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }

    /// Opens the gate when dropped. Dropping the hand-off joins the
    /// helper, so a test that fails with the gate shut must open it on the
    /// way out, or it hangs instead of failing.
    struct OpenOnDrop(Arc<Counting>);

    impl Drop for OpenOnDrop {
        fn drop(&mut self) {
            self.0.open.store(true, Ordering::SeqCst);
        }
    }

    impl MonitorSelector for Counting {
        fn is_monitor(&self, monitor: NodeId, target: NodeId) -> bool {
            self.inner.is_monitor(monitor, target)
        }

        fn name(&self) -> &'static str {
            "counting"
        }

        fn accepted_pairs(
            &self,
            monitors: &[NodeId],
            targets: &[NodeId],
            out: &mut dyn FnMut(usize, usize),
        ) {
            if std::thread::current().name() == Some("avmon-crosscheck") {
                self.entered.fetch_add(1, Ordering::SeqCst);
                assert!(!self.helper_fails, "the helper's selector fails");
                while !self.open.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.inner.accepted_pairs(monitors, targets, out);
        }
    }

    fn pairs(selector: &dyn MonitorSelector, m: &[NodeId], t: &[NodeId]) -> Vec<(usize, usize)> {
        let mut got = Vec::new();
        selector.accepted_pairs(m, t, &mut |i, j| got.push((i, j)));
        got
    }

    /// Distinct random identities (a dense threshold, so sides match often).
    fn side(rng: &mut Stream, len: usize) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = Vec::with_capacity(len);
        while ids.len() < len {
            let id = NodeId::from_index(rng.gen_range(0..400));
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids
    }

    /// The Fig. 2 sides of `x` fetching from `w`, built the way
    /// `Node::fig2_sides` builds them: each view, then `x`, then `w`.
    fn fig2(x: NodeId, w: NodeId, cv_x: &[NodeId], cv_w: &[NodeId]) -> [Vec<NodeId>; 2] {
        [cv_x, cv_w].map(|cv| [cv, &[x, w]].concat())
    }

    /// A prepared result replays exactly what the inner selector says, for
    /// its sides in either order, without asking it. Sides that differ by
    /// one entry, by order, by length or by swapped fetcher roles fall
    /// through to the inner selector, and still get its answer.
    #[test]
    fn replay_is_the_inner_selector_or_falls_through() {
        let config = Config::builder(40).build().unwrap();
        for (seed, kind) in [(1, HasherKind::Fast64), (2, HasherKind::Md5)] {
            let counting = Counting::new(
                HashSelector::from_config_with_kind(&config, kind),
                true,
                false,
            );
            let inner: SharedSelector = counting.clone();
            let replay = ReplaySelector::new(inner.clone());
            // The replay's answer, checked against the inner selector's;
            // `true` when the replay did not ask the inner selector.
            let replayed = |m: &[NodeId], t: &[NodeId], label: &str| {
                let expected = pairs(&*inner, m, t);
                let before = counting.batches.load(Ordering::Relaxed);
                assert_eq!(pairs(&replay, m, t), expected, "{label}");
                counting.batches.load(Ordering::Relaxed) == before
            };
            let mut rng = Stream::seeded(seed);
            let (x, w) = (NodeId::from_index(1000), NodeId::from_index(1001));
            let mut matched = 0;
            for round in 0..200 {
                let (len_x, len_w) = (rng.gen_range(0..30), rng.gen_range(1..30));
                let (cv_x, cv_w) = (side(&mut rng, len_x), side(&mut rng, len_w));
                let [a, b] = fig2(x, w, &cv_x, &cv_w);
                let mut prepared = Prepared {
                    a: a.clone(),
                    b: b.clone(),
                    ..Prepared::default()
                };
                prepared.hash(&*inner);
                matched += prepared.forward.len() + prepared.reverse.len();
                replay.lend(prepared);

                let label = format!("{kind} round {round}");
                assert!(replayed(&a, &b, &label), "{label}: (A, B) not replayed");
                assert!(replayed(&b, &a, &label), "{label}: (B, A) not replayed");

                let mut one_entry = a.clone();
                one_entry[0] = NodeId::from_index(2000 + round);
                let mut order = b.clone();
                order.swap(0, b.len() - 1);
                let longer = [&a[..], &[NodeId::from_index(3000)]].concat();
                let [swapped_a, swapped_b] = fig2(w, x, &cv_w, &cv_x);
                let near = [
                    ("one entry", one_entry, b.clone()),
                    ("order", a.clone(), order),
                    ("shorter", a.clone(), b[..b.len() - 1].to_vec()),
                    ("longer", longer, b.clone()),
                    ("swapped roles", swapped_a, swapped_b),
                ];
                for (what, m, t) in near {
                    let label = format!("{label} {what}");
                    assert!(!replayed(&m, &t, &label), "{label}: replayed off its sides");
                    assert!(!replayed(&t, &m, &label), "{label}: replayed off its sides");
                }
                let back = replay
                    .take_back()
                    .expect("the result stays lent until taken");
                assert_eq!(back.replays, 2, "{label}");
                // Nothing lent: every call is the inner selector's.
                assert!(
                    !replayed(&a, &b, &label),
                    "{label}: replayed with nothing lent"
                );
            }
            assert!(
                matched > 1000,
                "{kind}: too few matches to replay ({matched})"
            );
        }
    }

    /// An engaged hand-off over `inner`, as the gate builds it on two
    /// cores, whatever this host has.
    fn engaged(inner: SharedSelector) -> (CrossCheckAhead, Arc<ReplaySelector>) {
        let replay = Arc::new(ReplaySelector::new(inner));
        let ahead = CrossCheckAhead {
            gated: true,
            replay: Some(replay.clone()),
            ..CrossCheckAhead::default()
        };
        (ahead, replay)
    }

    /// A generous reply timeout: no job in these tests goes void.
    const TIMEOUT: DurMs = 60_000;

    /// Runs the reply to `slot`'s fetch `nonce` the way the engine does:
    /// lend, the node's two calls through its selector, settle. Returns
    /// the node's matches in each order.
    fn reply(
        ahead: &mut CrossCheckAhead,
        node: &ReplaySelector,
        (slot, nonce): (usize, u64),
        [a, b]: &[Vec<NodeId>; 2],
    ) -> [Vec<(usize, usize)>; 2] {
        ahead.lend(slot, Nonce(nonce));
        let got = [pairs(node, a, b), pairs(node, b, a)];
        ahead.settle(true);
        got
    }

    /// Hands over `sides` as `slot`'s fetch `nonce`; `false` if there was
    /// no room.
    fn hand_over(
        ahead: &mut CrossCheckAhead,
        (slot, nonce): (usize, u64),
        [a, b]: &[Vec<NodeId>; 2],
    ) -> bool {
        if !ahead.has_room(0, TIMEOUT) {
            return false;
        }
        ahead.submit(slot, Nonce(nonce), 0, (a.clone(), b.clone()));
        true
    }

    /// Random Fig. 2 sides of fetcher `slot`.
    fn random_sides(rng: &mut Stream, slot: u32) -> [Vec<NodeId>; 2] {
        let (x, w) = (NodeId::from_index(1000 + slot), NodeId::from_index(999));
        let (len_x, len_w) = (rng.gen_range(0..30), rng.gen_range(1..30));
        fig2(x, w, &side(rng, len_x), &side(rng, len_w))
    }

    /// Every handed-over cross-check reaches the real selector exactly
    /// twice — once per order — summed over the helper and the node,
    /// whether its job was stolen, waited for or found finished, and the
    /// node's matches are the real selector's.
    #[test]
    fn every_handed_over_check_is_hashed_once() {
        let config = Config::builder(40).build().unwrap();
        let reference = HashSelector::from_config_with_kind(&config, HasherKind::Md5);
        let counting = Counting::new(reference.clone(), true, false);
        let (mut ahead, node) = engaged(counting.clone());
        let mut rng = Stream::seeded(5);
        let mut handed = 0;
        for round in 0..300u64 {
            let batch: Vec<_> = (0..rng.gen_range(1..=MAX_IN_FLIGHT))
                .map(|slot| ((slot, round), random_sides(&mut rng, slot as u32)))
                .collect();
            for (key, sides) in &batch {
                assert!(hand_over(&mut ahead, *key, sides), "round {round}: no room");
                handed += 1;
            }
            // Vary how far the helper gets before the replies.
            match round % 3 {
                0 => {}
                1 => std::thread::yield_now(),
                _ => std::thread::sleep(Duration::from_micros(rng.gen_range(0..200))),
            }
            for (key, [a, b]) in &batch {
                let got = reply(&mut ahead, &node, *key, &[a.clone(), b.clone()]);
                let expected = [pairs(&*reference, a, b), pairs(&*reference, b, a)];
                assert_eq!(got, expected, "round {round} {key:?}");
            }
        }
        let stats = ahead.stats();
        assert_eq!(
            counting.batches.load(Ordering::SeqCst),
            2 * handed,
            "{stats:?}"
        );
        assert_eq!(stats.submitted, handed, "{stats:?}");
        assert_eq!(stats.replayed + stats.hashed_inline, handed, "{stats:?}");
        // A stolen job is the one way a handed-over check is hashed inline.
        assert_eq!(stats.stolen, stats.hashed_inline, "{stats:?}");
    }

    /// A job queued behind the one the helper is in is taken back at its
    /// reply: the node hashes it, the helper never sees it.
    #[test]
    fn a_queued_job_is_stolen() {
        let config = Config::builder(40).build().unwrap();
        let reference = HashSelector::from_config_with_kind(&config, HasherKind::Md5);
        let counting = Counting::new(reference.clone(), false, false);
        let (mut ahead, node) = engaged(counting.clone());
        let _open = OpenOnDrop(counting.clone());
        let mut rng = Stream::seeded(6);
        let (first, second) = (random_sides(&mut rng, 0), random_sides(&mut rng, 1));
        assert!(hand_over(&mut ahead, (0, 1), &first));
        counting.await_helper();
        assert!(hand_over(&mut ahead, (1, 2), &second));

        let [a, b] = &second;
        let got = reply(&mut ahead, &node, (1, 2), &second);
        assert_eq!(got, [pairs(&*reference, a, b), pairs(&*reference, b, a)]);
        let stats = ahead.stats();
        assert_eq!((stats.stolen, stats.waited), (1, 0), "{stats:?}");
        assert_eq!((stats.replayed, stats.hashed_inline), (0, 1), "{stats:?}");
        assert_eq!(counting.batches.load(Ordering::SeqCst), 2);

        counting.open.store(true, Ordering::SeqCst);
        reply(&mut ahead, &node, (0, 1), &first);
        let stats = ahead.stats();
        assert_eq!((stats.replayed, stats.hashed_inline), (1, 1), "{stats:?}");
        assert_eq!(counting.batches.load(Ordering::SeqCst), 4);
    }

    /// A job the helper holds mid-hash is waited for at its reply, then
    /// replayed: the node does not ask the real selector. The helper is
    /// let go 20 ms after the reply starts; the reply cannot signal that
    /// it is waiting, so only a reply stalled that long before it looks
    /// would find the job finished and read `waited` 0.
    #[test]
    fn a_held_job_is_waited_for_and_replayed() {
        let config = Config::builder(40).build().unwrap();
        let reference = HashSelector::from_config_with_kind(&config, HasherKind::Md5);
        let counting = Counting::new(reference.clone(), false, false);
        let (mut ahead, node) = engaged(counting.clone());
        let _open = OpenOnDrop(counting.clone());
        let sides = random_sides(&mut Stream::seeded(7), 0);
        assert!(hand_over(&mut ahead, (0, 1), &sides));
        counting.await_helper();
        let replying = Arc::new(AtomicBool::new(false));
        let opener = {
            let (counting, replying) = (counting.clone(), replying.clone());
            std::thread::spawn(move || {
                while !replying.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(100));
                }
                std::thread::sleep(Duration::from_millis(20));
                counting.open.store(true, Ordering::SeqCst);
            })
        };

        let [a, b] = &sides;
        replying.store(true, Ordering::SeqCst);
        let got = reply(&mut ahead, &node, (0, 1), &sides);
        opener.join().unwrap();
        assert_eq!(got, [pairs(&*reference, a, b), pairs(&*reference, b, a)]);
        let stats = ahead.stats();
        assert_eq!((stats.stolen, stats.waited), (0, 1), "{stats:?}");
        assert_eq!((stats.replayed, stats.hashed_inline), (1, 0), "{stats:?}");
        assert_eq!(counting.batches.load(Ordering::SeqCst), 2);
    }

    /// A helper whose selector panics mid-hash leaves its reply hashed
    /// inline without a hang, whether the reply finds the helper still
    /// unwinding (and waits) or gone, and every later cross-check is
    /// hashed inline: nothing more is handed over.
    #[test]
    fn a_failed_helper_leaves_the_engine_hashing_inline() {
        let config = Config::builder(40).build().unwrap();
        let reference = HashSelector::from_config_with_kind(&config, HasherKind::Fast64);
        let counting = Counting::new(reference.clone(), true, true);
        let (mut ahead, node) = engaged(counting.clone());
        let mut rng = Stream::seeded(8);
        let sides = random_sides(&mut rng, 0);
        assert!(hand_over(&mut ahead, (0, 1), &sides));
        counting.await_helper();

        let [a, b] = &sides;
        let got = reply(&mut ahead, &node, (0, 1), &sides);
        assert_eq!(got, [pairs(&*reference, a, b), pairs(&*reference, b, a)]);
        let stats = ahead.stats();
        assert_eq!((stats.replayed, stats.hashed_inline), (0, 1), "{stats:?}");

        for nonce in 2..10 {
            let sides = random_sides(&mut rng, 0);
            assert!(
                !hand_over(&mut ahead, (0, nonce), &sides),
                "handed to a gone helper"
            );
            let [a, b] = &sides;
            let got = reply(&mut ahead, &node, (0, nonce), &sides);
            assert_eq!(got, [pairs(&*reference, a, b), pairs(&*reference, b, a)]);
        }
        let stats = ahead.stats();
        assert_eq!((stats.submitted, stats.replayed), (1, 0), "{stats:?}");
        assert_eq!(stats.hashed_inline, 9, "{stats:?}");
    }
}
