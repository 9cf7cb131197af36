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
//! otherwise — a view changed in flight, the helper was late, the fetch was
//! lost. The matches are a pure function of the sides, so a replay is the
//! very sequence of `out(mi, ti)` calls the inner selector would have made.
//! Nothing else the helper computes reaches the simulation (DESIGN.md §5,
//! "One loop, one helper").
//!
//! The engine loop never waits for the helper. It engages only where the
//! process may run two threads at once.

use std::num::NonZeroUsize;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

use avmon::{DurMs, MonitorSelector, NodeId, Nonce, SharedSelector, TimeMs};

/// Jobs handed to the helper and not yet collected. With this many out,
/// the helper is behind and the engine stops submitting: those nodes hash
/// inline.
const MAX_IN_FLIGHT: usize = 8;

/// A new thread starts on its creator's core, and a kernel that does not
/// balance load (a cpuset with `sched_load_balance` off) leaves it there.
/// Sharing the engine's core, the helper runs only when the engine is
/// preempted, so its results come late and hashing them is wasted. A
/// window of `WINDOW` replies most of which found their job still in
/// flight pauses submitting, for `FIRST_PAUSE` fetches and twice as long
/// each time it recurs, up to `MAX_PAUSE`; the submissions after a pause
/// find out whether the helper has a core by then, and a window on time
/// resets the pause.
const WINDOW: u32 = 8;
const FIRST_PAUSE: u32 = 256;
const MAX_PAUSE: u32 = 8192;

/// Empty polls an idle helper makes, yielding after each, before it parks
/// on the channel. A parked helper costs the engine a wake-up per job;
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

/// The helper thread and both ends of its channels.
#[derive(Debug)]
struct Helper {
    /// `None` only while dropping: closing it tells the helper to exit.
    jobs: Option<SyncSender<Prepared>>,
    done: Receiver<Prepared>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn(selector: SharedSelector) -> Option<Helper> {
        let (jobs, inbox) = sync_channel::<Prepared>(MAX_IN_FLIGHT);
        let (outbox, done) = sync_channel::<Prepared>(MAX_IN_FLIGHT);
        let thread = std::thread::Builder::new()
            .name("avmon-crosscheck".into())
            .spawn(move || serve(&*selector, &inbox, &outbox))
            .ok()?;
        Some(Helper {
            jobs: Some(jobs),
            done,
            thread: Some(thread),
        })
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(thread) = self.thread.take() {
            // A helper that panicked has nothing left to hand back.
            let _ = thread.join();
        }
    }
}

/// The helper's loop: hash each job and hand it back, until the engine
/// hangs up.
fn serve(
    selector: &dyn MonitorSelector,
    inbox: &Receiver<Prepared>,
    outbox: &SyncSender<Prepared>,
) {
    while let Some(mut job) = next_job(inbox) {
        job.hash(selector);
        if outbox.send(job).is_err() {
            return;
        }
    }
}

/// The next job: polled up to `IDLE_POLLS` times, yielding in between,
/// then waited for. `None` once the engine hung up.
fn next_job(inbox: &Receiver<Prepared>) -> Option<Prepared> {
    for _ in 0..IDLE_POLLS {
        match inbox.try_recv() {
            Ok(job) => return Some(job),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
    inbox.recv().ok()
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
    /// The helper; `None` until spawned, and again if it ever hung up.
    helper: Option<Helper>,
    /// `(slot, nonce)` of the jobs submitted and not yet collected.
    in_flight: Vec<(usize, Nonce)>,
    /// Replies to submitted cross-checks judged in this window, and how
    /// many of them found their job still in flight.
    judged: u32,
    late: u32,
    /// Fetches left to let pass without submitting, and the next pause.
    pause: u32,
    next_pause: u32,
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
    /// `now`.
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
        if self.pause > 0 {
            self.pause -= 1;
            return false;
        }
        self.helper.is_some() && self.in_flight.len() < MAX_IN_FLIGHT
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
        let Some(jobs) = self.helper.as_ref().and_then(|h| h.jobs.as_ref()) else {
            return;
        };
        let mut job = self.spare.pop().unwrap_or_default();
        (job.slot, job.nonce, job.at) = (slot, nonce, at);
        (job.a, job.b) = sides;
        job.replays = 0;
        match jobs.try_send(job) {
            Ok(()) => {
                self.in_flight.push((slot, nonce));
                self.stats.submitted += 1;
            }
            // Full cannot happen below `MAX_IN_FLIGHT`; disconnected means
            // the helper is gone, and every later cross-check runs inline.
            Err(_) => self.helper = None,
        }
    }

    /// Moves every result the helper finished into `ready`.
    fn collect(&mut self) {
        let Some(helper) = &self.helper else {
            return;
        };
        loop {
            match helper.done.try_recv() {
                Ok(job) => {
                    let key = (job.slot, job.nonce);
                    if let Some(i) = self.in_flight.iter().position(|&k| k == key) {
                        self.in_flight.swap_remove(i);
                    }
                    self.ready.push(job);
                }
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => {
                    self.helper = None;
                    return;
                }
            }
        }
    }

    /// Before `slot` handles the `ViewFetchReply` for `nonce`: lends the
    /// finished result for that fetch, if there is one, to the replay
    /// selector.
    pub(crate) fn lend(&mut self, slot: usize, nonce: Nonce) {
        if self.helper.is_none() {
            return;
        }
        self.collect();
        let found = self
            .ready
            .iter()
            .position(|p| p.slot == slot && p.nonce == nonce);
        if let (Some(i), Some(replay)) = (found, &self.replay) {
            replay.lend(self.ready.swap_remove(i));
            self.judge(false);
        } else if self.in_flight.contains(&(slot, nonce)) {
            self.judge(true);
        }
    }

    /// Counts one reply to a submitted cross-check, `late` if its job was
    /// still in flight, and pauses submitting after a mostly late window.
    fn judge(&mut self, late: bool) {
        self.judged += 1;
        self.late += u32::from(late);
        if self.judged < WINDOW {
            return;
        }
        if 2 * self.late > WINDOW {
            self.pause = self.next_pause.max(FIRST_PAUSE);
            self.next_pause = (2 * self.pause).min(MAX_PAUSE);
        } else {
            self.next_pause = FIRST_PAUSE;
        }
        (self.judged, self.late) = (0, 0);
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
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Counts the batch calls that reach the real selector.
    #[derive(Debug)]
    struct Counting {
        inner: SharedSelector,
        batches: AtomicU64,
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
            let counting = Arc::new(Counting {
                inner: HashSelector::from_config_with_kind(&config, kind),
                batches: AtomicU64::new(0),
            });
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
}
