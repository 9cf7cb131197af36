//! The AVMON node state machine.
//!
//! [`Node`] is **sans-io**: it never touches sockets, clocks or threads.
//! A driver (the discrete-event simulator, the threaded runtime, or the UDP
//! runtime) feeds it three kinds of inputs — [`Node::start`],
//! [`Node::handle_message`], [`Node::handle_timer`] — each stamped with the
//! current time. Inputs push their effects into small internal queues that
//! the driver then drains through the **poll interface**:
//!
//! * [`Node::poll_transmit`] — outgoing datagrams ([`Transmit`]),
//! * [`Node::poll_timer`] — timers to arm ([`Timer`] at an absolute time),
//! * [`Node::poll_event`] — application-visible [`AppEvent`]s.
//!
//! The queues ([`OutputQueues`]) are reused across inputs, so the
//! steady-state hot path performs no allocation per input — the property
//! the paper's §4 scalability analysis (`O(cvs)` memory, `O(cvs²)` hash
//! checks per period) depends on. They are empty between inputs once
//! drained, so a driver running many nodes on one thread can lend one set
//! to whichever node takes the next input ([`Node::swap_output_queues`]);
//! the simulator does, and its nodes hold no queue capacity between
//! inputs. The [`crate::driver`] module builds the shared harness (timer
//! queue, drain loop, snapshots) on top of this interface.
//!
//! One `Node` value implements every sub-protocol of the paper: the JOIN
//! spanning tree (Fig. 1), coarse-view maintenance and monitor discovery
//! (Fig. 2), availability monitoring with forgetful pinging (§3.3), monitor
//! reporting (§3.3), the PR2 optimization (§5.4), and the Broadcast baseline
//! (Table 1).

mod maintenance;
mod monitoring;
#[cfg(test)]
mod tests;

use std::collections::VecDeque;
use std::sync::Arc;

use crate::table::{FlatMap, SortedMap, SortedSet};

use serde::{Deserialize, Serialize};

use crate::behavior::Behavior;
use crate::codec;
use crate::config::{Config, DiscoveryMode};
use crate::message::{Message, Nonce};
use crate::rng::Stream;
use crate::selector::{verify_report, ReportVerification, SharedSelector};
use crate::stats::NodeStats;
use crate::time::{DurMs, Stamp, TimeMs};
use crate::view::CoarseView;
use crate::NodeId;

/// Why a node is entering the system (Fig. 1 distinguishes the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// First ever join (birth): JOIN weight is `cvs`.
    Fresh,
    /// Re-entry after an absence: JOIN weight is
    /// `min(cvs, down_duration / protocol_period)`.
    Rejoin {
        /// How long the node was out of the system.
        down_duration: DurMs,
    },
}

/// Timers a node asks its driver to arm.
///
/// `Ord` follows `(variant, nonce)` so driver timer queues can order
/// same-deadline timers deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Timer {
    /// The coarse-membership protocol period tick (Fig. 2).
    Protocol,
    /// The monitoring-ping period tick (§3.3).
    Monitoring,
    /// Expiry of an outstanding request (ping / fetch / RPC).
    ///
    /// # Expiry contract (lazy / cancellable timers)
    ///
    /// Every `Expire` is armed together with a per-nonce deadline stamp on
    /// the node's pending-request table. A firing is *live* only while the
    /// request is still outstanding **and** the firing time has reached the
    /// stamped deadline; [`Node::handle_timer`] discards anything else in
    /// `O(1)` — a pong that already retired the request (the common case:
    /// almost every ping is answered), or a stale firing from an earlier
    /// arming of a reused nonce (so re-armed nonces never resurrect old
    /// timers). Drivers are therefore free to *drop* dead `Expire` timers
    /// without delivering them: [`Node::timer_live`] answers the same
    /// question without a `&mut` borrow, which is what lets the simulator's
    /// calendar and [`crate::driver::TimerQueue::pop_due_where`] skip
    /// ponged pings before they ever touch the node. Delivering a dead
    /// firing anyway is also fine — it is a no-op.
    Expire(Nonce),
}

/// Where an outgoing message is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Destination {
    /// A single peer.
    Node(NodeId),
    /// Every node in the system (Broadcast baseline only; never produced
    /// in [`DiscoveryMode::CoarseView`]).
    AllNodes,
}

/// One outgoing datagram, drained via [`Node::poll_transmit`].
#[derive(Debug, Clone, PartialEq)]
pub struct Transmit {
    /// Destination.
    pub to: Destination,
    /// The message to deliver.
    pub msg: Message,
}

impl Transmit {
    /// The unicast destination, if this is not a broadcast.
    #[must_use]
    pub fn unicast_to(&self) -> Option<NodeId> {
        match self.to {
            Destination::Node(id) => Some(id),
            Destination::AllNodes => None,
        }
    }
}

/// A node effect, as a single enum.
///
/// The poll interface ([`Node::poll_transmit`] / [`Node::poll_timer`] /
/// [`Node::poll_event`]) is the hot path; `Action` remains as the unified
/// vocabulary for tests, logs and tools that want one stream of effects.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Action {
    /// Transmit `msg` to `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: Message,
    },
    /// Deliver `msg` to every node in the system (Broadcast baseline only).
    Broadcast {
        /// The message.
        msg: Message,
    },
    /// Invoke [`Node::handle_timer`] with `timer` at time `at`.
    SetTimer {
        /// Which timer.
        timer: Timer,
        /// Absolute protocol time at which to fire.
        at: TimeMs,
    },
    /// An application-visible event (discoveries, report outcomes, …).
    App(AppEvent),
}

/// Application-visible protocol events.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AppEvent {
    /// This node learned of a (verified) member of its own pinging set.
    MonitorDiscovered {
        /// The monitor that will track this node's availability.
        monitor: NodeId,
    },
    /// This node was assigned a (verified) target to monitor.
    TargetDiscovered {
        /// The node this node must now monitor.
        target: NodeId,
    },
    /// The initial coarse view was inherited from the join contact.
    ViewInherited {
        /// The contact that supplied the view.
        from: NodeId,
        /// Entries adopted.
        adopted: usize,
    },
    /// A JOIN for `origin` was absorbed into this node's coarse view.
    JoinAbsorbed {
        /// The joining node now present in the view.
        origin: NodeId,
    },
    /// A monitor report for `target` arrived and was verified.
    ReportOutcome {
        /// The node whose monitors were requested.
        target: NodeId,
        /// Verification result (verified / rejected claims).
        verification: ReportVerification,
    },
    /// An availability answer arrived from one of `target`'s monitors.
    HistoryOutcome {
        /// The monitor that answered.
        monitor: NodeId,
        /// The monitored node the answer is about.
        target: NodeId,
        /// Reported availability, if the monitor had data.
        availability: Option<f64>,
        /// Number of monitoring pings backing the answer.
        samples: u64,
    },
    /// An outstanding report/history request timed out.
    RequestTimedOut {
        /// The peer that failed to answer.
        peer: NodeId,
    },
    /// A monitored target began an unresponsive streak (local failure-
    /// detector suspicion — the raw signal behind detection-time and
    /// mistake-rate QoS scoring).
    TargetUnresponsive {
        /// The target that stopped answering monitoring pings.
        target: NodeId,
    },
    /// A previously-unresponsive target answered again (suspicion
    /// retracted; closes a failure-detector mistake episode if the target
    /// never actually died).
    TargetResponsive {
        /// The target that resumed answering.
        target: NodeId,
    },
    /// An opaque application payload arrived over the overlay
    /// ([`Message::AppData`], sent by a peer's [`Node::send_app`]).
    AppData {
        /// The sending node.
        from: NodeId,
        /// Application-defined bytes, delivered uninspected.
        payload: Vec<u8>,
    },
}

/// A node's three output queues, drained by the poll interface
/// ([`Node::poll_transmit`], [`Node::poll_timer`], [`Node::poll_event`]).
///
/// A set is one pointer: the queues are allocated on the first output
/// pushed into it, so a [`Default`] set costs nothing. Every node holds a
/// set; a driver that runs many nodes on one thread can keep one more and
/// lend it to whichever node takes the next input with
/// [`Node::swap_output_queues`] (a pointer swap), so that the capacity the
/// queues grow to is paid once, not once per node, and a node that is
/// always lent a set never allocates its own. `pop_front` never shrinks
/// capacity, so whichever set a node is using allocates nothing per input
/// in the steady state.
#[derive(Debug, Default)]
pub struct OutputQueues(Option<Box<Queues>>);

#[derive(Debug, Default)]
struct Queues {
    transmits: VecDeque<Transmit>,
    timers: VecDeque<(Timer, TimeMs)>,
    events: VecDeque<AppEvent>,
}

impl OutputQueues {
    /// Whether all three queues are empty.
    fn is_empty(&self) -> bool {
        self.0
            .as_ref()
            .is_none_or(|q| q.transmits.is_empty() && q.timers.is_empty() && q.events.is_empty())
    }

    /// The queues to push into, allocated on the first push.
    fn push(&mut self) -> &mut Queues {
        self.0.get_or_insert_default()
    }
}

/// Outstanding request state, keyed by nonce. `Copy`: every variant is
/// a couple of 6-byte identities, so entries live inline in the flat
/// pending table with no heap indirection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    ViewPing { peer: NodeId },
    ViewFetch { peer: NodeId },
    InitView { peer: NodeId },
    MonitorPing { peer: NodeId },
    Report { target: NodeId },
    History { monitor: NodeId, target: NodeId },
}

/// An outstanding request plus the absolute deadline its [`Timer::Expire`]
/// was armed for — the stamp behind the lazy-expiry contract (see
/// [`Timer::Expire`]): a firing earlier than `deadline` is a stale timer
/// from a previous arming of a reused nonce and is discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingEntry {
    state: Pending,
    deadline: TimeMs,
}

/// Per-target monitoring state kept by a monitor (an entry of `TS(x)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetRecord {
    /// When the monitoring relationship was discovered.
    pub discovered_at: TimeMs,
    /// Monitoring pings sent to the target.
    pub pings_sent: u64,
    /// Monitoring pongs received from the target.
    pub pongs_received: u64,
    /// Time of the most recent pong.
    pub last_pong: Option<Stamp>,
    /// Start of the currently-observed up session, if the target is up.
    pub session_start: Option<Stamp>,
    /// Duration of the last completed observed up session (`ts(u)` in the
    /// forgetful-pinging formula).
    pub last_session: DurMs,
    /// Start of the current unresponsive streak, if any.
    pub unresponsive_since: Option<Stamp>,
}

impl TargetRecord {
    /// A fresh record for a target discovered at `now`: no pings yet.
    #[must_use]
    pub fn new(now: TimeMs) -> Self {
        TargetRecord {
            discovered_at: now,
            pings_sent: 0,
            pongs_received: 0,
            last_pong: None,
            session_start: None,
            last_session: 0,
            unresponsive_since: None,
        }
    }

    /// The paper's §5.4 estimator: the fraction of monitoring pings that
    /// received a response. `None` before the first ping.
    #[must_use]
    pub fn availability_estimate(&self) -> Option<f64> {
        (self.pings_sent > 0).then(|| self.pongs_received as f64 / self.pings_sent as f64)
    }
}

/// A node's durable state: what §3 requires to survive failures and rejoins
/// ("persistent storage that can be retrieved after a failure or a rejoin").
///
/// Thanks to consistency, `PS` and `TS` membership never has to change on
/// churn — only this snapshot needs to be saved and restored; no history
/// transfer between nodes is ever required.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PersistentState {
    /// The pinging set (nodes known to monitor this node).
    pub ps: Vec<NodeId>,
    /// The target set with per-target monitoring state.
    pub targets: Vec<(NodeId, TargetRecord)>,
}

/// The AVMON protocol state machine for one node.
///
/// # Example
///
/// Inputs queue effects; the driver drains them with the poll methods:
///
/// ```
/// use avmon::{Config, Destination, HashSelector, JoinKind, Node, NodeId};
/// use std::sync::Arc;
///
/// let config = Config::builder(100).build()?;
/// let selector = Arc::new(HashSelector::from_config(&config));
/// let mut node = Node::new(NodeId::from_index(1), config, selector, 42);
///
/// node.start(0, JoinKind::Fresh, Some(NodeId::from_index(2)));
///
/// // JOIN + init-view request head for the contact …
/// while let Some(transmit) = node.poll_transmit() {
///     assert_eq!(transmit.to, Destination::Node(NodeId::from_index(2)));
/// }
/// // … and the periodic timers ask to be armed.
/// assert!(node.poll_timer().is_some());
/// # Ok::<(), avmon::Error>(())
/// ```
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    /// The run's configuration, one allocation shared by every node of it.
    config: Arc<Config>,
    selector: SharedSelector,
    /// `None` for [`Behavior::Honest`], which almost every node is; an
    /// attack's members share one allocation.
    behavior: Option<Arc<Behavior>>,
    rng: Stream,
    view: CoarseView,
    ps: SortedSet<NodeId>,
    targets: SortedMap<NodeId, TargetRecord>,
    pending: FlatMap<Nonce, PendingEntry>,
    /// Pairs this node has already NOTIFY-ed, so that rediscovering the
    /// same match every period (Fig. 2 re-scans all pairs) does not
    /// retransmit. Bounded: cleared wholesale when it reaches
    /// [`Node::notified_cap`], so notifications are eventually
    /// retransmitted and Theorem 1 (eventual discovery) is preserved even
    /// if an endpoint was down the first time.
    /// A sorted vector that grows one slot per new pair, so it holds
    /// exactly its pairs (about 27 per node between clears); a clear keeps
    /// the allocation for the refill.
    notified: SortedSet<(NodeId, NodeId)>,
    /// When the notified cache was last aged out wholesale. Clearing on a
    /// time cadence (not only at capacity) bounds NOTIFY suppression in
    /// *time*: if the first NOTIFY to an endpoint was lost — possible under
    /// message loss or partitions, which the paper's reliable network
    /// excludes — the pair is re-notified within a bounded number of
    /// periods, preserving eventual discovery (Theorem 1) under faults.
    notified_cleared_at: TimeMs,
    /// The join contact, kept for re-joining when the coarse view empties
    /// out (possible under message loss, which the paper's reliable-network
    /// model excludes but real deployments do not).
    contact: Option<NodeId>,
    started_at: TimeMs,
    last_monitor_ping_rx: Option<Stamp>,
    /// Last time a coarse-view probe (ViewPing / ViewFetch) arrived —
    /// direct evidence that somebody still holds this node in a view. On
    /// a reliable network a view member receives ~2 probes per period, so
    /// silence over several periods means loss-driven evictions have made
    /// the node *invisible*: alive, but in nobody's coarse view, a state
    /// from which the paper's protocol (reliable network, §3) can never
    /// recover because only view members are ever fetched from. The
    /// visibility-recovery branch of the protocol period re-advertises in
    /// that case (documented deviation, like the empty-view rejoin).
    last_view_probe_rx: Option<Stamp>,
    pr2_last_fired: Option<Stamp>,
    /// Monotone membership version of `PS` ∪ `TS`: bumped whenever either
    /// set's membership changes (never for per-target counter updates).
    /// Together with [`CoarseView::version`] this gives observers a cheap
    /// "anything to re-verify?" signal — the basis of the simulator's
    /// incremental invariant checking.
    sets_epoch: u64,
    stats: NodeStats,
    /// Output queues drained by the poll interface: the node's own, or a
    /// set lent by the driver for the current input
    /// ([`Node::swap_output_queues`]). Unallocated until something is
    /// pushed into the node's own set, which a lending driver never does.
    queues: OutputQueues,
}

/// Shim for the frozen `benchmark/` crate, which prints this record: the
/// per-node pair memo it described is gone (every node evaluates the
/// condition through its selector), so the one value there is, is the
/// [`Default`]. The `[benchmark]` PR that drops `hash.memo_hit_share`
/// deletes this type, `InvariantSummary::{memo_policy, memo_hits}` and
/// [`Node::point_memo_stats`] (ROADMAP item 1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoPolicy {
    /// Always 0.
    pub slots: usize,
    /// Always `false`.
    pub enabled: bool,
    /// Always `"per-node memo removed"`.
    pub reason: String,
}

impl Default for MemoPolicy {
    fn default() -> Self {
        MemoPolicy {
            slots: 0,
            enabled: false,
            reason: "per-node memo removed".to_string(),
        }
    }
}

impl Node {
    /// Creates a node with the given identity, configuration, selection
    /// scheme, and RNG seed (all protocol randomness derives from `seed`).
    /// A driver running many nodes passes each a clone of one
    /// `Arc<Config>`; a [`Config`] value works too.
    #[must_use]
    pub fn new(
        id: NodeId,
        config: impl Into<Arc<Config>>,
        selector: SharedSelector,
        seed: u64,
    ) -> Self {
        let config = config.into();
        let cvs = config.cvs;
        Node {
            id,
            config,
            selector,
            behavior: None,
            rng: Stream::seeded(seed),
            view: CoarseView::new(id, cvs),
            ps: SortedSet::new(),
            targets: SortedMap::new(),
            pending: FlatMap::new(),
            notified: SortedSet::new(),
            notified_cleared_at: 0,
            contact: None,
            started_at: 0,
            last_monitor_ping_rx: None,
            last_view_probe_rx: None,
            pr2_last_fired: None,
            sets_epoch: 0,
            stats: NodeStats::default(),
            queues: OutputQueues::default(),
        }
    }

    /// Shim for the frozen `benchmark/` crate: always `(0, 0)` — nodes keep
    /// no pair memo. Deleted with [`MemoPolicy`] by the `[benchmark]` PR
    /// that drops `hash.memo_hit_share` (ROADMAP item 1).
    #[must_use]
    pub fn point_memo_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Sets the node's behavior (attack model); defaults to honest. Takes
    /// a [`Behavior`] or an `Arc` that many nodes share.
    pub fn set_behavior(&mut self, behavior: impl Into<Arc<Behavior>>) {
        let behavior = behavior.into();
        self.behavior = (*behavior != Behavior::Honest).then_some(behavior);
    }

    /// The behavior in effect.
    #[must_use]
    pub fn behavior(&self) -> &Behavior {
        static HONEST: Behavior = Behavior::Honest;
        self.behavior.as_deref().unwrap_or(&HONEST)
    }

    /// How many pairs the `notified` cache holds before it is cleared.
    fn notified_cap(&self) -> usize {
        (8 * self.config.cvs * self.config.cvs).max(1024)
    }

    /// This node's identity.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The coarse view.
    #[must_use]
    pub fn view(&self) -> &CoarseView {
        &self.view
    }

    /// The pinging set `PS(x)`: nodes known to monitor this node.
    pub fn pinging_set(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ps.iter().copied()
    }

    /// Number of known monitors, `|PS(x)|`.
    #[must_use]
    pub fn pinging_set_len(&self) -> usize {
        self.ps.len()
    }

    /// The target set `TS(x)`: nodes this node monitors.
    pub fn target_set(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.targets.keys().copied()
    }

    /// Number of monitored targets, `|TS(x)|`.
    #[must_use]
    pub fn target_set_len(&self) -> usize {
        self.targets.len()
    }

    /// Monitoring state for `target`, if this node monitors it.
    #[must_use]
    pub fn target_record(&self, target: NodeId) -> Option<&TargetRecord> {
        self.targets.get(&target)
    }

    /// Iterates over every monitored target with its monitoring state, in
    /// identity order. Lets observers aggregate estimates in one pass
    /// instead of probing [`Node::target_record`] per candidate.
    pub fn target_records(&self) -> impl Iterator<Item = (NodeId, &TargetRecord)> {
        self.targets.iter().map(|(&id, rec)| (id, rec))
    }

    /// The `PS`/`TS` membership version (see the field docs): equal values
    /// guarantee both sets are membership-identical.
    #[must_use]
    pub fn sets_epoch(&self) -> u64 {
        self.sets_epoch
    }

    /// A combined change epoch over everything invariant checkers and
    /// snapshot consumers observe: `PS`/`TS` membership plus coarse-view
    /// membership. Both components are monotone, so the sum is equal
    /// between two observations iff nothing changed in between.
    #[must_use]
    pub fn change_epoch(&self) -> u64 {
        self.sets_epoch + self.view.version()
    }

    /// The §5.4 availability estimate for `target` (fraction of monitoring
    /// pings answered), if monitored here.
    #[must_use]
    pub fn availability_estimate(&self, target: NodeId) -> Option<f64> {
        self.targets
            .get(&target)
            .and_then(TargetRecord::availability_estimate)
    }

    /// Total memory entries `|CV| + |PS| + |TS|` (the metric of Figs. 9-10).
    #[must_use]
    pub fn memory_entries(&self) -> usize {
        self.view.len() + self.ps.len() + self.targets.len()
    }

    /// Protocol counters.
    #[must_use]
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// 64-bit words this incarnation's protocol RNG has drawn — the node's
    /// contribution to the `node` stream of the RNG-stream ledger (see the
    /// simulator's `InvariantSummary::rng_ledger`). All of a node's
    /// randomness (periodic phases, view eviction, nonces, forwarding
    /// coins) comes from the one stream seeded at construction, so this is
    /// the node's exact position in it.
    #[must_use]
    pub fn rng_draws(&self) -> u64 {
        self.rng.draws()
    }

    /// When this incarnation entered the system (the `now` passed to
    /// [`Node::start`]); used by observers measuring uptime and discovery
    /// delay.
    #[must_use]
    pub fn started_at(&self) -> TimeMs {
        self.started_at
    }

    // ------------------------------------------------------ poll interface

    /// The next outgoing datagram, in FIFO order; `None` when drained.
    #[must_use = "the driver must execute drained transmits"]
    pub fn poll_transmit(&mut self) -> Option<Transmit> {
        self.queues.0.as_mut()?.transmits.pop_front()
    }

    /// The next timer to arm `(timer, fire_at)`, in FIFO order; `None`
    /// when drained.
    #[must_use = "the driver must arm drained timers"]
    pub fn poll_timer(&mut self) -> Option<(Timer, TimeMs)> {
        self.queues.0.as_mut()?.timers.pop_front()
    }

    /// The next application event, in FIFO order; `None` when drained.
    #[must_use = "the driver should surface drained events"]
    pub fn poll_event(&mut self) -> Option<AppEvent> {
        self.queues.0.as_mut()?.events.pop_front()
    }

    /// Whether any output (transmit, timer, or event) is waiting to be
    /// drained.
    #[must_use]
    pub fn has_pending_output(&self) -> bool {
        !self.queues.is_empty()
    }

    /// Exchanges the node's output queues with `spare`: a driver lends the
    /// node its spare set before an input and takes it back (the same
    /// call) once the input's output is drained, so the node holds no
    /// queue capacity between inputs. Both sides must be drained.
    pub fn swap_output_queues(&mut self, spare: &mut OutputQueues) {
        debug_assert!(
            self.queues.is_empty() && spare.is_empty(),
            "output queues swapped with undrained output"
        );
        std::mem::swap(&mut self.queues, spare);
    }

    // ------------------------------------------------------------- inputs

    /// Extracts the durable state to be written to persistent storage.
    /// [`Node::into_persistent`] gives the same state without copying it,
    /// for a node that is leaving.
    #[must_use]
    pub fn snapshot_persistent(&self) -> PersistentState {
        PersistentState {
            ps: self.ps.iter().copied().collect(),
            targets: self
                .targets
                .iter()
                .map(|(&id, rec)| (id, rec.clone()))
                .collect(),
        }
    }

    /// Ends this incarnation, moving its durable state out: field for
    /// field what [`Node::snapshot_persistent`] gives, without the copy.
    #[must_use]
    pub fn into_persistent(self) -> PersistentState {
        PersistentState {
            ps: self.ps.into_vec(),
            targets: self.targets.into_iter().collect(),
        }
    }

    /// Restores durable state after a failure or rejoin.
    ///
    /// Observation-window fields that refer to the node's own past presence
    /// (current session start, unresponsive streak) are reset: while this
    /// node was away it observed nothing.
    pub fn restore_persistent(&mut self, state: PersistentState) {
        self.sets_epoch += 1;
        self.ps = state.ps.into_iter().collect();
        self.targets = state
            .targets
            .into_iter()
            .map(|(id, mut rec)| {
                rec.session_start = None;
                rec.unresponsive_since = None;
                (id, rec)
            })
            .collect();
    }

    /// Pre-populates the coarse view (driver bootstrap for the initial
    /// population, before any JOIN has circulated).
    pub fn seed_view(&mut self, seeds: &[NodeId]) {
        for &s in seeds {
            self.view.insert(s);
        }
    }

    /// Enters the system (Fig. 1). `contact` is any node currently believed
    /// alive; `None` for the very first bootstrap node.
    ///
    /// Queues the JOIN message (weight per `kind`), the init-view request,
    /// and the periodic timers with a random phase (protocol periods are
    /// "executed asynchronously across nodes", §3.2). Drain with the poll
    /// methods.
    pub fn start(&mut self, now: TimeMs, kind: JoinKind, contact: Option<NodeId>) {
        self.started_at = now;
        self.last_monitor_ping_rx = None;
        self.last_view_probe_rx = None;
        self.pr2_last_fired = None;
        self.notified_cleared_at = now;
        self.pending.clear();

        match self.config.discovery {
            DiscoveryMode::Broadcast => {
                let msg = Message::Presence { origin: self.id };
                self.stats.messages_sent += self.config.system_size as u64;
                self.stats.bytes_sent +=
                    codec::encoded_len(&msg) as u64 * self.config.system_size as u64;
                self.queues.push().transmits.push_back(Transmit {
                    to: Destination::AllNodes,
                    msg,
                });
            }
            DiscoveryMode::CoarseView => {
                self.contact = contact.filter(|&c| c != self.id);
                if let Some(contact) = self.contact {
                    let weight = match kind {
                        JoinKind::Fresh => self.config.cvs as u32,
                        JoinKind::Rejoin { down_duration } => {
                            let periods = down_duration / self.config.protocol_period;
                            (self.config.cvs as u32).min(periods as u32)
                        }
                    };
                    if weight > 0 {
                        self.send(
                            contact,
                            Message::Join {
                                origin: self.id,
                                weight,
                                hops: 0,
                            },
                        );
                    }
                    let nonce = self.begin_request(now, Pending::InitView { peer: contact });
                    self.send(contact, Message::InitViewRequest { nonce });
                }
                // Random phase so periods are asynchronous across nodes.
                let phase = self.rng.gen_range(0..self.config.protocol_period);
                self.arm_timer(Timer::Protocol, now + phase);
            }
        }
        let mphase = self.rng.gen_range(0..self.config.monitoring_period);
        self.arm_timer(Timer::Monitoring, now + mphase);
    }

    /// Processes an incoming message; drain the effects with the poll
    /// methods.
    pub fn handle_message(&mut self, now: TimeMs, from: NodeId, msg: Message) {
        self.stats.messages_received += 1;
        self.stats.bytes_received += codec::encoded_len(&msg) as u64;
        match msg {
            Message::Join {
                origin,
                weight,
                hops,
            } => {
                self.handle_join(now, origin, weight, hops);
            }
            Message::InitViewRequest { nonce } => {
                let view = self.view.as_slice().to_vec();
                self.send(from, Message::InitViewReply { nonce, view });
            }
            Message::InitViewReply { nonce, view } => {
                if self.retire(nonce, Pending::InitView { peer: from }) {
                    let adopted = view.into_iter().filter(|&id| self.view.insert(id)).count();
                    self.emit(AppEvent::ViewInherited { from, adopted });
                }
            }
            Message::ViewPing { nonce } => {
                self.last_view_probe_rx = Some(Stamp::new(now));
                self.send(from, Message::ViewPong { nonce });
            }
            Message::ViewPong { nonce } => {
                self.retire(nonce, Pending::ViewPing { peer: from });
            }
            Message::ViewFetch { nonce } => {
                self.last_view_probe_rx = Some(Stamp::new(now));
                let view = self.view.as_slice().to_vec();
                self.send(from, Message::ViewFetchReply { nonce, view });
            }
            Message::ViewFetchReply { nonce, view } => {
                if self.retire(nonce, Pending::ViewFetch { peer: from }) {
                    self.process_fetched_view(now, from, &view);
                }
            }
            Message::Notify { monitor, target } => {
                self.handle_notify(now, monitor, target);
            }
            Message::MonitorPing { nonce } => {
                self.last_monitor_ping_rx = Some(Stamp::new(now));
                self.stats.monitor_pings_received += 1;
                self.send(from, Message::MonitorPong { nonce });
            }
            Message::MonitorPong { nonce } => {
                if self.retire(nonce, Pending::MonitorPing { peer: from }) {
                    self.record_pong(now, from);
                }
            }
            Message::ReportRequest { nonce, count } => {
                self.serve_report(from, nonce, count);
            }
            Message::ReportReply { nonce, monitors } => {
                if self.retire(nonce, Pending::Report { target: from }) {
                    self.conclude_report(from, &monitors);
                }
            }
            Message::HistoryRequest { nonce, target } => {
                self.serve_history(from, nonce, target);
            }
            Message::HistoryReply {
                nonce,
                target,
                availability,
                samples,
            } => {
                let answered = Pending::History {
                    monitor: from,
                    target,
                };
                if self.retire(nonce, answered) {
                    self.emit(AppEvent::HistoryOutcome {
                        monitor: from,
                        target,
                        availability,
                        samples,
                    });
                }
            }
            Message::AddMeRequest => {
                self.view.insert_or_replace(from, &mut self.rng);
            }
            Message::Presence { origin } => {
                self.handle_presence(now, origin);
            }
            Message::AppData { payload } => {
                self.emit(AppEvent::AppData { from, payload });
            }
        }
    }

    /// Processes a fired timer; drain the effects with the poll methods.
    pub fn handle_timer(&mut self, now: TimeMs, timer: Timer) {
        match timer {
            Timer::Protocol => {
                self.protocol_period(now);
                self.arm_timer(Timer::Protocol, now + self.config.protocol_period);
            }
            Timer::Monitoring => {
                self.monitoring_period(now);
                self.arm_timer(Timer::Monitoring, now + self.config.monitoring_period);
            }
            Timer::Expire(nonce) => {
                // Lazy-expiry contract (see [`Timer::Expire`]): fire only
                // while the request is outstanding AND this firing has
                // reached the stamped deadline. Everything else — a ponged
                // request, or a stale firing from an earlier arming of a
                // reused nonce — is discarded in O(1), so a re-armed nonce
                // can never be expired early by its predecessor's timer.
                // The test is `timer_live`'s, made on the one probe that
                // also takes the entry out.
                if let Some(entry) = self
                    .pending
                    .remove_if(&nonce, |entry| now >= entry.deadline)
                {
                    self.handle_expiry(now, entry.state);
                }
            }
        }
    }

    /// Issues a monitor-report request to `target` (the "l out of K" client
    /// side, §3.3). The reply surfaces as [`AppEvent::ReportOutcome`].
    ///
    /// A node asked for its own report answers at once from its own
    /// pinging set — same verification, same event, but no message, no
    /// pending entry and no timeout (nodes never message themselves).
    pub fn request_report(&mut self, now: TimeMs, target: NodeId, count: u8) {
        if target == self.id {
            let monitors = self.report_answer(count);
            self.conclude_report(target, &monitors);
            return;
        }
        let nonce = self.begin_request(now, Pending::Report { target });
        self.send(target, Message::ReportRequest { nonce, count });
    }

    /// Verifies `target`'s claimed monitors and surfaces the outcome.
    fn conclude_report(&mut self, target: NodeId, monitors: &[NodeId]) {
        self.stats.hash_checks += monitors.len() as u64;
        let verification = verify_report(&*self.selector, target, monitors);
        self.emit(AppEvent::ReportOutcome {
            target,
            verification,
        });
    }

    /// Asks `monitor` for its measured availability of `target`. The reply
    /// surfaces as [`AppEvent::HistoryOutcome`].
    ///
    /// A node naming itself as the monitor answers at once from its own
    /// records, like [`Node::request_report`].
    pub fn request_history(&mut self, now: TimeMs, monitor: NodeId, target: NodeId) {
        if monitor == self.id {
            let (availability, samples) = self.history_answer(target);
            self.emit(AppEvent::HistoryOutcome {
                monitor,
                target,
                availability,
                samples,
            });
            return;
        }
        let nonce = self.begin_request(now, Pending::History { monitor, target });
        self.send(monitor, Message::HistoryRequest { nonce, target });
    }

    /// Sends an opaque application payload to `to` over the overlay
    /// ([`Message::AppData`]). Fire-and-forget: no pending entry, no
    /// timeout — delivery semantics are whatever the transport provides.
    /// Surfaces at the receiver as [`AppEvent::AppData`].
    ///
    /// A payload addressed to the node itself surfaces at once as its own
    /// [`AppEvent::AppData`] — no message, no send accounting (nodes never
    /// message themselves).
    pub fn send_app(&mut self, to: NodeId, payload: Vec<u8>) {
        if to == self.id {
            self.emit(AppEvent::AppData {
                from: self.id,
                payload,
            });
            return;
        }
        self.send(to, Message::AppData { payload });
    }

    fn handle_expiry(&mut self, now: TimeMs, pending: Pending) {
        match pending {
            Pending::ViewPing { peer } | Pending::ViewFetch { peer } => {
                // Fig. 2: "an unresponsive node is removed from the CV". A
                // fetch timeout is treated identically (DESIGN.md note 2).
                if self.view.remove(peer) {
                    self.stats.view_evictions += 1;
                }
            }
            Pending::InitView { .. } => {
                // The contact vanished before supplying a view; the node
                // proceeds with whatever JOIN absorption gives it.
            }
            Pending::MonitorPing { peer } => {
                self.record_miss(now, peer);
            }
            Pending::Report { target } => {
                self.emit(AppEvent::RequestTimedOut { peer: target });
            }
            Pending::History { monitor, .. } => {
                self.emit(AppEvent::RequestTimedOut { peer: monitor });
            }
        }
    }

    /// Evaluates the consistency condition — the selector's stateless pair
    /// hash, for every node; nothing is cached per node — counting the
    /// evaluation in `hash_checks` (the paper's computation metric).
    fn check(&mut self, monitor: NodeId, target: NodeId) -> bool {
        self.stats.hash_checks += 1;
        self.selector.is_monitor(monitor, target)
    }

    /// Queues `msg` to `to`, maintaining send-side accounting.
    pub(super) fn send(&mut self, to: NodeId, msg: Message) {
        debug_assert_ne!(to, self.id, "nodes never message themselves");
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += codec::encoded_len(&msg) as u64;
        self.queues.push().transmits.push_back(Transmit {
            to: Destination::Node(to),
            msg,
        });
    }

    /// Queues a timer request.
    fn arm_timer(&mut self, timer: Timer, at: TimeMs) {
        self.queues.push().timers.push_back((timer, at));
    }

    /// Registers an outstanding request: draws a fresh nonce, stamps the
    /// expiry deadline (`now + ping_timeout`) on the pending table, and
    /// arms the matching [`Timer::Expire`]. The single entry point keeps
    /// the deadline stamp and the armed timer in lockstep — the invariant
    /// the lazy-expiry contract rests on.
    fn begin_request(&mut self, now: TimeMs, state: Pending) -> Nonce {
        let nonce = self.fresh_nonce();
        let deadline = now + self.config.ping_timeout;
        self.pending.insert(nonce, PendingEntry { state, deadline });
        self.arm_timer(Timer::Expire(nonce), deadline);
        nonce
    }

    /// Retires request `nonce` if `answered` — the request kind, the peer
    /// the reply came from and, for history, the target it names — is
    /// exactly what [`Node::begin_request`] stored for it; returns whether
    /// it did. The one way a reply touches the pending table, so a reply
    /// answers only its own request: one of the wrong kind, from the wrong
    /// peer or about the wrong target changes nothing, and the request
    /// stays outstanding until its [`Timer::Expire`] (DESIGN.md note 4).
    /// Retiring cancels the armed `Expire`: that firing fails the liveness
    /// check and is discarded (or dropped by the driver before delivery).
    fn retire(&mut self, nonce: Nonce, answered: Pending) -> bool {
        self.pending
            .remove_if(&nonce, |entry| entry.state == answered)
            .is_some()
    }

    /// Whether firing `timer` at `now` would do any work — the driver-side
    /// half of the lazy-expiry contract on [`Timer::Expire`]. Periodic
    /// timers are always live; an `Expire` is live only while its request
    /// is still outstanding and `now` has reached the stamped deadline.
    /// Drivers may drop dead timers instead of delivering them; only call
    /// this for timers that are actually due (`now ≥` their armed time).
    #[must_use]
    pub fn timer_live(&self, timer: Timer, now: TimeMs) -> bool {
        match timer {
            Timer::Expire(nonce) => self
                .pending
                .get(&nonce)
                .is_some_and(|entry| now >= entry.deadline),
            _ => true,
        }
    }

    /// Queues an application event.
    fn emit(&mut self, event: AppEvent) {
        self.queues.push().events.push_back(event);
    }

    fn fresh_nonce(&mut self) -> Nonce {
        loop {
            let nonce = Nonce(self.rng.gen());
            if !self.pending.contains_key(&nonce) {
                return nonce;
            }
        }
    }
}
