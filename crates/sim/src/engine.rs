//! The trace-driven discrete-event simulation engine.
//!
//! Replays a churn [`Trace`] against a population of AVMON [`Node`] state
//! machines: lifecycle events create and destroy node incarnations (with
//! persistent storage surviving, per §3), messages travel through a latency
//! model and vanish if the destination has departed, timers fire on the
//! simulated clock, and metrics are sampled once per interval. A run is a
//! pure function of `(trace, options)` — reruns are bit-identical.
//!
//! The engine is a consumer of the shared poll-based driver interface:
//! after every input it drains the node's output queues directly into its
//! event calendar (`Simulation::apply_outputs`) — no per-input `Vec` of
//! actions is ever allocated. Those queues are the engine's one spare set,
//! lent to the node for the input and taken back after the drain, so no
//! node holds queue capacity between inputs.

use std::collections::BTreeMap;
use std::sync::Arc;

use avmon::driver::{apply_command, drain, Command, DriverEnv};
use avmon::rng::Stream;
use avmon::{
    AppEvent, Behavior, Config, Destination, FlatMap, HashSelector, HasherKind, JoinKind, Message,
    Node, NodeId, NodeStats, Nonce, OutputQueues, PersistentState, SharedSelector, Stamp,
    TargetRecord, TimeMs, Timer, Transmit,
};
use avmon_churn::{ChurnEventKind, Trace};
use avmon_hash::fast64::mix64;

use crate::calendar::{Calendar, CalendarStats, EventKind};
use crate::crosscheck::{CrossCheckAhead, CrossCheckStats};
use crate::invariants::{InvariantChecker, InvariantConfig};
use crate::metrics::{DiscoveryLog, NodeSeries, SimReport};
use crate::network::{NetworkModel, NetworkState, Route};
use crate::qos::QosAccumulator;
use crate::scenario::{Corruption, Fault, Scenario};

/// Simulation options beyond the protocol [`Config`].
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Protocol configuration shared by every node.
    pub config: Config,
    /// Which hasher backs the consistency condition (default [`HasherKind::Fast64`];
    /// pass [`HasherKind::Md5`] for the paper's exact construction).
    pub hasher: HasherKind,
    /// The network model: propagation delays plus always-on link faults.
    /// Defaults to the paper's reliable network.
    pub network: NetworkModel,
    /// Timeline of injected faults (partitions, bursts, freezes,
    /// corruptions, eclipse campaigns); the empty default runs fault-free.
    pub scenario: Scenario,
    /// The always-on protocol invariant checker's sweep strategy;
    /// violations land in [`SimReport::invariants`].
    pub invariants: InvariantConfig,
    /// Master seed; every node RNG and the network RNG derive from it.
    pub seed: u64,
    /// Per-node behavior assignments (attack experiments).
    pub behaviors: Vec<(NodeId, Behavior)>,
}

impl SimOptions {
    /// Defaults for a given protocol configuration.
    #[must_use]
    pub fn new(config: Config) -> Self {
        SimOptions {
            config,
            hasher: HasherKind::Fast64,
            network: NetworkModel::default(),
            scenario: Scenario::default(),
            invariants: InvariantConfig::default(),
            seed: 1,
            behaviors: Vec::new(),
        }
    }

    /// No-op: there is one engine loop. Kept only because the frozen
    /// `benchmark/` crate calls it; leaves with ROADMAP item 1's
    /// `[benchmark]` PR.
    #[doc(hidden)]
    #[must_use]
    pub fn workers(self, _: usize) -> Self {
        self
    }

    /// Overrides the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the hasher.
    #[must_use]
    pub fn hasher(mut self, hasher: HasherKind) -> Self {
        self.hasher = hasher;
        self
    }

    /// Installs a fault-injection scenario.
    #[must_use]
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Assigns `behavior` to `node`.
    #[must_use]
    pub fn behavior(mut self, node: NodeId, behavior: Behavior) -> Self {
        self.behaviors.push((node, behavior));
        self
    }

    /// Checks the sampling interval (the protocol period), network model
    /// and scenario parameters.
    ///
    /// # Errors
    ///
    /// Returns [`avmon::Error::InvalidConfig`] for a zero protocol period,
    /// inverted latency ranges, out-of-range probabilities, or malformed
    /// scenario faults.
    pub fn validate(&self) -> Result<(), avmon::Error> {
        if self.config.protocol_period == 0 {
            return Err(avmon::Error::InvalidConfig(
                "protocol_period must be positive".into(),
            ));
        }
        self.network.validate()?;
        self.scenario.validate()
    }
}

/// Everything the engine knows about one trace identity that differs
/// between identities, in one row of [`Simulation::nodes`] (DESIGN.md §5,
/// "What a row holds"). What every node shares (the `Config`, the
/// selector) is one allocation, and what only a few rows would use (a
/// non-honest behavior, freeze windows) sits in a side table on
/// [`Simulation`].
#[derive(Debug, Default)]
pub(crate) struct SimNode {
    pub(crate) id: NodeId,
    /// The live node while up, only its persistent part while down.
    pub(crate) state: NodeState,
    pub(crate) incarnation: u64,
    pub(crate) born_at: Option<Stamp>,
    left_at: Option<Stamp>,
    /// The sampled counters as of the last sample or the baseline.
    last_stats: Sampled,
    /// Streaming per-node metric accumulators: updated in place at every
    /// sampling tick (and counter fold), so report assembly never walks or
    /// clones a side map of per-node state.
    pub(crate) series: NodeSeries,
    /// Whether `series` was ever written — only touched nodes appear in
    /// [`SimReport::series`].
    pub(crate) series_touched: bool,
    /// Member of the trace's control group: its discovery times are logged.
    pub(crate) control: bool,
    /// Someone listens to this node ([`Simulation::subscribe_app`]): its
    /// application events are buffered and pause `run_until_event`.
    pub(crate) app_subscribed: bool,
    /// Position in [`Simulation::alive`] while up (patched on swap-remove).
    alive_pos: Option<u32>,
    /// Position in the initial cohort: bootstrap excludes the joiner in O(1).
    cohort_pos: Option<u32>,
    /// The discovery log, opened at a control node's first birth; boxed,
    /// because only the control group keeps one.
    pub(crate) discovery: Option<Box<DiscoveryLog>>,
}

/// An identity's protocol state. Up and down are exclusive, so the row
/// holds one or the other inline: the node, or what §3 keeps across a
/// failure or a leave. A down row still pays the node's size; boxing the
/// node would add a pointer chase to every dispatch (ROADMAP item 9(b)).
#[expect(clippy::large_enum_variant, reason = "inline on purpose, see above")]
#[derive(Debug)]
pub(crate) enum NodeState {
    Up(Node),
    Down(PersistentState),
}

impl Default for NodeState {
    fn default() -> Self {
        NodeState::Down(PersistentState::default())
    }
}

impl NodeState {
    /// Takes what a down identity kept, leaving it empty; an up one keeps
    /// nothing apart from its node.
    fn take_persistent(&mut self) -> PersistentState {
        match self {
            NodeState::Up(_) => PersistentState::default(),
            NodeState::Down(persistent) => std::mem::take(persistent),
        }
    }
}

/// The three counters the sampled series accumulate, as of a sample: the
/// point the next sample's delta is taken from.
#[derive(Debug, Default, Clone, Copy)]
struct Sampled {
    hash_checks: u64,
    bytes_sent: u64,
    monitor_pings_sent: u64,
}

impl Sampled {
    fn of(stats: &NodeStats) -> Self {
        Sampled {
            hash_checks: stats.hash_checks,
            bytes_sent: stats.bytes_sent,
            monitor_pings_sent: stats.monitor_pings_sent,
        }
    }

    /// Adds what was counted between `earlier` and `self` to `series`.
    fn fold_since(self, earlier: Sampled, series: &mut NodeSeries) {
        series.hash_checks += self.hash_checks.saturating_sub(earlier.hash_checks);
        series.bytes_sent += self.bytes_sent.saturating_sub(earlier.bytes_sent);
        series.monitor_pings_sent += self
            .monitor_pings_sent
            .saturating_sub(earlier.monitor_pings_sent);
    }
}

impl SimNode {
    /// This row's node, if up.
    pub(crate) fn proto(&self) -> Option<&Node> {
        match &self.state {
            NodeState::Up(proto) => Some(proto),
            NodeState::Down(_) => None,
        }
    }

    /// This row's node, if up, ready for one input: it holds the engine's
    /// `spare` output queues, which [`Simulation::apply_outputs`] takes
    /// back once the input's output is drained. Every input reaches its
    /// node through here, so a node's own queues stay unallocated.
    fn lend(&mut self, spare: &mut OutputQueues) -> Option<&mut Node> {
        let NodeState::Up(proto) = &mut self.state else {
            return None;
        };
        proto.swap_output_queues(spare);
        Some(proto)
    }

    fn series_mut(&mut self) -> &mut NodeSeries {
        self.series_touched = true;
        &mut self.series
    }
}

/// The discrete-event simulator.
///
/// # Example
///
/// ```
/// use avmon::Config;
/// use avmon_churn::stat;
/// use avmon_sim::{SimOptions, Simulation};
///
/// let trace = stat(60, 30 * avmon::MINUTE, 0.1, 7);
/// let config = Config::builder(60).build()?;
/// let mut sim = Simulation::new(trace, SimOptions::new(config));
/// let report = sim.run();
/// // Every control node finds its first monitor quickly.
/// assert!(report.discovery_latencies(1).len() >= 5);
/// # Ok::<(), avmon::Error>(())
/// ```
#[derive(Debug)]
pub struct Simulation {
    pub(crate) trace: Trace,
    pub(crate) opts: SimOptions,
    /// `opts.config`, in the one allocation every node of the run shares.
    config: Arc<Config>,
    selector: SharedSelector,
    /// One row per trace identity, in ascending `NodeId` order.
    pub(crate) nodes: Vec<SimNode>,
    /// The behavior of every slot that is not honest, from
    /// [`SimOptions::behaviors`] and the attack windows in effect; a slot
    /// absent here is honest. Read when a node is (re)born, when a
    /// `SetBehavior` event fires, and when the report scores
    /// misreports. An attack's members share one `Arc`.
    pub(crate) behaviors: BTreeMap<usize, Arc<Behavior>>,
    /// The scenario's `[from, until)` freeze windows, by slot. Empty on a
    /// run without freezes, which is all [`Simulation::frozen_at`] checks
    /// on every dispatch then.
    freezes: BTreeMap<usize, Vec<(TimeMs, TimeMs)>>,
    /// The one identity lookup: `NodeId` → index into `nodes`, read only
    /// where an identity enters the engine (DESIGN.md §5, "One lookup").
    /// Identities absent from the trace (corruption ghosts, stray app-API
    /// arguments) resolve to no slot and are inert.
    slot_of: FlatMap<NodeId, u32>,
    /// The live nodes as `(identity, row)`, in join order patched by
    /// swap-removes.
    pub(crate) alive: Vec<(NodeId, usize)>,
    /// Every pending event, in `(time, seq)` order.
    pub(crate) calendar: Calendar,
    pub(crate) now: TimeMs,
    pub(crate) rng: Stream,
    pub(crate) graveyard_stats: NodeStats,
    initial_cohort: Vec<NodeId>,
    app_events: Vec<(TimeMs, NodeId, AppEvent)>,
    /// Words drawn by the application executor's registered `app` RNG
    /// stream, pushed in via [`Simulation::set_app_draws`] so the
    /// [`RngLedger`](crate::RngLedger) covers app tasks too.
    pub(crate) app_draws: u64,
    net: NetworkState,
    pub(crate) checker: InvariantChecker,
    /// Streaming FD QoS counters (see [`QosAccumulator`]).
    pub(crate) qos: QosAccumulator,
    finished: bool,
    /// 64-bit words drawn by the (already consumed and dropped) per-event
    /// corruption RNG streams — the `corruption` entry of the
    /// [`RngLedger`](crate::RngLedger). Each `Fault::Corrupt` event derives
    /// a throwaway stream from the master seed; its draw count is folded
    /// in here the moment the stream dies.
    pub(crate) corruption_draws: u64,
    /// Protocol-RNG words drawn by incarnations that already left the
    /// simulation (their `Node` state is dropped at churn time); summed
    /// with the live nodes' counts at report assembly to form the `node`
    /// stream of the [`RngLedger`](crate::RngLedger).
    pub(crate) graveyard_rng_draws: u64,
    /// The Fig. 2 cross-check hashed ahead on a second core (DESIGN.md §5,
    /// "One loop, one helper"); inert on one core.
    crosscheck: CrossCheckAhead,
    /// The one set of output queues every node's inputs run on: lent by
    /// [`SimNode::lend`], taken back by [`Simulation::apply_outputs`].
    spare: OutputQueues,
}

impl Simulation {
    /// Builds a simulation over `trace` with `opts`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or the options are invalid
    /// (see [`Simulation::try_new`] for the fallible path).
    #[must_use]
    #[expect(clippy::panic, reason = "the documented panicking twin of `try_new`")]
    pub fn new(trace: Trace, opts: SimOptions) -> Self {
        Simulation::try_new(trace, opts).unwrap_or_else(|e| panic!("invalid simulation: {e}"))
    }

    /// Builds a simulation over `trace` with `opts`, validating the
    /// options at construction time.
    ///
    /// # Errors
    ///
    /// Returns [`avmon::Error::InvalidConfig`] for an empty trace, one
    /// naming 2^32 identities or more, invalid sampling, network or
    /// scenario parameters, or a message delay that, sent at the horizon,
    /// would arrive past the last instant [`TimeMs`] can hold.
    pub fn try_new(trace: Trace, opts: SimOptions) -> Result<Self, avmon::Error> {
        if trace.events.is_empty() {
            return Err(avmon::Error::InvalidConfig(
                "cannot simulate an empty trace".into(),
            ));
        }
        opts.validate()?;
        if opts.network.last_arrival(trace.horizon).is_none() {
            return Err(avmon::Error::InvalidConfig(
                "a message sent at the horizon must arrive at a representable instant".into(),
            ));
        }
        let selector = HashSelector::from_config_with_kind(&opts.config, opts.hasher);
        // The three constant delays handlers arm timers with: each gets a
        // calendar lane.
        let timer_delays = vec![
            opts.config.ping_timeout,
            opts.config.protocol_period,
            opts.config.monitoring_period,
        ];
        // One row per identity, slots in ascending `NodeId` order; what the
        // trace, options and scenario say about an identity lands in its row.
        let ids = trace.identities();
        if u32::try_from(ids.len()).is_err() {
            return Err(avmon::Error::InvalidConfig(
                "a trace may name at most 2^32 identities".into(),
            ));
        }
        let mut nodes: Vec<SimNode> = Vec::with_capacity(ids.len());
        let mut slot_of: FlatMap<NodeId, u32> = FlatMap::new();
        for (slot, id) in (0u32..).zip(ids) {
            slot_of.insert(id, slot);
            nodes.push(SimNode {
                id,
                ..SimNode::default()
            });
        }
        // Construction-time schedules all park on the heap. Every churn
        // event names a trace identity, so each carries its slot.
        let mut calendar = Calendar::new(timer_delays, trace.events.len() * 2);
        for e in &trace.events {
            if let Some(&slot) = slot_of.get(&e.node) {
                calendar.defer(e.at, EventKind::Churn { slot, kind: e.kind });
            }
        }
        // Sampling ticks, one per protocol period, cover the measurement
        // window; the baseline tick zeroes the counters at its start.
        calendar.defer(trace.measure_from, EventKind::Baseline);
        let period = opts.config.protocol_period;
        let mut t = trace.measure_from + period;
        while t <= trace.horizon {
            calendar.defer(t, EventKind::Sample);
            t += period;
        }
        let slot = |id: NodeId| slot_of.get(&id).map(|&s| s as usize);
        for &id in &trace.control_group {
            if let Some(s) = slot(id) {
                nodes[s].control = true;
            }
        }
        let initial_cohort: Vec<NodeId> = trace
            .events
            .iter()
            .filter(|e| e.at == 0 && e.kind == ChurnEventKind::Birth)
            .map(|e| e.node)
            .collect();
        for (pos, &id) in (0u32..).zip(&initial_cohort) {
            if let Some(s) = slot(id) {
                nodes[s].cohort_pos = Some(pos);
            }
        }
        let mut behaviors: BTreeMap<usize, Arc<Behavior>> = BTreeMap::new();
        for (id, behavior) in &opts.behaviors {
            if let Some(s) = slot(*id) {
                if *behavior == Behavior::Honest {
                    behaviors.remove(&s);
                } else {
                    behaviors.insert(s, Arc::new(behavior.clone()));
                }
            }
        }
        let mut freezes: BTreeMap<usize, Vec<(TimeMs, TimeMs)>> = BTreeMap::new();
        for (id, from, until) in opts.scenario.freeze_windows() {
            if let Some(s) = slot(id) {
                freezes.entry(s).or_default().push((from, until));
            }
        }
        // Corruption injections are ordinary calendar events (after
        // same-instant churn, by sequence number). One naming an identity
        // the trace never named has no row to corrupt.
        for e in &opts.scenario.events {
            if let Fault::Corrupt {
                node,
                pattern,
                seed,
            } = e.fault
            {
                if let Some(&slot) = slot_of.get(&node) {
                    let kind = EventKind::Corrupt {
                        slot,
                        pattern,
                        seed,
                    };
                    calendar.defer(e.at, kind);
                }
            }
        }
        // Eclipse campaigns compile to paired behavior switches, deferred
        // after every corruption: every coalition member turns coat at the
        // window start and reverts to its statically-assigned behavior
        // (default honest) at the end. The members share the campaign's
        // one behavior.
        for e in &opts.scenario.events {
            let Fault::Eclipse {
                coalition,
                victims,
                duration,
            } = &e.fault
            else {
                continue;
            };
            let campaign = Arc::new(Behavior::EclipseCoalition {
                coalition: coalition.clone(),
                victims: victims.clone(),
            });
            for &slot in coalition.iter().filter_map(|node| slot_of.get(node)) {
                let behavior = Some(Arc::clone(&campaign));
                calendar.defer(e.at, EventKind::SetBehavior { slot, behavior });
                let behavior = behaviors.get(&(slot as usize)).cloned();
                calendar.defer(e.at + duration, EventKind::SetBehavior { slot, behavior });
            }
        }
        let rng = Stream::seeded(opts.seed ^ 0xdead_beef_cafe_f00d);
        let net = NetworkState::compile(opts.network.clone(), &opts.scenario.events);
        let quiescent_from = opts.scenario.quiescent_after();
        let mut checker = InvariantChecker::new(
            opts.invariants.clone(),
            selector.clone(),
            &opts.config,
            quiescent_from,
            opts.network.faults.loss > 0.0,
        );
        checker.set_adversary_windows(&opts.scenario.adversary_windows());
        Ok(Simulation {
            trace,
            config: Arc::new(opts.config.clone()),
            opts,
            selector,
            nodes,
            behaviors,
            freezes,
            slot_of,
            alive: Vec::new(),
            calendar,
            now: 0,
            rng,
            graveyard_stats: NodeStats::default(),
            initial_cohort,
            app_events: Vec::new(),
            app_draws: 0,
            net,
            checker,
            qos: QosAccumulator::default(),
            finished: false,
            corruption_draws: 0,
            graveyard_rng_draws: 0,
            crosscheck: CrossCheckAhead::default(),
            spare: OutputQueues::default(),
        })
    }

    /// The row of `id`, if the trace knows the identity.
    pub(crate) fn slot(&self, id: NodeId) -> Option<usize> {
        self.slot_of.get(&id).map(|&s| s as usize)
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> TimeMs {
        self.now
    }

    /// The trace being replayed.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Identities currently alive.
    pub fn alive(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive.iter().map(|&(id, _)| id)
    }

    /// Read access to a live node's protocol state.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes[self.slot(id)?].proto()
    }

    /// Drains the buffered application events of the nodes subscribed via
    /// [`Simulation::subscribe_app`], each with the simulated time it was
    /// emitted at.
    pub fn take_app_events(&mut self) -> Vec<(TimeMs, NodeId, AppEvent)> {
        std::mem::take(&mut self.app_events)
    }

    /// Subscribes a listener to `id`'s application events: they are
    /// buffered (timestamped) and any of them pauses
    /// [`Simulation::run_until_event`]. Nobody listens by default — a long
    /// run would accumulate an unbounded buffer. An identity the trace
    /// never named is ignored.
    pub fn subscribe_app(&mut self, id: NodeId) {
        if let Some(slot) = self.slot(id) {
            self.nodes[slot].app_subscribed = true;
        }
    }

    /// Ends `id`'s subscription: its later events are dropped, not
    /// buffered (already buffered ones stay until drained). Ignored for an
    /// identity the trace never named.
    pub fn unsubscribe_app(&mut self, id: NodeId) {
        if let Some(slot) = self.slot(id) {
            self.nodes[slot].app_subscribed = false;
        }
    }

    /// Records the application executor's RNG draw count — the `app`
    /// stream of the [`RngLedger`](crate::RngLedger).
    pub fn set_app_draws(&mut self, draws: u64) {
        self.app_draws = draws;
    }

    /// Applies a control command to `id` at the current instant — the
    /// simulator's [`apply_command`], mirroring `Cluster::command` — and
    /// routes whatever the node queued. Outcomes surface as application
    /// events ([`AppEvent::ReportOutcome`], [`AppEvent::HistoryOutcome`],
    /// the receiver's [`AppEvent::AppData`]). A dead or unknown identity
    /// ignores the command, and [`Command::Stop`] does nothing here: a
    /// simulated node's lifetime belongs to the trace (DESIGN.md §6).
    pub fn command(&mut self, id: NodeId, command: Command) {
        let Some(slot) = self.slot(id) else {
            return;
        };
        let now = self.now;
        if let Some(proto) = self.nodes[slot].lend(&mut self.spare) {
            apply_command(proto, now, command);
            self.apply_outputs(slot);
        }
    }

    /// Runs to the trace horizon and produces the report.
    pub fn run(&mut self) -> SimReport {
        self.run_until(self.trace.horizon);
        self.report()
    }

    /// Advances simulated time to `deadline` (capped at the horizon); a
    /// deadline before [`Simulation::now`] runs nothing and keeps the clock.
    pub fn run_until(&mut self, deadline: TimeMs) {
        self.run_until_inner(deadline, false);
    }

    /// Advances simulated time until `deadline` — or pauses early, with
    /// the clock at the triggering event's instant, as soon as a
    /// subscribed node emits an application event.
    ///
    /// Returns `true` when paused before the deadline (the events are
    /// waiting in [`Simulation::take_app_events`]), `false` when the
    /// deadline was reached.
    pub fn run_until_event(&mut self, deadline: TimeMs) -> bool {
        self.run_until_inner(deadline, true)
    }

    /// The engine loop: pops and dispatches every event due by `deadline`,
    /// in `(time, seq)` order.
    fn run_until_inner(&mut self, deadline: TimeMs, stop_on_event: bool) -> bool {
        let deadline = deadline.min(self.trace.horizon);
        while let Some(event) = self.calendar.pop_due(deadline) {
            self.now = event.at;
            self.dispatch(event.kind);
            // A paused executor has something to process: an undrained
            // application event.
            if stop_on_event && !self.app_events.is_empty() {
                return true;
            }
        }
        // A deadline already behind the clock runs nothing and keeps it.
        self.now = self.now.max(deadline);
        self.finish_if_horizon(deadline);
        false
    }

    /// End-of-run bookkeeping, once, when the horizon is reached.
    fn finish_if_horizon(&mut self, deadline: TimeMs) {
        if deadline == self.trace.horizon && !self.finished {
            self.finished = true;
            self.qos.close_all(self.now);
            // End-of-run invariant sweep (Theorem 1 liveness, convergence).
            let live = live_protos(&self.nodes, &self.alive);
            self.checker.finalize(self.now, live);
        }
    }

    /// Event-calendar traffic counters for this run so far.
    #[must_use]
    pub fn calendar_stats(&self) -> CalendarStats {
        self.calendar.stats()
    }

    /// How the Fig. 2 cross-checks of this run so far were evaluated:
    /// handed to the helper core, replayed from it, or hashed inline. On
    /// one core nothing is submitted and every cross-check is hashed
    /// inline. Like
    /// [`Simulation::calendar_stats`], not part of the report, which is the
    /// same either way.
    #[must_use]
    pub fn crosscheck_stats(&self) -> CrossCheckStats {
        self.crosscheck.stats()
    }

    fn dispatch(&mut self, kind: EventKind) {
        // A frozen node stops processing: its deliveries and timers stall
        // on the heap, in order, until the freeze thaws.
        if let Some(thaw) = kind.addressee().and_then(|s| self.frozen_at(s, self.now)) {
            self.calendar.defer(thaw, kind);
            return;
        }
        match kind {
            EventKind::Churn { slot, kind } => self.on_churn(slot as usize, kind),
            EventKind::Deliver { from, to, msg } => {
                self.on_deliver(to as usize, from as usize, msg)
            }
            EventKind::Timer {
                slot,
                incarnation,
                timer,
            } => self.on_timer(slot as usize, incarnation, timer),
            EventKind::Baseline => {
                for sim_node in &mut self.nodes {
                    if let Some(proto) = sim_node.proto() {
                        sim_node.last_stats = Sampled::of(proto.stats());
                    }
                }
            }
            EventKind::Sample => self.on_sample(),
            // Both apply even inside a freeze window: they reconfigure the
            // node rather than make it process anything, and the checker's
            // adversary windows are anchored to the scheduled instants.
            EventKind::Corrupt {
                slot,
                pattern,
                seed,
            } => self.on_corrupt(slot as usize, pattern, seed),
            EventKind::SetBehavior { slot, behavior } => {
                self.on_set_behavior(slot as usize, behavior)
            }
        }
    }

    /// The thaw time if the node at `slot` is inside a freeze window at
    /// `at`.
    pub(crate) fn frozen_at(&self, slot: usize, at: TimeMs) -> Option<TimeMs> {
        if self.freezes.is_empty() {
            return None;
        }
        self.freezes
            .get(&slot)?
            .iter()
            .find(|&&(from, until)| at >= from && at < until)
            .map(|&(_, until)| until)
    }

    /// Fires `timer` on the node at `slot` if that incarnation is still up.
    /// A firing that [`Node::timer_live`] rejects would be a guaranteed
    /// no-op inside the node, so it is dropped here without the
    /// `handle_timer` round-trip, whichever container it came from.
    fn on_timer(&mut self, slot: usize, incarnation: u64, timer: Timer) {
        let now = self.now;
        let sim_node = &mut self.nodes[slot];
        if sim_node.incarnation != incarnation {
            return; // stale timer from a previous incarnation
        }
        let Some(proto) = sim_node.proto() else {
            return;
        };
        if !proto.timer_live(timer, now) {
            self.calendar.note_expire_skip();
            return;
        }
        if let Some(proto) = sim_node.lend(&mut self.spare) {
            proto.handle_timer(now, timer);
            self.apply_outputs(slot);
        }
    }

    /// Applies a scenario-scheduled behavior switch (`None`: honest) to
    /// both the engine's side table (governs future incarnations) and the
    /// live node at `slot`, if any.
    fn on_set_behavior(&mut self, slot: usize, behavior: Option<Arc<Behavior>>) {
        match &behavior {
            Some(behavior) => self.behaviors.insert(slot, Arc::clone(behavior)),
            None => self.behaviors.remove(&slot),
        };
        if let NodeState::Up(proto) = &mut self.nodes[slot].state {
            proto.set_behavior(behavior.unwrap_or_default());
        }
    }

    /// Injects seed-deterministic garbage into the persistent PS/TS of the
    /// node at `slot` (the [`Fault::Corrupt`] semantics): ghost entries the
    /// hash condition never selected, dropped entries, and/or scrambled
    /// monitoring counters. A live node's state is corrupted in place via
    /// snapshot/restore; a dead node's persistent snapshot is corrupted so
    /// the damage surfaces on rejoin. The corruption RNG is its own stream
    /// (mixed from the master seed and the per-event seed), so runs without
    /// `Corrupt` events draw exactly the RNG they always did.
    fn on_corrupt(&mut self, slot: usize, pattern: Corruption, seed: u64) {
        let mut rng = Stream::seeded(mix64(self.opts.seed ^ mix64(seed) ^ 0xc0de_dead_5eed_0bad));
        let sim_node = &mut self.nodes[slot];
        let node = sim_node.id;
        let mut state = match sim_node.proto() {
            Some(proto) => proto.snapshot_persistent(),
            None => sim_node.state.take_persistent(),
        };
        let ghosts = matches!(pattern, Corruption::Ghosts | Corruption::Full);
        let drops = matches!(pattern, Corruption::Drops | Corruption::Full);
        let scramble = matches!(pattern, Corruption::Scramble | Corruption::Full);
        if drops {
            state.ps.retain(|_| rng.gen_bool(0.5));
            state.targets.retain(|_| rng.gen_bool(0.5));
        }
        if scramble {
            for (_, rec) in &mut state.targets {
                // As if restored from another incarnation's snapshot: the
                // counters are garbled but stay internally consistent
                // (pongs ≤ pings), so only the *estimates* go wrong.
                rec.pings_sent = rng.gen_range(0..=rec.pings_sent * 2 + 8);
                rec.pongs_received = rng.gen_range(0..=rec.pings_sent);
                rec.last_session = rng.gen_range(0..=rec.last_session + avmon::MINUTE);
            }
        }
        if ghosts {
            // Identities from the 192/8 block (disjoint from the 10/8
            // space `NodeId::from_index` populates traces with), rejected
            // until the consistency condition fails in the corrupted
            // direction — each ghost is a guaranteed GhostMonitor /
            // GhostTarget violation at the next sample.
            let draw_ghost = |rng: &mut Stream, as_monitor: bool| loop {
                let g = NodeId::new([192, rng.gen(), rng.gen(), rng.gen()], 4000);
                let selected = if as_monitor {
                    self.selector.is_monitor(g, node)
                } else {
                    self.selector.is_monitor(node, g)
                };
                if !selected {
                    return g;
                }
            };
            for _ in 0..rng.gen_range(1..=3) {
                let g = draw_ghost(&mut rng, true);
                if !state.ps.contains(&g) {
                    state.ps.push(g);
                }
            }
            for _ in 0..rng.gen_range(1..=3) {
                let g = draw_ghost(&mut rng, false);
                if !state.targets.iter().any(|(t, _)| *t == g) {
                    state.targets.push((g, TargetRecord::new(self.now)));
                }
            }
        }
        let sim_node = &mut self.nodes[slot];
        match sim_node.lend(&mut self.spare) {
            Some(proto) => {
                proto.restore_persistent(state);
                // Show the checker the corrupted state *now*: the node's own
                // per-period `audit_sets` pass purges condition-failing
                // entries, usually before the next periodic sample would run
                // — detection (and the window's `detected_after_ms`) must be
                // pinned to the injection, not race the self-repair.
                self.checker.on_sample(self.now, std::iter::once(&*proto));
                self.apply_outputs(slot);
            }
            None => sim_node.state = NodeState::Down(state),
        }
        self.corruption_draws += rng.draws();
    }

    fn on_churn(&mut self, slot: usize, kind: ChurnEventKind) {
        let id = self.nodes[slot].id;
        match kind {
            ChurnEventKind::Birth | ChurnEventKind::Join => {
                let contact = self.pick_contact(slot);
                let sim_node = &mut self.nodes[slot];
                debug_assert!(sim_node.proto().is_none(), "churn: {id} already up");
                let join_kind = match kind {
                    ChurnEventKind::Birth => {
                        sim_node.born_at = Some(Stamp::new(self.now));
                        JoinKind::Fresh
                    }
                    _ => JoinKind::Rejoin {
                        down_duration: self
                            .now
                            .saturating_sub(sim_node.left_at.map_or(0, Stamp::ms)),
                    },
                };
                let node_seed =
                    mix64(self.opts.seed ^ mix64(id.to_u64()) ^ mix64(sim_node.incarnation));
                let mut proto = Node::new(
                    id,
                    Arc::clone(&self.config),
                    self.crosscheck.node_selector(&self.selector),
                    node_seed,
                );
                if let Some(behavior) = self.behaviors.get(&slot) {
                    proto.set_behavior(Arc::clone(behavior));
                }
                let persistent = sim_node.state.take_persistent();
                if kind == ChurnEventKind::Join {
                    proto.restore_persistent(persistent);
                }
                sim_node.last_stats = Sampled::default();
                if kind == ChurnEventKind::Birth && self.now == 0 && self.initial_cohort.len() > 1 {
                    // Bootstrap the initial population with warm views: at
                    // time zero there is no overlay yet to join through.
                    // Sample WITHOUT replacement (Floyd's algorithm) over
                    // the cohort minus the joiner, so the initial view is
                    // always min(cvs, cohort − 1) distinct peers.
                    // Exactly k RNG draws; the Vec membership probe makes
                    // bootstrap O(cvs²) comparisons per node, fine at
                    // cvs ≤ a few hundred (switch to a bitset before
                    // pushing cvs toward 1000).
                    let cohort = self.initial_cohort.len();
                    let pool = cohort - 1;
                    let k = self.opts.config.cvs.min(pool);
                    let skip = sim_node.cohort_pos.map_or(cohort, |pos| pos as usize);
                    let mut picks: Vec<usize> = Vec::with_capacity(k);
                    for j in (pool - k)..pool {
                        let t = self.rng.gen_range(0..j + 1);
                        picks.push(if picks.contains(&t) { j } else { t });
                    }
                    let seeds: Vec<NodeId> = picks
                        .iter()
                        .map(|&idx| self.initial_cohort[if idx >= skip { idx + 1 } else { idx }])
                        .collect();
                    proto.seed_view(&seeds);
                }
                let now = self.now;
                sim_node.state = NodeState::Up(proto);
                if let Some(proto) = sim_node.lend(&mut self.spare) {
                    proto.start(now, join_kind, contact);
                }
                if sim_node.control {
                    sim_node.discovery.get_or_insert_with(|| {
                        Box::new(DiscoveryLog {
                            born_at: now,
                            monitor_times: vec![],
                        })
                    });
                }
                self.alive_insert(slot);
                self.checker.node_up(id, now);
                self.apply_outputs(slot);
            }
            ChurnEventKind::Leave | ChurnEventKind::Death => {
                self.checker.node_down(id);
                self.qos.close_involving(self.now, id);
                let sim_node = &mut self.nodes[slot];
                sim_node.state = match std::mem::take(&mut sim_node.state) {
                    NodeState::Up(proto) => {
                        // Fold the unsampled tail of this incarnation's
                        // counters, then move its PS/TS into the row.
                        if self.now >= self.trace.measure_from {
                            let last = sim_node.last_stats;
                            Sampled::of(proto.stats()).fold_since(last, sim_node.series_mut());
                        }
                        self.graveyard_stats.merge(proto.stats());
                        self.graveyard_rng_draws += proto.rng_draws();
                        NodeState::Down(proto.into_persistent())
                    }
                    down => down,
                };
                sim_node.incarnation += 1;
                sim_node.left_at = Some(Stamp::new(self.now));
                self.alive_remove(slot);
            }
        }
    }

    /// Hands `msg` from the node at row `sender` to the node at `slot`.
    fn on_deliver(&mut self, slot: usize, sender: usize, msg: Message) {
        let now = self.now;
        let from = self.nodes[sender].id;
        match self.nodes[slot].lend(&mut self.spare) {
            Some(proto) => {
                match msg {
                    // The one input that runs the Fig. 2 cross-check: lend
                    // the node its prepared result, if the helper finished
                    // one, and count how the check was evaluated.
                    Message::ViewFetchReply { nonce, .. } => {
                        self.crosscheck.lend(slot, nonce);
                        let checks = proto.stats().hash_checks;
                        proto.handle_message(now, from, msg);
                        self.crosscheck.settle(proto.stats().hash_checks != checks);
                    }
                    _ => proto.handle_message(now, from, msg),
                }
                self.apply_outputs(slot);
            }
            None => {
                // Destination has departed: the message is lost. Monitoring
                // pings to absent nodes are the "useless pings" of Fig. 18.
                if msg.is_monitoring_ping() && now >= self.trace.measure_from {
                    self.nodes[sender].series_mut().useless_pings += 1;
                }
            }
        }
    }

    fn on_sample(&mut self) {
        if self.now < self.trace.measure_from {
            return;
        }
        // Per-row accumulators, so row order serves as well as `alive` order.
        for sim_node in &mut self.nodes {
            let Some(proto) = sim_node.proto() else {
                continue;
            };
            let stats = Sampled::of(proto.stats());
            let mem = proto.memory_entries();
            let last = std::mem::replace(&mut sim_node.last_stats, stats);
            let series = sim_node.series_mut();
            series.samples += 1;
            stats.fold_since(last, series);
            series.memory_entries_sum += mem as u64;
            series.memory_entries_max = series.memory_entries_max.max(mem);
        }
        // Always-on invariant sweep over the live population.
        let live = live_protos(&self.nodes, &self.alive);
        self.checker.on_sample(self.now, live);
    }

    /// Applies everything the last input of the node at `slot` made it
    /// produce, polled straight off the live node (allocation-free), and
    /// takes back the drained queues [`SimNode::lend`] lent it. The one
    /// place a node's outputs enter the simulation: transmits become
    /// `Deliver` events (latency-sampled), timers become
    /// incarnation-stamped `Timer` events, and app events feed the
    /// discovery log, the QoS fold and the event buffer.
    fn apply_outputs(&mut self, slot: usize) {
        let now = self.now;
        let sim_node = &mut self.nodes[slot];
        let id = sim_node.id;
        let NodeState::Up(proto) = &mut sim_node.state else {
            return;
        };
        let mut sink = OutputSink {
            slot: slot as u32,
            incarnation: sim_node.incarnation,
            now,
            calendar: &mut self.calendar,
            net: &mut self.net,
            rng: &mut self.rng,
            slot_of: &self.slot_of,
            alive: &self.alive,
            discovery: sim_node.discovery.as_deref_mut(),
            app_events: sim_node.app_subscribed.then_some(&mut self.app_events),
            suspicions: Vec::new(),
            fetch: None,
        };
        drain(proto, &mut sink);
        proto.swap_output_queues(&mut self.spare);
        let fetch = sink.fetch;
        // Folded only now that the node borrow is released: classifying a
        // suspicion as wrongful or true needs to look up the *target*.
        let measuring = now >= self.trace.measure_from;
        for (down, target) in sink.suspicions {
            let target_node = self.slot_of.get(&target).map(|&s| &self.nodes[s as usize]);
            let left_at = target_node.and_then(|n| n.left_at.map(Stamp::ms));
            let alive = target_node.is_some_and(|n| n.alive_pos.is_some());
            self.qos
                .fold_suspicion(now, measuring, (id, target), down, alive, left_at);
        }
        if let Some((w, nonce)) = fetch {
            self.prepare_crosscheck(slot, w as usize, nonce);
        }
    }

    /// Hands the cross-check that the reply of the node at row `w` to the
    /// node at `slot` will run to the helper, over the sides it would have
    /// if no view changed in flight: the node's own view and `w`'s as it
    /// stands now.
    fn prepare_crosscheck(&mut self, slot: usize, w: usize, nonce: Nonce) {
        let timeout = self.opts.config.ping_timeout;
        if !self.crosscheck.has_room(self.now, timeout) {
            return;
        }
        let (Some(x), Some(fetched)) = (self.nodes[slot].proto(), self.nodes[w].proto()) else {
            return;
        };
        let sides = x.fig2_sides(fetched.id(), fetched.view().as_slice());
        self.crosscheck.submit(slot, nonce, self.now, sides);
    }

    /// Picks a uniformly random live contact for the joiner at row
    /// `joiner`, in O(1) and with exactly one RNG draw whenever a valid
    /// contact exists.
    ///
    /// Returns `None` only when no other node is alive. The joiner is
    /// normally not yet in `alive` when this runs; the index exclusion
    /// below keeps the guarantee even if it is.
    fn pick_contact(&mut self, joiner: usize) -> Option<NodeId> {
        match self.nodes[joiner].alive_pos {
            None => {
                if self.alive.is_empty() {
                    return None;
                }
                Some(self.alive[self.rng.gen_range(0..self.alive.len())].0)
            }
            Some(jidx) => {
                let jidx = jidx as usize;
                if self.alive.len() < 2 {
                    return None;
                }
                // Draw over the n−1 non-joiner slots and skip past the
                // joiner's own index.
                let r = self.rng.gen_range(0..self.alive.len() - 1);
                Some(self.alive[if r >= jidx { r + 1 } else { r }].0)
            }
        }
    }

    fn alive_insert(&mut self, slot: usize) {
        let sim_node = &mut self.nodes[slot];
        if sim_node.alive_pos.is_none() {
            // Below 2^32: `alive` holds distinct slots.
            sim_node.alive_pos = Some(self.alive.len() as u32);
            self.alive.push((sim_node.id, slot));
        }
    }

    fn alive_remove(&mut self, slot: usize) {
        if let Some(idx) = self.nodes[slot].alive_pos.take() {
            self.alive.swap_remove(idx as usize);
            if let Some(&(_, moved)) = self.alive.get(idx as usize) {
                self.nodes[moved].alive_pos = Some(idx);
            }
        }
    }
}

/// The live nodes' protocol state, in `alive` order (the order the
/// checker records its observations in).
fn live_protos<'a>(
    nodes: &'a [SimNode],
    alive: &'a [(NodeId, usize)],
) -> impl Iterator<Item = &'a Node> {
    alive.iter().filter_map(|&(_, slot)| nodes[slot].proto())
}

/// Where one node's outputs go (see [`Simulation::apply_outputs`]): the
/// engine state a drain needs, split-borrowed so the node itself can stay
/// mutably borrowed while it is polled.
struct OutputSink<'a> {
    /// The draining node's row.
    slot: u32,
    incarnation: u64,
    now: TimeMs,
    calendar: &'a mut Calendar,
    net: &'a mut NetworkState,
    rng: &'a mut Stream,
    /// The identity lookup, for unicast destinations.
    slot_of: &'a FlatMap<NodeId, u32>,
    alive: &'a [(NodeId, usize)],
    /// The node's discovery log, if it keeps one.
    discovery: Option<&'a mut DiscoveryLog>,
    /// The event buffer, when anyone listens to this node.
    app_events: Option<&'a mut Vec<(TimeMs, NodeId, AppEvent)>>,
    /// Suspicion transitions `(down, target)`, for the QoS fold.
    suspicions: Vec<(bool, NodeId)>,
    /// The `(peer row, nonce)` of a `ViewFetch` the network did not drop
    /// — at most one per input (Fig. 2 fetches once per period) — for the
    /// cross-check helper.
    fetch: Option<(u32, Nonce)>,
}

impl OutputSink<'_> {
    /// Routes one unicast through the network model: lost, delivered, or
    /// delivered twice (duplication), each copy independently delayed.
    /// Takes the message by value so the fault-free unicast path stays
    /// clone-free. The destination's row is resolved once, after the
    /// network drew; an identity the trace never named gets nothing.
    fn route(&mut self, from: NodeId, to: NodeId, msg: Message) {
        match self.net.route(self.rng, self.now, from, to) {
            Route::Drop => {}
            Route::Deliver {
                delay,
                duplicate_delay,
            } => {
                let Some(&to) = self.slot_of.get(&to) else {
                    return;
                };
                let from = self.slot;
                if let Message::ViewFetch { nonce } = msg {
                    self.fetch = Some((to, nonce));
                }
                if let Some(dup) = duplicate_delay {
                    let msg = msg.clone();
                    let kind = EventKind::Deliver { from, to, msg };
                    self.calendar.schedule(self.now, self.now + dup, kind);
                }
                let kind = EventKind::Deliver { from, to, msg };
                self.calendar.schedule(self.now, self.now + delay, kind);
            }
        }
    }
}

impl DriverEnv for OutputSink<'_> {
    fn transmit(&mut self, from: NodeId, transmit: Transmit) {
        match transmit.to {
            Destination::Node(to) => self.route(from, to, transmit.msg),
            Destination::AllNodes => {
                let alive = self.alive;
                for &(to, _) in alive.iter().filter(|&&(to, _)| to != from) {
                    self.route(from, to, transmit.msg.clone());
                }
            }
        }
    }

    fn arm_timer(&mut self, _: NodeId, timer: Timer, at: TimeMs) {
        let kind = EventKind::Timer {
            slot: self.slot,
            incarnation: self.incarnation,
            timer,
        };
        self.calendar.schedule(self.now, at.max(self.now), kind);
    }

    fn handle_event(&mut self, node: NodeId, event: AppEvent) {
        match event {
            AppEvent::MonitorDiscovered { .. } => {
                if let Some(log) = &mut self.discovery {
                    log.monitor_times.push(self.now);
                }
            }
            AppEvent::TargetUnresponsive { target } => self.suspicions.push((true, target)),
            AppEvent::TargetResponsive { target } => self.suspicions.push((false, target)),
            _ => {}
        }
        if let Some(buffer) = &mut self.app_events {
            buffer.push((self.now, node, event));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmon_churn::{synthetic, ChurnEvent, SynthParams};

    /// A minimal trace: `n` births at t = 0, nothing else.
    fn cohort_trace(n: u32, horizon: TimeMs) -> Trace {
        let events: Vec<ChurnEvent> = (0..n)
            .map(|i| ChurnEvent {
                at: 0,
                node: NodeId::from_index(i),
                kind: ChurnEventKind::Birth,
            })
            .collect();
        Trace::new("COHORT", n as usize, horizon, 0, vec![], events)
    }

    /// The starvation regression: with ≥ 2 alive nodes, `pick_contact`
    /// must never return `None` — the old 8-draw rejection loop could
    /// spuriously isolate a joiner. Exercised across many seeds and draws
    /// (the property the old code violated with probability (1/2)^8 per
    /// join at 2 alive nodes — certain to appear in 64 × 200 trials).
    #[test]
    fn pick_contact_never_starves_with_two_alive() {
        for seed in 0..64u64 {
            let config = Config::builder(8).build().unwrap();
            let mut sim = Simulation::new(
                cohort_trace(2, avmon::MINUTE),
                SimOptions::new(config).seed(seed),
            );
            sim.run_until(1);
            assert_eq!(sim.alive.len(), 2);
            let (a, b) = (NodeId::from_index(0), NodeId::from_index(1));
            for _ in 0..200 {
                // Joiner alive: the other node is the only valid contact.
                assert_eq!(sim.pick_contact(0), Some(b), "seed {seed}");
                assert_eq!(sim.pick_contact(1), Some(a), "seed {seed}");
            }
        }
    }

    /// `pick_contact` excludes a joiner that is already in `alive`, and
    /// returns `None` only when no other node exists.
    #[test]
    fn pick_contact_excludes_joiner_and_handles_singletons() {
        let config = Config::builder(8).build().unwrap();
        // Five births at t = 0, and a sixth identity born only later.
        let mut trace = cohort_trace(6, avmon::MINUTE);
        trace.events[5].at = avmon::MINUTE / 2;
        let mut sim = Simulation::new(trace, SimOptions::new(config.clone()).seed(3));
        sim.run_until(1);
        assert_eq!(sim.alive.len(), 5);
        let joiner = NodeId::from_index(2);
        assert_eq!(sim.nodes[2].id, joiner);
        for _ in 0..500 {
            let pick = sim.pick_contact(2).expect("4 valid contacts exist");
            assert_ne!(pick, joiner);
        }
        // A joiner that is down draws over all alive nodes.
        let mut seen = Vec::new();
        for _ in 0..100 {
            let pick = sim.pick_contact(5).expect("5 valid contacts exist");
            if !seen.contains(&pick) {
                seen.push(pick);
            }
        }
        assert_eq!(seen.len(), 5, "a down joiner never drew some live node");
        // Singleton system: the sole node has no contact.
        let mut lonely = Simulation::new(
            cohort_trace(1, avmon::MINUTE),
            SimOptions::new(config).seed(3),
        );
        lonely.run_until(1);
        assert_eq!(lonely.pick_contact(0), None);
    }

    /// Under seeded random churn `alive` and the rows' `alive_pos` stay
    /// mutual inverses (a swap-remove that forgets to patch the moved row
    /// fails here), and `pick_contact` costs exactly one engine RNG word.
    #[test]
    fn alive_positions_survive_random_churn() {
        for seed in 0..6u64 {
            let trace = synthetic(SynthParams {
                churn_per_hour: 6.0,
                birth_death_per_day: 24.0,
                warmup: 10 * avmon::MINUTE,
                ..SynthParams::synth(30)
                    .duration(30 * avmon::MINUTE)
                    .seed(seed)
            });
            let horizon = trace.horizon;
            let config = Config::builder(30).build().unwrap();
            let mut sim = Simulation::new(trace, SimOptions::new(config).seed(seed));
            for t in (0..=horizon).step_by(20_000) {
                sim.run_until(t);
                let mut live = 0;
                for (row, node) in sim.nodes.iter().enumerate() {
                    assert_eq!(node.alive_pos.is_some(), node.proto().is_some(), "t={t}");
                    if let Some(pos) = node.alive_pos {
                        let pos = pos as usize;
                        assert_eq!(sim.alive[pos], (node.id, row), "seed {seed}, t={t}");
                        live += 1;
                    }
                }
                // Every live row owns its own position: no duplicates.
                assert_eq!(live, sim.alive.len(), "seed {seed}, t={t}");
                if live >= 2 {
                    let joiner = t as usize % sim.nodes.len();
                    let before = sim.rng.draws();
                    assert!(sim.pick_contact(joiner).is_some());
                    assert_eq!(sim.rng.draws(), before + 1);
                }
            }
        }
    }

    /// An eclipse campaign's members run on one shared behavior, live
    /// and in the side table, and fall back to their static assignment
    /// (honest here: no entry) when the window closes.
    #[test]
    fn eclipse_members_share_one_behavior() {
        let coalition: Vec<NodeId> = (0..4).map(NodeId::from_index).collect();
        let scenario = Scenario::builder("eclipse")
            .eclipse(
                avmon::MINUTE,
                avmon::MINUTE,
                coalition.clone(),
                vec![NodeId::from_index(9)],
            )
            .build()
            .unwrap();
        let config = Config::builder(12).build().unwrap();
        let mut sim = Simulation::new(
            cohort_trace(12, 3 * avmon::MINUTE),
            SimOptions::new(config).scenario(scenario),
        );
        sim.run_until(avmon::MINUTE + 1);
        let first = sim.node(coalition[0]).unwrap().behavior();
        assert!(matches!(first, Behavior::EclipseCoalition { .. }));
        for &member in &coalition {
            let slot = sim.slot(member).unwrap();
            assert!(std::ptr::eq(sim.node(member).unwrap().behavior(), first));
            assert!(std::ptr::eq(&*sim.behaviors[&slot], first));
        }
        sim.run_until(2 * avmon::MINUTE + 1);
        assert!(sim.behaviors.is_empty());
        for &member in &coalition {
            assert_eq!(sim.node(member).unwrap().behavior(), &Behavior::Honest);
        }
    }

    /// Every identity of a run pays its row, up or down: a field that
    /// grows it past the bound fails here with each field's share.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn sim_node_row_holds_at_most_576_bytes() {
        use std::mem::{size_of, size_of_val};
        let row = SimNode::default();
        let shares = [
            ("state", size_of_val(&row.state)),
            ("series", size_of_val(&row.series)),
            ("last_stats", size_of_val(&row.last_stats)),
            ("incarnation", size_of_val(&row.incarnation)),
            ("born_at", size_of_val(&row.born_at)),
            ("left_at", size_of_val(&row.left_at)),
            ("discovery", size_of_val(&row.discovery)),
            ("alive_pos", size_of_val(&row.alive_pos)),
            ("cohort_pos", size_of_val(&row.cohort_pos)),
            ("id", size_of_val(&row.id)),
            ("series_touched", size_of_val(&row.series_touched)),
            ("control", size_of_val(&row.control)),
            ("app_subscribed", size_of_val(&row.app_subscribed)),
        ];
        let size = size_of::<SimNode>();
        let fields: usize = shares.iter().map(|&(_, bytes)| bytes).sum();
        let census: String = shares
            .iter()
            .map(|(field, bytes)| format!("\n  {field}: {bytes} B"))
            .collect();
        let node = size_of::<Node>();
        assert!(
            size <= 576,
            "SimNode is {size} B (state holds a {node}-B Node):{census}\n  padding: {} B",
            size - fields
        );
    }

    /// The bootstrap under-fill regression: warm-view seeding now samples
    /// without replacement, so every initial view holds exactly
    /// `min(cvs, cohort − 1)` distinct peers — the old `cvs · 2`
    /// with-replacement draws could under-fill small cohorts.
    #[test]
    fn bootstrap_views_are_full_and_duplicate_free() {
        for seed in 0..50u64 {
            for cohort in [2u32, 3, 5, 9] {
                let config = Config::builder(64).cvs(8).build().unwrap();
                let cvs = config.cvs;
                let mut sim = Simulation::new(
                    cohort_trace(cohort, avmon::MINUTE),
                    SimOptions::new(config).seed(seed),
                );
                sim.run_until(0);
                let expected = cvs.min(cohort as usize - 1);
                for i in 0..cohort {
                    let id = NodeId::from_index(i);
                    let node = sim.node(id).expect("alive at t=0");
                    let view: Vec<NodeId> = node.view().iter().collect();
                    assert_eq!(
                        view.len(),
                        expected,
                        "seed {seed}, cohort {cohort}: under-filled view {view:?}"
                    );
                    let mut distinct: Vec<NodeId> = view.clone();
                    distinct.sort();
                    distinct.dedup();
                    assert_eq!(distinct.len(), view.len(), "duplicates in {view:?}");
                    assert!(!view.contains(&id), "self-reference in {view:?}");
                }
            }
        }
    }
}
