//! Always-on protocol invariant checking.
//!
//! The simulator does not just *measure* AVMON — it machine-checks the
//! paper's core properties while every run progresses, so a regression in
//! any later PR trips here first. Hooked into the engine's sampling ticks
//! and run finale, the [`InvariantChecker`] asserts:
//!
//! * **Hash consistency / no ghosts** (Theorem 1 soundness): every entry of
//!   every live node's `PS` and `TS` satisfies the consistency condition
//!   `H(monitor, target) ≤ K/N`. A lying or buggy node that smuggles an
//!   unverified relationship into its sets is flagged the very next sample
//!   — including ghosts surviving a leave + rejoin, since persistent state
//!   is re-checked every tick of the new incarnation.
//! * **Structural sanity**: no node monitors itself, appears in its own
//!   coarse view, or overflows the view capacity `cvs`.
//! * **Eventual PS/TS agreement** (Theorem 1 liveness): once the network
//!   has been quiescent (all scenario faults healed) for a grace window,
//!   every pair of continuously-live nodes satisfying the consistency
//!   condition must have discovered each other — `t ∈ TS(m)` *and*
//!   `m ∈ PS(t)`, checked at the end of the run.
//! * **Monitor-set convergence toward `K`**: the mean discovered
//!   pinging-set size over long-lived nodes must sit inside a generous band
//!   around the configured `K` after heal.
//! * **Graceful discovery degradation**: a node up for many protocol
//!   periods with an empty pinging set is *recorded* as a warning, never
//!   silently ignored — under faults the bound degrades visibly in the
//!   [`InvariantSummary`] instead of vanishing.
//!
//! The checker always runs: violations are collected into the
//! [`crate::SimReport`], each with the simulated time of the sample that
//! found it ([`RecordedViolation::at`]), so the first entry pins the first
//! corruption.
//!
//! # Incremental checking
//!
//! A naive sweep re-hashes every `PS`/`TS` entry of every live node every
//! sample — `O(N·K)` hash evaluations per tick, which is what makes
//! checked large-`N` runs (the regime the paper's §5 scalability argument
//! is *about*) unaffordable. The default [`CheckStrategy::Incremental`]
//! exploits two facts:
//!
//! * membership changes are rare at steady state, and every [`Node`]
//!   exposes cheap monotone change epochs ([`Node::sets_epoch`],
//!   [`CoarseView::version`](avmon::CoarseView::version)) that are equal
//!   between samples iff nothing changed — unchanged nodes are skipped in
//!   `O(1)`;
//! * a dirty node's `PS`/`TS` is re-verified by
//!   [`Node::for_each_unselected`] — the selector's batch matches of
//!   `PS(x) × {x}` and `{x} × TS(x)`, the same routine the node's own
//!   audit runs — so the checker holds no state per pair and its memory is
//!   bounded by what it checks.
//!
//! [`CheckStrategy::FullRescan`] forces every node dirty every sample — the
//! original behavior, kept as the equivalence baseline: both strategies
//! run the *same* verification path and flag the *same* violations at the
//! same simulated times (`tests/incremental.rs` proves it), they only
//! differ in how many nodes they skip.

use std::collections::BTreeSet;

use avmon::{Config, DurMs, FlatMap, FlatSet, MemoPolicy, Node, NodeId, SharedSelector, TimeMs};
use serde::{Deserialize, Serialize};

/// How the per-sample sweep decides which nodes to re-verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CheckStrategy {
    /// Re-verify only nodes whose `PS`/`TS`/view change epochs moved since
    /// they were last verified (default). Flags exactly the same violations
    /// as a full rescan.
    #[default]
    Incremental,
    /// Re-verify every node every sample — the pre-incremental behavior,
    /// kept as the equivalence/benchmark baseline. A re-verified node is
    /// hashed by the same code under both strategies.
    FullRescan,
}

/// Invariant-checker configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct InvariantConfig {
    /// Per-sample sweep strategy (default [`CheckStrategy::Incremental`]).
    pub strategy: CheckStrategy,
}

impl InvariantConfig {
    /// Overrides the per-sample sweep strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: CheckStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// One violated protocol property.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InvariantViolation {
    /// A pinging-set entry fails the consistency condition: `claimed` is
    /// not actually a monitor of `node`.
    GhostMonitor {
        /// The node whose `PS` holds the ghost.
        node: NodeId,
        /// The failing entry.
        claimed: NodeId,
    },
    /// A target-set entry fails the consistency condition: `node` was
    /// never selected to monitor `target`.
    GhostTarget {
        /// The node whose `TS` holds the ghost.
        node: NodeId,
        /// The failing entry.
        target: NodeId,
    },
    /// A node appears in its own `PS`, `TS`, or coarse view.
    SelfReference {
        /// The offending node.
        node: NodeId,
    },
    /// A coarse view exceeds its configured capacity.
    ViewOverflow {
        /// The offending node.
        node: NodeId,
        /// Observed view length.
        len: usize,
        /// Configured capacity (`cvs`).
        cap: usize,
    },
    /// Theorem 1 liveness failure: a consistency-condition pair, both ends
    /// continuously live through the whole grace window after quiescence,
    /// never discovered each other.
    MissedDiscovery {
        /// The undiscovered monitor.
        monitor: NodeId,
        /// Its target.
        target: NodeId,
    },
    /// Mean discovered `|PS|` over long-lived nodes fell outside the
    /// accepted band around `K`.
    MonitorConvergence {
        /// Observed mean `|PS|`.
        mean: f64,
        /// The configured `K`.
        k: u32,
        /// Number of nodes the mean was taken over.
        eligible: usize,
    },
    /// Self-stabilization failure: a node whose state was corrupted (or
    /// that ran a declared attack) still violated the consistency
    /// condition *after* its derived re-convergence deadline passed. The
    /// node and deadline pin exactly which recovery obligation was broken;
    /// the raw post-deadline violation is recorded alongside.
    StabilizationFailure {
        /// The node that failed to re-converge.
        node: NodeId,
        /// The simulated time by which re-convergence was owed.
        deadline: TimeMs,
    },
}

impl core::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InvariantViolation::GhostMonitor { node, claimed } => {
                write!(
                    f,
                    "ghost monitor: {claimed} in PS({node}) fails the consistency condition"
                )
            }
            InvariantViolation::GhostTarget { node, target } => {
                write!(
                    f,
                    "ghost target: {target} in TS({node}) fails the consistency condition"
                )
            }
            InvariantViolation::SelfReference { node } => {
                write!(f, "self reference: {node} appears in its own PS/TS/view")
            }
            InvariantViolation::ViewOverflow { node, len, cap } => {
                write!(f, "view overflow: |CV({node})| = {len} > cvs = {cap}")
            }
            InvariantViolation::MissedDiscovery { monitor, target } => {
                write!(
                    f,
                    "missed discovery: live pair ({monitor} monitors {target}) \
                     never agreed despite a quiescent grace window"
                )
            }
            InvariantViolation::MonitorConvergence { mean, k, eligible } => {
                write!(
                    f,
                    "monitor-set convergence: mean |PS| = {mean:.2} over {eligible} \
                     long-lived nodes, outside the accepted band around K = {k}"
                )
            }
            InvariantViolation::StabilizationFailure { node, deadline } => {
                write!(
                    f,
                    "self-stabilization failure: {node} still violates the consistency \
                     condition after its re-convergence deadline t={deadline}ms"
                )
            }
        }
    }
}

/// A violation with the simulated time it was detected at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedViolation {
    /// Simulated detection time.
    pub at: TimeMs,
    /// What was violated.
    pub violation: InvariantViolation,
}

/// A non-fatal observation: the property degraded but is not provably
/// broken (discovery bounds are probabilistic, and faults legitimately
/// stretch them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InvariantWarning {
    /// A node has been continuously up and quiescent for longer than the
    /// configured bound without discovering a single monitor.
    SlowDiscovery {
        /// The undiscovered node.
        node: NodeId,
        /// How long it has been waiting, in ms.
        waiting_for: DurMs,
    },
    /// A live consistency-condition pair had not mutually agreed by the
    /// end of the run, but the base network is permanently lossy, so only
    /// a statistical (not hard) guarantee applies: forgetful pinging may
    /// legitimately have dropped a target that looked down.
    SlowAgreement {
        /// The monitor side of the unagreed pair.
        monitor: NodeId,
        /// The target side.
        target: NodeId,
    },
}

/// A warning with its detection time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedWarning {
    /// Simulated detection time.
    pub at: TimeMs,
    /// The observation.
    pub warning: InvariantWarning,
}

/// Per-stream RNG draw counts at report time — the dynamic half of the
/// workspace's determinism discipline (the static half is the `detlint`
/// auditor). Every stream is seeded independently from the master seed, so
/// a legitimate protocol change that perturbs randomness (the PR 3
/// situation: re-pinned fixtures) shows up here as "*this* stream moved by
/// *this many* draws" instead of an opaque byte mismatch between reports.
/// Same-seed runs must agree on every counter — `tests/determinism.rs`
/// and `tests/equivalence.rs` hold that equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct RngLedger {
    /// Draws on the engine's master stream: message routing through the
    /// network model (loss/duplication/jitter/latency), join-contact
    /// selection, and bootstrap view seeding.
    pub engine_draws: u64,
    /// Sum of per-node protocol streams (periodic phases, view eviction,
    /// nonces, forwarding coins) across every incarnation, dead or alive —
    /// each node's stream is seeded from `mix64(master ^ id ^ incarnation)`.
    pub node_draws: u64,
    /// Draws on the per-event corruption streams ([`crate::Fault::Corrupt`]
    /// garbage), each seeded from `mix64(master ^ mix64(event seed))`;
    /// exactly 0 in adversary-free runs.
    pub corruption_draws: u64,
    /// Draws on the application executor's `app` stream (async app tasks
    /// over the sim executor, seeded `mix64(master ^ APP salt)`); exactly 0
    /// in runs with no attached application.
    pub app_draws: u64,
}

impl RngLedger {
    /// Total draws across every stream.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.engine_draws + self.node_draws + self.corruption_draws + self.app_draws
    }
}

/// Everything the checker observed during one run; part of the
/// [`crate::SimReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct InvariantSummary {
    /// Always `true`: the checker runs on every simulation. Kept because
    /// the frozen `benchmark/` crate reads it and every pinned report
    /// carries it.
    pub enabled: bool,
    /// Individual property checks evaluated (hash checks, set scans, pair
    /// agreements).
    pub checks: u64,
    /// Node-samples whose `PS`/`TS` hash re-verification was skipped
    /// because set membership was unchanged since the last verification
    /// (always 0 under [`CheckStrategy::FullRescan`]). The cheap `O(cvs)`
    /// structural view check still runs whenever the view version moved —
    /// which it does every shuffle — so this counts exactly the expensive
    /// work avoided.
    pub set_scans_skipped: u64,
    /// Shim for the frozen `benchmark/` crate, which prints it: always 0,
    /// since the checker keeps no pair memo. Deleted with
    /// [`Self::memo_policy`] (ROADMAP item 1); until then
    /// `tests/equivalence.rs` strips both before digesting a report.
    pub memo_hits: u64,
    /// Hard violations (empty ⇔ the run upheld every checked property).
    pub violations: Vec<RecordedViolation>,
    /// Violations *expected* under a declared adversary window (an active
    /// attack campaign, or corruption still inside its re-convergence
    /// bound). Recorded for scoring — the earliest entry per window is the
    /// checker's detection time — but never failing [`Self::passed`]:
    /// a scenario-declared adversary corrupting state is the experiment,
    /// not a protocol bug. Undeclared liars (behaviors assigned directly
    /// via `SimOptions::behavior`) still land in `violations`.
    pub expected_violations: Vec<RecordedViolation>,
    /// Soft degradations worth looking at.
    pub warnings: Vec<RecordedWarning>,
    /// Shim for the frozen `benchmark/` crate, which prints it: always
    /// [`MemoPolicy::default`] ("per-node memo removed"). The `[benchmark]`
    /// PR that drops `hash.memo_hit_share` deletes the field with
    /// [`Self::memo_hits`] (ROADMAP item 1).
    pub memo_policy: MemoPolicy,
    /// Per-stream RNG draw counts at report time (see [`RngLedger`]): the
    /// engine fills this in when the report is assembled, so a same-seed
    /// byte mismatch between two reports can be localized to the stream
    /// (and the number of draws) that moved.
    pub rng_ledger: RngLedger,
}

impl InvariantSummary {
    /// Whether the run passed every hard invariant.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The always-on checker; owned and driven by the simulation engine.
///
/// The checker evaluates the consistency condition through its own
/// [`SharedSelector`] handle, so its hash checks never perturb node
/// counters, and it consumes no randomness — checking cannot change the
/// simulated run it observes.
#[derive(Debug)]
pub struct InvariantChecker {
    config: InvariantConfig,
    selector: SharedSelector,
    protocol_period: DurMs,
    k: u32,
    view_cap: usize,
    /// The grace window in protocol periods (see [`Self::grace`]).
    grace_periods: u64,
    /// First instant with every scenario fault healed.
    quiescent_from: TimeMs,
    /// Whether the base network drops messages for the whole run — if so,
    /// eventual agreement is owed only statistically (warnings, not
    /// violations).
    lossy_base: bool,
    /// When each currently-live node came up.
    up_since: FlatMap<NodeId, TimeMs>,
    /// Nodes already warned about slow discovery this incarnation.
    warned_slow: FlatSet<NodeId>,
    /// Change epochs `(sets_epoch, view_version)` at which each node was
    /// last verified; nodes whose epochs are unchanged are skipped under
    /// [`CheckStrategy::Incremental`]. Cleared per incarnation.
    verified_at: FlatMap<NodeId, (u64, u64)>,
    /// Per-sample violations already reported, keyed by
    /// `(kind, node, other)`: persistent corruption is recorded once per
    /// incarnation, not once per sampling tick, so long runs don't bloat
    /// the report while the first-corruption timestamp stays sharp.
    reported: BTreeSet<(u8, NodeId, NodeId)>,
    /// Declared adversary windows (attacks, corruptions) under
    /// stabilization tracking. Tiny in practice (a handful per scenario),
    /// so linear scans beat an index.
    stab: Vec<StabState>,
    summary: InvariantSummary,
}

/// The dedup identity of a per-sample violation (`None` for finalize-time
/// checks, which run once per run anyway).
fn dedup_key(violation: &InvariantViolation) -> Option<(u8, NodeId, NodeId)> {
    match *violation {
        InvariantViolation::GhostMonitor { node, claimed } => Some((0, node, claimed)),
        InvariantViolation::GhostTarget { node, target } => Some((1, node, target)),
        InvariantViolation::SelfReference { node } => Some((2, node, node)),
        InvariantViolation::ViewOverflow { node, .. } => Some((3, node, node)),
        InvariantViolation::StabilizationFailure { node, .. } => Some((4, node, node)),
        InvariantViolation::MissedDiscovery { .. }
        | InvariantViolation::MonitorConvergence { .. } => None,
    }
}

/// The node whose *state* a per-sample violation lives in — the offender a
/// declared adversary window can excuse. Finalize-time violations (missed
/// discovery, convergence, stabilization failure itself) have no single
/// excusable offender.
fn offender(violation: &InvariantViolation) -> Option<NodeId> {
    match *violation {
        InvariantViolation::GhostMonitor { node, .. }
        | InvariantViolation::GhostTarget { node, .. }
        | InvariantViolation::SelfReference { node }
        | InvariantViolation::ViewOverflow { node, .. } => Some(node),
        InvariantViolation::MissedDiscovery { .. }
        | InvariantViolation::MonitorConvergence { .. }
        | InvariantViolation::StabilizationFailure { .. } => None,
    }
}

/// One declared adversary window handed to the checker by the engine:
/// during `[opened_at, heals_at]` the node is an active attacker or was
/// just corrupted, and after `heals_at` it owes re-convergence within the
/// checker's derived bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversaryWindow {
    /// The attacker / corrupted node.
    pub node: NodeId,
    /// When the adversary condition begins.
    pub opened_at: TimeMs,
    /// When it ends (equals `opened_at` for instantaneous corruption).
    pub heals_at: TimeMs,
}

/// The scored outcome of one adversary window, surfaced in the report's
/// failure-detector QoS section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowOutcome {
    /// The attacker / corrupted node.
    pub node: NodeId,
    /// When the adversary condition began.
    pub opened_at: TimeMs,
    /// When it ended.
    pub heals_at: TimeMs,
    /// When re-convergence was owed (`heals_at` + derived bound, extended
    /// over downtime).
    pub deadline: TimeMs,
    /// How long after `opened_at` the checker first flagged the node's
    /// state, if it ever did (the checker's detection time).
    pub detected_after_ms: Option<DurMs>,
    /// Whether re-convergence within the bound was proven: the deadline
    /// passed with the node live and its state clean ever after.
    pub proven: bool,
    /// Whether the node violated the condition *after* its deadline — the
    /// hard [`InvariantViolation::StabilizationFailure`].
    pub failed: bool,
}

/// Internal per-window tracking state.
#[derive(Debug, Clone)]
struct StabState {
    window: AdversaryWindow,
    /// Re-convergence deadline; extended when the node spends part of the
    /// window down (a dead node cannot heal).
    deadline: TimeMs,
    /// First detection of the adversary's footprint, if any.
    detected_at: Option<TimeMs>,
    /// The deadline passed with the node live and clean: proven.
    closed: bool,
    /// A post-deadline violation surfaced: failed.
    failed: bool,
}

impl InvariantChecker {
    /// Builds a checker for one run.
    #[must_use]
    pub fn new(
        config: InvariantConfig,
        selector: SharedSelector,
        protocol: &Config,
        quiescent_from: TimeMs,
        lossy_base: bool,
    ) -> Self {
        // Discovery-scaled grace (see `InvariantChecker::grace`).
        let pairs = (protocol.system_size as f64) * f64::from(protocol.k);
        let discovery_periods =
            (protocol.system_size as f64 / ((protocol.cvs * protocol.cvs).max(1) as f64)).max(1.0);
        let grace_periods = ((pairs.max(2.0).ln() + 2.0) * discovery_periods)
            .ceil()
            .max(20.0) as u64;
        InvariantChecker {
            config,
            selector,
            grace_periods,
            protocol_period: protocol.protocol_period,
            k: protocol.k,
            view_cap: protocol.cvs,
            quiescent_from,
            lossy_base,
            up_since: FlatMap::new(),
            warned_slow: FlatSet::new(),
            verified_at: FlatMap::new(),
            reported: BTreeSet::new(),
            stab: Vec::new(),
            summary: InvariantSummary {
                enabled: true,
                ..InvariantSummary::default()
            },
        }
    }

    /// Declares the scenario's adversary windows (attack campaigns and
    /// corruption events). Violations by these nodes inside their windows
    /// become *expected* (scored, not failing); each window then owes
    /// re-convergence within [`Self::grace`] of healing — the same
    /// discovery-scaled bound eventual agreement uses, because dropped
    /// entries re-heal through the very same NOTIFY discovery path.
    pub fn set_adversary_windows(&mut self, windows: &[(NodeId, TimeMs, TimeMs)]) {
        let bound = self.grace();
        self.stab = windows
            .iter()
            .map(|&(node, opened_at, heals_at)| StabState {
                window: AdversaryWindow {
                    node,
                    opened_at,
                    heals_at,
                },
                deadline: heals_at + bound,
                detected_at: None,
                closed: false,
                failed: false,
            })
            .collect();
    }

    /// The scored outcome of every declared adversary window.
    #[must_use]
    pub fn stabilization(&self) -> Vec<WindowOutcome> {
        self.stab
            .iter()
            .map(|s| WindowOutcome {
                node: s.window.node,
                opened_at: s.window.opened_at,
                heals_at: s.window.heals_at,
                deadline: s.deadline,
                detected_after_ms: s
                    .detected_at
                    .map(|at| at.saturating_sub(s.window.opened_at)),
                proven: s.closed && !s.failed,
                failed: s.failed,
            })
            .collect()
    }

    /// Closes every window whose deadline has passed with its node live:
    /// from here on the node's state must stay clean (re-convergence is
    /// treated as proven unless a later violation flips the window to
    /// failed). Windows of currently-dead nodes stay open — a dead node
    /// cannot heal, and its deadline is re-extended on rejoin.
    fn expire_windows(&mut self, now: TimeMs) {
        let mut healed: Vec<NodeId> = Vec::new();
        for s in &mut self.stab {
            if !s.closed
                && !s.failed
                && now > s.deadline
                && self.up_since.contains_key(&s.window.node)
            {
                s.closed = true;
                healed.push(s.window.node);
            }
        }
        for node in healed {
            // Force a full re-verification of the healed node this very
            // sample: any still-persisting ghost must land on the *hard*
            // path (stabilization failure), not be masked by dedup or the
            // incremental skip.
            self.reported.retain(|&(_, n, _)| n != node);
            self.verified_at.remove(&node);
        }
    }

    /// How long both endpoints must be continuously up — *and* the network
    /// quiescent — before eventual-agreement is owed; also the bound a
    /// declared adversary window gets to re-converge in. Discovery-scaled:
    /// `max(20, ⌈(ln(N·K) + 2) · N/cvs²⌉)` protocol periods. The floor of
    /// 20 periods covers the notified-cache aging cadence and
    /// forgetful-pinging re-adoption after heal; the `N/cvs²` factor is the
    /// paper's expected discovery time (§4), and the `ln(N·K)` factor
    /// covers the geometric tail over all condition pairs — demanding
    /// *every* pair agreed much earlier than that is statistically wrong at
    /// large `N` (a 40-period 50k-node run would flag hundreds of perfectly
    /// healthy pairs).
    #[must_use]
    pub fn grace(&self) -> DurMs {
        self.grace_periods.max(20) * self.protocol_period.max(1)
    }

    /// Observations so far.
    #[must_use]
    pub fn summary(&self) -> &InvariantSummary {
        &self.summary
    }

    /// A node came up (birth or rejoin) at `now`.
    pub fn node_up(&mut self, node: NodeId, now: TimeMs) {
        self.up_since.insert(node, now);
        self.warned_slow.remove(&node);
        // A node that spent part of its adversary window down could not
        // heal while dead: every still-open window gets a full bound of
        // live time from the rejoin before re-convergence is owed.
        let bound = self.grace();
        for s in &mut self.stab {
            if s.window.node == node && !s.closed && !s.failed && now >= s.window.opened_at {
                s.deadline = s.deadline.max(now.saturating_add(bound));
            }
        }
        // A fresh incarnation gets a fresh dedup slate: corruption that
        // survives a leave + rejoin is flagged again.
        self.reported.retain(|&(_, n, _)| n != node);
        // …and a fresh verification slate: the first sample of the new
        // incarnation fully re-verifies.
        self.verified_at.remove(&node);
    }

    /// A node went down at `now`.
    pub fn node_down(&mut self, node: NodeId) {
        self.up_since.remove(&node);
        self.verified_at.remove(&node);
    }

    /// Per-sample sweep over the live population: hash consistency of every
    /// `PS`/`TS` entry, structural sanity, slow-discovery warnings.
    ///
    /// Under [`CheckStrategy::Incremental`] (the default) only nodes whose
    /// change epochs moved since their last verification are re-verified;
    /// both strategies run the identical verification path and produce the
    /// same violations at the same times.
    pub fn on_sample<'a>(&mut self, now: TimeMs, nodes: impl Iterator<Item = &'a Node>) {
        self.expire_windows(now);
        let selector = self.selector.clone();
        let full = self.config.strategy == CheckStrategy::FullRescan;
        for node in nodes {
            let id = node.id();
            let sets_epoch = node.sets_epoch();
            let view_version = node.view().version();
            let seen = if full {
                None
            } else {
                self.verified_at.get(&id).copied()
            };
            let sets_dirty = seen.is_none_or(|(s, _)| s != sets_epoch);
            let view_dirty = seen.is_none_or(|(_, v)| v != view_version);

            if sets_dirty {
                // One check per entry, the node itself included.
                self.summary.checks += (node.pinging_set_len() + node.target_set_len()) as u64;
                let mut self_ref = false;
                node.for_each_unselected(&*selector, |in_ps, entry| {
                    if entry == id {
                        self_ref = true;
                    } else if in_ps {
                        let claimed = entry;
                        self.record(now, InvariantViolation::GhostMonitor { node: id, claimed });
                    } else {
                        let target = entry;
                        self.record(now, InvariantViolation::GhostTarget { node: id, target });
                    }
                });
                if self_ref {
                    self.record(now, InvariantViolation::SelfReference { node: id });
                }
            }
            if view_dirty {
                self.summary.checks += 1;
                if node.view().contains(id) {
                    self.record(now, InvariantViolation::SelfReference { node: id });
                }
                let (len, cap) = (node.view().len(), self.view_cap);
                if len > cap {
                    self.record(now, InvariantViolation::ViewOverflow { node: id, len, cap });
                }
            }
            if !sets_dirty {
                self.summary.set_scans_skipped += 1;
            }
            if !full && (sets_dirty || view_dirty) {
                self.verified_at.insert(id, (sets_epoch, view_version));
            }

            // Discovery-bound degradation: warn (once per incarnation) for
            // nodes waiting far beyond the expected ~1 period. Always
            // evaluated — an empty pinging set never bumps an epoch.
            /// A node continuously up (and quiescent) for this many protocol
            /// periods with an empty pinging set earns a slow-discovery
            /// warning.
            const SLOW_DISCOVERY_PERIODS: u32 = 10;
            let bound = DurMs::from(SLOW_DISCOVERY_PERIODS) * self.protocol_period;
            if node.pinging_set_len() == 0 {
                if let Some(&since) = self.up_since.get(&id) {
                    let waiting_from = since.max(self.quiescent_from);
                    if now >= waiting_from
                        && now - waiting_from >= bound
                        && self.warned_slow.insert(id)
                    {
                        self.summary.warnings.push(RecordedWarning {
                            at: now,
                            warning: InvariantWarning::SlowDiscovery {
                                node: id,
                                waiting_for: now - waiting_from,
                            },
                        });
                    }
                }
            }
        }
    }

    /// End-of-run sweep: eventual PS/TS agreement (Theorem 1 liveness) and
    /// monitor-set convergence, over nodes continuously live through the
    /// whole post-quiescence grace window.
    pub fn finalize<'a>(&mut self, now: TimeMs, nodes: impl Iterator<Item = &'a Node>) {
        // Settle adversary windows at the horizon too, so a deadline
        // falling between the last sample and the run end still closes
        // (windows of still-dead nodes stay open: unproven, not failed).
        self.expire_windows(now);
        let Some(cutoff) = now.checked_sub(self.grace()) else {
            return; // the run was shorter than one grace window
        };
        if self.quiescent_from > cutoff {
            return; // faults were still active inside the grace window
        }
        let mut eligible: Vec<&Node> = nodes
            .filter(|n| {
                self.up_since
                    .get(&n.id())
                    .is_some_and(|&since| since <= cutoff)
            })
            .collect();
        eligible.sort_by_key(|n| n.id());

        // The agreement sweep covers all O(eligible²) ordered pairs: the
        // selector's batch enumeration finds the condition-satisfying
        // ones, and only those O(eligible·K) candidates reach the agreement
        // test. It runs after a grace of (ln(N·K) + 2)·N/cvs² periods, in
        // which every node's Fig. 2 cross-check has made about 2·cvs² pair
        // evaluations per period — so the sweep is at most about
        // 1/(2(ln(N·K) + 2)) of the run's own hashing.
        let len = eligible.len() as u64;
        if len > 1 {
            self.summary.checks += len * (len - 1);
            let ids: Vec<NodeId> = eligible.iter().map(|n| n.id()).collect();
            let mut candidates: Vec<(u32, u32)> = Vec::new();
            self.selector.accepted_pairs(&ids, &ids, &mut |mi, ti| {
                candidates.push((mi as u32, ti as u32));
            });
            for (mi, ti) in candidates {
                self.agreement_pair(now, eligible[mi as usize], eligible[ti as usize]);
            }
        }

        /// Accepted band for mean `|PS|` of long-lived nodes, as multiples
        /// of the configured `K` (checked only when ≥ 8 nodes are eligible).
        const CONVERGENCE_BAND: (f64, f64) = (0.2, 3.0);
        if eligible.len() >= 8 {
            self.summary.checks += 1;
            let mean = eligible
                .iter()
                .map(|n| n.pinging_set_len() as f64)
                .sum::<f64>()
                / eligible.len() as f64;
            let (lo, hi) = CONVERGENCE_BAND;
            let k = f64::from(self.k);
            if mean < lo * k || mean > hi * k {
                self.record(
                    now,
                    InvariantViolation::MonitorConvergence {
                        mean,
                        k: self.k,
                        eligible: eligible.len(),
                    },
                );
            }
        }
    }

    /// The eventual-agreement test for one condition-satisfying pair: both
    /// endpoints (continuously live through the grace window) must know
    /// each other — `t ∈ TS(m)` and `m ∈ PS(t)` (Theorem 1 liveness).
    fn agreement_pair(&mut self, now: TimeMs, m: &Node, t: &Node) {
        let monitor_knows = m.target_record(t.id()).is_some();
        let target_knows = t.pinging_set().any(|p| p == m.id());
        if monitor_knows && target_knows {
            return;
        }
        if self.lossy_base {
            // A permanently lossy network only owes agreement
            // statistically: forgetful pinging may have dropped a target
            // that looked down. Degrade visibly.
            self.summary.warnings.push(RecordedWarning {
                at: now,
                warning: InvariantWarning::SlowAgreement {
                    monitor: m.id(),
                    target: t.id(),
                },
            });
        } else {
            self.record(
                now,
                InvariantViolation::MissedDiscovery {
                    monitor: m.id(),
                    target: t.id(),
                },
            );
        }
    }

    fn record(&mut self, at: TimeMs, violation: InvariantViolation) {
        if let Some(node) = offender(&violation) {
            // Inside an open declared adversary window the violation is
            // the experiment working: record it as expected (its earliest
            // instance is the window's detection time) and move on.
            if let Some(s) = self
                .stab
                .iter_mut()
                .find(|s| s.window.node == node && !s.closed && at >= s.window.opened_at)
            {
                if s.detected_at.is_none() {
                    s.detected_at = Some(at);
                }
                if let Some(key) = dedup_key(&violation) {
                    if !self.reported.insert(key) {
                        return;
                    }
                }
                self.summary
                    .expected_violations
                    .push(RecordedViolation { at, violation });
                return;
            }
            // A violation after the window closed breaks the re-convergence
            // obligation: surface the stabilization failure first (it pins
            // the node and the missed deadline), then the raw violation.
            if let Some(idx) = self
                .stab
                .iter()
                .position(|s| s.window.node == node && s.closed && !s.failed)
            {
                let deadline = self.stab[idx].deadline;
                self.stab[idx].failed = true;
                self.record_hard(
                    at,
                    InvariantViolation::StabilizationFailure { node, deadline },
                );
            }
        }
        self.record_hard(at, violation);
    }

    fn record_hard(&mut self, at: TimeMs, violation: InvariantViolation) {
        if let Some(key) = dedup_key(&violation) {
            if !self.reported.insert(key) {
                return; // already on record for this incarnation
            }
        }
        self.summary
            .violations
            .push(RecordedViolation { at, violation });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmon::{HashSelector, HasherKind, JoinKind};

    fn checker() -> (InvariantChecker, Config) {
        let config = Config::builder(100).build().unwrap();
        let selector = HashSelector::from_config_with_kind(&config, HasherKind::Fast64);
        let checker =
            InvariantChecker::new(InvariantConfig::default(), selector, &config, 0, false);
        (checker, config)
    }

    fn live_node(config: &Config, index: u32) -> Node {
        let selector = HashSelector::from_config_with_kind(config, HasherKind::Fast64);
        let mut node = Node::new(NodeId::from_index(index), config.clone(), selector, 7);
        node.start(0, JoinKind::Fresh, None);
        while node.poll_transmit().is_some() {}
        while node.poll_timer().is_some() {}
        while node.poll_event().is_some() {}
        node
    }

    #[test]
    fn clean_node_passes_sampling() {
        let (mut checker, config) = checker();
        let node = live_node(&config, 1);
        checker.node_up(node.id(), 0);
        checker.on_sample(1000, std::iter::once(&node));
        assert!(checker.summary().passed());
        assert!(checker.summary().checks > 0);
    }

    #[test]
    fn ghost_ps_entry_is_flagged() {
        let (mut checker, config) = checker();
        let mut node = live_node(&config, 1);
        // Find an identity that is NOT a monitor of node 1 and smuggle it
        // into the persistent pinging set, as a corrupted store would.
        let selector = HashSelector::from_config_with_kind(&config, HasherKind::Fast64);
        let ghost = (100..)
            .map(NodeId::from_index)
            .find(|&g| !selector.is_monitor(g, node.id()))
            .unwrap();
        let mut persistent = node.snapshot_persistent();
        persistent.ps.push(ghost);
        node.restore_persistent(persistent);

        checker.node_up(node.id(), 0);
        checker.on_sample(1000, std::iter::once(&node));
        assert!(!checker.summary().passed());
        assert!(matches!(
            checker.summary().violations[0].violation,
            InvariantViolation::GhostMonitor { claimed, .. } if claimed == ghost
        ));
    }

    #[test]
    fn ghost_violation_is_stamped_with_its_sample_time() {
        let (mut checker, config) = checker();
        let mut node = live_node(&config, 1);
        let selector = HashSelector::from_config_with_kind(&config, HasherKind::Fast64);
        let ghost = (100..)
            .map(NodeId::from_index)
            .find(|&g| !selector.is_monitor(g, node.id()))
            .unwrap();
        let mut persistent = node.snapshot_persistent();
        persistent.ps.push(ghost);
        node.restore_persistent(persistent);
        checker.on_sample(1000, std::iter::once(&node));
        let first = &checker.summary().violations[0];
        assert_eq!(first.at, 1000, "stamped with the sample that found it");
        assert!(matches!(
            first.violation,
            InvariantViolation::GhostMonitor { claimed, .. } if claimed == ghost
        ));
    }

    #[test]
    fn finalize_skips_runs_inside_grace_or_fault_window() {
        let (mut checker, config) = checker();
        let node = live_node(&config, 1);
        checker.node_up(node.id(), 0);
        // now < grace: nothing owed yet.
        checker.finalize(checker.grace() / 2, std::iter::once(&node));
        assert!(checker.summary().passed());
        // Fault active until after the cutoff: nothing owed either.
        checker.quiescent_from = TimeMs::MAX;
        checker.finalize(TimeMs::MAX - 1, std::iter::once(&node));
        assert!(checker.summary().passed());
    }

    #[test]
    fn missed_discovery_flagged_for_undiscovered_consistent_pair() {
        let (mut checker, config) = checker();
        let selector = HashSelector::from_config_with_kind(&config, HasherKind::Fast64);
        // Find a pair satisfying the consistency condition.
        let target = NodeId::from_index(1);
        let monitor = (2..)
            .map(NodeId::from_index)
            .find(|&m| selector.is_monitor(m, target))
            .unwrap();
        // Build both nodes live since t=0 with empty PS/TS — they never
        // discovered each other.
        let a = live_node(&config, 1);
        let mut b = Node::new(monitor, config.clone(), selector, 8);
        b.start(0, JoinKind::Fresh, None);
        while b.poll_transmit().is_some() {}
        while b.poll_timer().is_some() {}
        checker.node_up(a.id(), 0);
        checker.node_up(b.id(), 0);
        let end = checker.grace() * 3;
        checker.finalize(end, [&a, &b].into_iter());
        assert!(checker.summary().violations.iter().any(
            |v| matches!(v.violation, InvariantViolation::MissedDiscovery { monitor: m, target: t }
                if m == monitor && t == target)
        ));
    }

    #[test]
    fn incremental_skips_unchanged_nodes_and_rechecks_dirty_ones() {
        let (mut checker, config) = checker();
        let mut node = live_node(&config, 1);
        // Give the node a few real monitors so set verification costs
        // something measurable.
        let selector = HashSelector::from_config_with_kind(&config, HasherKind::Fast64);
        let monitors: Vec<NodeId> = (100..)
            .map(NodeId::from_index)
            .filter(|&m| selector.is_monitor(m, node.id()))
            .take(3)
            .collect();
        let mut persistent = node.snapshot_persistent();
        persistent.ps.extend(&monitors);
        node.restore_persistent(persistent);

        checker.node_up(node.id(), 0);
        checker.on_sample(1000, std::iter::once(&node));
        let checks_after_first = checker.summary().checks;
        assert!(checks_after_first >= 3, "first sample verifies everything");

        // Nothing changed: the whole node-sample is an O(1) skip.
        checker.on_sample(2000, std::iter::once(&node));
        assert_eq!(checker.summary().set_scans_skipped, 1);
        assert_eq!(checker.summary().checks, checks_after_first);

        // Epoch bump (same membership): every entry is re-verified, one
        // check each, and the unchanged view is not.
        let persistent = node.snapshot_persistent();
        node.restore_persistent(persistent);
        checker.on_sample(3000, std::iter::once(&node));
        let entries = (node.pinging_set_len() + node.target_set_len()) as u64;
        assert!(entries >= 3);
        assert_eq!(checker.summary().checks, checks_after_first + entries);
        assert_eq!(checker.summary().set_scans_skipped, 1);
        assert!(checker.summary().passed());
    }

    #[test]
    fn full_rescan_never_skips() {
        let config = Config::builder(100).build().unwrap();
        let selector = HashSelector::from_config_with_kind(&config, HasherKind::Fast64);
        let mut checker = InvariantChecker::new(
            InvariantConfig::default().strategy(CheckStrategy::FullRescan),
            selector,
            &config,
            0,
            false,
        );
        let node = live_node(&config, 1);
        checker.node_up(node.id(), 0);
        checker.on_sample(1000, std::iter::once(&node));
        let first = checker.summary().checks;
        checker.on_sample(2000, std::iter::once(&node));
        assert_eq!(checker.summary().set_scans_skipped, 0);
        assert_eq!(
            checker.summary().checks,
            2 * first,
            "same work every sample"
        );
    }

    /// The checker's verdicts on one node, as the per-entry loop it ran
    /// before it shared the node's batched routine: one check per entry
    /// and one for the (dirty) view, a ghost per entry the condition
    /// rejects, in set order, and one self reference after both sets.
    fn per_entry_verdicts(
        selector: &SharedSelector,
        node: &Node,
        at: TimeMs,
    ) -> (Vec<RecordedViolation>, u64) {
        let id = node.id();
        let (mut violations, mut checks, mut self_ref) = (Vec::new(), 1, false);
        let mut flag = |violation| violations.push(RecordedViolation { at, violation });
        for claimed in node.pinging_set() {
            checks += 1;
            if claimed == id {
                self_ref = true;
            } else if !selector.is_monitor(claimed, id) {
                flag(InvariantViolation::GhostMonitor { node: id, claimed });
            }
        }
        for target in node.target_set() {
            checks += 1;
            if target == id {
                self_ref = true;
            } else if !selector.is_monitor(id, target) {
                flag(InvariantViolation::GhostTarget { node: id, target });
            }
        }
        if self_ref {
            flag(InvariantViolation::SelfReference { node: id });
        }
        (violations, checks)
    }

    /// The batched verification against the per-entry loop, on Fast64 and
    /// MD5, for a node whose `PS` and `TS` each hold 19 entries — 18 pairs
    /// to hash, so a 16-lane MD5 block fills and spills — mixing selected
    /// entries, ghosts and the node itself: the same violations (kind,
    /// order, `at`) and the same `checks`.
    #[test]
    fn batched_verdicts_equal_the_per_entry_loop() {
        let config = Config::builder(100).build().unwrap();
        for kind in [HasherKind::Fast64, HasherKind::Md5] {
            let selector = HashSelector::from_config_with_kind(&config, kind);
            let mut node = live_node(&config, 1);
            let me = node.id();
            let pick = |accept: &dyn Fn(NodeId) -> bool| {
                let peers = (2..4000).map(NodeId::from_index);
                peers.filter(|&p| accept(p)).take(9).collect::<Vec<_>>()
            };
            let ps = [
                pick(&|m| selector.is_monitor(m, me)),
                pick(&|m| !selector.is_monitor(m, me)),
                vec![me],
            ]
            .concat();
            let ts = [
                pick(&|t| selector.is_monitor(me, t)),
                pick(&|t| !selector.is_monitor(me, t)),
                vec![me],
            ]
            .concat();
            node.restore_persistent(avmon::PersistentState {
                ps,
                targets: ts
                    .into_iter()
                    .map(|t| (t, avmon::TargetRecord::new(0)))
                    .collect(),
            });
            assert_eq!((node.pinging_set_len(), node.target_set_len()), (19, 19));

            let mut checker = InvariantChecker::new(
                InvariantConfig::default(),
                selector.clone(),
                &config,
                0,
                false,
            );
            checker.node_up(me, 0);
            checker.on_sample(1000, std::iter::once(&node));
            let (violations, checks) = per_entry_verdicts(&selector, &node, 1000);
            assert_eq!(violations.len(), 19, "{kind:?}: 9 + 9 ghosts, 1 self");
            assert_eq!(checker.summary().violations, violations, "{kind:?}");
            assert_eq!(checker.summary().checks, checks, "{kind:?}");
        }
    }

    #[test]
    fn violations_serialize_round_trip() {
        let summary = InvariantSummary {
            enabled: true,
            checks: 7,
            set_scans_skipped: 2,
            memo_hits: 0,
            memo_policy: MemoPolicy::default(),
            violations: vec![RecordedViolation {
                at: 42,
                violation: InvariantViolation::MonitorConvergence {
                    mean: 0.1,
                    k: 7,
                    eligible: 20,
                },
            }],
            expected_violations: vec![RecordedViolation {
                at: 41,
                violation: InvariantViolation::StabilizationFailure {
                    node: NodeId::from_index(9),
                    deadline: 40,
                },
            }],
            warnings: vec![RecordedWarning {
                at: 43,
                warning: InvariantWarning::SlowDiscovery {
                    node: NodeId::from_index(3),
                    waiting_for: 600_000,
                },
            }],
            rng_ledger: RngLedger {
                engine_draws: 1000,
                node_draws: 2000,
                corruption_draws: 3,
                app_draws: 40,
            },
        };
        let json = serde_json::to_string(&summary).unwrap();
        let back: InvariantSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(summary, back);
        assert!(!back.passed());
        assert_eq!(back.rng_ledger.total(), 3043);
    }

    /// Builds a node with a ghost PS entry, as corruption would leave it.
    fn ghosted_node(config: &Config) -> (Node, NodeId) {
        let mut node = live_node(config, 1);
        let selector = HashSelector::from_config_with_kind(config, HasherKind::Fast64);
        let ghost = (100..)
            .map(NodeId::from_index)
            .find(|&g| !selector.is_monitor(g, node.id()))
            .unwrap();
        let mut persistent = node.snapshot_persistent();
        persistent.ps.push(ghost);
        node.restore_persistent(persistent);
        (node, ghost)
    }

    #[test]
    fn windowed_violations_are_expected_not_hard() {
        let (mut checker, config) = checker();
        let (node, ghost) = ghosted_node(&config);
        checker.node_up(node.id(), 0);
        checker.set_adversary_windows(&[(node.id(), 500, 500)]);
        // Inside the window + bound: detected, scored, not a violation.
        checker.on_sample(1000, std::iter::once(&node));
        assert!(checker.summary().passed());
        assert!(matches!(
            checker.summary().expected_violations[0].violation,
            InvariantViolation::GhostMonitor { claimed, .. } if claimed == ghost
        ));
        let outcomes = checker.stabilization();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].detected_after_ms, Some(500));
        assert!(!outcomes[0].proven, "deadline not reached yet");
    }

    #[test]
    fn healed_window_is_proven_after_its_deadline() {
        let (mut checker, config) = checker();
        let (mut node, _) = ghosted_node(&config);
        checker.node_up(node.id(), 0);
        checker.set_adversary_windows(&[(node.id(), 500, 500)]);
        checker.on_sample(1000, std::iter::once(&node));
        // The node heals (the audit would do this in a real run).
        let mut persistent = node.snapshot_persistent();
        persistent.ps.clear();
        node.restore_persistent(persistent);
        let after = 500 + checker.grace() + 1;
        checker.on_sample(after, std::iter::once(&node));
        let outcomes = checker.stabilization();
        assert!(outcomes[0].proven, "clean past the deadline: proven");
        assert!(!outcomes[0].failed);
        assert!(checker.summary().passed());
    }

    #[test]
    fn unhealed_window_fails_with_node_and_deadline_pinned() {
        let (mut checker, config) = checker();
        let (node, _) = ghosted_node(&config);
        checker.node_up(node.id(), 0);
        checker.set_adversary_windows(&[(node.id(), 500, 500)]);
        checker.on_sample(1000, std::iter::once(&node));
        assert!(checker.summary().passed(), "inside the bound: expected");
        // Past the deadline the ghost is still there: hard failure.
        let deadline = 500 + checker.grace();
        checker.on_sample(deadline + 1, std::iter::once(&node));
        assert!(!checker.summary().passed());
        assert!(matches!(
            checker.summary().violations[0].violation,
            InvariantViolation::StabilizationFailure { node: n, deadline: d }
                if n == node.id() && d == deadline
        ));
        assert!(checker.stabilization()[0].failed);
    }

    #[test]
    fn stabilization_failure_is_stamped_with_the_first_late_sample() {
        let (mut checker, config) = checker();
        let (node, _) = ghosted_node(&config);
        checker.node_up(node.id(), 0);
        checker.set_adversary_windows(&[(node.id(), 500, 500)]);
        checker.on_sample(1000, std::iter::once(&node));
        let deadline = 500 + checker.grace();
        checker.on_sample(deadline + 1, std::iter::once(&node));
        let first = &checker.summary().violations[0];
        assert_eq!(first.at, deadline + 1, "stamped with the first late sample");
        assert!(matches!(
            first.violation,
            InvariantViolation::StabilizationFailure { node: n, .. } if n == node.id()
        ));
    }

    #[test]
    fn rejoin_extends_the_recovery_deadline() {
        let (mut checker, config) = checker();
        let node = live_node(&config, 1);
        checker.node_up(node.id(), 0);
        checker.set_adversary_windows(&[(node.id(), 500, 500)]);
        // The node dies inside its window and stays down past the original
        // deadline: the window must not close while it is dead.
        checker.node_down(node.id());
        let original_deadline = 500 + checker.grace();
        checker.on_sample(original_deadline + 1000, std::iter::once(&node));
        assert!(!checker.stabilization()[0].proven, "dead node can't heal");
        // Rejoin: a full bound of live time is granted from here.
        let rejoin = original_deadline + 2000;
        checker.node_up(node.id(), rejoin);
        assert_eq!(
            checker.stabilization()[0].deadline,
            rejoin + checker.grace()
        );
        checker.on_sample(rejoin + checker.grace() + 1, std::iter::once(&node));
        assert!(checker.stabilization()[0].proven);
        assert!(checker.summary().passed());
    }

    #[test]
    fn undeclared_liars_stay_hard_violations() {
        let (mut checker, config) = checker();
        let (node, _) = ghosted_node(&config);
        checker.node_up(node.id(), 0);
        // A window for a DIFFERENT node excuses nothing here.
        checker.set_adversary_windows(&[(NodeId::from_index(99), 0, 1000)]);
        checker.on_sample(1000, std::iter::once(&node));
        assert!(!checker.summary().passed());
        assert!(checker.summary().expected_violations.is_empty());
    }
}
