//! Declarative fault-injection scenarios.
//!
//! A [`Scenario`] is one timeline of [`Fault`]s injected into a simulation
//! run, FoundationDB-style: partitions that heal, loss bursts, degraded
//! link sets, node freezes, state corruptions and eclipse campaigns, all
//! expressed as data so a failing run is fully described by
//! `(trace, options, scenario)` and replays byte-identically from its
//! seeds.
//!
//! Author scenarios with the builder:
//!
//! ```
//! use avmon::NodeId;
//! use avmon_sim::Scenario;
//!
//! let minute = avmon::MINUTE;
//! let island: Vec<NodeId> = (0..10).map(NodeId::from_index).collect();
//! let mainland: Vec<NodeId> = (10..50).map(NodeId::from_index).collect();
//! let scenario = Scenario::builder("island-heals")
//!     .partition(70 * minute, 10 * minute, island, mainland)
//!     .loss_burst(90 * minute, 5 * minute, 0.3)
//!     .freeze(100 * minute, 2 * minute, NodeId::from_index(3))
//!     .build()?;
//! assert_eq!(scenario.events.len(), 3);
//! # Ok::<(), avmon::Error>(())
//! ```
//!
//! …or generate one at random for fuzz-style sweeps with
//! [`Scenario::random`]; the seed in the scenario name makes failures
//! replayable.

use avmon::rng::Stream;
use avmon::{DurMs, NodeId, TimeMs};
use serde::{Deserialize, Serialize};

/// One fault, active from its event's `at` for `duration` ms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// All messages between groups `a` and `b` are dropped (both
    /// directions when `symmetric`, only `a → b` otherwise). Heals when the
    /// window ends.
    Partition {
        /// One side of the cut.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
        /// Whether the reverse direction is cut too.
        symmetric: bool,
        /// How long before the partition heals.
        duration: DurMs,
    },
    /// Messages between the groups are dropped with probability `loss`
    /// (a lossy, not severed, link set).
    Degrade {
        /// One side of the degraded links.
        a: Vec<NodeId>,
        /// The other side.
        b: Vec<NodeId>,
        /// Whether the reverse direction degrades too.
        symmetric: bool,
        /// Drop probability in `[0, 1)`. Use [`Fault::Partition`] for 1.
        loss: f64,
        /// How long the degradation lasts.
        duration: DurMs,
    },
    /// Every message system-wide is additionally dropped with probability
    /// `loss` (congestion collapse, DDoS weather).
    LossBurst {
        /// Extra drop probability in `[0, 1]`.
        loss: f64,
        /// Burst length.
        duration: DurMs,
    },
    /// The node stops processing: deliveries and timers stall and fire in
    /// their original order when the freeze thaws (a GC pause / overload /
    /// VM migration — the node never considers itself down).
    Freeze {
        /// The frozen node.
        node: NodeId,
        /// Pause length.
        duration: DurMs,
    },
    /// The node's protocol state (coarse view, PS, TS) is overwritten with
    /// seed-deterministic garbage at the event instant — the arbitrary-
    /// state-corruption start of a self-stabilization argument (disk
    /// corruption, a bad restore, a bit-flipped snapshot). Instantaneous:
    /// the fault's "duration" is the re-convergence window the
    /// stabilization checker derives, not part of the event.
    Corrupt {
        /// The corrupted node.
        node: NodeId,
        /// What kind of garbage is written.
        pattern: Corruption,
        /// Per-event corruption seed (mixed with the sim seed, so the
        /// garbage is deterministic yet independent of every other stream).
        seed: u64,
    },
    /// The coalition jointly tries to capture the victims' monitor slots:
    /// every member adopts [`avmon::Behavior::EclipseCoalition`] for the
    /// window (forged NOTIFY floods, join/notify suppression, coalition
    /// self-advertisement, victim overreporting), then reverts to the
    /// behavior it had before (honest, unless `SimOptions::behavior`
    /// assigned it something else).
    Eclipse {
        /// The attacker nodes.
        coalition: Vec<NodeId>,
        /// The nodes under attack.
        victims: Vec<NodeId>,
        /// How long the campaign runs before the coalition reverts.
        duration: DurMs,
    },
}

/// What [`Fault::Corrupt`] writes over a node's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Corruption {
    /// Ghost entries: PS/TS/view members the hash condition never selected
    /// (including identities outside the population).
    Ghosts,
    /// Each PS/TS entry is independently dropped with probability ½.
    Drops,
    /// Monitoring counters are scrambled as if restored from another
    /// incarnation's snapshot (pings/pongs/session bookkeeping garbled;
    /// membership intact).
    Scramble,
    /// All of the above.
    Full,
}

impl Fault {
    /// Checks the fault's parameters, and that it ends, starting at `at`,
    /// at an instant [`TimeMs`] can hold.
    fn validate(&self, at: TimeMs) -> Result<(), avmon::Error> {
        let err = |msg: String| Err(avmon::Error::InvalidConfig(msg));
        match self {
            Fault::Partition { a, b, duration, .. } => {
                if a.is_empty() || b.is_empty() {
                    return err("partition groups must be non-empty".into());
                }
                if a.iter().any(|id| b.contains(id)) {
                    return err("partition groups must be disjoint".into());
                }
                if *duration == 0 {
                    return err("partition duration must be positive".into());
                }
            }
            Fault::Degrade {
                a,
                b,
                loss,
                duration,
                ..
            } => {
                if a.is_empty() || b.is_empty() {
                    return err("degraded groups must be non-empty".into());
                }
                if a.iter().any(|id| b.contains(id)) {
                    return err("degraded groups must be disjoint".into());
                }
                if !(0.0..1.0).contains(loss) {
                    return err(format!("degrade loss must be in [0, 1), got {loss}"));
                }
                if *duration == 0 {
                    return err("degrade duration must be positive".into());
                }
            }
            Fault::LossBurst { loss, duration } => {
                if !(0.0..=1.0).contains(loss) {
                    return err(format!("burst loss must be in [0, 1], got {loss}"));
                }
                if *duration == 0 {
                    return err("burst duration must be positive".into());
                }
            }
            Fault::Freeze { duration, .. } => {
                if *duration == 0 {
                    return err("freeze duration must be positive".into());
                }
            }
            Fault::Corrupt { .. } => {
                // Any node, pattern and seed are valid: corruption is
                // arbitrary-state by definition.
            }
            Fault::Eclipse {
                coalition,
                victims,
                duration,
            } => {
                if coalition.is_empty() || victims.is_empty() {
                    return err("eclipse coalition and victim sets must be non-empty".into());
                }
                if coalition.iter().any(|id| victims.contains(id)) {
                    return err("eclipse coalition and victims must be disjoint".into());
                }
                if *duration == 0 {
                    return err("eclipse duration must be positive".into());
                }
            }
        }
        if at.checked_add(self.duration()).is_none() {
            return err(format!("a fault at {at} ms ends past the last instant"));
        }
        Ok(())
    }

    fn duration(&self) -> DurMs {
        match self {
            Fault::Partition { duration, .. }
            | Fault::Degrade { duration, .. }
            | Fault::LossBurst { duration, .. }
            | Fault::Freeze { duration, .. }
            | Fault::Eclipse { duration, .. } => *duration,
            // Instantaneous; re-convergence time is owned by the
            // stabilization checker's derived bound.
            Fault::Corrupt { .. } => 0,
        }
    }
}

/// A timestamped fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEvent {
    /// When the fault begins.
    pub at: TimeMs,
    /// What happens.
    pub fault: Fault,
}

/// A named, validated fault timeline. The empty default is the
/// fault-free run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Scenario {
    /// Human-readable scenario name (embeds the seed for generated ones).
    pub name: String,
    /// The fault timeline, sorted by start time.
    pub events: Vec<ScenarioEvent>,
}

impl Scenario {
    /// Starts building a scenario.
    #[must_use]
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Checks every fault in the timeline, and that no node serves in two
    /// eclipse campaigns at once (each campaign's end reverts its members).
    ///
    /// # Errors
    ///
    /// Returns [`avmon::Error::InvalidConfig`] describing the first
    /// invalid fault or overlapping pair of campaigns.
    pub fn validate(&self) -> Result<(), avmon::Error> {
        for event in &self.events {
            event.fault.validate(event.at)?;
        }
        let campaigns: Vec<(TimeMs, TimeMs, &[NodeId])> = self
            .events
            .iter()
            .filter_map(|e| match &e.fault {
                Fault::Eclipse {
                    coalition,
                    duration,
                    ..
                } => Some((e.at, e.at + duration, coalition.as_slice())),
                _ => None,
            })
            .collect();
        for (i, &(from, until, members)) in campaigns.iter().enumerate() {
            for &(other_from, other_until, others) in &campaigns[i + 1..] {
                if from < other_until
                    && other_from < until
                    && members.iter().any(|m| others.contains(m))
                {
                    return Err(avmon::Error::InvalidConfig(format!(
                        "eclipse campaigns at {from} and {other_from} ms overlap and share a member"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The first instant after which no fault is active any more
    /// (0 for an empty scenario). Invariant grace windows are measured
    /// from here: guarantees are only owed once the network has healed.
    #[must_use]
    pub fn quiescent_after(&self) -> TimeMs {
        self.events
            .iter()
            .map(|e| e.at + e.fault.duration())
            .max()
            .unwrap_or(0)
    }

    /// Per-node adversary windows `(node, opened_at, heals_at)` for the
    /// stabilization checker: during `[opened_at, heals_at]` the node's
    /// state is *expected* to violate the consistency condition (it is an
    /// active attacker, or was just corrupted), and after `heals_at` it
    /// owes re-convergence within the checker's derived bound. Campaign
    /// members come first, then corruptions: the order of the report's
    /// `qos.windows`.
    pub(crate) fn adversary_windows(&self) -> Vec<(NodeId, TimeMs, TimeMs)> {
        let mut windows = Vec::new();
        for event in &self.events {
            if let Fault::Eclipse {
                coalition,
                duration,
                ..
            } = &event.fault
            {
                for &member in coalition {
                    windows.push((member, event.at, event.at + duration));
                }
            }
        }
        for event in &self.events {
            if let Fault::Corrupt { node, .. } = event.fault {
                // Instantaneous injection: the recovery clock starts at
                // the event itself.
                windows.push((node, event.at, event.at));
            }
        }
        windows
    }

    /// Every `(node, from, until)` freeze window, for the engine to file
    /// under the node's row.
    pub(crate) fn freeze_windows(&self) -> Vec<(NodeId, TimeMs, TimeMs)> {
        self.events
            .iter()
            .filter_map(|e| match e.fault {
                Fault::Freeze { node, duration } => Some((node, e.at, e.at + duration)),
                _ => None,
            })
            .collect()
    }

    /// Generates a random scenario for fuzz-style sweeps: 1–4 faults drawn
    /// from every fault family, placed inside `[window_from, window_to)`
    /// over the given identity population. Fully determined by `seed`,
    /// which is embedded in the scenario name so a failing sweep iteration
    /// can be replayed exactly.
    ///
    /// # Panics
    ///
    /// Panics if `identities` holds fewer than two nodes or the window is
    /// empty.
    #[must_use]
    pub fn random(
        seed: u64,
        identities: &[NodeId],
        window_from: TimeMs,
        window_to: TimeMs,
    ) -> Self {
        assert!(identities.len() >= 2, "need at least two identities");
        assert!(window_from < window_to, "empty fault window");
        let mut rng = Stream::seeded(seed ^ 0x05ce_0a21_cbad_cafe);
        let span = window_to - window_from;
        let mut events = Vec::new();
        let count = rng.gen_range(1..=4usize);
        for _ in 0..count {
            let at = window_from + rng.gen_range(0..span.max(1));
            // Durations: 2%–25% of the window, so heals happen in-run.
            let duration = (span / 50 + rng.gen_range(0..=span / 4)).max(1);
            let fault = match rng.gen_range(0..4u8) {
                0 | 1 => {
                    // Partitions dominate the mix; sometimes asymmetric.
                    let (a, b) = random_split(&mut rng, identities);
                    Fault::Partition {
                        a,
                        b,
                        symmetric: rng.gen_range(0..4u8) != 0,
                        duration,
                    }
                }
                2 => {
                    let (a, b) = random_split(&mut rng, identities);
                    Fault::Degrade {
                        a,
                        b,
                        symmetric: true,
                        loss: rng.gen_range(0.1..0.9),
                        duration,
                    }
                }
                _ => Fault::LossBurst {
                    loss: rng.gen_range(0.05..0.5),
                    duration,
                },
            };
            events.push(ScenarioEvent { at, fault });
        }
        // An occasional freeze rides along.
        if rng.gen_range(0..2u8) == 0 {
            let node = identities[rng.gen_range(0..identities.len())];
            events.push(ScenarioEvent {
                at: window_from + rng.gen_range(0..span.max(1)),
                fault: Fault::Freeze {
                    node,
                    duration: (span / 20).max(1),
                },
            });
        }
        // Adversary riders, drawn strictly after every fault draw so the
        // fault timeline a given seed produced before the adversary pack
        // is unchanged. Half the scenarios get an eclipse campaign …
        if identities.len() >= 4 && rng.gen_range(0..2u8) == 0 {
            let coalition_size = rng.gen_range(2..=3usize.min(identities.len() - 1));
            let victim_count = rng.gen_range(1..=2usize.min(identities.len() - coalition_size));
            let mut pool: Vec<NodeId> = identities.to_vec();
            for i in 0..coalition_size + victim_count {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            let coalition = pool[..coalition_size].to_vec();
            let victims = pool[coalition_size..coalition_size + victim_count].to_vec();
            events.push(ScenarioEvent {
                at: window_from + rng.gen_range(0..span.max(1)),
                fault: Fault::Eclipse {
                    coalition,
                    victims,
                    duration: (span / 50 + rng.gen_range(0..=span / 4)).max(1),
                },
            });
        }
        // … and half get a state corruption.
        if rng.gen_range(0..2u8) == 0 {
            let node = identities[rng.gen_range(0..identities.len())];
            let pattern = match rng.gen_range(0..4u8) {
                0 => Corruption::Ghosts,
                1 => Corruption::Drops,
                2 => Corruption::Scramble,
                _ => Corruption::Full,
            };
            events.push(ScenarioEvent {
                at: window_from + rng.gen_range(0..span.max(1)),
                fault: Fault::Corrupt {
                    node,
                    pattern,
                    seed: rng.gen(),
                },
            });
        }
        events.sort_by_key(|e| e.at);
        let scenario = Scenario {
            name: format!("random-{seed}"),
            events,
        };
        debug_assert!(scenario.validate().is_ok());
        scenario
    }
}

/// Splits the population into a random minority island (1..=N/3 nodes) and
/// the rest.
fn random_split(rng: &mut Stream, identities: &[NodeId]) -> (Vec<NodeId>, Vec<NodeId>) {
    let island_size = rng.gen_range(1..=(identities.len() / 3).max(1));
    let mut pool: Vec<NodeId> = identities.to_vec();
    // Partial Fisher-Yates: the first `island_size` entries become the island.
    for i in 0..island_size {
        let j = rng.gen_range(i..pool.len());
        pool.swap(i, j);
    }
    let rest = pool.split_off(island_size);
    (pool, rest)
}

/// Fluent scenario construction; every method takes the fault's start time
/// and duration first.
#[derive(Debug)]
pub struct ScenarioBuilder {
    name: String,
    events: Vec<ScenarioEvent>,
}

impl ScenarioBuilder {
    /// Cuts `a ↔ b` both ways from `at` until `at + duration` (heal time).
    #[must_use]
    pub fn partition(self, at: TimeMs, duration: DurMs, a: Vec<NodeId>, b: Vec<NodeId>) -> Self {
        self.push(
            at,
            Fault::Partition {
                a,
                b,
                symmetric: true,
                duration,
            },
        )
    }

    /// Cuts only the `a → b` direction (asymmetric partition: `b` still
    /// reaches `a`).
    #[must_use]
    pub fn one_way_partition(
        self,
        at: TimeMs,
        duration: DurMs,
        a: Vec<NodeId>,
        b: Vec<NodeId>,
    ) -> Self {
        self.push(
            at,
            Fault::Partition {
                a,
                b,
                symmetric: false,
                duration,
            },
        )
    }

    /// Degrades `a ↔ b` links to drop with probability `loss`.
    #[must_use]
    pub fn degrade(
        self,
        at: TimeMs,
        duration: DurMs,
        a: Vec<NodeId>,
        b: Vec<NodeId>,
        loss: f64,
    ) -> Self {
        self.push(
            at,
            Fault::Degrade {
                a,
                b,
                symmetric: true,
                loss,
                duration,
            },
        )
    }

    /// Drops every message system-wide with probability `loss` during the
    /// window.
    #[must_use]
    pub fn loss_burst(self, at: TimeMs, duration: DurMs, loss: f64) -> Self {
        self.push(at, Fault::LossBurst { loss, duration })
    }

    /// Freezes `node` (no message or timer processing) during the window.
    #[must_use]
    pub fn freeze(self, at: TimeMs, duration: DurMs, node: NodeId) -> Self {
        self.push(at, Fault::Freeze { node, duration })
    }

    /// Corrupts `node`'s protocol state at `at` with the given pattern and
    /// corruption seed (instantaneous — see [`Fault::Corrupt`]).
    #[must_use]
    pub fn corrupt(self, at: TimeMs, node: NodeId, pattern: Corruption, seed: u64) -> Self {
        self.push(
            at,
            Fault::Corrupt {
                node,
                pattern,
                seed,
            },
        )
    }

    /// Runs an eclipse campaign by `coalition` against `victims` during
    /// the window.
    #[must_use]
    pub fn eclipse(
        self,
        at: TimeMs,
        duration: DurMs,
        coalition: Vec<NodeId>,
        victims: Vec<NodeId>,
    ) -> Self {
        self.push(
            at,
            Fault::Eclipse {
                coalition,
                victims,
                duration,
            },
        )
    }

    fn push(mut self, at: TimeMs, fault: Fault) -> Self {
        self.events.push(ScenarioEvent { at, fault });
        self
    }

    /// Validates and finalizes the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`avmon::Error::InvalidConfig`] for empty or overlapping
    /// groups, out-of-range probabilities, zero durations, or a node in
    /// two overlapping eclipse campaigns.
    pub fn build(mut self) -> Result<Scenario, avmon::Error> {
        self.events.sort_by_key(|e| e.at);
        let scenario = Scenario {
            name: self.name,
            events: self.events,
        };
        scenario.validate()?;
        Ok(scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmon::MINUTE;

    fn ids(range: std::ops::Range<u32>) -> Vec<NodeId> {
        range.map(NodeId::from_index).collect()
    }

    #[test]
    fn builder_sorts_and_validates() {
        let s = Scenario::builder("s")
            .loss_burst(5 * MINUTE, MINUTE, 0.2)
            .partition(MINUTE, 2 * MINUTE, ids(0..3), ids(3..6))
            .build()
            .unwrap();
        assert_eq!(s.events[0].at, MINUTE);
        assert_eq!(s.quiescent_after(), 6 * MINUTE);
    }

    #[test]
    fn overlapping_partition_groups_rejected() {
        let err = Scenario::builder("bad")
            .partition(0, MINUTE, ids(0..4), ids(3..6))
            .build()
            .unwrap_err();
        assert!(matches!(err, avmon::Error::InvalidConfig(_)));
    }

    #[test]
    fn out_of_range_probabilities_rejected() {
        assert!(Scenario::builder("bad")
            .loss_burst(0, MINUTE, 1.5)
            .build()
            .is_err());
        assert!(Scenario::builder("bad")
            .degrade(0, MINUTE, ids(0..2), ids(2..4), 1.0)
            .build()
            .is_err());
    }

    #[test]
    fn zero_durations_rejected() {
        assert!(Scenario::builder("bad")
            .freeze(0, 0, NodeId::from_index(1))
            .build()
            .is_err());
    }

    #[test]
    fn random_scenarios_are_deterministic_and_valid() {
        let pop = ids(0..50);
        for seed in 0..40u64 {
            let a = Scenario::random(seed, &pop, 10 * MINUTE, 60 * MINUTE);
            let b = Scenario::random(seed, &pop, 10 * MINUTE, 60 * MINUTE);
            assert_eq!(a, b, "seed {seed} not deterministic");
            a.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(!a.events.is_empty());
            assert!(a.name.contains(&seed.to_string()));
            for e in &a.events {
                assert!(e.at >= 10 * MINUTE && e.at < 60 * MINUTE);
            }
        }
        assert_ne!(
            Scenario::random(1, &pop, 0, MINUTE),
            Scenario::random(2, &pop, 0, MINUTE),
            "different seeds should differ"
        );
    }

    #[test]
    fn scenarios_serialize_round_trip() {
        let s = Scenario::builder("rt")
            .one_way_partition(MINUTE, MINUTE, ids(0..2), ids(2..4))
            .degrade(2 * MINUTE, MINUTE, ids(0..1), ids(1..2), 0.25)
            .loss_burst(3 * MINUTE, MINUTE, 0.1)
            .freeze(4 * MINUTE, MINUTE, NodeId::from_index(9))
            .corrupt(5 * MINUTE, NodeId::from_index(2), Corruption::Full, 77)
            .eclipse(6 * MINUTE, MINUTE, ids(0..2), ids(2..3))
            .build()
            .unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn invalid_attacks_rejected() {
        // Overlapping coalition/victims.
        assert!(Scenario::builder("bad")
            .eclipse(0, MINUTE, ids(0..3), ids(2..4))
            .build()
            .is_err());
        // Empty victim set.
        assert!(Scenario::builder("bad")
            .eclipse(0, MINUTE, ids(0..3), vec![])
            .build()
            .is_err());
        // Zero duration.
        assert!(Scenario::builder("bad")
            .eclipse(0, 0, ids(0..3), ids(3..4))
            .build()
            .is_err());
    }

    #[test]
    fn overlapping_campaigns_sharing_a_member_rejected() {
        let two_campaigns = |second_at, second: Vec<NodeId>| {
            Scenario::builder("overlap")
                .eclipse(10 * MINUTE, 20 * MINUTE, ids(0..2), ids(5..6))
                .eclipse(second_at, 30 * MINUTE, second, ids(6..7))
                .build()
        };
        let shared = || vec![NodeId::from_index(0), NodeId::from_index(2)];
        // The first campaign's end would revert node 0 mid-way through the
        // second.
        let err = two_campaigns(20 * MINUTE, shared()).unwrap_err();
        assert!(matches!(err, avmon::Error::InvalidConfig(_)), "{err}");
        // Back to back is fine: the revert lands before the next start.
        assert!(two_campaigns(30 * MINUTE, shared()).is_ok());
        // So are overlapping windows with disjoint coalitions.
        assert!(two_campaigns(20 * MINUTE, ids(2..4)).is_ok());
    }

    /// A window whose end does not fit in `TimeMs` is a configuration
    /// error, not an overflow in the engine's time arithmetic.
    #[test]
    fn fault_windows_ending_past_the_last_instant_rejected() {
        let last = TimeMs::MAX;
        let burst = Scenario::builder("late")
            .loss_burst(last - 1, 10, 0.5)
            .build();
        assert!(matches!(burst, Err(avmon::Error::InvalidConfig(_))));
        let freeze = Scenario::builder("late")
            .freeze(last - 1, 10, NodeId::from_index(0))
            .build();
        assert!(matches!(freeze, Err(avmon::Error::InvalidConfig(_))));
        // Ending exactly at the last instant fits.
        let s = Scenario::builder("edge")
            .loss_burst(last - 10, 10, 0.5)
            .build();
        assert_eq!(s.unwrap().quiescent_after(), last);
    }

    #[test]
    fn adversary_windows_cover_attacks_and_corruptions() {
        let s = Scenario::builder("w")
            .eclipse(2 * MINUTE, 3 * MINUTE, ids(0..2), ids(2..3))
            .corrupt(MINUTE, NodeId::from_index(7), Corruption::Drops, 1)
            .build()
            .unwrap();
        // Campaign members first, then the corruption although it comes
        // first in time: the order the report's `qos.windows` serializes.
        assert_eq!(
            s.adversary_windows(),
            vec![
                (NodeId::from_index(0), 2 * MINUTE, 5 * MINUTE),
                (NodeId::from_index(1), 2 * MINUTE, 5 * MINUTE),
                (NodeId::from_index(7), MINUTE, MINUTE),
            ]
        );
        // Quiescence waits for the slowest adversary window too.
        assert_eq!(s.quiescent_after(), 5 * MINUTE);
    }

    #[test]
    fn random_scenarios_draw_adversaries() {
        let pop = ids(0..50);
        let mut with_attack = 0;
        let mut with_corrupt = 0;
        for seed in 0..40u64 {
            let s = Scenario::random(seed, &pop, 10 * MINUTE, 60 * MINUTE);
            s.validate().unwrap();
            if s.events
                .iter()
                .any(|e| matches!(e.fault, Fault::Eclipse { .. }))
            {
                with_attack += 1;
            }
            if s.events
                .iter()
                .any(|e| matches!(e.fault, Fault::Corrupt { .. }))
            {
                with_corrupt += 1;
            }
        }
        // Each rider fires with probability ½ per seed; over 40 seeds both
        // appearing fewer than 8 times would be a broken draw.
        assert!(with_attack >= 8, "only {with_attack}/40 eclipse riders");
        assert!(
            with_corrupt >= 8,
            "only {with_corrupt}/40 corruption riders"
        );
    }

    #[test]
    fn freeze_windows_extracted() {
        let s = Scenario::builder("f")
            .freeze(MINUTE, MINUTE, NodeId::from_index(7))
            .loss_burst(0, MINUTE, 0.1)
            .build()
            .unwrap();
        assert_eq!(
            s.freeze_windows(),
            vec![(NodeId::from_index(7), MINUTE, 2 * MINUTE)]
        );
    }
}
