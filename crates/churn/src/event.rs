//! Churn traces: timestamped lifecycle events of node identities.
//!
//! The paper's simulator is *trace-driven* (§5): every availability model —
//! synthetic or measured — is reduced to a sequence of per-node up/down
//! transitions that the simulator replays. [`Trace`] is that sequence, plus
//! the metadata the experiments need (stable size, control group, horizon).

use std::collections::{BTreeMap, BTreeSet};

use avmon::{DurMs, NodeId, TimeMs};
use serde::{Deserialize, Serialize};

/// One lifecycle transition of one node identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnEventKind {
    /// First ever entry into the system (a *birth*).
    Birth,
    /// Re-entry after a leave (a *rejoin*).
    Join,
    /// Departure that may be followed by a rejoin.
    Leave,
    /// Final departure — silent, exactly like a leave on the wire, but the
    /// identity never returns (used by accounting only).
    Death,
}

impl ChurnEventKind {
    /// Whether the node is up after this event.
    #[must_use]
    pub fn is_up_transition(self) -> bool {
        matches!(self, ChurnEventKind::Birth | ChurnEventKind::Join)
    }
}

/// A timestamped lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// When the transition happens.
    pub at: TimeMs,
    /// The node identity.
    pub node: NodeId,
    /// What happens.
    pub kind: ChurnEventKind,
}

/// A complete availability trace.
///
/// # Example
///
/// ```
/// use avmon_churn::{stat, TraceStats};
///
/// let trace = stat(100, 2 * avmon::HOUR, 0.1, 42);
/// assert_eq!(trace.stable_size, 100);
/// let stats = trace.stats();
/// assert_eq!(stats.births, 110); // 100 initial + 10 control-group joiners
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Human-readable model name (`STAT`, `SYNTH`, `OV`, …).
    pub name: String,
    /// The stable system size `N` the protocol should be configured with.
    pub stable_size: usize,
    /// End of the covered time range (all events are `< horizon`).
    pub horizon: TimeMs,
    /// When the measurement phase begins (after warm-up).
    pub measure_from: TimeMs,
    /// The nodes whose discovery time the experiment measures.
    pub control_group: Vec<NodeId>,
    /// Lifecycle events, sorted by time.
    pub events: Vec<ChurnEvent>,
}

impl Trace {
    /// Creates a trace, sorting events by time and validating per-node
    /// alternation.
    ///
    /// # Panics
    ///
    /// Panics if [`Trace::validate`] rejects the events (double join,
    /// event after death, join without birth, event at or past the
    /// horizon): callers of `new` generate their events, so inconsistency
    /// is a construction bug. The importers in [`crate::io`] return the
    /// error instead.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        stable_size: usize,
        horizon: TimeMs,
        measure_from: TimeMs,
        control_group: Vec<NodeId>,
        mut events: Vec<ChurnEvent>,
    ) -> Self {
        events.sort_by_key(|e| (e.at, e.node));
        let trace = Trace {
            name: name.into(),
            stable_size,
            horizon,
            measure_from,
            control_group,
            events,
        };
        #[expect(clippy::panic, reason = "an inconsistent trace is a caller bug")]
        if let Err(e) = trace.validate() {
            panic!("inconsistent trace: {e}");
        }
        trace
    }

    /// Checks that every event lies before the horizon and that each
    /// node's events follow birth → (leave → join)* → death.
    ///
    /// # Errors
    ///
    /// Describes the first event that breaks either rule.
    pub fn validate(&self) -> Result<(), String> {
        #[derive(PartialEq, Clone, Copy)]
        enum S {
            Unborn,
            Up,
            Down,
            Dead,
        }
        let mut state: BTreeMap<NodeId, S> = BTreeMap::new();
        for e in &self.events {
            if e.at >= self.horizon {
                return Err(format!("event at {} beyond horizon {}", e.at, self.horizon));
            }
            let s = state.entry(e.node).or_insert(S::Unborn);
            *s = match (*s, e.kind) {
                (S::Unborn, ChurnEventKind::Birth) => S::Up,
                (S::Down, ChurnEventKind::Join) => S::Up,
                (S::Up, ChurnEventKind::Leave) => S::Down,
                (S::Up, ChurnEventKind::Death) => S::Dead,
                (state, kind) => {
                    return Err(format!(
                        "node {} got {:?} in state {}",
                        e.node,
                        kind,
                        match state {
                            S::Unborn => "unborn",
                            S::Up => "up",
                            S::Down => "down",
                            S::Dead => "dead",
                        }
                    ))
                }
            };
        }
        Ok(())
    }

    /// All identities that ever appear.
    #[must_use]
    pub fn identities(&self) -> BTreeSet<NodeId> {
        self.events.iter().map(|e| e.node).collect()
    }

    /// Per-node up-intervals `[start, end)` clipped to the horizon, built
    /// in one `O(E)` pass.
    #[must_use]
    pub fn up_intervals(&self) -> BTreeMap<NodeId, Vec<(TimeMs, TimeMs)>> {
        let mut open: BTreeMap<NodeId, TimeMs> = BTreeMap::new();
        let mut out: BTreeMap<NodeId, Vec<(TimeMs, TimeMs)>> = BTreeMap::new();
        for e in &self.events {
            match e.kind {
                ChurnEventKind::Birth | ChurnEventKind::Join => {
                    open.insert(e.node, e.at);
                }
                ChurnEventKind::Leave | ChurnEventKind::Death => {
                    if let Some(start) = open.remove(&e.node) {
                        out.entry(e.node).or_default().push((start, e.at));
                    }
                }
            }
        }
        for (node, start) in open {
            out.entry(node).or_default().push((start, self.horizon));
        }
        out
    }

    /// The number of alive nodes at `t`.
    #[must_use]
    pub fn alive_at(&self, t: TimeMs) -> usize {
        let mut alive = 0usize;
        for e in &self.events {
            if e.at > t {
                break;
            }
            match e.kind {
                ChurnEventKind::Birth | ChurnEventKind::Join => alive += 1,
                ChurnEventKind::Leave | ChurnEventKind::Death => alive -= 1,
            }
        }
        alive
    }

    /// The fraction of `[from, to)` during which `node` was up.
    ///
    /// One walk over the events that builds no map, under the same interval
    /// rules as [`Trace::up_intervals`]; a sweep over many nodes should read
    /// `up_intervals()` once instead.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (`to <= from`).
    #[must_use]
    pub fn availability_of(&self, node: NodeId, from: TimeMs, to: TimeMs) -> f64 {
        assert!(to > from, "empty window");
        let overlap = |s: TimeMs, e: TimeMs| e.min(to).saturating_sub(s.max(from));
        let mut up: DurMs = 0;
        let mut open = None;
        for e in self.events.iter().filter(|e| e.node == node) {
            if e.kind.is_up_transition() {
                open = Some(e.at);
            } else if let Some(start) = open.take() {
                up += overlap(start, e.at);
            }
        }
        if let Some(start) = open {
            up += overlap(start, self.horizon);
        }
        up as f64 / (to - from) as f64
    }

    /// Aggregate statistics (printed by `trace_tool stat`).
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let mut births = 0usize;
        let mut deaths = 0usize;
        let mut joins = 0usize;
        let mut leaves = 0usize;
        for e in &self.events {
            match e.kind {
                ChurnEventKind::Birth => births += 1,
                ChurnEventKind::Death => deaths += 1,
                ChurnEventKind::Join => joins += 1,
                ChurnEventKind::Leave => leaves += 1,
            }
        }
        // Mean availability over identities, measured on the whole horizon.
        let intervals = self.up_intervals();
        let mut mean_availability = 0.0;
        if !intervals.is_empty() {
            for ups in intervals.values() {
                let up: DurMs = ups.iter().map(|&(s, e)| e - s).sum();
                mean_availability += up as f64 / self.horizon as f64;
            }
            mean_availability /= intervals.len() as f64;
        }
        // Churn rate: leave events per alive-node-hour after warm-up.
        let hours = (self.horizon.saturating_sub(self.measure_from)) as f64 / 3_600_000.0;
        let post_warmup_leaves = self
            .events
            .iter()
            .filter(|e| e.at >= self.measure_from && e.kind == ChurnEventKind::Leave)
            .count();
        let churn_per_hour = if hours > 0.0 && self.stable_size > 0 {
            post_warmup_leaves as f64 / hours / self.stable_size as f64
        } else {
            0.0
        };
        TraceStats {
            identities: intervals.len(),
            births,
            deaths,
            joins,
            leaves,
            mean_availability,
            churn_per_hour,
        }
    }
}

/// Aggregate trace statistics — see [`Trace::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Distinct identities appearing in the trace.
    pub identities: usize,
    /// Birth events.
    pub births: usize,
    /// Death events.
    pub deaths: usize,
    /// Rejoin events.
    pub joins: usize,
    /// Leave events.
    pub leaves: usize,
    /// Mean per-identity availability over the horizon.
    pub mean_availability: f64,
    /// Leave events per alive-node-hour after warm-up (0.2 ≈ "20% per hour").
    pub churn_per_hour: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use avmon::HOUR;

    fn id(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    fn ev(at: TimeMs, i: u32, kind: ChurnEventKind) -> ChurnEvent {
        ChurnEvent {
            at,
            node: id(i),
            kind,
        }
    }

    #[test]
    fn up_intervals_and_availability() {
        let t = Trace::new(
            "test",
            2,
            10 * HOUR,
            0,
            vec![],
            vec![
                ev(0, 1, ChurnEventKind::Birth),
                ev(2 * HOUR, 1, ChurnEventKind::Leave),
                ev(4 * HOUR, 1, ChurnEventKind::Join),
                ev(6 * HOUR, 1, ChurnEventKind::Death),
                ev(HOUR, 2, ChurnEventKind::Birth),
            ],
        );
        let intervals = t.up_intervals();
        assert_eq!(intervals[&id(1)], vec![(0, 2 * HOUR), (4 * HOUR, 6 * HOUR)]);
        assert_eq!(intervals[&id(2)], vec![(HOUR, 10 * HOUR)]);
        // Node 1 up 4 of 10 hours.
        assert!((t.availability_of(id(1), 0, 10 * HOUR) - 0.4).abs() < 1e-9);
        // Unknown nodes have zero availability.
        assert_eq!(t.availability_of(id(9), 0, HOUR), 0.0);
        assert_eq!(t.alive_at(HOUR + 1), 2);
        assert_eq!(t.alive_at(3 * HOUR), 1);
        assert_eq!(t.alive_at(7 * HOUR), 1);
    }

    #[test]
    fn stats_count_event_kinds() {
        let t = Trace::new(
            "test",
            1,
            4 * HOUR,
            0,
            vec![],
            vec![
                ev(0, 1, ChurnEventKind::Birth),
                ev(HOUR, 1, ChurnEventKind::Leave),
                ev(2 * HOUR, 1, ChurnEventKind::Join),
                ev(3 * HOUR, 1, ChurnEventKind::Death),
            ],
        );
        let s = t.stats();
        assert_eq!((s.births, s.leaves, s.joins, s.deaths), (1, 1, 1, 1));
        assert_eq!(s.identities, 1);
        assert!((s.mean_availability - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "inconsistent trace")]
    fn double_birth_rejected() {
        let _ = Trace::new(
            "bad",
            1,
            HOUR,
            0,
            vec![],
            vec![
                ev(0, 1, ChurnEventKind::Birth),
                ev(1, 1, ChurnEventKind::Birth),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "inconsistent trace")]
    fn join_without_birth_rejected() {
        let _ = Trace::new(
            "bad",
            1,
            HOUR,
            0,
            vec![],
            vec![ev(0, 1, ChurnEventKind::Join)],
        );
    }

    #[test]
    #[should_panic(expected = "inconsistent trace")]
    fn event_after_death_rejected() {
        let _ = Trace::new(
            "bad",
            1,
            HOUR,
            0,
            vec![],
            vec![
                ev(0, 1, ChurnEventKind::Birth),
                ev(1, 1, ChurnEventKind::Death),
                ev(2, 1, ChurnEventKind::Join),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn event_beyond_horizon_rejected() {
        let _ = Trace::new(
            "bad",
            1,
            HOUR,
            0,
            vec![],
            vec![ev(2 * HOUR, 1, ChurnEventKind::Birth)],
        );
    }

    #[test]
    fn events_are_sorted_on_construction() {
        let t = Trace::new(
            "test",
            2,
            HOUR,
            0,
            vec![],
            vec![
                ev(30, 2, ChurnEventKind::Birth),
                ev(10, 1, ChurnEventKind::Birth),
            ],
        );
        assert!(t.events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    /// `availability_of` walks one node's events; it must agree with the
    /// `up_intervals()` map on every node — including one with no events —
    /// and every window.
    #[test]
    fn availability_of_matches_up_intervals() {
        let t = Trace::new(
            "test",
            3,
            10 * HOUR,
            0,
            vec![],
            vec![
                ev(0, 1, ChurnEventKind::Birth),
                ev(2 * HOUR, 1, ChurnEventKind::Leave),
                ev(4 * HOUR, 1, ChurnEventKind::Join),
                ev(HOUR, 2, ChurnEventKind::Birth),
                ev(3 * HOUR, 2, ChurnEventKind::Death),
                ev(5 * HOUR, 3, ChurnEventKind::Birth),
            ],
        );
        let intervals = t.up_intervals();
        for node in [id(1), id(2), id(3), id(9)] {
            for (from, to) in [(0, 10 * HOUR), (HOUR, 2 * HOUR), (3 * HOUR, 7 * HOUR)] {
                let up: DurMs = intervals.get(&node).map_or(0, |ups| {
                    ups.iter()
                        .map(|&(s, e)| e.min(to).saturating_sub(s.max(from)))
                        .sum()
                });
                assert_eq!(
                    t.availability_of(node, from, to).to_bits(),
                    (up as f64 / (to - from) as f64).to_bits(),
                    "availability of {node} on [{from}, {to})"
                );
            }
        }
    }

    /// A clone equals its source, and the derived wire format is the one
    /// the six-field hand-written impl produced (the string below is that
    /// impl's output) and round-trips.
    #[test]
    fn clone_equality_and_serde_wire_format() {
        let t = Trace::new(
            "pin",
            3,
            10 * HOUR,
            HOUR,
            vec![id(2)],
            vec![
                ev(0, 1, ChurnEventKind::Birth),
                ev(2 * HOUR, 1, ChurnEventKind::Leave),
                ev(4 * HOUR, 1, ChurnEventKind::Join),
                ev(HOUR, 2, ChurnEventKind::Birth),
                ev(3 * HOUR, 2, ChurnEventKind::Death),
            ],
        );
        assert_eq!(t, t.clone());
        let json = serde_json::to_string(&t).expect("traces serialize");
        assert_eq!(
            json,
            concat!(
                r#"{"name":"pin","stable_size":3,"horizon":36000000,"measure_from":3600000,"#,
                r#""control_group":[{"ip":[10,0,0,2],"port":4000}],"events":["#,
                r#"{"at":0,"node":{"ip":[10,0,0,1],"port":4000},"kind":"Birth"},"#,
                r#"{"at":3600000,"node":{"ip":[10,0,0,2],"port":4000},"kind":"Birth"},"#,
                r#"{"at":7200000,"node":{"ip":[10,0,0,1],"port":4000},"kind":"Leave"},"#,
                r#"{"at":10800000,"node":{"ip":[10,0,0,2],"port":4000},"kind":"Death"},"#,
                r#"{"at":14400000,"node":{"ip":[10,0,0,1],"port":4000},"kind":"Join"}]}"#,
            )
        );
        let back: Trace = serde_json::from_str(&json).expect("traces deserialize");
        assert_eq!(t, back);
    }

    #[test]
    fn up_transition_classification() {
        assert!(ChurnEventKind::Birth.is_up_transition());
        assert!(ChurnEventKind::Join.is_up_transition());
        assert!(!ChurnEventKind::Leave.is_up_transition());
        assert!(!ChurnEventKind::Death.is_up_transition());
    }
}
