//! The serialized record of what an application *decided* — the unit of
//! comparison for the sim≡sim (byte-identical) and sim≡live (sequence-
//! matching) differential suites.

use avmon::{NodeId, TimeMs};
use serde::{Deserialize, Serialize};

/// One observable application decision.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// A periodic least-available-k selection changed (consecutive
    /// identical selections are deduplicated by the app).
    Select {
        /// When the selection was made (sim time, or epoch-relative ms
        /// under the live executor).
        at: TimeMs,
        /// The deciding node.
        node: NodeId,
        /// The k least-available targets, least-available first.
        chosen: Vec<NodeId>,
    },
    /// The churn watchdog saw a monitored target go unresponsive.
    Alarm {
        /// When the underlying [`avmon::AppEvent::TargetUnresponsive`]
        /// fired.
        at: TimeMs,
        /// The alarming node.
        node: NodeId,
        /// The suspected target.
        target: NodeId,
    },
}

/// Ordered log of every decision an executor's tasks recorded.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct DecisionLog {
    /// Decisions in the order they were recorded.
    pub decisions: Vec<Decision>,
}

impl DecisionLog {
    /// Serializes the log (the byte string the determinism suite
    /// compares across same-seed runs).
    ///
    /// # Panics
    ///
    /// Panics if serialization fails, which a log of plain data cannot do.
    #[must_use]
    #[expect(clippy::expect_used, reason = "a log of plain data always serializes")]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("decision logs serialize")
    }

    /// The last `Select` decision `node` recorded, if any — the
    /// "eventual selection" the sim≡live differential compares, robust
    /// to the two executors reaching it through different timings.
    #[must_use]
    pub fn final_selection(&self, node: NodeId) -> Option<&[NodeId]> {
        self.decisions.iter().rev().find_map(|d| match d {
            Decision::Select {
                node: n, chosen, ..
            } if *n == node => Some(chosen.as_slice()),
            _ => None,
        })
    }

    /// Every target `node` raised an alarm for, in order, duplicates
    /// retained.
    #[must_use]
    pub fn alarm_targets(&self, node: NodeId) -> Vec<NodeId> {
        self.decisions
            .iter()
            .filter_map(|d| match d {
                Decision::Alarm {
                    node: n, target, ..
                } if *n == node => Some(*target),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_round_trips_and_queries() {
        let a = NodeId::from_index(1);
        let b = NodeId::from_index(2);
        let log = DecisionLog {
            decisions: vec![
                Decision::Select {
                    at: 10,
                    node: a,
                    chosen: vec![b],
                },
                Decision::Alarm {
                    at: 20,
                    node: a,
                    target: b,
                },
                Decision::Select {
                    at: 30,
                    node: a,
                    chosen: vec![a, b],
                },
            ],
        };
        let back: DecisionLog = serde_json::from_str(&log.to_json()).unwrap();
        assert_eq!(back, log);
        assert_eq!(log.final_selection(a), Some(&[a, b][..]));
        assert_eq!(log.final_selection(b), None);
        assert_eq!(log.alarm_targets(a), vec![b]);
    }
}
