//! Per-node protocol counters.
//!
//! The evaluation metrics of §5 — bandwidth (Fig. 19), computational
//! overhead (Figs. 7, 8, 12), useless pings (Fig. 18) — are all derived
//! from these counters. Drivers sample them periodically and difference
//! consecutive snapshots.

use serde::{Deserialize, Serialize};

/// Monotonic counters maintained by a [`Node`](crate::Node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct NodeStats {
    /// Messages emitted (all types).
    pub messages_sent: u64,
    /// Bytes emitted (wire-codec encoded size of every sent message).
    pub bytes_sent: u64,
    /// Messages received and processed.
    pub messages_received: u64,
    /// Bytes received (wire-codec encoded size).
    pub bytes_received: u64,
    /// Consistency-condition evaluations (the "computations" of Fig. 7:
    /// one hash evaluation each).
    pub hash_checks: u64,
    /// `NOTIFY` messages emitted after positive checks.
    pub notifies_sent: u64,
    /// JOIN messages forwarded on behalf of other nodes.
    pub joins_forwarded: u64,
    /// Monitoring pings sent to targets.
    pub monitor_pings_sent: u64,
    /// Monitoring pings suppressed by forgetful pinging.
    pub monitor_pings_suppressed: u64,
    /// Monitoring pongs received from targets.
    pub monitor_pongs_received: u64,
    /// Monitoring pings received (kept for the PR2 trigger and load stats).
    pub monitor_pings_received: u64,
    /// Coarse-view entries removed after ping/fetch timeouts.
    pub view_evictions: u64,
}

impl NodeStats {
    /// Accumulates `other` into `self` (for system-wide aggregation).
    pub fn merge(&mut self, other: &NodeStats) {
        self.messages_sent += other.messages_sent;
        self.bytes_sent += other.bytes_sent;
        self.messages_received += other.messages_received;
        self.bytes_received += other.bytes_received;
        self.hash_checks += other.hash_checks;
        self.notifies_sent += other.notifies_sent;
        self.joins_forwarded += other.joins_forwarded;
        self.monitor_pings_sent += other.monitor_pings_sent;
        self.monitor_pings_suppressed += other.monitor_pings_suppressed;
        self.monitor_pongs_received += other.monitor_pongs_received;
        self.monitor_pings_received += other.monitor_pings_received;
        self.view_evictions += other.view_evictions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut total = NodeStats::default();
        total.merge(&NodeStats {
            hash_checks: 7,
            ..Default::default()
        });
        total.merge(&NodeStats {
            hash_checks: 5,
            notifies_sent: 1,
            ..Default::default()
        });
        assert_eq!(total.hash_checks, 12);
        assert_eq!(total.notifies_sent, 1);
    }
}
