//! Protocol messages.
//!
//! All node-to-node communication of every AVMON sub-protocol is expressed
//! in the [`Message`] enum: the JOIN spanning tree (Fig. 1), coarse-view
//! maintenance and discovery (Fig. 2), `NOTIFY`, monitoring pings (§3.3),
//! monitor reporting (§3.3 "l out of K"), the PR2 re-advertisement
//! optimization (§5.4), and the Broadcast baseline (Table 1).

use serde::{Deserialize, Serialize};

use crate::NodeId;

/// A request/response correlation token, drawn from the sender's RNG.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Nonce(pub u64);

impl core::fmt::Display for Nonce {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{:x}", self.0)
    }
}

/// An AVMON wire message.
///
/// The wire encoding lives in [`crate::codec`]; sizes there define the
/// bandwidth accounting used in the paper's Figure 19 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Fig. 1: `JOIN(origin, weight)`, plus the hop counter of DESIGN.md
    /// clarification 1.
    Join {
        /// The (re-)joining node.
        origin: NodeId,
        /// Remaining spanning-tree weight `c`.
        weight: u32,
        /// Hops travelled so far (loop protection).
        hops: u32,
    },
    /// A joining node asking its contact for an initial view to inherit.
    InitViewRequest {
        /// Correlation token.
        nonce: Nonce,
    },
    /// Reply carrying the contact's coarse view.
    InitViewReply {
        /// Correlation token.
        nonce: Nonce,
        /// The contact's current coarse-view entries.
        view: Vec<NodeId>,
    },
    /// Fig. 2 liveness probe of a random coarse-view entry.
    ViewPing {
        /// Correlation token.
        nonce: Nonce,
    },
    /// Response to [`Message::ViewPing`].
    ViewPong {
        /// Correlation token.
        nonce: Nonce,
    },
    /// Fig. 2 coarse-view fetch request.
    ViewFetch {
        /// Correlation token.
        nonce: Nonce,
    },
    /// Reply carrying the full coarse view of the responder.
    ViewFetchReply {
        /// Correlation token.
        nonce: Nonce,
        /// The responder's coarse-view entries.
        view: Vec<NodeId>,
    },
    /// Fig. 2: `NOTIFY(monitor, target)` — the pair satisfies the
    /// consistency condition; sent to both endpoints.
    Notify {
        /// The node that should monitor `target`.
        monitor: NodeId,
        /// The node to be monitored.
        target: NodeId,
    },
    /// §3.3 availability-monitoring probe from a monitor to a target.
    MonitorPing {
        /// Correlation token.
        nonce: Nonce,
    },
    /// Response to [`Message::MonitorPing`].
    MonitorPong {
        /// Correlation token.
        nonce: Nonce,
    },
    /// §3.3: ask a node to report `count` of its own monitors.
    ReportRequest {
        /// Correlation token.
        nonce: Nonce,
        /// How many monitors to report (`l` in the paper's policy).
        count: u8,
    },
    /// The monitors a node claims for itself (verifiable by the receiver).
    ReportReply {
        /// Correlation token.
        nonce: Nonce,
        /// Claimed pinging-set members.
        monitors: Vec<NodeId>,
    },
    /// Ask a monitor for its measured availability of `target`.
    HistoryRequest {
        /// Correlation token.
        nonce: Nonce,
        /// The monitored node of interest.
        target: NodeId,
    },
    /// A monitor's availability answer for `target`.
    HistoryReply {
        /// Correlation token.
        nonce: Nonce,
        /// The monitored node of interest.
        target: NodeId,
        /// Measured availability in `[0,1]`, if `target` is monitored here.
        availability: Option<f64>,
        /// Number of monitoring pings backing the estimate.
        samples: u64,
    },
    /// §5.4 PR2: "force all coarse-view nodes to add me".
    AddMeRequest,
    /// Broadcast-baseline presence announcement (Table 1, from \[11\]).
    Presence {
        /// The joining node.
        origin: NodeId,
    },
    /// Opaque application payload carried over the AVMON overlay. The
    /// protocol never inspects it; the receiving node surfaces it to the
    /// application layer as [`crate::AppEvent::AppData`].
    AppData {
        /// Application-defined bytes (capped at [`crate::codec::MAX_APP_PAYLOAD`]).
        payload: Vec<u8>,
    },
}

impl Message {
    /// Whether this is an availability-monitoring ping (used by the
    /// simulator's "useless ping" accounting, Fig. 18).
    #[must_use]
    pub fn is_monitoring_ping(&self) -> bool {
        matches!(self, Message::MonitorPing { .. })
    }

    /// A short stable label for per-message-type accounting.
    #[must_use]
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Join { .. } => MessageKind::Join,
            Message::InitViewRequest { .. } => MessageKind::InitViewRequest,
            Message::InitViewReply { .. } => MessageKind::InitViewReply,
            Message::ViewPing { .. } => MessageKind::ViewPing,
            Message::ViewPong { .. } => MessageKind::ViewPong,
            Message::ViewFetch { .. } => MessageKind::ViewFetch,
            Message::ViewFetchReply { .. } => MessageKind::ViewFetchReply,
            Message::Notify { .. } => MessageKind::Notify,
            Message::MonitorPing { .. } => MessageKind::MonitorPing,
            Message::MonitorPong { .. } => MessageKind::MonitorPong,
            Message::ReportRequest { .. } => MessageKind::ReportRequest,
            Message::ReportReply { .. } => MessageKind::ReportReply,
            Message::HistoryRequest { .. } => MessageKind::HistoryRequest,
            Message::HistoryReply { .. } => MessageKind::HistoryReply,
            Message::AddMeRequest => MessageKind::AddMeRequest,
            Message::Presence { .. } => MessageKind::Presence,
            Message::AppData { .. } => MessageKind::AppData,
        }
    }
}

/// Message discriminants, for accounting tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MessageKind {
    Join,
    InitViewRequest,
    InitViewReply,
    ViewPing,
    ViewPong,
    ViewFetch,
    ViewFetchReply,
    Notify,
    MonitorPing,
    MonitorPong,
    ReportRequest,
    ReportReply,
    HistoryRequest,
    HistoryReply,
    AddMeRequest,
    Presence,
    AppData,
}

impl core::fmt::Display for MessageKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

#[expect(clippy::disallowed_types, reason = "tests are exempt")]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_covers_all_variants() {
        let msgs = vec![
            Message::Join {
                origin: NodeId::from_index(1),
                weight: 3,
                hops: 0,
            },
            Message::InitViewRequest { nonce: Nonce(1) },
            Message::InitViewReply {
                nonce: Nonce(1),
                view: vec![],
            },
            Message::ViewPing { nonce: Nonce(2) },
            Message::ViewPong { nonce: Nonce(2) },
            Message::ViewFetch { nonce: Nonce(3) },
            Message::ViewFetchReply {
                nonce: Nonce(3),
                view: vec![NodeId::from_index(9)],
            },
            Message::Notify {
                monitor: NodeId::from_index(1),
                target: NodeId::from_index(2),
            },
            Message::MonitorPing { nonce: Nonce(4) },
            Message::MonitorPong { nonce: Nonce(4) },
            Message::ReportRequest {
                nonce: Nonce(5),
                count: 3,
            },
            Message::ReportReply {
                nonce: Nonce(5),
                monitors: vec![],
            },
            Message::HistoryRequest {
                nonce: Nonce(6),
                target: NodeId::from_index(7),
            },
            Message::HistoryReply {
                nonce: Nonce(6),
                target: NodeId::from_index(7),
                availability: Some(0.5),
                samples: 10,
            },
            Message::AddMeRequest,
            Message::Presence {
                origin: NodeId::from_index(8),
            },
            Message::AppData {
                payload: vec![1, 2, 3],
            },
        ];
        let kinds: std::collections::HashSet<_> = msgs.iter().map(Message::kind).collect();
        assert_eq!(
            kinds.len(),
            msgs.len(),
            "each variant maps to a distinct kind"
        );
    }

    #[test]
    fn monitoring_ping_detection() {
        assert!(Message::MonitorPing { nonce: Nonce(0) }.is_monitoring_ping());
        assert!(!Message::ViewPing { nonce: Nonce(0) }.is_monitoring_ping());
    }

    #[test]
    fn nonce_displays_in_hex() {
        assert_eq!(Nonce(255).to_string(), "#ff");
    }
}
