//! Applications written once against [`AvmonHandle`]: the §3.3
//! availability client every consumer of the overlay goes through, and
//! the workloads the portability suite runs on every world from the
//! same source.

use avmon::{AppEvent, DurMs, NodeId};

use crate::decision::Decision;
use crate::handle::AvmonHandle;

/// What a §3.3 availability query established about one node.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The node whose availability was queried.
    pub target: NodeId,
    /// Mean of the verified monitors' availability answers, if any.
    pub availability: Option<f64>,
    /// Per-monitor answers `(monitor, availability, samples)`, in arrival
    /// order.
    pub answers: Vec<(NodeId, f64, u64)>,
    /// Monitors whose claims verified.
    pub verified: Vec<NodeId>,
    /// Claims rejected by the consistency condition (evidence of lying).
    pub rejected: Vec<NodeId>,
    /// Monitors that verified but never answered (down or slow).
    pub unresponsive: Vec<NodeId>,
}

impl QueryOutcome {
    /// Whether the target tried to advertise unverifiable monitors.
    #[must_use]
    pub fn target_lied(&self) -> bool {
        !self.rejected.is_empty()
    }
}

/// The client side of an availability query (§3.3), from the node `h` is
/// bound to:
///
/// 1. ask `target` to report `l ≤ K` of its monitors ("it is the burden
///    of node x to report to node y the requisite number of its
///    monitoring nodes");
/// 2. keep only the claims the node's re-hash of the consistency
///    condition verified (`target` "cannot lie about these");
/// 3. ask each verified monitor for its measured history of `target`;
/// 4. average the answers.
///
/// Every wait ends in an answer or in the node's own request timeout, so
/// the query finishes as long as the asking node stays up. A silent
/// target, `l == 0`, or a node asking about itself yields an empty
/// outcome. Events that are not answers to this query are discarded —
/// see `handle.rs` on why nothing else may read this node's inbox
/// meanwhile.
pub async fn query_availability(h: &AvmonHandle, target: NodeId, l: u8) -> QueryOutcome {
    let mut outcome = QueryOutcome {
        target,
        availability: None,
        answers: Vec::new(),
        verified: Vec::new(),
        rejected: Vec::new(),
        unresponsive: Vec::new(),
    };
    if l == 0 || target == h.id() {
        return outcome;
    }
    h.request_report(target, l);
    loop {
        match h.next_event().await.1 {
            AppEvent::ReportOutcome {
                target: t,
                verification,
            } if t == target => {
                outcome.verified = verification.verified;
                outcome.rejected = verification.rejected;
                break;
            }
            AppEvent::RequestTimedOut { peer } if peer == target => return outcome,
            _ => {}
        }
    }
    let mut outstanding = Vec::new();
    for &monitor in &outcome.verified {
        if monitor == h.id() {
            // This node is one of `target`'s monitors: a node never
            // messages itself, it reads its own record.
            outcome.answers.extend(own_measurement(h, target));
        } else {
            h.request_history(monitor, target);
            outstanding.push(monitor);
        }
    }
    while !outstanding.is_empty() {
        match h.next_event().await.1 {
            AppEvent::HistoryOutcome {
                monitor,
                target: t,
                availability,
                samples,
            } if t == target && settle(&mut outstanding, monitor) => {
                // `None`: the monitor holds no data on `target` yet.
                outcome
                    .answers
                    .extend(availability.map(|a| (monitor, a, samples)));
            }
            AppEvent::RequestTimedOut { peer } if settle(&mut outstanding, peer) => {
                outcome.unresponsive.push(peer);
            }
            _ => {}
        }
    }
    if !outcome.answers.is_empty() {
        let sum: f64 = outcome.answers.iter().map(|&(_, a, _)| a).sum();
        outcome.availability = Some(sum / outcome.answers.len() as f64);
    }
    outcome
}

/// Strikes `monitor` off the monitors still awaited; `false` if it was not
/// among them (an answer counts once, and only when asked for).
fn settle(outstanding: &mut Vec<NodeId>, monitor: NodeId) -> bool {
    let pos = outstanding.iter().position(|&m| m == monitor);
    pos.map(|pos| outstanding.swap_remove(pos)).is_some()
}

/// What the handle's own node has measured for `target`, as the answer
/// it would give a history request: `(itself, availability, samples)`.
fn own_measurement(h: &AvmonHandle, target: NodeId) -> Option<(NodeId, f64, u64)> {
    let snapshot = h.snapshot()?;
    let (_, record) = snapshot
        .persistent
        .targets
        .iter()
        .find(|(t, _)| *t == target)?;
    Some((h.id(), record.availability_estimate()?, record.pings_sent))
}

/// Periodic least-available-k selector with a churn watchdog — the
/// headline example app of the portability suite.
///
/// Every `period` ms the task drains its event inbox, records an
/// [`Decision::Alarm`] for each [`AppEvent::TargetUnresponsive`], then
/// snapshots its node and records a [`Decision::Select`] of the `k`
/// least-available targets (ties broken by id; targets with no estimate
/// yet count as fully available). Consecutive identical selections are
/// deduplicated, so the decision sequence captures *changes* — the
/// timing-robust signal the hub≡sim differential compares.
///
/// The task starts with a jittered phase drawn from the `app` RNG
/// stream, so any run that attaches it has a nonzero `app_draws` ledger
/// entry — the ledger suites rely on that.
pub async fn watchdog_selector(h: AvmonHandle, period: DurMs, k: usize) {
    let phase = h.rng_u64() % period.max(1);
    h.sleep(phase).await;
    let mut last: Option<Vec<NodeId>> = None;
    loop {
        h.sleep(period).await;
        for (at, event) in h.drain_events() {
            if let AppEvent::TargetUnresponsive { target } = event {
                h.record(Decision::Alarm {
                    at,
                    node: h.id(),
                    target,
                });
            }
        }
        let Some(snap) = h.snapshot() else { continue };
        let mut candidates: Vec<(f64, NodeId)> = snap
            .ts
            .iter()
            .map(|&t| {
                let est = snap
                    .estimates
                    .iter()
                    .find(|(id, _)| *id == t)
                    .map_or(1.0, |(_, e)| *e);
                (est, t)
            })
            .collect();
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let chosen: Vec<NodeId> = candidates.into_iter().take(k).map(|(_, id)| id).collect();
        if last.as_ref() != Some(&chosen) {
            h.record(Decision::Select {
                at: h.now(),
                node: h.id(),
                chosen: chosen.clone(),
            });
            last = Some(chosen);
        }
    }
}

/// Minimal app-messaging pair: `ping_sender` sends `payload` to `to`
/// every `period` ms; [`echo_listener`] records nothing but re-sends each
/// received payload back to its sender. Used by the suite to prove
/// `AppData` travels the overlay.
pub async fn ping_sender(h: AvmonHandle, to: NodeId, payload: Vec<u8>, period: DurMs) {
    loop {
        h.sleep(period).await;
        h.send_app(to, payload.clone());
    }
}

/// Counterpart of [`ping_sender`]: echoes every received payload back and
/// records an [`Decision::Alarm`]-free marker via `Select` with the
/// sender as the single chosen node, so tests can observe receipt through
/// the decision log alone.
pub async fn echo_listener(h: AvmonHandle) {
    loop {
        let (at, event) = h.next_event().await;
        if let AppEvent::AppData { from, payload } = event {
            h.send_app(from, payload);
            h.record(Decision::Select {
                at,
                node: h.id(),
                chosen: vec![from],
            });
        }
    }
}
