//! Availability monitoring: periodic pings to the target set, forgetful
//! pinging (§3.3), and the report/history services.
//!
//! All effects are queued on the node's internal output queues and drained
//! by the driver through the poll interface.

use super::{Node, Pending};
use crate::message::{Message, Nonce};
use crate::time::{Stamp, TimeMs};
use crate::NodeId;

impl Node {
    /// One monitoring period (§3.3): ping every target in `TS(x)`, subject
    /// to the forgetful-pinging schedule for unresponsive targets.
    pub(super) fn monitoring_period(&mut self, now: TimeMs) {
        // Decide which targets to ping. (Collected first: the send path
        // needs `&mut self`.)
        let mut to_ping: Vec<NodeId> = Vec::with_capacity(self.targets.len());
        let mut suppressed = 0u64;
        for (&target, rec) in self.targets.iter() {
            let since = rec.unresponsive_since.map(Stamp::ms);
            let ping = match (self.config.forgetful, since) {
                (Some(f), Some(since)) if now.saturating_sub(since) > f.tau => {
                    // Forgetful pinging: probability c·ts/(ts+t). `ts` is
                    // floored at one monitoring period — a target that was
                    // never seen up would otherwise be dropped forever.
                    let t = now.saturating_sub(since) as f64;
                    let ts = rec.last_session.max(self.config.monitoring_period) as f64;
                    let p = (f.c * ts / (ts + t)).clamp(0.0, 1.0);
                    self.rng.gen_bool(p)
                }
                _ => true,
            };
            if ping {
                to_ping.push(target);
            } else {
                suppressed += 1;
            }
        }
        self.stats.monitor_pings_suppressed += suppressed;

        for target in to_ping {
            let nonce = self.begin_request(now, Pending::MonitorPing { peer: target });
            self.send(target, Message::MonitorPing { nonce });
            self.stats.monitor_pings_sent += 1;
            if let Some(rec) = self.targets.get_mut(&target) {
                rec.pings_sent += 1;
            }
        }
    }

    /// A target answered its monitoring ping.
    pub(super) fn record_pong(&mut self, now: TimeMs, target: NodeId) {
        self.stats.monitor_pongs_received += 1;
        let mut resumed = false;
        if let Some(rec) = self.targets.get_mut(&target) {
            rec.pongs_received += 1;
            if rec.unresponsive_since.take().is_some() {
                // The target just came back: a new observed up-session
                // begins and the suspicion is retracted.
                rec.session_start = Some(Stamp::new(now));
                resumed = true;
            } else if rec.session_start.is_none() {
                // The very first observation also opens an up-session.
                rec.session_start = Some(Stamp::new(now));
            }
            rec.last_pong = Some(Stamp::new(now));
        }
        if resumed {
            self.emit(super::AppEvent::TargetResponsive { target });
        }
    }

    /// A monitoring ping to `target` timed out.
    pub(super) fn record_miss(&mut self, now: TimeMs, target: NodeId) {
        let mut suspected = false;
        if let Some(rec) = self.targets.get_mut(&target) {
            if rec.unresponsive_since.is_none() {
                rec.unresponsive_since = Some(Stamp::new(now));
                suspected = true;
                // Close the observed up-session: ts(u) := its length.
                if let (Some(start), Some(last)) = (rec.session_start.take(), rec.last_pong) {
                    rec.last_session = last.ms().saturating_sub(start.ms());
                }
            }
        }
        if suspected {
            self.emit(super::AppEvent::TargetUnresponsive { target });
        }
    }

    /// §3.3 report service: "it is the burden of node x to report to node y
    /// the requisite number of its monitoring nodes". A selfish advertiser
    /// substitutes its fake list — which verification then rejects.
    pub(super) fn serve_report(&mut self, from: NodeId, nonce: Nonce, count: u8) {
        let monitors = self.report_answer(count);
        self.send(from, Message::ReportReply { nonce, monitors });
    }

    /// The monitor list this node gives a report request for `count`
    /// monitors.
    pub(super) fn report_answer(&mut self, count: u8) -> Vec<NodeId> {
        match self.behavior().fake_report() {
            Some(fakes) => fakes.iter().copied().take(usize::from(count)).collect(),
            None => {
                // Any `l` of PS(x) will do; sample without replacement.
                let mut candidates: Vec<NodeId> = self.ps.iter().copied().collect();
                let take = usize::from(count).min(candidates.len());
                for i in 0..take {
                    let j = self.rng.gen_range(i..candidates.len());
                    candidates.swap(i, j);
                }
                candidates.truncate(take);
                candidates
            }
        }
    }

    /// Availability-history service: answers with the measured estimate, or
    /// a misreported 100% under the overreporting / collusion behaviors.
    pub(super) fn serve_history(&mut self, from: NodeId, nonce: Nonce, target: NodeId) {
        let (availability, samples) = self.history_answer(target);
        self.send(
            from,
            Message::HistoryReply {
                nonce,
                target,
                availability,
                samples,
            },
        );
    }

    /// The `(availability, samples)` this node gives a history request
    /// about `target`: the §5.4 ping fraction over every ping sent
    /// (DESIGN.md §2, note 3).
    pub(super) fn history_answer(&self, target: NodeId) -> (Option<f64>, u64) {
        if self.behavior().misreports(target) {
            let samples = self.targets.get(&target).map_or(0, |r| r.pings_sent);
            (Some(1.0), samples)
        } else {
            match self.targets.get(&target) {
                Some(rec) => (rec.availability_estimate(), rec.pings_sent),
                None => (None, 0),
            }
        }
    }
}
