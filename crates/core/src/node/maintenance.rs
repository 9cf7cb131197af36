//! Coarse-view maintenance and monitor discovery (Figs. 1 and 2).
//!
//! All effects are queued on the node's internal output queues and drained
//! by the driver through the poll interface.

use super::{AppEvent, Node, Pending, TargetRecord};
use crate::message::Message;
use crate::selector::MonitorSelector;
use crate::time::{Stamp, TimeMs};
use crate::NodeId;

/// Calls `f` on every entry of `entries` whose index `matches` does not
/// report, in order; `matches` reports indices in increasing order.
fn for_each_skipped(
    entries: &[NodeId],
    matches: impl FnOnce(&mut dyn FnMut(usize)),
    f: &mut impl FnMut(NodeId),
) {
    let mut next = 0;
    matches(&mut |i| {
        for &entry in entries.get(next..i).unwrap_or_default() {
            f(entry);
        }
        next = next.max(i + 1);
    });
    for &entry in entries.get(next..).unwrap_or_default() {
        f(entry);
    }
}

impl Node {
    /// One protocol period of the coarse-membership protocol (Fig. 2):
    /// liveness-ping one random view entry, fetch the view of another, and
    /// (if enabled) run the PR2 re-advertisement check.
    pub(super) fn protocol_period(&mut self, now: TimeMs) {
        // Behavior-driven corruption: a lying monitor adopts its forged
        // targets without any consistency-condition check. Honest nodes
        // never take this branch.
        if self.behavior().fake_targets().is_some() {
            self.adopt_fake_targets(now);
        }

        // Self-stabilization audit (Avatar framing): PS/TS membership is
        // fully determined by the hash condition, so an honest node can
        // re-derive the legitimacy of every entry locally. Any entry a
        // state corruption planted (or that a healed attack left behind)
        // fails the condition and is purged; on uncorrupted state this
        // removes nothing, draws no randomness, and sends no messages.
        // Dropped entries are not recreated here — they re-heal through
        // ordinary NOTIFY re-discovery, which is what the stabilization
        // bound is derived from. Forging behaviors skip the audit: they
        // keep their forged entries on purpose.
        if !self.behavior().forges_state() {
            self.audit_sets();
        }

        // Eclipse campaign: flood each victim with forged NOTIFYs claiming
        // every coalition member as its monitor. The victim re-verifies
        // (§3.3), so this measures eclipse *resistance* — only members the
        // hash condition genuinely selects ever enter the victim's PS.
        if self.behavior().eclipse_flood().is_some() {
            self.flood_eclipse_notifies();
        }

        // Age out the notified cache: suppressed NOTIFYs become eligible
        // for retransmission every few periods, so a copy lost to the
        // network (loss, partitions) is eventually replaced. See the field
        // docs on `Node::notified_cleared_at`.
        if now.saturating_sub(self.notified_cleared_at) >= 8 * self.config.protocol_period {
            self.notified.clear();
            self.notified_cleared_at = now;
        }

        // 0. Loss recovery (not in the paper, whose network is reliable):
        //    an empty view means this node is invisible and blind — its
        //    original JOIN or view inheritance was lost. Retry through the
        //    join contact.
        if self.view.is_empty() {
            if let Some(contact) = self.contact {
                self.send(
                    contact,
                    Message::Join {
                        origin: self.id,
                        weight: self.config.cvs as u32,
                        hops: 0,
                    },
                );
                let nonce = self.begin_request(now, Pending::InitView { peer: contact });
                self.send(contact, Message::InitViewRequest { nonce });
            }
            return;
        }

        // 0b. Visibility recovery (deviation, see `last_view_probe_rx`):
        //     several silent periods mean no coarse view holds this node
        //     any more — a state only reachable when the network loses
        //     messages, and unrecoverable by the paper's protocol alone.
        //     Re-advertise to the current view entries (as PR2 would) and
        //     back off for another detection window.
        let visibility_basis = self.last_view_probe_rx.map_or(self.started_at, Stamp::ms);
        if now.saturating_sub(visibility_basis) >= 6 * self.config.protocol_period {
            self.last_view_probe_rx = Some(Stamp::new(now));
            self.readvertise();
        }

        // 1. Ping a random coarse-view entry; unresponsive ⇒ removed (via
        //    the Expire timer).
        if let Some(z) = self.view.pick_random(&mut self.rng) {
            let nonce = self.begin_request(now, Pending::ViewPing { peer: z });
            self.send(z, Message::ViewPing { nonce });
        }

        // 2. Fetch the coarse view of another random entry.
        if let Some(w) = self.view.pick_random(&mut self.rng) {
            let nonce = self.begin_request(now, Pending::ViewFetch { peer: w });
            self.send(w, Message::ViewFetch { nonce });
        }

        // 3. PR2 (§5.4): if no monitoring ping has arrived for two protocol
        //    periods, force all view entries to re-add this node.
        if self.config.pr2 {
            let rx = self.last_monitor_ping_rx.map(Stamp::ms);
            let basis = match (rx, self.pr2_last_fired.map(Stamp::ms)) {
                (Some(rx), Some(fired)) => rx.max(fired),
                (Some(rx), None) => rx,
                (None, Some(fired)) => fired,
                (None, None) => self.started_at,
            };
            if now.saturating_sub(basis) >= 2 * self.config.protocol_period {
                self.pr2_last_fired = Some(Stamp::new(now));
                self.readvertise();
            }
        }
    }

    /// Asks every current coarse-view entry to re-add this node — shared
    /// by PR2 (§5.4) and visibility recovery.
    fn readvertise(&mut self) {
        let peers: Vec<NodeId> = self.view.iter().collect();
        for peer in peers {
            self.send(peer, Message::AddMeRequest);
        }
    }

    /// Purges every PS/TS entry the consistency condition does not
    /// actually select — the honest node's self-stabilization step — with
    /// one `sets_epoch` bump per entry purged. The entries are the ones
    /// [`Node::for_each_unselected`] reports, the node itself included.
    /// Nothing is added to `hash_checks` (and with it report byte-identity
    /// on clean runs is unaffected).
    pub(super) fn audit_sets(&mut self) {
        let mut stale = Vec::new();
        self.for_each_unselected(&*self.selector, |in_ps, entry| stale.push((in_ps, entry)));
        for (in_ps, entry) in stale {
            if in_ps {
                self.ps.remove(&entry);
            } else {
                self.targets.remove(&entry);
            }
            self.sets_epoch += 1;
        }
    }

    /// Reports every `PS`/`TS` entry the consistency condition, evaluated
    /// by `selector`, does not select: `f(true, m)` for each `m ∈ PS(x)`
    /// that is not a monitor of `x`, then `f(false, t)` for each
    /// `t ∈ TS(x)` that `x` does not monitor, each set in identity order.
    /// The condition runs as the selector's batch matches of `PS × {x}` and
    /// `{x} × TS`, whose diagonal is never reported, so `x` itself always
    /// counts as unselected. Bumps no counter: both the node's own
    /// [`audit`](Node::audit_sets) and an outside checker re-verifying the
    /// sets call this, and neither is protocol work.
    pub fn for_each_unselected(
        &self,
        selector: &dyn MonitorSelector,
        mut f: impl FnMut(bool, NodeId),
    ) {
        let me = [self.id];
        let (ps, ts) = (self.ps.as_slice(), self.targets.key_slice());
        for_each_skipped(
            ps,
            |hit| selector.accepted_pairs(ps, &me, &mut |mi, _| hit(mi)),
            &mut |m| f(true, m),
        );
        for_each_skipped(
            ts,
            |hit| selector.accepted_pairs(&me, ts, &mut |_, ti| hit(ti)),
            &mut |t| f(false, t),
        );
    }

    /// [`crate::Behavior::EclipseCoalition`]: once per protocol period,
    /// send every victim a forged `NOTIFY(member, victim)` for each
    /// coalition member, trying to capture the victim's monitor slots.
    fn flood_eclipse_notifies(&mut self) {
        let Some(behavior) = self.behavior.clone() else {
            return;
        };
        let (coalition, victims) = behavior.eclipse_flood().unwrap_or_default();
        let me = self.id;
        for &victim in victims.iter().filter(|&&v| v != me) {
            for &member in coalition.iter().filter(|&&c| c != victim) {
                self.send_notify(victim, member, victim);
            }
        }
    }

    /// Fig. 1: processing of a `JOIN(origin, c)` message.
    pub(super) fn handle_join(&mut self, _now: TimeMs, origin: NodeId, weight: u32, hops: u32) {
        if weight == 0 || hops >= self.config.join_hop_limit {
            return;
        }
        // Eclipse coalitions starve their victims: a victim's JOIN is
        // neither absorbed nor forwarded.
        if self.behavior().suppresses_join(origin) {
            return;
        }
        let mut c = weight;
        if origin != self.id && !self.view.contains(origin) {
            self.view.insert_or_replace(origin, &mut self.rng);
            c -= 1;
            self.emit(AppEvent::JoinAbsorbed { origin });
        }
        if c == 0 {
            return;
        }
        // Split the remaining weight into ⌊c/2⌋ and ⌈c/2⌉ and forward each
        // to a random coarse-view entry (never back to the origin itself).
        let halves = [c / 2, c - c / 2];
        for half in halves {
            if half == 0 {
                continue;
            }
            if let Some(next) = self.view.pick_random_excluding(&mut self.rng, origin) {
                self.stats.joins_forwarded += 1;
                self.send(
                    next,
                    Message::Join {
                        origin,
                        weight: half,
                        hops: hops + 1,
                    },
                );
            }
        }
    }

    /// Fig. 2 core: on receiving `CV(w)`, cross-check the consistency
    /// condition over `({CV(x)∪{x,w}} × {CV(w)∪{x,w}})` in both orders,
    /// `NOTIFY` both endpoints of each match, then shuffle the view.
    ///
    /// The condition is evaluated by two `accepted_pairs` calls, one per
    /// order, not per pair: a hashing selector batches them (DESIGN.md §7).
    pub(super) fn process_fetched_view(&mut self, now: TimeMs, w: NodeId, fetched: &[NodeId]) {
        let (side_a, side_b) = self.fig2_sides(w, fetched);

        // The condition over every off-diagonal pair in both orders, from
        // the selector's batch enumeration: `(a, b, false)` stands for
        // `(A[a], B[b])` and `(a, b, true)` for `(B[b], A[a])`. Sorted, the
        // matches are in the order of the loop "for u in A, for v in B,
        // (u, v) then (v, u)", which the NOTIFY walk below depends on
        // through `mark_notified`.
        let mut matches: Vec<(usize, usize, bool)> = Vec::new();
        self.selector
            .accepted_pairs(&side_a, &side_b, &mut |a, b| matches.push((a, b, false)));
        self.selector
            .accepted_pairs(&side_b, &side_a, &mut |b, a| matches.push((a, b, true)));
        matches.sort_unstable();

        // `hash_checks` counts the cross-check's evaluations as the paper
        // does: both orders of every off-diagonal pair — except the pairs
        // an eclipse member suppresses, dropping honest NOTIFYs that would
        // help a victim (re)discover non-coalition monitors unevaluated.
        let diagonal = side_a.iter().filter(|u| side_b.contains(u)).count();
        let mut evaluated = 2 * (side_a.len() * side_b.len() - diagonal);
        if self.behavior().eclipse_flood().is_some() {
            for &u in &side_a {
                for &v in side_b.iter().filter(|&&v| v != u) {
                    evaluated -= usize::from(self.behavior().suppresses_notify(u, v))
                        + usize::from(self.behavior().suppresses_notify(v, u));
                }
            }
        }
        self.stats.hash_checks += evaluated as u64;

        for (a, b, reversed) in matches {
            let (monitor, target) = if reversed {
                (side_b[b], side_a[a])
            } else {
                (side_a[a], side_b[b])
            };
            if !self.behavior().suppresses_notify(monitor, target)
                && self.mark_notified(monitor, target)
            {
                self.notify_pair(now, monitor, target);
            }
        }

        // Shuffle: CV(x) := cvs random entries of CV(x) ∪ CV(w) ∪ {w}.
        self.view.shuffle_merge(w, fetched, &mut self.rng);
    }

    /// The two sides of the Fig. 2 cross-check, each duplicate-free and in
    /// first-seen order: `A = CV(x) ∪ {x, w}` and `B = CV(w) ∪ {x, w}`,
    /// where `x` is this node and `fetched` is `CV(w)` as `w` sent it.
    ///
    /// Receiving `w`'s `ViewFetchReply` evaluates exactly
    /// `accepted_pairs(A, B)` and then `accepted_pairs(B, A)` over these
    /// sides, taken from the node's view as it stands at that moment. A
    /// driver that can guess `CV(w)` earlier — the simulator reads it when
    /// it routes the `ViewFetch` — can therefore hash the cross-check ahead
    /// of time and check its guess by comparing sides.
    #[must_use]
    pub fn fig2_sides(&self, w: NodeId, fetched: &[NodeId]) -> (Vec<NodeId>, Vec<NodeId>) {
        let mut side_a: Vec<NodeId> = self.view.iter().collect();
        let mut side_b: Vec<NodeId> = Vec::with_capacity(fetched.len() + 2);
        for &v in fetched {
            if !side_b.contains(&v) {
                side_b.push(v);
            }
        }
        for side in [&mut side_a, &mut side_b] {
            for end in [self.id, w] {
                if !side.contains(&end) {
                    side.push(end);
                }
            }
        }
        (side_a, side_b)
    }

    /// [`crate::Behavior::FakeMonitor`]: force the forged targets into
    /// `TS` as if a NOTIFY had verified, emitting the same discovery
    /// events a real adoption would — once per target, however often the
    /// forged list names it.
    fn adopt_fake_targets(&mut self, now: TimeMs) {
        let Some(behavior) = self.behavior.clone() else {
            return;
        };
        for &target in behavior.fake_targets().unwrap_or_default() {
            if target != self.id && !self.targets.contains_key(&target) {
                self.adopt_target(now, target);
            }
        }
    }

    /// Records that `(monitor, target)` has been notified; returns whether
    /// it is new. The cache is cleared when full, so retransmission is
    /// merely delayed, never suppressed forever.
    pub(super) fn mark_notified(&mut self, monitor: NodeId, target: NodeId) -> bool {
        if self.notified.len() >= self.notified_cap() {
            self.notified.clear();
        }
        self.notified.insert((monitor, target))
    }

    /// Sends `NOTIFY(monitor, target)` to both endpoints, handling the case
    /// where one endpoint is this node itself.
    pub(super) fn notify_pair(&mut self, now: TimeMs, monitor: NodeId, target: NodeId) {
        for endpoint in [monitor, target] {
            if endpoint == self.id {
                self.handle_notify(now, monitor, target);
            } else {
                self.send_notify(endpoint, monitor, target);
            }
        }
    }

    /// §3.3: `NOTIFY(monitor, target)` reception — re-verify the condition
    /// and update `PS` / `TS`.
    pub(super) fn handle_notify(&mut self, now: TimeMs, monitor: NodeId, target: NodeId) {
        if monitor == target {
            return;
        }
        if target == self.id && monitor != self.id && !self.ps.contains(&monitor) {
            // Someone claims `monitor` should monitor me: verify, then admit.
            if self.check(monitor, target) {
                self.admit_monitor(monitor);
            }
        }
        if monitor == self.id && target != self.id && !self.targets.contains_key(&target) {
            // Someone claims I should monitor `target`: verify, then adopt.
            if self.check(monitor, target) {
                self.adopt_target(now, target);
            }
        }
    }

    /// Broadcast-baseline presence handling (Table 1): the receiver checks
    /// both directions of the condition against the joiner directly.
    pub(super) fn handle_presence(&mut self, now: TimeMs, origin: NodeId) {
        if origin == self.id {
            return;
        }
        // Do I monitor the joiner?
        if !self.targets.contains_key(&origin) && self.check(self.id, origin) {
            self.adopt_target(now, origin);
            self.send_notify(origin, self.id, origin);
        }
        // Does the joiner monitor me?
        if !self.ps.contains(&origin) && self.check(origin, self.id) {
            self.admit_monitor(origin);
            self.send_notify(origin, origin, self.id);
        }
    }

    /// Admits `monitor` into `PS(x)`, which must not hold it yet. The one
    /// way an entry enters `PS`, so every such membership change bumps
    /// `sets_epoch` exactly once — the signal the simulator's incremental
    /// invariant checking relies on to skip unchanged nodes (see
    /// "Incremental checking" in `avmon-sim`'s `invariants.rs`) — and
    /// surfaces as one [`AppEvent::MonitorDiscovered`].
    fn admit_monitor(&mut self, monitor: NodeId) {
        self.sets_epoch += 1;
        let fresh = self.ps.insert(monitor);
        debug_assert!(fresh, "admit_monitor on a known monitor");
        self.emit(AppEvent::MonitorDiscovered { monitor });
    }

    /// Adopts `target` into `TS(x)`, which must not hold it yet, with a
    /// fresh record discovered at `now`. The one way an entry enters `TS`,
    /// under the same rule as [`Node::admit_monitor`]: exactly one
    /// `sets_epoch` bump per membership change, and one
    /// [`AppEvent::TargetDiscovered`].
    fn adopt_target(&mut self, now: TimeMs, target: NodeId) {
        self.sets_epoch += 1;
        let previous = self.targets.insert(target, TargetRecord::new(now));
        debug_assert!(previous.is_none(), "adopt_target on a known target");
        self.emit(AppEvent::TargetDiscovered { target });
    }

    /// Sends `NOTIFY(monitor, target)` to `to`: the one NOTIFY send site,
    /// so `notifies_sent` counts every one.
    fn send_notify(&mut self, to: NodeId, monitor: NodeId, target: NodeId) {
        self.stats.notifies_sent += 1;
        self.send(to, Message::Notify { monitor, target });
    }
}
