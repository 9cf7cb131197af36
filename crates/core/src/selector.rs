//! Monitor selection schemes.
//!
//! The paper's §3.2 discovery protocol works for *any* monitor selection
//! scheme that is **consistent** (the relationship never changes) and
//! **verifiable** (any third node can re-evaluate it). This module defines
//! that contract as the [`MonitorSelector`] trait, provides the paper's
//! hash-based scheme ([`HashSelector`], §3.1), and implements the three
//! strawman approaches from §1 — self-reporting, central, and DHT-based —
//! both for comparison experiments and to demonstrate (in tests) exactly
//! which of the six properties each violates.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

use avmon_hash::{
    Fast64PairHasher, HashPoint, HasherKind, Md5PairHasher, PairHasher, Threshold, PAIR_LANES,
};

use crate::{Config, NodeId};

/// Decides monitoring relationships: is `monitor ∈ PS(target)`?
///
/// Implementations used with AVMON's discovery protocol must be consistent
/// and verifiable: the answer may depend only on the two identities and
/// fixed system parameters. [`DhtRingSelector`] deliberately breaks this
/// contract (its answer depends on current membership) to reproduce the
/// paper's critique of DHT-based monitor selection.
pub trait MonitorSelector: Debug + Send + Sync {
    /// Whether `monitor` is in the pinging set of `target`.
    fn is_monitor(&self, monitor: NodeId, target: NodeId) -> bool;

    /// A short stable identifier for logs and experiment output.
    fn name(&self) -> &'static str;

    /// Batch enumeration of the condition over `monitors × targets`:
    /// calls `out(mi, ti)` for every ordered pair with
    /// `monitors[mi] != targets[ti]` and `is_monitor(monitors[mi],
    /// targets[ti])`, in lexicographic `(mi, ti)` order.
    ///
    /// Semantically identical to the obvious double loop (which is the
    /// default implementation); [`HashSelector`] overrides it with its
    /// hasher's batch form (see [`BatchHasher`]). It is how a node
    /// evaluates the Fig. 2 cross-check and how the invariant checker
    /// builds its exact agreement-sweep candidate index. Sorting `targets`
    /// by identity maximizes Fast64's prefix sharing but is not required
    /// for correctness.
    fn accepted_pairs(
        &self,
        monitors: &[NodeId],
        targets: &[NodeId],
        out: &mut dyn FnMut(usize, usize),
    ) {
        for (mi, &m) in monitors.iter().enumerate() {
            for (ti, &t) in targets.iter().enumerate() {
                if m != t && self.is_monitor(m, t) {
                    out(mi, ti);
                }
            }
        }
    }
}

/// Shared, dynamically-typed selector handle as stored by nodes.
pub type SharedSelector = Arc<dyn MonitorSelector>;

/// The paper's consistent hash-based selection scheme (§3.1):
///
/// ```text
/// y ∈ PS(x)  ⇔  H(y ‖ x) ≤ K/N
/// ```
///
/// `H` hashes the 12-byte concatenation of the two `<IP, port>` identities
/// to `[0, 1)`. Expected pinging-set size is `K` for any target; the scheme
/// is consistent, verifiable and random (§3.1).
///
/// # Example
///
/// ```
/// use avmon::{Config, HashSelector, MonitorSelector, NodeId};
///
/// let config = Config::builder(100).build()?;
/// let selector = HashSelector::from_config(&config);
/// let (a, b) = (NodeId::from_index(1), NodeId::from_index(2));
/// // Consistent: same answer every time, on every node.
/// assert_eq!(selector.is_monitor(a, b), selector.is_monitor(a, b));
/// # Ok::<(), avmon::Error>(())
/// ```
#[derive(Debug)]
pub struct HashSelector<H = Fast64PairHasher> {
    hasher: H,
    threshold: Threshold,
}

impl HashSelector<Fast64PairHasher> {
    /// Builds the selector for `config` with the default fast hasher.
    #[must_use]
    pub fn from_config(config: &Config) -> Self {
        let (k, n) = config.threshold_ratio();
        HashSelector::new(Fast64PairHasher::new(), k, n)
    }

    /// Builds a shared selector for `config` with a runtime-chosen hasher.
    ///
    /// The kind is matched once, here, into a selector monomorphic in its
    /// hasher: behind the `dyn MonitorSelector` call the hash is inlined,
    /// not a second virtual call into a `Box<dyn PairHasher>`.
    #[must_use]
    pub fn from_config_with_kind(config: &Config, kind: HasherKind) -> SharedSelector {
        let (k, n) = config.threshold_ratio();
        match kind {
            HasherKind::Md5 => Arc::new(HashSelector::new(Md5PairHasher::new(), k, n)),
            HasherKind::Fast64 => Arc::new(HashSelector::new(Fast64PairHasher::new(), k, n)),
        }
    }
}

impl<H: BatchHasher> HashSelector<H> {
    /// Builds the selector with threshold `k/n` over `hasher`.
    #[must_use]
    pub fn new(hasher: H, k: f64, n: f64) -> Self {
        HashSelector {
            hasher,
            threshold: Threshold::from_ratio(k, n),
        }
    }
}

impl<H: BatchHasher> MonitorSelector for HashSelector<H> {
    /// `H(monitor ‖ target)` by the hasher's fixed-length pair kernel over
    /// the pair assembled in registers — bit-identical to
    /// `hasher.point(&NodeId::pair_bytes(monitor, target))`.
    fn is_monitor(&self, monitor: NodeId, target: NodeId) -> bool {
        let (head, tail) = NodeId::pair_words(monitor, target);
        self.threshold.accepts(self.hasher.point12(head, tail))
    }

    fn name(&self) -> &'static str {
        "hash"
    }

    fn accepted_pairs(
        &self,
        monitors: &[NodeId],
        targets: &[NodeId],
        out: &mut dyn FnMut(usize, usize),
    ) {
        self.hasher
            .accepted_pairs(self.threshold, monitors, targets, out);
    }
}

/// A hasher a [`HashSelector`] runs on: one of the built-in two, each with
/// the batch form of [`MonitorSelector::accepted_pairs`] its type has,
/// picked at compile time.
///
/// * **Staged** ([`Fast64PairHasher`]). The pair's first 8 bytes — its
///   `head` word: the monitor plus the target's leading 2 bytes — are
///   absorbed once per run of targets sharing them (identity-sorted
///   targets make runs maximal), and each pair pays only
///   [`Fast64PairHasher::finish12`].
/// * **Lanes** ([`Md5PairHasher`]). The off-diagonal pairs, in order, are
///   packed [`PAIR_LANES`] at a time into one
///   [`Md5PairHasher::point12_lanes`] call, so their compressions run side
///   by side. The last block's unused lanes repeat earlier pairs and are
///   ignored.
///
/// Both hash every pair with `pair_words`' bytes, so both report exactly
/// `is_monitor`'s pairs, in the trait default's order. The trait is
/// sealed: a hasher joins by giving its batch form here.
pub trait BatchHasher: PairHasher + sealed::Sealed {
    /// Calls `out(mi, ti)` for every pair with `monitors[mi] !=
    /// targets[ti]` whose point `threshold` accepts, in `(mi, ti)` order.
    fn accepted_pairs(
        &self,
        threshold: Threshold,
        monitors: &[NodeId],
        targets: &[NodeId],
        out: &mut dyn FnMut(usize, usize),
    );
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for avmon_hash::Fast64PairHasher {}
    impl Sealed for avmon_hash::Md5PairHasher {}
}

impl BatchHasher for Fast64PairHasher {
    fn accepted_pairs(
        &self,
        threshold: Threshold,
        monitors: &[NodeId],
        targets: &[NodeId],
        out: &mut dyn FnMut(usize, usize),
    ) {
        let Some(&first) = targets.first() else {
            return;
        };
        for (mi, &m) in monitors.iter().enumerate() {
            // The head word of the current run, and the state after
            // absorbing it.
            let mut run_head = NodeId::pair_words(m, first).0;
            let mut state = Fast64PairHasher::absorb12_head(run_head);
            for (ti, &t) in targets.iter().enumerate() {
                let (head, tail) = NodeId::pair_words(m, t);
                if head != run_head {
                    run_head = head;
                    state = Fast64PairHasher::absorb12_head(head);
                }
                if m != t && threshold.accepts(Fast64PairHasher::finish12(state, tail)) {
                    out(mi, ti);
                }
            }
        }
    }
}

impl BatchHasher for Md5PairHasher {
    fn accepted_pairs(
        &self,
        threshold: Threshold,
        monitors: &[NodeId],
        targets: &[NodeId],
        out: &mut dyn FnMut(usize, usize),
    ) {
        let mut block = LaneBlock {
            heads: [0; PAIR_LANES],
            tails: [0; PAIR_LANES],
            at: [(0, 0); PAIR_LANES],
            len: 0,
        };
        for (mi, &m) in monitors.iter().enumerate() {
            for (ti, &t) in targets.iter().enumerate() {
                if m == t {
                    continue;
                }
                let lane = block.len;
                (block.heads[lane], block.tails[lane]) = NodeId::pair_words(m, t);
                block.at[lane] = (mi, ti);
                block.len += 1;
                if block.len == PAIR_LANES {
                    block.emit(self, threshold, out);
                }
            }
        }
        block.emit(self, threshold, out);
    }
}

/// Pairs gathered for one [`Md5PairHasher::point12_lanes`] call: their
/// words, their `(monitor, target)` indices, and how many lanes are filled.
struct LaneBlock {
    heads: [u64; PAIR_LANES],
    tails: [u32; PAIR_LANES],
    at: [(usize, usize); PAIR_LANES],
    len: usize,
}

impl LaneBlock {
    /// Hashes the first `len` lanes, reports the accepted ones in lane
    /// order and empties the block.
    fn emit(
        &mut self,
        hasher: &Md5PairHasher,
        threshold: Threshold,
        out: &mut dyn FnMut(usize, usize),
    ) {
        if self.len == 0 {
            return;
        }
        let mut points = [0u64; PAIR_LANES];
        hasher.point12_lanes(&self.heads, &self.tails, &mut points);
        for (&point, &(mi, ti)) in points.iter().zip(&self.at).take(self.len) {
            if threshold.accepts(HashPoint::from_bits(point)) {
                out(mi, ti);
            }
        }
        self.len = 0;
    }
}

/// Strawman 1 (§1): self-reporting — `PS(x) = {x}`.
///
/// Violates randomness: a node reports (and can arbitrarily inflate) its own
/// availability.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfReportSelector;

impl SelfReportSelector {
    /// Creates the selector.
    #[must_use]
    pub fn new() -> Self {
        SelfReportSelector
    }
}

impl MonitorSelector for SelfReportSelector {
    fn is_monitor(&self, monitor: NodeId, target: NodeId) -> bool {
        monitor == target
    }

    fn name(&self) -> &'static str {
        "self-report"
    }
}

/// Strawman 2 (§1): a central monitor set — `PS(x) = {y_0, …}` for all `x`.
///
/// Consistent and verifiable but neither load-balanced nor scalable: the
/// fixed monitors carry `O(N)` monitoring load.
#[derive(Debug, Clone)]
pub struct CentralSelector {
    monitors: Vec<NodeId>,
}

impl CentralSelector {
    /// Creates the selector with the given fixed monitor set.
    ///
    /// # Panics
    ///
    /// Panics if `monitors` is empty (a monitoring service needs monitors).
    #[must_use]
    pub fn new(monitors: Vec<NodeId>) -> Self {
        assert!(
            !monitors.is_empty(),
            "central selector needs at least one monitor"
        );
        CentralSelector { monitors }
    }

    /// The fixed monitor set.
    #[must_use]
    pub fn monitors(&self) -> &[NodeId] {
        &self.monitors
    }
}

impl MonitorSelector for CentralSelector {
    fn is_monitor(&self, monitor: NodeId, target: NodeId) -> bool {
        monitor != target && self.monitors.contains(&monitor)
    }

    fn name(&self) -> &'static str {
        "central"
    }
}

/// Strawman 3 (§1): DHT-based selection — `PS(x)` is the `K` nodes whose
/// hashed identifiers follow `hash(x)` on a ring of the *current members*.
///
/// Deliberately membership-dependent: calling [`DhtRingSelector::join`] or
/// [`DhtRingSelector::leave`] changes answers for unrelated pairs, which is
/// the consistency violation the paper criticizes (a newly born node whose
/// id hashes next to `hash(x)` displaces an existing monitor of `x`).
/// It also violates randomness condition 3(b): two nodes adjacent on the
/// ring co-occur in many pinging sets. The `ext-dht` experiment quantifies
/// the violation rate under churn.
#[derive(Debug, Clone)]
pub struct DhtRingSelector {
    k: usize,
    ring: BTreeMap<u64, NodeId>,
    hasher: Fast64PairHasher,
}

impl DhtRingSelector {
    /// Creates an empty ring with replica-set size `k`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        DhtRingSelector {
            k,
            ring: BTreeMap::new(),
            hasher: Fast64PairHasher::new(),
        }
    }

    fn ring_position(&self, id: NodeId) -> u64 {
        self.hasher.point(&id.to_bytes()).to_bits()
    }

    /// Adds a member to the ring.
    pub fn join(&mut self, id: NodeId) {
        let pos = self.ring_position(id);
        self.ring.insert(pos, id);
    }

    /// Removes a member from the ring.
    pub fn leave(&mut self, id: NodeId) {
        let pos = self.ring_position(id);
        self.ring.remove(&pos);
    }

    /// Number of current ring members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The current `PS(target)`: the `k` members clockwise from
    /// `hash(target)`, excluding `target` itself.
    #[must_use]
    pub fn monitors_of(&self, target: NodeId) -> Vec<NodeId> {
        let start = self.ring_position(target);
        let mut out = Vec::with_capacity(self.k);
        for (_, &id) in self.ring.range(start..).chain(self.ring.range(..start)) {
            if id == target {
                continue;
            }
            out.push(id);
            if out.len() == self.k {
                break;
            }
        }
        out
    }
}

impl MonitorSelector for DhtRingSelector {
    fn is_monitor(&self, monitor: NodeId, target: NodeId) -> bool {
        self.monitors_of(target).contains(&monitor)
    }

    fn name(&self) -> &'static str {
        "dht-ring"
    }
}

/// Verifies a claimed pinging-set report (the "l out of K" policy, §3.3).
///
/// Given `target` and the monitors it advertised, re-evaluates the
/// consistency condition for each claim and partitions them into verified
/// and rejected. A selfish node advertising colluders that do not satisfy
/// the condition is caught here.
///
/// # Example
///
/// ```
/// use avmon::{verify_report, Config, HashSelector, NodeId};
///
/// let config = Config::builder(50).build()?;
/// let selector = HashSelector::from_config(&config);
/// let target = NodeId::from_index(7);
/// let claims = vec![NodeId::from_index(1), NodeId::from_index(2)];
/// let outcome = verify_report(&selector, target, &claims);
/// assert_eq!(outcome.verified.len() + outcome.rejected.len(), 2);
/// # Ok::<(), avmon::Error>(())
/// ```
#[must_use]
pub fn verify_report<S: MonitorSelector + ?Sized>(
    selector: &S,
    target: NodeId,
    claimed: &[NodeId],
) -> ReportVerification {
    let mut verified = Vec::new();
    let mut rejected = Vec::new();
    for &m in claimed {
        if m != target && selector.is_monitor(m, target) {
            verified.push(m);
        } else {
            rejected.push(m);
        }
    }
    ReportVerification {
        target,
        verified,
        rejected,
    }
}

/// Outcome of verifying a monitor report — see [`verify_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportVerification {
    /// The node whose report was verified.
    pub target: NodeId,
    /// Claims that satisfy the consistency condition.
    pub verified: Vec<NodeId>,
    /// Claims that failed it (evidence of selfish advertising).
    pub rejected: Vec<NodeId>,
}

impl ReportVerification {
    /// Whether every claim checked out.
    #[must_use]
    pub fn all_verified(&self) -> bool {
        self.rejected.is_empty()
    }
}

#[expect(clippy::disallowed_types, reason = "tests are exempt")]
#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::from_index).collect()
    }

    #[test]
    fn hash_selector_expected_ps_size_is_k() {
        // With K=8, N=200, scanning all candidate monitors of a target
        // should find ≈K monitors on average.
        let selector = HashSelector::new(Fast64PairHasher::new(), 8.0, 200.0);
        let nodes = ids(200);
        let mut total = 0usize;
        for &target in &nodes {
            total += nodes
                .iter()
                .filter(|&&m| m != target && selector.is_monitor(m, target))
                .count();
        }
        let avg = total as f64 / 200.0;
        assert!(
            (avg - 8.0).abs() < 1.0,
            "average PS size {avg}, expected ~8"
        );
    }

    #[test]
    fn hash_selector_is_symmetric_in_evaluation_not_in_relation() {
        let selector = HashSelector::new(Fast64PairHasher::new(), 50.0, 100.0);
        let a = NodeId::from_index(3);
        let b = NodeId::from_index(4);
        // The relation for (a,b) and (b,a) are independent coin flips; with
        // threshold 0.5 they frequently differ across many pairs.
        let nodes = ids(100);
        let mut asymmetric = 0;
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if selector.is_monitor(nodes[i], nodes[j])
                    != selector.is_monitor(nodes[j], nodes[i])
                {
                    asymmetric += 1;
                }
            }
        }
        assert!(
            asymmetric > 1000,
            "directions must be independent, got {asymmetric}"
        );
        // And each individual answer is stable.
        assert_eq!(selector.is_monitor(a, b), selector.is_monitor(a, b));
    }

    #[test]
    fn hash_selector_consistency_under_membership_change() {
        // The answer for a fixed pair cannot depend on anything but the pair:
        // there is no membership input at all. (Type-level consistency.)
        let s1 = HashSelector::new(Fast64PairHasher::new(), 11.0, 2000.0);
        let s2 = HashSelector::new(Fast64PairHasher::new(), 11.0, 2000.0);
        for i in 0..50 {
            for j in 0..50 {
                if i != j {
                    let (a, b) = (NodeId::from_index(i), NodeId::from_index(j));
                    assert_eq!(s1.is_monitor(a, b), s2.is_monitor(a, b));
                }
            }
        }
    }

    #[test]
    fn self_report_selector_is_self_only() {
        let s = SelfReportSelector::new();
        let a = NodeId::from_index(1);
        let b = NodeId::from_index(2);
        assert!(s.is_monitor(a, a));
        assert!(!s.is_monitor(a, b));
    }

    #[test]
    fn central_selector_uses_fixed_set() {
        let monitors = ids(3);
        let s = CentralSelector::new(monitors.clone());
        let x = NodeId::from_index(50);
        for &m in &monitors {
            assert!(s.is_monitor(m, x));
        }
        assert!(!s.is_monitor(x, NodeId::from_index(51)));
        // A central monitor does not monitor itself.
        assert!(!s.is_monitor(monitors[0], monitors[0]));
        assert_eq!(s.monitors(), &monitors[..]);
    }

    #[test]
    #[should_panic(expected = "at least one monitor")]
    fn central_selector_rejects_empty() {
        let _ = CentralSelector::new(vec![]);
    }

    #[test]
    fn dht_ring_returns_k_successors() {
        let mut s = DhtRingSelector::new(3);
        for id in ids(20) {
            s.join(id);
        }
        assert_eq!(s.len(), 20);
        let target = NodeId::from_index(5);
        let ps = s.monitors_of(target);
        assert_eq!(ps.len(), 3);
        for m in &ps {
            assert!(s.is_monitor(*m, target));
        }
    }

    /// The paper's consistency critique: a *join* of an unrelated node can
    /// change PS(x) under DHT selection — never under hash selection.
    #[test]
    fn dht_ring_violates_consistency_under_churn() {
        let mut s = DhtRingSelector::new(3);
        let base = ids(30);
        for &id in &base {
            s.join(id);
        }
        let target = NodeId::from_index(999);
        let before = s.monitors_of(target);
        // Join 50 new nodes; some will hash between target and its monitors.
        let mut changed = false;
        for i in 1000..1050 {
            s.join(NodeId::from_index(i));
            if s.monitors_of(target) != before {
                changed = true;
                break;
            }
        }
        assert!(
            changed,
            "expected at least one join to displace a DHT monitor"
        );
    }

    /// The paper's randomness critique 3(b): ring-adjacent monitors co-occur
    /// across many pinging sets under DHT selection.
    #[test]
    fn dht_ring_correlates_pinging_sets() {
        let mut s = DhtRingSelector::new(3);
        for id in ids(40) {
            s.join(id);
        }
        // Count ordered monitor pairs that appear together in ≥2 pinging sets.
        let mut pair_counts: std::collections::HashMap<(NodeId, NodeId), u32> =
            std::collections::HashMap::new();
        for t in ids(40) {
            let ps = s.monitors_of(t);
            for i in 0..ps.len() {
                for j in (i + 1)..ps.len() {
                    *pair_counts.entry((ps[i], ps[j])).or_default() += 1;
                }
            }
        }
        let repeated = pair_counts.values().filter(|&&c| c >= 2).count();
        assert!(repeated > 0, "DHT rings must show correlated co-occurrence");
    }

    #[test]
    fn verify_report_accepts_true_monitors_and_rejects_fakes() {
        let selector = HashSelector::new(Fast64PairHasher::new(), 10.0, 100.0);
        let nodes = ids(100);
        let target = nodes[0];
        let true_monitors: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|&m| m != target && selector.is_monitor(m, target))
            .collect();
        assert!(!true_monitors.is_empty());
        let fake: Vec<NodeId> = nodes
            .iter()
            .copied()
            .filter(|&m| m != target && !selector.is_monitor(m, target))
            .take(3)
            .collect();

        let mut claims = true_monitors.clone();
        claims.extend(&fake);
        let outcome = verify_report(&selector, target, &claims);
        assert_eq!(outcome.verified, true_monitors);
        assert_eq!(outcome.rejected, fake);
        assert!(!outcome.all_verified());
        // A target claiming to monitor itself is rejected.
        let self_claim = verify_report(&selector, target, &[target]);
        assert_eq!(self_claim.rejected, vec![target]);
    }

    /// Randomness condition 3(b): for distinct w,x,y,z with y,z ∈ PS(x)
    /// and y ∈ PS(w), knowing all that must not change P(z ∈ PS(w)).
    /// Hash selection passes; DHT rings fail dramatically (ring-adjacent
    /// monitors travel together).
    #[test]
    fn randomness_3b_non_correlation() {
        let n = 400u32;
        let k = 40.0; // dense enough for statistics
        let ids = ids(n);
        let hash = HashSelector::new(Fast64PairHasher::new(), k, f64::from(n));

        let conditional_rate = |selector: &dyn MonitorSelector| -> (f64, u32) {
            let mut conditioned = 0u32;
            let mut hits = 0u32;
            for xi in 0..40 {
                let x = ids[xi as usize];
                let ps_x: Vec<NodeId> = ids
                    .iter()
                    .copied()
                    .filter(|&m| m != x && selector.is_monitor(m, x))
                    .collect();
                if ps_x.len() < 2 {
                    continue;
                }
                let (y, z) = (ps_x[0], ps_x[1]);
                for &w in ids.iter().skip(40).take(200) {
                    if w == x || w == y || w == z {
                        continue;
                    }
                    if selector.is_monitor(y, w) {
                        conditioned += 1;
                        if selector.is_monitor(z, w) {
                            hits += 1;
                        }
                    }
                }
            }
            (f64::from(hits) / f64::from(conditioned.max(1)), conditioned)
        };

        let base_rate = k / f64::from(n); // 0.1
        let (hash_rate, samples) = conditional_rate(&hash);
        assert!(samples > 200, "need statistics, got {samples}");
        assert!(
            (hash_rate - base_rate).abs() < 0.06,
            "hash: P(z ∈ PS(w) | correlations) = {hash_rate}, base {base_rate}"
        );

        let mut ring = DhtRingSelector::new(40);
        for &id in &ids {
            ring.join(id);
        }
        let (dht_rate, _) = conditional_rate(&ring);
        assert!(
            dht_rate > base_rate * 3.0,
            "DHT conditional rate {dht_rate} should blow past base {base_rate}"
        );
    }

    /// The batch enumeration must agree pair-for-pair, in order, with the
    /// naive double loop over `is_monitor` — for the staged fast64 hasher,
    /// MD5's 16-lane kernel, and a membership-based selector using the
    /// trait default — on side lengths
    /// that leave a 16-lane block empty, partial, exactly full and full
    /// plus one, on both sides, with overlapping sides so the skipped
    /// diagonal shifts the lanes.
    #[test]
    fn accepted_pairs_matches_naive_loop() {
        let nodes: Vec<NodeId> = (0..120)
            .map(|i| {
                // Mix identity shapes so target 2-byte prefixes actually vary.
                NodeId::new(
                    [10, (i % 3) as u8, (i / 7) as u8, i as u8],
                    4000 + (i % 5) as u16,
                )
            })
            .collect();
        let selectors: Vec<Box<dyn MonitorSelector>> = vec![
            Box::new(HashSelector::new(Fast64PairHasher::new(), 9.0, 120.0)),
            Box::new(HashSelector::new(Md5PairHasher::new(), 9.0, 120.0)),
            Box::new({
                let mut ring = DhtRingSelector::new(5);
                for &id in &nodes[..40] {
                    ring.join(id);
                }
                ring
            }),
        ];
        let naive_pairs =
            |selector: &dyn MonitorSelector, monitors: &[NodeId], targets: &[NodeId]| {
                let mut naive = Vec::new();
                for (mi, &m) in monitors.iter().enumerate() {
                    for (ti, &t) in targets.iter().enumerate() {
                        if m != t && selector.is_monitor(m, t) {
                            naive.push((mi, ti));
                        }
                    }
                }
                naive
            };
        let lengths = [0, 1, 15, 16, 17, 41, 42];
        for selector in &selectors {
            let mut batched = Vec::new();
            selector.accepted_pairs(&nodes, &nodes, &mut |mi, ti| batched.push((mi, ti)));
            let naive = naive_pairs(&**selector, &nodes, &nodes);
            assert!(!naive.is_empty());
            assert_eq!(batched, naive, "selector {} diverged", selector.name());
            for m_len in lengths {
                for t_len in lengths {
                    // Targets start 7 nodes in, so the sides overlap.
                    let (monitors, targets) = (&nodes[..m_len], &nodes[7..7 + t_len]);
                    let mut batched = Vec::new();
                    selector.accepted_pairs(monitors, targets, &mut |mi, ti| {
                        batched.push((mi, ti));
                    });
                    assert_eq!(
                        batched,
                        naive_pairs(&**selector, monitors, targets),
                        "selector {} diverged at {m_len} x {t_len}",
                        selector.name()
                    );
                }
            }
        }
    }

    #[test]
    fn selector_names_are_stable() {
        assert_eq!(
            HashSelector::from_config(&Config::builder(10).build().unwrap()).name(),
            "hash"
        );
        assert_eq!(SelfReportSelector::new().name(), "self-report");
        assert_eq!(CentralSelector::new(ids(1)).name(), "central");
        assert_eq!(DhtRingSelector::new(1).name(), "dht-ring");
    }
}
