//! The coarse view: a bounded random sample of other nodes (§3.2).
//!
//! Each node maintains up to `cvs` neighbor entries. The view is the raw
//! material of monitor discovery: every protocol period a node pings one
//! random entry (garbage-collecting the departed), fetches the view of
//! another, cross-checks the consistency condition over the union, and then
//! re-randomizes its own view from the union (the shuffle).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::NodeId;

/// A bounded, duplicate-free, self-excluding random set of node identities.
///
/// Invariants (enforced by every operation, checked by property tests):
/// * never contains the owner,
/// * never contains duplicates,
/// * never exceeds the capacity `cvs`.
///
/// # Example
///
/// ```
/// use avmon::{CoarseView, NodeId};
///
/// let me = NodeId::from_index(0);
/// let mut view = CoarseView::new(me, 3);
/// view.insert(NodeId::from_index(1));
/// view.insert(NodeId::from_index(1)); // duplicate, ignored
/// view.insert(me);                    // self, ignored
/// assert_eq!(view.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CoarseView {
    owner: NodeId,
    cap: usize,
    entries: Vec<NodeId>,
    /// Monotone membership version: bumped whenever the entry set may have
    /// changed. Observers (incremental invariant checking, snapshot
    /// diffing) compare versions to skip re-scanning unchanged views.
    version: u64,
}

impl CoarseView {
    /// Creates an empty view owned by `owner` with capacity `cap`.
    #[must_use]
    pub fn new(owner: NodeId, cap: usize) -> Self {
        CoarseView {
            owner,
            cap,
            entries: Vec::with_capacity(cap),
            version: 0,
        }
    }

    /// The membership version: strictly increases every time the entry set
    /// may have changed (conservative — a shuffle that happens to reproduce
    /// the same membership still bumps). Equal versions guarantee equal
    /// membership.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The maximal number of entries (`cvs`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `id` is present.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.entries.contains(&id)
    }

    /// Inserts `id` if it is not the owner, not a duplicate, and capacity
    /// remains. Returns `true` if the entry was added.
    pub fn insert(&mut self, id: NodeId) -> bool {
        if id == self.owner || self.contains(id) || self.entries.len() >= self.cap {
            return false;
        }
        self.entries.push(id);
        self.version += 1;
        true
    }

    /// Inserts `id`, evicting a random entry if the view is full. Returns
    /// `true` unless `id` is the owner or already present.
    ///
    /// This is the JOIN-absorption path: Figure 1 unconditionally says "add
    /// x to CV(y)" but bounds the view at `cvs` entries; replacing a random
    /// entry keeps views random while letting newborn nodes into full views
    /// (without it, a saturated steady-state system would never absorb
    /// joiners).
    pub fn insert_or_replace<R: Rng>(&mut self, id: NodeId, rng: &mut R) -> bool {
        if id == self.owner || self.contains(id) {
            return false;
        }
        if self.entries.len() < self.cap {
            self.entries.push(id);
        } else {
            let victim = rng.gen_range(0..self.entries.len());
            self.entries[victim] = id;
        }
        self.version += 1;
        true
    }

    /// Removes `id`, returning whether it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        if let Some(pos) = self.entries.iter().position(|&e| e == id) {
            self.entries.swap_remove(pos);
            self.version += 1;
            true
        } else {
            false
        }
    }

    /// Picks one entry uniformly at random.
    #[must_use]
    pub fn pick_random<R: Rng>(&self, rng: &mut R) -> Option<NodeId> {
        self.entries.choose(rng).copied()
    }

    /// Picks one entry uniformly at random, excluding `exclude`.
    #[must_use]
    pub fn pick_random_excluding<R: Rng>(&self, rng: &mut R, exclude: NodeId) -> Option<NodeId> {
        let eligible = self.entries.iter().filter(|&&e| e != exclude).count();
        if eligible == 0 {
            return None;
        }
        let idx = rng.gen_range(0..eligible);
        self.entries
            .iter()
            .filter(|&&e| e != exclude)
            .nth(idx)
            .copied()
    }

    /// The shuffle step of Fig. 2: replaces the view with `cvs` entries
    /// drawn uniformly at random from `CV(self) ∪ peer_view ∪ {peer}`
    /// (owner excluded, duplicates collapsed).
    ///
    /// The union is built in a scratch vector of up to `2·cvs + 1`
    /// entries and copied back, so the view keeps the `cvs` slots it got
    /// in [`CoarseView::new`]; adopting the union vector would leave every
    /// merged view holding twice the slots it can fill.
    pub fn shuffle_merge<R: Rng>(&mut self, peer: NodeId, peer_view: &[NodeId], rng: &mut R) {
        let mut union: Vec<NodeId> = Vec::with_capacity(self.entries.len() + peer_view.len() + 1);
        union.extend_from_slice(&self.entries);
        for &id in peer_view.iter().chain(core::iter::once(&peer)) {
            if id != self.owner && !union.contains(&id) {
                union.push(id);
            }
        }
        if union.len() > self.cap {
            union.shuffle(rng);
            union.truncate(self.cap);
        }
        self.entries.clear();
        self.entries.extend_from_slice(&union);
        self.version += 1;
    }

    /// Replaces the contents with entries from `source` (used when a joining
    /// node inherits the view of its contact, Fig. 1), keeping invariants.
    pub fn adopt(&mut self, source: &[NodeId]) {
        self.entries.clear();
        self.version += 1;
        for &id in source {
            self.insert(id);
        }
    }

    /// Iterates over the entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().copied()
    }

    /// The entries as a slice (order is not meaningful).
    #[must_use]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.entries
    }

    /// The owning node (never an entry).
    #[must_use]
    pub fn owner(&self) -> NodeId {
        self.owner
    }
}

#[expect(clippy::disallowed_types, reason = "tests are exempt")]
#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn id(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn insert_respects_capacity_self_and_duplicates() {
        let mut v = CoarseView::new(id(0), 2);
        assert!(v.insert(id(1)));
        assert!(!v.insert(id(1)), "duplicate");
        assert!(!v.insert(id(0)), "self");
        assert!(v.insert(id(2)));
        assert!(!v.insert(id(3)), "capacity");
        assert_eq!(v.len(), 2);
        assert_eq!(v.capacity(), 2);
    }

    #[test]
    fn insert_or_replace_evicts_when_full() {
        let mut v = CoarseView::new(id(0), 2);
        let mut r = rng();
        v.insert(id(1));
        v.insert(id(2));
        assert!(v.insert_or_replace(id(3), &mut r));
        assert_eq!(v.len(), 2);
        assert!(v.contains(id(3)));
        assert!(!v.insert_or_replace(id(3), &mut r), "already present");
        assert!(!v.insert_or_replace(id(0), &mut r), "self");
    }

    #[test]
    fn remove_works_and_reports() {
        let mut v = CoarseView::new(id(0), 4);
        v.insert(id(1));
        assert!(v.remove(id(1)));
        assert!(!v.remove(id(1)));
        assert!(v.is_empty());
    }

    #[test]
    fn pick_random_is_uniformish() {
        let mut v = CoarseView::new(id(0), 10);
        for i in 1..=10 {
            v.insert(id(i));
        }
        let mut r = rng();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(v.pick_random(&mut r).unwrap()).or_insert(0u32) += 1;
        }
        for &c in counts.values() {
            assert!((700..1300).contains(&c), "count {c} outside uniform band");
        }
    }

    #[test]
    fn pick_random_excluding_never_returns_excluded() {
        let mut v = CoarseView::new(id(0), 4);
        v.insert(id(1));
        v.insert(id(2));
        let mut r = rng();
        for _ in 0..100 {
            assert_ne!(v.pick_random_excluding(&mut r, id(1)), Some(id(1)));
        }
        let mut single = CoarseView::new(id(0), 4);
        single.insert(id(1));
        assert_eq!(single.pick_random_excluding(&mut r, id(1)), None);
        assert_eq!(CoarseView::new(id(0), 4).pick_random(&mut r), None);
    }

    #[test]
    fn shuffle_merge_keeps_invariants() {
        let mut v = CoarseView::new(id(0), 3);
        v.insert(id(1));
        v.insert(id(2));
        let peer_view = vec![id(0), id(2), id(3), id(4)];
        let mut r = rng();
        v.shuffle_merge(id(9), &peer_view, &mut r);
        assert!(v.len() <= 3);
        assert!(!v.contains(id(0)), "owner must never enter the view");
        let mut seen = std::collections::HashSet::new();
        for e in v.iter() {
            assert!(seen.insert(e), "duplicate {e}");
        }
    }

    #[test]
    fn shuffle_merge_includes_peer_when_space() {
        let mut v = CoarseView::new(id(0), 8);
        v.insert(id(1));
        let mut r = rng();
        v.shuffle_merge(id(5), &[id(2)], &mut r);
        assert!(v.contains(id(5)), "peer w must join the union (Fig. 2)");
        assert!(v.contains(id(1)));
        assert!(v.contains(id(2)));
    }

    /// A merged view holds `cvs` slots, not the `2·cvs + 1` of the union
    /// it was drawn from.
    #[test]
    fn shuffle_merge_keeps_capacity_at_cvs() {
        let cap = 40;
        let mut v = CoarseView::new(id(0), cap);
        for i in 1..=cap as u32 {
            v.insert(id(i));
        }
        assert_eq!(v.entries.capacity(), cap);
        let mut r = rng();
        for round in 0..200u32 {
            let base = 1 + (round * 17) % 1_000;
            let peer_view: Vec<NodeId> = (base..base + cap as u32).map(id).collect();
            v.shuffle_merge(id(5_000 + round), &peer_view, &mut r);
            assert_eq!(v.len(), cap);
            assert_eq!(v.entries.capacity(), cap, "round {round}");
        }
    }

    #[test]
    fn adopt_filters_self_and_dups() {
        let mut v = CoarseView::new(id(0), 3);
        v.adopt(&[id(0), id(1), id(1), id(2), id(3), id(4)]);
        assert_eq!(v.len(), 3);
        assert!(!v.contains(id(0)));
    }

    #[test]
    fn shuffle_outcome_is_random_subset_of_union() {
        let mut v = CoarseView::new(id(0), 4);
        for i in 1..=4 {
            v.insert(id(i));
        }
        let peer_view: Vec<NodeId> = (10..14).map(id).collect();
        let mut r = rng();
        v.shuffle_merge(id(20), &peer_view, &mut r);
        assert_eq!(v.len(), 4);
        for e in v.iter() {
            let in_union = (1..=4).map(id).any(|x| x == e) || peer_view.contains(&e) || e == id(20);
            assert!(in_union, "{e} not from the union");
        }
    }
}
