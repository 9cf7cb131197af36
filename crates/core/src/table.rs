//! Per-node tables: an open-addressed flat table for the pending
//! requests, sorted vectors for `PS` / `TS` and the `notified` cache.
//!
//! `Node` keeps one map on its hottest path: the pending-request table
//! (`Nonce → PendingEntry`, touched by every request/response/expiry). It
//! is a pure membership structure — **never iterated**, only probed,
//! inserted into, removed from, and cleared — so nothing about it can
//! leak ordering into the protocol, and the general-purpose `HashMap`
//! (SipHash, separate control metadata, per-resize reallocation churn)
//! is pure overhead.
//!
//! This module provides the minimal replacement: a linear-probe table
//! over one contiguous slot array, keyed by a caller-supplied 64-bit
//! mix ([`TableKey`], built on `fast64::mix64`). The wins are exactly
//! the honest ones: no SipHash per probe, one cache line per cluster,
//! one allocation per table — freed again when removals empty it, so a
//! node with no request in flight holds no pending slots — and a
//! deliberately *absent* iteration API so no future caller can make
//! protocol behavior depend on slot order (or on when slots are freed).
//! Besides the pending table, the simulator's engine (identity → slot),
//! network (partition sides), invariant checker and report use
//! [`FlatMap`] / [`FlatSet`] for the same reasons.
//!
//! `PS(x)` and `TS(x)` are the opposite case: walked in identity order
//! every period and reported, but only about `K` entries each. They sit
//! in [`SortedSet`] / [`SortedMap`], sorted `Vec`s with binary-search
//! lookups whose iteration order is `BTreeSet`'s.
//!
//! The re-advertisement dedup set (`notified`, the `(monitor, target)`
//! pairs a node has already NOTIFY-ed) left [`FlatSet`] for a
//! [`SortedSet`] as well. It holds about 27 pairs per node between its
//! wholesale clears, where a flat table, at most 7/8 full in a
//! power-of-two slot array that doubles, held up to several times as
//! many slots as pairs; a sorted vector holds exactly its pairs, and an
//! insert is a binary search plus a short memmove. It is only probed and cleared, never iterated, so its order
//! cannot leak either.

use avmon_hash::fast64::mix64;

use crate::id::NodeId;
use crate::message::Nonce;

/// Keys usable in [`FlatMap`]/[`FlatSet`]: cheap to copy, with a
/// caller-vouched well-mixed 64-bit image. The low bits index the
/// power-of-two slot array directly, so the mix must diffuse (identity
/// hashing of dense indices would cluster catastrophically).
pub trait TableKey: Copy + Eq {
    /// A well-mixed 64-bit image of the key.
    fn mix(&self) -> u64;
}

impl TableKey for u64 {
    fn mix(&self) -> u64 {
        mix64(*self)
    }
}

impl TableKey for Nonce {
    fn mix(&self) -> u64 {
        mix64(self.0)
    }
}

impl TableKey for NodeId {
    fn mix(&self) -> u64 {
        mix64(self.to_u64())
    }
}

/// One slot of the table. The discriminant doubles as the control byte
/// of a classic open-addressed scheme: `Empty` terminates probe chains,
/// `Tomb` (tombstone) keeps them alive across removals.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot<K, V> {
    Empty,
    Tomb,
    Full(K, V),
}

impl<K: Eq, V> Slot<K, V> {
    /// Whether a probe for `key` stops here: at `key` itself, or at an
    /// `Empty` slot, past which `key` cannot be.
    fn ends_chain(&self, key: &K) -> bool {
        match self {
            Slot::Empty => true,
            Slot::Tomb => false,
            Slot::Full(k, _) => k == key,
        }
    }
}

/// A linear-probe open-addressed map with `Copy` keys and values and no
/// iteration API. See the module docs for why iteration is deliberately
/// unsupported.
#[derive(Debug, Clone)]
pub struct FlatMap<K, V> {
    slots: Vec<Slot<K, V>>,
    /// Live entries.
    len: usize,
    /// Live entries plus tombstones — the quantity that governs probe
    /// length and therefore triggers rebuilds.
    used: usize,
}

const INITIAL_CAPACITY: usize = 16;

impl<K: TableKey, V: Copy> Default for FlatMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: TableKey, V: Copy> FlatMap<K, V> {
    /// Creates an empty map. Does not allocate until the first insert.
    #[must_use]
    pub fn new() -> Self {
        FlatMap {
            slots: Vec::new(),
            len: 0,
            used: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no live entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots allocated: 0 until the first insert and again once emptied.
    #[cfg(test)]
    pub(crate) fn allocated_slots(&self) -> usize {
        self.slots.capacity()
    }

    /// Drops every entry but keeps the allocation, for a table that
    /// refills to the same size. (Emptying the map entry by entry frees
    /// it instead; see [`FlatMap::remove_if`].)
    pub fn clear(&mut self) {
        self.slots.fill(Slot::Empty);
        self.len = 0;
        self.used = 0;
    }

    /// The slot that ends `key`'s probe chain: the one holding `key`, or
    /// the `Empty` slot that proves it absent. The chain runs from the
    /// key's home slot to the end and wraps round to the start, so it
    /// visits every slot at most once. `None` only when no slot ends it:
    /// in an unallocated table, never in a ≤ 7/8-full one.
    fn chain_end(&self, key: &K) -> Option<&Slot<K, V>> {
        let (wrapped, from_home) = self.slots.split_at(self.home(key));
        from_home
            .iter()
            .chain(wrapped)
            .find(|slot| slot.ends_chain(key))
    }

    /// [`FlatMap::chain_end`], for writing.
    fn chain_end_mut(&mut self, key: &K) -> Option<&mut Slot<K, V>> {
        let home = self.home(key);
        let (wrapped, from_home) = self.slots.split_at_mut(home);
        from_home
            .iter_mut()
            .chain(wrapped)
            .find(|slot| slot.ends_chain(key))
    }

    /// Where `key`'s probe chain starts (0 in an unallocated table).
    fn home(&self, key: &K) -> usize {
        (key.mix() as usize) & self.slots.len().saturating_sub(1)
    }

    #[must_use]
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        match self.chain_end(key)? {
            Slot::Full(_, v) => Some(v),
            _ => None,
        }
    }

    #[must_use]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.chain_end_mut(key)? {
            Slot::Full(_, v) => Some(v),
            _ => None,
        }
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        // Rebuild at 7/8 occupancy of live-plus-tombstone slots: linear
        // probing degrades sharply past that, and rebuilding also
        // reclaims tombstones left by heavy remove traffic.
        if self.slots.is_empty() || (self.used + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (key.mix() as usize) & mask;
        // First pass may land on a tombstone; remember it but keep
        // probing to `Empty` in case the key already exists further on.
        let mut reuse: Option<usize> = None;
        loop {
            match &mut self.slots[i] {
                Slot::Full(k, v) if *k == key => return Some(std::mem::replace(v, value)),
                Slot::Tomb => {
                    if reuse.is_none() {
                        reuse = Some(i);
                    }
                    i = (i + 1) & mask;
                }
                Slot::Empty => {
                    let target = reuse.unwrap_or(i);
                    if reuse.is_none() {
                        self.used += 1;
                    }
                    self.slots[target] = Slot::Full(key, value);
                    self.len += 1;
                    return None;
                }
                Slot::Full(..) => i = (i + 1) & mask,
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.remove_if(key, |_| true)
    }

    /// Removes `key` if `pred` holds for its value, returning that value:
    /// a [`FlatMap::get`] test and a [`FlatMap::remove`] on one probe.
    ///
    /// The removal that empties the map frees its slots. A node's pending
    /// table is empty whenever no request is in flight — most of the
    /// time — and then holds no memory; the next insert allocates the
    /// initial table again.
    pub fn remove_if(&mut self, key: &K, pred: impl FnOnce(&V) -> bool) -> Option<V> {
        let slot = self.chain_end_mut(key)?;
        let Slot::Full(_, value) = *slot else {
            return None;
        };
        if !pred(&value) {
            return None;
        }
        *slot = Slot::Tomb;
        self.len -= 1;
        if self.len == 0 {
            *self = FlatMap::new();
        }
        Some(value)
    }

    /// Doubles capacity (or allocates the initial table) and re-places
    /// every live entry, dropping tombstones.
    fn grow(&mut self) {
        let new_cap = if self.slots.is_empty() {
            INITIAL_CAPACITY
        } else if self.len * 2 >= self.slots.len() {
            self.slots.len() * 2
        } else {
            // Mostly tombstones: same capacity, just compact.
            self.slots.len()
        };
        let old = std::mem::replace(&mut self.slots, vec![Slot::Empty; new_cap]);
        let mask = new_cap - 1;
        self.used = self.len;
        for slot in old {
            if let Slot::Full(k, v) = slot {
                let mut i = (k.mix() as usize) & mask;
                while !matches!(self.slots[i], Slot::Empty) {
                    i = (i + 1) & mask;
                }
                self.slots[i] = Slot::Full(k, v);
            }
        }
    }
}

/// A membership set over [`TableKey`]s — a [`FlatMap`] with unit values
/// and the same deliberate absence of iteration.
#[derive(Debug, Clone)]
pub struct FlatSet<K> {
    map: FlatMap<K, ()>,
}

impl<K: TableKey> Default for FlatSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: TableKey> FlatSet<K> {
    #[must_use]
    pub fn new() -> Self {
        FlatSet {
            map: FlatMap::new(),
        }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }

    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts `key`; returns `true` if it was not already present
    /// (mirroring `HashSet::insert`).
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        self.map.remove(key).is_some()
    }
}

impl<K: TableKey> FromIterator<K> for FlatSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(keys: I) -> Self {
        let mut set = FlatSet::new();
        for key in keys {
            set.insert(key);
        }
        set
    }
}

/// An ordered map over two parallel `Vec`s: keys ascending and
/// duplicate-free, lookups by binary search, iteration in key order.
///
/// The node's `TS(x)` holds about `K` entries, where a `BTreeMap`'s
/// 11-slot leaves cost several times the entries themselves; here the
/// storage is the entries themselves. Inserts and removes shift the tail,
/// which at `K`-sized maps is cheaper than a tree walk. A full vector
/// grows by one slot, not by doubling: `TS` changes a handful of times
/// per node lifetime, while doubling's slack would be paid on every
/// monitor for the whole run.
#[derive(Debug, Clone)]
pub struct SortedMap<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
}

impl<K: Ord + Copy, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy, V> SortedMap<K, V> {
    /// Creates an empty map. Does not allocate until the first insert.
    #[must_use]
    pub fn new() -> Self {
        SortedMap {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    #[must_use]
    pub fn contains_key(&self, key: &K) -> bool {
        self.keys.binary_search(key).is_ok()
    }

    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.keys.binary_search(key).ok()?;
        self.values.get(i)
    }

    #[must_use]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.keys.binary_search(key).ok()?;
        self.values.get_mut(i)
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.keys.binary_search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.values[i], value)),
            Err(i) => {
                if self.keys.len() == self.keys.capacity() {
                    self.keys.reserve_exact(1);
                }
                if self.values.len() == self.values.capacity() {
                    self.values.reserve_exact(1);
                }
                self.keys.insert(i, key);
                self.values.insert(i, value);
                None
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.keys.binary_search(key).ok()?;
        self.keys.remove(i);
        Some(self.values.remove(i))
    }

    /// The keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.keys.iter()
    }

    /// The keys, ascending, as the map's own slice.
    #[must_use]
    pub fn key_slice(&self) -> &[K] {
        &self.keys
    }

    /// The entries, in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.keys.iter().zip(&self.values)
    }
}

/// Moves the entries out in ascending key order.
impl<K, V> IntoIterator for SortedMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::iter::Zip<std::vec::IntoIter<K>, std::vec::IntoIter<V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.keys.into_iter().zip(self.values)
    }
}

/// `BTreeMap::from_iter` semantics: entries sorted by key and, where a
/// key repeats, the **last** value wins. The vectors fit the distinct
/// keys exactly.
impl<K: Ord + Copy, V> FromIterator<(K, V)> for SortedMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut entries: Vec<(K, V)> = entries.into_iter().collect();
        // Stable: equal keys keep their input order, so the last one is
        // the one left standing below.
        entries.sort_by_key(|&(k, _)| k);
        let repeats = entries.windows(2).filter(|w| w[0].0 == w[1].0).count();
        let distinct = entries.len() - repeats;
        let mut map = SortedMap {
            keys: Vec::with_capacity(distinct),
            values: Vec::with_capacity(distinct),
        };
        for (k, v) in entries {
            match map.values.last_mut() {
                Some(last) if map.keys.last() == Some(&k) => *last = v,
                _ => {
                    map.keys.push(k);
                    map.values.push(v);
                }
            }
        }
        map
    }
}

/// An ordered set over one `Vec`: ascending, duplicate-free, lookups by
/// binary search, no slack. The node's `PS(x)` — see [`SortedMap`] for
/// why not a `BTreeSet`, and why a full vector grows by one.
#[derive(Debug, Clone)]
pub struct SortedSet<K> {
    keys: Vec<K>,
}

impl<K: Ord + Copy> Default for SortedSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Copy> SortedSet<K> {
    /// Creates an empty set. Does not allocate until the first insert.
    #[must_use]
    pub fn new() -> Self {
        SortedSet { keys: Vec::new() }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.keys.binary_search(key).is_ok()
    }

    /// Inserts `key`; returns `true` if it was not already present
    /// (mirroring `BTreeSet::insert`).
    pub fn insert(&mut self, key: K) -> bool {
        match self.keys.binary_search(&key) {
            Ok(_) => false,
            Err(i) => {
                if self.keys.len() == self.keys.capacity() {
                    self.keys.reserve_exact(1);
                }
                self.keys.insert(i, key);
                true
            }
        }
    }

    /// Drops every member but keeps the allocation, as [`FlatMap::clear`]
    /// does: the node's `notified` cache is cleared wholesale and refills
    /// to about the same size.
    pub fn clear(&mut self) {
        self.keys.clear();
    }

    /// Slots allocated (the vector's capacity).
    #[cfg(test)]
    pub(crate) fn allocated_slots(&self) -> usize {
        self.keys.capacity()
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.keys.binary_search(key) {
            Ok(i) => {
                self.keys.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.keys.iter()
    }

    /// The members, ascending, as the set's own slice.
    #[must_use]
    pub fn as_slice(&self) -> &[K] {
        &self.keys
    }

    /// The members, ascending, in the set's own vector.
    #[must_use]
    pub fn into_vec(self) -> Vec<K> {
        self.keys
    }
}

impl<K: Ord + Copy> FromIterator<K> for SortedSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(keys: I) -> Self {
        let mut keys: Vec<K> = keys.into_iter().collect();
        keys.sort_unstable();
        keys.dedup();
        keys.shrink_to_fit();
        SortedSet { keys }
    }
}

#[expect(clippy::disallowed_types, reason = "tests are exempt")]
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t: FlatMap<u64, u32> = FlatMap::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(7, 70), None);
        assert_eq!(t.insert(9, 90), None);
        assert_eq!(t.insert(7, 71), Some(70));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&7), Some(&71));
        assert!(t.contains_key(&9));
        assert!(!t.contains_key(&8));
        assert_eq!(t.remove(&7), Some(71));
        assert_eq!(t.remove(&7), None);
        assert_eq!(t.len(), 1);
        *t.get_mut(&9).unwrap() += 1;
        assert_eq!(t.get(&9), Some(&91));
        assert_eq!(t.remove_if(&9, |&v| v > 91), None);
        assert_eq!(t.remove_if(&8, |_| true), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove_if(&9, |&v| v == 91), Some(91));
        assert!(t.is_empty() && !t.contains_key(&9));
    }

    #[test]
    fn clear_keeps_working() {
        let mut t: FlatMap<u64, u64> = FlatMap::new();
        for i in 0..100 {
            t.insert(i, i * 2);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(&4), None);
        t.insert(4, 8);
        assert_eq!(t.get(&4), Some(&8));
        assert_eq!(t.len(), 1);
    }

    /// Differential check against `HashMap` through a scripted mix of
    /// inserts, updates, and removes — including dense sequential keys,
    /// the clustering worst case identity hashing would fail.
    #[test]
    fn agrees_with_std_hashmap() {
        let mut flat: FlatMap<u64, u64> = FlatMap::new();
        let mut std_map: HashMap<u64, u64> = HashMap::new();
        // A deterministic pseudo-random walk over a small key universe
        // keeps collision pressure and tombstone churn high.
        let mut x = 0x9e37_79b9_u64;
        for step in 0..20_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let key = x % 512;
            match x >> 62 {
                0 | 1 => {
                    assert_eq!(flat.insert(key, step), std_map.insert(key, step));
                }
                2 => {
                    assert_eq!(flat.remove(&key), std_map.remove(&key));
                }
                _ => {
                    assert_eq!(flat.get(&key), std_map.get(&key));
                    assert_eq!(flat.contains_key(&key), std_map.contains_key(&key));
                }
            }
            assert_eq!(flat.len(), std_map.len());
        }
        for key in 0..512 {
            assert_eq!(flat.get(&key), std_map.get(&key), "key {key}");
        }
    }

    /// The removal that empties the map frees its slots, by `remove` or by
    /// `remove_if`; the map then works as new. `clear` keeps them.
    #[test]
    fn drained_map_frees_its_slots_and_keeps_working() {
        let mut t: FlatMap<u64, u64> = FlatMap::new();
        assert_eq!(t.allocated_slots(), 0);
        for i in 0..40 {
            t.insert(i, i);
        }
        assert_eq!(t.allocated_slots(), 64);
        for i in 0..39 {
            assert_eq!(t.remove(&i), Some(i));
        }
        assert_eq!(t.allocated_slots(), 64, "one live entry keeps the table");
        assert_eq!(t.remove_if(&39, |&v| v != 39), None);
        assert_eq!(t.allocated_slots(), 64, "a refused remove_if keeps it");
        assert_eq!(t.remove_if(&39, |&v| v == 39), Some(39));
        assert_eq!(t.allocated_slots(), 0, "the emptying removal frees it");
        assert!(t.is_empty() && t.get(&39).is_none() && t.remove(&39).is_none());

        // Reinsert into the freed table: a fresh initial allocation.
        assert_eq!(t.insert(7, 70), None);
        assert_eq!(t.insert(7, 71), Some(70));
        *t.get_mut(&7).unwrap() += 1;
        assert_eq!(t.get(&7), Some(&72));
        assert_eq!((t.len(), t.allocated_slots()), (1, INITIAL_CAPACITY));
        assert_eq!(t.remove(&7), Some(72));
        assert_eq!(t.allocated_slots(), 0);

        // `clear` is not a removal: it keeps the allocation to refill.
        for i in 0..40 {
            t.insert(i, i);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.allocated_slots(), 64);

        // A set empties the same way.
        let mut s: FlatSet<u64> = FlatSet::new();
        assert!(s.insert(3) && s.remove(&3));
        assert_eq!(s.map.allocated_slots(), 0);
    }

    /// Heavy remove/insert cycling at constant size must not degrade the
    /// table into an all-tombstone state where probes never terminate.
    #[test]
    fn tombstone_churn_stays_bounded() {
        let mut t: FlatMap<u64, u64> = FlatMap::new();
        for round in 0..200u64 {
            for i in 0..64 {
                t.insert(round * 64 + i, i);
            }
            for i in 0..64 {
                assert_eq!(t.remove(&(round * 64 + i)), Some(i));
            }
        }
        assert!(t.is_empty());
        // Capacity stayed proportional to the live population, not to
        // the total insert traffic.
        assert!(
            t.slots.len() <= 1024,
            "table ballooned to {} slots",
            t.slots.len()
        );
    }

    /// Property differential: any sequence of inserts, removes, lookups,
    /// re-inserts and drains to empty — proptest drives the key universe
    /// small so probe chains collide and tombstones pile up — leaves
    /// `FlatMap`/`FlatSet` observationally equal to the std collections,
    /// with capacity bounded by the *peak live population*, never by total
    /// traffic (the rebuild-compaction guarantee), and no slots at all
    /// once drained.
    mod differential {
        use super::super::*;
        use proptest::prelude::*;
        use std::collections::{HashMap, HashSet};

        #[derive(Debug, Clone)]
        enum Op {
            Insert(u64, u64),
            Remove(u64),
            Lookup(u64),
            /// Remove every key in the universe, one by one.
            Drain,
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            // Keys from a 64-wide universe: at a few thousand ops every
            // key cycles through insert → remove → reinsert many times,
            // the adversarial pattern for tombstone handling. About one op
            // in 65 drains the map, so a long run empties and refills it
            // dozens of times.
            let op = (0..64u64, any::<u64>(), 0..=64u8).prop_map(|(key, value, kind)| match kind {
                64 => Op::Drain,
                _ => match kind % 4 {
                    0 | 1 => Op::Insert(key, value),
                    2 => Op::Remove(key),
                    _ => Op::Lookup(key),
                },
            });
            proptest::collection::vec(op, 1..3_000)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn flat_map_agrees_with_std_and_stays_compact(ops in arb_ops()) {
                let mut flat: FlatMap<u64, u64> = FlatMap::new();
                let mut std_map: HashMap<u64, u64> = HashMap::new();
                let mut peak = 0usize;
                for op in &ops {
                    match *op {
                        Op::Insert(k, v) => {
                            prop_assert_eq!(flat.insert(k, v), std_map.insert(k, v));
                        }
                        Op::Remove(k) => {
                            prop_assert_eq!(flat.remove(&k), std_map.remove(&k));
                        }
                        Op::Lookup(k) => {
                            prop_assert_eq!(flat.get(&k), std_map.get(&k));
                            prop_assert_eq!(flat.contains_key(&k), std_map.contains_key(&k));
                        }
                        Op::Drain => {
                            for k in 0..64 {
                                prop_assert_eq!(flat.remove(&k), std_map.remove(&k));
                            }
                            prop_assert_eq!(flat.allocated_slots(), 0);
                        }
                    }
                    prop_assert_eq!(flat.len(), std_map.len());
                    peak = peak.max(std_map.len());
                }
                for k in 0..64 {
                    prop_assert_eq!(flat.get(&k), std_map.get(&k), "key {}", k);
                }
                // Rebuild bound: a doubling needs len*2 ≥ capacity at
                // rebuild time, so capacity can never exceed 4× the peak
                // live population (rounded up to a power of two) plus the
                // initial allocation — no matter how many tombstones the
                // remove/reinsert churn produced.
                let bound = (4 * peak.max(1)).next_power_of_two().max(INITIAL_CAPACITY);
                prop_assert!(
                    flat.slots.len() <= bound,
                    "capacity {} exceeds bound {} at peak {}",
                    flat.slots.len(),
                    bound,
                    peak
                );
            }

            #[test]
            fn flat_set_agrees_with_std(ops in arb_ops()) {
                let mut flat: FlatSet<u64> = FlatSet::new();
                let mut std_set: HashSet<u64> = HashSet::new();
                for op in &ops {
                    match *op {
                        Op::Insert(k, _) => {
                            prop_assert_eq!(flat.insert(k), std_set.insert(k));
                        }
                        Op::Remove(k) => {
                            prop_assert_eq!(flat.remove(&k), std_set.remove(&k));
                        }
                        Op::Lookup(k) => {
                            prop_assert_eq!(flat.contains(&k), std_set.contains(&k));
                        }
                        Op::Drain => {
                            for k in 0..64 {
                                prop_assert_eq!(flat.remove(&k), std_set.remove(&k));
                            }
                            prop_assert_eq!(flat.map.allocated_slots(), 0);
                        }
                    }
                    prop_assert_eq!(flat.len(), std_set.len());
                }
            }
        }
    }

    /// PS/TS vectors carry no slack: n distinct inserts leave exactly n
    /// slots, whatever the insert order, and so does `from_iter` over
    /// input with duplicates.
    #[test]
    fn sorted_vectors_fit_exactly() {
        let mut map: SortedMap<u64, [u64; 4]> = SortedMap::new();
        let mut set: SortedSet<u64> = SortedSet::new();
        for n in 1..=100u64 {
            let key = n.wrapping_mul(0x9e37_79b9) % 1_000;
            assert_eq!(map.insert(key, [n; 4]), None);
            assert!(set.insert(key));
            assert_eq!(map.keys.capacity(), map.len());
            assert_eq!(map.values.capacity(), map.len());
            assert_eq!(set.keys.capacity(), set.len());
        }
        // A repeat insert replaces in place and allocates nothing.
        let first = *map.keys().next().unwrap();
        assert!(map.insert(first, [0; 4]).is_some() && !set.insert(first));
        assert_eq!((map.keys.capacity(), set.keys.capacity()), (100, 100));

        let entries = (0..300u64).map(|i| (i % 70, [i; 4]));
        let map: SortedMap<u64, [u64; 4]> = entries.collect();
        assert_eq!(map.len(), 70);
        assert_eq!((map.keys.capacity(), map.values.capacity()), (70, 70));
        assert_eq!(map.get(&3), Some(&[283; 4]), "the last value wins");
        let set: SortedSet<u64> = (0..300u64).map(|i| i % 70).collect();
        assert_eq!((set.len(), set.keys.capacity()), (70, 70));
        let empty: SortedMap<u64, u64> = std::iter::empty().collect();
        assert_eq!((empty.len(), empty.keys.capacity()), (0, 0));
    }

    /// `SortedSet::clear` empties the set and keeps its slots: refilling
    /// up to the old length does not reallocate.
    #[test]
    fn sorted_set_clear_keeps_its_slots() {
        let mut set: SortedSet<(NodeId, NodeId)> = SortedSet::new();
        let pair = |i: u32| (NodeId::from_index(i % 7), NodeId::from_index(i));
        for i in 0..27 {
            assert!(set.insert(pair(i)));
        }
        assert_eq!((set.len(), set.allocated_slots()), (27, 27));
        let ptr = set.keys.as_ptr();
        set.clear();
        assert!(set.is_empty() && !set.contains(&pair(3)));
        assert_eq!(set.allocated_slots(), 27);
        for i in (100..127).rev() {
            assert!(set.insert(pair(i)));
            assert_eq!(set.allocated_slots(), 27);
            assert_eq!(set.keys.as_ptr(), ptr, "refill reallocated");
        }
        assert!(set.iter().is_sorted());
        // One more pair than the old length grows by one slot.
        assert!(set.insert(pair(200)));
        assert_eq!((set.len(), set.allocated_slots()), (28, 28));
    }

    #[test]
    fn set_semantics_match_hashset() {
        let mut s: FlatSet<NodeId> = FlatSet::new();
        let a = NodeId::from_index(1);
        let b = NodeId::from_index(2);
        assert!(s.insert(a));
        assert!(!s.insert(a));
        assert!(s.insert(b));
        assert_eq!(s.len(), 2);
        assert!(s.contains(&a));
        assert!(s.remove(&a));
        assert!(!s.remove(&a));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }
}
