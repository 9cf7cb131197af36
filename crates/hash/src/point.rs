//! Points on the unit interval, consistency-condition thresholds, and the
//! shared pair-point memoization cache.

use core::fmt;

/// A point in the half-open unit interval `[0, 1)`, stored as a 64-bit
/// numerator over the implicit denominator `2^64`.
///
/// This is the normalized output of a [`PairHasher`](crate::PairHasher): the
/// paper takes "only the first 64 bits returned" of an MD5 digest and treats
/// them as a real number in `[0, 1)`. Storing the raw numerator keeps
/// comparisons exact (no floating-point rounding at the decision boundary).
///
/// # Example
///
/// ```
/// use avmon_hash::HashPoint;
///
/// let p = HashPoint::from_bits(u64::MAX / 2 + 1);
/// assert!((p.as_fraction() - 0.5).abs() < 1e-12);
/// assert!(HashPoint::ZERO < p);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HashPoint(u64);

impl HashPoint {
    /// The smallest representable point, `0.0`.
    pub const ZERO: HashPoint = HashPoint(0);

    /// The largest representable point, `1 - 2^-64`.
    pub const MAX: HashPoint = HashPoint(u64::MAX);

    /// Creates a point from its raw 64-bit numerator.
    #[must_use]
    pub const fn from_bits(bits: u64) -> Self {
        HashPoint(bits)
    }

    /// Returns the raw 64-bit numerator.
    #[must_use]
    pub const fn to_bits(self) -> u64 {
        self.0
    }

    /// Converts the point to an `f64` fraction in `[0, 1)`.
    ///
    /// Only 53 bits of precision survive the conversion; use the ordered
    /// integer representation ([`HashPoint::to_bits`]) when exactness at a
    /// decision boundary matters. Numerators within one ulp of `2^64` are
    /// clamped so the result stays strictly below `1.0`.
    #[must_use]
    pub fn as_fraction(self) -> f64 {
        // 2^64 as f64 is exact; the division may round up to 1.0 for the
        // largest numerators, which the clamp undoes.
        let f = self.0 as f64 / 18_446_744_073_709_551_616.0;
        f.min(1.0 - f64::EPSILON)
    }
}

impl fmt::Display for HashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_fraction())
    }
}

impl fmt::LowerHex for HashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// The consistency-condition threshold `K / N`.
///
/// A pair `(y, x)` is a monitoring pair iff `H(y, x) ≤ K/N`; this type stores
/// the threshold in the same fixed-point representation as [`HashPoint`] so
/// the comparison is exact and identical on every node.
///
/// # Example
///
/// ```
/// use avmon_hash::{HashPoint, Threshold};
///
/// // K = 20 monitors expected in a system of N = 1_000_000 nodes.
/// let t = Threshold::from_ratio(20.0, 1_000_000.0);
/// assert!(t.accepts(HashPoint::ZERO));
/// assert!(!t.accepts(HashPoint::MAX));
/// assert!((t.as_fraction() - 2e-5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Threshold(u64);

impl Threshold {
    /// A threshold accepting every point (ratio ≥ 1).
    pub const ALWAYS: Threshold = Threshold(u64::MAX);

    /// A threshold accepting (almost) nothing: only the exact zero point.
    pub const ZERO: Threshold = Threshold(0);

    /// Builds the threshold `k / n`.
    ///
    /// Values are clamped to `[0, 1]`; a ratio of `1` or more accepts every
    /// point.
    ///
    /// # Panics
    ///
    /// Panics if `k` is negative or `n` is not strictly positive, which would
    /// make the consistency condition meaningless.
    #[must_use]
    pub fn from_ratio(k: f64, n: f64) -> Self {
        assert!(
            k >= 0.0,
            "threshold numerator must be non-negative, got {k}"
        );
        assert!(n > 0.0, "threshold denominator must be positive, got {n}");
        let ratio = k / n;
        if ratio >= 1.0 {
            return Threshold::ALWAYS;
        }
        // Round to nearest representable fixed-point value.
        Threshold((ratio * 18_446_744_073_709_551_616.0) as u64)
    }

    /// Whether `point` satisfies the consistency condition `point ≤ K/N`.
    #[must_use]
    pub fn accepts(self, point: HashPoint) -> bool {
        point.to_bits() <= self.0
    }

    /// The threshold as an `f64` fraction.
    #[must_use]
    pub fn as_fraction(self) -> f64 {
        self.0 as f64 / 18_446_744_073_709_551_616.0
    }

    /// Raw fixed-point bits (numerator over `2^64`).
    #[must_use]
    pub const fn to_bits(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Threshold {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3e}", self.as_fraction())
    }
}

/// A memoization cache for pair hash points.
///
/// Every [`PairHasher`](crate::PairHasher) is a pure function, so the point
/// of a `(monitor, target)` pair can be computed once and reused for the
/// lifetime of both identities — which turns an availability checker's
/// per-sample `O(pairs)` re-hashing into `O(changed pairs)` hashing plus
/// `O(1)` lookups. Callers key entries by two opaque `u64` identity keys
/// (e.g. a 48-bit `<IP, port>` encoding).
///
/// The cache is a *2-way set-associative* table: a pair hashes to one
/// two-slot set of a power-of-two table, a colliding insert evicts the
/// least-recently-used way, and a lookup is one mix plus two adjacent
/// slot compares — no probing, no rehashing, no per-entry allocation.
/// That keeps the hit path short and bounds memory at exactly `capacity`
/// slots (grown lazily up to the bound, so small runs never pay for a
/// large cap). The price is that a set conflict evicts silently — a memo
/// never promises to *hold* a pair, only that whatever it returns equals
/// the fresh hash.
///
/// The table doubles in place, from `n` to `2n` slots, when it is half
/// full. A pair's set gains one index bit, so each old set `s` splits into
/// sets `s` and `s + n` and no two old sets feed the same new one: a new
/// set receives at most the two ways of its one old set, in their way
/// order, so a doubling drops no entry and lays out the same table as
/// re-slotting every entry into a fresh one would. Growing the vector
/// (one `realloc`) never holds the old and the new table at once.
///
/// Because the underlying hash is pure, invalidation is never required for
/// *correctness*; it exists as a memory-hygiene lever. [`PointMemo::forget`]
/// invalidates every cached pair involving one identity in `O(1)` by bumping
/// that identity's *generation* — stale entries fail the generation compare
/// and are recomputed on their next lookup. Drivers call it when a node's
/// incarnation bumps, so a churn-heavy run does not serve pairs cached for
/// long-departed incarnations without re-validating them. (Generations are
/// themselves direct-mapped, so a `forget` may spuriously invalidate an
/// unrelated colliding identity — again costing only a recompute.)
///
/// # Example
///
/// ```
/// use avmon_hash::{HashPoint, PointMemo};
///
/// let mut memo = PointMemo::new(1024);
/// let mut computed = 0;
/// for _ in 0..3 {
///     let p = memo.point_with(1, 2, || {
///         computed += 1;
///         HashPoint::from_bits(7)
///     });
///     assert_eq!(p.to_bits(), 7);
/// }
/// assert_eq!(computed, 1, "hashed once, served from cache twice");
/// assert_eq!(memo.hits(), 2);
/// ```
#[derive(Debug, Default)]
pub struct PointMemo {
    /// Direct-mapped slot table; empty until the first insert, then grown
    /// by powers of two up to `cap` slots as occupancy rises.
    slots: Vec<Slot>,
    /// Requested capacity in slots (power of two); `0` disables caching.
    cap: usize,
    /// Occupied slots.
    len: usize,
    /// Direct-mapped per-identity generation counters; allocated on the
    /// first [`PointMemo::forget`].
    gens: Vec<u32>,
    hits: u64,
    misses: u64,
}

/// One direct-mapped cache slot: the pair, the generations of both
/// identities at insertion time, and the cached point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Slot {
    a: u64,
    b: u64,
    gen_a: u32,
    gen_b: u32,
    point: HashPoint,
    occupied: bool,
}

/// Generation-table slots (fixed: generations are a hygiene signal, and a
/// collision only costs a spurious recompute).
const GEN_SLOTS: usize = 1 << 12;

/// Initial slot-table size; doubled up to the cap as occupancy grows.
const INITIAL_SLOTS: usize = 1 << 10;

/// The SplitMix64 / fmix64 finalizer (local copy: `point.rs` must not
/// depend on the `fast64` module it serves).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline]
fn pair_slot(a: u64, b: u64) -> u64 {
    mix(a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b)
}

impl PointMemo {
    /// Creates a memo bounded at `cap` slots (rounded up to a power of
    /// two). `0` disables caching entirely: every lookup computes.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        PointMemo {
            slots: Vec::new(),
            cap: if cap == 0 {
                0
            } else {
                cap.checked_next_power_of_two().unwrap_or(1 << 63).max(2)
            },
            len: 0,
            gens: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn gen_of(&self, key: u64) -> u32 {
        if self.gens.is_empty() {
            0
        } else {
            self.gens[(mix(key) & (GEN_SLOTS as u64 - 1)) as usize]
        }
    }

    /// The two-slot set a pair maps to, as the index of its first way.
    #[inline]
    fn set_base(&self, a: u64, b: u64) -> usize {
        // slots.len() is a power of two ≥ 2; sets are adjacent slot pairs
        // (one cache line), so both ways cost a single memory access.
        ((pair_slot(a, b) as usize) & (self.slots.len() - 1)) & !1
    }

    /// Doubles the slot table (up to the cap) when it is half full, in
    /// place: see the type docs.
    fn maybe_grow(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![Slot::default(); INITIAL_SLOTS.min(self.cap)];
            return;
        }
        if self.len * 2 < self.slots.len() || self.slots.len() >= self.cap {
            return;
        }
        // `cap` is a power of two above `n`, so the table grows to `2n`.
        let n = self.slots.len();
        self.slots.resize(2 * n, Slot::default());
        for base in (0..n).step_by(2) {
            let ways = [self.slots[base], self.slots[base + 1]];
            let (mut low, mut high) = (base, base + n);
            self.slots[base] = Slot::default();
            self.slots[base + 1] = Slot::default();
            for slot in ways.into_iter().filter(|s| s.occupied) {
                // The one new hash bit picks set `base` or `base + n`.
                let to = if pair_slot(slot.a, slot.b) as usize & n == 0 {
                    &mut low
                } else {
                    &mut high
                };
                self.slots[*to] = slot;
                *to += 1;
            }
        }
    }

    /// The memoized point for `(a, b)`, calling `compute` only on a miss
    /// (or when either identity was [`forgotten`](PointMemo::forget) since
    /// the entry was cached).
    pub fn point_with(&mut self, a: u64, b: u64, compute: impl FnOnce() -> HashPoint) -> HashPoint {
        let (ga, gb) = (self.gen_of(a), self.gen_of(b));
        if !self.slots.is_empty() {
            let base = self.set_base(a, b);
            for way in 0..2 {
                let s = self.slots[base + way];
                if s.occupied && s.a == a && s.b == b && s.gen_a == ga && s.gen_b == gb {
                    self.hits += 1;
                    if way == 1 {
                        // Promote to the MRU way (pseudo-LRU).
                        self.slots.swap(base, base + 1);
                    }
                    return s.point;
                }
            }
        }
        self.misses += 1;
        let point = compute();
        if self.cap == 0 {
            return point;
        }
        self.maybe_grow();
        let base = self.set_base(a, b);
        let entry = Slot {
            a,
            b,
            gen_a: ga,
            gen_b: gb,
            point,
            occupied: true,
        };
        // Insert as MRU: demote way 0 into way 1 (evicting the LRU way)
        // unless way 0 is the stale version of this very pair.
        let way0 = self.slots[base];
        if way0.occupied && !(way0.a == a && way0.b == b) {
            self.len += usize::from(!self.slots[base + 1].occupied);
            self.slots[base + 1] = way0;
        } else {
            self.len += usize::from(!way0.occupied);
        }
        self.slots[base] = entry;
        point
    }

    /// Invalidates every cached pair involving `key` in `O(1)` by bumping
    /// its generation. See the type docs: a hygiene lever, not a
    /// correctness requirement — pair hashes are pure.
    pub fn forget(&mut self, key: u64) {
        if self.gens.is_empty() {
            self.gens = vec![0; GEN_SLOTS];
        }
        let slot = (mix(key) & (GEN_SLOTS as u64 - 1)) as usize;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
    }

    /// Cached pairs currently stored (including generation-stale ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lookups served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to compute.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every cached pair (generations and counters survive).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_of_zero_and_max() {
        assert_eq!(HashPoint::ZERO.as_fraction(), 0.0);
        assert!(HashPoint::MAX.as_fraction() < 1.0);
        assert!(HashPoint::MAX.as_fraction() > 0.999_999);
    }

    #[test]
    fn ordering_matches_bits() {
        assert!(HashPoint::from_bits(1) < HashPoint::from_bits(2));
        assert!(HashPoint::from_bits(u64::MAX) > HashPoint::from_bits(0));
    }

    #[test]
    fn threshold_accepts_boundary_inclusively() {
        let t = Threshold::from_ratio(1.0, 4.0);
        let boundary = HashPoint::from_bits(t.to_bits());
        assert!(t.accepts(boundary), "condition is H ≤ K/N, inclusive");
        assert!(!t.accepts(HashPoint::from_bits(t.to_bits() + 1)));
    }

    #[test]
    fn threshold_ratio_one_accepts_everything() {
        let t = Threshold::from_ratio(5.0, 5.0);
        assert!(t.accepts(HashPoint::MAX));
        let t2 = Threshold::from_ratio(10.0, 5.0);
        assert!(t2.accepts(HashPoint::MAX));
    }

    #[test]
    fn threshold_zero_accepts_only_zero() {
        assert!(Threshold::ZERO.accepts(HashPoint::ZERO));
        assert!(!Threshold::ZERO.accepts(HashPoint::from_bits(1)));
    }

    #[test]
    #[should_panic(expected = "denominator must be positive")]
    fn threshold_rejects_zero_denominator() {
        let _ = Threshold::from_ratio(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "numerator must be non-negative")]
    fn threshold_rejects_negative_numerator() {
        let _ = Threshold::from_ratio(-1.0, 10.0);
    }

    #[test]
    fn threshold_fraction_close_to_ratio() {
        for (k, n) in [(11.0, 2000.0), (8.0, 239.0), (9.0, 550.0), (20.0, 1e6)] {
            let t = Threshold::from_ratio(k, n);
            assert!(
                (t.as_fraction() - k / n).abs() < 1e-12,
                "K={k} N={n}: got {}",
                t.as_fraction()
            );
        }
    }

    #[test]
    fn display_formats() {
        let p = HashPoint::from_bits(u64::MAX / 2);
        assert_eq!(format!("{p}"), "0.500000");
        let t = Threshold::from_ratio(1.0, 1000.0);
        assert!(format!("{t}").contains('e'));
    }

    #[test]
    fn memo_caches_and_counts() {
        let mut memo = PointMemo::new(1024);
        let mut calls = 0u32;
        let mut get = |m: &mut PointMemo, a, b| {
            m.point_with(a, b, || {
                calls += 1;
                HashPoint::from_bits(a ^ b)
            })
        };
        assert_eq!(get(&mut memo, 1, 2).to_bits(), 3);
        assert_eq!(get(&mut memo, 1, 2).to_bits(), 3);
        // Ordered pairs are distinct keys (the condition is directional).
        assert_eq!(get(&mut memo, 2, 1).to_bits(), 3);
        assert_eq!(calls, 2);
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 2);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn memo_forget_invalidates_only_pairs_involving_key() {
        let mut memo = PointMemo::new(1024);
        for (a, b) in [(1, 2), (3, 4)] {
            memo.point_with(a, b, || HashPoint::from_bits(99));
        }
        memo.forget(1);
        let mut recomputed = false;
        memo.point_with(1, 2, || {
            recomputed = true;
            HashPoint::from_bits(99)
        });
        assert!(recomputed, "forgotten identity must recompute");
        let mut untouched = true;
        memo.point_with(3, 4, || {
            untouched = false;
            HashPoint::from_bits(99)
        });
        assert!(untouched, "unrelated pair must stay cached");
    }

    #[test]
    fn memo_capacity_bounds_slots() {
        let mut memo = PointMemo::new(2);
        for i in 0..64u64 {
            memo.point_with(i, i + 1, || HashPoint::from_bits(i));
        }
        assert!(memo.len() <= 2, "capacity bound violated: {}", memo.len());
        assert!(!memo.is_empty());
        memo.clear();
        assert!(memo.is_empty());
        // Cleared entries recompute (and re-cache) on the next lookup.
        let mut recomputed = false;
        memo.point_with(0, 1, || {
            recomputed = true;
            HashPoint::from_bits(0)
        });
        assert!(recomputed);
    }

    #[test]
    fn memo_zero_capacity_disables_caching() {
        let mut memo = PointMemo::new(0);
        let mut calls = 0u32;
        for _ in 0..3 {
            memo.point_with(1, 2, || {
                calls += 1;
                HashPoint::from_bits(9)
            });
        }
        assert_eq!(calls, 3, "a disabled memo must always compute");
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.misses(), 3);
        assert!(memo.is_empty());
    }

    /// Whatever the memo serves must equal the fresh computation, under
    /// arbitrary interleavings of lookups and forgets — the direct-mapped
    /// table may *evict*, never *corrupt*.
    #[test]
    fn memo_never_serves_a_wrong_point() {
        let fresh = |a: u64, b: u64| HashPoint::from_bits(mix(a ^ mix(b)));
        let mut memo = PointMemo::new(64); // tiny: force collisions
        let mut x = 0x1234_5678u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 33) % 97;
            let b = (x >> 13) % 97;
            if x.is_multiple_of(11) {
                memo.forget(a);
            }
            let got = memo.point_with(a, b, || fresh(a, b));
            assert_eq!(got, fresh(a, b), "memo served a stale/corrupt point");
        }
        assert!(memo.hits() > 0, "tiny memo should still hit sometimes");
    }

    /// The growth the memo had before it doubled in place: a fresh table
    /// of twice the slots, every entry re-slotted in slot order, an entry
    /// whose new set is full dropped. The reference model of
    /// `memo_doubles_in_place_exactly_as_reslotting_would`.
    fn reslot(memo: &mut PointMemo) {
        let grown = (memo.slots.len() * 2).min(memo.cap);
        let old = std::mem::replace(&mut memo.slots, vec![Slot::default(); grown]);
        memo.len = 0;
        for slot in old.into_iter().filter(|s| s.occupied) {
            let base = memo.set_base(slot.a, slot.b);
            if !memo.slots[base].occupied {
                memo.slots[base] = slot;
                memo.len += 1;
            } else if !memo.slots[base + 1].occupied {
                memo.slots[base + 1] = slot;
                memo.len += 1;
            }
        }
    }

    /// `point_with` on the reference memo: when the lookup is about to miss
    /// into a table due to grow, the table is re-slotted first, so the
    /// memo's own in-place growth finds nothing left to do. (A miss changes
    /// nothing before the insert, so growing before the lookup or after it
    /// is the same.)
    fn reference_point_with(memo: &mut PointMemo, a: u64, b: u64, point: HashPoint) -> HashPoint {
        let (ga, gb) = (memo.gen_of(a), memo.gen_of(b));
        let hit = !memo.slots.is_empty() && {
            let base = memo.set_base(a, b);
            memo.slots[base..base + 2]
                .iter()
                .any(|s| s.occupied && (s.a, s.b, s.gen_a, s.gen_b) == (a, b, ga, gb))
        };
        let due = memo.len * 2 >= memo.slots.len() && memo.slots.len() < memo.cap;
        if !hit && !memo.slots.is_empty() && due {
            reslot(memo);
        }
        memo.point_with(a, b, || point)
    }

    /// The in-place doubling builds slot for slot the table re-slotting
    /// builds, over three doublings (1 024 → 8 192 slots) of a seeded mix
    /// of new pairs, repeats and forgets: the same points, counters and
    /// length after every op, and the same slots after every growth.
    #[test]
    fn memo_doubles_in_place_exactly_as_reslotting_would() {
        const PAIRS: u64 = 6_000;
        let fresh = |a: u64, b: u64| HashPoint::from_bits(mix(a ^ mix(b)));
        let pair_of = |i: u64| (i / 97, 1_000 + i % 97);
        let (mut memo, mut reference) = (PointMemo::new(8_192), PointMemo::new(8_192));
        let mut seen = vec![false; PAIRS as usize];
        let (mut next, mut growths) = (0u64, 0u32);
        let mut x = 0x5eed_u64;
        for _ in 0..40_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = match (x >> 60) % 8 {
                // A new pair, in order, until the universe is used up.
                0..=3 if next < PAIRS => {
                    next += 1;
                    next - 1
                }
                // A forget of either endpoint of a seen pair.
                4 if next > 0 => {
                    let (a, b) = pair_of((x >> 20) % next);
                    let key = if x & 1 == 0 { a } else { b };
                    memo.forget(key);
                    reference.forget(key);
                    continue;
                }
                // A repeat: one of the last 64 pairs, or any seen one.
                5 | 6 if next > 0 => next - 1 - (x >> 20) % next.min(64),
                _ => (x >> 20) % PAIRS,
            };
            seen[i as usize] = true;
            let (a, b) = pair_of(i);
            let slots = memo.slots.len();
            let got = memo.point_with(a, b, || fresh(a, b));
            let want = reference_point_with(&mut reference, a, b, fresh(a, b));
            assert_eq!(got, want);
            assert_eq!(got, fresh(a, b));
            assert_eq!(
                (memo.hits(), memo.misses(), memo.len()),
                (reference.hits(), reference.misses(), reference.len())
            );
            if memo.slots.len() != slots && slots > 0 {
                growths += 1;
                let grown = memo.slots.len();
                assert_eq!(memo.slots, reference.slots, "growth to {grown}");
            }
        }
        assert_eq!(memo.slots, reference.slots);
        assert_eq!((growths, memo.slots.len()), (3, 8_192));
        assert!(seen.iter().filter(|&&s| s).count() >= 5_000);
        assert!(memo.hits() > 0 && memo.misses() > 5_000);
    }

    /// The acceptance probability of a uniform point should be ≈ K/N.
    #[test]
    fn acceptance_rate_matches_ratio() {
        let t = Threshold::from_ratio(1.0, 50.0);
        // A simple deterministic LCG over u64 space.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut accepted = 0u32;
        let trials = 200_000u32;
        for _ in 0..trials {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if t.accepts(HashPoint::from_bits(x)) {
                accepted += 1;
            }
        }
        let rate = f64::from(accepted) / f64::from(trials);
        assert!((rate - 0.02).abs() < 0.005, "rate {rate} should be ~0.02");
    }
}
