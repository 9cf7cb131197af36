//! Points on the unit interval and consistency-condition thresholds.

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
