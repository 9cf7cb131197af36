//! A fast non-cryptographic pair hasher based on SplitMix64 finalizers.
//!
//! Reproducing a 2000-node, 48-hour AVMON run means evaluating the
//! consistency condition on the order of 10^10 times; an honest MD5 at that
//! volume dominates wall-clock time without changing any result (§3.1 only
//! requires the hash to be consistent, verifiable and uniform). `Fast64`
//! absorbs the input in 8-byte chunks through the SplitMix64 mixing function
//! (Steele, Lea & Flood, OOPSLA 2014), which passes standard avalanche and
//! uniformity checks.

use crate::{HashPoint, PairHasher};

/// The 64-bit finalizer from SplitMix64 / MurmurHash3's `fmix64`.
#[inline]
#[must_use]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fast pair hasher: SplitMix64-mixed absorption of 8-byte chunks.
///
/// # Example
///
/// ```
/// use avmon_hash::{Fast64PairHasher, PairHasher};
///
/// let h = Fast64PairHasher::new();
/// assert_eq!(h.point(b"pair"), h.point(b"pair"));
/// assert_ne!(h.point(b"pair"), h.point(b"riap"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Fast64PairHasher;

/// The golden-ratio seed every state starts from. It is part of the hash
/// function, so every node of every deployment computes the same points.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl Fast64PairHasher {
    /// Creates the hasher.
    #[must_use]
    pub fn new() -> Self {
        Fast64PairHasher
    }

    /// The first half of [`PairHasher::point12`]: the state after the
    /// length mix and the first (and only full) 8-byte word of a 12-byte
    /// input. Pairs sharing that word share this state, so a batch over
    /// them pays it once and [`Fast64PairHasher::finish12`] per pair.
    #[inline]
    #[must_use]
    pub fn absorb12_head(head: u64) -> u64 {
        const LEN_MIX: u64 = mix64(12);
        mix64(SEED ^ LEN_MIX ^ head)
    }

    /// The second half of [`PairHasher::point12`]: absorbs the
    /// zero-padded 4-byte tail of a 12-byte input into an
    /// [`Fast64PairHasher::absorb12_head`] state and finalizes.
    #[inline]
    #[must_use]
    pub fn finish12(state: u64, tail: u32) -> HashPoint {
        HashPoint::from_bits(mix64(mix64(state ^ u64::from(tail))))
    }
}

impl PairHasher for Fast64PairHasher {
    fn point(&self, input: &[u8]) -> HashPoint {
        let mut state = SEED ^ mix64(input.len() as u64);
        let mut chunks = input.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes([
                chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
            ]);
            state = mix64(state ^ word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            state = mix64(state ^ u64::from_le_bytes(tail));
        }
        HashPoint::from_bits(mix64(state))
    }

    fn name(&self) -> &'static str {
        "fast64"
    }

    /// [`PairHasher::point`]'s chunk loop unrolled for exactly one 8-byte
    /// word plus one zero-padded 4-byte tail, with the length mix a
    /// constant.
    #[inline]
    fn point12(&self, head: u64, tail: u32) -> HashPoint {
        Self::finish12(Self::absorb12_head(head), tail)
    }
}

#[allow(clippy::disallowed_types, clippy::disallowed_methods)] // tests are exempt from the determinism lints
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_input_sensitive() {
        let h = Fast64PairHasher::new();
        assert_eq!(h.point(b"x"), h.point(b"x"));
        assert_ne!(h.point(b"x"), h.point(b"y"));
    }

    #[test]
    fn length_extension_distinct() {
        // Inputs that are prefixes of each other must hash differently
        // (the absorbed length guarantees it).
        let h = Fast64PairHasher::new();
        assert_ne!(h.point(b""), h.point(b"\0"));
        assert_ne!(h.point(b"\0"), h.point(b"\0\0"));
        assert_ne!(h.point(b"abcd1234"), h.point(b"abcd1234\0"));
    }

    #[test]
    fn avalanche_on_single_bit_flip() {
        // Flipping one input bit should flip ~32 of the 64 output bits.
        let h = Fast64PairHasher::new();
        let mut total_flips = 0u32;
        let trials = 256u32;
        for i in 0..trials {
            let base = [(i % 256) as u8; 12];
            let mut flipped = base;
            flipped[(i as usize) % 12] ^= 1 << (i % 8);
            let d = h.point(&base).to_bits() ^ h.point(&flipped).to_bits();
            total_flips += d.count_ones();
        }
        let avg = f64::from(total_flips) / f64::from(trials);
        assert!((avg - 32.0).abs() < 4.0, "avalanche average {avg} bits");
    }

    #[test]
    fn staged_12_byte_hash_matches_oneshot() {
        let hasher = Fast64PairHasher::new();
        for i in 0u64..512 {
            let mut input = [0u8; 12];
            input[..8].copy_from_slice(&mix64(i).to_le_bytes());
            input[8..].copy_from_slice(&(i as u32).to_le_bytes());
            let (head, tail) = crate::pair12_words(&input);
            let staged = Fast64PairHasher::finish12(Fast64PairHasher::absorb12_head(head), tail);
            assert_eq!(
                staged,
                hasher.point(&input),
                "staged hash diverged on input {input:?}"
            );
            assert_eq!(
                staged,
                hasher.point12(head, tail),
                "staged hash diverged from point12 on input {input:?}"
            );
        }
    }

    #[test]
    fn mix64_is_a_bijection_sample() {
        // Spot-check injectivity on a contiguous range (mix64 is invertible).
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..10_000 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }
}
