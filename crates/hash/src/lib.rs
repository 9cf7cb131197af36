//! Consistent hashing substrate for AVMON.
//!
//! AVMON (Morales & Gupta, ICDCS 2007) decides whether a node `y` monitors a
//! node `x` by evaluating a *consistency condition*
//!
//! ```text
//! y ∈ PS(x)  ⇔  H(y, x) ≤ K / N
//! ```
//!
//! where `H` is a consistent hash function whose output is normalized to the
//! real interval `[0, 1)`. The paper uses libSSL's MD5 and considers only the
//! first 64 bits of the digest. This crate provides that exact construction,
//! plus one alternative, behind the [`PairHasher`] trait:
//!
//! * [`Md5PairHasher`] — MD5 (RFC 1321, implemented from scratch here),
//!   first 64 digest bits interpreted big-endian. This is the paper's hash.
//! * [`Fast64PairHasher`] — a SplitMix64-style mixer, uniform and much
//!   cheaper than MD5: per pair about 30× one pair at a time and about 9×
//!   batched (`BENCH_sim_large.json` → `hash_check_ns` has the recorded
//!   numbers). The experiment harness uses it by default so that
//!   multi-billion-pair simulations finish quickly.
//!
//! All hashers are deterministic pure functions: the same input bytes always
//! map to the same [`HashPoint`], on every node, forever — which is what
//! makes the monitor relationship *consistent* and *verifiable*.
//!
//! # The pair kernel
//!
//! The protocol only ever hashes one shape of input on its hot path: the
//! 12-byte `monitor ‖ target` pair encoding, `2·(cvs+2)²` times per node
//! per period. [`PairHasher::point12`] is the fixed-length entry point for
//! exactly that shape. It takes the 12 bytes as two little-endian words
//! (see [`pair12_words`]) so a caller that already holds the identities as
//! integers never writes them to memory, and each hasher implements it as
//! its general routine specialised for the known length — one unrolled
//! word + tail for [`Fast64PairHasher`], one compression of the single
//! padded block for MD5. It is **the same function of the same bytes**:
//! `point12(pair12_words(&b)) == point(&b)` for every `b`, held by
//! `tests/proptests.rs`. [`PairHasher::point`] stays the definition;
//! `point12` is only ever a faster way to evaluate it.
//!
//! Each built-in hasher also has one batch form of `point12`, inherent to
//! its type because only a caller that knows the type can use it:
//!
//! * [`Fast64PairHasher::absorb12_head`] and [`Fast64PairHasher::finish12`]
//!   are `point12`'s two halves, so pairs sharing their first 8 bytes
//!   share the first half.
//! * [`Md5PairHasher::point12_lanes`] evaluates [`PAIR_LANES`] pairs in
//!   one single-block compression over the sixteen lanes, so the
//!   compressions run side by side instead of one after another. On a CPU
//!   with AVX-512F that is an intrinsics kernel holding all sixteen lanes
//!   in one 512-bit vector per state word, picked at run time; anywhere
//!   else it is plain Rust over lane arrays that the compiler vectorizes
//!   on the baseline target ([`Md5PairHasher::lane_kernel`] names the one
//!   in use). Both return the same bits: the host picks the path, never
//!   the points.
//!
//! # Example
//!
//! ```
//! use avmon_hash::{Md5PairHasher, PairHasher, Threshold};
//!
//! let hasher = Md5PairHasher::new();
//! // Condition threshold K/N for K = 11 monitors out of N = 2000 nodes.
//! let threshold = Threshold::from_ratio(11.0, 2000.0);
//! let point = hasher.point(b"example-pair-encoding");
//! let monitors = threshold.accepts(point);
//! // The relationship is a pure function of the input bytes:
//! assert_eq!(monitors, threshold.accepts(hasher.point(b"example-pair-encoding")));
//! ```

// Library code returns errors; a panic site needs its own reasoned `#[expect]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::missing_panics_doc
    )
)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod fast64;
pub mod md5;
pub mod point;

pub use fast64::Fast64PairHasher;
pub use md5::{md5, Md5, Md5PairHasher};
pub use point::{HashPoint, Threshold};

use core::fmt::Debug;

/// A consistent hash from arbitrary bytes to a point in `[0, 1)`.
///
/// Implementations must be **pure**: the output may depend only on the input
/// bytes (and fixed construction parameters), never on ambient state. This is
/// the property that gives AVMON consistency (the monitor relationship never
/// changes) and verifiability (any third node can re-evaluate it).
///
/// The trait is object-safe so deployments can select a hasher at runtime
/// (`Box<dyn PairHasher>`).
pub trait PairHasher: Debug + Send + Sync {
    /// Maps `input` to a point in the unit interval.
    fn point(&self, input: &[u8]) -> HashPoint;

    /// Hashes a 12-byte pair encoding given as two little-endian words:
    /// `head` is bytes `0..8`, `tail` bytes `8..12` (see [`pair12_words`]).
    ///
    /// Must equal [`PairHasher::point`] over those 12 bytes, bit for bit.
    /// It drops only the work the fixed length makes redundant (chunk
    /// loop, length mix, padding, buffering); callers use it to keep a
    /// pair they assembled from integers in registers instead of
    /// serializing it first.
    fn point12(&self, head: u64, tail: u32) -> HashPoint;

    /// A short stable identifier (used in experiment output and logs).
    fn name(&self) -> &'static str;
}

impl<T: PairHasher + ?Sized> PairHasher for Box<T> {
    fn point(&self, input: &[u8]) -> HashPoint {
        (**self).point(input)
    }

    fn point12(&self, head: u64, tail: u32) -> HashPoint {
        (**self).point12(head, tail)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Pairs per [`Md5PairHasher::point12_lanes`] call: one 512-bit vector per
/// MD5 state word on AVX-512F, about a twentieth of the scalar cost per
/// pair; four 128-bit vectors on baseline x86-64, enough independent
/// chains per step for the portable kernel to run steadily at about a
/// fifth (DESIGN.md §7 has the kernels and widths measured).
pub const PAIR_LANES: usize = 16;

/// Splits a 12-byte pair encoding into the two little-endian words
/// [`PairHasher::point12`] takes: bytes `0..8` and bytes `8..12`.
#[must_use]
pub fn pair12_words(bytes: &[u8; 12]) -> (u64, u32) {
    let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11] = *bytes;
    (
        u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]),
        u32::from_le_bytes([b8, b9, b10, b11]),
    )
}

/// Enumeration of the built-in hashers, for configuration files and CLIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HasherKind {
    /// The paper's MD5-based construction.
    Md5,
    /// Fast SplitMix64-based construction (default for large simulations).
    #[default]
    Fast64,
}

impl HasherKind {
    /// Instantiates the corresponding hasher.
    #[must_use]
    pub fn build(self) -> Box<dyn PairHasher> {
        match self {
            HasherKind::Md5 => Box::new(Md5PairHasher::new()),
            HasherKind::Fast64 => Box::new(Fast64PairHasher::new()),
        }
    }

    /// Parses a CLI-style name (`md5`, `fast64`).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "md5" => Some(HasherKind::Md5),
            "fast64" | "fast" => Some(HasherKind::Fast64),
            _ => None,
        }
    }
}

impl core::fmt::Display for HasherKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            HasherKind::Md5 => "md5",
            HasherKind::Fast64 => "fast64",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parse_round_trips() {
        for kind in [HasherKind::Md5, HasherKind::Fast64] {
            assert_eq!(HasherKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(HasherKind::parse("nope"), None);
        assert_eq!(HasherKind::parse("FAST"), Some(HasherKind::Fast64));
    }

    #[test]
    fn build_produces_named_hashers() {
        assert_eq!(HasherKind::Md5.build().name(), "md5");
        assert_eq!(HasherKind::Fast64.build().name(), "fast64");
    }

    #[test]
    fn hashers_disagree_on_points_but_agree_with_themselves() {
        let input = b"some pair encoding";
        for kind in [HasherKind::Md5, HasherKind::Fast64] {
            let h = kind.build();
            assert_eq!(h.point(input), h.point(input), "{kind} must be pure");
        }
        let md5 = HasherKind::Md5.build().point(input);
        let fast64 = HasherKind::Fast64.build().point(input);
        assert_ne!(md5, fast64);
    }

    /// Every built-in hasher should look roughly uniform on `[0,1)`.
    #[test]
    fn hashers_are_roughly_uniform() {
        for kind in [HasherKind::Md5, HasherKind::Fast64] {
            let h = kind.build();
            let n = 4000u32;
            let mut sum = 0.0f64;
            let mut buckets = [0usize; 10];
            for i in 0..n {
                let p = h.point(&i.to_le_bytes()).as_fraction();
                sum += p;
                buckets[(p * 10.0) as usize] += 1;
            }
            let mean = sum / f64::from(n);
            assert!((mean - 0.5).abs() < 0.03, "{kind}: mean {mean} too skewed");
            for (b, &count) in buckets.iter().enumerate() {
                let expected = f64::from(n) / 10.0;
                assert!(
                    (count as f64 - expected).abs() < expected * 0.3,
                    "{kind}: bucket {b} has {count}, expected ~{expected}"
                );
            }
        }
    }
}
