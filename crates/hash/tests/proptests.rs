//! Property-based tests for the hashing substrate.

use avmon_hash::{
    md5, pair12_words, Fast64PairHasher, HashPoint, HasherKind, Md5, Md5PairHasher, PairHasher,
    Threshold, PAIR_LANES,
};
use proptest::prelude::*;

/// A hasher that implements only the required methods, so its `point12`
/// and `point12_lanes` are the trait's defaults.
#[derive(Debug)]
struct PointOnly(Md5PairHasher);

impl PairHasher for PointOnly {
    fn point(&self, input: &[u8]) -> HashPoint {
        self.0.point(input)
    }

    fn name(&self) -> &'static str {
        "point-only"
    }
}

/// Fixed 12-byte vectors through the pair kernel: the MD5 answers are the
/// first 64 digest bits an independent implementation (Python's
/// `hashlib`) gives, and must also be what the streaming `md5()` here
/// produces; the Fast64 answers are the generic chunk loop's. All
/// twelve bytes of the second vector differ, so a byte in the wrong lane
/// of `head` / `tail` or of the padded block changes every answer.
#[test]
fn point12_known_answers() {
    let first64 = |digest: &[u8]| u64::from_be_bytes(digest[..8].try_into().unwrap());
    let cases: [(&[u8; 12], u64, u64); 2] = [
        (
            b"hello world!",
            0xfc3f_f98e_8c6a_0d30,
            0x0f1f_1c04_3584_01f5,
        ),
        (
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
            0xd2bc_225f_9724_ea69,
            0x0860_337a_c7f3_e8f7,
        ),
    ];
    for (bytes, md5_bits, fast64_bits) in cases {
        let (head, tail) = pair12_words(bytes);
        assert_eq!(first64(&md5(bytes)), md5_bits);
        assert_eq!(Md5PairHasher::new().point12(head, tail).to_bits(), md5_bits);
        assert_eq!(
            Fast64PairHasher::new().point12(head, tail).to_bits(),
            fast64_bits
        );
        assert_eq!(Fast64PairHasher::new().point(bytes).to_bits(), fast64_bits);
    }
}

proptest! {
    /// Incremental hashing must match one-shot hashing for any split.
    #[test]
    fn md5_incremental_matches_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Md5::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), avmon_hash::md5(&data));
    }

    /// Hash points are total-ordered consistently with their fraction value.
    #[test]
    fn point_order_matches_fraction(a in any::<u64>(), b in any::<u64>()) {
        let (pa, pb) = (HashPoint::from_bits(a), HashPoint::from_bits(b));
        prop_assert_eq!(pa < pb, a < b);
        prop_assert!(pa.as_fraction() >= 0.0 && pa.as_fraction() < 1.0);
    }

    /// A threshold accepts exactly the points at or below its bits.
    #[test]
    fn threshold_accept_is_leq(k in 0.0f64..1000.0, n in 1.0f64..1e9, bits in any::<u64>()) {
        let t = Threshold::from_ratio(k, n);
        prop_assert_eq!(t.accepts(HashPoint::from_bits(bits)), bits <= t.to_bits());
    }

    /// Fast64 must be deterministic and input-sensitive.
    #[test]
    fn fast64_pure(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let h = Fast64PairHasher::new();
        prop_assert_eq!(h.point(&data), h.point(&data));
    }

    /// Distinct 12-byte pair encodings should essentially never collide on
    /// any hasher (64-bit space; proptest explores a few hundred cases).
    #[test]
    fn pair_encodings_do_not_collide(a in any::<[u8; 12]>(), b in any::<[u8; 12]>()) {
        prop_assume!(a != b);
        for hasher in [
            Box::new(Fast64PairHasher::new()) as Box<dyn PairHasher>,
            avmon_hash::HasherKind::Md5.build(),
        ] {
            prop_assert_ne!(hasher.point(&a), hasher.point(&b), "hasher {}", hasher.name());
        }
    }

    /// The fixed-length pair kernel is the same function of the same bytes:
    /// `point12` over the two words equals `point` over the 12 bytes they
    /// stand for, on every built-in hasher — concretely typed, through the
    /// `Box<dyn>` / `&` forwarders `HasherKind::build()` hands out, and for
    /// a hasher that leaves `point12` to the trait's default.
    #[test]
    fn point12_equals_point_over_the_same_bytes(bytes in any::<[u8; 12]>()) {
        let (head, tail) = pair12_words(&bytes);
        let plain = PointOnly(Md5PairHasher::new());
        prop_assert_eq!(plain.point12(head, tail), plain.point(&bytes));
        prop_assert_eq!(Fast64PairHasher::new().point12(head, tail), Fast64PairHasher::new().point(&bytes));
        prop_assert_eq!(Md5PairHasher::new().point12(head, tail), Md5PairHasher::new().point(&bytes));
        // `H = &Box<dyn PairHasher>`: the `&T` forwarder over the `Box<T>` one.
        fn by_value<H: PairHasher>(hasher: H, head: u64, tail: u32) -> HashPoint {
            hasher.point12(head, tail)
        }
        for kind in [HasherKind::Fast64, HasherKind::Md5] {
            let boxed = kind.build();
            prop_assert_eq!(boxed.point12(head, tail), boxed.point(&bytes), "boxed {}", kind);
            prop_assert_eq!(by_value(&boxed, head, tail), boxed.point(&bytes), "&boxed {}", kind);
        }
    }

    /// The lane entry is `point12` on every lane: for MD5's lane kernel,
    /// for Fast64 and a `point`-only hasher on the trait default, and
    /// through the `Box<dyn>` / `&Box<dyn>` forwarders `HasherKind::build()`
    /// hands out.
    #[test]
    fn point12_lanes_equals_per_lane_point12(
        heads in any::<[u64; PAIR_LANES]>(),
        tails in any::<[u32; PAIR_LANES]>(),
    ) {
        fn check<H: PairHasher>(hasher: H, heads: &[u64; PAIR_LANES], tails: &[u32; PAIR_LANES]) -> Result<(), TestCaseError> {
            let mut lanes = [0u64; PAIR_LANES];
            hasher.point12_lanes(heads, tails, &mut lanes);
            for lane in 0..PAIR_LANES {
                prop_assert_eq!(
                    lanes[lane],
                    hasher.point12(heads[lane], tails[lane]).to_bits(),
                    "{} lane {}", hasher.name(), lane
                );
            }
            Ok(())
        }
        check(Md5PairHasher::new(), &heads, &tails)?;
        check(Fast64PairHasher::new(), &heads, &tails)?;
        check(PointOnly(Md5PairHasher::new()), &heads, &tails)?;
        for kind in [HasherKind::Fast64, HasherKind::Md5] {
            let boxed = kind.build();
            check(&boxed, &heads, &tails)?;
            check(boxed, &heads, &tails)?;
        }
    }

    /// The staged 12-byte decomposition (`point12_prefix` +
    /// `point12_resume`) is exactly the one-shot hash for any split input
    /// — the contract the agreement-sweep candidate index rests on.
    #[test]
    fn staged_pair_hash_equals_oneshot(
        prefix in any::<[u8; 8]>(),
        tail in any::<[u8; 4]>(),
    ) {
        let hasher = Fast64PairHasher::new();
        let state = hasher.point12_prefix(&prefix).expect("fast64 is staged");
        let mut input = [0u8; 12];
        input[..8].copy_from_slice(&prefix);
        input[8..].copy_from_slice(&tail);
        prop_assert_eq!(hasher.point12_resume(state, &tail), hasher.point(&input));
        // ... and the one-call kernel, which shares its two halves.
        let (head, tail_word) = pair12_words(&input);
        prop_assert_eq!(hasher.point12_resume(state, &tail), hasher.point12(head, tail_word));
    }
}
