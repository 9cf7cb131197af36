//! MD5 message digest (RFC 1321), implemented from scratch.
//!
//! The AVMON paper evaluates its consistency condition with "libSSL's MD5
//! implementation ... with only the first 64 bits returned considered"
//! (§5, default setting 4). No cryptographic strength is required — the hash
//! only needs to be consistent, verifiable and uniform — but reproducing the
//! paper exactly requires real MD5, so here it is, validated against the
//! RFC 1321 test suite.

use crate::{HashPoint, PairHasher, PAIR_LANES};

/// Per-round left-rotate amounts (RFC 1321 §3.4).
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived additive constants: `T[i] = floor(2^32 * |sin(i + 1)|)`.
const T: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// The RFC 1321 initial chaining value.
const INIT: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

/// Incremental MD5 hasher.
///
/// # Example
///
/// ```
/// use avmon_hash::Md5;
///
/// let mut h = Md5::new();
/// h.update(b"message ");
/// h.update(b"digest");
/// assert_eq!(
///     h.finalize(),
///     [0xf9, 0x6b, 0x69, 0x7d, 0x7c, 0xb7, 0x93, 0x8d,
///      0x52, 0x5a, 0x2f, 0x31, 0xaa, 0xf1, 0x61, 0xd0],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    /// Total message length in bytes (mod 2^64).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a fresh hasher in the RFC 1321 initial state.
    #[must_use]
    pub fn new() -> Self {
        Md5 {
            state: INIT,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the digest state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut arr = [0u8; 64];
            arr.copy_from_slice(block);
            self.compress(&arr);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Completes the digest, returning the 16-byte MD5 value.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 16] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: a single 0x80 byte, then zeros until length ≡ 56 (mod 64),
        // then the 64-bit little-endian bit count.
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Manually absorb the length to avoid it being counted in `len`.
        self.buf[56..64].copy_from_slice(&bit_len.to_le_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        compress_words(&mut self.state, &m);
    }
}

/// The RFC 1321 compression function over one block already decoded into
/// its sixteen little-endian words.
// Forced inline: left to the heuristic it stays out of line from both
// callers and the streaming digest of a 12-byte input measures 1.2-1.7x
// slower than before the split.
#[inline(always)]
fn compress_words(state: &mut [u32; 4], m: &[u32; 16]) {
    let [mut a, mut b, mut c, mut d] = *state;
    for i in 0..64 {
        (a, b, c, d) = (d, step(i, a, b, c, d, m[message_index(i)]), b, c);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// MD5 step `i` (RFC 1321 §3.4): the new value of `b`,
/// `b + ((a + f(b, c, d) + T[i] + x) <<< S[i])`, for the step's round
/// function `f` and message word `x`.
#[inline(always)]
fn step(i: usize, a: u32, b: u32, c: u32, d: u32, x: u32) -> u32 {
    let f = match i / 16 {
        0 => (b & c) | (!b & d),
        1 => (d & b) | (!d & c),
        2 => b ^ c ^ d,
        _ => c ^ (b | !d),
    };
    b.wrapping_add(
        a.wrapping_add(f)
            .wrapping_add(T[i])
            .wrapping_add(x)
            .rotate_left(S[i]),
    )
}

/// The index of the message word step `i` adds.
const fn message_index(i: usize) -> usize {
    match i / 16 {
        0 => i,
        1 => (5 * i + 1) % 16,
        2 => (3 * i + 5) % 16,
        _ => (7 * i) % 16,
    }
}

/// One `u32` per lane of a [`Md5PairHasher::point12_lanes`] call.
type Lanes = [u32; PAIR_LANES];

const ZERO: Lanes = [0; PAIR_LANES];

/// The point behind a digest whose first two state words are `a`, `b`:
/// the digest is the state little-endian, so its first 8 bytes read
/// big-endian are those two words byte-swapped.
#[inline]
fn first64(a: u32, b: u32) -> u64 {
    u64::from(a.swap_bytes()) << 32 | u64::from(b.swap_bytes())
}

/// [`step`] `I` on every lane, the new `b` written over `a`.
///
/// Out of line on purpose, one instance per step. Alone, the lane loop
/// ends in sixteen adjacent stores, and the compiler turns it into vector
/// code: four independent 4-lane chains per step. Inlined into one
/// function, the 64 steps become one long scalar expression per lane that
/// it leaves scalar. Measured on 1 M random pairs, 2-core x86-64 host:
/// 105–135 ns per pair inlined, 26–32 ns out of line, 105–190 ns for
/// `point12`.
#[inline(never)]
fn lane_step<const I: usize>(a: &mut Lanes, b: &Lanes, c: &Lanes, d: &Lanes, x: &Lanes) {
    for l in 0..PAIR_LANES {
        a[l] = step(I, a[l], b[l], c[l], d[l], x[l]);
    }
}

/// The 64 steps of one single-block compression over lane state, unrolled
/// so that each step's round function, shift, constant and message word
/// are fixed at compile time. `$step!(i, x, a, b, c, d)` is the kernel's
/// step `i`: it writes the new `b` over `a`, `x` being the step's word of
/// `$words`.
macro_rules! lane_steps {
    ($step:ident, $words:ident, $a:ident, $b:ident, $c:ident, $d:ident) => {
        lane_steps!(@round $step, 0, $words, $a, $b, $c, $d);
        lane_steps!(@round $step, 16, $words, $a, $b, $c, $d);
        lane_steps!(@round $step, 32, $words, $a, $b, $c, $d);
        lane_steps!(@round $step, 48, $words, $a, $b, $c, $d);
    };
    (@round $step:ident, $base:expr, $words:ident, $a:ident, $b:ident, $c:ident, $d:ident) => {
        lane_steps!(@quad $step, $base, $words, $a, $b, $c, $d);
        lane_steps!(@quad $step, $base + 4, $words, $a, $b, $c, $d);
        lane_steps!(@quad $step, $base + 8, $words, $a, $b, $c, $d);
        lane_steps!(@quad $step, $base + 12, $words, $a, $b, $c, $d);
    };
    // Four steps rotate the roles of the state words back to the start,
    // replacing `compress_words`' per-step shuffle of `a`, `b`, `c`, `d`.
    (@quad $step:ident, $i:expr, $words:ident, $a:ident, $b:ident, $c:ident, $d:ident) => {
        $step!($i, $words[const { message_index($i) }], $a, $b, $c, $d);
        $step!($i + 1, $words[const { message_index($i + 1) }], $d, $a, $b, $c);
        $step!($i + 2, $words[const { message_index($i + 2) }], $c, $d, $a, $b);
        $step!($i + 3, $words[const { message_index($i + 3) }], $b, $c, $d, $a);
    };
}

/// The portable kernel's step for [`lane_steps!`]: one [`lane_step`]
/// instance.
macro_rules! portable_step {
    ($i:expr, $x:expr, $a:ident, $b:ident, $c:ident, $d:ident) => {
        lane_step::<{ $i }>(&mut $a, &$b, &$c, &$d, $x)
    };
}

/// [`Md5PairHasher::point12_lanes`] in plain Rust, the kernel of
/// every host without AVX-512F and the reference for the one with it:
/// [`Md5PairHasher::point12`]'s single-block compression with each state
/// word a lane array and each step one vectorized pass over it (see
/// [`lane_step`]), so the sixteen independent chains overlap instead of
/// running one after another.
fn portable_lanes(
    heads: &[u64; PAIR_LANES],
    tails: &[u32; PAIR_LANES],
    out: &mut [u64; PAIR_LANES],
) {
    let lo: Lanes = core::array::from_fn(|l| heads[l] as u32);
    let hi: Lanes = core::array::from_fn(|l| (heads[l] >> 32) as u32);
    // The padded block of `point12`'s `m`, one lane array per word.
    let mut words = [&ZERO; 16];
    words[0] = &lo;
    words[1] = &hi;
    words[2] = tails;
    words[3] = &[0x80; PAIR_LANES];
    words[14] = &[96; PAIR_LANES];
    let [mut a, mut b, mut c, mut d] = INIT.map(|word| [word; PAIR_LANES]);
    lane_steps!(portable_step, words, a, b, c, d);
    for (l, point) in out.iter_mut().enumerate() {
        *point = first64(INIT[0].wrapping_add(a[l]), INIT[1].wrapping_add(b[l]));
    }
}

/// The AVX-512F lane kernel: the same compression as [`portable_lanes`]
/// with one `__m512i` per state word, so all [`PAIR_LANES`] lanes fill
/// exactly one vector and every step stays in registers.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use core::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_permutex2var_epi32, _mm512_rol_epi32,
        _mm512_ror_epi32, _mm512_set1_epi32, _mm512_setr_epi32, _mm512_setzero_si512,
        _mm512_storeu_si512, _mm512_ternarylogic_epi32,
    };

    use super::{message_index, INIT, S, T};
    use crate::PAIR_LANES;

    /// The four round functions as `vpternlogd` truth tables over
    /// `(b, c, d)`: F = `b ? c : d`, G = `d ? b : c`, H = `b ^ c ^ d`,
    /// I = `c ^ (b | !d)`.
    const ROUND_FN: [i32; 4] = [0xca, 0xe4, 0x96, 0x39];

    /// The kernel's step for [`lane_steps!`]: [`super::step`] on all
    /// sixteen lanes, with one ternary-logic op for the round function and
    /// one immediate rotate.
    macro_rules! avx512_step {
        ($i:expr, $x:expr, $a:ident, $b:ident, $c:ident, $d:ident) => {
            let f = _mm512_ternarylogic_epi32::<{ ROUND_FN[$i / 16] }>($b, $c, $d);
            let sum = _mm512_add_epi32(
                _mm512_add_epi32($a, f),
                _mm512_add_epi32(_mm512_set1_epi32(T[$i] as i32), $x),
            );
            $a = _mm512_add_epi32($b, _mm512_rol_epi32::<{ S[$i] as i32 }>(sum));
        };
    }

    /// [`super::portable_lanes`] on AVX-512F, bit for bit.
    #[target_feature(enable = "avx512f")]
    pub(super) fn point12_lanes(
        heads: &[u64; PAIR_LANES],
        tails: &[u32; PAIR_LANES],
        out: &mut [u64; PAIR_LANES],
    ) {
        // SAFETY: `heads` is 128 readable bytes and `tails` 64: two
        // unaligned 64-byte loads from the first and one from the second.
        let (front, back, tails) = unsafe {
            (
                _mm512_loadu_si512(heads.as_ptr().cast()),
                _mm512_loadu_si512(heads[8..].as_ptr().cast()),
                _mm512_loadu_si512(tails.as_ptr().cast()),
            )
        };
        // Head `l` is `u32`s `2l` (message word 0) and `2l + 1` (word 1) of
        // `front` and `back` together; index bit 4 picks `back`.
        let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        let odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
        // The padded block of `point12`'s `m`, one vector per word.
        let mut words = [_mm512_setzero_si512(); 16];
        words[0] = _mm512_permutex2var_epi32(front, even, back);
        words[1] = _mm512_permutex2var_epi32(front, odd, back);
        words[2] = tails;
        words[3] = _mm512_set1_epi32(0x80);
        words[14] = _mm512_set1_epi32(96);
        let mut a = _mm512_set1_epi32(INIT[0] as i32);
        let mut b = _mm512_set1_epi32(INIT[1] as i32);
        let mut c = _mm512_set1_epi32(INIT[2] as i32);
        let mut d = _mm512_set1_epi32(INIT[3] as i32);
        lane_steps!(avx512_step, words, a, b, c, d);
        // `first64` on every lane: point `l` is `u32`s `2l` (the swapped
        // `b`) and `2l + 1` (the swapped `a`) of `front` and `back`
        // together; index bit 4 picks `a`.
        let a = swap_bytes(_mm512_add_epi32(a, _mm512_set1_epi32(INIT[0] as i32)));
        let b = swap_bytes(_mm512_add_epi32(b, _mm512_set1_epi32(INIT[1] as i32)));
        let low = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
        let high = _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
        let front = _mm512_permutex2var_epi32(b, low, a);
        let back = _mm512_permutex2var_epi32(b, high, a);
        // SAFETY: `out` is 128 writable bytes: two unaligned 64-byte stores.
        unsafe {
            _mm512_storeu_si512(out.as_mut_ptr().cast(), front);
            _mm512_storeu_si512(out[8..].as_mut_ptr().cast(), back);
        }
    }

    /// `u32::swap_bytes` on every lane. AVX-512F has no byte shuffle, so:
    /// bytes 3 and 1 of `x >>> 8` and bytes 2 and 0 of `x <<< 8`.
    #[target_feature(enable = "avx512f")]
    fn swap_bytes(x: __m512i) -> __m512i {
        let high = _mm512_set1_epi32(0xff00_ff00_u32 as i32);
        _mm512_ternarylogic_epi32::<0xca>(high, _mm512_ror_epi32::<8>(x), _mm512_rol_epi32::<8>(x))
    }
}

/// One-shot MD5 of `data`.
///
/// # Example
///
/// ```
/// let digest = avmon_hash::md5(b"abc");
/// assert_eq!(digest[0], 0x90);
/// ```
#[must_use]
pub fn md5(data: &[u8]) -> [u8; 16] {
    let mut h = Md5::new();
    h.update(data);
    h.finalize()
}

/// The paper's pair hasher: MD5 digest, first 64 bits, big-endian.
///
/// # Example
///
/// ```
/// use avmon_hash::{Md5PairHasher, PairHasher};
///
/// let h = Md5PairHasher::new();
/// let p = h.point(b"node-pair");
/// assert_eq!(p, h.point(b"node-pair"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Md5PairHasher;

impl Md5PairHasher {
    /// Creates the hasher (stateless).
    #[must_use]
    pub fn new() -> Self {
        Md5PairHasher
    }

    /// The kernel [`Md5PairHasher::point12_lanes`] runs on this host:
    /// `"avx512f"` where the CPU has AVX-512F, `"portable"` otherwise.
    /// Both give the same points; only the speed differs.
    #[must_use]
    pub fn lane_kernel() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        "portable"
    }

    /// [`PairHasher::point12`]'s single-block compression on sixteen
    /// pairs at once, by the kernel [`Md5PairHasher::lane_kernel`] names:
    /// the AVX-512F one where the CPU has it, the portable one anywhere
    /// else. The host picks the path, never the bits.
    pub fn point12_lanes(
        &self,
        heads: &[u64; PAIR_LANES],
        tails: &[u32; PAIR_LANES],
        out: &mut [u64; PAIR_LANES],
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU has AVX-512F, the one feature the kernel
            // enables.
            return unsafe { avx512::point12_lanes(heads, tails, out) };
        }
        portable_lanes(heads, tails, out);
    }
}

impl PairHasher for Md5PairHasher {
    fn point(&self, input: &[u8]) -> HashPoint {
        let digest = md5(input);
        let mut first = [0u8; 8];
        first.copy_from_slice(&digest[..8]);
        HashPoint::from_bits(u64::from_be_bytes(first))
    }

    fn name(&self) -> &'static str {
        "md5"
    }

    /// Twelve bytes pad into a single block, so the digest is one
    /// compression of the initial state: no buffer, no byte-at-a-time
    /// padding, no second block.
    fn point12(&self, head: u64, tail: u32) -> HashPoint {
        let mut m = [0u32; 16];
        m[0] = head as u32;
        m[1] = (head >> 32) as u32;
        m[2] = tail;
        m[3] = 0x80; // the pad byte right after the message
        m[14] = 96; // message length in bits, low word
        let mut state = INIT;
        compress_words(&mut state, &m);
        HashPoint::from_bits(first64(state[0], state[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The complete RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_test_suite() {
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(hex(&md5(input)), expected, "input {:?}", input);
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        let oneshot = md5(&data);
        for chunk_size in [1usize, 3, 63, 64, 65, 127, 1000] {
            let mut h = Md5::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Padding edge cases: lengths 55, 56, 57, 63, 64, 65.
        let known = [
            (55usize, "ef1772b6dff9a122358552954ad0df65"),
            (56, "3b0c8ac703f828b04c6c197006d17218"),
            (57, "652b906d60af96844ebd21b674f35e93"),
            (63, "b06521f39153d618550606be297466d5"),
            (64, "014842d480b571495a4a0363793f7367"),
            (65, "c743a45e0d2e6a95cb859adae0248435"),
        ];
        for (len, expected) in known {
            let data = vec![b'a'; len];
            assert_eq!(hex(&md5(&data)), expected, "len {len}");
        }
    }

    #[test]
    fn pair_hasher_uses_first_64_bits_big_endian() {
        let h = Md5PairHasher::new();
        let digest = md5(b"xyz");
        let mut first = [0u8; 8];
        first.copy_from_slice(&digest[..8]);
        assert_eq!(h.point(b"xyz").to_bits(), u64::from_be_bytes(first));
    }

    /// The pairs the lane kernels are held on: edge words, the pairs of
    /// `md5_2k`'s 2 000 node identities, and 4 096 seeded random pairs,
    /// as `(head, tail)` words.
    fn lane_test_pairs() -> Vec<(u64, u32)> {
        let mut pairs = Vec::new();
        for head in [0, u64::MAX, 0x8080_8080_8080_8080] {
            for tail in [0, u32::MAX, 0x8080_8080] {
                pairs.push((head, tail));
            }
        }
        // `NodeId::from_index(i)`'s wire bytes: 10.b.c.d, port 4000.
        let identity = |i: u32| {
            let [_, b, c, d] = i.to_be_bytes();
            [10, b, c, d, 0x0f, 0xa0]
        };
        for i in 0..2_000u32 {
            for j in [i, (7 * i + 1) % 2_000] {
                let mut bytes = [0u8; 12];
                bytes[..6].copy_from_slice(&identity(i));
                bytes[6..].copy_from_slice(&identity(j));
                pairs.push(crate::pair12_words(&bytes));
            }
        }
        // SplitMix64, seeded.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..4_096 {
            pairs.push((next(), next() as u32));
        }
        pairs
    }

    /// Both lane kernels against `point12` and `point` over the pair's 12
    /// bytes, sixteen lanes at a time. The AVX-512F kernel is run where
    /// the CPU has the feature; elsewhere the test says it went untested.
    #[test]
    fn lane_kernels_equal_point12_and_point() {
        let h = Md5PairHasher::new();
        #[cfg(target_arch = "x86_64")]
        let avx512 = std::arch::is_x86_feature_detected!("avx512f");
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        if !avx512 {
            println!("no AVX-512F on this host: the AVX-512F lane kernel went untested");
        }
        let pairs = lane_test_pairs();
        assert!(pairs.len() >= 4_096 + 4_000);
        for block in pairs.chunks(PAIR_LANES) {
            // A short last block repeats its first pair in the spare lanes.
            let lane = |l: usize| block.get(l).unwrap_or(&block[0]);
            let heads: [u64; PAIR_LANES] = core::array::from_fn(|l| lane(l).0);
            let tails: [u32; PAIR_LANES] = core::array::from_fn(|l| lane(l).1);
            let mut portable = [0u64; PAIR_LANES];
            portable_lanes(&heads, &tails, &mut portable);
            for l in 0..PAIR_LANES {
                let (head, tail) = (heads[l], tails[l]);
                let point12 = h.point12(head, tail).to_bits();
                let mut bytes = [0u8; 12];
                bytes[..8].copy_from_slice(&head.to_le_bytes());
                bytes[8..].copy_from_slice(&tail.to_le_bytes());
                let point = h.point(&bytes).to_bits();
                assert_eq!(point12, point, "point12 vs point, pair {head:#x} {tail:#x}");
                assert_eq!(
                    portable[l], point12,
                    "portable lanes, pair {head:#x} {tail:#x}"
                );
            }
            #[cfg(target_arch = "x86_64")]
            if avx512 {
                let mut vector = [0u64; PAIR_LANES];
                // SAFETY: the CPU has AVX-512F, the one feature the kernel
                // enables.
                unsafe { avx512::point12_lanes(&heads, &tails, &mut vector) };
                assert_eq!(
                    vector, portable,
                    "AVX-512F lanes, heads {heads:x?} tails {tails:x?}"
                );
            }
        }
    }

    #[test]
    fn million_a_matches_reference() {
        // Classic stress vector: MD5 of one million 'a' bytes.
        let mut h = Md5::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), "7707d6ae4e027c70eea2a935c2296f21");
    }
}
