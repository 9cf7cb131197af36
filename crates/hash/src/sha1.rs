//! SHA-1 message digest (FIPS 180-1), implemented from scratch.
//!
//! The paper notes that "MD-5 or SHA-1 could be used" for the consistency
//! condition (§3.1). This module provides the SHA-1 alternative, validated
//! against the FIPS 180-1 test vectors.

use crate::{HashPoint, PairHasher};

/// The FIPS 180-1 initial chaining value.
const INIT: [u32; 5] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0];

/// Incremental SHA-1 hasher.
///
/// # Example
///
/// ```
/// use avmon_hash::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xa9);
/// assert_eq!(digest[19], 0x9d);
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh hasher in the FIPS 180-1 initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha1 {
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

    /// Completes the digest, returning the 20-byte SHA-1 value.
    #[must_use]
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Big-endian bit count, absorbed without affecting `len`.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        compress_words(&mut self.state, &m);
    }
}

/// The FIPS 180-1 compression function over one block already decoded into
/// its sixteen big-endian words.
// Forced inline: left to the heuristic it stays out of line from both
// callers and the streaming digest of a 12-byte input measures 1.2-1.7x
// slower than before the split.
#[inline(always)]
fn compress_words(state: &mut [u32; 5], m: &[u32; 16]) {
    let mut w = [0u32; 80];
    w[..16].copy_from_slice(m);
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i / 20 {
            0 => ((b & c) | (!b & d), 0x5a827999),
            1 => (b ^ c ^ d, 0x6ed9eba1),
            2 => ((b & c) | (b & d) | (c & d), 0x8f1bbcdc),
            _ => (b ^ c ^ d, 0xca62c1d6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// One-shot SHA-1 of `data`.
///
/// # Example
///
/// ```
/// let digest = avmon_hash::sha1(b"abc");
/// assert_eq!(digest[0], 0xa9);
/// ```
#[must_use]
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// SHA-1 based pair hasher: first 64 digest bits, big-endian.
///
/// # Example
///
/// ```
/// use avmon_hash::{PairHasher, Sha1PairHasher};
///
/// let h = Sha1PairHasher::new();
/// assert_eq!(h.point(b"pair"), h.point(b"pair"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Sha1PairHasher;

impl Sha1PairHasher {
    /// Creates the hasher (stateless).
    #[must_use]
    pub fn new() -> Self {
        Sha1PairHasher
    }
}

impl PairHasher for Sha1PairHasher {
    fn point(&self, input: &[u8]) -> HashPoint {
        let digest = sha1(input);
        let mut first = [0u8; 8];
        first.copy_from_slice(&digest[..8]);
        HashPoint::from_bits(u64::from_be_bytes(first))
    }

    fn name(&self) -> &'static str {
        "sha1"
    }

    /// Twelve bytes pad into a single block, so the digest is one
    /// compression of the initial state.
    fn point12(&self, head: u64, tail: u32) -> HashPoint {
        let mut m = [0u32; 16];
        // SHA-1 reads its words big-endian; `head`/`tail` hold the bytes
        // little-endian.
        m[0] = (head as u32).swap_bytes();
        m[1] = ((head >> 32) as u32).swap_bytes();
        m[2] = tail.swap_bytes();
        m[3] = 0x8000_0000; // the pad byte right after the message
        m[15] = 96; // message length in bits, low word
        let mut state = INIT;
        compress_words(&mut state, &m);
        // The digest is the state words big-endian, so its first 64 bits
        // are the first two words as they stand.
        HashPoint::from_bits(u64::from(state[0]) << 32 | u64::from(state[1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        let cases: [(&[u8], &str); 3] = [
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(hex(&sha1(input)), expected, "input {:?}", input);
        }
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0u16..777).map(|i| (i % 253) as u8).collect();
        let oneshot = sha1(&data);
        for chunk_size in [1usize, 7, 64, 65, 200] {
            let mut h = Sha1::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn pair_hasher_is_first_64_bits() {
        let digest = sha1(b"pq");
        let mut first = [0u8; 8];
        first.copy_from_slice(&digest[..8]);
        assert_eq!(
            Sha1PairHasher::new().point(b"pq").to_bits(),
            u64::from_be_bytes(first)
        );
    }
}
