//! Node identities.
//!
//! AVMON identifies a node by its `<IP address, port number>` pair (§3.1);
//! the consistency condition hashes the 12-byte concatenation of the two
//! endpoint identities of a candidate monitoring pair.

use core::fmt;
use std::net::{Ipv4Addr, SocketAddrV4};

use serde::{Deserialize, Serialize};

/// A node identity: an IPv4 address and port, exactly as in the paper.
///
/// The identity is the *consistent* input to monitor selection — it must
/// never change across leaves, failures and rejoins of the same node.
///
/// # Example
///
/// ```
/// use avmon::NodeId;
///
/// let a = NodeId::new([10, 0, 0, 1], 9000);
/// assert_eq!(a.to_string(), "10.0.0.1:9000");
/// let b: NodeId = "10.0.0.2:9000".parse()?;
/// assert_ne!(a, b);
/// # Ok::<(), avmon::ParseNodeIdError>(())
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId {
    ip: [u8; 4],
    port: u16,
}

impl NodeId {
    /// Number of bytes in the wire encoding of an identity.
    pub const ENCODED_LEN: usize = 6;

    /// Creates an identity from an IPv4 address and a port.
    #[must_use]
    pub const fn new(ip: [u8; 4], port: u16) -> Self {
        NodeId { ip, port }
    }

    /// A convenience constructor used throughout tests and simulations:
    /// maps a dense index to a unique identity in `10.0.0.0/8`.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit the 3-byte host space (≥ 2^24).
    #[must_use]
    pub fn from_index(index: u32) -> Self {
        assert!(
            index < (1 << 24),
            "index {index} exceeds 10.0.0.0/8 host space"
        );
        let [_, b, c, d] = index.to_be_bytes();
        NodeId::new([10, b, c, d], 4000)
    }

    /// The IPv4 address.
    #[must_use]
    pub fn ip(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.ip)
    }

    /// The port number.
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The 6-byte wire encoding: 4 address bytes then the big-endian port.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 6] {
        let p = self.port.to_be_bytes();
        [self.ip[0], self.ip[1], self.ip[2], self.ip[3], p[0], p[1]]
    }

    /// The identity packed into the low 48 bits of a `u64` (big-endian
    /// byte order, so distinct identities map to distinct keys). Used as a
    /// compact cache key, e.g. by [`avmon_hash::PointMemo`]-backed
    /// consistency-condition caches.
    #[must_use]
    pub fn to_u64(self) -> u64 {
        let b = self.to_bytes();
        u64::from_be_bytes([0, 0, b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    /// The wire encoding read as a little-endian 48-bit word (byte `i` of
    /// [`NodeId::to_bytes`] in bits `8i..8i+8`), computed without going
    /// through memory.
    #[inline]
    fn to_le48(self) -> u64 {
        u64::from(u32::from_le_bytes(self.ip)) | u64::from(self.port.swap_bytes()) << 32
    }

    /// Decodes a 6-byte wire encoding.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 6]) -> Self {
        NodeId {
            ip: [bytes[0], bytes[1], bytes[2], bytes[3]],
            port: u16::from_be_bytes([bytes[4], bytes[5]]),
        }
    }

    /// The 12-byte consistency-condition input for the ordered pair
    /// `(monitor, target)` — i.e. the bytes hashed to evaluate
    /// `H(monitor, target) ≤ K/N`.
    ///
    /// The order matters: `pair_bytes(y, x)` decides `y ∈ PS(x)`, while
    /// `pair_bytes(x, y)` decides `x ∈ PS(y)`.
    #[must_use]
    pub fn pair_bytes(monitor: NodeId, target: NodeId) -> [u8; 12] {
        let m = monitor.to_bytes();
        let t = target.to_bytes();
        [
            m[0], m[1], m[2], m[3], m[4], m[5], //
            t[0], t[1], t[2], t[3], t[4], t[5],
        ]
    }

    /// [`NodeId::pair_bytes`] as the two little-endian words
    /// [`avmon_hash::PairHasher::point12`] takes — bytes `0..8` and
    /// `8..12` — assembled from the identities' integers in registers.
    ///
    /// Building the `[u8; 12]` from two `[u8; 6]` and reading it back as
    /// words makes every consistency check wait on store-to-load
    /// forwarding of differently sized accesses; this is the same value
    /// without the round trip through the stack.
    #[inline]
    #[must_use]
    pub fn pair_words(monitor: NodeId, target: NodeId) -> (u64, u32) {
        let t = target.to_le48();
        (monitor.to_le48() | t << 48, (t >> 16) as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip(), self.port)
    }
}

impl From<SocketAddrV4> for NodeId {
    fn from(addr: SocketAddrV4) -> Self {
        NodeId::new(addr.ip().octets(), addr.port())
    }
}

impl From<NodeId> for SocketAddrV4 {
    fn from(id: NodeId) -> Self {
        SocketAddrV4::new(id.ip(), id.port())
    }
}

/// Error returned when parsing a [`NodeId`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNodeIdError {
    input: String,
}

impl fmt::Display for ParseNodeIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid node id syntax: {:?} (expected a.b.c.d:port)",
            self.input
        )
    }
}

impl std::error::Error for ParseNodeIdError {}

impl std::str::FromStr for NodeId {
    type Err = ParseNodeIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.parse::<SocketAddrV4>()
            .map(NodeId::from)
            .map_err(|_| ParseNodeIdError {
                input: s.to_owned(),
            })
    }
}

#[allow(clippy::disallowed_types, clippy::disallowed_methods)] // tests are exempt from the determinism lints
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bytes() {
        let id = NodeId::new([192, 168, 1, 42], 65535);
        assert_eq!(NodeId::from_bytes(id.to_bytes()), id);
    }

    #[test]
    fn from_index_is_injective_sample() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            assert!(seen.insert(NodeId::from_index(i)));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 10.0.0.0/8")]
    fn from_index_rejects_huge_values() {
        let _ = NodeId::from_index(1 << 24);
    }

    #[test]
    fn pair_bytes_is_order_sensitive() {
        let a = NodeId::from_index(1);
        let b = NodeId::from_index(2);
        assert_ne!(NodeId::pair_bytes(a, b), NodeId::pair_bytes(b, a));
        assert_eq!(NodeId::pair_bytes(a, b).len(), 12);
    }

    #[test]
    fn pair_words_are_pair_bytes_read_little_endian() {
        // Twelve distinct byte values, ports that are neither 4000 nor
        // byte-symmetric: any byte in the wrong lane changes a word.
        let m = NodeId::new([0x11, 0x22, 0x33, 0x44], 0x5566);
        let t = NodeId::new([0x77, 0x88, 0x99, 0xaa], 0xbbcc);
        assert_eq!(
            NodeId::pair_words(m, t),
            (0x8877_6655_4433_2211, 0xccbb_aa99)
        );
        for (m, t) in [(m, t), (t, m), (m, m), (NodeId::default(), t)] {
            assert_eq!(
                NodeId::pair_words(m, t),
                avmon_hash::pair12_words(&NodeId::pair_bytes(m, t))
            );
        }
    }

    #[test]
    fn parses_display_output() {
        let id = NodeId::new([10, 1, 2, 3], 4000);
        let parsed: NodeId = id.to_string().parse().unwrap();
        assert_eq!(parsed, id);
        assert!("not-an-addr".parse::<NodeId>().is_err());
    }

    #[test]
    fn socket_addr_round_trip() {
        let id = NodeId::new([127, 0, 0, 1], 8080);
        let sock: SocketAddrV4 = id.into();
        assert_eq!(NodeId::from(sock), id);
    }
}
