//! Message transports for real-time AVMON deployments.
//!
//! The protocol state machine is transport-agnostic; this module holds the
//! [`Transport`] trait and the one wall-clock transport, [`UdpTransport`]:
//! real UDP sockets, where a [`NodeId`] *is* a socket address, so the wire
//! identity and the protocol identity coincide exactly as in the paper's
//! `<IP, port>` model. `Port` is the endpoint of a [`crate::Hub`]'s node,
//! whose wire carries what it sends.

use std::io;
use std::net::{SocketAddrV4, UdpSocket};
use std::time::Duration;

use avmon::NodeId;

/// A datagram endpoint bound to one node identity.
pub trait Transport: Send {
    /// This endpoint's identity.
    fn local_id(&self) -> NodeId;

    /// Sends `bytes` to `to`, best-effort (lost messages surface as
    /// protocol timeouts, never as errors here).
    fn send(&mut self, to: NodeId, bytes: &[u8]);

    /// Receives one datagram, waiting at most `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)>;
}

/// A [`crate::Hub`] endpoint: sends wait in an outbox that the hub hands
/// to its wire after each input. The hub delivers, so nothing is ever
/// received here.
#[derive(Debug)]
pub(crate) struct Port {
    id: NodeId,
    pub(crate) outbox: Vec<(NodeId, Vec<u8>)>,
}

impl Port {
    pub(crate) fn new(id: NodeId) -> Self {
        let outbox = Vec::new();
        Port { id, outbox }
    }
}

impl Transport for Port {
    fn local_id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, to: NodeId, bytes: &[u8]) {
        self.outbox.push((to, bytes.to_vec()));
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        None
    }
}

/// UDP transport endpoint: binds the socket address encoded in the
/// [`NodeId`] itself.
#[derive(Debug)]
pub struct UdpTransport {
    id: NodeId,
    socket: UdpSocket,
    buf: Vec<u8>,
}

impl UdpTransport {
    /// Binds the UDP socket for `id`.
    ///
    /// # Errors
    ///
    /// Returns the bind error (e.g. address in use, privileged port).
    pub fn bind(id: NodeId) -> io::Result<Self> {
        let socket = UdpSocket::bind(SocketAddrV4::from(id))?;
        socket.set_nonblocking(false)?;
        Ok(UdpTransport {
            id,
            socket,
            buf: vec![0u8; 64 * 1024],
        })
    }

    /// Binds to port 0 on `ip` and reports the kernel-chosen identity.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind_ephemeral(ip: [u8; 4]) -> io::Result<Self> {
        let socket = UdpSocket::bind(SocketAddrV4::new(ip.into(), 0))?;
        let addr = match socket.local_addr()? {
            std::net::SocketAddr::V4(v4) => v4,
            std::net::SocketAddr::V6(v6) => {
                return Err(io::Error::other(format!("unexpected v6 bind {v6}")));
            }
        };
        Ok(UdpTransport {
            id: NodeId::from(addr),
            socket,
            buf: vec![0u8; 64 * 1024],
        })
    }
}

impl Transport for UdpTransport {
    fn local_id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, to: NodeId, bytes: &[u8]) {
        // Best-effort, like any datagram: errors become protocol timeouts.
        let _ = self.socket.send_to(bytes, SocketAddrV4::from(to));
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        self.socket
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .ok()?;
        match self.socket.recv_from(&mut self.buf) {
            Ok((len, std::net::SocketAddr::V4(addr))) => {
                Some((NodeId::from(addr), self.buf[..len].to_vec()))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_round_trip_on_loopback() {
        let mut a = UdpTransport::bind_ephemeral([127, 0, 0, 1]).unwrap();
        let mut b = UdpTransport::bind_ephemeral([127, 0, 0, 1]).unwrap();
        a.send(b.local_id(), b"datagram");
        let (from, bytes) = b.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(from, a.local_id());
        assert_eq!(bytes, b"datagram");
    }

    /// A node at a fixed address binds the identity it was given, and
    /// datagrams to that identity reach it.
    #[test]
    fn udp_bind_at_a_fixed_identity_round_trips() {
        // A port the kernel just handed out, freed again for the bind.
        let id = UdpTransport::bind_ephemeral([127, 0, 0, 1])
            .unwrap()
            .local_id();
        let mut b = UdpTransport::bind(id).unwrap();
        assert_eq!(b.local_id(), id);
        let mut a = UdpTransport::bind_ephemeral([127, 0, 0, 1]).unwrap();
        a.send(id, b"to a fixed address");
        let (from, bytes) = b.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(from, a.local_id());
        assert_eq!(bytes, b"to a fixed address");
        b.send(from, b"and back");
        let (from, bytes) = a.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!((from, &bytes[..]), (id, &b"and back"[..]));
    }
}
