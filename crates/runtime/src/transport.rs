//! Message transports for real-time AVMON deployments.
//!
//! The protocol state machine is transport-agnostic; this module provides
//! the two transports the runtime drivers use:
//!
//! * [`MemoryTransport`] — an in-process hub built on crossbeam channels,
//!   with optional probabilistic loss injection (failure testing);
//! * [`UdpTransport`] — real UDP sockets; a [`NodeId`] *is* a socket
//!   address, so the wire identity and the protocol identity coincide
//!   exactly as in the paper's `<IP, port>` model.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddrV4, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

use avmon::rng::Stream;
use avmon::NodeId;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

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

/// A hub port: the sending half of one endpoint's datagram queue.
type Port = Sender<(NodeId, Vec<u8>)>;

/// Shared switchboard for [`MemoryTransport`] endpoints.
#[derive(Debug)]
pub struct MemoryHub {
    ports: RwLock<HashMap<NodeId, Port>>,
    loss: f64,
    rng: Mutex<Stream>,
}

impl MemoryHub {
    /// Creates a hub with no loss.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Self::with_loss(0.0, 0)
    }

    /// Creates a hub dropping each message independently with probability
    /// `loss` (failure injection).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1)`.
    #[must_use]
    pub fn with_loss(loss: f64, seed: u64) -> Arc<Self> {
        assert!(
            (0.0..1.0).contains(&loss),
            "loss must be in [0,1), got {loss}"
        );
        Arc::new(MemoryHub {
            ports: RwLock::new(HashMap::new()),
            loss,
            rng: Mutex::new(Stream::seeded(seed)),
        })
    }

    /// Binds a new endpoint for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already bound on this hub.
    #[must_use]
    pub fn bind(self: &Arc<Self>, id: NodeId) -> MemoryTransport {
        let (tx, rx) = unbounded();
        let previous = self.ports.write().insert(id, tx);
        assert!(previous.is_none(), "node {id} already bound on this hub");
        MemoryTransport {
            id,
            hub: Arc::clone(self),
            rx,
        }
    }

    /// Unbinds `id` (subsequent sends to it are dropped).
    pub fn unbind(&self, id: NodeId) {
        self.ports.write().remove(&id);
    }

    fn deliver(&self, from: NodeId, to: NodeId, bytes: &[u8]) {
        if self.loss > 0.0 && self.rng.lock().gen_bool(self.loss) {
            return;
        }
        if let Some(tx) = self.ports.read().get(&to) {
            let _ = tx.send((from, bytes.to_vec()));
        }
    }
}

/// In-memory transport endpoint — see [`MemoryHub`].
#[derive(Debug)]
pub struct MemoryTransport {
    id: NodeId,
    hub: Arc<MemoryHub>,
    rx: Receiver<(NodeId, Vec<u8>)>,
}

impl Transport for MemoryTransport {
    fn local_id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, to: NodeId, bytes: &[u8]) {
        self.hub.deliver(self.id, to, bytes);
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        self.rx.recv_timeout(timeout).ok()
    }
}

impl Drop for MemoryTransport {
    fn drop(&mut self) {
        self.hub.unbind(self.id);
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

    fn id(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn memory_hub_routes_between_endpoints() {
        let hub = MemoryHub::new();
        let mut a = hub.bind(id(1));
        let mut b = hub.bind(id(2));
        a.send(id(2), b"hello");
        let (from, bytes) = b.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(from, id(1));
        assert_eq!(bytes, b"hello");
        assert_eq!(a.local_id(), id(1));
    }

    #[test]
    fn memory_hub_drops_to_unbound() {
        let hub = MemoryHub::new();
        let mut a = hub.bind(id(1));
        a.send(id(9), b"void"); // must not panic
        assert!(a.recv_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn memory_hub_rejects_double_bind() {
        let hub = MemoryHub::new();
        let _a = hub.bind(id(1));
        let _b = hub.bind(id(1));
    }

    #[test]
    fn dropping_endpoint_unbinds() {
        let hub = MemoryHub::new();
        {
            let _a = hub.bind(id(1));
        }
        let _a2 = hub.bind(id(1)); // rebindable after drop
    }

    #[test]
    fn lossy_hub_drops_some_messages() {
        let hub = MemoryHub::with_loss(0.5, 7);
        let mut a = hub.bind(id(1));
        let mut b = hub.bind(id(2));
        for _ in 0..200 {
            a.send(id(2), b"x");
        }
        let mut received = 0;
        while b.recv_timeout(Duration::from_millis(5)).is_some() {
            received += 1;
        }
        assert!(
            received > 50 && received < 150,
            "received {received} of 200 at 50% loss"
        );
    }

    #[test]
    fn udp_round_trip_on_loopback() {
        let mut a = UdpTransport::bind_ephemeral([127, 0, 0, 1]).unwrap();
        let mut b = UdpTransport::bind_ephemeral([127, 0, 0, 1]).unwrap();
        a.send(b.local_id(), b"datagram");
        let (from, bytes) = b.recv_timeout(Duration::from_millis(500)).unwrap();
        assert_eq!(from, a.local_id());
        assert_eq!(bytes, b"datagram");
    }
}
