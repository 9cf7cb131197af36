//! The hub's loop over real UDP sockets on localhost, where a node's
//! [`NodeId`] *is* its socket address (the paper's `<IP, port>`), on a wall
//! clock that starts when the cluster is built.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

use avmon::{Config, NodeId, TimeMs};

use crate::hub::{Hub, Wire};

/// The loopback wire: one non-blocking UDP socket per node, ordered by
/// identity, and the wall clock. Loss is whatever the kernel drops.
pub struct UdpWire {
    sockets: Vec<UdpSocket>,
    /// The sockets' identities, ascending.
    ids: Vec<NodeId>,
    epoch: Instant,
    now: TimeMs,
    /// Datagrams read off the sockets and not yet handed to the hub.
    arrived: VecDeque<(usize, usize, Vec<u8>)>,
    buf: Vec<u8>,
}

impl UdpWire {
    /// Binds `size` sockets to kernel-assigned ports on 127.0.0.1 and
    /// starts the clock.
    fn bind(size: usize) -> io::Result<Self> {
        let mut bound = Vec::with_capacity(size);
        for _ in 0..size {
            let socket = UdpSocket::bind(SocketAddrV4::new([127, 0, 0, 1].into(), 0))?;
            socket.set_nonblocking(true)?;
            let SocketAddr::V4(addr) = socket.local_addr()? else {
                return Err(io::Error::other("a v4 bind reported a v6 address"));
            };
            bound.push((NodeId::from(addr), socket));
        }
        bound.sort_by_key(|&(id, _)| id);
        let (ids, sockets) = bound.into_iter().unzip();
        Ok(UdpWire {
            sockets,
            ids,
            #[expect(clippy::disallowed_methods, reason = "the cluster's wall clock")]
            epoch: Instant::now(),
            now: 0,
            arrived: VecDeque::new(),
            buf: vec![0u8; 64 * 1024],
        })
    }

    /// Reads every datagram waiting on the sockets, in socket order; one
    /// from a non-member is dropped.
    fn poll(&mut self) {
        for (to, socket) in self.sockets.iter().enumerate() {
            while let Ok((len, addr)) = socket.recv_from(&mut self.buf) {
                let SocketAddr::V4(addr) = addr else { continue };
                if let Ok(from) = self.ids.binary_search(&NodeId::from(addr)) {
                    self.arrived.push_back((to, from, self.buf[..len].to_vec()));
                }
            }
        }
    }
}

impl Wire for UdpWire {
    fn now(&self) -> TimeMs {
        self.now
    }

    /// Idles 1 ms at a time: no timer is ever less than that away.
    fn advance(&mut self, timer: Option<TimeMs>, until: TimeMs) -> bool {
        loop {
            self.now = self.now.max(self.epoch.elapsed().as_millis() as TimeMs);
            if self.now >= until {
                return false;
            }
            self.poll();
            if !self.arrived.is_empty() || timer.is_some_and(|at| at <= self.now) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn recv(&mut self) -> Option<(usize, usize, Vec<u8>)> {
        self.arrived.pop_front()
    }

    fn send(&mut self, from: usize, to: usize, bytes: Vec<u8>) {
        // Best-effort, like any datagram: errors become protocol timeouts.
        let to = SocketAddrV4::from(self.ids[to]);
        let _ = self.sockets[from].send_to(&bytes, to);
    }
}

/// N nodes over UDP on localhost, run by the hub's loop on the caller's
/// thread: the nodes advance only inside its `run_until*` calls, and every
/// return is a consistent cut. Dropping it closes the sockets.
pub type Cluster = Hub<UdpWire>;

impl Cluster {
    /// Binds one UDP socket per node on 127.0.0.1 (kernel-assigned ports,
    /// node `i` the `i`-th lowest) and starts the nodes at wall time 0:
    /// node 0 bootstraps, the rest join through it.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a UDP socket cannot be bound.
    pub fn new(config: Config, size: usize, seed: u64) -> io::Result<Self> {
        let wire = UdpWire::bind(size)?;
        let ids = wire.ids.clone();
        Ok(Hub::start(config, ids, seed, wire))
    }
}
