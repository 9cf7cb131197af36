//! Whole-cluster orchestration: spawn N AVMON nodes on threads, over the
//! in-memory hub or real UDP sockets, observe them while they run, and
//! inject churn (kill / restart) as a real deployment would experience.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use avmon::{AppEvent, Config, HashSelector, HasherKind, JoinKind, Node, NodeId};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::RwLock;

use crate::driver::{Command, NodeDriver, NodeSnapshot, SnapshotBoard};
use crate::transport::{MemoryHub, MemoryTransport, Transport, UdpTransport};

/// Which transport a cluster runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterTransport {
    /// Crossbeam-channel hub (fast, supports loss injection).
    #[default]
    Memory,
    /// Real UDP sockets on 127.0.0.1 with kernel-assigned ports.
    Udp,
}

/// Builder for a [`Cluster`].
#[derive(Debug)]
pub struct ClusterBuilder {
    config: Config,
    size: usize,
    transport: ClusterTransport,
    hasher: HasherKind,
    loss: f64,
    seed: u64,
}

impl ClusterBuilder {
    /// Starts building a cluster of `size` nodes sharing `config`.
    #[must_use]
    pub fn new(config: Config, size: usize) -> Self {
        ClusterBuilder {
            config,
            size,
            transport: ClusterTransport::Memory,
            hasher: HasherKind::Fast64,
            loss: 0.0,
            seed: 1,
        }
    }

    /// Selects the transport (default: in-memory).
    #[must_use]
    pub fn transport(mut self, transport: ClusterTransport) -> Self {
        self.transport = transport;
        self
    }

    /// Injects probabilistic message loss (memory transport only).
    #[must_use]
    pub fn loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Master seed for node RNGs.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the consistency-condition hasher.
    #[must_use]
    pub fn hasher(mut self, hasher: HasherKind) -> Self {
        self.hasher = hasher;
        self
    }

    /// Spawns the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidInput`] if the loss probability
    /// is outside `[0, 1)`, or an I/O error if a UDP socket cannot be
    /// bound.
    pub fn spawn(self) -> std::io::Result<Cluster> {
        if !(0.0..1.0).contains(&self.loss) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("loss must be in [0, 1), got {}", self.loss),
            ));
        }
        let selector = HashSelector::from_config_with_kind(&self.config, self.hasher);
        let board: SnapshotBoard = Arc::new(RwLock::new(HashMap::new()));
        let (events_tx, events_rx) = unbounded();

        // Build transports first so every node's identity is known up front
        // (UDP ports are kernel-assigned).
        let hub = MemoryHub::with_loss(self.loss, self.seed);
        let mut transports = Vec::with_capacity(self.size);
        for i in 0..self.size {
            let t = match self.transport {
                ClusterTransport::Memory => {
                    AnyTransport::Memory(hub.bind(NodeId::from_index(i as u32)))
                }
                ClusterTransport::Udp => {
                    AnyTransport::Udp(UdpTransport::bind_ephemeral([127, 0, 0, 1])?)
                }
            };
            transports.push(t);
        }
        let ids: Vec<NodeId> = transports.iter().map(Transport::local_id).collect();

        let mut cluster = Cluster {
            config: self.config,
            transport_kind: self.transport,
            selector,
            hub,
            seed: self.seed,
            ids: ids.clone(),
            running: HashMap::new(),
            down_since: HashMap::new(),
            events_rx,
            events_tx,
            board,
        };
        for (i, transport) in transports.into_iter().enumerate() {
            let contact = if i == 0 { None } else { Some(ids[0]) };
            cluster.spawn_driver(ids[i], i as u64, transport, JoinKind::Fresh, contact, None);
        }
        Ok(cluster)
    }
}

/// Transport-erased endpoint (memory or UDP).
enum AnyTransport {
    Memory(MemoryTransport),
    Udp(UdpTransport),
}

impl Transport for AnyTransport {
    fn local_id(&self) -> NodeId {
        match self {
            AnyTransport::Memory(t) => t.local_id(),
            AnyTransport::Udp(t) => t.local_id(),
        }
    }
    fn send(&mut self, to: NodeId, bytes: &[u8]) {
        match self {
            AnyTransport::Memory(t) => t.send(to, bytes),
            AnyTransport::Udp(t) => t.send(to, bytes),
        }
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        match self {
            AnyTransport::Memory(t) => t.recv_timeout(timeout),
            AnyTransport::Udp(t) => t.recv_timeout(timeout),
        }
    }
}

struct RunningNode {
    handle: JoinHandle<()>,
    commands: Sender<Command>,
}

/// A running cluster of AVMON node threads.
pub struct Cluster {
    config: Config,
    transport_kind: ClusterTransport,
    selector: avmon::SharedSelector,
    hub: Arc<MemoryHub>,
    seed: u64,
    ids: Vec<NodeId>,
    running: HashMap<NodeId, RunningNode>,
    down_since: HashMap<NodeId, Instant>,
    events_rx: Receiver<(NodeId, AppEvent)>,
    events_tx: Sender<(NodeId, AppEvent)>,
    board: SnapshotBoard,
}

impl Cluster {
    /// Starts building a cluster.
    #[must_use]
    pub fn builder(config: Config, size: usize) -> ClusterBuilder {
        ClusterBuilder::new(config, size)
    }

    fn spawn_driver(
        &mut self,
        id: NodeId,
        index: u64,
        transport: AnyTransport,
        kind: JoinKind,
        contact: Option<NodeId>,
        restore: Option<avmon::PersistentState>,
    ) {
        let mut node = Node::new(
            id,
            self.config.clone(),
            self.selector.clone(),
            avmon_hash::fast64::mix64(self.seed ^ (index + 1)),
        );
        if let Some(state) = restore {
            node.restore_persistent(state);
        }
        let (cmd_tx, cmd_rx): (Sender<Command>, Receiver<Command>) = unbounded();
        let driver = NodeDriver::new(
            node,
            transport,
            cmd_rx,
            self.events_tx.clone(),
            Arc::clone(&self.board),
            self.ids.clone(),
        );
        let handle = std::thread::spawn(move || driver.run(kind, contact));
        self.running.insert(
            id,
            RunningNode {
                handle,
                commands: cmd_tx,
            },
        );
    }

    /// Node identities, in spawn order.
    #[must_use]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Identities of currently running nodes.
    pub fn running_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.running.keys().copied()
    }

    /// Latest published snapshot of `id`.
    #[must_use]
    pub fn snapshot(&self, id: NodeId) -> Option<NodeSnapshot> {
        self.board.read().get(&id).cloned()
    }

    /// Snapshots of every node that has ever published one.
    #[must_use]
    pub fn snapshots(&self) -> HashMap<NodeId, NodeSnapshot> {
        self.board.read().clone()
    }

    /// Drains application events received so far.
    pub fn drain_events(&self) -> Vec<(NodeId, AppEvent)> {
        let mut out = Vec::new();
        while let Ok(e) = self.events_rx.try_recv() {
            out.push(e);
        }
        out
    }

    /// Sends a control command to `id`.
    pub fn command(&self, id: NodeId, command: Command) {
        if let Some(node) = self.running.get(&id) {
            let _ = node.commands.send(command);
        }
    }

    /// Crash-stops node `id` (silently, as the paper's model prescribes).
    /// Its final snapshot — including persistent state — remains readable.
    pub fn kill(&mut self, id: NodeId) {
        if let Some(node) = self.running.remove(&id) {
            let _ = node.commands.send(Command::Stop);
            let _ = node.handle.join();
            self.down_since.insert(id, Instant::now()); // detlint::allow(banned-clock): real downtime bookkeeping on a live cluster
        }
    }

    /// Restarts a previously killed node with its persistent state restored
    /// (a rejoin: the JOIN weight follows the `min(cvs, t_down)` rule).
    ///
    /// # Errors
    ///
    /// Returns an error if the node is already running, was never part of
    /// the cluster, or (UDP) its socket cannot be rebound.
    pub fn restart(&mut self, id: NodeId) -> std::io::Result<()> {
        if self.running.contains_key(&id) {
            return Err(std::io::Error::other(format!("{id} is already running")));
        }
        let Some(index) = self.ids.iter().position(|&x| x == id) else {
            return Err(std::io::Error::other(format!(
                "{id} is not a cluster member"
            )));
        };
        let transport = match self.transport_kind {
            ClusterTransport::Memory => AnyTransport::Memory(self.hub.bind(id)),
            ClusterTransport::Udp => AnyTransport::Udp(UdpTransport::bind(id)?),
        };
        let down = self
            .down_since
            .remove(&id)
            .map_or(Duration::ZERO, |t| t.elapsed());
        let restore = self.board.read().get(&id).map(|s| s.persistent.clone());
        let contact = self
            .running
            .keys()
            .next()
            .copied()
            .or_else(|| self.ids.iter().copied().find(|&other| other != id));
        self.spawn_driver(
            id,
            index as u64,
            transport,
            JoinKind::Rejoin {
                down_duration: down.as_millis() as u64,
            },
            contact,
            restore,
        );
        Ok(())
    }

    /// Blocks until every *running* node knows at least `min_monitors` of
    /// its monitors, or `timeout` elapses. Returns whether the goal was met.
    pub fn wait_for_discovery(&self, min_monitors: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout; // detlint::allow(banned-clock): wall-clock test timeout on a live cluster
        loop {
            let board = self.board.read();
            let done = self
                .running
                .keys()
                .all(|id| board.get(id).is_some_and(|s| s.ps.len() >= min_monitors));
            drop(board);
            if done {
                return true;
            }
            // detlint::allow(banned-clock): wall-clock test timeout
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Stops all nodes and joins their threads.
    pub fn shutdown(mut self) {
        let ids: Vec<NodeId> = self.running.keys().copied().collect();
        for id in ids {
            if let Some(node) = self.running.remove(&id) {
                let _ = node.commands.send(Command::Stop);
                let _ = node.handle.join();
            }
        }
    }
}
