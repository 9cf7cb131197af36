//! Whole-cluster orchestration: spawn N AVMON nodes on threads over real
//! UDP sockets, observe them while they run, and inject churn (kill /
//! restart) as a real deployment would experience.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use avmon::{
    AppEvent, Config, HashSelector, HasherKind, JoinKind, Node, NodeId, PersistentState,
    SharedSelector,
};
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::driver::{Command, NodeDriver, NodeSnapshot, SnapshotBoard};
use crate::transport::{Transport, UdpTransport};

/// What every node of one cluster shares, and the one place a cluster's
/// node is built: [`Cluster`] and [`crate::VirtualHub`] both build node `i`
/// here, with RNG seed `mix64(seed ^ (i + 1))` in every incarnation.
#[derive(Debug)]
pub(crate) struct Blueprint {
    config: Config,
    selector: SharedSelector,
    seed: u64,
}

impl Blueprint {
    pub(crate) fn new(config: Config, hasher: HasherKind, seed: u64) -> Self {
        let selector = HashSelector::from_config_with_kind(&config, hasher);
        Blueprint {
            config,
            selector,
            seed,
        }
    }

    pub(crate) fn node(&self, id: NodeId, i: usize, restore: Option<PersistentState>) -> Node {
        let seed = avmon_hash::fast64::mix64(self.seed ^ (i as u64 + 1));
        let mut node = Node::new(id, self.config.clone(), self.selector.clone(), seed);
        if let Some(state) = restore {
            node.restore_persistent(state);
        }
        node
    }
}

/// Builder for a [`Cluster`].
#[derive(Debug)]
pub struct ClusterBuilder {
    config: Config,
    size: usize,
    hasher: HasherKind,
    seed: u64,
}

impl ClusterBuilder {
    /// Starts building a cluster of `size` nodes sharing `config`.
    #[must_use]
    pub fn new(config: Config, size: usize) -> Self {
        ClusterBuilder {
            config,
            size,
            hasher: HasherKind::Fast64,
            seed: 1,
        }
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

    /// Binds one UDP socket per node on 127.0.0.1 (kernel-assigned ports)
    /// and spawns the node threads: node 0 bootstraps, the rest join
    /// through it.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a UDP socket cannot be bound.
    pub fn spawn(self) -> std::io::Result<Cluster> {
        // Bind first so every node's identity is known up front.
        let transports = (0..self.size)
            .map(|_| UdpTransport::bind_ephemeral([127, 0, 0, 1]))
            .collect::<std::io::Result<Vec<_>>>()?;
        let ids: Vec<NodeId> = transports.iter().map(Transport::local_id).collect();
        let (events_tx, events_rx) = unbounded();
        let mut cluster = Cluster {
            blueprint: Blueprint::new(self.config, self.hasher, self.seed),
            ids: ids.clone(),
            running: HashMap::new(),
            down_since: HashMap::new(),
            events_rx,
            events_tx,
            board: SnapshotBoard::default(),
        };
        for (i, transport) in transports.into_iter().enumerate() {
            let contact = (i > 0).then(|| ids[0]);
            cluster.spawn_driver(i, transport, JoinKind::Fresh, contact, None);
        }
        Ok(cluster)
    }
}

struct RunningNode {
    handle: JoinHandle<()>,
    commands: Sender<Command>,
}

/// A running cluster of AVMON node threads on UDP.
pub struct Cluster {
    blueprint: Blueprint,
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
        index: usize,
        transport: UdpTransport,
        kind: JoinKind,
        contact: Option<NodeId>,
        restore: Option<PersistentState>,
    ) {
        let id = self.ids[index];
        let (cmd_tx, cmd_rx): (Sender<Command>, Receiver<Command>) = unbounded();
        let driver = NodeDriver::new(
            self.blueprint.node(id, index, restore),
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
            #[expect(clippy::disallowed_methods, reason = "live downtime bookkeeping")]
            self.down_since.insert(id, Instant::now());
        }
    }

    /// Restarts a previously killed node with its persistent state restored
    /// (a rejoin: the JOIN weight follows the `min(cvs, t_down)` rule).
    ///
    /// # Errors
    ///
    /// Returns an error if the node is already running, was never part of
    /// the cluster, or its socket cannot be rebound.
    pub fn restart(&mut self, id: NodeId) -> std::io::Result<()> {
        if self.running.contains_key(&id) {
            return Err(std::io::Error::other(format!("{id} is already running")));
        }
        let Some(index) = self.ids.iter().position(|&x| x == id) else {
            return Err(std::io::Error::other(format!(
                "{id} is not a cluster member"
            )));
        };
        let transport = UdpTransport::bind(id)?;
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
            index,
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
        #[expect(clippy::disallowed_methods, reason = "live-cluster wall-clock timeout")]
        let deadline = Instant::now() + timeout;
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
            #[expect(clippy::disallowed_methods, reason = "wall-clock test timeout")]
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
