//! Whole-cluster orchestration: spawn N AVMON nodes on threads over real
//! UDP sockets, observe them while they run, and crash-stop them as a real
//! deployment would experience.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use avmon::{
    AppEvent, Config, HashSelector, JoinKind, Node, NodeId, PersistentState, SharedSelector, TimeMs,
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
    pub(crate) fn new(config: Config, seed: u64) -> Self {
        let selector = Arc::new(HashSelector::from_config(&config));
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
    seed: u64,
}

impl ClusterBuilder {
    /// Starts building a cluster of `size` nodes sharing `config`.
    #[must_use]
    pub fn new(config: Config, size: usize) -> Self {
        ClusterBuilder {
            config,
            size,
            seed: 1,
        }
    }

    /// Master seed for node RNGs.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Binds one UDP socket per node on 127.0.0.1 (kernel-assigned ports)
    /// and spawns the node threads: node 0 bootstraps, the rest join
    /// through it. The cluster's clock ([`Cluster::now`]) starts here.
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
        let blueprint = Blueprint::new(self.config, self.seed);
        let (events_tx, events_rx) = unbounded();
        let board = SnapshotBoard::default();
        #[expect(clippy::disallowed_methods, reason = "the cluster's wall clock")]
        let epoch = Instant::now();
        let mut running = HashMap::new();
        for (i, transport) in transports.into_iter().enumerate() {
            let (commands, cmd_rx) = unbounded();
            let node = blueprint.node(ids[i], i, None);
            let events = events_tx.clone();
            let driver = NodeDriver::new(
                node,
                transport,
                cmd_rx,
                events,
                Arc::clone(&board),
                ids.clone(),
            );
            let contact = (i > 0).then(|| ids[0]);
            let handle = std::thread::spawn(move || driver.run(JoinKind::Fresh, contact));
            running.insert(ids[i], RunningNode { handle, commands });
        }
        Ok(Cluster {
            ids,
            running,
            epoch,
            events_rx,
            board,
        })
    }
}

struct RunningNode {
    handle: JoinHandle<()>,
    commands: Sender<Command>,
}

/// A running cluster of AVMON node threads on UDP.
pub struct Cluster {
    ids: Vec<NodeId>,
    running: HashMap<NodeId, RunningNode>,
    epoch: Instant,
    events_rx: Receiver<(NodeId, AppEvent)>,
    board: SnapshotBoard,
}

impl Cluster {
    /// Starts building a cluster.
    #[must_use]
    pub fn builder(config: Config, size: usize) -> ClusterBuilder {
        ClusterBuilder::new(config, size)
    }

    /// Wall milliseconds since the cluster was spawned.
    #[must_use]
    pub fn now(&self) -> TimeMs {
        self.epoch.elapsed().as_millis() as TimeMs
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
        }
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
