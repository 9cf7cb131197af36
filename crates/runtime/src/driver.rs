//! The per-node event loop, in two layers: [`DriverCore`] maps the
//! poll-based sans-io state machine onto a [`Transport`] at caller-given
//! times, and [`NodeDriver`] is the wall-clock shell that runs one core on
//! its own thread.
//!
//! Built entirely on the shared harness in [`avmon::driver`]: the
//! [`TimerQueue`] orders pending timers deterministically, [`drain`]
//! executes the node's queued outputs through this driver's [`DriverEnv`],
//! [`apply_command`] handles control-plane requests, and
//! [`NodeSnapshot::capture`] publishes observability state. The only code
//! that lives here is what is genuinely specific to this backend: encoding
//! outgoing messages onto the transport and, in the shell, blocking on its
//! receive path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use avmon::driver::{apply_command, drain, DriverEnv, TimerQueue};
use avmon::{bytes::BytesMut, codec, AppEvent, JoinKind, Node, NodeId, TimeMs, Timer, Transmit};
use crossbeam::channel::{Receiver, Sender, TryRecvError};
use parking_lot::RwLock;

use crate::transport::Transport;

pub use avmon::driver::{Command, NodeSnapshot};

/// Shared registry of node snapshots, updated continuously by drivers.
pub type SnapshotBoard = Arc<RwLock<std::collections::HashMap<NodeId, NodeSnapshot>>>;

/// Runs one node's event loop until [`Command::Stop`] (or channel
/// disconnect). Designed to run on its own thread: the wall-clock shell
/// around a [`DriverCore`].
pub struct NodeDriver<T: Transport> {
    core: DriverCore<T>,
    epoch: Instant,
    commands: Receiver<Command>,
    board: SnapshotBoard,
}

/// One node with its transport, timer queue, broadcast directory and event
/// channel, driven by explicit inputs at explicit times: no clock, no
/// blocking, no thread. Every input drains the node's outputs before it
/// returns. [`NodeDriver`] feeds it from a socket and the wall clock;
/// [`crate::Hub`] feeds many: `VirtualHub` in virtual time, `Cluster` over UDP.
pub struct DriverCore<T: Transport> {
    node: Node,
    env: TransportEnv<T>,
}

/// The runtime's [`DriverEnv`]: transmits encode onto the transport
/// (broadcasts fan out over the directory), timers land in the shared
/// [`TimerQueue`], events go to the owner's channel.
struct TransportEnv<T: Transport> {
    transport: T,
    timers: TimerQueue,
    events: Sender<(NodeId, AppEvent)>,
    directory: Vec<NodeId>,
    /// Reused encode buffer: `clear` + `encode_into` keeps the steady
    /// state allocation-free for messages under the retained capacity.
    encode_buf: BytesMut,
}

impl<T: Transport> DriverEnv for TransportEnv<T> {
    fn transmit(&mut self, from: NodeId, transmit: Transmit) {
        self.encode_buf.clear();
        codec::encode_into(&transmit.msg, &mut self.encode_buf);
        match transmit.unicast_to() {
            Some(to) => self.transport.send(to, &self.encode_buf),
            None => {
                for i in 0..self.directory.len() {
                    let to = self.directory[i];
                    if to != from {
                        self.transport.send(to, &self.encode_buf);
                    }
                }
            }
        }
    }

    fn arm_timer(&mut self, _node: NodeId, timer: Timer, at: TimeMs) {
        self.timers.arm(timer, at);
    }

    fn handle_event(&mut self, node: NodeId, event: AppEvent) {
        let _ = self.events.send((node, event));
    }
}

impl<T: Transport> DriverCore<T> {
    /// Wraps `node` and its transport. `directory` is the full member list,
    /// used only to fan out broadcast transmits (the Broadcast baseline);
    /// coarse-view deployments can pass an empty `Vec`.
    pub fn new(
        node: Node,
        transport: T,
        events: Sender<(NodeId, AppEvent)>,
        directory: Vec<NodeId>,
    ) -> Self {
        DriverCore {
            node,
            env: TransportEnv {
                transport,
                timers: TimerQueue::new(),
                events,
                directory,
                encode_buf: BytesMut::with_capacity(2048),
            },
        }
    }

    /// Joins the overlay through `contact` (`None` bootstraps).
    pub fn start(&mut self, now: TimeMs, kind: JoinKind, contact: Option<NodeId>) {
        self.node.start(now, kind, contact);
        drain(&mut self.node, &mut self.env);
    }

    /// Decodes one datagram from `from` and hands it to the node; a
    /// datagram that does not decode is ignored.
    pub fn deliver(&mut self, now: TimeMs, from: NodeId, bytes: &[u8]) {
        if let Ok(msg) = codec::decode(bytes) {
            self.node.handle_message(now, from, msg);
            drain(&mut self.node, &mut self.env);
        }
    }

    /// Applies a control command. Returns `false` if it asks the driver to
    /// stop.
    pub fn command(&mut self, now: TimeMs, command: Command) -> bool {
        let go_on = apply_command(&mut self.node, now, command);
        drain(&mut self.node, &mut self.env);
        go_on
    }

    /// Fires every timer due at `now`. The liveness filter applies the
    /// lazy-expiry contract on `Timer::Expire`: expiries of already-answered
    /// pings die in the queue without a node round-trip.
    pub fn fire_due(&mut self, now: TimeMs) {
        while let Some(timer) = self
            .env
            .timers
            .pop_due_where(now, |t| self.node.timer_live(*t, now))
        {
            self.node.handle_timer(now, timer);
            drain(&mut self.node, &mut self.env);
        }
    }

    /// The deadline of the earliest pending timer (live or not).
    #[must_use]
    pub fn next_deadline(&self) -> Option<TimeMs> {
        self.env.timers.next_deadline()
    }

    /// The node's state now.
    #[must_use]
    pub fn snapshot(&self) -> NodeSnapshot {
        NodeSnapshot::capture(&self.node)
    }

    /// The transport, for the caller that receives on it or empties it.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.env.transport
    }

    /// Ends the driver, handing back its node.
    #[must_use]
    pub fn into_node(self) -> Node {
        self.node
    }
}

impl<T: Transport> NodeDriver<T> {
    /// Creates a driver. `directory` is as for [`DriverCore::new`].
    pub fn new(
        node: Node,
        transport: T,
        commands: Receiver<Command>,
        events: Sender<(NodeId, AppEvent)>,
        board: SnapshotBoard,
        directory: Vec<NodeId>,
    ) -> Self {
        NodeDriver {
            core: DriverCore::new(node, transport, events, directory),
            #[expect(clippy::disallowed_methods, reason = "wall time is this node's epoch")]
            epoch: Instant::now(),
            commands,
            board,
        }
    }

    fn now(&self) -> TimeMs {
        self.epoch.elapsed().as_millis() as TimeMs
    }

    /// Joins the overlay through `contact` and runs until stopped.
    pub fn run(mut self, kind: JoinKind, contact: Option<NodeId>) {
        self.core.start(self.now(), kind, contact);
        self.publish();

        #[expect(clippy::disallowed_methods, reason = "live publish cadence")]
        let mut last_publish = Instant::now();
        loop {
            match self.commands.try_recv() {
                Ok(Command::Stop) | Err(TryRecvError::Disconnected) => break,
                Ok(command) => {
                    if !self.core.command(self.now(), command) {
                        break;
                    }
                }
                Err(TryRecvError::Empty) => {}
            }

            self.core.fire_due(self.now());

            // Wait for traffic until the next timer (capped so commands and
            // snapshot publishing stay responsive).
            let wait = self
                .core
                .next_deadline()
                .map_or(50, |at| at.saturating_sub(self.now()).min(50));
            if let Some((from, bytes)) = self
                .core
                .transport_mut()
                .recv_timeout(Duration::from_millis(wait.max(1)))
            {
                self.core.deliver(self.now(), from, &bytes);
            }

            #[expect(clippy::disallowed_methods, reason = "one-node shell's cadence")]
            if last_publish.elapsed() >= Duration::from_millis(100) {
                self.publish();
                last_publish = Instant::now();
            }
        }
        self.publish();
    }

    fn publish(&self) {
        self.board
            .write()
            .insert(self.core.node.id(), self.core.snapshot());
    }
}
