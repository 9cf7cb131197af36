//! One multi-node loop (madsim's shape): N [`DriverCore`]s on one thread,
//! one seed, and a [`Wire`] that carries their datagrams and keeps their
//! clock. The loop never asks which wire it runs on, so on either one every
//! return is a consistent cut.
//!
//! Two wires: [`VirtualWire`] (a [`VirtualHub`]) delivers a datagram sent
//! at `t` at `t + 1` virtual ms unless the loss draw drops it, and
//! [`crate::UdpWire`] (a [`crate::Cluster`]) sends it through real
//! loopback sockets on the wall clock. At one instant, arrivals go first
//! in the order the wire hands them over, then due timers in node-index
//! order (DESIGN.md §6).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io;
use std::sync::Arc;

use avmon::rng::Stream;
use avmon::{
    AppEvent, Config, Error, HashSelector, JoinKind, Node, NodeId, PersistentState, SharedSelector,
    TimeMs,
};
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::driver::{Command, DriverCore, NodeSnapshot};
use crate::transport::Port;

/// What carries a hub's datagrams and keeps its clock. Nodes are named by
/// their index in the hub's sorted identities.
pub trait Wire {
    /// The clock, in ms: the instant the hub last ran, or later.
    fn now(&self) -> TimeMs;

    /// Moves the clock to the next instant no later than `until` at which a
    /// datagram has arrived or `timer` (the earliest pending timer) is due,
    /// and returns `true`; with nothing due by `until`, moves it to `until`
    /// or later and returns `false`.
    fn advance(&mut self, timer: Option<TimeMs>, until: TimeMs) -> bool;

    /// The next datagram that has arrived by the clock, as `(to, from,
    /// bytes)`.
    fn recv(&mut self) -> Option<(usize, usize, Vec<u8>)>;

    /// Carries `bytes` from node `from` to node `to`, best-effort.
    fn send(&mut self, from: usize, to: usize, bytes: Vec<u8>);
}

/// N nodes, one thread, one clock: the loop of [`VirtualHub`] and
/// [`crate::Cluster`].
pub struct Hub<W> {
    config: Config,
    selector: SharedSelector,
    seed: u64,
    /// Sorted, so an identity's index is one binary search away.
    ids: Vec<NodeId>,
    /// `None` while killed.
    cores: Vec<Option<DriverCore<Port>>>,
    /// Each killed node's time of death and persistent state, by index.
    down: BTreeMap<usize, (TimeMs, PersistentState)>,
    wire: W,
    events_tx: Sender<(NodeId, AppEvent)>,
    events_rx: Receiver<(NodeId, AppEvent)>,
    /// What the nodes emitted since the last [`Hub::drain_events`], moved
    /// off the channel after every input.
    events: Vec<(NodeId, AppEvent)>,
}

impl<W: Wire> Hub<W> {
    /// Starts one node per identity at the wire's clock: node 0
    /// bootstraps, the rest join through it.
    pub(crate) fn start(config: Config, ids: Vec<NodeId>, seed: u64, wire: W) -> Self {
        let selector = Arc::new(HashSelector::from_config(&config));
        let (events_tx, events_rx) = unbounded();
        let mut hub = Hub {
            config,
            selector,
            seed,
            cores: Vec::with_capacity(ids.len()),
            ids,
            down: BTreeMap::new(),
            wire,
            events_tx,
            events_rx,
            events: Vec::new(),
        };
        for i in 0..hub.ids.len() {
            hub.cores.push(Some(hub.core(i, None)));
            let contact = (i > 0).then(|| hub.ids[0]);
            hub.input(i, |core, now| core.start(now, JoinKind::Fresh, contact));
        }
        hub
    }

    /// Node `i`, with RNG seed `mix64(seed ^ (i + 1))` in every
    /// incarnation.
    fn core(&self, i: usize, restore: Option<PersistentState>) -> DriverCore<Port> {
        let id = self.ids[i];
        let seed = avmon_hash::fast64::mix64(self.seed ^ (i as u64 + 1));
        let mut node = Node::new(id, self.config.clone(), self.selector.clone(), seed);
        if let Some(state) = restore {
            node.restore_persistent(state);
        }
        let port = Port::new(id);
        DriverCore::new(node, port, self.events_tx.clone(), self.ids.clone())
    }

    /// Node identities, in index order (ascending).
    #[must_use]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The clock, in ms: the instant the hub last ran at.
    #[must_use]
    pub fn now(&self) -> TimeMs {
        self.wire.now()
    }

    /// Runs every arrival and timer due up to `t`, and leaves the clock at
    /// `t` or later.
    pub fn run_until(&mut self, t: TimeMs) {
        while self.step(t) {}
    }

    /// Runs as [`Self::run_until`] does, but stops with the clock at the
    /// first instant whose inputs emitted application events — at once if
    /// undrained events are waiting. Returns whether it stopped early.
    pub fn run_until_event(&mut self, t: TimeMs) -> bool {
        while self.events.is_empty() {
            if !self.step(t) {
                return false;
            }
        }
        true
    }

    /// Runs until every running node knows at least `min_monitors` of its
    /// monitors, checking once per protocol period of the clock, or until
    /// `deadline`. Returns whether the goal was met.
    pub fn run_until_discovery(&mut self, min_monitors: usize, deadline: TimeMs) -> bool {
        let period = self.config.protocol_period;
        loop {
            let mut running = self.cores.iter().flatten();
            if running.all(|core| core.snapshot().ps.len() >= min_monitors) {
                return true;
            }
            if self.now() >= deadline {
                return false;
            }
            self.run_until(deadline.min(self.now() + period));
        }
    }

    /// Runs the next instant due by `t`, if any: its arrivals, then every
    /// node's due timers in index order.
    fn step(&mut self, t: TimeMs) -> bool {
        let running = self.cores.iter().flatten();
        let timer = running.filter_map(DriverCore::next_deadline).min();
        if !self.wire.advance(timer, t) {
            return false;
        }
        while let Some((to, from, bytes)) = self.wire.recv() {
            let from = self.ids[from];
            self.input(to, |core, now| core.deliver(now, from, &bytes));
        }
        for i in 0..self.cores.len() {
            self.input(i, DriverCore::fire_due);
        }
        true
    }

    /// Feeds one input to node `i` if it runs, then hands what it sent to
    /// members onto the wire, in send order.
    fn input<R>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut DriverCore<Port>, TimeMs) -> R,
    ) -> Option<R> {
        let core = self.cores[i].as_mut()?;
        let out = f(core, self.wire.now());
        self.events
            .extend(std::iter::from_fn(|| self.events_rx.try_recv().ok()));
        for (to, bytes) in core.transport_mut().outbox.drain(..) {
            if let Ok(to) = self.ids.binary_search(&to) {
                self.wire.send(i, to, bytes);
            }
        }
        Some(out)
    }

    fn index(&self, id: NodeId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// The current state of `id`, if it is running.
    #[must_use]
    pub fn snapshot(&self, id: NodeId) -> Option<NodeSnapshot> {
        let core = self.cores[self.index(id)?].as_ref()?;
        Some(core.snapshot())
    }

    /// The current state of every running node: one consistent cut.
    #[must_use]
    pub fn snapshots(&self) -> BTreeMap<NodeId, NodeSnapshot> {
        let running = self.ids.iter().zip(&self.cores);
        running
            .filter_map(|(&id, core)| Some((id, core.as_ref()?.snapshot())))
            .collect()
    }

    /// Applies `command` to `id` at the hub's instant if it is running;
    /// [`Command::Stop`] kills it.
    pub fn command(&mut self, id: NodeId, command: Command) {
        let Some(i) = self.index(id) else { return };
        if self.input(i, |core, now| core.command(now, command)) == Some(false) {
            self.kill(id);
        }
    }

    /// Drains the application events emitted so far.
    pub fn drain_events(&mut self) -> Vec<(NodeId, AppEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Crash-stops `id`, keeping its persistent state for [`Self::restart`].
    /// Datagrams that arrive for it while it is down are lost.
    pub fn kill(&mut self, id: NodeId) {
        let Some(i) = self.index(id) else { return };
        if let Some(core) = self.cores[i].take() {
            let state = core.into_node().into_persistent();
            self.down.insert(i, (self.now(), state));
        }
    }

    /// Restarts a killed node with its persistent state restored, as a
    /// rejoin whose down time is the time since the kill. It contacts the
    /// lowest running id.
    ///
    /// # Errors
    ///
    /// If `id` is running or not a member.
    pub fn restart(&mut self, id: NodeId) -> io::Result<()> {
        let not_down = || io::Error::other(format!("{id} is running or not a member"));
        let i = self.index(id).ok_or_else(not_down)?;
        let (since, state) = self.down.remove(&i).ok_or_else(not_down)?;
        let lowest_running = self.cores.iter().position(Option::is_some);
        let contact = lowest_running.map(|j| self.ids[j]);
        self.cores[i] = Some(self.core(i, Some(state)));
        let down_duration = self.now() - since;
        let rejoin = JoinKind::Rejoin { down_duration };
        self.input(i, |core, now| core.start(now, rejoin, contact));
        Ok(())
    }
}

/// The one-way delay of every datagram on a [`VirtualWire`], in virtual ms.
const DELAY: TimeMs = 1;

/// A datagram in flight: `(at, seq, to, from, bytes)`.
type InFlight = Reverse<(TimeMs, u64, usize, usize, Vec<u8>)>;

/// The in-memory wire in virtual time: an `(at, seq)` heap of datagrams,
/// each due 1 ms after its send unless the seeded loss draw drops it.
/// The clock jumps from one due instant to the next.
pub struct VirtualWire {
    heap: BinaryHeap<InFlight>,
    seq: u64,
    now: TimeMs,
    loss: f64,
    rng: Stream,
}

impl Wire for VirtualWire {
    fn now(&self) -> TimeMs {
        self.now
    }

    fn advance(&mut self, timer: Option<TimeMs>, until: TimeMs) -> bool {
        let arrival = self.heap.peek().map(|d| d.0 .0);
        match timer.into_iter().chain(arrival).min() {
            Some(at) if at <= until => {
                self.now = at;
                true
            }
            _ => {
                self.now = self.now.max(until);
                false
            }
        }
    }

    fn recv(&mut self) -> Option<(usize, usize, Vec<u8>)> {
        if self.heap.peek()?.0 .0 > self.now {
            return None;
        }
        let Reverse((_, _, to, from, bytes)) = self.heap.pop()?;
        Some((to, from, bytes))
    }

    fn send(&mut self, from: usize, to: usize, bytes: Vec<u8>) {
        if self.loss > 0.0 && self.rng.gen_bool(self.loss) {
            return;
        }
        let at = self.now + DELAY;
        self.heap.push(Reverse((at, self.seq, to, from, bytes)));
        self.seq += 1;
    }
}

/// N nodes in virtual time, where every instant is a consistent cut and
/// each run is a function of its seed. Node `i` is `NodeId::from_index(i)`.
pub type VirtualHub = Hub<VirtualWire>;

impl VirtualHub {
    /// Starts `size` nodes at virtual time 0: node 0 bootstraps, the rest
    /// join through it. Each datagram is dropped with probability `loss`,
    /// drawn from one stream seeded by `seed`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if `loss` is outside `[0, 1)`.
    pub fn new(config: Config, size: usize, seed: u64, loss: f64) -> Result<Self, Error> {
        if !(0.0..1.0).contains(&loss) {
            let msg = format!("loss must be in [0, 1), got {loss}");
            return Err(Error::InvalidConfig(msg));
        }
        let wire = VirtualWire {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            loss,
            rng: Stream::seeded(seed),
        };
        let ids = (0..size as u32).map(NodeId::from_index).collect();
        Ok(Hub::start(config, ids, seed, wire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;

    fn hub(size: usize, loss: f64) -> VirtualHub {
        VirtualHub::new(Config::builder(16).build().unwrap(), size, 7, loss).unwrap()
    }

    /// Sends `bytes` from node `from` through its port, as a node would.
    fn send(hub: &mut VirtualHub, from: usize, to: NodeId, bytes: &[u8]) {
        hub.input(from, |core, _| core.transport_mut().send(to, bytes));
    }

    #[test]
    fn routes_each_datagram_one_ms_later_to_members_only() {
        let mut hub = hub(2, 0.0);
        hub.run_until(10);
        let (before, to) = (hub.wire.heap.len(), hub.ids[1]);
        send(&mut hub, 0, NodeId::from_index(99), b"void");
        send(&mut hub, 0, to, b"hello");
        assert_eq!(
            hub.wire.heap.len(),
            before + 1,
            "only the member's datagram flies"
        );
        let sent = hub.wire.heap.iter().find(|d| d.0 .4 == b"hello").unwrap();
        assert_eq!((sent.0 .0, sent.0 .2, sent.0 .3), (11, 1, 0));
        hub.run_until(11); // delivered; it does not decode, so node 1 ignores it
        assert!(hub.wire.heap.iter().all(|d| d.0 .4 != b"hello") && hub.snapshot(to).is_some());
    }

    #[test]
    fn kill_unbinds_and_restart_rebinds() {
        let mut hub = hub(3, 0.0);
        let victim = hub.ids[2];
        hub.run_until(1_000);
        hub.kill(victim);
        assert!(hub.snapshot(victim).is_none() && hub.snapshots().len() == 2);
        hub.run_until(2_000);
        hub.restart(victim).unwrap();
        assert_eq!(hub.snapshot(victim).unwrap().started_at, 2_000);
        assert!(hub.restart(victim).is_err(), "already running");
        assert!(hub.restart(NodeId::from_index(99)).is_err(), "not a member");
    }

    #[test]
    fn lossy_hub_drops_about_its_share() {
        let mut hub = hub(2, 0.5);
        let (before, to) = (hub.wire.heap.len(), hub.ids[1]);
        for _ in 0..200 {
            send(&mut hub, 0, to, b"x");
        }
        let kept = hub.wire.heap.len() - before;
        assert!(kept > 50 && kept < 150, "kept {kept} of 200 at 50% loss");
    }
}
