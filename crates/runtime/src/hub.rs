//! A cluster in virtual time (madsim's shape): N [`DriverCore`]s on one
//! thread, one seed, one run, and every instant a consistent cut. Sent at
//! `t`, a datagram arrives at `t + 1` ms unless the loss draw drops it; at
//! one instant, arrivals go first in send order, then due timers in
//! node-index order (DESIGN.md §6).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io;

use avmon::rng::Stream;
use avmon::{AppEvent, Config, Error, JoinKind, NodeId, PersistentState, TimeMs};
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::cluster::Blueprint;
use crate::driver::{Command, DriverCore, NodeSnapshot};
use crate::transport::Port;

/// The one-way delay of every datagram, in virtual ms.
const DELAY: TimeMs = 1;

/// A datagram in flight: `(at, seq, to's index, from, bytes)`.
type InFlight = Reverse<(TimeMs, u64, usize, NodeId, Vec<u8>)>;

/// N nodes, one thread, one virtual clock. Node `i` is
/// `NodeId::from_index(i)`, built as [`crate::Cluster`] builds its `i`-th.
pub struct VirtualHub {
    blueprint: Blueprint,
    /// Sorted, since `from_index` is monotone in the index.
    ids: Vec<NodeId>,
    /// `None` while killed.
    cores: Vec<Option<DriverCore<Port>>>,
    /// Each killed node's time of death and persistent state, by index.
    down: BTreeMap<usize, (TimeMs, PersistentState)>,
    wire: BinaryHeap<InFlight>,
    seq: u64,
    now: TimeMs,
    loss: f64,
    rng: Stream,
    events_tx: Sender<(NodeId, AppEvent)>,
    events_rx: Receiver<(NodeId, AppEvent)>,
    /// What the nodes emitted since the last [`VirtualHub::drain_events`],
    /// moved off the channel after every input.
    events: Vec<(NodeId, AppEvent)>,
}

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
        let (events_tx, events_rx) = unbounded();
        let mut hub = VirtualHub {
            blueprint: Blueprint::new(config, seed),
            ids: (0..size as u32).map(NodeId::from_index).collect(),
            cores: Vec::with_capacity(size),
            down: BTreeMap::new(),
            wire: BinaryHeap::new(),
            seq: 0,
            now: 0,
            loss,
            rng: Stream::seeded(seed),
            events_tx,
            events_rx,
            events: Vec::new(),
        };
        for i in 0..size {
            hub.cores.push(Some(hub.core(i, None)));
            let contact = (i > 0).then(|| hub.ids[0]);
            hub.input(i, |core, now| core.start(now, JoinKind::Fresh, contact));
        }
        Ok(hub)
    }

    fn core(&self, i: usize, restore: Option<PersistentState>) -> DriverCore<Port> {
        let port = Port::new(self.ids[i]);
        let node = self.blueprint.node(self.ids[i], i, restore);
        DriverCore::new(node, port, self.events_tx.clone(), self.ids.clone())
    }

    /// Node identities, in index order.
    #[must_use]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The virtual time, in ms.
    #[must_use]
    pub fn now(&self) -> TimeMs {
        self.now
    }

    /// Runs every arrival and timer due up to `t`, then moves the clock to
    /// `t` if that is later.
    pub fn run_until(&mut self, t: TimeMs) {
        while self.step(t) {}
        self.now = self.now.max(t);
    }

    /// Runs as [`Self::run_until`] does, but stops with the clock at the
    /// first instant whose inputs emitted application events — at once if
    /// undrained events are waiting. Returns whether it stopped early.
    pub fn run_until_event(&mut self, t: TimeMs) -> bool {
        while self.events.is_empty() {
            if !self.step(t) {
                self.now = self.now.max(t);
                return false;
            }
        }
        true
    }

    /// Runs the next instant due by `t`, if any: its arrivals in send
    /// order, then every node's due timers in index order.
    fn step(&mut self, t: TimeMs) -> bool {
        let Some(at) = self.next_instant().filter(|&at| at <= t) else {
            return false;
        };
        self.now = at;
        while self.wire.peek().is_some_and(|d| d.0 .0 <= at) {
            let Some(Reverse((_, _, to, from, bytes))) = self.wire.pop() else {
                break;
            };
            self.input(to, |core, now| core.deliver(now, from, &bytes));
        }
        for i in 0..self.cores.len() {
            self.input(i, DriverCore::fire_due);
        }
        true
    }

    fn next_instant(&self) -> Option<TimeMs> {
        let running = self.cores.iter().flatten();
        let timers = running.filter_map(DriverCore::next_deadline);
        let arrival = self.wire.peek().map(|d| d.0 .0);
        timers.chain(arrival).min()
    }

    /// Feeds one input to node `i` if it runs, then moves what it sent
    /// onto the wire, drawing loss per datagram in send order.
    fn input<R>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut DriverCore<Port>, TimeMs) -> R,
    ) -> Option<R> {
        let core = self.cores[i].as_mut()?;
        let out = f(core, self.now);
        self.events
            .extend(std::iter::from_fn(|| self.events_rx.try_recv().ok()));
        for (to, bytes) in core.transport_mut().outbox.drain(..) {
            if self.loss > 0.0 && self.rng.gen_bool(self.loss) {
                continue;
            }
            if let Ok(to) = self.ids.binary_search(&to) {
                let (at, from) = (self.now + DELAY, self.ids[i]);
                self.wire.push(Reverse((at, self.seq, to, from, bytes)));
                self.seq += 1;
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

    /// Applies `command` to `id` now if it is running; [`Command::Stop`]
    /// kills it.
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
    /// Datagrams in flight to it are lost.
    pub fn kill(&mut self, id: NodeId) {
        let Some(i) = self.index(id) else { return };
        if let Some(core) = self.cores[i].take() {
            let state = core.into_node().into_persistent();
            self.down.insert(i, (self.now, state));
        }
    }

    /// Restarts a killed node with its persistent state restored, as a
    /// rejoin whose down time is the virtual time since the kill. It
    /// contacts the lowest running id.
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
        let down_duration = self.now - since;
        let rejoin = JoinKind::Rejoin { down_duration };
        self.input(i, |core, now| core.start(now, rejoin, contact));
        Ok(())
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
        let (before, to) = (hub.wire.len(), hub.ids[1]);
        send(&mut hub, 0, NodeId::from_index(99), b"void");
        send(&mut hub, 0, to, b"hello");
        assert_eq!(
            hub.wire.len(),
            before + 1,
            "only the member's datagram flies"
        );
        let sent = hub.wire.iter().find(|d| d.0 .4 == b"hello").unwrap();
        assert_eq!((sent.0 .0, sent.0 .2, sent.0 .3), (11, 1, hub.ids[0]));
        hub.run_until(11); // delivered; it does not decode, so node 1 ignores it
        assert!(hub.wire.iter().all(|d| d.0 .4 != b"hello") && hub.snapshot(to).is_some());
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
        let (before, to) = (hub.wire.len(), hub.ids[1]);
        for _ in 0..200 {
            send(&mut hub, 0, to, b"x");
        }
        let kept = hub.wire.len() - before;
        assert!(kept > 50 && kept < 150, "kept {kept} of 200 at 50% loss");
    }
}
