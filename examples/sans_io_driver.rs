//! A from-scratch sans-io driver: run a small AVMON overlay in a single
//! thread on virtual time, built directly on the shared harness
//! (`avmon::driver`) with no simulator and no sockets.
//!
//! This is the "driver authoring" recipe in its smallest complete form —
//! the same loop `avmon-sim` and `avmon-runtime` are built on:
//!
//! 1. feed an input (`start` / `handle_message` / `handle_timer`),
//! 2. `drain` the node's queued outputs into your environment,
//! 3. deliver transmits and fire due timers however your backend likes,
//! 4. repeat.
//!
//! ```bash
//! cargo run -p avmon-examples --release --bin sans_io_driver
//! ```

#![allow(clippy::disallowed_types, reason = "examples are exempt")]

use std::collections::{HashMap, VecDeque};

use avmon::driver::{drain, DriverEnv, TimerQueue};
use avmon::{
    AppEvent, Config, HashSelector, JoinKind, Node, NodeId, TimeMs, Timer, Transmit, MINUTE,
};
use std::sync::Arc;

/// One shared environment for all nodes: an instant-delivery message queue
/// plus a per-node timer queue. A real backend would put sockets or an
/// async reactor here; nothing else in the loop would change.
#[derive(Default)]
struct Loopback {
    /// In-flight messages `(from, to, msg)` — delivered instantly.
    wire: VecDeque<(NodeId, NodeId, avmon::Message)>,
    /// Per-node pending timers.
    timers: HashMap<NodeId, TimerQueue>,
    /// Discovery events observed, for reporting.
    discoveries: Vec<(NodeId, AppEvent)>,
}

impl DriverEnv for Loopback {
    fn transmit(&mut self, from: NodeId, transmit: Transmit) {
        match transmit.unicast_to() {
            Some(to) => self.wire.push_back((from, to, transmit.msg)),
            None => unreachable!("coarse-view mode never broadcasts"),
        }
    }

    fn arm_timer(&mut self, node: NodeId, timer: Timer, at: TimeMs) {
        self.timers.entry(node).or_default().arm(timer, at);
    }

    fn handle_event(&mut self, node: NodeId, event: AppEvent) {
        if matches!(
            event,
            AppEvent::MonitorDiscovered { .. } | AppEvent::TargetDiscovered { .. }
        ) {
            self.discoveries.push((node, event));
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 24;
    let config = Config::builder(n).k((n / 2) as u32).build()?;
    let selector = Arc::new(HashSelector::from_config(&config));
    println!(
        "sans-io driver: {n} nodes, K={}, cvs={}, single thread, virtual time",
        config.k, config.cvs
    );

    // Build the population; node 0 bootstraps, everyone else joins via it.
    let mut nodes: HashMap<NodeId, Node> = HashMap::new();
    let mut env = Loopback::default();
    let ids: Vec<NodeId> = (0..n as u32).map(NodeId::from_index).collect();
    for (i, &id) in ids.iter().enumerate() {
        let mut node = Node::new(id, config.clone(), selector.clone(), i as u64 + 1);
        let contact = (i > 0).then(|| ids[0]);
        node.start(0, JoinKind::Fresh, contact);
        drain(&mut node, &mut env);
        nodes.insert(id, node);
    }

    // The driver loop: one-minute virtual ticks, instant message delivery.
    let horizon = 20 * MINUTE;
    let mut now: TimeMs = 0;
    while now <= horizon {
        // 1. Deliver everything in flight (instant network), draining each
        //    receiver as soon as it processes an input.
        while let Some((from, to, msg)) = env.wire.pop_front() {
            if let Some(node) = nodes.get_mut(&to) {
                node.handle_message(now, from, msg);
                drain(node, &mut env);
            }
        }
        // 2. Fire every timer due by `now`, in deterministic order.
        for &id in &ids {
            while let Some(timer) = env.timers.get_mut(&id).and_then(|q| q.pop_due(now)) {
                let node = nodes.get_mut(&id).expect("node exists");
                node.handle_timer(now, timer);
                drain(node, &mut env);
            }
        }
        now += MINUTE;
    }

    // Report: consistency means every discovered relationship verifies.
    let monitors = env
        .discoveries
        .iter()
        .filter(|(_, e)| matches!(e, AppEvent::MonitorDiscovered { .. }))
        .count();
    let targets = env.discoveries.len() - monitors;
    let with_monitor = ids
        .iter()
        .filter(|id| nodes[id].pinging_set_len() > 0)
        .count();
    avmon_examples::print_kv(&[
        ("virtual span (min)", (horizon / MINUTE).to_string()),
        ("monitor discoveries", monitors.to_string()),
        ("target discoveries", targets.to_string()),
        ("nodes with ≥1 monitor", format!("{with_monitor}/{n}")),
    ]);
    assert!(
        with_monitor * 10 >= n * 8,
        "discovery should be nearly complete"
    );
    println!("\nevery relationship above re-verified the hash condition on acceptance");
    Ok(())
}
