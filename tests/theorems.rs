//! The paper's two stated theorems, checked mechanically.
//!
//! * **Theorem 1** (§4.1): if `(x, y)` satisfy the consistency condition
//!   and both stay alive long enough, `x` eventually discovers `y`.
//! * **Theorem 2** (§4.1): a dead node is eventually deleted from every
//!   coarse view that contained it (w.h.p. within `cvs·ln N` periods).

// Test target: tests are exempt from the determinism lints.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use avmon::{Config, HashSelector, MonitorSelector, NodeId, HOUR, MINUTE};
use avmon_churn::{stat, ChurnEvent, ChurnEventKind, Trace};
use avmon_sim::{SimOptions, Simulation};

#[test]
fn theorem1_eventual_discovery_of_all_alive_pairs() {
    // STAT system: everyone stays alive forever. After a long run, *every*
    // satisfying pair must have been discovered (both directions).
    let n = 120;
    let config = Config::builder(n).build().unwrap();
    let selector = HashSelector::from_config(&config);
    let trace = stat(n, 3 * HOUR, 0.0, 7);
    let mut sim = Simulation::new(trace, SimOptions::new(config).seed(7));
    let _ = sim.run();

    let ids: Vec<NodeId> = sim.alive().collect();
    let mut satisfying = 0u32;
    let mut discovered = 0u32;
    for &m in &ids {
        for &t in &ids {
            if m == t || !selector.is_monitor(m, t) {
                continue;
            }
            satisfying += 1;
            let monitor_knows = sim
                .node(m)
                .is_some_and(|node| node.target_set().any(|x| x == t));
            let target_knows = sim
                .node(t)
                .is_some_and(|node| node.pinging_set().any(|x| x == m));
            if monitor_knows && target_knows {
                discovered += 1;
            }
        }
    }
    assert!(satisfying > 0);
    let frac = f64::from(discovered) / f64::from(satisfying);
    assert!(
        frac > 0.98,
        "Theorem 1: {discovered}/{satisfying} satisfying pairs discovered ({frac:.3})"
    );
}

#[test]
fn theorem2_dead_node_leaves_all_views() {
    // One node dies early; its entries must drain from every coarse view
    // (expected rate: 1 view per period; w.h.p. gone in cvs·ln N periods).
    let n = 100;
    let config = Config::builder(n).build().unwrap();
    let cvs = config.cvs;
    let dead = NodeId::from_index(7);
    let mut events = Vec::new();
    for i in 0..n as u32 {
        events.push(ChurnEvent {
            at: 0,
            node: NodeId::from_index(i),
            kind: ChurnEventKind::Birth,
        });
    }
    events.push(ChurnEvent {
        at: 30 * MINUTE,
        node: dead,
        kind: ChurnEventKind::Death,
    });
    let gc_bound_periods = (cvs as f64 * (n as f64).ln()).ceil() as u64;
    let horizon = 30 * MINUTE + (gc_bound_periods + 30) * MINUTE;
    let trace = Trace::new("theorem2", n, horizon, 0, vec![], events);
    let mut sim = Simulation::new(trace, SimOptions::new(config).seed(8));
    let _ = sim.run();

    let still_referenced = sim
        .alive()
        .filter(|&id| sim.node(id).is_some_and(|node| node.view().contains(dead)))
        .count();
    assert_eq!(
        still_referenced, 0,
        "Theorem 2: dead node must vanish from all coarse views within \
         ~cvs·lnN = {gc_bound_periods} periods"
    );
}

#[test]
fn consistency_relationship_survives_churn_round_trips() {
    // Consistency: PS membership decided by the hash never changes, so a
    // node that leaves and rejoins keeps exactly the same monitors — and
    // its persistent availability history survives (no history transfer).
    let n = 80;
    let config = Config::builder(n).build().unwrap();
    let rejoiner = NodeId::from_index(5);
    let mut events = Vec::new();
    for i in 0..n as u32 {
        events.push(ChurnEvent {
            at: 0,
            node: NodeId::from_index(i),
            kind: ChurnEventKind::Birth,
        });
    }
    // Leave at 40 min, rejoin at 60 min.
    events.push(ChurnEvent {
        at: 40 * MINUTE,
        node: rejoiner,
        kind: ChurnEventKind::Leave,
    });
    events.push(ChurnEvent {
        at: 60 * MINUTE,
        node: rejoiner,
        kind: ChurnEventKind::Join,
    });
    let trace = Trace::new("rejoin", n, 2 * HOUR, 0, vec![], events);
    let mut sim = Simulation::new(trace, SimOptions::new(config.clone()).seed(9));

    sim.run_until(40 * MINUTE - 1);
    let ps_before: Vec<NodeId> = sim
        .node(rejoiner)
        .map(|node| node.pinging_set().collect())
        .unwrap_or_default();
    assert!(
        !ps_before.is_empty(),
        "monitors discovered before the leave"
    );

    let _ = sim.run();
    let ps_after: Vec<NodeId> = sim
        .node(rejoiner)
        .map(|node| node.pinging_set().collect())
        .unwrap_or_default();
    // Persistence: everything known before the leave is still known.
    for m in &ps_before {
        assert!(
            ps_after.contains(m),
            "monitor {m} lost across rejoin — persistent PS must survive churn"
        );
    }
    // And verifiability: every monitor satisfies the condition.
    let selector = HashSelector::from_config(&config);
    for m in &ps_after {
        assert!(selector.is_monitor(*m, rejoiner));
    }
}

#[test]
fn join_spread_reaches_cvs_nodes() {
    // §4.1: a fresh JOIN(cvs) reaches ≈cvs nodes (few duplicates) within
    // O(log cvs) periods — here checked as "within the first period".
    let n = 300;
    let config = Config::builder(n).build().unwrap();
    let cvs = config.cvs;
    let trace = stat(n, 30 * MINUTE, 0.05, 10);
    let mut sim = Simulation::new(trace.clone(), SimOptions::new(config).seed(10));
    // Any node may absorb a joiner's JOIN: listen to all of them.
    for id in trace.identities() {
        sim.subscribe_app(id);
    }
    sim.run_until(trace.measure_from + MINUTE);
    let mut absorbed = std::collections::HashMap::new();
    for (_, _, event) in sim.take_app_events() {
        if let avmon::AppEvent::JoinAbsorbed { origin } = event {
            *absorbed.entry(origin).or_insert(0u32) += 1;
        }
    }
    for joiner in &trace.control_group {
        let count = absorbed.get(joiner).copied().unwrap_or(0);
        assert!(
            count >= (cvs as u32) / 2,
            "join of {joiner} reached only {count} nodes, expected ≈ cvs = {cvs}"
        );
        // One JOIN(cvs) spreads to at most cvs nodes; the joiner may emit a
        // second JOIN if its first protocol period fires before the
        // init-view reply lands (the loss-recovery retry, which the paper's
        // reliable-network model does not need), so allow up to 2·cvs.
        assert!(
            count <= 2 * cvs as u32,
            "spread {count} cannot exceed the total transmitted JOIN weight"
        );
    }
}
