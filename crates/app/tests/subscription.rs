//! A node is subscribed to the engine's event feed while it has an
//! unfinished task, and no longer (ROADMAP 6(c)).

use avmon::{Config, NodeId, TimeMs, MINUTE};
use avmon_app::Executor;
use avmon_churn::{ChurnEvent, ChurnEventKind, Trace};
use avmon_sim::{SimOptions, Simulation};

const N: u32 = 64;
const SEED: u64 = 9;
const END: TimeMs = 10 * MINUTE;

/// `N` nodes born at t = 0; half of them leave one by one between minutes
/// 3 and 8, so their monitors keep having something to report.
fn trace() -> Trace {
    let births = (0..N).map(|i| ChurnEvent {
        at: 0,
        node: NodeId::from_index(i),
        kind: ChurnEventKind::Birth,
    });
    let leaves = (1..=N / 2).map(|i| ChurnEvent {
        at: 3 * MINUTE + TimeMs::from(i) * 5 * MINUTE / TimeMs::from(N / 2),
        node: NodeId::from_index(i),
        kind: ChurnEventKind::Leave,
    });
    let events = births.chain(leaves).collect();
    Trace::new("SUBSCRIPTION", N as usize, END, 0, Vec::new(), events)
}

/// Ten minutes of that overlay with one task on `node` that returns at
/// minute 2 — or, with `stay`, hangs on instead. The executor runs the
/// first two minutes; the rest is driven by hand to count the pauses.
/// Returns them and the serialized report.
fn run(node: NodeId, stay: bool) -> (usize, String) {
    let opts = SimOptions::new(Config::builder(N as usize).k(16).build().unwrap()).seed(SEED);
    let trace = trace();
    let mut exec = Executor::new(Simulation::new(trace, opts), SEED);
    exec.spawn(node, move |h| async move {
        h.sleep(2 * MINUTE).await;
        if stay {
            h.sleep(TimeMs::MAX).await;
        }
    });
    exec.run_until(2 * MINUTE);
    let (mut sim, _) = exec.into_parts();
    let mut pauses = 0;
    while sim.run_until_event(END) {
        assert!(sim.take_app_events().iter().all(|&(_, id, _)| id == node));
        pauses += 1;
    }
    assert!(sim.take_app_events().is_empty());
    (pauses, serde_json::to_string(&sim.run()).unwrap())
}

#[test]
fn a_finished_tasks_node_no_longer_pauses_the_run_or_buffers_events() {
    let node = NodeId::from_index(0);
    // Left subscribed, the node has plenty to say in minutes 2 to 10 ...
    let (pauses_subscribed, report_subscribed) = run(node, true);
    assert!(pauses_subscribed > 3, "only {pauses_subscribed} pauses");
    // ... and once its only task has returned, none of it stops the
    // engine or is kept for a reader that no longer exists.
    let (pauses, report) = run(node, false);
    assert_eq!(pauses, 0);
    // Who listens changes no report byte.
    assert_eq!(report, report_subscribed);
}
