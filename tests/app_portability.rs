//! The application portability contract: async app code written against
//! [`avmon_app::AvmonHandle`] is **byte-deterministic** on an executor
//! over a simulation or a virtual-time hub (same seed → identical
//! serialized decision logs), and **portable** across worlds: the same
//! task source makes the same observable decisions on the runtime's
//! driver code as in the simulator, and queries real UDP nodes.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

use avmon::{AppEvent, Config, HashSelector, MonitorSelector, NodeId, TimeMs, MINUTE};
use avmon_app::{
    apps::{echo_listener, query_availability, watchdog_selector},
    AvmonHandle, Decision, DecisionLog, Executor,
};
use avmon_churn::{stat, ChurnEvent, ChurnEventKind, Trace};
use avmon_runtime::{Cluster, VirtualHub};
use avmon_sim::{LatencyModel, RngLedger, SimOptions, Simulation};

/// One sim run with the example app attached to the first four nodes and
/// the §3.3 client asking from a fifth, ten minutes before the end, about
/// a sixth: returns the serialized decision log followed by the query's
/// outcome, the serialized report, and the RNG ledger.
fn sim_app_run(seed: u64) -> (String, String, RngLedger) {
    let n = 40;
    let trace = stat(n, 20 * MINUTE, 0.2, seed);
    let ids: Vec<NodeId> = trace.identities().into_iter().collect();
    let opts = SimOptions::new(Config::builder(n).build().unwrap()).seed(seed);
    let mut exec = Executor::new(Simulation::new(trace, opts), seed);
    for &id in &ids[..4] {
        exec.spawn(id, |h| watchdog_selector(h, 2 * MINUTE, 3));
    }
    let outcome = Rc::new(RefCell::new(None));
    let slot = Rc::clone(&outcome);
    let target = ids[5];
    exec.spawn(ids[4], move |h| async move {
        h.sleep(70 * MINUTE).await;
        *slot.borrow_mut() = Some(query_availability(&h, target, 3).await);
    });
    exec.run();
    let (report, log) = exec.into_report();
    let ledger = report.invariants.rng_ledger;
    let log = log.to_json().expect("decision logs serialize");
    (
        format!("{log}\n{:?}", outcome.take()),
        serde_json::to_string(&report).expect("reports serialize"),
        ledger,
    )
}

/// The sim half of the headline claim: same seed → byte-identical
/// decision logs AND byte-identical full reports, with the `app` RNG
/// stream recorded (nonzero) and identical in both ledgers.
#[test]
fn sim_app_runs_are_byte_identical_per_seed() {
    let mut logs = Vec::new();
    for seed in [7, 21] {
        let (log, report, ledger) = sim_app_run(seed);
        assert!(
            ledger.app_draws > 0,
            "the app stream never drew (seed {seed})"
        );
        assert!(
            log.contains("Select"),
            "the app never decided anything (seed {seed})"
        );
        assert!(
            log.contains("availability: Some"),
            "the query learnt nothing (seed {seed}): {log}"
        );
        let (log_b, report_b, ledger_b) = sim_app_run(seed);
        assert_eq!(log, log_b, "same-seed replay diverged (seed {seed})");
        assert_eq!(report, report_b);
        assert_eq!(ledger, ledger_b);
        logs.push(log);
    }
    // Different seeds genuinely differ (the determinism is not vacuous).
    assert_ne!(
        logs[0], logs[1],
        "different seeds produced identical decision logs"
    );
}

/// App messaging round-trips through the sim overlay: a task on `a`
/// sends an opaque payload to `b`, whose `echo_listener` echoes it back;
/// `a` awaits the echo. Both ends surface as [`AppEvent::AppData`] at
/// exact emission instants.
#[test]
fn app_data_round_trips_through_the_sim_overlay() {
    let n = 20;
    let seed = 11;
    let trace = stat(n, 10 * MINUTE, 0.0, seed);
    let ids: Vec<NodeId> = trace.identities().into_iter().collect();
    let (a, b) = (ids[0], ids[1]);
    let opts = SimOptions::new(Config::builder(n).build().unwrap()).seed(seed);
    let mut exec = Executor::new(Simulation::new(trace, opts), seed);
    exec.spawn(a, move |h| async move {
        h.sleep(MINUTE).await; // let the overlay settle
        h.send_app(b, vec![0xde, 0xad, 0xbe, 0xef]);
        loop {
            let (at, event) = h.next_event().await;
            if let AppEvent::AppData { from, payload } = event {
                assert_eq!(from, b, "echo must come from the listener");
                assert_eq!(payload, vec![0xde, 0xad, 0xbe, 0xef]);
                // Receipt marker the assertions below can see.
                h.record(Decision::Alarm {
                    at,
                    node: h.id(),
                    target: from,
                });
                return;
            }
        }
    });
    exec.spawn(b, echo_listener);
    exec.run_until(5 * MINUTE);
    let (report, log) = exec.into_report();
    assert_eq!(
        log.alarm_targets(a),
        vec![b],
        "the echo never made it back to the sender: {log:?}"
    );
    assert_eq!(
        log.final_selection(b),
        Some(&[a][..]),
        "the listener never recorded the receipt"
    );
    // No task drew randomness here — the ledger must say exactly that.
    assert_eq!(report.invariants.rng_ledger.app_draws, 0);
    assert!(report.invariants.passed(), "{:?}", report.invariants);
}

/// The quickstart's step 6, as the binary runs it (STAT N = 200, seed 7,
/// three monitors of the first control node, asked five minutes before
/// the end): the query must come back with verified monitors and a
/// figure. The helper it replaced ran after the horizon with nobody
/// listening and never printed a thing.
#[test]
fn quickstart_scenario_yields_a_verified_availability() {
    let n = 200;
    let trace = stat(n, 30 * MINUTE, 0.1, 7);
    let target = trace.control_group[0];
    let asker = trace.identities().into_iter().next().unwrap();
    let (ask_at, horizon) = (trace.horizon - 5 * MINUTE, trace.horizon);
    let opts = SimOptions::new(Config::builder(n).build().unwrap()).seed(7);
    let mut exec = Executor::new(Simulation::new(trace, opts), 7);
    exec.run_until(ask_at);
    let outcome = avmon_tests::query_once(&mut exec, asker, target, 3, horizon)
        .expect("the query finishes inside the run");
    assert!(outcome.availability.is_some(), "{outcome:?}");
    assert!(!outcome.verified.is_empty() && !outcome.target_lied());
}

fn fast_config(n: usize) -> Config {
    Config::builder(n)
        .k((2 * n / 3) as u32)
        .protocol_period(150)
        .monitoring_period(150)
        .ping_timeout(60)
        .build()
        .unwrap()
}

/// A live UDP cluster in which every node has a monitor and a target.
///
/// The monitor relation is a pure function of the identities, and an
/// `n`-node cluster draws `n` ephemeral ports — at `n` = 3 a triple where
/// some node has no monitor or no target (so discovery can never complete
/// and a query could come back empty) comes up with probability ≈ 1/3.
/// Respawn until the drawn ports give everyone both.
fn covered_udp_cluster(config: &Config, n: usize, seed: u64) -> Cluster {
    let selector = HashSelector::from_config(config);
    let cluster = (0..50)
        .find_map(|_| {
            let cluster = Cluster::builder(config.clone(), n)
                .seed(seed)
                .spawn()
                .expect("cluster spawns");
            let ids = cluster.ids().to_vec();
            let covered = ids.iter().all(|&s| {
                ids.iter().any(|&m| m != s && selector.is_monitor(m, s))
                    && ids.iter().any(|&t| t != s && selector.is_monitor(s, t))
            });
            if covered {
                Some(cluster)
            } else {
                cluster.shutdown();
                None
            }
        })
        .expect("covered ports within 50 draws");
    assert!(
        cluster.wait_for_discovery(1, Duration::from_secs(45)),
        "discovery stalled"
    );
    cluster
}

/// Distills the timing-robust observables from a decision log: for each
/// surviving node, the membership of its final selection, whether the
/// victim leads it (least-available first), and whether the node ever
/// alarmed on the victim.
fn observables(
    log: &DecisionLog,
    survivors: &[NodeId],
    victim: NodeId,
) -> Vec<(NodeId, BTreeSet<NodeId>, bool, bool)> {
    survivors
        .iter()
        .map(|&s| {
            let chosen = log.final_selection(s).unwrap_or(&[]);
            (
                s,
                chosen.iter().copied().collect(),
                chosen.first() == Some(&victim),
                log.alarm_targets(s).contains(&victim),
            )
        })
        .collect()
}

/// `(when, snapshot present?)` samples of one node, taken by a task on it.
type Probe = Rc<RefCell<Vec<(TimeMs, bool)>>>;

/// Samples whether the handle's node shows a snapshot, every 100 ms.
async fn snapshot_probe(h: AvmonHandle, samples: Probe) {
    loop {
        h.sleep(100).await;
        samples.borrow_mut().push((h.now(), h.snapshot().is_some()));
    }
}

/// Once the victim is down its handle shows no snapshot, so its
/// watchdog, which selects from the snapshot, goes quiet.
fn assert_victim_silent_after(
    killed_at: TimeMs,
    victim: NodeId,
    log: &DecisionLog,
    probe: &Probe,
    world: &str,
) {
    let late = log.decisions.iter().find(
        |d| matches!(d, Decision::Select { at, node, .. } if *node == victim && *at > killed_at),
    );
    assert_eq!(late, None, "{world}: the dead victim selected");
    let probe = probe.borrow();
    let after: Vec<_> = probe.iter().filter(|(at, _)| *at > killed_at).collect();
    assert!(
        !after.is_empty() && after.iter().all(|(_, present)| !present),
        "{world}: a snapshot of the dead victim after {killed_at}: {after:?}"
    );
}

/// The app's decision period, in both worlds of the differential.
const PERIOD: TimeMs = 300;
/// The watchdog's selection size, in both worlds of the differential.
const K: usize = 2;

/// One run of the watchdog app on a hub of `n` nodes, from virtual time
/// 0: with `victim`, that node is killed at `kill_at`. Returns the
/// decision log and the victim's snapshot probe.
fn hub_app_run(n: usize, seed: u64, victim: Option<(NodeId, TimeMs)>) -> (DecisionLog, Probe) {
    let hub = VirtualHub::new(fast_config(n), n, seed, 0.0).expect("a valid hub");
    let ids = hub.ids().to_vec();
    let mut exec = Executor::new(hub, seed);
    for &id in &ids {
        exec.spawn(id, |h| watchdog_selector(h, PERIOD, K));
    }
    let probe = Probe::default();
    if let Some((victim, kill_at)) = victim {
        exec.spawn(victim, |h| snapshot_probe(h, Rc::clone(&probe)));
        exec.run_until(kill_at);
        exec.world_mut(|hub| hub.kill(victim));
    }
    exec.run_until(5_000);
    (exec.into_parts().1, probe)
}

/// The differential: the *same* `watchdog_selector` source drives the
/// runtime's driver code — codec, timer queue, 3 nodes on a
/// [`VirtualHub`] — and a simulation replaying the same membership trace
/// over the same identities. A node is killed at 2 s, and the observable
/// decisions (final selection membership per survivor,
/// victim-least-available ordering, victim alarms) match. In both worlds
/// the victim's own handle goes dark at the kill.
#[test]
fn virtual_hub_matches_sim_on_the_same_trace() {
    let n = 3;
    let seed = 5;
    let killed_at = 2_000;
    let ids: Vec<NodeId> = (0..n as u32).map(NodeId::from_index).collect();
    let victim = ids[n - 1];
    let survivors: Vec<NodeId> = ids[..n - 1].to_vec();

    let (hub_log, hub_probe) = hub_app_run(n, seed, Some((victim, killed_at)));
    assert_victim_silent_after(killed_at, victim, &hub_log, &hub_probe, "hub");

    // Sim run: replay the same membership trace — the same identities,
    // everyone up from t=0, the victim leaving at the same instant — with
    // the same config, app source, and app parameters.
    let events: Vec<ChurnEvent> = ids
        .iter()
        .map(|&node| ChurnEvent {
            at: 0,
            node,
            kind: ChurnEventKind::Birth,
        })
        .chain(std::iter::once(ChurnEvent {
            at: killed_at,
            node: victim,
            kind: ChurnEventKind::Leave,
        }))
        .collect();
    let trace = Trace::new("hub-replay", n, 5_000, 0, Vec::new(), events);
    // The hub delivers every datagram 1 ms after it was sent; replay it
    // over a link model to match, not the default WAN latency (whose
    // 40-200 ms RTTs would starve a 60 ms ping timeout).
    let mut opts = SimOptions::new(fast_config(n)).seed(seed);
    opts.network.latency = LatencyModel::Constant(1);
    let sim = Simulation::new(trace, opts);
    let mut exec = Executor::new(sim, seed);
    for &id in &ids {
        exec.spawn(id, |h| watchdog_selector(h, PERIOD, K));
    }
    let sim_probe = Probe::default();
    exec.spawn(victim, |h| snapshot_probe(h, Rc::clone(&sim_probe)));
    exec.run();
    let (_, sim_log) = exec.into_report();
    assert_victim_silent_after(killed_at, victim, &sim_log, &sim_probe, "sim");

    let hub = observables(&hub_log, &survivors, victim);
    let sim = observables(&sim_log, &survivors, victim);
    assert_eq!(
        hub, sim,
        "hub and sim runs of the same app source disagree on the \
         observable decisions\nhub log: {hub_log:?}\nsim log: {sim_log:?}"
    );
    // And the differential is not vacuously empty: every survivor decided.
    for (s, chosen, _, _) in &sim {
        assert!(
            !chosen.is_empty(),
            "survivor {s} never selected anything: {sim_log:?}"
        );
    }
}

/// On the hub an app run is a function of its seed: the same seed gives
/// byte-identical decision logs, and another seed a different one.
#[test]
fn hub_app_runs_are_byte_identical_per_seed() {
    let run = |seed| {
        let (log, _) = hub_app_run(6, seed, None);
        log.to_json().expect("decision logs serialize")
    };
    let (a, b) = (run(5), run(5));
    assert!(a.contains("Select"), "the app never decided anything: {a}");
    assert_eq!(a, b, "same-seed hub runs diverged");
    assert_ne!(
        a,
        run(6),
        "different seeds produced identical decision logs"
    );
}

/// The §3.3 client on real sockets: the same `query_availability` source
/// asks a live UDP node for its monitors and gets back only claims that
/// satisfy the hash condition, with a measured figure behind them.
#[test]
fn live_udp_query_verifies_monitors_by_the_hash_condition() {
    let n = 3;
    let config = fast_config(n);
    let selector = HashSelector::from_config(&config);
    let cluster = covered_udp_cluster(&config, n, 5);
    let (asker, target) = (cluster.ids()[0], cluster.ids()[1]);
    let mut exec = Executor::new(cluster, 5);
    let outcome = Rc::new(RefCell::new(None));
    let slot = Rc::clone(&outcome);
    exec.spawn(asker, move |h| async move {
        h.sleep(1_000).await; // a few monitoring periods of history first
        *slot.borrow_mut() = Some(query_availability(&h, target, u8::MAX).await);
    });
    let end = exec.world(Cluster::now) + 3_000;
    exec.run_until(end);
    let (cluster, _) = exec.into_parts();
    cluster.shutdown();

    let outcome = outcome.take().expect("the query finishes in time");
    assert!(!outcome.target_lied(), "{outcome:?}");
    assert!(!outcome.verified.is_empty(), "{outcome:?}");
    for &m in &outcome.verified {
        assert!(selector.is_monitor(m, target), "{m} verified for {target}");
    }
    assert!(outcome.availability.is_some(), "{outcome:?}");
}
