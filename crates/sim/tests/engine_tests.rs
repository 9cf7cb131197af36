//! End-to-end simulator tests on small overlays.

use avmon::{Behavior, Command, Config, DiscoveryMode, NodeId, MINUTE};
use avmon_churn::{stat, synthetic, SynthParams};
use avmon_sim::{metrics, Corruption, Scenario, SimOptions, Simulation};

fn small_config(n: usize) -> Config {
    Config::builder(n).build().unwrap()
}

/// Listens to every identity of the trace.
fn subscribe_all(sim: &mut Simulation) {
    for id in sim.trace().identities() {
        sim.subscribe_app(id);
    }
}

#[test]
fn stat_control_group_discovers_first_monitors_fast() {
    let trace = stat(100, 30 * MINUTE, 0.1, 11);
    let report = Simulation::new(trace, SimOptions::new(small_config(100))).run();
    // All 10 control nodes are tracked.
    assert_eq!(report.discovery.len(), 10);
    let latencies = report.discovery_latencies(1);
    assert!(
        latencies.len() >= 9,
        "at least 9/10 control nodes should discover a monitor, got {}",
        latencies.len()
    );
    // Paper Fig. 3: average discovery below ~1 protocol period. Allow 3.
    let avg = metrics::mean(&latencies.iter().map(|&l| l as f64).collect::<Vec<_>>());
    assert!(avg < 3.0 * MINUTE as f64, "avg discovery {avg} ms too slow");
}

#[test]
fn memory_entries_stay_near_expected_value() {
    let n = 100;
    let cfg = small_config(n); // K=7, cvs=13 → expected ≈ cvs + 2K = 27
    let trace = stat(n, 60 * MINUTE, 0.1, 5);
    let report = Simulation::new(trace, SimOptions::new(cfg.clone())).run();
    let mem = report.memory_entries();
    assert!(!mem.is_empty());
    let avg = metrics::mean(&mem);
    let expected = cfg.cvs as f64 + 2.0 * f64::from(cfg.k);
    assert!(
        avg < expected * 1.4 && avg > expected * 0.4,
        "avg memory {avg} far from expected {expected}"
    );
}

#[test]
fn computations_scale_as_two_cvs_squared() {
    let n = 100;
    let cfg = small_config(n);
    let cvs = cfg.cvs as f64;
    let trace = stat(n, 60 * MINUTE, 0.0, 6);
    let report = Simulation::new(trace, SimOptions::new(cfg)).run();
    let comps = report.comps_per_second();
    let avg_per_min = metrics::mean(&comps) * 60.0;
    // Fig. 7: per-minute overhead close to 2·cvs² (one check each way per
    // pair). The ±2 on each side accounts for {x,w} inflation.
    let expected = 2.0 * (cvs + 2.0) * (cvs + 2.0);
    assert!(
        avg_per_min > expected * 0.5 && avg_per_min < expected * 1.6,
        "comps/min {avg_per_min}, expected ≈ {expected}"
    );
}

#[test]
fn synth_churn_does_not_break_discovery() {
    let trace = synthetic(SynthParams::synth(100).duration(30 * MINUTE).seed(21));
    let report = Simulation::new(trace, SimOptions::new(small_config(100)).seed(21)).run();
    let latencies = report.discovery_latencies(1);
    // Control nodes may leave before discovering; most should succeed.
    assert!(
        latencies.len() * 10 >= report.discovery.len() * 7,
        "{} of {} discovered",
        latencies.len(),
        report.discovery.len()
    );
}

#[test]
fn broadcast_mode_discovers_in_one_round_trip() {
    let cfg = Config::builder(100)
        .discovery(DiscoveryMode::Broadcast)
        .build()
        .unwrap();
    let trace = stat(100, 10 * MINUTE, 0.1, 9);
    let report = Simulation::new(trace, SimOptions::new(cfg)).run();
    let latencies = report.discovery_latencies(1);
    assert!(!latencies.is_empty());
    // Presence flooding: discovery within a couple of network RTTs, far
    // below a protocol period.
    for &l in &latencies {
        assert!(l < 2_000, "broadcast discovery took {l} ms");
    }
    // … at O(N) bandwidth per join: totals dwarf the coarse-view variant.
    assert!(report.totals.messages_sent > 0);
}

#[test]
fn identical_seeds_give_identical_reports() {
    let trace = synthetic(SynthParams::synth(80).duration(20 * MINUTE).seed(33));
    let r1 = Simulation::new(trace.clone(), SimOptions::new(small_config(80)).seed(5)).run();
    let r2 = Simulation::new(trace.clone(), SimOptions::new(small_config(80)).seed(5)).run();
    assert_eq!(format!("{:?}", r1.totals), format!("{:?}", r2.totals));
    assert_eq!(r1.discovery, r2.discovery);
    let r3 = Simulation::new(trace, SimOptions::new(small_config(80)).seed(6)).run();
    assert_ne!(format!("{:?}", r1.totals), format!("{:?}", r3.totals));
}

#[test]
fn overreporting_monitors_inflate_estimates() {
    let n = 60;
    let trace = synthetic(SynthParams::synth(n).duration(40 * MINUTE).seed(44));
    // Make a third of the initial population overreport.
    let mut opts = SimOptions::new(small_config(n)).seed(44);
    for i in 0..(n as u32 / 3) {
        opts = opts.behavior(avmon::NodeId::from_index(i), Behavior::OverreportAll);
    }
    let report = Simulation::new(trace, opts).run();
    assert!(!report.availability.is_empty());
    // Estimated availabilities must never be below actual by much when a
    // misreporter is in the mix; crucially some estimates exceed actual.
    let inflated = report
        .availability
        .iter()
        .filter(|m| m.estimated > m.actual + 0.05)
        .count();
    assert!(inflated > 0, "overreporting should inflate some estimates");
}

#[test]
fn useless_pings_counted_for_departed_targets() {
    // Churned system without forgetful pinging: monitors keep pinging
    // departed targets, and those pings are counted.
    let cfg = Config::builder(60).forgetful(None).build().unwrap();
    let trace = synthetic(SynthParams::synth(60).duration(60 * MINUTE).seed(50));
    let report = Simulation::new(trace, SimOptions::new(cfg).seed(50)).run();
    let useless: f64 = metrics::mean(&report.useless_pings_per_minute());
    assert!(useless > 0.0, "churn must produce useless pings");
}

#[test]
fn report_and_history_requests_flow_through_sim() {
    let n = 80;
    let trace = stat(n, 30 * MINUTE, 0.0, 13);
    let mut sim = Simulation::new(trace, SimOptions::new(small_config(n)).seed(13));
    subscribe_all(&mut sim);
    sim.run_until(20 * MINUTE);
    let _ = sim.take_app_events(); // discard discovery chatter

    // Find a node with a non-empty pinging set.
    let target = sim
        .alive()
        .find(|&id| sim.node(id).is_some_and(|n| n.pinging_set_len() > 0))
        .expect("someone has monitors by now");
    let asker = sim.alive().find(|&id| id != target).unwrap();
    sim.command(asker, Command::RequestReport { target, count: 3 });
    sim.run_until(21 * MINUTE);
    let events = sim.take_app_events();
    let outcome = events.iter().find_map(|(_, node, e)| match e {
        avmon::AppEvent::ReportOutcome {
            target: t,
            verification,
        } if *node == asker => {
            assert_eq!(*t, target);
            Some(verification.clone())
        }
        _ => None,
    });
    let verification = outcome.expect("report outcome must arrive");
    assert!(verification.all_verified(), "honest reports verify");
    assert!(!verification.verified.is_empty());

    // Ask the first verified monitor for history.
    let monitor = verification.verified[0];
    sim.command(asker, Command::RequestHistory { monitor, target });
    sim.run_until(22 * MINUTE);
    let events = sim.take_app_events();
    assert!(events.iter().any(|(_, node, e)| {
        *node == asker
            && matches!(e, avmon::AppEvent::HistoryOutcome { monitor: m, target: t, .. }
                if *m == monitor && *t == target)
    }));
}

/// Regression: a subscription buffers a node's events, and an
/// unsubscribed node's events are dropped (not leaked) — a long run
/// nobody listens to must not accumulate an unbounded event buffer.
#[test]
fn app_events_buffered_when_on_dropped_when_off() {
    let n = 80;
    let trace = || stat(n, 60 * MINUTE, 0.1, 17);
    let opts = || SimOptions::new(small_config(n)).seed(17);

    // On: a busy hour of protocol activity surfaces plenty of events.
    let mut sim = Simulation::new(trace(), opts());
    subscribe_all(&mut sim);
    sim.run_until(30 * MINUTE);
    let first_half = sim.take_app_events();
    assert!(
        !first_half.is_empty(),
        "discovery chatter must be buffered for subscribed nodes"
    );
    // take_app_events drains: an immediate second take is empty.
    assert!(sim.take_app_events().is_empty());
    // The control group joins at the end of the warm-up hour; running to
    // the horizon produces fresh discovery events after the drain.
    let _ = sim.run();
    assert!(
        !sim.take_app_events().is_empty(),
        "buffering continues after a drain"
    );

    // One listener: only that node's events are kept, and none once its
    // subscription ends.
    let heard = first_half[0].1;
    let mut sim = Simulation::new(trace(), opts());
    sim.subscribe_app(heard);
    sim.run_until(30 * MINUTE);
    let events = sim.take_app_events();
    assert!(!events.is_empty() && events.iter().all(|(_, id, _)| *id == heard));
    sim.unsubscribe_app(heard);
    let _ = sim.run();
    assert!(
        sim.take_app_events().is_empty(),
        "unsubscribed, yet buffered"
    );

    // Off: the same long run buffers nothing at any point.
    let mut sim = Simulation::new(trace(), opts());
    sim.run_until(30 * MINUTE);
    assert!(
        sim.take_app_events().is_empty(),
        "events must be dropped, not accumulated, when nobody listens"
    );
    let _ = sim.run();
    assert!(
        sim.take_app_events().is_empty(),
        "no leak across the whole run"
    );
}

/// The always-on invariant checker's summary rides along in every report
/// and passes on a plain healthy run.
#[test]
fn default_run_reports_clean_invariants() {
    let trace = stat(60, 40 * MINUTE, 0.1, 19);
    let report = Simulation::new(trace, SimOptions::new(small_config(60)).seed(19)).run();
    assert!(report.invariants.enabled);
    assert!(report.invariants.checks > 0);
    assert!(
        report.invariants.passed(),
        "{:?}",
        report.invariants.violations
    );
}

#[test]
fn alive_count_tracks_trace() {
    let trace = synthetic(SynthParams::synth(100).duration(30 * MINUTE).seed(3));
    let expected = trace.alive_at(trace.horizon - 1);
    let mut sim = Simulation::new(trace, SimOptions::new(small_config(100)).seed(3));
    let report = sim.run();
    assert_eq!(report.alive_at_end, expected);
}

/// Identities are whatever `<IP, port>` pairs the trace names: nothing may
/// assume the dense 10/8 images of `NodeId::from_index`. Forty scattered
/// addresses, listed in an order that is sorted neither by identity nor by
/// time, run to the horizon and report in ascending `NodeId` order.
#[test]
fn arbitrary_identities_run_and_report_in_ascending_order() {
    let n = 40u32;
    let addr = |i: u32| {
        let (a, b) = (i * 37 % 223 + 1, i * 91 % 256);
        format!(
            "{a}.{b}.{}.{}:{}",
            i * 53 % 256,
            i * 29 % 256,
            1024 + i * 7919 % 60_000
        )
    };
    let mut text = format!("#avmon-trace SPARSE {n} {} {}\n", 50 * MINUTE, 10 * MINUTE);
    text += &format!("#control {} {}\n", addr(n), addr(n + 1));
    // The control pair joins at the start of the measurement window, one
    // node leaves and rejoins, one dies — all listed before the births.
    text += &format!(
        "{} birth {}\n{} birth {}\n",
        10 * MINUTE,
        addr(n + 1),
        10 * MINUTE,
        addr(n)
    );
    text += &format!(
        "{} join {}\n{} leave {}\n",
        30 * MINUTE,
        addr(3),
        20 * MINUTE,
        addr(3)
    );
    text += &format!("{} death {}\n", 25 * MINUTE, addr(7));
    for i in (0..n).rev() {
        text += &format!("0 birth {}\n", addr(i));
    }
    let trace = avmon_churn::io::from_text(&text).unwrap();
    let ids: Vec<NodeId> = trace.identities().into_iter().collect();
    assert_eq!(ids.len(), n as usize + 2);
    assert!(ids
        .iter()
        .all(|id| id.ip().octets()[0] != 10 || id.port() != 4000));

    let mut sim = Simulation::new(trace, SimOptions::new(small_config(n as usize)).seed(5));
    let report = sim.run();
    assert_eq!(sim.now(), 50 * MINUTE);
    assert_eq!(report.alive_at_end, n as usize + 1);
    assert_eq!(report.discovery.len(), 2, "both control nodes are logged");
    let measured: Vec<NodeId> = report.availability.iter().map(|m| m.node).collect();
    assert!(measured.len() >= n as usize, "{} rows", measured.len());
    assert!(measured.windows(2).all(|w| w[0] < w[1]), "{measured:?}");
    // Every identity was up inside the measurement window, so every one
    // has a series row, in identity order.
    assert_eq!(report.series.keys().copied().collect::<Vec<_>>(), ids);
}

/// Identities the trace never names are inert wherever they turn up — a
/// static behavior, a frozen or corrupted scenario node, every app-API
/// entry point — and so are commands to a known node that is down and
/// `Command::Stop` to anyone: no panic, and the report is the one the same
/// run produces without them (bar the declared corruption window itself,
/// which is scored as never proven because its node never comes up).
#[test]
fn unknown_identities_are_inert() {
    let n = 60;
    let trace = stat(n, 40 * MINUTE, 0.1, 29);
    let known: Vec<NodeId> = trace.identities().into_iter().collect();
    let ghost = NodeId::new([198, 51, 100, 7], 9);
    assert!(!known.contains(&ghost));
    let scenario = |with_ghost: bool| {
        let mut b = Scenario::builder("inert")
            .freeze(70 * MINUTE, 4 * MINUTE, known[1])
            .corrupt(80 * MINUTE, known[2], Corruption::Full, 3);
        if with_ghost {
            b = b.freeze(65 * MINUTE, 2 * MINUTE, ghost).corrupt(
                66 * MINUTE,
                ghost,
                Corruption::Full,
                4,
            );
        }
        b.build().unwrap()
    };
    let run = |with_ghost: bool| {
        let mut opts = SimOptions::new(small_config(n))
            .seed(29)
            .scenario(scenario(with_ghost));
        if with_ghost {
            opts = opts.behavior(ghost, Behavior::OverreportAll);
        }
        let mut sim = Simulation::new(trace.clone(), opts);
        // Before the control group's births: its nodes are known but down.
        sim.run_until(50 * MINUTE);
        if with_ghost {
            let unborn = trace.control_group[0];
            assert!(sim.node(ghost).is_none() && sim.node(unborn).is_none());
            sim.subscribe_app(ghost);
            for id in [ghost, unborn] {
                let (to, target, monitor) = (known[0], known[3], known[0]);
                let payload = vec![1, 2, 3];
                sim.command(id, Command::SendApp { to, payload });
                sim.command(id, Command::RequestReport { target, count: 3 });
                sim.command(id, Command::RequestHistory { monitor, target });
                sim.command(id, Command::Stop);
            }
            // `Stop` is a live driver's verb; a simulated node's lifetime
            // belongs to the trace.
            sim.command(known[0], Command::Stop);
            assert!(sim.node(known[0]).is_some());
            assert!(sim.take_app_events().is_empty());
        }
        sim.run()
    };
    let plain = run(false);
    let mut haunted = run(true);
    let window = haunted
        .qos
        .windows
        .iter()
        .position(|w| w.node == ghost)
        .expect("the declared window is scored");
    let window = haunted.qos.windows.remove(window);
    assert!(!window.proven && !window.failed);
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&haunted).unwrap()
    );
}

/// A subscribed node's events pause `run_until_event` at the instant they
/// are emitted, and a frozen node's deliveries and timers requeue until
/// the thaw instead of being processed or lost. The run covers the
/// bootstrap minutes, when every node is busy discovering.
#[test]
fn subscribed_node_pauses_the_run_and_frozen_node_requeues() {
    let n = 60;
    let trace = stat(n, 20 * MINUTE, 0.1, 31);
    let ids: Vec<NodeId> = trace.identities().into_iter().collect();
    let (frozen, subscribed) = (ids[4], ids[5]);
    let (from, until) = (2 * MINUTE, 5 * MINUTE);
    let scenario = Scenario::builder("freeze-and-listen")
        .freeze(from, until - from, frozen)
        .build()
        .unwrap();
    let opts = SimOptions::new(small_config(n)).seed(31).scenario(scenario);
    let mut sim = Simulation::new(trace, opts);
    sim.subscribe_app(subscribed);
    let received = |sim: &Simulation| sim.node(frozen).unwrap().stats().messages_received;
    let mut pauses = Vec::new();
    // What the frozen node has received as its window opens, as it
    // closes, and five minutes after the thaw.
    let mut checkpoints = Vec::new();
    for deadline in [from, until - 1, 10 * MINUTE] {
        while sim.run_until_event(deadline) {
            pauses.push((sim.now(), sim.take_app_events()));
        }
        checkpoints.push(received(&sim));
    }
    assert!(pauses.len() > 10, "only {} pauses", pauses.len());
    assert!(pauses
        .iter()
        .all(|(at, events)| events.iter().all(|(t, id, _)| t == at && *id == subscribed)));
    assert_eq!(
        checkpoints[0], checkpoints[1],
        "a frozen node processed a delivery"
    );
    assert!(
        checkpoints[2] > checkpoints[1],
        "the stalled deliveries never came back after the thaw"
    );
}

/// The clock never runs backwards: a deadline behind `now` runs nothing,
/// and the next forward run still pops in `(time, seq)` order.
#[test]
fn a_past_deadline_keeps_the_clock() {
    let n = 80;
    let trace = stat(n, 60 * MINUTE, 0.1, 17);
    let mut sim = Simulation::new(trace, SimOptions::new(small_config(n)).seed(17));
    subscribe_all(&mut sim);
    sim.run_until(2 * MINUTE);
    let _ = sim.take_app_events();
    sim.run_until(MINUTE);
    assert_eq!(sim.now(), 2 * MINUTE);
    assert!(!sim.run_until_event(MINUTE));
    assert_eq!(sim.now(), 2 * MINUTE);
    let horizon = sim.trace().horizon;
    let mut pauses = Vec::new();
    while sim.run_until_event(horizon) {
        let events = sim.take_app_events();
        assert!(events.iter().all(|(at, _, _)| *at == sim.now()));
        pauses.push(sim.now());
    }
    assert!(!pauses.is_empty(), "the forward run emitted no events");
    assert!(
        pauses.windows(2).all(|w| w[0] <= w[1]) && pauses[0] >= 2 * MINUTE,
        "events out of (time, seq) order: {pauses:?}"
    );
    assert_eq!(sim.now(), horizon);
}
