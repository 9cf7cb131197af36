//! Adversarial behaviour end-to-end: verifiability defeats selfish
//! advertising; collusion pollution matches §4.3; overreporting has the
//! bounded effect of Fig. 20; coalition eclipse campaigns and state
//! corruption are detected, scored, and provably recovered from.

use std::collections::BTreeSet;

use avmon::{verify_report, Behavior, Config, HashSelector, MonitorSelector, NodeId, MINUTE};
use avmon_app::Executor;
use avmon_churn::{stat, synthetic, ChurnEvent, ChurnEventKind, SynthParams, Trace};
use avmon_sim::{Corruption, InvariantViolation, Scenario, SimOptions, Simulation};

/// A churn-free population: `n` births at t = 0, nothing else. Keeps the
/// adversary-window outcomes deterministic — no node can be down at its
/// recovery deadline.
fn cohort(n: u32, horizon: avmon::TimeMs, measure_from: avmon::TimeMs) -> Trace {
    let events: Vec<ChurnEvent> = (0..n)
        .map(|i| ChurnEvent {
            at: 0,
            node: NodeId::from_index(i),
            kind: ChurnEventKind::Birth,
        })
        .collect();
    Trace::new(
        "ADVCOHORT",
        n as usize,
        horizon,
        measure_from,
        vec![],
        events,
    )
}

#[test]
fn selfish_advertiser_cannot_fake_monitors_end_to_end() {
    let n = 150;
    let config = Config::builder(n).build().unwrap();
    let selector = HashSelector::from_config(&config);
    let trace = stat(n, 30 * MINUTE, 0.0, 3);
    let liar = NodeId::from_index(10);
    // The liar advertises "friends" that are NOT its monitors.
    let fakes: Vec<NodeId> = (0..n as u32)
        .map(NodeId::from_index)
        .filter(|&m| m != liar && !selector.is_monitor(m, liar))
        .take(3)
        .collect();
    assert_eq!(fakes.len(), 3);
    let opts = SimOptions::new(config).seed(3).behavior(
        liar,
        Behavior::SelfishAdvertiser {
            fake_monitors: fakes.clone(),
        },
    );
    let mut exec = Executor::new(Simulation::new(trace, opts), 3);
    exec.run_until(20 * MINUTE);

    let asker = exec
        .world(|sim| sim.alive().find(|&id| id != liar))
        .expect("someone else is up");
    let outcome = avmon_tests::query_once(&mut exec, asker, liar, 3, 21 * MINUTE)
        .expect("the query completes");
    assert!(outcome.target_lied());
    assert!(outcome.verified.is_empty(), "no fake monitor may verify");
    assert_eq!(outcome.rejected, fakes, "all lies detected by re-hashing");
    assert_eq!(outcome.availability, None, "nothing to ask, nothing learnt");
}

#[test]
fn collusion_pollution_probability_is_small() {
    // §4.3: with K = O(log N) and C colluders, P(PS polluted) ≈ CK/N.
    let n = 2000usize;
    let config = Config::builder(n).build().unwrap();
    let selector = HashSelector::from_config(&config);
    let c = 10u32;
    let mut polluted = 0u32;
    let trials = 500u32;
    for t in 0..trials {
        let x = NodeId::from_index(t % n as u32);
        let colluders: Vec<NodeId> = (0..c)
            .map(|j| NodeId::from_index((t * 37 + j * 211 + 1) % n as u32))
            .filter(|&m| m != x)
            .collect();
        if colluders.iter().any(|&m| selector.is_monitor(m, x)) {
            polluted += 1;
        }
    }
    let empirical = f64::from(polluted) / f64::from(trials);
    let analytic = 1.0 - avmon_analysis::prob_collusion_free(c, config.k, n);
    assert!(
        (empirical - analytic).abs() < 0.05,
        "pollution {empirical:.3} vs analytic {analytic:.3}"
    );
    assert!(empirical < 0.15, "pollution stays improbable");
}

#[test]
fn overreporting_fraction_has_bounded_effect() {
    // Fig. 20: with 20% of nodes overreporting, only a few percent of
    // nodes see their measured availability off by > 0.2 — because PS
    // averaging dilutes the single liar among ≈K honest monitors.
    let n = 300;
    let trace = synthetic(SynthParams::synth(n).duration(3 * avmon::HOUR).seed(6));
    let config = Config::builder(n).build().unwrap();
    let mut opts = SimOptions::new(config).seed(6);
    let ids: Vec<NodeId> = trace.identities().into_iter().collect();
    for id in ids.iter().step_by(5) {
        opts = opts.behavior(*id, Behavior::OverreportAll);
    }
    let report = Simulation::new(trace, opts).run();
    let measured: Vec<_> = report
        .availability
        .iter()
        .filter(|m| m.monitors >= 2)
        .collect();
    assert!(!measured.is_empty());
    let affected = measured
        .iter()
        .filter(|m| (m.estimated - m.actual).abs() > 0.2)
        .count();
    let frac = affected as f64 / measured.len() as f64;
    assert!(
        frac < 0.20,
        "affected fraction {frac:.3}, paper's worst case is 3.5%"
    );
}

/// The coalition-eclipse scenario end to end: the campaign is *detected*
/// (checker violations inside the declared window, stamped as the
/// detection time), *scored* (eclipse-resistance in [`avmon_sim::FdQos`]),
/// and *recovered from* (every coalition member's re-convergence is proven
/// before its derived deadline).
#[test]
fn coalition_eclipse_is_detected_scored_and_recovered_from() {
    let n = 120u32;
    let config = Config::builder(n as usize).build().unwrap();
    let selector = HashSelector::from_config(&config);
    let victim = NodeId::from_index(7);
    // Coalition members the hash condition never selected as the victim's
    // monitors: every forged TS entry is a guaranteed GhostTarget
    // violation, and the victim's receiver-side NOTIFY re-verification
    // rejects the whole flood — the campaign *measures* resistance.
    let coalition: Vec<NodeId> = (0..n)
        .map(NodeId::from_index)
        .filter(|&c| c != victim && !selector.is_monitor(c, victim))
        .take(3)
        .collect();
    assert_eq!(coalition.len(), 3);
    let scenario = Scenario::builder("eclipse-e2e")
        .eclipse(30 * MINUTE, 10 * MINUTE, coalition.clone(), vec![victim])
        .build()
        .unwrap();
    let trace = cohort(n, 90 * MINUTE, 10 * MINUTE);
    let report = Simulation::new(trace, SimOptions::new(config).seed(11).scenario(scenario)).run();
    assert!(
        report.invariants.passed(),
        "a declared campaign must never be a hard violation: {:?}",
        report.invariants.violations
    );
    assert!(
        report
            .invariants
            .expected_violations
            .iter()
            .any(|v| matches!(
                v.violation,
                InvariantViolation::GhostTarget { node, .. } if coalition.contains(&node)
            )),
        "the forged coalition state went undetected: {:?}",
        report.invariants.expected_violations
    );
    let windows = &report.qos.windows;
    assert_eq!(windows.len(), coalition.len(), "one window per member");
    for w in windows {
        assert!(coalition.contains(&w.node));
        assert!(
            w.detected_after_ms.is_some(),
            "campaign undetected for {}",
            w.node
        );
        assert!(w.proven, "re-convergence unproven for {}", w.node);
        assert!(!w.failed);
    }
    assert_eq!(report.qos.eclipse.len(), 1);
    let score = &report.qos.eclipse[0];
    assert_eq!(score.victim, victim);
    assert_eq!(
        score.captured, 0,
        "re-verification must reject every forged NOTIFY"
    );
    assert!(score.slots > 0, "the victim has real monitors to defend");
    assert!((score.resistance() - 1.0).abs() < 1e-12);
}

/// `Fault::Corrupt` recovery, proven on a fault-free base network: the
/// seeded garbage is detected inside the declared window (expected,
/// scored), the node purges it, and the checker certifies re-convergence
/// before the derived deadline — any violation past the deadline would be
/// a hard [`InvariantViolation::StabilizationFailure`].
#[test]
fn corruption_recovery_is_proven() {
    let n = 80u32;
    let config = Config::builder(n as usize).build().unwrap();
    let node = NodeId::from_index(5);
    let scenario = Scenario::builder("corrupt-recovery")
        .corrupt(30 * MINUTE, node, Corruption::Full, 0xfeed)
        .build()
        .unwrap();
    let trace = cohort(n, 80 * MINUTE, 10 * MINUTE);
    let report = Simulation::new(trace, SimOptions::new(config).seed(7).scenario(scenario)).run();
    assert!(
        report.invariants.passed(),
        "{:?}",
        report.invariants.violations
    );
    assert!(
        !report.invariants.expected_violations.is_empty(),
        "the injected garbage went undetected"
    );
    assert_eq!(report.qos.windows.len(), 1);
    let w = &report.qos.windows[0];
    assert_eq!(w.node, node);
    assert!(w.detected_after_ms.is_some(), "corruption undetected");
    assert!(w.proven && !w.failed, "re-convergence unproven: {w:?}");
}

/// The symmetric-collusion regression: [`Behavior::Colluding`] declares
/// friendship one-sidedly, and the simulator re-verifies the pair wherever
/// it scores reports. An asymmetric "coalition" (A lists its targets, the
/// targets don't list A) therefore inflates *nothing* — its report is
/// byte-identical to the all-honest run — while the mutual coalition
/// actually moves the estimates.
#[test]
fn asymmetric_collusion_inflates_nothing() {
    let n = 100usize;
    let config = Config::builder(n).build().unwrap();
    let selector = HashSelector::from_config(&config);
    let a = NodeId::from_index(0);
    let friends: BTreeSet<NodeId> = (1..n as u32)
        .map(NodeId::from_index)
        .filter(|&t| selector.is_monitor(a, t))
        .collect();
    assert!(!friends.is_empty(), "node 0 monitors nobody at n = 100");
    let trace = stat(n, 40 * MINUTE, 0.1, 4);
    let run = |behaviors: Vec<(NodeId, Behavior)>| {
        let mut opts = SimOptions::new(config.clone()).seed(4);
        // Lossy links keep honest estimates below 1.0, so an inflated
        // report is visible in the serialized bytes.
        opts.network.faults.loss = 0.2;
        for (id, b) in behaviors {
            opts = opts.behavior(id, b);
        }
        serde_json::to_string(&Simulation::new(trace.clone(), opts).run()).unwrap()
    };
    let honest = run(vec![]);
    let asym = run(vec![(
        a,
        Behavior::Colluding {
            friends: friends.clone(),
        },
    )]);
    assert_eq!(
        honest, asym,
        "a one-sided coalition must be re-verified away entirely"
    );
    let sym = run(friends
        .iter()
        .map(|&f| {
            (
                f,
                Behavior::Colluding {
                    friends: BTreeSet::from([a]),
                },
            )
        })
        .chain([(
            a,
            Behavior::Colluding {
                friends: friends.clone(),
            },
        )])
        .collect());
    assert_ne!(honest, sym, "the mutual coalition must actually inflate");
}

#[test]
fn colluding_friends_only_inflate_their_friends() {
    let a = NodeId::from_index(1);
    let b = NodeId::from_index(2);
    let behavior = Behavior::Colluding {
        friends: BTreeSet::from([a]),
    };
    assert!(behavior.misreports(a));
    assert!(!behavior.misreports(b));
}

#[test]
fn verify_report_is_sound_and_complete() {
    let config = Config::builder(500).build().unwrap();
    let selector = HashSelector::from_config(&config);
    let target = NodeId::from_index(123);
    let all: Vec<NodeId> = (0..500).map(NodeId::from_index).collect();
    let true_monitors: Vec<NodeId> = all
        .iter()
        .copied()
        .filter(|&m| m != target && selector.is_monitor(m, target))
        .collect();
    let outcome = verify_report(&selector, target, &true_monitors);
    assert!(
        outcome.all_verified(),
        "complete: every true monitor verifies"
    );
    let non_monitors: Vec<NodeId> = all
        .iter()
        .copied()
        .filter(|&m| m != target && !selector.is_monitor(m, target))
        .take(10)
        .collect();
    let outcome = verify_report(&selector, target, &non_monitors);
    assert!(
        outcome.verified.is_empty(),
        "sound: no non-monitor verifies"
    );
}
