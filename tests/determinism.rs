//! Reproducibility: a simulation is a pure function of `(trace, options)`.

use avmon::{AppEvent, Behavior, Config, NodeId, MINUTE};
use avmon_churn::{overnet_like, stat, synthetic, SynthParams};
use avmon_sim::{Corruption, InvariantViolation, LinkFaults, Scenario, SimOptions, Simulation};

#[test]
fn same_seed_same_everything() {
    let trace = synthetic(
        SynthParams::synth_bd(120)
            .duration(40 * avmon::MINUTE)
            .seed(77),
    );
    let config = Config::builder(120).build().unwrap();
    let run = || Simulation::new(trace.clone(), SimOptions::new(config.clone()).seed(5)).run();
    let (a, b) = (run(), run());
    assert_eq!(a.discovery, b.discovery);
    assert_eq!(a.series, b.series);
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.alive_at_end, b.alive_at_end);
    assert_eq!(a.availability.len(), b.availability.len());
    for (ma, mb) in a.availability.iter().zip(&b.availability) {
        assert_eq!(ma.node, mb.node);
        assert_eq!(ma.estimated, mb.estimated);
    }
}

/// The poll-based engine is bit-reproducible: two runs of the same
/// `(trace, options)` produce *serialization-identical* reports — every
/// counter, series, float estimate and discovery timestamp, byte for byte.
///
/// Scope: this pins run-to-run reproducibility of the current engine, not
/// equivalence with the pre-redesign engine (which never built in this
/// environment, so no golden baseline from it exists). A nondeterministic
/// drain loop — e.g. iterating a hash map while scheduling — fails here; a
/// deterministic behavior change does not, and is instead covered by the
/// protocol-level assertions in `tests/discovery.rs` / `tests/theorems.rs`.
#[test]
fn same_seed_bit_identical_report() {
    let trace = synthetic(
        SynthParams::synth(100)
            .duration(30 * avmon::MINUTE)
            .seed(41),
    );
    let config = Config::builder(100).build().unwrap();
    let run = || {
        let report = Simulation::new(trace.clone(), SimOptions::new(config.clone()).seed(9)).run();
        serde_json::to_string(&report).expect("reports serialize")
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed must serialize to byte-identical reports");
    assert!(a.len() > 100, "the report actually carries data");
}

#[test]
fn different_sim_seed_changes_dynamics_not_relationships() {
    let trace = overnet_like(2 * avmon::HOUR, 9);
    let config = Config::builder(550).k(9).cvs(19).build().unwrap();
    let a = Simulation::new(trace.clone(), SimOptions::new(config.clone()).seed(1)).run();
    let b = Simulation::new(trace, SimOptions::new(config).seed(2)).run();
    // Dynamics differ…
    assert_ne!(a.totals, b.totals);
    // …but the monitoring relationship is seed-independent (consistency):
    // any monitor discovered in both runs agrees on direction. Spot-check
    // via discovery logs: the sets of *who monitors whom* may be partially
    // discovered, but never contradictory — verified implicitly because
    // every acceptance re-checks the hash condition. Here we check the
    // reports only share the same universe.
    assert_eq!(a.n, b.n);
    assert_eq!(a.k, b.k);
}

#[test]
fn trace_generation_is_referentially_transparent() {
    let p = SynthParams::synth(200).duration(avmon::HOUR).seed(31);
    assert_eq!(synthetic(p), synthetic(p));
}

/// Fault injection preserves bit-reproducibility: the same seed with the
/// same loss + partition scenario serializes to byte-identical reports —
/// the property that makes a failing fuzz seed a complete bug report.
#[test]
fn same_seed_bit_identical_report_with_faults() {
    let n = 80;
    let trace = stat(n, 40 * MINUTE, 0.1, 23);
    let ids: Vec<NodeId> = trace.identities().into_iter().collect();
    let scenario = Scenario::builder("det-faults")
        .partition(
            63 * MINUTE,
            10 * MINUTE,
            ids[..n / 4].to_vec(),
            ids[n / 4..].to_vec(),
        )
        .loss_burst(80 * MINUTE, 5 * MINUTE, 0.4)
        .build()
        .unwrap();
    let run = || {
        let mut opts = SimOptions::new(Config::builder(n).build().unwrap())
            .seed(17)
            .scenario(scenario.clone());
        opts.network.faults = LinkFaults {
            loss: 0.10,
            duplicate: 0.05,
            jitter: 300,
        };
        let report = Simulation::new(trace.clone(), opts).run();
        serde_json::to_string(&report).expect("reports serialize")
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a, b,
        "same seed + same scenario must serialize byte-identically"
    );
    assert!(a.len() > 100, "the report actually carries data");
    // A different network seed diverges (the faults actually bite).
    let mut opts = SimOptions::new(Config::builder(n).build().unwrap())
        .seed(18)
        .scenario(scenario);
    opts.network.faults.loss = 0.10;
    let c = serde_json::to_string(&Simulation::new(trace, opts).run()).unwrap();
    assert_ne!(a, c);
}

/// The full adversary alphabet — an eclipse campaign, a state corruption,
/// and a healed partition on a lossy network — stays bit-reproducible:
/// two same-seed runs serialize byte-identically, QoS scoring and window
/// verdicts included.
///
/// RNG-stream note (the PR 3 / PR 5 precedent): the adversary pack adds
/// exactly one new stream — corruption garbage comes from a dedicated
/// `Stream` mixed from (master seed, per-event seed) — so adversary-free
/// runs consume the node, network, and scenario streams in exactly the
/// old order and no fixture re-pin was needed. Eclipse NOTIFY floods
/// deliberately ride the shared network RNG: they are traffic, and must
/// interleave with traffic.
#[test]
fn same_seed_bit_identical_with_attacks_corruption_and_partition() {
    let n = 80;
    let trace = stat(n, 40 * MINUTE, 0.1, 23);
    let ids: Vec<NodeId> = trace.identities().into_iter().collect();
    let scenario = Scenario::builder("det-adversaries")
        .partition(
            63 * MINUTE,
            8 * MINUTE,
            ids[..n / 4].to_vec(),
            ids[n / 4..].to_vec(),
        )
        .eclipse(
            70 * MINUTE,
            8 * MINUTE,
            ids[..3].to_vec(),
            ids[3..5].to_vec(),
        )
        .corrupt(75 * MINUTE, ids[5], Corruption::Full, 99)
        .freeze(66 * MINUTE, 3 * MINUTE, ids[1])
        .build()
        .unwrap();
    let run = |seed: u64| {
        let mut opts = SimOptions::new(Config::builder(n).build().unwrap())
            .seed(seed)
            .scenario(scenario.clone());
        opts.network.faults = LinkFaults {
            loss: 0.10,
            duplicate: 0.05,
            jitter: 300,
        };
        let report = Simulation::new(trace.clone(), opts).run();
        // The per-stream RNG draw ledger is the dynamic half of the
        // determinism discipline; on this fixture every stream actually
        // draws (the corruption event exercises the per-event streams).
        let ledger = report.invariants.rng_ledger;
        assert!(ledger.engine_draws > 0, "master stream never drew");
        assert!(ledger.node_draws > 0, "node streams never drew");
        assert!(
            ledger.corruption_draws > 0,
            "the corruption event drew nothing"
        );
        serde_json::to_string(&report).unwrap()
    };
    let (a, b) = (run(17), run(17));
    assert_eq!(
        a, b,
        "same seed + same adversaries must serialize byte-identically"
    );
    assert!(
        a.contains("\"windows\""),
        "the QoS window verdicts are part of the pinned bytes"
    );
    // A different seed diverges — the adversaries actually bite.
    let c = run(18);
    assert_ne!(a, c);
}

/// A 60-node stat trace with node 0 as a lying monitor, and up to three
/// targets the consistency condition never assigned to it.
fn seeded_liar() -> (avmon_churn::Trace, Config, NodeId, Vec<NodeId>) {
    let n = 60;
    let trace = stat(n, 30 * MINUTE, 0.1, 3);
    let config = Config::builder(n).build().unwrap();
    let liar = NodeId::from_index(0);
    let selector = avmon::HashSelector::from_config_with_kind(&config, avmon::HasherKind::Fast64);
    let forged: Vec<NodeId> = (1..n as u32)
        .map(NodeId::from_index)
        .filter(|&t| !selector.is_monitor(liar, t))
        .take(3)
        .collect();
    assert!(!forged.is_empty(), "no forgeable target found");
    (trace, config, liar, forged)
}

/// Negative control for the invariant checker: a `Behavior`-driven lying
/// monitor that forges monitoring relationships MUST be caught as a
/// ghost-target violation — proving the checker can actually fail.
#[test]
fn invariant_checker_catches_seeded_lying_monitor() {
    let (trace, config, liar, forged) = seeded_liar();
    let report = Simulation::new(
        trace,
        SimOptions::new(config)
            .seed(3)
            .behavior(liar, Behavior::FakeMonitor { targets: forged }),
    )
    .run();
    assert!(
        !report.invariants.passed(),
        "the lying monitor went undetected"
    );
    assert!(
        report.invariants.violations.iter().any(
            |v| matches!(v.violation, InvariantViolation::GhostTarget { node, .. } if node == liar)
        ),
        "expected a GhostTarget violation on the liar, got {:?}",
        report.invariants.violations
    );
}

/// The same seeded violation pins the simulated time of the first
/// corruption: the first violation on record is the liar's forged target,
/// stamped with the first sampling tick after the liar adopted it.
#[test]
fn first_violation_pins_the_liars_first_forged_target() {
    let (trace, config, liar, forged) = seeded_liar();
    let measure_from = trace.measure_from;
    let mut sim = Simulation::new(
        trace,
        SimOptions::new(config).seed(3).behavior(
            liar,
            Behavior::FakeMonitor {
                targets: forged.clone(),
            },
        ),
    );
    sim.subscribe_app(liar);
    let report = sim.run();

    // When the liar adopted its first forged target, from its own
    // application events.
    let adopted_at = sim
        .take_app_events()
        .into_iter()
        .filter_map(|(at, node, event)| match event {
            AppEvent::TargetDiscovered { target } if node == liar && forged.contains(&target) => {
                Some(at)
            }
            _ => None,
        })
        .min()
        .expect("the liar never adopted a forged target");
    let period = report.sample_interval;
    let mut first_tick = measure_from + period;
    while first_tick < adopted_at {
        first_tick += period;
    }
    let first = report
        .invariants
        .violations
        .first()
        .expect("the lying monitor went undetected");
    assert!(
        matches!(first.violation, InvariantViolation::GhostTarget { node, target }
            if node == liar && forged.contains(&target)),
        "the first violation is not the liar's forged target: {first:?}"
    );
    assert_eq!(
        first.at, first_tick,
        "adopted at {adopted_at} ms, first flagged at {} ms",
        first.at
    );
}
