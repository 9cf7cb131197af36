//! Incremental invariant checking is an *optimization*, not a semantic
//! change: it must flag exactly the same violations and warnings, at the
//! same simulated times, as the full per-sample rescan — while skipping
//! most of the work.

use avmon::{Behavior, Config, NodeId, MINUTE};
use avmon_churn::{stat, synthetic, SynthParams};
use avmon_sim::{
    CheckStrategy, InvariantViolation, LinkFaults, Scenario, SimOptions, SimReport, Simulation,
};

/// Runs the same `(trace, options)` under both strategies.
fn run_both(
    mut make_opts: impl FnMut() -> (avmon_churn::Trace, SimOptions),
) -> (SimReport, SimReport) {
    let (trace, opts) = make_opts();
    let incremental = Simulation::new(
        trace,
        SimOptions {
            invariants: opts.invariants.clone().strategy(CheckStrategy::Incremental),
            ..opts
        },
    )
    .run();
    let (trace, opts) = make_opts();
    let full = Simulation::new(
        trace,
        SimOptions {
            invariants: opts.invariants.clone().strategy(CheckStrategy::FullRescan),
            ..opts
        },
    )
    .run();
    (incremental, full)
}

/// Asserts the two strategies observed identical protocol facts and did
/// not perturb the simulated run itself (dirty tracking is observation-
/// only: same RNG streams, so same dynamics byte for byte).
fn assert_equivalent(incremental: &SimReport, full: &SimReport) {
    assert_eq!(
        incremental.invariants.violations, full.invariants.violations,
        "strategies disagree on violations"
    );
    assert_eq!(
        incremental.invariants.warnings, full.invariants.warnings,
        "strategies disagree on warnings"
    );
    // The run itself is untouched by the checking strategy.
    assert_eq!(incremental.discovery, full.discovery);
    assert_eq!(incremental.series, full.series);
    assert_eq!(incremental.totals, full.totals);
    assert_eq!(incremental.alive_at_end, full.alive_at_end);
    assert_eq!(incremental.availability.len(), full.availability.len());
    for (a, b) in incremental.availability.iter().zip(&full.availability) {
        assert_eq!(a.node, b.node);
        assert_eq!(a.estimated, b.estimated);
    }
    // And the optimization actually optimizes.
    assert!(
        incremental.invariants.set_scans_skipped > 0,
        "incremental checking never skipped a set scan"
    );
    assert!(
        incremental.invariants.checks < full.invariants.checks,
        "incremental did not reduce checks: {} vs {}",
        incremental.invariants.checks,
        full.invariants.checks
    );
}

/// The seeded lying-monitor scenario of `tests/determinism.rs`: a
/// `FakeMonitor` forges TS entries mid-run. Both strategies must catch the
/// exact same ghosts at the exact same detection times.
#[test]
fn incremental_equals_full_rescan_on_lying_monitor() {
    let n = 60;
    let config = Config::builder(n).build().unwrap();
    let liar = NodeId::from_index(0);
    let selector = avmon::HashSelector::from_config_with_kind(&config, avmon::HasherKind::Fast64);
    let forged: Vec<NodeId> = (1..n as u32)
        .map(NodeId::from_index)
        .filter(|&t| !selector.is_monitor(liar, t))
        .take(3)
        .collect();
    assert!(!forged.is_empty());

    let (incremental, full) = run_both(|| {
        let trace = stat(n, 30 * MINUTE, 0.1, 3);
        let opts = SimOptions::new(Config::builder(n).build().unwrap())
            .seed(3)
            .behavior(
                liar,
                Behavior::FakeMonitor {
                    targets: forged.clone(),
                },
            );
        (trace, opts)
    });
    assert!(
        incremental.invariants.violations.iter().any(
            |v| matches!(v.violation, InvariantViolation::GhostTarget { node, .. } if node == liar)
        ),
        "the lying monitor went undetected by the incremental checker: {:?}",
        incremental.invariants.violations
    );
    assert_equivalent(&incremental, &full);
}

/// A seed-replayable random fault scenario (loss + partitions + freezes)
/// over a churny trace: the strategies must agree violation-for-violation
/// and warning-for-warning under arbitrary fault interleavings too.
#[test]
fn incremental_equals_full_rescan_on_random_fuzz_scenario() {
    for fuzz_seed in [7u64, 19, 83] {
        let (incremental, full) = run_both(|| {
            let trace = synthetic(SynthParams::synth_bd(80).duration(40 * MINUTE).seed(11));
            let ids: Vec<NodeId> = trace.identities().into_iter().collect();
            let scenario = Scenario::random(fuzz_seed, &ids, 70 * MINUTE, 85 * MINUTE);
            let mut opts = SimOptions::new(Config::builder(80).build().unwrap())
                .seed(fuzz_seed)
                .scenario(scenario);
            opts.network.faults = LinkFaults {
                loss: 0.05,
                duplicate: 0.02,
                jitter: 200,
            };
            (trace, opts)
        });
        assert_equivalent(&incremental, &full);
    }
}

/// At steady state (fault-free STAT), nearly every node-sample is skipped:
/// the per-sample sweep is O(changed), not O(N·K).
#[test]
fn incremental_skips_dominate_at_steady_state() {
    let trace = stat(100, 30 * MINUTE, 0.1, 7);
    let report = Simulation::new(
        trace,
        SimOptions::new(Config::builder(100).build().unwrap()).seed(7),
    )
    .run();
    assert!(
        report.invariants.passed(),
        "{:?}",
        report.invariants.violations
    );
    // ~30 samples × ~110 alive nodes ≈ 3300 node-samples; at steady state
    // the overwhelming majority must skip the PS/TS hash re-verification.
    let inv = &report.invariants;
    assert!(
        inv.set_scans_skipped > 1_000,
        "expected skips to dominate: only {} set scans skipped",
        inv.set_scans_skipped
    );
}
