//! Deterministic fault-injection scenarios: AVMON's guarantees under the
//! regimes the paper's reliable network (§3) never exercises — message
//! loss, duplication, reordering, healed partitions, and node freezes —
//! with the always-on invariant checker machine-verifying Theorem 1 along
//! the way. The expensive random-scenario sweep is opt-in via the
//! `AVMON_FUZZ_SWEEP` environment variable (see CI).

use avmon::{Command, Config, NodeId, MINUTE};
use avmon_app::{apps::watchdog_selector, Executor};
use avmon_churn::{stat, synthetic, ChurnEvent, ChurnEventKind, SynthParams, Trace};
use avmon_sim::{
    LatencyModel, LinkFaults, NetworkModel, Scenario, SimOptions, SimReport, Simulation,
};

/// Protocol config for fault scenarios: PR2 (§5.4) on. The paper's
/// re-advertisement optimization is exactly the recovery path for a node
/// whose view representation was shredded by loss-driven evictions — with
/// it, post-heal re-discovery fits comfortably inside the invariant
/// checker's grace window.
fn fault_config(n: usize) -> Config {
    Config::builder(n).pr2(true).build().unwrap()
}

fn split_population(trace: &Trace) -> (Vec<NodeId>, Vec<NodeId>) {
    let ids: Vec<NodeId> = trace.identities().into_iter().collect();
    let island = ids[..ids.len() / 5].to_vec();
    let mainland = ids[ids.len() / 5..].to_vec();
    (island, mainland)
}

fn assert_clean(report: &SimReport) {
    assert!(report.invariants.enabled);
    assert!(report.invariants.checks > 0, "checker never ran");
    assert!(
        report.invariants.passed(),
        "invariant violations: {:?}",
        report.invariants.violations
    );
}

/// A healed symmetric partition: discovery suffers while the island is cut
/// off, then converges again — and no invariant is ever violated.
#[test]
fn partition_heals_and_overlay_reconverges() {
    let n = 80;
    let trace = stat(n, 60 * MINUTE, 0.1, 11);
    let (island, mainland) = split_population(&trace);
    let scenario = Scenario::builder("partition-heal")
        .partition(65 * MINUTE, 15 * MINUTE, island, mainland)
        .build()
        .unwrap();
    let config = fault_config(n);
    let report = Simulation::new(
        trace.clone(),
        SimOptions::new(config.clone()).seed(11).scenario(scenario),
    )
    .run();
    assert_clean(&report);

    // The overlay still converges: most control nodes find a monitor.
    let latencies = report.discovery_latencies(1);
    assert!(
        latencies.len() * 10 >= report.discovery.len() * 8,
        "{} of {} control nodes discovered",
        latencies.len(),
        report.discovery.len()
    );

    // Relative to the same fault-free run, the partition slowed things
    // down (more undiscovered-or-late nodes, never corrupted state).
    let baseline = Simulation::new(trace, SimOptions::new(config).seed(11)).run();
    assert_clean(&baseline);
    let worst = |r: &SimReport| {
        r.discovery_latencies(1).iter().copied().max().unwrap_or(0)
            + r.undiscovered(1) as u64 * 60 * MINUTE
    };
    assert!(
        worst(&report) >= worst(&baseline),
        "partition cannot speed discovery up: {} vs {}",
        worst(&report),
        worst(&baseline)
    );
}

/// An asymmetric partition (island can send, never receive) also heals
/// cleanly: one-way reachability must not corrupt PS/TS state.
#[test]
fn asymmetric_partition_keeps_invariants() {
    let n = 60;
    let trace = stat(n, 50 * MINUTE, 0.1, 7);
    let (island, mainland) = split_population(&trace);
    let scenario = Scenario::builder("one-way")
        .one_way_partition(62 * MINUTE, 12 * MINUTE, mainland, island)
        .build()
        .unwrap();
    let report = Simulation::new(
        trace,
        SimOptions::new(fault_config(n)).seed(7).scenario(scenario),
    )
    .run();
    assert_clean(&report);
}

/// Uniform 15% message loss plus duplication plus reordering jitter: the
/// protocol is request/response- and idempotency-safe, so correctness
/// holds; agreement under permanent loss is reported statistically.
#[test]
fn lossy_duplicating_reordering_network_stays_consistent() {
    let n = 80;
    let trace = stat(n, 60 * MINUTE, 0.1, 13);
    let mut opts = SimOptions::new(fault_config(n)).seed(13);
    opts.network = NetworkModel {
        latency: LatencyModel::default(),
        faults: LinkFaults {
            loss: 0.15,
            duplicate: 0.10,
            jitter: 400,
        },
    };
    let report = Simulation::new(trace, opts).run();
    assert_clean(&report);
    // Loss slows but must not stop discovery.
    assert!(
        !report.discovery_latencies(1).is_empty(),
        "nobody discovered a monitor under 15% loss"
    );
}

/// A mid-run loss burst (congestion weather) heals without corruption and
/// without stopping the control group's discovery.
#[test]
fn loss_burst_heals() {
    let n = 60;
    let trace = stat(n, 60 * MINUTE, 0.1, 5);
    let scenario = Scenario::builder("burst")
        .loss_burst(61 * MINUTE, 8 * MINUTE, 0.6)
        .build()
        .unwrap();
    let report = Simulation::new(
        trace,
        SimOptions::new(fault_config(n)).seed(5).scenario(scenario),
    )
    .run();
    assert_clean(&report);
    assert!(report.discovery_latencies(1).len() >= 4);
}

/// A frozen node (GC pause / overload) processes nothing during the
/// window, then drains its stalled inputs in order — it must come back
/// with consistent state, not ghosts.
#[test]
fn frozen_node_thaws_consistently() {
    let n = 60;
    let trace = stat(n, 60 * MINUTE, 0.1, 9);
    let victim = *trace.control_group.first().unwrap();
    let scenario = Scenario::builder("freeze")
        .freeze(70 * MINUTE, 6 * MINUTE, victim)
        .build()
        .unwrap();
    let mut sim = Simulation::new(
        trace,
        SimOptions::new(fault_config(n)).seed(9).scenario(scenario),
    );
    let report = sim.run();
    assert_clean(&report);
    // The victim stayed in the system throughout (freezes are not churn).
    assert!(sim.alive().any(|id| id == victim));
    assert!(sim.node(victim).is_some());
}

/// Under churn *and* faults together, the checker still passes: fault
/// windows and down-time windows compose.
#[test]
fn churn_plus_faults_compose() {
    let n = 80;
    let trace = synthetic(SynthParams::synth(n).duration(50 * MINUTE).seed(21));
    let ids: Vec<NodeId> = trace.identities().into_iter().collect();
    let scenario = Scenario::builder("churn-mix")
        .degrade(
            65 * MINUTE,
            10 * MINUTE,
            ids[..10].to_vec(),
            ids[10..].to_vec(),
            0.5,
        )
        .loss_burst(80 * MINUTE, 5 * MINUTE, 0.3)
        .build()
        .unwrap();
    let report = Simulation::new(
        trace,
        SimOptions::new(fault_config(n)).seed(21).scenario(scenario),
    )
    .run();
    assert_clean(&report);
}

/// Invalid options are rejected at construction, not mid-run: a zero
/// protocol period (the sampling interval), an empty trace, inverted
/// latency ranges, bad probabilities, malformed scenarios.
#[test]
fn invalid_options_rejected_at_construction() {
    let trace = stat(20, 10 * MINUTE, 0.1, 1);
    let config = Config::builder(20).build().unwrap();

    // Would otherwise schedule sampling ticks at one instant forever. The
    // builder rejects a zero period; the public field does not.
    let mut opts = SimOptions::new(config.clone());
    opts.config.protocol_period = 0;
    let err = Simulation::try_new(trace.clone(), opts).unwrap_err();
    assert!(err.to_string().contains("protocol_period"), "{err}");

    // An error from the fallible constructor, not a panic.
    let empty = Trace::new("EMPTY", 0, MINUTE, 0, vec![], vec![]);
    let err = Simulation::try_new(empty, SimOptions::new(config.clone())).unwrap_err();
    assert!(err.to_string().contains("empty trace"), "{err}");

    let mut opts = SimOptions::new(config.clone());
    opts.network.latency = LatencyModel::Uniform { min: 50, max: 10 };
    assert!(Simulation::try_new(trace.clone(), opts).is_err());

    let mut opts = SimOptions::new(config.clone());
    opts.network.faults.loss = 2.0;
    assert!(Simulation::try_new(trace.clone(), opts).is_err());

    // A delay that would carry a message sent at the horizon past the
    // last instant `TimeMs` holds: an error here, not an overflow at the
    // first send. The jitter counts towards the delay.
    let mut opts = SimOptions::new(config.clone());
    opts.network.latency = LatencyModel::Constant(u64::MAX);
    let mut jittery = SimOptions::new(config.clone());
    jittery.network.faults.jitter = u64::MAX - trace.horizon;
    for opts in [opts, jittery] {
        let err = Simulation::try_new(trace.clone(), opts).err();
        let err = err.expect("an overflowing delay is rejected");
        assert!(err.to_string().contains("representable"), "{err}");
    }

    let mut opts = SimOptions::new(config);
    opts.scenario = Scenario {
        name: "raw-unvalidated".into(),
        events: vec![avmon_sim::ScenarioEvent {
            at: 0,
            fault: avmon_sim::Fault::LossBurst {
                loss: 7.0,
                duration: MINUTE,
            },
        }],
    };
    assert!(Simulation::try_new(trace.clone(), opts).is_err());

    // Malformed campaigns are rejected the same way: coalition ∩ victims ≠ ∅.
    let mut opts = SimOptions::new(Config::builder(20).build().unwrap());
    opts.scenario = Scenario {
        name: "raw-bad-eclipse".into(),
        events: vec![avmon_sim::ScenarioEvent {
            at: 0,
            fault: avmon_sim::Fault::Eclipse {
                coalition: vec![NodeId::from_index(1)],
                victims: vec![NodeId::from_index(1)],
                duration: MINUTE,
            },
        }],
    };
    assert!(Simulation::try_new(trace, opts).is_err());
}

/// An identity the trace never named has no row, so what is addressed to
/// it is never scheduled: a corruption of it, or a message sent to it,
/// leaves the calendar's traffic exactly as in a twin run without it.
#[test]
fn identities_outside_the_trace_schedule_nothing() {
    let ghost = NodeId::from_index(999);
    let config = Config::builder(20).build().unwrap();
    let trace = stat(20, 10 * MINUTE, 0.1, 1);
    assert!(!trace.identities().contains(&ghost));
    let run = |scenario: Scenario| {
        let mut opts = SimOptions::new(config.clone()).scenario(scenario);
        opts.seed = 5;
        let mut sim = Simulation::new(trace.clone(), opts);
        sim.run_until(trace.horizon);
        sim.calendar_stats()
    };
    let corrupted = Scenario::builder("ghost")
        .corrupt(5 * MINUTE, ghost, avmon_sim::Corruption::Full, 3)
        .build()
        .unwrap();
    assert_eq!(run(corrupted), run(Scenario::default()));

    // On a one-node trace the engine RNG draws nothing after the send, so
    // the twins stay identical but for the message itself.
    let alone = NodeId::from_index(0);
    let birth = ChurnEvent {
        at: 0,
        node: alone,
        kind: ChurnEventKind::Birth,
    };
    let trace = Trace::new("ONE", 1, 10 * MINUTE, 0, vec![], vec![birth]);
    let run = |send: bool| {
        let mut sim = Simulation::new(trace.clone(), SimOptions::new(config.clone()));
        sim.run_until(MINUTE);
        if send {
            let payload = vec![1, 2, 3];
            sim.command(alone, Command::SendApp { to: ghost, payload });
        }
        sim.run_until(trace.horizon);
        sim.calendar_stats()
    };
    assert_eq!(run(true), run(false));
}

/// `Simulation::new` keeps its documented panic for what `try_new`
/// reports as an error.
#[test]
#[should_panic(expected = "cannot simulate an empty trace")]
fn infallible_constructor_panics_on_empty_trace() {
    let empty = Trace::new("EMPTY", 0, MINUTE, 0, vec![], vec![]);
    let _ = Simulation::new(empty, SimOptions::new(Config::builder(20).build().unwrap()));
}

/// One row of the sweep's QoS artifact: which seed, which generated
/// scenario, and the full failure-detector scorecard it produced.
/// Seeds that also ran the example app task under the same scenario
/// carry an [`SweepApp`] column (extra keys are ignored by
/// `scripts/check_fdqos.py`, which reads only the QoS gates).
#[derive(serde::Serialize)]
struct SweepQos {
    seed: u64,
    scenario: String,
    qos: avmon_sim::FdQos,
    app: Option<SweepApp>,
}

/// App-attachment scorecard for the sweep seeds that ran the example
/// watchdog app on top of the fuzz scenario: the run was executed twice
/// and asserted byte-identical before these numbers were recorded.
#[derive(serde::Serialize)]
struct SweepApp {
    decisions: usize,
    app_draws: u64,
}

/// Seed-driven random-scenario sweep (fuzz-style). Expensive, so opt-in:
/// set `AVMON_FUZZ_SWEEP=1` (CI runs it in a dedicated job). Every failing
/// seed is replayable: the scenario embeds it, and this test prints it.
/// The per-seed failure-detector QoS scorecards are written to
/// `FUZZ_fdqos.json` at the repo root, which CI uploads as an artifact —
/// the sweep doubles as a QoS regression corpus.
#[test]
fn random_scenario_fuzz_sweep() {
    if std::env::var("AVMON_FUZZ_SWEEP").is_err() {
        eprintln!("skipping fuzz sweep (set AVMON_FUZZ_SWEEP=1 to run)");
        return;
    }
    let n = 60;
    let mut scorecards: Vec<SweepQos> = Vec::new();
    for seed in 0..24u64 {
        let trace = stat(n, 60 * MINUTE, 0.1, seed);
        let ids: Vec<NodeId> = trace.identities().into_iter().collect();
        // Faults live inside the measurement window, leaving the tail for
        // the post-heal grace period.
        let scenario = Scenario::random(seed, &ids, 61 * MINUTE, 90 * MINUTE);
        let opts = || {
            SimOptions::new(fault_config(n))
                .seed(seed)
                .scenario(scenario.clone())
        };
        let report = Simulation::new(trace.clone(), opts()).run();
        assert!(
            report.invariants.passed(),
            "seed {seed} (scenario {:?}) violated invariants: {:?}",
            scenario,
            report.invariants.violations
        );
        // And every faulty run is replayable byte-for-byte.
        let replay = Simulation::new(trace, opts()).run();
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&replay).unwrap(),
            "seed {seed} not reproducible"
        );
        eprintln!(
            "seed {seed} [{}]: detections={} mean_detect={:.0}ms mistakes={} \
             mistake_rate={:.3}/h windows={}",
            scenario.name,
            report.qos.detection.count,
            report.qos.detection.mean_ms().unwrap_or(0.0),
            report.qos.mistake_episodes,
            report.qos.mistake_rate_per_hour,
            report.qos.windows.len(),
        );
        // A quarter of the seeds re-run the scenario with the example
        // async app attached (watchdog + least-available-k selection on
        // the first four nodes): the app's decision log must be
        // byte-identical run-to-run even while the fuzz scenario is
        // shredding the overlay underneath it.
        let app = (seed % 4 == 0).then(|| {
            let app_run = || {
                let trace = stat(n, 60 * MINUTE, 0.1, seed);
                let mut exec = Executor::new(Simulation::new(trace, opts()), seed);
                for &id in &ids[..4] {
                    exec.spawn(id, |h| watchdog_selector(h, 5 * MINUTE, 3));
                }
                exec.run();
                let (report, log) = exec.into_report();
                (log, report.invariants.rng_ledger)
            };
            let (log, ledger) = app_run();
            let (log2, ledger2) = app_run();
            assert_eq!(
                log.to_json().expect("decision logs serialize"),
                log2.to_json().expect("decision logs serialize"),
                "seed {seed}: app decision log not reproducible under fuzz scenario"
            );
            assert_eq!(ledger, ledger2, "seed {seed}: app-run ledger diverged");
            assert!(ledger.app_draws > 0, "seed {seed}: app stream never drew");
            SweepApp {
                decisions: log.decisions.len(),
                app_draws: ledger.app_draws,
            }
        });
        scorecards.push(SweepQos {
            seed,
            scenario: scenario.name.clone(),
            qos: report.qos,
            app,
        });
    }
    // QoS regression gates over the whole corpus, not just invariants:
    // a change that keeps the overlay *consistent* but wrecks the failure
    // detector (detections drifting to minutes, wrongful suspicions
    // exploding) must fail here, and again in CI when
    // `scripts/check_fdqos.py` re-checks the uploaded artifact.
    //
    // Thresholds come from the measured corpus: the worst per-seed
    // mistake rate under these deliberately hostile random scenarios is
    // 967/h (partition + loss-burst storms suspect live nodes by
    // design), and with a 60 s monitoring period + 5 s ping timeout an
    // honest detection pipeline keeps p99 well under 512 s even with
    // retries across lossy links.
    let mut detections = avmon_sim::DetectionDistribution::default();
    for card in &scorecards {
        for (bucket, &count) in card.qos.detection.buckets.iter().enumerate() {
            detections.buckets[bucket] += count;
        }
        detections.count += card.qos.detection.count;
        detections.sum_ms += card.qos.detection.sum_ms;
        detections.max_ms = detections.max_ms.max(card.qos.detection.max_ms);
        assert!(
            card.qos.mistake_rate_per_hour <= 1_200.0,
            "seed {}: mistake rate regressed to {:.1}/h (corpus worst case is 967/h)",
            card.seed,
            card.qos.mistake_rate_per_hour
        );
    }
    if let Some(p99_secs) = detections.percentile_upper_bound_secs(99.0) {
        assert!(
            p99_secs <= 512,
            "sweep-wide detection p99 regressed to <= {p99_secs} s \
             (gate: 512 s for a 60 s monitoring period)"
        );
    }
    let artifact = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../FUZZ_fdqos.json");
    std::fs::write(&artifact, serde_json::to_string(&scorecards).unwrap())
        .expect("write QoS artifact");
    eprintln!(
        "wrote {} scorecards to {}",
        scorecards.len(),
        artifact.display()
    );
}

/// A validated fault may end exactly at the last instant `TimeMs` holds;
/// the checker's recovery deadline after it saturates instead of
/// overflowing, and the window, never reached, stays open.
#[test]
fn faults_ending_at_the_last_instant_run() {
    let trace = stat(20, 10 * MINUTE, 0.1, 1);
    let config = Config::builder(20).build().unwrap();
    let last = u64::MAX;
    let scenario = Scenario::builder("last-instant")
        .corrupt(last, NodeId::from_index(0), avmon_sim::Corruption::Full, 3)
        .freeze(last - MINUTE, MINUTE, NodeId::from_index(1))
        .build()
        .unwrap();
    let mut sim = Simulation::new(trace, SimOptions::new(config).scenario(scenario));
    let report = sim.run();
    let window = &report.qos.windows[0];
    assert_eq!((window.heals_at, window.deadline), (last, last));
    assert!(!window.proven && !window.failed);
    assert_clean(&report);
}
