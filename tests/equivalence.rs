//! The equivalence rig: behaviour held by pinned bytes.
//!
//! Each scenario family below carries the MD5 of the serialized
//! [`SimReport`] that the *legacy* engine produced for it at the commit
//! that deleted that engine — all-heap calendar, node memo off, and (for
//! the attacker family) the per-pair agreement sweep.
//! Today's engine must reproduce those bytes — every counter, discovery
//! timestamp, float estimate, violation and warning.
//! Scenarios cover the fault machinery (loss + duplication + jitter +
//! partitions, freezes), a protocol-level attacker and the paper's MD5
//! hasher, not just the happy path. The eclipse-coalition family came
//! later and is pinned from the per-pair cross-check it guards instead.
//!
//! The digests are for the vendored `rand` / `serde_json` stubs (see the
//! workspace `Cargo.toml`): swapping in the crates.io versions changes
//! RNG streams and map encoding, and with them every pin.

use avmon::{Behavior, Config, HasherKind, NodeId, MINUTE};
use avmon_churn::{stat, synthetic, SynthParams, Trace};
use avmon_sim::{CrossCheckStats, LinkFaults, RngLedger, Scenario, SimOptions, Simulation};

/// What a run leaves besides its report bytes.
struct Run {
    json: String,
    ledger: RngLedger,
    crosscheck: CrossCheckStats,
}

/// Runs `(trace, opts)` to the horizon; returns the serialized report, the
/// per-stream RNG draw ledger and how the cross-checks were evaluated,
/// after checking that all three calendar containers and the O(1)
/// dead-expiry discard carried traffic.
///
/// With `step`, advances `step` simulated ms at a time with half a
/// millisecond of wall clock between steps. The report cannot tell:
/// `run_until` is the same loop however time is sliced. The cross-check
/// helper can: a `ViewFetch` routed before a pause and answered after it
/// finds its result ready, however busy the host is.
fn run_in_steps(trace: Trace, opts: SimOptions, label: &str, step: Option<u64>) -> Run {
    let mut sim = Simulation::new(trace, opts);
    let horizon = sim.trace().horizon;
    if let Some(step) = step {
        for t in (step..horizon).step_by(step as usize) {
            sim.run_until(t);
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
    }
    sim.run_until(horizon);
    let stats = sim.calendar_stats();
    assert!(
        stats.heap_pops > 0 && stats.lane_pops > 0 && stats.wheel_pops > 0,
        "{label}: a calendar container sat idle: {stats:?}"
    );
    assert!(
        stats.expire_skips > 0,
        "{label}: no ponged-ping expiry was ever discarded in O(1)"
    );
    let crosscheck = sim.crosscheck_stats();
    let report = sim.into_report();
    let ledger = report.invariants.rng_ledger;
    let json = serde_json::to_string(&report).expect("reports serialize");
    Run {
        json,
        ledger,
        crosscheck,
    }
}

/// Drops the `memo_policy` record from a serialized report, after
/// checking it is the fixed "removed" one. The pins were taken on the
/// policy-stripped report (the record used to vary with the memo
/// configuration under comparison); the strip stays for as long as the
/// shim field does — the `[benchmark]` PR that deletes
/// `InvariantSummary::memo_policy` deletes this with it.
fn without_memo_policy(json: &str) -> String {
    use serde::{Deserialize, Value};
    fn strip(value: &mut Value) {
        match value {
            Value::Map(entries) => {
                entries.retain(|(key, _)| !matches!(key, Value::Str(s) if s == "memo_policy"));
                for (_, entry) in entries.iter_mut() {
                    strip(entry);
                }
            }
            Value::Seq(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let mut value: Value = serde_json::from_str(json).expect("reports parse");
    let policy = value
        .get("invariants")
        .and_then(|invariants| invariants.get("memo_policy"))
        .map(avmon::MemoPolicy::from_value);
    assert_eq!(
        policy,
        Some(Ok(avmon::MemoPolicy::default())),
        "the report must carry the fixed \"removed\" memo policy"
    );
    strip(&mut value);
    serde_json::to_string(&value).expect("values serialize")
}

/// Hex MD5 of a serialized report with its memo policy stripped — what
/// the pins hold.
fn digest(json: &str) -> String {
    let stripped = without_memo_policy(json);
    let hex = avmon_hash::md5(stripped.as_bytes()).map(|b| format!("{b:02x}"));
    hex.concat()
}

/// Asserts that the run `make` describes reproduces the pinned legacy
/// digest and that its RNG ledger recorded draws. Returns the run for
/// scenario-specific assertions.
fn assert_pinned(make: impl FnOnce() -> (Trace, SimOptions), label: &str, pin: &str) -> Run {
    assert_pinned_in_steps(make, label, pin, None)
}

/// [`assert_pinned`] over [`run_in_steps`].
fn assert_pinned_in_steps(
    make: impl FnOnce() -> (Trace, SimOptions),
    label: &str,
    pin: &str,
    step: Option<u64>,
) -> Run {
    let (trace, opts) = make();
    let run = run_in_steps(trace, opts, label, step);
    assert!(
        run.ledger.engine_draws > 0 && run.ledger.node_draws > 0,
        "{label}: the RNG ledger recorded no draws"
    );
    assert_eq!(
        digest(&run.json),
        pin,
        "{label}: report left the pinned bytes"
    );
    run
}

/// Fault-free churny baseline: births, deaths, rejoins. It also holds the
/// cross-check helper to the pin: with two cores or more, some received
/// views replay the helper's matches and some are hashed inline (views
/// change in flight under churn), and the bytes are the pinned ones; on
/// one core nothing is handed over and every cross-check is hashed inline.
/// The run advances half a simulated second at a time, so the helper gets
/// wall-clock time to finish however busy the test host is.
#[test]
fn churny_trace_reproduces_the_legacy_engine() {
    let run = assert_pinned_in_steps(
        || {
            let trace = synthetic(SynthParams::synth_bd(90).duration(40 * MINUTE).seed(29));
            let opts = SimOptions::new(Config::builder(90).build().unwrap()).seed(12);
            (trace, opts)
        },
        "churn",
        "0e14ec614d222db2779e029967118729",
        Some(500),
    );
    let stats = run.crosscheck;
    assert!(stats.hashed_inline > 0, "churn: {stats:?}");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores >= 2 {
        assert!(stats.replayed > 0, "churn on {cores} cores: {stats:?}");
    } else {
        assert_eq!(
            (stats.submitted, stats.replayed),
            (0, 0),
            "churn on one core"
        );
    }
}

/// The fault machinery: base-link loss + duplication + jitter, a healed
/// partition, a loss burst, and a node freeze (the freeze forces
/// lane-popped timers through the requeue-on-thaw path).
#[test]
fn faults_and_freezes_reproduce_the_legacy_engine() {
    assert_pinned(
        || {
            let n = 80;
            let trace = stat(n, 40 * MINUTE, 0.1, 23);
            let ids: Vec<NodeId> = trace.identities().into_iter().collect();
            let scenario = Scenario::builder("equivalence-faults")
                .partition(
                    63 * MINUTE,
                    8 * MINUTE,
                    ids[..n / 4].to_vec(),
                    ids[n / 4..].to_vec(),
                )
                .loss_burst(75 * MINUTE, 4 * MINUTE, 0.4)
                .freeze(66 * MINUTE, 3 * MINUTE, ids[1])
                .freeze(70 * MINUTE, 2 * MINUTE, ids[2])
                .build()
                .unwrap();
            let mut opts = SimOptions::new(Config::builder(n).pr2(true).build().unwrap())
                .seed(17)
                .scenario(scenario);
            opts.network.faults = LinkFaults {
                loss: 0.10,
                duplicate: 0.05,
                jitter: 300,
            };
            (trace, opts)
        },
        "faults",
        "43a10609df9caa8aa44dec244cbcbd3b",
    );
}

/// A lying monitor (`Behavior::FakeMonitor`) corrupting its target set.
fn attacker() -> (Trace, SimOptions) {
    let n = 60;
    let config = Config::builder(n).build().unwrap();
    let liar = NodeId::from_index(0);
    let selector = avmon::HashSelector::from_config_with_kind(&config, HasherKind::Fast64);
    let forged: Vec<NodeId> = (1..n as u32)
        .map(NodeId::from_index)
        .filter(|&t| !selector.is_monitor(liar, t))
        .take(3)
        .collect();
    assert!(!forged.is_empty());
    let opts = SimOptions::new(config)
        .seed(3)
        .behavior(liar, Behavior::FakeMonitor { targets: forged });
    (stat(n, 30 * MINUTE, 0.1, 3), opts)
}

/// Taken twice at the parent, from the legacy engine and from the
/// default engine with the per-pair agreement sweep: one digest.
const ATTACKER_PIN: &str = "630a06a991aa54e0558e737df8fd591a";

/// The engine must neither mask nor alter the checker's verdict, and the
/// batched agreement sweep reproduces the per-pair enumeration it
/// replaced.
#[test]
fn seeded_attacker_reproduces_the_legacy_engine() {
    let run = assert_pinned(attacker, "attacker", ATTACKER_PIN);
    assert!(
        run.json.contains("GhostTarget"),
        "the seeded corruption must still be caught"
    );
}

/// Fuzzed fault timelines: three seed-replayable random scenarios.
#[test]
fn random_scenarios_reproduce_the_legacy_engine() {
    for (fuzz_seed, pin) in [
        (5u64, "ab317830ad83cbde5bb9b6285f76d50b"),
        (41, "1f4a19cf7fd28e5dd89c6576de5ee723"),
        (97, "e6de764e948dfcb8fe5c6ae4dc98d6b6"),
    ] {
        assert_pinned(
            || {
                let trace = synthetic(SynthParams::synth_bd(70).duration(35 * MINUTE).seed(13));
                let ids: Vec<NodeId> = trace.identities().into_iter().collect();
                let scenario = Scenario::random(fuzz_seed, &ids, 60 * MINUTE, 75 * MINUTE);
                let mut opts = SimOptions::new(Config::builder(70).build().unwrap())
                    .seed(fuzz_seed)
                    .scenario(scenario);
                opts.network.faults = LinkFaults {
                    loss: 0.05,
                    duplicate: 0.02,
                    jitter: 200,
                };
                (trace, opts)
            },
            "fuzz",
            pin,
        );
    }
}

/// The paper's MD5 hasher.
#[test]
fn md5_hasher_reproduces_the_legacy_engine() {
    assert_pinned(
        || {
            let opts = SimOptions::new(Config::builder(50).build().unwrap())
                .seed(9)
                .hasher(HasherKind::Md5);
            (stat(50, 30 * MINUTE, 0.1, 5), opts)
        },
        "md5",
        "8aa5309b9004beb90219941a3b1598d9",
    );
}

/// An eclipse campaign (`Behavior::EclipseCoalition`: forged NOTIFY
/// floods, JOIN and NOTIFY suppression) inside a small overlay whose
/// coarse views hold most of the coalition and both victims — so the
/// Fig. 2 cross-check drops suppressed pairs from its NOTIFY walk and its
/// `hash_checks` count every period. Pinned from the per-pair cross-check
/// that `accepted_pairs` replaced, not from the legacy engine.
#[test]
fn eclipse_coalition_reproduces_the_per_pair_cross_check() {
    assert_pinned(
        || {
            let n = 60;
            let trace = stat(n, 30 * MINUTE, 0.1, 19);
            let ids: Vec<NodeId> = trace.identities().into_iter().collect();
            let scenario = Scenario::builder("equivalence-eclipse")
                .eclipse(
                    20 * MINUTE,
                    30 * MINUTE,
                    ids[..4].to_vec(),
                    vec![ids[10], ids[11]],
                )
                .build()
                .unwrap();
            let opts = SimOptions::new(Config::builder(n).build().unwrap())
                .seed(21)
                .scenario(scenario);
            (trace, opts)
        },
        "eclipse",
        "e454209cf7909882fb706b80d266291b",
    );
}
