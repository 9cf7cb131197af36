//! The §3.3 client, `query_availability`, end to end over a simulation:
//! every behaviour the deleted `avmon::query::AvailabilityQuery` state
//! machine's unit tests held, now checked against real nodes exchanging
//! real messages.

use std::cell::RefCell;
use std::rc::Rc;

use avmon::{AppEvent, Behavior, Config, HashSelector, MonitorSelector, NodeId, TimeMs, MINUTE};
use avmon_app::apps::{query_availability, QueryOutcome};
use avmon_app::{AvmonHandle, Executor};
use avmon_churn::{ChurnEvent, ChurnEventKind, Trace};
use avmon_sim::{SimOptions, Simulation};

const N: u32 = 64;
const SEED: u64 = 9;
const ASK_AT: TimeMs = 20 * MINUTE;

fn id(i: u32) -> NodeId {
    NodeId::from_index(i)
}

fn config() -> Config {
    Config::builder(N as usize).k(16).build().unwrap()
}

fn selector() -> HashSelector {
    HashSelector::from_config(&config())
}

/// `N` nodes born at t = 0 that never leave, bar the listed departures.
fn cohort(leaves: &[(TimeMs, NodeId)]) -> Trace {
    let births = (0..N).map(|i| ChurnEvent {
        at: 0,
        node: id(i),
        kind: ChurnEventKind::Birth,
    });
    let leaves = leaves.iter().map(|&(at, node)| ChurnEvent {
        at,
        node,
        kind: ChurnEventKind::Leave,
    });
    let events = births.chain(leaves).collect();
    Trace::new("QUERY", N as usize, 30 * MINUTE, 0, Vec::new(), events)
}

/// Twenty minutes of overlay, then `client` runs on node 0 for a minute;
/// returns what it left behind.
fn run_client<T: 'static, Fut>(
    trace: Trace,
    opts: SimOptions,
    client: impl FnOnce(AvmonHandle) -> Fut + 'static,
) -> Option<T>
where
    Fut: std::future::Future<Output = T> + 'static,
{
    let mut exec = Executor::new(Simulation::new(trace, opts.seed(SEED)), SEED);
    let out = Rc::new(RefCell::new(None));
    let slot = Rc::clone(&out);
    exec.spawn(id(0), move |h| async move {
        h.sleep(ASK_AT).await;
        let result = client(h).await;
        *slot.borrow_mut() = Some(result);
    });
    exec.run_until(ASK_AT + MINUTE);
    let (report, _) = exec.into_report();
    assert!(report.invariants.passed(), "{:?}", report.invariants);
    out.take()
}

fn query(trace: Trace, opts: SimOptions, target: NodeId, l: u8) -> Option<QueryOutcome> {
    run_client(trace, opts, move |h| async move {
        query_availability(&h, target, l).await
    })
}

/// What any finished query must satisfy, whatever it was asked.
fn assert_consistent(outcome: &QueryOutcome, target: NodeId) {
    let selector = selector();
    assert_eq!(outcome.target, target);
    for &m in &outcome.verified {
        assert!(selector.is_monitor(m, target), "{m} verified for {target}");
    }
    for &(m, a, samples) in &outcome.answers {
        assert!(outcome.verified.contains(&m), "{m} answered unasked");
        assert!((0.0..=1.0).contains(&a) && samples > 0);
    }
    let mean = |answers: &[(NodeId, f64, u64)]| {
        answers.iter().map(|&(_, a, _)| a).sum::<f64>() / answers.len() as f64
    };
    assert_eq!(
        outcome.availability,
        (!outcome.answers.is_empty()).then(|| mean(&outcome.answers))
    );
}

#[test]
fn honest_round_trip_averages_the_verified_monitors_answers() {
    let target = id(1);
    let outcome = query(cohort(&[]), SimOptions::new(config()), target, 3).expect("completes");
    assert_consistent(&outcome, target);
    assert!(!outcome.target_lied());
    assert_eq!(outcome.verified.len(), 3, "{outcome:?}");
    assert_eq!(outcome.answers.len(), 3, "every monitor answers");
    assert!(outcome.unresponsive.is_empty());
    // Nobody ever left: at most the ping in flight is unanswered.
    assert!(outcome.availability.unwrap() > 0.9, "{outcome:?}");
}

#[test]
fn lying_target_is_caught_by_rehashing() {
    let liar = id(1);
    let selector = selector();
    let fakes: Vec<NodeId> = (2..N)
        .map(id)
        .filter(|&m| !selector.is_monitor(m, liar))
        .take(3)
        .collect();
    let opts = SimOptions::new(config()).behavior(
        liar,
        Behavior::SelfishAdvertiser {
            fake_monitors: fakes.clone(),
        },
    );
    let outcome = query(cohort(&[]), opts, liar, 3).expect("completes");
    assert!(outcome.target_lied());
    assert_eq!(outcome.rejected, fakes, "every lie detected");
    assert!(outcome.verified.is_empty() && outcome.answers.is_empty());
    assert_eq!(outcome.availability, None);
}

#[test]
fn dead_target_times_out_into_an_empty_outcome() {
    let target = id(1);
    let trace = cohort(&[(5 * MINUTE, target)]);
    let outcome = query(trace, SimOptions::new(config()), target, 3).expect("completes");
    assert_consistent(&outcome, target);
    assert!(!outcome.target_lied());
    assert!(outcome.verified.is_empty() && outcome.unresponsive.is_empty());
    assert_eq!(outcome.availability, None);
}

#[test]
fn dead_monitor_is_reported_unresponsive() {
    let target = id(1);
    let selector = selector();
    let dead = (2..N)
        .map(id)
        .find(|&m| selector.is_monitor(m, target))
        .expect("the target has a monitor");
    // The monitor leaves after the target has discovered it.
    let trace = cohort(&[(15 * MINUTE, dead)]);
    let outcome = query(trace, SimOptions::new(config()), target, u8::MAX).expect("completes");
    assert_consistent(&outcome, target);
    assert_eq!(outcome.unresponsive, vec![dead], "{outcome:?}");
    assert!(outcome.verified.contains(&dead));
    assert_eq!(outcome.answers.len(), outcome.verified.len() - 1);
    assert!(outcome.availability.is_some(), "the others still answered");
}

#[test]
fn unrelated_inbox_events_are_ignored() {
    let (target, other) = (id(1), id(2));
    let outcome = run_client(
        cohort(&[]),
        SimOptions::new(config()),
        move |h| async move {
            // Twenty minutes of discovery chatter wait in the inbox…
            let (_, stale) = h.next_event().await;
            assert!(
                !matches!(stale, AppEvent::ReportOutcome { .. }),
                "{stale:?}"
            );
            // …and answers about somebody else arrive among the query's own.
            h.request_report(other, 2);
            h.request_history(target, other);
            query_availability(&h, target, 3).await
        },
    )
    .expect("completes");
    assert_consistent(&outcome, target);
    assert_eq!(outcome.answers.len(), 3, "{outcome:?}");
}

#[test]
fn a_client_that_monitors_the_target_answers_from_its_own_record() {
    let selector = selector();
    let target = (1..N)
        .map(id)
        .find(|&t| selector.is_monitor(id(0), t))
        .expect("node 0 monitors someone");
    let outcome =
        query(cohort(&[]), SimOptions::new(config()), target, u8::MAX).expect("completes");
    assert_consistent(&outcome, target);
    assert!(outcome.verified.contains(&id(0)), "{outcome:?}");
    assert!(outcome.answers.iter().any(|&(m, _, _)| m == id(0)));
    assert_eq!(outcome.answers.len(), outcome.verified.len());
}

#[test]
fn asking_for_nothing_or_about_oneself_is_an_empty_outcome_not_a_panic() {
    for (target, l) in [(id(1), 0), (id(0), 3)] {
        let (outcome, took) = run_client(
            cohort(&[]),
            SimOptions::new(config()),
            move |h| async move {
                let before = h.now();
                let outcome = query_availability(&h, target, l).await;
                (outcome, h.now() - before)
            },
        )
        .expect("completes");
        assert_eq!(took, 0, "nothing to wait for");
        assert_consistent(&outcome, target);
        assert!(outcome.verified.is_empty() && outcome.rejected.is_empty());
        assert_eq!(outcome.availability, None);
    }
}
