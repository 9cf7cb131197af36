//! The runtime's driver code on a [`VirtualHub`]: the codec, the timer
//! queue's liveness filter, commands and kill / restart, in virtual time.
//! Nothing here waits on or reads a wall clock, so each run is the same
//! run, and a snapshot taken at one virtual instant is a consistent cut.

use avmon::{AppEvent, Config, HashSelector, MonitorSelector as _, TimeMs, MINUTE};
use avmon_runtime::{Command, VirtualHub};

/// The paper's period: the protocol and monitoring timers both use it.
const PERIOD: TimeMs = MINUTE;

fn config(n: usize) -> Config {
    // K = 2n/3 (threshold ≈ 0.67), so that in these small clusters every
    // node has a non-empty pinging set with near-certainty.
    Config::builder(n).k((2 * n / 3) as u32).build().unwrap()
}

fn hub(n: usize, seed: u64, loss: f64) -> VirtualHub {
    VirtualHub::new(config(n), n, seed, loss).unwrap()
}

fn step(hub: &mut VirtualHub) {
    hub.run_until(hub.now() + PERIOD);
}

/// Steps period by period until every running node knows a monitor; false
/// if `periods` pass first.
fn discover(hub: &mut VirtualHub, periods: u32) -> bool {
    (0..periods).any(|_| {
        step(hub);
        hub.snapshots().values().all(|s| !s.ps.is_empty())
    })
}

#[test]
fn memory_cluster_discovers_monitors() {
    let n = 24;
    let mut hub = hub(n, 42, 0.0);
    assert!(discover(&mut hub, 30), "every node discovers ≥1 monitor");
    let snapshots = hub.snapshots();
    assert_eq!(snapshots.len(), n);
    let with_targets = snapshots.values().filter(|s| !s.ts.is_empty()).count();
    assert!(with_targets > n / 2, "most nodes monitor someone");
}

#[test]
fn lossy_network_still_converges() {
    let mut hub = hub(16, 44, 0.10);
    assert!(discover(&mut hub, 30), "10% loss must not stop discovery");
}

#[test]
fn out_of_range_loss_is_an_input_error() {
    for loss in [-0.1, 1.0, 1.5, f64::NAN] {
        let err = VirtualHub::new(config(4), 4, 1, loss).err();
        assert!(
            matches!(err, Some(avmon::Error::InvalidConfig(_))),
            "loss {loss}: {err:?}"
        );
    }
}

#[test]
fn report_commands_round_trip() {
    let mut hub = hub(16, 45, 0.0);
    assert!(discover(&mut hub, 30));
    let ids = hub.ids().to_vec();
    let _ = hub.drain_events();
    // Ask node 0 to fetch a verified monitor report for node 1.
    let (target, count) = (ids[1], 2);
    hub.command(ids[0], Command::RequestReport { target, count });
    step(&mut hub);
    let verified = hub.drain_events().into_iter().find_map(|(node, event)| {
        let AppEvent::ReportOutcome {
            target,
            verification,
        } = event
        else {
            return None;
        };
        (node == ids[0] && target == ids[1]).then(|| verification.all_verified())
    });
    assert_eq!(
        verified,
        Some(true),
        "honest monitors verify within a period"
    );
}

#[test]
fn monitoring_estimates_appear_over_time() {
    let mut hub = hub(16, 46, 0.0);
    assert!(discover(&mut hub, 30));
    hub.run_until(hub.now() + 5 * PERIOD);
    let snapshots = hub.snapshots();
    let with_estimates = snapshots.values().filter(|s| !s.estimates.is_empty());
    assert!(with_estimates.count() > 0, "monitors estimate availability");
    let mut estimates = snapshots.values().flat_map(|s| &s.estimates);
    assert!(estimates.all(|&(_, a)| (0.0..=1.0).contains(&a)));
}

/// Consistency at every instant, not only at the end: at each period's cut,
/// every PS and TS entry of every node satisfies the hash condition.
#[test]
fn every_relationship_verifies_at_every_period() {
    let n = 14;
    let selector = HashSelector::from_config(&config(n));
    let mut hub = hub(n, 7, 0.0);
    let mut relationships = 0;
    for _ in 0..30 {
        step(&mut hub);
        for (&id, s) in &hub.snapshots() {
            for &m in &s.ps {
                assert!(selector.is_monitor(m, id), "{m} in PS({id}) must verify");
            }
            for &t in &s.ts {
                assert!(selector.is_monitor(id, t), "{t} in TS({id}) must verify");
            }
            relationships += s.ps.len() + s.ts.len();
        }
    }
    assert!(relationships > 0, "the overlay formed relationships");
}

#[test]
fn kill_and_restart_preserves_monitoring_state() {
    // Crash-stop a node, let the overlay notice, restart it: consistency
    // means its monitors are unchanged and its persistent state survives.
    let n = 14;
    let mut hub = hub(n, 9, 0.0);
    assert!(discover(&mut hub, 30));
    let victim = hub.ids()[3];
    step(&mut hub); // accumulate some pings
    let before = hub.snapshot(victim).expect("the victim runs");
    assert!(!before.ps.is_empty());

    hub.kill(victim);
    assert_eq!(hub.snapshots().len(), n - 1);
    step(&mut hub); // the others observe the crash

    hub.restart(victim).expect("restart works");
    assert_eq!(hub.snapshots().len(), n);
    assert!(hub.restart(victim).is_err(), "double restart is rejected");
    let stranger = avmon::NodeId::from_index(n as u32);
    assert!(hub.restart(stranger).is_err(), "a non-member is rejected");

    step(&mut hub);
    let after = hub.snapshot(victim).expect("the victim runs again");
    let lost: Vec<_> = before.ps.iter().filter(|m| !after.ps.contains(m)).collect();
    assert!(
        lost.is_empty(),
        "monitors {lost:?} lost across crash-restart"
    );
}

/// Theorem 2 on the live code: a dead node leaves every coarse view within
/// `⌈dead_node_gc_periods(cvs, N)⌉ = ⌈cvs · ln N⌉` periods, the bound
/// `tests/theorems.rs` holds the simulator to.
#[test]
fn dead_node_leaves_every_view_within_the_theorem_2_bound() {
    let n = 24;
    let mut hub = hub(n, 12, 0.0);
    assert!(discover(&mut hub, 30));
    let victim = hub.ids()[5];
    let referenced = |hub: &VirtualHub| {
        let views = hub.snapshots().into_values();
        views.filter(|s| s.view.contains(&victim)).count()
    };
    assert!(referenced(&hub) > 0, "the victim is known before it dies");
    hub.kill(victim);
    let bound = (config(n).cvs as f64 * (n as f64).ln()).ceil() as u64;
    hub.run_until(hub.now() + bound * PERIOD);
    assert_eq!(referenced(&hub), 0, "still in a view after {bound} periods");
}

/// Same seed, same run: two hubs yield identical snapshot streams, period
/// by period, lossy links and a kill included.
#[test]
fn same_seed_hubs_give_identical_snapshot_streams() {
    let stream = |seed| {
        let mut hub = hub(16, seed, 0.1);
        let mut frames = Vec::new();
        for period in 0..20 {
            if period == 10 {
                hub.kill(hub.ids()[2]);
            }
            step(&mut hub);
            frames.push(format!("{:?}", hub.snapshots()));
        }
        frames
    };
    let (a, b) = (stream(21), stream(21));
    assert!(a == b, "same-seed snapshot streams diverged");
    assert!(a != stream(22), "the seed reaches the run");
}
