//! The same protocol over real threads and sockets: simulator and runtime
//! must agree on behaviour.

#![expect(clippy::disallowed_methods, reason = "tests are exempt")]

use std::time::Duration;

use avmon::Config;
use avmon_runtime::{Cluster, ClusterTransport};

fn fast_config(n: usize) -> Config {
    Config::builder(n)
        .k((2 * n / 3) as u32)
        .protocol_period(150)
        .monitoring_period(150)
        .ping_timeout(60)
        .build()
        .unwrap()
}

#[test]
fn memory_and_udp_clusters_agree_on_relationships() {
    // The monitor relationship is a pure function of identities; verify a
    // running cluster only ever admits hash-verified monitors.
    let n = 14;
    let config = fast_config(n);
    let cluster = Cluster::builder(config.clone(), n).seed(7).spawn().unwrap();
    assert!(cluster.wait_for_discovery(1, Duration::from_secs(30)));
    let snapshots = cluster.snapshots();
    cluster.shutdown();

    let selector = avmon::HashSelector::from_config(&config);
    use avmon::MonitorSelector as _;
    for (&id, snapshot) in &snapshots {
        for &m in &snapshot.ps {
            assert!(selector.is_monitor(m, id), "{m} in PS({id}) must verify");
        }
        for &t in &snapshot.ts {
            assert!(
                selector.is_monitor(id, t),
                "{id} monitoring {t} must verify"
            );
        }
    }
}

#[test]
fn kill_and_restart_preserves_monitoring_state() {
    // Crash-stop a node, let the overlay notice, restart it: consistency
    // means its monitors are unchanged and its persistent state survives.
    let n = 14;
    let mut cluster = Cluster::builder(fast_config(n), n).seed(9).spawn().unwrap();
    assert!(cluster.wait_for_discovery(1, Duration::from_secs(30)));
    let victim = cluster.ids()[3];
    std::thread::sleep(Duration::from_millis(600)); // accumulate some pings
    let before = cluster.snapshot(victim).expect("snapshot exists");
    assert!(!before.ps.is_empty());

    cluster.kill(victim);
    assert_eq!(cluster.running_ids().count(), n - 1);
    std::thread::sleep(Duration::from_millis(600)); // others observe the crash

    cluster.restart(victim).expect("restart works");
    assert_eq!(cluster.running_ids().count(), n);
    // Double restart is rejected.
    assert!(cluster.restart(victim).is_err());

    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut after = None;
    while std::time::Instant::now() < deadline {
        if let Some(s) = cluster.snapshot(victim) {
            if !s.ps.is_empty() {
                after = Some(s);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster.shutdown();
    let after = after.expect("victim republishes after restart");
    // Persistent PS survived the crash (no history transfer needed).
    for m in &before.ps {
        assert!(
            after.ps.contains(m),
            "monitor {m} lost across crash-restart"
        );
    }
}

#[test]
fn udp_cluster_estimates_availability_of_live_nodes() {
    let n = 10;
    let cluster = Cluster::builder(fast_config(n), n)
        .transport(ClusterTransport::Udp)
        .seed(8)
        .spawn()
        .unwrap();
    assert!(cluster.wait_for_discovery(1, Duration::from_secs(45)));
    std::thread::sleep(Duration::from_millis(1500));
    let snapshots = cluster.snapshots();
    cluster.shutdown();
    // Everyone is up the whole time: estimates must be high. (The bound is
    // generous because wall-clock ping timeouts can fire spuriously when
    // the test box is saturated.)
    let mut estimates = Vec::new();
    for s in snapshots.values() {
        for &(_, a) in &s.estimates {
            estimates.push(a);
        }
    }
    assert!(!estimates.is_empty());
    let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
    assert!(
        mean > 0.6,
        "live-node availability estimate {mean} should be near 1"
    );
}
