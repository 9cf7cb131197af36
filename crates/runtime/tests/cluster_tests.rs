//! Real-time cluster tests: the protocol running on actual threads and
//! sockets, with wall-clock periods shrunk so tests finish in seconds.

// Test target: tests are exempt from the determinism lints.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::time::Duration;

use avmon::Config;
use avmon_runtime::{Cluster, ClusterTransport, Command};

fn fast_config(n: usize) -> Config {
    // K is set to 2n/3 (threshold ≈ 0.67) so that in these tiny clusters
    // every node has a non-empty pinging set with near-certainty — at the
    // paper's K = log2 N, a 16-node system leaves a node with zero
    // monitors with probability ~1%, which would flake the tests.
    Config::builder(n)
        .k((2 * n / 3) as u32)
        .protocol_period(120)
        .monitoring_period(120)
        .ping_timeout(50)
        .build()
        .unwrap()
}

#[test]
fn memory_cluster_discovers_monitors() {
    let n = 24;
    let cluster = Cluster::builder(fast_config(n), n)
        .seed(42)
        .spawn()
        .unwrap();
    let ok = cluster.wait_for_discovery(1, Duration::from_secs(30));
    let snapshots = cluster.snapshots();
    cluster.shutdown();
    assert!(ok, "every node should discover ≥1 monitor within 30 s");
    // Views converge to the configured size, overlays carry monitors.
    let with_targets = snapshots.values().filter(|s| !s.ts.is_empty()).count();
    assert!(
        with_targets > n / 2,
        "most nodes should be monitoring someone"
    );
}

#[test]
fn udp_cluster_discovers_monitors() {
    let n = 12;
    let cluster = Cluster::builder(fast_config(n), n)
        .transport(ClusterTransport::Udp)
        .seed(43)
        .spawn()
        .unwrap();
    let ok = cluster.wait_for_discovery(1, Duration::from_secs(30));
    let snapshots = cluster.snapshots();
    cluster.shutdown();
    assert!(ok, "UDP overlay should discover monitors within 30 s");
    assert_eq!(snapshots.len(), n);
}

#[test]
fn lossy_network_still_converges() {
    let n = 16;
    let cluster = Cluster::builder(fast_config(n), n)
        .loss(0.10)
        .seed(44)
        .spawn()
        .unwrap();
    let ok = cluster.wait_for_discovery(1, Duration::from_secs(45));
    cluster.shutdown();
    assert!(ok, "10% loss must not prevent discovery (timeouts retry)");
}

#[test]
fn out_of_range_loss_is_an_input_error() {
    for loss in [-0.1, 1.0, 1.5, f64::NAN] {
        let err = Cluster::builder(fast_config(4), 4)
            .loss(loss)
            .spawn()
            .err()
            .unwrap_or_else(|| panic!("loss {loss} accepted"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
}

#[test]
fn report_commands_round_trip() {
    let n = 16;
    let cluster = Cluster::builder(fast_config(n), n)
        .seed(45)
        .spawn()
        .unwrap();
    assert!(cluster.wait_for_discovery(1, Duration::from_secs(30)));
    let ids = cluster.ids().to_vec();
    let _ = cluster.drain_events();
    // Ask node 0 to fetch a verified monitor report for node 1.
    cluster.command(
        ids[0],
        Command::RequestReport {
            target: ids[1],
            count: 2,
        },
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut outcome = None;
    while std::time::Instant::now() < deadline && outcome.is_none() {
        for (node, event) in cluster.drain_events() {
            if let avmon::AppEvent::ReportOutcome {
                target,
                verification,
            } = event
            {
                if node == ids[0] && target == ids[1] {
                    outcome = Some(verification);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.shutdown();
    let verification = outcome.expect("report outcome should arrive");
    assert!(verification.all_verified(), "honest monitors verify");
}

#[test]
fn monitoring_estimates_appear_over_time() {
    let n = 16;
    let cluster = Cluster::builder(fast_config(n), n)
        .seed(46)
        .spawn()
        .unwrap();
    assert!(cluster.wait_for_discovery(1, Duration::from_secs(30)));
    // Give the monitoring protocol a few periods to ping.
    std::thread::sleep(Duration::from_millis(1_500));
    let snapshots = cluster.snapshots();
    cluster.shutdown();
    let with_estimates = snapshots
        .values()
        .filter(|s| !s.estimates.is_empty())
        .count();
    assert!(
        with_estimates > 0,
        "monitors should have availability estimates"
    );
    for s in snapshots.values() {
        for &(_, est) in &s.estimates {
            assert!((0.0..=1.0).contains(&est));
        }
    }
}
