//! The same protocol over real UDP sockets on the wall clock, with periods
//! shrunk so the tests finish in seconds. (The runtime's
//! virtual-time tests are in `crates/runtime/tests/cluster_tests.rs`.)

use avmon::Config;
use avmon_runtime::Cluster;

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
fn udp_cluster_estimates_availability_of_live_nodes() {
    let n = 10;
    let mut cluster = Cluster::new(fast_config(n), n, 8).unwrap();
    assert!(cluster.run_until_discovery(1, cluster.now() + 45_000));
    cluster.run_until(cluster.now() + 1_500);
    let snapshots = cluster.snapshots();
    assert_eq!(snapshots.len(), n, "every node runs");
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
