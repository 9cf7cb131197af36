//! A real AVMON deployment: 20 nodes on localhost UDP sockets, each an
//! OS thread running the same state machine the simulator evaluates, with
//! wall-clock protocol periods shrunk to 300 ms so the demo finishes in
//! seconds.
//!
//! ```bash
//! cargo run -p avmon-examples --release --bin udp_cluster
//! ```

use std::time::Duration;

use avmon::Config;
use avmon_runtime::Cluster;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 20;
    let config = Config::builder(n)
        .k((2 * n / 3) as u32) // dense monitors so a small cluster is covered
        .protocol_period(300)
        .monitoring_period(300)
        .ping_timeout(120)
        .build()?;
    println!(
        "spawning {n} AVMON nodes on UDP loopback (K={}, cvs={})…",
        config.k, config.cvs
    );
    let cluster = Cluster::builder(config, n).seed(17).spawn()?;

    let converged = cluster.wait_for_discovery(1, Duration::from_secs(30));
    println!(
        "discovery {} after startup",
        if converged {
            "complete"
        } else {
            "incomplete (timeout)"
        }
    );

    // Let monitoring pings accumulate a little history.
    std::thread::sleep(Duration::from_secs(2));

    let snapshots = cluster.snapshots();
    println!(
        "\n{:<22} {:>5} {:>5} {:>5} {:>8} {:>10}",
        "node (ip:port)", "|CV|", "|PS|", "|TS|", "pings", "est.avail"
    );
    let mut ids: Vec<_> = snapshots.keys().copied().collect();
    ids.sort();
    for id in ids {
        let s = &snapshots[&id];
        let avg_est = if s.estimates.is_empty() {
            f64::NAN
        } else {
            s.estimates.iter().map(|&(_, a)| a).sum::<f64>() / s.estimates.len() as f64
        };
        println!(
            "{:<22} {:>5} {:>5} {:>5} {:>8} {:>10.3}",
            id.to_string(),
            s.view.len(),
            s.ps.len(),
            s.ts.len(),
            s.stats.monitor_pings_sent,
            avg_est,
        );
    }

    cluster.shutdown();
    println!("\ncluster shut down cleanly");
    Ok(())
}
