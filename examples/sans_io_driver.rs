//! A small AVMON overlay on one thread in virtual time: the runtime's own
//! driver code (codec, timer queue, commands) with no simulator, sockets or
//! wall clock. `avmon_runtime::VirtualHub` owns the clock and runs one
//! `DriverCore` per node — the loop a `Cluster` runs over UDP sockets on
//! the wall clock — through the `avmon::driver` recipe: feed an input,
//! drain the node's outputs, carry each datagram to its receiver 1 ms
//! later, repeat at the next arrival or deadline.
//!
//! ```bash
//! cargo run -p avmon-examples --release --bin sans_io_driver
//! ```

use avmon::{AppEvent, Config, MINUTE};
use avmon_runtime::VirtualHub;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 24;
    let config = Config::builder(n).k((n / 2) as u32).build()?;
    println!(
        "sans-io driver: {n} nodes, K={}, cvs={}, single thread, virtual time",
        config.k, config.cvs
    );

    // Node 0 bootstraps, everyone else joins through it; no loss.
    let mut hub = VirtualHub::new(config, n, 1, 0.0)?;
    let horizon = 20 * MINUTE;
    hub.run_until(horizon);

    // Report: consistency means every discovered relationship verifies.
    let events = hub.drain_events();
    let count = |monitor: bool| {
        let discovery = |e: &AppEvent| match e {
            AppEvent::MonitorDiscovered { .. } => monitor,
            AppEvent::TargetDiscovered { .. } => !monitor,
            _ => false,
        };
        events.iter().filter(|(_, e)| discovery(e)).count()
    };
    let with_monitor = hub
        .snapshots()
        .values()
        .filter(|s| !s.ps.is_empty())
        .count();
    avmon_examples::print_kv(&[
        ("virtual span (min)", (horizon / MINUTE).to_string()),
        ("monitor discoveries", count(true).to_string()),
        ("target discoveries", count(false).to_string()),
        ("nodes with ≥1 monitor", format!("{with_monitor}/{n}")),
    ]);
    assert!(
        with_monitor * 10 >= n * 8,
        "discovery should be nearly complete"
    );
    println!("\nevery relationship above re-verified the hash condition on acceptance");
    Ok(())
}
