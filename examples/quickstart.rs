//! Quickstart: build a 200-node AVMON overlay in the simulator, let it run
//! for a few protocol periods, and inspect the monitoring relationships.
//!
//! ```bash
//! cargo run -p avmon-examples --release --bin quickstart
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use avmon::{Config, HOUR, MINUTE};
use avmon_app::{apps::query_availability, Executor};
use avmon_churn::stat;
use avmon_sim::{metrics, SimOptions, Simulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 200;

    // 1. Consistent system parameters (every node must share these).
    let config = Config::builder(n).build()?;
    println!(
        "AVMON quickstart: N={n}, K={}, cvs={}",
        config.k, config.cvs
    );

    // 2. A static availability model: 200 nodes, plus a 10% control group
    //    joining after the 1-hour warm-up (the paper's Fig. 3 setup).
    let trace = stat(n, 30 * MINUTE, 0.1, 7);

    // 3. Run the overlay, with one application on board: five minutes
    //    before the end a long-lived node asks a control-group node for
    //    three of its monitors, checks the consistency condition on each
    //    claim, and asks the verified ones what they measured (the
    //    "l out of K" policy, §3.3).
    let id = *trace.control_group.first().expect("control group");
    let asker = trace.identities().into_iter().next().expect("a node");
    let ask_at = trace.horizon - 5 * MINUTE;
    let sim = Simulation::new(trace, SimOptions::new(config.clone()).seed(7));
    let mut exec = Executor::new(sim, 7);
    let answer = Rc::new(RefCell::new(None));
    let slot = Rc::clone(&answer);
    exec.spawn(asker, move |h| async move {
        h.sleep(ask_at).await;
        *slot.borrow_mut() = Some(query_availability(&h, id, 3).await);
    });
    exec.run();

    // 4. Discovery: how quickly did the joiners find their monitors?
    let report = exec.world(Simulation::report);
    let latencies: Vec<f64> = report
        .discovery_latencies(1)
        .iter()
        .map(|&ms| ms as f64 / 1000.0)
        .collect();
    avmon_examples::print_kv(&[
        ("control nodes", report.discovery.len().to_string()),
        ("discovered ≥1 monitor", latencies.len().to_string()),
        (
            "avg discovery (s)",
            format!("{:.1}", metrics::mean(&latencies)),
        ),
        (
            "expected E[D]/K (s)",
            format!(
                "{:.1}",
                avmon_analysis::expected_discovery_periods(config.cvs, n as f64)
                    / f64::from(config.k)
                    * 60.0
            ),
        ),
    ]);

    // 5. Inspect one node's sets.
    println!("\nnode {id}:");
    let show = |ids: Vec<avmon::NodeId>| {
        ids.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    };
    exec.world(|sim| {
        let node = sim.node(id).expect("alive");
        avmon_examples::print_kv(&[
            ("pinging set PS(x)", show(node.pinging_set().collect())),
            ("target set TS(x)", show(node.target_set().collect())),
            ("coarse view size", node.view().len().to_string()),
            ("memory entries", node.memory_entries().to_string()),
        ]);
    });

    // 6. The verified availability the application obtained.
    if let Some(outcome) = answer.take() {
        if let Some(availability) = outcome.availability {
            println!(
                "\nverified availability of {id} via {} monitor(s): {availability:.3}",
                outcome.verified.len()
            );
        }
    }

    // 7. Overhead: what did the overlay cost per node?
    let bw = report.bandwidth_bps();
    let comps = report.comps_per_second();
    println!();
    avmon_examples::print_kv(&[
        ("avg bandwidth (B/s)", format!("{:.2}", metrics::mean(&bw))),
        (
            "avg hash checks (/s)",
            format!("{:.2}", metrics::mean(&comps)),
        ),
        (
            "simulated span",
            format!("{:.1} h", (HOUR / 2 + HOUR) as f64 / HOUR as f64),
        ),
    ]);
    Ok(())
}
