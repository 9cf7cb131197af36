//! Availability-based parent selection for overlay multicast — the AVCast
//! use case ([11], the paper AVMON's monitor relationship comes from).
//!
//! Every prospective child verifies candidate parents' availability via
//! AVMON's l-out-of-K monitor reports, then attaches to the most-available
//! verified parent. We compare delivered reliability against random parent
//! selection under SYNTH-BD churn.
//!
//! ```bash
//! cargo run -p avmon-examples --release --bin multicast_reliability
//! ```

use avmon::rng::Stream;
use avmon::{Config, NodeId, HOUR, MINUTE};
use avmon_app::Executor;
use avmon_churn::{planetlab_like, PLANETLAB_N};
use avmon_sim::{SimOptions, Simulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Heterogeneous persistent availability (PL-like hosts) is what makes
    // history-based parent selection meaningful.
    let n = PLANETLAB_N;
    // Forgetful pinging suppresses probes during down-streaks, which
    // biases the pongs/pings estimator upward for flaky nodes; turn it
    // off when histories feed placement decisions.
    let config = Config::builder(n).k(8).cvs(16).forgetful(None).build()?;
    let trace = planetlab_like(24 * HOUR, 23);
    let horizon = trace.horizon;
    let mut rng = Stream::seeded(5);

    println!("availability-aware multicast parents (N={n}, PL-like trace)");
    let sim = Simulation::new(trace.clone(), SimOptions::new(config).seed(23));
    let mut exec = Executor::new(sim, 23);
    exec.run_until(16 * HOUR);

    // The multicast source plus candidate interior nodes.
    let alive: Vec<NodeId> = exec.world(|sim| sim.alive().collect());
    let source = alive[0];

    // Eight prospective children score the candidate parents by verified
    // AVMON availability (l = K: every monitor a candidate can name).
    let parent_scores =
        avmon_examples::score_by_query(&mut exec, &alive[1..9], &alive[1..], 8, 5 * MINUTE);
    let fanout = 8usize;
    let smart_parents: Vec<NodeId> = parent_scores
        .iter()
        .take(fanout)
        .map(|&(id, _)| id)
        .collect();
    let random_parents: Vec<NodeId> = rng.choose_multiple(&alive[1..], fanout).copied().collect();

    // Children attach uniformly to a parent in each scheme; a child
    // receives a packet iff its parent is up at send time (source assumed
    // up). Audit delivery over the future window using trace truth.
    let children: Vec<NodeId> = alive[1..]
        .iter()
        .copied()
        .filter(|id| !smart_parents.contains(id) && !random_parents.contains(id))
        .collect();
    let audit_from = exec.world(Simulation::now);
    exec.run();

    let reliability = |parents: &[NodeId]| {
        let mut delivered = 0.0;
        for (i, _child) in children.iter().enumerate() {
            let parent = parents[i % parents.len()];
            delivered += trace.availability_of(parent, audit_from, horizon);
        }
        delivered / children.len() as f64
    };
    let smart = reliability(&smart_parents);
    let random = reliability(&random_parents);

    println!(
        "\nmulticast delivery reliability over {} children:",
        children.len()
    );
    avmon_examples::print_kv(&[
        ("source", source.to_string()),
        ("AVMON-verified parents", format!("{smart:.3}")),
        ("random parents", format!("{random:.3}")),
        (
            "improvement",
            format!("{:+.1}%", (smart - random) / random.max(1e-9) * 100.0),
        ),
    ]);
    println!(
        "\n(parents chosen at t={:.1}h, audited to t={:.1}h)",
        audit_from as f64 / HOUR as f64,
        horizon as f64 / HOUR as f64
    );
    Ok(())
}
