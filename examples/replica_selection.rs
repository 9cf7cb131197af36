//! Availability-aware replica selection — the paper's headline motivating
//! application (Godfrey et al. [7]): with per-node availability histories,
//! "smart" replica placement beats availability-agnostic placement.
//!
//! A PlanetLab-like system runs AVMON for sixteen simulated hours; we then
//! place replicas of 50 objects two ways — uniformly at random, and on the
//! highest-availability nodes according to *verified* AVMON histories —
//! and compare how often a quorum of replicas is actually up afterwards.
//!
//! ```bash
//! cargo run -p avmon-examples --release --bin replica_selection
//! ```

use avmon::rng::Stream;
use avmon::{Config, NodeId, HOUR, MINUTE};
use avmon_app::Executor;
use avmon_churn::{planetlab_like, PLANETLAB_N};
use avmon_sim::{SimOptions, Simulation};

const REPLICAS: usize = 3;
const OBJECTS: usize = 50;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The PlanetLab-like trace: hosts have *persistent* heterogeneous
    // availability, so measured history predicts the future — the setting
    // where Godfrey et al. [7] show smart replica placement wins.
    let n = PLANETLAB_N;
    // Forgetful pinging suppresses probes during down-streaks, which
    // biases the pongs/pings estimator upward for flaky nodes; turn it
    // off when histories feed placement decisions.
    let config = Config::builder(n).k(8).cvs(16).forgetful(None).build()?;
    let trace = planetlab_like(24 * HOUR, 11);
    let horizon = trace.horizon;
    let mut rng = Stream::seeded(99);

    println!("replica selection over AVMON histories (N={n}, PL-like trace)");
    let sim = Simulation::new(trace.clone(), SimOptions::new(config).seed(11));
    let mut exec = Executor::new(sim, 11);

    // Let the overlay monitor for 16 hours of simulated time.
    exec.run_until(16 * HOUR);

    // Score every alive node through AVMON's l-out-of-K verified queries,
    // issued by eight placement clients over the next five minutes.
    let candidates: Vec<NodeId> = exec.world(|sim| sim.alive().collect());
    let scored = avmon_examples::score_by_query(
        &mut exec,
        &candidates[..8],
        &candidates,
        8, // l = K: every monitor the candidate can name
        5 * MINUTE,
    );
    println!(
        "scored {} of {} candidate nodes via verified AVMON queries",
        scored.len(),
        candidates.len()
    );

    // Placement strategies.
    let smart_pool: Vec<NodeId> = scored.iter().take(n / 4).map(|&(id, _)| id).collect();
    let mut smart_sets = Vec::with_capacity(OBJECTS);
    let mut random_sets = Vec::with_capacity(OBJECTS);
    for _ in 0..OBJECTS {
        smart_sets.push(
            rng.choose_multiple(&smart_pool, REPLICAS)
                .copied()
                .collect::<Vec<_>>(),
        );
        random_sets.push(
            rng.choose_multiple(&candidates, REPLICAS)
                .copied()
                .collect::<Vec<_>>(),
        );
    }

    // Run the remaining simulated time, then audit replica availability
    // against the ground-truth trace over that future window.
    let audit_from = exec.world(Simulation::now);
    exec.run();
    let audit = |sets: &[Vec<NodeId>]| {
        let mut object_availability = 0.0;
        let mut quorum_ok = 0usize;
        for set in sets {
            let avails: Vec<f64> = set
                .iter()
                .map(|&r| trace.availability_of(r, audit_from, horizon))
                .collect();
            // Object available iff ≥ 2 of 3 replicas are up (quorum);
            // approximate via mean availability of the majority pair.
            let mut sorted = avails.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("no NaN availability"));
            let quorum = sorted[1]; // 2nd best ≈ quorum availability proxy
            object_availability += quorum;
            if quorum > 0.8 {
                quorum_ok += 1;
            }
        }
        (object_availability / sets.len() as f64, quorum_ok)
    };

    let (smart_avail, smart_ok) = audit(&smart_sets);
    let (random_avail, random_ok) = audit(&random_sets);
    println!("\nfuture-window quorum availability ({OBJECTS} objects, {REPLICAS} replicas):");
    avmon_examples::print_kv(&[
        (
            "smart (AVMON-ranked)",
            format!("{smart_avail:.3} ({smart_ok} objects >0.8)"),
        ),
        (
            "random placement",
            format!("{random_avail:.3} ({random_ok} objects >0.8)"),
        ),
        (
            "improvement",
            format!(
                "{:+.1}%",
                (smart_avail - random_avail) / random_avail.max(1e-9) * 100.0
            ),
        ),
    ]);
    println!(
        "\n(audited over {:.1} simulated hours of future churn)",
        (horizon - audit_from) as f64 / HOUR as f64
    );
    Ok(())
}
