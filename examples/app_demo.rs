//! One application source, one executor, two of its worlds: the
//! `watchdog_selector` app from `avmon-app` (periodic least-available-k
//! selection plus a churn watchdog) runs **byte-deterministically** on an
//! `Executor<Simulation>`, and the *same async function* drives a live UDP
//! cluster on an `Executor<Cluster>`.
//!
//! ```text
//! cargo run --release -p avmon-examples --bin app_demo            # sim, seed 7
//! cargo run --release -p avmon-examples --bin app_demo -- sim 21  # sim, another seed
//! cargo run --release -p avmon-examples --bin app_demo -- live    # 3-node UDP cluster
//! ```
//!
//! In sim mode the demo runs the identical scenario twice and asserts the
//! serialized decision logs are byte-identical — the executor's
//! determinism contract over a simulation.

use avmon::{Config, MINUTE};
use avmon_app::{apps::watchdog_selector, Executor};
use avmon_churn::stat;
use avmon_runtime::Cluster;
use avmon_sim::{SimOptions, Simulation};

fn run_sim(seed: u64) -> (String, u64) {
    let n = 40;
    let trace = stat(n, 20 * MINUTE, 0.2, seed);
    let ids: Vec<_> = trace.identities().into_iter().collect();
    let opts = SimOptions::new(Config::builder(n).build().unwrap()).seed(seed);
    let sim = Simulation::new(trace, opts);
    let mut exec = Executor::new(sim, seed);
    for &id in &ids[..4] {
        exec.spawn(id, |h| watchdog_selector(h, 2 * MINUTE, 3));
    }
    exec.run();
    let (report, log) = exec.into_report();
    let json = log.to_json().expect("decision logs serialize");
    (json, report.invariants.rng_ledger.app_draws)
}

fn run_live(seed: u64) -> String {
    let n = 3;
    let config = Config::builder(n)
        .k(2)
        .protocol_period(150)
        .monitoring_period(150)
        .ping_timeout(60)
        .build()
        .unwrap();
    let mut cluster = Cluster::new(config, n, seed).expect("cluster binds");
    assert!(
        cluster.run_until_discovery(1, cluster.now() + 30_000),
        "discovery stalled"
    );
    let ids = cluster.ids().to_vec();
    let mut exec = Executor::new(cluster, seed);
    for &id in &ids {
        exec.spawn(id, |h| watchdog_selector(h, 500, 2));
    }
    let end = exec.world(Cluster::now) + 4_000;
    exec.run_until(end);
    exec.log().to_json().expect("decision logs serialize")
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| "sim".into());
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    match mode.as_str() {
        "sim" => {
            let (a, draws) = run_sim(seed);
            let (b, _) = run_sim(seed);
            assert_eq!(a, b, "same-seed sim runs must be byte-identical");
            println!("app_demo sim: seed {seed}, {draws} app-stream draws");
            println!("decision log ({} bytes, byte-identical x2):", a.len());
            println!("{a}");
        }
        "live" => {
            let log = run_live(seed);
            println!("app_demo live: seed {seed}, 3-node UDP cluster");
            println!("decision log:");
            println!("{log}");
        }
        other => {
            eprintln!("usage: app_demo [sim|live] [seed]   (got {other:?})");
            std::process::exit(2);
        }
    }
}
