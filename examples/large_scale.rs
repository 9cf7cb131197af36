//! Running AVMON at paper scale: a 50 000-node overlay with the invariant
//! checker ON.
//!
//! The paper's §5 scalability argument is precisely about large `N` —
//! O(1) per-node memory and computation as the system grows. This example
//! reproduces that regime end-to-end: it simulates an `N`-node STAT
//! overlay (default 50k), keeps the always-on invariant checker in
//! `Record` mode the whole run (incremental checking makes that
//! affordable), and prints the paper's per-node metrics plus the checker's
//! verdict, the wall-clock cost and the process's peak resident set.
//!
//! ```text
//! cargo run --release -p avmon-examples --bin large_scale               # N = 50 000
//! cargo run --release -p avmon-examples --bin large_scale -- 100000     # N = 100 000
//! cargo run --release -p avmon-examples --bin large_scale -- 10000 10 5 # smoke: N=10k,
//!                                                                       # 10 min warmup,
//!                                                                       # 5 min measured
//! ```

// Example: measures real elapsed time; outside the determinism boundary.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::time::Instant;

use avmon::{Config, MINUTE};
use avmon_churn::{synthetic, SynthParams};
use avmon_examples::{parse_large_scale_args, peak_rss_kb, print_kv, LargeScaleArgs};
use avmon_sim::{metrics, SimOptions, Simulation};

fn main() {
    let LargeScaleArgs {
        n,
        warmup_min,
        duration_min,
    } = match parse_large_scale_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    // STAT trace with a shortened warm-up: discovery needs ≈ N/cvs²
    // protocol periods (≈ 14 at N = 50k with cvs = 60), so a full
    // paper-length hour of warm-up would only burn wall-clock here.
    let params = SynthParams {
        n,
        churn_per_hour: 0.0,
        birth_death_per_day: 0.0,
        warmup: warmup_min * MINUTE,
        duration: duration_min * MINUTE,
        control_fraction: 0.01,
        seed: 7,
    };
    let config = Config::builder(n).build().expect("valid config");
    println!(
        "large_scale: N = {n}, cvs = {}, K = {}, {warmup_min} min warmup + {duration_min} min measured",
        config.cvs, config.k
    );

    let build_start = Instant::now(); // detlint::allow(banned-clock): measuring real build time of the demo
    let trace = synthetic(params);
    println!(
        "trace: {} churn events, built in {:.1?}",
        trace.events.len(),
        build_start.elapsed()
    );

    // Checker stays ON (Record, the default incremental strategy). Its
    // end-of-run eventual-agreement sweep runs only after a grace of
    // (ln(N·K) + 2)·N/cvs² protocol periods — several simulated hours at
    // 50k, longer than the default run here — and then costs a few percent
    // of the hashing the run has already done.
    let opts = SimOptions::new(config).seed(7);

    let sim_start = Instant::now(); // detlint::allow(banned-clock): measuring real sim throughput
    let mut sim = Simulation::new(trace, opts);
    let horizon = sim.trace().horizon;
    // Advance in 5-minute slices so long runs show a heartbeat.
    let mut t = 0;
    while t < horizon {
        t = (t + 5 * MINUTE).min(horizon);
        let slice = Instant::now(); // detlint::allow(banned-clock): heartbeat timing of the demo
        sim.run_until(t);
        println!(
            "  t = {:>3} min  (+{:>6.1?})  alive = {}",
            t / MINUTE,
            slice.elapsed(),
            sim.alive().count()
        );
    }
    let sim_wall = sim_start.elapsed();
    let calendar = sim.calendar_stats();
    let report = sim.into_report();

    let lat1: Vec<f64> = report
        .discovery_latencies(1)
        .iter()
        .map(|&ms| ms as f64 / 1_000.0)
        .collect();
    let comps = report.comps_per_second();
    let mem = report.memory_entries();
    let bw = report.bandwidth_bps();
    let inv = &report.invariants;
    println!();
    print_kv(&[
        ("wall-clock (sim)", format!("{sim_wall:.1?}")),
        (
            "discovery (1st monitor)",
            format!(
                "mean {:.1} s over {} control nodes ({} undiscovered)",
                metrics::mean(&lat1),
                lat1.len(),
                report.undiscovered(1)
            ),
        ),
        (
            "per-node computation",
            format!("{:.2} hash checks/s (mean)", metrics::mean(&comps)),
        ),
        (
            "per-node memory",
            format!("{:.1} entries (mean)", metrics::mean(&mem)),
        ),
        (
            "per-node bandwidth",
            format!("{:.1} B/s out (mean)", metrics::mean(&bw)),
        ),
        (
            "checker",
            format!(
                "{} checks, {} set scans skipped, {} memo hits",
                inv.checks, inv.set_scans_skipped, inv.memo_hits
            ),
        ),
        (
            "calendar",
            format!(
                "{} heap pops, {} lane pops, {} wheel pops ({} dead expiries skipped)",
                calendar.heap_pops, calendar.lane_pops, calendar.wheel_pops, calendar.expire_skips
            ),
        ),
        (
            "peak RSS",
            peak_rss_kb().map_or("n/a".to_string(), |kb| {
                format!("{kb} kB ({:.1} MB)", kb as f64 / 1024.0)
            }),
        ),
        (
            "verdict",
            if inv.passed() {
                format!("PASSED ({} warnings)", inv.warnings.len())
            } else {
                format!("{} VIOLATIONS", inv.violations.len())
            },
        ),
    ]);
    assert!(
        inv.passed(),
        "invariant violations at scale: {:?}",
        inv.violations
    );
}
