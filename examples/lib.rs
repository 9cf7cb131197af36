//! Shared helpers for the AVMON example binaries.
//!
//! The examples demonstrate the workloads the paper's introduction
//! motivates: availability-aware replica selection [7], availability-based
//! multicast parent selection [11], plus operational tooling (a churn
//! dashboard) and a real UDP deployment.

use std::cell::RefCell;
use std::rc::Rc;

use avmon::{DurMs, NodeId};
use avmon_app::{apps::query_availability, Executor};
use avmon_sim::Simulation;

/// Pretty-prints a `(label, value)` listing with aligned labels.
pub fn print_kv(pairs: &[(&str, String)]) {
    let width = pairs.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, v) in pairs {
        println!("  {k:<width$}  {v}");
    }
}

/// This process's peak resident set so far (`VmHWM` in
/// `/proc/self/status`), in kB; `None` where the kernel does not report it.
pub fn peak_rss_kb() -> Option<u64> {
    vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Parsed command line of the `large_scale` example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LargeScaleArgs {
    /// Overlay size `N` (arg 1, default 50 000).
    pub n: usize,
    /// Warm-up minutes before measurement (arg 2, default 30).
    pub warmup_min: u64,
    /// Measured minutes (arg 3, default 10).
    pub duration_min: u64,
}

impl Default for LargeScaleArgs {
    fn default() -> Self {
        LargeScaleArgs {
            n: 50_000,
            warmup_min: 30,
            duration_min: 10,
        }
    }
}

/// Usage text printed when `large_scale` rejects its command line.
pub const LARGE_SCALE_USAGE: &str = "usage: large_scale [N] [WARMUP_MIN] [DURATION_MIN]";

/// Parses the positional arguments of the `large_scale` example.
///
/// Every argument is optional, but a *present* argument must parse: a
/// malformed value is an error (with usage text), never a silent fall
/// back to the default — `large_scale 50k` running the 50 000-node
/// default would burn an hour before anyone noticed the typo.
pub fn parse_large_scale_args(
    args: impl Iterator<Item = String>,
) -> Result<LargeScaleArgs, String> {
    fn field<T: std::str::FromStr>(arg: Option<&str>, name: &str) -> Result<Option<T>, String> {
        match arg {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("large_scale: invalid {name} {raw:?}\n{LARGE_SCALE_USAGE}")),
        }
    }
    let args: Vec<String> = args.collect();
    if args.len() > 3 {
        return Err(format!(
            "large_scale: expected at most 3 arguments, got {}\n{LARGE_SCALE_USAGE}",
            args.len()
        ));
    }
    let arg = |i: usize| args.get(i).map(String::as_str);
    let defaults = LargeScaleArgs::default();
    Ok(LargeScaleArgs {
        n: field(arg(0), "N")?.unwrap_or(defaults.n),
        warmup_min: field(arg(1), "WARMUP_MIN")?.unwrap_or(defaults.warmup_min),
        duration_min: field(arg(2), "DURATION_MIN")?.unwrap_or(defaults.duration_min),
    })
}

/// Scores `candidates` by verified availability, the way a deployment
/// would: the `clients` (alive nodes, at least two) split the list, and
/// each runs one §3.3 query after another — `l` monitors reported by the
/// candidate, every claim re-hashed, the verified monitors' histories
/// averaged — from a task on its own node. Runs the simulation for
/// `budget` and returns `(candidate, availability)` for every query that
/// produced an answer by then, best first (ties: more monitoring pings
/// behind the figure first, then identity).
pub fn score_by_query(
    exec: &mut Executor<Simulation>,
    clients: &[NodeId],
    candidates: &[NodeId],
    l: u8,
    budget: DurMs,
) -> Vec<(NodeId, f64)> {
    let mut shares = vec![Vec::new(); clients.len()];
    for (i, &candidate) in candidates.iter().enumerate() {
        // Nobody vouches for itself: a client's own turn goes next door.
        let own_turn = clients[i % clients.len()] == candidate;
        shares[(i + usize::from(own_turn)) % clients.len()].push(candidate);
    }
    let scores = Rc::new(RefCell::new(Vec::new()));
    for (&client, share) in clients.iter().zip(shares) {
        let scores = Rc::clone(&scores);
        exec.spawn(client, move |h| async move {
            for candidate in share {
                let outcome = query_availability(&h, candidate, l).await;
                if let Some(availability) = outcome.availability {
                    let samples: u64 = outcome.answers.iter().map(|a| a.2).sum();
                    scores.borrow_mut().push((candidate, availability, samples));
                }
            }
        });
    }
    let deadline = exec.world(Simulation::now) + budget;
    exec.run_until(deadline);
    let mut scores = scores.take();
    scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
    scores.into_iter().map(|(id, a, _)| (id, a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<LargeScaleArgs, String> {
        parse_large_scale_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn no_args_yields_the_defaults() {
        assert_eq!(parse(&[]).unwrap(), LargeScaleArgs::default());
    }

    #[test]
    fn all_args_parse_positionally() {
        assert_eq!(
            parse(&["10000", "10", "5"]).unwrap(),
            LargeScaleArgs {
                n: 10_000,
                warmup_min: 10,
                duration_min: 5,
            }
        );
    }

    #[test]
    fn prefix_args_leave_later_defaults() {
        let parsed = parse(&["10000"]).unwrap();
        assert_eq!(parsed.n, 10_000);
        assert_eq!(parsed.warmup_min, 30);
        assert_eq!(parsed.duration_min, 10);
    }

    #[test]
    fn malformed_values_error_with_usage_not_silent_defaults() {
        for (args, name) in [
            (&["50k"][..], "N"),
            (&["10000", "ten"][..], "WARMUP_MIN"),
            (&["10000", "10", "5.5"][..], "DURATION_MIN"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(name), "error {err:?} must name {name}");
            assert!(err.contains("usage:"), "error {err:?} must carry usage");
        }
    }

    #[test]
    fn vm_hwm_is_read_from_its_own_line() {
        let status = "Name:\tlarge_scale\nVmPeak:\t  900 kB\nVmHWM:\t  121344 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(121_344));
        assert_eq!(vm_hwm_kb("Name:\tx\nVmRSS:\t5 kB\n"), None);
    }

    #[test]
    fn excess_args_are_rejected() {
        let err = parse(&["1", "2", "3", "4"]).unwrap_err();
        assert!(err.contains("at most 3"));
        assert!(err.contains("usage:"));
    }
}
