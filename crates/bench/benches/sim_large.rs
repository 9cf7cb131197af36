//! Large-N benchmarks: the invariant-checker sampling sweep (full-rescan
//! vs incremental), the protocol hot paths — the cost of one consistency
//! check through `SharedSelector` per hasher, one at a time and batched
//! through `accepted_pairs`, the Fig. 2 view cross-check per period and
//! the calendar's lane/wheel traffic split — an end-to-end N = 10k smoke
//! run with how its cross-checks were evaluated (handed to the helper
//! core and replayed, or hashed inline), and the N = 50k scale run
//! (checker on).
//!
//! The binary records its measurements in `BENCH_sim_large.json` at the
//! workspace root — the large-N perf trajectory CI tracks across PRs —
//! each number once, with min/median where it samples and the core count
//! on every row, and asserts the wins hold:
//! incremental checking ≥ 10× per sample, a fast64 consistency check
//! ≤ 12 ns and an MD5 one no dearer than before the fixed-length pair
//! kernel, a batched MD5 check at most a third of a single one (the
//! 16-lane kernel still vectorized) and at most a tenth where the host
//! runs the AVX-512F kernel (recorded as `md5_lanes`), and at most 1% of
//! calendar pops on the binary heap at N = 10k. CI asserts from the JSON
//! that, on two cores or more, the helper's results were replayed for at
//! least 90% of the cross-checks it was handed.

#![expect(clippy::disallowed_methods, reason = "a bench measures wall time")]

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use avmon::{
    Config, HashSelector, HasherKind, JoinKind, Md5PairHasher, Message, MonitorSelector, Node,
    NodeId, PairHasher, PersistentState, SharedSelector, TargetRecord, Threshold, Timer, MINUTE,
};
use avmon_churn::{synthetic, SynthParams};
use avmon_sim::{
    CalendarStats, CheckStrategy, CrossCheckStats, InvariantChecker, InvariantConfig, SimOptions,
    Simulation,
};

const BENCH_N: usize = 5_000;

/// Builds a steady-state population of `n` nodes whose `PS`/`TS` hold
/// exactly the consistency-condition pairs — the state a converged overlay
/// reaches, injected directly so the bench isolates checker cost from
/// protocol execution.
fn steady_population(n: usize) -> (Vec<Node>, Config) {
    let config = Config::builder(n).build().expect("valid config");
    let selector = HashSelector::from_config_with_kind(&config, HasherKind::Fast64);
    let probe = HashSelector::from_config(&config);
    let ids: Vec<NodeId> = (0..n as u32).map(NodeId::from_index).collect();
    // All consistency-condition pairs, one O(N²) hashing pass at setup.
    let mut ps: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut ts: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (mi, &monitor) in ids.iter().enumerate() {
        for (ti, &target) in ids.iter().enumerate() {
            if mi != ti && probe.is_monitor(monitor, target) {
                ps[ti].push(monitor);
                ts[mi].push(target);
            }
        }
    }
    let nodes: Vec<Node> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let mut node = Node::new(id, config.clone(), selector.clone(), 7);
            node.start(0, JoinKind::Fresh, None);
            while node.poll_transmit().is_some() {}
            while node.poll_timer().is_some() {}
            while node.poll_event().is_some() {}
            let targets = ts[i]
                .iter()
                .map(|&t| {
                    let mut rec = TargetRecord {
                        discovered_at: 0,
                        pings_sent: 0,
                        pongs_received: 0,
                        last_pong: None,
                        session_start: None,
                        last_session: 0,
                        unresponsive_since: None,
                    };
                    rec.pings_sent = 10;
                    rec.pongs_received = 9;
                    (t, rec)
                })
                .collect();
            node.restore_persistent(PersistentState {
                ps: ps[i].clone(),
                targets,
            });
            node
        })
        .collect();
    (nodes, config)
}

fn checker_for(strategy: CheckStrategy, config: &Config) -> InvariantChecker {
    let selector = HashSelector::from_config_with_kind(config, HasherKind::Fast64);
    InvariantChecker::new(
        InvariantConfig::default().strategy(strategy),
        selector,
        config,
        0,
        false,
    )
}

/// Wall-clock per checker sampling sweep over the population, measured
/// with a plain `Instant` loop (deterministic iteration count — the
/// number the perf trajectory records).
fn measure_per_sample(strategy: CheckStrategy, nodes: &[Node], config: &Config) -> f64 {
    let mut checker = checker_for(strategy, config);
    for node in nodes {
        checker.node_up(node.id(), 0);
    }
    // Prime: the first sweep verifies everything under both strategies.
    checker.on_sample(MINUTE, nodes.iter());
    let iters: u64 = match strategy {
        CheckStrategy::FullRescan => 20,
        _ => 200,
    };
    let start = Instant::now();
    for i in 0..iters {
        checker.on_sample(MINUTE * (2 + i), nodes.iter());
    }
    let elapsed = start.elapsed();
    assert!(
        checker.summary().passed(),
        "bench population violated invariants: {:?}",
        checker.summary().violations
    );
    elapsed.as_nanos() as f64 / iters as f64
}

/// Entries per side of the Fig. 2 cross-check at N = 10k: `cvs` = 40 plus
/// the node itself and the fetched peer.
const FIG2_SIDE: u32 = 42;

/// Pairs in one scan of the two sides, both orders (the sides are
/// disjoint, so no pair is on the diagonal).
const FIG2_CHECKS: u64 = 2 * (FIG2_SIDE as u64) * (FIG2_SIDE as u64);

/// The route every check took before the fixed-length pair kernel, kept
/// as the yardstick: a boxed hasher over the freshly serialized 12 bytes.
#[derive(Debug)]
struct PairBytesSelector {
    hasher: Box<dyn PairHasher>,
    threshold: Threshold,
}

impl MonitorSelector for PairBytesSelector {
    fn is_monitor(&self, monitor: NodeId, target: NodeId) -> bool {
        let point = self.hasher.point(&NodeId::pair_bytes(monitor, target));
        self.threshold.accepts(point)
    }

    fn name(&self) -> &'static str {
        "pair-bytes"
    }
}

fn fig2_sides() -> (Vec<NodeId>, Vec<NodeId>) {
    let side = |base: u32| (base..base + FIG2_SIDE).map(NodeId::from_index).collect();
    (side(1_000), side(5_000))
}

/// The condition scan of `process_fetched_view` with nothing around it:
/// both directions of every pair across two disjoint sides, each answer
/// through the `dyn MonitorSelector` call a node makes.
fn fig2_nested_loop(selector: &dyn MonitorSelector, a: &[NodeId], b: &[NodeId]) -> u32 {
    let mut hits = 0u32;
    for &u in a {
        for &v in b {
            hits += u32::from(selector.is_monitor(u, v));
            hits += u32::from(selector.is_monitor(v, u));
        }
    }
    hits
}

/// The condition scan of `process_fetched_view` as a node runs it: one
/// `accepted_pairs` call per order over the same two sides as
/// [`fig2_nested_loop`], which a hashing selector batches.
fn fig2_batched(selector: &dyn MonitorSelector, a: &[NodeId], b: &[NodeId]) -> u32 {
    let mut hits = 0u32;
    selector.accepted_pairs(a, b, &mut |_, _| hits += 1);
    selector.accepted_pairs(b, a, &mut |_, _| hits += 1);
    hits
}

/// The selector under test for `hasher`, or — `kernel == false` — the
/// [`PairBytesSelector`] yardstick with the same hasher and threshold.
fn hash_check_selector(hasher: HasherKind, kernel: bool) -> SharedSelector {
    let config = Config::builder(10_000).build().expect("valid config");
    if kernel {
        return HashSelector::from_config_with_kind(&config, hasher);
    }
    let (k, n) = config.threshold_ratio();
    Arc::new(PairBytesSelector {
        hasher: hasher.build(),
        threshold: Threshold::from_ratio(k, n),
    })
}

/// (min, median) of `reps` samples of `sample`, after 8 discarded warm-up
/// calls.
fn min_median(reps: usize, mut sample: impl FnMut() -> f64) -> (f64, f64) {
    spread((0..reps + 8).map(|_| sample()).skip(8).collect())
}

/// (min, median) of `samples`.
fn spread(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (samples[0], samples[samples.len() / 2])
}

/// A condition scan over the two Fig. 2 sides: [`fig2_nested_loop`] or
/// [`fig2_batched`].
type Fig2Scan = fn(&dyn MonitorSelector, &[NodeId], &[NodeId]) -> u32;

/// Nanoseconds per pair through `SharedSelector` for `hasher`, as
/// (min, median) over `reps` timed scans of each route: the kernel one
/// `is_monitor` at a time, the [`PairBytesSelector`] yardstick, and the
/// kernel batched through `accepted_pairs`. The routes take turns, one
/// scan each, after 8 discarded warm-up rounds, so a change in host speed
/// during the measurement moves all three alike and their ratios hold.
fn hash_check_ns(hasher: HasherKind, reps: usize) -> [(f64, f64); 3] {
    let (a, b) = fig2_sides();
    let kernel = hash_check_selector(hasher, true);
    let routes: [(SharedSelector, Fig2Scan); 3] = [
        (kernel.clone(), fig2_nested_loop),
        (hash_check_selector(hasher, false), fig2_nested_loop),
        (kernel, fig2_batched),
    ];
    let mut samples: [Vec<f64>; 3] = Default::default();
    for round in 0..reps + 8 {
        for ((selector, scan), samples) in routes.iter().zip(&mut samples) {
            let start = Instant::now();
            black_box(scan(black_box(&**selector), black_box(&a), black_box(&b)));
            if round >= 8 {
                samples.push(start.elapsed().as_nanos() as f64 / FIG2_CHECKS as f64);
            }
        }
    }
    samples.map(spread)
}

/// One period of the Fig. 2 view cross-check, measured end to end through
/// the public API: fire the protocol timer, answer the `ViewFetch`, and
/// let `process_fetched_view` run its `O((cvs+2)²)` condition scan.
/// Returns wall-clock nanoseconds per period as (min, median) over `iters`
/// timed periods.
fn crosscheck_period_ns(hasher: HasherKind, iters: usize) -> (f64, f64) {
    // cvs pinned at 60 — the ROADMAP's measured large-N operating point
    // (~7.7k hash evaluations per fetched view).
    let config = Config::builder(50_000)
        .cvs(60)
        .build()
        .expect("valid config");
    let selector = HashSelector::from_config_with_kind(&config, hasher);
    let mut node = Node::new(NodeId::from_index(1), config, selector, 7);
    let peers: Vec<NodeId> = (2..64).map(NodeId::from_index).collect();
    node.seed_view(&peers);
    let mut run_period = |now: u64| {
        node.handle_timer(now, Timer::Protocol);
        let mut fetch = None;
        while let Some(t) = node.poll_transmit() {
            if let Message::ViewFetch { nonce } = t.msg {
                fetch = Some((t.unicast_to().expect("fetch is unicast"), nonce));
            }
        }
        while node.poll_timer().is_some() {}
        while node.poll_event().is_some() {}
        let (to, nonce) = fetch.expect("a seeded view always fetches");
        node.handle_message(
            now + 1,
            to,
            Message::ViewFetchReply {
                nonce,
                view: peers.clone(),
            },
        );
        while node.poll_transmit().is_some() {}
        while node.poll_timer().is_some() {}
        while node.poll_event().is_some() {}
    };
    let mut now = 0u64;
    let spread = min_median(iters, || {
        now += MINUTE;
        let start = Instant::now();
        run_period(now);
        start.elapsed().as_nanos() as f64
    });
    black_box(node.stats().hash_checks);
    spread
}

/// What one end-to-end run measured.
struct Smoke {
    wall_ms: f64,
    checker_checks: u64,
    calendar: CalendarStats,
    crosscheck: CrossCheckStats,
}

/// One end-to-end run at arbitrary scale (checker on, as always).
fn smoke_run(n: usize, warmup_min: u64, duration_min: u64) -> Smoke {
    let params = SynthParams {
        n,
        churn_per_hour: 0.0,
        birth_death_per_day: 0.0,
        warmup: warmup_min * MINUTE,
        duration: duration_min * MINUTE,
        control_fraction: 0.01,
        seed: 7,
    };
    let trace = synthetic(params);
    let config = Config::builder(n).build().expect("valid config");
    let opts = SimOptions::new(config).seed(7);
    let start = Instant::now();
    let mut sim = Simulation::new(trace, opts);
    let horizon = sim.trace().horizon;
    sim.run_until(horizon);
    let (calendar, crosscheck) = (sim.calendar_stats(), sim.crosscheck_stats());
    let report = sim.into_report();
    let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
    assert!(
        report.invariants.passed(),
        "{n}-node smoke violated invariants"
    );
    Smoke {
        wall_ms,
        checker_checks: report.invariants.checks,
        calendar,
        crosscheck,
    }
}

/// Records the perf trajectory to `BENCH_sim_large.json` at the workspace
/// root.
fn record_trajectory() {
    let (nodes, config) = steady_population(BENCH_N);
    let full_ns = measure_per_sample(CheckStrategy::FullRescan, &nodes, &config);
    let incremental_ns = measure_per_sample(CheckStrategy::Incremental, &nodes, &config);
    let speedup = full_ns / incremental_ns.max(1.0);

    // Hash guard — what one consistency check costs per hasher: one
    // `is_monitor` at a time, beside the serialize-then-`dyn point` route
    // that replaced, and batched through `accepted_pairs` as the Fig. 2
    // cross-check now runs it (same grid, same run, so the ratios hold on
    // any hardware).
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let md5_lanes = Md5PairHasher::lane_kernel();
    let [(fast_check_min, fast_check_med), (fast_bytes_min, fast_bytes_med), (fast_batch_min, fast_batch_med)] =
        hash_check_ns(HasherKind::Fast64, 2_000);
    let [(md5_check_min, md5_check_med), (md5_bytes_min, md5_bytes_med), (md5_batch_min, md5_batch_med)] =
        hash_check_ns(HasherKind::Md5, 200);

    // The view cross-check one node runs per period, per hasher: the
    // kernel above times the condition; this times the scan around it too.
    let (md5_period_min, md5_period_med) = crosscheck_period_ns(HasherKind::Md5, 60);
    let (fast_period_min, fast_period_med) = crosscheck_period_ns(HasherKind::Fast64, 400);

    // PR 5 guard 2 — calendar pressure at N = 10k: the timer lanes and
    // the delivery wheel must carry at least 99% of the pops (the heap
    // retains only the construction-time schedule and odd-delay arms).
    // The CI-sized large-N run: short measurement window.
    let smoke = smoke_run(10_000, 10, 5);
    let (smoke_ms, smoke_checks, stats) = (smoke.wall_ms, smoke.checker_checks, smoke.calendar);
    let all_pops = stats.heap_pops + stats.lane_pops + stats.wheel_pops;
    let heap_pop_share = stats.heap_pops as f64 / all_pops as f64;
    // The same run's cross-checks: with a second core, the helper hashes
    // them one hop ahead and the nodes replay the results.
    let CrossCheckStats {
        submitted,
        replayed,
        hashed_inline,
    } = smoke.crosscheck;

    // The scale trajectory: N = 50k end-to-end with the checker on.
    let scale = smoke_run(50_000, 10, 5);
    let (scale_50k_ms, scale_50k_checks) = (scale.wall_ms, scale.checker_checks);

    let json = format!(
        "{{\n  \"bench\": \"sim_large\",\n  \"checker_per_sample\": {{\n    \"n\": {BENCH_N},\n    \"cores\": {cores},\n    \"full_rescan_ns\": {full_ns:.0},\n    \"incremental_ns\": {incremental_ns:.0},\n    \"speedup\": {speedup:.1}\n  }},\n  \"hash_check_ns\": {{\n    \"cores\": {cores},\n    \"md5_lanes\": \"{md5_lanes}\",\n    \"loop\": \"Fig. 2 grid, two 42-entry sides, both orders, through SharedSelector: is_monitor per pair (fast64/md5), the same over serialized pair bytes (*_pair_bytes), one accepted_pairs call per order (*_batch)\",\n    \"fast64_min\": {fast_check_min:.1},\n    \"fast64_median\": {fast_check_med:.1},\n    \"fast64_pair_bytes_min\": {fast_bytes_min:.1},\n    \"fast64_pair_bytes_median\": {fast_bytes_med:.1},\n    \"fast64_batch_min\": {fast_batch_min:.1},\n    \"fast64_batch_median\": {fast_batch_med:.1},\n    \"md5_min\": {md5_check_min:.1},\n    \"md5_median\": {md5_check_med:.1},\n    \"md5_pair_bytes_min\": {md5_bytes_min:.1},\n    \"md5_pair_bytes_median\": {md5_bytes_med:.1},\n    \"md5_batch_min\": {md5_batch_min:.1},\n    \"md5_batch_median\": {md5_batch_med:.1}\n  }},\n  \"view_crosscheck_per_period\": {{\n    \"cores\": {cores},\n    \"cvs\": 60,\n    \"fast64_ns_min\": {fast_period_min:.0},\n    \"fast64_ns_median\": {fast_period_med:.0},\n    \"md5_ns_min\": {md5_period_min:.0},\n    \"md5_ns_median\": {md5_period_med:.0}\n  }},\n  \"calendar_10k\": {{\n    \"cores\": {cores},\n    \"heap_pops\": {},\n    \"lane_pops\": {},\n    \"wheel_pops\": {},\n    \"expire_skips\": {},\n    \"heap_pop_share\": {heap_pop_share:.4}\n  }},\n  \"crosscheck_ahead_10k\": {{\n    \"cores\": {cores},\n    \"submitted\": {submitted},\n    \"replayed\": {replayed},\n    \"hashed_inline\": {hashed_inline}\n  }},\n  \"scale_50k\": {{\n    \"n\": 50000,\n    \"simulated_minutes\": 15,\n    \"cores\": {cores},\n    \"wall_ms\": {scale_50k_ms:.0},\n    \"checker_checks\": {scale_50k_checks}\n  }},\n  \"smoke_end_to_end\": {{\n    \"n\": 10000,\n    \"simulated_minutes\": 15,\n    \"cores\": {cores},\n    \"wall_ms\": {smoke_ms:.0},\n    \"checker_checks\": {smoke_checks}\n  }}\n}}\n",
        stats.heap_pops,
        stats.lane_pops,
        stats.wheel_pops,
        stats.expire_skips
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim_large.json");
    std::fs::write(&path, &json).expect("write BENCH_sim_large.json");
    println!(
        "perf trajectory ({}x per-sample, {fast_check_med:.1} ns fast64 / {md5_check_med:.1} ns md5 per check, {:.2}% of pops on the heap):\n{json}",
        speedup as u64,
        heap_pop_share * 100.0
    );
    assert!(
        speedup >= 10.0,
        "incremental checking must be >=10x faster per sample at steady state, got {speedup:.1}x"
    );
    assert!(
        fast_check_med <= 12.0,
        "a fast64 consistency check must cost <=12 ns through SharedSelector, got {fast_check_med:.1}"
    );
    assert!(
        md5_check_med <= md5_bytes_med,
        "an MD5 consistency check must not cost more than the serialize-then-`dyn point` \
         route it replaced ({md5_bytes_med:.1} ns), got {md5_check_med:.1}"
    );
    assert!(
        md5_batch_med * 3.0 <= md5_check_med,
        "a batched MD5 check must cost at most a third of a single one ({md5_check_med:.1} ns) \
         — has the 16-lane kernel stopped vectorizing? got {md5_batch_med:.1}"
    );
    assert!(
        md5_lanes != "avx512f" || md5_batch_med * 10.0 <= md5_check_med,
        "a batched MD5 check on the AVX-512F kernel must cost at most a tenth of a single one \
         ({md5_check_med:.1} ns), got {md5_batch_med:.1}"
    );
    assert!(
        heap_pop_share <= 0.01 && stats.expire_skips > 0,
        "lanes + wheel must carry >=99% of pops at N=10k and discard dead expiries: {stats:?}"
    );
}

fn main() {
    record_trajectory();
}
