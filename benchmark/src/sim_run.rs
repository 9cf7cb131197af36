//! One simulated workload, start to finish, in this process: repeated
//! set-up, the run sliced once per simulated minute, report assembly and
//! digest, output checks, a second batch of set-ups and — traced runs
//! only — the layer probes.

use avmon::{HasherKind, NodeId, MINUTE};
use avmon_sim::{metrics::mean, Simulation};

use crate::trace::Tracer;
use crate::workloads::{measured_minutes, sim_input_hash, sim_options, sim_trace, SimSpec};
use crate::{host, probes, stats, Outcome};

/// Set-ups in each of two batches, one before the run and one after its
/// simulation has been consumed into the report. The box's speed wanders
/// over seconds and a set-up takes milliseconds, so one batch reads one
/// instant's speed; two batches a run apart read two. `setup_s` is the
/// median over both. Each set-up is dropped before the next, so peak
/// memory holds one — and `peak_rss_mb` is read before the second batch.
const SETUPS_PER_BATCH: usize = 15;

/// Host seconds of each part of one set-up.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    churn: Vec<f64>,
    try_new: Vec<f64>,
}

/// Everything before the first timed call into the engine: generating the
/// inputs and building the simulation.
fn set_up(
    spec: &SimSpec,
    seed: u64,
    seconds: u64,
    tracer: &mut Tracer,
    times: &mut SetupTimes,
) -> Simulation {
    let open = tracer.begin("bench.setup");
    let (trace, churn) = tracer.time("churn.synthetic", || sim_trace(spec, seed, seconds));
    let (opts, _) = tracer.time("sim.scenario.build", || sim_options(spec, seed, seconds));
    let (sim, try_new) = tracer.time("sim.engine.try_new", || Simulation::try_new(trace, opts));
    times.total.push(tracer.end(open));
    times.churn.push(churn);
    times.try_new.push(try_new);
    sim.expect("generated options are valid")
}

pub fn run(spec: &SimSpec, seed: u64, seconds: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    let mut sim = set_up(spec, seed, seconds, tracer, &mut setups);
    for _ in 1..SETUPS_PER_BATCH {
        drop(sim);
        sim = set_up(spec, seed, seconds, tracer, &mut setups);
    }
    let opts = sim_options(spec, seed, seconds);
    // The same for every set-up of a seed, so taken once and outside them.
    (out.input_hash, _) = tracer.time("bench.input_hash", || sim_input_hash(sim.trace(), &opts));
    let identities = sim.trace().identities().len();
    let churn_events = sim.trace().events.len();

    // The run, one `run_until` per simulated minute.
    let measured_min = measured_minutes(spec, seconds);
    let horizon = sim.trace().horizon;
    assert_eq!(horizon, (spec.warm_min + measured_min) * MINUTE);
    let mut walls = Vec::new();
    let mut node_minutes = 0u64;
    let mut cpu_s = 0.0;
    let run_open = tracer.begin("sim.engine.run");
    for minute in 1..=spec.warm_min + measured_min {
        let cpu_before = host::cpu_seconds();
        let ((), wall) = tracer.time("sim.engine.run_until", || sim.run_until(minute * MINUTE));
        cpu_s += host::cpu_seconds() - cpu_before;
        walls.push(wall);
        node_minutes += sim.alive().count() as u64;
    }
    tracer.end(run_open);
    let run_s: f64 = walls.iter().sum();
    let (warm_walls, measured_walls) = walls.split_at(spec.warm_min as usize);
    out.check(sim.now() == horizon, "the run stopped short of the horizon");
    let calendar = sim.calendar_stats();

    // Probes that need the live nodes run before the report consumes them.
    let mut memo = (0u64, 0u64);
    let checker_probe = tracer.enabled().then(|| {
        let alive: Vec<NodeId> = sim.alive().collect();
        for node in alive.iter().filter_map(|&id| sim.node(id)) {
            let (hits, misses) = node.point_memo_stats();
            memo = (memo.0 + hits, memo.1 + misses);
        }
        probes::checker(tracer, &sim, &opts.config, spec.hasher)
    });

    let (report, into_report_s) = tracer.time("sim.engine.into_report", || sim.into_report());
    let (json, serialize_s) = tracer.time("bench.serialize", || {
        serde_json::to_string(&report).expect("the report serializes")
    });
    out.report_md5 = crate::hex(&avmon_hash::md5::md5(json.as_bytes()));
    let peak_rss_kb = host::peak_rss_kb();
    for _ in 0..SETUPS_PER_BATCH {
        drop(set_up(spec, seed, seconds, tracer, &mut setups));
    }

    // Output checks.
    let inv = &report.invariants;
    out.attempted = inv.checks.max(1);
    out.failed = inv.violations.len() as u64;
    out.check(
        inv.enabled && inv.checks > 0,
        "the invariant checker did not run",
    );
    out.check(inv.passed(), "hard invariant violations were recorded");
    out.check(report.totals.messages_sent > 0, "no message was sent");
    out.check(report.alive_at_end > 0, "no node is alive at the end");
    for v in inv.violations.iter().take(5) {
        out.problems
            .push(format!("violation at {} ms: {:?}", v.at, v.violation));
    }

    // End-to-end metrics.
    let discovery: Vec<f64> = report
        .discovery_latencies(1)
        .iter()
        .map(|&ms| ms as f64 / 1e3)
        .collect();
    let detection_mean_s = report.qos.detection.mean_ms().map(|ms| ms / 1e3);
    let bytes_per_node_s = mean(&report.bandwidth_bps());
    out.push("setup_s", stats::median(&setups.total));
    out.push("msgs_per_s", report.totals.messages_sent as f64 / run_s);
    out.push("step_ms_p50", stats::median(measured_walls) * 1e3);
    out.push("peak_rss_mb", peak_rss_kb as f64 / 1024.0);
    out.push("discovery_mean_s", mean(&discovery));
    if let Some(detection) = detection_mean_s {
        out.push("detection_mean_s", detection);
    }
    out.push("bytes_per_node_s", bytes_per_node_s);
    out.push("failed_share", out.failed as f64 / out.attempted as f64);
    out.notes.push(format!(
        "step = one simulated minute: {} measured after {} warm-up, slowest {:.3} ms; too few for a percentile",
        measured_walls.len(),
        warm_walls.len(),
        measured_walls.iter().copied().fold(0.0, f64::max) * 1e3
    ));
    out.notes.push(format!(
        "discovery_mean_s over {} control nodes, {} undiscovered; detection over {} detections; memo policy: {}",
        discovery.len(),
        report.undiscovered(1),
        report.qos.detection.count,
        inv.memo_policy.reason
    ));

    let Some(checker_probe) = checker_probe else {
        return out;
    };

    // Per-layer metrics: the run's own counts first.
    let totals = &report.totals;
    let pops = calendar.heap_pops + calendar.lane_pops + calendar.wheel_pops;
    out.push("churn.synthetic_s", stats::median(&setups.churn));
    out.push("churn.events", churn_events as f64);
    out.push("hash.checks", totals.hash_checks as f64);
    out.push("core.msgs_sent", totals.messages_sent as f64);
    out.push("core.msgs_received", totals.messages_received as f64);
    out.push("core.bytes_sent", totals.bytes_sent as f64);
    out.push("core.bytes_per_node_s", bytes_per_node_s);
    out.push("core.mem_entries_per_node", mean(&report.memory_entries()));
    out.push(
        "core.hash_checks_per_node_s",
        mean(&report.comps_per_second()),
    );
    out.push("sim.engine.try_new_s", stats::median(&setups.try_new));
    out.push("sim.engine.run_s", run_s);
    out.push(
        "sim.engine.warmup_wall_s_per_sim_min",
        stats::median(warm_walls),
    );
    out.push("sim.engine.calendar_pops", pops as f64);
    out.push("sim.engine.heap_pops", calendar.heap_pops as f64);
    out.push("sim.engine.lane_pops", calendar.lane_pops as f64);
    out.push("sim.engine.wheel_pops", calendar.wheel_pops as f64);
    out.push("sim.engine.expire_skips", calendar.expire_skips as f64);
    out.push("sim.engine.ns_per_pop", run_s * 1e9 / pops.max(1) as f64);
    out.push("sim.shard.cpu_util", cpu_s / run_s);
    out.push("sim.invariants.checks", inv.checks as f64);
    out.push(
        "sim.invariants.set_scans_skipped",
        inv.set_scans_skipped as f64,
    );
    out.push("sim.invariants.memo_hits", inv.memo_hits as f64);
    out.push("sim.report.into_report_s", into_report_s);
    out.push("sim.report.serialize_s", serialize_s);
    out.push("sim.report.json_bytes", json.len() as f64);
    out.push("sim.discovery_mean_s", mean(&discovery));
    out.push("sim.qos.detections", report.qos.detection.count as f64);
    out.push("sim.qos.detection_mean_s", detection_mean_s.unwrap_or(0.0));
    out.push(
        "sim.qos.mistake_rate_per_h",
        report.qos.mistake_rate_per_hour,
    );
    out.push(
        "sim.rss_kb_per_node",
        peak_rss_kb as f64 / identities as f64,
    );

    // Then the probes, and the exclusive share estimates they price:
    // hash first, then core net of hash, then the checker; what is left
    // of the run's wall — calendar, routing, shard replay, metric folds —
    // cannot be told apart from outside and is the engine residue.
    let probes_open = tracer.begin("bench.probes");
    let hash_ns = probes::hash_ns_per_check(tracer, &opts.config, spec.hasher);
    let crosscheck = probes::crosscheck(tracer, &opts.config, spec.hasher);
    let pingpong_ns = probes::pingpong_ns(tracer, &opts.config);
    let latency_ns = probes::latency_sample_ns(tracer, &opts.network.latency);
    tracer.end(probes_open);
    let memo_hit_share = if memo.0 + memo.1 > 0 {
        memo.0 as f64 / (memo.0 + memo.1) as f64
    } else {
        0.0
    };
    let hash_s = totals.hash_checks as f64 * (1.0 - memo_hit_share) * hash_ns / 1e9;
    let period_excl_hash_us =
        (crosscheck.us_per_period - crosscheck.hashed_per_period * hash_ns / 1e3).max(0.0);
    let core_s = node_minutes as f64 * period_excl_hash_us / 1e6
        + totals.messages_received as f64 * pingpong_ns / 1e9;
    let checker_s =
        inv.checks as f64 * checker_probe.first_ms / checker_probe.first_checks.max(1) as f64 / 1e3
            + measured_min as f64 * checker_probe.steady_ms / 1e3;
    out.push("hash.ns_per_check", hash_ns);
    out.push("hash.memo_hit_share", memo_hit_share);
    out.push("hash.est_share", hash_s / run_s);
    out.push("core.crosscheck_us_per_period", crosscheck.us_per_period);
    out.push("core.pingpong_ns", pingpong_ns);
    out.push("core.est_share_excl_hash", core_s / run_s);
    out.push("sim.invariants.sample_ms_first", checker_probe.first_ms);
    out.push("sim.invariants.sample_ms_steady", checker_probe.steady_ms);
    out.push("sim.invariants.est_share", checker_s / run_s);
    out.push("sim.network.latency_sample_ns", latency_ns);
    out.push(
        "sim.engine.residue_share",
        1.0 - (hash_s + core_s + checker_s) / run_s,
    );
    out.notes.push(format!(
        "shares are estimates of sim.engine.run_s = {run_s:.3} s: counts x probed unit cost, exclusive \
         (hash {hash_s:.3} s, core net of hash {core_s:.3} s over {node_minutes} node-periods, \
         checker {checker_s:.3} s); the residue is calendar + routing + replay + metric folds, \
         not separable from outside"
    ));
    if spec.hasher != HasherKind::Fast64 {
        out.notes.push(format!(
            "core.pingpong_ns is probed under fast64: a ping never evaluates the {:?} condition",
            spec.hasher
        ));
    }
    out
}
