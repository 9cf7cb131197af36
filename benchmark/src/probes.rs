//! Layer probes of a traced run: each times calls into one public
//! function of one layer, in isolation, with the workload's parameters.
//! A probe prices a layer's unit of work; the run's own counters say how
//! many units it did. Their product is an *estimate* of the layer's share
//! — spans inside the program are a later change.

use std::hint::black_box;

use avmon::{codec, Config, HashSelector, HasherKind, Message, Node, NodeId, Nonce, Timer, MINUTE};
use avmon_sim::{InvariantChecker, InvariantConfig, LatencyModel, Simulation};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::trace::Tracer;

/// Nanoseconds per `MonitorSelector::is_monitor` call with `hasher`.
pub fn hash_ns_per_check(tracer: &mut Tracer, config: &Config, hasher: HasherKind) -> f64 {
    const CALLS: u32 = 2_000_000;
    let selector = HashSelector::from_config_with_kind(config, hasher);
    let (hits, secs) = tracer.time("hash.probe", || {
        let mut hits = 0u32;
        for i in 0..CALLS {
            let monitor = NodeId::from_index(i & 0xffff);
            let target = NodeId::from_index((i >> 4) | 0x10_0000);
            hits += u32::from(selector.is_monitor(black_box(monitor), black_box(target)));
        }
        hits
    });
    black_box(hits);
    secs * 1e9 / f64::from(CALLS)
}

fn discard_output(node: &mut Node) {
    while node.poll_transmit().is_some() {}
    while node.poll_timer().is_some() {}
    while node.poll_event().is_some() {}
}

/// One steady-state protocol period of the Fig. 2 view cross-check.
pub struct Crosscheck {
    pub us_per_period: f64,
    /// Condition evaluations per period that reached the hasher (memo
    /// misses, or every check when the memo is off).
    pub hashed_per_period: f64,
}

/// Fires `Timer::Protocol` and answers the `ViewFetch` on a node with a
/// full view, at the workload's N / cvs / hasher and the default memo
/// policy — the per-period cost `benches/sim_large.rs` measures.
pub fn crosscheck(tracer: &mut Tracer, config: &Config, hasher: HasherKind) -> Crosscheck {
    let iters: u64 = if hasher == HasherKind::Fast64 {
        200
    } else {
        40
    };
    let selector = HashSelector::from_config_with_kind(config, hasher);
    let mut node = Node::new(NodeId::from_index(1), config.clone(), selector, 7);
    let peers: Vec<NodeId> = (2..2 + config.cvs as u32).map(NodeId::from_index).collect();
    node.seed_view(&peers);
    let period = |node: &mut Node, now: u64| {
        node.handle_timer(now, Timer::Protocol);
        let mut fetch = None;
        while let Some(t) = node.poll_transmit() {
            if let Message::ViewFetch { nonce } = t.msg {
                fetch = Some((t.unicast_to().expect("a fetch is unicast"), nonce));
            }
        }
        let (to, nonce) = fetch.expect("a node with a seeded view fetches every period");
        node.handle_message(
            now + 1,
            to,
            Message::ViewFetchReply {
                nonce,
                view: peers.clone(),
            },
        );
        discard_output(node);
    };
    // Warm-up fills the memo where the policy enables it.
    let mut now = 0;
    for _ in 0..8 {
        now += MINUTE;
        period(&mut node, now);
    }
    let checks_before = node.stats().hash_checks;
    let (_, misses_before) = node.point_memo_stats();
    let ((), secs) = tracer.time("core.crosscheck.probe", || {
        for _ in 0..iters {
            now += MINUTE;
            period(&mut node, now);
        }
    });
    let (hits, misses) = node.point_memo_stats();
    let hashed = if hits + misses > 0 {
        misses - misses_before
    } else {
        node.stats().hash_checks - checks_before
    };
    Crosscheck {
        us_per_period: secs * 1e6 / iters as f64,
        hashed_per_period: hashed as f64 / iters as f64,
    }
}

/// Nanoseconds for a node to take a `MonitorPing` and queue its pong.
pub fn pingpong_ns(tracer: &mut Tracer, config: &Config) -> f64 {
    const CALLS: u64 = 1_000_000;
    let selector = HashSelector::from_config_with_kind(config, HasherKind::Fast64);
    let mut node = Node::new(NodeId::from_index(1), config.clone(), selector, 7);
    let from = NodeId::from_index(2);
    let ((), secs) = tracer.time("core.pingpong.probe", || {
        for i in 0..CALLS {
            node.handle_message(i, from, Message::MonitorPing { nonce: Nonce(i) });
            black_box(node.poll_transmit());
        }
    });
    secs * 1e9 / CALLS as f64
}

/// Encode and decode nanoseconds for one message.
pub fn codec_ns(tracer: &mut Tracer, msg: &Message) -> (f64, f64) {
    const CALLS: u32 = 500_000;
    let mut buf = avmon::bytes::BytesMut::with_capacity(2048);
    let ((), enc) = tracer.time("core.codec.encode.probe", || {
        for _ in 0..CALLS {
            buf.clear();
            codec::encode_into(black_box(msg), &mut buf);
        }
    });
    let bytes = codec::encode(msg);
    let ((), dec) = tracer.time("core.codec.decode.probe", || {
        for _ in 0..CALLS {
            black_box(codec::decode(black_box(&bytes)).expect("own encoding decodes"));
        }
    });
    (enc * 1e9 / f64::from(CALLS), dec * 1e9 / f64::from(CALLS))
}

/// Nanoseconds per `LatencyModel::sample` on the default model. The
/// router itself (`NetworkState::route`) is crate-private: routing cost
/// cannot be probed from outside and stays in the engine residue until
/// the engine reports it.
pub fn latency_sample_ns(tracer: &mut Tracer, model: &LatencyModel) -> f64 {
    const CALLS: u32 = 2_000_000;
    let mut rng = SmallRng::seed_from_u64(7);
    let (sum, secs) = tracer.time("sim.network.probe", || {
        let mut sum = 0u64;
        for _ in 0..CALLS {
            sum += LatencyModel::sample(black_box(model), &mut rng);
        }
        sum
    });
    black_box(sum);
    secs * 1e9 / f64::from(CALLS)
}

/// A fresh checker swept over the finished run's live nodes.
pub struct CheckerProbe {
    /// First sweep: every node is unverified, so everything is checked.
    pub first_ms: f64,
    /// Checks the first sweep evaluated.
    pub first_checks: u64,
    /// A later sweep over unchanged nodes: the incremental floor.
    pub steady_ms: f64,
}

pub fn checker(
    tracer: &mut Tracer,
    sim: &Simulation,
    config: &Config,
    hasher: HasherKind,
) -> CheckerProbe {
    const STEADY_SWEEPS: u64 = 5;
    let selector = HashSelector::from_config_with_kind(config, hasher);
    let mut checker = InvariantChecker::new(InvariantConfig::default(), selector, config, 0, false);
    let alive: Vec<NodeId> = sim.alive().collect();
    for &id in &alive {
        checker.node_up(id, 0);
    }
    let now = sim.now();
    let ((), first) = tracer.time("sim.invariants.probe.first", || {
        checker.on_sample(now, alive.iter().filter_map(|&id| sim.node(id)));
    });
    let first_checks = checker.summary().checks;
    let ((), steady) = tracer.time("sim.invariants.probe.steady", || {
        for i in 1..=STEADY_SWEEPS {
            checker.on_sample(
                now + i * MINUTE,
                alive.iter().filter_map(|&id| sim.node(id)),
            );
        }
    });
    CheckerProbe {
        first_ms: first * 1e3,
        first_checks,
        steady_ms: steady * 1e3 / STEADY_SWEEPS as f64,
    }
}
