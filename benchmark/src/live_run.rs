//! The live workload: one `NodeDriver` thread over `UdpTransport` on
//! 127.0.0.1 answers a closed-loop generator — one client, a window of
//! [`LIVE_WINDOW`] requests, the next burst only after the last is
//! collected. Loopback only: the numbers price the runtime and the local
//! kernel path, not a network.
//!
//! The node is built with week-long periods and a seeded view
//! (`workloads::live_config`), so during the run it originates nothing and
//! every datagram it sends is a reply.

use std::hint::black_box;
use std::net::{SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use avmon::{
    codec, AppEvent, HashSelector, HasherKind, JoinKind, Message, MessageKind, Node, NodeId, Nonce,
};
use avmon_runtime::{Command, NodeDriver, SnapshotBoard, Transport, UdpTransport};
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::trace::{now, Tracer};
use crate::workloads::{live_config, live_input, LiveInput, Request, LIVE_WINDOW};
use crate::{host, probes, stats, Outcome};

/// Set-ups in each of two batches, one before the run and one after it;
/// `setup_s` is the median over both (see `sim_run::SETUPS_PER_BATCH`).
const SETUPS_PER_BATCH: usize = 9;
/// A reply later than this counts as missing.
const REPLY_TIMEOUT: Duration = Duration::from_millis(100);
/// Most recent round-trip / burst samples kept; allocated and touched at
/// start so the harness's memory does not grow with throughput.
const RTT_RING: usize = 1 << 20;
const BURST_RING: usize = 1 << 18;

fn live_node(id: NodeId, input: &LiveInput) -> Node {
    let config = live_config();
    let selector = HashSelector::from_config_with_kind(&config, HasherKind::Fast64);
    let mut node = Node::new(id, config, selector, input.node_seed);
    node.seed_view(&input.view);
    node
}

/// The system under test plus the generator's socket.
struct Rig {
    client: UdpSocket,
    node_id: NodeId,
    commands: Sender<Command>,
    board: SnapshotBoard,
    thread: JoinHandle<()>,
    /// Kept so the driver's event sends succeed; nothing is expected.
    _events: Receiver<(NodeId, AppEvent)>,
}

impl Rig {
    fn spawn(input: &LiveInput) -> std::io::Result<Rig> {
        let transport = UdpTransport::bind_ephemeral([127, 0, 0, 1])?;
        let node_id = transport.local_id();
        let node = live_node(node_id, input);
        let (commands, command_rx) = unbounded();
        let (event_tx, events) = unbounded();
        let board = SnapshotBoard::default();
        let driver = NodeDriver::new(
            node,
            transport,
            command_rx,
            event_tx,
            board.clone(),
            Vec::new(),
        );
        let thread = std::thread::Builder::new()
            .name("node-driver".into())
            .spawn(move || driver.run(JoinKind::Fresh, None))?;
        let client = UdpSocket::bind("127.0.0.1:0")?;
        client.connect(SocketAddrV4::from(node_id))?;
        client.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Rig {
            client,
            node_id,
            commands,
            board,
            thread,
            _events: events,
        })
    }

    /// Stops the driver, waits for its thread, and returns the node's own
    /// counters from its last published snapshot.
    fn stop(self) -> Option<avmon::NodeStats> {
        let _ = self.commands.send(Command::Stop);
        self.thread.join().ok()?;
        let stats = self.board.read().get(&self.node_id).map(|s| s.stats);
        stats
    }
}

/// A fixed-size ring of the most recent samples.
struct Ring {
    slots: Vec<u32>,
    written: u64,
}

impl Ring {
    fn new(len: usize) -> Self {
        Ring {
            slots: vec![0; len],
            written: 0,
        }
    }

    /// Keeps `secs` as whole nanoseconds (saturating at ~4.3 s).
    fn record(&mut self, secs: f64) {
        let at = (self.written % self.slots.len() as u64) as usize;
        self.slots[at] = (secs * 1e9) as u32;
        self.written += 1;
    }

    /// The kept samples in microseconds, ascending.
    fn sorted_us(&self) -> Vec<f64> {
        let kept = (self.written as usize).min(self.slots.len());
        let mut us: Vec<f64> = self.slots[..kept]
            .iter()
            .map(|&ns| f64::from(ns) / 1e3)
            .collect();
        stats::sort(&mut us);
        us
    }
}

#[derive(Default)]
struct Tally {
    requests: u64,
    replies: u64,
    lost: u64,
    /// Undecodable, unmatched, duplicated or wrong-content datagrams.
    bad: u64,
}

/// Everything before the first request: script generation, the node, both
/// sockets, the thread.
fn set_up(seed: u64, tracer: &mut Tracer, setup_s: &mut Vec<f64>) -> (LiveInput, Rig) {
    let open = tracer.begin("bench.setup");
    let (input, _) = tracer.time("bench.live.script", || live_input(seed));
    let (rig, _) = tracer.time("runtime.spawn", || Rig::spawn(&input));
    setup_s.push(tracer.end(open));
    (
        input,
        rig.expect("loopback sockets bind and the thread spawns"),
    )
}

pub fn run(seed: u64, seconds: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    let mut setup_s = Vec::new();
    let (mut input, mut rig) = set_up(seed, tracer, &mut setup_s);
    for _ in 1..SETUPS_PER_BATCH {
        rig.stop();
        (input, rig) = set_up(seed, tracer, &mut setup_s);
    }
    // The same for every set-up of a seed, so taken once and outside them.
    (out.input_hash, _) = tracer.time("bench.input_hash", || input.hash());
    let mut rtt = Ring::new(RTT_RING);
    let mut bursts = Ring::new(BURST_RING);
    let (mut send_total_s, mut collect_total_s) = (0.0, 0.0);

    // The run: closed loop, one burst in flight.
    let mut tally = Tally::default();
    let mut buf = vec![0u8; 64 * 1024];
    let mut sent_at = [now(); LIVE_WINDOW];
    let mut answered = [false; LIVE_WINDOW];
    let run_open = tracer.begin("runtime.live.run");
    let started = now();
    let budget = Duration::from_secs(seconds);
    let mut script = input.bursts().cycle();
    while started.elapsed() < budget {
        let burst = script.next().expect("the script is not empty");
        let send_open = tracer.begin("runtime.burst.send");
        for (i, request) in burst.iter().enumerate() {
            sent_at[i] = now();
            if rig.client.send(&request.bytes).is_err() {
                tally.bad += 1;
            }
        }
        let send_s = tracer.end(send_open);
        tally.requests += burst.len() as u64;
        answered.fill(false);
        let mut outstanding = burst.len();
        let collect_open = tracer.begin("runtime.burst.collect");
        while outstanding > 0 {
            let Ok(len) = rig.client.recv(&mut buf) else {
                tally.lost += outstanding as u64;
                break;
            };
            let at = now();
            let slot = match codec::decode(&buf[..len]) {
                Ok(Message::ViewFetchReply { nonce, view }) if view == input.view => {
                    slot_of(burst, nonce, MessageKind::ViewFetchReply)
                }
                Ok(Message::MonitorPong { nonce }) => {
                    slot_of(burst, nonce, MessageKind::MonitorPong)
                }
                Ok(Message::ViewPong { nonce }) => slot_of(burst, nonce, MessageKind::ViewPong),
                _ => None,
            };
            match slot {
                Some(i) if !answered[i] => {
                    answered[i] = true;
                    outstanding -= 1;
                    tally.replies += 1;
                    rtt.record((at - sent_at[i]).as_secs_f64());
                }
                _ => tally.bad += 1,
            }
        }
        let collect_s = tracer.end(collect_open);
        send_total_s += send_s;
        collect_total_s += collect_s;
        bursts.record(send_s + collect_s);
    }
    let run_s = tracer.end(run_open);
    let node_stats = rig.stop();
    let peak_rss_kb = host::peak_rss_kb();
    for _ in 0..SETUPS_PER_BATCH {
        set_up(seed, tracer, &mut setup_s).1.stop();
    }

    // Output checks: every request answered once, by the right reply, and
    // the node's own counters agree with the generator's.
    out.attempted = tally.requests.max(1);
    out.failed = tally.lost + tally.bad;
    out.check(tally.lost == 0, "replies went missing");
    out.check(
        tally.bad == 0,
        "undecodable, unmatched or wrong replies arrived",
    );
    out.check(
        tally.replies == tally.requests,
        "replies and requests differ",
    );
    match node_stats {
        Some(stats) => {
            out.check(
                stats.messages_received == tally.requests,
                "the node counted a different number of requests",
            );
            out.check(
                stats.messages_sent == tally.replies,
                "the node sent something other than one reply per request",
            );
        }
        None => out.check(false, "the driver thread panicked or published no snapshot"),
    }

    // End-to-end metrics.
    let rtt_us = rtt.sorted_us();
    let burst_us = bursts.sorted_us();
    // 0 where the sample is too small to support the percentile.
    let pct = |sorted: &[f64], p: f64| stats::percentile(sorted, p).unwrap_or(0.0);
    let (rtt_p50, rtt_p99) = (pct(&rtt_us, 50.0), pct(&rtt_us, 99.0));
    let datagrams = tally.requests + tally.replies;
    out.push("setup_s", stats::median(&setup_s));
    out.push("msgs_per_s", datagrams as f64 / run_s);
    out.push("step_ms_p50", pct(&burst_us, 50.0) / 1e3);
    out.push("peak_rss_mb", peak_rss_kb as f64 / 1024.0);
    out.push("live_rtt_us_p50", rtt_p50);
    out.push("live_rtt_us_p99", rtt_p99);
    out.push("failed_share", out.failed as f64 / out.attempted as f64);
    out.notes.push(format!(
        "loopback only; closed loop, 1 client, window {LIVE_WINDOW}; step = one burst round trip ({} bursts, last {} kept); \
         round trips over the last {} of {} requests",
        bursts.written,
        burst_us.len(),
        rtt_us.len(),
        tally.requests
    ));

    if !tracer.enabled() {
        return out;
    }

    // Per-layer metrics.
    let stats = node_stats.unwrap_or_default();
    out.push("core.msgs_sent", stats.messages_sent as f64);
    out.push("core.msgs_received", stats.messages_received as f64);
    out.push("core.bytes_sent", stats.bytes_sent as f64);
    out.push("runtime.datagrams", datagrams as f64);
    out.push("runtime.lost", tally.lost as f64);
    out.push("runtime.rtt_us_p50", rtt_p50);
    out.push("runtime.rtt_us_p99", rtt_p99);
    out.push("runtime.rtt_us_p999", pct(&rtt_us, 99.9));
    let per_burst_us = |total_s: f64| total_s * 1e6 / bursts.written.max(1) as f64;
    out.push("runtime.burst_send_us_mean", per_burst_us(send_total_s));
    out.push(
        "runtime.burst_collect_us_mean",
        per_burst_us(collect_total_s),
    );

    let probes_open = tracer.begin("bench.probes");
    let config = live_config();
    let pingpong_ns = probes::pingpong_ns(tracer, &config);
    let ping = Message::MonitorPing { nonce: Nonce(7) };
    let view_reply = Message::ViewFetchReply {
        nonce: Nonce(7),
        view: input.view.clone(),
    };
    let (ping_enc, ping_dec) = probes::codec_ns(tracer, &ping);
    let (reply_enc, reply_dec) = probes::codec_ns(tracer, &view_reply);
    let driver_ns = driver_ns_per_datagram(tracer, &input, &mut out);
    let send_recv_us = udp_send_recv_us(tracer, &input);
    tracer.end(probes_open);
    out.push("core.pingpong_ns", pingpong_ns);
    out.push("core.codec.encode_ns.ping", ping_enc);
    out.push("core.codec.decode_ns.ping", ping_dec);
    out.push("core.codec.encode_ns.view_reply", reply_enc);
    out.push("core.codec.decode_ns.view_reply", reply_dec);
    out.push("runtime.driver.ns_per_datagram", driver_ns);
    out.push("runtime.udp.send_recv_us", send_recv_us);
    // The node thread takes one datagram off its socket, handles it and
    // puts one on: per request, one driver pass and one send + receive.
    let requests = tally.requests as f64;
    out.push(
        "runtime.est_share.driver",
        driver_ns * requests / (run_s * 1e9),
    );
    out.push(
        "runtime.est_share.kernel",
        send_recv_us * requests / (run_s * 1e6),
    );
    out.notes.push(format!(
        "runtime shares are estimates of the node thread's {run_s:.3} s: requests x probed unit cost \
         (driver pass without a socket; one self-addressed UDP send + receive)"
    ));
    out
}

/// The burst position of the request a `reply` carrying `nonce` answers.
fn slot_of(burst: &[Request], nonce: Nonce, reply: MessageKind) -> Option<usize> {
    burst
        .iter()
        .position(|r| r.nonce == nonce && r.reply == reply)
}

/// A transport that plays the request script into the driver from memory
/// and counts what the driver sends back. When the script is exhausted it
/// tells the driver to stop.
struct Scripted {
    id: NodeId,
    peer: NodeId,
    datagrams: Vec<Vec<u8>>,
    next: usize,
    remaining: u64,
    replies: Arc<AtomicU64>,
    stop: Sender<Command>,
}

impl Transport for Scripted {
    fn local_id(&self) -> NodeId {
        self.id
    }

    fn send(&mut self, _to: NodeId, bytes: &[u8]) {
        black_box(bytes);
        // A statistic read after the thread of control returns.
        self.replies.fetch_add(1, Ordering::Relaxed);
    }

    fn recv_timeout(&mut self, _timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        if self.remaining == 0 {
            let _ = self.stop.send(Command::Stop);
            return None;
        }
        self.remaining -= 1;
        let bytes = self.datagrams[self.next].clone();
        self.next = (self.next + 1) % self.datagrams.len();
        Some((self.peer, bytes))
    }
}

/// Per-datagram cost of `NodeDriver::run` itself — decode, node handler,
/// encode, timer and command polling — with no socket and no second
/// thread: the script is fed from memory on the calling thread.
fn driver_ns_per_datagram(tracer: &mut Tracer, input: &LiveInput, out: &mut Outcome) -> f64 {
    const DATAGRAMS: u64 = 2_000_000;
    let id = NodeId::new([127, 0, 0, 1], 1);
    let (stop, command_rx) = unbounded();
    let (event_tx, _events) = unbounded();
    let replies = Arc::new(AtomicU64::new(0));
    let transport = Scripted {
        id,
        peer: NodeId::new([127, 0, 0, 1], 2),
        datagrams: input.script.iter().map(|r| r.bytes.clone()).collect(),
        next: 0,
        remaining: DATAGRAMS,
        replies: Arc::clone(&replies),
        stop,
    };
    let driver = NodeDriver::new(
        live_node(id, input),
        transport,
        command_rx,
        event_tx,
        SnapshotBoard::default(),
        Vec::new(),
    );
    let ((), secs) = tracer.time("runtime.driver.probe", || driver.run(JoinKind::Fresh, None));
    out.check(
        replies.load(Ordering::Relaxed) == DATAGRAMS,
        "the scripted driver probe did not answer every datagram",
    );
    secs * 1e9 / DATAGRAMS as f64
}

/// Microseconds for one self-addressed `UdpTransport` send plus the
/// matching `recv_timeout`: two system calls and the loopback path, with
/// no thread hand-off.
fn udp_send_recv_us(tracer: &mut Tracer, input: &LiveInput) -> f64 {
    const ROUNDS: u32 = 50_000;
    let mut transport =
        UdpTransport::bind_ephemeral([127, 0, 0, 1]).expect("a loopback socket binds");
    let id = transport.local_id();
    let bytes = &input.script[0].bytes;
    let (received, secs) = tracer.time("runtime.udp.probe", || {
        let mut received = 0u32;
        for _ in 0..ROUNDS {
            transport.send(id, bytes);
            received += u32::from(transport.recv_timeout(REPLY_TIMEOUT).is_some());
        }
        received
    });
    black_box(received);
    secs * 1e6 / f64::from(ROUNDS)
}
