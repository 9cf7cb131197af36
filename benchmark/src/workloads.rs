//! The five workloads and their seeded inputs. The benchmark seed is the
//! only input to generation; the program under test receives only the
//! generated trace, scenario, options and datagrams. Draws come from
//! `mix64`, never from an RNG stream, so no detlint stream owner is
//! needed here.

use std::sync::OnceLock;

use avmon::{codec, Config, HasherKind, Message, MessageKind, NodeId, Nonce, HOUR, MINUTE};
use avmon_churn::{synthetic, SynthParams, Trace};
use avmon_hash::fast64::mix64;
use avmon_sim::{Corruption, LinkFaults, NetworkModel, Scenario, SimOptions};

use crate::metrics::contract;

/// `--seconds` the simulated-minute counts below were sized for on the
/// 2-core reference box; other values scale the measured minutes.
pub const SIZED_FOR_SECONDS: u64 = 10;

/// Requests per burst of the live workload (the closed loop's window):
/// two periods' worth of what one node answers (see [`live_input`]).
pub const LIVE_WINDOW: usize = 32;
/// Bursts in the pre-encoded request script (cycled during the run).
const LIVE_SCRIPT_BURSTS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSpec {
    pub n: usize,
    pub churn_per_hour: f64,
    pub birth_death_per_day: f64,
    /// Simulated minutes before the control group joins and sampling
    /// starts.
    pub warm_min: u64,
    /// Measured simulated minutes at [`SIZED_FOR_SECONDS`].
    pub measured_min: u64,
    pub hasher: HasherKind,
    pub workers: usize,
    /// Base link faults plus the partition / loss-burst / freeze /
    /// corruption scenario.
    pub faults: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Sim(SimSpec),
    Live,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

const STAT_10K: SimSpec = SimSpec {
    n: 10_000,
    churn_per_hour: 0.0,
    birth_death_per_day: 0.0,
    warm_min: 3,
    measured_min: 6,
    hasher: HasherKind::Fast64,
    workers: 1,
    faults: false,
};

const CHURN_FAULTS_4K: SimSpec = SimSpec {
    n: 4_000,
    churn_per_hour: 2.0,
    birth_death_per_day: 20.0,
    warm_min: 6,
    measured_min: 8,
    hasher: HasherKind::Fast64,
    workers: 1,
    faults: true,
};

const MD5_2K: SimSpec = SimSpec {
    n: 2_000,
    churn_per_hour: 0.0,
    birth_death_per_day: 0.0,
    warm_min: 8,
    measured_min: 5,
    hasher: HasherKind::Md5,
    workers: 1,
    faults: false,
};

/// How the workload `/BENCHMARK.json` lists under `name` is built.
fn kind_of(name: &str) -> Option<Kind> {
    Some(match name {
        "stat_10k" => Kind::Sim(STAT_10K),
        "stat_10k_w2" => Kind::Sim(SimSpec {
            workers: 2,
            ..STAT_10K
        }),
        "churn_faults_4k" => Kind::Sim(CHURN_FAULTS_4K),
        "md5_2k" => Kind::Sim(MD5_2K),
        "live_udp_w32" => Kind::Live,
        _ => return None,
    })
}

/// Every workload `/BENCHMARK.json` lists, with its reason, in the order a
/// full set runs them.
pub fn all() -> &'static [Workload] {
    static ALL: OnceLock<Vec<Workload>> = OnceLock::new();
    ALL.get_or_init(|| {
        contract()
            .workloads
            .iter()
            .map(|&(name, why)| Workload {
                name,
                why,
                kind: kind_of(name)
                    .unwrap_or_else(|| panic!("BENCHMARK.json lists {name}, which is not built")),
            })
            .collect()
    })
}

pub fn find(name: &str) -> Option<&'static Workload> {
    all().iter().find(|w| w.name == name)
}

/// Measured simulated minutes for a run asked to measure `seconds`:
/// proportional to `seconds`, never fewer than four (the fault scenario
/// needs room). A function of the arguments only, so a seed's simulated
/// results do not depend on host speed.
pub fn measured_minutes(spec: &SimSpec, seconds: u64) -> u64 {
    ((spec.measured_min * seconds + SIZED_FOR_SECONDS / 2) / SIZED_FOR_SECONDS).max(4)
}

/// A draw in `0..bound` from the seed, a stream number and a position
/// (below 2^32) in that stream.
fn draw(seed: u64, salt: u64, i: u64, bound: u64) -> u64 {
    mix64(seed ^ mix64((salt << 32) + i)) % bound
}

/// MD5 over the trace text, the scenario, the network model and the
/// master seed — everything that varies with the benchmark seed. The
/// worker count is left out on purpose: `stat_10k` and `stat_10k_w2` must
/// hash equal.
pub fn sim_input_hash(trace: &Trace, opts: &SimOptions) -> String {
    let mut text = avmon_churn::to_text(trace);
    text.push_str(&format!(
        "seed {} hasher {:?} scenario {:?} network {:?}",
        opts.seed, opts.hasher, opts.scenario, opts.network
    ));
    crate::hex(&avmon_hash::md5::md5(text.as_bytes()))
}

/// The churn trace of a simulated workload: `warm_min` minutes of warm-up,
/// then the measured minutes for `seconds`; a 5 % control group joins at
/// the end of warm-up (implicit — nodes born later — when births occur).
pub fn sim_trace(spec: &SimSpec, seed: u64, seconds: u64) -> Trace {
    synthetic(SynthParams {
        n: spec.n,
        churn_per_hour: spec.churn_per_hour,
        birth_death_per_day: spec.birth_death_per_day,
        warmup: spec.warm_min * MINUTE,
        duration: measured_minutes(spec, seconds) * MINUTE,
        control_fraction: 0.05,
        seed: mix64(seed ^ 0x0074_7261_6365), // "trace"
    })
}

/// The simulator options of a workload, including its fault scenario.
/// Everything not set here is the simulator's default: `Record`-mode
/// invariant checker, default latency model, default memo policy.
pub fn sim_options(spec: &SimSpec, seed: u64, seconds: u64) -> SimOptions {
    let config = Config::builder(spec.n)
        .build()
        .expect("default config is valid for every workload size");
    let mut opts = SimOptions::new(config)
        .seed(mix64(seed ^ 0x0073_696d)) // "sim"
        .hasher(spec.hasher)
        .workers(spec.workers);
    if spec.faults {
        opts.network = NetworkModel {
            faults: LinkFaults {
                loss: 0.02,
                duplicate: 0.01,
                jitter: 20,
            },
            ..NetworkModel::default()
        };
        opts = opts.scenario(fault_scenario(spec, seed, measured_minutes(spec, seconds)));
    }
    opts
}

/// The fault timeline of `churn_faults_4k`, placed inside the measured
/// window in tenths of its length: a ~10 %/90 % partition for two tenths,
/// a 30 % loss burst for one tenth, one frozen node, one fully corrupted
/// node. Who is cut off, frozen and corrupted comes from the seed.
fn fault_scenario(spec: &SimSpec, seed: u64, measured_min: u64) -> Scenario {
    let n = spec.n as u64;
    let tenth = measured_min * MINUTE / 10;
    let start = spec.warm_min * MINUTE;
    // Initial identities are indices 0..n; each lands on the island with
    // probability one tenth.
    let (island, mainland): (Vec<u32>, Vec<u32>) =
        (0..spec.n as u32).partition(|&i| draw(seed, 1, u64::from(i), 10) == 0);
    let ids = |v: Vec<u32>| v.into_iter().map(NodeId::from_index).collect::<Vec<_>>();
    let frozen = NodeId::from_index(draw(seed, 3, 0, n) as u32);
    let corrupted = NodeId::from_index(draw(seed, 4, 0, n) as u32);
    Scenario::builder("bench-churn-faults")
        .partition(start + tenth, 2 * tenth, ids(island), ids(mainland))
        .corrupt(
            start + 2 * tenth,
            corrupted,
            Corruption::Full,
            mix64(seed ^ 0x636f_7272), // "corr"
        )
        .freeze(start + 3 * tenth, tenth, frozen)
        .loss_burst(start + 5 * tenth, tenth, 0.30)
        .build()
        .expect("the generated scenario is well-formed")
}

/// The live node's configuration: the defaults at N = 10 000 (`k` = 14,
/// `cvs` = 40) with week-long periods, so during a run it originates
/// nothing and every datagram it sends is a reply.
pub fn live_config() -> Config {
    Config::builder(10_000)
        .protocol_period(168 * HOUR)
        .monitoring_period(168 * HOUR)
        .build()
        .expect("the live node's config is valid")
}

/// What the live request generator sends and what it must get back.
pub struct LiveInput {
    /// Seeds the node's RNG.
    pub node_seed: u64,
    /// The `cvs` entries seeded into the node's coarse view; every
    /// `ViewFetchReply` must carry exactly this.
    pub view: Vec<NodeId>,
    /// Pre-encoded requests, [`LIVE_WINDOW`] per burst.
    pub script: Vec<Request>,
}

pub struct Request {
    pub nonce: Nonce,
    /// The kind of message that answers it.
    pub reply: MessageKind,
    pub bytes: Vec<u8>,
}

impl LiveInput {
    pub fn bursts(&self) -> std::slice::Chunks<'_, Request> {
        self.script.chunks(LIVE_WINDOW)
    }

    /// MD5 over the datagram script, the seeded view and the node seed.
    pub fn hash(&self) -> String {
        let mut bytes: Vec<u8> = self.script.iter().flat_map(|r| r.bytes.clone()).collect();
        bytes.extend(self.view.iter().flat_map(|id| id.to_bytes()));
        bytes.extend_from_slice(&self.node_seed.to_le_bytes());
        crate::hex(&avmon_hash::md5::md5(&bytes))
    }
}

/// Bursts of [`LIVE_WINDOW`] requests in the mix a steady node answers.
/// Each period the protocol has every node ping its `k` targets, ping one
/// coarse-view entry and fetch one view (Fig. 2, §3.3), so a node receives
/// on average `k` `MonitorPing`s, one `ViewPing` and one `ViewFetch` per
/// period — measured in the simulator as 11.3 monitor pings per node-minute
/// at N = 2 000 (`k` = 11) and 12.7, still climbing to `k` = 14, nine
/// minutes into `stat_10k`. The script is that period, `k` + 2 requests,
/// over and over, with the two view requests at seeded positions and a
/// distinct seeded nonce on every request.
pub fn live_input(seed: u64) -> LiveInput {
    let config = live_config();
    let period = u64::from(config.k) + 2;
    assert_eq!(LIVE_WINDOW as u64 % period, 0, "a burst is whole periods");
    // Distinct by construction: entry `i` is drawn from its own block of
    // 2^15 identities.
    let view: Vec<NodeId> = (0..config.cvs as u64)
        .map(|i| NodeId::from_index(((i << 15) + draw(seed, 5, i, 1 << 15)) as u32))
        .collect();
    let total = LIVE_SCRIPT_BURSTS * LIVE_WINDOW;
    let script: Vec<Request> = (0..total as u64)
        .map(|i| {
            let (group, at) = (i / period, i % period);
            let view_ping_at = draw(seed, 6, group, period);
            let fetch_at = (view_ping_at + 1 + draw(seed, 8, group, period - 1)) % period;
            // Distinct by construction: the low bits carry the index.
            let nonce = Nonce((mix64(seed ^ mix64(7 + i)) << 16) | i);
            let (msg, reply) = if at == fetch_at {
                (Message::ViewFetch { nonce }, MessageKind::ViewFetchReply)
            } else if at == view_ping_at {
                (Message::ViewPing { nonce }, MessageKind::ViewPong)
            } else {
                (Message::MonitorPing { nonce }, MessageKind::MonitorPong)
            };
            Request {
                nonce,
                reply,
                bytes: codec::encode(&msg).to_vec(),
            }
        })
        .collect();
    LiveInput {
        node_seed: mix64(seed ^ 0x6e6f_6465), // "node"
        view,
        script,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> SimSpec {
        match find(name).expect("known workload").kind {
            Kind::Sim(spec) => spec,
            Kind::Live => panic!("{name} is not simulated"),
        }
    }

    #[test]
    fn every_listed_workload_is_built_once() {
        let all = all();
        assert_eq!(all.len(), 5);
        for (i, w) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name), Some(w));
        }
        assert_eq!(find("nope"), None);
    }

    #[test]
    fn measured_minutes_scale_with_seconds() {
        let s = spec("stat_10k");
        assert_eq!(measured_minutes(&s, SIZED_FOR_SECONDS), s.measured_min);
        assert_eq!(
            measured_minutes(&s, 2 * SIZED_FOR_SECONDS),
            2 * s.measured_min
        );
        assert_eq!(measured_minutes(&s, 1), 4, "floor of four minutes");
    }

    /// Same seed ⇒ identical inputs; another seed ⇒ different inputs —
    /// for the trace + scenario + master seed of a simulated workload and
    /// for the live datagram script. (Small `n` keeps the test fast; the
    /// generators are the ones the real sizes use.)
    #[test]
    fn generators_are_deterministic_in_the_seed() {
        let small = SimSpec {
            n: 200,
            ..spec("churn_faults_4k")
        };
        let input = |seed| (sim_trace(&small, seed, 10), sim_options(&small, seed, 10));
        let hash = |(trace, opts): &(Trace, SimOptions)| sim_input_hash(trace, opts);
        let (a, b, c) = (input(7), input(7), input(11));
        assert_eq!(hash(&a), hash(&b));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.scenario, b.1.scenario);
        assert_ne!(hash(&a), hash(&c));
        assert_ne!(a.0.events, c.0.events);
        assert_ne!(a.1.scenario, c.1.scenario);

        // STAT traces carry no randomness; the master seed still differs.
        let stat = SimSpec {
            n: 200,
            ..spec("stat_10k")
        };
        let stat_hash =
            |seed| sim_input_hash(&sim_trace(&stat, seed, 10), &sim_options(&stat, seed, 10));
        assert_eq!(stat_hash(7), stat_hash(7));
        assert_ne!(stat_hash(7), stat_hash(11));

        assert_eq!(live_input(7).hash(), live_input(7).hash());
        assert_ne!(live_input(7).hash(), live_input(11).hash());
    }

    #[test]
    fn sharded_twin_gets_the_same_input() {
        let (w1, w2) = (spec("stat_10k"), spec("stat_10k_w2"));
        assert_eq!(SimSpec { workers: 2, ..w1 }, w2);
        let hash = |s: SimSpec| {
            let small = SimSpec { n: 200, ..s };
            sim_input_hash(&sim_trace(&small, 7, 10), &sim_options(&small, 7, 10))
        };
        assert_eq!(hash(w1), hash(w2));
    }

    #[test]
    fn fault_scenario_cuts_a_tenth_off() {
        let s = spec("churn_faults_4k");
        for seed in [7, 11, 12345] {
            let scenario = fault_scenario(&s, seed, 10);
            let avmon_sim::Fault::Partition { a, b, .. } = &scenario.events[0].fault else {
                panic!("partition comes first: {:?}", scenario.events[0]);
            };
            assert!((s.n / 20..s.n * 3 / 20).contains(&a.len()), "{}", a.len());
            assert_eq!(a.len() + b.len(), s.n);
            assert_eq!(scenario.events.len(), 4);
        }
    }

    #[test]
    fn live_script_is_whole_periods_with_distinct_nonces() {
        let input = live_input(7);
        let config = live_config();
        assert_eq!(input.view.len(), config.cvs);
        assert_eq!(input.script.len(), LIVE_SCRIPT_BURSTS * LIVE_WINDOW);
        let period = config.k as usize + 2;
        for requests in input.script.chunks(period) {
            let count = |kind| requests.iter().filter(|r| r.reply == kind).count();
            assert_eq!(count(MessageKind::MonitorPong), config.k as usize);
            assert_eq!(count(MessageKind::ViewPong), 1);
            assert_eq!(count(MessageKind::ViewFetchReply), 1);
        }
        let mut nonces: Vec<u64> = input.script.iter().map(|r| r.nonce.0).collect();
        nonces.sort_unstable();
        nonces.dedup();
        assert_eq!(nonces.len(), input.script.len());
        for r in &input.script {
            let (nonce, reply) = match codec::decode(&r.bytes).expect("script datagrams decode") {
                Message::ViewFetch { nonce } => (nonce, MessageKind::ViewFetchReply),
                Message::ViewPing { nonce } => (nonce, MessageKind::ViewPong),
                Message::MonitorPing { nonce } => (nonce, MessageKind::MonitorPong),
                other => panic!("unexpected script message {other:?}"),
            };
            assert_eq!((nonce, reply), (r.nonce, r.reply));
        }
    }
}
