//! Property-based tests for the core protocol data structures.

#![expect(clippy::disallowed_types, reason = "tests are exempt")]

use avmon::bytes::{self, BufMut};
use avmon::codec::{decode, decode_from, encode, encode_into, encoded_len};
use avmon::rng::Stream;
use avmon::{
    CoarseView, Config, CvsPolicy, HashSelector, HasherKind, Message, MonitorSelector, NodeId,
    Nonce, PairHasher, Threshold,
};
use proptest::prelude::*;

fn arb_node_id() -> impl Strategy<Value = NodeId> {
    (any::<[u8; 4]>(), any::<u16>()).prop_map(|(ip, port)| NodeId::new(ip, port))
}

fn arb_view(max: usize) -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::vec(arb_node_id(), 0..max)
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (arb_node_id(), any::<u32>(), any::<u32>()).prop_map(|(origin, weight, hops)| {
            Message::Join {
                origin,
                weight,
                hops,
            }
        }),
        any::<u64>().prop_map(|n| Message::InitViewRequest { nonce: Nonce(n) }),
        (any::<u64>(), arb_view(64)).prop_map(|(n, view)| Message::InitViewReply {
            nonce: Nonce(n),
            view
        }),
        any::<u64>().prop_map(|n| Message::ViewPing { nonce: Nonce(n) }),
        any::<u64>().prop_map(|n| Message::ViewPong { nonce: Nonce(n) }),
        any::<u64>().prop_map(|n| Message::ViewFetch { nonce: Nonce(n) }),
        (any::<u64>(), arb_view(64)).prop_map(|(n, view)| Message::ViewFetchReply {
            nonce: Nonce(n),
            view
        }),
        (arb_node_id(), arb_node_id())
            .prop_map(|(monitor, target)| Message::Notify { monitor, target }),
        any::<u64>().prop_map(|n| Message::MonitorPing { nonce: Nonce(n) }),
        any::<u64>().prop_map(|n| Message::MonitorPong { nonce: Nonce(n) }),
        (any::<u64>(), any::<u8>()).prop_map(|(n, count)| Message::ReportRequest {
            nonce: Nonce(n),
            count
        }),
        (any::<u64>(), arb_view(32)).prop_map(|(n, monitors)| Message::ReportReply {
            nonce: Nonce(n),
            monitors
        }),
        (any::<u64>(), arb_node_id()).prop_map(|(n, target)| Message::HistoryRequest {
            nonce: Nonce(n),
            target
        }),
        (
            any::<u64>(),
            arb_node_id(),
            proptest::option::of(0.0f64..=1.0),
            any::<u64>()
        )
            .prop_map(|(n, target, availability, samples)| Message::HistoryReply {
                nonce: Nonce(n),
                target,
                availability,
                samples
            }),
        Just(Message::AddMeRequest),
        arb_node_id().prop_map(|origin| Message::Presence { origin }),
        proptest::collection::vec(any::<u8>(), 0..64)
            .prop_map(|payload| Message::AppData { payload }),
    ]
}

/// Exhaustiveness guard for the strategy itself: `arb_message` must be
/// able to produce *every* wire variant, or the round-trip properties
/// above would silently stop covering new messages. Breaks loudly when a
/// variant is added to `Message` without extending the strategy.
#[test]
fn arb_message_covers_every_variant() {
    let strategy = arb_message();
    let mut rng = proptest::test_rng(42);
    let mut kinds = std::collections::BTreeSet::new();
    for _ in 0..4000 {
        kinds.insert(strategy.generate(&mut rng).kind());
    }
    // One per Message variant (see MessageKind).
    assert_eq!(kinds.len(), 17, "strategy misses variants; saw {kinds:?}");
}

proptest! {
    /// Every message the protocol can produce round-trips the wire codec.
    #[test]
    fn codec_round_trips(msg in arb_message()) {
        let bytes = encode(&msg);
        prop_assert_eq!(decode(&bytes).unwrap(), msg);
    }

    /// `encoded_len` is exact for every message.
    #[test]
    fn encoded_len_matches_encode(msg in arb_message()) {
        prop_assert_eq!(encode(&msg).len(), encoded_len(&msg));
    }

    /// The zero-copy `encode_into` path (what the runtime driver and the
    /// bandwidth accounting actually use) agrees with `encode` and
    /// round-trips through `decode_from` for arbitrary message *sequences*
    /// sharing one reused buffer — including a dirty (non-empty) buffer,
    /// since `encode_into` appends.
    #[test]
    fn encode_into_round_trips_message_streams(
        msgs in proptest::collection::vec(arb_message(), 1..8),
        prefix in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(&prefix);
        for msg in &msgs {
            let before = buf.len();
            encode_into(msg, &mut buf);
            prop_assert_eq!(buf.len() - before, encoded_len(msg));
            prop_assert_eq!(&buf[before..], &encode(msg)[..]);
        }
        let mut slice: &[u8] = &buf[prefix.len()..];
        for msg in &msgs {
            prop_assert_eq!(&decode_from(&mut slice).unwrap(), msg);
        }
        prop_assert!(slice.is_empty());
    }

    /// Decoding arbitrary junk never panics (it may error).
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    /// Coarse-view invariants hold under arbitrary operation sequences:
    /// bounded size, no self, no duplicates.
    #[test]
    fn view_invariants_hold(
        cap in 2usize..24,
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..5, 0u32..64), 1..200),
    ) {
        let owner = NodeId::from_index(999);
        let mut view = CoarseView::new(owner, cap);
        let mut rng = Stream::seeded(seed);
        for (op, arg) in ops {
            let id = NodeId::from_index(arg);
            match op {
                0 => { view.insert(id); }
                1 => { view.insert_or_replace(id, &mut rng); }
                2 => { view.remove(id); }
                3 => {
                    let peer = NodeId::from_index(arg + 1000);
                    let peer_view: Vec<NodeId> =
                        (arg..arg + 10).map(NodeId::from_index).collect();
                    view.shuffle_merge(peer, &peer_view, &mut rng);
                }
                _ => {
                    let src: Vec<NodeId> = (arg..arg + 30).map(NodeId::from_index).collect();
                    view.adopt(&src);
                }
            }
            prop_assert!(view.len() <= cap, "capacity exceeded");
            prop_assert!(!view.contains(owner), "self in view");
            let mut seen = std::collections::HashSet::new();
            for e in view.iter() {
                prop_assert!(seen.insert(e), "duplicate entry");
            }
        }
    }

    /// The hash selector is a pure function of the pair: repeated queries
    /// agree, and constructing a second selector gives identical answers.
    #[test]
    fn selector_is_pure(a in arb_node_id(), b in arb_node_id(), k in 1u32..64, n in 64usize..100_000) {
        let cfg = Config::builder(n).k(k).build().unwrap();
        let s1 = HashSelector::from_config(&cfg);
        let s2 = HashSelector::from_config(&cfg);
        prop_assert_eq!(s1.is_monitor(a, b), s2.is_monitor(a, b));
        prop_assert_eq!(s1.is_monitor(a, b), s1.is_monitor(a, b));
    }

    /// The selector every caller gets (`from_config_with_kind`: monomorphic
    /// hasher, pair assembled in registers, fixed-length kernel, batch form
    /// picked by type) against the definition — `HasherKind::build()`'s
    /// `point` over the serialized `NodeId::pair_bytes` — on `is_monitor`
    /// and `accepted_pairs`, for each built-in kind, for arbitrary
    /// identities (any port, and `monitor == target` on the diagonal) at a
    /// dense and a sparse threshold.
    #[test]
    fn kernel_selector_matches_the_pair_bytes_reference(
        ids in proptest::collection::vec(arb_node_id(), 2..10),
        dense in any::<bool>(),
    ) {
        let config = if dense {
            Config::builder(64).k(32).build().unwrap()
        } else {
            Config::builder(10_000).build().unwrap()
        };
        let (k, n) = config.threshold_ratio();
        let threshold = Threshold::from_ratio(k, n);
        for kind in [HasherKind::Fast64, HasherKind::Md5] {
            let kernel = HashSelector::from_config_with_kind(&config, kind);
            let hasher = kind.build();
            let mut expected_pairs = Vec::new();
            for (mi, &m) in ids.iter().enumerate() {
                for (ti, &t) in ids.iter().enumerate() {
                    let accepted = threshold.accepts(hasher.point(&NodeId::pair_bytes(m, t)));
                    prop_assert_eq!(kernel.is_monitor(m, t), accepted, "{} {} {}", kind, m, t);
                    if m != t && accepted {
                        expected_pairs.push((mi, ti));
                    }
                }
            }
            let mut got = Vec::new();
            kernel.accepted_pairs(&ids, &ids, &mut |mi, ti| got.push((mi, ti)));
            prop_assert_eq!(&got, &expected_pairs, "{} accepted_pairs", kind);
        }
    }

    /// CvsPolicy outputs are monotone in N and at least 2.
    #[test]
    fn cvs_policies_monotone(n in 4usize..1_000_000) {
        for policy in [CvsPolicy::OptimalMd, CvsPolicy::OptimalMdc, CvsPolicy::LogN, CvsPolicy::PAPER_DEFAULT] {
            let small = policy.cvs(n);
            let big = policy.cvs(n * 2);
            prop_assert!(small >= 2);
            prop_assert!(big >= small, "{policy:?} not monotone at {n}");
        }
    }
}

/// One input to the node in the consistency-condition property below.
#[derive(Debug, Clone)]
enum CheckOp {
    /// Deliver `Notify { monitor, target }` (drives the check in both
    /// directions against the node's own identity).
    Notify(u8, u8),
    /// Leave + rejoin: snapshot persistent state into a fresh incarnation
    /// of the same identity (restored PS/TS).
    Rejoin,
    /// In-place incarnation bump of the durable state (restore without a
    /// fresh node — exercises `restore_persistent` mid-life).
    RestoreInPlace,
    /// Process a fetched view (the Fig. 2 cross-check hot path).
    Fetch(Vec<u8>),
}

fn arb_check_op() -> impl Strategy<Value = CheckOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(m, t)| CheckOp::Notify(m, t)),
        (any::<u8>(), any::<u8>()).prop_map(|(m, t)| CheckOp::Notify(m, t)),
        Just(CheckOp::Rejoin),
        Just(CheckOp::RestoreInPlace),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(CheckOp::Fetch),
    ]
}

/// The hash selector with a call counter: what the node evaluates, and
/// how often.
#[derive(Debug)]
struct CountingSelector {
    inner: HashSelector,
    calls: std::sync::atomic::AtomicU64,
}

impl MonitorSelector for CountingSelector {
    fn is_monitor(&self, monitor: NodeId, target: NodeId) -> bool {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.is_monitor(monitor, target)
    }

    fn name(&self) -> &'static str {
        "counting"
    }
}

proptest! {
    /// Under arbitrary interleavings of joins/leaves/incarnation bumps and
    /// check-heavy protocol inputs, every PS/TS decision the node makes is
    /// `selector.is_monitor` on that pair — every entry admitted satisfies
    /// the condition, every offered pair that satisfies it is admitted —
    /// and `stats().hash_checks` is exactly the number of evaluations the
    /// node asked its selector for (the per-period self-audit of
    /// `|PS| + |TS|` entries aside, which is deliberately uncounted).
    #[test]
    fn node_decisions_are_the_selector_and_hash_checks_counts_them(
        seed in any::<u64>(),
        ops in proptest::collection::vec(arb_check_op(), 1..60),
    ) {
        use std::sync::atomic::Ordering;
        use std::sync::Arc;
        let config = Config::builder(256).k(24).build().unwrap();
        let fresh = HashSelector::from_config(&config);
        let selector = Arc::new(CountingSelector {
            inner: HashSelector::from_config(&config),
            calls: 0.into(),
        });
        let me = NodeId::from_index(1);
        let mut node = avmon::Node::new(me, config.clone(), selector.clone(), seed);
        let mut offered: Vec<(NodeId, NodeId)> = Vec::new();
        // `hash_checks` of retired incarnations, and audit evaluations.
        let (mut counted_before, mut audited) = (0u64, 0u64);
        let drain = |node: &mut avmon::Node| {
            while node.poll_transmit().is_some() {}
            while node.poll_timer().is_some() {}
            while node.poll_event().is_some() {}
        };
        for (step, op) in ops.iter().enumerate() {
            let now = (step as u64 + 1) * 1000;
            match op {
                CheckOp::Notify(m, t) => {
                    let (monitor, target) = (
                        NodeId::from_index(u32::from(*m)),
                        NodeId::from_index(u32::from(*t)),
                    );
                    node.handle_message(
                        now,
                        NodeId::from_index(2),
                        Message::Notify { monitor, target },
                    );
                    offered.push((monitor, target));
                }
                CheckOp::Rejoin => {
                    let persistent = node.snapshot_persistent();
                    counted_before += node.stats().hash_checks;
                    node = avmon::Node::new(
                        me,
                        config.clone(),
                        selector.clone(),
                        seed ^ (step as u64 + 1),
                    );
                    node.restore_persistent(persistent);
                }
                CheckOp::RestoreInPlace => {
                    let persistent = node.snapshot_persistent();
                    node.restore_persistent(persistent);
                }
                CheckOp::Fetch(raw) => {
                    // A real Fig. 2 round: seed the view, run a protocol
                    // period, answer its ViewFetch with the raw id list —
                    // the (cvs+2)² cross-check runs on delivery.
                    let view: Vec<NodeId> = raw
                        .iter()
                        .map(|&i| NodeId::from_index(u32::from(i)))
                        .filter(|&v| v != me)
                        .collect();
                    node.seed_view(&view);
                    audited += (node.pinging_set().count() + node.target_set().count()) as u64;
                    node.handle_timer(now, avmon::Timer::Protocol);
                    let mut fetch: Option<(NodeId, Nonce)> = None;
                    while let Some(t) = node.poll_transmit() {
                        if let (Some(to), Message::ViewFetch { nonce }) =
                            (t.unicast_to(), &t.msg)
                        {
                            fetch = Some((to, *nonce));
                        }
                    }
                    drain(&mut node);
                    if let Some((peer, nonce)) = fetch {
                        node.handle_message(
                            now + 1,
                            peer,
                            Message::ViewFetchReply { nonce, view },
                        );
                    }
                }
            }
            drain(&mut node);
            // Soundness: everything admitted passes a fresh evaluation.
            for monitor in node.pinging_set() {
                prop_assert!(
                    fresh.is_monitor(monitor, me),
                    "admitted ghost monitor {monitor}"
                );
            }
            for target in node.target_set() {
                prop_assert!(
                    fresh.is_monitor(me, target),
                    "admitted ghost target {target}"
                );
            }
            prop_assert_eq!(
                counted_before + node.stats().hash_checks,
                selector.calls.load(Ordering::Relaxed) - audited,
                "hash_checks left the evaluation count at step {}", step
            );
        }
        // Completeness: every offered pair involving this node that the
        // fresh hash accepts was admitted (Notify re-verification admits
        // exactly the condition pairs).
        for (monitor, target) in offered {
            if target == me && monitor != me && fresh.is_monitor(monitor, me) {
                prop_assert!(
                    node.pinging_set().any(|p| p == monitor),
                    "rejected true monitor {monitor}"
                );
            }
            if monitor == me && target != me && fresh.is_monitor(me, target) {
                prop_assert!(
                    node.target_set().any(|t| t == target),
                    "rejected true target {target}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Adversary-pack properties: scenario timelines survive the serde boundary,
// and state corruption always self-heals without structural violations.

use avmon::TargetRecord;
use avmon_sim::{Corruption, Fault, Scenario, ScenarioEvent};

fn arb_corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        Just(Corruption::Ghosts),
        Just(Corruption::Drops),
        Just(Corruption::Scramble),
        Just(Corruption::Full),
    ]
}

fn arb_corrupt_event() -> impl Strategy<Value = ScenarioEvent> {
    (any::<u64>(), arb_node_id(), arb_corruption(), any::<u64>()).prop_map(
        |(at, node, pattern, seed)| ScenarioEvent {
            at,
            fault: Fault::Corrupt {
                node,
                pattern,
                seed,
            },
        },
    )
}

fn arb_eclipse_event() -> impl Strategy<Value = ScenarioEvent> {
    (any::<u64>(), arb_view(6), arb_view(6), 1u64..=avmon::HOUR).prop_map(
        |(at, coalition, victims, duration)| ScenarioEvent {
            at,
            fault: Fault::Eclipse {
                coalition,
                victims,
                duration,
            },
        },
    )
}

/// A garbage target record as a botched restore might produce it: nonsense
/// counters (possibly pongs > pings), a stale discovery stamp.
fn garbage_record(discovered_at: u64, pings: u64, pongs: u64) -> TargetRecord {
    TargetRecord {
        discovered_at,
        pings_sent: pings,
        pongs_received: pongs,
        last_pong: None,
        session_start: None,
        last_session: 0,
        unresponsive_since: None,
    }
}

proptest! {
    /// Arbitrary eclipse/corruption timelines survive the serde boundary
    /// byte-exactly, so a failing fuzz seed's scenario JSON is a complete,
    /// replayable bug report. Deliberately built from raw literals rather
    /// than the validating builder: replay tooling deserializes *before*
    /// validation, so even degenerate timelines (empty coalitions,
    /// overlapping sets) must round-trip.
    #[test]
    fn adversary_timelines_round_trip_serde(
        corruptions in proptest::collection::vec(arb_corrupt_event(), 0..6),
        eclipses in proptest::collection::vec(arb_eclipse_event(), 0..6),
        name_tag in any::<u32>(),
    ) {
        let scenario = Scenario {
            name: format!("fuzz-{name_tag}"),
            events: corruptions.into_iter().chain(eclipses).collect(),
        };
        let json = serde_json::to_string(&scenario).unwrap();
        prop_assert_eq!(serde_json::from_str::<Scenario>(&json).unwrap(), scenario);
    }

    /// Corrupting a node's durable PS/TS — ghost identities, duplicates,
    /// even its own id — and letting it run never breaks the structural
    /// invariants: the coarse view stays bounded and self-free throughout,
    /// and after the first protocol period's self-audit every surviving
    /// PS/TS entry is one the hash condition actually selects (the
    /// node-local half of the simulator's stabilization proof).
    #[test]
    fn corrupted_node_self_heals_without_structural_violations(
        seed in any::<u64>(),
        garbage_ps in proptest::collection::vec(any::<u32>(), 0..12),
        garbage_ts in proptest::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..12),
        inject_self in any::<bool>(),
        view_raw in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        use std::sync::Arc;
        let config = Config::builder(256).k(24).build().unwrap();
        let cvs = config.cvs;
        let fresh = HashSelector::from_config(&config);
        let me = NodeId::from_index(1);
        let mut node = avmon::Node::new(
            me,
            config.clone(),
            Arc::new(HashSelector::from_config(&config)),
            seed,
        );
        let drain = |node: &mut avmon::Node| {
            while node.poll_transmit().is_some() {}
            while node.poll_timer().is_some() {}
            while node.poll_event().is_some() {}
        };
        // A live-ish node: seeded view, one protocol period of normal life.
        let view: Vec<NodeId> = view_raw
            .iter()
            .map(|&i| NodeId::from_index(u32::from(i)))
            .filter(|&v| v != me)
            .collect();
        node.seed_view(&view);
        node.handle_timer(1000, avmon::Timer::Protocol);
        drain(&mut node);

        // Corrupt the durable state in place (what `Fault::Corrupt` does).
        let mut state = node.snapshot_persistent();
        for &g in &garbage_ps {
            state.ps.push(NodeId::from_index(g % (1 << 24)));
        }
        for &(g, pings, pongs) in &garbage_ts {
            state
                .targets
                .push((NodeId::from_index(g % (1 << 24)), garbage_record(0, pings, pongs)));
        }
        if inject_self {
            state.ps.push(me);
            state.targets.push((me, garbage_record(0, 0, 0)));
        }
        node.restore_persistent(state);

        // Drive a few periods; the first audit purges every illegitimate
        // entry, and nothing structural ever breaks along the way.
        for step in 0..4u64 {
            node.handle_timer(60_000 * (step + 1), avmon::Timer::Protocol);
            drain(&mut node);
            prop_assert!(node.view().len() <= cvs, "view overflow");
            prop_assert!(!node.view().contains(me), "self in view");
        }
        for monitor in node.pinging_set() {
            prop_assert!(monitor != me, "self left in PS");
            prop_assert!(
                fresh.is_monitor(monitor, me),
                "audit left ghost monitor {monitor}"
            );
        }
        for target in node.target_set() {
            prop_assert!(target != me, "self left in TS");
            prop_assert!(
                fresh.is_monitor(me, target),
                "audit left ghost target {target}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// PS/TS storage: the sorted vectors behave as the `BTreeSet` / `BTreeMap`
// they replace, iteration order and duplicate-input semantics included.

use avmon::table::{SortedMap, SortedSet};
use avmon::PersistentState;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum SortedOp {
    Insert(u8, u64),
    Remove(u8),
    Lookup(u8),
}

fn arb_sorted_ops() -> impl Strategy<Value = Vec<SortedOp>> {
    // A 32-wide key universe, so keys are inserted, removed and
    // reinserted many times over.
    let op = (0..32u8, any::<u64>(), 0..4u8).prop_map(|(key, value, kind)| match kind {
        0 | 1 => SortedOp::Insert(key, value),
        2 => SortedOp::Remove(key),
        _ => SortedOp::Lookup(key),
    });
    proptest::collection::vec(op, 1..400)
}

fn id(raw: u8) -> NodeId {
    NodeId::from_index(u32::from(raw))
}

proptest! {
    #[test]
    fn sorted_map_agrees_with_btreemap(ops in arb_sorted_ops()) {
        let mut sorted: SortedMap<NodeId, u64> = SortedMap::new();
        let mut reference: BTreeMap<NodeId, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                SortedOp::Insert(k, v) => {
                    prop_assert_eq!(sorted.insert(id(k), v), reference.insert(id(k), v));
                }
                SortedOp::Remove(k) => {
                    prop_assert_eq!(sorted.remove(&id(k)), reference.remove(&id(k)));
                }
                SortedOp::Lookup(k) => {
                    prop_assert_eq!(sorted.get(&id(k)), reference.get(&id(k)));
                    prop_assert_eq!(sorted.contains_key(&id(k)), reference.contains_key(&id(k)));
                    if let (Some(v), Some(r)) = (sorted.get_mut(&id(k)), reference.get_mut(&id(k))) {
                        *v = v.wrapping_add(1);
                        *r = r.wrapping_add(1);
                    }
                }
            }
            prop_assert_eq!(sorted.len(), reference.len());
            prop_assert!(sorted.iter().eq(reference.iter()));
            prop_assert!(sorted.keys().eq(reference.keys()));
        }
    }

    #[test]
    fn sorted_set_agrees_with_btreeset(ops in arb_sorted_ops()) {
        let mut sorted: SortedSet<NodeId> = SortedSet::new();
        let mut reference: BTreeSet<NodeId> = BTreeSet::new();
        for op in &ops {
            match *op {
                SortedOp::Insert(k, _) => {
                    prop_assert_eq!(sorted.insert(id(k)), reference.insert(id(k)));
                }
                SortedOp::Remove(k) => {
                    prop_assert_eq!(sorted.remove(&id(k)), reference.remove(&id(k)));
                }
                SortedOp::Lookup(k) => {
                    prop_assert_eq!(sorted.contains(&id(k)), reference.contains(&id(k)));
                }
            }
            prop_assert_eq!(sorted.len(), reference.len());
            prop_assert!(sorted.iter().eq(reference.iter()));
        }
    }

    /// `restore_persistent` from a state with repeated ids — what
    /// `Corruption` feeds it — keeps `BTreeSet` / `BTreeMap` collect
    /// semantics: one entry per id, ascending, and the last record of a
    /// repeated target wins (with its session fields reset).
    #[test]
    fn restore_dedups_sorts_and_keeps_the_last_record(
        seed in any::<u64>(),
        ps in proptest::collection::vec(0..16u8, 0..24),
        targets in proptest::collection::vec((0..16u8, any::<u64>()), 0..24),
    ) {
        use std::sync::Arc;
        let config = Config::builder(256).k(24).build().unwrap();
        let me = NodeId::from_index(1);
        let mut node = avmon::Node::new(
            me,
            config.clone(),
            Arc::new(HashSelector::from_config(&config)),
            seed,
        );
        let record = |pings: u64| TargetRecord {
            session_start: Some(avmon::Stamp::new(pings)),
            unresponsive_since: Some(avmon::Stamp::new(pings)),
            ..garbage_record(pings, pings, 0)
        };
        let state = PersistentState {
            ps: ps.iter().map(|&p| id(p)).collect(),
            targets: targets.iter().map(|&(t, pings)| (id(t), record(pings))).collect(),
        };
        let expected_ps: BTreeSet<NodeId> = state.ps.iter().copied().collect();
        let expected_ts: BTreeMap<NodeId, TargetRecord> = targets
            .iter()
            .map(|&(t, pings)| (id(t), garbage_record(pings, pings, 0)))
            .collect();
        node.restore_persistent(state);
        prop_assert!(node.pinging_set().eq(expected_ps.iter().copied()));
        prop_assert!(node
            .target_records()
            .eq(expected_ts.iter().map(|(&t, rec)| (t, rec))));
        for &(t, _) in &targets {
            let last = targets.iter().rev().find(|&&(u, _)| u == t).map(|&(_, p)| p);
            prop_assert_eq!(node.target_record(id(t)).map(|r| r.pings_sent), last);
        }
        let snapshot = node.snapshot_persistent();
        prop_assert_eq!(snapshot.ps, expected_ps.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(snapshot.targets, expected_ts.into_iter().collect::<Vec<_>>());
    }
}
