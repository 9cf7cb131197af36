//! Unit tests driving a single [`Node`] with hand-crafted inputs through
//! the poll interface.

// Test module: tests are exempt from the determinism lints.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::HashSet;
use std::sync::Arc;

use super::*;
use crate::behavior::Behavior;
use crate::config::{Config, DiscoveryMode};
use crate::selector::MonitorSelector;
use crate::time::{Stamp, MINUTE};

/// A selector accepting exactly the programmed ordered pairs.
#[derive(Debug, Default)]
struct TestSelector {
    pairs: HashSet<(NodeId, NodeId)>,
}

impl TestSelector {
    fn with_pairs(pairs: &[(NodeId, NodeId)]) -> SharedSelector {
        Arc::new(TestSelector {
            pairs: pairs.iter().copied().collect(),
        })
    }

    fn none() -> SharedSelector {
        Arc::new(TestSelector::default())
    }
}

impl MonitorSelector for TestSelector {
    fn is_monitor(&self, monitor: NodeId, target: NodeId) -> bool {
        self.pairs.contains(&(monitor, target))
    }

    fn name(&self) -> &'static str {
        "test"
    }
}

type Actions = Vec<Action>;

/// Drains every queued output of `n` into the unified [`Action`] stream
/// (transmits, then timers, then events — each FIFO).
use crate::driver::collect_actions as drain;

fn id(i: u32) -> NodeId {
    NodeId::from_index(i)
}

fn config(n: usize) -> Config {
    Config::builder(n).build().unwrap()
}

fn mk_node(i: u32, cfg: Config, selector: SharedSelector) -> Node {
    Node::new(id(i), cfg, selector, u64::from(i) + 1)
}

fn sends(actions: &Actions) -> Vec<(NodeId, Message)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { to, msg } => Some((*to, msg.clone())),
            _ => None,
        })
        .collect()
}

fn timers(actions: &Actions) -> Vec<(Timer, TimeMs)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::SetTimer { timer, at } => Some((*timer, *at)),
            _ => None,
        })
        .collect()
}

fn events(actions: &Actions) -> Vec<AppEvent> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::App(e) => Some(e.clone()),
            _ => None,
        })
        .collect()
}

// ------------------------------------------------------------ poll order

/// A `TS` entry's size is paid once per target per monitor: a field
/// added to the record shows here first. Its three optional times are
/// [`Stamp`]s, 8 bytes each where an `Option<TimeMs>` takes 16.
#[cfg(target_pointer_width = "64")]
#[test]
fn ts_records_stay_56_bytes() {
    assert_eq!(std::mem::size_of::<TargetRecord>(), 56);
}

/// A node's inline size is paid by every up identity of a simulation:
/// what is the same on every node (`Config`, an attack's `Behavior`) is a
/// shared pointer, and the output queues are one pointer that a lending
/// driver never fills.
#[cfg(target_pointer_width = "64")]
#[test]
fn node_holds_at_most_432_bytes() {
    let size = std::mem::size_of::<Node>();
    assert!(size <= 432, "Node is {size} B");
    assert_eq!(std::mem::size_of::<OutputQueues>(), 8);
}

/// Saved `PersistentState` reads back across the change of the record's
/// optional times to [`Stamp`]: each is still `null` or a plain number.
/// The text is what `Option<TimeMs>` fields wrote.
#[test]
fn target_record_json_keeps_null_or_number() {
    let rec = TargetRecord {
        discovered_at: 5,
        pings_sent: 9,
        pongs_received: 7,
        last_pong: Some(Stamp::new(120_000)),
        session_start: None,
        last_session: 60_000,
        unresponsive_since: Some(Stamp::new(0)),
    };
    let text = "{\"discovered_at\":5,\"pings_sent\":9,\"pongs_received\":7,\
                \"last_pong\":120000,\"session_start\":null,\"last_session\":60000,\
                \"unresponsive_since\":0}";
    assert_eq!(serde_json::to_string(&rec).unwrap(), text);
    assert_eq!(serde_json::from_str::<TargetRecord>(text).unwrap(), rec);
}

#[test]
fn poll_queues_drain_fifo_and_then_return_none() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.seed_view(&[id(2), id(3), id(4)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    assert!(n.has_pending_output());

    // Transmits drain in the order they were queued (ping before fetch),
    // then the queue stays empty.
    let mut msgs = Vec::new();
    while let Some(t) = n.poll_transmit() {
        msgs.push(t.msg);
    }
    assert!(matches!(msgs[0], Message::ViewPing { .. }));
    assert!(matches!(msgs[1], Message::ViewFetch { .. }));
    assert_eq!(msgs.len(), 2);
    assert!(
        n.poll_transmit().is_none(),
        "drained transmit queue yields None"
    );

    // Timers likewise: the two expiries precede the period re-arm because
    // they were queued first.
    let mut tms = Vec::new();
    while let Some(t) = n.poll_timer() {
        tms.push(t);
    }
    assert_eq!(tms.len(), 3);
    assert!(matches!(tms[0].0, Timer::Expire(_)));
    assert!(matches!(tms[1].0, Timer::Expire(_)));
    assert_eq!(
        tms[2],
        (Timer::Protocol, MINUTE + n.config().protocol_period)
    );
    assert!(n.poll_timer().is_none());

    assert!(n.poll_event().is_none());
    assert!(!n.has_pending_output());
}

#[test]
fn poll_output_accumulates_across_inputs_in_order() {
    // Two inputs without an intervening drain: outputs concatenate FIFO.
    let selector = TestSelector::with_pairs(&[(id(2), id(1)), (id(3), id(1))]);
    let mut n = mk_node(1, config(100), selector);
    n.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(2),
            target: id(1),
        },
    );
    n.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(3),
            target: id(1),
        },
    );
    assert_eq!(
        [n.poll_event().unwrap(), n.poll_event().unwrap()],
        [
            AppEvent::MonitorDiscovered { monitor: id(2) },
            AppEvent::MonitorDiscovered { monitor: id(3) },
        ],
    );
    assert!(n.poll_event().is_none());
}

// ---------------------------------------------------------------- joining

#[test]
fn fresh_join_sends_weight_cvs_and_inherits_view() {
    let cfg = config(100); // cvs = 4·100^{1/4} = 13
    let mut n = mk_node(1, cfg.clone(), TestSelector::none());
    n.start(0, JoinKind::Fresh, Some(id(2)));
    let actions = drain(&mut n);
    let sent = sends(&actions);
    assert!(sent.iter().any(|(to, m)| {
        *to == id(2)
            && matches!(m, Message::Join { origin, weight, hops: 0 }
                if *origin == id(1) && *weight == cfg.cvs as u32)
    }));
    assert!(sent
        .iter()
        .any(|(to, m)| *to == id(2) && matches!(m, Message::InitViewRequest { .. })));
    // Protocol + monitoring timers armed (plus the init-view expiry).
    let t = timers(&actions);
    assert!(t.iter().any(|(timer, _)| *timer == Timer::Protocol));
    assert!(t.iter().any(|(timer, _)| *timer == Timer::Monitoring));
}

#[test]
fn rejoin_weight_is_min_cvs_downperiods() {
    let cfg = config(100);
    let period = cfg.protocol_period;
    // Down for 3 protocol periods -> weight 3 (< cvs).
    let mut n = mk_node(1, cfg.clone(), TestSelector::none());
    n.start(
        0,
        JoinKind::Rejoin {
            down_duration: 3 * period,
        },
        Some(id(2)),
    );
    assert!(sends(&drain(&mut n))
        .iter()
        .any(|(_, m)| matches!(m, Message::Join { weight: 3, .. })));
    // Down for ages -> weight capped at cvs.
    let mut n2 = mk_node(3, cfg.clone(), TestSelector::none());
    n2.start(
        0,
        JoinKind::Rejoin {
            down_duration: 10_000 * period,
        },
        Some(id(2)),
    );
    let want = cfg.cvs as u32;
    assert!(sends(&drain(&mut n2))
        .iter()
        .any(|(_, m)| matches!(m, Message::Join { weight, .. } if *weight == want)));
    // Down for less than one period -> no JOIN at all (weight 0), but the
    // init-view request still goes out.
    let mut n3 = mk_node(4, cfg, TestSelector::none());
    n3.start(0, JoinKind::Rejoin { down_duration: 10 }, Some(id(2)));
    let sent3 = sends(&drain(&mut n3));
    assert!(!sent3.iter().any(|(_, m)| matches!(m, Message::Join { .. })));
    assert!(sent3
        .iter()
        .any(|(_, m)| matches!(m, Message::InitViewRequest { .. })));
}

#[test]
fn bootstrap_node_without_contact_sends_nothing() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.start(0, JoinKind::Fresh, None);
    let actions = drain(&mut n);
    assert!(sends(&actions).is_empty());
    assert_eq!(timers(&actions).len(), 2); // protocol + monitoring
}

#[test]
fn join_absorption_decrements_and_splits() {
    let cfg = config(100);
    let mut n = mk_node(1, cfg, TestSelector::none());
    n.seed_view(&[id(10), id(11), id(12)]);
    // JOIN(x=5, c=7): absorb (c→6), forward 3 and 3.
    n.handle_message(
        0,
        id(10),
        Message::Join {
            origin: id(5),
            weight: 7,
            hops: 0,
        },
    );
    let actions = drain(&mut n);
    assert!(n.view().contains(id(5)));
    assert!(events(&actions).contains(&AppEvent::JoinAbsorbed { origin: id(5) }));
    let forwards: Vec<u32> = sends(&actions)
        .iter()
        .filter_map(|(_, m)| match m {
            Message::Join {
                weight,
                hops: 1,
                origin,
            } if *origin == id(5) => Some(*weight),
            _ => None,
        })
        .collect();
    assert_eq!(forwards.iter().sum::<u32>(), 6);
    assert_eq!(forwards.len(), 2);
    // Forwards never go back to the joiner itself.
    for (to, m) in sends(&actions) {
        if matches!(m, Message::Join { .. }) {
            assert_ne!(to, id(5));
        }
    }
}

#[test]
fn join_already_known_forwards_full_weight() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.seed_view(&[id(5), id(10)]);
    n.handle_message(
        0,
        id(10),
        Message::Join {
            origin: id(5),
            weight: 4,
            hops: 0,
        },
    );
    let forwards: Vec<u32> = sends(&drain(&mut n))
        .iter()
        .filter_map(|(_, m)| match m {
            Message::Join { weight, .. } => Some(*weight),
            _ => None,
        })
        .collect();
    assert_eq!(
        forwards.iter().sum::<u32>(),
        4,
        "no decrement when already present"
    );
}

#[test]
fn join_weight_one_absorbed_without_forwarding() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.seed_view(&[id(10)]);
    n.handle_message(
        0,
        id(10),
        Message::Join {
            origin: id(5),
            weight: 1,
            hops: 0,
        },
    );
    let actions = drain(&mut n);
    assert!(n.view().contains(id(5)));
    assert!(sends(&actions)
        .iter()
        .all(|(_, m)| !matches!(m, Message::Join { .. })));
}

#[test]
fn join_respects_hop_limit() {
    let cfg = config(100);
    let limit = cfg.join_hop_limit;
    let mut n = mk_node(1, cfg, TestSelector::none());
    n.seed_view(&[id(10)]);
    n.handle_message(
        0,
        id(10),
        Message::Join {
            origin: id(5),
            weight: 5,
            hops: limit,
        },
    );
    assert!(sends(&drain(&mut n)).is_empty());
    assert!(
        !n.view().contains(id(5)),
        "hop-limited JOINs are dropped entirely"
    );
}

#[test]
fn join_for_self_is_not_absorbed() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.seed_view(&[id(10), id(11)]);
    let before = n.view().len();
    n.handle_message(
        0,
        id(10),
        Message::Join {
            origin: id(1),
            weight: 3,
            hops: 0,
        },
    );
    let actions = drain(&mut n);
    assert_eq!(n.view().len(), before);
    assert!(!n.view().contains(id(1)));
    // Full weight forwarded (no decrement).
    let total: u32 = sends(&actions)
        .iter()
        .filter_map(|(_, m)| match m {
            Message::Join { weight, .. } => Some(*weight),
            _ => None,
        })
        .sum();
    assert_eq!(total, 3);
}

#[test]
fn init_view_reply_is_adopted() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.start(0, JoinKind::Fresh, Some(id(2)));
    let nonce = sends(&drain(&mut n))
        .iter()
        .find_map(|(_, m)| match m {
            Message::InitViewRequest { nonce } => Some(*nonce),
            _ => None,
        })
        .unwrap();
    let reply = Message::InitViewReply {
        nonce,
        view: vec![id(3), id(4), id(1)],
    };
    n.handle_message(10, id(2), reply);
    let actions2 = drain(&mut n);
    assert!(n.view().contains(id(3)));
    assert!(n.view().contains(id(4)));
    assert!(!n.view().contains(id(1)), "own id filtered");
    assert!(events(&actions2)
        .iter()
        .any(|e| matches!(e, AppEvent::ViewInherited { from, adopted: 2 } if *from == id(2))));
}

// ------------------------------------------------------------ maintenance

#[test]
fn protocol_period_pings_and_fetches() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.seed_view(&[id(2), id(3), id(4)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    let actions = drain(&mut n);
    let sent = sends(&actions);
    assert_eq!(
        sent.iter()
            .filter(|(_, m)| matches!(m, Message::ViewPing { .. }))
            .count(),
        1
    );
    assert_eq!(
        sent.iter()
            .filter(|(_, m)| matches!(m, Message::ViewFetch { .. }))
            .count(),
        1
    );
    // Re-arms itself.
    assert!(timers(&actions)
        .iter()
        .any(|(t, at)| *t == Timer::Protocol && *at == 2 * MINUTE));
}

#[test]
fn empty_view_retries_join_through_contact() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.start(0, JoinKind::Fresh, Some(id(2)));
    let _ = drain(&mut n);
    // Suppose the JOIN and the view reply were both lost: the view is
    // still empty at the first protocol period, so the node retries.
    n.handle_timer(MINUTE, Timer::Protocol);
    let sent = sends(&drain(&mut n));
    assert!(sent
        .iter()
        .any(|(to, m)| *to == id(2) && matches!(m, Message::Join { hops: 0, .. })));
    assert!(sent
        .iter()
        .any(|(to, m)| *to == id(2) && matches!(m, Message::InitViewRequest { .. })));
    // Once the view is populated, retries stop.
    n.seed_view(&[id(3)]);
    n.handle_timer(2 * MINUTE, Timer::Protocol);
    assert!(!sends(&drain(&mut n))
        .iter()
        .any(|(_, m)| matches!(m, Message::Join { .. })));
    // A bootstrap node (no contact) with an empty view stays quiet.
    let mut boot = mk_node(9, config(100), TestSelector::none());
    boot.start(0, JoinKind::Fresh, None);
    let _ = drain(&mut boot);
    boot.handle_timer(MINUTE, Timer::Protocol);
    assert!(sends(&drain(&mut boot)).is_empty());
}

#[test]
fn unresponsive_view_entry_is_removed_on_timeout() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.seed_view(&[id(2)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    let expire_timers: Vec<(Timer, TimeMs)> = timers(&drain(&mut n))
        .into_iter()
        .filter(|(t, _)| matches!(t, Timer::Expire(_)))
        .collect();
    assert!(!expire_timers.is_empty());
    for (t, at) in expire_timers {
        n.handle_timer(at, t);
    }
    let _ = drain(&mut n);
    assert!(!n.view().contains(id(2)));
    assert!(n.stats().view_evictions >= 1);
}

#[test]
fn pong_prevents_removal() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.seed_view(&[id(2)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    let actions = drain(&mut n);
    // Answer both the ping and the fetch.
    for (to, m) in sends(&actions) {
        assert_eq!(to, id(2));
        match m {
            Message::ViewPing { nonce } => {
                n.handle_message(MINUTE + 1, id(2), Message::ViewPong { nonce });
            }
            Message::ViewFetch { nonce } => {
                n.handle_message(
                    MINUTE + 1,
                    id(2),
                    Message::ViewFetchReply {
                        nonce,
                        view: vec![],
                    },
                );
            }
            _ => {}
        }
    }
    let _ = drain(&mut n);
    // Let the expire timers fire late: nothing should be pending.
    for (t, at) in timers(&actions) {
        if matches!(t, Timer::Expire(_)) {
            n.handle_timer(at, t);
        }
    }
    let _ = drain(&mut n);
    assert!(n.view().contains(id(2)), "responsive entries stay");
    assert_eq!(n.stats().view_evictions, 0);
}

#[test]
fn fetch_reply_discovers_planted_pair_and_notifies_both() {
    // Plant: u=3 monitors v=4. Node 1 fetches from w=2 whose view has 4;
    // node 1's own view has 3.
    let selector = TestSelector::with_pairs(&[(id(3), id(4))]);
    let mut n = mk_node(1, config(100), selector);
    n.seed_view(&[id(2), id(3)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    let p = drain(&mut n);
    let fetch_nonce = sends(&p)
        .iter()
        .find_map(|(_, m)| match m {
            Message::ViewFetch { nonce } => Some(*nonce),
            _ => None,
        })
        .unwrap();
    let fetch_peer = sends(&p)
        .iter()
        .find_map(|(to, m)| matches!(m, Message::ViewFetch { .. }).then_some(*to))
        .unwrap();
    n.handle_message(
        MINUTE + 5,
        fetch_peer,
        Message::ViewFetchReply {
            nonce: fetch_nonce,
            view: vec![id(3), id(4)],
        },
    );
    let actions = drain(&mut n);
    let notifies: Vec<(NodeId, NodeId, NodeId)> = sends(&actions)
        .iter()
        .filter_map(|(to, m)| match m {
            Message::Notify { monitor, target } => Some((*to, *monitor, *target)),
            _ => None,
        })
        .collect();
    // Both endpoints get NOTIFY(3,4), exactly once each.
    assert!(notifies.contains(&(id(3), id(3), id(4))));
    assert!(notifies.contains(&(id(4), id(3), id(4))));
    assert_eq!(notifies.len(), 2, "dedup inside one exchange");
    assert!(n.stats().hash_checks > 0);
}

/// The `notified` cache holds exactly the pairs it has NOTIFY-ed: one
/// slot per pair, no growth slack.
#[test]
fn notified_cache_holds_exactly_its_pairs() {
    let planted = [
        (id(3), id(5)),
        (id(5), id(3)),
        (id(4), id(6)),
        (id(6), id(4)),
        (id(3), id(6)),
    ];
    let mut n = mk_node(1, config(100), TestSelector::with_pairs(&planted));
    n.seed_view(&[id(2), id(3), id(4)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    let (peer, nonce) = sends(&drain(&mut n))
        .iter()
        .find_map(|(to, m)| match m {
            Message::ViewFetch { nonce } => Some((*to, *nonce)),
            _ => None,
        })
        .unwrap();
    let view = vec![id(5), id(6)];
    n.handle_message(MINUTE + 5, peer, Message::ViewFetchReply { nonce, view });
    let notifies = sends(&drain(&mut n))
        .iter()
        .filter(|(_, m)| matches!(m, Message::Notify { .. }))
        .count();
    assert_eq!(notifies, 2 * planted.len(), "both endpoints of each pair");
    assert_eq!(n.notified.len(), planted.len());
    assert!(planted.iter().all(|pair| n.notified.contains(pair)));
    assert_eq!(n.notified.allocated_slots(), planted.len());
}

#[test]
fn fetch_reply_involving_self_updates_own_sets_directly() {
    // Plant: node 1 monitors node 9 (1 ∈ PS(9)), and node 9 monitors node 1.
    let selector = TestSelector::with_pairs(&[(id(1), id(9)), (id(9), id(1))]);
    let mut n = mk_node(1, config(100), selector);
    n.seed_view(&[id(2)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    let fetch_nonce = sends(&drain(&mut n))
        .iter()
        .find_map(|(_, m)| match m {
            Message::ViewFetch { nonce } => Some(*nonce),
            _ => None,
        })
        .unwrap();
    n.handle_message(
        MINUTE + 5,
        id(2),
        Message::ViewFetchReply {
            nonce: fetch_nonce,
            view: vec![id(9)],
        },
    );
    let actions = drain(&mut n);
    // Node 1 adopted 9 as target and as monitor, locally.
    assert!(n.target_set().any(|t| t == id(9)));
    assert!(n.pinging_set().any(|m| m == id(9)));
    let evs = events(&actions);
    assert!(evs.contains(&AppEvent::TargetDiscovered { target: id(9) }));
    assert!(evs.contains(&AppEvent::MonitorDiscovered { monitor: id(9) }));
    // And 9 was notified of both relationships.
    let to_nine = sends(&actions)
        .iter()
        .filter(|(to, m)| *to == id(9) && matches!(m, Message::Notify { .. }))
        .count();
    assert_eq!(to_nine, 2);
}

#[test]
fn stale_fetch_reply_from_wrong_peer_is_ignored() {
    let mut n = mk_node(1, config(100), TestSelector::with_pairs(&[(id(3), id(4))]));
    n.seed_view(&[id(2)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    let fetch_nonce = sends(&drain(&mut n))
        .iter()
        .find_map(|(_, m)| match m {
            Message::ViewFetch { nonce } => Some(*nonce),
            _ => None,
        })
        .unwrap();
    // Reply arrives from an unexpected node: ignored.
    n.handle_message(
        MINUTE + 5,
        id(99),
        Message::ViewFetchReply {
            nonce: fetch_nonce,
            view: vec![id(3), id(4)],
        },
    );
    assert!(sends(&drain(&mut n)).is_empty());
}

#[test]
fn shuffle_after_fetch_keeps_view_bounded() {
    let cfg = config(100);
    let cvs = cfg.cvs;
    let mut n = mk_node(1, cfg, TestSelector::none());
    let seeds: Vec<NodeId> = (2..2 + cvs as u32).map(id).collect();
    n.seed_view(&seeds);
    n.handle_timer(MINUTE, Timer::Protocol);
    let (peer, nonce) = sends(&drain(&mut n))
        .iter()
        .find_map(|(to, m)| match m {
            Message::ViewFetch { nonce } => Some((*to, *nonce)),
            _ => None,
        })
        .unwrap();
    let big_view: Vec<NodeId> = (100..100 + cvs as u32 * 2).map(id).collect();
    n.handle_message(
        MINUTE + 1,
        peer,
        Message::ViewFetchReply {
            nonce,
            view: big_view,
        },
    );
    let _ = drain(&mut n);
    assert!(n.view().len() <= cvs);
}

// ---------------------------------------------------------------- NOTIFY

#[test]
fn notify_is_verified_before_acceptance() {
    let selector = TestSelector::with_pairs(&[(id(2), id(1))]);
    let mut n = mk_node(1, config(100), selector);
    // Valid claim: 2 monitors 1.
    n.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(2),
            target: id(1),
        },
    );
    assert!(events(&drain(&mut n)).contains(&AppEvent::MonitorDiscovered { monitor: id(2) }));
    assert_eq!(n.pinging_set_len(), 1);
    // Bogus claim: 3 does not monitor 1.
    n.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(3),
            target: id(1),
        },
    );
    assert!(events(&drain(&mut n)).is_empty());
    assert_eq!(n.pinging_set_len(), 1, "unverified NOTIFY rejected");
    // Duplicate claim: no duplicate event.
    n.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(2),
            target: id(1),
        },
    );
    assert!(events(&drain(&mut n)).is_empty());
}

#[test]
fn notify_target_direction_populates_ts() {
    let selector = TestSelector::with_pairs(&[(id(1), id(5))]);
    let mut n = mk_node(1, config(100), selector);
    n.handle_message(
        7,
        id(9),
        Message::Notify {
            monitor: id(1),
            target: id(5),
        },
    );
    assert!(events(&drain(&mut n)).contains(&AppEvent::TargetDiscovered { target: id(5) }));
    assert_eq!(n.target_set_len(), 1);
    let rec = n.target_record(id(5)).unwrap();
    assert_eq!(rec.discovered_at, 7);
    // Notify about an unrelated pair: ignored.
    n.handle_message(
        8,
        id(9),
        Message::Notify {
            monitor: id(7),
            target: id(8),
        },
    );
    assert!(events(&drain(&mut n)).is_empty());
}

// ------------------------------------------------------------- monitoring

/// Drives `n` through one monitoring period, answering pings per `up`.
fn run_monitoring_round(n: &mut Node, now: TimeMs, up: bool) {
    n.handle_timer(now, Timer::Monitoring);
    let actions = drain(n);
    for (to, m) in sends(&actions) {
        if let Message::MonitorPing { nonce } = m {
            if up {
                n.handle_message(now + 10, to, Message::MonitorPong { nonce });
            }
        }
    }
    // Fire the expiry timers.
    for (t, at) in timers(&actions) {
        if matches!(t, Timer::Expire(_)) {
            n.handle_timer(at, t);
        }
    }
    let _ = drain(n);
}

fn node_with_target(i: u32, t: u32) -> Node {
    node_with_target_config(i, t, config(100))
}

fn node_with_target_config(i: u32, t: u32, cfg: Config) -> Node {
    let selector = TestSelector::with_pairs(&[(id(i), id(t))]);
    let mut n = Node::new(id(i), cfg, selector, u64::from(i) + 1);
    n.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(i),
            target: id(t),
        },
    );
    let _ = drain(&mut n);
    assert_eq!(n.target_set_len(), 1);
    n
}

#[test]
fn monitoring_estimates_availability_fraction() {
    // Forgetful pinging off: every period must ping, so the estimator is
    // exactly pongs/pings regardless of the RNG stream.
    let cfg = Config::builder(100).forgetful(None).build().unwrap();
    let mut n = node_with_target_config(1, 5, cfg);
    // 6 answered rounds, 4 unanswered.
    for round in 0..10u64 {
        run_monitoring_round(&mut n, (round + 1) * MINUTE, round < 6);
    }
    let est = n.availability_estimate(id(5)).unwrap();
    assert!((est - 0.6).abs() < 1e-9, "estimate {est}");
    let rec = n.target_record(id(5)).unwrap();
    assert_eq!(rec.pings_sent, 10);
    assert_eq!(rec.pongs_received, 6);
}

#[test]
fn miss_closes_session_and_records_ts() {
    let mut n = node_with_target(1, 5);
    // Up for rounds 1..=5, then down.
    for round in 1..=5u64 {
        run_monitoring_round(&mut n, round * MINUTE, true);
    }
    run_monitoring_round(&mut n, 6 * MINUTE, false);
    let rec = n.target_record(id(5)).unwrap();
    assert!(rec.unresponsive_since.is_some());
    // Observed session: first pong at ~1min, last at ~5min → ts ≈ 4 min.
    assert_eq!(rec.last_session, 4 * MINUTE);
}

/// A leaving node moves out field for field what a snapshot copies, open
/// session and streak included; the restore clears those two.
#[test]
fn into_persistent_moves_what_the_snapshot_copies() {
    let selector = TestSelector::with_pairs(&[(id(1), id(5)), (id(1), id(6)), (id(2), id(1))]);
    let mut n = Node::new(id(1), config(100), selector.clone(), 2);
    for (monitor, target) in [(id(1), id(5)), (id(1), id(6)), (id(2), id(1))] {
        n.handle_message(0, id(9), Message::Notify { monitor, target });
    }
    let _ = drain(&mut n);
    for round in 1..=3u64 {
        run_monitoring_round(&mut n, round * MINUTE, true);
    }
    run_monitoring_round(&mut n, 4 * MINUTE, false);
    let rec = n.target_record(id(5)).unwrap();
    assert!(rec.unresponsive_since.is_some() && rec.last_pong.is_some());

    let snapshot = n.snapshot_persistent();
    let moved = n.into_persistent();
    assert_eq!(moved, snapshot);
    assert_eq!(moved.ps, vec![id(2)]);

    let mut reborn = Node::new(id(1), config(100), selector, 3);
    reborn.restore_persistent(moved);
    for (_, rec) in reborn.target_records() {
        assert!(rec.session_start.is_none() && rec.unresponsive_since.is_none());
        assert_eq!(rec.pings_sent, 4);
    }
}

#[test]
fn forgetful_pinging_suppresses_dead_targets() {
    let mut n = node_with_target(1, 5);
    // One up round (short session), then dead for many rounds.
    run_monitoring_round(&mut n, MINUTE, true);
    let mut sent_after_tau = 0u64;
    let before = n.stats().monitor_pings_sent;
    for round in 2..200u64 {
        run_monitoring_round(&mut n, round * MINUTE, false);
    }
    sent_after_tau += n.stats().monitor_pings_sent - before;
    // Without forgetful pinging this would be 198 pings. With τ=2 min and
    // ts = 1 monitoring period the expected count is roughly
    // Σ c·ts/(ts+t) ≈ ln(200) ≈ 5.3. Allow generous slack.
    assert!(
        sent_after_tau < 60,
        "forgetful pinging should suppress most pings, sent {sent_after_tau}"
    );
    assert!(n.stats().monitor_pings_suppressed > 100);
}

#[test]
fn non_forgetful_config_pings_every_period() {
    let cfg = Config::builder(100).forgetful(None).build().unwrap();
    let selector = TestSelector::with_pairs(&[(id(1), id(5))]);
    let mut n = Node::new(id(1), cfg, selector, 3);
    n.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(1),
            target: id(5),
        },
    );
    let _ = drain(&mut n);
    for round in 1..50u64 {
        run_monitoring_round(&mut n, round * MINUTE, false);
    }
    assert_eq!(n.stats().monitor_pings_sent, 49);
    assert_eq!(n.stats().monitor_pings_suppressed, 0);
}

#[test]
fn forgetful_target_revives_on_return() {
    let mut n = node_with_target(1, 5);
    // A long observed session (rounds 1..=30) so ts(u) ≈ 29 minutes, giving
    // revival probability ts/(ts+t) ≈ 0.3 per round after the outage.
    for round in 1..=30u64 {
        run_monitoring_round(&mut n, round * MINUTE, true);
    }
    for round in 31..100u64 {
        run_monitoring_round(&mut n, round * MINUTE, false);
    }
    // The target comes back; once a (probabilistic) ping reaches it, the
    // unresponsive streak resets and pinging resumes every period.
    let mut revived_at = None;
    for round in 100..400u64 {
        let before = n.target_record(id(5)).unwrap().pongs_received;
        run_monitoring_round(&mut n, round * MINUTE, true);
        if n.target_record(id(5)).unwrap().pongs_received > before {
            revived_at = Some(round);
            break;
        }
    }
    let revived = revived_at.expect("forgetful pinging must eventually re-probe");
    let rec = n.target_record(id(5)).unwrap();
    assert!(
        rec.unresponsive_since.is_none(),
        "streak reset after revival"
    );
    // After revival, every period pings again.
    let before = rec.pings_sent;
    for round in (revived + 1)..(revived + 6) {
        run_monitoring_round(&mut n, round * MINUTE, true);
    }
    assert_eq!(n.target_record(id(5)).unwrap().pings_sent - before, 5);
}

#[test]
fn monitor_ping_receipt_is_answered_and_tracked() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.handle_message(5, id(2), Message::MonitorPing { nonce: Nonce(77) });
    assert_eq!(
        sends(&drain(&mut n)),
        vec![(id(2), Message::MonitorPong { nonce: Nonce(77) })]
    );
    assert_eq!(n.stats().monitor_pings_received, 1);
}

// ---------------------------------------------------------------- reports

#[test]
fn honest_report_returns_subset_of_ps() {
    let selector = TestSelector::with_pairs(&[(id(2), id(1)), (id(3), id(1)), (id(4), id(1))]);
    let mut n = mk_node(1, config(100), selector);
    for m in [2, 3, 4] {
        n.handle_message(
            0,
            id(9),
            Message::Notify {
                monitor: id(m),
                target: id(1),
            },
        );
    }
    let _ = drain(&mut n);
    n.handle_message(
        1,
        id(7),
        Message::ReportRequest {
            nonce: Nonce(5),
            count: 2,
        },
    );
    let reply = sends(&drain(&mut n));
    let Message::ReportReply { nonce, monitors } = &reply[0].1 else {
        panic!("expected report reply");
    };
    assert_eq!(*nonce, Nonce(5));
    assert_eq!(monitors.len(), 2);
    for m in monitors {
        assert!(n.pinging_set().any(|p| p == *m));
    }
}

#[test]
fn selfish_advertiser_is_caught_by_verification() {
    let selector = TestSelector::with_pairs(&[(id(2), id(1))]);
    // Node 1's true monitor is 2, but it advertises its friend 66.
    let mut liar = mk_node(1, config(100), selector.clone());
    liar.set_behavior(Behavior::SelfishAdvertiser {
        fake_monitors: vec![id(66)],
    });
    liar.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(2),
            target: id(1),
        },
    );
    let _ = drain(&mut liar);

    let mut verifier = mk_node(7, config(100), selector);
    verifier.request_report(0, id(1), 2);
    let (to, Message::ReportRequest { nonce, count }) = sends(&drain(&mut verifier))[0].clone()
    else {
        panic!("expected report request");
    };
    assert_eq!(to, id(1));
    liar.handle_message(1, id(7), Message::ReportRequest { nonce, count });
    let (_, reply) = sends(&drain(&mut liar))[0].clone();
    verifier.handle_message(2, id(1), reply);
    let evs = events(&drain(&mut verifier));
    let AppEvent::ReportOutcome {
        target,
        verification,
    } = &evs[0]
    else {
        panic!("expected report outcome");
    };
    assert_eq!(*target, id(1));
    assert!(verification.verified.is_empty());
    assert_eq!(verification.rejected, vec![id(66)], "the lie is detected");
}

/// Sends `n` a history request about `target`; returns the reply's
/// `(availability, samples)`.
fn history_reply(n: &mut Node, now: TimeMs, target: NodeId) -> (Option<f64>, u64) {
    n.handle_message(
        now,
        id(7),
        Message::HistoryRequest {
            nonce: Nonce(1),
            target,
        },
    );
    let (
        _,
        Message::HistoryReply {
            availability,
            samples,
            ..
        },
    ) = sends(&drain(n))[0].clone()
    else {
        panic!("expected history reply");
    };
    (availability, samples)
}

#[test]
fn history_request_served_honestly_and_overreported() {
    let mut honest = node_with_target(1, 5);
    for round in 1..=4u64 {
        run_monitoring_round(&mut honest, round * MINUTE, round <= 2); // 50%
    }
    assert_eq!(history_reply(&mut honest, 300_000, id(5)), (Some(0.5), 4));

    // The same node, overreporting: claims 1.0.
    honest.set_behavior(Behavior::OverreportAll);
    assert_eq!(history_reply(&mut honest, 300_001, id(5)).0, Some(1.0));
}

/// A history reply is the node's own estimate, `pongs / pings`, over the
/// pings it counts — an in-flight ping included, and still after a
/// restore drops that ping.
#[test]
fn history_reply_matches_own_estimate() {
    let cfg = Config::builder(100).forgetful(None).build().unwrap();
    let mut n = node_with_target_config(1, 5, cfg);
    run_monitoring_round(&mut n, MINUTE, true);
    run_monitoring_round(&mut n, 2 * MINUTE, true);
    // A third ping, left unanswered and not yet expired.
    n.handle_timer(3 * MINUTE, Timer::Monitoring);
    let _ = drain(&mut n);
    let pings = n.target_record(id(5)).unwrap().pings_sent;
    assert_eq!(pings, 3);
    let estimate = n.availability_estimate(id(5));
    assert_eq!(estimate, Some(2.0 / 3.0));
    assert_eq!(
        history_reply(&mut n, 3 * MINUTE + 1, id(5)),
        (estimate, pings)
    );

    // Restored from a snapshot, the node has no pending ping left.
    let mut restored = Node::new(id(1), n.config().clone(), n.selector.clone(), 2);
    restored.restore_persistent(n.snapshot_persistent());
    assert!(restored.pending.is_empty());
    let estimate = restored.availability_estimate(id(5));
    assert_eq!(estimate, Some(2.0 / 3.0));
    assert_eq!(
        history_reply(&mut restored, 4 * MINUTE, id(5)),
        (estimate, pings)
    );
}

#[test]
fn history_for_unknown_target_is_none() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    assert_eq!(history_reply(&mut n, 0, id(5)), (None, 0));
}

#[test]
fn request_history_round_trip() {
    let mut monitor = node_with_target(2, 5);
    run_monitoring_round(&mut monitor, MINUTE, true);
    let mut client = mk_node(1, config(100), TestSelector::none());
    client.request_history(0, id(2), id(5));
    let (_, Message::HistoryRequest { nonce, target }) = sends(&drain(&mut client))[0].clone()
    else {
        panic!("expected history request");
    };
    monitor.handle_message(1, id(1), Message::HistoryRequest { nonce, target });
    let (_, reply) = sends(&drain(&mut monitor))[0].clone();
    client.handle_message(2, id(2), reply);
    assert!(events(&drain(&mut client)).iter().any(|e| matches!(
        e,
        AppEvent::HistoryOutcome { monitor, target, availability: Some(a), .. }
            if *monitor == id(2) && *target == id(5) && (*a - 1.0).abs() < 1e-9
    )));
}

#[test]
fn report_timeout_surfaces_event() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.request_report(0, id(2), 1);
    let (timer, at) = timers(&drain(&mut n))
        .into_iter()
        .find(|(t, _)| matches!(t, Timer::Expire(_)))
        .unwrap();
    n.handle_timer(at, timer);
    assert!(events(&drain(&mut n)).contains(&AppEvent::RequestTimedOut { peer: id(2) }));
}

/// A raw `Command::RequestReport` naming the node itself is answered from
/// its own pinging set: the same verified outcome a remote answer gives,
/// with no datagram to itself, no pending entry and no timer.
#[test]
fn self_addressed_report_command_is_answered_locally() {
    use crate::driver::{apply_command, Command};

    let mut n = mk_node(1, config(100), TestSelector::with_pairs(&[(id(2), id(1))]));
    n.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(2),
            target: id(1),
        },
    );
    let _ = drain(&mut n);
    let checks_before = n.stats().hash_checks;

    let command = Command::RequestReport {
        target: id(1),
        count: 3,
    };
    assert!(apply_command(&mut n, 5, command));
    let actions = drain(&mut n);
    assert!(sends(&actions).is_empty() && timers(&actions).is_empty());
    assert!(n.pending.is_empty());
    assert_eq!(
        events(&actions),
        vec![AppEvent::ReportOutcome {
            target: id(1),
            verification: ReportVerification {
                target: id(1),
                verified: vec![id(2)],
                rejected: vec![],
            },
        }]
    );
    assert_eq!(n.stats().hash_checks, checks_before + 1);
}

/// Same for `Command::RequestHistory` with the node as its own monitor:
/// the answer `serve_history` would send, surfaced directly.
#[test]
fn self_addressed_history_command_is_answered_locally() {
    use crate::driver::{apply_command, Command};

    let mut n = node_with_target(2, 5);
    run_monitoring_round(&mut n, MINUTE, true);

    let command = Command::RequestHistory {
        monitor: id(2),
        target: id(5),
    };
    assert!(apply_command(&mut n, 2 * MINUTE, command));
    let actions = drain(&mut n);
    assert!(sends(&actions).is_empty() && timers(&actions).is_empty());
    assert!(n.pending.is_empty());
    let evs = events(&actions);
    assert!(
        matches!(
            evs[..],
            [AppEvent::HistoryOutcome { monitor, target, availability: Some(a), samples: 1 }]
                if monitor == id(2) && target == id(5) && (a - 1.0).abs() < 1e-9
        ),
        "got {evs:?}"
    );
}

/// Same for `Command::SendApp` naming the node itself: the payload
/// surfaces locally, with no transmit and no send accounting.
#[test]
fn self_addressed_send_app_command_is_delivered_locally() {
    use crate::driver::{apply_command, Command};

    let mut n = mk_node(1, config(100), TestSelector::none());
    let sent_before = n.stats().messages_sent;

    let command = Command::SendApp {
        to: id(1),
        payload: vec![7, 8, 9],
    };
    assert!(apply_command(&mut n, 5, command));
    let actions = drain(&mut n);
    assert!(sends(&actions).is_empty() && timers(&actions).is_empty());
    assert_eq!(
        events(&actions),
        vec![AppEvent::AppData {
            from: id(1),
            payload: vec![7, 8, 9],
        }]
    );
    assert_eq!(n.stats().messages_sent, sent_before);
}

// ---------------------------------------------------------------- PR2

#[test]
fn pr2_fires_after_two_quiet_periods() {
    let cfg = Config::builder(100).pr2(true).build().unwrap();
    let mut n = Node::new(id(1), cfg, TestSelector::none(), 3);
    n.start(0, JoinKind::Fresh, None);
    let _ = drain(&mut n);
    n.seed_view(&[id(2), id(3)]);
    // First period (1 min from start): quiet but < 2 periods — no PR2.
    n.handle_timer(MINUTE, Timer::Protocol);
    assert!(!sends(&drain(&mut n))
        .iter()
        .any(|(_, m)| matches!(m, Message::AddMeRequest)));
    // Second period: 2 full periods of silence — PR2 fires to all entries.
    n.handle_timer(2 * MINUTE, Timer::Protocol);
    let addme: Vec<NodeId> = sends(&drain(&mut n))
        .iter()
        .filter_map(|(to, m)| matches!(m, Message::AddMeRequest).then_some(*to))
        .collect();
    assert_eq!(addme.len(), 2, "one AddMe per view entry");
    // Having just fired, it stays quiet the next period…
    n.handle_timer(3 * MINUTE, Timer::Protocol);
    assert!(!sends(&drain(&mut n))
        .iter()
        .any(|(_, m)| matches!(m, Message::AddMeRequest)));
    // …and a monitoring ping resets the quiet clock entirely.
    n.handle_message(
        3 * MINUTE + 1,
        id(5),
        Message::MonitorPing { nonce: Nonce(1) },
    );
    let _ = drain(&mut n);
    n.handle_timer(4 * MINUTE, Timer::Protocol);
    assert!(!sends(&drain(&mut n))
        .iter()
        .any(|(_, m)| matches!(m, Message::AddMeRequest)));
    n.handle_timer(5 * MINUTE + 2, Timer::Protocol);
    assert!(sends(&drain(&mut n))
        .iter()
        .any(|(_, m)| matches!(m, Message::AddMeRequest)));
}

#[test]
fn pr2_disabled_by_default() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.start(0, JoinKind::Fresh, None);
    let _ = drain(&mut n);
    n.seed_view(&[id(2)]);
    for p in 1..6 {
        n.handle_timer(p * MINUTE, Timer::Protocol);
        assert!(!sends(&drain(&mut n))
            .iter()
            .any(|(_, m)| matches!(m, Message::AddMeRequest)));
    }
}

#[test]
fn add_me_request_inserts_sender() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.handle_message(0, id(42), Message::AddMeRequest);
    let _ = drain(&mut n);
    assert!(n.view().contains(id(42)));
}

// ------------------------------------------------------------- broadcast

#[test]
fn broadcast_mode_floods_presence_and_discovers_directly() {
    let cfg = Config::builder(100)
        .discovery(DiscoveryMode::Broadcast)
        .build()
        .unwrap();
    let selector = TestSelector::with_pairs(&[(id(2), id(1)), (id(1), id(3))]);
    let mut joiner = Node::new(id(1), cfg.clone(), selector.clone(), 1);
    joiner.start(0, JoinKind::Fresh, None);
    let actions = drain(&mut joiner);
    assert!(actions.iter().any(
        |a| matches!(a, Action::Broadcast { msg: Message::Presence { origin } } if *origin == id(1))
    ));

    // Receiver 2 monitors 1: adopts the target and notifies the joiner.
    let mut receiver = Node::new(id(2), cfg.clone(), selector.clone(), 2);
    receiver.handle_message(1, id(1), Message::Presence { origin: id(1) });
    let ra = drain(&mut receiver);
    assert!(receiver.target_set().any(|t| t == id(1)));
    let (to, Message::Notify { monitor, target }) = sends(&ra)[0].clone() else {
        panic!("expected notify to joiner");
    };
    assert_eq!((to, monitor, target), (id(1), id(2), id(1)));
    // The joiner verifies and learns its monitor.
    joiner.handle_message(2, id(2), Message::Notify { monitor, target });
    assert!(events(&drain(&mut joiner)).contains(&AppEvent::MonitorDiscovered { monitor: id(2) }));

    // Receiver 3 is monitored *by* the joiner.
    let mut receiver3 = Node::new(id(3), cfg, selector, 3);
    receiver3.handle_message(1, id(1), Message::Presence { origin: id(1) });
    let ra3 = drain(&mut receiver3);
    assert!(receiver3.pinging_set().any(|m| m == id(1)));
    assert!(sends(&ra3)
        .iter()
        .any(|(to, m)| *to == id(1) && matches!(m, Message::Notify { .. })));
}

// ------------------------------------------------------------ persistence

#[test]
fn persistent_state_round_trips() {
    // Selector knows both relations: 1 monitors 5, and 2 monitors 1.
    let selector = TestSelector::with_pairs(&[(id(1), id(5)), (id(2), id(1))]);
    let mut n = mk_node(1, config(100), selector);
    n.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(1),
            target: id(5),
        },
    );
    let _ = drain(&mut n);
    for round in 1..=3u64 {
        run_monitoring_round(&mut n, round * MINUTE, true);
    }
    n.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(2),
            target: id(1),
        },
    );
    let _ = drain(&mut n);
    let snapshot = n.snapshot_persistent();
    assert_eq!(snapshot.ps, vec![id(2)]);
    assert_eq!(snapshot.targets.len(), 1);

    // A fresh incarnation restores the snapshot: histories survive churn.
    let mut reborn = mk_node(1, config(100), TestSelector::none());
    reborn.restore_persistent(snapshot.clone());
    assert_eq!(reborn.pinging_set_len(), 1);
    assert_eq!(reborn.target_record(id(5)).unwrap().pongs_received, 3);
    // Serializable (the "persistent storage" of §3).
    let json = serde_json::to_string(&snapshot).unwrap();
    let back: PersistentState = serde_json::from_str(&json).unwrap();
    assert_eq!(back, snapshot);
}

#[test]
fn memory_entries_counts_all_three_sets() {
    let selector = TestSelector::with_pairs(&[(id(2), id(1)), (id(1), id(5))]);
    let mut n = mk_node(1, config(100), selector);
    n.seed_view(&[id(3), id(4)]);
    n.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(2),
            target: id(1),
        },
    );
    n.handle_message(
        0,
        id(9),
        Message::Notify {
            monitor: id(1),
            target: id(5),
        },
    );
    let _ = drain(&mut n);
    assert_eq!(n.memory_entries(), 2 + 1 + 1);
}

#[test]
fn stats_accounting_counts_messages_and_bytes() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.seed_view(&[id(2)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    let sent = sends(&drain(&mut n));
    assert_eq!(n.stats().messages_sent, sent.len() as u64);
    let expected_bytes: u64 = sent
        .iter()
        .map(|(_, m)| crate::codec::encoded_len(m) as u64)
        .sum();
    assert_eq!(n.stats().bytes_sent, expected_bytes);
}

// ------------------------------------------------- lazy-expiry semantics
//
// The timer-wheel contract on `Timer::Expire` (PR 5): a pong before the
// deadline cancels the expiry, a genuine timeout still fires exactly once,
// and a re-armed nonce never resurrects a stale timer.

/// Drives one protocol period and returns the armed `(ViewPing nonce,
/// deadline)` pair.
fn armed_view_ping(n: &mut Node, now: TimeMs) -> (Nonce, TimeMs) {
    n.handle_timer(now, Timer::Protocol);
    let actions = drain(n);
    let ping_nonce = sends(&actions)
        .iter()
        .find_map(|(_, m)| match m {
            Message::ViewPing { nonce } => Some(*nonce),
            _ => None,
        })
        .expect("protocol period pings a view entry");
    let deadline = timers(&actions)
        .iter()
        .find_map(|(t, at)| (*t == Timer::Expire(ping_nonce)).then_some(*at))
        .expect("the ping arms its expiry");
    (ping_nonce, deadline)
}

#[test]
fn pong_before_deadline_cancels_the_expiry() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.seed_view(&[id(2)]);
    let (nonce, deadline) = armed_view_ping(&mut n, MINUTE);
    assert!(
        n.timer_live(Timer::Expire(nonce), deadline),
        "an unanswered ping's expiry is live at its deadline"
    );
    n.handle_message(MINUTE + 1, id(2), Message::ViewPong { nonce });
    let _ = drain(&mut n);
    // The pong killed the timer: drivers may drop it without delivering…
    assert!(!n.timer_live(Timer::Expire(nonce), deadline));
    // …and delivering it anyway is a guaranteed no-op: no false failure.
    n.handle_timer(deadline, Timer::Expire(nonce));
    assert!(!n.has_pending_output(), "a dead expiry must emit nothing");
    assert!(n.view().contains(id(2)), "no false eviction");
    assert_eq!(n.stats().view_evictions, 0);
}

#[test]
fn genuine_timeout_fires_exactly_once() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.seed_view(&[id(2)]);
    let (nonce, deadline) = armed_view_ping(&mut n, MINUTE);
    n.handle_timer(deadline, Timer::Expire(nonce));
    let _ = drain(&mut n);
    assert!(!n.view().contains(id(2)), "timeout evicts the silent entry");
    assert_eq!(n.stats().view_evictions, 1);
    // A duplicate firing (a driver replaying the same timer) is dead.
    assert!(!n.timer_live(Timer::Expire(nonce), deadline));
    n.handle_timer(deadline + 1, Timer::Expire(nonce));
    let _ = drain(&mut n);
    assert_eq!(n.stats().view_evictions, 1, "an expiry fires exactly once");
}

#[test]
fn rearmed_nonce_does_not_resurrect_stale_timer() {
    let mut n = mk_node(1, config(100), TestSelector::none());
    n.seed_view(&[id(2)]);
    let (nonce, first_deadline) = armed_view_ping(&mut n, MINUTE);
    // The ping is answered, retiring the nonce…
    n.handle_message(MINUTE + 1, id(2), Message::ViewPong { nonce });
    let _ = drain(&mut n);
    // …and a later request happens to re-draw the same nonce, with a later
    // deadline (forced here; the RNG makes this a 2⁻⁶⁴ event per draw).
    let second_deadline = first_deadline + 30 * 1000;
    n.pending.insert(
        nonce,
        PendingEntry {
            state: Pending::ViewPing { peer: id(2) },
            deadline: second_deadline,
        },
    );
    // The FIRST arming's timer is still in flight and fires now: it must
    // not expire the second request early. Before the deadline stamp this
    // was a false failure — the stale timer removed the fresh entry.
    assert!(!n.timer_live(Timer::Expire(nonce), first_deadline));
    n.handle_timer(first_deadline, Timer::Expire(nonce));
    let _ = drain(&mut n);
    assert!(n.view().contains(id(2)), "stale timer must not evict");
    assert_eq!(n.stats().view_evictions, 0);
    assert!(
        n.pending.contains_key(&nonce),
        "the re-armed request survives its predecessor's timer"
    );
    // The second arming's own firing still works.
    assert!(n.timer_live(Timer::Expire(nonce), second_deadline));
    n.handle_timer(second_deadline, Timer::Expire(nonce));
    let _ = drain(&mut n);
    assert!(!n.view().contains(id(2)), "the real timeout still fires");
}

#[test]
fn periodic_timers_are_always_live() {
    let n = mk_node(1, config(100), TestSelector::none());
    assert!(n.timer_live(Timer::Protocol, 0));
    assert!(n.timer_live(Timer::Monitoring, TimeMs::MAX));
    // An unknown nonce is dead at any time.
    assert!(!n.timer_live(Timer::Expire(Nonce(12345)), TimeMs::MAX));
}

// ---------------------------------------------------- batched cross-check

/// `process_fetched_view` as a per-pair loop: one counted `check` per
/// off-diagonal pair and order, each match notified as it is found.
fn per_pair_fetched_view(n: &mut Node, now: TimeMs, w: NodeId, fetched: &[NodeId]) {
    let (side_a, side_b) = n.fig2_sides(w, fetched);
    for &u in &side_a {
        for &v in &side_b {
            if u == v {
                continue;
            }
            for (monitor, target) in [(u, v), (v, u)] {
                if n.behavior().suppresses_notify(monitor, target) {
                    continue;
                }
                if n.check(monitor, target) && n.mark_notified(monitor, target) {
                    n.notify_pair(now, monitor, target);
                }
            }
        }
    }
    n.view.shuffle_merge(w, fetched, &mut n.rng);
}

/// The batched cross-check (two `accepted_pairs` calls, matches merged
/// back into loop order) against the per-pair loop, round after round on
/// twin nodes: the same outputs in the same order, the same `hash_checks`,
/// the same sets and view. Staged and 16-lane hash selectors and a
/// programmed one; an honest node and an eclipse-coalition member whose
/// suppression drops pairs from both the walk and the count; fetched
/// views that contain `x`, `w` and duplicates, with sides that do and do
/// not fill a 16-lane block.
#[test]
fn batched_cross_check_matches_the_per_pair_loop() {
    use crate::selector::HashSelector;
    use avmon_hash::{Fast64PairHasher, Md5PairHasher};

    let cfg = Config::builder(1000).cvs(40).build().unwrap();
    let programmed: Vec<(NodeId, NodeId)> = (0..70)
        .flat_map(|m| (0..70).map(move |t| (m, t)))
        .filter(|&(m, t)| (7 * m + t) % 5 == 0)
        .map(|(m, t)| (id(m), id(t)))
        .collect();
    let selectors: Vec<SharedSelector> = vec![
        Arc::new(HashSelector::new(Fast64PairHasher::new(), 300.0, 1000.0)),
        Arc::new(HashSelector::new(Md5PairHasher::new(), 300.0, 1000.0)),
        TestSelector::with_pairs(&programmed),
    ];
    let eclipse = Behavior::EclipseCoalition {
        coalition: vec![id(1), id(3), id(20)],
        victims: vec![id(5), id(33), id(47)],
    };
    let w = id(2);
    let view_x: Vec<NodeId> = (2..40).map(id).collect();
    let fetched_views: Vec<Vec<NodeId>> = vec![
        (25..60).chain(25..30).chain([1, 2]).map(id).collect(),
        Vec::new(),
        vec![id(1)],
        vec![w, id(1), w],
        (50..67).map(id).collect(),
        (40..56).chain([47, 47, 1]).map(id).collect(),
    ];

    for selector in &selectors {
        let mut checks = Vec::new();
        for behavior in [Behavior::Honest, eclipse.clone()] {
            let twin = || {
                let mut n = Node::new(id(1), cfg.clone(), selector.clone(), 7);
                n.seed_view(&view_x);
                n.set_behavior(behavior.clone());
                n
            };
            let (mut batched, mut reference) = (twin(), twin());
            for (round, fetched) in fetched_views.iter().enumerate() {
                let now = MINUTE * (round as u64 + 1);
                batched.process_fetched_view(now, w, fetched);
                per_pair_fetched_view(&mut reference, now, w, fetched);
                let label = format!("{selector:?} {behavior:?} round {round}");
                assert_eq!(drain(&mut batched), drain(&mut reference), "{label}");
                assert_eq!(
                    batched.stats().hash_checks,
                    reference.stats().hash_checks,
                    "{label}"
                );
                assert_eq!(batched.stats(), reference.stats(), "{label}");
                assert_eq!(batched.view().as_slice(), reference.view().as_slice());
                assert!(batched.pinging_set().eq(reference.pinging_set()));
                assert!(batched.target_set().eq(reference.target_set()));
            }
            assert!(reference.stats().notifies_sent > 0, "no match to walk");
            checks.push(reference.stats().hash_checks);
        }
        assert!(
            checks[1] < checks[0],
            "the eclipse member must suppress some pairs: {checks:?}"
        );
    }
}

/// Records the sides of every batch call, then answers as `inner`.
#[derive(Debug)]
struct RecordingSelector {
    inner: SharedSelector,
    calls: std::sync::Mutex<Vec<(Vec<NodeId>, Vec<NodeId>)>>,
}

impl MonitorSelector for RecordingSelector {
    fn is_monitor(&self, monitor: NodeId, target: NodeId) -> bool {
        self.inner.is_monitor(monitor, target)
    }

    fn name(&self) -> &'static str {
        "recording"
    }

    fn accepted_pairs(
        &self,
        monitors: &[NodeId],
        targets: &[NodeId],
        out: &mut dyn FnMut(usize, usize),
    ) {
        let sides = (monitors.to_vec(), targets.to_vec());
        self.calls.lock().unwrap().push(sides);
        self.inner.accepted_pairs(monitors, targets, out);
    }
}

/// `fig2_sides(w, view)`, taken just before `w`'s `ViewFetchReply`
/// arrives, names exactly the sides the reply's cross-check evaluates:
/// `accepted_pairs(A, B)`, then `accepted_pairs(B, A)`, and nothing else —
/// what lets a driver prepare the cross-check ahead and check its guess by
/// comparing sides. Fetched views with and without `x`, `w` and
/// duplicates, over several periods of a shuffling view.
#[test]
fn fig2_sides_are_the_sides_the_reply_evaluates() {
    use crate::selector::HashSelector;

    let cfg = Config::builder(1000).cvs(12).build().unwrap();
    let recording = Arc::new(RecordingSelector {
        inner: Arc::new(HashSelector::from_config(&cfg)),
        calls: std::sync::Mutex::new(Vec::new()),
    });
    let mut n = Node::new(id(1), cfg, recording.clone(), 7);
    n.seed_view(&(2..14).map(id).collect::<Vec<_>>());
    let mut now = 0;
    for round in 0..12u32 {
        now += MINUTE;
        n.handle_timer(now, Timer::Protocol);
        let (w, nonce) = sends(&drain(&mut n))
            .into_iter()
            .find_map(|(to, m)| match m {
                Message::ViewFetch { nonce } => Some((to, nonce)),
                _ => None,
            })
            .expect("a non-empty view fetches every period");
        let base = 100 + 10 * round;
        let view: Vec<NodeId> = match round % 3 {
            0 => (base..base + 9).map(id).collect(),
            1 => [id(base), id(1), w, id(base), id(base + 1)].to_vec(),
            _ => (2..9).map(id).collect(),
        };
        let (a, b) = n.fig2_sides(w, &view);
        recording.calls.lock().unwrap().clear();
        n.handle_message(now + 1, w, Message::ViewFetchReply { nonce, view });
        let calls = std::mem::take(&mut *recording.calls.lock().unwrap());
        assert_eq!(calls, vec![(a.clone(), b.clone()), (b, a)], "round {round}");
        let _ = drain(&mut n);
    }
}

// -------------------------------------------------------------- set audit

/// `audit_sets` as the per-entry loop: every entry that is the node itself
/// or fails the condition is dropped, one `sets_epoch` bump per drop.
/// Returns the dropped entries in drop order, each with whether it was
/// in `PS`.
fn per_entry_audit(n: &mut Node) -> Vec<(bool, NodeId)> {
    let mut dropped = Vec::new();
    let monitors: Vec<NodeId> = n.ps.iter().copied().collect();
    for m in monitors {
        if m == n.id || !n.selector.is_monitor(m, n.id) {
            n.ps.remove(&m);
            n.sets_epoch += 1;
            dropped.push((true, m));
        }
    }
    let targets: Vec<NodeId> = n.targets.keys().copied().collect();
    for t in targets {
        if t == n.id || !n.selector.is_monitor(n.id, t) {
            n.targets.remove(&t);
            n.sets_epoch += 1;
            dropped.push((false, t));
        }
    }
    dropped
}

/// The batched audit (the selector's matches of `PS × {x}` and `{x} × TS`)
/// against the per-entry loop, on twin nodes whose sets were corrupted
/// with ghosts, the node's own id and dropped legitimate entries: the
/// same sets, the same `sets_epoch`, no output and no `hash_checks`. The
/// shared routine behind the audit, `for_each_unselected`, reports
/// exactly the loop's drops, in its order, and counts nothing either.
/// Staged and 16-lane hash selectors and a programmed one, sets that do
/// and do not fill a 16-lane block, and a selector that accepts the
/// diagonal, whose self entries must still be purged.
#[test]
fn batched_audit_matches_the_per_entry_loop() {
    use crate::selector::{HashSelector, SelfReportSelector};
    use avmon_hash::{Fast64PairHasher, Md5PairHasher};

    let cfg = Config::builder(1000).cvs(40).build().unwrap();
    let me = id(1);
    let programmed: Vec<(NodeId, NodeId)> = (0..70)
        .flat_map(|m| (0..70).map(move |t| (m, t)))
        .filter(|&(m, t)| (7 * m + t) % 3 == 0)
        .map(|(m, t)| (id(m), id(t)))
        .collect();
    let selectors: Vec<SharedSelector> = vec![
        Arc::new(HashSelector::new(Fast64PairHasher::new(), 300.0, 1000.0)),
        Arc::new(HashSelector::new(Md5PairHasher::new(), 300.0, 1000.0)),
        TestSelector::with_pairs(&programmed),
        Arc::new(SelfReportSelector::new()),
    ];
    let peers: Vec<NodeId> = (2..70).map(id).collect();
    let ghosts: Vec<NodeId> = (0..9).map(|g| id((1 << 20) + g)).collect();

    for selector in &selectors {
        let legit_ps: Vec<NodeId> = peers
            .iter()
            .copied()
            .filter(|&m| selector.is_monitor(m, me))
            .collect();
        let legit_ts: Vec<NodeId> = peers
            .iter()
            .copied()
            .filter(|&t| selector.is_monitor(me, t))
            .collect();
        let every_other = |set: &[NodeId]| set.iter().copied().step_by(2).collect::<Vec<_>>();
        // (label, PS, TS): the legitimate sets, then corruptions of them.
        let states: Vec<(&str, Vec<NodeId>, Vec<NodeId>)> = vec![
            ("legit", legit_ps.clone(), legit_ts.clone()),
            ("empty", Vec::new(), Vec::new()),
            ("every peer", peers.clone(), peers.clone()),
            ("ghosts", ghosts.clone(), ghosts.clone()),
            (
                "self",
                [&legit_ps[..], &[me]].concat(),
                [&legit_ts[..], &[me]].concat(),
            ),
            ("drops", every_other(&legit_ps), every_other(&legit_ts)),
            (
                "all at once",
                [&every_other(&legit_ps)[..], &ghosts, &[me], &peers[..5]].concat(),
                [&every_other(&legit_ts)[..], &ghosts[..3], &[me]].concat(),
            ),
        ];
        let mut purged = 0;
        for (label, ps, ts) in states {
            let state = PersistentState {
                ps,
                targets: ts.into_iter().map(|t| (t, TargetRecord::new(0))).collect(),
            };
            let twin = || {
                let mut n = Node::new(me, cfg.clone(), selector.clone(), 7);
                n.restore_persistent(state.clone());
                n
            };
            let (mut batched, mut reference) = (twin(), twin());
            let mut reported = Vec::new();
            batched.for_each_unselected(&**selector, |in_ps, entry| {
                reported.push((in_ps, entry));
            });
            batched.audit_sets();
            let dropped = per_entry_audit(&mut reference);
            let label = format!("{selector:?} {label}");
            assert_eq!(reported, dropped, "{label}");
            assert!(batched.pinging_set().eq(reference.pinging_set()), "{label}");
            assert!(batched.target_set().eq(reference.target_set()), "{label}");
            assert_eq!(batched.sets_epoch(), reference.sets_epoch(), "{label}");
            assert_eq!(batched.stats(), reference.stats(), "{label}");
            assert_eq!(batched.stats().hash_checks, 0, "{label}");
            assert!(!batched.has_pending_output(), "{label}");
            purged += batched.sets_epoch() - twin().sets_epoch();
        }
        assert!(purged > 0, "{selector:?}: no corruption was purged");
    }
}

// ------------------------------------------------- what a node keeps idle

/// A monitoring period whose pings are all answered empties the pending
/// table, which then holds no slots; every armed expiry is dead.
#[test]
fn answered_monitoring_period_leaves_pending_unallocated() {
    let targets = [5, 6, 7];
    let pairs: Vec<(NodeId, NodeId)> = targets.iter().map(|&t| (id(1), id(t))).collect();
    let cfg = Config::builder(100).forgetful(None).build().unwrap();
    let mut n = Node::new(id(1), cfg, TestSelector::with_pairs(&pairs), 2);
    for &t in &targets {
        n.handle_message(
            0,
            id(9),
            Message::Notify {
                monitor: id(1),
                target: id(t),
            },
        );
    }
    let _ = drain(&mut n);
    assert_eq!(n.pending.allocated_slots(), 0, "nothing in flight yet");

    n.handle_timer(MINUTE, Timer::Monitoring);
    let actions = drain(&mut n);
    let pings: Vec<(NodeId, Nonce)> = sends(&actions)
        .into_iter()
        .filter_map(|(to, m)| match m {
            Message::MonitorPing { nonce } => Some((to, nonce)),
            _ => None,
        })
        .collect();
    assert_eq!(pings.len(), targets.len(), "every target is pinged");
    assert_eq!(n.pending.len(), targets.len());
    assert!(n.pending.allocated_slots() > 0);

    for &(to, nonce) in &pings {
        n.handle_message(MINUTE + 10, to, Message::MonitorPong { nonce });
    }
    let _ = drain(&mut n);
    assert!(n.pending.is_empty());
    assert_eq!(
        n.pending.allocated_slots(),
        0,
        "an emptied pending table frees its slots"
    );
    let expiries: Vec<(Timer, TimeMs)> = timers(&actions)
        .into_iter()
        .filter(|(t, _)| matches!(t, Timer::Expire(_)))
        .collect();
    assert_eq!(expiries.len(), pings.len());
    for (timer, at) in expiries {
        assert!(!n.timer_live(timer, at), "{timer:?} outlived its pong");
    }
    for &t in &targets {
        assert_eq!(n.target_record(id(t)).unwrap().pongs_received, 1);
    }
}

/// A single-node driver that records every output, running each input on
/// the node's own queues or, given a spare set, on that set lent for the
/// input the way the simulator lends it.
#[derive(Default)]
struct Recorder {
    spare: Option<OutputQueues>,
    actions: Actions,
}

impl Recorder {
    /// Runs one input on `n`, drains it, and returns what it produced.
    fn input(&mut self, n: &mut Node, f: impl FnOnce(&mut Node)) -> Actions {
        if let Some(spare) = self.spare.as_mut() {
            n.swap_output_queues(spare);
        }
        f(n);
        let actions = drain(n);
        if let Some(spare) = self.spare.as_mut() {
            n.swap_output_queues(spare);
        }
        self.actions.extend(actions.iter().cloned());
        actions
    }
}

/// One scripted life touching every output stream: join, view adoption,
/// NOTIFYs both ways, a protocol period whose fetch finds a pair, an
/// answered monitoring period, a served ping, a report that times out,
/// and app payloads out and to itself.
fn scripted_life(recorder: &mut Recorder) -> Node {
    let selector = TestSelector::with_pairs(&[(id(1), id(5)), (id(6), id(1)), (id(3), id(4))]);
    let cfg = Config::builder(100).forgetful(None).build().unwrap();
    let mut n = Node::new(id(1), cfg, selector, 11);
    let joined = recorder.input(&mut n, |n| n.start(0, JoinKind::Fresh, Some(id(2))));
    for (to, msg) in sends(&joined) {
        if let Message::InitViewRequest { nonce } = msg {
            let view = vec![id(3), id(5), id(6), id(7)];
            recorder.input(&mut n, |n| {
                n.handle_message(5, to, Message::InitViewReply { nonce, view });
            });
        }
    }
    for (monitor, target) in [(id(1), id(5)), (id(6), id(1))] {
        recorder.input(&mut n, |n| {
            n.handle_message(6, id(9), Message::Notify { monitor, target });
        });
    }
    let probes = recorder.input(&mut n, |n| n.handle_timer(MINUTE, Timer::Protocol));
    for (to, msg) in sends(&probes) {
        let reply = match msg {
            Message::ViewPing { nonce } => Message::ViewPong { nonce },
            Message::ViewFetch { nonce } => Message::ViewFetchReply {
                nonce,
                view: vec![id(4), id(8)],
            },
            _ => continue,
        };
        recorder.input(&mut n, |n| n.handle_message(MINUTE + 5, to, reply));
    }
    let pings = recorder.input(&mut n, |n| n.handle_timer(MINUTE, Timer::Monitoring));
    for (to, msg) in sends(&pings) {
        if let Message::MonitorPing { nonce } = msg {
            recorder.input(&mut n, |n| {
                n.handle_message(MINUTE + 10, to, Message::MonitorPong { nonce });
            });
        }
    }
    recorder.input(&mut n, |n| {
        n.handle_message(MINUTE + 20, id(6), Message::MonitorPing { nonce: Nonce(3) });
    });
    let armed = recorder.input(&mut n, |n| n.request_report(MINUTE + 30, id(5), 2));
    for (timer, at) in timers(&armed) {
        recorder.input(&mut n, |n| n.handle_timer(at, timer));
    }
    recorder.input(&mut n, |n| {
        n.send_app(id(3), vec![1, 2]);
        n.send_app(id(1), vec![3]);
    });
    n
}

/// Lending the node a spare set of queues for each input changes nothing
/// it outputs or counts, and leaves the node holding no queue capacity.
#[test]
fn lent_output_queues_change_nothing_the_node_outputs() {
    let mut own = Recorder::default();
    let on_own = scripted_life(&mut own);
    let mut lent = Recorder {
        spare: Some(OutputQueues::default()),
        ..Recorder::default()
    };
    let on_lent = scripted_life(&mut lent);

    // One stream per run: transmits, then timers, then events, per input.
    assert_eq!(own.actions, lent.actions);
    assert_eq!(on_own.stats(), on_lent.stats());
    // The script reached every stream, including the timed-out report and
    // the Fig. 2 match it planted.
    let emitted = events(&own.actions);
    assert!(emitted.contains(&AppEvent::RequestTimedOut { peer: id(5) }));
    assert!(emitted.contains(&AppEvent::TargetDiscovered { target: id(5) }));
    let planted = Message::Notify {
        monitor: id(3),
        target: id(4),
    };
    assert!(sends(&own.actions).iter().any(|(_, m)| *m == planted));
    assert!(!timers(&own.actions).is_empty());

    // Whose capacity is where: the lent run's node never grew queues of
    // its own; the spare holds what the inputs needed.
    let capacity = |q: &OutputQueues| {
        q.0.as_ref().map_or(0, |q| {
            q.transmits.capacity() + q.timers.capacity() + q.events.capacity()
        })
    };
    assert_eq!(capacity(&on_lent.queues), 0);
    assert!(capacity(lent.spare.as_ref().unwrap()) > 0);
    assert!(capacity(&on_own.queues) > 0);
}
