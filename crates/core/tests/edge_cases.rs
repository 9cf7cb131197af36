//! Edge-case and adversarial-input tests for the node state machine,
//! exercised through the public poll-based API only.

#![expect(clippy::disallowed_types, reason = "tests are exempt")]

use std::sync::Arc;

use avmon::{
    Action, AppEvent, Behavior, Config, HashSelector, JoinKind, Message, MonitorSelector, Node,
    NodeId, Nonce, Timer, MINUTE,
};

fn id(i: u32) -> NodeId {
    NodeId::from_index(i)
}

fn mk(i: u32, n: usize) -> Node {
    let config = Config::builder(n).build().unwrap();
    let selector = Arc::new(HashSelector::from_config(&config));
    Node::new(id(i), config, selector, u64::from(i) + 1)
}

/// Drains all queued output into the unified [`Action`] stream.
use avmon::driver::collect_actions as drain;

fn sends(actions: &[Action]) -> Vec<(NodeId, Message)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { to, msg } => Some((*to, msg.clone())),
            _ => None,
        })
        .collect()
}

#[test]
fn forged_pong_from_wrong_peer_does_not_cancel_eviction() {
    let mut n = mk(1, 100);
    n.seed_view(&[id(2)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    let actions = drain(&mut n);
    let ping_nonce = sends(&actions)
        .iter()
        .find_map(|(_, m)| match m {
            Message::ViewPing { nonce } => Some(*nonce),
            _ => None,
        })
        .unwrap();
    // A third party forges the pong: the pending entry must survive…
    n.handle_message(MINUTE + 1, id(66), Message::ViewPong { nonce: ping_nonce });
    let _ = drain(&mut n);
    // …so the expiry still evicts the silent peer.
    let _ = fire_expiries(&mut n, &actions);
    assert!(
        !n.view().contains(id(2)),
        "forged pong must not rescue the entry"
    );
}

/// Fires every `Expire` timer `actions` arms, at its armed time, and
/// returns the events the firings emit.
fn fire_expiries(n: &mut Node, actions: &[Action]) -> Vec<AppEvent> {
    for a in actions {
        if let Action::SetTimer {
            timer: t @ Timer::Expire(_),
            at,
        } = a
        {
            n.handle_timer(*at, *t);
        }
    }
    events(&drain(n))
}

fn events(actions: &[Action]) -> Vec<AppEvent> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::App(e) => Some(e.clone()),
            _ => None,
        })
        .collect()
}

/// The nonce of the first send in `actions` that `pick` recognises.
fn sent_nonce(actions: &[Action], pick: impl Fn(&Message) -> Option<Nonce>) -> Nonce {
    sends(actions).iter().find_map(|(_, m)| pick(m)).unwrap()
}

#[test]
fn report_reply_to_a_monitor_ping_does_not_cancel_suspicion() {
    let config = Config::builder(64).k(20).build().unwrap();
    let selector = Arc::new(HashSelector::from_config(&config));
    let mut n = Node::new(id(1), config, selector.clone(), 9);
    let target = (2..64)
        .map(id)
        .find(|&t| selector.is_monitor(id(1), t))
        .unwrap();
    n.handle_message(
        0,
        id(60),
        Message::Notify {
            monitor: id(1),
            target,
        },
    );
    let _ = drain(&mut n);
    n.handle_timer(MINUTE, Timer::Monitoring);
    let actions = drain(&mut n);
    let nonce = sent_nonce(&actions, |m| match m {
        Message::MonitorPing { nonce } => Some(*nonce),
        _ => None,
    });
    // The target answers its ping with the wrong kind of reply: that is
    // no pong, so it neither reports anything nor retires the ping…
    n.handle_message(
        MINUTE + 1,
        target,
        Message::ReportReply {
            nonce,
            monitors: vec![],
        },
    );
    assert!(drain(&mut n).is_empty(), "a mismatched reply is ignored");
    // …and the ping's expiry still opens the suspicion.
    assert_eq!(
        fire_expiries(&mut n, &actions),
        [AppEvent::TargetUnresponsive { target }]
    );
}

#[test]
fn report_reply_from_a_third_party_does_not_cancel_the_request() {
    let mut n = mk(1, 100);
    n.request_report(MINUTE, id(2), 3);
    let actions = drain(&mut n);
    let nonce = sent_nonce(&actions, |m| match m {
        Message::ReportRequest { nonce, .. } => Some(*nonce),
        _ => None,
    });
    n.handle_message(
        MINUTE + 1,
        id(3),
        Message::ReportReply {
            nonce,
            monitors: vec![id(4)],
        },
    );
    assert!(drain(&mut n).is_empty(), "only the target can answer");
    assert_eq!(
        fire_expiries(&mut n, &actions),
        [AppEvent::RequestTimedOut { peer: id(2) }]
    );
}

#[test]
fn history_reply_about_another_target_is_ignored() {
    let mut n = mk(1, 100);
    n.request_history(MINUTE, id(2), id(5));
    let actions = drain(&mut n);
    let nonce = sent_nonce(&actions, |m| match m {
        Message::HistoryRequest { nonce, .. } => Some(*nonce),
        _ => None,
    });
    n.handle_message(
        MINUTE + 1,
        id(2),
        Message::HistoryReply {
            nonce,
            target: id(6),
            availability: Some(1.0),
            samples: 10,
        },
    );
    assert!(
        drain(&mut n).is_empty(),
        "the answer must name the target asked about"
    );
    assert_eq!(
        fire_expiries(&mut n, &actions),
        [AppEvent::RequestTimedOut { peer: id(2) }]
    );
}

#[test]
fn init_view_reply_from_a_non_contact_is_ignored() {
    let mut n = mk(1, 100);
    n.start(0, JoinKind::Fresh, Some(id(2)));
    let nonce = sent_nonce(&drain(&mut n), |m| match m {
        Message::InitViewRequest { nonce } => Some(*nonce),
        _ => None,
    });
    n.handle_message(
        1,
        id(3),
        Message::InitViewReply {
            nonce,
            view: vec![id(7), id(8)],
        },
    );
    assert!(drain(&mut n).is_empty(), "no ViewInherited from a stranger");
    assert!(n.view().is_empty(), "the stranger's view is not adopted");
    // The request is still the contact's to answer.
    n.handle_message(
        2,
        id(2),
        Message::InitViewReply {
            nonce,
            view: vec![id(9)],
        },
    );
    assert_eq!(
        events(&drain(&mut n)),
        [AppEvent::ViewInherited {
            from: id(2),
            adopted: 1
        }]
    );
    assert_eq!(n.view().iter().collect::<Vec<_>>(), [id(9)]);
}

#[test]
fn fake_target_listed_twice_is_adopted_once() {
    let mut n = mk(1, 100);
    n.set_behavior(Behavior::FakeMonitor {
        targets: vec![id(5), id(5)],
    });
    let epoch = n.sets_epoch();
    n.handle_timer(MINUTE, Timer::Protocol);
    let adopted: Vec<AppEvent> = events(&drain(&mut n))
        .into_iter()
        .filter(|e| matches!(e, AppEvent::TargetDiscovered { .. }))
        .collect();
    assert_eq!(adopted, [AppEvent::TargetDiscovered { target: id(5) }]);
    assert_eq!(n.target_set_len(), 1);
    assert_eq!(n.sets_epoch(), epoch + 1, "one bump per membership change");
}

#[test]
fn pong_after_expiry_is_harmless() {
    let mut n = mk(1, 100);
    n.seed_view(&[id(2)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    let actions = drain(&mut n);
    let _ = fire_expiries(&mut n, &actions);
    // Late replies to expired nonces are dropped without effect.
    for (_, m) in sends(&actions) {
        if let Message::ViewPing { nonce } = m {
            n.handle_message(2 * MINUTE, id(2), Message::ViewPong { nonce });
            assert!(drain(&mut n).is_empty());
        }
    }
}

#[test]
fn duplicate_expire_timers_do_not_double_evict() {
    let mut n = mk(1, 100);
    n.seed_view(&[id(2), id(3)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    let expires: Vec<(Timer, u64)> = drain(&mut n)
        .iter()
        .filter_map(|a| match a {
            Action::SetTimer {
                timer: t @ Timer::Expire(_),
                at,
            } => Some((*t, *at)),
            _ => None,
        })
        .collect();
    for (t, at) in &expires {
        n.handle_timer(*at, *t);
    }
    let _ = drain(&mut n);
    let evictions = n.stats().view_evictions;
    // Replay the same timers: nothing further happens.
    for (t, at) in &expires {
        n.handle_timer(*at + 1, *t);
    }
    let _ = drain(&mut n);
    assert_eq!(n.stats().view_evictions, evictions);
}

#[test]
fn expire_for_unknown_nonce_is_ignored() {
    let mut n = mk(1, 100);
    n.handle_timer(5, Timer::Expire(Nonce(0xdead)));
    assert!(drain(&mut n).is_empty());
}

#[test]
fn report_request_larger_than_ps_returns_everything_once() {
    let config = Config::builder(64).k(20).build().unwrap();
    let selector = Arc::new(HashSelector::from_config(&config));
    let mut n = Node::new(id(1), config, selector.clone(), 9);
    let monitors: Vec<NodeId> = (2..64)
        .map(id)
        .filter(|&m| selector.is_monitor(m, id(1)))
        .collect();
    for &m in &monitors {
        n.handle_message(
            0,
            id(60),
            Message::Notify {
                monitor: m,
                target: id(1),
            },
        );
    }
    let _ = drain(&mut n);
    n.handle_message(
        1,
        id(7),
        Message::ReportRequest {
            nonce: Nonce(1),
            count: 255,
        },
    );
    let (
        _,
        Message::ReportReply {
            monitors: reported, ..
        },
    ) = sends(&drain(&mut n))[0].clone()
    else {
        panic!("expected reply");
    };
    assert_eq!(reported.len(), monitors.len(), "capped at |PS|");
    let unique: std::collections::HashSet<_> = reported.iter().collect();
    assert_eq!(unique.len(), reported.len(), "no duplicates in report");
}

#[test]
fn zero_count_report_request_yields_empty_report() {
    let mut n = mk(1, 100);
    n.handle_message(
        1,
        id(7),
        Message::ReportRequest {
            nonce: Nonce(2),
            count: 0,
        },
    );
    let (_, Message::ReportReply { monitors, .. }) = sends(&drain(&mut n))[0].clone() else {
        panic!("expected reply");
    };
    assert!(monitors.is_empty());
}

#[test]
fn notify_flood_is_idempotent() {
    let config = Config::builder(64).k(20).build().unwrap();
    let selector = Arc::new(HashSelector::from_config(&config));
    let mut n = Node::new(id(1), config, selector.clone(), 9);
    let monitor = (2..64)
        .map(id)
        .find(|&m| selector.is_monitor(m, id(1)))
        .unwrap();
    for _ in 0..100 {
        n.handle_message(
            0,
            id(60),
            Message::Notify {
                monitor,
                target: id(1),
            },
        );
    }
    let _ = drain(&mut n);
    assert_eq!(n.pinging_set_len(), 1);
}

#[test]
fn join_weight_zero_and_giant_hops_are_dropped() {
    let mut n = mk(1, 100);
    n.seed_view(&[id(2)]);
    n.handle_message(
        0,
        id(2),
        Message::Join {
            origin: id(9),
            weight: 0,
            hops: 0,
        },
    );
    assert!(drain(&mut n).is_empty());
    assert!(!n.view().contains(id(9)));
    n.handle_message(
        0,
        id(2),
        Message::Join {
            origin: id(9),
            weight: 5,
            hops: u32::MAX,
        },
    );
    assert!(drain(&mut n).is_empty());
}

#[test]
fn fetch_reply_with_garbage_ids_still_keeps_invariants() {
    let mut n = mk(1, 100);
    n.seed_view(&[id(2)]);
    n.handle_timer(MINUTE, Timer::Protocol);
    let (peer, nonce) = sends(&drain(&mut n))
        .iter()
        .find_map(|(to, m)| match m {
            Message::ViewFetch { nonce } => Some((*to, *nonce)),
            _ => None,
        })
        .unwrap();
    // Reply includes the node itself, duplicates, and the peer.
    let view = vec![id(1), id(1), peer, id(5), id(5)];
    n.handle_message(MINUTE + 1, peer, Message::ViewFetchReply { nonce, view });
    let _ = drain(&mut n);
    assert!(!n.view().contains(id(1)), "self never enters the view");
    let entries: Vec<NodeId> = n.view().iter().collect();
    let unique: std::collections::HashSet<_> = entries.iter().collect();
    assert_eq!(unique.len(), entries.len(), "no duplicates after shuffle");
}

#[test]
fn monitoring_with_empty_target_set_is_a_noop() {
    let mut n = mk(1, 100);
    n.handle_timer(MINUTE, Timer::Monitoring);
    let a = drain(&mut n);
    // Only the re-arm timer.
    assert_eq!(sends(&a).len(), 0);
    assert!(a.iter().any(|x| matches!(
        x,
        Action::SetTimer {
            timer: Timer::Monitoring,
            ..
        }
    )));
}

#[test]
fn start_is_reentrant_for_rejoin() {
    // A driver may reuse one Node value across a leave/rejoin cycle.
    let mut n = mk(1, 100);
    n.start(0, JoinKind::Fresh, Some(id(2)));
    let _ = drain(&mut n);
    n.seed_view(&[id(3)]);
    n.start(
        10 * MINUTE,
        JoinKind::Rejoin {
            down_duration: 3 * MINUTE,
        },
        Some(id(4)),
    );
    assert!(sends(&drain(&mut n))
        .iter()
        .any(|(to, m)| *to == id(4) && matches!(m, Message::Join { weight: 3, .. })));
    // Old pending state was cleared: expiries from before the restart
    // cannot fire into the new incarnation (drivers guarantee timer
    // hygiene, but the node also wipes its own pending map).
    n.handle_timer(11 * MINUTE, Timer::Expire(Nonce(1)));
    assert!(drain(&mut n).is_empty());
}
