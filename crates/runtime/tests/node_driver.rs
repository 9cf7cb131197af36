//! The wall-clock shell of the one-node-per-process deployment:
//! `NodeDriver::run` on its own thread over a `UdpTransport`, driven from
//! outside through a raw loopback socket and its command channel.

use std::net::{SocketAddrV4, UdpSocket};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use avmon::{codec, Config, HashSelector, JoinKind, Message, Node, Nonce};
use avmon_runtime::{Command, NodeDriver, SnapshotBoard, Transport, UdpTransport};
use crossbeam::channel::{unbounded, Receiver, Sender};

/// How long a test waits for a reply or for the driver to return.
const PATIENCE: Duration = Duration::from_secs(5);

/// A bootstrapping node's driver, running on its own thread.
struct Running {
    addr: SocketAddrV4,
    commands: Sender<Command>,
    board: SnapshotBoard,
    /// Receives once `run` has returned.
    done: Receiver<()>,
    thread: JoinHandle<()>,
}

impl Running {
    /// Whether `run` returns within [`PATIENCE`]; joins its thread if so.
    fn returns(self) -> bool {
        let returned = self.done.recv_timeout(PATIENCE).is_ok();
        returned && self.thread.join().is_ok()
    }
}

fn spawn() -> Running {
    let transport = UdpTransport::bind_ephemeral([127, 0, 0, 1]).unwrap();
    let id = transport.local_id();
    let config = Config::builder(16).build().unwrap();
    let selector = Arc::new(HashSelector::from_config(&config));
    let node = Node::new(id, config, selector, 7);
    let (commands, command_rx) = unbounded();
    let (events, _) = unbounded();
    let board = SnapshotBoard::default();
    let driver = NodeDriver::new(
        node,
        transport,
        command_rx,
        events,
        board.clone(),
        Vec::new(),
    );
    let (done_tx, done) = unbounded();
    let thread = std::thread::spawn(move || {
        driver.run(JoinKind::Fresh, None);
        let _ = done_tx.send(());
    });
    let addr = SocketAddrV4::from(id);
    Running {
        addr,
        commands,
        board,
        done,
        thread,
    }
}

#[test]
fn answers_a_ping_publishes_and_returns_on_stop() {
    let node = spawn();
    let client = UdpSocket::bind("127.0.0.1:0").unwrap();
    client.set_read_timeout(Some(PATIENCE)).unwrap();
    let nonce = Nonce(4_242);
    let ping = codec::encode(&Message::MonitorPing { nonce });
    client.send_to(&ping, node.addr).unwrap();
    let mut buf = [0u8; 2048];
    let (len, from) = client.recv_from(&mut buf).expect("a pong within 5 s");
    assert_eq!(from, node.addr.into(), "the node answers from its identity");
    assert_eq!(
        codec::decode(&buf[..len]),
        Ok(Message::MonitorPong { nonce })
    );
    let id = avmon::NodeId::from(node.addr);
    assert!(
        node.board.read().contains_key(&id),
        "the driver published at start"
    );

    node.commands.send(Command::Stop).unwrap();
    let board = node.board.clone();
    assert!(node.returns(), "Stop ends run");
    let last = board
        .read()
        .get(&id)
        .map(|s| s.stats.monitor_pings_received);
    assert_eq!(last, Some(1), "the final snapshot counts the ping");
}

#[test]
fn returns_when_the_command_sender_is_dropped() {
    let mut node = spawn();
    // Drops the driver's only command sender (the stand-in is unconnected).
    node.commands = unbounded().0;
    assert!(node.returns(), "a closed channel ends run");
}
