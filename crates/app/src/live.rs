//! The live executor: the same async app tasks over a real
//! [`Cluster`] of node threads (in-memory channels or UDP sockets).
//!
//! Sleeps resolve on the wall clock (epoch-relative milliseconds, so app
//! code sees the same `TimeMs` arithmetic as in sim), cluster events are
//! pumped into the same per-node inboxes, and the handles' verbs go out
//! as [`avmon_runtime::Command`]s to the node threads. Everything here
//! is deliberately wall-clock land — the portability claim is that the
//! *task source* is unchanged, not that live runs are replayable.

use std::future::Future;
use std::time::{Duration, Instant};

use avmon::{NodeId, TimeMs};
use avmon_runtime::Cluster;

use crate::decision::DecisionLog;
use crate::exec::Core;
use crate::handle::AvmonHandle;

/// How often the live executor ticks: polls tasks, pumps cluster events,
/// and re-checks sleep deadlines.
const TICK: Duration = Duration::from_millis(10);

/// Runs async application tasks against a live [`Cluster`].
pub struct LiveExecutor {
    core: Core<Cluster>,
    epoch: Instant,
}

impl LiveExecutor {
    /// Wraps a running cluster. The `app` RNG stream is seeded exactly as
    /// in sim ([`crate::app_stream_seed`]), so a task's draw *sequence*
    /// matches a sim run with the same master seed and draw order.
    #[must_use]
    pub fn new(cluster: Cluster, master_seed: u64) -> Self {
        LiveExecutor {
            core: Core::new(cluster, 0, master_seed),
            #[expect(clippy::disallowed_methods, reason = "the live epoch is wall-clock")]
            epoch: Instant::now(),
        }
    }

    /// Spawns an app task bound to `node` (same signature and semantics
    /// as `SimExecutor::spawn` — identical task sources run on both).
    pub fn spawn<F, Fut>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(AvmonHandle) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        self.core.spawn(node, f);
    }

    /// Read access to the wrapped cluster (snapshots, membership —
    /// anything [`Cluster`] exposes immutably).
    pub fn cluster<R>(&self, f: impl FnOnce(&Cluster) -> R) -> R {
        f(&self.core.world.borrow())
    }

    /// Mutable access to the wrapped cluster (kill / restart).
    pub fn cluster_mut<R>(&mut self, f: impl FnOnce(&mut Cluster) -> R) -> R {
        f(&mut self.core.world.borrow_mut())
    }

    /// Drives the tasks for `duration` of wall time.
    pub fn run_for(&mut self, duration: Duration) {
        #[expect(clippy::disallowed_methods, reason = "wall-clock run deadline")]
        let end = Instant::now() + duration;
        loop {
            let now_ms = self.epoch.elapsed().as_millis() as TimeMs;
            let events = self.core.world.borrow().drain_events();
            self.core.advance(
                now_ms,
                events.into_iter().map(|(id, event)| (now_ms, id, event)),
            );
            self.core.poll();
            #[expect(clippy::disallowed_methods, reason = "wall-clock loop condition")]
            if Instant::now() >= end {
                break;
            }
            std::thread::sleep(TICK);
        }
    }

    /// A copy of the decision log recorded so far.
    #[must_use]
    pub fn log(&self) -> DecisionLog {
        self.core.log()
    }

    /// Tears the executor down: the cluster (still running — shut it
    /// down) plus the decision log.
    #[must_use]
    pub fn into_parts(self) -> (Cluster, DecisionLog) {
        self.core.into_parts()
    }
}
