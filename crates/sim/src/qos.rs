//! Streaming failure-detector QoS accumulators (the integer half of
//! [`FdQos`]): suspicion transitions fold into episode counters as the
//! nodes emit them, so report assembly never replays the run. Everything
//! here is integer bookkeeping over a deterministic event order —
//! serialized QoS is byte-identical across same-seed runs.

use std::collections::BTreeMap;

use avmon::{DurMs, NodeId, TimeMs};

use crate::invariants::WindowOutcome;
use crate::metrics::{DetectionDistribution, FdQos};

#[derive(Debug, Default)]
pub(crate) struct QosAccumulator {
    /// Open wrongful-suspicion episodes, keyed by `(monitor, target)` with
    /// the suspicion start time.
    open_mistakes: BTreeMap<(NodeId, NodeId), TimeMs>,
    /// Wrongful-suspicion episodes opened inside the measurement window.
    episodes: u64,
    /// Total time spent in (closed) mistake episodes.
    mistake_time: DurMs,
    /// True-failure detection latencies, from the target's actual death.
    detection: DetectionDistribution,
}

impl QosAccumulator {
    /// Folds one suspicion transition: `monitor` started (`down`) or
    /// stopped suspecting `target`. `target_left_at` is when the target's
    /// last incarnation departed; `measuring` is whether `now` lies inside
    /// the measurement window.
    pub(crate) fn fold_suspicion(
        &mut self,
        now: TimeMs,
        measuring: bool,
        (monitor, target): (NodeId, NodeId),
        down: bool,
        target_alive: bool,
        target_left_at: Option<TimeMs>,
    ) {
        if !down {
            if let Some(start) = self.open_mistakes.remove(&(monitor, target)) {
                self.mistake_time += now.saturating_sub(start);
            }
            return;
        }
        if !measuring {
            return;
        }
        if target_alive {
            // Wrongful suspicion: the target is alive right now.
            self.episodes += 1;
            self.open_mistakes.insert((monitor, target), now);
        } else if let Some(left) = target_left_at {
            // True detection: latency from the target's departure. (Ghost
            // targets that never existed have no departure time and score
            // nowhere.)
            self.detection.record(now.saturating_sub(left));
        }
    }

    /// Closes every open mistake episode that `node` participates in: a
    /// departing monitor's open mistakes end here, and so do open mistakes
    /// *about* it — suspecting a node that just died stops being a mistake
    /// at the instant of death.
    pub(crate) fn close_involving(&mut self, now: TimeMs, node: NodeId) {
        let mistake_time = &mut self.mistake_time;
        self.open_mistakes.retain(|&(monitor, target), start| {
            let involved = monitor == node || target == node;
            if involved {
                *mistake_time += now.saturating_sub(*start);
            }
            !involved
        });
    }

    /// Closes every still-open episode at the horizon so the totals cover
    /// the whole measurement window.
    pub(crate) fn close_all(&mut self, now: TimeMs) {
        for start in std::mem::take(&mut self.open_mistakes).into_values() {
            self.mistake_time += now.saturating_sub(start);
        }
    }

    /// The scorecard over a `window_ms` measurement window; the eclipse
    /// census is the report's to fill in. Derived floats come from
    /// deterministic integers, so serialized QoS stays byte-identical
    /// across runs.
    pub(crate) fn score(&self, window_ms: DurMs, windows: Vec<WindowOutcome>) -> FdQos {
        let mut qos = FdQos {
            detection: self.detection.clone(),
            mistake_episodes: self.episodes,
            mistake_time_ms: self.mistake_time,
            mistake_rate_per_hour: 0.0,
            mistake_duration_ms: 0.0,
            windows,
            eclipse: Vec::new(),
        };
        if window_ms > 0 {
            qos.mistake_rate_per_hour =
                self.episodes as f64 * avmon::HOUR as f64 / window_ms as f64;
        }
        if self.episodes > 0 {
            qos.mistake_duration_ms = self.mistake_time as f64 / self.episodes as f64;
        }
        qos
    }
}
