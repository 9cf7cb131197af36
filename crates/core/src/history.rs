//! Availability-history maintenance (the paper's sub-problem II).
//!
//! "Any existing technique for availability history maintenance, such as
//! raw, aged, recent, etc. [9], can be used orthogonally with any
//! availability monitoring overlay" (§1). This module provides those
//! standard techniques so the overlay is usable end-to-end; the monitor
//! stores one history per target in its persistent storage.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::time::{DurMs, TimeMs};

/// A strategy for summarizing up/down observations of one monitored node.
pub trait AvailabilityStore {
    /// Records an observation at time `now`: `up == true` if the target
    /// answered the monitoring ping.
    fn record(&mut self, now: TimeMs, up: bool);

    /// The current availability estimate in `[0,1]`, or `None` before the
    /// first observation.
    fn availability(&self, now: TimeMs) -> Option<f64>;

    /// Number of observations recorded.
    fn samples(&self) -> u64;

    /// A short stable name of the technique.
    fn name(&self) -> &'static str;
}

/// Concrete, serializable history store (one of the standard techniques).
///
/// An enum rather than `Box<dyn …>` so a node's persistent state can be
/// cloned, serialized to disk, and restored after a failure — the paper
/// assumes "persistent storage that can be retrieved after a failure or a
/// rejoin" (§3).
///
/// Every `TS` entry holds one, so its size is paid once per target per
/// monitor. `Raw` — the default and the paper's §5.4 estimator — stays
/// inline; the rare `Aged`, `Recent` and `Sessions` variants are boxed so
/// they do not widen the enum (24 B instead of 64 B). A box reads and
/// writes as its contents, so the serialized form is the same either way.
///
/// # Example
///
/// ```
/// use avmon::history::{AvailabilityStore, HistoryStore};
///
/// let mut h = HistoryStore::raw();
/// h.record(0, true);
/// h.record(60_000, false);
/// assert_eq!(h.availability(60_000), Some(0.5));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HistoryStore {
    /// Every observation counts equally, forever.
    Raw(RawHistory),
    /// Exponentially-aged estimate (recent observations dominate).
    Aged(Box<AgedHistory>),
    /// Only observations within a sliding window count.
    Recent(Box<RecentHistory>),
    /// Session-oriented: tracks up-session / down-time durations.
    Sessions(Box<SessionHistory>),
}

impl HistoryStore {
    /// A raw (uniform-average) store.
    #[must_use]
    pub fn raw() -> Self {
        HistoryStore::Raw(RawHistory::default())
    }

    /// An exponentially-aged store with smoothing factor `alpha ∈ (0,1]`
    /// (weight of the newest observation).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn aged(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0,1], got {alpha}"
        );
        HistoryStore::Aged(Box::new(AgedHistory {
            alpha,
            estimate: None,
            samples: 0,
        }))
    }

    /// A sliding-window store keeping observations newer than `window`.
    #[must_use]
    pub fn recent(window: DurMs) -> Self {
        HistoryStore::Recent(Box::new(RecentHistory {
            window,
            samples: VecDeque::new(),
            total: 0,
        }))
    }

    /// A session-duration store.
    #[must_use]
    pub fn sessions() -> Self {
        HistoryStore::Sessions(Box::default())
    }
}

impl AvailabilityStore for HistoryStore {
    fn record(&mut self, now: TimeMs, up: bool) {
        match self {
            HistoryStore::Raw(h) => h.record(now, up),
            HistoryStore::Aged(h) => h.record(now, up),
            HistoryStore::Recent(h) => h.record(now, up),
            HistoryStore::Sessions(h) => h.record(now, up),
        }
    }

    fn availability(&self, now: TimeMs) -> Option<f64> {
        match self {
            HistoryStore::Raw(h) => h.availability(now),
            HistoryStore::Aged(h) => h.availability(now),
            HistoryStore::Recent(h) => h.availability(now),
            HistoryStore::Sessions(h) => h.availability(now),
        }
    }

    fn samples(&self) -> u64 {
        match self {
            HistoryStore::Raw(h) => h.samples(),
            HistoryStore::Aged(h) => h.samples(),
            HistoryStore::Recent(h) => h.samples(),
            HistoryStore::Sessions(h) => h.samples(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            HistoryStore::Raw(h) => h.name(),
            HistoryStore::Aged(h) => h.name(),
            HistoryStore::Recent(h) => h.name(),
            HistoryStore::Sessions(h) => h.name(),
        }
    }
}

impl Default for HistoryStore {
    /// Raw storage, the paper's §5.4 estimator ("fraction of monitoring
    /// pings … which receive a response back").
    fn default() -> Self {
        HistoryStore::raw()
    }
}

/// Uniform average of all observations ever made.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct RawHistory {
    up: u64,
    total: u64,
}

impl AvailabilityStore for RawHistory {
    fn record(&mut self, _now: TimeMs, up: bool) {
        self.total += 1;
        if up {
            self.up += 1;
        }
    }

    fn availability(&self, _now: TimeMs) -> Option<f64> {
        (self.total > 0).then(|| self.up as f64 / self.total as f64)
    }

    fn samples(&self) -> u64 {
        self.total
    }

    fn name(&self) -> &'static str {
        "raw"
    }
}

/// Exponentially-weighted moving average.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgedHistory {
    alpha: f64,
    estimate: Option<f64>,
    samples: u64,
}

impl AvailabilityStore for AgedHistory {
    fn record(&mut self, _now: TimeMs, up: bool) {
        let x = if up { 1.0 } else { 0.0 };
        self.estimate = Some(match self.estimate {
            None => x,
            Some(e) => self.alpha * x + (1.0 - self.alpha) * e,
        });
        self.samples += 1;
    }

    fn availability(&self, _now: TimeMs) -> Option<f64> {
        self.estimate
    }

    fn samples(&self) -> u64 {
        self.samples
    }

    fn name(&self) -> &'static str {
        "aged"
    }
}

/// Sliding-window average over the last `window` milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecentHistory {
    window: DurMs,
    samples: VecDeque<(TimeMs, bool)>,
    total: u64,
}

impl AvailabilityStore for RecentHistory {
    fn record(&mut self, now: TimeMs, up: bool) {
        self.samples.push_back((now, up));
        self.total += 1;
        let cutoff = now.saturating_sub(self.window);
        while let Some(&(t, _)) = self.samples.front() {
            if t < cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    fn availability(&self, now: TimeMs) -> Option<f64> {
        let cutoff = now.saturating_sub(self.window);
        let mut up = 0u64;
        let mut total = 0u64;
        for &(t, sample_up) in &self.samples {
            if t >= cutoff {
                total += 1;
                if sample_up {
                    up += 1;
                }
            }
        }
        (total > 0).then(|| up as f64 / total as f64)
    }

    fn samples(&self) -> u64 {
        self.total
    }

    fn name(&self) -> &'static str {
        "recent"
    }
}

/// Tracks contiguous up-sessions and down-times; availability is the
/// fraction of observed time the target was up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct SessionHistory {
    /// Completed (start, end, up?) segments; bounded to the most recent 64.
    segments: VecDeque<(TimeMs, TimeMs, bool)>,
    current: Option<(TimeMs, TimeMs, bool)>,
    samples: u64,
}

impl SessionHistory {
    const MAX_SEGMENTS: usize = 64;

    /// Completed session segments as `(start, end, was_up)`.
    pub fn segments(&self) -> impl Iterator<Item = (TimeMs, TimeMs, bool)> + '_ {
        self.segments.iter().copied()
    }

    /// Length of the last completed *up* session, if any.
    #[must_use]
    pub fn last_up_session(&self) -> Option<DurMs> {
        self.segments
            .iter()
            .rev()
            .find(|&&(_, _, up)| up)
            .map(|&(s, e, _)| e - s)
    }
}

impl AvailabilityStore for SessionHistory {
    fn record(&mut self, now: TimeMs, up: bool) {
        self.samples += 1;
        match self.current {
            Some((start, _, state)) if state == up => {
                self.current = Some((start, now, state));
            }
            Some(done) => {
                self.segments.push_back(done);
                if self.segments.len() > Self::MAX_SEGMENTS {
                    self.segments.pop_front();
                }
                self.current = Some((now, now, up));
            }
            None => self.current = Some((now, now, up)),
        }
    }

    fn availability(&self, _now: TimeMs) -> Option<f64> {
        let mut up_time = 0u64;
        let mut total = 0u64;
        for &(s, e, up) in self.segments.iter().chain(self.current.iter()) {
            // Each segment covers at least one observation interval; weight
            // point segments equally by extending them by one unit.
            let span = (e - s).max(1);
            total += span;
            if up {
                up_time += span;
            }
        }
        (total > 0).then(|| up_time as f64 / total as f64)
    }

    fn samples(&self) -> u64 {
        self.samples
    }

    fn name(&self) -> &'static str {
        "sessions"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_counts_fractions() {
        let mut h = HistoryStore::raw();
        assert_eq!(h.availability(0), None);
        for i in 0..10 {
            h.record(i * 1000, i % 4 != 0); // 7 of 10 up (i=0,4,8 down)
        }
        assert_eq!(h.availability(10_000), Some(0.7));
        assert_eq!(h.samples(), 10);
        assert_eq!(h.name(), "raw");
    }

    #[test]
    fn aged_tracks_recent_behavior() {
        let mut h = HistoryStore::aged(0.5);
        h.record(0, false);
        assert_eq!(h.availability(0), Some(0.0));
        for t in 1..20 {
            h.record(t, true);
        }
        let a = h.availability(20).unwrap();
        assert!(a > 0.99, "aged estimate {a} should approach 1");
        assert_eq!(h.name(), "aged");
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1]")]
    fn aged_rejects_bad_alpha() {
        let _ = HistoryStore::aged(0.0);
    }

    #[test]
    fn recent_forgets_old_samples() {
        let mut h = HistoryStore::recent(10_000);
        h.record(0, false);
        h.record(1_000, false);
        for t in 5..15 {
            h.record(t * 1_000, true);
        }
        // At t=14s the two `false` samples (t=0s,1s) are outside the 10s window.
        assert_eq!(h.availability(14_000), Some(1.0));
        assert_eq!(h.name(), "recent");
    }

    #[test]
    fn sessions_partition_time() {
        let mut h = SessionHistory::default();
        for t in 0..10 {
            h.record(t * 60_000, t < 5); // 5 min up then 5 min down
        }
        let a = h.availability(600_000).unwrap();
        assert!((a - 0.5).abs() < 0.1, "availability {a} should be ~0.5");
        assert_eq!(h.last_up_session(), Some(4 * 60_000));
        assert_eq!(h.name(), "sessions");
    }

    #[test]
    fn sessions_bound_memory() {
        let mut h = SessionHistory::default();
        for t in 0..100_000u64 {
            h.record(t, t % 2 == 0); // alternating → a segment per sample
        }
        assert!(h.segments.len() <= SessionHistory::MAX_SEGMENTS);
        assert_eq!(h.samples(), 100_000);
    }

    #[test]
    fn default_is_raw() {
        assert_eq!(HistoryStore::default().name(), "raw");
    }

    /// Every variant round-trips, and boxing the rare ones left the
    /// serialized form exactly as it was when they were inline.
    #[test]
    fn stores_serialize() {
        let pinned = [
            (HistoryStore::raw(), r#"{"Raw":[{"up":1,"total":3}]}"#),
            (
                HistoryStore::aged(0.25),
                r#"{"Aged":[{"alpha":0.25,"estimate":0.5625,"samples":3}]}"#,
            ),
            (
                HistoryStore::recent(120_000),
                r#"{"Recent":[{"window":120000,"samples":[[0,true],[60000,false],[120000,false]],"total":3}]}"#,
            ),
            (
                HistoryStore::sessions(),
                r#"{"Sessions":[{"segments":[[0,0,true]],"current":[60000,120000,false],"samples":3}]}"#,
            ),
        ];
        for (mut h, expected) in pinned {
            h.record(0, true);
            h.record(60_000, false);
            h.record(120_000, false);
            let json = serde_json::to_string(&h).unwrap();
            assert_eq!(json, expected);
            let back: HistoryStore = serde_json::from_str(&json).unwrap();
            assert_eq!(back, h);
        }
    }
}
