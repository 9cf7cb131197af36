//! Metric collection: everything the paper's figures are plotted from.
//!
//! The simulator samples each alive node's counters once per sampling
//! interval inside the measurement window, and records discovery times
//! when [`AppEvent::MonitorDiscovered`](avmon::AppEvent) fires. The
//! [`SimReport`] at the end of a run exposes the exact per-node series the
//! figures need: discovery times (Figs. 3–6, 11, 13, 15), computations per
//! second (Figs. 7, 8, 12), memory entries (Figs. 9, 10, 12, 14, 16),
//! outgoing bandwidth (Fig. 19), useless pings (Fig. 18), and availability
//! estimation accuracy (Figs. 17, 20).

use std::collections::BTreeMap;

use avmon::{DurMs, NodeId, NodeStats, TimeMs};
use serde::{Deserialize, Serialize};

use crate::invariants::{InvariantSummary, WindowOutcome};

/// Running per-node accumulators, updated once per sampling interval.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeSeries {
    /// Number of samples taken while the node was alive.
    pub samples: u32,
    /// Sum of per-interval hash-check deltas.
    pub hash_checks: u64,
    /// Sum of per-interval bytes-sent deltas.
    pub bytes_sent: u64,
    /// Sum of per-interval monitoring pings sent.
    pub monitor_pings_sent: u64,
    /// Sum of sampled memory-entry counts (`|CV|+|PS|+|TS|`).
    pub memory_entries_sum: u64,
    /// Maximum sampled memory-entry count.
    pub memory_entries_max: usize,
    /// Monitoring pings that reached a node not currently in the system.
    pub useless_pings: u64,
}

/// A discovery log for one (control-group) node.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryLog {
    /// The node's birth time (basis for discovery latency).
    pub born_at: TimeMs,
    /// Absolute times at which the 1st, 2nd, … monitors became known.
    pub monitor_times: Vec<TimeMs>,
}

impl DiscoveryLog {
    /// Latency from birth to the `l`-th monitor (1-based), if reached.
    #[must_use]
    pub fn latency(&self, l: usize) -> Option<DurMs> {
        assert!(l >= 1, "monitors are counted from 1");
        self.monitor_times
            .get(l - 1)
            .map(|&t| t.saturating_sub(self.born_at))
    }
}

/// One node's availability-estimation outcome (Figs. 17, 20).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityMeasure {
    /// The measured node.
    pub node: NodeId,
    /// Mean estimate across its monitors (fraction of pings answered, or
    /// misreported values under attack).
    pub estimated: f64,
    /// Ground-truth availability from the trace over the same window.
    pub actual: f64,
    /// Whether the node is in the trace's control group.
    pub control: bool,
    /// How many monitors contributed estimates.
    pub monitors: usize,
}

/// Streaming distribution of failure-detection times, in deterministic
/// integer arithmetic (counts, sums, power-of-two bucket bounds) so the
/// serialized distribution is byte-identical across same-seed runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct DetectionDistribution {
    /// Detections recorded.
    pub count: u64,
    /// Sum of detection times, ms.
    pub sum_ms: u64,
    /// Largest detection time, ms.
    pub max_ms: u64,
    /// Log₂-second histogram: `buckets[i]` counts detections with
    /// `time < 2^i` seconds (first matching bucket only); times of
    /// `2^15` s (~9 h) or more land in the last bucket.
    pub buckets: [u64; 16],
}

impl DetectionDistribution {
    /// Records one detection `ms` after the target actually died.
    pub fn record(&mut self, ms: DurMs) {
        self.count += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
        let secs = ms / 1_000;
        let bucket = ((64 - secs.leading_zeros()).min(15)) as usize;
        self.buckets[bucket] += 1;
    }

    /// Mean detection time in ms (`None` before the first detection).
    #[must_use]
    pub fn mean_ms(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_ms as f64 / self.count as f64)
    }

    /// Conservative upper bound on the `pct`-th percentile detection
    /// time, in whole seconds, read off the log₂ histogram (`None`
    /// before the first detection).
    ///
    /// The true percentile lies inside the returned bucket, so the bound
    /// overshoots by at most 2× — too coarse for tuning, exactly right
    /// for regression gates ("p99 must stay under a minute" style), and
    /// computable from the serialized scorecard alone.
    #[must_use]
    pub fn percentile_upper_bound_secs(&self, pct: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count as f64 * pct / 100.0).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return Some(1u64 << i);
            }
        }
        Some(1u64 << 15)
    }
}

/// How well one eclipse victim resisted the coalition: what fraction of
/// its monitor slots (PS entries) the attackers captured by the end of the
/// run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EclipseScore {
    /// The attacked node.
    pub victim: NodeId,
    /// PS entries held by coalition members at the end of the run.
    pub captured: usize,
    /// Total PS entries at the end of the run.
    pub slots: usize,
}

impl EclipseScore {
    /// `1 − captured/slots`: 1.0 is full resistance (no slot captured, or
    /// no slots to capture), 0.0 a completely eclipsed victim.
    #[must_use]
    pub fn resistance(&self) -> f64 {
        if self.slots == 0 {
            1.0
        } else {
            1.0 - self.captured as f64 / self.slots as f64
        }
    }
}

/// Failure-detector quality-of-service scores (Duarte et al.'s diagnosis
/// metrics): detection time, mistake rate, mistake duration — plus the
/// adversary-pack scores (stabilization window outcomes and
/// eclipse-resistance). Computed streaming during the run, so every
/// scenario — including each fuzz-sweep seed — yields a score vector, not
/// just a pass/fail bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FdQos {
    /// Distribution of true-failure detection times (suspicion raised
    /// after the target actually left), measured from the target's death.
    pub detection: DetectionDistribution,
    /// Suspicions raised against targets that were actually alive
    /// (mistakes, in the FD QoS sense).
    pub mistake_episodes: u64,
    /// Total simulated time spent in mistake episodes, ms (episodes still
    /// open when the target dies or the run ends are closed there).
    pub mistake_time_ms: u64,
    /// Mistakes per measurement hour (0 when the window is empty).
    pub mistake_rate_per_hour: f64,
    /// Mean mistake duration, ms (0 before the first mistake).
    pub mistake_duration_ms: f64,
    /// Scored outcome of every declared adversary window.
    pub windows: Vec<WindowOutcome>,
    /// Per-victim eclipse-resistance scores, one per declared victim.
    pub eclipse: Vec<EclipseScore>,
}

/// Everything measured during one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Trace/model name.
    pub model: String,
    /// Configured stable system size `N`.
    pub n: usize,
    /// Coarse-view size in effect.
    pub cvs: usize,
    /// `K` in effect.
    pub k: u32,
    /// Sampling interval used for the rate metrics.
    pub sample_interval: DurMs,
    /// Per-control-node discovery logs.
    pub discovery: BTreeMap<NodeId, DiscoveryLog>,
    /// Per-node series (every node that was ever sampled).
    pub series: BTreeMap<NodeId, NodeSeries>,
    /// Availability estimation outcomes (nodes with ≥1 monitor estimate).
    pub availability: Vec<AvailabilityMeasure>,
    /// System-wide counter totals at the end of the run.
    pub totals: NodeStats,
    /// Final count of alive nodes.
    pub alive_at_end: usize,
    /// What the always-on protocol invariant checker observed
    /// (`invariants.passed()` ⇔ no hard violation all run).
    pub invariants: InvariantSummary,
    /// Failure-detector QoS scores.
    pub qos: FdQos,
}

impl SimReport {
    /// Discovery latencies of the `l`-th monitor across discovered control
    /// nodes, in milliseconds.
    #[must_use]
    pub fn discovery_latencies(&self, l: usize) -> Vec<DurMs> {
        self.discovery
            .values()
            .filter_map(|log| log.latency(l))
            .collect()
    }

    /// Control nodes that never discovered their `l`-th monitor.
    #[must_use]
    pub fn undiscovered(&self, l: usize) -> usize {
        self.discovery
            .values()
            .filter(|log| log.latency(l).is_none())
            .count()
    }

    /// Per-node average hash computations per second.
    #[must_use]
    pub fn comps_per_second(&self) -> Vec<f64> {
        self.per_second(|s| s.hash_checks as f64)
    }

    /// Per-node average outgoing bandwidth in bytes per second (Fig. 19).
    #[must_use]
    pub fn bandwidth_bps(&self) -> Vec<f64> {
        self.per_second(|s| s.bytes_sent as f64)
    }

    /// Per-node average memory entries (Figs. 9, 10).
    #[must_use]
    pub fn memory_entries(&self) -> Vec<f64> {
        self.series
            .values()
            .filter(|s| s.samples > 0)
            .map(|s| s.memory_entries_sum as f64 / f64::from(s.samples))
            .collect()
    }

    /// Per-node useless monitoring pings per minute (Fig. 18).
    #[must_use]
    pub fn useless_pings_per_minute(&self) -> Vec<f64> {
        let minutes = self.sample_interval as f64 / 60_000.0;
        self.series
            .values()
            .filter(|s| s.samples > 0)
            .map(|s| s.useless_pings as f64 / (f64::from(s.samples) * minutes))
            .collect()
    }

    fn per_second(&self, f: impl Fn(&NodeSeries) -> f64) -> Vec<f64> {
        let secs = self.sample_interval as f64 / 1_000.0;
        self.series
            .values()
            .filter(|s| s.samples > 0)
            .map(|s| f(s) / (f64::from(s.samples) * secs))
            .collect()
    }
}

/// Mean of a sample set (0 for empty sets).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation (0 for fewer than two samples).
#[must_use]
pub fn stddev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Empirical CDF of `values` evaluated at each point of `grid`: the
/// fraction of samples `≤ x`. Samples are never NaN, so `total_cmp`
/// differs from `partial_cmp` only by ordering −0.0 before 0.0, which no
/// count can see.
#[must_use]
pub fn cdf(values: &[f64], grid: &[f64]) -> Vec<f64> {
    if values.is_empty() {
        return vec![0.0; grid.len()];
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    grid.iter()
        .map(|&x| {
            let count = sorted.partition_point(|&v| v <= x);
            count as f64 / sorted.len() as f64
        })
        .collect()
}

/// The mean after dropping the single highest value — the paper's Fig. 3
/// aggregation ("by ignoring the one highest measured discovery time
/// datapoint for that setting", footnote 8).
#[must_use]
pub fn mean_drop_max(values: &[f64]) -> f64 {
    if values.len() <= 1 {
        return 0.0;
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let mut dropped = false;
    let kept: Vec<f64> = values
        .iter()
        .copied()
        .filter(|&v| {
            if !dropped && v == max {
                dropped = true;
                false
            } else {
                true
            }
        })
        .collect();
    mean(&kept)
}

#[allow(clippy::disallowed_types, clippy::disallowed_methods)] // tests are exempt from the determinism lints
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_log_latencies() {
        let log = DiscoveryLog {
            born_at: 100,
            monitor_times: vec![150, 400],
        };
        assert_eq!(log.latency(1), Some(50));
        assert_eq!(log.latency(2), Some(300));
        assert_eq!(log.latency(3), None);
    }

    #[test]
    #[should_panic(expected = "counted from 1")]
    fn discovery_latency_rejects_zero() {
        let _ = DiscoveryLog::default().latency(0);
    }

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(stddev(&[5.0]), 0.0);
        assert!((stddev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let values = vec![1.0, 2.0, 2.0, 10.0];
        let grid = vec![0.0, 1.0, 2.0, 5.0, 10.0];
        let c = cdf(&values, &grid);
        assert_eq!(c, vec![0.0, 0.25, 0.75, 0.75, 1.0]);
        assert_eq!(cdf(&[], &grid), vec![0.0; 5]);
    }

    #[test]
    fn mean_drop_max_ignores_single_outlier() {
        // 110-minute outlier among sub-minute values, as in the paper.
        let values = vec![30.0, 45.0, 20.0, 6600.0];
        let m = mean_drop_max(&values);
        assert!((m - (95.0 / 3.0)).abs() < 1e-9);
        assert_eq!(mean_drop_max(&[7.0]), 0.0);
    }

    #[test]
    fn detection_distribution_buckets_and_mean() {
        let mut d = DetectionDistribution::default();
        assert_eq!(d.mean_ms(), None);
        d.record(500); // < 1 s → bucket 0
        d.record(1_500); // 1 s → bucket 1
        d.record(70_000); // 70 s → bucket 7 (< 128 s)
        d.record(40_000_000); // 40 000 s, past the ~9 h cap → last bucket
        assert_eq!(d.count, 4);
        assert_eq!(d.buckets[0], 1);
        assert_eq!(d.buckets[1], 1);
        assert_eq!(d.buckets[7], 1);
        assert_eq!(d.buckets[15], 1);
        assert_eq!(d.max_ms, 40_000_000);
        let mean = d.mean_ms().unwrap();
        assert!((mean - (500.0 + 1_500.0 + 70_000.0 + 40_000_000.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn eclipse_resistance_bounds() {
        let full = EclipseScore {
            victim: NodeId::from_index(1),
            captured: 0,
            slots: 8,
        };
        assert_eq!(full.resistance(), 1.0);
        let eclipsed = EclipseScore {
            victim: NodeId::from_index(1),
            captured: 8,
            slots: 8,
        };
        assert_eq!(eclipsed.resistance(), 0.0);
        let empty = EclipseScore {
            victim: NodeId::from_index(1),
            captured: 0,
            slots: 0,
        };
        assert_eq!(empty.resistance(), 1.0, "no slots: nothing was captured");
    }

    #[test]
    fn qos_serializes_round_trip() {
        let mut qos = FdQos::default();
        qos.detection.record(30_000);
        qos.mistake_episodes = 2;
        qos.mistake_time_ms = 90_000;
        qos.mistake_rate_per_hour = 2.0;
        qos.mistake_duration_ms = 45_000.0;
        qos.eclipse.push(EclipseScore {
            victim: NodeId::from_index(4),
            captured: 1,
            slots: 5,
        });
        let json = serde_json::to_string(&qos).unwrap();
        let back: FdQos = serde_json::from_str(&json).unwrap();
        assert_eq!(qos, back);
    }

    #[test]
    fn report_rate_helpers() {
        let mut series = BTreeMap::new();
        series.insert(
            NodeId::from_index(1),
            NodeSeries {
                samples: 2,
                hash_checks: 240,
                bytes_sent: 1200,
                memory_entries_sum: 80,
                memory_entries_max: 45,
                useless_pings: 4,
                monitor_pings_sent: 20,
            },
        );
        let report = SimReport {
            model: "TEST".into(),
            n: 1,
            cvs: 8,
            k: 4,
            sample_interval: 60_000,
            discovery: BTreeMap::new(),
            series,
            availability: vec![],
            totals: NodeStats::default(),
            alive_at_end: 1,
            invariants: InvariantSummary::default(),
            qos: FdQos::default(),
        };
        // 240 checks over 2 minutes = 2 checks/second.
        assert_eq!(report.comps_per_second(), vec![2.0]);
        // 1200 bytes over 120 s = 10 B/s.
        assert_eq!(report.bandwidth_bps(), vec![10.0]);
        assert_eq!(report.memory_entries(), vec![40.0]);
        assert_eq!(report.useless_pings_per_minute(), vec![2.0]);
    }

    #[test]
    fn percentile_bound_reads_the_histogram_conservatively() {
        let mut dist = DetectionDistribution::default();
        assert_eq!(dist.percentile_upper_bound_secs(99.0), None);
        // 99 detections at ~3 s (bucket 2: [2, 4) s), one at ~100 s
        // (bucket 7: [64, 128) s).
        for _ in 0..99 {
            dist.record(3_000);
        }
        dist.record(100_000);
        // p50 and p90 sit in the 3 s bucket; p99 straddles its top; the
        // outlier only surfaces at p100.
        assert_eq!(dist.percentile_upper_bound_secs(50.0), Some(4));
        assert_eq!(dist.percentile_upper_bound_secs(99.0), Some(4));
        assert_eq!(dist.percentile_upper_bound_secs(100.0), Some(128));
        // The bound never undershoots the true value.
        assert!(dist.percentile_upper_bound_secs(100.0).unwrap() >= 100);
    }

    /// The degenerate shapes a regression gate will actually meet: an
    /// empty distribution has no percentile at all (not a zero), a
    /// single detection answers every percentile from the one bucket it
    /// occupies, and mass in the saturated top bucket falls back to the
    /// `2^15` s sentinel rather than indexing past the histogram.
    #[test]
    fn percentile_bound_edge_cases() {
        // Empty: every percentile is None, including the boundaries.
        let empty = DetectionDistribution::default();
        for pct in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(empty.percentile_upper_bound_secs(pct), None);
        }

        // Single detection: rank clamps to 1, so every percentile —
        // even pct = 0, whose ceil-rank would be 0 — reads the one
        // occupied bucket. 700 ms → bucket 0 → bound 1 s.
        let mut single = DetectionDistribution::default();
        single.record(700);
        for pct in [0.0, 0.1, 50.0, 100.0] {
            assert_eq!(single.percentile_upper_bound_secs(pct), Some(1));
        }

        // Saturated top bucket: times at or beyond 2^15 s all land in
        // bucket 15, and the bound answers the sentinel 2^15 — the
        // scan and the fallback agree, so nothing indexes out of range.
        let mut saturated = DetectionDistribution::default();
        saturated.record((1u64 << 15) * 1_000); // exactly 2^15 s
        saturated.record(u64::MAX / 2_000 * 1_000); // absurdly late
        for pct in [50.0, 100.0] {
            assert_eq!(saturated.percentile_upper_bound_secs(pct), Some(1 << 15));
        }
        assert_eq!(saturated.buckets[15], 2, "both land in the top bucket");

        // Mixed: low mass plus a saturated tail — the percentile walks
        // past the low buckets into the sentinel exactly at the rank
        // where the tail starts (9 of 10 below 2 s → p90 stays low,
        // p91 crosses into the top bucket).
        let mut mixed = DetectionDistribution::default();
        for _ in 0..9 {
            mixed.record(1_500);
        }
        mixed.record((1u64 << 20) * 1_000);
        assert_eq!(mixed.percentile_upper_bound_secs(90.0), Some(2));
        assert_eq!(mixed.percentile_upper_bound_secs(91.0), Some(1 << 15));
    }
}
