//! Report assembly: everything [`Simulation`] measured, folded into one
//! [`SimReport`].

use std::collections::BTreeMap;

use avmon::{Behavior, FlatSet, NodeId, Stamp, TargetRecord};

use crate::calendar::Calendar;
use crate::engine::{NodeState, Simulation};
use crate::invariants::{InvariantSummary, RngLedger};
use crate::metrics::{AvailabilityMeasure, DiscoveryLog, EclipseScore, SimReport};
use crate::scenario::Fault;

/// Sorts a target's estimates ascending before any float reduction, so the
/// result is bit-reproducible regardless of which monitor pushed first (the
/// order the pinned report digests were produced from). Estimates are
/// never NaN nor −0.0, so `total_cmp` orders them as `partial_cmp` would.
fn sort_estimates(estimates: &mut [f64]) {
    estimates.sort_by(f64::total_cmp);
}

impl Simulation {
    /// Whether `monitor`'s inflated report for `target` actually takes
    /// effect. [`Behavior::Colluding`] declares friendship one-sidedly, so
    /// wherever the simulator scores reports it re-verifies the pair
    /// symmetrically: an asymmetric "coalition" (A lists B, B does not
    /// list A) lies for nobody. Coalition behaviors that forge regardless
    /// of reciprocity ([`Behavior::FakeMonitor`],
    /// [`Behavior::EclipseCoalition`]) pass through unchanged.
    fn misreport_in_effect(&self, monitor: NodeId, behavior: &Behavior, target: NodeId) -> bool {
        if !behavior.misreports(target) {
            return false;
        }
        if matches!(behavior, Behavior::Colluding { .. }) {
            return self
                .slot(target)
                .and_then(|t| self.behaviors.get(&t))
                .is_some_and(|friend| friend.colludes_with(monitor));
        }
        true
    }

    /// Builds the final [`SimReport`].
    ///
    /// Assembly is `O(N·K)`: one pass over every node's target records
    /// buckets the estimates per target slot, and the per-node series
    /// stream straight out of the engine's accumulators.
    #[must_use]
    pub fn report(&self) -> SimReport {
        let discovery = self
            .nodes
            .iter()
            .filter_map(|n| Some((n.id, n.discovery.as_deref()?.clone())))
            .collect();
        self.assemble_report(discovery, self.checker.summary().clone())
    }

    /// Like [`Simulation::report`], but consumes the simulation and moves
    /// the per-node discovery logs into the report instead of cloning
    /// them — preferred once the run is over.
    ///
    /// The calendar is freed before assembly allocates, so the report does
    /// not stack on the run's peak: nothing after the summary is cloned
    /// reads it.
    #[must_use]
    pub fn into_report(mut self) -> SimReport {
        let discovery = self
            .nodes
            .iter_mut()
            .filter_map(|n| Some((n.id, *n.discovery.take()?)))
            .collect();
        let invariants = self.checker.summary().clone();
        self.calendar = Calendar::new(Vec::new(), 0);
        self.assemble_report(discovery, invariants)
    }

    fn assemble_report(
        &self,
        discovery: BTreeMap<NodeId, DiscoveryLog>,
        mut invariants: InvariantSummary,
    ) -> SimReport {
        let mut totals = self.graveyard_stats;
        let mut node_draws = self.graveyard_rng_draws;
        for sim_node in &self.nodes {
            if let Some(proto) = sim_node.proto() {
                totals.merge(proto.stats());
                node_draws += proto.rng_draws();
            }
        }
        // The dynamic half of the determinism discipline: per-stream draw
        // counts. Engine draws come off `self.rng`, node draws ride inside
        // each `Node`, and corruption draws are per-event local streams —
        // so a seed-equal run that diverges pinpoints *which* stream
        // drifted.
        invariants.rng_ledger = RngLedger {
            engine_draws: self.rng.draws(),
            node_draws,
            corruption_draws: self.corruption_draws,
            app_draws: self.app_draws,
        };
        // One pass over every monitor's target records buckets the
        // estimates by target slot (O(total TS entries) = O(N·K)); targets
        // the trace never named (corruption ghosts) have no bucket.
        let mut estimates_of: Vec<Vec<f64>> = vec![Vec::new(); self.nodes.len()];
        for (row, sim_node) in self.nodes.iter().enumerate() {
            let mid = sim_node.id;
            let behavior = self.behaviors.get(&row);
            let misreports =
                |target| behavior.is_some_and(|b| self.misreport_in_effect(mid, b, target));
            let mut push = |target: NodeId, rec: &TargetRecord| {
                if target == mid || rec.pings_sent == 0 {
                    return;
                }
                let estimate = if misreports(target) {
                    Some(1.0)
                } else {
                    rec.availability_estimate()
                };
                if let (Some(est), Some(slot)) = (estimate, self.slot(target)) {
                    estimates_of[slot].push(est);
                }
            };
            match &sim_node.state {
                NodeState::Up(proto) => {
                    for (target, rec) in proto.target_records() {
                        push(target, rec);
                    }
                }
                NodeState::Down(persistent) => {
                    for (target, rec) in &persistent.targets {
                        push(*target, rec);
                    }
                }
            }
        }
        // Rows come out in slot order, which is ascending `NodeId` order.
        let mut availability = Vec::new();
        // One pass over the trace builds every node's up-intervals;
        // Trace::availability_of walks the whole event list per queried
        // node (O(N · E) over a report — minutes at N = 50k).
        let up_intervals = self.trace.up_intervals();
        for (sim_node, mut estimates) in self.nodes.iter().zip(estimates_of) {
            let id = sim_node.id;
            let Some(born) = sim_node.born_at.map(Stamp::ms) else {
                continue;
            };
            if estimates.is_empty() {
                continue;
            }
            sort_estimates(&mut estimates);
            let from = born.max(self.trace.measure_from);
            if from >= self.trace.horizon {
                continue;
            }
            let to = self.trace.horizon;
            let up: avmon::DurMs = up_intervals
                .get(&id)
                .map(|ups| {
                    ups.iter()
                        .map(|&(s, e)| e.min(to).saturating_sub(s.max(from)))
                        .sum()
                })
                .unwrap_or(0);
            let actual = up as f64 / (to - from) as f64;
            availability.push(AvailabilityMeasure {
                node: id,
                estimated: crate::metrics::mean(&estimates),
                actual,
                control: sim_node.control,
                monitors: estimates.len(),
            });
        }
        // FD QoS assembly: the streaming integer accumulators plus the
        // checker's per-window stabilization verdicts and the end-of-run
        // eclipse capture census.
        let window_ms = self.trace.horizon.saturating_sub(self.trace.measure_from);
        let mut qos = self.qos.score(window_ms, self.checker.stabilization());
        let mut coalition_union: FlatSet<NodeId> = FlatSet::new();
        let mut victims: Vec<NodeId> = Vec::new();
        for event in &self.opts.scenario.events {
            if let Fault::Eclipse {
                coalition,
                victims: v,
                ..
            } = &event.fault
            {
                for &member in coalition {
                    coalition_union.insert(member);
                }
                victims.extend(v.iter().copied());
            }
        }
        victims.sort_unstable();
        victims.dedup();
        for victim in victims {
            let Some(slot) = self.slot(victim) else {
                continue;
            };
            let sim_node = &self.nodes[slot];
            let ps: Vec<NodeId> = match &sim_node.state {
                NodeState::Up(proto) => proto.pinging_set().collect(),
                NodeState::Down(persistent) => persistent.ps.clone(),
            };
            let captured = ps.iter().filter(|m| coalition_union.contains(m)).count();
            qos.eclipse.push(EclipseScore {
                victim,
                captured,
                slots: ps.len(),
            });
        }
        let series = self
            .nodes
            .iter()
            .filter(|n| n.series_touched)
            .map(|n| (n.id, n.series.clone()))
            .collect();
        SimReport {
            model: self.trace.name.clone(),
            n: self.trace.stable_size,
            cvs: self.opts.config.cvs,
            k: self.opts.config.k,
            sample_interval: self.opts.config.protocol_period,
            discovery,
            series,
            availability,
            totals,
            alive_at_end: self.alive.len(),
            invariants,
            qos,
        }
    }
}
