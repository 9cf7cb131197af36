//! The paper's synthetic availability models (§5):
//!
//! * **STAT** — a static network with no churn;
//! * **SYNTH** — joins and leaves as Poisson processes at a 20%-per-hour
//!   churn rate, no births/deaths;
//! * **SYNTH-BD** — SYNTH plus births and deaths at 20% per day;
//! * **SYNTH-BD2** — births and deaths at twice that rate (§5.3).

use avmon::rng::Stream;
use avmon::{DurMs, NodeId, TimeMs, HOUR};

use crate::event::{ChurnEvent, ChurnEventKind, Trace};

/// Parameters of the synthetic churn generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthParams {
    /// Stable system size `N`.
    pub n: usize,
    /// Join/leave churn: fraction of `N` leaving per hour (0.2 in §5,
    /// "akin to the Overnet traces").
    pub churn_per_hour: f64,
    /// Birth/death rate: fraction of `N` born (and dying) per day
    /// (0.2 for SYNTH-BD, 0.4 for SYNTH-BD2, 0 for SYNTH).
    pub birth_death_per_day: f64,
    /// Warm-up length before measurement (1 hour in §5.1).
    pub warmup: DurMs,
    /// Measured duration after warm-up.
    pub duration: DurMs,
    /// Size of the explicit control group joining at the end of warm-up,
    /// as a fraction of `N` (10% in §5.1; ignored when births occur —
    /// SYNTH-BD's control group is implicit).
    pub control_fraction: f64,
    /// RNG seed; the trace is a pure function of the parameters.
    pub seed: u64,
}

impl SynthParams {
    /// The paper's SYNTH setting for stable size `n`.
    #[must_use]
    pub fn synth(n: usize) -> Self {
        SynthParams {
            n,
            churn_per_hour: 0.2,
            birth_death_per_day: 0.0,
            warmup: HOUR,
            duration: 4 * HOUR,
            control_fraction: 0.1,
            seed: 1,
        }
    }

    /// The paper's SYNTH-BD setting.
    #[must_use]
    pub fn synth_bd(n: usize) -> Self {
        SynthParams {
            birth_death_per_day: 0.2,
            control_fraction: 0.0,
            ..Self::synth(n)
        }
    }

    /// The high-churn SYNTH-BD2 setting (twice the birth/death rate, §5.3).
    #[must_use]
    pub fn synth_bd2(n: usize) -> Self {
        SynthParams {
            birth_death_per_day: 0.4,
            control_fraction: 0.0,
            ..Self::synth(n)
        }
    }

    /// Overrides the measured duration.
    #[must_use]
    pub fn duration(mut self, duration: DurMs) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The STAT model: `n` nodes born at time zero, no churn; a control group
/// of `control_fraction·n` fresh nodes joins at the end of the one-hour
/// warm-up (§5.1).
#[must_use]
pub fn stat(n: usize, duration: DurMs, control_fraction: f64, seed: u64) -> Trace {
    let params = SynthParams {
        n,
        churn_per_hour: 0.0,
        birth_death_per_day: 0.0,
        warmup: HOUR,
        duration,
        control_fraction,
        seed,
    };
    let mut trace = synthetic(params);
    trace.name = "STAT".into();
    trace
}

/// Generates a synthetic trace per `params` (SYNTH family).
///
/// System-wide Poisson processes: leaves at `churn_per_hour·N` per hour
/// pick a uniformly random alive node; rejoins at the same rate pick a
/// uniformly random down node; births introduce fresh identities and deaths
/// remove uniformly random alive identities for good, both at
/// `birth_death_per_day·N` per day.
///
/// # Panics
///
/// Panics if `params.n` is 0.
#[must_use]
pub fn synthetic(params: SynthParams) -> Trace {
    let SynthParams {
        n,
        churn_per_hour,
        birth_death_per_day,
        warmup,
        duration,
        ..
    } = params;
    assert!(n > 0, "system size must be positive");
    let horizon = warmup + duration;
    let mut rng = Stream::seeded(params.seed ^ 0xa5a5_5a5a);

    let mut events: Vec<ChurnEvent> = Vec::new();
    let mut next_index: u32 = 0;
    let fresh_id = |next_index: &mut u32| {
        let id = NodeId::from_index(*next_index);
        *next_index += 1;
        id
    };

    // Initial population, all born at t = 0.
    let mut alive: Vec<NodeId> = Vec::with_capacity(n * 2);
    let mut down: Vec<NodeId> = Vec::new();
    for _ in 0..n {
        let id = fresh_id(&mut next_index);
        events.push(ChurnEvent {
            at: 0,
            node: id,
            kind: ChurnEventKind::Birth,
        });
        alive.push(id);
    }

    // Per-millisecond system rates.
    let nf = n as f64;
    let rate_leave = churn_per_hour * nf / HOUR as f64;
    let rate_rejoin = rate_leave;
    let rate_birth = birth_death_per_day * nf / (24 * HOUR) as f64;
    let rate_death = rate_birth;
    let total_rate = rate_leave + rate_rejoin + rate_birth + rate_death;

    let mut born_after_warmup: Vec<NodeId> = Vec::new();
    let mut control: Vec<NodeId> = Vec::new();
    let mut control_injected = params.control_fraction <= 0.0;

    if total_rate > 0.0 {
        let mut t: f64 = 1.0; // strictly after the initial births
        loop {
            // Exponential inter-arrival for the merged process.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            t += -u.ln() / total_rate;
            let at = t as TimeMs;
            if at >= horizon {
                break;
            }
            // Inject the control group exactly at warm-up end.
            if !control_injected && at >= warmup {
                control_injected = true;
                inject_control(
                    &mut events,
                    &mut alive,
                    &mut control,
                    &mut next_index,
                    n,
                    params.control_fraction,
                    warmup,
                );
            }
            // Choose which process fired.
            let pick: f64 = rng.gen_range(0.0..total_rate);
            if pick < rate_leave {
                if alive.len() > n / 4 {
                    let i = rng.gen_range(0..alive.len());
                    let node = alive.swap_remove(i);
                    events.push(ChurnEvent {
                        at,
                        node,
                        kind: ChurnEventKind::Leave,
                    });
                    down.push(node);
                }
            } else if pick < rate_leave + rate_rejoin {
                if !down.is_empty() {
                    let i = rng.gen_range(0..down.len());
                    let node = down.swap_remove(i);
                    events.push(ChurnEvent {
                        at,
                        node,
                        kind: ChurnEventKind::Join,
                    });
                    alive.push(node);
                }
            } else if pick < rate_leave + rate_rejoin + rate_birth {
                let node = fresh_id(&mut next_index);
                events.push(ChurnEvent {
                    at,
                    node,
                    kind: ChurnEventKind::Birth,
                });
                alive.push(node);
                if at >= warmup {
                    born_after_warmup.push(node);
                }
            } else if alive.len() > n / 4 {
                let i = rng.gen_range(0..alive.len());
                let node = alive.swap_remove(i);
                events.push(ChurnEvent {
                    at,
                    node,
                    kind: ChurnEventKind::Death,
                });
            }
        }
    }
    if !control_injected {
        inject_control(
            &mut events,
            &mut alive,
            &mut control,
            &mut next_index,
            n,
            params.control_fraction,
            warmup,
        );
    }

    // SYNTH-BD's control group is implicit: nodes born after warm-up.
    if control.is_empty() {
        control = born_after_warmup;
    }

    let bd = birth_death_per_day;
    let name = if churn_per_hour <= 0.0 {
        "STAT".to_string()
    } else if bd == 0.0 {
        "SYNTH".to_string()
    } else if (bd - 0.2).abs() < 1e-9 {
        "SYNTH-BD".to_string()
    } else if (bd - 0.4).abs() < 1e-9 {
        "SYNTH-BD2".to_string()
    } else {
        format!("SYNTH-BD({bd})")
    };
    Trace::new(name, n, horizon, warmup, control, events)
}

fn inject_control(
    events: &mut Vec<ChurnEvent>,
    alive: &mut Vec<NodeId>,
    control: &mut Vec<NodeId>,
    next_index: &mut u32,
    n: usize,
    fraction: f64,
    warmup: TimeMs,
) {
    let count = (fraction * n as f64).round() as usize;
    for _ in 0..count {
        let node = NodeId::from_index(*next_index);
        *next_index += 1;
        events.push(ChurnEvent {
            at: warmup,
            node,
            kind: ChurnEventKind::Birth,
        });
        alive.push(node);
        control.push(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_has_no_churn_events() {
        let t = stat(100, 2 * HOUR, 0.1, 7);
        assert_eq!(t.name, "STAT");
        let s = t.stats();
        assert_eq!(s.leaves + s.joins + s.deaths, 0);
        assert_eq!(s.births, 110);
        assert_eq!(t.control_group.len(), 10);
        // Control group joins exactly at warm-up end.
        for c in &t.control_group {
            let birth = t.events.iter().find(|e| e.node == *c).unwrap();
            assert_eq!(birth.at, HOUR);
        }
    }

    #[test]
    fn synth_matches_target_churn_rate() {
        let t = synthetic(SynthParams::synth(500).duration(6 * HOUR));
        assert_eq!(t.name, "SYNTH");
        let s = t.stats();
        assert_eq!(s.births, 550, "500 initial + 50 control");
        assert_eq!(s.deaths, 0);
        // 20%/hour ± 25% statistical slack.
        assert!(
            (s.churn_per_hour - 0.2).abs() < 0.05,
            "churn {} should be ≈ 0.2/hour",
            s.churn_per_hour
        );
    }

    #[test]
    fn synth_keeps_system_size_stable() {
        let t = synthetic(SynthParams::synth(500).duration(6 * HOUR));
        for hour in 1..7 {
            let alive = t.alive_at(hour * HOUR);
            assert!(
                (350..=650).contains(&alive),
                "alive {alive} at hour {hour} drifted outside the stable band"
            );
        }
    }

    #[test]
    fn synth_bd_has_births_and_deaths() {
        let t = synthetic(SynthParams::synth_bd(500).duration(12 * HOUR));
        assert_eq!(t.name, "SYNTH-BD");
        let s = t.stats();
        // 20%/day on N=500 over 13 hours ≈ 54 births; wide statistical band.
        assert!(
            (30..=90).contains(&s.births.saturating_sub(500)),
            "births {}",
            s.births
        );
        assert!(s.deaths > 10);
        // Implicit control group: born after warm-up.
        assert!(!t.control_group.is_empty());
        for c in &t.control_group {
            let birth = t
                .events
                .iter()
                .find(|e| e.node == *c && e.kind == ChurnEventKind::Birth)
                .unwrap();
            assert!(birth.at >= HOUR);
        }
    }

    #[test]
    fn synth_bd2_doubles_birth_rate() {
        let bd = synthetic(SynthParams::synth_bd(1000).duration(12 * HOUR)).stats();
        let bd2 = synthetic(SynthParams::synth_bd2(1000).duration(12 * HOUR)).stats();
        let (b1, b2) = (bd.births - 1000, bd2.births - 1000);
        let ratio = b2 as f64 / b1.max(1) as f64;
        assert!(
            (1.4..2.8).contains(&ratio),
            "BD2/BD birth ratio {ratio} should be ≈ 2"
        );
    }

    #[test]
    fn traces_are_deterministic_in_seed() {
        let a = synthetic(SynthParams::synth(200).seed(9));
        let b = synthetic(SynthParams::synth(200).seed(9));
        let c = synthetic(SynthParams::synth(200).seed(10));
        assert_eq!(a, b);
        assert_ne!(a.events, c.events);
    }
}
