//! Synthetic substitutes for the paper's measured traces.
//!
//! The paper injects two real-world trace sets: PlanetLab all-pairs-ping
//! host availability (`PL`, N = 239, per-second resolution, from [7]) and
//! Overnet p2p churn (`OV`, stable size 550, measured every 20 minutes,
//! ~20%/hour churn, 1319 identities born over two days, from [2]). Neither
//! artifact is redistributable here, so these generators synthesize traces
//! matched to the published aggregate statistics that the experiments
//! depend on — stable size, churn rate, measurement granularity, birth
//! volume, and availability level. See DESIGN.md §3 for the substitution
//! rationale.

use avmon::rng::Stream;
use avmon::{DurMs, NodeId, TimeMs, HOUR, MINUTE, SECOND};

use crate::event::{ChurnEvent, ChurnEventKind, Trace};

/// Stable size of the PlanetLab-like trace (the paper's `N = 239`).
pub const PLANETLAB_N: usize = 239;

/// Stable size of the Overnet-like trace (the paper's `N = 550`).
pub const OVERNET_N: usize = 550;

/// Overnet measurement granularity: availabilities sampled every 20 min.
pub const OVERNET_SLOT: DurMs = 20 * MINUTE;

/// A PlanetLab-like availability trace: 239 hosts, no births or deaths,
/// high mean availability (~85-90%), long heavy-tailed sessions,
/// second-granularity transitions.
///
/// # Example
///
/// ```
/// use avmon_churn::planetlab_like;
///
/// let t = planetlab_like(4 * avmon::HOUR, 1);
/// assert_eq!(t.stable_size, 239);
/// assert!(t.stats().mean_availability > 0.75);
/// ```
#[must_use]
pub fn planetlab_like(duration: DurMs, seed: u64) -> Trace {
    let mut rng = Stream::seeded(seed ^ 0x9e37_79b9);
    let mut events = Vec::new();
    let mut control = Vec::new();

    for i in 0..PLANETLAB_N as u32 {
        let node = NodeId::from_index(i);
        control.push(node);
        // Per-host long-term availability: concentrated near 0.93 with a
        // tail of flakier hosts (PlanetLab reality).
        let a: f64 = (0.97 - rng.gen_range(0.0f64..1.0).powi(3) * 0.45).clamp(0.5, 0.99);
        // Mean session 8-24 hours, heavy-ish tail.
        let mean_up = rng.gen_range(8.0..24.0) * HOUR as f64;
        let mean_down = mean_up * (1.0 - a) / a;

        events.push(ChurnEvent {
            at: 0,
            node,
            kind: ChurnEventKind::Birth,
        });
        let mut t: f64 = 0.0;
        let mut up = true;
        loop {
            let mean = if up { mean_up } else { mean_down };
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            // Second-granularity transitions, at least one second apart.
            let dwell = (-u.ln() * mean).max(SECOND as f64);
            t += dwell;
            let at = (t as TimeMs) / SECOND * SECOND;
            if at >= duration {
                break;
            }
            let kind = if up {
                ChurnEventKind::Leave
            } else {
                ChurnEventKind::Join
            };
            events.push(ChurnEvent { at, node, kind });
            up = !up;
        }
    }

    Trace::new("PL", PLANETLAB_N, duration, 0, control, events)
}

/// An Overnet-like churn trace: stable alive population of 550, ~20%/hour
/// churn, births bringing total identities to ≈1319 over 48 hours, with
/// every transition quantized to the 20-minute measurement grid.
///
/// For durations other than 48 h the birth volume is scaled
/// proportionally, preserving the birth *rate*.
///
/// # Example
///
/// ```
/// use avmon_churn::overnet_like;
///
/// let t = overnet_like(4 * avmon::HOUR, 1);
/// assert_eq!(t.stable_size, 550);
/// // All events on the 20-minute grid.
/// assert!(t.events.iter().all(|e| e.at % (20 * avmon::MINUTE) == 0));
/// ```
#[must_use]
pub fn overnet_like(duration: DurMs, seed: u64) -> Trace {
    let mut rng = Stream::seeded(seed ^ 0x517c_c1b7);
    let n = OVERNET_N;
    let slots = (duration / OVERNET_SLOT) as usize;

    // Rates per slot. Churn: 20%/hour → 1/15 of alive nodes per 20-min slot.
    let p_leave = 0.2 / 3.0;
    // Births: (1319 − 550) identities over 48h ⇒ ≈5.34 per slot; deaths at
    // the same rate keep the alive count stable.
    let births_per_slot = (1319.0 - 550.0) / (48.0 * 3.0);
    let target_rejoins = p_leave * n as f64;

    let mut events = Vec::new();
    let mut next_index: u32 = 0;
    let mut alive: Vec<NodeId> = Vec::new();
    let mut down: Vec<NodeId> = Vec::new();
    let mut control: Vec<NodeId> = Vec::new();

    for _ in 0..n {
        let node = NodeId::from_index(next_index);
        next_index += 1;
        events.push(ChurnEvent {
            at: 0,
            node,
            kind: ChurnEventKind::Birth,
        });
        alive.push(node);
    }

    let mut birth_accum = 0.0f64;
    for slot in 1..=slots {
        let at = slot as TimeMs * OVERNET_SLOT;
        if at >= duration {
            break;
        }
        // Leaves: Bernoulli per alive node.
        let mut i = 0;
        while i < alive.len() {
            if alive.len() > n / 2 && rng.gen_bool(p_leave) {
                let node = alive.swap_remove(i);
                events.push(ChurnEvent {
                    at,
                    node,
                    kind: ChurnEventKind::Leave,
                });
                down.push(node);
            } else {
                i += 1;
            }
        }
        // Rejoins: pull the target number back from the down pool.
        let rejoins = (target_rejoins.round() as usize).min(down.len());
        for _ in 0..rejoins {
            let i = rng.gen_range(0..down.len());
            let node = down.swap_remove(i);
            events.push(ChurnEvent {
                at,
                node,
                kind: ChurnEventKind::Join,
            });
            alive.push(node);
        }
        // Births and matching deaths.
        birth_accum += births_per_slot;
        while birth_accum >= 1.0 {
            birth_accum -= 1.0;
            let node = NodeId::from_index(next_index);
            next_index += 1;
            events.push(ChurnEvent {
                at,
                node,
                kind: ChurnEventKind::Birth,
            });
            alive.push(node);
            control.push(node);
            if alive.len() > n / 2 {
                let i = rng.gen_range(0..alive.len());
                let victim = alive.swap_remove(i);
                events.push(ChurnEvent {
                    at,
                    node: victim,
                    kind: ChurnEventKind::Death,
                });
            }
        }
    }

    Trace::new("OV", n, duration, 0, control, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planetlab_has_high_availability_and_no_deaths() {
        let t = planetlab_like(24 * HOUR, 3);
        let s = t.stats();
        assert_eq!(s.identities, PLANETLAB_N);
        assert_eq!(s.deaths, 0);
        assert_eq!(s.births, PLANETLAB_N);
        assert!(
            s.mean_availability > 0.75 && s.mean_availability < 0.99,
            "mean availability {}",
            s.mean_availability
        );
        assert_eq!(t.control_group.len(), PLANETLAB_N);
    }

    #[test]
    fn planetlab_transitions_are_second_aligned() {
        let t = planetlab_like(6 * HOUR, 4);
        assert!(t.events.iter().all(|e| e.at % SECOND == 0));
    }

    #[test]
    fn overnet_is_slot_quantized_and_stable() {
        let t = overnet_like(48 * HOUR, 5);
        assert!(t.events.iter().all(|e| e.at % OVERNET_SLOT == 0));
        // Alive count hovers near 550 after the initial transient.
        for h in [6u64, 12, 24, 36, 47] {
            let alive = t.alive_at(h * HOUR);
            assert!(
                (380..=650).contains(&alive),
                "alive {alive} at hour {h} out of band"
            );
        }
    }

    #[test]
    fn overnet_birth_volume_matches_paper() {
        let t = overnet_like(48 * HOUR, 6);
        let s = t.stats();
        // Total identities over 48h ≈ 1319 (paper's N_longterm), ±10%.
        assert!(
            (1150..=1450).contains(&s.identities),
            "identities {} should be ≈ 1319",
            s.identities
        );
        assert!(
            s.deaths > 400,
            "deaths {} keep the population stable",
            s.deaths
        );
    }

    #[test]
    fn overnet_churn_rate_is_about_20_percent_per_hour() {
        let t = overnet_like(24 * HOUR, 7);
        let churn = t.stats().churn_per_hour;
        assert!((0.1..0.3).contains(&churn), "churn {churn} should be ≈ 0.2");
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(planetlab_like(2 * HOUR, 9), planetlab_like(2 * HOUR, 9));
        assert_eq!(overnet_like(2 * HOUR, 9), overnet_like(2 * HOUR, 9));
        assert_ne!(overnet_like(2 * HOUR, 9), overnet_like(2 * HOUR, 10));
    }

    #[test]
    fn short_durations_scale() {
        let t = overnet_like(2 * HOUR, 11);
        let s = t.stats();
        // ~16 births/hour.
        assert!(
            (10..=60).contains(&(s.births - OVERNET_N)),
            "births {}",
            s.births
        );
    }
}
