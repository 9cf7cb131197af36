//! Network models: latency, loss, duplication, reordering and partitions.
//!
//! The paper assumes "communication between pairs of nodes is reliable and
//! timely if both nodes are currently alive" (§3). The default
//! [`NetworkModel`] faithfully reproduces exactly that: every message whose
//! destination is alive is delivered once, after a configurable propagation
//! delay; messages to departed nodes vanish (their senders time out, exactly
//! as in a real deployment).
//!
//! Everything beyond the default is a **documented deviation** from §3,
//! there to exercise AVMON's guarantees in the regimes the paper's reliable
//! network never reaches: per-message loss probability, duplication,
//! bounded reordering jitter, and scheduled (possibly asymmetric) partitions
//! with heal times, all driven from a [`crate::scenario::Scenario`]. Fault
//! routing draws from the same master-seeded RNG as the rest of the engine,
//! so every faulty run stays byte-identically reproducible. With all fault
//! knobs at zero, the RNG stream is *identical* to the fault-free engine:
//! exactly one latency sample is drawn per unicast message.

use avmon::{DurMs, FlatSet, NodeId, TimeMs};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::scenario::{Fault, ScenarioEvent};

/// Propagation-delay distribution applied to each message independently.
///
/// Construct uniform models through [`LatencyModel::uniform`] (or call
/// [`LatencyModel::validate`] on literals): an inverted range is a
/// configuration error reported at construction time, never a mid-run
/// panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(DurMs),
    /// Uniformly distributed in `[min, max]` (inclusive).
    Uniform {
        /// Minimum delay.
        min: DurMs,
        /// Maximum delay.
        max: DurMs,
    },
}

impl LatencyModel {
    /// A validated uniform model.
    ///
    /// # Errors
    ///
    /// Returns [`avmon::Error::InvalidConfig`] if `min > max`.
    pub fn uniform(min: DurMs, max: DurMs) -> Result<Self, avmon::Error> {
        let model = LatencyModel::Uniform { min, max };
        model.validate()?;
        Ok(model)
    }

    /// Checks the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`avmon::Error::InvalidConfig`] if a uniform model has
    /// `min > max`.
    pub fn validate(&self) -> Result<(), avmon::Error> {
        match *self {
            LatencyModel::Constant(_) => Ok(()),
            LatencyModel::Uniform { min, max } => {
                if min > max {
                    Err(avmon::Error::InvalidConfig(format!(
                        "uniform latency needs min ≤ max, got [{min}, {max}]"
                    )))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Samples one delay. Never panics: an (unvalidated) inverted uniform
    /// range degrades to its lower bound — but every path into the
    /// simulator validates at construction, so this is unreachable there.
    /// Valid models (including `min == max`) always draw exactly one
    /// value, keeping RNG streams seed-stable.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> DurMs {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => {
                if min > max {
                    min
                } else {
                    rng.gen_range(min..=max)
                }
            }
        }
    }
}

impl Default for LatencyModel {
    /// Wide-area-ish delays: 20–100 ms, far below the 1-minute protocol
    /// period so results match the paper's negligible-latency setting.
    fn default() -> Self {
        LatencyModel::Uniform { min: 20, max: 100 }
    }
}

// Hand-written so that *deserialized* models are validated too: a persisted
// options file with an inverted range is rejected at load time with a
// config error, mirroring `LatencyModel::uniform`. The accepted shape is
// exactly what the derive's `Serialize` produces.
impl Deserialize for LatencyModel {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let serde::Value::Map(entries) = value else {
            return Err(serde::DeError::expected("latency model variant", value));
        };
        if entries.len() != 1 {
            return Err(serde::DeError::expected("single-variant map", value));
        }
        let (key, inner) = &entries[0];
        let serde::Value::Str(tag) = key else {
            return Err(serde::DeError::expected("variant tag", key));
        };
        let model = match tag.as_str() {
            "Constant" => {
                let serde::Value::Seq(items) = inner else {
                    return Err(serde::DeError::expected("Constant payload", inner));
                };
                let [delay] = items.as_slice() else {
                    return Err(serde::DeError::expected("one Constant field", inner));
                };
                LatencyModel::Constant(Deserialize::from_value(delay)?)
            }
            "Uniform" => {
                let field = |name: &str| {
                    inner
                        .get(name)
                        .ok_or_else(|| serde::DeError(format!("missing Uniform field `{name}`")))
                };
                LatencyModel::Uniform {
                    min: Deserialize::from_value(field("min")?)?,
                    max: Deserialize::from_value(field("max")?)?,
                }
            }
            other => {
                return Err(serde::DeError(format!(
                    "unknown latency model variant `{other}`"
                )))
            }
        };
        model
            .validate()
            .map_err(|e| serde::DeError(e.to_string()))?;
        Ok(model)
    }
}

/// Base per-message fault probabilities applied to every link for the whole
/// run (scenario faults layer time-windowed behavior on top).
///
/// The all-zero default reproduces the paper's reliable network exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct LinkFaults {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub loss: f64,
    /// Probability in `[0, 1]` that a delivered message arrives twice
    /// (the duplicate takes an independently sampled delay).
    pub duplicate: f64,
    /// Extra per-message delay drawn uniformly from `[0, jitter]` ms.
    /// Non-zero jitter yields bounded reordering: two messages on the same
    /// link may overtake each other by at most `jitter` ms.
    pub jitter: DurMs,
}

impl LinkFaults {
    /// Checks that the probabilities are actual probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`avmon::Error::InvalidConfig`] if `loss` or `duplicate`
    /// fall outside `[0, 1]` (or are NaN).
    pub fn validate(&self) -> Result<(), avmon::Error> {
        for (name, p) in [("loss", self.loss), ("duplicate", self.duplicate)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(avmon::Error::InvalidConfig(format!(
                    "link fault `{name}` must be a probability in [0, 1], got {p}"
                )));
            }
        }
        Ok(())
    }
}

/// The complete network model: delay distribution plus fault behavior.
///
/// [`NetworkModel::default`] is the paper's §3 reliable, timely network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct NetworkModel {
    /// Message propagation delays.
    pub latency: LatencyModel,
    /// Always-on per-link fault probabilities.
    pub faults: LinkFaults,
}

impl NetworkModel {
    /// A reliable network with the given delay distribution.
    #[must_use]
    pub fn reliable(latency: LatencyModel) -> Self {
        NetworkModel {
            latency,
            faults: LinkFaults::default(),
        }
    }

    /// Checks every parameter.
    ///
    /// # Errors
    ///
    /// Returns [`avmon::Error::InvalidConfig`] for inverted latency ranges
    /// or out-of-range probabilities.
    pub fn validate(&self) -> Result<(), avmon::Error> {
        self.latency.validate()?;
        self.faults.validate()
    }
}

/// One time-windowed loss rule between two node groups, compiled from a
/// scenario fault. `loss = 1.0` is a partition; `loss < 1.0` a degraded
/// link set. Asymmetric rules block only the `a → b` direction.
#[derive(Debug, Clone)]
struct LinkWindow {
    from: TimeMs,
    until: TimeMs,
    a: FlatSet<NodeId>,
    b: FlatSet<NodeId>,
    symmetric: bool,
    loss: f64,
}

impl LinkWindow {
    fn applies(&self, now: TimeMs, src: NodeId, dst: NodeId) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        (self.a.contains(&src) && self.b.contains(&dst))
            || (self.symmetric && self.b.contains(&src) && self.a.contains(&dst))
    }
}

/// A global extra-loss window compiled from [`Fault::LossBurst`].
#[derive(Debug, Clone, Copy)]
struct BurstWindow {
    from: TimeMs,
    until: TimeMs,
    loss: f64,
}

/// The routing verdict for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// The message is lost (dropped link, partition, or sampled loss).
    Drop,
    /// Deliver after `delay`; `duplicate_delay` carries the independently
    /// delayed second copy, if the message was duplicated.
    Deliver {
        delay: DurMs,
        duplicate_delay: Option<DurMs>,
    },
}

/// The engine-side network: a [`NetworkModel`] plus the fault windows
/// compiled from a scenario. Stateless apart from the model — all windows
/// are precomputed, so routing is a pure function of `(now, src, dst, rng)`.
#[derive(Debug, Clone)]
pub(crate) struct NetworkState {
    model: NetworkModel,
    links: Vec<LinkWindow>,
    bursts: Vec<BurstWindow>,
    /// Overall `[from, until)` span covering every link window — lets the
    /// per-message hot path skip the window scan entirely outside fault
    /// intervals (large runs route hundreds of millions of messages).
    links_span: (TimeMs, TimeMs),
    /// Same for the burst windows.
    bursts_span: (TimeMs, TimeMs),
}

/// The overall `[from, until)` hull of a set of windows (empty ⇒ `(0, 0)`,
/// which `now >= until` rejects for every `now`).
fn span(windows: impl Iterator<Item = (TimeMs, TimeMs)>) -> (TimeMs, TimeMs) {
    windows.fold((TimeMs::MAX, 0), |(lo, hi), (from, until)| {
        (lo.min(from), hi.max(until))
    })
}

impl NetworkState {
    /// Compiles `model` and the network-affecting faults of `events`.
    pub(crate) fn compile(model: NetworkModel, events: &[ScenarioEvent]) -> Self {
        let mut links = Vec::new();
        let mut bursts = Vec::new();
        for event in events {
            match &event.fault {
                Fault::Partition {
                    a,
                    b,
                    symmetric,
                    duration,
                } => links.push(LinkWindow {
                    from: event.at,
                    until: event.at + duration,
                    a: a.iter().copied().collect(),
                    b: b.iter().copied().collect(),
                    symmetric: *symmetric,
                    loss: 1.0,
                }),
                Fault::Degrade {
                    a,
                    b,
                    symmetric,
                    loss,
                    duration,
                } => links.push(LinkWindow {
                    from: event.at,
                    until: event.at + duration,
                    a: a.iter().copied().collect(),
                    b: b.iter().copied().collect(),
                    symmetric: *symmetric,
                    loss: *loss,
                }),
                Fault::LossBurst { loss, duration } => bursts.push(BurstWindow {
                    from: event.at,
                    until: event.at + duration,
                    loss: *loss,
                }),
                Fault::Freeze { .. } | Fault::Corrupt { .. } | Fault::Eclipse { .. } => {} // handled by the engine
            }
        }
        let links_span = span(links.iter().map(|w| (w.from, w.until)));
        let bursts_span = span(bursts.iter().map(|w| (w.from, w.until)));
        NetworkState {
            model,
            links,
            bursts,
            links_span,
            bursts_span,
        }
    }

    /// Routes one message sent at `now` from `src` to `dst`.
    ///
    /// RNG discipline (this is what keeps fault-free runs stream-identical
    /// to the pre-fault engine, and faulty runs reproducible): exactly one
    /// latency sample is always drawn first; loss, jitter and duplication
    /// draws happen only when their probabilities are non-zero.
    pub(crate) fn route<R: Rng>(
        &self,
        rng: &mut R,
        now: TimeMs,
        src: NodeId,
        dst: NodeId,
    ) -> Route {
        let base_delay = self.model.latency.sample(rng);

        // Hard link rules first: a full partition drops without consuming
        // further randomness. The span check keeps the fault-free (or
        // already-healed) hot path free of the per-window scan.
        let mut link_loss: f64 = 0.0;
        if now >= self.links_span.0 && now < self.links_span.1 {
            for window in &self.links {
                if window.applies(now, src, dst) {
                    link_loss = link_loss.max(window.loss);
                }
            }
        }
        if link_loss >= 1.0 {
            return Route::Drop;
        }

        // Effective probabilistic loss: base, plus the strongest active
        // burst, plus any partial link degradation.
        let mut loss = self.model.faults.loss.max(link_loss);
        if now >= self.bursts_span.0 && now < self.bursts_span.1 {
            for burst in &self.bursts {
                if now >= burst.from && now < burst.until {
                    loss = loss.max(burst.loss);
                }
            }
        }
        if loss > 0.0 && rng.gen::<f64>() < loss {
            return Route::Drop;
        }

        let jitter = self.model.faults.jitter;
        let delay = if jitter > 0 {
            base_delay + rng.gen_range(0..=jitter)
        } else {
            base_delay
        };

        let duplicate_delay = if self.model.faults.duplicate > 0.0
            && rng.gen::<f64>() < self.model.faults.duplicate
        {
            let dup = self.model.latency.sample(rng);
            Some(if jitter > 0 {
                dup + rng.gen_range(0..=jitter)
            } else {
                dup
            })
        } else {
            None
        };

        Route::Deliver {
            delay,
            duplicate_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use avmon::MINUTE;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn id(i: u32) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn constant_is_constant() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = LatencyModel::Constant(42);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), 42);
        }
    }

    #[test]
    fn uniform_stays_in_range_and_varies() {
        let mut rng = SmallRng::seed_from_u64(1);
        let m = LatencyModel::uniform(10, 50).unwrap();
        let samples: Vec<DurMs> = (0..200).map(|_| m.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&d| (10..=50).contains(&d)));
        assert!(samples.iter().any(|&d| d != samples[0]), "should vary");
    }

    #[test]
    fn uniform_rejects_inverted_range_at_construction() {
        let err = LatencyModel::uniform(9, 3).unwrap_err();
        assert!(matches!(err, avmon::Error::InvalidConfig(_)), "{err}");
        // Literal construction is caught by validate(), and sampling an
        // invalid literal never panics.
        let literal = LatencyModel::Uniform { min: 9, max: 3 };
        assert!(literal.validate().is_err());
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(literal.sample(&mut rng), 9);
    }

    #[test]
    fn deserialization_validates_uniform_range() {
        let good = serde_json::to_string(&LatencyModel::Uniform { min: 5, max: 9 }).unwrap();
        let round: LatencyModel = serde_json::from_str(&good).unwrap();
        assert_eq!(round, LatencyModel::Uniform { min: 5, max: 9 });

        // Same wire shape, inverted range: rejected at load time.
        let bad = good.replace('5', "50");
        assert!(
            serde_json::from_str::<LatencyModel>(&bad).is_err(),
            "inverted range must fail deserialization: {bad}"
        );

        let constant = serde_json::to_string(&LatencyModel::Constant(7)).unwrap();
        let round: LatencyModel = serde_json::from_str(&constant).unwrap();
        assert_eq!(round, LatencyModel::Constant(7));
    }

    #[test]
    fn link_fault_probabilities_validated() {
        assert!(LinkFaults::default().validate().is_ok());
        let bad = LinkFaults {
            loss: 1.5,
            ..LinkFaults::default()
        };
        assert!(bad.validate().is_err());
        let bad = LinkFaults {
            duplicate: -0.1,
            ..LinkFaults::default()
        };
        assert!(bad.validate().is_err());
        let bad = LinkFaults {
            loss: f64::NAN,
            ..LinkFaults::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn reliable_default_always_delivers_once() {
        let state = NetworkState::compile(NetworkModel::default(), &[]);
        let mut rng = SmallRng::seed_from_u64(3);
        for t in 0..500u64 {
            match state.route(&mut rng, t * 100, id(1), id(2)) {
                Route::Deliver {
                    delay,
                    duplicate_delay: None,
                } => assert!((20..=100).contains(&delay)),
                other => panic!("reliable network produced {other:?}"),
            }
        }
    }

    #[test]
    fn full_loss_drops_everything_and_partial_loss_some() {
        let mut model = NetworkModel::default();
        model.faults.loss = 1.0;
        let state = NetworkState::compile(model.clone(), &[]);
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(state.route(&mut rng, 0, id(1), id(2)), Route::Drop);

        model.faults.loss = 0.5;
        let state = NetworkState::compile(model, &[]);
        let (mut dropped, mut delivered) = (0u32, 0u32);
        for t in 0..1000u64 {
            match state.route(&mut rng, t, id(1), id(2)) {
                Route::Drop => dropped += 1,
                Route::Deliver { .. } => delivered += 1,
            }
        }
        assert!(dropped > 300 && delivered > 300, "{dropped}/{delivered}");
    }

    #[test]
    fn duplication_produces_second_copies() {
        let mut model = NetworkModel::default();
        model.faults.duplicate = 1.0;
        let state = NetworkState::compile(model, &[]);
        let mut rng = SmallRng::seed_from_u64(5);
        match state.route(&mut rng, 0, id(1), id(2)) {
            Route::Deliver {
                duplicate_delay: Some(d),
                ..
            } => assert!((20..=100).contains(&d)),
            other => panic!("expected duplicate, got {other:?}"),
        }
    }

    #[test]
    fn jitter_extends_delay_bound() {
        let mut model = NetworkModel::reliable(LatencyModel::Constant(10));
        model.faults.jitter = 50;
        let state = NetworkState::compile(model, &[]);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut seen_above_base = false;
        for t in 0..200u64 {
            match state.route(&mut rng, t, id(1), id(2)) {
                Route::Deliver { delay, .. } => {
                    assert!((10..=60).contains(&delay));
                    seen_above_base |= delay > 10;
                }
                Route::Drop => panic!("no loss configured"),
            }
        }
        assert!(seen_above_base, "jitter never fired");
    }

    #[test]
    fn partition_windows_block_by_direction_and_heal() {
        let scenario = Scenario::builder("test")
            .one_way_partition(MINUTE, MINUTE, vec![id(1)], vec![id(2)])
            .build()
            .unwrap();
        let state = NetworkState::compile(NetworkModel::default(), &scenario.events);
        let mut rng = SmallRng::seed_from_u64(7);
        // Before the window: open.
        assert!(matches!(
            state.route(&mut rng, 0, id(1), id(2)),
            Route::Deliver { .. }
        ));
        // During: a → b blocked, b → a (asymmetric) open.
        assert_eq!(state.route(&mut rng, MINUTE, id(1), id(2)), Route::Drop);
        assert!(matches!(
            state.route(&mut rng, MINUTE, id(2), id(1)),
            Route::Deliver { .. }
        ));
        // Unrelated nodes unaffected.
        assert!(matches!(
            state.route(&mut rng, MINUTE, id(3), id(2)),
            Route::Deliver { .. }
        ));
        // After heal: open again.
        assert!(matches!(
            state.route(&mut rng, 2 * MINUTE, id(1), id(2)),
            Route::Deliver { .. }
        ));
    }

    #[test]
    fn symmetric_partition_blocks_both_directions() {
        let scenario = Scenario::builder("test")
            .partition(0, MINUTE, vec![id(1)], vec![id(2)])
            .build()
            .unwrap();
        let state = NetworkState::compile(NetworkModel::default(), &scenario.events);
        let mut rng = SmallRng::seed_from_u64(8);
        assert_eq!(state.route(&mut rng, 10, id(1), id(2)), Route::Drop);
        assert_eq!(state.route(&mut rng, 10, id(2), id(1)), Route::Drop);
    }

    #[test]
    fn fault_free_rng_stream_matches_bare_latency_sampling() {
        // The engine's determinism across the PR boundary rests on this:
        // with no faults, route() consumes exactly the draws the old
        // `latency.sample(rng)` call did.
        let state = NetworkState::compile(NetworkModel::default(), &[]);
        let mut a = SmallRng::seed_from_u64(9);
        let mut b = SmallRng::seed_from_u64(9);
        for t in 0..100u64 {
            let Route::Deliver { delay, .. } = state.route(&mut a, t, id(1), id(2)) else {
                panic!("reliable network dropped");
            };
            assert_eq!(delay, LatencyModel::default().sample(&mut b));
        }
    }
}
