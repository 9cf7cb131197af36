//! Protocol configuration: the consistent system parameters `K` and `N`, the
//! coarse-view size `cvs`, the protocol periods, and the optimizations.

use serde::{Deserialize, Serialize};

use crate::error::Error;
use crate::time::{DurMs, MINUTE, SECOND};

/// How a node sizes its coarse view (§4.2 of the paper).
///
/// The coarse-view size trades memory/bandwidth (`M`) and computation (`C`)
/// against discovery time (`D ≈ N/cvs²` periods). The paper derives three
/// optimal variants and runs its experiments at `4·N^{1/4}` ("a factor of 4
/// above cvs_{Optimal-MDC} for performance reasons", §5 footnote 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CvsPolicy {
    /// `cvs = ⌈(2N)^{1/3}⌉` — minimizes memory/bandwidth + discovery time.
    OptimalMd,
    /// `cvs = ⌈N^{1/4}⌉` — minimizes memory/bandwidth + discovery +
    /// computation. (Optimal-DC coincides with this value.)
    OptimalMdc,
    /// `cvs = ⌈log2 N⌉` — the logarithmic variant from Table 1.
    LogN,
    /// `cvs = ⌈factor · N^{1/4}⌉` — the paper's experimental default with
    /// `factor = 4`.
    ScaledMdc {
        /// Multiplier over the Optimal-MDC value.
        factor: f64,
    },
    /// An explicit size.
    Fixed(usize),
}

impl CvsPolicy {
    /// The paper's experimental default, `4 · N^{1/4}`.
    pub const PAPER_DEFAULT: CvsPolicy = CvsPolicy::ScaledMdc { factor: 4.0 };

    /// Computes the coarse-view size for expected system size `n`.
    ///
    /// The result is always at least 2 (a coarse view of fewer than two
    /// entries cannot both ping and fetch).
    #[must_use]
    pub fn cvs(self, n: usize) -> usize {
        let nf = n as f64;
        let raw = match self {
            CvsPolicy::OptimalMd => (2.0 * nf).cbrt().ceil(),
            CvsPolicy::OptimalMdc => nf.powf(0.25).ceil(),
            CvsPolicy::LogN => nf.log2().ceil(),
            CvsPolicy::ScaledMdc { factor } => (factor * nf.powf(0.25)).ceil(),
            CvsPolicy::Fixed(v) => v as f64,
        };
        (raw as usize).max(2)
    }
}

/// Parameters of the *forgetful pinging* optimization (§3.3).
///
/// A target unresponsive for `t > tau` is pinged with probability
/// `c·ts/(ts+t)` per monitoring period, where `ts` is the last observed
/// session length — keeping an expected `c` pings between two successive
/// joins of the target while suppressing bandwidth to dead nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForgetfulConfig {
    /// Unresponsiveness threshold `τ` before suppression begins.
    pub tau: DurMs,
    /// Expected number of pings `c` between two successive joins.
    pub c: f64,
}

impl Default for ForgetfulConfig {
    /// The paper's experimental defaults: `τ = 2 min`, `c = 1`.
    fn default() -> Self {
        ForgetfulConfig {
            tau: 2 * MINUTE,
            c: 1.0,
        }
    }
}

/// How monitors are discovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DiscoveryMode {
    /// AVMON's coarse-view gossip discovery (§3.2).
    #[default]
    CoarseView,
    /// The Broadcast baseline of [11] (Table 1): every joining node floods
    /// its presence to all nodes. Fast but O(N) bandwidth per join.
    Broadcast,
}

/// Complete protocol configuration.
///
/// `K` and `N` are *consistent parameters*: every node of a deployment must
/// use identical values, otherwise the monitor relationship would not be
/// consistent or verifiable. The remaining fields are local tuning knobs.
///
/// # Example
///
/// ```
/// use avmon::Config;
///
/// let config = Config::builder(2000).build()?;
/// assert_eq!(config.k, 11);          // K = ⌈log2 N⌉
/// assert_eq!(config.cvs, 27);        // 4·N^{1/4}
/// assert_eq!(config.protocol_period, 60_000);
/// # Ok::<(), avmon::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Expected stable system size `N` (a consistent parameter).
    pub system_size: usize,
    /// Expected pinging-set size `K` (a consistent parameter).
    pub k: u32,
    /// Maximum coarse-view entries `cvs`.
    pub cvs: usize,
    /// Coarse-membership protocol period `T` (Fig. 2). Paper default: 1 min.
    pub protocol_period: DurMs,
    /// Monitoring-ping period `T_A` (§3.3). Paper default: 1 min.
    pub monitoring_period: DurMs,
    /// How long to wait for a ping / fetch response before declaring failure.
    pub ping_timeout: DurMs,
    /// Hop-count cap on JOIN forwarding, `8·⌈log2 N⌉ + 16` (see DESIGN.md
    /// clarification 1).
    pub join_hop_limit: u32,
    /// Forgetful-pinging parameters; `None` disables the optimization.
    pub forgetful: Option<ForgetfulConfig>,
    /// Whether the PR2 re-advertisement optimization (§5.4) is enabled.
    pub pr2: bool,
    /// Discovery protocol variant.
    pub discovery: DiscoveryMode,
}

impl Config {
    /// Starts building a configuration for expected system size `n`,
    /// with all the paper's experimental defaults pre-loaded.
    #[must_use]
    pub fn builder(n: usize) -> ConfigBuilder {
        ConfigBuilder::new(n)
    }

    /// The consistency-condition threshold ratio `K/N` as `(k, n)`.
    #[must_use]
    pub fn threshold_ratio(&self) -> (f64, f64) {
        (f64::from(self.k), self.system_size as f64)
    }

    fn validate(self) -> Result<Self, Error> {
        if self.system_size == 0 {
            return Err(Error::InvalidConfig(
                "system size N must be positive".into(),
            ));
        }
        if self.k == 0 {
            return Err(Error::InvalidConfig("K must be positive".into()));
        }
        if self.cvs < 2 {
            return Err(Error::InvalidConfig("cvs must be at least 2".into()));
        }
        if self.protocol_period == 0 || self.monitoring_period == 0 {
            return Err(Error::InvalidConfig("periods must be positive".into()));
        }
        if self.ping_timeout == 0 || self.ping_timeout >= self.protocol_period {
            return Err(Error::InvalidConfig(
                "ping timeout must be positive and shorter than the protocol period".into(),
            ));
        }
        if let Some(f) = &self.forgetful {
            if f.c <= 0.0 {
                return Err(Error::InvalidConfig("forgetful c must be positive".into()));
            }
        }
        Ok(self)
    }
}

/// Builder for [`Config`] (see the paper's §5 default settings).
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    system_size: usize,
    k: Option<u32>,
    cvs_policy: CvsPolicy,
    protocol_period: DurMs,
    monitoring_period: DurMs,
    ping_timeout: DurMs,
    forgetful: Option<ForgetfulConfig>,
    pr2: bool,
    discovery: DiscoveryMode,
}

impl ConfigBuilder {
    fn new(n: usize) -> Self {
        ConfigBuilder {
            system_size: n,
            k: None,
            cvs_policy: CvsPolicy::PAPER_DEFAULT,
            protocol_period: MINUTE,
            monitoring_period: MINUTE,
            ping_timeout: 5 * SECOND,
            forgetful: Some(ForgetfulConfig::default()),
            pr2: false,
            discovery: DiscoveryMode::CoarseView,
        }
    }

    /// Overrides `K` (default `⌈log2 N⌉`, the paper's setting).
    #[must_use]
    pub fn k(mut self, k: u32) -> Self {
        self.k = Some(k);
        self
    }

    /// Selects the coarse-view sizing policy (default `4·N^{1/4}`).
    #[must_use]
    pub fn cvs_policy(mut self, policy: CvsPolicy) -> Self {
        self.cvs_policy = policy;
        self
    }

    /// Sets an explicit coarse-view size.
    #[must_use]
    pub fn cvs(mut self, cvs: usize) -> Self {
        self.cvs_policy = CvsPolicy::Fixed(cvs);
        self
    }

    /// Sets the coarse-membership protocol period `T`.
    #[must_use]
    pub fn protocol_period(mut self, period: DurMs) -> Self {
        self.protocol_period = period;
        self
    }

    /// Sets the monitoring period `T_A`.
    #[must_use]
    pub fn monitoring_period(mut self, period: DurMs) -> Self {
        self.monitoring_period = period;
        self
    }

    /// Sets the ping/fetch response timeout.
    #[must_use]
    pub fn ping_timeout(mut self, timeout: DurMs) -> Self {
        self.ping_timeout = timeout;
        self
    }

    /// Configures forgetful pinging; `None` disables it.
    #[must_use]
    pub fn forgetful(mut self, forgetful: Option<ForgetfulConfig>) -> Self {
        self.forgetful = forgetful;
        self
    }

    /// Enables or disables the PR2 optimization.
    #[must_use]
    pub fn pr2(mut self, enabled: bool) -> Self {
        self.pr2 = enabled;
        self
    }

    /// Selects the discovery mode.
    #[must_use]
    pub fn discovery(mut self, mode: DiscoveryMode) -> Self {
        self.discovery = mode;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when a parameter is out of range
    /// (zero sizes or periods, timeout not shorter than the period, …).
    pub fn build(self) -> Result<Config, Error> {
        let n = self.system_size;
        let k = self
            .k
            .unwrap_or_else(|| ((n.max(2) as f64).log2().ceil() as u32).max(1));
        let hop_limit = 8 * ((n.max(2) as f64).log2().ceil() as u32) + 16;
        Config {
            system_size: n,
            k,
            cvs: self.cvs_policy.cvs(n),
            protocol_period: self.protocol_period,
            monitoring_period: self.monitoring_period,
            ping_timeout: self.ping_timeout,
            join_hop_limit: hop_limit,
            forgetful: self.forgetful,
            pr2: self.pr2,
            discovery: self.discovery,
        }
        .validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section5() {
        // N=2000: K = log2(2000) = 11, cvs = 4·2000^(1/4) = 4·6.68… = 27.
        let c = Config::builder(2000).build().unwrap();
        assert_eq!(c.k, 11);
        assert_eq!(c.cvs, 27);
        assert_eq!(c.protocol_period, MINUTE);
        assert_eq!(c.monitoring_period, MINUTE);
        assert_eq!(
            c.forgetful,
            Some(ForgetfulConfig {
                tau: 2 * MINUTE,
                c: 1.0
            })
        );
        assert!(!c.pr2);
        assert_eq!(c.join_hop_limit, 8 * 11 + 16);

        // PL setting: N=239 → K=8, cvs=16.
        let pl = Config::builder(239).build().unwrap();
        assert_eq!(pl.k, 8);
        assert_eq!(pl.cvs, 16);

        // OV setting: N=550 → K=10? paper says K=9 (log2 550 = 9.1 → 10 by
        // ceil). The paper rounds rather than ceils here; allow override.
        let ov = Config::builder(550).k(9).cvs(19).build().unwrap();
        assert_eq!(ov.k, 9);
        assert_eq!(ov.cvs, 19);
    }

    #[test]
    fn cvs_policies_match_table1() {
        // N = 1 million: MDC = 4th root = 32; MD = cbrt(2e6) ≈ 126.
        assert_eq!(CvsPolicy::OptimalMdc.cvs(1_000_000), 32);
        assert_eq!(CvsPolicy::OptimalMd.cvs(1_000_000), 126);
        assert_eq!(CvsPolicy::LogN.cvs(1_000_000), 20);
        assert_eq!(CvsPolicy::Fixed(5).cvs(1_000_000), 5);
        assert_eq!(CvsPolicy::PAPER_DEFAULT.cvs(2000), 27);
    }

    #[test]
    fn cvs_has_floor_of_two() {
        assert_eq!(CvsPolicy::Fixed(0).cvs(10), 2);
        assert_eq!(CvsPolicy::LogN.cvs(2), 2);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Config::builder(0).build().is_err());
        assert!(Config::builder(100).k(0).build().is_err());
        assert!(Config::builder(100).protocol_period(0).build().is_err());
        assert!(Config::builder(100).ping_timeout(MINUTE).build().is_err());
        assert!(Config::builder(100)
            .forgetful(Some(ForgetfulConfig {
                tau: MINUTE,
                c: 0.0
            }))
            .build()
            .is_err());
    }

    #[test]
    fn builder_overrides_apply() {
        let c = Config::builder(500)
            .k(7)
            .cvs(40)
            .protocol_period(30_000)
            .monitoring_period(15_000)
            .ping_timeout(2_000)
            .forgetful(None)
            .pr2(true)
            .discovery(DiscoveryMode::Broadcast)
            .build()
            .unwrap();
        assert_eq!(c.k, 7);
        assert_eq!(c.cvs, 40);
        assert_eq!(c.protocol_period, 30_000);
        assert_eq!(c.monitoring_period, 15_000);
        assert_eq!(c.ping_timeout, 2_000);
        assert_eq!(c.forgetful, None);
        assert!(c.pr2);
        assert_eq!(c.discovery, DiscoveryMode::Broadcast);
    }

    #[test]
    fn threshold_ratio_is_k_over_n() {
        let c = Config::builder(1000).build().unwrap();
        let (k, n) = c.threshold_ratio();
        assert_eq!(k, f64::from(c.k));
        assert_eq!(n, 1000.0);
    }
}
