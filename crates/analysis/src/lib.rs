//! # avmon-analysis — the closed-form performance analysis of AVMON (§4)
//!
//! Pure-math companion to the protocol: the discovery-time bound, the
//! JOIN-spread and dead-node garbage-collection times, the optimal
//! coarse-view sizes (Optimal-MD / -MDC / -DC), pinging-set sizing
//! (`K = O(log N)` for continuous monitoring, l-out-of-K policies), the
//! collusion-resilience probabilities, and the Table 1 variant comparison.
//!
//! The experiment harness uses these expressions as the "paper-predicted"
//! series to compare simulations against; property tests cross-validate
//! the asymptotic optima against exact integer minimization.
//!
//! ```
//! use avmon_analysis as analysis;
//!
//! // Expected discovery time at the paper's running example
//! // (N = 1 million, Optimal-MDC cvs = 32): about 1000 protocol periods.
//! let d = analysis::expected_discovery_periods(32, 1e6);
//! assert!((d - 1000.0).abs() < 50.0);
//! ```

// Library code returns errors; a panic site needs its own reasoned `#[expect]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::missing_panics_doc
    )
)]

pub mod formulas;
pub mod k_selection;
pub mod optimal;
pub mod table1;

pub use formulas::{
    computations_per_period, dead_node_gc_periods, expected_discovery_periods,
    expected_discovery_periods_approx, expected_duplicate_joins, expected_memory_entries,
    expected_ts_size, join_spread_periods, pair_check_probability_per_period,
    view_bandwidth_per_period,
};
pub use k_selection::{
    k_for_continuous_monitoring, k_for_l_out_of_k, max_set_size_bound, prob_collusion_free,
    prob_fewer_than_l, prob_some_monitor_up, prob_system_collusion_free,
};
pub use optimal::{
    cvs_optimal_dc, cvs_optimal_md, cvs_optimal_mdc, integer_argmin, objective_dc, objective_md,
    objective_mdc,
};
pub use table1::{render_table1, table1, Table1Row};
