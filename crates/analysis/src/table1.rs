//! Table 1 of the paper: asymptotic comparison of the discovery variants.
//!
//! | Approach | M (memory/bw per round) | D (expected discovery) | C (comps per round) |
//! |---|---|---|---|
//! | Broadcast [11]     | O(N)      | O(log N)      | one-time only |
//! | AVMON generic      | O(cvs)    | 1/(1−e^{−cvs²/N}) | O(cvs²) |
//! | AVMON cvs=log N    | O(log N)  | N/(log N)²    | O((log N)²) |
//! | Optimal-MD         | O((2N)^⅓) | (2N)^⅓        | O((2N)^⅔) |
//! | Optimal-MDC / -DC  | O(N^¼)    | √N            | O(√N) |

use crate::formulas::expected_discovery_periods;
use crate::optimal::{cvs_optimal_md, cvs_optimal_mdc};

/// One row of Table 1, instantiated at a concrete `N`.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Variant name as in the paper.
    pub approach: &'static str,
    /// Coarse-view size used (`None` for Broadcast).
    pub cvs: Option<usize>,
    /// Memory / per-round bandwidth, in view entries (N for Broadcast).
    pub memory_bandwidth: f64,
    /// Expected discovery time in protocol periods.
    pub discovery_periods: f64,
    /// Consistency-condition computations per round (0 = one-time only).
    pub computations_per_round: f64,
}

/// Instantiates Table 1 at system size `n`.
///
/// # Example
///
/// ```
/// let rows = avmon_analysis::table1(1_000_000);
/// assert_eq!(rows.len(), 5);
/// // Broadcast pays N in bandwidth; Optimal-MDC pays N^{1/4}.
/// assert!(rows[0].memory_bandwidth > rows[4].memory_bandwidth * 1000.0);
/// ```
#[must_use]
pub fn table1(n: usize) -> Vec<Table1Row> {
    let nf = n as f64;
    // Round up with a floor of two, as `avmon::CvsPolicy` picks a run's cvs.
    let pick = |cvs: f64| (cvs.ceil() as usize).max(2);
    let log_n = pick(nf.log2());
    let md = pick(cvs_optimal_md(nf));
    let mdc = pick(cvs_optimal_mdc(nf));
    let generic = pick(4.0 * cvs_optimal_mdc(nf)); // the paper's experimental default

    let row = |approach, cvs: usize| Table1Row {
        approach,
        cvs: Some(cvs),
        memory_bandwidth: cvs as f64,
        discovery_periods: expected_discovery_periods(cvs, nf),
        computations_per_round: 2.0 * ((cvs + 2) * (cvs + 2)) as f64,
    };

    vec![
        Table1Row {
            approach: "Broadcast (from [11])",
            cvs: None,
            memory_bandwidth: nf,
            discovery_periods: nf.log2(), // O(log N) flood depth
            computations_per_round: 0.0,  // one-time only
        },
        row("AVMON, generic cvs (4·N^1/4)", generic),
        row("AVMON, cvs = log N", log_n),
        row("AVMON, Optimal-MD (cvs = (2N)^1/3)", md),
        row("AVMON, Optimal-MDC/-DC (cvs = N^1/4)", mdc),
    ]
}

/// Renders Table 1 as an aligned text table (the harness prints this).
#[must_use]
pub fn render_table1(n: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Table 1 @ N = {n}");
    let _ = writeln!(
        out,
        "{:<38} {:>6} {:>14} {:>16} {:>14}",
        "Approach", "cvs", "M (entries)", "D (periods)", "C (per round)"
    );
    for r in table1(n) {
        let cvs = r.cvs.map_or("-".to_string(), |v| v.to_string());
        let comp = if r.computations_per_round == 0.0 {
            "one-time".to_string()
        } else {
            format!("{:.0}", r.computations_per_round)
        };
        let _ = writeln!(
            out,
            "{:<38} {:>6} {:>14.0} {:>16.1} {:>14}",
            r.approach, cvs, r.memory_bandwidth, r.discovery_periods, comp
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orderings_match_the_paper() {
        let rows = table1(1_000_000);
        let by_name = |name: &str| {
            rows.iter()
                .find(|r| r.approach.contains(name))
                .expect("row exists")
                .clone()
        };
        let broadcast = by_name("Broadcast");
        let log_n = by_name("log N");
        let md = by_name("Optimal-MD ");
        let mdc = by_name("MDC");

        // Memory: Broadcast ≫ MD > MDC ≥ logN.
        assert!(broadcast.memory_bandwidth > md.memory_bandwidth);
        assert!(md.memory_bandwidth > mdc.memory_bandwidth);
        assert!(mdc.memory_bandwidth >= log_n.memory_bandwidth);

        // Discovery: Broadcast fastest, then MD, then MDC, then logN.
        assert!(broadcast.discovery_periods < md.discovery_periods);
        assert!(md.discovery_periods < mdc.discovery_periods);
        assert!(mdc.discovery_periods < log_n.discovery_periods);

        // Computation: logN cheapest per round among AVMON variants; MD
        // most expensive.
        assert!(log_n.computations_per_round < mdc.computations_per_round);
        assert!(mdc.computations_per_round < md.computations_per_round);
    }

    #[test]
    fn table_values_at_one_million() {
        let rows = table1(1_000_000);
        let mdc = rows.iter().find(|r| r.approach.contains("MDC")).unwrap();
        assert_eq!(mdc.cvs, Some(32));
        // D ≈ √N = 1000 periods.
        assert!((900.0..1100.0).contains(&mdc.discovery_periods));
        let md = rows
            .iter()
            .find(|r| r.approach.contains("Optimal-MD "))
            .unwrap();
        assert_eq!(md.cvs, Some(126));
        // D ≈ (2N)^{1/3} = 126 periods.
        assert!((55.0..130.0).contains(&md.discovery_periods));
    }

    #[test]
    fn render_contains_all_rows() {
        let text = render_table1(2000);
        assert!(text.contains("Broadcast"));
        assert!(text.contains("Optimal-MDC"));
        assert!(text.contains("one-time"));
        assert_eq!(text.lines().count(), 7);
    }
}
