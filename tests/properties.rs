//! Cross-crate property tests: the paper's six goals as machine-checkable
//! invariants over randomized inputs.

use avmon::{Config, HashSelector, MonitorSelector, NodeId};
use avmon_churn::{synthetic, SynthParams};
use avmon_sim::{SimOptions, Simulation};
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = NodeId> {
    (any::<[u8; 4]>(), any::<u16>()).prop_map(|(ip, port)| NodeId::new(ip, port))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Goal 1 — consistency: the relationship is a pure function of the
    /// identity pair and the consistent parameters (K, N, hasher). Two
    /// independently constructed selectors always agree.
    #[test]
    fn consistency(a in arb_id(), b in arb_id(), k in 1u32..64, n in 100usize..1_000_000) {
        let c1 = Config::builder(n).k(k).build().unwrap();
        let c2 = Config::builder(n).k(k).build().unwrap();
        let s1 = HashSelector::from_config(&c1);
        let s2 = HashSelector::from_config(&c2);
        prop_assert_eq!(s1.is_monitor(a, b), s2.is_monitor(a, b));
    }

    /// Goal 2 — verifiability: any third party evaluating the report gets
    /// exactly the true relationship; verification is sound and complete.
    #[test]
    fn verifiability(target in arb_id(), claims in proptest::collection::vec(arb_id(), 1..20)) {
        let config = Config::builder(1000).build().unwrap();
        let selector = HashSelector::from_config(&config);
        let outcome = avmon::verify_report(&selector, target, &claims);
        for m in &outcome.verified {
            prop_assert!(selector.is_monitor(*m, target));
            prop_assert!(*m != target);
        }
        for m in &outcome.rejected {
            prop_assert!(*m == target || !selector.is_monitor(*m, target));
        }
        prop_assert_eq!(outcome.verified.len() + outcome.rejected.len(), claims.len());
    }

    /// Goal 3(a) — randomness: across random identity populations the
    /// acceptance rate of the condition is ≈ K/N.
    #[test]
    fn randomness_rate(seed in any::<u64>()) {
        let n = 5000usize;
        let k = 25u32;
        let config = Config::builder(n).k(k).build().unwrap();
        let selector = HashSelector::from_config(&config);
        let mut accepted = 0u32;
        let trials = 20_000u32;
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..trials {
            let a = NodeId::new((next() as u32).to_be_bytes(), next() as u16);
            let b = NodeId::new((next() as u32).to_be_bytes(), next() as u16);
            if a != b && selector.is_monitor(a, b) {
                accepted += 1;
            }
        }
        let rate = f64::from(accepted) / f64::from(trials);
        let expected = f64::from(k) / n as f64;
        prop_assert!((rate - expected).abs() < expected * 0.5,
            "rate {} vs expected {}", rate, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Goals 5/6 — load balance & scalability, end to end: across random
    /// seeds, per-node overheads stay within a tight band of the mean
    /// (no hotspots), and absolute cost stays O(cvs²) per period.
    #[test]
    fn load_balance(seed in 0u64..1000) {
        let n = 100;
        let trace = synthetic(SynthParams::synth(n).duration(40 * avmon::MINUTE).seed(seed));
        let config = Config::builder(n).build().unwrap();
        let cvs = config.cvs;
        let report = Simulation::new(trace, SimOptions::new(config).seed(seed)).run();
        let comps = report.comps_per_second();
        prop_assert!(!comps.is_empty());
        let mean = comps.iter().sum::<f64>() / comps.len() as f64;
        // Scalability: per-minute work ≈ 2(cvs+2)² hash checks.
        let bound = 2.5 * ((cvs + 2) * (cvs + 2)) as f64 / 60.0;
        prop_assert!(mean < bound, "mean comps/s {} exceeds O(cvs²) bound {}", mean, bound);
        // Load balance: no node does more than 4x the mean work.
        for &c in &comps {
            prop_assert!(c <= mean * 4.0 + 1.0, "hotspot: {} vs mean {}", c, mean);
        }
    }
}

/// §4.2's closed forms exist twice: `CvsPolicy` computes them in `avmon`,
/// and `avmon_analysis::optimal` holds them for the analysis. Neither crate
/// can depend on the other without a new dependency edge, so this holds
/// the two equal: every N up to 200 000, then a sampled sweep to 10⁷ that
/// includes every N where `⌈·⌉` changes value (`N = k⁴` and `2N = k³`).
/// `table1`'s rows print the cvs each policy runs.
#[test]
fn cvs_policy_matches_the_analysis_closed_forms() {
    use avmon::CvsPolicy;
    use avmon_analysis::{cvs_optimal_md, cvs_optimal_mdc, table1};

    let closed = |cvs: f64| (cvs.ceil() as usize).max(2);
    let check = |n: usize| {
        let nf = n as f64;
        assert_eq!(
            CvsPolicy::OptimalMd.cvs(n),
            closed(cvs_optimal_md(nf)),
            "MD at N = {n}"
        );
        assert_eq!(
            CvsPolicy::OptimalMdc.cvs(n),
            closed(cvs_optimal_mdc(nf)),
            "MDC at N = {n}"
        );
        assert_eq!(
            CvsPolicy::PAPER_DEFAULT.cvs(n),
            closed(cvs_optimal_mdc(nf) * 4.0),
            "4·N^¼ at N = {n}"
        );
        let table: Vec<Option<usize>> = table1(n).iter().map(|row| row.cvs).collect();
        let policies = [
            CvsPolicy::PAPER_DEFAULT,
            CvsPolicy::LogN,
            CvsPolicy::OptimalMd,
            CvsPolicy::OptimalMdc,
        ];
        let want: Vec<Option<usize>> = std::iter::once(None)
            .chain(policies.map(|p| Some(p.cvs(n))))
            .collect();
        assert_eq!(table, want, "table1's cvs column at N = {n}");
    };
    (2..=200_000).for_each(check);
    (200_000..=10_000_000).step_by(9_973).for_each(check);
    for k in 2usize..=60 {
        (k.pow(4) - 1..=k.pow(4) + 1).for_each(check);
    }
    for k in 2usize..=272 {
        (k.pow(3) / 2 - 1..=k.pow(3) / 2 + 1).for_each(check);
    }
}
