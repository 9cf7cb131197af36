//! Order statistics for the harness: medians, the highest percentile a
//! sample supports, and the bound comparator `compare` uses.

/// Sorts ascending; benchmark samples are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank `pct`-th percentile of an ascending-sorted sample, or
/// `None` unless at least ten samples lie beyond it — a tail read off
/// fewer samples is noise, not a percentile.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((n as f64 * pct / 100.0).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + 10).then(|| sorted[rank - 1])
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing one metric of two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A set's own run-to-run spread exceeds the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric of one result set: the median over the set's repeats and
/// the repeats' spread as a share of that median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub spread: f64,
}

/// Signed change from `a` to `b` as a share of `a`, positive when `b` is
/// *worse* in the metric's direction.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The bound comparator: `b` against baseline `a` under `bound` (a share
/// of `a`).
pub fn verdict(a: Measured, b: Measured, better: Better, bound: f64) -> Verdict {
    if a.spread > bound || b.spread > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(a.value, b.value, better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples is rank 990: exactly ten samples beyond.
        assert_eq!(percentile(&sorted, 99.0), Some(990.0));
        // p99.9 is rank 999: one sample beyond — refused.
        assert_eq!(percentile(&sorted, 99.9), None);
        assert_eq!(percentile(&sorted, 50.0), Some(500.0));
        // Twenty samples support the median (rank 10, ten beyond) only.
        let small: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&small, 50.0), Some(10.0));
        assert_eq!(percentile(&small, 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let m = |value, spread| Measured { value, spread };
        // Lower is better: +10 % is worse under an 8 % bound, −10 % better.
        assert_eq!(
            verdict(m(100.0, 0.0), m(110.0, 0.0), Better::Lower, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            verdict(m(100.0, 0.0), m(90.0, 0.0), Better::Lower, 0.08),
            Verdict::Better
        );
        assert_eq!(
            verdict(m(100.0, 0.0), m(105.0, 0.0), Better::Lower, 0.08),
            Verdict::Same
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(m(100.0, 0.0), m(90.0, 0.0), Better::Higher, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            verdict(m(100.0, 0.0), m(110.0, 0.0), Better::Higher, 0.08),
            Verdict::Better
        );
        // Either set's own spread above the bound: no verdict.
        assert_eq!(
            verdict(m(100.0, 0.09), m(150.0, 0.0), Better::Lower, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(m(100.0, 0.0), m(100.0, 0.2), Better::Lower, 0.08),
            Verdict::Unresolved
        );
        // A zero baseline that stays zero is unchanged; one that moves is
        // an unbounded worsening.
        assert_eq!(
            verdict(m(0.0, 0.0), m(0.0, 0.0), Better::Lower, 0.0),
            Verdict::Same
        );
        assert_eq!(
            verdict(m(0.0, 0.0), m(1.0, 0.0), Better::Lower, 0.0),
            Verdict::Worse
        );
    }
}
