//! Order statistics over repeated measurements, and the regression verdict
//! between a parent and a change.

/// Median, quartiles and sample count of one metric's repeated values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values` (any order). Quartiles use the "exclusive"
    /// method of Python's `statistics.quantiles(values, n=4)`, so the
    /// spreads printed here are the ones that function reports. Returns
    /// `None` for an empty slice.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut data = values.to_vec();
        data.sort_by(f64::total_cmp);
        let n = data.len();
        match n {
            0 => None,
            1 => Some(Summary {
                n,
                q1: data[0],
                median: data[0],
                q3: data[0],
            }),
            _ => {
                let quartile = |i: usize| {
                    // Rank i·(n+1)/4, clamped to [1, n-1], interpolated
                    // between the neighbouring order statistics.
                    let m = n + 1;
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
                };
                let median = if n % 2 == 1 {
                    data[n / 2]
                } else {
                    (data[n / 2 - 1] + data[n / 2]) / 2.0
                };
                Some(Summary {
                    n,
                    q1: quartile(1),
                    median,
                    q3: quartile(3),
                })
            }
        }
    }

    /// The interquartile range as a share of the median (0 for a zero
    /// median).
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (rates, hit ratios).
    Higher,
}

impl Better {
    /// The `better` field's value in `BENCHMARK.json`.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The outcome of comparing a change against its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median improves on the parent's by more than the
    /// parent's own run-to-run spread.
    Better,
    /// Neither a resolved gain nor a regression beyond the bound.
    WithinBound,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// Either side's interquartile range is wider than the bound, so the
    /// comparison cannot resolve a regression of that size.
    Unresolved,
}

impl Verdict {
    /// Lowercase label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compares `change` against `parent` for a metric that may worsen by at
/// most `bound` (a share of the parent's median) before it regresses.
pub fn verdict(parent: &Summary, change: &Summary, better: Better, bound: f64) -> Verdict {
    if parent.relative_iqr() > bound || change.relative_iqr() > bound {
        return Verdict::Unresolved;
    }
    let scale = parent.median.abs().max(f64::MIN_POSITIVE);
    // Positive `worsening` means the change moved in the bad direction.
    let worsening = match better {
        Better::Lower => (change.median - parent.median) / scale,
        Better::Higher => (parent.median - change.median) / scale,
    };
    if worsening > bound {
        Verdict::Worse
    } else if -worsening > parent.relative_iqr() {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!(s.n, 10);
        assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(close(s.q1, 1.5) && close(s.median, 3.0) && close(s.q3, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert!(close(s.q1, 0.75) && close(s.median, 1.5) && close(s.q3, 2.25));
        let s = Summary::of(&[4.0]).unwrap();
        assert!(close(s.q1, 4.0) && close(s.q3, 4.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!(close(s.relative_iqr(), 1.0));
        let zero = Summary::of(&[0.0, 0.0]).unwrap();
        assert_eq!(zero.relative_iqr(), 0.0);
    }

    fn tight(median: f64) -> Summary {
        Summary {
            n: 10,
            q1: median * 0.99,
            median,
            q3: median * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let parent = tight(10.0);
        // 5 % slower on a 10 % bound: within; 15 % slower: worse.
        assert_eq!(
            verdict(&parent, &tight(10.5), Better::Lower, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&parent, &tight(11.5), Better::Lower, 0.10),
            Verdict::Worse
        );
        // 1 % faster is inside the parent's 2 % spread; 5 % faster is a gain.
        assert_eq!(
            verdict(&parent, &tight(9.9), Better::Lower, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&parent, &tight(9.5), Better::Lower, 0.10),
            Verdict::Better
        );
        // Direction flips for higher-is-better metrics.
        assert_eq!(
            verdict(&parent, &tight(8.5), Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&parent, &tight(10.5), Better::Higher, 0.10),
            Verdict::Better
        );
        // A spread wider than the bound cannot resolve anything.
        let noisy = Summary {
            n: 10,
            q1: 8.0,
            median: 10.0,
            q3: 12.0,
        };
        assert_eq!(
            verdict(&noisy, &tight(20.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&parent, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }
}
