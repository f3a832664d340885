//! Order statistics for repeated samples.

/// Median and quartiles of a sample, with its size. Quartiles follow
/// Python's `statistics.quantiles(data, n=4)` (the "exclusive" method), so
/// spreads computed here and by an external script over the same values
/// agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted)?;
        Some(Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        })
    }

    /// A single measured value (n = 1).
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// The three cut points of `statistics.quantiles(sorted, n=4)`; a single
/// sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let len = sorted.len();
    match len {
        0 => None,
        1 => Some([sorted[0]; 3]),
        _ => {
            let m = len as i64 + 1;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, len as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some([cut(1), cut(2), cut(3)])
        }
    }
}

/// Median of a sample (0 when empty, for counts that may legitimately have
/// no samples).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// The nearest-rank `q`-quantile of an ascending sample, reported only when
/// at least ten samples lie beyond it: a tail percentile resting on fewer
/// samples is noise.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    (rank <= sorted.len() && sorted.len() - rank >= 10).then(|| sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[4.0]).unwrap(), Summary::single(4.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&sorted, 0.99), Some(990.0));
        assert_eq!(tail(&sorted, 0.5), Some(500.0));
        // 10 beyond p99 of 1000 samples, but only 9 beyond p99.1.
        assert_eq!(tail(&sorted, 0.991), None);
        let small: Vec<f64> = (1..=109).map(f64::from).collect();
        assert_eq!(tail(&small, 0.99), None, "p99 of 109 has 1 sample beyond");
        let exact: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&exact, 0.5),
            Some(10.0),
            "10 samples beyond the median"
        );
        assert_eq!(tail(&exact, 0.55), None);
        assert_eq!(tail(&[], 0.5), None);
    }
}
