//! Sample statistics: percentiles with the sample-count rule, medians,
//! and the quartile spread the regression bounds are measured with.

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A percentile is reported only when at least ten samples lie beyond it.
pub fn supported(n: usize, q: f64) -> bool {
    // The epsilon absorbs rounding in `1.0 - q` (100 × (1 − 0.9) < 10).
    n as f64 * (1.0 - q) + 1e-9 >= 10.0
}

/// The tail percentile a sample of `n` supports, at most p99.
pub fn tail_q(n: usize) -> f64 {
    [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|&q| supported(n, q))
        .unwrap_or(0.5)
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) gives them. This is how the driver judges whether a
/// metric is steady enough for its bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "spread needs two samples");
    let q = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (q(3) - q(1)) / median(&s)
}

/// A timed phase cut into equal slices, one statistic per slice, the
/// median across slices reported. One scheduler hiccup then moves one
/// slice, not the run's figure.
pub struct Sliced {
    slices: Vec<Vec<f64>>,
    start_ns: u64,
    slice_ns: u64,
}

pub const SLICES: usize = 12;

impl Sliced {
    pub fn new(start_ns: u64, len_ns: u64) -> Sliced {
        Sliced {
            slices: vec![Vec::new(); SLICES],
            start_ns,
            slice_ns: (len_ns / SLICES as u64).max(1),
        }
    }

    /// File `value` under the slice that contains time `at_ns`.
    pub fn add(&mut self, at_ns: u64, value: f64) {
        let i = (at_ns.saturating_sub(self.start_ns) / self.slice_ns) as usize;
        self.slices[i.min(SLICES - 1)].push(value);
    }

    pub fn samples(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    /// Median over slices of each slice's `q` percentile. Slices too
    /// small to support `q` fall back to the percentile they do support;
    /// empty slices are skipped.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| percentile(&sorted(s.clone()), q.min(tail_q(s.len())).max(0.5)))
            .collect();
        (!per_slice.is_empty()).then(|| median(&per_slice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn sample_count_rule_wants_ten_samples_beyond() {
        assert!(!supported(999, 0.99));
        assert!(supported(1_000, 0.99));
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert_eq!(tail_q(1_000), 0.99);
        assert_eq!(tail_q(999), 0.95);
        assert_eq!(tail_q(100), 0.9);
        assert_eq!(tail_q(5), 0.5);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((quartile_spread(&[40.0, 10.0, 20.0]) - 1.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn one_bad_slice_does_not_move_the_reported_tail() {
        let second = 1_000_000_000u64;
        let mut s = Sliced::new(0, SLICES as u64 * second);
        for slice in 0..SLICES as u64 {
            for i in 0..2_000u64 {
                let stalled = slice == 2 && i < 400;
                s.add(
                    slice * second + i,
                    if stalled {
                        150.0
                    } else {
                        1.0 + i as f64 / 2_000.0
                    },
                );
            }
        }
        assert_eq!(s.samples(), SLICES * 2_000);
        let p99 = s.percentile(0.99).unwrap();
        assert!(p99 < 2.0, "{p99}");
        // Samples past the end are filed under the last slice, not lost.
        s.add(100 * second, 1.0);
        assert_eq!(s.samples(), SLICES * 2_000 + 1);
    }
}
