//! Order statistics shared by the run and compare paths.

/// Percentiles of one latency sample, always reported with the number
/// of values they were taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    pub count: usize,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub p999: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `values` (sorted in place). An empty
    /// sample yields zeros with `count == 0`, so callers can tell a
    /// missing measurement from a real one.
    pub fn of(values: &mut [f64]) -> Percentiles {
        values.sort_unstable_by(f64::total_cmp);
        Percentiles {
            count: values.len(),
            p50: nearest_rank(values, 0.50),
            p95: nearest_rank(values, 0.95),
            p99: nearest_rank(values, 0.99),
            p999: nearest_rank(values, 0.999),
        }
    }
}

/// The smallest value with at least `q` of the sorted sample at or
/// below it.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the midpoint rule for even counts (Python's
/// `statistics.median`); 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) computes them, so spreads reported here match a Python
/// analysis of the same result files.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let m = n + 1;
            let at = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_report_their_sample_count() {
        let mut values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = Percentiles::of(&mut values);
        assert_eq!(p.count, 1000);
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.p95, 950.0);
        assert_eq!(p.p99, 990.0);
        assert_eq!(p.p999, 999.0);
        let empty = Percentiles::of(&mut []);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p95, 0.0);
        let mut one = [7.5];
        assert_eq!(Percentiles::of(&mut one).p999, 7.5);
    }

    #[test]
    fn percentiles_ignore_input_order() {
        let mut a = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        let mut b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(Percentiles::of(&mut a), Percentiles::of(&mut b));
    }

    #[test]
    fn median_uses_the_midpoint_for_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
