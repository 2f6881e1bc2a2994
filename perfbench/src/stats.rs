//! Order statistics used by every metric: nearest-rank percentiles, the
//! tail rule, and the interquartile range.

/// Samples fewer than this many beyond a percentile make it too thin to
/// report as a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Highest percentile an end-to-end tail may report. Between runs on a
/// shared 2-core host, p98–p99 of parallel solves and served requests
/// spread by 0.23–0.31 of their median over ten runs, more than any
/// regression bound could allow; p95 keeps dozens of samples beyond it.
pub const E2E_TAIL_CAP: u32 = 95;

/// Sorts a copy of `xs` ascending.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    sorted(xs)[rank(p, xs.len()) - 1]
}

/// Median of `xs` (the nearest-rank 50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The tail percentile for `n` samples: the highest whole percentile in
/// `50..=cap` that leaves at least [`TAIL_MIN_BEYOND`] samples beyond
/// it, or 50 when even the median leaves fewer.
pub fn tail_percentile(n: usize, cap: u32) -> u32 {
    (50..=cap)
        .rev()
        .find(|&p| n >= TAIL_MIN_BEYOND && n - rank(p as f64, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(50)
}

/// A tail as reported: which percentile, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: u32,
    pub value: f64,
    pub samples: usize,
}

/// The tail of `xs` under [`tail_percentile`] with percentile cap `cap`.
pub fn tail(xs: &[f64], cap: u32) -> Tail {
    let pct = tail_percentile(xs.len(), cap);
    Tail {
        pct,
        value: percentile(xs, pct as f64),
        samples: xs.len(),
    }
}

/// Interquartile range, with quartiles computed as Python's
/// `statistics.quantiles(xs, n=4)` does (exclusive method).
pub fn iqr(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let v = sorted(xs);
    let q = |k: f64| {
        // Position m = k·(n+1)/4, 1-based, linearly interpolated.
        let m = k * (v.len() + 1) as f64 / 4.0;
        let j = (m.floor() as usize).clamp(1, v.len() - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    q(3.0) - q(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000, 99), 99);
        assert_eq!(tail_percentile(600, 99), 98);
        assert_eq!(tail_percentile(200, 99), 95);
        assert_eq!(tail_percentile(25, 99), 60);
        assert_eq!(tail_percentile(20, 99), 50);
        assert_eq!(tail_percentile(5, 99), 50);
        assert_eq!(tail_percentile(100_000, 99), 99);
        for n in 20..3000 {
            let p = tail_percentile(n, 99);
            assert!(n - rank(p as f64, n) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n - rank((p + 1) as f64, n) < TAIL_MIN_BEYOND,
                    "n={n} p={p} not the highest"
                );
            }
        }
    }

    #[test]
    fn tail_reports_value_at_its_percentile() {
        let xs: Vec<f64> = (1..=25).rev().map(f64::from).collect();
        let t = tail(&xs, 99);
        assert_eq!(
            t,
            Tail {
                pct: 60,
                value: 15.0,
                samples: 25
            }
        );
    }

    #[test]
    fn percentiles_and_iqr_match_reference_values() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert!((iqr(&xs) - 3.0).abs() < 1e-12);
    }
}
