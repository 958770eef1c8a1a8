//! Order statistics under the benchmark's reporting rule.
//!
//! A timing is reported as its median plus a tail percentile. The tail
//! is the requested percentile only when at least [`MIN_BEYOND`] samples
//! lie beyond it; with fewer samples the highest percentile that does
//! have that many is reported instead, together with the sample count,
//! so a tail figure is never the reading of one or two outliers.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile as reported: which percentile it is, its value and
/// how many samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (at most the one requested).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The median (mean of the middle pair for an even count); `None` when
/// there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// The highest percentile not above `want` that leaves at least
/// [`MIN_BEYOND`] samples beyond it, by nearest rank. `None` when there
/// are too few samples for any percentile to qualify.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    // Nearest rank k (1-based) = ceil(p * n / 100); the samples beyond it
    // number n - k, so k may be at most n - MIN_BEYOND.
    let max_p = 100.0 * (n - MIN_BEYOND) as f64 / n as f64;
    let percentile = want.min(max_p);
    let rank = ((percentile * n as f64 / 100.0).ceil() as usize).clamp(1, n - MIN_BEYOND);
    Some(Tail { percentile, value: sorted[rank - 1], samples: n })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_is_granted_from_one_hundred_samples() {
        let t = tail(&ramp(100), 90.0).expect("enough samples");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        // Exactly MIN_BEYOND samples lie beyond the reported value.
        assert_eq!(ramp(100).iter().filter(|&&v| v > t.value).count(), MIN_BEYOND);
    }

    #[test]
    fn fewer_samples_lower_the_reported_percentile() {
        let t = tail(&ramp(50), 90.0).expect("enough samples");
        assert_eq!(t.percentile, 80.0);
        assert_eq!(t.value, 40.0);
        assert_eq!(t.samples, 50);
        assert!(ramp(50).iter().filter(|&&v| v > t.value).count() >= MIN_BEYOND);
        // A request below the cap is honoured as asked.
        assert_eq!(tail(&ramp(50), 50.0).map(|t| t.percentile), Some(50.0));
    }

    #[test]
    fn too_few_samples_report_no_tail() {
        assert_eq!(tail(&ramp(10), 90.0), None);
        let t = tail(&ramp(11), 90.0).expect("one qualifying rank");
        assert_eq!((t.value, t.samples), (1.0, 11));
    }
}
