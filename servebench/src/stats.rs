//! Order statistics with their sample counts.

/// A nearest-rank percentile together with the sample it was taken from, so
/// a report can show how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Nearest-rank percentile `q ∈ (0, 1]` of `values` (sorted here).
    /// `None` for an empty sample.
    pub fn of(values: &[f64], q: f64) -> Option<Percentile> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(Percentile {
            value: sorted[rank - 1],
            samples: sorted.len(),
            beyond: sorted.len() - rank,
        })
    }

    /// Whether at least ten samples lie beyond the percentile, the least a
    /// tail percentile needs to be reported as measured.
    pub fn is_supported(&self) -> bool {
        self.beyond >= 10
    }
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of whole microseconds that the server truncated from a finer
/// clock: each value `k` stands for the interval `[k, k + 1)`, and the
/// median is interpolated inside the interval that holds it (the grouped-data
/// median). Unlike the plain median of integers it moves continuously with
/// the distribution. 0 for an empty sample.
pub fn truncated_micros_median(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let half = sorted.len() as f64 / 2.0;
    let mid = sorted[sorted.len() / 2];
    let below = sorted.partition_point(|&v| v < mid);
    let within = sorted.partition_point(|&v| v <= mid) - below;
    mid as f64 + (half - below as f64) / within as f64
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_carry_their_sample_count() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = Percentile::of(&values, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        assert!(p99.is_supported());

        let short: Vec<f64> = (1..=500).map(f64::from).collect();
        let p99 = Percentile::of(&short, 0.99).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (495.0, 500, 5));
        assert!(!p99.is_supported(), "5 samples beyond p99 is too few");

        let p50 = Percentile::of(&[3.0, 1.0, 2.0], 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (2.0, 3, 1));
        assert_eq!(Percentile::of(&[], 0.5), None);
    }

    #[test]
    fn medians_and_shares() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(share(1, 4), 0.25);
        assert_eq!(share(3, 0), 0.0);
    }

    #[test]
    fn truncated_micros_interpolate_inside_the_median_bin() {
        // Half the mass below 10, the rest all in [10, 11): the median sits
        // at the bin's lower edge.
        assert_eq!(truncated_micros_median(&[1, 2, 10, 10]), 10.0);
        // Ten values in [7, 8): the median is the middle of the bin.
        assert_eq!(truncated_micros_median(&[7; 10]), 7.5);
        assert_eq!(truncated_micros_median(&[]), 0.0);
    }
}
