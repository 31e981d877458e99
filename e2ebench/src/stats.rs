//! Percentiles that carry their sample counts.

/// A percentile read off a sample, with the counts that say how much to
/// trust it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The selected sample value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the selected rank: a tail percentile is
    /// only resolved when at least [`MIN_TAIL`] samples lie beyond it.
    pub beyond: usize,
}

/// Fewest samples beyond a percentile for it to count as measured.
pub const MIN_TAIL: usize = 10;

impl Percentile {
    /// Whether enough samples lie beyond the percentile to resolve it.
    pub fn resolved(&self) -> bool {
        self.beyond >= MIN_TAIL
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending-sorted sample by the
/// nearest-rank rule: the smallest value with at least `q·n` samples at or
/// below it. Returns `None` for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Sorts a sample ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// Median of a sample, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5).map_or(0.0, |p| p.value)
}

/// `part / whole`, 0 when nothing happened.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_selection_reports_counts() {
        let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&sample, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (500.0, 1000, 500));
        let p99 = percentile(&sample, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990.0, 10));
        assert!(p99.resolved());
        let p999 = percentile(&sample, 0.999).unwrap();
        assert_eq!((p999.value, p999.beyond), (999.0, 1));
        assert!(
            !p999.resolved(),
            "one sample beyond p99.9 does not resolve it"
        );
    }

    #[test]
    fn edges_of_the_rank_range() {
        assert_eq!(percentile(&[], 0.5), None);
        let one = percentile(&[7.0], 0.999).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
        assert_eq!(percentile(&[1.0, 2.0], 0.0).unwrap().value, 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 1.0).unwrap().value, 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
