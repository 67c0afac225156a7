//! Order statistics over timing samples.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `samples` by linear interpolation
/// between the two nearest ranks, or `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`, or `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// How many samples lie strictly above the `p`-quantile — the tail a
/// percentile rests on. A percentile is reported only when at least
/// [`MIN_TAIL`] samples lie beyond it.
pub fn tail_count(n: usize, p: f64) -> usize {
    n - (p * n as f64).ceil() as usize
}

/// Samples a reported percentile needs beyond it.
pub const MIN_TAIL: usize = 10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_percentile() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        for p in [0.0, 0.5, 0.9, 1.0] {
            assert_eq!(percentile(&[7.0], p), Some(7.0));
        }
    }

    #[test]
    fn interpolates_between_ranks_regardless_of_input_order() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        // position 0.9 · 3 = 2.7 → 3 + 0.7 · (4 − 3)
        let p90 = percentile(&xs, 0.9).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12, "{p90}");
    }

    #[test]
    fn odd_count_median_is_the_middle_sample() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn out_of_range_p_is_clamped() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, -1.0), Some(1.0));
        assert_eq!(percentile(&xs, 2.0), Some(2.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_a_ten_sample_tail() {
        assert_eq!(tail_count(100, 0.9), 10);
        assert!(tail_count(99, 0.9) < MIN_TAIL);
        assert_eq!(tail_count(104, 0.9), 10);
        assert_eq!(tail_count(200, 0.9), 20);
    }
}
