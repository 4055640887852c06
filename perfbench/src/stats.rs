//! Order statistics over timing samples.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`: the smallest
/// sample with at least `q·n` samples at or below it. `None` when empty.
///
/// Nearest-rank never interpolates, so a reported percentile is always a
/// value that was actually measured.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "percentile: q must be in (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// [`percentile`] with 0 for an empty sample set — the value a layer that
/// did no work on a workload reports.
pub fn pct_or_zero(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(0.0)
}

/// Samples strictly above the `q`-quantile: the tail a percentile rests
/// on. The benchmark sizes its runs so this is at least ten.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    samples.len() - (q * samples.len() as f64).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.9), Some(90.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        // Rank rounds up: the 0.5-quantile of 5 samples is the 3rd.
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), Some(3.0));
        // Lower middle for an even count.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let a = [3.0, 9.0, 1.0, 7.0, 5.0, 11.0, 2.0];
        let mut b = a;
        b.reverse();
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(percentile(&a, q), percentile(&b, q));
        }
    }

    #[test]
    fn tiny_and_empty_sets() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(pct_or_zero(&[], 0.99), 0.0);
        assert_eq!(percentile(&[42.0], 0.01), Some(42.0));
        assert_eq!(percentile(&[42.0], 0.99), Some(42.0));
    }

    #[test]
    fn tail_counts() {
        let s = vec![0.0; 1000];
        assert_eq!(beyond(&s, 0.99), 10);
        assert_eq!(beyond(&s[..100], 0.9), 10);
        assert_eq!(beyond(&s[..99], 0.9), 9);
        assert_eq!(beyond(&s[..20], 0.5), 10);
    }
}
