//! Order statistics over timing samples.

/// Sorts `samples` and returns its `q`-quantile by nearest rank
/// (`q = 0.5` is the median). `None` when there are no samples.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// How many samples lie strictly beyond the `q`-quantile's rank. A tail
/// percentile is only worth reporting with at least ten (choosing-metrics
/// §1), which for p90 means at least 100 samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub((q * n as f64).ceil() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&mut v), Some(50.0));
        assert_eq!(quantile(&mut v, 0.9), Some(90.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(median(&mut [3.0]), Some(3.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(1000, 0.9), 100);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }
}
