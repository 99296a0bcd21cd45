//! z-score statistics for exceptional-source detection (Section 4.3).
//!
//! The paper: "For each recency timestamp x, the z-score can be
//! calculated with … (x − μ)/σ" with μ the mean and σ the *population*
//! standard deviation, and sources with |z| ≥ 3 treated as exceptional
//! (Chebyshev: at least 89% of any data set lies within 3σ).

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    mean_of(xs.iter().copied())
}

/// Population standard deviation (the paper's σ divides by N, not N−1).
pub fn population_std_dev(xs: &[f64]) -> f64 {
    std_dev_of(xs.iter().copied())
}

/// z-scores of each element. When σ = 0 every score is 0 (no element can
/// be exceptional in a constant data set).
pub fn z_scores(xs: &[f64]) -> Vec<f64> {
    let z = ZScore::of(xs.iter().copied());
    xs.iter().map(|&x| z.score(x)).collect()
}

/// The z-score function `x ↦ (x − μ)/σ` of one data set, read from any
/// re-iterable source without collecting it: the same `f64` operations
/// in the same order as [`mean`] and [`population_std_dev`] over the
/// collected slice, so its scores are bit-identical to [`z_scores`].
#[derive(Debug, Clone, Copy)]
pub struct ZScore {
    mean: f64,
    sd: f64,
}

impl ZScore {
    /// Fits μ and σ to `xs` (two passes).
    pub fn of<I>(xs: I) -> ZScore
    where
        I: ExactSizeIterator<Item = f64> + Clone,
    {
        ZScore {
            mean: mean_of(xs.clone()),
            sd: std_dev_of(xs),
        }
    }

    /// The z-score of `x`; 0 when σ = 0.
    pub fn score(&self, x: f64) -> f64 {
        if self.sd == 0.0 {
            0.0
        } else {
            (x - self.mean) / self.sd
        }
    }
}

fn mean_of(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    xs.sum::<f64>() / n as f64
}

fn std_dev_of<I>(xs: I) -> f64
where
    I: ExactSizeIterator<Item = f64> + Clone,
{
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let m = mean_of(xs.clone());
    let var = xs.map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((population_std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(population_std_dev(&[]), 0.0);
        assert_eq!(z_scores(&[]), Vec::<f64>::new());
        assert_eq!(z_scores(&[42.0]), vec![0.0]);
    }

    #[test]
    fn constant_data_has_no_outliers() {
        let z = z_scores(&[5.0, 5.0, 5.0]);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn far_point_scores_high() {
        // Ten clustered points and one far outlier.
        let mut xs = vec![100.0; 10];
        xs.push(0.0);
        let z = z_scores(&xs);
        assert!(z[10].abs() >= 3.0, "outlier z = {}", z[10]);
        assert!(z[0].abs() < 1.0);
    }

    #[test]
    fn z_scores_are_standardized() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let z = z_scores(&xs);
        assert!(mean(&z).abs() < 1e-12);
        assert!((population_std_dev(&z) - 1.0).abs() < 1e-12);
    }
}
