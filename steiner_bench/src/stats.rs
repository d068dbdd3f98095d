//! Order statistics over timing samples.

/// The `q`-quantile (`0.0 ..= 1.0`) of `samples`, interpolating linearly
/// between the two nearest ranks (numpy's default estimator, and Python's
/// `statistics.quantiles(method="inclusive")`). Panics on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Distance between the first and third quartiles.
pub fn iqr(samples: &[f64]) -> f64 {
    quantile(samples, 0.75) - quantile(samples, 0.25)
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_known_vectors() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(iqr(&v), 1.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);

        let odd = [5.0, 1.0, 9.0];
        assert_eq!(median(&odd), 5.0);
        assert_eq!(iqr(&odd), 4.0);

        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(iqr(&[7.5]), 0.0);
    }

    #[test]
    fn p99_interpolates_between_the_top_ranks() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&v, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(median(&v), 50.5);
        assert_eq!(iqr(&v), 49.5);
    }

    #[test]
    fn ratio_of_zero_work_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
