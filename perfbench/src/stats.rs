//! Order statistics over timing samples.

/// The nearest-rank `p`-quantile of `samples`, or `None` when fewer than
/// ten samples lie beyond it: a tail percentile resting on a handful of
/// samples moves a whole step between runs, so it is not reported.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut s: Vec<f64> = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < 10 {
        return None;
    }
    Some(s[rank - 1])
}

/// The median of a non-empty set of per-pass values (mean of the middle
/// two for even counts); `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut s: Vec<f64> = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v[..99], 0.9), None);
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
