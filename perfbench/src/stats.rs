//! Summary statistics: percentiles, the tail rule, geometric means and
//! ratios that carry their base.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond the tail percentile.
pub const TAIL_EXCESS: usize = 10;

/// The highest percentile that leaves at least [`TAIL_EXCESS`] samples
/// beyond it: the `(TAIL_EXCESS + 1)`-th largest sample, reported with the
/// percentile it stands for (`100 * (n - TAIL_EXCESS - 1) / n`). `None`
/// when there are not enough samples for a tail at all.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_EXCESS {
        return None;
    }
    let idx = n - TAIL_EXCESS - 1;
    Some((v[idx], 100.0 * idx as f64 / n as f64))
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// A ratio reported together with its denominator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// `num / base`, or 0 when the base is 0.
    pub value: f64,
    /// The denominator.
    pub base: u64,
}

/// `num / base`, with a zero base giving a zero ratio.
pub fn ratio(num: u64, base: u64) -> Ratio {
    let value = if base == 0 { 0.0 } else { num as f64 / base as f64 };
    Ratio { value, base }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&values), Some((1.0, 0.0)));
        // 1..=100 shuffled: the 11th largest is 90, at the 89th percentile.
        let mut values: Vec<f64> = (1..=100).map(f64::from).collect();
        values.reverse();
        let (v, p) = tail(&values).unwrap();
        assert_eq!(v, 90.0);
        assert!((p - 89.0).abs() < 1e-12);
        assert_eq!(values.iter().filter(|&&x| x > v).count(), TAIL_EXCESS);
    }

    #[test]
    fn geomean_rejects_non_positive_values() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_keeps_its_base() {
        assert_eq!(ratio(3, 4), Ratio { value: 0.75, base: 4 });
        assert_eq!(ratio(0, 0), Ratio { value: 0.0, base: 0 });
    }
}
