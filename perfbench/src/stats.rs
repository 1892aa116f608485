//! Order statistics over timing samples.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it: such a tail is too
/// thin to report.
pub fn percentile(samples: &[f64], q: f64) -> Option<Percentile> {
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} out of (0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile {
        value: sorted[rank - 1],
        n,
        beyond,
    })
}

/// Median (mean of the two middle samples for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = percentile(&hundred, 0.9).expect("100 samples leave 10 beyond p90");
        assert_eq!(
            p,
            Percentile {
                value: 90.0,
                n: 100,
                beyond: 10
            }
        );
        assert_eq!(
            percentile(&hundred[..99], 0.9),
            None,
            "99 samples leave 9 beyond"
        );
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let shuffled: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = percentile(&shuffled, 0.5).expect("wide enough");
        assert_eq!((p.value, p.n, p.beyond), (99.0, 200, 100));
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
