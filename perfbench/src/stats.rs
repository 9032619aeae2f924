//! Order statistics of measured samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation between the two
/// closest ranks; `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// How many samples lie at or above the `q`-quantile.
pub fn at_or_beyond(samples: &[f64], q: f64) -> usize {
    quantile(samples, q).map_or(0, |cut| samples.iter().filter(|&&s| s >= cut).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), Some(2.5));
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&samples, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(at_or_beyond(&hundred, 0.9), 10);
        assert_eq!(at_or_beyond(&[7.0; 100], 0.9), 100);
    }
}
