//! Order statistics over measured samples.

/// The median (mean of the two middle values for an even count); 0 for
/// no samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail: the highest percentile that still has at least ten samples
/// beyond it, i.e. the 11th-largest sample, with that percentile. With
/// fewer than eleven samples no such percentile exists and the maximum is
/// returned as the 100th percentile.
#[must_use]
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => (0.0, 100.0),
        _ if n < 11 => (sorted[n - 1], 100.0),
        _ => (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// Arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), (90.0, 90.0));
        assert_eq!(median(&samples), 50.5);
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0));
    }
}
