//! Order statistics over measured samples.

/// Percentiles the report may quote, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted`, interpolating linearly
/// between closest ranks. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        len => {
            let pos = q.clamp(0.0, 1.0) * (len - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(len - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of `samples` (any order); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(f64::NAN, |s| s.p50)
}

/// Percentile `p` of each full window of `window` consecutive samples
/// (a trailing partial window is dropped); windows too small for `p`
/// give nothing.
pub fn window_percentiles(samples: &[f64], window: usize, p: f64) -> Vec<f64> {
    samples
        .chunks_exact(window.max(1))
        .filter_map(|w| Summary::percentile(w, p))
        .collect()
}

/// The values of the less-stolen half of a run's windows (the larger
/// half when their number is odd), in window order. `steal[i]` is the
/// machine's CPU steal share while window `i` ran: time the hypervisor
/// gave this machine's CPUs to other guests, which comes in bursts,
/// slows a window without saying anything about the program, and
/// slows the latency-bound served workload most.
pub fn least_stolen_half(values: &[f64], steal: &[f64]) -> Vec<f64> {
    let mut kept: Vec<usize> = (0..values.len().min(steal.len())).collect();
    kept.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]).then(a.cmp(&b)));
    kept.truncate(kept.len().div_ceil(2));
    kept.sort_unstable();
    kept.into_iter().map(|i| values[i]).collect()
}

/// The highest percentile of [`LADDER`] that has at least ten of `n`
/// samples beyond it, or `None` when fewer than 20 samples exist (not
/// even the median has ten beyond it).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .take_while(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .last()
}

/// Median, quartiles and the highest supported percentile of a sample
/// set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
    /// The highest percentile with ten samples beyond it, and its
    /// value.
    pub top: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when `samples` is empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            p25: quantile(&sorted, 0.25),
            p50: quantile(&sorted, 0.5),
            p75: quantile(&sorted, 0.75),
            top: highest_supported_percentile(sorted.len())
                .map(|p| (p, quantile(&sorted, p / 100.0))),
        })
    }

    /// The value at percentile `p`, if the sample set supports it (at
    /// least ten samples beyond it).
    pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
        if (samples.len() as f64) * (1.0 - p / 100.0) < 10.0 - 1e-9 {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(quantile(&sorted, p / 100.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(10_000_000), Some(99.999));
    }

    #[test]
    fn percentile_refuses_unsupported_ranks() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(Summary::percentile(&samples, 99.0).is_some());
        assert!(Summary::percentile(&samples, 99.9).is_none());
        assert!(Summary::percentile(&samples[..999], 99.0).is_none());
    }

    #[test]
    fn windows_drop_the_partial_tail() {
        let samples: Vec<f64> = (0..2500).map(|i| f64::from(i % 1000)).collect();
        let p99 = window_percentiles(&samples, 1000, 99.0);
        assert_eq!(p99.len(), 2);
        assert!((p99[0] - 989.01).abs() < 1e-9);
        assert!(window_percentiles(&samples, 999, 99.0).is_empty());
    }

    #[test]
    fn least_stolen_half_keeps_the_calm_windows_in_order() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        let steal = [0.5, 0.0, 0.2, 0.1, 0.3];
        assert_eq!(least_stolen_half(&values, &steal), [2.0, 3.0, 4.0]);
        // Ties keep the earlier window; an even count keeps half.
        assert_eq!(least_stolen_half(&values[..4], &[0.1; 4]), [1.0, 2.0]);
        assert!(least_stolen_half(&values, &[]).is_empty());
    }

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.n, s.p25, s.p50, s.p75), (5, 2.0, 3.0, 4.0));
        assert_eq!(s.top, None);
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(even.p50, 2.5);
        assert!(Summary::of(&[]).is_none());
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let top = Summary::of(&many).unwrap().top.unwrap();
        assert_eq!(top.0, 90.0);
        assert!((top.1 - 90.1).abs() < 1e-9);
    }
}
