//! Sample-summary helpers: nearest-rank percentiles and the
//! p50/p95/p99 ladder the `nli-server` load generator prints.

/// `p`-th percentile of an ascending-sorted sample (nearest-rank: the
/// smallest sample such that at least `p`% of the data is `<=` it).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Latency summary of one sample vector. Unit-agnostic (callers feed µs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
}

impl Summary {
    /// Summarize a sample vector (sorts it internally). Empty input
    /// yields all-zero statistics.
    pub fn from_samples(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        if samples.is_empty() {
            return Summary {
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
            };
        }
        Summary {
            p50: percentile(&samples, 50.0),
            p95: percentile(&samples, 95.0),
            p99: percentile(&samples, 99.0),
            min: samples[0],
            max: samples[samples.len() - 1],
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_orders_its_percentiles() {
        let samples: Vec<f64> = (0..1000).map(|i| f64::from((i * 37) % 1000)).collect();
        let s = Summary::from_samples(samples);
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!((s.mean - 499.5).abs() < 1e-9);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 999.0);
    }
}
