//! Order statistics for the end-to-end metrics.

/// Samples a latency percentile must leave beyond it before it is
/// reported: p90 needs at least 100 requests.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending), `p` in `(0, 100]`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Request-latency summary: the median and the 90th percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median latency, ms.
    pub p50: f64,
    /// 90th-percentile latency, ms.
    pub p90: f64,
    /// Requests measured.
    pub samples: usize,
}

/// Summarises per-request latencies.
///
/// # Errors
///
/// A run too short to leave [`MIN_TAIL`] samples beyond p90 is an
/// error, not a noisy number.
pub fn latency(samples_ms: &[f64]) -> Result<Latency, String> {
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let beyond = n - ((0.9 * n as f64).ceil() as usize).min(n);
    if beyond < MIN_TAIL {
        return Err(format!(
            "{n} requests leave {beyond} samples beyond p90 (need {MIN_TAIL}): \
             run longer (--seconds)"
        ));
    }
    Ok(Latency {
        p50: percentile(&sorted, 50.0),
        p90: percentile(&sorted, 90.0),
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
