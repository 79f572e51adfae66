//! Latency summaries: the median and the highest percentile the sample
//! supports.

/// The percentiles a tail may be reported at, ascending. The ladder stops
/// at p90, because a gated tail has to repeat: on a shared 2-CPU machine,
/// p99 and p99.9 of the same runs moved by 10% to 55% from seed to seed
/// with episodes of host noise, and p95, which an episode covering 5% of a
/// run already moves, spread by up to 21% of its median over sets of 8 to 10
/// seeds where p90 spread by up to 15%.
pub const LADDER: [f64; 3] = [50.0, 75.0, 90.0];

/// How many samples must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in a sorted sample of `n` values:
/// the smallest index whose value is at least `p` percent of the sample.
fn rank_index(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The nearest-rank percentile `p` of an ascending `sorted` sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank_index(sorted.len(), p)]
}

/// The highest ladder percentile of an `n`-sample with at least
/// [`MIN_BEYOND`] samples strictly above its rank, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - 1 - rank_index(n, p) >= MIN_BEYOND)
}

/// The median of an unsorted sample (the mean of the middle pair for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A latency distribution as reported: median, upper quartile and tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The nearest-rank 75th percentile.
    pub p75: f64,
    /// Value at [`Summary::tail_pct`].
    pub tail: f64,
    /// The percentile the tail is taken at; 100 (the maximum) when the
    /// sample is too small for any ladder percentile.
    pub tail_pct: f64,
}

/// Summarises a non-empty sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summary of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (tail, tail_pct) = match tail_percentile(sorted.len()) {
        Some(p) => (percentile(&sorted, p), p),
        None => (sorted[sorted.len() - 1], 100.0),
    };
    Summary {
        count: sorted.len(),
        p50: median(&sorted),
        p75: percentile(&sorted, 75.0),
        tail,
        tail_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sample = ramp(100);
        assert_eq!(percentile(&sample, 50.0), 50.0);
        assert_eq!(percentile(&sample, 95.0), 95.0);
        assert_eq!(percentile(&sample, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 100 samples is rank 90: exactly 10 beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        // p90 of 99 samples is rank 90 (ceil 89.1): only 9 beyond, so p75.
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(200), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(1_000_000), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_records_the_tail_percentile() {
        let summary = summarize(&ramp(1000));
        assert_eq!(summary.count, 1000);
        assert_eq!(summary.p50, 500.5);
        assert_eq!(summary.p75, 750.0);
        assert_eq!(summary.tail_pct, 90.0);
        assert_eq!(summary.tail, 900.0);

        let fewer = summarize(&ramp(150));
        assert_eq!(fewer.tail_pct, 90.0);
        assert_eq!(fewer.tail, 135.0);

        let small = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(small.tail_pct, 100.0);
        assert_eq!(small.tail, 3.0);
        assert_eq!(small.p50, 2.0);
    }

    #[test]
    fn summary_is_order_independent() {
        let mut shuffled = ramp(300);
        shuffled.reverse();
        assert_eq!(summarize(&shuffled), summarize(&ramp(300)));
    }
}
