//! Order statistics for latency samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank median of ascending `sorted`.
pub fn median(sorted: &[u64]) -> u64 {
    assert!(!sorted.is_empty(), "median of no samples");
    sorted[sorted.len().div_ceil(2) - 1]
}

/// The tail value reported as p99: the 99th percentile when at least
/// [`TAIL_SAMPLES`] samples lie beyond it, else the highest percentile
/// that still has that many beyond it (the minimum for tiny runs).
/// Returns the value and the percentile it stands for.
pub fn tail(sorted: &[u64]) -> (u64, f64) {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    // Nearest rank of the 99th percentile, in integers: ceil(0.99 n).
    let p99 = (99 * n).div_ceil(100) - 1;
    let index = p99.min(n.saturating_sub(TAIL_SAMPLES + 1));
    (sorted[index], (index + 1) as f64 / n as f64)
}

/// Samples per slice [`sliced`] aims for once it has more than
/// [`MIN_SLICES`] slices' worth.
pub const SLICE_SAMPLES: usize = 1000;
/// Fewest slices [`sliced`] cuts.
pub const MIN_SLICES: usize = 3;
/// Most slices [`sliced`] cuts.
pub const MAX_SLICES: usize = 9;
/// Below `MIN_SLICES` times this many samples, [`sliced`] does not cut.
const MIN_SLICE_SAMPLES: usize = 100;

/// How many slices [`sliced`] cuts `n` samples into: one for tiny runs,
/// else `n / SLICE_SAMPLES` within `MIN_SLICES..=MAX_SLICES`, rounded
/// down to an odd count so the median of the slices is one of them.
pub fn slice_count(n: usize) -> usize {
    if n < MIN_SLICES * MIN_SLICE_SAMPLES {
        return 1;
    }
    let k = (n / SLICE_SAMPLES).clamp(MIN_SLICES, MAX_SLICES);
    if k.is_multiple_of(2) {
        k - 1
    } else {
        k
    }
}

/// Median and tail (see [`tail`]) of samples in completion order, robust
/// to bursts of host contention: the samples are cut into
/// [`slice_count`] consecutive slices, and each statistic is the median
/// of its per-slice values. A burst that slows fewer than half the
/// slices moves neither. The tail rule applies per slice, so a slice of
/// fewer than 1100 samples reports a percentile below the 99th.
pub fn sliced(in_order: &[u64]) -> (f64, f64) {
    assert!(!in_order.is_empty(), "no samples");
    let slices = slice_count(in_order.len());
    let per = in_order.len() / slices;
    let (mut medians, mut tails) = (Vec::with_capacity(slices), Vec::with_capacity(slices));
    for k in 0..slices {
        // The last slice takes the remainder.
        let end = if k + 1 == slices {
            in_order.len()
        } else {
            (k + 1) * per
        };
        let mut slice = in_order[k * per..end].to_vec();
        slice.sort_unstable();
        medians.push(median(&slice) as f64);
        tails.push(tail(&slice).0 as f64);
    }
    (median_f64(&medians), median_f64(&tails))
}

/// The median of unsorted floats (the mean of the middle two for even
/// counts).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_when_enough_samples_lie_beyond_it() {
        let samples: Vec<u64> = (1..=2000).collect();
        let (v, q) = tail(&samples);
        assert_eq!(v, 1980);
        assert!((q - 0.99).abs() < 1e-9);
        assert_eq!(
            samples.len() - samples.iter().position(|&s| s == v).unwrap() - 1,
            20
        );
    }

    #[test]
    fn falls_back_to_the_highest_percentile_with_ten_beyond() {
        let samples: Vec<u64> = (1..=500).collect();
        // p99 would be 495 with only 5 beyond; 490 has exactly 10.
        let (v, q) = tail(&samples);
        assert_eq!(v, 490);
        assert!((q - 0.98).abs() < 1e-9);
        // Exactly at the boundary: 1100 samples put 11 beyond p99.
        let samples: Vec<u64> = (1..=1100).collect();
        assert_eq!(tail(&samples).0, 1089);
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&samples).0, 990);
    }

    #[test]
    fn tiny_runs_report_the_minimum() {
        assert_eq!(tail(&[5, 6, 7]).0, 5);
    }

    #[test]
    fn slicing_shrugs_off_a_short_burst() {
        // 10 000 samples of 100 with a 2 000-sample burst of 1 000.
        let mut samples = vec![100u64; 10_000];
        for s in &mut samples[3_000..5_000] {
            *s = 1_000;
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        assert_eq!(tail(&sorted).0, 1_000, "the plain tail sees the burst");
        assert_eq!(sliced(&samples), (100.0, 100.0));
        // Too few samples to slice: the plain statistics.
        let few: Vec<u64> = (1..=200).collect();
        assert_eq!(sliced(&few), (100.0, 190.0));
    }

    #[test]
    fn slice_counts_are_odd_and_at_least_three() {
        assert_eq!(slice_count(299), 1);
        assert_eq!(slice_count(300), 3);
        // A 20 s run of `drag` or `edit` (about 1900 and 2200 samples).
        assert_eq!(slice_count(1900), 3);
        assert_eq!(slice_count(2200), 3);
        assert_eq!(slice_count(4999), 3);
        assert_eq!(slice_count(5000), 5);
        assert_eq!(slice_count(8000), 7);
        // `sessions` (about 40 000 samples).
        assert_eq!(slice_count(40_000), 9);
    }

    #[test]
    fn three_slices_shrug_off_a_burst_in_one() {
        // 1900 samples of 100 with a 600-sample burst of 1 000 at the end.
        let mut samples = vec![100u64; 1900];
        for s in &mut samples[1300..] {
            *s = 1_000;
        }
        assert_eq!(sliced(&samples), (100.0, 100.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[1, 2, 3, 4]), 2);
        assert_eq!(median(&[1, 2, 3]), 2);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
