//! Sample summaries: nearest-rank quantiles, medians and means.

/// The nearest-rank `q`-quantile of `samples` (0 for an empty set).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples` (0 for an empty set).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median of the faster half (rounded up) of `times`. Interference
/// from other tenants of a shared host only ever slows a set-up down, so
/// the faster half tracks the program's own cost.
pub fn faster_half_median(times: &[f64]) -> f64 {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.truncate(sorted.len().div_ceil(2));
    median(&sorted)
}

/// Index-wise median over repetitions: element `k` is the nearest-rank
/// median of the repetitions' `k`-th samples (repetitions may differ in
/// length). Every repetition replays identical inputs from an identical
/// state, so sample `k` times the same work in each. The median is
/// chosen over the fastest because a sample can also be shortened by a
/// delay before it: a stream producer held up by the host finds the
/// epoch workers further ahead and waits less at its next seal, so the
/// fastest of several seal waits is often one the host shortened.
pub fn median_per_index(reps: &[Vec<f64>]) -> Vec<f64> {
    per_index(reps, median)
}

fn per_index(reps: &[Vec<f64>], summary: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let len = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .map(|k| {
            let samples: Vec<f64> = reps.iter().filter_map(|r| r.get(k).copied()).collect();
            summary(&samples)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(faster_half_median(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(faster_half_median(&[4.0, 1.0, 3.0, 2.0, 9.0]), 2.0);
        let medians = median_per_index(&[vec![3.0, 1.0, 5.0], vec![2.0, 4.0], vec![9.0, 0.0]]);
        assert_eq!(medians, vec![3.0, 1.0, 5.0]);
        let reps: Vec<Vec<f64>> = (1..=8).map(|k| vec![f64::from(k), 0.0]).collect();
        assert_eq!(median_per_index(&reps), vec![4.0, 0.0]);
    }
}
