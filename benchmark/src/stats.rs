//! Order statistics used for every reported number.

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `q` of the sample at or below it. `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of p99 / p90 / p50 that still has at least ten samples
/// beyond it in a sample of `n`: a tail percentile resting on fewer is one
/// or two outliers, not a percentile.
pub fn tail_quantile(n: usize) -> f64 {
    // in whole per cent: n·(1 − q) in floating point lands just under ten
    [(99, 0.99), (90, 0.90)]
        .into_iter()
        .find(|(pct, _)| n - (n * pct).div_ceil(100) >= 10)
        .map_or(0.50, |(_, q)| q)
}

/// Quartiles by the exclusive method (what Python's
/// `statistics.quantiles(values, n=4)` computes), so spreads printed here
/// read the same as those the driver takes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |k: usize| {
        // position k·(n+1)/4 on a 1-based scale, clamped into the sample
        let pos = (k * (v.len() + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Relative distance between the median of the even-numbered and that of
/// the odd-numbered samples (interleaved, so slow drift hits both alike).
fn split_halves(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let half = |offset: usize| -> f64 {
        let part: Vec<f64> = values.iter().skip(offset).step_by(2).copied().collect();
        quartiles(&part).1
    };
    let (a, b) = (half(0), half(1));
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// A reported value — the median of `n` samples — with their quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// How far the median of the even-numbered samples lies from that of
    /// the odd-numbered ones, as a share of the larger: the run's own
    /// estimate of how well it resolves the value. 0 below four samples.
    pub split: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(values);
        Summary {
            value: median,
            q1,
            q3,
            n: values.len(),
            split: split_halves(values),
        }
    }

    /// A value measured once (a count, a size, a peak).
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }
}

/// Median and tail latency of a workload's operations, in the units of the
/// samples. Repetitions are pooled into groups of at least 1 000
/// operations so that p99 always has ten samples beyond it; each group
/// yields one p50 and one tail value and the summaries run over groups.
/// Returns `(p50, tail, tail quantile used)`.
pub fn latency_summaries(reps: &[Vec<f64>]) -> (Summary, Summary, f64) {
    const GROUP: usize = 1_000;
    let total: usize = reps.iter().map(Vec::len).sum();
    assert!(total > 0, "no operations were timed");
    let q = tail_quantile(total.min(GROUP));
    let mut p50s = Vec::new();
    let mut tails = Vec::new();
    let mut pool: Vec<f64> = Vec::new();
    let mut remaining = total;
    for rep in reps {
        pool.extend_from_slice(rep);
        remaining -= rep.len();
        // close a group once it is full, unless the leftover could not
        // fill another one: then it joins this group
        if pool.len() >= GROUP && (remaining >= GROUP || remaining == 0) {
            pool.sort_by(f64::total_cmp);
            p50s.push(percentile(&pool, 0.50));
            tails.push(percentile(&pool, q));
            pool.clear();
        }
    }
    if !pool.is_empty() {
        pool.sort_by(f64::total_cmp);
        p50s.push(percentile(&pool, 0.50));
        tails.push(percentile(&pool, q));
    }
    (Summary::of(&p50s), Summary::of(&tails), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // between ranks the nearest-rank rule rounds up, never interpolates
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.51), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(999), 0.90);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(99), 0.50);
        assert_eq!(tail_quantile(1), 0.50);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        let s = Summary::of(&v);
        assert_eq!((s.n, s.value), (10, 5.5));
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
        // evens 1,3,5,7,9 against odds 2,4,6,8,10: medians 5 and 6
        assert!((s.split - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0]).split, 0.0);
    }

    #[test]
    fn latency_groups_hold_a_thousand_operations() {
        // 5 repetitions of 400 ops: groups close at 1 200 and at the end
        let reps: Vec<Vec<f64>> = (0..5)
            .map(|r| (0..400).map(|i| (r * 400 + i) as f64).collect())
            .collect();
        let (p50, tail, q) = latency_summaries(&reps);
        assert_eq!(q, 0.99);
        assert_eq!(p50.n, 1, "the 800 left over join the first group");
        assert_eq!(tail.value, 1979.0);
        let reps: Vec<Vec<f64>> = (0..6).map(|_| vec![1.0; 500]).collect();
        assert_eq!(latency_summaries(&reps).0.n, 3);
        // a smoke-sized sample falls back to the median
        assert_eq!(latency_summaries(&[vec![1.0, 2.0, 3.0]]).2, 0.50);
    }
}
