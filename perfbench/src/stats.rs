//! The benchmark's tail rule. Medians and fixed percentiles use
//! `prepare_metrics::percentile`; the tail needs the exact nearest rank
//! because it counts the samples beyond it.

/// Candidate percentiles for the tail, in tenths of a percent, highest
/// first: 99.9, 99.5, then every whole percentile from 99 down to 50.
fn tail_candidates() -> impl Iterator<Item = u64> {
    [999u64, 995]
        .into_iter()
        .chain((50u64..=99).rev().map(|p| p * 10))
}

/// Zero-based nearest-rank index of percentile `p10` (tenths of a
/// percent) in `n` sorted samples: `ceil(p * n / 100) - 1`, in integer
/// arithmetic so no rounding can move the rank.
fn nearest_rank(p10: u64, n: usize) -> usize {
    let n = n as u64;
    let rank = (p10 * n).div_ceil(1000).max(1);
    (rank - 1) as usize
}

/// Sorts a copy of `values` (NaN-safe total order).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A tail percentile chosen by the benchmark's rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in tenths of a percent (`990` = p99).
    pub p10: u64,
    /// The measured value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Tail {
    /// The percentile as a label, e.g. `p99` or `p99.5`.
    pub fn label(&self) -> String {
        if self.p10.is_multiple_of(10) {
            format!("p{}", self.p10 / 10)
        } else {
            format!("p{}.{}", self.p10 / 10, self.p10 % 10)
        }
    }
}

/// The highest percentile with at least `min_beyond` samples beyond it,
/// or `None` when even the median has fewer.
pub fn tail(values: &[f64], min_beyond: usize) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    tail_candidates().find_map(|p10| {
        let k = nearest_rank(p10, n);
        let beyond = n - 1 - k;
        (beyond >= min_beyond).then(|| Tail {
            p10,
            value: v.get(k).copied().unwrap_or(f64::NAN),
            n,
            beyond,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the functions cannot rely on sorted input.
        (0..n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // (n, percentile chosen, value at its nearest rank)
        let pinned = [
            (1000, 990, 989.0),
            (2000, 995, 1989.0),
            (10_000, 999, 9989.0),
            (250, 960, 239.0),
            (200, 950, 189.0),
            (120, 910, 109.0),
            (100, 900, 89.0),
            // Nearest rank maps p50..p52 to one rank; the highest wins.
            (21, 520, 10.0),
        ];
        for (n, p10, value) in pinned {
            let t = tail(&ramp(n), 10).unwrap();
            assert_eq!((t.p10, t.value, t.n), (p10, value, n), "n = {n}");
            assert!(t.beyond >= 10, "n = {n}");
            // The next-higher candidate would leave fewer than ten beyond.
            if let Some(higher) = tail_candidates().take_while(|&c| c > p10).last() {
                assert!(n - 1 - nearest_rank(higher, n) < 10, "n = {n}");
            }
        }
    }

    #[test]
    fn tail_is_absent_below_twenty_samples() {
        assert_eq!(tail(&ramp(19), 10), None);
        let t = tail(&ramp(20), 10).unwrap();
        assert_eq!((t.label(), t.value, t.beyond), ("p50".to_string(), 9.0, 10));
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn tail_labels_name_the_percentile() {
        let t = tail(&ramp(2000), 10).unwrap();
        assert_eq!(t.label(), "p99.5");
        let t = tail(&ramp(250), 10).unwrap();
        assert_eq!(t.label(), "p96");
    }
}
