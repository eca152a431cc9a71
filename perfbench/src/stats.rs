//! Sample statistics shared by every workload: nearest-rank
//! percentiles, the tail-percentile rule, self time, and failure shares.

/// The `p`-th percentile (0..=100) of an ascending sample by nearest
/// rank; `None` on an empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly beyond the nearest-rank position of `p`.
fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Percentiles the tail rule may pick, highest first.
const TAIL_CANDIDATES: [f64; 3] = [99.0, 95.0, 90.0];

/// A tail value together with how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used (99, 95 or 90).
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
    /// Samples beyond the chosen rank (fewer than ten only when even
    /// p90 could not leave ten, in which case p90 is used anyway).
    pub beyond: usize,
}

/// The highest of p99, p95 and p90 that leaves at least ten samples
/// beyond it (p90 when none does); `None` on an empty sample.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let percentile = TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
        .unwrap_or(90.0);
    Some(Tail {
        percentile,
        value: nearest_rank(sorted, percentile)?,
        samples: n,
        beyond: beyond(n, percentile),
    })
}

/// Sorts a sample ascending (total order; the samples are finite).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of an unsorted sample (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    nearest_rank(&sorted(v.to_vec()), 50.0).unwrap_or(0.0)
}

/// Arithmetic mean (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// covered by the union of its children's intervals (children may
/// overlap each other or stick out of the parent; both are clipped).
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// Operation outcomes of one run. Everything that did not succeed —
/// a failed operation, a refused one, or one whose output was wrong —
/// counts against the operations attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed outright (transport or protocol error).
    pub failed: u64,
    /// Operations the system refused (admission backpressure).
    pub rejected: u64,
    /// Operations that completed with a wrong output.
    pub wrong: u64,
}

impl Outcomes {
    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Outcomes) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.wrong += other.wrong;
    }

    /// Every operation that did not succeed.
    pub fn bad(&self) -> u64 {
        self.failed + self.rejected + self.wrong
    }

    /// `bad / attempted` (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        ratio(self.bad() as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[7.0], 50.0), Some(7.0));
        let s = ramp(100);
        assert_eq!(nearest_rank(&s, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&s, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        // 5 samples: p50 is rank ceil(2.5) = 3.
        assert_eq!(nearest_rank(&ramp(5), 50.0), Some(3.0));
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 leaves 9, p95 (rank 950) leaves 49.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 950.0, 49));
        // 150 samples: p95 rank 143 leaves 7, p90 rank 135 leaves 15.
        let t = tail(&ramp(150)).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 135.0));
        // Too few for any: p90 anyway, flagged by `beyond`.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 18.0, 2, 20)
        );
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // Nested children count once.
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children sticking out of the parent are clipped.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        // A child covering everything leaves nothing.
        assert_eq!(self_time((10, 20), &[(0, 40)]), 0);
        // Unsorted input.
        assert_eq!(self_time((0, 10), &[(6, 8), (1, 3)]), 6);
    }

    #[test]
    fn failed_share_counts_failed_rejected_and_wrong() {
        let mut o = Outcomes {
            attempted: 10,
            failed: 1,
            ..Outcomes::default()
        };
        o.merge(Outcomes {
            attempted: 10,
            rejected: 2,
            wrong: 1,
            ..Outcomes::default()
        });
        assert_eq!(o.bad(), 4);
        assert_eq!(o.failed_share(), 0.2);
        assert_eq!(Outcomes::default().failed_share(), 0.0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
