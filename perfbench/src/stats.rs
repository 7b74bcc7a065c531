//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, failure counting, and span self time. Pure functions over plain
//! numbers, so each is tested on synthetic inputs below.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q`% of the
/// samples at or below it.
///
/// # Panics
///
/// Panics if `xs` is empty, holds a NaN, or `q` is outside `(0, 100]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 100.0, "percentile {q} outside (0, 100]");
    let s = sorted(xs);
    s[nearest_rank(s.len(), q).max(1) - 1]
}

/// 1-based nearest rank of the `q`-th percentile among `n` samples
/// (`⌈q·n/100⌉`, with float noise in the product rounded away).
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`-th
/// percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// The percentiles the tail rule chooses from, highest first.
pub const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile above the median that keeps at least ten samples
/// beyond it, or `None` when `n` samples support no tail percentile at all
/// (fewer than 40: even p75 needs 40 samples to leave ten beyond it).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&q| samples_beyond(n, q) >= 10)
}

/// Operations attempted and failed, counted against each other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Operations attempted.
    pub attempted: u64,
    /// Attempted operations that failed a check.
    pub failed: u64,
}

impl Failures {
    /// Counts one attempted operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed share of the attempted operations (0 when none attempted).
    pub fn share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A closed-open time interval `[start, end)` in microseconds.
pub type Interval = (f64, f64);

/// Total length covered by the union of `intervals` (overlaps counted
/// once).
pub fn union_len(intervals: &[Interval]) -> f64 {
    let mut v: Vec<Interval> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<Interval> = None;
    for (s, e) in v {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

/// Self time of `parent`: its duration minus the part of it that the
/// `children` cover (children are clipped to the parent; overlapping
/// children count once).
pub fn self_time(parent: Interval, children: &[Interval]) -> f64 {
    let clipped: Vec<Interval> =
        children.iter().map(|&(s, e)| (s.max(parent.0), e.min(parent.1))).collect();
    (parent.1 - parent.0) - union_len(&clipped)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(xs.iter().all(|x| !x.is_nan()), "NaN sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 1.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 51.0), 5.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        // A run of a few multi-second steps supports no tail percentile.
        assert_eq!(tail_percentile(8), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut f = Failures::default();
        assert_eq!(f.share(), 0.0);
        for ok in [true, false, true, true] {
            f.record(ok);
        }
        assert_eq!(f, Failures { attempted: 4, failed: 1 });
        assert_eq!(f.share(), 0.25);
    }

    #[test]
    fn union_counts_overlaps_once() {
        assert_eq!(union_len(&[]), 0.0);
        assert_eq!(union_len(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(&[(4.0, 5.0), (0.0, 10.0)]), 10.0);
        assert_eq!(union_len(&[(0.0, 1.0), (1.0, 2.0)]), 2.0);
    }

    #[test]
    fn self_time_subtracts_covered_part_only() {
        // Two nested children overlapping each other and one sticking out.
        let parent = (10.0, 20.0);
        let children = [(11.0, 13.0), (12.0, 14.0), (18.0, 25.0), (30.0, 40.0)];
        assert_eq!(self_time(parent, &children), 10.0 - 3.0 - 2.0);
        assert_eq!(self_time(parent, &[]), 10.0);
        assert_eq!(self_time(parent, &[(0.0, 100.0)]), 0.0);
    }
}
