//! Order statistics used by the runs and by `compare`.
//!
//! A failed operation enters a latency sample as `f64::INFINITY`: it misses
//! every latency limit, so it sorts above every successful one.

/// Nearest-rank percentile (`p` in `(0, 100]`): the smallest sample with at
/// least `p`% of the samples at or below it. `None` on an empty sample.
pub fn nearest_rank(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Windows a timed sample is cut into by [`windowed`].
pub const WINDOWS: usize = 10;

/// Median over [`WINDOWS`] equal time windows of `[0, span)` of each
/// window's nearest-rank `p`-th percentile. `samples` are `(time, value)`.
/// A stall caused by a neighbour on a shared host lifts the tail of the one
/// or two windows it falls in; the median window does not move with it, so
/// the statistic tracks the program rather than its neighbours.
pub fn windowed(samples: &[(f64, f64)], span: f64, p: f64) -> Option<f64> {
    let mut windows = vec![Vec::new(); WINDOWS];
    for &(t, v) in samples {
        let w = (t / span * WINDOWS as f64).max(0.0) as usize;
        windows[w.min(WINDOWS - 1)].push(v);
    }
    let per: Vec<f64> = windows.iter().filter_map(|w| nearest_rank(w, p)).collect();
    median(&per)
}

/// Conventional median (mean of the two middle samples on an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    Some(q[1])
}

/// Quartiles `[q1, q2, q3]` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so the spreads this binary reports
/// are the ones a Python reader computes from the same values. A single
/// sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return None,
        1 => return Some([v[0]; 3]),
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some(if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&[4.0], 1.0), Some(4.0));
        assert_eq!(nearest_rank(&[4.0], 100.0), Some(4.0));
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 99.5), Some(100.0));
        // p99 of fewer than 100 samples is the maximum.
        assert_eq!(nearest_rank(&[1.0, 3.0, 2.0], 99.0), Some(3.0));
        // A failure sorts last and owns the tail.
        assert_eq!(
            nearest_rank(&[1.0, f64::INFINITY, 2.0], 99.0),
            Some(f64::INFINITY)
        );
        assert_eq!(nearest_rank(&[1.0, f64::INFINITY, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 10], n=4) == [1.25, 2.5, 8.25]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0]), Some([1.25, 2.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn windowed_tail_ignores_a_stall_in_one_window() {
        // 1000 samples over 10 s; window 3 holds a stall.
        let samples: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                let t = i as f64 / 100.0;
                let v = if (3.0..4.0).contains(&t) {
                    50.0
                } else {
                    1.0 + (i % 100) as f64 / 100.0
                };
                (t, v)
            })
            .collect();
        assert_eq!(
            nearest_rank(&samples.iter().map(|s| s.1).collect::<Vec<_>>(), 99.0),
            Some(50.0)
        );
        assert_eq!(windowed(&samples, 10.0, 99.0), Some(1.98));
        // Samples past the span land in the last window; empty windows are
        // skipped; no samples, no value.
        assert_eq!(windowed(&[(12.0, 3.0)], 10.0, 99.0), Some(3.0));
        assert_eq!(windowed(&[], 10.0, 99.0), None);
    }

    #[test]
    fn relative_iqr_edges() {
        assert_eq!(relative_iqr(&[]), None);
        assert_eq!(relative_iqr(&[5.0, 5.0, 5.0]), Some(0.0));
        assert_eq!(relative_iqr(&[0.0, 0.0]), Some(0.0));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_iqr(&v), Some((8.25 - 2.75) / 5.5));
    }
}
