//! Descriptive statistics used by experiment reporting.
//!
//! Mirrors the paper's statistical treatment: medians and quartiles for the
//! boxplots, 95% confidence intervals for convergence curves (Figs. 5/6),
//! and MAPE for the prediction-error studies (Figs. 9/10).

/// Arithmetic mean; returns `None` for empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Sample standard deviation (n−1 denominator); returns `None` for fewer
/// than two samples.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    Some(var.sqrt())
}

/// Linear-interpolation quantile (`q` in `[0, 1]`); returns `None` for empty
/// input or out-of-range `q`.
///
/// # Examples
///
/// ```
/// use freedom_linalg::stats::quantile;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&xs, 0.5), Some(2.5));
/// assert_eq!(quantile(&xs, 0.0), Some(1.0));
/// assert_eq!(quantile(&xs, 1.0), Some(4.0));
/// ```
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// [`quantile`] computed by selection instead of a full sort: `O(n)`
/// and allocation-free, at the price of permuting `xs`. Returns the
/// same value as `quantile` for NaN-free input (the interpolated order
/// statistics are well-defined regardless of how ties are arranged);
/// use it when the slice is large and its order is disposable.
pub fn quantile_in_place(xs: &mut [f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let (_, &mut lo_val, rest) = xs.select_nth_unstable_by(lo, cmp);
    let hi_val = if hi == lo {
        lo_val
    } else {
        // `hi == lo + 1`: the (lo+1)-th order statistic is the minimum
        // of everything partitioned to the right of `lo`.
        rest.iter().copied().fold(f64::INFINITY, f64::min)
    };
    Some(lo_val * (1.0 - frac) + hi_val * frac)
}

/// [`quantile_in_place`] of a multiset held as `(value, count)` runs in
/// strictly ascending value order, every count positive: `O(runs)`, and
/// bit-identical to expanding the runs and calling `quantile_in_place`
/// — the same two order statistics under the same `lo`/`hi`/`frac`
/// interpolation. Returns `None` for an empty multiset or out-of-range
/// `q`.
///
/// # Examples
///
/// ```
/// use freedom_linalg::stats::{quantile_in_place, quantile_of_runs};
///
/// let runs = [(1.0, 3), (2.5, 1), (4.0, 2)];
/// let mut flat = [1.0, 1.0, 1.0, 2.5, 4.0, 4.0];
/// assert_eq!(quantile_of_runs(&runs, 0.5), quantile_in_place(&mut flat, 0.5));
/// assert_eq!(quantile_of_runs(&[], 0.5), None);
/// ```
pub fn quantile_of_runs(runs: &[(f64, u64)], q: f64) -> Option<f64> {
    let n: u64 = runs.iter().map(|&(_, count)| count).sum();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as u64;
    let hi = pos.ceil() as u64;
    let frac = pos - lo as f64;
    // The k-th order statistic (0-based) is the value of the run that
    // covers position k.
    let nth = |k: u64| {
        let mut covered = 0;
        runs.iter()
            .find(|&&(_, count)| {
                covered += count;
                k < covered
            })
            .expect("positions below the total count lie in some run")
            .0
    };
    let lo_val = nth(lo);
    let hi_val = if hi == lo { lo_val } else { nth(hi) };
    Some(lo_val * (1.0 - frac) + hi_val * frac)
}

/// Median (the 0.5 quantile).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Five-number summary used by the paper's boxplots: median, quartiles, and
/// 1.5×IQR whiskers clamped to the data range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotSummary {
    /// Lower whisker (smallest observation ≥ Q1 − 1.5·IQR).
    pub lo_whisker: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker (largest observation ≤ Q3 + 1.5·IQR).
    pub hi_whisker: f64,
    /// Number of outliers beyond the whiskers.
    pub outliers: usize,
}

/// Computes the paper-style boxplot summary; returns `None` for empty input.
pub fn boxplot(xs: &[f64]) -> Option<BoxplotSummary> {
    let q1 = quantile(xs, 0.25)?;
    let q3 = quantile(xs, 0.75)?;
    let med = median(xs)?;
    let iqr = q3 - q1;
    let lo_fence = q1 - 1.5 * iqr;
    let hi_fence = q3 + 1.5 * iqr;
    let lo_whisker = xs
        .iter()
        .copied()
        .filter(|&x| x >= lo_fence)
        .fold(f64::INFINITY, f64::min);
    let hi_whisker = xs
        .iter()
        .copied()
        .filter(|&x| x <= hi_fence)
        .fold(f64::NEG_INFINITY, f64::max);
    let outliers = xs.iter().filter(|&&x| x < lo_fence || x > hi_fence).count();
    Some(BoxplotSummary {
        lo_whisker,
        q1,
        median: med,
        q3,
        hi_whisker,
        outliers,
    })
}

/// Mean absolute percentage error between actual and predicted values, in
/// percent; returns `None` when lengths differ, input is empty, or an actual
/// value is zero.
///
/// # Examples
///
/// ```
/// use freedom_linalg::stats::mape;
///
/// let actual = [10.0, 20.0];
/// let predicted = [11.0, 18.0];
/// assert_eq!(mape(&actual, &predicted), Some(10.0));
/// ```
pub fn mape(actual: &[f64], predicted: &[f64]) -> Option<f64> {
    if actual.is_empty() || actual.len() != predicted.len() {
        return None;
    }
    let mut total = 0.0;
    for (a, p) in actual.iter().zip(predicted) {
        if *a == 0.0 {
            return None;
        }
        total += ((a - p) / a).abs();
    }
    Some(100.0 * total / actual.len() as f64)
}

/// Half-width of the 95% normal-approximation confidence interval around the
/// mean; returns `None` for fewer than two samples.
pub fn ci95_half_width(xs: &[f64]) -> Option<f64> {
    let sd = std_dev(xs)?;
    Some(1.96 * sd / (xs.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(std_dev(&[1.0]), None);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap() - 2.138).abs() < 1e-3);
    }

    #[test]
    fn quantile_bounds() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[5.0], 0.5), Some(5.0));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quantile_in_place_matches_sorting_quantile() {
        assert_eq!(quantile_in_place(&mut [], 0.5), None);
        assert_eq!(quantile_in_place(&mut [1.0], -0.1), None);
        // Seeded pseudo-random data with duplicates, against the
        // sort-based reference at every breakpoint-straddling q.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for n in [1usize, 2, 3, 7, 64, 257] {
            let xs: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 56) as f64) / 8.0
                })
                .collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 1.0] {
                let expect = quantile(&xs, q).unwrap();
                let got = quantile_in_place(&mut xs.clone(), q).unwrap();
                assert_eq!(got.to_bits(), expect.to_bits(), "n={n}, q={q}");
            }
        }
    }

    #[test]
    fn quantile_of_runs_matches_quantile_in_place() {
        assert_eq!(quantile_of_runs(&[], 0.5), None);
        assert_eq!(quantile_of_runs(&[(1.0, 2)], 1.5), None);
        // Seeded random multisets drawn from few distinct values, so runs
        // are long and the interpolated order statistics often straddle
        // a run boundary.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for n in (1usize..=40).chain([97, 256, 1000]) {
            for distinct in [1u64, 2, 5, 50] {
                let xs: Vec<f64> = (0..n).map(|_| 1.0 + draw(distinct) as f64 / 7.0).collect();
                let mut sorted = xs.clone();
                sorted.sort_by(f64::total_cmp);
                let runs: Vec<(f64, u64)> = sorted
                    .chunk_by(|a, b| a == b)
                    .map(|run| (run[0], run.len() as u64))
                    .collect();
                for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                    let expect = quantile_in_place(&mut xs.clone(), q).unwrap();
                    let got = quantile_of_runs(&runs, q).unwrap();
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "n={n}, distinct={distinct}, q={q}"
                    );
                }
            }
        }
    }

    #[test]
    fn boxplot_flags_outliers() {
        let mut xs = vec![1.0, 2.0, 2.5, 3.0, 3.5, 4.0];
        xs.push(100.0); // an outlier
        let b = boxplot(&xs).unwrap();
        assert_eq!(b.outliers, 1);
        assert!(b.hi_whisker <= 4.0 + 1e-12);
        assert!(b.q1 <= b.median && b.median <= b.q3);
    }

    #[test]
    fn mape_validates_input() {
        assert_eq!(mape(&[], &[]), None);
        assert_eq!(mape(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(mape(&[0.0], &[1.0]), None);
        assert_eq!(mape(&[10.0], &[10.0]), Some(0.0));
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = [1.0, 2.0, 3.0, 4.0];
        let many: Vec<f64> = (0..64).map(|i| 1.0 + (i % 4) as f64).collect();
        assert!(ci95_half_width(&many).unwrap() < ci95_half_width(&few).unwrap());
    }
}
