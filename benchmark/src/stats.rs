//! Order statistics for timing samples.

/// What the benchmark prints for one timing: n < 20 everywhere, so no tail
/// percentile is claimed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

pub fn fmin(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

pub fn fmax(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(0.0, f64::max)
}

/// Median of `samples` (mean of the middle two for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(data, n=4)` (method "exclusive"), so a spread
/// computed here agrees with one computed from the printed samples.
/// A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let ld = s.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Signed: the clamp can push `j * 4` past `i * m`.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

pub fn summarize(samples: &[f64]) -> Summary {
    let (q1, q3) = quartiles(samples);
    Summary {
        n: samples.len(),
        min: fmin(samples.iter().copied()),
        q1,
        median: median(samples),
        q3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn summary() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.min, s.median), (5, 1.0, 3.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
    }
}
