//! Order statistics shared by the end-to-end and per-layer reports.

/// Median of `v` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest percentile that still has at least [`TAIL_BEYOND`]
/// samples above it: the value, the percentile it sits at, and the
/// sample count it was taken from.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub n: usize,
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// [`Tail`] of `v`. With no more than [`TAIL_BEYOND`] samples there is
/// no such percentile; the maximum stands in and its percentile is 100.
pub fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return Tail::default();
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value: s[n - 1],
            percentile: 100.0,
            n,
        };
    }
    let idx = n - TAIL_BEYOND - 1;
    Tail {
        value: s[idx],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        n,
    }
}

/// The nearest-rank `pct`-th percentile of `v` when at least
/// [`TAIL_BEYOND`] samples lie beyond it, else [`tail`].
pub fn tail_at(v: &[f64], pct: f64) -> Tail {
    let n = v.len();
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < TAIL_BEYOND {
        return tail(v);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(tail(&[5.0, 1.0]).value, 5.0);
    }

    #[test]
    fn tail_at_falls_back_when_too_few_lie_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail_at(&v, 99.0);
        assert_eq!(t.value, 1980.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 20);
        let short: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_at(&short, 99.0).value, tail(&short).value);
    }
}
