//! Order statistics over repeated measurements.

/// Median, quartiles and maximum of a set of repeated measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub max: f64,
    pub n: usize,
}

impl Spread {
    /// Quartiles use the "exclusive" method of Python's
    /// `statistics.quantiles(values, n=4)`; with one value all three
    /// statistics are that value. `None` for an empty set.
    pub fn of(values: &[f64]) -> Option<Spread> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (p25, p75) = match n {
            0 => return None,
            1 => (v[0], v[0]),
            _ => (quartile(&v, 1), quartile(&v, 3)),
        };
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Some(Spread {
            median,
            p25,
            p75,
            max: v[n - 1],
            n,
        })
    }
}

/// The `i`-th of the three cut points of sorted `v` (at least 2 values).
fn quartile(v: &[f64], i: usize) -> f64 {
    let m = v.len() + 1;
    let j = (i * m / 4).clamp(1, v.len() - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v).expect("non-empty");
        assert_eq!(
            (s.p25, s.median, s.p75, s.max, s.n),
            (2.75, 5.5, 8.25, 10.0, 10)
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        let one = Spread::of(&[4.0]).expect("non-empty");
        assert_eq!((one.p25, one.median, one.p75), (4.0, 4.0, 4.0));
        assert!(Spread::of(&[]).is_none());
    }
}
