//! Order statistics for latency samples and for per-trial values.

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`); 0 when
/// empty. Nearest-rank never invents a latency nobody observed.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them, because that is what the acceptance
/// check computes its spreads with. One value is its own three quartiles;
/// none gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    match len {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nanoseconds to microseconds, as a float.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.90), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.9), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // p90 of 20 samples leaves two beyond it.
        let w: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&w, 0.90), 18);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6], n=4) == [1.75, 3.5, 5.25]
        assert_eq!(
            quartiles(&[6.0, 1.0, 4.0, 2.0, 5.0, 3.0]),
            (1.75, 3.5, 5.25)
        );
        // statistics.quantiles([10,20,30,40,50,60,70,80,90,100], n=4)
        //   == [27.5, 55.0, 82.5]
        let ten: Vec<f64> = (1..=10).map(|i| i as f64 * 10.0).collect();
        assert_eq!(quartiles(&ten), (27.5, 55.0, 82.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn median_of_trials_ignores_one_bad_trial() {
        assert_eq!(median(&[800.0, 805.0, 2400.0, 799.0, 803.0]), 803.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }
}
