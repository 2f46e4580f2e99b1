//! Small summary statistics.

/// Nearest-rank percentile `q` (0..=1) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of `(value, weight)` pairs: the smallest value whose
/// cumulative weight reaches half the total.
pub fn weighted_median(xs: &[(f64, f64)]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half = v.iter().map(|(_, w)| w).sum::<f64>() / 2.0;
    let mut acc = 0.0;
    for (x, w) in &v {
        acc += w;
        if acc >= half {
            return *x;
        }
    }
    v.last().map_or(0.0, |(x, _)| *x)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
