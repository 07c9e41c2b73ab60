//! Order statistics and process memory.

/// Nearest-rank percentile `q` (0..=100) of `xs`; 0 for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "rank is in 1..=len"
    )]
    let rank = ((q / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n % 2 == 1 || n == 0 {
        return percentile(xs, 50.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (v[n / 2 - 1] + v[n / 2]) / 2.0
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&xs), 10.5);
        assert_eq!(median(&xs[..19]), 10.0);
        assert_eq!(percentile(&xs, 95.0), 19.0);
        assert_eq!(percentile(&xs, 100.0), 20.0);
    }
}
