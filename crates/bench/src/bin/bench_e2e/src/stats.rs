//! Order statistics, the regression-bound rule, and output digests.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, bytes, counts of work).
    Lower,
    /// Larger values are better (throughput, quality).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json` and the reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Nearest-rank `p`-th percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100).clamp(1, n);
    sorted[rank - 1]
}

/// The tail percentile reported for `n` samples: the highest percentile
/// above the median with at least ten samples beyond it (nearest rank), or
/// `None` when `n` is too small for any — then only the median is reported.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (51..=99)
        .rev()
        .find(|&p| n.saturating_sub((p as usize * n).div_ceil(100)) >= 10)
}

/// Median and tail (at `tail_p`, when given) of unsorted samples.
pub fn median_and_tail(samples: &[f64], tail_p: Option<u32>) -> (f64, Option<f64>) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return (0.0, None);
    }
    (
        percentile(&sorted, 50),
        tail_p.map(|p| percentile(&sorted, p)),
    )
}

/// Quartiles `[q1, median, q3]` of unsorted, non-empty samples, computed the
/// way Python's `statistics.quantiles(values, n=4)` does (the "exclusive"
/// method), so the reports agree with a Python reading of the same runs.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Whether `new` is worse than `base` by more than the allowance: the larger
/// of `bound × |base|` and the absolute `floor` (which keeps sub-millisecond
/// timings from tripping on scheduler noise).
pub fn regressed(better: Better, bound: f64, floor: f64, base: f64, new: f64) -> bool {
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    worse_by > (bound * base.abs()).max(floor)
}

/// A value for a report line: four decimals, or four significant digits in
/// scientific notation for small magnitudes (setup times are microseconds).
pub fn show(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// FNV-1a over 64-bit words: a stable digest of clusterings and checkpoint
/// bytes, identical across runs, platforms and processes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_tail() {
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(178), Some(94));
        for n in 0..11 {
            assert_eq!(tail_percentile(n), None, "n = {n} reports the median only");
        }
        // more samples push the tail further out
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 94), 7.0);
        let (m, t) = median_and_tail(&[3.0, 1.0, 2.0], tail_percentile(3));
        assert_eq!((m, t), (2.0, None));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3], n=4)
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), [1.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[2.0]), [2.0; 3]);
    }

    #[test]
    fn bounds_respect_direction_and_floor() {
        // lower is better: 10% of 100 ms allows up to 110 ms
        assert!(!regressed(Better::Lower, 0.10, 0.0, 100.0, 110.0));
        assert!(regressed(Better::Lower, 0.10, 0.0, 100.0, 110.5));
        assert!(!regressed(Better::Lower, 0.10, 0.0, 100.0, 50.0));
        // higher is better: throughput may fall 10%
        assert!(!regressed(Better::Higher, 0.10, 0.0, 1000.0, 900.0));
        assert!(regressed(Better::Higher, 0.10, 0.0, 1000.0, 899.0));
        assert!(!regressed(Better::Higher, 0.10, 0.0, 1000.0, 5000.0));
        // the absolute floor wins for tiny values: 0.1 ms → 0.5 ms is noise
        assert!(!regressed(Better::Lower, 0.10, 0.5, 0.1, 0.5));
        assert!(regressed(Better::Lower, 0.10, 0.5, 0.1, 0.7));
        // a zero bound gates exactly
        assert!(regressed(Better::Lower, 0.0, 0.0, 0.0, 1e-9));
        assert!(!regressed(Better::Lower, 0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let d = |xs: &[u64]| {
            let mut h = Digest::default();
            xs.iter().for_each(|&x| h.word(x));
            h.finish()
        };
        assert_eq!(d(&[1, 2]), d(&[1, 2]));
        assert_ne!(d(&[1, 2]), d(&[2, 1]));
    }
}
