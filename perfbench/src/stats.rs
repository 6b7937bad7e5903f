//! Order statistics, the tail-percentile rule, and the modeled-number
//! fingerprint.

/// Nearest-rank percentile (`pct` in `[0, 100]`) of unsorted samples; 0
/// for an empty slice.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[nearest_rank(s.len(), pct) - 1]
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// 1-based nearest rank of `pct` among `n` samples.
fn nearest_rank(n: usize, pct: f64) -> usize {
    // The slack keeps decimal percentiles such as 99.9 from rounding up a
    // rank through binary representation error.
    let rank = pct / 100.0 * n as f64;
    ((rank - 1e-9 * rank.max(1.0)).ceil() as usize).clamp(1, n)
}

/// Percentiles the tail rule may pick, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as measured.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency together with the percentile it was taken at and the
/// sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile picked from [`TAIL_LADDER`].
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Total samples.
    pub samples: usize,
}

/// The highest percentile on [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it; `None` when even the
/// median has fewer (under 20 samples).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    TAIL_LADDER
        .iter()
        .find(|&&p| n >= 1 && n - nearest_rank(n, p) >= TAIL_MIN_BEYOND)
        .map(|&pct| Tail {
            pct,
            value: percentile(samples, pct),
            samples: n,
        })
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// FNV-1a over every `(name, value)` pair, bit-exact in the value: equal
/// fingerprints mean every modeled number repeated exactly.
pub fn fingerprint<'a>(pairs: impl IntoIterator<Item = (&'a str, f64)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, value) in pairs {
        eat(name.as_bytes());
        eat(&[0]);
        eat(&value.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let ramp = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // Under 20 samples not even the median has 10 beyond it.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: p50 (rank 10) leaves exactly 10 beyond; p75 leaves 5.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (50.0, 10.0, 20));
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.pct, t.value), (90.0, 90.0));
        // 200 samples: p95 leaves 10.
        assert_eq!(tail(&ramp(200)).unwrap().pct, 95.0);
        // 1000 samples: p99 leaves 10; p99.9 leaves 1.
        assert_eq!(tail(&ramp(1000)).unwrap().pct, 99.0);
        // 10000 samples: p99.9 leaves 10.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.value), (99.9, 9990.0));
        // Order of the input does not matter.
        let mut shuffled = ramp(100);
        shuffled.reverse();
        assert_eq!(tail(&shuffled).unwrap().value, 90.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn fingerprint_is_bit_exact() {
        let a = fingerprint([("x", 1.0), ("y", 2.0)]);
        assert_eq!(a, fingerprint([("x", 1.0), ("y", 2.0)]));
        assert_ne!(
            a,
            fingerprint([("x", 1.0), ("y", 2.0 + f64::EPSILON * 2.0)])
        );
        assert_ne!(a, fingerprint([("y", 1.0), ("x", 2.0)]));
    }
}
