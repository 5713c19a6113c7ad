//! Order statistics over timing samples, and the metric-name rule.

/// Percentiles the tail metric may report, lowest first.
const TAIL_LADDER: [f64; 3] = [50.0, 90.0, 99.0];

/// Samples that must lie strictly beyond a tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0–100) among `n` samples.
/// The tolerance keeps float error from pushing an exact rank up by one
/// (0.999 × 10 000 is 9990.000000000002).
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending); 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Share of samples dropped from each end by [`trimmed_mean`].
const TRIM: f64 = 0.1;

/// Mean of `samples` without the lowest and the highest tenth; 0 when
/// empty. It moves with the share of time the host spends in each of its
/// speed states, as a mean does, where a median jumps between them; and a
/// few runs caught by a stall cannot move it, as they can a mean.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let k = (s.len() as f64 * TRIM) as usize;
    let kept = &s[k..s.len() - k];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// An ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The tail of a latency distribution: the highest ladder percentile with at
/// least [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used (falls back to the median when even it has too
    /// few samples beyond it).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples in the distribution.
    pub n: usize,
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// [`Tail`] of `samples`.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let pct = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    Tail {
        pct,
        value: percentile(&sorted(samples), pct),
        n,
    }
}

/// Whether `name` is a legal metric name: non-empty, at most 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 19 samples: the median has only 9 beyond it, so the ladder is
        // exhausted and the median is reported.
        assert_eq!(tail(&ramp(19)).pct, 50.0);
        // 20 samples: exactly 10 beyond the median.
        let t = tail(&ramp(20));
        assert_eq!((t.pct, t.value, t.n), (50.0, 10.0, 20));
        // 100 samples: p90 leaves 10, p99 only 1.
        let t = tail(&ramp(100));
        assert_eq!((t.pct, t.value), (90.0, 90.0));
        // 999 samples: p99 leaves 9, so p90 still.
        assert_eq!(tail(&ramp(999)).pct, 90.0);
        // 1000 samples: p99 leaves exactly 10.
        let t = tail(&ramp(1000));
        assert_eq!((t.pct, t.value), (99.0, 990.0));
        // p99 is the top of the ladder.
        assert_eq!(tail(&ramp(100_000)).pct, 99.0);
        // Order of the input does not matter.
        let mut rev = ramp(100);
        rev.reverse();
        assert_eq!(tail(&rev).value, 90.0);
    }

    #[test]
    fn tail_of_nothing_is_zero() {
        assert_eq!(
            tail(&[]),
            Tail {
                pct: 50.0,
                value: 0.0,
                n: 0
            }
        );
    }

    #[test]
    fn percentile_and_trimmed_mean() {
        assert_eq!(percentile(&ramp(10), 50.0), 5.0);
        assert_eq!(percentile(&ramp(10), 0.0), 1.0);
        assert_eq!(percentile(&ramp(10), 100.0), 10.0);
        assert_eq!(trimmed_mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(trimmed_mean(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(trimmed_mean(&[]), 0.0);
        // Ten samples: the lowest and the highest are dropped.
        let mut v = ramp(9);
        v.push(1000.0);
        assert_eq!(trimmed_mean(&v), 5.5);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "wall_s",
            "sched.hadar.p50_us",
            "core.find_alloc.us_per_call",
            "0-9",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "µs", "a:b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
