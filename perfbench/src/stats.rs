//! Order statistics for latency samples.

/// Percentiles the tail metric may report, lowest first. The ladder is
/// coarse on purpose: each rung covers a wide range of sample counts, so a
/// run that completes one pass more or less keeps its percentile.
pub const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail a run reports: the highest percentile with at least
/// [`TAIL_MIN_BEYOND`] samples strictly above its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile was chosen.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly above the value.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// Picks the tail percentile of `samples`, or `None` when even the median
/// has fewer than [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    tail_by(samples, samples.len())
}

/// [`tail`], choosing the percentile as if only `basis` samples had been
/// taken (and never one with fewer than [`TAIL_MIN_BEYOND`] samples
/// beyond it in `samples` itself). A closed-loop run passes the sample
/// count it always reaches, so that the percentile it reports does not
/// change with how many passes the machine's speed allowed.
pub fn tail_by(samples: &[f64], basis: usize) -> Option<Tail> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let basis = basis.min(s.len());
    TAIL_PERCENTILES.iter().rev().find_map(|&p| {
        let basis_rank = ((p / 100.0) * basis as f64).ceil() as usize;
        if s.is_empty() || basis - basis_rank.min(basis) < TAIL_MIN_BEYOND {
            return None;
        }
        let value = percentile(&s, p);
        let beyond = s.len() - s.partition_point(|&x| x <= value);
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            percentile: p,
            value,
            beyond,
            samples: s.len(),
        })
    })
}
