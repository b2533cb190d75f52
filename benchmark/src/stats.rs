//! Sample statistics: the percentile rule, robust medians, and the
//! rate-ladder decision.
//!
//! Percentiles use the nearest-rank definition: the `q`-th percentile
//! of `n` sorted samples is the sample at rank `ceil(q/100 · n)`, and
//! `n − rank` samples lie beyond it. A tail is only reported at a level
//! with at least [`MIN_BEYOND`] samples beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentile levels a timing may be reported at, ascending.
pub const LEVELS: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// Rank (1-based) of the `level`-th percentile among `n` samples.
pub fn rank(n: usize, level: f64) -> usize {
    ((level / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Highest level in [`LEVELS`] (capped at `max_level`) with at least
/// [`MIN_BEYOND`] samples beyond it; `None` when not even the median
/// has.
pub fn tail_level(n: usize, max_level: f64) -> Option<f64> {
    LEVELS
        .iter()
        .copied()
        .rev()
        .find(|&l| l <= max_level && n >= MIN_BEYOND + rank(n, l))
}

/// Nearest-rank percentile of already sorted samples (`NaN` if empty).
pub fn percentile(sorted: &[f64], level: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), level) - 1]
}

/// Median of unsorted values (`NaN` if empty); even counts average the
/// two middle values.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Cuts `(time_ns, value)` samples into consecutive windows of
/// `window_ns` and returns each window's `level` percentile, skipping
/// windows with fewer than [`MIN_BEYOND`] samples.
pub fn window_percentiles(samples: &[(u64, f64)], window_ns: u64, level: f64) -> Vec<f64> {
    let mut per: std::collections::BTreeMap<u64, Vec<f64>> = std::collections::BTreeMap::new();
    for &(t, v) in samples {
        per.entry(t / window_ns.max(1)).or_default().push(v);
    }
    per.into_values()
        .filter(|v| v.len() >= MIN_BEYOND)
        .map(|mut v| {
            v.sort_by(f64::total_cmp);
            percentile(&v, level)
        })
        .collect()
}

/// Events per second in each whole window of `window_ns` from
/// `from_ns` up to `to_ns` (event times in ns).
pub fn window_rates(events: &[u64], from_ns: u64, to_ns: u64, window_ns: u64) -> Vec<f64> {
    let window_ns = window_ns.max(1);
    let n = to_ns.saturating_sub(from_ns) / window_ns;
    (0..n)
        .map(|i| {
            let lo = from_ns + i * window_ns;
            let hi = lo + window_ns;
            let c = events.iter().filter(|&&t| t >= lo && t < hi).count();
            c as f64 * 1e9 / window_ns as f64
        })
        .collect()
}

/// A timing distribution as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at [`Summary::tail_level`].
    pub tail: f64,
    /// The percentile level `tail` was taken at (`NaN` if unsupported).
    pub tail_level: f64,
}

impl Summary {
    /// Summarizes `samples`, reporting the tail at the highest
    /// supported level up to `max_level`.
    pub fn of(samples: &[f64], max_level: f64) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let level = tail_level(s.len(), max_level);
        Summary {
            n: s.len(),
            p50: percentile(&s, 50.0),
            tail: level.map_or(f64::NAN, |l| percentile(&s, l)),
            tail_level: level.unwrap_or(f64::NAN),
        }
    }
}

/// Everything the ladder decision needs from one fixed-rate step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Offered read rate (requests per second).
    pub offered_qps: f64,
    /// Read responses received per second of step time.
    pub achieved_qps: f64,
    /// Read latency at the tail level (µs, from due time).
    pub tail_us: f64,
    /// Reads that failed, were refused, timed out or answered wrong.
    pub failed: usize,
    /// Mean reads outstanding over the step's first half (sampled at
    /// regular intervals).
    pub backlog_early: f64,
    /// Mean reads outstanding over the step's second half.
    pub backlog_late: f64,
    /// Reads sent during the step.
    pub sent: usize,
}

/// Share of the offered rate a passing step must achieve.
pub const ACHIEVED_SHARE: f64 = 0.98;

impl Step {
    /// Whether the mean outstanding-request count of the step's second
    /// half exceeds the first half's by more than a small allowance (1%
    /// of the step's requests, at least 4): a server falling behind an
    /// open-loop schedule accumulates a backlog that grows for the
    /// whole step, while a brief stall only adds a short bump.
    pub fn backlog_grows(&self) -> bool {
        let allowance = (self.sent as f64 / 100.0).max(4.0);
        self.backlog_late > self.backlog_early + allowance
    }

    /// The three conditions of the ladder: tail latency within
    /// `limit_us`, no failures, and the offered rate achieved with no
    /// growing backlog.
    pub fn passes(&self, limit_us: f64) -> bool {
        self.tail_us.is_finite()
            && self.tail_us <= limit_us
            && self.failed == 0
            && self.achieved_qps >= ACHIEVED_SHARE * self.offered_qps
            && !self.backlog_grows()
    }
}

/// The highest offered rate of an ascending ladder that passes, with
/// every lower step passing too (the search stops at the first
/// failure). `0` when even the first step fails.
pub fn ladder_answer(steps: &[Step], limit_us: f64) -> f64 {
    steps
        .iter()
        .take_while(|s| s.passes(limit_us))
        .last()
        .map_or(0.0, |s| s.offered_qps)
}

/// Whether a metric name is valid: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
