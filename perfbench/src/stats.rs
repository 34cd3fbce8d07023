//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! latency timed from a request's due time, and the load ladder's stop rule.

use std::time::{Duration, Instant};

/// The percentiles a tail is reported at, lowest first. A fixed ladder keeps
/// the reported percentile from drifting with the sample count.
pub const TAIL_RUNGS: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Samples a percentile needs strictly beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples that lie strictly beyond the nearest-rank `q`-quantile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The highest rung of [`TAIL_RUNGS`] with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_rung(n: usize) -> Option<f64> {
    TAIL_RUNGS.iter().rev().copied().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// The whole seconds an open-loop phase at `rate` requests/s must last for
/// its `q`-quantile to have [`MIN_BEYOND`] samples beyond it.
pub fn rung_seconds(rate: f64, q: f64) -> f64 {
    (1..)
        .map(f64::from)
        .find(|&s| beyond((rate * s).round() as usize, q) >= MIN_BEYOND)
        .expect("a long enough phase exists")
}

/// Nearest-rank quantile of an ascending slice; NaN when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        f64::NAN
    } else {
        sorted[rank(sorted.len(), q)]
    }
}

/// The median over `windows` consecutive equal slices of `xs` (in arrival
/// order; a remainder of fewer than `windows` samples is left out) of each
/// slice's nearest-rank `q`-quantile. A stall confined to a few slices moves
/// only their quantiles, not the median; a slower server moves every slice.
pub fn windowed_quantile(xs: &[f64], windows: usize, q: f64) -> f64 {
    let w = xs.len() / windows.max(1);
    if w == 0 {
        return f64::NAN;
    }
    let per: Vec<f64> =
        xs.chunks_exact(w).take(windows).map(|c| quantile_sorted(&sorted(c), q)).collect();
    median(&per)
}

/// Sort a copy of `xs` ascending (failed operations are `+inf` and sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `xs` (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Summary of one series of timings.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The rule's tail percentile ([`tail_rung`]), if the series has one.
    pub tail_q: Option<f64>,
    /// The value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarize `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        let s = sorted(xs);
        let tail_q = tail_rung(s.len());
        Summary {
            n: s.len(),
            p50: quantile_sorted(&s, 0.5),
            tail_q,
            tail: tail_q.map_or(f64::NAN, |q| quantile_sorted(&s, q)),
        }
    }

    /// `n=…, p50=…, p<q>=…` for the run's text output.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail_q {
            Some(q) => format!(
                "n={} p50={:.4}{unit} p{}={:.4}{unit}",
                self.n,
                self.p50,
                q * 100.0,
                self.tail
            ),
            None => format!(
                "n={} p50={:.4}{unit} (no percentile has {MIN_BEYOND} samples beyond it)",
                self.n, self.p50
            ),
        }
    }
}

/// Latency of an open-loop request timed from when it was due: the time the
/// generator spent late (`submitted − due`, zero if it was early) plus the
/// server's submission-to-completion time. A stall thus charges every request
/// queued behind it, not just the one it delayed.
pub fn due_latency(due: Instant, submitted: Instant, service: Duration) -> Duration {
    submitted.saturating_duration_since(due) + service
}

/// One rung of an open-loop load ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered fresh-read rate, requests per second.
    pub rate: f64,
    /// The rung's fresh-read p99 from due time, ms (failures count as `+inf`).
    pub p99_ms: f64,
    /// Requests of this rung submitted during it.
    pub submitted: usize,
    /// Requests of this rung still unanswered when it ended.
    pub outstanding_at_end: usize,
}

impl Rung {
    /// Whether the queue grew during the rung: more were left unanswered at
    /// its end than the pool could be working on plus 5% of the rung's load.
    pub fn backlog_grew(&self, workers: usize) -> bool {
        self.outstanding_at_end > workers + self.submitted / 20
    }

    /// Whether the rung meets the latency limit without a growing backlog.
    pub fn passes(&self, limit_ms: f64, workers: usize) -> bool {
        self.p99_ms <= limit_ms && !self.backlog_grew(workers)
    }
}

/// The highest rate of an ascending ladder reached before the first rung
/// that misses the limit or grows a backlog; 0 when the first rung fails.
pub fn max_passing_rate(rungs: &[Rung], limit_ms: f64, workers: usize) -> f64 {
    rungs.iter().take_while(|r| r.passes(limit_ms, workers)).last().map_or(0.0, |r| r.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rung_needs_ten_samples_beyond() {
        assert_eq!(tail_rung(0), None);
        assert_eq!(beyond(19, 0.5), 9);
        assert_eq!(tail_rung(19), None);
        assert_eq!(beyond(20, 0.5), 10);
        assert_eq!(tail_rung(20), Some(0.5));
        assert_eq!(tail_rung(39), Some(0.5));
        assert_eq!(tail_rung(40), Some(0.75));
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(tail_rung(100), Some(0.9));
        assert_eq!(tail_rung(199), Some(0.9));
        assert_eq!(tail_rung(200), Some(0.95));
        assert_eq!(tail_rung(1000), Some(0.99));
        assert_eq!(tail_rung(999), Some(0.95));
        assert_eq!(tail_rung(10_000), Some(0.999));
    }

    #[test]
    fn rungs_last_until_p99_has_ten_samples_beyond() {
        assert_eq!(rung_seconds(1000.0, 0.99), 1.0);
        assert_eq!(rung_seconds(999.0, 0.99), 2.0);
        assert_eq!(rung_seconds(800.0, 0.99), 2.0);
        assert_eq!(rung_seconds(600.0, 0.99), 2.0);
        assert_eq!(rung_seconds(400.0, 0.99), 3.0);
        assert_eq!(rung_seconds(250.0, 0.99), 4.0);
        assert_eq!(rung_seconds(200.0, 0.99), 5.0);
        for rate in [100.0, 333.0, 400.0, 750.0, 1000.0] {
            let s = rung_seconds(rate, 0.99);
            assert!(beyond((rate * s) as usize, 0.99) >= MIN_BEYOND);
            assert!(beyond((rate * (s - 1.0)) as usize, 0.99) < MIN_BEYOND);
        }
    }

    #[test]
    fn summary_reads_nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail_q, Some(0.9));
        assert_eq!(s.tail, 90.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn windowed_quantile_ignores_a_stall_in_one_window() {
        // Four windows of 10 samples; a stall makes every sample of the
        // third window slow.
        let mut xs: Vec<f64> = (0..40).map(|i| f64::from(i % 10 + 1)).collect();
        xs[20..30].iter_mut().for_each(|x| *x += 100.0);
        assert_eq!(windowed_quantile(&xs, 4, 0.9), 9.0);
        assert_eq!(quantile_sorted(&sorted(&xs), 0.9), 106.0);
        // Slowing every window moves the median with it.
        let slower: Vec<f64> = xs.iter().map(|x| x * 2.0).collect();
        assert_eq!(windowed_quantile(&slower, 4, 0.9), 18.0);
        // A remainder shorter than a window is left out; too few samples
        // for one per window give NaN.
        let mut ys = xs.clone();
        ys.extend([1000.0; 3]);
        assert_eq!(windowed_quantile(&ys, 4, 0.9), 9.0);
        assert!(windowed_quantile(&xs[..3], 4, 0.9).is_nan());
    }

    #[test]
    fn failed_operations_sort_into_the_tail() {
        let mut xs = vec![1.0; 95];
        xs.extend([f64::INFINITY; 5]);
        let s = sorted(&xs);
        assert_eq!(quantile_sorted(&s, 0.95), 1.0);
        assert_eq!(quantile_sorted(&s, 0.99), f64::INFINITY);
    }

    #[test]
    fn due_latency_charges_generator_lateness() {
        let due = Instant::now();
        let late = due + Duration::from_millis(7);
        let service = Duration::from_millis(3);
        assert_eq!(due_latency(due, late, service), Duration::from_millis(10));
        // A request sent before its due time is charged its service time only.
        assert_eq!(due_latency(late, due, service), service);
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        let rung = |rate, p99_ms, outstanding_at_end| Rung {
            rate,
            p99_ms,
            submitted: 400,
            outstanding_at_end,
        };
        let limit = 25.0;
        // Latency over the limit stops the ladder...
        let ladder = [rung(100.0, 5.0, 0), rung(200.0, 9.0, 1), rung(300.0, 40.0, 2)];
        assert_eq!(max_passing_rate(&ladder, limit, 2), 200.0);
        // ...as does a growing backlog, even with a passing p99...
        let ladder = [rung(100.0, 5.0, 0), rung(200.0, 9.0, 2 + 20 + 1), rung(300.0, 9.0, 0)];
        assert!(ladder[1].backlog_grew(2));
        assert_eq!(max_passing_rate(&ladder, limit, 2), 100.0);
        // ...and a later passing rung does not count after a failure.
        let ladder = [rung(100.0, 30.0, 0), rung(200.0, 9.0, 0)];
        assert_eq!(max_passing_rate(&ladder, limit, 2), 0.0);
        // A failed request (+inf) misses any limit.
        assert!(!rung(100.0, f64::INFINITY, 0).passes(limit, 2));
        assert_eq!(max_passing_rate(&[], limit, 2), 0.0);
    }
}
