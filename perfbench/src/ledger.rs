//! The benchmark's own arithmetic: percentiles with a sample-support rule,
//! failure accounting, and the open-loop schedule. Everything here is pure
//! so the unit tests below can pin it down exactly.

use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise the sample does not support it.
pub const MIN_BEYOND: usize = 10;

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    /// Sorted ascending.
    samples: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Dist { samples }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.samples.len();
        if n == 0 {
            return None;
        }
        // 1-based nearest rank; the samples ranked after it lie beyond it.
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= MIN_BEYOND).then(|| self.samples[rank - 1])
    }

    /// Median (supported whenever there are at least 2·MIN_BEYOND samples).
    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }
}

/// Median of a small set of repeated measurements (set-up repeats, update
/// slices), where the support rule does not apply: these are repeats of one
/// operation, not a latency distribution.
pub fn median_of(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-percentile of each of `windows` equal consecutive parts of
/// `samples` (taken in time order), and the median of those. One stall or
/// burst of noise then moves one window, not the reported number. `None`
/// when any window cannot support the percentile.
pub fn windowed_percentile(samples: &[f64], windows: usize, q: f64) -> Option<f64> {
    window_percentiles(samples, windows, q).map(|v| median_of(&v))
}

/// The `q`-percentile of each of `windows` equal consecutive parts of
/// `samples`; `None` when any part cannot support it.
pub fn window_percentiles(samples: &[f64], windows: usize, q: f64) -> Option<Vec<f64>> {
    let n = samples.len();
    (0..windows)
        .map(|k| Dist::new(samples[n * k / windows..n * (k + 1) / windows].to_vec()).percentile(q))
        .collect()
}

/// Nearest-rank `q`-quantile of a few values (windows, repeats), without
/// the support rule.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1]
}

/// Rates per window: `events` are (time in s, weight); the window
/// `[0, span)` is cut into `windows` equal parts and each part's weight per
/// second is taken. Events outside the span are ignored.
pub fn window_rates(events: &[(f64, f64)], span: f64, windows: usize) -> Vec<f64> {
    let width = span / windows as f64;
    let mut sums = vec![0.0; windows];
    for &(t, w) in events {
        if (0.0..span).contains(&t) {
            sums[((t / width) as usize).min(windows - 1)] += w;
        }
    }
    sums.into_iter().map(|s| s / width).collect()
}

/// Failure accounting over every query the benchmark attempted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Queries sent (or submitted in process).
    pub attempted: u64,
    /// Queries that came back with estimates.
    pub served: u64,
    /// A served batch whose query slot carried an error.
    pub query_errors: u64,
    /// Admission refusals (`Rejected`), except deadline expiry.
    pub rejected: u64,
    /// Client timeouts and server-side deadline expiries.
    pub timeouts: u64,
    /// Transport errors that lost the request.
    pub transport_errors: u64,
    /// Served estimates whose bits differ from the in-process oracle.
    pub mismatches: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.query_errors + self.rejected + self.timeouts + self.transport_errors + self.mismatches
    }

    /// (query errors + rejections + timeouts + mismatches) / attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.served += o.served;
        self.query_errors += o.query_errors;
        self.rejected += o.rejected;
        self.timeouts += o.timeouts;
        self.transport_errors += o.transport_errors;
        self.mismatches += o.mismatches;
    }
}

/// A fixed-rate arrival schedule: request `i` is due at
/// `start + i / rate`, whatever happened to earlier requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "open-loop rate must be positive");
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// Requests due strictly before `start + window`.
    pub fn count_within(&self, window: Duration) -> u64 {
        (window.as_secs_f64() / self.interval.as_secs_f64()).ceil() as u64
    }
}

/// One open-loop request's timing, all relative to its due time, so a
/// stall that delays later sends is charged to them too (no coordinated
/// omission).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// How late the generator sent it (µs, 0 when on time).
    pub late_us: f64,
    /// Due time → last estimate received (µs).
    pub latency_us: f64,
}

impl Timing {
    pub fn new(due: Instant, sent: Instant, done: Instant) -> Self {
        Timing {
            late_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
            latency_us: done.saturating_duration_since(due).as_secs_f64() * 1e6,
        }
    }
}

/// Whether the generator fell further behind as the schedule ran: the
/// median lateness of the last quarter of requests (in due order) exceeds
/// that of the first quarter by more than `slack_us`. A backlog that grows
/// means the offered rate exceeded what the system (or the generator)
/// could sustain, and the latencies describe a queue, not the system.
pub fn backlog_grew(late_us_in_due_order: &[f64], slack_us: f64) -> bool {
    let n = late_us_in_due_order.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = median_of(&late_us_in_due_order[..q]);
    let last = median_of(&late_us_in_due_order[n - q..]);
    last > first + slack_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1..=100: p90 is 90 with exactly 10 samples beyond → supported.
        let d = Dist::new((1..=100).map(f64::from).collect());
        assert_eq!(d.percentile(0.9), Some(90.0));
        // p95 is 95 with 5 beyond → unsupported.
        assert_eq!(d.percentile(0.95), None);
        assert_eq!(d.median(), Some(50.0));
        // p99 needs ≥ 1000 samples.
        let d = Dist::new((1..=999).map(f64::from).collect());
        assert_eq!(d.percentile(0.99), None);
        let d = Dist::new((1..=1000).map(f64::from).collect());
        assert_eq!(d.percentile(0.99), Some(990.0));
        // Order of insertion does not matter.
        let d = Dist::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(d.percentile(0.99), Some(990.0));
        // Tiny sets support no percentile at all, not even the median.
        let d = Dist::new(vec![3.0; 15]);
        assert_eq!(d.median(), None);
        assert_eq!(Dist::new(Vec::new()).median(), None);
    }

    #[test]
    fn windowed_percentile_is_the_median_over_windows() {
        // Three windows of 100 samples; the middle one had a stall.
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        s.extend((1..=100).map(|x| f64::from(x) * 50.0));
        s.extend((1..=100).map(|x| f64::from(x) + 1.0));
        assert_eq!(windowed_percentile(&s, 3, 0.5), Some(51.0));
        assert_eq!(windowed_percentile(&s, 3, 0.9), Some(91.0));
        // Each window must support the percentile on its own.
        assert_eq!(windowed_percentile(&s, 3, 0.95), None);
        // One window over all 300: rank 285, the 16th largest, 50 × 85.
        assert_eq!(windowed_percentile(&s, 1, 0.95), Some(4250.0));
    }

    #[test]
    fn low_quantiles_over_windows_skip_stalled_windows() {
        // Eight windows of 40 samples; two windows were stalled.
        let mut s = Vec::new();
        for w in 0..8 {
            let base = if w == 2 || w == 5 {
                5_000.0
            } else {
                100.0 + w as f64
            };
            s.extend((0..40).map(|i| base + i as f64));
        }
        let p50s = window_percentiles(&s, 8, 0.5).expect("40 samples support p50");
        assert_eq!(p50s.len(), 8);
        assert_eq!(p50s[2], 5_019.0);
        // Rank ceil(0.25 · 8) = 2 of the sorted window medians.
        assert_eq!(quantile_of(&p50s, 0.25), 120.0);
        // Rank ceil(0.1 · 8) = 1: the lowest window median.
        assert_eq!(quantile_of(&p50s, 0.1), 119.0);
        assert_eq!(quantile_of(&[3.0, 1.0, 2.0], 1.0), 3.0);
        // A window too small for its percentile fails the whole set.
        assert_eq!(window_percentiles(&s, 32, 0.5), None);
    }

    #[test]
    fn window_rates_count_per_second() {
        let events = [(0.1, 10.0), (0.4, 5.0), (0.6, 1.0), (1.2, 7.0), (-0.1, 9.0)];
        // Two windows of 0.5 s over [0, 1): 15 and 1 per half second.
        assert_eq!(window_rates(&events, 1.0, 2), vec![30.0, 2.0]);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn error_rate_counts_every_failure_kind() {
        let mut t = Tally {
            attempted: 200,
            served: 194,
            ..Tally::default()
        };
        assert_eq!(t.error_rate(), 0.0);
        t.rejected = 2; // admission refusal
        t.query_errors = 1; // served batch, failed slot
        t.timeouts = 1;
        t.mismatches = 2; // served, but wrong bits
        assert_eq!(t.failed(), 6);
        assert!((t.error_rate() - 0.03).abs() < 1e-12);
        let mut sum = Tally::default();
        sum.add(&t);
        sum.add(&Tally {
            attempted: 100,
            transport_errors: 3,
            ..Tally::default()
        });
        assert_eq!((sum.attempted, sum.failed()), (300, 9));
        assert_eq!(Tally::default().error_rate(), 0.0);
    }

    #[test]
    fn open_loop_times_from_due_not_from_send() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000.0); // one request per ms
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(5), t0 + Duration::from_millis(5));
        assert_eq!(s.count_within(Duration::from_millis(10)), 10);
        // On time: sent at due, answered 200 µs later.
        let on_time = Timing::new(s.due(3), s.due(3), s.due(3) + Duration::from_micros(200));
        assert_eq!(on_time.late_us, 0.0);
        assert!((on_time.latency_us - 200.0).abs() < 1e-6);
        // A stall delayed the send by 700 µs; the answer took 200 µs after
        // the send. The request is charged the 700 µs it waited to go out.
        let due = s.due(4);
        let late = Timing::new(
            due,
            due + Duration::from_micros(700),
            due + Duration::from_micros(900),
        );
        assert!((late.late_us - 700.0).abs() < 1e-6);
        assert!((late.latency_us - 900.0).abs() < 1e-6);
        // A send before its due time (clock jitter) is never negative.
        let early = Timing::new(due, t0, due + Duration::from_micros(50));
        assert_eq!(early.late_us, 0.0);
    }

    #[test]
    fn backlog_growth_compares_first_and_last_quarter() {
        let steady: Vec<f64> = (0..100).map(|i| (i % 7) as f64).collect();
        assert!(!backlog_grew(&steady, 50.0));
        let growing: Vec<f64> = (0..100).map(|i| i as f64 * 10.0).collect();
        assert!(backlog_grew(&growing, 50.0));
        assert!(!backlog_grew(&[1e6; 4], 50.0), "too few samples to judge");
    }
}
