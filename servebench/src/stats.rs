//! Order statistics the benchmark reports.
//!
//! - Percentiles use the nearest-rank rule, so a reported p99 is a
//!   sample that was actually observed.
//! - Quartiles follow the `exclusive` method of Python's
//!   `statistics.quantiles(values, n=4)`, so the spread this benchmark
//!   prints is the spread a reader recomputes from its output.
//! - Closed loops are summarised per fixed-length window of wall time:
//!   each window's completed queries over its span, its median call and
//!   its share of steady calls. Throughput and latency are medians over
//!   windows, so one stalled window is an outlier rather than a shift,
//!   while a cost paid by any share of the calls moves every window.

/// The nearest-rank `p`-th percentile (`0 ≤ p ≤ 100`) of an ascending
/// slice: the smallest sample with at least `p` percent of the samples
/// at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `[0, 100]`.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    // The epsilon keeps products like 99.9 % × 1000 from rounding up
    // past the exact rank.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (the mean of the middle two for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The three cut points that split `values` into quarters, as
/// Python's `statistics.quantiles(values, n=4)` computes them with its
/// default `exclusive` method.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = data.len();
    if n == 1 {
        return [data[0]; 3];
    }
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..4).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: the clamp can move `j` past `i·m / 4`.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    cuts
}

/// A closed-loop call counts as steady when it returned correct output
/// within this multiple of its window's median call time.
pub const STEADY_FACTOR: f64 = 2.0;

/// One closed window of a closed loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Queries completed correctly over the wall time the window
    /// spanned: every call counts, however slow, and so does the
    /// caller's own work between calls.
    pub rate: f64,
    /// Median time of the window's correct calls (NaN when it has none).
    pub median_ns: f64,
    /// Calls that returned in the window.
    pub calls: u64,
    /// Of those, the correct ones within [`STEADY_FACTOR`] × `median_ns`.
    pub steady: u64,
}

/// Closed-loop figures, kept per window of at least `window_ns` of wall
/// time so that a phase stores nothing per call and its memory does not
/// grow with the host's speed. A window closes with the first call that
/// returns `window_ns` or more after the previous window closed (or the
/// phase began). A trailing window shorter than `window_ns` is dropped
/// unless it is the only one.
#[derive(Debug)]
pub struct Windows {
    window_ns: u64,
    opened_ns: u64,
    last_end_ns: u64,
    queries: u64,
    calls: u64,
    /// Times of the open window's correct calls; reused across windows.
    ok_ns: Vec<f64>,
    closed: Vec<Window>,
}

impl Windows {
    pub fn new(window_ns: u64) -> Self {
        Self {
            window_ns,
            opened_ns: 0,
            last_end_ns: 0,
            queries: 0,
            calls: 0,
            ok_ns: Vec::with_capacity(4096),
            closed: Vec::new(),
        }
    }

    /// Books a call that returned `end_ns` after the phase began, spent
    /// `busy_ns` inside the engine, and completed `ok` queries correctly
    /// (`None` when it failed or returned wrong output).
    pub fn push(&mut self, end_ns: u64, busy_ns: u64, ok: Option<u64>) {
        self.calls += 1;
        self.last_end_ns = end_ns;
        if let Some(queries) = ok {
            self.queries += queries;
            self.ok_ns.push(busy_ns as f64);
        }
        if end_ns >= self.opened_ns + self.window_ns {
            self.close();
        }
    }

    fn close(&mut self) {
        let span_ns = (self.last_end_ns - self.opened_ns).max(1);
        let median_ns = if self.ok_ns.is_empty() {
            f64::NAN
        } else {
            median(&self.ok_ns)
        };
        let limit = STEADY_FACTOR * median_ns;
        self.closed.push(Window {
            rate: self.queries as f64 * 1e9 / span_ns as f64,
            median_ns,
            calls: self.calls,
            steady: self.ok_ns.iter().filter(|&&ns| ns <= limit).count() as u64,
        });
        self.opened_ns = self.last_end_ns;
        (self.queries, self.calls) = (0, 0);
        self.ok_ns.clear();
    }

    /// The closed windows, or the one partial window when none closed.
    pub fn finish(mut self) -> Vec<Window> {
        if self.closed.is_empty() && self.calls > 0 {
            self.close();
        }
        self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&hundred, 0.0), 1);
        assert_eq!(percentile_sorted(&hundred, 50.0), 50);
        assert_eq!(percentile_sorted(&hundred, 99.0), 99);
        assert_eq!(percentile_sorted(&hundred, 100.0), 100);
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&thousand, 99.9), 999);
        assert_eq!(percentile_sorted(&[7u64], 99.9), 7);
        // Ranks round up: the p50 of four samples is the second.
        assert_eq!(percentile_sorted(&[1u64, 2, 3, 4], 50.0), 2);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty_samples() {
        percentile_sorted::<u64>(&[], 50.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[3.0]), [3.0; 3]);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// The windows of `n` back-to-back correct calls of `busy_ns` each,
    /// `queries` apiece, with `gap_ns` of caller-side work between them.
    fn windows(n: u64, busy_ns: u64, gap_ns: u64, queries: u64) -> Vec<Window> {
        windows_of(&vec![busy_ns; n as usize], gap_ns, queries)
    }

    fn windows_of(busy_ns: &[u64], gap_ns: u64, queries: u64) -> Vec<Window> {
        let mut w = Windows::new(100_000_000);
        let mut end_ns = 0;
        for &busy in busy_ns {
            end_ns += busy + gap_ns;
            w.push(end_ns, busy, Some(queries));
        }
        w.finish()
    }

    fn rates(windows: &[Window]) -> Vec<f64> {
        windows.iter().map(|w| w.rate).collect()
    }

    #[test]
    fn window_rates_count_wall_time() {
        // 10 ms calls of 1,000 queries, 10 ms apart: 100 ms windows hold
        // 5 calls, and the caller's gaps count.
        let w = windows(50, 10_000_000, 10_000_000, 1_000);
        assert_eq!(w.len(), 10);
        assert!(w.iter().all(|w| (w.rate - 50_000.0).abs() < 1e-6), "{w:?}");
        assert!(w.iter().all(|w| w.median_ns == 10e6 && w.steady == 5));
    }

    #[test]
    fn window_rates_drop_a_short_trailing_window() {
        // 25 calls of 10 ms fill two 100 ms windows; the last 5 calls
        // (50 ms) are dropped.
        let w = windows(25, 10_000_000, 0, 1);
        assert_eq!(rates(&w), vec![100.0, 100.0]);
        assert_eq!(w.iter().map(|w| w.calls).sum::<u64>(), 20);
        // A run shorter than one window still yields its one rate.
        assert_eq!(rates(&windows(3, 10_000_000, 0, 1)), vec![100.0]);
        assert!(windows(0, 10_000_000, 0, 1).is_empty());
    }

    #[test]
    fn a_slow_minority_of_calls_moves_every_window_rate() {
        // One call in five 10× slower: each window completes 5 calls in
        // 14 fast-call times instead of 5, so the rate falls 2.8×, while
        // the median call and the p50 do not move.
        let busy: Vec<u64> = (0..500)
            .map(|i| if i % 5 == 4 { 10_000_000 } else { 1_000_000 })
            .collect();
        let slow = windows_of(&busy, 0, 1_000);
        let fast = windows(500, 1_000_000, 0, 1_000);
        let (slow_qps, fast_qps) = (median(&rates(&slow)), median(&rates(&fast)));
        assert!(
            (fast_qps / slow_qps - 2.8).abs() < 0.1,
            "{fast_qps} / {slow_qps}"
        );
        assert!(slow.iter().all(|w| w.median_ns == 1e6));
        // The slow calls are the unsteady ones.
        let steady: u64 = slow.iter().map(|w| w.steady).sum();
        let calls: u64 = slow.iter().map(|w| w.calls).sum();
        let share = steady as f64 / calls as f64;
        assert!((share - 0.8).abs() < 0.01, "{share}");
    }

    #[test]
    fn failed_calls_complete_nothing_and_are_never_steady() {
        let mut w = Windows::new(100);
        w.push(40, 40, Some(10));
        w.push(80, 40, None);
        w.push(120, 40, Some(10));
        assert_eq!(
            w.finish(),
            vec![Window {
                rate: 20.0 * 1e9 / 120.0,
                median_ns: 40.0,
                calls: 3,
                steady: 2,
            }]
        );
    }
}
