//! The benchmark's own arithmetic: percentiles, medians, the `max_rps`
//! knee search and the host-counter subtraction. Everything here is pure
//! so the unit tests below pin it without a running stack.

/// Samples that must lie strictly above a reported percentile. A tail
/// percentile resting on fewer samples than this is noise, so
/// [`percentile`] refuses to report it.
pub const MIN_BEYOND: usize = 10;

/// The `q`-th percentile (0 < q < 100) of `sorted` (ascending), by the
/// nearest-rank rule — or `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond that rank.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    if sorted.is_empty() || !(0.0..100.0).contains(&q) {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let beyond = sorted.len() - rank;
    (beyond >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host counters of a set of threads over a measurement window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// CPU time on the processor, nanoseconds.
    pub cpu_ns: u64,
    /// Time spent runnable but waiting for a processor, nanoseconds.
    pub runq_ns: u64,
    /// Voluntary context switches (blocking waits).
    pub ctxsw: u64,
    /// Read-class plus write-class system calls.
    pub syscalls: u64,
}

impl Counters {
    /// Field-wise `self + other`.
    pub fn plus(self, other: Counters) -> Counters {
        Counters {
            cpu_ns: self.cpu_ns + other.cpu_ns,
            runq_ns: self.runq_ns + other.runq_ns,
            ctxsw: self.ctxsw + other.ctxsw,
            syscalls: self.syscalls + other.syscalls,
        }
    }

    /// Field-wise `self - other`, clamped at zero: counters read from
    /// different files at slightly different instants can disagree by a
    /// tick, and a negative cost is never a measurement.
    pub fn minus(self, other: Counters) -> Counters {
        Counters {
            cpu_ns: self.cpu_ns.saturating_sub(other.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(other.runq_ns),
            ctxsw: self.ctxsw.saturating_sub(other.ctxsw),
            syscalls: self.syscalls.saturating_sub(other.syscalls),
        }
    }
}

/// What the stack's threads cost over a window: every thread of the
/// process (`all_end - all_start`) minus the benchmark's own threads
/// (each measured by itself over the same window). Never negative.
pub fn stack_cost(all_start: Counters, all_end: Counters, own: &[Counters]) -> Counters {
    let own_total = own.iter().fold(Counters::default(), |acc, c| acc.plus(*c));
    all_end.minus(all_start).minus(own_total)
}

/// The `max_rps` search: the highest offered rate whose trial met the
/// SLO. Rates grow geometrically until a trial fails (or shrink until
/// one passes), then the gap between the best pass and the lowest
/// failure is bisected geometrically until it is narrower than
/// `resolution` (a ratio, e.g. 1.05).
#[derive(Debug, Clone)]
pub struct KneeSearch {
    growth: f64,
    resolution: f64,
    next: f64,
    best_pass: Option<f64>,
    lowest_fail: Option<f64>,
}

impl KneeSearch {
    /// Start at `start` req/s, stepping by `growth` (> 1).
    pub fn new(start: f64, growth: f64, resolution: f64) -> Self {
        assert!(start > 0.0 && growth > 1.0 && resolution > 1.0);
        KneeSearch {
            growth,
            resolution,
            next: start,
            best_pass: None,
            lowest_fail: None,
        }
    }

    /// The next rate to try, or `None` once the knee is bracketed to the
    /// resolution.
    pub fn next_rate(&self) -> Option<f64> {
        if let (Some(lo), Some(hi)) = (self.best_pass, self.lowest_fail) {
            if hi / lo <= self.resolution {
                return None;
            }
        }
        Some(self.next)
    }

    /// Record the outcome of the trial at `rate`.
    pub fn record(&mut self, rate: f64, pass: bool) {
        if pass {
            self.best_pass = Some(self.best_pass.map_or(rate, |b| b.max(rate)));
        } else {
            self.lowest_fail = Some(self.lowest_fail.map_or(rate, |f| f.min(rate)));
        }
        self.next = match (self.best_pass, self.lowest_fail) {
            (Some(lo), Some(hi)) => (lo * hi).sqrt(),
            (Some(lo), None) => lo * self.growth,
            (None, Some(hi)) => hi / self.growth,
            (None, None) => unreachable!("a trial was just recorded"),
        };
    }

    /// The highest rate that passed so far (0 when none did).
    pub fn best(&self) -> f64 {
        self.best_pass.unwrap_or(0.0)
    }
}

/// FNV-1a, 64-bit: a stable digest for pinning experiment output.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), Some(500));
        assert_eq!(percentile(&v, 99.0), Some(990));
        // 999th rank leaves one sample beyond: not reportable.
        assert_eq!(percentile(&v, 99.9), None);
        let short: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&short, 90.0), Some(90));
        assert_eq!(percentile(&short, 99.0), None);
        // p99 has exactly ten samples beyond it at n = 1000 and nine at
        // n = 999.
        let nine_beyond: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&nine_beyond, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN, 5.0]), Some(5.0));
    }

    fn search(capacity: f64, start: f64) -> (f64, usize) {
        let mut s = KneeSearch::new(start, 1.5, 1.05);
        let mut trials = 0;
        while let Some(rate) = s.next_rate() {
            s.record(rate, rate <= capacity);
            trials += 1;
            assert!(trials < 100, "search must terminate");
        }
        (s.best(), trials)
    }

    #[test]
    fn knee_search_brackets_the_capacity() {
        for capacity in [900.0, 4_000.0, 12_345.0, 60_000.0] {
            for start in [1_000.0, 5_000.0] {
                let (best, _) = search(capacity, start);
                assert!(best <= capacity, "{best} > {capacity}");
                assert!(best * 1.05 >= capacity, "{best} too far below {capacity}");
            }
        }
    }

    #[test]
    fn knee_search_is_monotone_in_capacity() {
        let mut prev = 0.0;
        let mut capacity = 500.0;
        while capacity < 50_000.0 {
            let (best, _) = search(capacity, 2_000.0);
            assert!(best >= prev, "capacity {capacity}: {best} < {prev}");
            prev = best;
            capacity *= 1.013;
        }
    }

    #[test]
    fn knee_search_reports_zero_when_nothing_passes() {
        let mut s = KneeSearch::new(1_000.0, 2.0, 1.05);
        for _ in 0..20 {
            let rate = s.next_rate().expect("no pass yet, keep going down");
            s.record(rate, false);
        }
        assert_eq!(s.best(), 0.0);
    }

    #[test]
    fn stack_cost_is_never_negative() {
        let start = Counters {
            cpu_ns: 1_000,
            runq_ns: 50,
            ctxsw: 10,
            syscalls: 20,
        };
        let end = Counters {
            cpu_ns: 5_000,
            runq_ns: 60,
            ctxsw: 12,
            syscalls: 90,
        };
        let own = [
            Counters {
                cpu_ns: 3_000,
                runq_ns: 40,
                ctxsw: 1,
                syscalls: 30,
            },
            Counters {
                cpu_ns: 2_500,
                runq_ns: 0,
                ctxsw: 0,
                syscalls: 10,
            },
        ];
        let c = stack_cost(start, end, &own);
        assert_eq!(c.cpu_ns, 0, "over-subtraction clamps to zero");
        assert_eq!(c.runq_ns, 0);
        assert_eq!(c.ctxsw, 1);
        assert_eq!(c.syscalls, 30);
        // An end snapshot read before the start snapshot (clock skew
        // between files) still yields zero, not a wrapped huge value.
        assert_eq!(stack_cost(end, start, &[]), Counters::default());
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
