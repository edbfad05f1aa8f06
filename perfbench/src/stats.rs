//! Small statistics and bookkeeping helpers shared by every workload.

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile, in percent (e.g. 94.4).
    pub percentile: f64,
    /// How many samples the tail was taken from.
    pub samples: usize,
}

/// Selects the tail of `values`, or `None` when there are too few samples
/// to leave [`TAIL_BEYOND`] of them beyond any percentile.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let index = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: v[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    })
}

/// How one unit of work ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitStatus {
    /// Completed and passed every output check.
    Passed,
    /// Completed but failed an output check.
    Failed,
    /// The program refused the input (panicked or returned an error).
    Refused,
    /// The watchdog fired or work was left outstanding.
    Hung,
}

/// Attempted/failed accounting over units, with the first few failure
/// descriptions kept for the log.
#[derive(Debug, Default)]
pub struct Tally {
    /// Units attempted.
    pub attempted: u64,
    /// Units that did not pass (failed, refused or hung).
    pub failed: u64,
    /// Descriptions of the first failures.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records one unit; `why` describes a non-passing unit.
    pub fn record(&mut self, status: UnitStatus, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if status != UnitStatus::Passed {
            self.failed += 1;
            self.error(format!("{status:?}: {}", why()));
        }
    }

    /// Records a check that is not tied to one unit (a round that did not
    /// repeat, a count that drifted).
    pub fn error(&mut self, what: String) {
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    /// Failed units per million attempted.
    pub fn fail_ppm(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 * 1e6 / self.attempted as f64
        }
    }

    /// True when every unit passed and no other check failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.errors.is_empty()
    }
}

/// Whether `name` is a valid metric name: it starts with a letter or
/// digit, has at most 64 characters, and uses only `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Peak resident set size of this process in MiB, from `/proc`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(t.samples, 100);
        assert_eq!(t.value, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
        assert!((t.percentile - 90.0).abs() < 1e-9);
    }

    #[test]
    fn tail_is_order_independent_and_reports_its_count() {
        let mut values: Vec<f64> = (0..37).map(|i| f64::from((i * 17) % 37)).collect();
        let a = tail(&values).unwrap();
        values.reverse();
        assert_eq!(tail(&values), Some(a));
        assert_eq!(a.samples, 37);
        assert_eq!(a.value, 26.0);
        assert!((a.percentile - 100.0 * 27.0 / 37.0).abs() < 1e-9);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 0.0);
        assert_eq!(t.samples, 11);
    }

    #[test]
    fn fail_ppm_counts_refused_and_hung_units_as_failed() {
        let mut t = Tally::default();
        for _ in 0..6 {
            t.record(UnitStatus::Passed, String::new);
        }
        t.record(UnitStatus::Refused, || "panicked".into());
        t.record(UnitStatus::Hung, || "watchdog".into());
        assert_eq!((t.attempted, t.failed), (8, 2));
        assert_eq!(t.fail_ppm(), 250_000.0);
        assert!(!t.correct());
        assert_eq!(t.errors.len(), 2);
        assert!(t.errors[0].starts_with("Refused"));
    }

    #[test]
    fn fail_ppm_is_zero_when_everything_passed() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ppm(), 0.0);
        assert!(!t.correct(), "nothing attempted is not a pass");
        t.record(UnitStatus::Passed, String::new);
        assert_eq!(t.fail_ppm(), 0.0);
        assert!(t.correct());
        t.error("round 2 differed".into());
        assert!(!t.correct(), "a failed non-unit check fails the run");
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in ["work_per_s", "sim.ns_per_event", "a-b.c_9", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "has space", "ünïcode", "a/b", "x:y"] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }
}
