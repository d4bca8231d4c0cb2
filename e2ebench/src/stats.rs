//! Sample statistics and the failure ledger every workload reports into.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fewest samples a percentile needs *beyond* it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a timing's tail is read from, highest first.
const LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// The median (mean of the two middle samples for an even count), or
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The nearest-rank `p`-quantile (`0 < p < 1`), refused (`None`) unless
/// at least [`MIN_BEYOND`] samples lie beyond it: a tail percentile read
/// off fewer samples is one outlier, not a distribution.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The highest percentile of the ladder that [`percentile`] accepts,
/// as `(p, value)`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .find_map(|&p| percentile(samples, p).map(|v| (p, v)))
}

/// One line describing a timing: median, tail percentile and sample
/// count, e.g. `p50=1.20 p95=3.40 n=240`.
pub fn describe(samples: &[f64]) -> String {
    let med = median(samples).map_or("-".into(), |m| format!("{m:.4}"));
    let tail = tail(samples).map_or("tail=- (too few samples)".into(), |(p, v)| {
        format!("p{}={v:.4}", p * 100.0)
    });
    format!("p50={med} {tail} n={}", samples.len())
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted and failed — points for batch workloads, jobs
/// for the service — with a note per failure. A panic or an output that
/// fails a check makes its operations failed.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ledger {
    /// Runs `f` as `ops` operations, catching a panic: a panic counts
    /// every operation as failed and yields `None`.
    pub fn guard<R>(&mut self, ops: u64, what: &str, f: impl FnOnce() -> R) -> Option<R> {
        self.attempted += ops;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".into());
                self.fail(ops, format!("{what} panicked: {msg}"));
                None
            }
        }
    }

    /// Counts `ops` already-attempted operations as failed.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.problems.len() < 32 {
            self.problems.push(why);
        }
    }

    /// Checks an output: a mismatch fails `ops` operations.
    pub fn check(&mut self, ok: bool, ops: u64, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(ops, why());
        }
    }

    /// Failed over attempted operations (`failed_frac`); never above 1.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed.min(self.attempted) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
        assert_eq!(percentile(&xs[..199], 0.95), None, "9 beyond p95 of 199");
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(tail(&xs), Some((0.95, 190.0)));
        assert_eq!(tail(&xs[..40]), Some((0.75, 30.0)));
        assert_eq!(tail(&xs[..39]), None);
    }

    #[test]
    fn median_is_defined_for_any_count() {
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failed_frac_counts_panics_and_mismatches() {
        let mut ledger = Ledger::default();
        assert_eq!(ledger.guard(6, "healthy", || 7), Some(7));
        assert_eq!(ledger.failed_frac(), 0.0);
        let caught = ledger.guard(2, "doomed", || -> u32 { panic!("boom") });
        assert_eq!(caught, None);
        ledger.check(true, 1, || unreachable!());
        ledger.check(false, 2, || "reports differ".into());
        assert_eq!((ledger.attempted, ledger.failed), (8, 4));
        assert_eq!(ledger.failed_frac(), 0.5);
        assert!(ledger.problems[0].contains("doomed panicked: boom"));
        assert_eq!(ledger.problems[1], "reports differ");
    }
}
