//! Hot-path benchmark harness with a committed trajectory.
//!
//! The repository keeps a record of hot-path medians in
//! `BENCH_net_hotpath.json` at the workspace root. The schema is
//!
//! ```json
//! {
//!   "schema": "qic-hotpath-bench/v1",
//!   "tolerance_pct": 15,
//!   "benches": {
//!     "net_sim_one_comm_4x4": [
//!       { "median_ns": 2670.4, "samples": 15, "date": "2026-08-08",
//!         "git_rev": "9a5d8f3", "note": "pre-optimization" }
//!     ]
//!   }
//! }
//! ```
//!
//! Each bench name maps to a **history** (oldest first); the last entry
//! is the current baseline. `cargo run --release -p qic-bench --bin
//! bench_gate -- --record "<note>"` measures every hot-path bench and
//! appends a new entry; a plain `bench_gate` run (CI's `bench-gate`
//! step, usually with `QIC_BENCH_QUICK=1`) re-measures and fails if any
//! median regressed more than [`TOLERANCE_PCT`] percent against the
//! baseline.
//!
//! [`measure`] runs a warm-up pass that sizes a batch, then a fixed
//! number of timed batches, and reports the median batch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration as WallDuration, Instant};

use qic_des::json::{record, Field, Json};

/// Regression tolerance, in percent, applied by [`gate`].
pub const TOLERANCE_PCT: f64 = 15.0;

/// Name of the machine-speed yardstick bench: a fixed-work integer
/// loop with no dependence on simulator code. [`gate`] divides every
/// current median by `current_calibration / baseline_calibration`
/// (clamped to ≥ 1), so a uniformly slower machine — CPU throttling, a
/// busy shared runner — does not fail the gate, while a real per-bench
/// regression still does. On a *faster* machine the clamp keeps raw
/// numbers, which can only make the gate stricter.
pub const CALIBRATION_BENCH: &str = "calibration_spin";

/// The largest machine-speed scale [`gate`] accepts. A yardstick slower
/// than this against its baseline is a noise spike, not a steady host
/// offset: dividing by it would pass every bench as "improved", so the
/// gate reports it as a regression and the caller re-measures.
pub const MAX_CALIBRATION_SCALE: f64 = 1.5;

/// The calibration workload: a serial chain of 256 multiply/xor-shift
/// steps. The seed must be [`black_box`](std::hint::black_box)ed by
/// the caller; the xor-shift makes each step non-affine, so the loop
/// cannot be folded into one composed transform (a plain LCG chain
/// can — LLVM composes affine steps), and the serial dependency chain
/// keeps the timing a pure function of core speed.
#[inline]
pub fn calibration_spin(seed: u64) -> u64 {
    let mut x = seed;
    for _ in 0..256 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x ^= x >> 29;
    }
    x
}

/// Schema identifier written to / expected in the baseline file.
pub const SCHEMA: &str = "qic-hotpath-bench/v1";

/// Baseline file name, resolved against the workspace root.
pub const BASELINE_FILE: &str = "BENCH_net_hotpath.json";

/// One recorded measurement of one bench.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Number of timed batches the median was taken over.
    pub samples: u32,
    /// ISO-8601 date (UTC) the entry was recorded.
    pub date: String,
    /// Short git revision the entry was recorded at.
    pub git_rev: String,
    /// Free-form annotation (e.g. `"pre-optimization"`).
    pub note: String,
}

/// The committed file's fields, as [`Trajectory::parse`] reads them.
/// `tolerance_pct` is read and ignored: [`gate`] applies [`TOLERANCE_PCT`].
struct Document {
    schema: String,
    tolerance_pct: f64,
    benches: BTreeMap<String, Vec<BenchEntry>>,
}

record! {
    Document "trajectory" { schema, #[optional] tolerance_pct, benches }
    BenchEntry "entry" { median_ns, samples, date, git_rev, note }
}

/// The committed trajectory: bench name → history, oldest first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trajectory {
    /// Per-bench histories, keyed by bench name (sorted for stable JSON).
    pub benches: BTreeMap<String, Vec<BenchEntry>>,
}

impl Trajectory {
    /// The current baseline for `name`: the last recorded entry.
    pub fn baseline(&self, name: &str) -> Option<&BenchEntry> {
        self.benches.get(name).and_then(|h| h.last())
    }

    /// Appends `entry` to the history of `name`.
    pub fn record(&mut self, name: &str, entry: BenchEntry) {
        self.benches
            .entry(name.to_string())
            .or_default()
            .push(entry);
    }

    /// Serializes to the committed JSON format (pretty, sorted keys,
    /// trailing newline) so diffs stay minimal.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"tolerance_pct\": {TOLERANCE_PCT},");
        out.push_str("  \"benches\": {\n");
        let n = self.benches.len();
        for (i, (name, history)) in self.benches.iter().enumerate() {
            let _ = writeln!(out, "    {}: [", Json::Str(name.clone()).emit());
            for (j, e) in history.iter().enumerate() {
                let _ = write!(
                    out,
                    "      {{ \"median_ns\": {}, \"samples\": {}, \"date\": {}, \"git_rev\": {}, \"note\": {} }}",
                    Json::Float(e.median_ns).emit(),
                    e.samples,
                    Json::Str(e.date.clone()).emit(),
                    Json::Str(e.git_rev.clone()).emit(),
                    Json::Str(e.note.clone()).emit(),
                );
                out.push_str(if j + 1 < history.len() { ",\n" } else { "\n" });
            }
            out.push_str(if i + 1 < n { "    ],\n" } else { "    ]\n" });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses the committed JSON format.
    ///
    /// # Errors
    ///
    /// Returns a message if the text is not valid JSON, does not carry
    /// the expected [`SCHEMA`] marker and field types, or has an unknown
    /// or duplicate field.
    pub fn parse(text: &str) -> Result<Trajectory, String> {
        let doc = Json::parse(text)
            .and_then(|v| Document::decode(&v, "trajectory"))
            .map_err(|e| e.to_string())?;
        if doc.schema != SCHEMA {
            return Err(format!("unexpected schema marker {:?}", doc.schema));
        }
        Ok(Trajectory {
            benches: doc.benches,
        })
    }
}

/// Whether quick mode is requested (`QIC_BENCH_QUICK=1`): shorter
/// warm-ups and fewer samples, for the CI gate.
pub fn quick_mode() -> bool {
    std::env::var("QIC_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Times `inner`: a warm-up pass sizes a batch (~2 ms of work), then
/// `samples` timed batches; returns `(median_ns, samples)`.
pub fn measure<O, F: FnMut() -> O>(quick: bool, mut inner: F) -> (f64, u32) {
    let (warm, batch_ns, samples) = if quick {
        (WallDuration::from_millis(5), 1_000_000.0, 9usize)
    } else {
        (WallDuration::from_millis(20), 2_000_000.0, 15usize)
    };
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    while warm_start.elapsed() < warm {
        std::hint::black_box(inner());
        warm_iters += 1;
        if warm_iters >= 1_000_000 {
            break;
        }
    }
    let per_iter = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;
    let batch = ((batch_ns / per_iter.max(1.0)) as u64).clamp(1, 1_000_000);

    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(inner());
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    timings.sort_by(f64::total_cmp);
    (timings[timings.len() / 2], samples as u32)
}

/// One measured hot-path bench: name and median.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Bench name, the key into the trajectory.
    pub name: &'static str,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Timed batches behind the median.
    pub samples: u32,
}

/// Compares measurements against the committed baseline with the
/// [`TOLERANCE_PCT`] tolerance; returns `(markdown_table, regressions)`.
///
/// If both sides carry the [`CALIBRATION_BENCH`] yardstick, every
/// current median is first divided by the machine-speed scale
/// `max(1, current_calibration / baseline_calibration)`, so uniform
/// machine slowdown is factored out of the comparison; a scale above
/// [`MAX_CALIBRATION_SCALE`] is itself returned as a regression. The
/// ratio column shows the scaled ratio; the raw current medians are
/// printed unscaled. Benches without a baseline entry are listed as
/// `new` and do not fail the gate; recorded benches that regress more
/// than the tolerance are returned in `regressions`.
pub fn gate(current: &[Measured], baseline: &Trajectory) -> (String, Vec<String>) {
    let scale = match (
        current.iter().find(|m| m.name == CALIBRATION_BENCH),
        baseline.baseline(CALIBRATION_BENCH),
    ) {
        (Some(cur), Some(base)) if base.median_ns > 0.0 => {
            (cur.median_ns / base.median_ns).max(1.0)
        }
        _ => 1.0,
    };
    let mut table = String::from(
        "| bench | baseline (ns) | current (ns) | ratio | status |\n|---|---:|---:|---:|---|\n",
    );
    let mut regressions = Vec::new();
    let limit = 1.0 + TOLERANCE_PCT / 100.0;
    for m in current {
        if m.name == CALIBRATION_BENCH {
            let base = baseline.baseline(m.name).map_or(f64::NAN, |b| b.median_ns);
            let spiked = scale > MAX_CALIBRATION_SCALE;
            if spiked {
                regressions.push(format!(
                    "{}: {:.1} ns vs baseline {:.1} ns (scale {:.2}x above the {:.2}x limit)",
                    m.name, m.median_ns, base, scale, MAX_CALIBRATION_SCALE
                ));
            }
            let _ = writeln!(
                table,
                "| {} | {:.1} | {:.1} | — | yardstick (scale {:.2}x){} |",
                m.name,
                base,
                m.median_ns,
                scale,
                if spiked { " SPIKED" } else { "" }
            );
            continue;
        }
        match baseline.baseline(m.name) {
            Some(base) => {
                let ratio = m.median_ns / scale / base.median_ns;
                let status = if ratio > limit {
                    regressions.push(format!(
                        "{}: {:.1} ns vs baseline {:.1} ns ({:+.1}% at scale {:.2}x)",
                        m.name,
                        m.median_ns,
                        base.median_ns,
                        (ratio - 1.0) * 100.0,
                        scale
                    ));
                    "REGRESSED"
                } else if ratio < 1.0 / limit {
                    "improved"
                } else {
                    "ok"
                };
                let _ = writeln!(
                    table,
                    "| {} | {:.1} | {:.1} | {:.2}x | {} |",
                    m.name, base.median_ns, m.median_ns, ratio, status
                );
            }
            None => {
                let _ = writeln!(table, "| {} | — | {:.1} | — | new |", m.name, m.median_ns);
            }
        }
    }
    (table, regressions)
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, no chrono).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// The short git revision of the working tree, or `"unknown"`.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The workspace root (two levels above this crate's manifest).
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(median: f64, note: &str) -> BenchEntry {
        BenchEntry {
            median_ns: median,
            samples: 15,
            date: "2026-08-08".into(),
            git_rev: "abc1234".into(),
            note: note.into(),
        }
    }

    #[test]
    fn trajectory_round_trips_through_json() {
        let mut t = Trajectory::default();
        t.record("net_sim_one_comm_4x4", entry(2670.4, "pre-optimization"));
        t.record("net_sim_one_comm_4x4", entry(850.0, "post-optimization"));
        t.record("dor_route_mesh_16x16", entry(30.0, "pre-optimization"));
        let text = t.to_json();
        let back = Trajectory::parse(&text).expect("parses");
        assert_eq!(back, t);
        assert_eq!(
            back.baseline("net_sim_one_comm_4x4").unwrap().median_ns,
            850.0
        );
    }

    #[test]
    fn committed_trajectory_parses_and_re_emits_byte_for_byte() {
        let path = workspace_root().join(BASELINE_FILE);
        let text = std::fs::read_to_string(&path).expect("the trajectory is committed");
        let t = Trajectory::parse(&text).expect("the committed trajectory parses");
        assert!(t.baseline(CALIBRATION_BENCH).is_some());
        assert_eq!(t.to_json(), text);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        let err = Trajectory::parse("{\"schema\": \"other\", \"benches\": {}}").unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn parse_handles_escapes_and_nesting() {
        let mut t = Trajectory::default();
        t.record("a \"quoted\" bench", entry(1.5, "x\n\"y\" — ψ"));
        let back = Trajectory::parse(&t.to_json()).expect("parses");
        assert_eq!(back, t);
        for bad in ["{", "[1,]", "1 2"] {
            assert!(Trajectory::parse(bad).is_err(), "{bad:?}");
        }
        // Nesting has a limit: a corrupt file fails, it cannot overflow
        // the stack.
        assert!(Trajectory::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn gate_flags_regressions_and_tolerates_noise() {
        let mut base = Trajectory::default();
        base.record("a", entry(100.0, ""));
        base.record("b", entry(100.0, ""));
        let current = [
            Measured {
                name: "a",
                median_ns: 110.0,
                samples: 9,
            }, // within 15%
            Measured {
                name: "b",
                median_ns: 130.0,
                samples: 9,
            }, // regressed
            Measured {
                name: "c",
                median_ns: 50.0,
                samples: 9,
            }, // no baseline
        ];
        let (table, regressions) = gate(&current, &base);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].starts_with("b:"), "{regressions:?}");
        assert!(
            table.contains("| a | 100.0 | 110.0 | 1.10x | ok |"),
            "{table}"
        );
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("| c | — | 50.0 | — | new |"), "{table}");
    }

    #[test]
    fn gate_normalizes_by_calibration_scale() {
        let mut base = Trajectory::default();
        base.record(CALIBRATION_BENCH, entry(100.0, ""));
        base.record("a", entry(100.0, ""));
        base.record("b", entry(100.0, ""));
        // Machine 1.5x slower: `a` moved with the machine (ok after
        // scaling), `b` regressed 2x on top of it (still flagged).
        let current = [
            Measured {
                name: CALIBRATION_BENCH,
                median_ns: 150.0,
                samples: 9,
            },
            Measured {
                name: "a",
                median_ns: 150.0,
                samples: 9,
            },
            Measured {
                name: "b",
                median_ns: 300.0,
                samples: 9,
            },
        ];
        let (table, regressions) = gate(&current, &base);
        assert_eq!(regressions.len(), 1, "{table}");
        assert!(regressions[0].starts_with("b:"), "{regressions:?}");
        assert!(table.contains("yardstick (scale 1.50x)"), "{table}");
        assert!(
            table.contains("| a | 100.0 | 150.0 | 1.00x | ok |"),
            "{table}"
        );

        // A faster machine clamps to scale 1: raw ratios apply, so a
        // genuine regression cannot hide behind the speed-up.
        let faster = [
            Measured {
                name: CALIBRATION_BENCH,
                median_ns: 50.0,
                samples: 9,
            },
            Measured {
                name: "a",
                median_ns: 120.0,
                samples: 9,
            },
        ];
        let (table, regressions) = gate(&faster, &base);
        assert_eq!(regressions.len(), 1, "{table}");
        assert!(table.contains("scale 1.00x"), "{table}");
    }

    #[test]
    fn gate_fails_on_a_calibration_spike() {
        let mut base = Trajectory::default();
        base.record(CALIBRATION_BENCH, entry(100.0, ""));
        base.record("a", entry(100.0, ""));
        // The yardstick alone spiked 3.74x while `a` is 1.3x slower raw:
        // dividing by the spike would pass `a` as "improved", so the
        // spike itself must fail the gate.
        let current = [
            Measured {
                name: CALIBRATION_BENCH,
                median_ns: 374.0,
                samples: 9,
            },
            Measured {
                name: "a",
                median_ns: 130.0,
                samples: 9,
            },
        ];
        let (table, regressions) = gate(&current, &base);
        assert_eq!(regressions.len(), 1, "{table}");
        assert!(
            regressions[0].starts_with(CALIBRATION_BENCH),
            "{regressions:?}"
        );
        assert!(table.contains("yardstick (scale 3.74x) SPIKED"), "{table}");
    }

    #[test]
    fn calibration_spin_is_deterministic() {
        assert_eq!(calibration_spin(7), calibration_spin(7));
        assert_ne!(calibration_spin(7), calibration_spin(8));
    }

    #[test]
    fn today_is_plausible_iso_date() {
        let d = today_utc();
        assert_eq!(d.len(), 10, "{d}");
        assert_eq!(&d[4..5], "-");
        let year: i32 = d[..4].parse().unwrap();
        assert!(year >= 2024, "{d}");
    }
}
