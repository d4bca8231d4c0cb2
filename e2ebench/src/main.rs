//! End-to-end scenario benchmark for the qic workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <qft_paper|fault_adaptive|serve_mixed> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints human-readable lines, then one JSON object as the last line of
//! standard output: `--trace 0` reports the end-to-end metrics, `--trace
//! 1` the per-layer ones (see `README.md`).

mod inputs;
mod measure;
mod metrics;
mod reference;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use qic::core::scenario::ScenarioReport;
use qic::sweep::json::{obj, Json};

use crate::inputs::{prepare, Workload, DEFAULT_SEED};
use crate::measure::{run_all, Samples, SERVE_WORKERS};
use crate::metrics::{Def, END_TO_END};
use crate::reference::Fingerprint;
use crate::stats::{describe, median, percentile, Ledger};

const USAGE: &str = "usage: qic-e2ebench --workload <qft_paper|fault_adaptive|serve_mixed> \
                     [--seed N] [--seconds S] [--trace 0|1] [--write-reference]\n       \
                     qic-e2ebench --screen-pool";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
    screen_pool: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut out = Args {
            workload: Workload::QftPaper,
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            write_reference: false,
            screen_pool: false,
        };
        while let Some(flag) = args.next() {
            match flag.as_str() {
                "--write-reference" => {
                    out.write_reference = true;
                    continue;
                }
                "--screen-pool" => {
                    out.screen_pool = true;
                    continue;
                }
                _ => {}
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
                }
                "--seed" => out.seed = value.parse().map_err(bad)?,
                "--seconds" => {
                    out.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or(format!("bad value {value:?} for {flag}"))?;
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value {value:?} for {flag}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if out.screen_pool {
            return Ok(out);
        }
        out.workload = workload.ok_or("--workload is required")?;
        Ok(out)
    }
}

/// Where builds put their outputs: scratch files and span dumps go there
/// too, inside the checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
}

/// A per-process scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Nanoseconds per `calibration_spin` call, median of 11 batches: a host
/// speed yardstick recorded beside results (never used to rescale them).
fn calibration_ns() -> f64 {
    const CALLS: u64 = 2_000;
    let batches: Vec<f64> = (0..11)
        .map(|b| {
            let start = Instant::now();
            for i in 0..CALLS {
                std::hint::black_box(qic_bench::hotpath::calibration_spin(b * CALLS + i));
            }
            start.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&batches).expect("batches")
}

fn nproc() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// Peak resident set size of this process in MiB (`VmHWM`; NaN where
/// `/proc` does not report it).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The default-seed reports every run checks against the committed
/// fingerprint (computed afresh unless the run already has them).
fn default_seed_reports(
    args: &Args,
    have: Vec<Option<ScenarioReport>>,
    ledger: &mut Ledger,
) -> Vec<Option<ScenarioReport>> {
    if args.seed == DEFAULT_SEED {
        return have;
    }
    run_all(&args.workload.specs(DEFAULT_SEED), SERVE_WORKERS, ledger)
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

fn check_reference(args: &Args, reports: &[Option<ScenarioReport>], ledger: &mut Ledger) {
    let name = args.workload.name();
    ledger.attempted += 1;
    let Some(reports) = reports.iter().cloned().collect::<Option<Vec<_>>>() else {
        ledger.fail(
            1,
            format!("{name}: no complete default-seed run to fingerprint"),
        );
        return;
    };
    let got = Fingerprint::of(&reports);
    if args.write_reference {
        match reference::write(name, &got) {
            Ok(path) => println!("reference: wrote {name} to {}", path.display()),
            Err(e) => ledger.fail(1, format!("writing reference: {e}")),
        }
        return;
    }
    match reference::committed(name) {
        Ok(Some(want)) => {
            let diff = got.diff(&want);
            println!(
                "reference: {name} at seed {DEFAULT_SEED}: {}",
                if diff.is_empty() {
                    "matches"
                } else {
                    "DIFFERS"
                }
            );
            ledger.check(diff.is_empty(), 1, || {
                format!("{name} differs from its reference: {}", diff.join("; "))
            });
        }
        Ok(None) => ledger.fail(1, format!("{name}: no committed reference")),
        Err(e) => ledger.fail(1, format!("reference file: {e}")),
    }
}

/// The end-to-end metrics of a timed run; NaN marks one that could not
/// be measured (too few samples), which fails the run.
fn end_to_end(s: &Samples, batch: bool, rss_mb: f64) -> Vec<(String, f64)> {
    let wall = s.w1_s.sum_of_bests().unwrap_or(f64::NAN);
    let wall_w2 = s.w2_s.sum_of_bests().unwrap_or(f64::NAN);
    END_TO_END
        .iter()
        .map(|d| {
            let value = match d.name {
                "wall_s" => wall,
                "wall_s_w2" => wall_w2,
                "events_per_s" => s.events / wall,
                "points_per_s" => s.points / wall,
                // A batch job is a sweep point of the 1-worker run; a
                // service job runs on the 2-worker executor.
                "jobs_per_s" if batch => s.jobs / wall,
                "jobs_per_s" => s.jobs / wall_w2,
                "setup_s" => median(&s.setup_s).unwrap_or(f64::NAN),
                "peak_rss_mb" => rss_mb,
                "job_p50_ms" if batch => s.job_ms.p50().unwrap_or(f64::NAN),
                "job_p50_ms" => s.spec_ms.p50().unwrap_or(f64::NAN),
                "job_p95_ms" => percentile(&s.job_ms.best_filtered(), 0.95).unwrap_or(f64::NAN),
                "cold_p50_ms" => s.cold_ms.p50().unwrap_or(f64::NAN),
                "mem_hit_p50_ms" => s.mem_hit_ms.p50().unwrap_or(f64::NAN),
                "disk_hit_p50_ms" => s.disk_hit_ms.p50().unwrap_or(f64::NAN),
                other => unreachable!("unmapped end-to-end metric {other}"),
            };
            (d.name.to_string(), value)
        })
        .collect()
}

fn print_result(ledger: &Ledger, defs: &[Def], values: &[(String, f64)]) {
    let mut metrics = Vec::new();
    let mut correct = ledger.failed == 0;
    for def in defs {
        let value = values.iter().find(|(n, _)| n == def.name).map(|(_, v)| *v);
        if value.is_none_or(|v| !v.is_finite()) {
            correct = false;
            eprintln!("metric {} was not measured", def.name);
        }
        let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        println!(
            "{:<36} {value:>18.6} {:<6} ({} is better)",
            def.name, def.unit, def.better
        );
        metrics.push((
            def.name,
            obj(vec![
                ("value", Json::Float(value)),
                ("unit", Json::Str(def.unit.into())),
            ]),
        ));
    }
    println!(
        "attempted={} failed={} failed_frac={}",
        ledger.attempted,
        ledger.failed,
        ledger.failed_frac()
    );
    for p in &ledger.problems {
        println!("FAILED: {p}");
    }
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(ledger.attempted.max(1).into())),
        ("failed", Json::Int(ledger.failed.into())),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", result.emit());
}

/// Runs every `fault_adaptive` pool entry at Full scale and lists the
/// ones that fail: the screening behind `inputs::POOL`.
fn screen_pool() -> ExitCode {
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut ledger = Ledger::default();
    let failing: Vec<u64> = (0..inputs::POOL)
        .filter(|&i| {
            let before = ledger.failed;
            let specs = inputs::pool_entry(i, qic::core::scenario::ScenarioScale::Full);
            run_all(&specs, SERVE_WORKERS, &mut ledger);
            ledger.failed > before
        })
        .collect();
    std::panic::set_hook(quiet);
    println!("failing pool entries: {failing:?}");
    for p in &ledger.problems {
        println!("  {p}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.screen_pool {
        return screen_pool();
    }
    let scratch = Scratch(
        target_dir()
            .join("e2ebench-scratch")
            .join(std::process::id().to_string()),
    );
    let mut ledger = Ledger::default();
    let name = args.workload.name();
    let (host_ns, cores) = (calibration_ns(), nproc());
    println!(
        "workload={name} seed={} seconds={} trace={} nproc={cores} host.calibration_ns={host_ns:.3}",
        args.seed, args.seconds, args.trace as u8
    );

    let prepared = match prepare(args.workload, args.seed) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "inputs: {} specs, {} program instructions",
        prepared.specs.len(),
        prepared.instructions
    );

    if args.trace {
        // As a timed pass starts, so a traced run starts from the same
        // process state as the timed one.
        measure::setups(&prepared, &scratch.0, measure::SETUPS_PER_PASS);
        let spans = target_dir()
            .join("e2ebench-trace")
            .join(format!("{name}-seed{}.jsonl", args.seed));
        let mut values = trace::traced(&prepared, args.seconds, &scratch.0, &spans, &mut ledger);
        values.push(("host.calibration_ns".into(), host_ns));
        values.push(("host.nproc".into(), cores));
        println!("spans: {}", spans.display());
        print_result(&ledger, &metrics::PER_LAYER, &values);
        return ExitCode::SUCCESS;
    }

    let (samples, first) = if args.workload.is_batch() {
        measure::batch(&prepared, args.seconds, &scratch.0, &mut ledger)
    } else {
        let direct = run_all(&prepared.specs, 1, &mut ledger);
        let texts: Vec<Option<String>> = direct
            .iter()
            .map(|(r, _)| r.as_ref().map(ScenarioReport::to_json))
            .collect();
        let samples = measure::serve(&prepared, &texts, args.seconds, &scratch.0, &mut ledger);
        (samples, direct.into_iter().map(|(r, _)| r).collect())
    };
    let rss_mb = peak_rss_mb();
    let reports = default_seed_reports(&args, first, &mut ledger);
    check_reference(&args, &reports, &mut ledger);

    println!("passes={}", samples.passes);
    for (what, timing) in [("wall_s", &samples.w1_s), ("wall_s_w2", &samples.w2_s)] {
        let totals: Vec<String> = timing
            .pass_totals()
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect();
        println!("{what} per pass: {}", totals.join(" "));
    }
    for (what, xs) in [
        ("setup_s", samples.setup_s.clone()),
        ("wall_s units", samples.w1_s.pooled()),
        ("wall_s_w2 units", samples.w2_s.pooled()),
        ("job_ms", samples.job_ms.pooled()),
        ("spec_ms", samples.spec_ms.pooled()),
        ("cold_ms", samples.cold_ms.pooled()),
        ("mem_hit_ms", samples.mem_hit_ms.pooled()),
        ("disk_hit_ms", samples.disk_hit_ms.pooled()),
    ] {
        println!("{what} (pooled): {}", describe(&xs));
    }
    print_result(
        &ledger,
        &END_TO_END,
        &end_to_end(&samples, args.workload.is_batch(), rss_mb),
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_as_documented() {
        let a = parse(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeMixed, 9, 3.0, true)
        );
        assert!(parse(&["--seed", "1"]).is_err(), "workload is required");
        assert!(parse(&["--workload", "qft_paper", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "qft_paper", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "qft_paper", "--bogus", "1"]).is_err());
    }
}
