//! Scenario API end to end: load a spec from a JSON string, run it
//! through the `qic::run` entry point, print the report.
//!
//! The spec below is exactly what `ScenarioSpec::to_json` emits — an
//! experiment as data. Edit the string (fabric, routing, workload,
//! axes) and rerun; no Rust changes needed. Pass a registry name
//! (`cargo run --release --example scenario_run -- fig16`) to run a
//! named preset instead.
//!
//! Campaigns too big for one sitting have three more modes:
//!
//! ```text
//! scenario_run [name] [--out DIR]            # serial; write CSV + record JSON
//! scenario_run [name] --shard i/K --out DIR  # run shard i of K, write its record
//! scenario_run [name] --merge K --out DIR    # merge K shard records -> CSV + JSON
//! scenario_run [name] --resume --out DIR [--checkpoint-every N] [--budget M]
//!                                            # checkpointed run; resumes a manifest
//! ```
//!
//! Sharded: the K shard records merge byte-identically to the serial
//! run. Resumable: kill the process (or stop it with `--budget`) and
//! rerun — the final report is byte-identical to an uninterrupted run.
//!
//! Run with `cargo run --release --example scenario_run`.

use qic::prelude::*;
use qic::sweep::{CampaignReport, Shard};
use qic::{CheckpointSpec, RunOptions};
use std::path::{Path, PathBuf};

/// A study the pre-scenario API could not express without new code:
/// synthetic (locality-free) traffic across all three fabrics under
/// both routing policies.
const SPEC_JSON: &str = r#"{
  "name": "fabric_stress_from_json",
  "seed": 2006,
  "replicates": 1,
  "workers": 0,
  "experiment": {
    "kind": "machine",
    "machine": {
      "preset": "small_test",
      "width": 4, "height": 4,
      "topology": "mesh", "routing": "dor",
      "layout": "Home Base",
      "teleporters": 4, "generators": 4, "purifiers": 2,
      "purify_depth": 2, "outputs_per_comm": 3
    },
    "workload": {"kind": "synthetic", "qubits": 8, "comms": 24, "seed": 7}
  },
  "axes": [
    {"axis": "topology", "kinds": ["mesh", "torus", "hypercube"]},
    {"axis": "routing", "policies": ["dor", "adaptive"]}
  ]
}"#;

struct Cli {
    name: Option<String>,
    shard: Option<Shard>,
    merge: Option<usize>,
    resume: bool,
    every: Option<u32>,
    budget: Option<usize>,
    out: Option<String>,
}

const USAGE: &str = "usage: scenario_run [name] [--out DIR] [--shard i/K] [--merge K] \
                     [--resume] [--checkpoint-every N] [--budget M]";

fn parse_cli() -> Cli {
    let mut cli = Cli {
        name: None,
        shard: None,
        merge: None,
        resume: false,
        every: None,
        budget: None,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--shard" => {
                let v = value("--shard");
                cli.shard =
                    Some(Shard::parse(&v).unwrap_or_else(|| {
                        panic!("--shard wants i/K with i < K, got {v:?}\n{USAGE}")
                    }));
            }
            "--merge" => {
                cli.merge = Some(value("--merge").parse().expect("--merge wants a count"));
            }
            "--resume" => cli.resume = true,
            "--checkpoint-every" => {
                cli.every = Some(
                    value("--checkpoint-every")
                        .parse()
                        .expect("--checkpoint-every wants a point count"),
                );
            }
            "--budget" => {
                cli.budget = Some(
                    value("--budget")
                        .parse()
                        .expect("--budget wants a point count"),
                );
            }
            "--out" => cli.out = Some(value("--out")),
            flag if flag.starts_with("--") => panic!("unknown flag {flag:?}\n{USAGE}"),
            name => {
                assert!(cli.name.is_none(), "one scenario name only\n{USAGE}");
                cli.name = Some(name.to_string());
            }
        }
    }
    cli
}

fn out_dir(cli: &Cli) -> PathBuf {
    let dir = PathBuf::from(cli.out.as_deref().unwrap_or("target/scenario_run"));
    std::fs::create_dir_all(&dir).expect("create output directory");
    dir
}

fn write_outputs(dir: &Path, name: &str, report: &CampaignReport) {
    let csv = dir.join(format!("{name}.csv"));
    std::fs::write(&csv, report.to_csv()).expect("write CSV");
    let json = dir.join(format!("{name}.json"));
    std::fs::write(&json, report.to_record_json()).expect("write record JSON");
    eprintln!("wrote {} and {}", csv.display(), json.display());
}

fn shard_path(dir: &Path, name: &str, shard: Shard) -> PathBuf {
    dir.join(format!(
        "{name}.shard{}of{}.json",
        shard.index(),
        shard.count()
    ))
}

fn main() {
    let cli = parse_cli();
    let spec = match &cli.name {
        Some(name) => ScenarioRegistry::builtin()
            .spec(name, ScenarioScale::SmallTest)
            .unwrap_or_else(|| {
                let names: Vec<&str> = ScenarioRegistry::builtin()
                    .entries()
                    .iter()
                    .map(|e| e.name)
                    .collect();
                panic!("unknown scenario {name:?}; registered: {names:?}")
            }),
        None => ScenarioSpec::from_json(SPEC_JSON).expect("embedded spec parses"),
    };
    eprintln!("scenario: {}", spec.name);

    // --merge K: no evaluation at all — read the K shard records and
    // stitch them back into the serial report.
    if let Some(count) = cli.merge {
        let dir = out_dir(&cli);
        let parts: Vec<CampaignReport> = (0..count)
            .map(|i| {
                let path = shard_path(&dir, &spec.name, Shard::new(i, count));
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
                CampaignReport::from_record_json(&text)
                    .unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
            })
            .collect();
        let merged = CampaignReport::merge(parts).expect("shard records cover the campaign");
        println!("merged {count} shards: {} points", merged.points.len());
        write_outputs(&dir, &spec.name, &merged);
        return;
    }

    // --shard i/K: evaluate one contiguous slice, record it for merge.
    if let Some(shard) = cli.shard {
        let dir = out_dir(&cli);
        let opts = RunOptions {
            shard: Some(shard),
            ..RunOptions::default()
        };
        let ScenarioProgress::Complete(report) =
            qic::run_with(&spec, &opts).expect("spec validates")
        else {
            unreachable!("unbudgeted shard runs complete");
        };
        let path = shard_path(&dir, &spec.name, shard);
        std::fs::write(&path, report.report.to_record_json()).expect("write shard record");
        println!(
            "shard {shard}: {} of {} points -> {}",
            report.report.points.len(),
            spec.param_space().len(),
            path.display()
        );
        return;
    }

    // --resume (with optional --budget M): checkpointed, resumable run.
    if cli.resume || cli.budget.is_some() || cli.every.is_some() {
        let dir = out_dir(&cli);
        let ckpt =
            CheckpointSpec::to_dir(dir.display().to_string()).with_every(cli.every.unwrap_or(16));
        let spec = spec.with_checkpoint(ckpt);
        let opts = RunOptions {
            budget: cli.budget,
            ..RunOptions::default()
        };
        match qic::run_with(&spec, &opts).expect("spec validates, manifest loads") {
            ScenarioProgress::Partial { done, total } => {
                println!("checkpointed {done}/{total} points; rerun with --resume to continue");
            }
            ScenarioProgress::Complete(report) => {
                println!("complete: {} points", report.report.points.len());
                write_outputs(&dir, &spec.name, &report.report);
            }
        }
        return;
    }

    let report = qic::run(&spec).expect("spec validates");
    println!(
        "{} points, {} replicate(s) each",
        report.report.points.len(),
        report.report.replicates
    );
    if cli.out.is_some() {
        write_outputs(&out_dir(&cli), &spec.name, &report.report);
    }

    // Every metric the simulator reports is in the campaign report;
    // print the headline ones per point.
    println!(
        "\n{:>28} {:>14} {:>11} {:>11}",
        "point", "makespan (ms)", "p95 (µs)", "stalls"
    );
    for point in &report.report.points {
        let label = point
            .params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        let stalls = point.mean("teleporter_stalls").unwrap_or(0.0)
            + point.mean("wire_stalls").unwrap_or(0.0)
            + point.mean("storage_stalls").unwrap_or(0.0);
        println!(
            "{label:>28} {:>14.2} {:>11.1} {:>11.0}",
            point.mean("makespan_us").unwrap_or(f64::NAN) / 1e3,
            point.mean("latency_p95_us").unwrap_or(f64::NAN),
            stalls,
        );
    }

    // The spec round-trips: serialize, re-parse, re-run, same bytes.
    let reloaded = ScenarioSpec::from_json(&spec.to_json()).expect("round trip");
    let rerun = qic::run(&reloaded).expect("round-tripped spec validates");
    assert_eq!(
        report.to_json(),
        rerun.to_json(),
        "a spec fully determines its report"
    );
    eprintln!("\nJSON round trip re-ran to byte-identical output");

    println!("\nCSV excerpt:");
    for line in report.to_csv().lines().take(3) {
        let cut = line.chars().take(100).collect::<String>();
        println!("  {cut}…");
    }
}
