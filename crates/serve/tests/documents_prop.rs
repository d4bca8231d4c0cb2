//! Adversarial documents: seeded damage to the documents the system
//! reads back from clients or disk — a serialized scenario spec, a
//! result-cache record and a checkpoint manifest — and to the files its
//! tools read back: the hot-path bench trajectory
//! (`BENCH_net_hotpath.json`) and a probe's JSONL event log and Chrome
//! trace.
//!
//! Each case truncates the document at every k-th byte, flips one byte,
//! or splices a hostile value over one of its scalars: nesting deeper
//! than [`MAX_DEPTH`], a 100 KB string, a 10,000-digit number or a bad
//! `\u` escape. Every read must end in a value or a structured error —
//! never a panic (the `proptest!` runner fails the case) — and within
//! [`CASE_BOUND`], which only a linear-time reader meets.

use std::ops::Range;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use qic_bench::hotpath::{workspace_root, Trajectory, BASELINE_FILE};
use qic_core::scenario::{self, ScenarioRegistry, ScenarioScale, ScenarioSpec};
use qic_net::config::NetConfig;
use qic_net::sim::{NetworkSim, OneShotDriver};
use qic_net::topology::Coord;
use qic_probe::schema::{validate_chrome_trace, validate_events_jsonl};
use qic_probe::RecordingProbe;
use qic_serve::CacheDir;
use qic_sweep::json::MAX_DEPTH;
use qic_sweep::prelude::{Axis, Campaign, CheckpointConfig, Metrics, ParamSpace, RunOptions};

/// The most one damaged read may take, debug builds included.
const CASE_BOUND: Duration = Duration::from_secs(1);

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("documents_prop");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir.join(name)
}

/// One way to damage a document.
#[derive(Debug)]
enum Damage {
    /// Keep the first `k`, `2k`, … bytes, one read each.
    TruncateEvery(usize),
    /// XOR the byte at `at` with a non-zero `mask`.
    Flip { at: usize, mask: u8 },
    /// Replace the `slot`-th scalar value with `payload`.
    Splice { slot: usize, payload: String },
}

impl Damage {
    /// A one-line description (payloads are too long to print).
    fn label(&self) -> String {
        match self {
            Damage::TruncateEvery(k) => format!("truncation every {k} bytes"),
            Damage::Flip { at, mask } => format!("byte {at} flipped by {mask:#04x}"),
            Damage::Splice { slot, payload } => format!(
                "scalar slot {slot} replaced by {:?}… ({} bytes)",
                payload.chars().take(12).collect::<String>(),
                payload.len()
            ),
        }
    }
}

/// Draws a damage for a document of `len` bytes from the case's numbers.
fn damage(kind: u32, a: u64, b: u64, len: usize) -> Damage {
    let len = len as u64;
    match kind {
        0 => Damage::TruncateEvery((1 + len / (4 + a % 45)) as usize),
        1 => Damage::Flip {
            at: (a % len) as usize,
            mask: 1 + (b % 255) as u8,
        },
        _ => Damage::Splice {
            slot: a as usize,
            payload: payload(kind, b),
        },
    }
}

/// A hostile value; `b` picks the variant.
fn payload(kind: u32, b: u64) -> String {
    match kind {
        2 => {
            // Over the depth limit: balanced, or left open.
            let depth = MAX_DEPTH + 1 + (b % 200) as usize;
            if b % 2 == 0 {
                format!("{}{}", "[".repeat(depth), "]".repeat(depth))
            } else {
                "{\"a\": [".repeat(depth * 50)
            }
        }
        3 => {
            // A 100 KB string, with multi-byte characters and escapes.
            let unit = ["x", "ψ", "—", "\\n", "\\u00e9"][(b % 5) as usize];
            format!("\"{}\"", unit.repeat(100_000 / unit.len()))
        }
        4 => {
            let digits: String = (0..10_000u64)
                .map(|i| char::from(b'0' + ((b.wrapping_add(i * 7)) % 10) as u8))
                .collect();
            match b % 4 {
                0 => format!("1{digits}"),
                1 => format!("-{digits}"),
                2 => format!("0.{digits}"),
                _ => format!("1{digits}e{digits}"),
            }
        }
        _ => [
            "\"\\u\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u00g0\"",
            "\"\\ud800\"",
            "\"\\u00é\"",
            "\"\\q\"",
            "\"\\",
        ][(b % 9) as usize]
            .to_string(),
    }
}

/// The byte ranges of the scalar values that follow `":` (and an
/// optional space) — strings (escapes honoured) and numbers, including
/// those inside embedded, escaped documents.
fn scalar_slots(doc: &str) -> Vec<Range<usize>> {
    let bytes = doc.as_bytes();
    let mut slots = Vec::new();
    for (i, _) in doc.match_indices("\":") {
        let start = if bytes.get(i + 2) == Some(&b' ') {
            i + 3
        } else {
            i + 2
        };
        let end = match bytes.get(start) {
            Some(b'"') => {
                let mut j = start + 1;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += if bytes[j] == b'\\' { 2 } else { 1 };
                }
                j + 1
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let mut j = start + 1;
                while j < bytes.len()
                    && matches!(bytes[j], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    j += 1;
                }
                j
            }
            _ => continue,
        };
        slots.push(start..end.min(bytes.len()));
    }
    slots
}

/// Applies `damage` to `doc`, returning every damaged variant to read.
fn damaged(doc: &str, damage: &Damage) -> Vec<Vec<u8>> {
    match damage {
        Damage::TruncateEvery(k) => (1..)
            .map(|i| i * k)
            .take_while(|&cut| cut < doc.len())
            .map(|cut| doc.as_bytes()[..cut].to_vec())
            .collect(),
        Damage::Flip { at, mask } => {
            let mut bytes = doc.as_bytes().to_vec();
            bytes[*at] ^= mask;
            vec![bytes]
        }
        Damage::Splice { slot, payload } => {
            let slots = scalar_slots(doc);
            let range = slots[slot % slots.len()].clone();
            vec![[&doc[..range.start], payload, &doc[range.end..]]
                .concat()
                .into_bytes()]
        }
    }
}

/// Reads every damaged variant of `doc` with `read`, holding each read
/// to [`CASE_BOUND`]. `read` returns whether a value came back — the
/// undamaged document must, so the harness is known to reach the
/// reader; a panic fails the case.
fn survive(doc: &str, damage: &Damage, mut read: impl FnMut(&[u8]) -> bool) {
    prop_assert!(read(doc.as_bytes()), "the undamaged document reads back");
    for bytes in damaged(doc, damage) {
        let start = Instant::now();
        read(&bytes);
        let took = start.elapsed();
        prop_assert!(
            took < CASE_BOUND,
            "{} on a {} byte document took {took:?}",
            damage.label(),
            bytes.len()
        );
    }
}

fn small_presets() -> Vec<ScenarioSpec> {
    ScenarioRegistry::builtin()
        .entries()
        .iter()
        .map(|e| e.spec(ScenarioScale::SmallTest))
        .collect()
}

/// A stored cache record for one small preset, and its spec.
fn cache_fixture() -> &'static (ScenarioSpec, String) {
    static FIXTURE: OnceLock<(ScenarioSpec, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = ScenarioRegistry::builtin()
            .spec("topology_faceoff", ScenarioScale::SmallTest)
            .expect("a registered preset");
        let report = scenario::run(&spec).expect("the preset runs").report;
        let cache = CacheDir::open(tmp("fixture_cache")).unwrap();
        let path = cache.store(&spec, &report).unwrap();
        (spec, std::fs::read_to_string(path).unwrap())
    })
}

fn checkpoint_campaign() -> Campaign {
    Campaign::new(
        "adversarial",
        ParamSpace::new()
            .axis(Axis::ints("a", [1, 2, 3]))
            .axis(Axis::f64s("r", [0.5, -0.0, 1e-300])),
    )
    .replicates(2)
    .seed(9)
    .workers(1)
}

fn checkpoint_options(path: &std::path::Path, budget: usize) -> RunOptions<'static> {
    RunOptions {
        checkpoint: Some(CheckpointConfig::new(path)),
        budget: Some(budget),
        ..RunOptions::default()
    }
}

fn checkpoint_eval(point: &qic_sweep::SweepPoint<'_>, ctx: qic_sweep::RunCtx) -> Metrics {
    Metrics::new()
        .with("v", point.i64("a") as f64 * point.f64("r"))
        .with("s", (ctx.seed % 97) as f64)
}

/// A half-finished checkpoint manifest (point records included).
fn manifest_fixture() -> &'static str {
    static FIXTURE: OnceLock<String> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let path = tmp("fixture.ckpt.json");
        let _ = std::fs::remove_file(&path);
        checkpoint_campaign()
            .run(&checkpoint_options(&path, 5), checkpoint_eval)
            .expect("the fixture campaign runs");
        std::fs::read_to_string(path).unwrap()
    })
}

/// The committed hot-path bench trajectory.
fn trajectory_fixture() -> &'static str {
    static FIXTURE: OnceLock<String> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        std::fs::read_to_string(workspace_root().join(BASELINE_FILE))
            .expect("the committed trajectory reads")
    })
}

/// The JSONL event log and Chrome trace of one recorded corner-to-corner
/// communication on the small test fabric.
fn trace_fixture() -> &'static (String, String) {
    static FIXTURE: OnceLock<(String, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut driver = OneShotDriver::new(Coord::new(0, 0), Coord::new(3, 3));
        let (_, probe) =
            NetworkSim::with_probe(NetConfig::small_test(), RecordingProbe::with_bins(8))
                .run_traced(&mut driver);
        (probe.events_jsonl(), probe.chrome_trace())
    })
}

/// Whether `read` accepts `bytes` as text; the trajectory and trace
/// readers take `&str`, so invalid UTF-8 never reaches them.
fn read_text<T, E>(bytes: &[u8], read: impl Fn(&str) -> Result<T, E>) -> bool {
    std::str::from_utf8(bytes).is_ok_and(|text| read(text).is_ok())
}

proptest! {
    #[test]
    fn damaged_specs_decode_or_fail_structurally(
        preset in 0usize..64,
        kind in 0u32..6,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let presets = small_presets();
        let doc = presets[preset % presets.len()].to_json();
        let damage = damage(kind, a, b, doc.len());
        survive(&doc, &damage, |bytes| {
            // The front end hands the reader `&str`: other bytes never
            // reach it.
            std::str::from_utf8(bytes)
                .ok()
                .and_then(|text| ScenarioSpec::from_json(text).ok())
                .is_some_and(|spec| spec.validate().is_ok())
        });
    }

    #[test]
    fn damaged_cache_records_load_or_miss_structurally(
        kind in 0u32..6,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let (spec, doc) = cache_fixture();
        let cache = CacheDir::open(tmp("damaged_cache")).unwrap();
        let path = cache.path_of(qic_core::scenario::SpecDigest::of(spec));
        let damage = damage(kind, a, b, doc.len());
        survive(doc, &damage, |bytes| {
            std::fs::write(&path, bytes).unwrap();
            matches!(cache.load(spec), Ok(Some(_)))
        });
    }

    #[test]
    fn damaged_checkpoint_manifests_resume_or_fail_structurally(
        kind in 0u32..6,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let doc = manifest_fixture();
        let path = tmp("damaged.ckpt.json");
        let damage = damage(kind, a, b, doc.len());
        survive(doc, &damage, |bytes| {
            std::fs::write(&path, bytes).unwrap();
            checkpoint_campaign()
                .run(&checkpoint_options(&path, 0), checkpoint_eval)
                .is_ok()
        });
    }

    #[test]
    fn damaged_bench_trajectories_parse_or_fail_structurally(
        kind in 0u32..6,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let doc = trajectory_fixture();
        let damage = damage(kind, a, b, doc.len());
        survive(doc, &damage, |bytes| read_text(bytes, Trajectory::parse));
    }

    #[test]
    fn damaged_event_logs_validate_or_fail_structurally(
        kind in 0u32..6,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let doc = &trace_fixture().0;
        let damage = damage(kind, a, b, doc.len());
        survive(doc, &damage, |bytes| read_text(bytes, validate_events_jsonl));
    }

    #[test]
    fn damaged_chrome_traces_validate_or_fail_structurally(
        kind in 0u32..6,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let doc = &trace_fixture().1;
        let damage = damage(kind, a, b, doc.len());
        survive(doc, &damage, |bytes| read_text(bytes, validate_chrome_trace));
    }
}
