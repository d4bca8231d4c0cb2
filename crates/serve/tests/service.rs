//! Service-level guarantees: single-flight, cache-hit byte identity
//! against direct `qic_core::scenario::run`, backpressure, cancellation,
//! graceful drain, rejection, memory hits answered at submit from one
//! shared report, disk persistence across instances, corruption and
//! old-version recovery, and the JSONL front-end.

use std::io::Cursor;
use std::path::PathBuf;

use qic_core::scenario::{
    self, CheckpointSpec, ObserveSpec, ScenarioRegistry, ScenarioScale, ScenarioSpec, SpecDigest,
};
use qic_serve::{serve_lines, CacheDir, CacheSource, JobState, Serve, ServeConfig, ServeError};
use qic_sweep::json::{obj, Json};

fn preset(name: &str) -> ScenarioSpec {
    ScenarioRegistry::builtin()
        .spec(name, ScenarioScale::SmallTest)
        .unwrap_or_else(|| panic!("{name} is registered"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qic_serve_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn done(state: JobState) -> (std::sync::Arc<scenario::ScenarioReport>, CacheSource) {
    match state {
        JobState::Done { report, source, .. } => (report, source),
        other => panic!("expected Done, got {other:?}"),
    }
}

/// A spec that takes long enough to keep the queue occupied while a
/// test submits behind it: many replicates of a simulated workload.
fn slow_spec(tag: &str) -> ScenarioSpec {
    let mut spec = preset("design_space").with_replicates(24);
    spec.name = format!("slow_{tag}");
    spec
}

#[test]
fn identical_submissions_execute_once_and_match_direct_run() {
    let serve = Serve::start(ServeConfig::default().with_parallel_jobs(4));
    let handle = serve.handle();
    let spec = preset("design_space");
    let direct = scenario::run(&spec).expect("direct run");

    let jobs: Vec<_> = (0..4)
        .map(|_| handle.submit(spec.clone()).expect("admitted"))
        .collect();
    let mut computed = 0;
    for &job in &jobs {
        let (report, source) = done(handle.wait(job).expect("known job"));
        if source == CacheSource::Computed {
            computed += 1;
        }
        // The serve result is byte-identical to the direct run — cache
        // hit, coalesced, or computed alike.
        assert_eq!(report.report, direct.report);
        assert_eq!(report.report.to_json(), direct.report.to_json());
        assert_eq!(report.report.to_csv(), direct.report.to_csv());
        assert_eq!(
            report.report.to_record_json(),
            direct.report.to_record_json()
        );
        assert_eq!(report.spec, spec, "each job keeps its own spec");
    }
    assert_eq!(computed, 1, "identical submissions execute exactly once");
    let metrics = handle.metrics();
    assert_eq!(metrics.get("serve.computed"), Some(1.0));
    assert_eq!(
        metrics.get("serve.coalesced").unwrap_or(0.0)
            + metrics.get("serve.hits.memory").unwrap_or(0.0),
        3.0,
        "the other three coalesced or hit the memory cache: {metrics:?}"
    );
    serve.shutdown();
}

#[test]
fn backpressure_surfaces_as_queue_full() {
    let serve = Serve::start(
        ServeConfig::default()
            .with_parallel_jobs(1)
            .with_queue_limit(2),
    );
    let handle = serve.handle();
    // Occupy the single dispatcher with a slow job (wait for it to be
    // claimed — until then it still sits in the queue) …
    let running = handle.submit(slow_spec("backpressure")).expect("admitted");
    while matches!(handle.status(running), Some(JobState::Queued)) {
        std::thread::yield_now();
    }
    // … then fill the queue with distinct quick specs.
    let q1 = handle
        .submit(preset("design_space").with_seed(101))
        .expect("queue slot 1");
    let q2 = handle
        .submit(preset("design_space").with_seed(102))
        .expect("queue slot 2");
    let err = handle
        .submit(preset("design_space").with_seed(103))
        .expect_err("the bound pushes back");
    assert_eq!(err, ServeError::QueueFull { limit: 2 });
    assert_eq!(err.to_string(), "queue full: 2 jobs already waiting");
    // Draining still finishes everything that was admitted.
    for job in [running, q1, q2] {
        assert!(handle.wait(job).expect("known").is_terminal());
    }
    serve.shutdown();
}

#[test]
fn cancelling_a_queued_job_fails_it_without_running() {
    let serve = Serve::start(ServeConfig::default().with_parallel_jobs(1));
    let handle = serve.handle();
    let running = handle.submit(slow_spec("cancel_queued")).expect("admitted");
    while matches!(handle.status(running), Some(JobState::Queued)) {
        std::thread::yield_now();
    }
    let queued = handle
        .submit(preset("design_space").with_seed(7))
        .expect("admitted");
    assert!(handle.cancel(queued), "queued jobs are cancellable");
    match handle.wait(queued).expect("known") {
        JobState::Failed { message } => assert_eq!(message, "cancelled"),
        other => panic!("expected Failed(cancelled), got {other:?}"),
    }
    let (_, source) = done(handle.wait(running).expect("known"));
    assert_eq!(source, CacheSource::Computed);
    assert!(
        !handle.cancel(queued),
        "terminal jobs are no longer cancellable"
    );
    assert_eq!(handle.metrics().get("serve.cancelled"), Some(1.0));
    serve.shutdown();
}

#[test]
fn shutdown_drains_admitted_jobs_then_refuses_new_ones() {
    let serve = Serve::start(ServeConfig::default().with_parallel_jobs(1));
    let handle = serve.handle();
    let jobs: Vec<_> = (0..3)
        .map(|i| {
            handle
                .submit(preset("design_space").with_seed(200 + i))
                .expect("admitted")
        })
        .collect();
    serve.shutdown();
    for job in jobs {
        let (_, source) = done(handle.wait(job).expect("known"));
        assert_eq!(source, CacheSource::Computed, "drained, not dropped");
    }
    assert_eq!(
        handle.submit(preset("design_space")).unwrap_err(),
        ServeError::ShuttingDown
    );
}

#[test]
fn bad_specs_are_rejected_with_reasons() {
    let serve = Serve::start(ServeConfig::default());
    let handle = serve.handle();
    // Validation failure.
    let mut invalid = preset("design_space");
    invalid.replicates = 0;
    let job = handle.submit(invalid).expect("rejection is a job state");
    match handle.wait(job).expect("known") {
        JobState::Rejected { reason } => {
            assert!(reason.contains("replicate"), "{reason}")
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    // Observe and checkpoint blocks are service-policy rejections.
    let observed = preset("design_space").with_observe(ObserveSpec::to_dir("target/serve_obs"));
    match handle.wait(handle.submit(observed).unwrap()).unwrap() {
        JobState::Rejected { reason } => assert!(reason.contains("observe"), "{reason}"),
        other => panic!("{other:?}"),
    }
    let ckpt = preset("design_space").with_checkpoint(CheckpointSpec::to_dir("target/serve_ckpt"));
    match handle.wait(handle.submit(ckpt).unwrap()).unwrap() {
        JobState::Rejected { reason } => assert!(reason.contains("checkpoint"), "{reason}"),
        other => panic!("{other:?}"),
    }
    assert_eq!(handle.metrics().get("serve.rejected"), Some(3.0));
    serve.shutdown();
}

#[test]
fn disk_cache_serves_across_instances_and_survives_corruption() {
    let dir = tmpdir("disk_cache");
    let spec = preset("topology_faceoff");
    let direct = scenario::run(&spec).expect("direct run");

    // Instance A computes and persists.
    let serve = Serve::start(ServeConfig::default().with_cache_dir(&dir));
    let handle = serve.handle();
    let (fresh, source) = done(handle.wait(handle.submit(spec.clone()).unwrap()).unwrap());
    assert_eq!(source, CacheSource::Computed);
    // Resubmission hits memory.
    let (cached, source) = done(handle.wait(handle.submit(spec.clone()).unwrap()).unwrap());
    assert_eq!(source, CacheSource::Memory);
    // The wall_ns exclusion contract: cached and fresh reports compare
    // equal and emit identical JSON/CSV, and both match the direct run.
    assert_eq!(cached.report, fresh.report);
    assert_eq!(cached.report.to_json(), fresh.report.to_json());
    assert_eq!(cached.report.to_csv(), fresh.report.to_csv());
    assert_eq!(cached.report.to_json(), direct.report.to_json());
    serve.shutdown();

    // Instance B (fresh memory) hits the disk record.
    let serve = Serve::start(ServeConfig::default().with_cache_dir(&dir));
    let handle = serve.handle();
    let (disk, source) = done(handle.wait(handle.submit(spec.clone()).unwrap()).unwrap());
    assert_eq!(source, CacheSource::Disk);
    assert_eq!(disk.report, direct.report);
    assert_eq!(disk.report.to_json(), direct.report.to_json());
    serve.shutdown();

    // Truncate the record: instance C must recompute (a structured
    // miss), never serve a wrong report.
    let record = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("a cached record");
    let bytes = std::fs::read(&record).unwrap();
    std::fs::write(&record, &bytes[..bytes.len() / 3]).unwrap();
    let serve = Serve::start(ServeConfig::default().with_cache_dir(&dir));
    let handle = serve.handle();
    let (recomputed, source) = done(handle.wait(handle.submit(spec.clone()).unwrap()).unwrap());
    assert_eq!(source, CacheSource::Computed, "corrupt record → recompute");
    assert_eq!(recomputed.report.to_json(), direct.report.to_json());
    assert_eq!(handle.metrics().get("serve.cache.errors"), Some(1.0));
    serve.shutdown();

    // The recompute healed the record: instance D hits disk again.
    let serve = Serve::start(ServeConfig::default().with_cache_dir(&dir));
    let handle = serve.handle();
    let (_, source) = done(handle.wait(handle.submit(spec).unwrap()).unwrap());
    assert_eq!(source, CacheSource::Disk);
    serve.shutdown();
}

#[test]
fn memory_hits_are_answered_at_submit_without_a_queue_slot() {
    let serve = Serve::start(
        ServeConfig::default()
            .with_parallel_jobs(1)
            .with_queue_limit(2),
    );
    let handle = serve.handle();
    let cached = preset("design_space").with_seed(301);
    let (_, source) = done(handle.wait(handle.submit(cached.clone()).unwrap()).unwrap());
    assert_eq!(source, CacheSource::Computed);
    // Occupy the single dispatcher, then fill the queue to its bound.
    let running = handle.submit(slow_spec("hit_at_submit")).expect("admitted");
    while matches!(handle.status(running), Some(JobState::Queued)) {
        std::thread::yield_now();
    }
    let queued: Vec<_> = [302, 303]
        .map(|seed| {
            handle
                .submit(preset("design_space").with_seed(seed))
                .expect("queue slot")
        })
        .into();
    assert_eq!(
        handle.submit(preset("design_space").with_seed(304)),
        Err(ServeError::QueueFull { limit: 2 })
    );
    // The hit needs neither a slot nor a dispatcher: it is done on return.
    let hit = handle.submit(cached).expect("a hit takes no queue slot");
    let (_, source) = done(handle.status(hit).expect("known job"));
    assert_eq!(source, CacheSource::Memory);
    let (_, source) = done(
        handle
            .wait_change(hit, &JobState::Queued)
            .expect("known job"),
    );
    assert_eq!(source, CacheSource::Memory);
    assert_eq!(handle.metrics().get("serve.queue.depth"), Some(2.0));
    for job in queued.into_iter().chain([running]) {
        assert!(handle.wait(job).expect("known").is_terminal());
    }
    assert_eq!(handle.metrics().get("serve.hits.memory"), Some(1.0));
    serve.shutdown();
}

#[test]
fn memory_hits_share_one_report_unless_the_spec_differs() {
    let serve = Serve::start(ServeConfig::default());
    let handle = serve.handle();
    let spec = preset("design_space").with_seed(311);
    let (computed, _) = done(handle.wait(handle.submit(spec.clone()).unwrap()).unwrap());
    let (a, source_a) = done(handle.wait(handle.submit(spec.clone()).unwrap()).unwrap());
    let (b, source_b) = done(handle.wait(handle.submit(spec.clone()).unwrap()).unwrap());
    assert_eq!(
        (source_a, source_b),
        (CacheSource::Memory, CacheSource::Memory)
    );
    assert!(std::sync::Arc::ptr_eq(&a, &b), "two hits share one report");
    assert!(
        std::sync::Arc::ptr_eq(&a, &computed),
        "and share it with the job that computed it"
    );
    // Differing only in `workers` (not part of the digest), a hit keeps
    // its own spec around the same campaign bytes.
    let other = spec.clone().with_workers(spec.workers + 2);
    let (own, source) = done(handle.wait(handle.submit(other.clone()).unwrap()).unwrap());
    assert_eq!(source, CacheSource::Memory);
    assert!(!std::sync::Arc::ptr_eq(&own, &a));
    assert_eq!(own.spec, other);
    assert_eq!(own.report.to_record_json(), a.report.to_record_json());
    assert_eq!(own.to_csv(), a.to_csv());
    serve.shutdown();
}

#[test]
fn rejected_and_draining_submissions_are_never_served_from_memory() {
    let serve = Serve::start(ServeConfig::default());
    let handle = serve.handle();
    let spec = preset("design_space").with_seed(321);
    let (_, source) = done(handle.wait(handle.submit(spec.clone()).unwrap()).unwrap());
    assert_eq!(source, CacheSource::Computed);
    // Observe and checkpoint blocks are outside the digest, so these
    // specs' digest is cached — and they are still rejected.
    let observed = spec
        .clone()
        .with_observe(ObserveSpec::to_dir("target/serve_obs"));
    let ckpt = spec
        .clone()
        .with_checkpoint(CheckpointSpec::to_dir("target/serve_ckpt"));
    for (blocked, block) in [(observed, "observe"), (ckpt, "checkpoint")] {
        assert_eq!(SpecDigest::of(&blocked), SpecDigest::of(&spec));
        match handle.status(handle.submit(blocked).unwrap()).unwrap() {
            JobState::Rejected { reason } => assert!(reason.contains(block), "{reason}"),
            other => panic!("expected Rejected, got {other:?}"),
        }
    }
    assert_eq!(handle.metrics().get("serve.hits.memory"), Some(0.0));
    serve.shutdown();
    assert_eq!(handle.submit(spec), Err(ServeError::ShuttingDown));
    assert_eq!(handle.metrics().get("serve.hits.memory"), Some(0.0));
}

#[test]
fn memory_cache_evicts_fifo_at_capacity() {
    let serve = Serve::start(ServeConfig::default().with_memory_entries(1));
    let handle = serve.handle();
    let a = preset("design_space").with_seed(1);
    let b = preset("design_space").with_seed(2);
    let (_, s) = done(handle.wait(handle.submit(a.clone()).unwrap()).unwrap());
    assert_eq!(s, CacheSource::Computed);
    let (_, s) = done(handle.wait(handle.submit(b).unwrap()).unwrap());
    assert_eq!(s, CacheSource::Computed);
    // `a` was evicted by `b` (capacity 1, FIFO) — recomputed, since no
    // disk tier is configured.
    let (_, s) = done(handle.wait(handle.submit(a).unwrap()).unwrap());
    assert_eq!(s, CacheSource::Computed);
    serve.shutdown();
}

#[test]
fn jsonl_front_end_round_trips_submissions_and_reports_cache_hits() {
    let out = tmpdir("front_out");
    let serve = Serve::start(ServeConfig::default());
    let handle = serve.handle();
    let script = concat!(
        "{\"op\": \"submit\", \"preset\": \"design_space\", \"scale\": \"small\"}\n",
        "{\"op\": \"wait\", \"job\": 1}\n",
        "{\"op\": \"submit\", \"preset\": \"design_space\", \"scale\": \"small\"}\n",
        "{\"op\": \"wait\", \"job\": 2}\n",
        "{\"op\": \"status\", \"job\": 99}\n",
        "{\"op\": \"nonsense\"}\n",
        "{\"op\": \"metrics\"}\n",
        "{\"op\": \"shutdown\"}\n",
    );
    let mut output = Vec::new();
    serve_lines(&handle, Cursor::new(script), &mut output, Some(&out)).expect("session runs");
    serve.shutdown();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].contains("\"event\": \"submitted\""),
        "{}",
        lines[0]
    );
    let first_result = lines
        .iter()
        .find(|l| l.contains("\"event\": \"result\"") && l.contains("\"job\": 1"))
        .expect("first wait resolves");
    assert!(
        first_result.contains("\"source\": \"computed\""),
        "{first_result}"
    );
    let second_result = lines
        .iter()
        .find(|l| l.contains("\"event\": \"result\"") && l.contains("\"job\": 2"))
        .expect("second wait resolves");
    assert!(
        second_result.contains("\"source\": \"memory\"")
            || second_result.contains("\"source\": \"coalesced\""),
        "resubmission is a cache hit: {second_result}"
    );
    assert!(lines
        .iter()
        .any(|l| l.contains("\"error\": \"unknown_job\"")));
    assert!(lines
        .iter()
        .any(|l| l.contains("\"error\": \"bad_request\"")));
    assert!(lines
        .iter()
        .any(|l| l.contains("\"event\": \"metrics\"") && l.contains("\"serve.computed\": 1")));
    assert_eq!(lines.last(), Some(&"{\"event\": \"bye\"}"));

    // The out-dir artifacts are byte-identical across the two jobs and
    // match a direct run's record JSON.
    let a = std::fs::read_to_string(out.join("job-1.json")).unwrap();
    let b = std::fs::read_to_string(out.join("job-2.json")).unwrap();
    assert_eq!(a, b);
    let direct = scenario::run(&preset("design_space")).unwrap();
    assert_eq!(a, direct.report.to_record_json());
    assert_eq!(
        std::fs::read_to_string(out.join("job-1.csv")).unwrap(),
        direct.to_csv()
    );
}

#[test]
fn jsonl_front_end_rejects_unknown_request_fields() {
    let serve = Serve::start(ServeConfig::default());
    let handle = serve.handle();
    let spec_and_preset = obj(vec![
        ("op", Json::Str("submit".into())),
        ("spec", Json::Str(preset("design_space").to_json())),
        ("preset", Json::Str("fig16".into())),
    ])
    .emit();
    // A misspelt `scale` must not run fig16 at Full scale, and a submit
    // that names both a spec and a preset must not pick one silently.
    let script = format!(
        "{}\n{spec_and_preset}\n{}\n{}\n{}\n{}\n",
        "{\"op\": \"submit\", \"preset\": \"fig16\", \"scael\": \"small\"}",
        "{\"op\": \"wait\", \"job\": 1, \"jbo\": 2}",
        "{\"op\": \"metrics\", \"pad\": \"x\"}",
        "{\"op\": \"metrics\"}",
        "{\"op\": \"shutdown\"}",
    );
    let mut output = Vec::new();
    serve_lines(&handle, Cursor::new(script), &mut output, None).expect("session runs");
    serve.shutdown();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "one answer per line: {text:.600}");
    for (line, field) in lines.iter().zip(["scael", "preset", "jbo", "pad"]) {
        assert!(
            line.contains("\"error\": \"bad_request\"")
                && line.contains(&format!("unknown field \\\"{field}\\\"")),
            "{line:.600}"
        );
    }
    assert!(
        lines[4].contains("\"event\": \"metrics\"") && lines[4].contains("\"serve.submitted\": 0"),
        "no job was submitted: {}",
        lines[4]
    );
    assert_eq!(lines[5], "{\"event\": \"bye\"}");
}

#[test]
fn jsonl_front_end_errors_name_the_kind_not_the_value() {
    let serve = Serve::start(ServeConfig::default());
    let handle = serve.handle();
    let submit = |field: &str, value: Json| {
        obj(vec![("op", Json::Str("submit".into())), (field, value)]).emit()
    };
    // A `spec` field holding an object (with a 100k-element array inside)
    // where the spec's JSON text belongs, a long unknown preset and a
    // long unknown op: each answer names the problem, not the input.
    let spec_object = submit(
        "spec",
        obj(vec![("axes", Json::Arr(vec![Json::Int(7); 100_000]))]),
    );
    let long_preset = submit("preset", Json::Str("p".repeat(100_000)));
    let long_op = obj(vec![("op", Json::Str("o".repeat(100_000)))]).emit();
    let script = format!("{spec_object}\n{long_preset}\n{long_op}\n{{\"op\": \"shutdown\"}}\n");
    let mut output = Vec::new();
    serve_lines(&handle, Cursor::new(script), &mut output, None).expect("session runs");
    serve.shutdown();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "one answer per line: {text:.600}");
    let expected = [
        "spec: expected a string, got an object",
        "unknown preset \\\"pppp",
        "unknown op \\\"oooo",
    ];
    for (line, message) in lines.iter().zip(expected) {
        assert!(
            line.contains("\"error\": \"bad_request\"") && line.contains(message),
            "{line:.600}"
        );
        assert!(line.len() < 200, "{line:.600}");
    }
    assert_eq!(lines[3], "{\"event\": \"bye\"}");
}

#[test]
fn jsonl_front_end_skips_over_long_and_non_utf8_lines() {
    let serve = Serve::start(ServeConfig::default());
    let handle = serve.handle();
    let mut script = vec![b'['; qic_serve::front::MAX_LINE + 10];
    script.extend_from_slice(b"\n\xff\xfe\n{\"op\": \"metrics\"}\n{\"op\": \"shutdown\"}\n");
    let mut output = Vec::new();
    serve_lines(&handle, Cursor::new(script), &mut output, None).expect("session runs");
    serve.shutdown();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    assert!(
        lines[0].contains("\"error\": \"line_too_long\"")
            && lines[0].contains(&format!("\"limit\": {}", qic_serve::front::MAX_LINE)),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"error\": \"bad_request\"") && lines[1].contains("UTF-8"),
        "{}",
        lines[1]
    );
    assert!(lines[2].contains("\"event\": \"metrics\""), "{}", lines[2]);
    assert_eq!(lines[3], "{\"event\": \"bye\"}");
}

#[test]
fn jsonl_front_end_answers_a_megabyte_string_promptly() {
    let serve = Serve::start(ServeConfig::default());
    let handle = serve.handle();
    // A submission whose inline spec carries a name that brings the line
    // just under the limit: the request and the spec inside it are both
    // parsed, so a quadratic string scan would stall the session.
    let mut spec = preset("design_space");
    spec.name = String::new();
    let request = |spec: &ScenarioSpec| {
        obj(vec![
            ("op", Json::Str("submit".into())),
            ("spec", Json::Str(spec.to_json())),
        ])
        .emit()
    };
    let slack = qic_serve::front::MAX_LINE - request(&spec).len();
    spec.name = "n".repeat(slack - 16);
    let line = request(&spec);
    assert!(line.len() < qic_serve::front::MAX_LINE);
    assert!(line.len() > qic_serve::front::MAX_LINE - 64);
    let script = format!("{line}\n{{\"op\": \"metrics\"}}\n{{\"op\": \"shutdown\"}}\n");
    let mut output = Vec::new();
    let start = std::time::Instant::now();
    serve_lines(&handle, Cursor::new(script), &mut output, None).expect("session runs");
    let took = start.elapsed();
    serve.shutdown();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one answer per line: {text:.400}");
    assert!(
        lines[0].contains("\"event\": \"submitted\"") || lines[0].contains("\"bad_request\""),
        "{:.400}",
        lines[0]
    );
    assert!(lines[1].contains("\"event\": \"metrics\""), "{}", lines[1]);
    assert_eq!(lines[2], "{\"event\": \"bye\"}");
    assert!(took.as_secs_f64() < 10.0, "the session took {took:?}");
}

#[test]
fn version_one_cache_records_are_recomputed_and_rewritten() {
    let dir = tmpdir("v1_record");
    let spec = preset("topology_faceoff");
    let direct = scenario::run(&spec).expect("direct run");
    // A record in the version-1 shape: the report as an escaped string.
    let path = CacheDir::open(&dir).unwrap().path_of(SpecDigest::of(&spec));
    let v1 = obj(vec![
        ("record", Json::Str("serve_result".into())),
        ("version", Json::Int(1)),
        ("digest", Json::Str(SpecDigest::of(&spec).to_string())),
        ("scenario", Json::Str(SpecDigest::identity_json(&spec))),
        ("report", Json::Str(direct.report.to_record_json())),
    ])
    .emit();
    std::fs::write(&path, v1).unwrap();

    // The old record is a structured miss: computed, counted, rewritten.
    let serve = Serve::start(ServeConfig::default().with_cache_dir(&dir));
    let handle = serve.handle();
    let (fresh, source) = done(handle.wait(handle.submit(spec.clone()).unwrap()).unwrap());
    assert_eq!(source, CacheSource::Computed, "a v1 record is never served");
    assert_eq!(
        fresh.report.to_record_json(),
        direct.report.to_record_json()
    );
    assert_eq!(handle.metrics().get("serve.cache.errors"), Some(1.0));
    serve.shutdown();
    let rewritten = std::fs::read_to_string(&path).unwrap();
    assert!(
        rewritten.starts_with("{\"record\": \"serve_result\", \"version\": 2, "),
        "{rewritten:.200}"
    );
    assert!(rewritten.contains("\"report\": {"), "{rewritten:.200}");

    // A restarted service serves the rewritten record from disk, with
    // the direct run's bytes.
    let serve = Serve::start(ServeConfig::default().with_cache_dir(&dir));
    let handle = serve.handle();
    let (disk, source) = done(handle.wait(handle.submit(spec).unwrap()).unwrap());
    assert_eq!(source, CacheSource::Disk);
    assert_eq!(disk.report.to_record_json(), direct.report.to_record_json());
    assert_eq!(disk.report.to_json(), direct.report.to_json());
    assert_eq!(disk.report.to_csv(), direct.report.to_csv());
    assert_eq!(handle.metrics().get("serve.cache.errors"), Some(0.0));
    serve.shutdown();
}
