//! The JSONL front-end: newline-delimited requests in, newline-delimited
//! events out — scriptable from the shell (see `examples/serve.rs`).
//!
//! # Protocol
//!
//! One JSON object per line. Requests:
//!
//! ```text
//! {"op": "submit", "preset": "design_space", "scale": "small"}
//! {"op": "submit", "spec": "<ScenarioSpec JSON, as a string>"}
//! {"op": "status", "job": 1}
//! {"op": "wait", "job": 1}
//! {"op": "cancel", "job": 1}
//! {"op": "metrics"}
//! {"op": "shutdown"}
//! ```
//!
//! Responses (one or more lines per request; every line is one object):
//!
//! * `{"event": "submitted", "job": 1}` — or
//!   `{"event": "error", "error": "queue_full", "limit": 64}` when the
//!   admission bound pushes back.
//! * `status` answers with the job's current state; `wait` first
//!   streams `{"event": "progress", "job": 1, "done": 3, "total": 8}`
//!   lines as points finish, then the terminal
//!   `{"event": "result", "job": 1, "state": "done",
//!   "source": "computed", "wall_ms": …, "report": "<record JSON>"}`.
//!   The embedded report is the campaign's lossless record document —
//!   byte-identical for cached, coalesced and computed jobs alike.
//! * `{"event": "bye"}` acknowledges `shutdown` and ends the session.
//! * A malformed request answers `{"event": "error", "error":
//!   "bad_request", "message": …}`. That includes a field its op does
//!   not take (a submit takes `spec`, or `preset` and `scale`; `status`,
//!   `wait` and `cancel` take `job`), which is named in the message and
//!   runs nothing. A line longer than [`MAX_LINE`] bytes answers
//!   `{"event": "error", "error": "line_too_long", "limit": …}` and is
//!   skipped unread.
//!
//! With an output directory configured, each completed job's report is
//! also written to `{dir}/job-N.json` (record JSON) and
//! `{dir}/job-N.csv` — the same bytes `examples/scenario_run.rs` would
//! produce for the same spec, which is how the CI smoke test checks
//! cache hits end to end.

use std::io::{BufRead, Read, Write};
use std::path::Path;

use qic_core::scenario::{ScenarioRegistry, ScenarioScale, ScenarioSpec};
use qic_sweep::json::{check_fields, get, get_opt, obj, quote, Json, JsonError};

use crate::job::{JobId, JobState};
use crate::service::{ServeError, ServeHandle};

/// The longest request line [`serve_lines`] reads, in bytes (newline
/// excluded). Requests are a few kilobytes even with an inline spec;
/// the cap keeps a client from making the session buffer without
/// bound.
pub const MAX_LINE: usize = 1 << 20;

/// Runs the JSONL session loop: reads requests from `input` until EOF
/// or a `shutdown` op, writing response events to `output` (flushed
/// after every line, so the stream is pipe- and socket-friendly).
///
/// `out_dir`, when set, receives `job-N.json` / `job-N.csv` files for
/// every job a `wait` resolves as done.
///
/// # Errors
///
/// Only I/O errors on `input`, `output` (or `out_dir` files) are fatal
/// to the session; malformed, non-UTF-8 and over-long requests produce
/// `error` events and the loop continues.
pub fn serve_lines<R: BufRead, W: Write>(
    handle: &ServeHandle,
    mut input: R,
    mut output: W,
    out_dir: Option<&Path>,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE as u64 + 1;
        if (&mut input).take(limit).read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_LINE {
            input.skip_until(b'\n')?;
            emit(
                &mut output,
                obj(vec![
                    ("event", Json::Str("error".into())),
                    ("error", Json::Str("line_too_long".into())),
                    ("limit", Json::Int(MAX_LINE as i128)),
                ]),
            )?;
            continue;
        }
        let parsed = std::str::from_utf8(&buf)
            .map_err(|e| Json::schema_err(format!("request is not UTF-8: {e}")));
        let line = match parsed {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => line.strip_suffix('\r').unwrap_or(line),
            Err(e) => {
                emit(&mut output, bad_request(&e))?;
                continue;
            }
        };
        match request_of(line) {
            Ok(Request::Shutdown) => {
                emit(&mut output, obj(vec![("event", Json::Str("bye".into()))]))?;
                return Ok(());
            }
            Ok(req) => handle_request(handle, req, &mut output, out_dir)?,
            Err(e) => emit(&mut output, bad_request(&e))?,
        }
    }
}

fn bad_request(e: &JsonError) -> Json {
    obj(vec![
        ("event", Json::Str("error".into())),
        ("error", Json::Str("bad_request".into())),
        ("message", Json::Str(e.to_string())),
    ])
}

enum Request {
    Submit(Box<ScenarioSpec>),
    Status(JobId),
    Wait(JobId),
    Cancel(JobId),
    Metrics,
    Shutdown,
}

fn request_of(line: &str) -> Result<Request, JsonError> {
    let parsed = Json::parse(line)?;
    let fields = parsed.obj_of("request")?;
    let op = get(fields, "op", "request")?.str_of("op")?;
    let job_of = |ctx: &str| -> Result<JobId, JsonError> {
        check_fields(fields, &["op", "job"], ctx)?;
        Ok(JobId(get(fields, "job", ctx)?.u64_of("job")?))
    };
    match op {
        "submit" => {
            let spec = match get_opt(fields, "spec") {
                Some(text) => {
                    check_fields(fields, &["op", "spec"], "submit")?;
                    let text = text.str_of("spec")?;
                    ScenarioSpec::from_json(text)
                        .map_err(|e| Json::schema_err(format!("spec: {e}")))?
                }
                None => {
                    check_fields(fields, &["op", "preset", "scale"], "submit")?;
                    let preset = get(fields, "preset", "submit")?.str_of("preset")?;
                    let scale = match get_opt(fields, "scale") {
                        Some(s) => match s.str_of("scale")? {
                            "full" => ScenarioScale::Full,
                            "small" => ScenarioScale::SmallTest,
                            other => {
                                return Err(Json::schema_err(format!(
                                    "scale {} (want \"full\" or \"small\")",
                                    quote(other)
                                )))
                            }
                        },
                        None => ScenarioScale::Full,
                    };
                    ScenarioRegistry::builtin()
                        .spec(preset, scale)
                        .ok_or_else(|| {
                            Json::schema_err(format!("unknown preset {}", quote(preset)))
                        })?
                }
            };
            Ok(Request::Submit(Box::new(spec)))
        }
        "status" => Ok(Request::Status(job_of("status")?)),
        "wait" => Ok(Request::Wait(job_of("wait")?)),
        "cancel" => Ok(Request::Cancel(job_of("cancel")?)),
        "metrics" => check_fields(fields, &["op"], "metrics").map(|()| Request::Metrics),
        "shutdown" => check_fields(fields, &["op"], "shutdown").map(|()| Request::Shutdown),
        other => Err(Json::schema_err(format!("unknown op {}", quote(other)))),
    }
}

fn handle_request<W: Write>(
    handle: &ServeHandle,
    req: Request,
    output: &mut W,
    out_dir: Option<&Path>,
) -> std::io::Result<()> {
    match req {
        Request::Submit(spec) => match handle.submit(*spec) {
            Ok(id) => emit(
                output,
                obj(vec![
                    ("event", Json::Str("submitted".into())),
                    ("job", Json::Int(i128::from(id.0))),
                ]),
            ),
            Err(ServeError::QueueFull { limit }) => emit(
                output,
                obj(vec![
                    ("event", Json::Str("error".into())),
                    ("error", Json::Str("queue_full".into())),
                    ("limit", Json::Int(limit as i128)),
                ]),
            ),
            Err(ServeError::ShuttingDown) => emit(
                output,
                obj(vec![
                    ("event", Json::Str("error".into())),
                    ("error", Json::Str("shutting_down".into())),
                ]),
            ),
        },
        Request::Status(id) => match handle.status(id) {
            None => unknown_job(output, id),
            Some(state) => emit(output, state_event("status", id, &state)),
        },
        Request::Wait(id) => {
            let Some(mut state) = handle.status(id) else {
                return unknown_job(output, id);
            };
            while !state.is_terminal() {
                if let JobState::Running { done, total } = state {
                    emit(
                        output,
                        obj(vec![
                            ("event", Json::Str("progress".into())),
                            ("job", Json::Int(i128::from(id.0))),
                            ("done", Json::Int(done as i128)),
                            ("total", Json::Int(total as i128)),
                        ]),
                    )?;
                }
                match handle.wait_change(id, &state) {
                    Some(next) => state = next,
                    None => return unknown_job(output, id),
                }
            }
            if let (JobState::Done { report, .. }, Some(dir)) = (&state, out_dir) {
                std::fs::create_dir_all(dir)?;
                let stem = dir.join(id.to_string());
                std::fs::write(stem.with_extension("json"), report.report.to_record_json())?;
                std::fs::write(stem.with_extension("csv"), report.to_csv())?;
            }
            emit(output, state_event("result", id, &state))
        }
        Request::Cancel(id) => emit(
            output,
            obj(vec![
                ("event", Json::Str("cancelled".into())),
                ("job", Json::Int(i128::from(id.0))),
                ("accepted", Json::Bool(handle.cancel(id))),
            ]),
        ),
        Request::Metrics => {
            let metrics = handle.metrics();
            let mut fields = vec![("event".to_string(), Json::Str("metrics".into()))];
            fields.extend(
                metrics
                    .iter()
                    .map(|(name, value)| (name.to_string(), Json::Float(value))),
            );
            emit(output, Json::Obj(fields))
        }
        Request::Shutdown => unreachable!("handled by the session loop"),
    }
}

/// One terminal-or-status event line for a job state.
fn state_event(event: &str, id: JobId, state: &JobState) -> Json {
    let mut fields = vec![
        ("event", Json::Str(event.into())),
        ("job", Json::Int(i128::from(id.0))),
        ("state", Json::Str(state.label().into())),
    ];
    match state {
        JobState::Queued => {}
        JobState::Running { done, total } => {
            fields.push(("done", Json::Int(*done as i128)));
            fields.push(("total", Json::Int(*total as i128)));
        }
        JobState::Done {
            report,
            source,
            wall_ns,
        } => {
            fields.push(("source", Json::Str(source.label().into())));
            fields.push(("wall_ms", Json::Float(*wall_ns as f64 / 1e6)));
            fields.push(("report", Json::Str(report.report.to_record_json())));
        }
        JobState::Failed { message } => fields.push(("message", Json::Str(message.clone()))),
        JobState::Rejected { reason } => fields.push(("reason", Json::Str(reason.clone()))),
    }
    obj(fields)
}

fn unknown_job<W: Write>(output: &mut W, id: JobId) -> std::io::Result<()> {
    emit(
        output,
        obj(vec![
            ("event", Json::Str("error".into())),
            ("error", Json::Str("unknown_job".into())),
            ("job", Json::Int(i128::from(id.0))),
        ]),
    )
}

fn emit<W: Write>(output: &mut W, event: Json) -> std::io::Result<()> {
    writeln!(output, "{}", event.emit())?;
    output.flush()
}
