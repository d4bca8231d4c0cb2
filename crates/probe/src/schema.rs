//! Structural validation for the emitted trace files.
//!
//! CI's observability smoke test (and `examples/trace_run.rs`) parse
//! every emitted file back and check it against the expected shape, so
//! a malformed exporter fails loudly instead of producing a trace that
//! silently will not load. The exporters format their output by hand;
//! the validators read it with the workspace's strict JSON reader
//! ([`qic_des::json`]) and check structure, so the writer still never
//! grades its own work. The reader caps nesting, so a hostile file is
//! an `Err`, never a stack overflow.

use qic_des::json::{get_opt, Json};

/// Field `name` of `fields`, or an error naming `ctx`.
fn field<'a>(fields: &'a [(String, Json)], name: &str, ctx: &str) -> Result<&'a Json, String> {
    get_opt(fields, name).ok_or(format!("{ctx}: missing {name:?}"))
}

/// Every event label the JSONL log may carry, with its required numeric
/// fields beyond `t_ns`.
const EVENT_FIELDS: &[(&str, &[&str])] = &[
    ("submit", &["comm", "hops"]),
    ("reroute", &["comm"]),
    ("stall", &["resource", "comm"]),
    ("wire_take", &["link"]),
    (
        "hop_fire",
        &["comm", "pos", "link", "teleset", "service_ns"],
    ),
    ("teleset_release", &["teleset"]),
    ("storage", &["storage", "used"]),
    ("purify_start", &["site", "comm", "ops", "dur_ns"]),
    ("drop", &["comm"]),
    ("done", &["comm", "issued_ns"]),
];

/// Validates a JSONL event log: every line is an object with a numeric
/// `t_ns` (monotone non-decreasing across lines), a known `ev` label,
/// and that label's required payload fields. Returns the line count.
pub fn validate_events_jsonl(text: &str) -> Result<u64, String> {
    let mut lines = 0u64;
    let mut last_t = 0.0f64;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let ctx = format!("line {}", i + 1);
        let v = Json::parse(line).map_err(|e| format!("{ctx}: {e}"))?;
        let obj = v.obj_of(&ctx).map_err(|e| e.to_string())?;
        let num = |at: &str, f: &str| -> Result<f64, String> {
            field(obj, f, at)?
                .f64_of(&format!("{at}: {f}"))
                .map_err(|e| e.to_string())
        };
        let t = num(&ctx, "t_ns")?;
        if t < last_t {
            return Err(format!("{ctx}: t_ns {t} goes backwards (after {last_t})"));
        }
        last_t = t;
        let ev = field(obj, "ev", &ctx)?
            .str_of(&format!("{ctx}: ev"))
            .map_err(|e| e.to_string())?;
        let fields = EVENT_FIELDS
            .iter()
            .find(|(label, _)| *label == ev)
            .map(|(_, f)| *f)
            .ok_or(format!("{ctx}: unknown event {ev:?}"))?;
        let at = format!("{ctx}: {ev}");
        for f in fields {
            num(&at, f)?;
        }
        if ev == "stall" {
            field(obj, "cause", &at)?
                .str_of(&format!("{at}: cause"))
                .map_err(|e| e.to_string())?;
        }
        lines += 1;
    }
    Ok(lines)
}

/// Validates a Chrome trace-event file: a top-level object with a
/// `traceEvents` array whose entries carry the fields their phase
/// requires (`X` spans, `M` metadata, `i` instants, `C` counters).
/// Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<u64, String> {
    let v = Json::parse(text).map_err(|e| e.to_string())?;
    let top = v.obj_of("top level").map_err(|e| e.to_string())?;
    let events = field(top, "traceEvents", "top level")?
        .arr_of("traceEvents")
        .map_err(|e| e.to_string())?;
    for (i, ev) in events.iter().enumerate() {
        let ctx = format!("traceEvents[{i}]");
        let obj = ev.obj_of(&ctx).map_err(|e| e.to_string())?;
        let need = |f: &str| field(obj, f, &ctx);
        let need_num = |f: &str| {
            need(f)?
                .f64_of(&format!("{ctx}: {f}"))
                .map_err(|e| e.to_string())
        };
        let need_str = |f: &str| {
            need(f)?
                .str_of(&format!("{ctx}: {f}"))
                .map_err(|e| e.to_string())
        };
        let need_obj = |f: &str| {
            need(f)?
                .obj_of(&format!("{ctx}: {f}"))
                .map_err(|e| e.to_string())
        };
        match need_str("ph")? {
            "X" => {
                need_str("name")?;
                need_num("ts")?;
                need_num("dur")?;
                need_num("pid")?;
                need_num("tid")?;
            }
            "M" => {
                need_str("name")?;
                need_obj("args")?;
            }
            "i" => {
                need_num("ts")?;
                need_num("pid")?;
                need_num("tid")?;
            }
            "C" => {
                need_str("name")?;
                need_num("ts")?;
                need_num("pid")?;
                need_obj("args")?;
            }
            other => return Err(format!("{ctx}: unknown phase {other:?}")),
        }
    }
    Ok(events.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_validator_enforces_shape() {
        let good = "{\"t_ns\":0,\"ev\":\"submit\",\"comm\":0,\"hops\":2}\n\
                    {\"t_ns\":5,\"ev\":\"wire_take\",\"link\":1}\n";
        assert_eq!(validate_events_jsonl(good), Ok(2));
        // Time going backwards.
        let bad = "{\"t_ns\":5,\"ev\":\"wire_take\",\"link\":1}\n\
                   {\"t_ns\":0,\"ev\":\"wire_take\",\"link\":1}\n";
        assert!(validate_events_jsonl(bad)
            .unwrap_err()
            .contains("backwards"));
        // Unknown label.
        let bad = "{\"t_ns\":0,\"ev\":\"nope\"}\n";
        assert!(validate_events_jsonl(bad).unwrap_err().contains("unknown"));
        // Missing payload field.
        let bad = "{\"t_ns\":0,\"ev\":\"submit\",\"comm\":0}\n";
        assert!(validate_events_jsonl(bad).unwrap_err().contains("hops"));
    }

    #[test]
    fn chrome_validator_enforces_phases() {
        let good = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":0,"args":{"name":"x"}},
            {"name":"s","ph":"X","ts":0.0,"dur":1.0,"pid":0,"tid":0},
            {"ph":"i","s":"t","ts":0.5,"pid":1,"tid":0},
            {"name":"c","ph":"C","ts":0.0,"pid":3,"args":{"used":1}}
        ]}"#;
        assert_eq!(validate_chrome_trace(good), Ok(4));
        assert!(validate_chrome_trace("{}")
            .unwrap_err()
            .contains("traceEvents"));
        let bad = r#"{"traceEvents":[{"name":"s","ph":"X","ts":0.0,"pid":0,"tid":0}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("dur"));
        // An empty file is a syntax error at its first byte, not a shape
        // error.
        assert!(validate_chrome_trace("")
            .unwrap_err()
            .starts_with("invalid JSON at byte 0: "));
        assert_eq!(
            validate_chrome_trace("[]").unwrap_err(),
            "top level: expected an object, got Arr([])"
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!("{{\"traceEvents\": {}", "[".repeat(100_000));
        assert!(validate_chrome_trace(&deep)
            .unwrap_err()
            .contains("nested deeper"));
        let line = format!("{{\"t_ns\": {}\n", "[".repeat(100_000));
        let err = validate_events_jsonl(&line).unwrap_err();
        assert!(
            err.starts_with("line 1: ") && err.contains("nested deeper"),
            "{err}"
        );
    }
}
