//! Chrome trace-event JSON export (the format `ui.perfetto.dev` and
//! `chrome://tracing` open directly).
//!
//! Layout: one process (`pid 0`, named after the run), one thread per
//! rank (`tid = rank`, named `rank N`). Spans become `"X"` complete
//! events whose nesting Perfetto infers from containment; instant events
//! become `"i"`; counter tracks (PowerPack power samples) become `"C"`
//! series. Timestamps are **virtual** microseconds — the simulated
//! timeline, not host time (host-time stamps ride along in `args`).

use std::io::Write;
use std::path::Path;

use crate::json::{self, quote, Json};
use crate::trace::Trace;

/// Virtual seconds → trace-event microseconds.
fn us(t_s: f64) -> f64 {
    t_s * 1e6
}

/// Render `trace` as a complete Chrome trace-event JSON document.
#[must_use]
pub fn render(trace: &Trace) -> String {
    let mut events: Vec<String> = Vec::new();

    // Process + thread metadata.
    events.push(format!(
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":{}}}}}",
        quote(&trace.name)
    ));
    for track in &trace.tracks {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":{}}}}}",
            track.track,
            quote(&format!("rank {}", track.track))
        ));
        // Perfetto sorts threads by this index: keep rank order.
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_sort_index\",\
             \"args\":{{\"sort_index\":{}}}}}",
            track.track, track.track
        ));
    }

    for track in &trace.tracks {
        for span in &track.spans {
            let mut args = format!(
                "\"host_start_ns\":{},\"host_end_ns\":{}",
                span.host_start_ns, span.host_end_ns
            );
            if span.forced_close {
                args.push_str(",\"forced_close\":true");
            }
            for (k, v) in &span.fields {
                let key = if v.unit().is_empty() {
                    (*k).to_string()
                } else {
                    format!("{k} ({})", v.unit())
                };
                args.push_str(&format!(",{}:{}", quote(&key), v.to_json()));
            }
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":{},\"cat\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                span.track,
                quote(&span.name),
                quote(span.cat.name()),
                crate::span::fmt_f64(us(span.start_s)),
                crate::span::fmt_f64(us(span.dur_s()).max(0.0)),
            ));
        }
        for ev in &track.instants {
            let mut args = String::new();
            for (k, v) in &ev.fields {
                if !args.is_empty() {
                    args.push(',');
                }
                args.push_str(&format!("{}:{}", quote(k), v.to_json()));
            }
            events.push(format!(
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"name\":{},\"s\":\"t\",\
                 \"ts\":{},\"args\":{{{args}}}}}",
                ev.track,
                quote(&ev.name),
                crate::span::fmt_f64(us(ev.time_s)),
            ));
        }
    }

    for counter in &trace.counters {
        let display = if counter.unit.is_empty() {
            counter.name.clone()
        } else {
            format!("{} ({})", counter.name, counter.unit)
        };
        for &(t_s, value) in &counter.samples {
            events.push(format!(
                "{{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"name\":{},\"ts\":{},\
                 \"args\":{{\"value\":{}}}}}",
                quote(&display),
                crate::span::fmt_f64(us(t_s)),
                crate::span::fmt_f64(value),
            ));
        }
    }

    let mut meta = String::new();
    for (k, v) in &trace.meta {
        meta.push_str(&format!(",{}:{}", quote(k), quote(v)));
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"run\":{}{meta}}},\
         \"traceEvents\":[\n{}\n]}}\n",
        quote(&trace.name),
        events.join(",\n")
    )
}

/// Render `trace` and write it to `path`.
///
/// # Errors
/// Returns the underlying I/O error on failure.
pub fn write_file(trace: &Trace, path: &Path) -> std::io::Result<()> {
    let doc = render(trace);
    let mut file = std::fs::File::create(path)?;
    file.write_all(doc.as_bytes())?;
    file.flush()
}

/// Write `trace` to `path` as JSON Lines, one object per record: each
/// track's spans, then its instants, then every counter sample. This is
/// the format `analyze` and ad-hoc scripts consume.
///
/// # Errors
/// Returns the underlying I/O error.
pub fn write_jsonl_file(trace: &Trace, path: &Path) -> std::io::Result<()> {
    use crate::span::fmt_f64;
    let fields = |fields: &[(&str, crate::FieldValue)]| -> String {
        let json = fields
            .iter()
            .map(|(k, v)| format!(",{}:{}", quote(k), v.to_json()));
        json.collect()
    };
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for track in &trace.tracks {
        for s in &track.spans {
            writeln!(
                out,
                "{{\"kind\":\"span\",\"name\":{},\"cat\":{},\"track\":{},\
                 \"start_s\":{},\"end_s\":{},\"depth\":{},\"host_start_ns\":{},\
                 \"host_end_ns\":{},\"forced_close\":{}{}}}",
                quote(&s.name),
                quote(s.cat.name()),
                s.track,
                fmt_f64(s.start_s),
                fmt_f64(s.end_s),
                s.depth,
                s.host_start_ns,
                s.host_end_ns,
                s.forced_close,
                fields(&s.fields)
            )?;
        }
        for e in &track.instants {
            writeln!(
                out,
                "{{\"kind\":\"instant\",\"name\":{},\"track\":{},\"time_s\":{}{}}}",
                quote(&e.name),
                e.track,
                fmt_f64(e.time_s),
                fields(&e.fields)
            )?;
        }
    }
    for c in &trace.counters {
        for &(t_s, value) in &c.samples {
            writeln!(
                out,
                "{{\"kind\":\"counter\",\"name\":{},\"unit\":{},\"t_s\":{},\"value\":{}}}",
                quote(&c.name),
                quote(&c.unit),
                fmt_f64(t_s),
                fmt_f64(value)
            )?;
        }
    }
    out.flush()
}

/// A structural problem found by [`validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationError(pub String);

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Summary of a validated trace-event document.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Distinct `tid`s carrying at least one complete (`"X"`) event.
    pub span_tracks: Vec<u64>,
    /// Number of complete events.
    pub span_events: usize,
    /// Distinct counter names.
    pub counter_names: Vec<String>,
    /// Number of counter samples.
    pub counter_events: usize,
}

/// Validate a Chrome trace-event JSON document: it must parse, carry a
/// `traceEvents` array, have finite non-negative timestamps and
/// durations, and per-track monotone (non-decreasing) `"X"` start
/// timestamps at fixed depth order of emission.
///
/// # Errors
/// Returns every structural problem found (empty vector never happens —
/// `Ok` means zero problems).
pub fn validate(document: &str) -> Result<ValidationReport, Vec<ValidationError>> {
    let mut errors = Vec::new();
    let parsed = match json::parse(document) {
        Ok(v) => v,
        Err(e) => return Err(vec![ValidationError(format!("not valid JSON: {e}"))]),
    };
    let Some(events) = parsed.get("traceEvents").and_then(Json::as_arr) else {
        return Err(vec![ValidationError(
            "missing traceEvents array".to_string(),
        )]);
    };

    let mut span_tracks: Vec<u64> = Vec::new();
    let mut counter_names: Vec<String> = Vec::new();
    let mut span_events = 0usize;
    let mut counter_events = 0usize;
    // Per (tid) the last seen "X" ts, to check monotone emission order.
    let mut last_ts: Vec<(u64, f64)> = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        match ph {
            "X" => {
                span_events += 1;
                let tid = ev.get("tid").and_then(Json::as_num).unwrap_or(-1.0);
                let ts = ev.get("ts").and_then(Json::as_num);
                let dur = ev.get("dur").and_then(Json::as_num);
                if tid < 0.0 {
                    errors.push(ValidationError(format!("event {i}: missing tid")));
                    continue;
                }
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let tid = tid as u64;
                if !span_tracks.contains(&tid) {
                    span_tracks.push(tid);
                }
                match (ts, dur) {
                    (Some(ts), Some(dur)) => {
                        if !ts.is_finite() || ts < 0.0 {
                            errors.push(ValidationError(format!("event {i}: invalid ts {ts}")));
                        }
                        if !dur.is_finite() || dur < 0.0 {
                            errors.push(ValidationError(format!("event {i}: invalid dur {dur}")));
                        }
                        if let Some(entry) = last_ts.iter_mut().find(|(t, _)| *t == tid) {
                            if ts < entry.1 - 1e-6 {
                                errors.push(ValidationError(format!(
                                    "event {i}: tid {tid} ts {ts} before previous {}",
                                    entry.1
                                )));
                            }
                            entry.1 = entry.1.max(ts);
                        } else {
                            last_ts.push((tid, ts));
                        }
                    }
                    _ => errors.push(ValidationError(format!(
                        "event {i}: X event without numeric ts/dur"
                    ))),
                }
            }
            "C" => {
                counter_events += 1;
                let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
                if name.is_empty() {
                    errors.push(ValidationError(format!("event {i}: unnamed counter")));
                } else if !counter_names.iter().any(|n| n == name) {
                    counter_names.push(name.to_string());
                }
                let value = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_num);
                if value.is_none() {
                    errors.push(ValidationError(format!(
                        "event {i}: counter without numeric args.value"
                    )));
                }
            }
            "M" | "i" | "I" => {}
            other => errors.push(ValidationError(format!(
                "event {i}: unknown phase {other:?}"
            ))),
        }
    }

    span_tracks.sort_unstable();
    if errors.is_empty() {
        Ok(ValidationReport {
            span_tracks,
            span_events,
            counter_names,
            counter_events,
        })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Category, TrackRecorder};

    fn sample_trace(ranks: usize) -> Trace {
        let mut trace = Trace::new("unit-test");
        for r in 0..ranks {
            let mut rec = TrackRecorder::new(r);
            rec.begin_phase("init", 0.0);
            rec.leaf("compute", Category::Compute, 0.0, 0.25, vec![]);
            rec.begin_phase("solve", 0.25);
            rec.enter("mps:allreduce", Category::Collective, 0.3);
            rec.leaf("network", Category::Network, 0.3, 0.4, vec![]);
            rec.exit(0.4, vec![]);
            trace.push_track(rec.finish(1.0));
        }
        trace.add_counter_track("power cpu", "W", vec![(0.0, 30.0), (0.5, 55.0)]);
        trace
    }

    #[test]
    fn rendered_document_validates() {
        let trace = sample_trace(4);
        let doc = render(&trace);
        let report = validate(&doc).expect("valid trace");
        assert_eq!(report.span_tracks, vec![0, 1, 2, 3]);
        assert_eq!(report.counter_names, vec!["power cpu (W)".to_string()]);
        assert!(report.span_events >= 4 * 5);
        assert_eq!(report.counter_events, 2);
    }

    #[test]
    fn validate_rejects_garbage_and_missing_events() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        let bad = r#"{"traceEvents":[{"ph":"X","tid":0,"name":"x"}]}"#;
        assert!(validate(bad).is_err());
    }

    #[test]
    fn validate_flags_negative_duration() {
        let bad = r#"{"traceEvents":[
            {"ph":"X","pid":0,"tid":0,"name":"x","ts":1.0,"dur":-2.0,"args":{}}
        ]}"#;
        let errs = validate(bad).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("invalid dur")));
    }

    #[test]
    fn validate_flags_non_monotone_track() {
        let bad = r#"{"traceEvents":[
            {"ph":"X","pid":0,"tid":0,"name":"a","ts":5.0,"dur":1.0,"args":{}},
            {"ph":"X","pid":0,"tid":0,"name":"b","ts":1.0,"dur":1.0,"args":{}}
        ]}"#;
        let errs = validate(bad).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("before previous")));
    }

    #[test]
    fn write_file_round_trips() {
        let dir = std::env::temp_dir().join("obs-perfetto-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_file(&sample_trace(2), &path).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(validate(&doc).is_ok());
        std::fs::remove_file(&path).ok();
    }
}
