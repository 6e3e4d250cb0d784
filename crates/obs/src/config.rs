//! Runtime observability configuration.
//!
//! An [`ObsConfig`] rides on the simulator's `World`; every instrumented
//! call site checks `trace` (one branch) before touching a recorder, so
//! a disabled config costs a single predictable branch per event.

use std::path::{Path, PathBuf};

use crate::Trace;

/// What to record and where to write it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record spans and instant events.
    pub trace: bool,
    /// Update the metrics registry (counters/gauges/histograms).
    pub metrics: bool,
    /// Write a Chrome/Perfetto trace-event JSON document here at run end.
    pub perfetto_path: Option<PathBuf>,
    /// Write the trace as JSON Lines here at run end.
    pub jsonl_path: Option<PathBuf>,
}

impl ObsConfig {
    /// Everything off: the zero-overhead default.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Tracing and metrics on, no file output (trace available in
    /// memory on the run report).
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            trace: true,
            metrics: true,
            perfetto_path: None,
            jsonl_path: None,
        }
    }

    /// Tracing and metrics on, Perfetto JSON written to `path` at run
    /// end — the one-liner quickstart:
    /// `World::new(...).with_obs(ObsConfig::perfetto("run.json"))`.
    #[must_use]
    pub fn perfetto(path: impl AsRef<Path>) -> Self {
        Self {
            perfetto_path: Some(path.as_ref().to_path_buf()),
            ..Self::enabled()
        }
    }

    /// Tracing and metrics on, JSON Lines written to `path` at run end.
    #[must_use]
    pub fn jsonl(path: impl AsRef<Path>) -> Self {
        Self {
            jsonl_path: Some(path.as_ref().to_path_buf()),
            ..Self::enabled()
        }
    }

    /// Toggle metrics collection.
    #[must_use]
    pub fn with_metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    /// True when any recording is active.
    #[must_use]
    pub fn any_enabled(&self) -> bool {
        self.trace || self.metrics
    }

    /// Write the trace `build` returns to the configured Perfetto and
    /// JSON Lines paths at run end; `build` runs only when tracing is on
    /// and a path is set. A failed write is reported on stderr as
    /// `{who}: failed to write …` and never fails the caller: the run's
    /// result is valid without its trace.
    pub fn write_trace_files(&self, who: &str, build: impl FnOnce() -> Option<Trace>) {
        if !self.trace || (self.perfetto_path.is_none() && self.jsonl_path.is_none()) {
            return;
        }
        let Some(trace) = build() else {
            return;
        };
        if let Some(path) = &self.perfetto_path {
            if let Err(e) = crate::perfetto::write_file(&trace, path) {
                eprintln!(
                    "{who}: failed to write Perfetto trace {}: {e}",
                    path.display()
                );
            }
        }
        if let Some(path) = &self.jsonl_path {
            if let Err(e) = crate::perfetto::write_jsonl_file(&trace, path) {
                eprintln!("{who}: failed to write JSONL trace {}: {e}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_expected_flags() {
        assert!(!ObsConfig::disabled().any_enabled());
        assert!(ObsConfig::enabled().trace);
        let p = ObsConfig::perfetto("run.json");
        assert!(p.trace && p.metrics);
        assert_eq!(p.perfetto_path.as_deref(), Some(Path::new("run.json")));
        let j = ObsConfig::jsonl("run.jsonl").with_metrics(false);
        assert!(j.trace && !j.metrics);
        assert_eq!(j.jsonl_path.as_deref(), Some(Path::new("run.jsonl")));
    }

    #[test]
    fn trace_files_are_written_only_when_tracing_to_a_path() {
        let dir = std::env::temp_dir().join(format!("obs-config-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut cfg = ObsConfig::perfetto(dir.join("run.json"));
        cfg.jsonl_path = Some(dir.join("run.jsonl"));
        let trace = || {
            let mut t = Trace::new("run");
            t.add_counter_track("power", "W", vec![(0.0, 30.0), (0.5, 55.0)]);
            Some(t)
        };
        let unbuilt = || -> Option<Trace> { panic!("built a trace nobody writes") };
        ObsConfig::enabled().write_trace_files("test", unbuilt);
        ObsConfig {
            trace: false,
            ..cfg.clone()
        }
        .write_trace_files("test", unbuilt);
        cfg.write_trace_files("test", trace);
        let doc = std::fs::read_to_string(dir.join("run.json")).expect("Perfetto file");
        assert!(crate::perfetto::validate(&doc).is_ok());
        let lines = std::fs::read_to_string(dir.join("run.jsonl")).expect("JSONL file");
        assert_eq!(lines.lines().count(), 2, "{lines}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_file_bytes_are_pinned() {
        use crate::span::{Category, EventRecord, FieldValue, SpanRecord};
        use crate::trace::TrackTrace;
        use simcluster::units::Joules;

        let mut trace = Trace::new("pinned");
        trace.push_track(TrackTrace {
            track: 1,
            spans: vec![SpanRecord {
                name: "mps:allreduce".into(),
                cat: Category::Network,
                track: 1,
                start_s: 0.25,
                end_s: 1.5e-3,
                depth: 2,
                host_start_ns: 17,
                host_end_ns: 4_000_000_001,
                forced_close: true,
                fields: vec![
                    ("bytes", FieldValue::U64(64)),
                    ("energy", FieldValue::Joules(Joules::new(0.1))),
                    ("note", FieldValue::Str("a \"b\"".into())),
                ],
            }],
            instants: vec![EventRecord {
                name: "marker".into(),
                track: 1,
                time_s: 3.0,
                fields: vec![("ratio", FieldValue::F64(f64::NAN))],
            }],
        });
        trace.add_counter_track("power cpu", "W", vec![(0.5, 42.125)]);
        let path = std::env::temp_dir().join(format!("obs-jsonl-pin-{}.jsonl", std::process::id()));
        ObsConfig {
            jsonl_path: Some(path.clone()),
            ..ObsConfig::enabled()
        }
        .write_trace_files("test", || Some(trace));
        let bytes = std::fs::read_to_string(&path).expect("JSONL file");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            bytes,
            concat!(
                r#"{"kind":"span","name":"mps:allreduce","cat":"network","track":1,"#,
                r#""start_s":0.25,"end_s":0.0015,"depth":2,"host_start_ns":17,"#,
                r#""host_end_ns":4000000001,"forced_close":true,"bytes":64,"#,
                r#""energy":0.1,"note":"a \"b\""}"#,
                "\n",
                r#"{"kind":"instant","name":"marker","track":1,"time_s":3,"ratio":null}"#,
                "\n",
                r#"{"kind":"counter","name":"power cpu","unit":"W","t_s":0.5,"value":42.125}"#,
                "\n",
            )
        );
    }
}
