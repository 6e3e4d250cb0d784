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
            let result = std::fs::File::create(path).and_then(|f| {
                let mut sink = crate::JsonlSink::new(std::io::BufWriter::new(f));
                trace.emit(&mut sink)
            });
            if let Err(e) = result {
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
}
