//! In-memory span recorder for the traced run, plus the `/proc` memory
//! probes it uses.
//!
//! A span is one call from the benchmark into a layer's public function:
//! name, start, end, parent span, and the group (set-up pass, op or probe)
//! it belongs to. Spans stay in memory and are written out when the run
//! ends. With tracing off every method is a no-op apart from running the
//! wrapped call, so the untraced and traced runs execute the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// One of the repeated set-up passes.
    Setup,
    /// A measured op.
    Op,
    /// The traced run's per-op decomposition calls, outside the op.
    Probe,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Op => "op",
            Phase::Probe => "probe",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub phase: Phase,
    pub group: u64,
    /// Peak resident growth during the call (`VmHWM` after minus `VmRSS`
    /// before, with the high-water mark reset first), MiB.
    pub mem_mib: Option<f64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span and count recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    phase: Phase,
    group: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
    counts: Vec<(Phase, u64, &'static str, f64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            phase: Phase::Setup,
            group: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Switch recording on or off (the traced run's untraced baseline
    /// phase turns it off).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Attribute the following spans and counts to `group` of `phase`.
    pub fn set_group(&mut self, phase: Phase, group: u64) {
        self.phase = phase;
        self.group = group;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span; returns its handle (`None` when tracing is off).
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            phase: self.phase,
            group: self.group,
            mem_mib: None,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in stack order");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// [`Tracer::call`], also recording the call's peak resident growth.
    /// The `/proc` reads sit outside the span, so they never count as the
    /// layer's time.
    pub fn call_mem<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        reset_peak_rss();
        let before = status_kib("VmRSS:");
        let id = self.begin(name);
        let out = f();
        self.end(id);
        let peak = status_kib("VmHWM:");
        if let (Some(id), Some(before), Some(peak)) = (id, before, peak) {
            self.spans[id].mem_mib = Some(peak.saturating_sub(before) as f64 / 1024.0);
        }
        out
    }

    /// Add `v` to the count `name` of the current group.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.counts.push((self.phase, self.group, name, v));
        }
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-group totals of span `name`'s self time, seconds.
    pub fn group_self_s(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut groups: BTreeMap<(Phase, u64), f64> = BTreeMap::new();
        for (s, &ns) in self.spans.iter().zip(&own) {
            if s.name == name {
                *groups.entry((s.phase, s.group)).or_default() += ns as f64 * 1e-9;
            }
        }
        groups.into_values().collect()
    }

    /// Self time of every call of span `name`, seconds.
    pub fn call_self_s(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 * 1e-9)
            .collect()
    }

    /// Per-group totals of count `name`.
    pub fn group_counts(&self, name: &str) -> Vec<f64> {
        let mut groups: BTreeMap<(Phase, u64), f64> = BTreeMap::new();
        for &(phase, group, n, v) in &self.counts {
            if n == name {
                *groups.entry((phase, group)).or_default() += v;
            }
        }
        groups.into_values().collect()
    }

    /// Largest recorded memory growth over spans named in `names`.
    pub fn peak_mib(&self, names: &[&str]) -> Option<f64> {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .filter_map(|s| s.mem_mib)
            .reduce(f64::max)
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, ns)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let mem = s.mem_mib.map_or("null".to_string(), |m| format!("{m}"));
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"phase\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{ns},\"mem_mib\":{mem}}}",
                s.name,
                s.phase.label(),
                s.group,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A `kB` field of `/proc/self/status`, in KiB.
pub fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Reset the process's `VmHWM` to its current RSS.
pub fn reset_peak_rss() {
    // Best effort: without the reset the growth reads as an upper bound.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
