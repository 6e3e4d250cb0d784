//! Lock-free metrics registry: counters, gauges, and log-bucketed
//! histograms.
//!
//! Registration takes a `Mutex` (cold path); the handles returned are
//! `Arc`-shared atomics, so the hot path (incrementing a counter inside
//! a collective, bumping the model-eval counter in a sweep) is a single
//! relaxed atomic op. A process-wide registry is available via
//! [`global`] for call sites that cannot thread a handle through.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::LogHistogram;

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 until first set).
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    LogHist(Arc<LogHistogram>),
}

/// A named collection of metrics.
///
/// Lookup/registration is mutex-guarded; returned handles are shared
/// atomics, safe to cache and hit from any thread.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// The log-bucketed histogram named `name` recording values in
    /// `unit`, created on first use (the unit of an existing histogram
    /// is kept).
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn log_histogram(&self, name: &str, unit: &str) -> Arc<LogHistogram> {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::LogHist(Arc::new(LogHistogram::new(unit))))
        {
            Metric::LogHist(h) => Arc::clone(h),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Every registered log-bucketed histogram, sorted by name.
    #[must_use]
    pub fn log_histograms(&self) -> Vec<(String, Arc<LogHistogram>)> {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        metrics
            .iter()
            .filter_map(|(name, metric)| match metric {
                Metric::LogHist(h) => Some((name.clone(), Arc::clone(h))),
                _ => None,
            })
            .collect()
    }

    /// Drop every registered metric (tests; the global registry is
    /// process-wide state).
    ///
    /// Prefer [`Registry::reset_values`] when any call site may have
    /// cached a metric handle: `clear` removes the entries, so cached
    /// `Arc`s keep recording into metrics no snapshot will ever read.
    pub fn clear(&self) {
        self.metrics
            .lock()
            .expect("metrics registry poisoned")
            .clear();
    }

    /// Zero every registered metric **in place**, keeping the entries and
    /// their shared `Arc`s alive — cached handles (e.g. `OnceLock`-stored
    /// histograms in hot paths) continue recording into the same cells.
    ///
    /// Used by benches to isolate cases from each other's warm-up: values
    /// reset, registration state doesn't. Individual cells are cleared
    /// with relaxed stores, so quiesce recorders first.
    pub fn reset_values(&self) {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        for metric in metrics.values() {
            match metric {
                Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.bits.store(0f64.to_bits(), Ordering::Relaxed),
                Metric::LogHist(h) => h.reset(),
            }
        }
    }

    /// Plain-text snapshot, one `name kind value` line per metric,
    /// sorted by name.
    #[must_use]
    pub fn snapshot_text(&self) -> String {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{name} counter {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{name} gauge {}\n", crate::span::fmt_f64(g.get())));
                }
                Metric::LogHist(h) => {
                    let s = h.snapshot();
                    out.push_str(&format!(
                        "{name} loghist unit={} count={} mean={} min={} max={} \
                         p50={} p90={} p99={}\n",
                        s.unit,
                        s.count,
                        crate::span::fmt_f64(s.mean),
                        crate::span::fmt_f64(s.min),
                        crate::span::fmt_f64(s.max),
                        crate::span::fmt_f64(s.p50),
                        crate::span::fmt_f64(s.p90),
                        crate::span::fmt_f64(s.p99)
                    ));
                }
            }
        }
        out
    }

    /// JSON snapshot: `{"metrics":[{"name":...,"kind":...,...}]}`.
    ///
    /// This is the same document shape `BENCH_model_eval.json` uses, so
    /// one parser covers both.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        format!("{{\"metrics\":{}}}\n", self.metrics_json_array())
    }

    /// The bare `[{"name":...,"kind":...,...},...]` metrics array, sorted
    /// by name. Callers embedding metrics in a larger document (e.g. the
    /// `bench/2` snapshot schema with host metadata) splice this in.
    #[must_use]
    pub fn metrics_json_array(&self) -> String {
        use crate::json::quote;
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut entries: Vec<String> = Vec::new();
        for (name, metric) in metrics.iter() {
            let entry = match metric {
                Metric::Counter(c) => format!(
                    "{{\"name\":{},\"kind\":\"counter\",\"value\":{}}}",
                    quote(name),
                    c.get()
                ),
                Metric::Gauge(g) => format!(
                    "{{\"name\":{},\"kind\":\"gauge\",\"value\":{}}}",
                    quote(name),
                    crate::span::fmt_f64(g.get())
                ),
                Metric::LogHist(h) => {
                    let s = h.snapshot();
                    format!(
                        "{{\"name\":{},\"kind\":\"loghist\",\"unit\":{},\
                         \"count\":{},\"sum\":{},\"mean\":{},\"min\":{},\
                         \"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                        quote(name),
                        quote(&s.unit),
                        s.count,
                        crate::span::fmt_f64(s.sum),
                        crate::span::fmt_f64(s.mean),
                        crate::span::fmt_f64(s.min),
                        crate::span::fmt_f64(s.max),
                        crate::span::fmt_f64(s.p50),
                        crate::span::fmt_f64(s.p90),
                        crate::span::fmt_f64(s.p99)
                    )
                }
            };
            entries.push(entry);
        }
        format!("[{}]", entries.join(","))
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("mps.messages");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Second lookup shares the same underlying counter.
        assert_eq!(reg.counter("mps.messages").get(), 5);
        let g = reg.gauge("isoee.ee");
        g.set(0.75);
        assert!((reg.gauge("isoee.ee").get() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let reg = Registry::new();
        reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn snapshots_are_sorted_and_parse() {
        let reg = Registry::new();
        reg.counter("b.count").add(2);
        reg.gauge("a.gauge").set(1.5);
        reg.log_histogram("c.hist", "s").record(0.5);
        let text = reg.snapshot_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a.gauge gauge"));
        assert!(lines[1].starts_with("b.count counter 2"));
        let json = reg.snapshot_json();
        let doc = crate::json::parse(&json).expect("snapshot parses");
        let metrics = doc.get("metrics").unwrap().as_arr().unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(metrics[0].get("name").unwrap().as_str(), Some("a.gauge"));
    }

    #[test]
    fn reset_values_keeps_cached_handles_live() {
        let reg = Registry::new();
        let c = reg.counter("evals");
        let g = reg.gauge("speedup");
        let lh = reg.log_histogram("lat_s", "s");
        c.add(7);
        g.set(2.5);
        lh.record(1e-6);
        reg.reset_values();
        // Values are zeroed...
        assert_eq!(c.get(), 0);
        assert!(g.get().abs() < 1e-12);
        assert_eq!(lh.snapshot().count, 0);
        // ...but the *same* cells stay registered: the cached handles and
        // fresh lookups are the identical Arc, and recording through the
        // old handle is visible to snapshots.
        assert!(Arc::ptr_eq(&c, &reg.counter("evals")));
        assert!(Arc::ptr_eq(&lh, &reg.log_histogram("lat_s", "s")));
        c.inc();
        lh.record(2e-6);
        assert!(reg.snapshot_text().contains("evals counter 1"));
        assert_eq!(reg.log_histograms()[0].1.snapshot().count, 1);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let reg = Registry::new();
        let c = reg.counter("hot");
        let h = reg.log_histogram("hist", "s");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                        h.record(0.25);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        assert!((h.sum() - 1000.0).abs() < 1e-9);
    }
}
