//! Bench-snapshot diffing: the regression sentinel's core.
//!
//! Parses two metric snapshots (`bench/2` documents with host metadata,
//! or bare PR-2-era `{"metrics":[...]}` documents), pairs metrics by
//! name, and computes a per-metric verdict with a noise threshold.
//! Consumed by the `obsdiff` binary and by `analyze --bench-diff`.
//!
//! ## Direction conventions
//!
//! Whether a change is a regression depends on what the metric measures;
//! the differ infers the direction from the name and kind:
//!
//! * `*.ns_per_iter`, `*.min_ns_per_iter` — lower is better;
//! * `*.throughput_per_s`, `*.throughput_per_thread_per_s`, `*speedup*`
//!   — higher is better;
//! * `loghist` metrics with a time unit (`"s"`, `"ns"`) — lower is
//!   better, compared on p99 (tail latency is what regresses first);
//! * everything else is informational: reported, never gated on.
//!
//! ## Host-shape guard
//!
//! Comparing numbers recorded on different machines is how "speedup ≈ 1"
//! baselines sneak in; [`diff`] refuses when core count or pool width
//! differ (or when either side lacks host metadata while the other has
//! it) unless `force` is set. A forced diff still reports the mismatch.

use std::collections::BTreeMap;

use crate::json::{parse, quote, Json};
use crate::span::fmt_f64;

/// Default relative noise threshold (30%): single-core CI containers
/// jitter double-digit percentages; see `.github/workflows/ci.yml`.
pub const DEFAULT_THRESHOLD: f64 = 0.30;

/// Host metadata embedded in a `bench/2` snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HostMeta {
    /// Available cores on the recording host.
    pub cores: u64,
    /// Effective `POOL_THREADS` of the run.
    pub pool_threads: u64,
    /// Abbreviated git revision of the recording checkout.
    pub git_rev: String,
    /// Unix timestamp of the recording.
    pub recorded_unix: u64,
}

impl HostMeta {
    fn from_json(host: &Json) -> Self {
        let num = |key: &str| -> u64 { host.get(key).and_then(Json::as_num).unwrap_or(0.0) as u64 };
        Self {
            cores: num("cores"),
            pool_threads: num("pool_threads"),
            git_rev: host
                .get("git_rev")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            recorded_unix: num("recorded_unix"),
        }
    }

    /// Render as the `bench/2` host object (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"pool_threads\":{},\"git_rev\":{},\"recorded_unix\":{}}}",
            self.cores,
            self.pool_threads,
            quote(&self.git_rev),
            self.recorded_unix
        )
    }
}

/// One parsed metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// `kind: "counter"`.
    Counter(u64),
    /// `kind: "gauge"`.
    Gauge(f64),
    /// `kind: "histogram"` (fixed-bucket, as other tools write them;
    /// compared on mean).
    Histogram {
        /// Observation count.
        count: u64,
        /// Mean observation.
        mean: f64,
    },
    /// `kind: "loghist"` (compared on p99).
    LogHist {
        /// Unit of the recorded values.
        unit: String,
        /// Observation count.
        count: u64,
        /// Mean observation.
        mean: f64,
        /// Median.
        p50: f64,
        /// 99th percentile.
        p99: f64,
        /// Exact maximum.
        max: f64,
    },
}

impl MetricValue {
    /// The scalar this metric is compared on.
    #[must_use]
    pub fn comparable(&self) -> f64 {
        match self {
            #[allow(clippy::cast_precision_loss)]
            MetricValue::Counter(v) => *v as f64,
            MetricValue::Gauge(v) => *v,
            MetricValue::Histogram { mean, .. } => *mean,
            MetricValue::LogHist { p99, .. } => *p99,
        }
    }
}

/// A parsed snapshot: optional host metadata plus metrics by name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Host metadata (`None` for bare PR-2-era documents).
    pub host: Option<HostMeta>,
    /// Metrics keyed by name (sorted — `BTreeMap` keeps diff output
    /// deterministic).
    pub metrics: BTreeMap<String, MetricValue>,
}

/// Parse a snapshot document (either `bench/2` or bare `{"metrics":[...]}`).
///
/// # Errors
/// Returns a message when the document is not JSON or lacks a `metrics`
/// array of well-formed entries.
pub fn parse_snapshot(text: &str) -> Result<Snapshot, String> {
    let doc = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let host = doc.get("host").map(HostMeta::from_json);
    let arr = doc
        .get("metrics")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing \"metrics\" array".to_string())?;
    let mut metrics = BTreeMap::new();
    for entry in arr {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "metric entry without \"name\"".to_string())?;
        let kind = entry.get("kind").and_then(Json::as_str).unwrap_or("");
        let num = |key: &str| entry.get(key).and_then(Json::as_num).unwrap_or(0.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let value = match kind {
            "counter" => MetricValue::Counter(num("value") as u64),
            "gauge" => MetricValue::Gauge(num("value")),
            "histogram" => MetricValue::Histogram {
                count: num("count") as u64,
                mean: num("mean"),
            },
            "loghist" => MetricValue::LogHist {
                unit: entry
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                count: num("count") as u64,
                mean: num("mean"),
                p50: num("p50"),
                p99: num("p99"),
                max: num("max"),
            },
            other => return Err(format!("metric {name:?} has unknown kind {other:?}")),
        };
        metrics.insert(name.to_string(), value);
    }
    Ok(Snapshot { host, metrics })
}

/// Which way "better" points for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller values are better (latencies).
    LowerIsBetter,
    /// Larger values are better (throughput, speedup).
    HigherIsBetter,
    /// Changes are reported but never gate.
    Informational,
}

impl Direction {
    /// Stable lowercase name for JSON output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "lower_is_better",
            Direction::HigherIsBetter => "higher_is_better",
            Direction::Informational => "informational",
        }
    }
}

/// Infer the comparison direction from a metric's name and value.
#[must_use]
pub fn direction_for(name: &str, value: &MetricValue) -> Direction {
    if name.ends_with(".ns_per_iter") || name.ends_with(".min_ns_per_iter") {
        return Direction::LowerIsBetter;
    }
    if name.ends_with(".throughput_per_s")
        || name.ends_with(".throughput_per_thread_per_s")
        || name.contains("speedup")
    {
        return Direction::HigherIsBetter;
    }
    if let MetricValue::LogHist { unit, .. } = value {
        if unit == "s" || unit == "ns" {
            return Direction::LowerIsBetter;
        }
    }
    Direction::Informational
}

/// Per-metric verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the baseline by more than the threshold.
    Regressed,
    /// Better than the baseline by more than the threshold.
    Improved,
    /// Within the noise threshold (or informational).
    Unchanged,
    /// Present only in the new snapshot.
    Added,
    /// Present only in the old snapshot.
    Removed,
}

impl Verdict {
    /// Stable lowercase name for JSON output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Metric name.
    pub name: String,
    /// Baseline comparable value (`None` for added metrics).
    pub old: Option<f64>,
    /// New comparable value (`None` for removed metrics).
    pub new: Option<f64>,
    /// `new / old` when both sides exist and old is nonzero.
    pub ratio: Option<f64>,
    /// Comparison direction used.
    pub direction: Direction,
    /// The verdict.
    pub verdict: Verdict,
}

/// Diff configuration.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Relative noise threshold (0.30 = 30%).
    pub threshold: f64,
    /// Compare even when host shapes mismatch.
    pub force: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self {
            threshold: DEFAULT_THRESHOLD,
            force: false,
        }
    }
}

/// A completed diff.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Host metadata of the baseline side.
    pub host_old: Option<HostMeta>,
    /// Host metadata of the new side.
    pub host_new: Option<HostMeta>,
    /// Human-readable host mismatch (present when shapes differ; a
    /// forced diff carries it through for the record).
    pub host_mismatch: Option<String>,
    /// Threshold used.
    pub threshold: f64,
    /// Per-metric results, sorted by name.
    pub diffs: Vec<MetricDiff>,
}

impl DiffReport {
    /// Metrics that regressed.
    #[must_use]
    pub fn regressions(&self) -> Vec<&MetricDiff> {
        self.diffs
            .iter()
            .filter(|d| d.verdict == Verdict::Regressed)
            .collect()
    }

    /// Stable-field-order JSON document (`obsdiff/1` schema).
    #[must_use]
    pub fn to_json(&self) -> String {
        let host = |h: &Option<HostMeta>| h.as_ref().map_or("null".to_string(), HostMeta::to_json);
        let mut diffs = Vec::new();
        for d in &self.diffs {
            let opt = |v: Option<f64>| v.map_or("null".to_string(), fmt_f64);
            diffs.push(format!(
                "{{\"name\":{},\"old\":{},\"new\":{},\"ratio\":{},\
                 \"direction\":{},\"verdict\":{}}}",
                quote(&d.name),
                opt(d.old),
                opt(d.new),
                opt(d.ratio),
                quote(d.direction.name()),
                quote(d.verdict.name())
            ));
        }
        format!(
            "{{\"schema\":\"obsdiff/1\",\"threshold\":{},\"host_old\":{},\
             \"host_new\":{},\"host_mismatch\":{},\"regressions\":{},\"diffs\":[{}]}}\n",
            fmt_f64(self.threshold),
            host(&self.host_old),
            host(&self.host_new),
            self.host_mismatch
                .as_deref()
                .map_or("null".to_string(), quote),
            self.regressions().len(),
            diffs.join(",")
        )
    }

    /// Plain-text summary, one line per non-`Unchanged` metric plus a
    /// trailing total.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if let Some(m) = &self.host_mismatch {
            out.push_str(&format!("WARNING host mismatch: {m}\n"));
        }
        for d in &self.diffs {
            if d.verdict == Verdict::Unchanged {
                continue;
            }
            let ratio = d.ratio.map_or(String::from("-"), |r| format!("{:.3}x", r));
            out.push_str(&format!(
                "{:<10} {} old={} new={} ratio={}\n",
                d.verdict.name(),
                d.name,
                d.old.map_or(String::from("-"), fmt_f64),
                d.new.map_or(String::from("-"), fmt_f64),
                ratio
            ));
        }
        out.push_str(&format!(
            "{} metrics compared, {} regressed (threshold {:.0}%)\n",
            self.diffs.len(),
            self.regressions().len(),
            self.threshold * 100.0
        ));
        out
    }
}

/// Host shapes that must match for numbers to be comparable.
fn host_mismatch(old: Option<&HostMeta>, new: Option<&HostMeta>) -> Option<String> {
    match (old, new) {
        (None, None) => None,
        (Some(_), None) => Some("baseline has host metadata, new snapshot does not".to_string()),
        (None, Some(_)) => Some("new snapshot has host metadata, baseline does not".to_string()),
        (Some(o), Some(n)) => {
            if o.cores != n.cores {
                Some(format!(
                    "cores differ: baseline {} vs new {}",
                    o.cores, n.cores
                ))
            } else if o.pool_threads != n.pool_threads {
                Some(format!(
                    "pool_threads differ: baseline {} vs new {}",
                    o.pool_threads, n.pool_threads
                ))
            } else {
                None
            }
        }
    }
}

/// Compare `new` against the `old` baseline.
///
/// # Errors
/// Returns the host-mismatch description when shapes differ and
/// `config.force` is off; the caller maps this to exit code 2.
pub fn diff(old: &Snapshot, new: &Snapshot, config: &DiffConfig) -> Result<DiffReport, String> {
    let mismatch = host_mismatch(old.host.as_ref(), new.host.as_ref());
    if let Some(m) = &mismatch {
        if !config.force {
            return Err(format!("{m} (pass --force to compare anyway)"));
        }
    }
    let mut names: Vec<&String> = old.metrics.keys().collect();
    for name in new.metrics.keys() {
        if !old.metrics.contains_key(name) {
            names.push(name);
        }
    }
    names.sort();
    let mut diffs = Vec::new();
    for name in names {
        let old_v = old.metrics.get(name);
        let new_v = new.metrics.get(name);
        let entry = match (old_v, new_v) {
            (Some(o), Some(n)) => {
                let direction = direction_for(name, n);
                let (ov, nv) = (o.comparable(), n.comparable());
                let ratio = (ov != 0.0).then(|| nv / ov);
                let verdict = match (direction, ratio) {
                    (Direction::Informational, _) | (_, None) => Verdict::Unchanged,
                    (Direction::LowerIsBetter, Some(r)) => {
                        if r > 1.0 + config.threshold {
                            Verdict::Regressed
                        } else if r < 1.0 - config.threshold {
                            Verdict::Improved
                        } else {
                            Verdict::Unchanged
                        }
                    }
                    (Direction::HigherIsBetter, Some(r)) => {
                        if r < 1.0 - config.threshold {
                            Verdict::Regressed
                        } else if r > 1.0 + config.threshold {
                            Verdict::Improved
                        } else {
                            Verdict::Unchanged
                        }
                    }
                };
                MetricDiff {
                    name: name.clone(),
                    old: Some(ov),
                    new: Some(nv),
                    ratio,
                    direction,
                    verdict,
                }
            }
            (Some(o), None) => MetricDiff {
                name: name.clone(),
                old: Some(o.comparable()),
                new: None,
                ratio: None,
                direction: direction_for(name, o),
                verdict: Verdict::Removed,
            },
            (None, Some(n)) => MetricDiff {
                name: name.clone(),
                old: None,
                new: Some(n.comparable()),
                ratio: None,
                direction: direction_for(name, n),
                verdict: Verdict::Added,
            },
            (None, None) => unreachable!("name came from one of the maps"),
        };
        diffs.push(entry);
    }
    Ok(DiffReport {
        host_old: old.host.clone(),
        host_new: new.host.clone(),
        host_mismatch: mismatch,
        threshold: config.threshold,
        diffs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(metrics: &str, host: Option<&str>) -> Snapshot {
        let doc = match host {
            Some(h) => format!("{{\"schema\":\"bench/2\",\"host\":{h},\"metrics\":[{metrics}]}}"),
            None => format!("{{\"metrics\":[{metrics}]}}"),
        };
        parse_snapshot(&doc).expect("test snapshot parses")
    }

    const HOST: &str =
        "{\"cores\":4,\"pool_threads\":4,\"git_rev\":\"abc1234\",\"recorded_unix\":1700000000}";

    #[test]
    fn self_diff_is_clean() {
        let m = "{\"name\":\"b.ns_per_iter\",\"kind\":\"gauge\",\"value\":100.0}";
        let s = snap(m, Some(HOST));
        let report = diff(&s, &s, &DiffConfig::default()).expect("same host");
        assert!(report.regressions().is_empty());
        assert_eq!(report.diffs[0].verdict, Verdict::Unchanged);
        assert!(report.host_mismatch.is_none());
    }

    #[test]
    fn two_x_slowdown_regresses_and_two_x_speedup_improves() {
        let old = snap(
            "{\"name\":\"b.ns_per_iter\",\"kind\":\"gauge\",\"value\":100.0}",
            None,
        );
        let slow = snap(
            "{\"name\":\"b.ns_per_iter\",\"kind\":\"gauge\",\"value\":200.0}",
            None,
        );
        let fast = snap(
            "{\"name\":\"b.ns_per_iter\",\"kind\":\"gauge\",\"value\":50.0}",
            None,
        );
        let cfg = DiffConfig::default();
        assert_eq!(
            diff(&old, &slow, &cfg).unwrap().diffs[0].verdict,
            Verdict::Regressed
        );
        assert_eq!(
            diff(&old, &fast, &cfg).unwrap().diffs[0].verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn throughput_direction_is_inverted() {
        let old = snap(
            "{\"name\":\"b.throughput_per_s\",\"kind\":\"gauge\",\"value\":100.0}",
            None,
        );
        let worse = snap(
            "{\"name\":\"b.throughput_per_s\",\"kind\":\"gauge\",\"value\":40.0}",
            None,
        );
        let report = diff(&old, &worse, &DiffConfig::default()).unwrap();
        assert_eq!(report.diffs[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn loghist_compares_on_p99_and_time_units_gate() {
        let mk = |p99: f64| {
            format!(
                "{{\"name\":\"pool.task_latency_s\",\"kind\":\"loghist\",\"unit\":\"s\",\
                 \"count\":100,\"sum\":1.0,\"mean\":0.01,\"min\":0.001,\"max\":0.1,\
                 \"p50\":0.01,\"p90\":0.02,\"p99\":{p99}}}"
            )
        };
        let old = snap(&mk(0.02), None);
        let new = snap(&mk(0.08), None);
        let report = diff(&old, &new, &DiffConfig::default()).unwrap();
        assert_eq!(report.diffs[0].direction, Direction::LowerIsBetter);
        assert_eq!(report.diffs[0].verdict, Verdict::Regressed);
    }

    #[test]
    fn host_mismatch_refuses_unless_forced() {
        let other =
            "{\"cores\":1,\"pool_threads\":4,\"git_rev\":\"def5678\",\"recorded_unix\":1700000001}";
        let m = "{\"name\":\"x\",\"kind\":\"counter\",\"value\":1}";
        let a = snap(m, Some(HOST));
        let b = snap(m, Some(other));
        assert!(diff(&a, &b, &DiffConfig::default()).is_err());
        let forced = diff(
            &a,
            &b,
            &DiffConfig {
                force: true,
                ..DiffConfig::default()
            },
        )
        .expect("forced diff proceeds");
        assert!(forced.host_mismatch.is_some());
    }

    #[test]
    fn added_and_removed_metrics_are_reported_not_gated() {
        let old = snap("{\"name\":\"gone\",\"kind\":\"counter\",\"value\":1}", None);
        let new = snap(
            "{\"name\":\"fresh\",\"kind\":\"counter\",\"value\":1}",
            None,
        );
        let report = diff(&old, &new, &DiffConfig::default()).unwrap();
        assert_eq!(report.diffs.len(), 2);
        assert!(report.regressions().is_empty());
        assert_eq!(report.diffs[0].verdict, Verdict::Added);
        assert_eq!(report.diffs[1].verdict, Verdict::Removed);
    }

    #[test]
    fn json_output_is_stable_and_parses() {
        let m = "{\"name\":\"b.ns_per_iter\",\"kind\":\"gauge\",\"value\":100.0}";
        let s = snap(m, Some(HOST));
        let report = diff(&s, &s, &DiffConfig::default()).unwrap();
        let json = report.to_json();
        let doc = parse(&json).expect("diff json parses");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("obsdiff/1"));
        assert_eq!(doc.get("regressions").unwrap().as_num(), Some(0.0));
        assert_eq!(report.to_json(), json, "output is deterministic");
    }
}
