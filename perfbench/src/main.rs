//! End-to-end and per-layer benchmark of the iso-energy-efficiency
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <reproduce|model|scale> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop: one caller issues the next op only
//! after the previous one returned, and checks every op's output. The last
//! line of standard output is the result object; the line before it is a
//! detail object (environment, sample counts, error rate, tail latency).
//! See `perfbench/NOTES.md` for the workloads and the layer → metric map.

#![forbid(unsafe_code)]

mod advisor;
mod harness;
mod model;
mod reproduce;
mod scale;
mod sweep;
mod trace;

use std::fmt::Write as _;

use harness::{median, quantile, Outcome, Settings};

const WORKLOADS: [&str; 3] = ["reproduce", "model", "scale"];

/// How a per-layer metric is derived from the traced run's spans.
enum Agg {
    /// Median over ops (or set-up passes) of the span's summed self time.
    GroupMs(&'static str),
    /// Median self time of one call.
    CallUs(&'static str),
    /// Median over ops of a count.
    Count(&'static str),
    /// Largest peak-resident growth of one call, MiB.
    PeakMib(&'static [&'static str]),
    /// A count per second of the spans' self time.
    Rate(&'static str, &'static [&'static str]),
    /// Pooled call versus its `PoolConfig::sequential()` twin, percent:
    /// the first (pooled span, sequential span) pair the run recorded.
    PoolOverhead(&'static [(&'static str, &'static str)]),
    /// Traced versus untraced op median, percent.
    TraceOverhead,
    /// Op time outside every layer span, percent.
    Unattributed,
}

/// Every per-layer metric; a layer a workload never calls reads 0.
const LAYERS: &[(&str, &str, Agg)] = &[
    (
        "calibrate.machine_params_ms",
        "ms",
        Agg::GroupMs("calibrate.machine_params"),
    ),
    (
        "calibrate.distill_us",
        "us",
        Agg::CallUs("calibrate.distill"),
    ),
    ("isoee.validate_ms", "ms", Agg::GroupMs("isoee.validate")),
    ("mps.run_ms.ft", "ms", Agg::GroupMs("mps.run.ft")),
    ("mps.run_ms.ep", "ms", Agg::GroupMs("mps.run.ep")),
    ("mps.run_ms.cg", "ms", Agg::GroupMs("mps.run.cg")),
    ("mps.run_ms.is", "ms", Agg::GroupMs("mps.run.is")),
    ("mps.run_ms.mg", "ms", Agg::GroupMs("mps.run.mg")),
    ("mps.messages", "count", Agg::Count("mps.messages")),
    ("mps.bytes", "count", Agg::Count("mps.bytes")),
    (
        "mps.run_peak_rss_mib",
        "MiB",
        Agg::PeakMib(&[
            "mps.run.ft",
            "mps.run.ep",
            "mps.run.cg",
            "mps.run.is",
            "mps.run.mg",
        ]),
    ),
    ("isoee.point_eval_us", "us", Agg::CallUs("isoee.point_eval")),
    ("scaling.surface_ms", "ms", Agg::GroupMs("scaling.surface")),
    (
        "scaling.surface_seq_ms",
        "ms",
        Agg::GroupMs("scaling.surface_seq"),
    ),
    ("batch.columns_ms", "ms", Agg::GroupMs("batch.columns")),
    (
        "interval.certify_ms",
        "ms",
        Agg::GroupMs("interval.certify"),
    ),
    ("batch.rows_ms", "ms", Agg::GroupMs("batch.rows")),
    (
        "batch.cells_per_s",
        "1/s",
        Agg::Rate("batch.cells", &["batch.rows"]),
    ),
    (
        "scaling.best_frequency_us",
        "us",
        Agg::CallUs("scaling.best_frequency"),
    ),
    (
        "scaling.iso_ee_workload_us",
        "us",
        Agg::CallUs("scaling.iso_ee_workload"),
    ),
    ("symcost.bounds_us", "us", Agg::CallUs("symcost.bounds")),
    (
        "isoee.model_evals_per_op",
        "count",
        Agg::Count("isoee.model_evals"),
    ),
    (
        "pool.overhead_pct",
        "%",
        Agg::PoolOverhead(&[
            ("isoee.validate", "isoee.validate_seq"),
            ("scaling.surface", "scaling.surface_seq"),
        ]),
    ),
    (
        "pool.overhead_pct.query",
        "%",
        Agg::PoolOverhead(&[("scaling.best_frequency", "scaling.best_frequency_seq")]),
    ),
    ("plan.certify_ms.ft", "ms", Agg::GroupMs("plan.certify.ft")),
    ("plan.certify_ms.ep", "ms", Agg::GroupMs("plan.certify.ep")),
    ("plan.certify_ms.cg", "ms", Agg::GroupMs("plan.certify.cg")),
    (
        "symcost.cap_verdict_ms",
        "ms",
        Agg::GroupMs("symcost.cap_verdict"),
    ),
    (
        "check.analyze_ms.ft",
        "ms",
        Agg::GroupMs("check.analyze.ft"),
    ),
    (
        "check.analyze_ms.cg",
        "ms",
        Agg::GroupMs("check.analyze.cg"),
    ),
    (
        "check.abstract_steps",
        "count",
        Agg::Count("check.abstract_steps"),
    ),
    (
        "check.peak_rss_mib",
        "MiB",
        Agg::PeakMib(&["check.analyze.ft", "check.analyze.cg"]),
    ),
    ("plancost.bounds_us", "us", Agg::CallUs("plancost.bounds")),
    ("simrt.run_ms.ft", "ms", Agg::GroupMs("simrt.run.ft")),
    ("simrt.run_ms.cg", "ms", Agg::GroupMs("simrt.run.cg")),
    ("simrt.steps", "count", Agg::Count("simrt.steps")),
    (
        "simrt.events_per_s",
        "1/s",
        Agg::Rate("simrt.steps", &["simrt.run.ft", "simrt.run.cg"]),
    ),
    (
        "simrt.peak_rss_mib",
        "MiB",
        Agg::PeakMib(&["simrt.run.ft", "simrt.run.cg"]),
    ),
    ("trace.overhead_pct", "%", Agg::TraceOverhead),
    ("trace.unattributed_pct", "%", Agg::Unattributed),
];

struct Args {
    workload: String,
    settings: Settings,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut settings = Settings {
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => settings.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                settings.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(settings.seconds >= 0.0 && settings.seconds.is_finite()) {
                    return Err(format!("bad --seconds {value}"));
                }
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args { workload, settings })
}

fn run_workload(name: &str, settings: Settings) -> Outcome {
    match name {
        "reproduce" => harness::run::<reproduce::Reproduce>(settings),
        "model" => harness::run::<model::Model>(settings),
        "scale" => harness::run::<scale::Scale>(settings),
        _ => unreachable!("workload names are checked while parsing"),
    }
}

fn per_layer(out: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let tr = &out.tracer;
    let sum = |xs: Vec<f64>| xs.iter().sum::<f64>();
    LAYERS
        .iter()
        .map(|(name, unit, agg)| {
            let v = match agg {
                Agg::GroupMs(span) => median(&tr.group_self_s(span)) * 1e3,
                Agg::CallUs(span) => median(&tr.call_self_s(span)) * 1e6,
                Agg::Count(c) => median(&tr.group_counts(c)),
                Agg::PeakMib(spans) => tr.peak_mib(spans).unwrap_or(0.0),
                Agg::Rate(c, spans) => {
                    let busy: f64 = spans.iter().map(|s| sum(tr.group_self_s(s))).sum();
                    if busy > 0.0 {
                        sum(tr.group_counts(c)) / busy
                    } else {
                        0.0
                    }
                }
                Agg::PoolOverhead(pairs) => pairs
                    .iter()
                    .find_map(|(pooled, seq)| {
                        let (a, b) = (
                            median(&tr.group_self_s(pooled)),
                            median(&tr.group_self_s(seq)),
                        );
                        (a > 0.0 && b > 0.0).then(|| 100.0 * (a / b - 1.0))
                    })
                    .unwrap_or(0.0),
                Agg::TraceOverhead => {
                    let (traced, plain) = (
                        median(out.op_s.values()),
                        median(out.baseline_op_s.values()),
                    );
                    if plain > 0.0 {
                        100.0 * (traced / plain - 1.0)
                    } else {
                        0.0
                    }
                }
                Agg::Unattributed => {
                    let own = tr.self_ns();
                    let (mut op, mut outside) = (0u64, 0u64);
                    for (s, ns) in tr.spans().iter().zip(own) {
                        if s.name == "op" && s.parent.is_none() {
                            op += s.dur_ns();
                            outside += ns;
                        }
                    }
                    if op > 0 {
                        100.0 * outside as f64 / op as f64
                    } else {
                        0.0
                    }
                }
            };
            (*name, *unit, v)
        })
        .collect()
}

fn env_json(name: &str) -> String {
    std::env::var(name).map_or("null".to_string(), |v| obs::json::quote(&v))
}

fn metric_json(metrics: &[(&str, &str, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if std::env::var_os("ISOEE_SCALAR_SWEEP").is_some() {
        eprintln!("perfbench: ISOEE_SCALAR_SWEEP is set; it swaps the sweep kernel, so the run would not measure the default program. Unset it.");
        std::process::exit(3);
    }
    let s = args.settings;
    let out = run_workload(&args.workload, s);
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let ops = out.op_s.count();
    let busy = out.op_s.sum();
    let p50_ms = median(out.op_s.values()) * 1e3;
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    let metrics: Vec<(&str, &str, f64)> = if s.trace {
        per_layer(&out)
    } else {
        vec![
            (
                "ops_per_s",
                "1/s",
                if busy > 0.0 { ops as f64 / busy } else { 0.0 },
            ),
            ("op_p50_ms", "ms", p50_ms),
            ("setup_s", "s", median(&out.setup_s)),
            ("peak_rss_mib", "MiB", out.peak_rss_mib),
        ]
    };
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    if s.trace {
        let path = std::path::PathBuf::from(format!(
            "target/perfbench/spans-{}-seed{}.jsonl",
            args.workload, s.seed
        ));
        match out.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                out.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }

    // The tail percentile is reported where at least ten samples lie beyond it.
    let p99 = if ops >= 1000 {
        format!("{}", quantile(out.op_s.values(), 0.99) * 1e3)
    } else {
        "null".to_string()
    };
    println!(
        "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"pool_width\": {}, \
         \"env\": {{\"POOL_THREADS\": {}, \"OBS_FLIGHT\": {}, \"ISOEE_SCALAR_SWEEP\": null}}, \
         \"samples\": {{\"ops\": {ops}, \"setup_passes\": {}, \"untraced_baseline_ops\": {}}}, \
         \"error_rate\": {error_rate}, \"op_p99_ms\": {p99}, \"op_mean_ms\": {}, \"host_steal_pct\": {}}}}}",
        args.workload,
        s.seed,
        s.seconds,
        u8::from(s.trace),
        pool::global().threads(),
        env_json("POOL_THREADS"),
        env_json("OBS_FLIGHT"),
        out.setup_s.len(),
        out.baseline_op_s.count(),
        if ops > 0 { busy / ops as f64 * 1e3 } else { 0.0 },
        out.host_steal_pct.map_or("null".to_string(), |x| format!("{x}")),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metric_json(&metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settings(corrupt_reference: bool) -> Settings {
        Settings {
            seed: 7,
            seconds: 0.0,
            trace: false,
            corrupt_reference,
        }
    }

    /// A corrupted reference must drive the error rate above 0 on every
    /// workload, and the intact one must leave it at 0.
    #[test]
    fn corrupted_reference_is_caught() {
        for w in WORKLOADS {
            let bad = run_workload(w, settings(true));
            assert!(
                bad.attempted >= 1 && bad.failed == bad.attempted,
                "{w}: {} of {} failed",
                bad.failed,
                bad.attempted
            );
            let good = run_workload(w, settings(false));
            assert_eq!(good.failed, 0, "{w}: {:?}", good.failures);
        }
    }
}
