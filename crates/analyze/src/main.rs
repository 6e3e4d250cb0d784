//! Workspace analysis gate: `cargo run -p analyze`.
//!
//! Runs the standing passes and exits non-zero if any *unexpected* finding
//! surfaces:
//!
//! 1. Model invariants over both machine vectors (System G, Dori) crossed
//!    with the NPB application models at several `(n, p, f)` points.
//! 2. Communication-trace checks over a clean mps program (must be quiet).
//! 3. A seeded deadlock, to prove the detector actually fires (expected
//!    findings, clearly labelled).
//! 4. Trace conformance over the obs spans of a traced 4-rank FT run
//!    (every span closed, charges inside phases, virtual time monotone).
//! 5. Sweep accounting: a known-size parallel surface sweep must advance
//!    `pool.tasks_executed` by exactly one per row and `isoee.model_evals`
//!    by exactly rows x cols — the pool neither drops nor re-runs work.
//!
//! Flags:
//!
//! * `--verify` adds the ahead-of-time verification passes from
//!   `crates/verify`: the schedule-space model checker over the seeded
//!   example worlds (plus a bounded sweep of the 4-rank FT kernel), and
//!   interval pre-certification of the Fig 5–9 sweep grids and NPB
//!   workload boxes. Explorer witnesses are written as Perfetto traces
//!   under `target/verify-witnesses/`.
//! * `--trace <file.json>` additionally validates an emitted Perfetto
//!   trace-event file (as written by `examples/trace_ft.rs` or
//!   `OBS_TRACE=... fig10`) with the obs JSON validator.
//! * `--plan` adds the static communication-plan pass: the in-tree NPB
//!   `CommPlan`s (FT, EP, CG) are analyzed at every world size in
//!   `--plan-ps` (default `4,64,1024`) with `plan::analyze_plan` —
//!   matching/shape validity, deadlock freedom with witnesses, exact
//!   message/byte totals — and lowered to Eq. 13/15 interval cost bounds
//!   via `isoee::plancost`. At the smallest p ≤ 4 the verdicts are
//!   cross-validated dynamically against the `verify` schedule explorer.
//!   `--plan-bad` seeds a deliberately deadlocking plan instead and
//!   reports its findings as *unexpected* (exit 1), proving the gate
//!   actually gates.
//! * `--plan-symbolic` adds the *parametric* certification pass: the NPB
//!   plans are certified matching/deadlock-free for **every** `p` in
//!   their declared domains at once (`plan::certify_plan`), certificates
//!   are dumped under `target/plan-certs/`, and two static power-cap
//!   verdicts per plan (`isoee::power_cap_verdict`) prove a generous cap
//!   holds for all `p` and a 2 kW cap is violated on a named `p` range.
//!   `--plan-symbolic-bad` seeds a non-bijective shift plan the certifier
//!   must refuse (exit 1 path).
//! * `--bench-diff <OLD.json> <NEW.json>` switches to a dedicated mode:
//!   the regression sentinel. Both snapshots (bench/2 documents with host
//!   metadata, or bare PR-2 metric arrays) are compared with `obs::diff`;
//!   each regressed metric is reported as a named finding on stderr and
//!   the report (JSON under `--json`, text otherwise) goes to stdout.
//!   `--threshold <frac>` sets the relative noise threshold (default
//!   0.30); `--force` compares across mismatched host shapes. Exit codes
//!   follow `obsdiff`: 0 no regression, 1 regression(s), 2 usage error or
//!   unforced host mismatch. No other pass runs in this mode.
//! * `--json` prints the machine-readable findings document (stable field
//!   order) to stdout; human progress moves to stderr.
//!
//! Exit codes: `0` all passes clean, `1` at least one unexpected finding,
//! `2` usage error (unknown flag, or a `--trace` file that is missing or
//! unreadable).

#![forbid(unsafe_code)]

use analyze::{
    check_deadlock, check_model, check_report, check_sweep_accounting, check_trace, Finding,
};
use isoee::apps::{AppModel, CgModel, EpModel, FtModel};
use isoee::interval::{certify_pf_grid, certify_pn_grid, GridCertification, Interval};
use isoee::MachineParams;
use mps::{try_run, RunError, World};
use simcluster::{dori, system_g};
use verify::{programs, witness_trace, BoxOutcome, BoxSearch, Explorer, VerifyFinding};

const USAGE: &str = "usage: analyze [--verify] [--json] [--trace <file.json>] \
                     [--plan] [--plan-ps <p,p,..>] [--plan-bad] \
                     [--plan-symbolic] [--plan-symbolic-bad]\n\
       analyze --bench-diff <OLD.json> <NEW.json> [--threshold <frac>] [--force] [--json]\n\
                     exit codes: 0 clean, 1 unexpected finding(s), 2 usage error\n\
                     (--bench-diff: 0 no regression, 1 regression(s), 2 usage/host mismatch)";

/// One recorded finding, for the `--json` document.
struct Entry {
    pass: &'static str,
    kind: &'static str,
    context: String,
    message: String,
    expected: bool,
}

/// The finding-kind vocabulary (documented in DESIGN.md): every finding a
/// pass can emit carries a stable `kind` so downstream diffing keys on it.
fn default_kind(pass: &'static str) -> &'static str {
    match pass {
        "model" => "model-invariant",
        "comm" => "comm-graph",
        "deadlock" => "deadlock",
        "trace" | "perfetto" => "trace-conformance",
        "pool" => "accounting",
        "verify-explorer" => "schedule-space",
        "verify-interval" => "interval-certification",
        "plan" => "plan-static",
        "plan-symbolic" => "symbolic-normalization",
        "bench-diff" => "bench-regression",
        _ => "finding",
    }
}

/// Collects findings across passes and routes human output so that
/// `--json` keeps stdout machine-readable.
struct Report {
    json: bool,
    passes: Vec<&'static str>,
    entries: Vec<Entry>,
}

impl Report {
    fn begin(&mut self, pass: &'static str) {
        self.passes.push(pass);
    }

    /// A human progress line (stdout normally, stderr under `--json`).
    fn progress(&self, line: &str) {
        if self.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }

    /// Record one finding. Expected findings (seeded bugs the checkers
    /// must fire on) don't count against the exit code.
    fn finding(&mut self, pass: &'static str, context: &str, message: String, expected: bool) {
        self.finding_kind(pass, default_kind(pass), context, message, expected);
    }

    /// Record one finding with an explicit kind (the symbolic pass emits
    /// several kinds; everything else uses its pass default).
    fn finding_kind(
        &mut self,
        pass: &'static str,
        kind: &'static str,
        context: &str,
        message: String,
        expected: bool,
    ) {
        if expected {
            self.progress(&format!("{pass} (expected) [{context}]: {message}"));
        } else {
            eprintln!("analyze[{pass} {context}]: {message}");
        }
        self.entries.push(Entry {
            pass,
            kind,
            context: context.to_string(),
            message,
            expected,
        });
    }

    fn unexpected(&self) -> usize {
        self.entries.iter().filter(|e| !e.expected).count()
    }

    /// The machine-readable document: fixed key order (`schema`, `passes`,
    /// `findings`, `unexpected`; each finding `pass`, `kind`, `context`,
    /// `message`, `expected`) so downstream parsers may byte-diff it.
    /// `analyze/2` added the per-finding `kind` field (see DESIGN.md for
    /// the kind vocabulary).
    fn to_json(&self) -> String {
        use obs::json::quote;
        let mut out = String::from("{\n  \"schema\": \"analyze/2\",\n  \"passes\": [");
        for (i, p) in self.passes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&quote(p));
        }
        out.push_str("],\n  \"findings\": [");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str(&format!(
                "{{\"pass\": {}, \"kind\": {}, \"context\": {}, \"message\": {}, \"expected\": {}}}",
                quote(e.pass),
                quote(e.kind),
                quote(&e.context),
                quote(&e.message),
                e.expected
            ));
        }
        if !self.entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"unexpected\": {}\n}}\n",
            self.unexpected()
        ));
        out
    }
}

fn main() {
    // Strict argument parsing up front: any usage problem — including a
    // --trace file that cannot be read — is exit code 2, before any pass
    // runs (so CI can distinguish "misinvoked" from "found a bug").
    let mut json = false;
    let mut run_verify = false;
    let mut run_plan = false;
    let mut plan_bad = false;
    let mut run_plan_symbolic = false;
    let mut plan_symbolic_bad = false;
    let mut plan_ps: Vec<usize> = vec![4, 64, 1024];
    let mut trace_file: Option<(String, String)> = None;
    let mut bench_diff: Option<(String, String)> = None;
    let mut diff_force = false;
    let mut diff_threshold = obs::diff::DEFAULT_THRESHOLD;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--verify" => run_verify = true,
            "--bench-diff" => {
                let old = args.next();
                let new = args.next();
                let (Some(old), Some(new)) = (old, new) else {
                    eprintln!("analyze: --bench-diff needs OLD and NEW snapshot paths\n{USAGE}");
                    std::process::exit(2);
                };
                bench_diff = Some((old, new));
            }
            "--force" => diff_force = true,
            "--threshold" => {
                let raw = args.next().unwrap_or_else(|| {
                    eprintln!("analyze: --threshold needs a fraction\n{USAGE}");
                    std::process::exit(2);
                });
                diff_threshold = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("analyze: bad --threshold {raw:?}\n{USAGE}");
                        std::process::exit(2);
                    });
            }
            "--plan" => run_plan = true,
            "--plan-bad" => {
                run_plan = true;
                plan_bad = true;
            }
            "--plan-symbolic" => run_plan_symbolic = true,
            "--plan-symbolic-bad" => {
                run_plan_symbolic = true;
                plan_symbolic_bad = true;
            }
            "--plan-ps" => {
                let csv = args.next().unwrap_or_else(|| {
                    eprintln!("analyze: --plan-ps needs a comma-separated list\n{USAGE}");
                    std::process::exit(2);
                });
                plan_ps = csv
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&p| p >= 1)
                            .unwrap_or_else(|| {
                                eprintln!("analyze: bad --plan-ps entry {s:?}\n{USAGE}");
                                std::process::exit(2);
                            })
                    })
                    .collect();
                run_plan = true;
            }
            "--trace" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("analyze: --trace needs a file path\n{USAGE}");
                    std::process::exit(2);
                });
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("analyze: cannot read --trace file {path}: {e}\n{USAGE}");
                    std::process::exit(2);
                });
                trace_file = Some((path, text));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("analyze: unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    // --bench-diff is a dedicated mode: only the regression-sentinel pass
    // runs, with obsdiff-compatible exit codes.
    if let Some((old_path, new_path)) = bench_diff {
        std::process::exit(bench_diff_mode(
            &old_path,
            &new_path,
            diff_threshold,
            diff_force,
            json,
        ));
    }

    let mut report = Report {
        json,
        passes: Vec::new(),
        entries: Vec::new(),
    };

    model_pass(&mut report);
    clean_comm_pass(&mut report);
    seeded_deadlock_pass(&mut report);
    obs_trace_pass(&mut report);
    pool_pass(&mut report);
    if run_verify {
        verify_explorer_pass(&mut report);
        verify_interval_pass(&mut report);
    }
    if run_plan {
        plan_pass(&mut report, &plan_ps, plan_bad);
    }
    if run_plan_symbolic {
        plan_symbolic_pass(&mut report, plan_symbolic_bad);
    }
    if let Some((path, text)) = &trace_file {
        perfetto_file_pass(&mut report, path, text);
    }

    if json {
        print!("{}", report.to_json());
    }
    let unexpected = report.unexpected();
    if unexpected > 0 {
        eprintln!("analyze: {unexpected} unexpected finding(s)");
        std::process::exit(1);
    }
    report.progress("analyze: all passes clean");
}

/// The regression sentinel: diff two bench snapshots with `obs::diff` and
/// report every regressed metric as a named finding. Returns the process
/// exit code: 0 no regression, 1 regression(s), 2 unreadable/unparseable
/// snapshot or host-shape mismatch without `--force`.
fn bench_diff_mode(old_path: &str, new_path: &str, threshold: f64, force: bool, json: bool) -> i32 {
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("analyze: cannot read snapshot {path}: {e}\n{USAGE}");
            std::process::exit(2);
        })
    };
    let parse = |path: &str, text: &str| {
        obs::diff::parse_snapshot(text).unwrap_or_else(|e| {
            eprintln!("analyze: bad snapshot {path}: {e}\n{USAGE}");
            std::process::exit(2);
        })
    };
    let old = parse(old_path, &read(old_path));
    let new = parse(new_path, &read(new_path));
    let config = obs::diff::DiffConfig { threshold, force };
    let report = match obs::diff::diff(&old, &new, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("analyze: bench-diff refused: {e} (pass --force to compare anyway)");
            return 2;
        }
    };
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    let regressions = report.regressions();
    for d in &regressions {
        eprintln!(
            "analyze[bench-diff {}]: regressed {} -> {} ({})",
            d.name,
            d.old.map_or("-".into(), |v| format!("{v}")),
            d.new.map_or("-".into(), |v| format!("{v}")),
            d.direction.name()
        );
    }
    if regressions.is_empty() {
        eprintln!(
            "analyze: bench-diff clean ({} metric(s) compared)",
            report.diffs.len()
        );
        0
    } else {
        eprintln!("analyze: {} regressed metric(s)", regressions.len());
        1
    }
}

/// Invariant checks for every machine × app × (n, p) point. All findings
/// are unexpected: these inputs are sane.
fn model_pass(report: &mut Report) {
    report.begin("model");
    let machines = [
        ("System G @2.8GHz", MachineParams::system_g(2.8e9)),
        ("System G @2.0GHz", MachineParams::system_g(2.0e9)),
        ("Dori @2.0GHz", MachineParams::dori(2.0e9)),
    ];
    let apps: [Box<dyn AppModel>; 3] = [
        Box::new(FtModel::system_g()),
        Box::new(EpModel::system_g()),
        Box::new(CgModel::system_g()),
    ];
    let mut points = 0;
    for (mname, m) in &machines {
        for app in &apps {
            for n in [(1u64 << 16) as f64, (1u64 << 20) as f64] {
                for p in [1usize, 4, 16, 64] {
                    let a = app.app_params(n, p);
                    points += 1;
                    for finding in check_model(m, &a, p) {
                        let ctx = format!("{mname}/{} n={n} p={p}", app.name());
                        report.finding("model", &ctx, finding.to_string(), false);
                    }
                }
            }
        }
    }
    report.progress(&format!(
        "model pass: {points} (machine, app, n, p) points checked"
    ));
}

/// A correct 4-rank program (point-to-point ring + allreduce) must produce
/// zero findings.
fn clean_comm_pass(report: &mut Report) {
    report.begin("comm");
    let world = World::new(system_g(), 2.8e9);
    let run = mps::run(&world, 4, |ctx| {
        let right = (ctx.rank() + 1) % ctx.size();
        let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
        ctx.send(right, 1, vec![ctx.rank() as u64]);
        let from_left = ctx.recv::<u64>(left, 1);
        ctx.compute(1e5);
        ctx.allreduce_sum(&[from_left[0] as f64]);
    });
    let findings = check_report(&run);
    for finding in &findings {
        report.finding("comm", "clean ring", finding.to_string(), false);
    }
    report.progress(&format!(
        "comm pass: clean 4-rank ring checked ({} findings)",
        findings.len()
    ));
}

/// Seed a 2-rank cross deadlock (both ranks receive before sending) and
/// verify the checker reports the cycle.
fn seeded_deadlock_pass(report: &mut Report) {
    report.begin("deadlock");
    let world = World::new(dori(), 2.0e9);
    let result = try_run(&world, 2, |ctx| {
        let peer = 1 - ctx.rank();
        // Deliberate bug: recv-before-send on both ranks.
        let _ = ctx.recv::<u64>(peer, 7);
        ctx.send(peer, 7, vec![0u64]);
    });
    let Err(RunError::Deadlock(info)) = &result else {
        report.finding(
            "deadlock",
            "seeded",
            "program unexpectedly completed".into(),
            false,
        );
        return;
    };
    let findings = check_deadlock(info);
    let fired = findings
        .iter()
        .any(|f| matches!(f, Finding::DeadlockCycle { .. }));
    for finding in &findings {
        report.finding("deadlock", "seeded", finding.to_string(), true);
    }
    if !fired {
        report.finding(
            "deadlock",
            "seeded",
            "seeded deadlock was NOT detected — checker is broken".into(),
            false,
        );
    }
}

/// Run a traced 4-rank FT kernel and check the recorded spans conform.
fn obs_trace_pass(report: &mut Report) {
    report.begin("trace");
    let world = World::new(system_g(), 2.8e9).with_obs(obs::ObsConfig::enabled());
    let cfg = npb::FtConfig::class(npb::Class::S);
    let run = mps::run(&world, 4, move |ctx| npb::ft_kernel(ctx, cfg));
    let Some(trace) = run.trace("analyze ft") else {
        report.finding(
            "trace",
            "4-rank FT",
            "traced run produced no tracks".into(),
            false,
        );
        return;
    };
    let findings = check_trace(&trace);
    for finding in &findings {
        report.finding("trace", "4-rank FT", finding.to_string(), false);
    }
    report.progress(&format!(
        "trace pass: 4-rank FT, {} spans on {} tracks checked ({} findings)",
        trace.span_count(),
        trace.tracks.len(),
        findings.len()
    ));
}

/// Run a known-size surface sweep on a 4-thread pool and cross-check the
/// pool's task accounting against the model-eval counter.
fn pool_pass(report: &mut Report) {
    report.begin("pool");
    let mach = MachineParams::system_g(2.8e9);
    let ft = FtModel::system_g();
    let fs = [1.6e9, 2.0e9, 2.4e9, 2.8e9];
    let ps = [1usize, 4, 16, 64, 256, 1024];

    let reg = obs::global();
    let tasks = reg.counter("pool.tasks_executed");
    let evals = reg.counter("isoee.model_evals");
    let (tasks0, evals0) = (tasks.get(), evals.get());
    isoee::scaling::ee_surface_pf_with(
        &pool::PoolConfig::with_threads(4),
        &ft,
        &mach,
        (1u64 << 20) as f64,
        &ps,
        &fs,
    )
    .expect("sweep evaluates");
    let findings = check_sweep_accounting(
        fs.len(),
        ps.len(),
        tasks.get() - tasks0,
        evals.get() - evals0,
    );
    for finding in &findings {
        report.finding("pool", "accounting", finding.to_string(), false);
    }
    report.progress(&format!(
        "pool pass: {}x{} sweep on 4 threads checked ({} findings)",
        fs.len(),
        ps.len(),
        findings.len()
    ));
}

/// Static communication-plan certification: analyze the in-tree NPB
/// `CommPlan`s at every requested world size, lower each analysis to
/// Eq. 13/15 interval cost bounds, and cross-validate the verdicts
/// dynamically with the schedule explorer at the smallest p ≤ 4.
/// With `bad` set, a deliberately deadlocking plan is analyzed instead and
/// its findings are recorded as *unexpected* — the exit-1 path.
fn plan_pass(report: &mut Report, ps: &[usize], bad: bool) {
    use plan::{analyze_plan, Cond, Expr, Op, TagExpr};

    report.begin("plan");

    if bad {
        // Head-to-head ring: every rank receives from its right neighbor
        // before sending to it — a full p-cycle of blocked receives.
        let broken = plan::CommPlan::new(
            "seeded-head-to-head",
            vec![
                Op::Recv {
                    from: (Expr::Rank + Expr::Const(1)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(7)),
                },
                Op::Send {
                    to: (Expr::Rank + Expr::Const(1)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(7)),
                    bytes: Expr::Const(64),
                },
            ],
        );
        let p = ps.iter().copied().min().unwrap_or(4).max(2);
        let analysis = analyze_plan(&broken, p);
        for f in &analysis.findings {
            report.finding(
                "plan",
                &format!("seeded-head-to-head p={p}"),
                f.to_string(),
                false,
            );
        }
        if analysis.deadlock_free() {
            report.finding(
                "plan",
                &format!("seeded-head-to-head p={p}"),
                "seeded deadlock was NOT detected".into(),
                false,
            );
        }
        return;
    }

    let mach = isoee::interval::MachBox::from_params(&MachineParams::system_g(2.8e9));
    let class = npb::Class::S;
    let plans = [
        ("ft", npb::ft_plan(&npb::FtConfig::class(class)), false),
        ("ep", npb::ep_plan(&npb::EpConfig::class(class)), false),
        // CG's processor grid needs a power-of-two world.
        ("cg", npb::cg_plan(&npb::CgConfig::class(class)), true),
    ];

    for &p in ps {
        for (name, commplan, pow2_only) in &plans {
            if *pow2_only && !p.is_power_of_two() {
                report.progress(&format!("plan pass: {name} skipped at p={p} (needs 2^k)"));
                continue;
            }
            let t0 = std::time::Instant::now();
            let analysis = analyze_plan(commplan, p);
            let cost = isoee::cost_bounds(&analysis, &mach);
            let dt = t0.elapsed();
            if analysis.deadlock_free() {
                report.progress(&format!(
                    "plan pass: {name} p={p}: deadlock-free, {} msgs, {} B, \
                     T_comm in [{:.3e}, {:.3e}] s ({} abstract steps, {dt:?})",
                    cost.messages, cost.bytes, cost.t_comm.lo, cost.t_comm.hi, analysis.steps,
                ));
            } else {
                for f in &analysis.findings {
                    report.finding("plan", &format!("{name} p={p}"), f.to_string(), false);
                }
                if analysis.findings.is_empty() {
                    report.finding(
                        "plan",
                        &format!("{name} p={p}"),
                        "plan not certified (inexact or incomplete) with no findings".into(),
                        false,
                    );
                }
            }
            if !cost.enclosure.baseline_certified() {
                report.finding(
                    "plan",
                    &format!("{name} p={p}"),
                    "cost enclosure failed baseline certification".into(),
                    false,
                );
            }
        }
    }

    // Dynamic cross-validation: explore the lowered plans on a real small
    // world; a statically certified plan must produce no deadlock finding
    // on any explored schedule.
    if let Some(&p) = ps.iter().filter(|&&p| (2..=4).contains(&p)).min() {
        let world = programs::demo_world();
        let explorer = Explorer {
            max_schedules: 4,
            max_depth: 1_000_000,
        };
        for (name, commplan, pow2_only) in &plans {
            if *pow2_only && !p.is_power_of_two() {
                continue;
            }
            let ex = explorer.explore_plan(&world, p, commplan);
            let deadlocks = ex
                .findings
                .iter()
                .filter(|f| matches!(f, VerifyFinding::Deadlock { .. }))
                .count();
            if deadlocks == 0 {
                report.progress(&format!(
                    "plan pass: {name} p={p} cross-validated on {} explored schedule(s)",
                    ex.schedules
                ));
            } else {
                report.finding(
                    "plan",
                    &format!("{name} p={p}"),
                    format!("explorer found {deadlocks} deadlock(s) in a certified plan"),
                    false,
                );
            }
        }
    }

    // The conservatism contract, exercised on a tiny wildcard plan: at
    // p > 2 a RecvAny verdict must never claim exactness.
    let wild = plan::CommPlan::new(
        "wildcard-probe",
        vec![
            Op::IfElse {
                cond: Cond::Ne(Expr::Rank, Expr::Const(0)),
                then: vec![Op::Send {
                    to: Expr::Const(0),
                    tag: TagExpr::Expr(Expr::Const(3)),
                    bytes: Expr::Const(8),
                }],
                els: vec![],
            },
            Op::IfElse {
                cond: Cond::Eq(Expr::Rank, Expr::Const(0)),
                then: vec![Op::Loop {
                    count: Expr::P - Expr::Const(1),
                    body: vec![Op::RecvAny {
                        tag: TagExpr::Expr(Expr::Const(3)),
                    }],
                }],
                els: vec![],
            },
        ],
    );
    let wild_analysis = analyze_plan(&wild, 3);
    if wild_analysis.exact {
        report.finding(
            "plan",
            "wildcard-probe p=3",
            "RecvAny verdict claimed exactness at p > 2".into(),
            false,
        );
    } else {
        // The conservative verdict must carry its witness: which rank's
        // which op first made the analysis inexact.
        match wild_analysis.first_inexact {
            Some(w) => report.progress(&format!(
                "plan pass: wildcard conservatism flagged as expected (first inexact op: {w})"
            )),
            None => report.finding(
                "plan",
                "wildcard-probe p=3",
                "inexact verdict without a first-inexact witness".into(),
                false,
            ),
        }
    }
}

/// The parametric certification pass (`--plan-symbolic`): certify the NPB
/// plans for *every* `p` in their declared domains at once, dump the
/// machine-checkable certificates under `target/plan-certs/`, and decide
/// two static power-cap questions per plan — one generous cap that must
/// accept for all admissible `p`, and the worked 2 kW cap that must be
/// *rejected* with a witness naming the violating `p` range (System G
/// idles at well over 2 kW once the world grows past a few dozen ranks).
///
/// `--plan-symbolic-bad` (`bad`) instead certifies a seeded skewed-shift
/// plan whose offsets do not cancel; the certifier must refuse it with a
/// normalization witness (exit 1 path for CI).
fn plan_symbolic_pass(report: &mut Report, bad: bool) {
    use plan::{certify_plan, Domain, Expr, Op, TagExpr};

    report.begin("plan-symbolic");

    if bad {
        // Everyone sends right by 1 but expects from the left by 2: the
        // k-th receiver is not the k-th sender's target at any p ≥ 3.
        let skew = plan::CommPlan::new(
            "seeded-skewed-shift",
            vec![
                Op::Send {
                    to: (Expr::Rank + Expr::Const(1)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(9)),
                    bytes: Expr::Const(64),
                },
                Op::Recv {
                    from: (Expr::Rank + Expr::P - Expr::Const(2)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(9)),
                },
            ],
        );
        let cert = certify_plan(&skew, &Domain::at_least(3));
        match &cert.failure {
            Some(f) => {
                report.finding_kind(
                    "plan-symbolic",
                    "symbolic-normalization",
                    "seeded-skewed-shift",
                    format!("certification refused: {f}"),
                    false,
                );
            }
            None => report.finding_kind(
                "plan-symbolic",
                "symbolic-normalization",
                "seeded-skewed-shift",
                "seeded non-bijective shift was NOT refused".into(),
                false,
            ),
        }
        return;
    }

    let mach = isoee::interval::MachBox::from_params(&MachineParams::system_g(2.8e9));
    let class = npb::Class::S;
    // FT/EP certify over all p ≥ 1; for the power-cap sweeps (which
    // enumerate the domain) clamp to the paper-scale p ≤ 4096. CG's grid
    // wants powers of two.
    let plans = [
        (
            "ft",
            npb::ft_plan(&npb::FtConfig::class(class)),
            npb::ft_domain().with_max(4096),
        ),
        (
            "ep",
            npb::ep_plan(&npb::EpConfig::class(class)),
            npb::ep_domain().with_max(4096),
        ),
        (
            "cg",
            npb::cg_plan(&npb::CgConfig::class(class)),
            npb::cg_domain().with_max(4096),
        ),
    ];

    let cert_dir = std::path::Path::new("target/plan-certs");
    let dump = std::fs::create_dir_all(cert_dir).is_ok();

    for (name, commplan, domain) in &plans {
        let t0 = std::time::Instant::now();
        let cert = certify_plan(commplan, domain);
        let dt = t0.elapsed();
        if cert.certified {
            report.progress(&format!(
                "plan-symbolic pass: {name} certified for all {} \
                 ({} obligations, {} base cases, {dt:?})",
                cert.domain,
                cert.obligations.len(),
                cert.base_ps.len(),
            ));
        } else {
            let why = cert
                .failure
                .as_ref()
                .map_or_else(|| "no witness".to_string(), ToString::to_string);
            report.finding_kind(
                "plan-symbolic",
                "symbolic-normalization",
                name,
                format!("certification failed: {why}"),
                false,
            );
            continue;
        }

        // Base-case soundness is part of the certificate; surface a
        // finding if re-validation disagrees (a machine-check of the
        // artifact itself).
        if let Err(e) = cert.revalidate(commplan) {
            report.finding_kind(
                "plan-symbolic",
                "symbolic-base-case",
                name,
                format!("certificate failed re-validation: {e}"),
                false,
            );
        }

        if dump {
            let path = cert_dir.join(format!("{name}.json"));
            if std::fs::write(&path, cert.to_json()).is_ok() {
                report.progress(&format!("  certificate: {}", path.display()));
            }
        }

        // Power-cap verdict 1: a generous facility cap (1 MW) accepts
        // across the whole clamped domain.
        let generous = 1.0e6;
        let v = isoee::power_cap_verdict(&cert, &mach, generous);
        match &v {
            isoee::PowerCapVerdict::AcceptedForAll { ps_checked } => {
                report.progress(&format!(
                    "plan-symbolic pass: {name} under {generous:.0} W for all p \
                     ({ps_checked} world sizes enclosed)"
                ));
            }
            other => report.finding_kind(
                "plan-symbolic",
                "power-cap",
                name,
                format!("expected for-all-p accept under {generous:.0} W, got {other:?}"),
                false,
            ),
        }

        // Power-cap verdict 2: the worked 2 kW cap must be rejected with
        // a violating range — System G's per-rank idle share alone busts
        // 2 kW long before the domain max.
        let cap = 2000.0;
        let v = isoee::power_cap_verdict(&cert, &mach, cap);
        match &v {
            isoee::PowerCapVerdict::Rejected { from_p, to_p } => {
                let to = to_p.map_or_else(|| "∞".to_string(), |p| p.to_string());
                report.progress(&format!(
                    "plan-symbolic pass: {name} over {cap:.0} W for p in [{from_p}, {to}] \
                     (static rejection witness)"
                ));
            }
            other => report.finding_kind(
                "plan-symbolic",
                "power-cap",
                name,
                format!("expected rejection under {cap:.0} W with a witness, got {other:?}"),
                false,
            ),
        }
    }

    // Differential spot-check: the symbolic verdict must agree with the
    // concrete checker at a few sampled world sizes per plan.
    for (name, commplan, domain) in &plans {
        for p in domain.sample(4, 0x5eed) {
            let Ok(pu) = usize::try_from(p) else { continue };
            let a = plan::analyze_plan(commplan, pu);
            if !a.deadlock_free() {
                report.finding_kind(
                    "plan-symbolic",
                    "symbolic-differential",
                    name,
                    format!("concrete checker disagrees with certificate at p={p}"),
                    false,
                );
            }
        }
        report.progress(&format!(
            "plan-symbolic pass: {name} spot-checked against the concrete checker"
        ));
    }
}

/// Write an explorer witness as a Perfetto trace under
/// `target/verify-witnesses/` (best effort — CI uploads these on failure).
fn dump_witness(report: &Report, name: &str, p: usize, schedule: &[verify::Choice]) {
    let dir = std::path::Path::new("target/verify-witnesses");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    let trace = witness_trace(name, p, schedule);
    if obs::perfetto::write_file(&trace, &path).is_ok() {
        report.progress(&format!(
            "  witness: {} ({} steps)",
            path.display(),
            schedule.len()
        ));
    }
}

/// Schedule-space model checking over the seeded example worlds: the clean
/// ring must certify, each seeded bug must be found (expected findings),
/// and a bounded sweep of the real 4-rank FT kernel must stay quiet.
fn verify_explorer_pass(report: &mut Report) {
    report.begin("verify-explorer");
    let world = programs::demo_world();

    // Clean ring: certified, no findings, at several world sizes.
    for p in [2usize, 3, 4] {
        let ex = Explorer::default().explore(&world, p, programs::ring);
        if ex.certified() {
            report.progress(&format!(
                "verify pass: ring p={p} certified over {} schedules",
                ex.schedules
            ));
        } else {
            for f in &ex.findings {
                report.finding(
                    "verify-explorer",
                    &format!("ring p={p}"),
                    f.to_string(),
                    false,
                );
            }
            if ex.truncated {
                report.finding(
                    "verify-explorer",
                    &format!("ring p={p}"),
                    "exploration truncated; certificate unavailable".into(),
                    false,
                );
            }
        }
    }

    // Seeded bugs: each must fire within bounds.
    seeded_explorer_case(
        report,
        &world,
        "cyclic-deadlock",
        programs::cyclic_deadlock,
        |f| matches!(f, VerifyFinding::Deadlock { .. }),
    );
    seeded_explorer_case(
        report,
        &world,
        "wildcard-race",
        programs::wildcard_race,
        |f| matches!(f, VerifyFinding::TagRace { .. }),
    );
    seeded_explorer_case(
        report,
        &world,
        "wildcard-then-specific",
        programs::wildcard_then_specific,
        |f| matches!(f, VerifyFinding::Deadlock { .. }),
    );

    // The real FT kernel at 4 ranks, bounded: any finding is a real bug.
    let bounded = Explorer {
        max_schedules: 24,
        ..Explorer::default()
    };
    let cfg = npb::FtConfig::class(npb::Class::S);
    let ex = bounded.explore(&world, 4, move |ctx| npb::ft_kernel(ctx, cfg));
    for f in &ex.findings {
        report.finding("verify-explorer", "ft p=4", f.to_string(), false);
        let (VerifyFinding::Deadlock { witness, .. }
        | VerifyFinding::TagRace { witness, .. }
        | VerifyFinding::DeliveryOrderNondet {
            witness_a: witness, ..
        }) = f;
        dump_witness(report, "ft-p4-unexpected", 4, witness);
    }
    report.progress(&format!(
        "verify pass: FT p=4 swept {} schedules{} ({} findings)",
        ex.schedules,
        if ex.truncated { " (bounded)" } else { "" },
        ex.findings.len()
    ));
}

/// Run the explorer on a program seeded with exactly one bug class; the
/// matching finding is expected, its absence (or any other finding class)
/// is not.
fn seeded_explorer_case<F>(
    report: &mut Report,
    world: &World,
    name: &str,
    program: fn(&mut mps::Ctx) -> u64,
    is_seeded: F,
) where
    F: Fn(&VerifyFinding) -> bool,
{
    let p = 3;
    let ex = Explorer::default().explore(world, p, program);
    let mut fired = false;
    for f in &ex.findings {
        if is_seeded(f) {
            fired = true;
            report.finding("verify-explorer", name, f.to_string(), true);
            if let VerifyFinding::Deadlock { blocked, witness } = f {
                let minimized =
                    verify::minimize_deadlock::<u64, _>(world, p, program, witness, blocked);
                report.progress(&format!(
                    "  minimized witness: {} -> {} steps",
                    witness.len(),
                    minimized.len()
                ));
                dump_witness(report, name, p, witness);
            } else if let VerifyFinding::TagRace { witness, .. } = f {
                dump_witness(report, name, p, witness);
            }
        }
    }
    if !fired {
        report.finding(
            "verify-explorer",
            name,
            format!(
                "seeded bug NOT detected in {} schedules — explorer is broken",
                ex.schedules
            ),
            false,
        );
    }
}

/// Interval pre-certification of the Fig 5–9 sweep grids (the exact grids
/// `tests/figure_shapes.rs` sweeps) and box bisection over the NPB
/// workload ranges. A degenerate cell or box is a real model bug.
fn verify_interval_pass(report: &mut Report) {
    report.begin("verify-interval");
    let mach = MachineParams::system_g(2.8e9);
    let (ft, ep, cg) = (
        FtModel::system_g(),
        EpModel::system_g(),
        CgModel::system_g(),
    );
    const DVFS: [f64; 4] = [1.6e9, 2.0e9, 2.4e9, 2.8e9];
    const PS: [usize; 11] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let fig6_ns: Vec<f64> = (0..6).map(|k| f64::from(1u32 << (18 + k))).collect();
    let fig8_ns: Vec<f64> = (0..5).map(|k| 75_000.0 * f64::from(1u32 << k)).collect();

    let grids: [(&str, GridCertification, usize); 5] = [
        (
            "fig5 FT (p,f)",
            certify_pf_grid(&ft, &mach, (1u64 << 20) as f64, &PS, &DVFS),
            PS.len() * DVFS.len(),
        ),
        (
            "fig6 FT (p,n)",
            certify_pn_grid(&ft, &mach, &[16, 64, 256, 1024], &fig6_ns),
            4 * fig6_ns.len(),
        ),
        (
            "fig7 EP (p,f)",
            certify_pf_grid(
                &ep,
                &mach,
                (1u64 << 22) as f64,
                &[1, 2, 4, 8, 16, 32, 64, 128],
                &DVFS,
            ),
            8 * DVFS.len(),
        ),
        (
            "fig8 CG (p,n)",
            certify_pn_grid(&cg, &mach, &[16, 64, 256], &fig8_ns),
            3 * fig8_ns.len(),
        ),
        (
            "fig9 CG (p,f)",
            certify_pf_grid(&cg, &mach, 75_000.0, &PS, &DVFS),
            PS.len() * DVFS.len(),
        ),
    ];
    for (name, cert, cells) in &grids {
        if let Some((index, error)) = cert.degenerate {
            report.finding(
                "verify-interval",
                name,
                format!("degenerate cell at row-major index {index}: {error}"),
                false,
            );
        } else {
            report.progress(&format!(
                "verify pass: {name} certified degenerate-free \
                 ({}/{cells} cells by interval, {} exact)",
                cert.interval_cells, cert.exact_cells
            ));
        }
    }

    let apps: [(&str, &dyn AppModel); 3] = [("FT", &ft), ("EP", &ep), ("CG", &cg)];
    for (name, app) in apps {
        let ctx = format!("{name} workload box");
        match BoxSearch::default().certify_workload(app, &mach, Interval::new(1e5, 4e6), 64) {
            BoxOutcome::Clean { certified_boxes } => report.progress(&format!(
                "verify pass: {name} EE in (0,1] over n in [1e5, 4e6] at p=64 \
                 ({certified_boxes} certified sub-boxes)"
            )),
            BoxOutcome::Degenerate { sub_box, error } => report.finding(
                "verify-interval",
                &ctx,
                format!("degenerate sub-box {sub_box}: {error}"),
                false,
            ),
            BoxOutcome::Inconclusive { sub_box } => report.finding(
                "verify-interval",
                &ctx,
                format!("bisection inconclusive on {sub_box}"),
                false,
            ),
        }
    }
}

/// Validate an emitted Perfetto trace-event file (already read by the
/// argument parser, so unreadable files are a usage error, not a finding).
fn perfetto_file_pass(report: &mut Report, path: &str, text: &str) {
    report.begin("perfetto");
    match obs::perfetto::validate(text) {
        Ok(rep) => report.progress(&format!(
            "perfetto pass: {path} valid ({} span events on {} tracks, \
             {} counter events)",
            rep.span_events,
            rep.span_tracks.len(),
            rep.counter_events
        )),
        Err(errors) => {
            for e in &errors {
                report.finding("perfetto", path, e.0.clone(), false);
            }
        }
    }
}
