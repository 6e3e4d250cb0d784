//! Differential suite: the event engine must be *bit-identical* to the
//! mps thread runtime on the NPB plans.
//!
//! Both runtimes execute the same [`plan::CommPlan`]s — the thread runtime
//! through [`plan::lower`] (real channels, OS threads), the engine through
//! [`plan::TimedCursor`] (state-machine tasks on [`plan::Schedule`]) —
//! over the same [`mps::RankCore`] accounting. For every kernel and every
//! small `p` we require exact equality of per-collective counters,
//! run-wide totals, per-rank finish times, spans, and metered energy. The
//! static checker, which drains the same cursor on the same schedule,
//! must agree with the engine rank for rank and family for family, up to
//! `p` beyond the thread runtime's reach, and on the verdict of wildcard
//! plans.

mod common;

use std::sync::{Mutex, OnceLock};

use common::{rank_branch, recv, recv_any, send};
use mps::{RunError, World};
use npb::{cg_plan, ep_plan, ft_plan, CgConfig, Class, EpConfig, FtConfig};
use obs::ObsConfig;
use plan::{
    analyze_plan, lower, CollKind, CommPlan, Cond, Expr, Op, PlanFinding, TagExpr, COLL_KINDS,
};
use simrt::{Detail, EngineConfig};

/// The metrics registry is process-global; serialize observed runs so
/// counter deltas are attributable to one run at a time.
fn registry_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn world() -> World {
    World::new(simcluster::system_g(), 2.8e9).with_obs(ObsConfig::disabled().with_metrics(true))
}

/// `(calls, messages, bytes)` snapshot of every collective's counters.
fn snapshot() -> [[u64; 3]; COLL_KINDS] {
    let reg = obs::global();
    let mut out = [[0u64; 3]; COLL_KINDS];
    for (k, slot) in out.iter_mut().enumerate() {
        let name = CollKind::ALL[k].scope_name();
        *slot = [
            reg.counter(&format!("mps.collective.{name}.calls")).get(),
            reg.counter(&format!("mps.collective.{name}.messages"))
                .get(),
            reg.counter(&format!("mps.collective.{name}.bytes")).get(),
        ];
    }
    out
}

fn delta(
    before: &[[u64; 3]; COLL_KINDS],
    after: &[[u64; 3]; COLL_KINDS],
) -> [[u64; 3]; COLL_KINDS] {
    let mut out = [[0u64; 3]; COLL_KINDS];
    for k in 0..COLL_KINDS {
        for f in 0..3 {
            out[k][f] = after[k][f] - before[k][f];
        }
    }
    out
}

struct Observed {
    report: mps::RunReport<()>,
    colls: [[u64; 3]; COLL_KINDS],
}

fn observe_thread(w: &World, p: usize, plan: &CommPlan) -> Observed {
    let before = snapshot();
    let report = mps::run(w, p, |ctx| lower(plan, ctx));
    let colls = delta(&before, &snapshot());
    Observed { report, colls }
}

fn observe_engine(w: &World, p: usize, plan: &CommPlan, cfg: &EngineConfig) -> Observed {
    let before = snapshot();
    let out = simrt::try_run_plan_with(cfg, w, p, plan).expect("engine run completes");
    let colls = delta(&before, &snapshot());
    Observed {
        report: out.report,
        colls,
    }
}

/// Everything that must match bit-for-bit between the two runtimes.
fn assert_identical(name: &str, thread: &Observed, engine: &Observed, w: &World) {
    assert_eq!(thread.colls, engine.colls, "{name}: collective counters");
    let tt = thread.report.total_counters();
    let et = engine.report.total_counters();
    assert_eq!(tt, et, "{name}: total counters");
    assert_eq!(
        thread.report.span(),
        engine.report.span(),
        "{name}: span bits"
    );
    for (a, b) in thread.report.ranks.iter().zip(&engine.report.ranks) {
        assert_eq!(a.rank, b.rank, "{name}: rank order");
        assert_eq!(a.finish_s, b.finish_s, "{name}: rank {} finish", a.rank);
        assert_eq!(a.stats, b.stats, "{name}: rank {} counters", a.rank);
        assert_eq!(
            a.markers, b.markers,
            "{name}: rank {} phase markers",
            a.rank
        );
        assert_eq!(
            a.comm.events.len(),
            b.comm.events.len(),
            "{name}: rank {} comm event count",
            a.rank
        );
        for (ea, eb) in a.comm.events.iter().zip(&b.comm.events) {
            assert_eq!(ea.op, eb.op, "{name}: rank {} comm op", a.rank);
            assert_eq!(ea.tag, eb.tag, "{name}: rank {} comm tag", a.rank);
            assert_eq!(ea.bytes, eb.bytes, "{name}: rank {} comm bytes", a.rank);
            assert_eq!(ea.time_s, eb.time_s, "{name}: rank {} comm time", a.rank);
            assert_eq!(
                ea.waited_s, eb.waited_s,
                "{name}: rank {} comm wait",
                a.rank
            );
            assert_eq!(ea.vc, eb.vc, "{name}: rank {} vector clock", a.rank);
        }
    }
    assert_eq!(
        thread.report.energy(w),
        engine.report.energy(w),
        "{name}: metered energy"
    );
}

fn plans() -> Vec<(&'static str, CommPlan)> {
    vec![
        ("ft", ft_plan(&FtConfig::class(Class::S))),
        ("ep", ep_plan(&EpConfig::class(Class::S))),
        ("cg", cg_plan(&CgConfig::class(Class::S))),
    ]
}

#[test]
fn engine_is_bit_identical_to_thread_runtime_on_npb() {
    let _guard = registry_lock().lock().unwrap();
    let w = world();
    for (name, plan) in plans() {
        for p in [2usize, 4, 8] {
            let thread = observe_thread(&w, p, &plan);
            let engine = observe_engine(&w, p, &plan, &EngineConfig::default());
            assert_identical(&format!("{name} p={p}"), &thread, &engine, &w);
        }
    }
}

/// A wildcard plan's schedule is the one the engine shares with the
/// checker, a function of the plan and `p` alone: a plan whose
/// `recv_any`s can match senders in more than one order completes the
/// same way on every run, with the static checker's totals.
#[test]
fn wildcard_runs_repeat_and_match_static_totals() {
    let p = 8;
    // Every rank but 0 computes for a rank-dependent time, then sends
    // rank 0 a rank-dependent payload; rank 0 takes them in any order.
    let plan = CommPlan::new(
        "gather-any",
        vec![Op::IfElse {
            cond: Cond::Eq(Expr::Rank, Expr::Const(0)),
            then: vec![Op::Loop {
                count: Expr::P - Expr::Const(1),
                body: vec![Op::RecvAny {
                    tag: TagExpr::Expr(Expr::Const(5)),
                }],
            }],
            els: vec![
                Op::Compute {
                    units: Expr::Const(1000) * (Expr::P - Expr::Rank),
                    scale: 1.0,
                },
                Op::Send {
                    to: Expr::Const(0),
                    tag: TagExpr::Expr(Expr::Const(5)),
                    bytes: Expr::Const(64) * Expr::Rank,
                },
            ],
        }],
    );
    assert!(plan.has_wildcard());
    let w = World::new(simcluster::system_g(), 2.8e9);
    let first = simrt::try_run_plan(&w, p, &plan).expect("first run");
    let second = simrt::try_run_plan(&w, p, &plan).expect("second run");
    let (a, b) = (first.report, second.report);
    for (x, y) in a.ranks.iter().zip(&b.ranks) {
        assert_eq!(
            x.finish_s.to_bits(),
            y.finish_s.to_bits(),
            "rank {}",
            x.rank
        );
        assert_eq!(x.stats, y.stats, "rank {} counters", x.rank);
        // `f64` Debug output round-trips, so equal text is equal bits.
        assert_eq!(
            format!("{:?}", x.comm.events),
            format!("{:?}", y.comm.events),
            "rank {} comm trace",
            x.rank
        );
    }

    let analysis = analyze_plan(&plan, p);
    assert!(analysis.completed, "{:?}", analysis.findings);
    let totals = a.total_counters();
    #[allow(clippy::cast_precision_loss)]
    {
        assert_eq!(totals.messages, analysis.total.messages as f64);
        assert_eq!(totals.bytes, analysis.total.bytes as f64);
    }
    assert_eq!(totals.wc, analysis.total.wc);
}

/// The checker and the engine run one schedule with one wildcard rule,
/// so they reach the same verdict on wildcard plans, including plans
/// where the wildcard's choice decides completion. On a deadlock the
/// checker's blocked ranks (cycle members and unmatched receivers) are
/// the ranks of the engine's witness: in these plans every blocked rank
/// lies on it.
#[test]
fn checker_and_engine_agree_on_wildcard_plans() {
    // Rank 2 sends rank 0 a tag-5 message, then releases rank 1 to send
    // one too. Rank 2's arrives first, but rank 1 runs before rank 0
    // retries its wildcard, which takes the lowest source: rank 1. Rank
    // 0's second receive completes from rank 2 and strands on rank 1.
    let relay = |second: usize| {
        rank_branch(vec![
            (1, vec![recv(2, 9), send(0, 5, 8)]),
            (2, vec![send(0, 5, 8), send(1, 9, 8)]),
            (0, vec![recv_any(5), recv(second, 5)]),
        ])
    };
    // Whatever the wildcard takes, ranks 0 and 1 then wait on each other.
    let cycle = rank_branch(vec![
        (1, vec![send(0, 5, 8), recv(0, 7), send(0, 6, 8)]),
        (2, vec![send(0, 5, 8)]),
        (0, vec![recv_any(5), recv(1, 6), send(1, 7, 8)]),
    ]);
    let w = World::new(simcluster::system_g(), 2.8e9);
    let table = [
        ("relay-then-other", relay(2), true),
        ("relay-then-same", relay(1), false),
        ("any-then-cycle", cycle, false),
    ];
    for (name, body, completes) in table {
        let plan = CommPlan::new(name, body);
        for p in [3usize, 4, 8] {
            let analysis = analyze_plan(&plan, p);
            let run = simrt::try_run_plan(&w, p, &plan);
            let at = format!("{name} p={p}");
            assert_eq!(analysis.completed, completes, "{at}: checker");
            assert_eq!(run.is_ok(), completes, "{at}: engine");
            if name.starts_with("relay") {
                // Ascending, although rank 2's message arrived first.
                let choice = PlanFinding::WildcardChoice {
                    rank: 0,
                    tag: 5,
                    sources: vec![1, 2],
                };
                assert!(analysis.findings.contains(&choice), "{at}");
            }
            let Err(err) = run else { continue };
            let RunError::Deadlock(info) = err else {
                panic!("{at}: expected Deadlock, got {err}");
            };
            let mut checker: Vec<usize> = (analysis.findings.iter())
                .flat_map(|f| match f {
                    PlanFinding::DeadlockCycle { cycle } => cycle.iter().map(|e| e.rank).collect(),
                    PlanFinding::UnmatchedRecv { rank, .. } => vec![*rank],
                    _ => Vec::new(),
                })
                .collect();
            let mut engine: Vec<usize> = info.edges.iter().map(|e| e.from_rank).collect();
            checker.sort_unstable();
            engine.sort_unstable();
            assert_eq!(checker, engine, "{at}: blocked ranks");
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Aggregate fidelity cannot change what the energy meter sees: per-kind
/// work sums and the span are preserved, and energy is linear in exactly
/// those. (Energy is compared with a relative tolerance: summing work
/// before multiplying by the power coefficients reassociates float adds,
/// so the last ULP can differ.)
#[test]
fn aggregate_detail_preserves_energy_and_counters() {
    let w = World::new(simcluster::system_g(), 2.8e9);
    let plan = ft_plan(&FtConfig::class(Class::S));
    let on = simrt::try_run_plan_with(
        &EngineConfig::default().with_detail(Detail::On),
        &w,
        8,
        &plan,
    )
    .expect("detail run");
    let off = simrt::try_run_plan_with(
        &EngineConfig::default().with_detail(Detail::Off),
        &w,
        8,
        &plan,
    )
    .expect("aggregate run");
    assert_eq!(on.report.span(), off.report.span(), "span bits");
    assert_eq!(
        on.report.total_counters(),
        off.report.total_counters(),
        "counter totals"
    );
    let (ea, eb) = (on.report.energy(&w), off.report.energy(&w));
    assert!(close(ea.cpu_j.raw(), eb.cpu_j.raw()), "cpu: {ea:?} {eb:?}");
    assert!(
        close(ea.memory_j.raw(), eb.memory_j.raw()),
        "memory: {ea:?} {eb:?}"
    );
    assert!(
        close(ea.network_j.raw(), eb.network_j.raw()),
        "network: {ea:?} {eb:?}"
    );
    assert!(
        close(ea.disk_j.raw(), eb.disk_j.raw()),
        "disk: {ea:?} {eb:?}"
    );
    assert!(
        close(ea.other_j.raw(), eb.other_j.raw()),
        "other: {ea:?} {eb:?}"
    );
}

/// The checker and the engine drain the same cursor, so on every clean
/// NPB plan they must count the same work: per rank, the checker's
/// messages, bytes and `Wc` are the engine's counters; per collective
/// family, the checker's calls, messages and bytes are the engine's
/// `mps.collective.*` metric deltas. The node has no caches, so every
/// memory access is off-chip: none adds on-chip time to the engine's
/// `Wc`, and its `Wm` is the checker's access count. `p = 256` runs FT
/// only, far beyond the thread runtime.
#[test]
fn checker_and_engine_agree_on_clean_npb_plans() {
    // The metrics-on world bumps the global collective counters.
    let _guard = registry_lock().lock().unwrap();
    let mut cluster = simcluster::system_g();
    cluster.node.memory.levels.clear();
    let w = World::new(cluster, 2.8e9).with_obs(ObsConfig::disabled().with_metrics(true));
    let cfg = EngineConfig::default().with_detail(Detail::Off);
    let mut cases: Vec<(&str, CommPlan, usize)> = Vec::new();
    for (name, plan) in plans() {
        for p in [2usize, 4, 8, 64] {
            cases.push((name, plan.clone(), p));
        }
    }
    cases.push(("ft", ft_plan(&FtConfig::class(Class::S)), 256));
    for (name, plan, p) in &cases {
        let analysis = analyze_plan(plan, *p);
        assert!(analysis.clean(), "{name} p={p}: {:?}", analysis.findings);
        let engine = observe_engine(&w, *p, plan, &cfg);
        for (r, (cost, outcome)) in analysis
            .per_rank
            .iter()
            .zip(&engine.report.ranks)
            .enumerate()
        {
            let c = &outcome.stats;
            #[allow(clippy::cast_precision_loss)]
            {
                assert_eq!(
                    c.messages, cost.messages as f64,
                    "{name} p={p} rank {r}: messages"
                );
                assert_eq!(c.bytes, cost.bytes as f64, "{name} p={p} rank {r}: bytes");
            }
            assert_eq!(
                c.wc.to_bits(),
                cost.wc.to_bits(),
                "{name} p={p} rank {r}: Wc"
            );
            assert_eq!(
                c.wm.to_bits(),
                cost.mem_accesses.to_bits(),
                "{name} p={p} rank {r}: Wm"
            );
        }
        for (k, (s, e)) in analysis.colls.iter().zip(&engine.colls).enumerate() {
            assert_eq!(
                [s.calls, s.messages, s.bytes],
                *e,
                "{name} p={p}: {} counters",
                CollKind::ALL[k].scope_name()
            );
        }
    }
}
