//! Trace conformance on *engine-backed* runs.
//!
//! The simrt event engine produces the same span tracks as the thread
//! runtime (shared `RankCore` recording) plus its own virtual-time
//! counter timeline. Both must satisfy every invariant `analyze --trace`
//! enforces — in particular the timeline's running-max timestamping must
//! keep each counter series monotone. An engine deadlock report must
//! read as the thread runtime's does.

use analyze::Finding;
use mps::RunError;
use plan::{CommPlan, Cond, Expr, Op, TagExpr};
use simrt::{Detail, EngineConfig};

fn world() -> mps::World {
    let mut obs_cfg = obs::ObsConfig::disabled();
    obs_cfg.trace = true;
    mps::World::new(simcluster::system_g(), 2.8e9).with_obs(obs_cfg)
}

#[test]
fn engine_trace_passes_conformance() {
    let cfg = npb::FtConfig::class(npb::Class::S);
    let plan = npb::ft_plan(&cfg);
    let engine_cfg = EngineConfig::default()
        .with_detail(Detail::On)
        .with_timeline_every(8);
    let out = simrt::try_run_plan_with(&engine_cfg, &world(), 4, &plan).expect("run completes");
    assert!(
        out.timeline.series().iter().any(|s| !s.samples.is_empty()),
        "timeline sampling produced no data"
    );
    let trace = out.trace("ft p=4 simrt").expect("trace assembled");
    assert!(!trace.tracks.is_empty(), "span tracks recorded");
    assert!(!trace.counters.is_empty(), "timeline counters attached");
    let findings = analyze::check_trace(&trace);
    assert!(findings.is_empty(), "conformance findings: {findings:?}");
}

/// With detail off and the timeline on, the trace is counters-only and
/// must still conform (this is the large-`p` observability mode).
#[test]
fn counters_only_engine_trace_passes_conformance() {
    let cfg = npb::EpConfig::class(npb::Class::S);
    let plan = npb::ep_plan(&cfg);
    let engine_cfg = EngineConfig::default()
        .with_detail(Detail::Off)
        .with_timeline_every(4);
    let out = simrt::try_run_plan_with(&engine_cfg, &world(), 8, &plan).expect("run completes");
    let trace = out.trace("ep p=8 simrt").expect("counters-only trace");
    assert!(trace.tracks.is_empty(), "no span tracks at detail off");
    assert!(!trace.counters.is_empty());
    let findings = analyze::check_trace(&trace);
    assert!(findings.is_empty(), "conformance findings: {findings:?}");
}

/// Ranks 0 and 1 wait on each other and rank 2 waits on rank 1: the
/// engine's witness is the two-rank cycle, so the analyzer's
/// `DeadlockCycle` holds exactly its two edges, not the bystander's.
#[test]
fn engine_deadlock_cycle_leaves_out_a_bystander() {
    let on = |rank: i64, ops: Vec<Op>| Op::IfElse {
        cond: Cond::Eq(Expr::Rank, Expr::Const(rank)),
        then: ops,
        els: vec![],
    };
    let tag = |t: i64| TagExpr::Expr(Expr::Const(t));
    let plan = CommPlan::new(
        "cycle-with-bystander",
        vec![
            on(
                0,
                vec![
                    Op::Recv {
                        from: Expr::Const(1),
                        tag: tag(1),
                    },
                    Op::Send {
                        to: Expr::Const(1),
                        tag: tag(2),
                        bytes: Expr::Const(8),
                    },
                ],
            ),
            on(
                1,
                vec![
                    Op::Recv {
                        from: Expr::Const(0),
                        tag: tag(2),
                    },
                    Op::Send {
                        to: Expr::Const(0),
                        tag: tag(1),
                        bytes: Expr::Const(8),
                    },
                ],
            ),
            on(
                2,
                vec![Op::Recv {
                    from: Expr::Const(1),
                    tag: tag(3),
                }],
            ),
        ],
    );
    let w = mps::World::new(simcluster::system_g(), 2.8e9);
    let Err(RunError::Deadlock(info)) = simrt::try_run_plan(&w, 3, &plan) else {
        panic!("the plan must deadlock");
    };
    let findings = analyze::check_deadlock(&info);
    let cycles: Vec<usize> = findings
        .iter()
        .filter_map(|f| match f {
            Finding::DeadlockCycle { edges } => Some(edges.len()),
            _ => None,
        })
        .collect();
    assert_eq!(cycles, vec![2], "{findings:?}");
}

/// Rank 0 sends rank 1 one tag-9 message that rank 1 never receives. The
/// run completes (in debug and release builds alike), the envelope lands
/// in rank 1's `unconsumed` list instead of being dropped, and the comm
/// pass flags it as `analyze_plan` flags the unmatched send.
#[test]
fn unreceived_message_is_reported_on_a_completed_run() {
    let plan = CommPlan::new(
        "orphan-send",
        vec![Op::IfElse {
            cond: Cond::Eq(Expr::Rank, Expr::Const(0)),
            then: vec![Op::Send {
                to: Expr::Const(1),
                tag: TagExpr::Expr(Expr::Const(9)),
                bytes: Expr::Const(64),
            }],
            els: vec![],
        }],
    );
    let checked = plan::analyze_plan(&plan, 2);
    assert!(checked.completed && checked.deadlock_free());
    assert!(
        matches!(
            checked.findings.as_slice(),
            [plan::PlanFinding::UnmatchedSend {
                src: 0,
                dst: 1,
                tag: 9,
                ..
            }]
        ),
        "{:?}",
        checked.findings
    );

    let w = mps::World::new(simcluster::system_g(), 2.8e9);
    let run = simrt::try_run_plan(&w, 2, &plan).map(|out| out.report);
    let report = run.as_ref().expect("an unreceived message is no deadlock");
    assert_eq!(report.ranks[1].comm.unconsumed, vec![(0, 9, 64)]);
    assert!(report.ranks[0].comm.unconsumed.is_empty());
    let findings = analyze::check_run(&run);
    assert!(
        findings.contains(&Finding::UnconsumedMessage {
            sender: 0,
            receiver: 1,
            tag: 9,
            bytes: 64,
        }),
        "{findings:?}"
    );
}
