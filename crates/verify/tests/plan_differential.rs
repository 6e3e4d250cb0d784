//! Differential test: the `plan` crate's *static* deadlock/matching
//! verdicts against this crate's *dynamic* schedule-space explorer.
//!
//! Random small [`CommPlan`]s (p ≤ 4) are analyzed with
//! [`plan::analyze_plan`] and then lowered and explored schedule-by-
//! schedule with [`Explorer::explore_plan`]. The contract:
//!
//! * **No static false-negatives**: a plan any schedule can deadlock is
//!   never certified [`PlanAnalysis::deadlock_free`].
//! * **Exactness where claimed**: for wildcard-free plans
//!   (`analysis.exact`), the static verdict *equals* the dynamic one —
//!   greedy confluence makes wildcard-free matching schedule-independent,
//!   so one abstract run decides all interleavings.
//! * **Conservatism is flagged**: plans with `RecvAny` at p > 2 always
//!   carry `exact == false`, so a wildcard verdict can never masquerade
//!   as a certificate.

use plan::{analyze_plan, CommPlan, Cond, Expr, Op, PlanFinding, TagExpr};
use proptest::prelude::*;
use proptest::TestRng;
use verify::programs::demo_world;
use verify::{Explorer, VerifyFinding};

#[allow(clippy::cast_possible_wrap)]
fn send(to: usize, tag: u64, bytes: u64) -> Op {
    Op::Send {
        to: Expr::Const(to as i64),
        tag: TagExpr::Expr(Expr::Const(tag as i64)),
        bytes: Expr::Const(bytes as i64),
    }
}

#[allow(clippy::cast_possible_wrap)]
fn recv(from: usize, tag: u64) -> Op {
    Op::Recv {
        from: Expr::Const(from as i64),
        tag: TagExpr::Expr(Expr::Const(tag as i64)),
    }
}

/// A random plan over `p` ranks: a mix of matched send/recv pairs,
/// orphan recvs and wildcard receives, each rank's op list independently
/// shuffled so blocking receives can precede the sends they transitively
/// wait on (the deadlock-generating move — sends are eager, so only recv
/// ordering can block). Every send has a receive accounted to its
/// `(destination, tag)`, so a completed rank has always consumed every
/// message addressed to it — the runtime treats a send to an
/// already-finished rank as a program error, which is exactly the static
/// `UnmatchedSend` verdict and is unit-tested on the checker instead.
fn random_plan(rng: &mut TestRng, p: usize) -> CommPlan {
    let n_events = rng.next_in_u64(1, 7);
    let mut rank_ops: Vec<Vec<Op>> = vec![Vec::new(); p];
    for _ in 0..n_events {
        let kind = rng.next_in_u64(0, 10);
        let src = rng.next_in_u64(0, p as u64) as usize;
        let mut dst = rng.next_in_u64(0, p as u64 - 1) as usize;
        if dst >= src {
            dst += 1;
        }
        let tag = rng.next_in_u64(0, 3);
        let bytes = 8 * (1 + rng.next_in_u64(0, 4));
        match kind {
            0..=5 => {
                rank_ops[src].push(send(dst, tag, bytes));
                rank_ops[dst].push(recv(src, tag));
            }
            6 | 7 => rank_ops[dst].push(recv(src, tag)),
            _ => {
                rank_ops[src].push(send(dst, tag, bytes));
                #[allow(clippy::cast_possible_wrap)]
                rank_ops[dst].push(Op::RecvAny {
                    tag: TagExpr::Expr(Expr::Const(tag as i64)),
                });
            }
        }
    }
    for ops in &mut rank_ops {
        for i in (1..ops.len()).rev() {
            let j = rng.next_in_u64(0, i as u64 + 1) as usize;
            ops.swap(i, j);
        }
    }
    #[allow(clippy::cast_possible_wrap)]
    let body = rank_ops
        .into_iter()
        .enumerate()
        .map(|(r, ops)| Op::IfElse {
            cond: Cond::Eq(Expr::Rank, Expr::Const(r as i64)),
            then: ops,
            els: Vec::new(),
        })
        .collect();
    CommPlan::new("random", body)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn static_verdicts_agree_with_the_explorer(seed in any::<u64>(), p in 2usize..=4) {
        let mut rng = TestRng::new(seed);
        let plan = random_plan(&mut rng, p);

        let analysis = analyze_plan(&plan, p);
        // The generator never emits shape errors: all peers in range, no
        // self-messages, tags tiny.
        prop_assert!(
            !analysis.findings.iter().any(|f| matches!(f, PlanFinding::Shape { .. })),
            "generator produced a shape error: {:?}",
            analysis.findings
        );
        let static_deadlock = !analysis.completed;
        // A wildcard that executes must flag the verdict conservative at
        // p > 2. (A wildcard a rank provably never reaches — it blocks
        // earlier on a wildcard-free prefix, in every schedule — may
        // soundly leave the verdict exact, so only completed plans are
        // required to be flagged.)
        if plan.has_wildcard() && p > 2 && analysis.completed {
            prop_assert!(!analysis.exact, "wildcard verdict claimed exact at p = {p}");
        }

        let world = demo_world();
        let explorer = Explorer { max_schedules: 64, max_depth: 10_000 };
        let exploration = explorer.explore_plan(&world, p, &plan);
        let dynamic_deadlock = exploration
            .findings
            .iter()
            .any(|f| matches!(f, VerifyFinding::Deadlock { .. }));

        // Safety: a dynamically deadlocking plan is never certified.
        prop_assert!(
            !(dynamic_deadlock && analysis.deadlock_free()),
            "static certificate contradicts a dynamic deadlock: {:?}",
            analysis.findings
        );
        // Exactness: wildcard-free verdicts match the explorer both ways
        // (greedy confluence — any one schedule decides them all).
        if analysis.exact {
            prop_assert_eq!(
                static_deadlock,
                dynamic_deadlock,
                "exact static verdict ({:?}) disagrees with explorer ({:?})",
                analysis.findings,
                exploration.findings
            );
        }
    }
}

/// Timing probe for the EXPERIMENTS.md static-vs-dynamic table
/// (`cargo test -p verify --release --test plan_differential -- --ignored --nocapture`):
/// static whole-plan certification versus bounded schedule-space
/// exploration of the same lowered plan, on the 4-rank NPB plans.
#[test]
#[ignore = "timing probe"]
fn perf_static_vs_explorer_on_npb_plans() {
    use std::time::Instant;
    let class = npb::Class::S;
    let plans = [
        ("ft", npb::ft_plan(&npb::FtConfig::class(class))),
        ("ep", npb::ep_plan(&npb::EpConfig::class(class))),
        ("cg", npb::cg_plan(&npb::CgConfig::class(class))),
    ];
    let p = 4;
    let world = demo_world();
    for (name, commplan) in &plans {
        let t0 = Instant::now();
        let analysis = plan::analyze_plan(commplan, p);
        let t_static = t0.elapsed();
        assert!(analysis.deadlock_free(), "{name}: {:?}", analysis.findings);

        let explorer = Explorer {
            max_schedules: 4,
            max_depth: 1_000_000,
        };
        let t0 = Instant::now();
        let exploration = explorer.explore_plan(&world, p, commplan);
        let t_dyn = t0.elapsed();
        println!(
            "{name} p={p}: static {t_static:?} ({} steps) | explorer {t_dyn:?} \
             ({} schedule(s), truncated={})",
            analysis.steps, exploration.schedules, exploration.truncated
        );
    }
}
