//! Loop folding is invisible: `analyze_plan` on a plan equals
//! `analyze_plan` on the same plan with its loops unrolled, in every
//! field but `folded_iterations`. The unrolled plan has no loop left that
//! could fold, so the oracle interprets every iteration. Covers the NPB
//! plans, random generator plans, each reason a fold is refused, and each
//! reason an all-gather or all-to-all is not priced whole at a collective
//! cut.

mod common;
mod cuts;
mod unroll;

use common::{draw_domain, draw_plan, Stream};
use cuts::{collective_cuts, faulting_sizes};
use npb::{cg_plan, ep_plan, ft_plan, CgConfig, Class, EpConfig, FtConfig};
use plan::{analyze_plan, CommPlan, Cond, Expr, Op, PlanAnalysis, PlanFinding, TagExpr};
use proptest::prelude::*;
use unroll::unroll;

/// Analyze `plan` at `p` and check it against the unrolled oracle; the
/// analysis is returned for further checks.
fn folds_exactly(plan: &CommPlan, p: usize) -> PlanAnalysis {
    let analysis = analyze_plan(plan, p);
    let oracle = analyze_plan(&unroll(plan, p), p);
    assert_eq!(
        oracle.folded_iterations, 0,
        "{} p={p}: oracle folded",
        plan.name
    );
    let mut same = analysis.clone();
    same.folded_iterations = 0;
    // `Debug` prints each f64 in its shortest round-trip form, so equal
    // strings are equal bits.
    assert_eq!(
        format!("{same:?}"),
        format!("{oracle:?}"),
        "{} p={p}: folded analysis differs from the unrolled one",
        plan.name
    );
    analysis
}

#[test]
fn npb_plans_fold_to_what_full_interpretation_gives() {
    let ft = ft_plan(&FtConfig::class(Class::S));
    let ep = ep_plan(&EpConfig::class(Class::S));
    let cg = cg_plan(&CgConfig::class(Class::S));
    for p in (1..=64).chain([256]) {
        folds_exactly(&ft, p);
        folds_exactly(&ep, p);
        if p.is_power_of_two() {
            folds_exactly(&cg, p);
        }
    }
}

#[test]
fn ft_and_cg_fold_all_but_one_iteration_of_each_loop_at_p_256() {
    let ft_cfg = FtConfig::class(Class::S);
    let ft = analyze_plan(&ft_plan(&ft_cfg), 256);
    assert!(ft.deadlock_free());
    assert_eq!(ft.folded_iterations, ft_cfg.niter as u64 - 1);
    // CG: one interpreted outer iteration, in which one of the 25 inner
    // iterations is interpreted.
    let cg_cfg = CgConfig::class(Class::S);
    let cg = analyze_plan(&cg_plan(&cg_cfg), 256);
    assert!(cg.deadlock_free());
    assert_eq!(cg.folded_iterations, 24 + (cg_cfg.niter as u64 - 1));
}

/// Ops run by `rank` only.
fn on(rank: i64, ops: Vec<Op>) -> Op {
    Op::IfElse {
        cond: Cond::Eq(Expr::Rank, Expr::Const(rank)),
        then: ops,
        els: vec![],
    }
}

fn right(tag: TagExpr, bytes: Expr) -> Op {
    Op::Send {
        to: (Expr::Rank + Expr::Const(1)) % Expr::P,
        tag,
        bytes,
    }
}

fn from_left(tag: TagExpr) -> Op {
    Op::Recv {
        from: (Expr::Rank + Expr::P - Expr::Const(1)) % Expr::P,
        tag,
    }
}

fn fixed(t: i64) -> TagExpr {
    TagExpr::Expr(Expr::Const(t))
}

fn repeat(count: i64, body: Vec<Op>) -> Op {
    Op::Loop {
        count: Expr::Const(count),
        body,
    }
}

/// A plan whose one loop must be interpreted, with the reason: each
/// equals the oracle and folds nothing.
fn refused() -> Vec<(&'static str, CommPlan, usize)> {
    let auto = TagExpr::Auto {
        base: 100,
        modulo: 8,
    };
    vec![
        (
            "the body reads its own variable",
            CommPlan::new(
                "own-var",
                vec![repeat(
                    4,
                    vec![
                        right(fixed(1), Expr::Var(0) + Expr::Const(1)),
                        from_left(fixed(1)),
                    ],
                )],
            ),
            4,
        ),
        (
            "a fixed tag lies inside an Auto range",
            CommPlan::new(
                "tag-in-range",
                vec![repeat(
                    4,
                    vec![
                        right(auto.clone(), Expr::Const(8)),
                        from_left(TagExpr::Last {
                            base: 100,
                            modulo: 8,
                        }),
                        right(fixed(103), Expr::Const(8)),
                        from_left(fixed(103)),
                    ],
                )],
            ),
            3,
        ),
        (
            "each iteration receives what the previous one sent",
            CommPlan::new(
                "pipelined",
                vec![
                    right(fixed(5), Expr::Const(16)),
                    repeat(
                        4,
                        vec![from_left(fixed(5)), right(fixed(5), Expr::Const(16))],
                    ),
                    from_left(fixed(5)),
                ],
            ),
            4,
        ),
        (
            "only rank 0 runs the loop",
            CommPlan::new(
                "rank-branch",
                vec![
                    on(
                        0,
                        vec![repeat(
                            3,
                            vec![Op::Compute {
                                units: Expr::Const(10),
                                scale: 1.0,
                            }],
                        )],
                    ),
                    Op::Barrier,
                ],
            ),
            3,
        ),
        (
            "a charge scale of 0.1 does not add exactly",
            CommPlan::new(
                "tenth",
                vec![repeat(
                    5,
                    vec![
                        Op::Compute {
                            units: Expr::Const(3),
                            scale: 0.1,
                        },
                        Op::Barrier,
                    ],
                )],
            ),
            4,
        ),
        (
            "ranks draw different numbers of tags per iteration",
            CommPlan::new(
                "uneven-bump",
                vec![repeat(3, vec![on(0, vec![Op::BumpTag]), Op::Barrier])],
            ),
            3,
        ),
    ]
}

#[test]
fn refused_folds_interpret_every_iteration() {
    for (why, plan, p) in refused() {
        let a = folds_exactly(&plan, p);
        assert_eq!(a.folded_iterations, 0, "{why}");
    }
}

#[test]
fn refusal_cases_fold_once_the_reason_is_removed() {
    // The control for the 0.1 case: the same loop with scale 0.5 folds.
    let plan = CommPlan::new(
        "half",
        vec![repeat(
            5,
            vec![
                Op::Compute {
                    units: Expr::Const(3),
                    scale: 0.5,
                },
                Op::Barrier,
            ],
        )],
    );
    assert_eq!(folds_exactly(&plan, 4).folded_iterations, 4);
    // And the pipelined loop folds once each iteration receives its own
    // message.
    let plan = CommPlan::new(
        "ring",
        vec![repeat(
            4,
            vec![right(fixed(5), Expr::Const(16)), from_left(fixed(5))],
        )],
    );
    assert_eq!(folds_exactly(&plan, 4).folded_iterations, 3);
}

#[test]
fn collective_cuts_equal_the_unrolled_plan() {
    for (why, plan, p) in collective_cuts() {
        let a = folds_exactly(&plan, p);
        assert_eq!(a.p, p, "{why}");
    }
}

#[test]
fn a_size_fault_surfaces_at_its_exchange() {
    for (plan, rank, issue, waiter) in faulting_sizes() {
        let a = folds_exactly(&plan, 4);
        let shape = PlanFinding::Shape {
            rank,
            issue: issue.clone(),
        };
        assert_eq!(a.findings.first(), Some(&shape), "{issue:?}");
        let waits = PlanFinding::UnmatchedRecv {
            rank: waiter,
            from: Some(rank),
            tag: mps::internal_tag(0, 3),
        };
        assert!(a.findings.contains(&waits), "{issue:?}: {:?}", a.findings);
        assert_eq!(a.per_rank[rank].messages, 2, "{issue:?}: op index");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random generator plans fold exactly at small `p`, faulting ones
    /// included (their shape findings are listed by rank either way).
    #[test]
    fn generated_plans_fold_to_what_full_interpretation_gives(
        words in proptest::collection::vec(any::<u64>(), 32),
    ) {
        let mut s = Stream { words: &words, at: 0 };
        let (_, pow2) = draw_domain(&mut s);
        let plan = draw_plan(&mut s, pow2);
        for p in [1usize, 2, 3, 4, 5, 8, 16] {
            folds_exactly(&plan, p);
        }
    }
}
