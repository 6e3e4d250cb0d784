//! Loop folding is invisible in the engine: a `Detail::Off` run of a plan
//! equals the run of the same plan with its loops unrolled, bit for bit in
//! every rank outcome (counters, finish time, segment log, markers), in
//! metered energy, and in the step and send counts. The unrolled plan
//! has no loop left that could fold, so that run interprets every
//! iteration. Covers the NPB plans, hand-written plans whose folded
//! bodies hold all-gathers, all-to-alls, messages across them and nested
//! loops, plans whose collectives must not be played whole at a
//! collective cut, and the plan checker's random generator plans.

#[path = "../../plan/tests/cuts/mod.rs"]
mod cuts;
#[path = "../../plan/tests/common/mod.rs"]
mod generator;
#[path = "../../plan/tests/unroll/mod.rs"]
mod unroll;

use cuts::{collective_cuts, faulting_sizes};
use generator::{draw_domain, draw_plan, Stream};
use mps::World;
use npb::{cg_plan, ep_plan, ft_plan, CgConfig, Class, EpConfig, FtConfig};
use plan::{analyze_plan, CommPlan, Expr, Op, TagExpr};
use proptest::prelude::*;
use simrt::{Detail, EngineConfig, EngineReport};
use unroll::unroll;

fn world() -> World {
    World::new(simcluster::system_g(), 2.8e9)
}

fn run(plan: &CommPlan, p: usize) -> Result<EngineReport, simrt::Error> {
    let cfg = EngineConfig::default().with_detail(Detail::Off);
    simrt::try_run_plan_with(&cfg, &world(), p, plan)
}

/// Run `plan` at `p` and check it against the unrolled run; the folded
/// run's report is returned for further checks. A plan that fails must
/// fail alike.
fn folds_exactly(plan: &CommPlan, p: usize) -> Result<EngineReport, simrt::Error> {
    let at = format!("{} p={p}", plan.name);
    let folded = run(plan, p);
    let oracle = run(&unroll(plan, p), p);
    let (out, want) = match (&folded, &oracle) {
        (Ok(out), Ok(want)) => (out, want),
        (Err(a), Err(b)) => {
            assert_eq!(a.to_string(), b.to_string(), "{at}: errors differ");
            return folded;
        }
        _ => panic!("{at}: folded {folded:?}, unrolled {oracle:?}"),
    };
    assert_eq!(want.stats.folded_iterations, 0, "{at}: the oracle folded");
    assert_eq!(out.stats.steps, want.stats.steps, "{at}: steps");
    assert_eq!(out.stats.sends, want.stats.sends, "{at}: sends");
    // `Debug` prints each f64 in its shortest round-trip form, so equal
    // strings are equal bits.
    let (ours, theirs) = (&out.report, &want.report);
    assert_eq!(ours.ranks.len(), theirs.ranks.len(), "{at}: ranks");
    for (a, b) in ours.ranks.iter().zip(&theirs.ranks) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{at}: rank {}", a.rank);
    }
    let w = world();
    assert_eq!(
        format!("{:?}", ours.energy(&w)),
        format!("{:?}", theirs.energy(&w)),
        "{at}: metered energy"
    );
    folded
}

#[test]
fn npb_plans_fold_to_what_full_interpretation_gives() {
    let ft = ft_plan(&FtConfig::class(Class::S));
    let ep = ep_plan(&EpConfig::class(Class::S));
    let cg = cg_plan(&CgConfig::class(Class::S));
    for p in [2usize, 3, 4, 8, 16, 64, 256] {
        folds_exactly(&ft, p).expect("ft runs");
        folds_exactly(&ep, p).expect("ep runs");
        if p.is_power_of_two() {
            folds_exactly(&cg, p).expect("cg runs");
        }
    }
}

#[test]
#[ignore = "release-only: a thousand-rank CG run twice is slow in debug builds"]
fn cg_folds_exactly_at_p_1024() {
    folds_exactly(&cg_plan(&CgConfig::class(Class::S)), 1024).expect("cg runs");
}

/// The engine adds iterations at repeat cuts where the checker does: FT
/// folds 3 of its 4 iterations, CG 24 inner iterations inside its first
/// outer one and then 7 outer ones, EP has no loop. FT's forward
/// all-to-all and iteration 0's are played whole; EP and CG have no
/// all-gather or all-to-all.
#[test]
fn engine_folds_what_the_checker_folds_at_p_256() {
    let plans = [
        (ft_plan(&FtConfig::class(Class::S)), 3, 2),
        (ep_plan(&EpConfig::class(Class::S)), 0, 0),
        (cg_plan(&CgConfig::class(Class::S)), 24 + 7, 0),
    ];
    for (plan, want, whole) in &plans {
        let out = run(plan, 256).expect("runs");
        assert_eq!(out.stats.folded_iterations, *want, "{}", plan.name);
        assert_eq!(out.stats.whole_collectives, *whole, "{}", plan.name);
        let analysis = analyze_plan(plan, 256);
        assert_eq!(analysis.folded_iterations, *want, "{}", plan.name);
    }
}

/// FT at sizes that are not powers of two, where the all-to-all pairs by
/// rotation rather than XOR, replays its loop.
#[test]
fn ft_folds_with_rotation_pairing() {
    let ft = ft_plan(&FtConfig::class(Class::S));
    for p in [5usize, 12, 24] {
        let out = folds_exactly(&ft, p).expect("ft runs");
        assert_eq!(out.stats.folded_iterations, 3, "p={p}");
    }
}

fn repeat(count: i64, body: Vec<Op>) -> Op {
    Op::Loop {
        count: Expr::Const(count),
        body,
    }
}

fn compute(units: i64) -> Op {
    Op::Compute {
        units: Expr::Const(units),
        scale: 0.7,
    }
}

fn fixed(t: i64) -> TagExpr {
    TagExpr::Expr(Expr::Const(t))
}

fn send_right(tag: i64, bytes: Expr) -> Op {
    Op::Send {
        to: (Expr::Rank + Expr::Const(1)) % Expr::P,
        tag: fixed(tag),
        bytes,
    }
}

fn recv_left(tag: i64) -> Op {
    Op::Recv {
        from: (Expr::Rank + Expr::P - Expr::Const(1)) % Expr::P,
        tag: fixed(tag),
    }
}

/// Hand-written plans whose folds exercise the tape's collectives,
/// segments and nesting, with the iterations each adds.
fn shapes() -> Vec<(CommPlan, u64)> {
    vec![
        // The inner loop folds in each of the outer loop's iterations,
        // whose variable its collectives' sizes read (so the outer loop
        // is interpreted).
        (
            CommPlan::new(
                "sizes-read-peer-and-var",
                vec![repeat(
                    3,
                    vec![repeat(
                        4,
                        vec![
                            compute(5),
                            Op::AllGather {
                                bytes: Expr::Peer * Expr::Const(3) + Expr::Var(1),
                            },
                            Op::AllToAll {
                                bytes: (Expr::Peer + Expr::Rank + Expr::Const(1)) * Expr::Var(1),
                            },
                        ],
                    )],
                )],
            ),
            3 * 3,
        ),
        // Each iteration's point-to-point message is sent before an
        // all-to-all and received after it: across segments.
        (
            CommPlan::new(
                "message-across-a-segment",
                vec![repeat(
                    4,
                    vec![
                        send_right(7, Expr::Const(64)),
                        compute(3),
                        Op::AllToAll {
                            bytes: Expr::Peer + Expr::Const(8),
                        },
                        recv_left(7),
                        Op::AllGather {
                            bytes: Expr::Const(24),
                        },
                        compute(2),
                    ],
                )],
            ),
            3,
        ),
        // Three nested constant loops: 4 innermost iterations in the first
        // middle one, 3 middle ones in the first outer one, 2 outer ones.
        (
            CommPlan::new(
                "three-nested-loops",
                vec![repeat(
                    3,
                    vec![
                        Op::Phase("outer".into()),
                        repeat(
                            4,
                            vec![
                                compute(11),
                                repeat(
                                    5,
                                    vec![send_right(3, Expr::Const(40)), recv_left(3), compute(2)],
                                ),
                                Op::AllReduce {
                                    elems: Expr::Const(2),
                                    op: mps::ReduceOp::Sum,
                                },
                            ],
                        ),
                        Op::AllToAll {
                            bytes: Expr::Const(16),
                        },
                    ],
                )],
            ),
            4 + 3 + 2,
        ),
    ]
}

#[test]
fn collectives_segments_and_nested_loops_fold_exactly() {
    for (plan, want) in shapes() {
        for p in [2usize, 3, 4, 5, 8, 16] {
            let out = folds_exactly(&plan, p).expect("runs");
            assert_eq!(out.stats.folded_iterations, want, "{} p={p}", plan.name);
        }
    }
}

/// A collective cut is refused with a message in flight and with ranks
/// at different collectives, and a size reading the peer and a loop
/// variable is played from per-peer sizes, once per outer iteration.
#[test]
fn collective_cuts_equal_the_unrolled_plan() {
    let whole = [Some(0), None, Some(3)];
    for ((why, plan, p), whole) in collective_cuts().into_iter().zip(whole) {
        let out = folds_exactly(&plan, p);
        assert_eq!(out.ok().map(|o| o.stats.whole_collectives), whole, "{why}");
    }
}

/// A size that faults at one `(rank, peer)` stops that rank at that
/// exchange, as interpreting every message does.
#[test]
fn a_size_fault_stops_its_rank() {
    for (plan, rank, issue, _) in faulting_sizes() {
        let err = folds_exactly(&plan, 4).expect_err("the size faults");
        let simrt::Error::Shape { rank: r, issue: i } = err else {
            panic!("expected a shape error, got {err}");
        };
        assert_eq!((r, i), (rank, issue));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random generator plans fold exactly at small `p`; faulting and
    /// deadlocking ones fail alike.
    #[test]
    fn generated_plans_fold_to_what_full_interpretation_gives(
        words in proptest::collection::vec(any::<u64>(), 32),
    ) {
        let mut s = Stream { words: &words, at: 0 };
        let (_, pow2) = draw_domain(&mut s);
        let plan = draw_plan(&mut s, pow2);
        for p in [1usize, 2, 3, 4, 5, 8, 16] {
            let _ = folds_exactly(&plan, p);
        }
    }
}
