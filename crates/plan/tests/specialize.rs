//! Soundness of per-`p` specialization: [`Expr::fold`] at a concrete `p`
//! must evaluate exactly like the original expression — the same `Ok`
//! value or the same [`EvalError`] — in every environment at that `p`,
//! and [`CommPlan::specialize`] must leave the [`TimedCursor`] stream that
//! both the checker and simrt consume unchanged: same steps, same shape
//! issue at the same op.

mod common;

use common::{draw_domain, draw_plan, Stream};
use npb::{cg_plan, ep_plan, ft_plan, CgConfig, Class, EpConfig, FtConfig};
use plan::{
    analyze_plan, Axis, CommPlan, Cond, Env, EvalError, Expr, Op, PlanFinding, ReduceOp,
    ShapeIssue, Step, TimedCursor,
};
use proptest::prelude::*;

/// World sizes the stream comparisons run at: both parities, powers of
/// two and not, and the degenerate single rank.
const PS: [usize; 6] = [1, 2, 3, 5, 8, 16];

/// Constants on the edges of `eval`'s domain (zero divisors, `Pow2`
/// bounds, overflow).
const EDGE_CONSTS: [i64; 10] = [0, 1, -1, 2, 3, 62, 63, 64, i64::MAX, i64::MIN];

fn draw_leaf(s: &mut Stream) -> Expr {
    match s.pick(6) {
        0 => Expr::Const(EDGE_CONSTS[usize::try_from(s.pick(10)).expect("small")]),
        1 => s.const_in(-8, 40),
        2 => Expr::P,
        3 => Expr::Rank,
        4 => Expr::Peer,
        _ => Expr::Var(usize::try_from(s.pick(3)).expect("small")),
    }
}

/// A random expression over every variant, mixed with shapes that fail
/// at some `p` only.
fn draw_expr(s: &mut Stream, depth: u32) -> Expr {
    if depth == 0 || s.pick(5) == 0 {
        return draw_leaf(s);
    }
    let d = depth - 1;
    match s.pick(16) {
        0 => draw_expr(s, d) + draw_expr(s, d),
        1 => draw_expr(s, d) - draw_expr(s, d),
        2 => draw_expr(s, d) * draw_expr(s, d),
        3 => draw_expr(s, d) / draw_expr(s, d),
        4 => draw_expr(s, d) % draw_expr(s, d),
        5 => draw_expr(s, d).min_of(draw_expr(s, d)),
        6 => draw_expr(s, d).max_of(draw_expr(s, d)),
        7 => draw_expr(s, d).xor(draw_expr(s, d)),
        8 => draw_expr(s, d).pow2(),
        9 => draw_expr(s, d).log2(),
        10 => Expr::block_len(draw_expr(s, d), draw_expr(s, d), draw_expr(s, d)),
        11 => Expr::Const(1) / (Expr::P - s.const_in(1, 17)),
        12 => Expr::Sub(Box::new(Expr::P), Box::new(Expr::P)).log2(),
        13 => Expr::Const(63).pow2(),
        14 => Expr::P * Expr::Const(i64::MAX),
        _ => (Expr::P - s.const_in(0, 17)).log2(),
    }
}

/// Every environment the properties quantify over at world size `p`:
/// every rank, an unbound peer, peers inside the tables and peers just
/// outside them.
fn for_each_env(p: usize, mut f: impl FnMut(&Env)) {
    let var_stacks: [&[i64]; 4] = [&[], &[4], &[1, 7], &[0, 2, 9]];
    let pi = i64::try_from(p).expect("small p");
    for rank in 0..pi {
        for peer in [None, Some(-1), Some(0), Some(pi - 1), Some(pi)] {
            for vars in var_stacks {
                f(&Env {
                    p: pi,
                    rank,
                    peer,
                    vars,
                });
            }
        }
    }
}

/// A [`TimedCursor`] drain: the steps up to the end or the first shape
/// issue, and how the stream ended.
fn stream(plan: &CommPlan, p: usize, rank: usize) -> (Vec<Step<'_>>, Result<(), ShapeIssue>) {
    let mut c = TimedCursor::new(plan, p, rank);
    let mut steps = Vec::new();
    let end = loop {
        match c.next_step() {
            Ok(Some(step)) => steps.push(step),
            Ok(None) => break Ok(()),
            Err(issue) => break Err(issue),
        }
    };
    (steps, end)
}

fn assert_streams_agree(plan: &CommPlan, p: usize) {
    let spec = plan.specialize(p);
    for rank in 0..p {
        assert_eq!(
            stream(&spec, p, rank),
            stream(plan, p, rank),
            "{} p={p} rank={rank}",
            plan.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fold_evaluates_like_the_original_in_every_env(
        words in proptest::collection::vec(any::<u64>(), 48),
        p_index in 0usize..6,
    ) {
        let mut s = Stream { words: &words, at: 0 };
        let e = draw_expr(&mut s, 5);
        let p = PS[p_index];
        let folded = e.fold(i64::try_from(p).expect("small p"));
        for_each_env(p, |env| {
            prop_assert_eq!(folded.eval(env), e.eval(env), "{:?} folded to {:?} at {:?}", e, folded, env);
        });
        let c = Cond::And(
            Box::new(Cond::Le(e.clone(), Expr::Rank)),
            Box::new(Cond::Not(Box::new(Cond::Eq(e.clone(), Expr::P)))),
        );
        let folded_c = c.fold(i64::try_from(p).expect("small p"));
        for_each_env(p, |env| {
            prop_assert_eq!(folded_c.eval(env), c.eval(env), "{:?} at {:?}", c, env);
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Specialization also tabulates the subtrees that read the rank and
    /// no peer or loop variable (`Expr::ByRank`): the specialized
    /// expression and condition still evaluate exactly like the originals
    /// in every environment at `p`.
    #[test]
    fn specialized_exprs_evaluate_like_the_original_in_every_env(
        words in proptest::collection::vec(any::<u64>(), 48),
        p_index in 0usize..6,
    ) {
        let mut s = Stream { words: &words, at: 0 };
        let e = draw_expr(&mut s, 5);
        let p = PS[p_index];
        let c = Cond::Ne(e.clone(), Expr::Rank);
        let plan = CommPlan::new(
            "one-expr",
            vec![Op::IfElse {
                cond: c.clone(),
                then: vec![Op::Compute { units: e.clone(), scale: 1.0 }],
                els: vec![],
            }],
        );
        let spec = plan.specialize(p);
        let Op::IfElse { cond, then, .. } = &spec.body[0] else {
            panic!("the branch survives specialization");
        };
        let Op::Compute { units, .. } = &then[0] else {
            panic!("the compute survives specialization");
        };
        for_each_env(p, |env| {
            prop_assert_eq!(units.eval(env), e.eval(env), "{:?} became {:?} at {:?}", e, units, env);
            prop_assert_eq!(cond.eval(env), c.eval(env), "{:?} at {:?}", c, env);
        });
    }
}

/// Which of the rank, the peer and a loop variable `e` reads, tables
/// included.
fn reads(e: &Expr) -> [bool; 3] {
    let or = |a: [bool; 3], b: [bool; 3]| [a[0] || b[0], a[1] || b[1], a[2] || b[2]];
    match e {
        Expr::Const(_) | Expr::P => [false; 3],
        Expr::Rank => [true, false, false],
        Expr::Peer => [false, true, false],
        Expr::Var(_) => [false, false, true],
        Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mul(a, b)
        | Expr::Div(a, b)
        | Expr::Mod(a, b)
        | Expr::Min(a, b)
        | Expr::Max(a, b)
        | Expr::Xor(a, b) => or(reads(a), reads(b)),
        Expr::Pow2(x) | Expr::Log2(x) | Expr::Tabulated { expr: x, .. } => reads(x),
        Expr::BlockLen { total, parts, idx } => or(or(reads(total), reads(parts)), reads(idx)),
    }
}

/// Every table of `e` tabulates a subtree that reads its own axis and
/// nothing else: a subtree reading the peer with the rank or a loop
/// variable stays a tree.
fn tables_read_one_axis(e: &Expr) -> bool {
    match e {
        Expr::Tabulated { by, expr, .. } => {
            let want = match by {
                Axis::Rank => [true, false, false],
                Axis::Peer => [false, true, false],
            };
            reads(expr) == want
        }
        Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mul(a, b)
        | Expr::Div(a, b)
        | Expr::Mod(a, b)
        | Expr::Min(a, b)
        | Expr::Max(a, b)
        | Expr::Xor(a, b) => tables_read_one_axis(a) && tables_read_one_axis(b),
        Expr::Pow2(x) | Expr::Log2(x) => tables_read_one_axis(x),
        Expr::BlockLen { total, parts, idx } => {
            tables_read_one_axis(total) && tables_read_one_axis(parts) && tables_read_one_axis(idx)
        }
        Expr::Const(_) | Expr::P | Expr::Rank | Expr::Peer | Expr::Var(_) => true,
    }
}

/// The size expression of a plan's first op, specialized to `p`.
fn specialized_size(e: &Expr, p: usize) -> Expr {
    let plan = CommPlan::new("size", vec![Op::AllToAll { bytes: e.clone() }]);
    let Op::AllToAll { bytes } = &plan.specialize(p).body[0] else {
        panic!("the all-to-all survives specialization");
    };
    bytes.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Peer-only subtrees become peer tables and rank-only ones rank
    /// tables; a subtree that mixes the peer with the rank or a loop
    /// variable is never tabulated. A size that splits into a rank factor
    /// and a peer factor (`Expr::peer_product`) gives what evaluating it
    /// at each peer gives, and so does its sum.
    #[test]
    fn peer_tables_and_products_evaluate_like_the_original(
        words in proptest::collection::vec(any::<u64>(), 48),
        p_index in 0usize..6,
    ) {
        let mut s = Stream { words: &words, at: 0 };
        let e = draw_expr(&mut s, 5);
        let p = PS[p_index];
        let spec = specialized_size(&e, p);
        prop_assert!(tables_read_one_axis(&spec), "{:?}", spec);
        for_each_env(p, |env| {
            prop_assert_eq!(spec.eval(env), e.eval(env), "{:?} became {:?} at {:?}", e, spec, env);
        });
        for_each_env(p, |env| {
            let Some(product) = spec.peer_product(env) else { return };
            for q in 0..p {
                let at_q = Env { peer: Some(i64::try_from(q).expect("small")), ..*env };
                let want = e.eval(&at_q).map(|v| u64::try_from(v).expect("non-negative"));
                prop_assert_eq!(Ok(product.at(q)), want, "{:?} at {:?}", e, at_q);
            }
            for skip in 0..p {
                let sum = (0..p)
                    .filter(|&q| q != skip)
                    .try_fold(0u64, |sum, q| sum.checked_add(product.at(q)));
                prop_assert_eq!(product.sum_except(skip), sum, "{:?} skip {}", spec, skip);
            }
        });
    }
}

#[test]
fn peer_only_subtrees_become_tables_and_mixed_ones_do_not() {
    let p = 12;
    let peer_only = Expr::block_len(Expr::Const(64), Expr::P, Expr::Peer) * Expr::Const(16);
    let spec = specialized_size(&peer_only, p);
    assert!(
        matches!(spec, Expr::Tabulated { by: Axis::Peer, .. }),
        "{spec:?}"
    );
    for mixed in [
        Expr::block_len(Expr::Const(64), Expr::P, Expr::Peer + Expr::Rank),
        Expr::block_len(Expr::Const(64), Expr::P, Expr::Peer) * Expr::Var(0),
    ] {
        let spec = specialized_size(&mixed, p);
        assert!(
            !matches!(spec, Expr::Tabulated { .. }),
            "{mixed:?} became {spec:?}"
        );
        assert!(tables_read_one_axis(&spec), "{spec:?}");
    }
    // Outside the table and with no peer bound, the subtree is walked.
    let env = |peer| Env {
        p: 12,
        rank: 3,
        peer,
        vars: &[],
    };
    assert_eq!(spec.eval(&env(None)), Err(EvalError::PeerUnavailable));
    for peer in [-1, 0, 11, 12, 40] {
        assert_eq!(
            spec.eval(&env(Some(peer))),
            peer_only.eval(&env(Some(peer))),
            "peer {peer}"
        );
    }
    assert_eq!(
        spec.eval(&env(Some(-1))),
        Err(EvalError::BadBlock),
        "a negative block index"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn specialized_random_plans_stream_identically(
        words in proptest::collection::vec(any::<u64>(), 32),
    ) {
        let mut s = Stream { words: &words, at: 0 };
        let (_, pow2) = draw_domain(&mut s);
        let plan = draw_plan(&mut s, pow2);
        for p in PS {
            assert_streams_agree(&plan, p);
        }
    }
}

#[test]
fn specialized_npb_plans_stream_identically() {
    let plans = [
        ft_plan(&FtConfig::class(Class::S)),
        ep_plan(&EpConfig::class(Class::S)),
        cg_plan(&CgConfig::class(Class::S)),
    ];
    for plan in &plans {
        for p in PS {
            assert_streams_agree(plan, p);
        }
    }
    // Non-vacuity: the process-grid expressions really do fold away.
    assert_ne!(plans[2].specialize(8), plans[2], "cg has p-only subtrees");
}

#[test]
fn a_subtree_failing_at_one_p_keeps_its_shape_finding() {
    // `64 / (p - 4)²` evaluates everywhere except at p = 4, and only
    // rank 2 evaluates it, after all communication is done.
    let plan = CommPlan::new(
        "fails-at-4",
        vec![
            Op::AllReduce {
                elems: Expr::Const(8),
                op: ReduceOp::Sum,
            },
            Op::IfElse {
                cond: Cond::Eq(Expr::Rank, Expr::Const(2)),
                then: vec![Op::Compute {
                    units: Expr::Const(64)
                        / ((Expr::P - Expr::Const(4)) * (Expr::P - Expr::Const(4))),
                    scale: 1.0,
                }],
                els: vec![],
            },
        ],
    );
    let Op::IfElse { then, .. } = &plan.specialize(4).body[1] else {
        panic!("the branch survives specialization");
    };
    assert_eq!(
        then[0],
        Op::Compute {
            units: Expr::Const(64) / Expr::Const(0),
            scale: 1.0,
        },
        "the failing division stays unfolded"
    );
    let a = analyze_plan(&plan, 4);
    assert_eq!(
        a.findings,
        vec![PlanFinding::Shape {
            rank: 2,
            issue: ShapeIssue::Eval(EvalError::DivByZero),
        }]
    );
    assert_eq!(
        stream(&plan, 4, 2).1,
        Err(ShapeIssue::Eval(EvalError::DivByZero)),
        "the unspecialized plan fails on the same rank"
    );
    for p in [3, 5, 8] {
        assert!(analyze_plan(&plan, p).clean(), "p={p}");
    }
    assert_streams_agree(&plan, 4);
}
