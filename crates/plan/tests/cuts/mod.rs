//! Plans whose all-gathers and all-to-alls the checker and the simrt
//! engine must not price whole at a collective cut, or must price from
//! per-peer sizes. Shared by the plan checker's `tests/fold.rs` and
//! `tests/analysis_golden.rs` and simrt's `tests/fold.rs`.

use plan::{CommPlan, Cond, EvalError, Expr, Op, ShapeIssue, TagExpr};

fn repeat(count: i64, body: Vec<Op>) -> Op {
    Op::Loop {
        count: Expr::Const(count),
        body,
    }
}

fn fixed(t: i64) -> TagExpr {
    TagExpr::Expr(Expr::Const(t))
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

/// Plans whose collectives must be interpreted, or priced from per-peer
/// sizes, with the reason and the world size.
pub fn collective_cuts() -> Vec<(&'static str, CommPlan, usize)> {
    let a2a = |bytes: Expr| Op::AllToAll { bytes };
    vec![
        (
            "a message is in flight across the all-to-all's entrance",
            CommPlan::new(
                "in-flight",
                vec![
                    right(fixed(7), Expr::Const(64)),
                    a2a(Expr::Peer + Expr::Const(8)),
                    from_left(fixed(7)),
                    repeat(
                        3,
                        vec![
                            right(fixed(7), Expr::Const(64)),
                            a2a(Expr::Peer + Expr::Const(8)),
                            from_left(fixed(7)),
                        ],
                    ),
                ],
            ),
            4,
        ),
        (
            "ranks enter different collectives",
            CommPlan::new(
                "different-kinds",
                vec![repeat(
                    2,
                    vec![Op::IfElse {
                        cond: Cond::Lt(Expr::Rank, Expr::Const(2)),
                        then: vec![Op::AllGather {
                            bytes: Expr::Const(8),
                        }],
                        els: vec![a2a(Expr::Const(8))],
                    }],
                )],
            ),
            4,
        ),
        (
            "an all-gather's size reads the peer and an enclosing loop variable",
            CommPlan::new(
                "peer-and-var",
                vec![repeat(
                    3,
                    vec![repeat(
                        2,
                        vec![Op::AllGather {
                            bytes: Expr::Peer * Expr::Const(3) + Expr::Var(1),
                        }],
                    )],
                )],
            ),
            5,
        ),
    ]
}

/// All-to-alls whose size faults at one `(rank, peer)`: `8 / (rank + 3 −
/// peer)` divides by zero at `(0, 3)`, and `2^62 / (d²·2^40 + 1) · 2` with
/// `d = 4·rank + peer − 9` overflows at `(2, 1)`. XOR pairing at `p = 4`
/// reaches that peer at each rank's third exchange, so the rank has sent
/// two messages; the partner waiting for its third one is left behind.
pub fn faulting_sizes() -> [(CommPlan, usize, ShapeIssue, usize); 2] {
    let d = Expr::Rank * Expr::Const(4) + Expr::Peer - Expr::Const(9);
    let sizes = [
        (
            Expr::Const(8) / (Expr::Rank + Expr::Const(3) - Expr::Peer),
            0,
            EvalError::DivByZero,
            3,
        ),
        (
            Expr::Const(1 << 62) / (d.clone() * d * Expr::Const(1 << 40) + Expr::Const(1))
                * Expr::Const(2),
            2,
            EvalError::Overflow,
            1,
        ),
    ];
    sizes.map(|(bytes, rank, err, waiter)| {
        let plan = CommPlan::new(
            "faulting-size",
            vec![repeat(
                2,
                vec![
                    Op::Compute {
                        units: Expr::Const(10),
                        scale: 1.0,
                    },
                    Op::AllToAll { bytes },
                ],
            )],
        );
        (plan, rank, ShapeIssue::Eval(err), waiter)
    })
}
