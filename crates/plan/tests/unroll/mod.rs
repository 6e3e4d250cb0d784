//! The oracle of the loop-folding suites: a plan with every loop that
//! could fold unrolled into copies of its body, so that nothing is left
//! to fold and every iteration is interpreted. Shared by the plan
//! checker's `tests/fold.rs` and simrt's `tests/fold.rs`.

use plan::{CommPlan, Cond, Expr, Op, TagExpr};

/// `e` moved out of the loop `depth` loops above it: `None` when it reads
/// that loop's variable, else its outer variables renumbered.
fn shift(e: &Expr, depth: usize) -> Option<Expr> {
    let bin = |mk: fn(Box<Expr>, Box<Expr>) -> Expr, a: &Expr, b: &Expr| {
        Some(mk(Box::new(shift(a, depth)?), Box::new(shift(b, depth)?)))
    };
    Some(match e {
        Expr::Var(d) if *d == depth => return None,
        Expr::Var(d) if *d > depth => Expr::Var(d - 1),
        Expr::Var(_)
        | Expr::Const(_)
        | Expr::P
        | Expr::Rank
        | Expr::Peer
        | Expr::Tabulated { .. } => e.clone(),
        Expr::Add(a, b) => bin(Expr::Add, a, b)?,
        Expr::Sub(a, b) => bin(Expr::Sub, a, b)?,
        Expr::Mul(a, b) => bin(Expr::Mul, a, b)?,
        Expr::Div(a, b) => bin(Expr::Div, a, b)?,
        Expr::Mod(a, b) => bin(Expr::Mod, a, b)?,
        Expr::Min(a, b) => bin(Expr::Min, a, b)?,
        Expr::Max(a, b) => bin(Expr::Max, a, b)?,
        Expr::Xor(a, b) => bin(Expr::Xor, a, b)?,
        Expr::Pow2(a) => shift(a, depth)?.pow2(),
        Expr::Log2(a) => shift(a, depth)?.log2(),
        Expr::BlockLen { total, parts, idx } => Expr::block_len(
            shift(total, depth)?,
            shift(parts, depth)?,
            shift(idx, depth)?,
        ),
    })
}

fn shift_cond(c: &Cond, depth: usize) -> Option<Cond> {
    let both = |a: &Expr, b: &Expr| Some((shift(a, depth)?, shift(b, depth)?));
    Some(match c {
        Cond::Eq(a, b) => both(a, b).map(|(a, b)| Cond::Eq(a, b))?,
        Cond::Ne(a, b) => both(a, b).map(|(a, b)| Cond::Ne(a, b))?,
        Cond::Lt(a, b) => both(a, b).map(|(a, b)| Cond::Lt(a, b))?,
        Cond::Le(a, b) => both(a, b).map(|(a, b)| Cond::Le(a, b))?,
        Cond::And(a, b) => Cond::And(
            Box::new(shift_cond(a, depth)?),
            Box::new(shift_cond(b, depth)?),
        ),
        Cond::Or(a, b) => Cond::Or(
            Box::new(shift_cond(a, depth)?),
            Box::new(shift_cond(b, depth)?),
        ),
        Cond::Not(a) => Cond::Not(Box::new(shift_cond(a, depth)?)),
    })
}

fn shift_tag(t: &TagExpr, depth: usize) -> Option<TagExpr> {
    Some(match t {
        TagExpr::Expr(e) => TagExpr::Expr(shift(e, depth)?),
        TagExpr::Auto { .. } | TagExpr::Last { .. } => t.clone(),
    })
}

/// The ops of a loop body moved out of the loop `depth` loops above them.
fn shift_ops(ops: &[Op], depth: usize) -> Option<Vec<Op>> {
    ops.iter().map(|op| shift_op(op, depth)).collect()
}

fn shift_op(op: &Op, d: usize) -> Option<Op> {
    Some(match op {
        Op::Compute { units, scale } => Op::Compute {
            units: shift(units, d)?,
            scale: *scale,
        },
        Op::MemStream { elems, scale, ws } => Op::MemStream {
            elems: shift(elems, d)?,
            scale: *scale,
            ws: shift(ws, d)?,
        },
        Op::MemAccess {
            accesses,
            scale,
            ws,
        } => Op::MemAccess {
            accesses: shift(accesses, d)?,
            scale: *scale,
            ws: shift(ws, d)?,
        },
        Op::Phase(_) | Op::BumpTag | Op::Barrier => op.clone(),
        Op::Send { to, tag, bytes } => Op::Send {
            to: shift(to, d)?,
            tag: shift_tag(tag, d)?,
            bytes: shift(bytes, d)?,
        },
        Op::Recv { from, tag } => Op::Recv {
            from: shift(from, d)?,
            tag: shift_tag(tag, d)?,
        },
        Op::RecvAny { tag } => Op::RecvAny {
            tag: shift_tag(tag, d)?,
        },
        Op::Exchange {
            partner,
            tag,
            bytes,
        } => Op::Exchange {
            partner: shift(partner, d)?,
            tag: shift_tag(tag, d)?,
            bytes: shift(bytes, d)?,
        },
        Op::Loop { count, body } => Op::Loop {
            count: shift(count, d)?,
            body: shift_ops(body, d + 1)?,
        },
        Op::IfElse { cond, then, els } => Op::IfElse {
            cond: shift_cond(cond, d)?,
            then: shift_ops(then, d)?,
            els: shift_ops(els, d)?,
        },
        Op::Bcast { root, bytes } => Op::Bcast {
            root: shift(root, d)?,
            bytes: shift(bytes, d)?,
        },
        Op::Reduce { root, elems, op } => Op::Reduce {
            root: shift(root, d)?,
            elems: shift(elems, d)?,
            op: *op,
        },
        Op::AllReduce { elems, op } => Op::AllReduce {
            elems: shift(elems, d)?,
            op: *op,
        },
        Op::AllGather { bytes } => Op::AllGather {
            bytes: shift(bytes, d)?,
        },
        Op::AllToAll { bytes } => Op::AllToAll {
            bytes: shift(bytes, d)?,
        },
    })
}

/// Every loop with a constant count of at least 2 whose body never reads
/// its own variable, replaced by `count` copies of its body.
fn unroll_ops(ops: &[Op]) -> Vec<Op> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Loop { count, body } => {
                let body = unroll_ops(body);
                match (count, shift_ops(&body, 0)) {
                    (Expr::Const(n @ 2..), Some(flat)) => {
                        for _ in 0..*n {
                            out.extend(flat.iter().cloned());
                        }
                    }
                    _ => out.push(Op::Loop {
                        count: count.clone(),
                        body,
                    }),
                }
            }
            Op::IfElse { cond, then, els } => out.push(Op::IfElse {
                cond: cond.clone(),
                then: unroll_ops(then),
                els: unroll_ops(els),
            }),
            _ => out.push(op.clone()),
        }
    }
    out
}

/// `plan` at `p` with every loop that could fold unrolled. Specializing
/// first turns `p`-only trip counts into constants, so they unroll too.
pub fn unroll(plan: &CommPlan, p: usize) -> CommPlan {
    CommPlan::new(plan.name.clone(), unroll_ops(&plan.specialize(p).body))
}
