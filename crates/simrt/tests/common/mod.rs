//! Plan-building helpers shared by the simrt suites: constant-peer
//! point-to-point ops and per-rank dispatch.

#![allow(dead_code, clippy::cast_possible_wrap)]

use plan::{Cond, Expr, Op, TagExpr};

pub fn send(to: usize, tag: u64, bytes: i64) -> Op {
    Op::Send {
        to: Expr::Const(to as i64),
        tag: TagExpr::Expr(Expr::Const(tag as i64)),
        bytes: Expr::Const(bytes),
    }
}

pub fn recv(from: usize, tag: u64) -> Op {
    Op::Recv {
        from: Expr::Const(from as i64),
        tag: TagExpr::Expr(Expr::Const(tag as i64)),
    }
}

pub fn recv_any(tag: u64) -> Op {
    Op::RecvAny {
        tag: TagExpr::Expr(Expr::Const(tag as i64)),
    }
}

/// Nested rank dispatch: `if rank == c0 { body0 } else if rank == c1 ...`
pub fn rank_branch(cases: Vec<(usize, Vec<Op>)>) -> Vec<Op> {
    let mut out: Vec<Op> = Vec::new();
    for (rank, body) in cases.into_iter().rev() {
        out = vec![Op::IfElse {
            cond: Cond::Eq(Expr::Rank, Expr::Const(rank as i64)),
            then: body,
            els: out,
        }];
    }
    out
}
