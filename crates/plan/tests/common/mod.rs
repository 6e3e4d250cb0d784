//! The random plan generator shared by the plan property suites: random
//! wildcard-free plans built from the parametric certifier's fragment,
//! over random symbolic domains.

use plan::{CommPlan, Cond, Domain, Expr, Op, ReduceOp, TagExpr};

/// A deterministic decision stream over drawn `u64`s (the in-tree
/// proptest has no combinator algebra, so plan/domain shapes are derived
/// from raw words).
pub struct Stream<'a> {
    pub words: &'a [u64],
    pub at: usize,
}

impl Stream<'_> {
    pub fn next(&mut self) -> u64 {
        let w = self.words[self.at % self.words.len()];
        self.at += 1;
        // Golden-ratio mix so reuse of the buffer stays decorrelated.
        w.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self.at as u64))
    }

    pub fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn const_in(&mut self, lo: i64, hi: i64) -> Expr {
        let span = u64::try_from(hi - lo).expect("positive span");
        Expr::Const(lo + i64::try_from(self.pick(span)).expect("in range"))
    }
}

/// A random certification domain. All minima are ≥ 8 (above every
/// generated shift distance, so the divisibility obligation always
/// discharges) and maxima ≤ 128 (so the concrete differential stays
/// cheap in debug builds). Returns the domain and whether it is
/// power-of-two (hypercube fragments are only generated over those).
pub fn draw_domain(s: &mut Stream) -> (Domain, bool) {
    if s.pick(2) == 0 {
        let min = 8 + s.pick(9);
        let max = (min + s.pick(113)).min(128);
        (Domain::between(min, max), false)
    } else {
        let min_lg = 3 + u32::try_from(s.pick(2)).expect("small");
        let max_lg = min_lg + u32::try_from(s.pick(4)).expect("small");
        (
            Domain::Pow2 {
                min_lg,
                max_lg: Some(max_lg.min(7)),
            },
            true,
        )
    }
}

/// One plan construct from the certifier's fragment, so most generated
/// plans certify and the differential is non-vacuous.
fn draw_fragment(s: &mut Stream, pow2: bool) -> Vec<Op> {
    match s.pick(if pow2 { 10 } else { 9 }) {
        0 => vec![Op::Compute {
            units: s.const_in(1, 100_000),
            scale: 1.0 + s.pick(4) as f64,
        }],
        1 => vec![Op::MemAccess {
            accesses: Expr::block_len(s.const_in(1, 10_000), Expr::P, Expr::Rank),
            scale: 1.0 + s.pick(8) as f64,
            ws: Expr::Const(1 << 16),
        }],
        2 => {
            // Shift round: send right by k, receive from the left by k.
            let k = s.const_in(1, 8);
            let tag = s.const_in(0, 64);
            vec![
                Op::Send {
                    to: (Expr::Rank + k.clone()) % Expr::P,
                    tag: TagExpr::Expr(tag.clone()),
                    bytes: s.const_in(1, 2048),
                },
                Op::Recv {
                    from: (Expr::Rank + Expr::P - k) % Expr::P,
                    tag: TagExpr::Expr(tag),
                },
            ]
        }
        3 => vec![Op::Barrier],
        4 => vec![Op::Bcast {
            root: Expr::Const(0),
            bytes: s.const_in(1, 4096),
        }],
        5 => vec![Op::Reduce {
            root: Expr::Const(0),
            elems: s.const_in(1, 64),
            op: ReduceOp::Sum,
        }],
        6 => vec![Op::AllReduce {
            elems: s.const_in(1, 64),
            op: ReduceOp::Max,
        }],
        7 => vec![Op::AllGather {
            bytes: Expr::block_len(s.const_in(1, 1024), Expr::P, Expr::Peer) * Expr::Const(8),
        }],
        8 => vec![Op::AllToAll {
            bytes: s.const_in(1, 512),
        }],
        // Hypercube butterfly: only sound (and only recognized) over
        // power-of-two domains.
        _ => vec![Op::Loop {
            count: Expr::P.log2(),
            body: vec![Op::Exchange {
                partner: Expr::Rank.xor(Expr::Var(0).pow2()),
                tag: TagExpr::Expr(s.const_in(0, 64)),
                bytes: s.const_in(1, 512),
            }],
        }],
    }
}

/// A whole plan: several fragments, some wrapped in uniform loops or
/// `p`-uniform branches.
pub fn draw_plan(s: &mut Stream, pow2: bool) -> CommPlan {
    let n = 1 + s.pick(5);
    let mut body = Vec::new();
    for _ in 0..n {
        let ops = draw_fragment(s, pow2);
        match s.pick(4) {
            0 | 1 => body.extend(ops),
            2 => body.push(Op::Loop {
                count: s.const_in(1, 4),
                body: ops,
            }),
            _ => {
                let (then, els) = if s.pick(2) == 0 {
                    (ops, Vec::new())
                } else {
                    (Vec::new(), ops)
                };
                body.push(Op::IfElse {
                    cond: Cond::Lt(Expr::P, Expr::Const(48)),
                    then,
                    els,
                });
            }
        }
    }
    CommPlan::new("generated", body)
}
