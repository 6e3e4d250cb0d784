//! The CommPlan IR: typed per-rank communication-plan operations.
//!
//! A [`CommPlan`] is a single op list that *every* rank executes; rank- and
//! `p`-dependence lives in the symbolic [`Expr`]s (peers, sizes, trip
//! counts) and in [`Op::IfElse`] branches over [`Cond`]s, so one plan
//! describes the skeleton at all world sizes. Collective macro-ops
//! (`Barrier` … `AllToAll`) elaborate to the exact point-to-point algorithms
//! of [`mps`]'s collectives, which is what makes the static verdicts of
//! [`crate::check`] transfer to real [`crate::lower`]ed executions.

use mps::ReduceOp;

use crate::expr::{Cond, Expr, Tables};

/// How a point-to-point op's tag is produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagExpr {
    /// An explicit symbolic tag (must stay below [`mps::USER_TAG_LIMIT`]).
    Expr(Expr),
    /// Bump the plan's monotonic tag counter and use its pre-bump value:
    /// `base + (counter % modulo)` — the CG `next_tag()` discipline.
    Auto {
        /// Namespace base added to the wrapped counter.
        base: u64,
        /// Counter wrap-around modulus.
        modulo: u64,
    },
    /// Re-use the most recent counter value without bumping — pairs with
    /// [`Op::BumpTag`] when a tag is consumed unconditionally but the
    /// message itself is conditional (CG's self-partner transpose).
    Last {
        /// Namespace base added to the wrapped counter.
        base: u64,
        /// Counter wrap-around modulus.
        modulo: u64,
    },
}

/// One typed plan operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Charge `units · scale` on-chip instructions ([`mps::Ctx::compute`]).
    Compute {
        /// Symbolic unit count (elements, pairs, rows …).
        units: Expr,
        /// Instructions per unit.
        scale: f64,
    },
    /// Charge `elems · scale` streamed element touches over a working set
    /// of `ws` bytes ([`mps::Ctx::mem_stream`]).
    MemStream {
        /// Symbolic element count.
        elems: Expr,
        /// Touches per element.
        scale: f64,
        /// Working-set size in bytes (drives the dynamic cache split; the
        /// static cost pass keeps the access count only).
        ws: Expr,
    },
    /// Charge `accesses · scale` memory accesses over a working set of
    /// `ws` bytes ([`mps::Ctx::mem_access`]).
    MemAccess {
        /// Symbolic access count.
        accesses: Expr,
        /// Accesses per unit.
        scale: f64,
        /// Working-set size in bytes.
        ws: Expr,
    },
    /// Enter a named phase ([`mps::Ctx::phase`]).
    Phase(String),
    /// Bump the plan's tag counter without sending (see [`TagExpr::Last`]).
    BumpTag,
    /// Point-to-point send of `bytes` bytes.
    Send {
        /// Destination rank.
        to: Expr,
        /// Message tag.
        tag: TagExpr,
        /// Payload size in bytes.
        bytes: Expr,
    },
    /// Point-to-point receive from a specific source.
    Recv {
        /// Source rank.
        from: Expr,
        /// Message tag.
        tag: TagExpr,
    },
    /// Wildcard receive from any source ([`mps::Ctx::recv_any`]); the
    /// static analyses become conservative in its presence.
    RecvAny {
        /// Message tag.
        tag: TagExpr,
    },
    /// Send-then-receive with one partner ([`mps::Ctx::exchange`]).
    Exchange {
        /// Partner rank.
        partner: Expr,
        /// Message tag (both directions).
        tag: TagExpr,
        /// Payload size in bytes (each direction).
        bytes: Expr,
    },
    /// `count` repetitions of `body`; the iteration index is visible to
    /// body expressions as [`Expr::Var`]`(0)` (De Bruijn).
    Loop {
        /// Symbolic trip count (negative counts are shape errors).
        count: Expr,
        /// Loop body.
        body: Vec<Op>,
    },
    /// Branch on a per-rank condition.
    IfElse {
        /// The condition.
        cond: Cond,
        /// Ops when true.
        then: Vec<Op>,
        /// Ops when false.
        els: Vec<Op>,
    },
    /// Dissemination barrier ([`mps::Ctx::barrier`]).
    Barrier,
    /// Binomial-tree broadcast of `bytes` bytes from `root`
    /// ([`mps::Ctx::bcast`]). `bytes` must be rank-invariant.
    Bcast {
        /// Broadcast root.
        root: Expr,
        /// Payload size in bytes.
        bytes: Expr,
    },
    /// Binomial-tree reduction of `elems` f64 elements to `root`
    /// ([`mps::Ctx::reduce`]).
    Reduce {
        /// Reduction root.
        root: Expr,
        /// Element count (8 bytes each).
        elems: Expr,
        /// Combining operator.
        op: ReduceOp,
    },
    /// Recursive-doubling allreduce of `elems` f64 elements
    /// ([`mps::Ctx::allreduce`]).
    AllReduce {
        /// Element count (8 bytes each).
        elems: Expr,
        /// Combining operator.
        op: ReduceOp,
    },
    /// Ring allgather; `bytes` is each contribution's size and may depend
    /// on [`Expr::Peer`] = the contributing rank ([`mps::Ctx::allgather`]).
    AllGather {
        /// Per-contribution payload size in bytes.
        bytes: Expr,
    },
    /// Pairwise-exchange all-to-all; `bytes` is the chunk size for
    /// destination [`Expr::Peer`], so Peer-dependent sizes express
    /// `alltoallv` ([`mps::Ctx::alltoall`]).
    AllToAll {
        /// Per-destination chunk size in bytes.
        bytes: Expr,
    },
}

/// A complete communication plan: a name plus the op list every rank runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CommPlan {
    /// Human-readable plan name (used in findings and reports).
    pub name: String,
    /// The per-rank program.
    pub body: Vec<Op>,
}

impl CommPlan {
    /// A new plan with the given name and body.
    #[must_use]
    pub fn new(name: impl Into<String>, body: Vec<Op>) -> Self {
        Self {
            name: name.into(),
            body,
        }
    }

    /// This plan specialized to world size `p`: every expression and
    /// condition is [`Expr::fold`]ed, so `p`-only subtrees (process-grid
    /// shapes, block lengths) become constants that the per-rank cursors
    /// no longer re-evaluate on every step. Then every subtree that reads
    /// the rank but no peer or loop variable, or the peer but no rank or
    /// loop variable, becomes an [`Expr::Tabulated`] table of its value on
    /// each rank or peer, shared by the identical subtrees of the plan, so
    /// a cursor reads its entry instead of walking the tree. The result streams exactly like
    /// `self` at this `p` — same ops, same costs, and the same
    /// [`crate::EvalError`] on the same rank at the same op — and is
    /// meaningless at any other `p`. Cost: one pass over the plan plus
    /// `p` evaluations per distinct table.
    #[must_use]
    pub fn specialize(&self, p: usize) -> CommPlan {
        let p = i64::try_from(p).expect("world size fits in i64");
        CommPlan {
            name: self.name.clone(),
            body: Specializer {
                p,
                tables: Tables::default(),
            }
            .ops(&self.body),
        }
    }

    /// Number of IR nodes (ops, transitively through loops and branches) —
    /// a size metric for reports, not an execution count.
    #[must_use]
    pub fn ir_size(&self) -> usize {
        fn count(ops: &[Op]) -> usize {
            ops.iter()
                .map(|op| match op {
                    Op::Loop { body, .. } => 1 + count(body),
                    Op::IfElse { then, els, .. } => 1 + count(then) + count(els),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }

    /// Whether the plan syntactically contains a wildcard receive (the
    /// static analyses are exact only without one).
    #[must_use]
    pub fn has_wildcard(&self) -> bool {
        fn scan(ops: &[Op]) -> bool {
            ops.iter().any(|op| match op {
                Op::RecvAny { .. } => true,
                Op::Loop { body, .. } => scan(body),
                Op::IfElse { then, els, .. } => scan(then) || scan(els),
                _ => false,
            })
        }
        scan(&self.body)
    }
}

/// One plan's specialization to world size `p` (see
/// [`CommPlan::specialize`]), with the tables built so far.
struct Specializer {
    p: i64,
    tables: Tables,
}

impl Specializer {
    fn expr(&mut self, e: &Expr) -> Expr {
        e.fold(self.p).tabulate(self.p, &mut self.tables)
    }

    fn cond(&mut self, c: &Cond) -> Cond {
        c.fold(self.p).tabulate(self.p, &mut self.tables)
    }

    fn tag(&mut self, tag: &TagExpr) -> TagExpr {
        match tag {
            TagExpr::Expr(e) => TagExpr::Expr(self.expr(e)),
            TagExpr::Auto { .. } | TagExpr::Last { .. } => tag.clone(),
        }
    }

    fn ops(&mut self, ops: &[Op]) -> Vec<Op> {
        ops.iter().map(|op| self.op(op)).collect()
    }

    fn op(&mut self, op: &Op) -> Op {
        match op {
            Op::Compute { units, scale } => Op::Compute {
                units: self.expr(units),
                scale: *scale,
            },
            Op::MemStream { elems, scale, ws } => Op::MemStream {
                elems: self.expr(elems),
                scale: *scale,
                ws: self.expr(ws),
            },
            Op::MemAccess {
                accesses,
                scale,
                ws,
            } => Op::MemAccess {
                accesses: self.expr(accesses),
                scale: *scale,
                ws: self.expr(ws),
            },
            Op::Phase(_) | Op::BumpTag | Op::Barrier => op.clone(),
            Op::Send { to, tag, bytes } => Op::Send {
                to: self.expr(to),
                tag: self.tag(tag),
                bytes: self.expr(bytes),
            },
            Op::Recv { from, tag } => Op::Recv {
                from: self.expr(from),
                tag: self.tag(tag),
            },
            Op::RecvAny { tag } => Op::RecvAny { tag: self.tag(tag) },
            Op::Exchange {
                partner,
                tag,
                bytes,
            } => Op::Exchange {
                partner: self.expr(partner),
                tag: self.tag(tag),
                bytes: self.expr(bytes),
            },
            Op::Loop { count, body } => Op::Loop {
                count: self.expr(count),
                body: self.ops(body),
            },
            Op::IfElse { cond, then, els } => Op::IfElse {
                cond: self.cond(cond),
                then: self.ops(then),
                els: self.ops(els),
            },
            Op::Bcast { root, bytes } => Op::Bcast {
                root: self.expr(root),
                bytes: self.expr(bytes),
            },
            Op::Reduce { root, elems, op } => Op::Reduce {
                root: self.expr(root),
                elems: self.expr(elems),
                op: *op,
            },
            Op::AllReduce { elems, op } => Op::AllReduce {
                elems: self.expr(elems),
                op: *op,
            },
            Op::AllGather { bytes } => Op::AllGather {
                bytes: self.expr(bytes),
            },
            Op::AllToAll { bytes } => Op::AllToAll {
                bytes: self.expr(bytes),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ir_size_counts_nested_ops() {
        let p = CommPlan::new(
            "t",
            vec![
                Op::Phase("x".into()),
                Op::Loop {
                    count: Expr::Const(3),
                    body: vec![
                        Op::Barrier,
                        Op::IfElse {
                            cond: Cond::Eq(Expr::Rank, Expr::Const(0)),
                            then: vec![Op::BumpTag],
                            els: vec![],
                        },
                    ],
                },
            ],
        );
        assert_eq!(p.ir_size(), 5);
        assert!(!p.has_wildcard());
    }

    #[test]
    fn wildcard_detection_sees_through_nesting() {
        let p = CommPlan::new(
            "w",
            vec![Op::Loop {
                count: Expr::Const(1),
                body: vec![Op::IfElse {
                    cond: Cond::Eq(Expr::Rank, Expr::Const(0)),
                    then: vec![Op::RecvAny {
                        tag: TagExpr::Expr(Expr::Const(7)),
                    }],
                    els: vec![],
                }],
            }],
        );
        assert!(p.has_wildcard());
    }
}
