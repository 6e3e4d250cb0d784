//! Lowering: compile a [`CommPlan`] onto the [`mps`] runtime.
//!
//! [`lower`] interprets the plan inside a rank's [`mps::Ctx`], issuing the
//! real runtime calls the IR ops denote — so every collective goes through
//! `mps`'s own algorithms, and the messages on the wire are exactly the
//! ones the static analyses in [`crate::check`] reasoned about. Payloads
//! are zero-filled bytes (`u8` for point-to-point and byte-sized
//! collectives, `f64` for reductions): plans model communication *shape*
//! and *cost*, not data.
//!
//! # Shape errors panic
//!
//! Lowering panics on any shape violation (peer out of range,
//! self-message, oversized tag, failed expression). Run
//! [`crate::analyze_plan`] first: a plan whose analysis reports no
//! [`ShapeIssue`](crate::ShapeIssue) findings lowers without panicking.

use mps::Ctx;

use crate::expr::{Env, Expr};
use crate::ir::{CommPlan, Op, TagExpr};

/// Counter tag `base + offset`; an overflow is a shape violation.
fn tag_in(base: u64, offset: u64) -> u64 {
    base.checked_add(offset)
        .unwrap_or_else(|| panic!("plan tag {base} + {offset} overflows u64"))
}

struct Lowerer<'c, 'w> {
    ctx: &'c mut Ctx<'w>,
    vars: Vec<i64>,
    tags_taken: u64,
}

impl Lowerer<'_, '_> {
    fn env(&self, peer: Option<i64>) -> Env<'_> {
        Env {
            p: self.ctx.size() as i64,
            rank: self.ctx.rank() as i64,
            peer,
            vars: &self.vars,
        }
    }

    fn eval(&self, e: &Expr, peer: Option<i64>) -> i64 {
        e.eval(&self.env(peer))
            .unwrap_or_else(|err| panic!("plan expression failed to lower: {err}"))
    }

    fn eval_count(&self, e: &Expr, peer: Option<i64>) -> usize {
        let v = self.eval(e, peer);
        usize::try_from(v).unwrap_or_else(|_| panic!("negative size/count {v} in plan"))
    }

    fn eval_rank(&self, e: &Expr) -> usize {
        let v = self.eval(e, None);
        let p = self.ctx.size();
        assert!(
            v >= 0 && v < p as i64,
            "plan peer {v} out of range for p = {p}"
        );
        usize::try_from(v).expect("checked range")
    }

    fn eval_tag(&mut self, t: &TagExpr) -> u64 {
        match t {
            TagExpr::Expr(e) => {
                let v = self.eval(e, None);
                assert!(v >= 0, "negative tag {v} in plan");
                v.unsigned_abs()
            }
            TagExpr::Auto { base, modulo } => {
                assert!(*modulo > 0, "TagExpr::Auto with zero modulus");
                let t0 = self.tags_taken;
                self.tags_taken += 1;
                tag_in(*base, t0 % modulo)
            }
            TagExpr::Last { base, modulo } => {
                assert!(*modulo > 0, "TagExpr::Last with zero modulus");
                assert!(self.tags_taken > 0, "TagExpr::Last before any tag bump");
                tag_in(*base, (self.tags_taken - 1) % modulo)
            }
        }
    }

    #[allow(clippy::cast_precision_loss)]
    fn run(&mut self, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Compute { units, scale } => {
                    let u = self.eval_count(units, None);
                    self.ctx.compute(u as f64 * scale);
                }
                Op::MemStream { elems, scale, ws } => {
                    let e = self.eval_count(elems, None);
                    let w = self.eval_count(ws, None);
                    self.ctx.mem_stream(e as f64 * scale, w as u64);
                }
                Op::MemAccess {
                    accesses,
                    scale,
                    ws,
                } => {
                    let a = self.eval_count(accesses, None);
                    let w = self.eval_count(ws, None);
                    self.ctx.mem_access(a as f64 * scale, w as u64);
                }
                Op::Phase(name) => self.ctx.phase(name),
                Op::BumpTag => self.tags_taken += 1,
                Op::Send { to, tag, bytes } => {
                    let to = self.eval_rank(to);
                    let tag = self.eval_tag(tag);
                    let b = self.eval_count(bytes, None);
                    self.ctx.send(to, tag, vec![0u8; b]);
                }
                Op::Recv { from, tag } => {
                    let from = self.eval_rank(from);
                    let tag = self.eval_tag(tag);
                    let _: Vec<u8> = self.ctx.recv(from, tag);
                }
                Op::RecvAny { tag } => {
                    let tag = self.eval_tag(tag);
                    let _: (usize, Vec<u8>) = self.ctx.recv_any(tag);
                }
                Op::Exchange {
                    partner,
                    tag,
                    bytes,
                } => {
                    let partner = self.eval_rank(partner);
                    let tag = self.eval_tag(tag);
                    let b = self.eval_count(bytes, None);
                    let _: Vec<u8> = self.ctx.exchange(partner, tag, vec![0u8; b]);
                }
                Op::Loop { count, body } => {
                    let n = self.eval_count(count, None);
                    self.vars.push(0);
                    for i in 0..n {
                        *self.vars.last_mut().expect("loop var present") =
                            i64::try_from(i).expect("trip count fits i64");
                        self.run(body);
                    }
                    self.vars.pop();
                }
                Op::IfElse { cond, then, els } => {
                    let c = cond
                        .eval(&self.env(None))
                        .unwrap_or_else(|err| panic!("plan condition failed to lower: {err}"));
                    self.run(if c { then } else { els });
                }
                Op::Barrier => self.ctx.barrier(),
                Op::Bcast { root, bytes } => {
                    let root = self.eval_rank(root);
                    let b = self.eval_count(bytes, None);
                    let _: Vec<u8> = self.ctx.bcast(root, vec![0u8; b]);
                }
                Op::Reduce { root, elems, op } => {
                    let root = self.eval_rank(root);
                    let e = self.eval_count(elems, None);
                    let _ = self.ctx.reduce(root, &vec![0.0f64; e], *op);
                }
                Op::AllReduce { elems, op } => {
                    let e = self.eval_count(elems, None);
                    let _ = self.ctx.allreduce(&vec![0.0f64; e], *op);
                }
                Op::AllGather { bytes } => {
                    let mine = self.eval_count(bytes, Some(self.ctx.rank() as i64));
                    let _ = self.ctx.allgather(vec![0u8; mine]);
                }
                Op::AllToAll { bytes } => {
                    let p = self.ctx.size();
                    let chunks: Vec<Vec<u8>> = (0..p)
                        .map(|d| vec![0u8; self.eval_count(bytes, Some(d as i64))])
                        .collect();
                    let _ = self.ctx.alltoall(chunks);
                }
            }
        }
    }
}

/// Execute `plan` inside one rank of an [`mps`] run.
///
/// # Panics
/// Panics on shape violations — see the module docs; analyze first.
pub fn lower(plan: &CommPlan, ctx: &mut Ctx<'_>) {
    let mut l = Lowerer {
        ctx,
        vars: Vec::new(),
        tags_taken: 0,
    };
    l.run(&plan.body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::analyze_plan;
    use crate::expr::Cond;
    use mps::World;
    use simcluster::system_g;

    fn world() -> World {
        World::new(system_g(), 2.8e9)
    }

    fn ring_plan() -> CommPlan {
        CommPlan::new(
            "ring",
            vec![
                Op::Phase("ring".into()),
                Op::Compute {
                    units: Expr::Const(500),
                    scale: 2.0,
                },
                Op::Send {
                    to: (Expr::Rank + Expr::Const(1)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(1)),
                    bytes: Expr::Const(64),
                },
                Op::Recv {
                    from: (Expr::Rank + Expr::P - Expr::Const(1)) % Expr::P,
                    tag: TagExpr::Expr(Expr::Const(1)),
                },
                Op::Barrier,
            ],
        )
    }

    #[test]
    fn lowered_counters_match_static_totals() {
        let plan = ring_plan();
        let p = 4;
        let analysis = analyze_plan(&plan, p);
        assert!(analysis.clean(), "{:?}", analysis.findings);

        let w = world();
        let report = mps::run(&w, p, |ctx| lower(&plan, ctx));
        let totals = report.total_counters();
        #[allow(clippy::cast_precision_loss)]
        {
            assert_eq!(totals.messages, analysis.total.messages as f64);
            assert_eq!(totals.bytes, analysis.total.bytes as f64);
        }
        // wc: ring compute only (barrier has no combine); 500·2 per rank.
        assert!((totals.wc - 4000.0).abs() < 1e-9);
        assert!((totals.wc - analysis.total.wc).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn auto_tag_past_u64_panics() {
        let tag = TagExpr::Auto {
            base: u64::MAX,
            modulo: 4,
        };
        let plan = CommPlan::new(
            "tag-overflow",
            vec![
                Op::BumpTag,
                Op::Send {
                    to: Expr::Const(1) - Expr::Rank,
                    tag,
                    bytes: Expr::Const(8),
                },
            ],
        );
        mps::run(&world(), 2, |ctx| lower(&plan, ctx));
    }

    #[test]
    fn loops_branches_and_collectives_lower_and_complete() {
        let plan = CommPlan::new(
            "mix",
            vec![
                Op::Loop {
                    count: Expr::Const(2),
                    body: vec![
                        Op::AllReduce {
                            elems: Expr::Const(3),
                            op: mps::ReduceOp::Sum,
                        },
                        Op::IfElse {
                            cond: Cond::Eq(Expr::Rank, Expr::Const(0)),
                            then: vec![Op::Send {
                                to: Expr::Const(1),
                                tag: TagExpr::Expr(Expr::Var(0) + Expr::Const(10)),
                                bytes: Expr::Const(8),
                            }],
                            els: vec![Op::IfElse {
                                cond: Cond::Eq(Expr::Rank, Expr::Const(1)),
                                then: vec![Op::Recv {
                                    from: Expr::Const(0),
                                    tag: TagExpr::Expr(Expr::Var(0) + Expr::Const(10)),
                                }],
                                els: vec![],
                            }],
                        },
                    ],
                },
                Op::AllToAll {
                    bytes: Expr::Const(16),
                },
            ],
        );
        let p = 3;
        let analysis = analyze_plan(&plan, p);
        assert!(analysis.clean(), "{:?}", analysis.findings);

        let w = world();
        let report = mps::run(&w, p, |ctx| lower(&plan, ctx));
        let totals = report.total_counters();
        #[allow(clippy::cast_precision_loss)]
        {
            assert_eq!(totals.messages, analysis.total.messages as f64);
            assert_eq!(totals.bytes, analysis.total.bytes as f64);
        }
        // Combine charges match too: allreduce adds wc on every rank.
        assert!((totals.wc - analysis.total.wc).abs() < 1e-9);
    }
}
