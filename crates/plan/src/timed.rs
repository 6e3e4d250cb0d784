//! Timed elaboration: stream a [`CommPlan`] as resumable per-rank steps.
//!
//! [`TimedCursor`] walks one rank's view of a plan and yields [`Step`]s —
//! work charges, phase markers, collective span boundaries, and the
//! *individual point-to-point messages* each collective decomposes into.
//! It is the third interpreter of the IR, and it must agree with the other
//! two:
//!
//! * [`crate::lower`] executes the plan on the mps thread runtime, whose
//!   collectives ([`mps::Ctx::barrier`] & friends) generate a concrete
//!   message stream;
//! * [`crate::RankCursor`] elaborates the same stream *abstractly* for the
//!   whole-plan static checker;
//! * `TimedCursor` elaborates it *operationally* for the `simrt` event
//!   engine, which replays the steps against an [`mps::RankCore`].
//!
//! Both cursors expand collectives from the same algorithms
//! ([`crate::coll`]), which mirror `mps/src/collect.rs` line by line; this
//! cursor adds the per-message contention concurrency (`p` inside
//! collectives, 2 for user point-to-point) and the collective span
//! boundaries. The differential tests in `simrt` pin this agreement
//! counter-for-counter against the thread runtime, and `analyze_plan`
//! totals pin it against the static checker.
//!
//! The two O(p)-message collectives (allgather, all-to-all) are streamed
//! from constant-size generator state instead of being materialized, so a
//! rank's cursor stays a few hundred bytes even at `p = 4096` where one
//! all-to-all instance is 8190 messages.

use std::collections::VecDeque;

use crate::coll::{Act, BigColl, SmallColl};
use crate::elaborate::CollKind;
use crate::expr::{Env, Expr};
use crate::ir::{CommPlan, Op, TagExpr};

/// One operational step of a rank's plan execution.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Charge `instr` instructions of on-chip compute.
    Compute {
        /// Instruction count.
        instr: f64,
    },
    /// Charge a streaming memory sweep.
    MemStream {
        /// Element touches.
        touches: f64,
        /// Working-set bytes.
        ws: u64,
    },
    /// Charge random memory accesses.
    MemAccess {
        /// Access count.
        accesses: f64,
        /// Working-set bytes.
        ws: u64,
    },
    /// Charge flat local I/O seconds.
    Io {
        /// Duration in seconds.
        seconds: f64,
    },
    /// Enter a named phase.
    Phase(String),
    /// Open a collective span (scope name, e.g. `"mps:alltoall"`).
    CollBegin(&'static str),
    /// Close the innermost collective span.
    CollEnd,
    /// Send `bytes` to `to` under `tag`, at contention `concurrency`.
    Send {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: u64,
        /// Payload bytes.
        bytes: u64,
        /// Contention concurrency (`p` inside collectives, 2 otherwise).
        concurrency: usize,
    },
    /// Receive the next `tag` message from `from` (blocking).
    Recv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: u64,
    },
    /// Receive the next `tag` message from any rank (blocking wildcard).
    RecvAny {
        /// Message tag.
        tag: u64,
    },
}

/// A frame of the cursor's explicit interpreter stack.
enum Frame<'p> {
    /// A plain op sequence (plan body, `IfElse` branch).
    Seq { ops: &'p [Op], idx: usize },
    /// A loop mid-flight; owns the top loop variable.
    Loop {
        body: &'p [Op],
        idx: usize,
        iter: usize,
        trips: usize,
    },
}

/// A resumable per-rank walk of a plan, yielding [`Step`]s.
///
/// # Panics
/// Like [`crate::lower`], the cursor panics on shape violations (failed
/// expressions, out-of-range peers, negative sizes, oversized user tags).
/// Run [`crate::analyze_plan`] first; a clean plan streams without
/// panicking.
pub struct TimedCursor<'p> {
    p: usize,
    rank: usize,
    frames: Vec<Frame<'p>>,
    vars: Vec<i64>,
    /// Expanded-but-unconsumed steps (small collectives, exchanges).
    micro: VecDeque<Step>,
    /// In-flight O(p) collective, streamed into `micro` on demand.
    big: Option<BigColl<'p>>,
    tags_taken: u64,
    coll_seq: u64,
}

impl<'p> TimedCursor<'p> {
    /// A cursor over `plan` for `rank` of `p`.
    #[must_use]
    pub fn new(plan: &'p CommPlan, p: usize, rank: usize) -> Self {
        assert!(p > 0, "need at least one rank");
        assert!(rank < p, "rank {rank} out of range for p = {p}");
        Self {
            p,
            rank,
            frames: vec![Frame::Seq {
                ops: &plan.body,
                idx: 0,
            }],
            vars: Vec::new(),
            micro: VecDeque::new(),
            big: None,
            tags_taken: 0,
            coll_seq: 0,
        }
    }

    /// The next step, or `None` when the rank's program is finished.
    ///
    /// Most steps come from an already expanded collective; that case is
    /// a queue pop, inlined into the caller.
    #[inline]
    pub fn next_step(&mut self) -> Option<Step> {
        match self.micro.pop_front() {
            Some(step) => Some(step),
            None => self.next_op_step(),
        }
    }

    /// [`TimedCursor::next_step`] once the expansion queue is empty.
    fn next_op_step(&mut self) -> Option<Step> {
        loop {
            if let Some(step) = self.micro.pop_front() {
                return Some(step);
            }
            if self.big.is_some() {
                self.refill_big();
                continue;
            }
            let op = self.advance_frames()?;
            if let Some(step) = self.handle(op) {
                return Some(step);
            }
        }
    }

    /// Pop/step the frame stack to the next op, or `None` at program end.
    fn advance_frames(&mut self) -> Option<&'p Op> {
        loop {
            let frame = self.frames.last_mut()?;
            match frame {
                Frame::Seq { ops, idx } => {
                    if *idx < ops.len() {
                        let op = &ops[*idx];
                        *idx += 1;
                        return Some(op);
                    }
                    self.frames.pop();
                }
                Frame::Loop {
                    body,
                    idx,
                    iter,
                    trips,
                } => {
                    if *idx < body.len() {
                        let op = &body[*idx];
                        *idx += 1;
                        return Some(op);
                    }
                    *iter += 1;
                    if *iter < *trips {
                        *idx = 0;
                        *self.vars.last_mut().expect("loop var present") =
                            i64::try_from(*iter).expect("trip count fits i64");
                    } else {
                        self.frames.pop();
                        self.vars.pop();
                    }
                }
            }
        }
    }

    fn env(&self, peer: Option<i64>) -> Env<'_> {
        #[allow(clippy::cast_possible_wrap)]
        Env {
            p: self.p as i64,
            rank: self.rank as i64,
            peer,
            vars: &self.vars,
        }
    }

    fn eval(&self, e: &Expr, peer: Option<i64>) -> i64 {
        e.eval(&self.env(peer))
            .unwrap_or_else(|err| panic!("plan expression failed to stream: {err}"))
    }

    fn eval_count(&self, e: &Expr, peer: Option<i64>) -> usize {
        let v = self.eval(e, peer);
        usize::try_from(v).unwrap_or_else(|_| panic!("negative size/count {v} in plan"))
    }

    fn eval_bytes(&self, e: &Expr, peer: Option<i64>) -> u64 {
        self.eval_count(e, peer) as u64
    }

    fn eval_rank(&self, e: &Expr) -> usize {
        let v = self.eval(e, None);
        let p = self.p;
        #[allow(clippy::cast_possible_wrap)]
        {
            assert!(
                v >= 0 && v < p as i64,
                "plan peer {v} out of range for p = {p}"
            );
        }
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
                base + (t0 % modulo)
            }
            TagExpr::Last { base, modulo } => {
                assert!(*modulo > 0, "TagExpr::Last with zero modulus");
                assert!(self.tags_taken > 0, "TagExpr::Last before any tag bump");
                base + ((self.tags_taken - 1) % modulo)
            }
        }
    }

    /// Interpret one op: either return its single step, queue an
    /// expansion, or (for pure control flow) return `None` to continue.
    #[allow(clippy::cast_precision_loss)]
    fn handle(&mut self, op: &'p Op) -> Option<Step> {
        match op {
            Op::Compute { units, scale } => {
                let u = self.eval_count(units, None);
                Some(Step::Compute {
                    instr: u as f64 * scale,
                })
            }
            Op::MemStream { elems, scale, ws } => {
                let e = self.eval_count(elems, None);
                let w = self.eval_count(ws, None);
                Some(Step::MemStream {
                    touches: e as f64 * scale,
                    ws: w as u64,
                })
            }
            Op::MemAccess {
                accesses,
                scale,
                ws,
            } => {
                let a = self.eval_count(accesses, None);
                let w = self.eval_count(ws, None);
                Some(Step::MemAccess {
                    accesses: a as f64 * scale,
                    ws: w as u64,
                })
            }
            Op::Phase(name) => Some(Step::Phase(name.clone())),
            Op::BumpTag => {
                self.tags_taken += 1;
                None
            }
            Op::Send { to, tag, bytes } => {
                let to = self.eval_rank(to);
                let tag = self.eval_tag(tag);
                assert!(tag < mps::USER_TAG_LIMIT, "user tags must be < 2^32");
                let b = self.eval_bytes(bytes, None);
                Some(Step::Send {
                    to,
                    tag,
                    bytes: b,
                    concurrency: 2,
                })
            }
            Op::Recv { from, tag } => {
                let from = self.eval_rank(from);
                let tag = self.eval_tag(tag);
                assert!(tag < mps::USER_TAG_LIMIT, "user tags must be < 2^32");
                Some(Step::Recv { from, tag })
            }
            Op::RecvAny { tag } => {
                let tag = self.eval_tag(tag);
                assert!(tag < mps::USER_TAG_LIMIT, "user tags must be < 2^32");
                Some(Step::RecvAny { tag })
            }
            Op::Exchange {
                partner,
                tag,
                bytes,
            } => {
                let partner = self.eval_rank(partner);
                let tag = self.eval_tag(tag);
                assert!(tag < mps::USER_TAG_LIMIT, "user tags must be < 2^32");
                let b = self.eval_bytes(bytes, None);
                self.micro.push_back(Step::Recv { from: partner, tag });
                Some(Step::Send {
                    to: partner,
                    tag,
                    bytes: b,
                    concurrency: 2,
                })
            }
            Op::Loop { count, body } => {
                let trips = self.eval_count(count, None);
                if trips > 0 {
                    self.vars.push(0);
                    self.frames.push(Frame::Loop {
                        body,
                        idx: 0,
                        iter: 0,
                        trips,
                    });
                }
                None
            }
            Op::IfElse { cond, then, els } => {
                let c = cond
                    .eval(&self.env(None))
                    .unwrap_or_else(|err| panic!("plan condition failed to stream: {err}"));
                self.frames.push(Frame::Seq {
                    ops: if c { then } else { els },
                    idx: 0,
                });
                None
            }
            Op::Barrier => {
                self.expand(SmallColl::Barrier);
                None
            }
            Op::Bcast { root, bytes } => {
                let root = self.eval_rank(root);
                let bytes = self.eval_bytes(bytes, None);
                self.expand(SmallColl::Bcast { root, bytes });
                None
            }
            Op::Reduce { root, elems, .. } => {
                let root = self.eval_rank(root);
                let elems = self.eval_bytes(elems, None);
                self.expand(SmallColl::Reduce { root, elems });
                None
            }
            Op::AllReduce { elems, .. } => {
                let elems = self.eval_bytes(elems, None);
                self.expand(SmallColl::AllReduce { elems });
                None
            }
            Op::AllGather { bytes } => {
                self.start_big(CollKind::AllGather, bytes);
                None
            }
            Op::AllToAll { bytes } => {
                self.start_big(CollKind::AllToAll, bytes);
                None
            }
        }
    }

    /// Queue a logarithmic collective's steps inside its span.
    fn expand(&mut self, c: SmallColl) {
        let p = self.p;
        self.micro.push_back(Step::CollBegin(c.kind().scope_name()));
        let micro = &mut self.micro;
        c.expand(p, self.rank, &mut self.coll_seq, |a| {
            micro.push_back(coll_step(p, a));
        });
        self.micro.push_back(Step::CollEnd);
    }

    fn start_big(&mut self, kind: CollKind, bytes: &'p Expr) {
        let big = BigColl::new(kind, &mut self.coll_seq, bytes);
        self.micro.push_back(Step::CollBegin(kind.scope_name()));
        if self.p > 1 {
            self.big = Some(big);
        } else {
            self.micro.push_back(Step::CollEnd);
        }
    }

    /// Stream the next exchange of the in-flight O(p) collective into
    /// `micro`, closing the collective when its iterations are exhausted.
    fn refill_big(&mut self) {
        let big = self.big.as_mut().expect("big collective in flight");
        let Some(x) = big.next(self.p, self.rank) else {
            self.big = None;
            self.micro.push_back(Step::CollEnd);
            return;
        };
        let bytes = big.bytes;
        let bytes = self.eval_bytes(bytes, Some(x.peer));
        let send = Act::Send(x.to, x.tag, bytes);
        self.micro.push_back(coll_step(self.p, send));
        self.micro.push_back(Step::Recv {
            from: x.from,
            tag: x.tag,
        });
    }
}

/// The step of one collective action in a world of `p` (the contention
/// concurrency of every collective message).
fn coll_step(p: usize, a: Act) -> Step {
    match a {
        Act::Send(to, tag, bytes) => Step::Send {
            to,
            tag,
            bytes,
            concurrency: p,
        },
        Act::Recv(from, tag) => Step::Recv { from, tag },
        #[allow(clippy::cast_precision_loss)]
        Act::Combine(elems) => Step::Compute {
            instr: elems as f64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::analyze_plan;
    use crate::ir::CommPlan;

    /// Drain a cursor, returning all steps.
    fn drain(plan: &CommPlan, p: usize, rank: usize) -> Vec<Step> {
        let mut c = TimedCursor::new(plan, p, rank);
        let mut out = Vec::new();
        while let Some(s) = c.next_step() {
            out.push(s);
            assert!(out.len() < 1_000_000, "runaway cursor");
        }
        out
    }

    fn coll_plan(op: Op) -> CommPlan {
        CommPlan::new("one-coll", vec![op])
    }

    /// Per-rank message/byte totals of the streamed steps match the
    /// static checker's totals for every collective kind.
    #[test]
    fn streamed_messages_match_static_analysis() {
        let plans = [
            coll_plan(Op::Barrier),
            coll_plan(Op::Bcast {
                root: Expr::Const(0),
                bytes: Expr::Const(4096),
            }),
            coll_plan(Op::Reduce {
                root: Expr::Const(0),
                elems: Expr::Const(128),
                op: mps::ReduceOp::Sum,
            }),
            coll_plan(Op::AllReduce {
                elems: Expr::Const(64),
                op: mps::ReduceOp::Sum,
            }),
            coll_plan(Op::AllGather {
                bytes: (Expr::Peer + Expr::Const(1)) * Expr::Const(16),
            }),
            coll_plan(Op::AllToAll {
                bytes: (Expr::Peer + Expr::Const(2)) * Expr::Const(8),
            }),
        ];
        for plan in &plans {
            for p in [1usize, 2, 3, 4, 6, 8] {
                let analysis = analyze_plan(plan, p);
                assert!(analysis.clean(), "{}: {:?}", plan.name, analysis.findings);
                let mut messages = 0u64;
                let mut bytes = 0u64;
                for rank in 0..p {
                    for step in drain(plan, p, rank) {
                        if let Step::Send { bytes: b, .. } = step {
                            messages += 1;
                            bytes += b;
                        }
                    }
                }
                assert_eq!(
                    messages, analysis.total.messages,
                    "{} p={p} messages",
                    plan.name
                );
                assert_eq!(bytes, analysis.total.bytes, "{} p={p} bytes", plan.name);
            }
        }
    }

    /// Every send streamed by one rank has a matching recv streamed by its
    /// destination (same tag, mirrored endpoints), for a mixed plan.
    #[test]
    fn sends_and_recvs_pair_up() {
        let plan = CommPlan::new(
            "mixed",
            vec![
                Op::Phase("work".into()),
                Op::Compute {
                    units: Expr::Const(100),
                    scale: 1.0,
                },
                Op::Barrier,
                Op::AllReduce {
                    elems: Expr::Const(8),
                    op: mps::ReduceOp::Sum,
                },
                Op::AllToAll {
                    bytes: Expr::Const(32),
                },
            ],
        );
        let p = 6; // non-power-of-two exercises fold + rotation paths
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for rank in 0..p {
            for step in drain(&plan, p, rank) {
                match step {
                    Step::Send { to, tag, .. } => sends.push((rank, to, tag)),
                    Step::Recv { from, tag } => recvs.push((from, rank, tag)),
                    _ => {}
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(sends, recvs);
    }

    /// Loop variables and Auto/Last tags stream exactly like `lower`.
    #[test]
    fn loop_vars_and_auto_tags() {
        let plan = CommPlan::new(
            "tags",
            vec![Op::Loop {
                count: Expr::Const(3),
                body: vec![
                    Op::BumpTag,
                    Op::IfElse {
                        cond: crate::Cond::Eq(Expr::Rank, Expr::Const(0)),
                        then: vec![Op::Send {
                            to: Expr::Const(1),
                            tag: TagExpr::Last {
                                base: 100,
                                modulo: 8,
                            },
                            bytes: Expr::Var(0) * Expr::Const(8),
                        }],
                        els: vec![Op::Recv {
                            from: Expr::Const(0),
                            tag: TagExpr::Last {
                                base: 100,
                                modulo: 8,
                            },
                        }],
                    },
                ],
            }],
        );
        let steps = drain(&plan, 2, 0);
        let sends: Vec<(u64, u64)> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Send { tag, bytes, .. } => Some((*tag, *bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![(100, 0), (101, 8), (102, 16)]);
    }

    /// Collective span boundaries bracket every collective's messages.
    #[test]
    fn coll_scopes_are_balanced() {
        let plan = coll_plan(Op::AllToAll {
            bytes: Expr::Const(64),
        });
        for p in [1usize, 4, 5] {
            let steps = drain(&plan, p, 0);
            assert_eq!(steps.first(), Some(&Step::CollBegin("mps:alltoall")));
            assert_eq!(steps.last(), Some(&Step::CollEnd));
            let depth: i64 = steps
                .iter()
                .map(|s| match s {
                    Step::CollBegin(_) => 1,
                    Step::CollEnd => -1,
                    _ => 0,
                })
                .sum();
            assert_eq!(depth, 0);
        }
    }
}
