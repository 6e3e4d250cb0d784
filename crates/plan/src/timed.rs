//! Stream a [`CommPlan`] as resumable per-rank steps.
//!
//! [`TimedCursor`] walks one rank's view of a plan and yields [`Step`]s —
//! work charges, phase markers, collective span boundaries, and the
//! *individual point-to-point messages* each collective decomposes into.
//! Besides [`crate::lower`], which executes a plan on the mps thread
//! runtime, it is the IR's only interpreter, with two consumers:
//!
//! * [`crate::analyze_plan`] drains every rank's cursor, matches the
//!   message steps and folds the rest into the ranks' cost totals;
//! * the `simrt` event engine replays the steps against an
//!   [`mps::RankCore`].
//!
//! Collectives expand from the one schedule per algorithm in
//! [`mps::algo`], the same schedule the thread runtime's collectives run
//! on real payloads. So both consumers see exactly the messages a lowered
//! execution sends: same peers, same [`mps::internal_tag`] values, same
//! per-rank collective sequence numbers, each collective's messages
//! bracketed by its span.
//!
//! The logarithmic collectives expand whole (`O(log p)` queued steps); the
//! two O(p)-message collectives (allgather, all-to-all) stream one
//! exchange at a time from the schedule's constant-size generator, so a
//! cursor stays a few hundred bytes even while every rank of `p = 4096`
//! sits inside an 8190-message all-to-all.
//!
//! A shape violation — a failed expression, an out-of-range peer, a
//! self-message, a negative size or count, an oversized or unbumped tag —
//! ends the stream with a [`ShapeIssue`] at the op that caused it. A size
//! expression that fails for one peer of an O(p) collective stops the rank
//! at that peer's exchange, after the exchanges before it, as in
//! [`crate::lower`].

use std::collections::VecDeque;

use mps::algo::{Act, BigColl, SmallColl};
use mps::USER_TAG_LIMIT;

use crate::check::ShapeIssue;
use crate::coll::CollKind;
use crate::expr::{Env, EvalError, Expr};
use crate::ir::{CommPlan, Op, TagExpr};

/// One operational step of a rank's plan execution.
///
/// The word-sized tag keeps every payload word-aligned: with a byte tag,
/// moving a `Result<Option<Step>, _>` copies the bytes after the tag as
/// unaligned blocks, and reading a field back stalls on store forwarding
/// (draining a cursor ran two to three times slower on CG).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(u64)]
pub enum Step<'p> {
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
    /// Enter a named phase.
    Phase(&'p str),
    /// Open a collective span.
    CollBegin(CollKind),
    /// Close the innermost collective span.
    CollEnd,
    /// Send `bytes` to `to` under `tag`. Its contention concurrency is
    /// `p` inside a collective span, 2 outside.
    Send {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: u64,
        /// Payload bytes.
        bytes: u64,
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
        iter: i64,
        trips: i64,
    },
}

/// A resumable per-rank walk of a plan, yielding [`Step`]s until the
/// program ends or a [`ShapeIssue`] stops it.
pub struct TimedCursor<'p> {
    p: usize,
    rank: usize,
    frames: Vec<Frame<'p>>,
    vars: Vec<i64>,
    /// Expanded-but-unconsumed steps (small collectives, exchanges).
    micro: VecDeque<Step<'p>>,
    /// In-flight O(p) collective and its per-peer size, streamed into
    /// `micro` on demand.
    big: Option<(BigColl, &'p Expr)>,
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

    /// The next step; `Ok(None)` when the rank's program is finished.
    ///
    /// Most steps come from an already expanded collective; that case is
    /// a queue pop, inlined into the caller.
    ///
    /// # Errors
    /// The [`ShapeIssue`] of the op the rank cannot execute. The cursor
    /// must not be advanced after an error.
    #[inline]
    pub fn next_step(&mut self) -> Result<Option<Step<'p>>, ShapeIssue> {
        match self.micro.pop_front() {
            Some(step) => Ok(Some(step)),
            None => self.next_op_step(),
        }
    }

    /// The next step already expanded, if any: [`TimedCursor::next_step`]
    /// without walking the plan. For a rank blocked on a receive, these are
    /// the rest of the logarithmic collective it waits in (none outside
    /// one).
    #[inline]
    pub(crate) fn pop_expanded(&mut self) -> Option<Step<'p>> {
        self.micro.pop_front()
    }

    /// [`TimedCursor::next_step`] once the expansion queue is empty.
    fn next_op_step(&mut self) -> Result<Option<Step<'p>>, ShapeIssue> {
        loop {
            if let Some(step) = self.micro.pop_front() {
                return Ok(Some(step));
            }
            if self.big.is_some() {
                self.refill_big()?;
                continue;
            }
            let Some(op) = self.advance_frames() else {
                return Ok(None);
            };
            if let Some(step) = self.handle(op)? {
                return Ok(Some(step));
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
                        *self.vars.last_mut().expect("loop var present") = *iter;
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

    /// A size, count or tag value: evaluated and non-negative.
    fn eval_count(&self, e: &Expr, peer: Option<i64>) -> Result<u64, ShapeIssue> {
        let v = e.eval(&self.env(peer))?;
        u64::try_from(v).map_err(|_| ShapeIssue::NegativeCount { value: v })
    }

    /// A rank value in `[0, p)`.
    fn eval_peer(&self, e: &Expr) -> Result<usize, ShapeIssue> {
        let v = e.eval(&self.env(None))?;
        usize::try_from(v)
            .ok()
            .filter(|&r| r < self.p)
            .ok_or(ShapeIssue::PeerOutOfRange { peer: v })
    }

    /// A point-to-point peer: a rank other than this one.
    fn eval_other_rank(&self, e: &Expr) -> Result<usize, ShapeIssue> {
        let v = self.eval_peer(e)?;
        if v == self.rank {
            return Err(ShapeIssue::SelfMessage { peer: v });
        }
        Ok(v)
    }

    fn eval_tag(&mut self, t: &TagExpr) -> Result<u64, ShapeIssue> {
        let tag = match t {
            TagExpr::Expr(e) => self.eval_count(e, None)?,
            TagExpr::Auto { base, modulo } => {
                if *modulo == 0 {
                    return Err(ShapeIssue::Eval(EvalError::DivByZero));
                }
                let t0 = self.tags_taken;
                self.tags_taken += 1;
                base + (t0 % modulo)
            }
            TagExpr::Last { base, modulo } => {
                if *modulo == 0 {
                    return Err(ShapeIssue::Eval(EvalError::DivByZero));
                }
                if self.tags_taken == 0 {
                    return Err(ShapeIssue::LastTagWithoutBump);
                }
                base + ((self.tags_taken - 1) % modulo)
            }
        };
        if tag >= USER_TAG_LIMIT {
            return Err(ShapeIssue::TagTooLarge { tag });
        }
        Ok(tag)
    }

    /// Interpret one op: either return its single step, queue an
    /// expansion, or (for pure control flow) return `None` to continue.
    #[allow(clippy::cast_precision_loss)]
    fn handle(&mut self, op: &'p Op) -> Result<Option<Step<'p>>, ShapeIssue> {
        let step = match op {
            Op::Compute { units, scale } => Step::Compute {
                instr: self.eval_count(units, None)? as f64 * scale,
            },
            Op::MemStream { elems, scale, ws } => Step::MemStream {
                touches: self.eval_count(elems, None)? as f64 * scale,
                ws: self.eval_count(ws, None)?,
            },
            Op::MemAccess {
                accesses,
                scale,
                ws,
            } => Step::MemAccess {
                accesses: self.eval_count(accesses, None)? as f64 * scale,
                ws: self.eval_count(ws, None)?,
            },
            Op::Phase(name) => Step::Phase(name),
            Op::BumpTag => {
                self.tags_taken += 1;
                return Ok(None);
            }
            Op::Send { to, tag, bytes } => Step::Send {
                to: self.eval_other_rank(to)?,
                tag: self.eval_tag(tag)?,
                bytes: self.eval_count(bytes, None)?,
            },
            Op::Recv { from, tag } => Step::Recv {
                from: self.eval_other_rank(from)?,
                tag: self.eval_tag(tag)?,
            },
            Op::RecvAny { tag } => Step::RecvAny {
                tag: self.eval_tag(tag)?,
            },
            // exchange == send-then-recv on the same tag.
            Op::Exchange {
                partner,
                tag,
                bytes,
            } => {
                let partner = self.eval_other_rank(partner)?;
                let tag = self.eval_tag(tag)?;
                let bytes = self.eval_count(bytes, None)?;
                self.micro.push_back(Step::Recv { from: partner, tag });
                Step::Send {
                    to: partner,
                    tag,
                    bytes,
                }
            }
            Op::Loop { count, body } => {
                let trips = self.eval_count(count, None)?;
                if trips > 0 {
                    self.vars.push(0);
                    self.frames.push(Frame::Loop {
                        body,
                        idx: 0,
                        iter: 0,
                        trips: i64::try_from(trips).expect("from a non-negative i64"),
                    });
                }
                return Ok(None);
            }
            Op::IfElse { cond, then, els } => {
                let ops = if cond.eval(&self.env(None))? {
                    then
                } else {
                    els
                };
                if !ops.is_empty() {
                    self.frames.push(Frame::Seq { ops, idx: 0 });
                }
                return Ok(None);
            }
            Op::Barrier => {
                self.expand(CollKind::Barrier, SmallColl::Barrier);
                return Ok(None);
            }
            Op::Bcast { root, bytes } => {
                let root = self.eval_peer(root)?;
                let bytes = self.eval_count(bytes, None)?;
                self.expand(CollKind::Bcast, SmallColl::Bcast { root, bytes });
                return Ok(None);
            }
            Op::Reduce { root, elems, .. } => {
                let root = self.eval_peer(root)?;
                let elems = self.eval_count(elems, None)?;
                self.expand(CollKind::Reduce, SmallColl::Reduce { root, elems });
                return Ok(None);
            }
            Op::AllReduce { elems, .. } => {
                let elems = self.eval_count(elems, None)?;
                self.expand(CollKind::AllReduce, SmallColl::AllReduce { elems });
                return Ok(None);
            }
            Op::AllGather { bytes } => {
                let big = BigColl::allgather(&mut self.coll_seq);
                self.start_big(CollKind::AllGather, big, bytes);
                return Ok(None);
            }
            Op::AllToAll { bytes } => {
                let big = BigColl::alltoall(&mut self.coll_seq);
                self.start_big(CollKind::AllToAll, big, bytes);
                return Ok(None);
            }
        };
        Ok(Some(step))
    }

    /// Queue a logarithmic collective's steps inside its span.
    fn expand(&mut self, kind: CollKind, c: SmallColl) {
        let p = self.p;
        self.micro.push_back(Step::CollBegin(kind));
        let micro = &mut self.micro;
        c.expand(p, self.rank, &mut self.coll_seq, |a| {
            micro.push_back(coll_step(a));
        });
        micro.push_back(Step::CollEnd);
    }

    /// Open an O(p) collective's span and start streaming it.
    fn start_big(&mut self, kind: CollKind, big: BigColl, bytes: &'p Expr) {
        self.micro.push_back(Step::CollBegin(kind));
        self.big = Some((big, bytes));
    }

    /// Stream the next exchange of the in-flight O(p) collective into
    /// `micro`, closing the collective when its iterations are exhausted.
    fn refill_big(&mut self) -> Result<(), ShapeIssue> {
        let (big, bytes) = self.big.as_mut().expect("big collective in flight");
        let bytes: &'p Expr = bytes;
        let Some(x) = big.next(self.p, self.rank) else {
            self.big = None;
            self.micro.push_back(Step::CollEnd);
            return Ok(());
        };
        let peer = i64::try_from(x.peer).expect("rank fits i64");
        let bytes = self.eval_count(bytes, Some(peer))?;
        self.micro.push_back(Step::Send {
            to: x.to,
            tag: x.tag,
            bytes,
        });
        self.micro.push_back(Step::Recv {
            from: x.from,
            tag: x.tag,
        });
        Ok(())
    }
}

/// The step of one collective action.
fn coll_step<'p>(a: Act) -> Step<'p> {
    match a {
        Act::Send(to, tag, bytes) => Step::Send { to, tag, bytes },
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
    use crate::expr::Cond;

    /// Drain a clean cursor, returning all steps.
    fn drain(plan: &CommPlan, p: usize, rank: usize) -> Vec<Step<'_>> {
        let mut c = TimedCursor::new(plan, p, rank);
        let mut out = Vec::new();
        while let Some(s) = c.next_step().expect("clean plan") {
            out.push(s);
            assert!(out.len() < 1_000_000, "runaway cursor");
        }
        out
    }

    /// The message steps of a drain.
    fn messages<'p>(steps: &[Step<'p>]) -> Vec<Step<'p>> {
        steps
            .iter()
            .copied()
            .filter(|s| matches!(s, Step::Send { .. } | Step::Recv { .. }))
            .collect()
    }

    fn coll_plan(op: Op) -> CommPlan {
        CommPlan::new("one-coll", vec![op])
    }

    #[test]
    fn allreduce_power_of_two_is_pure_recursive_doubling() {
        let plan = coll_plan(Op::AllReduce {
            elems: Expr::Const(2),
            op: mps::ReduceOp::Sum,
        });
        // log2(4) = 2 rounds, each an exchange plus a combine of 2 elems.
        let tag = |round| mps::internal_tag(0, round);
        let (send, recv, combine) = (
            |to, round| Step::Send {
                to,
                tag: tag(round),
                bytes: 16,
            },
            |from, round| Step::Recv {
                from,
                tag: tag(round),
            },
            Step::Compute { instr: 2.0 },
        );
        assert_eq!(
            drain(&plan, 4, 1),
            vec![
                Step::CollBegin(CollKind::AllReduce),
                send(0, 1),
                recv(0, 1),
                combine,
                send(3, 2),
                recv(3, 2),
                combine,
                Step::CollEnd,
            ]
        );
    }

    #[test]
    fn allreduce_non_power_of_two_folds_extras() {
        let plan = coll_plan(Op::AllReduce {
            elems: Expr::Const(1),
            op: mps::ReduceOp::Sum,
        });
        // p = 3: m = 2, r = 1. Rank 2 folds into rank 0 and gets the
        // result back.
        assert_eq!(
            messages(&drain(&plan, 3, 2)),
            vec![
                Step::Send {
                    to: 0,
                    tag: mps::internal_tag(0, 0),
                    bytes: 8,
                },
                Step::Recv {
                    from: 0,
                    tag: mps::internal_tag(0, 63),
                },
            ]
        );
        // Rank 0 pre-folds, one doubling round with rank 1, posts back.
        let ops0 = messages(&drain(&plan, 3, 0));
        assert_eq!(ops0.len(), 4);
        assert_eq!(
            ops0[0],
            Step::Recv {
                from: 2,
                tag: mps::internal_tag(0, 0),
            }
        );
    }

    #[test]
    fn barrier_skips_seq_at_p1_but_bcast_consumes_it() {
        // At p=1 the barrier draws no sequence number, bcast draws one
        // (`mps::algo::SmallColl::expand`). Each call is an empty span.
        let plan = CommPlan::new(
            "seq",
            vec![
                Op::Barrier,
                Op::Bcast {
                    root: Expr::Const(0),
                    bytes: Expr::Const(4),
                },
                Op::AllReduce {
                    elems: Expr::Const(1),
                    op: mps::ReduceOp::Sum,
                },
            ],
        );
        let mut c = TimedCursor::new(&plan, 1, 0);
        let mut steps = Vec::new();
        while let Some(s) = c.next_step().unwrap() {
            steps.push(s);
        }
        assert_eq!(
            steps,
            [CollKind::Barrier, CollKind::Bcast, CollKind::AllReduce]
                .iter()
                .flat_map(|&k| [Step::CollBegin(k), Step::CollEnd])
                .collect::<Vec<_>>()
        );
        // Barrier consumed nothing, bcast consumed seq 0, allreduce seq 1.
        assert_eq!(c.coll_seq, 2);
    }

    #[test]
    fn alltoall_xor_pairing_and_peer_sizes() {
        // Chunk for destination d has d+1 bytes.
        let plan = coll_plan(Op::AllToAll {
            bytes: Expr::Peer + Expr::Const(1),
        });
        let steps = drain(&plan, 4, 0);
        assert_eq!(steps.len(), 8); // span + 3 partners × (send + recv)
        let sends: Vec<(usize, u64)> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Send { to, bytes, .. } => Some((*to, *bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![(1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn loops_bind_de_bruijn_vars_and_shape_errors_surface() {
        let plan = CommPlan::new(
            "loop",
            vec![Op::Loop {
                count: Expr::Const(3),
                body: vec![Op::Send {
                    to: Expr::Var(0) + Expr::Const(1),
                    tag: TagExpr::Expr(Expr::Const(5)),
                    bytes: Expr::Const(8),
                }],
            }],
        );
        // Rank 0 of 3: sends to 1, 2, then peer 3 is out of range.
        let mut c = TimedCursor::new(&plan, 3, 0);
        assert!(matches!(
            c.next_step().unwrap(),
            Some(Step::Send { to: 1, .. })
        ));
        assert!(matches!(
            c.next_step().unwrap(),
            Some(Step::Send { to: 2, .. })
        ));
        assert_eq!(c.next_step(), Err(ShapeIssue::PeerOutOfRange { peer: 3 }));
    }

    #[test]
    fn auto_and_last_tags_follow_the_cg_discipline() {
        let base = 0x4347_0000u64;
        let send = |tag| Op::Send {
            to: Expr::Const(1),
            tag,
            bytes: Expr::Const(0),
        };
        let plan = CommPlan::new(
            "tags",
            vec![
                Op::BumpTag,
                send(TagExpr::Last {
                    base,
                    modulo: 0xFFFF,
                }),
                send(TagExpr::Auto {
                    base,
                    modulo: 0xFFFF,
                }),
            ],
        );
        let tags: Vec<u64> = drain(&plan, 2, 0)
            .iter()
            .map(|s| match s {
                Step::Send { tag, .. } => *tag,
                other => panic!("{other:?}"),
            })
            .collect();
        // Last after one bump -> counter value 0; Auto bumps to 1.
        assert_eq!(tags, vec![base, base + 1]);
    }

    #[test]
    fn self_message_and_tag_limit_are_shape_errors() {
        let selfsend = CommPlan::new(
            "s",
            vec![Op::Send {
                to: Expr::Rank,
                tag: TagExpr::Expr(Expr::Const(0)),
                bytes: Expr::Const(1),
            }],
        );
        let mut c = TimedCursor::new(&selfsend, 2, 1);
        assert_eq!(c.next_step(), Err(ShapeIssue::SelfMessage { peer: 1 }));

        let bigtag = CommPlan::new(
            "t",
            vec![Op::Send {
                to: Expr::Const(1),
                tag: TagExpr::Expr(Expr::Const(1) * Expr::Const(1 << 32)),
                bytes: Expr::Const(1),
            }],
        );
        let mut c = TimedCursor::new(&bigtag, 2, 0);
        assert_eq!(c.next_step(), Err(ShapeIssue::TagTooLarge { tag: 1 << 32 }));
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
                        cond: Cond::Eq(Expr::Rank, Expr::Const(0)),
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
            assert_eq!(steps.first(), Some(&Step::CollBegin(CollKind::AllToAll)));
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
