//! Per-rank lazy elaboration of a [`CommPlan`] into a stream of abstract
//! point-to-point operations.
//!
//! A [`RankCursor`] walks one rank's view of the plan, evaluating symbolic
//! expressions and expanding each collective macro-op into the *exact*
//! message sequence [`mps`]'s collectives produce — same peers, same
//! [`mps::internal_tag`] values, same per-rank collective sequence numbers —
//! so the static matching in [`crate::check`] sees precisely the messages a
//! [`crate::lower`]ed execution would send; the algorithms live in
//! [`crate::coll`], shared with [`crate::TimedCursor`]. Expansion is lazy:
//! the logarithmic collectives buffer one call (`O(log p)` ops), and the
//! two O(p)-message collectives (allgather, all-to-all) stream one
//! exchange at a time from a [`BigColl`]. A cursor
//! therefore holds O(log p) pending ops even while every rank sits inside a
//! transpose, which is what lets the checker certify plans at `p = 4096+`
//! in O(p) memory.
//!
//! A size expression that fails for one peer of an O(p) collective stops
//! the rank at that peer's exchange: the exchanges before it have been
//! sent and received, as in [`crate::TimedCursor`] and [`crate::lower`].
//!
//! Cost events (compute instructions, memory accesses, message/byte and
//! per-collective counters) accumulate on the cursor as a side effect of
//! the walk, mirroring what [`mps::Ctx`] would charge — including the
//! combine charges inside reductions.

use std::collections::VecDeque;
use std::fmt;

use mps::USER_TAG_LIMIT;

use crate::coll::{Act, BigColl, SmallColl};

use crate::expr::{Env, EvalError, Expr};
use crate::ir::{CommPlan, Op, TagExpr};

/// The collective families, for per-collective accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// Dissemination barrier.
    Barrier,
    /// Binomial broadcast.
    Bcast,
    /// Binomial reduction.
    Reduce,
    /// Recursive-doubling allreduce.
    AllReduce,
    /// Ring allgather.
    AllGather,
    /// Pairwise-exchange all-to-all.
    AllToAll,
}

/// Number of collective families.
pub const COLL_KINDS: usize = 6;

impl CollKind {
    /// All families, in index order.
    pub const ALL: [CollKind; COLL_KINDS] = [
        CollKind::Barrier,
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::AllReduce,
        CollKind::AllGather,
        CollKind::AllToAll,
    ];

    /// Index into a `[T; COLL_KINDS]` table.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CollKind::Barrier => 0,
            CollKind::Bcast => 1,
            CollKind::Reduce => 2,
            CollKind::AllReduce => 3,
            CollKind::AllGather => 4,
            CollKind::AllToAll => 5,
        }
    }

    /// The span/metric name the `mps` runtime uses for this family.
    #[must_use]
    pub fn scope_name(self) -> &'static str {
        match self {
            CollKind::Barrier => "mps:barrier",
            CollKind::Bcast => "mps:bcast",
            CollKind::Reduce => "mps:reduce",
            CollKind::AllReduce => "mps:allreduce",
            CollKind::AllGather => "mps:allgather",
            CollKind::AllToAll => "mps:alltoall",
        }
    }
}

/// Per-family call/message/byte counters (the statics mirror of the
/// `mps.collective.<name>.*` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollStats {
    /// Collective invocations.
    pub calls: u64,
    /// Messages sent from this rank inside the family.
    pub messages: u64,
    /// Bytes sent from this rank inside the family.
    pub bytes: u64,
}

/// Cost totals accumulated while elaborating one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankCost {
    /// On-chip instructions (`Compute` ops plus collective combines) — the
    /// counters' `Wc`.
    pub wc: f64,
    /// Memory accesses charged via `MemStream`/`MemAccess` — an upper
    /// bound on the counters' off-chip `Wm` (the dynamic cache split may
    /// classify any fraction as on-chip).
    pub mem_accesses: f64,
    /// Messages sent.
    pub messages: u64,
    /// Bytes sent.
    pub bytes: u64,
    /// Phase markers entered.
    pub phases: u64,
}

impl RankCost {
    /// Accumulate `other` into `self`.
    pub fn absorb(&mut self, other: &RankCost) {
        self.wc += other.wc;
        self.mem_accesses += other.mem_accesses;
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.phases += other.phases;
    }
}

/// An abstract point-to-point operation: what the matching checker sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AOp {
    /// Eager send (never blocks in the `mps` model).
    Send {
        /// Destination rank.
        to: usize,
        /// Resolved tag (user or internal-collective).
        tag: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// Blocking receive from a specific source.
    Recv {
        /// Source rank.
        from: usize,
        /// Resolved tag.
        tag: u64,
    },
    /// Blocking wildcard receive.
    RecvAny {
        /// Resolved tag.
        tag: u64,
    },
}

/// A shape violation found while elaborating (before any matching).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeIssue {
    /// A symbolic expression failed to evaluate.
    Eval(EvalError),
    /// A peer expression resolved outside `[0, p)`.
    PeerOutOfRange {
        /// The resolved peer value.
        peer: i64,
    },
    /// A send/recv/exchange peer resolved to the executing rank itself.
    SelfMessage {
        /// The rank (== peer).
        peer: usize,
    },
    /// A user tag at or above [`mps::USER_TAG_LIMIT`].
    TagTooLarge {
        /// The resolved tag.
        tag: u64,
    },
    /// A negative byte count, element count, or trip count.
    NegativeCount {
        /// The resolved value.
        value: i64,
    },
    /// [`TagExpr::Last`] with no preceding `BumpTag`/`Auto` bump.
    LastTagWithoutBump,
}

impl From<EvalError> for ShapeIssue {
    fn from(e: EvalError) -> Self {
        ShapeIssue::Eval(e)
    }
}

impl fmt::Display for ShapeIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Eval(e) => write!(f, "expression error: {e}"),
            Self::PeerOutOfRange { peer } => write!(f, "peer {peer} out of range"),
            Self::SelfMessage { peer } => write!(f, "self-message on rank {peer}"),
            Self::TagTooLarge { tag } => {
                write!(f, "tag {tag} >= user-tag limit {USER_TAG_LIMIT}")
            }
            Self::NegativeCount { value } => write!(f, "negative size/count {value}"),
            Self::LastTagWithoutBump => write!(f, "TagExpr::Last before any tag bump"),
        }
    }
}

struct Frame<'p> {
    ops: &'p [Op],
    idx: usize,
    /// Loop repetitions still to run after the current one.
    remaining: i64,
    is_loop: bool,
}

/// Lazy per-rank elaborator: call [`RankCursor::next_comm`] until `None`.
pub struct RankCursor<'p> {
    p: usize,
    rank: usize,
    frames: Vec<Frame<'p>>,
    vars: Vec<i64>,
    tags_taken: u64,
    coll_seq: u64,
    buffered: VecDeque<AOp>,
    /// In-flight O(p) collective, streamed into `buffered` on demand.
    big: Option<BigColl<'p>>,
    /// Cost totals accumulated so far.
    pub cost: RankCost,
    /// Per-collective-family counters accumulated so far.
    pub colls: [CollStats; COLL_KINDS],
    /// Whether a wildcard receive has been emitted.
    pub saw_wildcard: bool,
    /// Abstract comm ops emitted so far (the op index of the *next* op).
    pub emitted: u64,
    /// Emitted-op index of the first wildcard receive, if any — the
    /// witness for a conservative (`exact = false`) verdict.
    pub first_wildcard_op: Option<u64>,
}

impl<'p> RankCursor<'p> {
    /// A cursor over `plan` for `rank` of `p`.
    #[must_use]
    pub fn new(plan: &'p CommPlan, p: usize, rank: usize) -> Self {
        assert!(p >= 1 && rank < p, "rank {rank} outside world of {p}");
        Self {
            p,
            rank,
            frames: vec![Frame {
                ops: &plan.body,
                idx: 0,
                remaining: 0,
                is_loop: false,
            }],
            vars: Vec::new(),
            tags_taken: 0,
            coll_seq: 0,
            buffered: VecDeque::new(),
            big: None,
            cost: RankCost::default(),
            colls: [CollStats::default(); COLL_KINDS],
            saw_wildcard: false,
            emitted: 0,
            first_wildcard_op: None,
        }
    }

    fn env(&self, peer: Option<i64>) -> Env<'_> {
        Env {
            p: self.p as i64,
            rank: self.rank as i64,
            peer,
            vars: &self.vars,
        }
    }

    fn eval_nonneg(&self, e: &Expr, peer: Option<i64>) -> Result<i64, ShapeIssue> {
        let v = e.eval(&self.env(peer))?;
        if v < 0 {
            return Err(ShapeIssue::NegativeCount { value: v });
        }
        Ok(v)
    }

    fn eval_peer(&self, e: &Expr) -> Result<usize, ShapeIssue> {
        let v = e.eval(&self.env(None))?;
        if v < 0 || v >= self.p as i64 {
            return Err(ShapeIssue::PeerOutOfRange { peer: v });
        }
        Ok(usize::try_from(v).expect("checked range"))
    }

    fn eval_other_rank(&self, e: &Expr) -> Result<usize, ShapeIssue> {
        let v = self.eval_peer(e)?;
        if v == self.rank {
            return Err(ShapeIssue::SelfMessage { peer: v });
        }
        Ok(v)
    }

    fn eval_bytes(&self, e: &Expr, peer: Option<i64>) -> Result<u64, ShapeIssue> {
        let v = self.eval_nonneg(e, peer)?;
        Ok(v.unsigned_abs())
    }

    fn eval_tag(&mut self, t: &TagExpr) -> Result<u64, ShapeIssue> {
        let raw = match t {
            TagExpr::Expr(e) => self.eval_nonneg(e, None)?.unsigned_abs(),
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
        if raw >= USER_TAG_LIMIT {
            return Err(ShapeIssue::TagTooLarge { tag: raw });
        }
        Ok(raw)
    }

    /// Buffer one action of a `kind` collective, charging its costs.
    #[inline]
    fn act(&mut self, kind: CollKind, a: Act) {
        match a {
            Act::Send(to, tag, bytes) => {
                self.cost.messages += 1;
                self.cost.bytes += bytes;
                let s = &mut self.colls[kind.index()];
                s.messages += 1;
                s.bytes += bytes;
                self.buffered.push_back(AOp::Send { to, tag, bytes });
            }
            Act::Recv(from, tag) => self.buffered.push_back(AOp::Recv { from, tag }),
            Act::Combine(elems) => self.cost.wc += elems as f64,
        }
    }

    fn expand(&mut self, c: SmallColl) {
        let (p, rank, kind) = (self.p, self.rank, c.kind());
        self.colls[kind.index()].calls += 1;
        let mut seq = self.coll_seq;
        c.expand(p, rank, &mut seq, |a| self.act(kind, a));
        self.coll_seq = seq;
    }

    fn start_big(&mut self, kind: CollKind, bytes: &'p Expr) {
        self.colls[kind.index()].calls += 1;
        let big = BigColl::new(kind, &mut self.coll_seq, bytes);
        if self.p > 1 {
            self.big = Some(big);
        }
    }

    /// Advance to the next abstract comm op, accumulating cost events along
    /// the way. `Ok(None)` means the rank's program is complete.
    #[inline]
    pub fn next_comm(&mut self) -> Result<Option<AOp>, ShapeIssue> {
        // Most ops come from an already expanded collective: a queue pop.
        let r = match self.buffered.pop_front() {
            Some(a) => Ok(Some(a)),
            None => self.next_comm_inner(),
        };
        if let Ok(Some(a)) = &r {
            if matches!(a, AOp::RecvAny { .. }) && self.first_wildcard_op.is_none() {
                self.first_wildcard_op = Some(self.emitted);
            }
            self.emitted += 1;
        }
        r
    }

    fn next_comm_inner(&mut self) -> Result<Option<AOp>, ShapeIssue> {
        loop {
            if let Some(a) = self.buffered.pop_front() {
                return Ok(Some(a));
            }
            if let Some(big) = &mut self.big {
                let Some(x) = big.next(self.p, self.rank) else {
                    self.big = None;
                    continue;
                };
                let (kind, bytes) = (big.kind, big.bytes);
                let bytes = self.eval_bytes(bytes, Some(x.peer))?;
                self.act(kind, Act::Send(x.to, x.tag, bytes));
                self.act(kind, Act::Recv(x.from, x.tag));
                continue;
            }
            let Some(frame) = self.frames.last_mut() else {
                return Ok(None);
            };
            if frame.idx >= frame.ops.len() {
                if frame.is_loop && frame.remaining > 0 {
                    frame.remaining -= 1;
                    frame.idx = 0;
                    *self.vars.last_mut().expect("loop var present") += 1;
                } else {
                    let f = self.frames.pop().expect("frame present");
                    if f.is_loop {
                        self.vars.pop();
                    }
                }
                continue;
            }
            let ops = frame.ops;
            let idx = frame.idx;
            frame.idx += 1;
            let op: &'p Op = &ops[idx];
            match op {
                Op::Compute { units, scale } => {
                    let u = self.eval_nonneg(units, None)?;
                    self.cost.wc += u as f64 * scale;
                }
                Op::MemStream { elems, scale, ws } => {
                    let e = self.eval_nonneg(elems, None)?;
                    self.eval_nonneg(ws, None)?;
                    // mem_stream(touches, ws) == mem_access(touches/8, ws).
                    self.cost.mem_accesses += e as f64 * scale / 8.0;
                }
                Op::MemAccess {
                    accesses,
                    scale,
                    ws,
                } => {
                    let a = self.eval_nonneg(accesses, None)?;
                    self.eval_nonneg(ws, None)?;
                    self.cost.mem_accesses += a as f64 * scale;
                }
                Op::Phase(_) => self.cost.phases += 1,
                Op::BumpTag => self.tags_taken += 1,
                Op::Send { to, tag, bytes } => {
                    let to = self.eval_other_rank(to)?;
                    let tag = self.eval_tag(tag)?;
                    let bytes = self.eval_bytes(bytes, None)?;
                    self.cost.messages += 1;
                    self.cost.bytes += bytes;
                    return Ok(Some(AOp::Send { to, tag, bytes }));
                }
                Op::Recv { from, tag } => {
                    let from = self.eval_other_rank(from)?;
                    let tag = self.eval_tag(tag)?;
                    return Ok(Some(AOp::Recv { from, tag }));
                }
                Op::RecvAny { tag } => {
                    let tag = self.eval_tag(tag)?;
                    self.saw_wildcard = true;
                    return Ok(Some(AOp::RecvAny { tag }));
                }
                Op::Exchange {
                    partner,
                    tag,
                    bytes,
                } => {
                    let partner = self.eval_other_rank(partner)?;
                    let tag = self.eval_tag(tag)?;
                    let bytes = self.eval_bytes(bytes, None)?;
                    self.cost.messages += 1;
                    self.cost.bytes += bytes;
                    // exchange == send-then-recv on the same tag.
                    self.buffered.push_back(AOp::Recv { from: partner, tag });
                    return Ok(Some(AOp::Send {
                        to: partner,
                        tag,
                        bytes,
                    }));
                }
                Op::Loop { count, body } => {
                    let n = self.eval_nonneg(count, None)?;
                    if n > 0 {
                        self.frames.push(Frame {
                            ops: body,
                            idx: 0,
                            remaining: n - 1,
                            is_loop: true,
                        });
                        self.vars.push(0);
                    }
                }
                Op::IfElse { cond, then, els } => {
                    let branch = if cond.eval(&self.env(None))? {
                        then
                    } else {
                        els
                    };
                    if !branch.is_empty() {
                        self.frames.push(Frame {
                            ops: branch,
                            idx: 0,
                            remaining: 0,
                            is_loop: false,
                        });
                    }
                }
                Op::Barrier => self.expand(SmallColl::Barrier),
                Op::Bcast { root, bytes } => {
                    let root = self.eval_peer(root)?;
                    let bytes = self.eval_bytes(bytes, None)?;
                    self.expand(SmallColl::Bcast { root, bytes });
                }
                Op::Reduce { root, elems, .. } => {
                    let root = self.eval_peer(root)?;
                    let elems = self.eval_bytes(elems, None)?;
                    self.expand(SmallColl::Reduce { root, elems });
                }
                Op::AllReduce { elems, .. } => {
                    let elems = self.eval_bytes(elems, None)?;
                    self.expand(SmallColl::AllReduce { elems });
                }
                Op::AllGather { bytes } => self.start_big(CollKind::AllGather, bytes),
                Op::AllToAll { bytes } => self.start_big(CollKind::AllToAll, bytes),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::CommPlan;

    fn drain(plan: &CommPlan, p: usize, rank: usize) -> (Vec<AOp>, RankCost) {
        let mut c = RankCursor::new(plan, p, rank);
        let mut out = Vec::new();
        while let Some(a) = c.next_comm().expect("clean plan") {
            out.push(a);
        }
        (out, c.cost)
    }

    #[test]
    fn allreduce_power_of_two_is_pure_recursive_doubling() {
        let plan = CommPlan::new(
            "ar",
            vec![Op::AllReduce {
                elems: Expr::Const(2),
                op: mps::ReduceOp::Sum,
            }],
        );
        let (ops, cost) = drain(&plan, 4, 1);
        // log2(4) = 2 rounds, each an exchange: send+recv per round.
        assert_eq!(ops.len(), 4);
        assert_eq!(cost.messages, 2);
        assert_eq!(cost.bytes, 2 * 16);
        assert_eq!(cost.wc, 2.0 * 2.0); // one combine of 2 elems per round
        match ops[0] {
            AOp::Send { to, bytes, .. } => {
                assert_eq!(to, 1 ^ 1);
                assert_eq!(bytes, 16);
            }
            ref other => panic!("expected send, got {other:?}"),
        }
    }

    #[test]
    fn allreduce_non_power_of_two_folds_extras() {
        let plan = CommPlan::new(
            "ar",
            vec![Op::AllReduce {
                elems: Expr::Const(1),
                op: mps::ReduceOp::Sum,
            }],
        );
        // p = 3: m = 2, r = 1. Rank 2 folds into rank 0.
        let (ops2, _) = drain(&plan, 3, 2);
        assert_eq!(
            ops2,
            vec![
                AOp::Send {
                    to: 0,
                    tag: mps::internal_tag(0, 0),
                    bytes: 8
                },
                AOp::Recv {
                    from: 0,
                    tag: mps::internal_tag(0, 63)
                },
            ]
        );
        // Rank 0 pre-folds, one doubling round with rank 1, posts back.
        let (ops0, _) = drain(&plan, 3, 0);
        assert_eq!(ops0.len(), 4);
        assert_eq!(
            ops0[0],
            AOp::Recv {
                from: 2,
                tag: mps::internal_tag(0, 0)
            }
        );
    }

    #[test]
    fn barrier_skips_seq_at_p1_but_bcast_consumes_it() {
        // Mirrors mps: barrier_inner returns before next_coll_seq() at p=1,
        // bcast_inner consumes the seq first. A following allreduce's tags
        // reveal which sequence number it got.
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
        let mut c = RankCursor::new(&plan, 1, 0);
        assert_eq!(c.next_comm().unwrap(), None);
        // barrier consumed nothing, bcast consumed seq 0, allreduce seq 1.
        assert_eq!(c.coll_seq, 2);
        assert_eq!(c.colls[CollKind::Barrier.index()].calls, 1);
        assert_eq!(c.colls[CollKind::Bcast.index()].calls, 1);
        assert_eq!(c.colls[CollKind::AllReduce.index()].calls, 1);
        assert_eq!(c.cost.messages, 0);
    }

    #[test]
    fn alltoall_xor_pairing_and_peer_sizes() {
        // Chunk for destination d has d+1 bytes.
        let plan = CommPlan::new(
            "a2a",
            vec![Op::AllToAll {
                bytes: Expr::Peer + Expr::Const(1),
            }],
        );
        let (ops, cost) = drain(&plan, 4, 0);
        assert_eq!(ops.len(), 6); // 3 partners × (send + recv)
        let sends: Vec<(usize, u64)> = ops
            .iter()
            .filter_map(|o| match o {
                AOp::Send { to, bytes, .. } => Some((*to, *bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(sends, vec![(1, 2), (2, 3), (3, 4)]);
        assert_eq!(cost.messages, 3);
        assert_eq!(cost.bytes, 9);
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
        let mut c = RankCursor::new(&plan, 3, 0);
        assert!(matches!(
            c.next_comm().unwrap(),
            Some(AOp::Send { to: 1, .. })
        ));
        assert!(matches!(
            c.next_comm().unwrap(),
            Some(AOp::Send { to: 2, .. })
        ));
        assert_eq!(c.next_comm(), Err(ShapeIssue::PeerOutOfRange { peer: 3 }));
    }

    #[test]
    fn auto_and_last_tags_follow_the_cg_discipline() {
        let base = 0x4347_0000u64;
        let plan = CommPlan::new(
            "tags",
            vec![
                Op::BumpTag,
                Op::Send {
                    to: Expr::Const(1),
                    tag: TagExpr::Last {
                        base,
                        modulo: 0xFFFF,
                    },
                    bytes: Expr::Const(0),
                },
                Op::Send {
                    to: Expr::Const(1),
                    tag: TagExpr::Auto {
                        base,
                        modulo: 0xFFFF,
                    },
                    bytes: Expr::Const(0),
                },
            ],
        );
        let mut c = RankCursor::new(&plan, 2, 0);
        let t1 = match c.next_comm().unwrap().unwrap() {
            AOp::Send { tag, .. } => tag,
            other => panic!("{other:?}"),
        };
        let t2 = match c.next_comm().unwrap().unwrap() {
            AOp::Send { tag, .. } => tag,
            other => panic!("{other:?}"),
        };
        assert_eq!(t1, base); // Last after one bump -> counter value 0
        assert_eq!(t2, base + 1); // Auto bumps to counter value 1
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
        let mut c = RankCursor::new(&selfsend, 2, 1);
        assert_eq!(c.next_comm(), Err(ShapeIssue::SelfMessage { peer: 1 }));

        let bigtag = CommPlan::new(
            "t",
            vec![Op::Send {
                to: Expr::Const(1),
                tag: TagExpr::Expr(Expr::Const(1) * Expr::Const(1 << 32)),
                bytes: Expr::Const(1),
            }],
        );
        let mut c = RankCursor::new(&bigtag, 2, 0);
        assert_eq!(c.next_comm(), Err(ShapeIssue::TagTooLarge { tag: 1 << 32 }));
    }
}
