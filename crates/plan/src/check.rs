//! Whole-plan static analysis: matching/shape checking and deadlock
//! detection over the abstract message semantics of `mps`.
//!
//! The checker runs every rank's [`TimedCursor`] to quiescence on the
//! plan [`Schedule`] — `mps`'s matching rules, no user code, no threads,
//! O(p) memory plus the messages in flight. For wildcard-free plans this
//! canonical run is **exact**: the k-th receive of tag `t` on a channel
//! always pairs with the k-th send of tag `t`, so one run decides
//! deadlock for *all* schedules. A [`Op::RecvAny`](crate::Op::RecvAny)
//! breaks confluence: the schedule's wildcard rule (lowest source) is
//! still a feasible schedule, so reported deadlocks are real, but the
//! verdict is conservative ([`PlanAnalysis::exact`] = false) and a clean
//! one does **not** prove other schedules safe.
//!
//! Quiescence with unfinished ranks yields findings with witnesses: the
//! wait-for cycle for circular waits, unmatched receives for dead-end
//! waits (plus tag-mismatch evidence when the awaited source's messages
//! carry other tags than the one wanted), and leftover never-received
//! messages as unmatched sends.
//!
//! Costs mirror what [`mps::Ctx`] would charge, combines inside
//! reductions included: each rank's non-message steps fold into its
//! [`RankCost`] and per-family [`CollStats`] as the checker drains them.
//! A rank left blocked inside a logarithmic collective is charged for the
//! whole call, as if its expansion had run to the end.
//!
//! ## Folding repeated iterations
//!
//! Most steps of an NPB plan repeat earlier ones: CG runs 25 inner
//! iterations of one body per outer step, FT repeats its transpose. The
//! paper's `Appl` counts such work as one iteration's times the count, and
//! so does the checker, wherever that is bit for bit what interpreting
//! every iteration gives. Once per analysis it picks the *foldable* loops
//! of the specialized plan ([`foldable_loops`]) — none in a plan with a
//! wildcard receive, whose matches depend on the order. A loop qualifies
//! when its trip count is a constant of at least 2, its body never reads
//! its own variable, and every user tag in the body is a constant or an
//! `Auto`/`Last` counter tag whose `[base, base + modulo)` range lies
//! below [`USER_TAG_LIMIT`] and is disjoint from the other ranges and the
//! constant tags. The checker folds those whose charge scales are also
//! finite and non-negative.
//!
//! Ranks park at the head of every iteration of those loops
//! ([`Step::LoopHead`]). When no rank is ready, every rank is parked at the
//! head of the same loop in the same enclosing iteration, and no message
//! is in flight, the schedule hands the checker a *repeat cut*
//! ([`Effects::cut`]). At the cut before iteration 0 the checker records
//! each rank's counters: its [`RankCost`], [`CollStats`], message steps,
//! tag draws and collective sequence numbers, plus the schedule's steps
//! (O(p)). At the cut before iteration 1 it takes their deltas and adds
//! the remaining `trips − 1` iterations at once, moving every cursor past
//! the loop, when
//!
//! * every rank drew the same number of tags and of collective sequence
//!   numbers, so later iterations are the first one with every tag
//!   relabelled one to one ([`mps::internal_tag`] is one to one too), and
//!   match as it did;
//! * every `u64` product and sum fits; and
//! * the `f64` sums are exact: every charge of the body is a multiple of
//!   `2^-k` (from its scale; a stream's touches are charged divided by 8),
//!   the totals at both cuts are such multiples, and the folded totals
//!   stay below `2^(53 − k)`.
//!
//! Otherwise — ranks parked at different heads, a rank blocked or
//! finished, a message in flight across the cut, a refused delta — the
//! parked ranks are released in rank order and that loop is interpreted
//! from then on. The fold is exact because without wildcards each rank's
//! step stream does not depend on the schedule, so the analysis is the
//! unique final state of every schedule, parking included. For the same
//! reason the shape findings of a wildcard-free plan are listed by rank,
//! not in the order the schedule met them. [`PlanAnalysis::steps`] counts
//! the folded iterations' steps too; [`PlanAnalysis::folded_iterations`]
//! says how many iterations were added rather than interpreted.
//!
//! ## Whole collectives at a cut
//!
//! An all-gather or all-to-all sends `p − 1` messages from every rank, and
//! its exchanges follow from `(p, rank)` alone ([`mps::algo::BigColl`]).
//! In a wildcard-free plan ranks also park at every such collective's
//! entrance ([`Step::CollHead`]), after its span opens and before its
//! first exchange. When no rank is ready, every rank is parked there, no
//! message is in flight (a *clean* cut), every rank stands at the same
//! kind with the same sequence number, and every rank's size evaluates to
//! a `u64` at the peer of each of its exchanges with a sum that fits
//! ([`TimedCursor::coll_bytes`]), the collective completes by
//! construction: each round pairs every send with the receive of the same
//! tag. So the checker adds each rank's `p − 1` messages and their bytes
//! to its [`RankCost`] and [`CollStats`], `2(p − 1)` message steps per
//! rank to the schedule's, and moves every cursor past the exchanges. A
//! size that splits into a rank part times a peer part sums in O(1) per
//! rank ([`crate::PeerProduct`]), so FT's all-to-alls cost O(p) instead of
//! O(p²) evaluations. Otherwise nothing is charged, the ranks are released
//! and interpret the collective, and a size fault surfaces at its exchange
//! with the same finding. The cut composes with loop folding: a collective
//! inside a loop iteration being recorded is charged between the two
//! repeat cuts, so the fold adds it with the rest of the iteration.

use std::fmt;

use mps::USER_TAG_LIMIT;

use crate::coll::{CollKind, CollStats, COLL_KINDS};
use crate::expr::{EvalError, Expr};
use crate::ir::{CommPlan, Op, TagExpr};
use crate::sched::{Effects, Envelope, Schedule};
use crate::timed::{Step, TimedCursor};

/// Cost totals accumulated while checking one rank.
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

/// A shape violation that stops a rank's [`TimedCursor`] (before any
/// matching).
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
    /// [`TagExpr::Last`](crate::TagExpr::Last) with no preceding
    /// `BumpTag`/`Auto` bump.
    LastTagWithoutBump,
    /// A collective past the [`mps::MAX_COLL_SEQ`]-th: its internal tags
    /// would collide with earlier ones.
    CollSeqOverflow {
        /// The sequence number it would draw.
        seq: u64,
    },
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
            Self::CollSeqOverflow { seq } => write!(
                f,
                "collective sequence number {seq} exceeds the internal tag space"
            ),
        }
    }
}

/// Cap on recorded findings: a pathological plan at large `p` can produce
/// one finding per rank pair; everything beyond the cap is counted, not
/// stored.
const MAX_FINDINGS: usize = 1024;

/// One edge of a wait-for witness: `rank` is blocked receiving `tag` from
/// `on`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanWaitEdge {
    /// The blocked rank.
    pub rank: usize,
    /// The rank it waits for.
    pub on: usize,
    /// The tag it waits for.
    pub tag: u64,
}

/// A defect found by the static analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanFinding {
    /// A shape violation (bad peer, self-message, oversized tag, failed
    /// expression) on one rank; the rank stops there.
    Shape {
        /// The offending rank.
        rank: usize,
        /// What went wrong.
        issue: ShapeIssue,
    },
    /// A circular wait: every edge's `on` is the next edge's `rank`.
    DeadlockCycle {
        /// The cycle, as wait-for edges in order.
        cycle: Vec<PlanWaitEdge>,
    },
    /// A receive that can never be satisfied (the source finished, faulted,
    /// or is itself stuck outside any cycle). `from` is `None` for a
    /// wildcard receive.
    UnmatchedRecv {
        /// The blocked rank.
        rank: usize,
        /// The awaited source, if specific.
        from: Option<usize>,
        /// The awaited tag.
        tag: u64,
    },
    /// Evidence accompanying an [`PlanFinding::UnmatchedRecv`]: the awaited
    /// channel holds messages, but with different tags.
    TagMismatch {
        /// The blocked receiver.
        receiver: usize,
        /// The sender whose messages sit unmatched.
        sender: usize,
        /// The tag the receiver wants.
        wanted: u64,
        /// Tags actually available on the channel (deduped, truncated).
        available: Vec<u64>,
    },
    /// Messages sent but never received (reported when no rank is blocked;
    /// under a deadlock the leftovers are implied by the deadlock itself).
    UnmatchedSend {
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Bytes of the first such message.
        bytes: u64,
        /// How many messages with this `(src, dst, tag)` were left over.
        count: u64,
    },
    /// A wildcard receive had several simultaneously matching sources in
    /// the canonical run — the match is schedule-dependent (informational;
    /// it is what forces `exact = false`).
    WildcardChoice {
        /// The receiving rank.
        rank: usize,
        /// The racing tag.
        tag: u64,
        /// Sources that could match at that moment.
        sources: Vec<usize>,
    },
}

impl PlanFinding {
    /// Whether this finding denies the deadlock-freedom certificate (shape
    /// errors and unmatched/circular receives do; leftover sends and
    /// wildcard choices do not).
    #[must_use]
    pub fn blocks_certification(&self) -> bool {
        matches!(
            self,
            Self::Shape { .. } | Self::DeadlockCycle { .. } | Self::UnmatchedRecv { .. }
        )
    }
}

impl fmt::Display for PlanFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shape { rank, issue } => write!(f, "rank {rank}: {issue}"),
            Self::DeadlockCycle { cycle } => {
                write!(f, "deadlock cycle:")?;
                for e in cycle {
                    write!(f, " [rank {} waits on rank {} tag {}]", e.rank, e.on, e.tag)?;
                }
                Ok(())
            }
            Self::UnmatchedRecv { rank, from, tag } => match from {
                Some(s) => write!(f, "rank {rank}: recv(from {s}, tag {tag}) never matched"),
                None => write!(f, "rank {rank}: recv_any(tag {tag}) never matched"),
            },
            Self::TagMismatch {
                receiver,
                sender,
                wanted,
                available,
            } => write!(
                f,
                "rank {receiver} wants tag {wanted} from rank {sender}, \
                 channel holds tags {available:?}"
            ),
            Self::UnmatchedSend {
                src,
                dst,
                tag,
                bytes,
                count,
            } => write!(
                f,
                "{count} unmatched send(s) {src} -> {dst} tag {tag} ({bytes} bytes)"
            ),
            Self::WildcardChoice { rank, tag, sources } => write!(
                f,
                "rank {rank}: recv_any(tag {tag}) could match any of {sources:?}"
            ),
        }
    }
}

/// Witness for a conservative verdict: where exactness was lost. Points
/// at the first wildcard receive of the lowest rank that executed one (op
/// indices count the message steps — sends and receives — of that rank's
/// cursor, in stream order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InexactWitness {
    /// The lowest rank whose stream contains a wildcard receive.
    pub rank: usize,
    /// The emitted-op index of that rank's first wildcard receive.
    pub op_index: u64,
}

impl fmt::Display for InexactWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank {}, op {}", self.rank, self.op_index)
    }
}

/// The result of [`analyze_plan`].
#[derive(Debug, Clone)]
pub struct PlanAnalysis {
    /// The analyzed world size.
    pub p: usize,
    /// All findings (capped at an internal limit; see
    /// [`PlanAnalysis::findings_truncated`]).
    pub findings: Vec<PlanFinding>,
    /// Whether the finding list was truncated at the cap.
    pub findings_truncated: bool,
    /// Whether the verdict is exact (no wildcard receive executed at
    /// `p > 2`); conservative verdicts prove deadlocks real but cannot
    /// prove their absence.
    pub exact: bool,
    /// When `exact` is false: the first non-exact op (lowest rank with a
    /// wildcard receive, and that rank's first wildcard op index).
    pub first_inexact: Option<InexactWitness>,
    /// Whether every rank ran to completion.
    pub completed: bool,
    /// Message steps of the run, folded iterations included: each send
    /// and each receive once, a wildcard receive once per try (a work
    /// metric for reports). A completed wildcard-free plan whose every
    /// message is received takes `2 × total.messages`.
    pub steps: u64,
    /// Loop iterations whose counts were added from an earlier
    /// iteration's instead of being interpreted (see the module docs).
    pub folded_iterations: u64,
    /// Cost totals summed over ranks.
    pub total: RankCost,
    /// Per-collective-family totals summed over ranks.
    pub colls: [CollStats; COLL_KINDS],
    /// Per-rank cost totals (index = rank).
    pub per_rank: Vec<RankCost>,
}

impl PlanAnalysis {
    /// The deadlock-freedom certificate: every rank completed, no finding
    /// denies it, and the verdict is exact.
    #[must_use]
    pub fn deadlock_free(&self) -> bool {
        self.completed && self.exact && !self.findings.iter().any(PlanFinding::blocks_certification)
    }

    /// Completely clean: completed with no findings of any kind.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.completed && self.findings.is_empty() && !self.findings_truncated
    }
}

/// One rank's cursor and the accounting folded from its steps.
struct Rank<'p> {
    cursor: TimedCursor<'p>,
    cost: RankCost,
    colls: [CollStats; COLL_KINDS],
    /// The collective whose steps are streaming.
    open: Option<CollKind>,
    /// Message steps taken from the cursor so far (the op index of the
    /// next one).
    emitted: u64,
    /// Index of the first wildcard receive — the witness for a
    /// conservative (`exact = false`) verdict.
    first_wildcard_op: Option<u64>,
}

impl<'p> Rank<'p> {
    /// The next message step (`Send`, `Recv` or `RecvAny`), folding the
    /// steps before it into the rank's accounting. `Ok(None)` means the
    /// rank's program is complete.
    #[inline]
    fn next_message(&mut self) -> Result<Option<Step<'p>>, ShapeIssue> {
        loop {
            // Most steps are already expanded; popping them directly skips
            // `next_step`'s `Result` wrapping, measurably on CG.
            let step = match self.cursor.pop_expanded() {
                Some(step) => step,
                None => match self.cursor.next_step()? {
                    Some(step) => step,
                    None => return Ok(None),
                },
            };
            if self.fold(step) {
                match step {
                    Step::LoopHead(_) | Step::CollHead => {}
                    Step::RecvAny { .. } if self.first_wildcard_op.is_none() => {
                        self.first_wildcard_op = Some(self.emitted);
                        self.emitted += 1;
                    }
                    _ => self.emitted += 1,
                }
                return Ok(Some(step));
            }
        }
    }

    /// Charge one step; whether it is a message step or a head.
    #[inline]
    fn fold(&mut self, step: Step<'p>) -> bool {
        match step {
            Step::Compute { instr } => self.cost.wc += instr,
            // mem_stream(touches, ws) == mem_access(touches/8, ws).
            Step::MemStream { touches, .. } => self.cost.mem_accesses += touches / 8.0,
            Step::MemAccess { accesses, .. } => self.cost.mem_accesses += accesses,
            Step::Phase(_) => self.cost.phases += 1,
            Step::CollBegin(kind) => {
                self.colls[kind.index()].calls += 1;
                self.open = Some(kind);
            }
            Step::CollEnd => self.open = None,
            Step::Send { bytes, .. } => {
                self.cost.messages += 1;
                self.cost.bytes += bytes;
                if let Some(kind) = self.open {
                    let s = &mut self.colls[kind.index()];
                    s.messages += 1;
                    s.bytes += bytes;
                }
                return true;
            }
            Step::Recv { .. } | Step::RecvAny { .. } | Step::LoopHead(_) | Step::CollHead => {
                return true
            }
        }
        false
    }

    /// The counters a fold multiplies.
    fn tally(&self) -> Tally {
        let (tags_taken, coll_seq) = self.cursor.counters();
        Tally {
            cost: self.cost,
            colls: self.colls,
            emitted: self.emitted,
            tags_taken,
            coll_seq,
        }
    }

    /// Charge the expanded rest of the collective a blocked rank waits in.
    fn charge_rest_of_call(&mut self) {
        while let Some(step) = self.cursor.pop_expanded() {
            self.fold(step);
        }
    }
}

/// The checker's effects: ranks fold their steps into costs, sends carry
/// byte counts, shape issues and wildcard races become findings, and
/// repeat cuts fold loop iterations.
struct Checker<'p> {
    ranks: Vec<Rank<'p>>,
    findings: Vec<PlanFinding>,
    findings_truncated: bool,
    /// Shape issues of a wildcard-free plan, listed by rank at the end;
    /// `None` for a wildcard plan, whose findings keep the run's order.
    faults: Option<Vec<(usize, ShapeIssue)>>,
    /// The foldable loops, indexed like the cursors' heads.
    folds: Vec<FoldLoop>,
    folded_iterations: u64,
}

impl<'p> Effects<'p> for Checker<'p> {
    type Body = u64;

    #[inline]
    fn next_message(&mut self, r: usize) -> Result<Option<Step<'p>>, ShapeIssue> {
        loop {
            let step = self.ranks[r].next_message()?;
            match step {
                Some(Step::LoopHead(i)) if !self.folds[i].parking => {}
                _ => return Ok(step),
            }
        }
    }

    #[inline]
    fn send(&mut self, _r: usize, _to: usize, _tag: u64, bytes: u64) -> u64 {
        bytes
    }

    #[inline]
    fn recv(&mut self, _r: usize, _env: Envelope<u64>) {}

    fn fault(&mut self, r: usize, issue: ShapeIssue) {
        match &mut self.faults {
            Some(faults) => faults.push((r, issue)),
            None => self.push_finding(PlanFinding::Shape { rank: r, issue }),
        }
    }

    fn wildcard(&mut self, r: usize, tag: u64, sources: &[usize]) {
        if sources.len() > 1 {
            self.push_finding(PlanFinding::WildcardChoice {
                rank: r,
                tag,
                sources: sources.to_vec(),
            });
        }
    }

    fn cut(&mut self, parked: &[usize], clean: bool, steps: &mut u64, _wakes: &mut u64) {
        let head = |r: usize| self.ranks[r].cursor.loop_head();
        let Some((id, vars)) = parked.iter().find_map(|&r| head(r)) else {
            // Every parked rank stands at a collective's entrance.
            if clean {
                self.price_collective(steps);
            }
            return;
        };
        if !(clean && parked.iter().all(|&r| head(r) == Some((id, vars)))) {
            // Parked at different loops or instances, or others still
            // blocked, in flight or at a collective: those loops are
            // interpreted from now on.
            for &r in parked {
                if let Some((i, _)) = head(r) {
                    let f = &mut self.folds[i];
                    f.parking = false;
                    f.entry = None;
                }
            }
            return;
        }
        let vars = vars.to_vec();
        let (&iter, enclosing) = vars.split_last().expect("a loop variable");
        let entry = self.folds[id].entry.take();
        if iter == 0 {
            self.folds[id].entry = Some(Cut {
                vars,
                steps: *steps,
                ranks: self.ranks.iter().map(Rank::tally).collect(),
            });
            return;
        }
        let folded = entry
            .filter(|e| iter == 1 && e.vars.split_last() == Some((&0, enclosing)))
            .and_then(|e| self.fold(id, &e, *steps));
        let Some((tallies, folded_steps)) = folded else {
            self.folds[id].parking = false;
            return;
        };
        for (rank, t) in self.ranks.iter_mut().zip(tallies) {
            rank.cost = t.cost;
            rank.colls = t.colls;
            rank.emitted = t.emitted;
            rank.cursor.leave_loop(t.tags_taken, t.coll_seq);
        }
        *steps = folded_steps;
        self.folded_iterations += self.folds[id].trips - 1;
    }
}

impl Checker<'_> {
    /// At a clean cut with every rank at a collective's entrance: when all
    /// stand at the same all-gather or all-to-all (kind and sequence
    /// number) and every rank's sizes evaluate, charge every rank its
    /// `p − 1` messages and their bytes, add the `2(p − 1)` message steps
    /// of each to `steps`, and move the cursors past the collective.
    /// Otherwise change nothing: the ranks are released and interpret it,
    /// and a size fault surfaces at its exchange.
    fn price_collective(&mut self, steps: &mut u64) {
        let first = self.ranks[0].cursor.coll_head();
        let Some((kind, _)) = first else { return };
        if !self.ranks.iter().all(|r| r.cursor.coll_head() == first) {
            return;
        }
        let n = self.ranks.len() as u64 - 1;
        let charged = self
            .ranks
            .iter()
            .map(|r| {
                let bytes = r.cursor.coll_bytes()?;
                let (mut cost, mut coll) = (r.cost, r.colls[kind.index()]);
                cost.messages = cost.messages.checked_add(n)?;
                cost.bytes = cost.bytes.checked_add(bytes)?;
                coll.messages = coll.messages.checked_add(n)?;
                coll.bytes = coll.bytes.checked_add(bytes)?;
                Some((cost, coll))
            })
            .collect::<Option<Vec<_>>>();
        let Some(charged) = charged else { return };
        for (r, (cost, coll)) in self.ranks.iter_mut().zip(charged) {
            r.cost = cost;
            r.colls[kind.index()] = coll;
            r.emitted += 2 * n;
            r.cursor.leave_collective();
        }
        *steps += 2 * n * (n + 1);
    }

    /// Every rank's counters and the step count after the last `trips − 1`
    /// iterations of loop `id`, from the cuts at the heads of its
    /// iterations 0 (`entry`) and 1 (now), when adding them is exactly
    /// what interpreting them would give; `None` otherwise.
    fn fold(&self, id: usize, entry: &Cut, steps: u64) -> Option<(Vec<Tally>, u64)> {
        let FoldLoop { trips, exp, .. } = self.folds[id];
        let m = trips - 1;
        let delta = |t1: &Tally, t0: &Tally| {
            (
                t1.tags_taken.checked_sub(t0.tags_taken),
                t1.coll_seq.checked_sub(t0.coll_seq),
            )
        };
        let step0 = delta(&self.ranks[0].tally(), &entry.ranks[0]);
        let tallies = self
            .ranks
            .iter()
            .zip(&entry.ranks)
            .map(|(rank, t0)| {
                let t1 = rank.tally();
                // Equal per-rank counter steps relabel every matched pair
                // of iteration 0 into a matched pair of each later one.
                if delta(&t1, t0) != step0 {
                    return None;
                }
                // Past the last sequence number a collective is a shape
                // issue, which the interpreted run finds where it occurs.
                t1.repeat(t0, m, exp)
                    .filter(|t| t.coll_seq <= mps::MAX_COLL_SEQ + 1)
            })
            .collect::<Option<Vec<_>>>()?;
        Some((tallies, repeat_count(entry.steps, steps, m)?))
    }

    fn push_finding(&mut self, f: PlanFinding) {
        if self.findings.len() < MAX_FINDINGS {
            self.findings.push(f);
        } else {
            self.findings_truncated = true;
        }
    }

    /// Findings for a run that stopped with blocked ranks: each wait-for
    /// cycle, then every blocked rank outside one as an unmatchable
    /// receive, with tag-mismatch evidence when the awaited source's
    /// messages carry other tags.
    fn report_wait_for(&mut self, sched: &Schedule<u64>) {
        let wf = sched.wait_for();
        for cycle in wf.cycles {
            let cycle = cycle
                .iter()
                .map(|e| PlanWaitEdge {
                    rank: e.from_rank,
                    on: e.on_rank.expect("cycle edges are specific"),
                    tag: e.tag,
                })
                .collect();
            self.push_finding(PlanFinding::DeadlockCycle { cycle });
        }
        for e in wf.stranded {
            let (r, tag) = (e.from_rank, e.tag);
            self.push_finding(PlanFinding::UnmatchedRecv {
                rank: r,
                from: e.on_rank,
                tag,
            });
            let Some(s) = e.on_rank else { continue };
            let mut available: Vec<u64> = Vec::new();
            for env in sched.inbox(r).iter().filter(|env| env.src == s) {
                if !available.contains(&env.tag) {
                    available.push(env.tag);
                }
                if available.len() >= 4 {
                    break;
                }
            }
            if !available.is_empty() {
                self.push_finding(PlanFinding::TagMismatch {
                    receiver: r,
                    sender: s,
                    wanted: tag,
                    available,
                });
            }
        }
    }

    /// Leftover never-received messages, aggregated per `(src, dst, tag)`,
    /// in `(src, dst)` order and each channel's first-arrival tag order.
    fn report_leftovers(&mut self, sched: &Schedule<u64>) {
        let mut left: Vec<(usize, usize, u64, u64)> = Vec::new(); // (src, dst, tag, bytes)
        for dst in 0..self.ranks.len() {
            left.extend(sched.inbox(dst).iter().map(|e| (e.src, dst, e.tag, e.body)));
        }
        // Stable: each channel keeps its arrival order.
        left.sort_by_key(|&(src, dst, ..)| (src, dst));
        for chan in left.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let mut seen: Vec<(u64, u64, u64)> = Vec::new(); // (tag, bytes, count)
            for &(_, _, tag, bytes) in chan {
                if let Some(e) = seen.iter_mut().find(|e| e.0 == tag) {
                    e.2 += 1;
                } else {
                    seen.push((tag, bytes, 1));
                }
            }
            for (tag, bytes, count) in seen {
                self.push_finding(PlanFinding::UnmatchedSend {
                    src: chan[0].0,
                    dst: chan[0].1,
                    tag,
                    bytes,
                    count,
                });
            }
        }
    }
}

/// Statically analyze `plan` at world size `p`: shape, matching, deadlock
/// and cost accounting in one pass, without executing anything.
///
/// # Panics
/// Panics when `p == 0`.
#[must_use]
pub fn analyze_plan(plan: &CommPlan, p: usize) -> PlanAnalysis {
    assert!(p >= 1, "need at least one rank");
    // Fold the `p`-only subtrees once instead of on every rank's every
    // step; the specialized plan streams identically at this `p`.
    let plan = &plan.specialize(p);
    let (heads, folds): (Vec<&Op>, Vec<FoldLoop>) = foldable_loops(plan)
        .into_iter()
        .filter_map(|l| {
            let fold = FoldLoop {
                trips: l.trips,
                exp: charge_exponent(l.body)?,
                parking: true,
                entry: None,
            };
            Some((l.op, fold))
        })
        .unzip();
    let mut checker = Checker {
        ranks: (0..p)
            .map(|r| Rank {
                cursor: TimedCursor::with_heads(plan, p, r, &heads, !plan.has_wildcard()),
                cost: RankCost::default(),
                colls: [CollStats::default(); COLL_KINDS],
                open: None,
                emitted: 0,
                first_wildcard_op: None,
            })
            .collect(),
        findings: Vec::new(),
        findings_truncated: false,
        faults: (!plan.has_wildcard()).then(Vec::new),
        folds,
        folded_iterations: 0,
    };
    let sched = Schedule::run(p, &mut checker);
    // The schedule's order, parking included, is not part of the answer.
    let mut faults = checker.faults.take().unwrap_or_default();
    faults.sort_by_key(|&(rank, _)| rank);
    for (rank, issue) in faults {
        checker.push_finding(PlanFinding::Shape { rank, issue });
    }
    if (0..p).any(|r| sched.wait(r).is_some()) {
        checker.report_wait_for(&sched);
    } else {
        checker.report_leftovers(&sched);
    }

    let mut total = RankCost::default();
    let mut colls = [CollStats::default(); COLL_KINDS];
    let mut per_rank = Vec::with_capacity(p);
    let mut exact = true;
    let mut first_inexact = None;
    for (rank, c) in checker.ranks.iter_mut().enumerate() {
        if sched.wait(rank).is_some() {
            c.charge_rest_of_call();
        }
        total.absorb(&c.cost);
        for (t, s) in colls.iter_mut().zip(&c.colls) {
            t.calls += s.calls;
            t.messages += s.messages;
            t.bytes += s.bytes;
        }
        per_rank.push(c.cost);
        // Any wildcard the rank emitted — matched, or left blocked on —
        // makes the verdict conservative beyond two ranks.
        if let Some(op_index) = c.first_wildcard_op.filter(|_| p > 2) {
            exact = false;
            first_inexact.get_or_insert(InexactWitness { rank, op_index });
        }
    }

    PlanAnalysis {
        p,
        findings: checker.findings,
        findings_truncated: checker.findings_truncated,
        exact,
        first_inexact,
        completed: sched.completed(),
        steps: sched.steps,
        folded_iterations: checker.folded_iterations,
        total,
        colls,
        per_rank,
    }
}

/// A loop whose later iterations the checker may add instead of
/// interpreting, and its state in one analysis.
struct FoldLoop {
    /// The constant trip count, at least 2.
    trips: u64,
    /// Every charge in the body is a multiple of `2^-exp`.
    exp: i32,
    /// Whether ranks still park at its heads.
    parking: bool,
    /// The repeat cut at the head of iteration 0 of the running instance.
    entry: Option<Cut>,
}

/// The state at a repeat cut: O(p).
struct Cut {
    /// The loop variables, this loop's iteration last.
    vars: Vec<i64>,
    /// [`Schedule::steps`].
    steps: u64,
    ranks: Vec<Tally>,
}

/// One rank's counters: what an iteration adds to and a fold multiplies.
#[derive(Clone, Copy)]
struct Tally {
    cost: RankCost,
    colls: [CollStats; COLL_KINDS],
    emitted: u64,
    tags_taken: u64,
    coll_seq: u64,
}

impl Tally {
    /// `self` after `m` more iterations that each add what the one from
    /// `start` to `self` did, when that is exact.
    fn repeat(&self, start: &Tally, m: u64, exp: i32) -> Option<Tally> {
        let count = |a: u64, b: u64| repeat_count(a, b, m);
        let sum = |a: f64, b: f64| repeat_sum(a, b, m, exp);
        let (c0, c1) = (&start.cost, &self.cost);
        let mut colls = self.colls;
        for (c, s0) in colls.iter_mut().zip(&start.colls) {
            *c = CollStats {
                calls: count(s0.calls, c.calls)?,
                messages: count(s0.messages, c.messages)?,
                bytes: count(s0.bytes, c.bytes)?,
            };
        }
        Some(Tally {
            cost: RankCost {
                wc: sum(c0.wc, c1.wc)?,
                mem_accesses: sum(c0.mem_accesses, c1.mem_accesses)?,
                messages: count(c0.messages, c1.messages)?,
                bytes: count(c0.bytes, c1.bytes)?,
                phases: count(c0.phases, c1.phases)?,
            },
            colls,
            emitted: count(start.emitted, self.emitted)?,
            tags_taken: count(start.tags_taken, self.tags_taken)?,
            coll_seq: count(start.coll_seq, self.coll_seq)?,
        })
    }
}

/// `now + m·(now − start)` for a counter that went from `start` to `now`
/// in one iteration; `None` on overflow.
fn repeat_count(start: u64, now: u64, m: u64) -> Option<u64> {
    now.checked_sub(start)?.checked_mul(m)?.checked_add(now)
}

/// [`repeat_count`] for a sum of non-negative charges that are multiples
/// of `2^-exp`: `None` unless `start` and `now` are such multiples and the
/// folded total stays below `2^(53 − exp)`. Then every partial sum of the
/// interpreted run is a multiple of `2^-exp` below that bound, so every
/// addition was exact, and so are this product and sum.
fn repeat_sum(start: f64, now: f64, m: u64, exp: i32) -> Option<f64> {
    const EXACT: i64 = 1 << f64::MANTISSA_DIGITS;
    let unit = 2f64.powi(exp);
    #[allow(clippy::cast_possible_truncation)]
    let units = |x: f64| {
        let y = x * unit;
        (y.fract() == 0.0 && y.abs() < EXACT as f64).then_some(y as i64)
    };
    let (a, b) = (units(start)?, units(now)?);
    let step = b.checked_sub(a).filter(|d| *d >= 0)?;
    let total = step.checked_mul(i64::try_from(m).ok()?)?.checked_add(b)?;
    #[allow(clippy::cast_precision_loss)]
    (total < EXACT).then(|| total as f64 / unit)
}

/// A loop of a specialized plan whose iterations after the first repeat
/// it with every tag relabelled one to one, as [`foldable_loops`] picks
/// them.
#[derive(Debug, Clone, Copy)]
pub struct FoldableLoop<'p> {
    /// The `Op::Loop` itself, for [`TimedCursor::with_heads`].
    pub op: &'p Op,
    /// Its body.
    pub body: &'p [Op],
    /// Its constant trip count, at least 2.
    pub trips: u64,
}

/// The loops of a specialized plan whose later iterations repeat the first
/// one, in plan order (an enclosing loop before the loops in its body).
/// None in a plan with a wildcard receive, where the matches depend on the
/// order. Otherwise a loop qualifies when its trip count is a constant of
/// at least 2; its body never reads the loop's own variable; and every
/// user tag in it is a constant or an `Auto`/`Last` counter tag, each
/// distinct counter range lies below [`USER_TAG_LIMIT`] and is disjoint
/// from the others and from the constant tags. Then, when every rank
/// draws the same number of tags and collective sequence numbers in one
/// iteration, each later iteration matches its messages as the first did.
///
/// [`analyze_plan`] folds those whose charge scales are also finite and
/// non-negative (it multiplies the sums); the simrt engine, which replays
/// an iteration instead, folds them all.
#[must_use]
pub fn foldable_loops(plan: &CommPlan) -> Vec<FoldableLoop<'_>> {
    fn walk<'p>(ops: &'p [Op], out: &mut Vec<FoldableLoop<'p>>) {
        for op in ops {
            match op {
                Op::Loop { count, body } => {
                    if let (Expr::Const(trips @ 2..), false, true) =
                        (count, reads_var(body, 0), tags_relabel(body))
                    {
                        out.push(FoldableLoop {
                            op,
                            body,
                            trips: trips.unsigned_abs(),
                        });
                    }
                    walk(body, out);
                }
                Op::IfElse { then, els, .. } => {
                    walk(then, out);
                    walk(els, out);
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    if !plan.has_wildcard() {
        walk(&plan.body, &mut out);
    }
    out
}

/// Whether `ops`, nested `depth` loops deep in a loop's body, read that
/// loop's variable.
fn reads_var(ops: &[Op], depth: usize) -> bool {
    let tag = |t: &TagExpr| matches!(t, TagExpr::Expr(e) if e.reads_var(depth));
    let any = |es: &[&Expr]| es.iter().any(|e| e.reads_var(depth));
    ops.iter().any(|op| match op {
        Op::Compute { units, .. } => any(&[units]),
        Op::MemStream { elems: n, ws, .. }
        | Op::MemAccess {
            accesses: n, ws, ..
        } => any(&[n, ws]),
        Op::Phase(_) | Op::BumpTag | Op::Barrier => false,
        Op::Send {
            to: peer,
            tag: t,
            bytes,
        }
        | Op::Exchange {
            partner: peer,
            tag: t,
            bytes,
        } => any(&[peer, bytes]) || tag(t),
        Op::Recv { from, tag: t } => any(&[from]) || tag(t),
        Op::RecvAny { tag: t } => tag(t),
        Op::Loop { count, body } => any(&[count]) || reads_var(body, depth + 1),
        Op::IfElse { cond, then, els } => {
            cond.reads_var(depth) || reads_var(then, depth) || reads_var(els, depth)
        }
        Op::Bcast { root, bytes } => any(&[root, bytes]),
        Op::Reduce { root, elems, .. } => any(&[root, elems]),
        Op::AllReduce { elems: n, .. } | Op::AllGather { bytes: n } | Op::AllToAll { bytes: n } => {
            any(&[n])
        }
    })
}

/// Whether shifting every rank's tag counter by the same amount maps the
/// user tags of `body` one to one onto themselves: see [`foldable_loops`].
fn tags_relabel(body: &[Op]) -> bool {
    fn collect(ops: &[Op], fixed: &mut Vec<u64>, ranges: &mut Vec<(u64, u64)>) -> bool {
        ops.iter().all(|op| match op {
            Op::Send { tag, .. }
            | Op::Recv { tag, .. }
            | Op::RecvAny { tag }
            | Op::Exchange { tag, .. } => match tag {
                TagExpr::Expr(Expr::Const(t)) => u64::try_from(*t).map(|t| fixed.push(t)).is_ok(),
                TagExpr::Expr(_) => false,
                TagExpr::Auto { base, modulo } | TagExpr::Last { base, modulo } => base
                    .checked_add(*modulo)
                    .map(|end| ranges.push((*base, end)))
                    .is_some(),
            },
            Op::Loop { body, .. } => collect(body, fixed, ranges),
            Op::IfElse { then, els, .. } => {
                collect(then, fixed, ranges) && collect(els, fixed, ranges)
            }
            _ => true,
        })
    }
    let (mut fixed, mut ranges) = (Vec::new(), Vec::new());
    if !collect(body, &mut fixed, &mut ranges) {
        return false;
    }
    ranges.sort_unstable();
    ranges.dedup();
    ranges
        .iter()
        .all(|&(lo, hi)| hi <= USER_TAG_LIMIT && !fixed.iter().any(|t| (lo..hi).contains(t)))
        && ranges.windows(2).all(|w| w[0].1 <= w[1].0)
}

/// The least `k` with every charge of `ops` a multiple of `2^-k`, from the
/// charge scales (a stream's touches are charged divided by 8); `None`
/// when a scale is negative or not finite, or `2^k` is not a finite `f64`.
fn charge_exponent(ops: &[Op]) -> Option<i32> {
    ops.iter().try_fold(0, |k, op| {
        let op_k = match op {
            Op::Compute { scale, .. } | Op::MemAccess { scale, .. } => dyadic_exponent(*scale)?,
            Op::MemStream { scale, .. } => dyadic_exponent(*scale)? + 3,
            Op::Loop { body, .. } => charge_exponent(body)?,
            Op::IfElse { then, els, .. } => charge_exponent(then)?.max(charge_exponent(els)?),
            _ => 0,
        };
        Some(k.max(op_k)).filter(|&k| k < f64::MAX_EXP)
    })
}

/// The least `k ≥ 0` with `x · 2^k` an integer, for finite `x ≥ 0`.
fn dyadic_exponent(x: f64) -> Option<i32> {
    if !(x.is_finite() && x >= 0.0) {
        return None;
    }
    if x == 0.0 {
        return Some(0);
    }
    // x = mantissa · 2^(exponent − 1075), with the implicit bit for
    // normal numbers.
    let bits = x.to_bits();
    let exponent = i32::try_from(bits >> 52).expect("sign bit clear");
    let fraction = bits & ((1 << 52) - 1);
    let (mantissa, e) = if exponent == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, exponent - 1075)
    };
    let e = e + i32::try_from(mantissa.trailing_zeros()).expect("small");
    Some((-e).max(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Cond, Expr};
    use crate::ir::{Op, TagExpr};

    fn tag(t: i64) -> TagExpr {
        TagExpr::Expr(Expr::Const(t))
    }

    /// Ops executed only by `rank`.
    fn on(rank: i64, ops: Vec<Op>) -> Op {
        Op::IfElse {
            cond: Cond::Eq(Expr::Rank, Expr::Const(rank)),
            then: ops,
            els: vec![],
        }
    }

    #[test]
    fn clean_ring_certifies_at_many_sizes() {
        // Every rank sends right, receives from left.
        let plan = CommPlan::new(
            "ring",
            vec![
                Op::Send {
                    to: (Expr::Rank + Expr::Const(1)) % Expr::P,
                    tag: tag(1),
                    bytes: Expr::Const(64),
                },
                Op::Recv {
                    from: (Expr::Rank + Expr::P - Expr::Const(1)) % Expr::P,
                    tag: tag(1),
                },
            ],
        );
        for p in [2usize, 3, 5, 16, 64] {
            let a = analyze_plan(&plan, p);
            assert!(a.deadlock_free(), "p={p}: {:?}", a.findings);
            assert!(a.clean(), "p={p}");
            assert_eq!(a.total.messages, p as u64);
            assert_eq!(a.total.bytes, 64 * p as u64);
        }
    }

    #[test]
    fn cyclic_recv_before_send_deadlocks_with_cycle_witness() {
        // Two ranks both receive before sending: classic circular wait.
        let plan = CommPlan::new(
            "cycle",
            vec![
                Op::Recv {
                    from: Expr::Const(1) - Expr::Rank,
                    tag: tag(7),
                },
                Op::Send {
                    to: Expr::Const(1) - Expr::Rank,
                    tag: tag(7),
                    bytes: Expr::Const(8),
                },
            ],
        );
        let a = analyze_plan(&plan, 2);
        assert!(!a.deadlock_free());
        assert!(!a.completed);
        let cycle = a.findings.iter().find_map(|f| match f {
            PlanFinding::DeadlockCycle { cycle } => Some(cycle),
            _ => None,
        });
        let cycle = cycle.expect("cycle witness");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.iter().all(|e| e.tag == 7));
    }

    #[test]
    fn missing_sender_reports_unmatched_recv() {
        let plan = CommPlan::new(
            "norecv",
            vec![on(
                0,
                vec![Op::Recv {
                    from: Expr::Const(1),
                    tag: tag(3),
                }],
            )],
        );
        let a = analyze_plan(&plan, 2);
        assert!(!a.deadlock_free());
        assert!(a.findings.contains(&PlanFinding::UnmatchedRecv {
            rank: 0,
            from: Some(1),
            tag: 3
        }));
    }

    #[test]
    fn wrong_tag_reports_mismatch_evidence() {
        let plan = CommPlan::new(
            "wrongtag",
            vec![
                on(
                    1,
                    vec![Op::Send {
                        to: Expr::Const(0),
                        tag: tag(5),
                        bytes: Expr::Const(16),
                    }],
                ),
                on(
                    0,
                    vec![Op::Recv {
                        from: Expr::Const(1),
                        tag: tag(6),
                    }],
                ),
            ],
        );
        let a = analyze_plan(&plan, 2);
        assert!(a.findings.iter().any(|f| matches!(
            f,
            PlanFinding::TagMismatch {
                receiver: 0,
                sender: 1,
                wanted: 6,
                ..
            }
        )));
    }

    #[test]
    fn extra_send_reports_unmatched_send_but_still_completes() {
        let plan = CommPlan::new(
            "extra",
            vec![on(
                0,
                vec![Op::Send {
                    to: Expr::Const(1),
                    tag: tag(9),
                    bytes: Expr::Const(32),
                }],
            )],
        );
        let a = analyze_plan(&plan, 2);
        assert!(a.completed);
        assert!(!a.clean());
        assert!(a.deadlock_free(), "leftover sends do not deadlock");
        assert!(a.findings.contains(&PlanFinding::UnmatchedSend {
            src: 0,
            dst: 1,
            tag: 9,
            bytes: 32,
            count: 1
        }));
    }

    #[test]
    fn tag_skipping_matches_out_of_order_sends() {
        // Rank 1 sends tags 1 then 2; rank 0 receives 2 then 1.
        let plan = CommPlan::new(
            "skip",
            vec![
                on(
                    1,
                    vec![
                        Op::Send {
                            to: Expr::Const(0),
                            tag: tag(1),
                            bytes: Expr::Const(8),
                        },
                        Op::Send {
                            to: Expr::Const(0),
                            tag: tag(2),
                            bytes: Expr::Const(8),
                        },
                    ],
                ),
                on(
                    0,
                    vec![
                        Op::Recv {
                            from: Expr::Const(1),
                            tag: tag(2),
                        },
                        Op::Recv {
                            from: Expr::Const(1),
                            tag: tag(1),
                        },
                    ],
                ),
            ],
        );
        let a = analyze_plan(&plan, 2);
        assert!(a.clean(), "{:?}", a.findings);
    }

    #[test]
    fn wildcard_is_exact_at_p2_conservative_at_p3() {
        let body = vec![
            on(
                1,
                vec![Op::Send {
                    to: Expr::Const(0),
                    tag: tag(4),
                    bytes: Expr::Const(8),
                }],
            ),
            on(0, vec![Op::RecvAny { tag: tag(4) }]),
        ];
        let a2 = analyze_plan(&CommPlan::new("w", body.clone()), 2);
        assert!(a2.exact && a2.deadlock_free(), "{:?}", a2.findings);
        assert_eq!(a2.first_inexact, None);
        let a3 = analyze_plan(&CommPlan::new("w", body), 3);
        assert!(!a3.exact);
        assert!(!a3.deadlock_free(), "conservative verdicts never certify");
        assert!(a3.completed);
        // The conservative verdict names the first non-exact op: rank 0's
        // wildcard is its first (and only) comm op.
        let w = a3.first_inexact.expect("witness for inexact verdict");
        assert_eq!((w.rank, w.op_index), (0, 0));
        assert_eq!(w.to_string(), "rank 0, op 0");
    }

    #[test]
    fn wildcard_race_is_flagged() {
        let plan = CommPlan::new(
            "race",
            vec![
                on(
                    1,
                    vec![Op::Send {
                        to: Expr::Const(0),
                        tag: tag(4),
                        bytes: Expr::Const(8),
                    }],
                ),
                on(
                    2,
                    vec![Op::Send {
                        to: Expr::Const(0),
                        tag: tag(4),
                        bytes: Expr::Const(8),
                    }],
                ),
                Op::Barrier,
                on(
                    0,
                    vec![Op::RecvAny { tag: tag(4) }, Op::RecvAny { tag: tag(4) }],
                ),
            ],
        );
        let a = analyze_plan(&plan, 3);
        assert!(!a.exact);
        assert!(a.completed, "{:?}", a.findings);
        assert!(a
            .findings
            .iter()
            .any(|f| matches!(f, PlanFinding::WildcardChoice { rank: 0, .. })));
        // Rank 0 emits 4 barrier ops (2 dissemination rounds) before its
        // first wildcard.
        assert_eq!(
            a.first_inexact,
            Some(InexactWitness {
                rank: 0,
                op_index: 4
            })
        );
    }

    #[test]
    fn collectives_complete_cleanly_across_sizes() {
        let plan = CommPlan::new(
            "colls",
            vec![
                Op::Barrier,
                Op::Bcast {
                    root: Expr::Const(0),
                    bytes: Expr::Const(128),
                },
                Op::Reduce {
                    root: Expr::Const(0),
                    elems: Expr::Const(4),
                    op: mps::ReduceOp::Sum,
                },
                Op::AllReduce {
                    elems: Expr::Const(2),
                    op: mps::ReduceOp::Max,
                },
                Op::AllGather {
                    bytes: Expr::Peer + Expr::Const(1),
                },
                Op::AllToAll {
                    bytes: Expr::Const(16),
                },
            ],
        );
        for p in [1usize, 2, 3, 4, 5, 8, 12, 16] {
            let a = analyze_plan(&plan, p);
            assert!(a.clean(), "p={p}: {:?}", a.findings);
            assert!(a.deadlock_free());
            // Every collective family called once per rank.
            for s in &a.colls {
                assert_eq!(s.calls, p as u64);
            }
            if p > 1 {
                // alltoall: p(p-1) messages of 16 bytes.
                let a2a = a.colls[crate::CollKind::AllToAll.index()];
                assert_eq!(a2a.messages, (p * (p - 1)) as u64);
                assert_eq!(a2a.bytes, (16 * p * (p - 1)) as u64);
            }
        }
    }

    #[test]
    fn shape_error_surfaces_and_blocks_certification() {
        let plan = CommPlan::new(
            "bad",
            vec![Op::Send {
                to: Expr::P, // out of range on every rank
                tag: tag(0),
                bytes: Expr::Const(1),
            }],
        );
        let a = analyze_plan(&plan, 3);
        assert!(!a.deadlock_free());
        assert!(!a.completed);
        assert!(a
            .findings
            .iter()
            .any(|f| matches!(f, PlanFinding::Shape { .. })));
    }

    #[test]
    fn alltoall_size_fault_surfaces_at_the_failing_exchange() {
        // Only rank 0's chunk for peer 3 fails (8 / (0 + 3 - 3)). XOR
        // pairing at p = 4 gives rank 0 the partners 1, 2, 3 in order.
        let plan = CommPlan::new(
            "a2a-fault",
            vec![Op::AllToAll {
                bytes: Expr::Const(8) / (Expr::Rank + Expr::Const(3) - Expr::Peer),
            }],
        );
        let a = analyze_plan(&plan, 4);
        assert!(!a.deadlock_free());
        // Rank 0 completes its exchanges with ranks 1 and 2 first, so they
        // finish; only rank 3, whose partner it is last, waits forever.
        assert_eq!(
            a.findings,
            vec![
                PlanFinding::Shape {
                    rank: 0,
                    issue: ShapeIssue::Eval(crate::EvalError::DivByZero),
                },
                PlanFinding::UnmatchedRecv {
                    rank: 3,
                    from: Some(0),
                    tag: mps::internal_tag(0, 3),
                },
            ]
        );
        assert_eq!(a.per_rank[0].messages, 2);
    }

    /// A folded loop draws its collective sequence numbers without
    /// interpreting them; the first collective past the last one with its
    /// own tags is still a shape error, not a panic.
    #[test]
    fn collective_past_the_tag_space_is_a_shape_error() {
        let last = mps::MAX_COLL_SEQ;
        let plan = CommPlan::new(
            "seq-overflow",
            vec![
                Op::Loop {
                    count: Expr::Const(i64::try_from(last + 1).unwrap()),
                    body: vec![Op::Barrier],
                },
                Op::Barrier,
            ],
        );
        let a = analyze_plan(&plan, 2);
        assert_eq!(a.folded_iterations, last);
        let overflow = ShapeIssue::CollSeqOverflow { seq: last + 1 };
        assert_eq!(
            a.findings,
            [0, 1].map(|rank| PlanFinding::Shape {
                rank,
                issue: overflow.clone(),
            })
        );
    }

    #[test]
    fn auto_tag_past_u64_is_a_shape_error() {
        // After one bump the Auto tag is u64::MAX + 1: it must not wrap
        // to a small, valid tag.
        let tag = TagExpr::Auto {
            base: u64::MAX,
            modulo: 4,
        };
        let plan = CommPlan::new(
            "tag-overflow",
            vec![
                Op::BumpTag,
                on(
                    0,
                    vec![Op::Send {
                        to: Expr::Const(1),
                        tag: tag.clone(),
                        bytes: Expr::Const(8),
                    }],
                ),
                on(
                    1,
                    vec![Op::Recv {
                        from: Expr::Const(0),
                        tag,
                    }],
                ),
            ],
        );
        let a = analyze_plan(&plan, 2);
        assert!(!a.deadlock_free());
        let overflow = ShapeIssue::TagTooLarge { tag: u64::MAX };
        assert_eq!(
            a.findings,
            [0, 1].map(|rank| PlanFinding::Shape {
                rank,
                issue: overflow.clone(),
            })
        );
    }

    #[test]
    fn certifies_large_worlds_quickly() {
        // A barrier + allreduce at p = 1024 stays well under the step
        // budget a full NPB plan needs, and must certify instantly.
        let plan = CommPlan::new(
            "big",
            vec![
                Op::Barrier,
                Op::AllReduce {
                    elems: Expr::Const(1),
                    op: mps::ReduceOp::Sum,
                },
            ],
        );
        let a = analyze_plan(&plan, 1024);
        assert!(a.deadlock_free(), "{:?}", a.findings);
        // Dissemination barrier: 10 rounds; allreduce: 10 doubling rounds.
        assert_eq!(a.total.messages, 1024 * 20);
    }
}
