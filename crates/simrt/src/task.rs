//! Rank tasks: one simulated rank as a resumable state machine.
//!
//! A [`RankTask`] couples an [`mps::RankCore`] (the execution-agnostic
//! accounting state shared with the thread runtime) with a
//! [`plan::TimedCursor`] (the rank's resumable program counter over the
//! plan). The engine runs it on the [`plan::Schedule`], which decides when
//! the rank runs and which envelope each receive matches; the task only
//! charges: [`RankTask::next_message`] applies the rank's steps up to its
//! next message step, [`RankTask::send`] builds the [`Delivery`] a send
//! deposits, and [`RankTask::consume`] takes one. While the engine records
//! a loop iteration, each also writes its accounting calls to the
//! [`Tape`], and tells it where an all-gather or all-to-all begins and
//! ends (their messages stay off the tape).

use mps::{Charge, CollScope, CommEvent, CommLog, CommOp, RankCore, World};
use netsim::Hockney;
use plan::{CommPlan, Envelope, Op, ShapeIssue, Step, TimedCursor};
use simcluster::units::Seconds;

use crate::fold::Tape;

/// What an envelope between two rank tasks carries besides source and
/// tag. The engine analogue of the thread runtime's envelope, minus the
/// payload box: plans describe byte volumes, not values, so only the
/// accounting fields travel.
#[derive(Debug, Clone)]
pub(crate) struct Delivery {
    /// Virtual arrival time: send start + full Hockney link time.
    pub(crate) arrival_s: f64,
    /// Payload bytes.
    pub(crate) bytes: u64,
    /// Sender's vector clock at the send; empty with detail off. Boxed,
    /// so that with `send` the body stays 40 bytes: all-to-all inboxes
    /// hold tens of thousands of them.
    pub(crate) vc: Box<[u64]>,
    /// The send's ordinal and segment on the tape being recorded, if one
    /// is (see [`Tape::send`]).
    pub(crate) send: (u32, u32),
}

/// One simulated rank of the event engine.
pub(crate) struct RankTask<'a> {
    pub(crate) core: RankCore<'a>,
    pub(crate) cursor: TimedCursor<'a>,
    /// Open collective scopes, innermost last.
    scopes: Vec<CollScope>,
    vclock: Vec<u64>,
    pub(crate) comm: CommLog,
    detail: bool,
}

impl<'a> RankTask<'a> {
    pub(crate) fn new(
        rank: usize,
        p: usize,
        world: &'a World,
        plan: &'a CommPlan,
        heads: &'a [&'a Op],
        colls: bool,
        detail: bool,
    ) -> Self {
        Self {
            core: RankCore::new(rank, p, world, detail),
            cursor: TimedCursor::with_heads(plan, p, rank, heads, colls),
            scopes: Vec::new(),
            vclock: if detail { vec![0; p] } else { Vec::new() },
            comm: CommLog::new(rank),
            detail,
        }
    }

    /// Apply the rank's steps up to its next message step (`Send`, `Recv`
    /// or `RecvAny`), loop head or collective head and return it, adding
    /// the steps applied to `steps`; `Ok(None)` once the plan is exhausted.
    ///
    /// # Errors
    /// The plan shape violation that stops the rank.
    #[inline]
    pub(crate) fn next_message(
        &mut self,
        steps: &mut u64,
        mut tape: Option<&mut Tape<'a>>,
    ) -> Result<Option<Step<'a>>, ShapeIssue> {
        loop {
            let Some(step) = self.cursor.next_step()? else {
                assert!(
                    self.scopes.is_empty(),
                    "rank {} finished inside a collective scope",
                    self.core.rank()
                );
                return Ok(None);
            };
            if let Step::Send { .. }
            | Step::Recv { .. }
            | Step::RecvAny { .. }
            | Step::LoopHead(_)
            | Step::CollHead = step
            {
                return Ok(Some(step));
            }
            self.local(step, tape.as_deref_mut());
            *steps += 1;
        }
    }

    /// Apply one step that is not a message step or a head, and
    /// record its accounting calls on `tape` if one is given. Out of line:
    /// most steps are messages, and the loop above stays small enough to
    /// inline into the schedule.
    #[inline(never)]
    fn local(&mut self, step: Step<'a>, mut tape: Option<&mut Tape<'a>>) {
        let rank = self.core.rank();
        let mut apply = |core: &mut RankCore<'a>, c: Charge| {
            core.apply(c);
            if let Some(tape) = tape.as_deref_mut() {
                tape.charge(rank, c);
            }
        };
        match step {
            Step::Compute { instr } => {
                if let Some(c) = self.core.compute_charge(instr) {
                    apply(&mut self.core, c);
                }
            }
            Step::MemStream { touches, ws } => {
                for c in self.core.mem_stream_charges(touches, ws) {
                    apply(&mut self.core, c);
                }
            }
            Step::MemAccess { accesses, ws } => {
                for c in self.core.mem_access_charges(accesses, ws) {
                    apply(&mut self.core, c);
                }
            }
            Step::Phase(name) => {
                self.core.phase(name);
                if let Some(tape) = tape {
                    tape.phase(rank, name);
                }
            }
            Step::CollBegin(kind) => {
                let scope = self.core.collective_begin(kind.scope_name());
                self.scopes.push(scope);
                if let (Some(tape), Some((bytes, vars))) = (tape, self.cursor.big_collective()) {
                    tape.enter(rank, kind, bytes, vars);
                }
            }
            Step::CollEnd => {
                let scope = self
                    .scopes
                    .pop()
                    .expect("CollEnd without a matching CollBegin");
                self.core.collective_end(scope);
                if let Some(tape) = tape {
                    tape.coll_end(rank);
                }
            }
            Step::Send { .. }
            | Step::Recv { .. }
            | Step::RecvAny { .. }
            | Step::LoopHead(_)
            | Step::CollHead => unreachable!("not a local step"),
        }
    }

    /// The effect of one send to `to`: the same accounting sequence as
    /// `mps::Ctx::send_raw`, returning the body to deposit. Collective
    /// messages go over `all` (contention among all `p` ranks), others
    /// over `pair`.
    pub(crate) fn send(
        &mut self,
        [pair, all]: &[Hockney; 2],
        to: usize,
        tag: u64,
        bytes: u64,
        tape: Option<&mut Tape<'a>>,
    ) -> Delivery {
        let link = if self.scopes.is_empty() { pair } else { all };
        let rank = self.core.rank();
        let t_net = Seconds::new(link.p2p(bytes));
        let arrival = self.core.account_send(bytes, t_net);
        let send = tape.map_or((0, 0), |tape| tape.send(rank, bytes, t_net));
        let vc = if self.detail {
            self.vclock[rank] += 1;
            self.comm.events.push(CommEvent {
                op: CommOp::Send { to },
                tag,
                bytes,
                time_s: self.core.now(),
                waited_s: 0.0,
                vc: self.vclock.clone(),
            });
            self.vclock.clone().into_boxed_slice()
        } else {
            Box::default()
        };
        Delivery {
            arrival_s: arrival.raw(),
            bytes,
            vc,
            send,
        }
    }

    /// Consume a received envelope: advance to its arrival, log the wait,
    /// merge vector clocks, record the receive event.
    pub(crate) fn consume(&mut self, env: Envelope<Delivery>, tape: Option<&mut Tape<'a>>) {
        let waited = self.core.account_recv(env.body.arrival_s);
        if let Some(tape) = tape {
            tape.recv(self.core.rank(), env.body.send);
        }
        if self.detail {
            for (mine, theirs) in self.vclock.iter_mut().zip(env.body.vc.iter()) {
                *mine = (*mine).max(*theirs);
            }
            let rank = self.core.rank();
            self.vclock[rank] += 1;
            self.comm.events.push(CommEvent {
                op: CommOp::Recv { from: env.src },
                tag: env.tag,
                bytes: env.body.bytes,
                time_s: self.core.now(),
                waited_s: waited.raw(),
                vc: self.vclock.clone(),
            });
        }
    }

    /// Seal the task into the report entry the thread runtime would have
    /// produced for this rank.
    pub(crate) fn into_outcome(self) -> mps::RankOutcome<()> {
        let RankTask { core, comm, .. } = self;
        let rank = core.rank();
        let fin = core.finish();
        mps::RankOutcome {
            rank,
            result: (),
            stats: fin.stats,
            log: fin.log,
            comm,
            finish_s: fin.finish_s,
            markers: fin.markers,
            track: fin.track,
        }
    }
}
