//! Rank tasks: one simulated rank as a resumable state machine.
//!
//! A [`RankTask`] couples an [`mps::RankCore`] (the execution-agnostic
//! accounting state shared with the thread runtime) with a
//! [`plan::TimedCursor`] (the rank's resumable program counter over the
//! plan). The engine runs it on the [`plan::Schedule`], which decides when
//! the rank runs and which envelope each receive matches; the task only
//! charges: [`RankTask::next_message`] applies the rank's steps up to its
//! next message step, [`RankTask::send`] builds the [`Delivery`] a send
//! deposits, and [`RankTask::consume`] takes one.

use mps::{CollScope, CommEvent, CommLog, CommOp, RankCore, World};
use netsim::Hockney;
use plan::{CommPlan, Envelope, ShapeIssue, Step, TimedCursor};
use simcluster::units::Seconds;

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
    /// Sender's vector clock at the send; empty with detail off.
    pub(crate) vc: Vec<u64>,
}

/// One simulated rank of the event engine.
pub(crate) struct RankTask<'a> {
    pub(crate) core: RankCore<'a>,
    cursor: TimedCursor<'a>,
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
        detail: bool,
    ) -> Self {
        Self {
            core: RankCore::new(rank, p, world, detail),
            cursor: TimedCursor::new(plan, p, rank),
            scopes: Vec::new(),
            vclock: if detail { vec![0; p] } else { Vec::new() },
            comm: CommLog::new(rank),
            detail,
        }
    }

    /// Apply the rank's steps up to its next message step (`Send`, `Recv`
    /// or `RecvAny`) and return it, adding the steps applied to `steps`;
    /// `Ok(None)` once the plan is exhausted.
    ///
    /// # Errors
    /// The plan shape violation that stops the rank.
    #[inline]
    pub(crate) fn next_message(&mut self, steps: &mut u64) -> Result<Option<Step<'a>>, ShapeIssue> {
        loop {
            let Some(step) = self.cursor.next_step()? else {
                assert!(
                    self.scopes.is_empty(),
                    "rank {} finished inside a collective scope",
                    self.core.rank()
                );
                return Ok(None);
            };
            match step {
                Step::Compute { instr } => self.core.compute(instr),
                Step::MemStream { touches, ws } => self.core.mem_stream(touches, ws),
                Step::MemAccess { accesses, ws } => self.core.mem_access(accesses, ws),
                Step::Phase(name) => self.core.phase(name),
                Step::CollBegin(kind) => {
                    let scope = self.core.collective_begin(kind.scope_name());
                    self.scopes.push(scope);
                }
                Step::CollEnd => {
                    let scope = self
                        .scopes
                        .pop()
                        .expect("CollEnd without a matching CollBegin");
                    self.core.collective_end(scope);
                }
                Step::Send { .. } | Step::Recv { .. } | Step::RecvAny { .. } => {
                    return Ok(Some(step))
                }
                Step::LoopHead(_) => unreachable!("the engine's cursors yield no loop heads"),
            }
            *steps += 1;
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
    ) -> Delivery {
        let link = if self.scopes.is_empty() { pair } else { all };
        let rank = self.core.rank();
        let t_net = Seconds::new(link.p2p(bytes));
        let arrival = self.core.account_send(bytes, t_net);
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
            self.vclock.clone()
        } else {
            Vec::new()
        };
        Delivery {
            arrival_s: arrival.raw(),
            bytes,
            vc,
        }
    }

    /// Consume a received envelope: advance to its arrival, log the wait,
    /// merge vector clocks, record the receive event.
    pub(crate) fn consume(&mut self, env: Envelope<Delivery>) {
        let waited = self.core.account_recv(env.body.arrival_s);
        if self.detail {
            for (mine, theirs) in self.vclock.iter_mut().zip(&env.body.vc) {
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
