//! Rank tasks: one simulated rank as a resumable state machine.
//!
//! A [`RankTask`] couples an [`mps::RankCore`] (the execution-agnostic
//! accounting state shared with the thread runtime) with a
//! [`plan::TimedCursor`] (the rank's resumable program counter over the
//! plan). [`RankTask::advance`] runs the rank until it blocks on a receive
//! with no matching envelope buffered, or until its plan is exhausted —
//! the engine then parks it and resumes it when a matching message is
//! deposited.
//!
//! ## Why one inbox per task
//!
//! The thread runtime keeps one channel per ordered rank pair — `p²`
//! channels, fine at `p ≤` a few hundred, fatal at `p = 4096` (16.7M
//! `VecDeque`s). A task instead holds one [`plan::Inbox`], the matching
//! core it shares with `plan::analyze_plan`: arrival-ordered, matched by
//! `(src, tag)`. Because deposits preserve each sender's program order,
//! that match is exactly the per-source-FIFO-with-tag-skip match the
//! thread runtime performs, so the two transports consume identical
//! message sequences. A wildcard `recv_any` takes the oldest envelope with
//! its tag (the core's arrival-order rule). Memory is O(envelopes in
//! flight), bounded by ~`p` for the NPB collectives.

use mps::{CollScope, CommEvent, CommLog, CommOp, RankCore, World};
use netsim::Hockney;
use plan::{CommPlan, Envelope, Inbox, Step, TimedCursor};
use simcluster::units::Seconds;

/// A message in flight between two rank tasks. The engine analogue of the
/// thread runtime's envelope, minus the payload box: plans describe byte
/// volumes, not values, so only the accounting fields travel.
pub(crate) type SimEnvelope = Envelope<Delivery>;

/// The accounting fields a [`SimEnvelope`] carries besides source and tag.
#[derive(Debug, Clone)]
pub(crate) struct Delivery {
    /// Virtual arrival time: send start + full Hockney link time.
    pub(crate) arrival_s: f64,
    /// Payload bytes.
    pub(crate) bytes: u64,
    /// Sender's vector clock at the send; empty with detail off.
    pub(crate) vc: Vec<u64>,
}

/// The contention-adjusted link models of one run, computed once instead
/// of on every send. A plan's sends run at concurrency 2 (point-to-point)
/// or `p` (inside collectives); [`netsim::ContentionModel::effective`] is
/// pure, so each cached model is the same value a per-send call returns.
pub(crate) struct Links {
    pair: Hockney,
    all: Hockney,
}

impl Links {
    pub(crate) fn new(world: &World, p: usize) -> Self {
        let base = world.hockney();
        Self {
            pair: world.contention.effective(&base, 2),
            all: world.contention.effective(&base, p),
        }
    }
}

/// Why a task is not currently runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Blocked {
    /// Runnable (or currently running).
    No,
    /// Parked on `recv(from, tag)` with no match buffered.
    On {
        /// Awaited source rank.
        from: usize,
        /// Awaited tag.
        tag: u64,
    },
    /// Parked on a wildcard `recv_any(tag)`.
    Any {
        /// Awaited tag.
        tag: u64,
    },
    /// The rank's plan is exhausted.
    Done,
}

/// How one resume slice ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Paused {
    /// Parked on a receive; resumable once a matching envelope arrives.
    Blocked,
    /// The plan is exhausted; the task will never run again.
    Finished,
}

/// One simulated rank of the event engine.
pub(crate) struct RankTask<'a> {
    pub(crate) core: RankCore<'a>,
    cursor: TimedCursor<'a>,
    /// Envelopes delivered and not yet received.
    pub(crate) inbox: Inbox<Delivery>,
    pub(crate) blocked: Blocked,
    /// The step whose effect could not complete (a blocked receive),
    /// re-executed first on resume.
    pending: Option<Step<'a>>,
    /// Open collective scopes, innermost last.
    scopes: Vec<CollScope>,
    vclock: Vec<u64>,
    pub(crate) comm: CommLog,
    /// Steps executed so far (engine stats).
    pub(crate) steps: u64,
    /// Sends executed so far (engine stats).
    pub(crate) sends: u64,
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
            inbox: Inbox::default(),
            blocked: Blocked::No,
            pending: None,
            scopes: Vec::new(),
            vclock: if detail { vec![0; p] } else { Vec::new() },
            comm: CommLog::new(rank),
            steps: 0,
            sends: 0,
            detail,
        }
    }

    pub(crate) fn rank(&self) -> usize {
        self.core.rank()
    }

    pub(crate) fn done(&self) -> bool {
        matches!(self.blocked, Blocked::Done)
    }

    /// Would depositing `env` unblock this task?
    pub(crate) fn wants(&self, env: &SimEnvelope) -> bool {
        match self.blocked {
            Blocked::On { from, tag } => env.src == from && env.tag == tag,
            Blocked::Any { tag } => env.tag == tag,
            Blocked::No | Blocked::Done => false,
        }
    }

    /// Run the rank until it blocks or finishes. Work charges go straight
    /// into the core; sends are buffered into `outbox` as `(dst,
    /// envelope)` for the engine to deposit.
    ///
    /// # Panics
    /// On a plan shape violation, naming the rank and the issue: run
    /// `plan::analyze_plan` first.
    pub(crate) fn advance(
        &mut self,
        links: &Links,
        outbox: &mut Vec<(usize, SimEnvelope)>,
    ) -> Paused {
        loop {
            let step = match self.pending.take() {
                Some(s) => s,
                None => match self.cursor.next_step() {
                    Ok(Some(s)) => s,
                    Ok(None) => {
                        assert!(
                            self.scopes.is_empty(),
                            "rank {} finished inside a collective scope",
                            self.rank()
                        );
                        self.blocked = Blocked::Done;
                        return Paused::Finished;
                    }
                    Err(issue) => panic!(
                        "rank {}: plan shape violation: {issue} (run `plan::analyze_plan` first)",
                        self.rank()
                    ),
                },
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
                Step::Send { to, tag, bytes } => {
                    // Collective messages contend with all `p` ranks.
                    let link = if self.scopes.is_empty() {
                        &links.pair
                    } else {
                        &links.all
                    };
                    outbox.push((to, self.execute_send(link, to, tag, bytes)));
                }
                Step::Recv { from, tag } => match self.inbox.take(from, tag) {
                    Some(env) => self.consume(env),
                    None => {
                        self.blocked = Blocked::On { from, tag };
                        self.pending = Some(step);
                        return Paused::Blocked;
                    }
                },
                Step::RecvAny { tag } => match self.inbox.take_any(tag) {
                    Some(env) => self.consume(env),
                    None => {
                        self.blocked = Blocked::Any { tag };
                        self.pending = Some(step);
                        return Paused::Blocked;
                    }
                },
            }
            self.steps += 1;
        }
    }

    /// The effect of one send over `link`: the same accounting sequence as
    /// `mps::Ctx::send_raw`, returning the envelope for the engine to
    /// deposit.
    fn execute_send(&mut self, link: &Hockney, to: usize, tag: u64, bytes: u64) -> SimEnvelope {
        let rank = self.rank();
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
        self.sends += 1;
        SimEnvelope {
            src: rank,
            tag,
            body: Delivery {
                arrival_s: arrival.raw(),
                bytes,
                vc,
            },
        }
    }

    /// Consume an envelope taken from the inbox: advance to its arrival,
    /// log the wait, merge vector clocks, record the receive event.
    fn consume(&mut self, env: SimEnvelope) {
        let waited = self.core.account_recv(env.body.arrival_s);
        if self.detail {
            for (mine, theirs) in self.vclock.iter_mut().zip(&env.body.vc) {
                *mine = (*mine).max(*theirs);
            }
            let rank = self.rank();
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

    /// Fold everything still buffered into the trace's `unconsumed` list
    /// (deadlock teardown; the analyzer infers tag mismatches from it).
    pub(crate) fn drain_unconsumed(&mut self) {
        let left = self.inbox.drain().map(|e| (e.src, e.tag, e.body.bytes));
        self.comm.unconsumed.extend(left);
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
