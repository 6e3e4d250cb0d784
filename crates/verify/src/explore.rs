//! The schedule-space explorer: stateless DFS with sleep-set partial-order
//! reduction over the interleavings of an [`mps`] world.
//!
//! ## How a schedule is driven
//!
//! Every rank parks in [`SchedulerHook::permit`] before each point-to-point
//! effect (collectives are built from the same primitives, so they park
//! too). The hook fully serializes the world: exactly one rank holds a
//! grant at any moment, and the next decision is taken only at
//! *quiescence* — every rank parked or finished. The hook mirrors the
//! runtime's channel state (per-`(src, dst)` FIFOs of in-flight tags, with
//! the runtime's tag-skipping match rule), so it can tell which parked
//! operations are *enabled*:
//!
//! * a send is always enabled (sends are eager);
//! * `recv(from, tag)` is enabled iff a matching tag is in flight on
//!   `(from, self)`;
//! * `recv_any(tag)` contributes one enabled choice per source with a
//!   matching tag in flight — the wildcard branch point.
//!
//! A grant is only issued for an enabled operation, so a granted rank
//! never blocks inside the runtime: each run is a deterministic function
//! of its choice sequence ([`Choice`] list), which is what makes witnesses
//! replayable.
//!
//! ## What is reported
//!
//! * **Deadlock** — at quiescence, unfinished ranks exist and nothing is
//!   enabled. The witness is the exact schedule into the deadlocked state.
//! * **Tag race** — a `recv_any` with two or more enabled sources for the
//!   same tag: the matched source (and thus the received payload) depends
//!   on the schedule.
//! * **Delivery-order nondeterminism** — two completed schedules whose
//!   per-rank delivery sequences differ; both witnesses are reported.
//!
//! ## Reduction
//!
//! DFS over choice points with *sleep sets* (Godefroot's dynamic POR
//! baseline): after exploring choice `t` at a state, `t` is added to the
//! sleep set of sibling subtrees and stays asleep until a dependent
//! operation executes. Two choices are dependent iff they are by the same
//! rank or touch the same channel `(src, dst)` — wildcard matches take
//! their *granted* source's channel, so the wildcard branch point itself
//! is never pruned.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mps::{Ctx, RunError, SchedGrant, SchedOp, SchedulerHook, World};

/// How long a parked rank waits for the controller before declaring the
/// channel model divergent. Generous: a healthy decision takes
/// microseconds.
const STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// One granted scheduling decision: `rank` performed `op`; for a wildcard
/// receive, `source` is the matched sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// The rank that was granted.
    pub rank: usize,
    /// The operation it was parked on.
    pub op: SchedOp,
    /// The granted source (wildcard receives only).
    pub source: Option<usize>,
}

impl Choice {
    /// The directed channel `(src, dst)` this choice acts on.
    fn channel(&self) -> (usize, usize) {
        match self.op {
            SchedOp::Send { to, .. } => (self.rank, to),
            SchedOp::Recv { from, .. } => (from, self.rank),
            SchedOp::RecvAny { .. } => (
                self.source.expect("granted wildcard carries its source"),
                self.rank,
            ),
        }
    }

    /// Sleep-set independence: different ranks, disjoint channels.
    fn independent(&self, other: &Self) -> bool {
        self.rank != other.rank && self.channel() != other.channel()
    }
}

impl std::fmt::Display for Choice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.source {
            Some(s) => write!(f, "rank {}: {} <- rank {s}", self.rank, self.op),
            None => write!(f, "rank {}: {}", self.rank, self.op),
        }
    }
}

/// A schedule: the choice sequence that reproduces one explored execution.
pub type Schedule = Vec<Choice>;

/// A bug class surfaced by exploration, with its replayable witness.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyFinding {
    /// Unfinished ranks with no enabled operation: the schedule in
    /// `witness` drives the world into this state.
    Deadlock {
        /// The parked-and-stuck operations, by rank.
        blocked: Vec<(usize, SchedOp)>,
        /// Schedule into the deadlocked state.
        witness: Schedule,
    },
    /// A wildcard receive whose match depends on the schedule.
    TagRace {
        /// The receiving rank.
        rank: usize,
        /// The racing tag.
        tag: u64,
        /// Sources simultaneously able to match.
        sources: Vec<usize>,
        /// Schedule into the racing state (the wildcard is the *next*
        /// decision after this prefix).
        witness: Schedule,
    },
    /// Two completed schedules delivered messages in different per-rank
    /// orders.
    DeliveryOrderNondet {
        /// The first rank whose delivery sequence differs.
        rank: usize,
        /// One complete schedule.
        witness_a: Schedule,
        /// A second complete schedule with a different delivery order.
        witness_b: Schedule,
    },
}

impl std::fmt::Display for VerifyFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Deadlock { blocked, witness } => {
                write!(f, "deadlock after {} steps:", witness.len())?;
                for (rank, op) in blocked {
                    write!(f, " [rank {rank} stuck on {op}]")?;
                }
                Ok(())
            }
            Self::TagRace {
                rank,
                tag,
                sources,
                witness,
            } => write!(
                f,
                "tag race: rank {rank} recv_any(tag {tag}) matches any of {sources:?} \
                 after {} steps",
                witness.len()
            ),
            Self::DeliveryOrderNondet { rank, .. } => {
                write!(
                    f,
                    "delivery-order nondeterminism first visible at rank {rank}"
                )
            }
        }
    }
}

/// What one directed execution did.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RunOutcome {
    /// All ranks finished.
    Terminal,
    /// Quiescent with unfinished ranks and nothing enabled.
    Deadlock {
        /// The stuck operations.
        blocked: Vec<(usize, SchedOp)>,
    },
    /// Step budget exhausted; the run was aborted.
    DepthExceeded,
    /// A directed prefix choice was not enabled at its state (replaying a
    /// schedule against a different program or world).
    Diverged {
        /// Index of the prefix choice that could not be granted.
        at: usize,
    },
}

/// One decision point of an execution: what was enabled, what was chosen.
#[derive(Debug, Clone)]
pub(crate) struct StepRecord {
    pub enabled: Vec<Choice>,
    pub chosen: Choice,
}

#[derive(Debug)]
struct ControllerState {
    p: usize,
    /// Ranks currently executing user code (not parked, not finished).
    running: usize,
    finished: usize,
    parked: BTreeMap<usize, SchedOp>,
    grants: BTreeMap<usize, SchedGrant>,
    /// In-flight tags per directed channel, in send order.
    channels: BTreeMap<(usize, usize), VecDeque<u64>>,
    /// Directed prefix to follow before the default policy takes over.
    prefix: Vec<Choice>,
    pos: usize,
    steps: Vec<StepRecord>,
    /// Delivery log: `(receiver, source, tag)` in grant order.
    deliveries: Vec<(usize, usize, u64)>,
    outcome: Option<RunOutcome>,
    aborting: bool,
    max_depth: usize,
}

impl ControllerState {
    fn channel_has(&self, src: usize, dst: usize, tag: u64) -> bool {
        self.channels
            .get(&(src, dst))
            .is_some_and(|q| q.contains(&tag))
    }

    /// Enabled choices at the current quiescent state, in deterministic
    /// (rank, source) order.
    fn enabled(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        for (&rank, &op) in &self.parked {
            match op {
                SchedOp::Send { .. } => out.push(Choice {
                    rank,
                    op,
                    source: None,
                }),
                SchedOp::Recv { from, tag } => {
                    if self.channel_has(from, rank, tag) {
                        out.push(Choice {
                            rank,
                            op,
                            source: None,
                        });
                    }
                }
                SchedOp::RecvAny { tag } => {
                    for src in 0..self.p {
                        if src != rank && self.channel_has(src, rank, tag) {
                            out.push(Choice {
                                rank,
                                op,
                                source: Some(src),
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Apply the runtime effect of a granted choice to the channel model
    /// (tag-skipping first-match removal, mirroring `mps`'s pending-buffer
    /// semantics).
    fn apply(&mut self, choice: &Choice) {
        match choice.op {
            SchedOp::Send { to, tag } => {
                self.channels
                    .entry((choice.rank, to))
                    .or_default()
                    .push_back(tag);
            }
            SchedOp::Recv { from, tag } => {
                self.take_in_flight(from, choice.rank, tag);
                self.deliveries.push((choice.rank, from, tag));
            }
            SchedOp::RecvAny { tag } => {
                let src = choice.source.expect("granted wildcard has a source");
                self.take_in_flight(src, choice.rank, tag);
                self.deliveries.push((choice.rank, src, tag));
            }
        }
    }

    fn take_in_flight(&mut self, src: usize, dst: usize, tag: u64) {
        let q = self
            .channels
            .get_mut(&(src, dst))
            .expect("granted receive had an in-flight message");
        let i = q
            .iter()
            .position(|&t| t == tag)
            .expect("granted receive had a matching tag");
        q.remove(i);
    }

    fn abort_all(&mut self) {
        self.aborting = true;
        let parked: Vec<usize> = self.parked.keys().copied().collect();
        for rank in parked {
            self.parked.remove(&rank);
            self.grants.insert(rank, SchedGrant::Abort);
        }
    }

    /// The controller: runs under the lock whenever the world may have
    /// gone quiescent, and issues at most one grant.
    fn decide(&mut self) {
        if self.aborting || self.running > 0 {
            return;
        }
        if self.finished == self.p {
            self.outcome.get_or_insert(RunOutcome::Terminal);
            return;
        }
        if self.parked.len() + self.finished < self.p {
            // A granted rank is between park points; not quiescent yet.
            return;
        }
        let enabled = self.enabled();
        let choice = if self.pos < self.prefix.len() {
            let want = self.prefix[self.pos];
            if !enabled.contains(&want) {
                self.outcome = Some(RunOutcome::Diverged { at: self.pos });
                self.abort_all();
                return;
            }
            self.pos += 1;
            want
        } else if enabled.is_empty() {
            let blocked: Vec<(usize, SchedOp)> =
                self.parked.iter().map(|(&r, &op)| (r, op)).collect();
            self.outcome = Some(RunOutcome::Deadlock { blocked });
            self.abort_all();
            return;
        } else if self.steps.len() >= self.max_depth {
            self.outcome = Some(RunOutcome::DepthExceeded);
            self.abort_all();
            return;
        } else {
            enabled[0]
        };
        self.steps.push(StepRecord {
            enabled,
            chosen: choice,
        });
        self.apply(&choice);
        self.parked.remove(&choice.rank);
        self.grants.insert(
            choice.rank,
            SchedGrant::Proceed {
                source: choice.source,
            },
        );
    }
}

/// The serializing scheduler hook: directs a prefix, then follows the
/// first-enabled default policy, recording every decision point.
#[derive(Debug)]
pub(crate) struct Controller {
    state: Mutex<ControllerState>,
    cv: Condvar,
}

impl Controller {
    pub(crate) fn new(p: usize, prefix: Vec<Choice>, max_depth: usize) -> Self {
        Self {
            state: Mutex::new(ControllerState {
                p,
                running: p,
                finished: 0,
                parked: BTreeMap::new(),
                grants: BTreeMap::new(),
                channels: BTreeMap::new(),
                prefix,
                pos: 0,
                steps: Vec::new(),
                deliveries: Vec::new(),
                outcome: None,
                aborting: false,
                max_depth,
            }),
            cv: Condvar::new(),
        }
    }

    /// Take the execution record out after the run returned.
    pub(crate) fn into_record(self) -> (Vec<StepRecord>, Vec<(usize, usize, u64)>, RunOutcome) {
        let st = self.state.into_inner().expect("controller lock intact");
        let outcome = st.outcome.unwrap_or(RunOutcome::Terminal);
        (st.steps, st.deliveries, outcome)
    }
}

impl SchedulerHook for Controller {
    fn permit(&self, rank: usize, op: SchedOp) -> SchedGrant {
        let mut st = self.state.lock().expect("controller lock intact");
        if st.aborting {
            return SchedGrant::Abort;
        }
        st.running -= 1;
        st.parked.insert(rank, op);
        st.decide();
        self.cv.notify_all();
        loop {
            if let Some(grant) = st.grants.remove(&rank) {
                if matches!(grant, SchedGrant::Proceed { .. }) {
                    st.running += 1;
                }
                return grant;
            }
            let (guard, timeout) = self
                .cv
                .wait_timeout(st, STALL_TIMEOUT)
                .expect("controller lock intact");
            st = guard;
            assert!(
                !timeout.timed_out(),
                "verify controller stalled: rank {rank} waited {STALL_TIMEOUT:?} on {op} \
                 (channel model diverged from the runtime?)"
            );
        }
    }

    fn rank_finished(&self, rank: usize) {
        let mut st = self.state.lock().expect("controller lock intact");
        let _ = rank;
        st.running -= 1;
        st.finished += 1;
        st.decide();
        self.cv.notify_all();
    }
}

/// Everything a directed execution produces: the per-step scheduling
/// record, the global delivery sequence `(source, dest, tag)`, how the
/// schedule ended, and the runtime's own run result.
pub(crate) type DirectedRun<R> = (
    Vec<StepRecord>,
    Vec<(usize, usize, u64)>,
    RunOutcome,
    Result<mps::RunReport<R>, RunError>,
);

/// One directed execution of `program` on a fresh copy of `world`, under
/// the given choice prefix and then the first-enabled default policy.
pub(crate) fn run_directed<R, F>(
    world: &World,
    p: usize,
    program: &F,
    prefix: &[Choice],
    max_depth: usize,
) -> DirectedRun<R>
where
    R: Send,
    F: Fn(&mut Ctx) -> R + Sync,
{
    let controller = Arc::new(Controller::new(p, prefix.to_vec(), max_depth));
    let directed = world.clone().with_scheduler(controller.clone());
    let result = mps::try_run(&directed, p, program);
    drop(directed); // release the world's clone of the hook Arc
    let controller =
        Arc::into_inner(controller).expect("all rank threads joined, controller uniquely owned");
    let (steps, deliveries, outcome) = controller.into_record();
    (steps, deliveries, outcome, result)
}

/// Exploration bounds: how many distinct schedules to execute and how many
/// scheduling decisions a single schedule may take.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Maximum number of executed schedules before exploration truncates.
    pub max_schedules: usize,
    /// Maximum decisions per schedule (guards runaway programs).
    pub max_depth: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Self {
            max_schedules: 512,
            max_depth: 100_000,
        }
    }
}

/// The result of exploring a world's schedule space.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Distinct schedules actually executed.
    pub schedules: usize,
    /// True when a bound cut exploration short (findings remain sound;
    /// absence of findings is then *not* a proof).
    pub truncated: bool,
    /// Deduplicated findings, in discovery order.
    pub findings: Vec<VerifyFinding>,
}

impl Exploration {
    /// No findings and the schedule space was fully explored.
    #[must_use]
    pub fn certified(&self) -> bool {
        self.findings.is_empty() && !self.truncated
    }
}

/// A DFS node: the state reached after `chosen` prefixes up to this depth.
#[derive(Debug)]
struct Frame {
    enabled: Vec<Choice>,
    chosen: Choice,
    /// Alternatives already explored at this node.
    done: Vec<Choice>,
    /// Sleep set at this node.
    sleep: Vec<Choice>,
}

impl Frame {
    /// The next unexplored, non-sleeping alternative.
    fn next_alternative(&self) -> Option<Choice> {
        self.enabled
            .iter()
            .find(|c| !self.done.contains(c) && !self.sleep.contains(c))
            .copied()
    }

    /// Sleep set for the child reached by taking `choice` here.
    fn child_sleep(&self, choice: &Choice) -> Vec<Choice> {
        self.sleep
            .iter()
            .chain(self.done.iter())
            .filter(|u| u.independent(choice))
            .copied()
            .collect()
    }
}

impl Explorer {
    /// Explore the schedule space of `program` on `world` with `p` ranks.
    ///
    /// # Panics
    /// Panics if the controller and the runtime disagree about enabledness
    /// (a bug in the channel model, surfaced loudly rather than hung).
    pub fn explore<R, F>(&self, world: &World, p: usize, program: F) -> Exploration
    where
        R: Send,
        F: Fn(&mut Ctx) -> R + Sync,
    {
        self.explore_with(|prefix| {
            let (steps, deliveries, outcome, _result) =
                run_directed::<R, F>(world, p, &program, prefix, self.max_depth);
            (steps, deliveries, outcome)
        })
    }

    /// The DFS over schedule space. `runner` receives the choice prefix and
    /// returns the scheduling observations of one complete run under it —
    /// the explorer only reasons about those observations.
    fn explore_with(
        &self,
        mut runner: impl FnMut(&[Choice]) -> (Vec<StepRecord>, Vec<(usize, usize, u64)>, RunOutcome),
    ) -> Exploration {
        let mut stack: Vec<Frame> = Vec::new();
        let mut schedules = 0usize;
        let mut truncated = false;
        let mut findings: Vec<VerifyFinding> = Vec::new();
        let mut deadlock_sigs: Vec<Vec<(usize, SchedOp)>> = Vec::new();
        let mut race_sigs: Vec<(usize, u64)> = Vec::new();
        // per-rank delivery signature -> complete witness
        let mut terminals: Vec<(DeliverySig, Schedule)> = Vec::new();

        let mut pending: Option<usize> = Some(0); // depth at which to extend; 0 = root
        while let Some(base) = pending.take() {
            if schedules >= self.max_schedules {
                truncated = true;
                break;
            }
            let prefix: Vec<Choice> = stack.iter().map(|f| f.chosen).collect();
            let (steps, deliveries, outcome) = runner(&prefix);
            schedules += 1;
            debug_assert!(
                !matches!(outcome, RunOutcome::Diverged { .. }),
                "self-generated prefix diverged: channel model is not deterministic"
            );
            // Extend the DFS stack with the new decision points.
            for step in steps.iter().skip(base) {
                let sleep = match stack.last() {
                    Some(parent) => parent.child_sleep(&parent.chosen),
                    None => Vec::new(),
                };
                // Wildcard branch fan-out is a tag race.
                self.note_races(step, &stack, &mut findings, &mut race_sigs);
                stack.push(Frame {
                    enabled: step.enabled.clone(),
                    chosen: step.chosen,
                    done: Vec::new(),
                    sleep,
                });
            }
            let witness: Schedule = stack.iter().map(|f| f.chosen).collect();
            match outcome {
                RunOutcome::Terminal => terminals.push((per_rank_deliveries(&deliveries), witness)),
                RunOutcome::Deadlock { blocked } => {
                    if !deadlock_sigs.contains(&blocked) {
                        deadlock_sigs.push(blocked.clone());
                        findings.push(VerifyFinding::Deadlock { blocked, witness });
                    }
                }
                RunOutcome::DepthExceeded => truncated = true,
                RunOutcome::Diverged { .. } => {}
            }
            // Backtrack: deepest node with an unexplored alternative.
            while let Some(frame) = stack.last_mut() {
                let prev = frame.chosen;
                if !frame.done.contains(&prev) {
                    frame.done.push(prev);
                }
                if let Some(alt) = frame.next_alternative() {
                    frame.chosen = alt;
                    pending = Some(stack.len());
                    break;
                }
                stack.pop();
            }
        }
        if pending.is_some() {
            truncated = true;
        }

        // Two terminal schedules with different delivery orders?
        'outer: for (i, (sig_a, wit_a)) in terminals.iter().enumerate() {
            for (sig_b, wit_b) in terminals.iter().skip(i + 1) {
                if sig_a != sig_b {
                    let rank = first_differing_rank(sig_a, sig_b);
                    findings.push(VerifyFinding::DeliveryOrderNondet {
                        rank,
                        witness_a: wit_a.clone(),
                        witness_b: wit_b.clone(),
                    });
                    break 'outer;
                }
            }
        }

        if !findings.is_empty() {
            obs::flight::record(
                "verify.witness",
                "event",
                0.0,
                &[
                    ("findings", findings.len().to_string()),
                    ("schedules", schedules.to_string()),
                    ("first", format!("{:?}", findings[0])),
                ],
            );
            let _ = obs::flight::dump("verify-witness");
        }

        Exploration {
            schedules,
            truncated,
            findings,
        }
    }

    fn note_races(
        &self,
        step: &StepRecord,
        stack: &[Frame],
        findings: &mut Vec<VerifyFinding>,
        race_sigs: &mut Vec<(usize, u64)>,
    ) {
        let mut by_rank: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
        for c in &step.enabled {
            if let SchedOp::RecvAny { tag } = c.op {
                by_rank
                    .entry((c.rank, tag))
                    .or_default()
                    .push(c.source.expect("wildcard choice has a source"));
            }
        }
        for ((rank, tag), sources) in by_rank {
            if sources.len() >= 2 && !race_sigs.contains(&(rank, tag)) {
                race_sigs.push((rank, tag));
                findings.push(VerifyFinding::TagRace {
                    rank,
                    tag,
                    sources,
                    witness: stack.iter().map(|f| f.chosen).collect(),
                });
            }
        }
    }

    /// Explore every schedule of a lowered [`plan::CommPlan`] — the
    /// dynamic cross-check for the `plan` crate's static verdicts.
    ///
    /// The plan is compiled onto the runtime with [`plan::lower`] on every
    /// explored schedule, so the explorer exercises exactly the message
    /// streams `plan::analyze_plan` reasoned about. Run the static checker
    /// first: a plan with shape errors (self-sends, out-of-range peers)
    /// panics when lowered.
    pub fn explore_plan(&self, world: &World, p: usize, commplan: &plan::CommPlan) -> Exploration {
        self.explore(world, p, |ctx| plan::lower(commplan, ctx))
    }
}

/// Per-rank delivery sequences: `rank -> [(source, tag)]` in receive
/// order. Two schedules are delivery-equivalent iff these projections
/// agree — the *global* interleaving of independent receives is pure
/// scheduling, not program-visible nondeterminism.
type DeliverySig = BTreeMap<usize, Vec<(usize, u64)>>;

fn per_rank_deliveries(deliveries: &[(usize, usize, u64)]) -> DeliverySig {
    let mut sig = DeliverySig::new();
    for &(receiver, source, tag) in deliveries {
        sig.entry(receiver).or_default().push((source, tag));
    }
    sig
}

/// First receiver whose delivery sequences differ between two terminal
/// signatures.
fn first_differing_rank(a: &DeliverySig, b: &DeliverySig) -> usize {
    let empty = Vec::new();
    a.keys()
        .chain(b.keys())
        .find(|&&rank| a.get(&rank).unwrap_or(&empty) != b.get(&rank).unwrap_or(&empty))
        .copied()
        .unwrap_or(0)
}
