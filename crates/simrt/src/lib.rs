//! # simrt — a discrete-event rank engine for large-`p` simulation
//!
//! The mps thread runtime gives every simulated rank an OS thread, which
//! tops out around the host's thread limits long before the paper's
//! `p = 1024+` scaling studies. This crate runs the *same* rank programs —
//! [`plan::CommPlan`]s, streamed by [`plan::TimedCursor`] — as resumable
//! state-machine tasks on the caller thread.
//! One process simulates NPB FT/EP/CG at `p = 4096`.
//!
//! Accounting is shared with the thread runtime through [`mps::RankCore`],
//! so per-collective message/byte counters, segment logs, energy, and span
//! traces are **bit-identical** between the two runtimes at any `p` where
//! both run (the differential tests in `tests/` pin this). At large `p`
//! the engine drops to aggregate fidelity — per-kind work sums instead of
//! full segment logs — which the energy model cannot distinguish.
//!
//! ```
//! use plan::{CommPlan, Expr, Op, ReduceOp};
//! use mps::World;
//! use simcluster::system_g;
//!
//! let plan = CommPlan::new(
//!     "allreduce",
//!     vec![Op::AllReduce { elems: Expr::Const(128), op: ReduceOp::Sum }],
//! );
//! let world = World::new(system_g(), 2.8e9);
//! let out = simrt::run_plan(&world, 1024, &plan);
//! assert_eq!(out.report.ranks.len(), 1024);
//! assert!(out.report.span() > 0.0);
//! ```
//!
//! ## Execution
//!
//! Tasks run on [`plan::Schedule`], the run loop of `plan::analyze_plan`
//! too: one resume order, one wildcard rule, one deadlock walk, the same
//! on every run. `src/engine.rs` argues why the order cannot change a
//! wildcard-free run, and why wildcard plans get the checker's verdict.
//!
//! Schedule-space exploration (a [`mps::SchedulerHook`] installed in
//! `world.sched`) is the thread runtime's job: the engine fixes its own
//! schedule and refuses hooked worlds.
//!
//! ## Folding repeated iterations
//!
//! At aggregate detail ([`Detail::Off`], or [`Detail::Auto`] above
//! [`DETAIL_AUTO_MAX_P`] ranks), with no timeline sampling and
//! `world.obs` off, the engine interprets the first iteration of a
//! repeated loop and replays it for the rest: it records each rank's
//! accounting calls between the repeat cuts before iterations 0 and 1,
//! in the order the schedule made them, and makes them again
//! `trips − 1` times through the same [`mps::RankCore`] methods, so the
//! report is bit for bit the one interpreting every iteration gives. It
//! folds every loop the checker's rule accepts ([`plan::foldable_loops`]):
//! an all-gather or all-to-all is one tape entry per rank, replayed round
//! by round from its schedule, and an inner loop's tape is one entry of
//! the enclosing loop's, so the tape stays `O(p)` per collective. NPB FT
//! replays 3 of its 4 iterations and CG 7 of its 8 outer ones, each with
//! all 25 inner iterations. [`EngineStats::folded_iterations`] counts the
//! iterations added at a repeat cut, as [`plan::PlanAnalysis`] does.
//!
//! In the same runs, when every rank stands at the entrance of the same
//! all-gather or all-to-all with no message in flight, the engine plays
//! it whole, round by round, through the same per-message accounting
//! calls ([`EngineStats::whole_collectives`]): FT's forward transpose and
//! its first iteration's, the two it would otherwise step message by
//! message.

#![forbid(unsafe_code)]

mod engine;
mod fold;
mod task;

use std::fmt;

use mps::{RunError, RunReport, World};
use obs::Timeline;
use plan::{CommPlan, ShapeIssue};

/// With [`Detail::Auto`], runs at `p` up to this keep full per-segment
/// logs, span tracks and comm traces; larger runs aggregate.
pub const DETAIL_AUTO_MAX_P: usize = 64;

/// Fidelity of per-rank logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Detail {
    /// Full detail up to [`DETAIL_AUTO_MAX_P`] ranks, aggregate above.
    #[default]
    Auto,
    /// Always keep full segment logs, comm events and span tracks.
    On,
    /// Always aggregate: per-kind `(wall, work)` sums only — a few dozen
    /// bytes per rank, the mode that makes `p = 4096` fit in memory.
    Off,
}

/// Engine tuning knobs. The default — auto detail, no timeline — is
/// right for tests and differential comparisons.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Per-rank logging fidelity.
    pub detail: Detail,
    /// Sample the engine timeline every this many steps. `0` disables the
    /// timeline.
    pub timeline_every: u64,
}

impl EngineConfig {
    /// Set the logging fidelity.
    #[must_use]
    pub fn with_detail(mut self, detail: Detail) -> Self {
        self.detail = detail;
        self
    }

    /// Enable timeline sampling every `every` steps.
    #[must_use]
    pub fn with_timeline_every(mut self, every: u64) -> Self {
        self.timeline_every = every;
        self
    }

    /// Resolve the effective detail flag for a run of `p` ranks.
    fn resolve_detail(&self, p: usize) -> bool {
        match self.detail {
            Detail::Auto => p <= DETAIL_AUTO_MAX_P,
            Detail::On => true,
            Detail::Off => false,
        }
    }
}

/// Engine-side observations of one run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Plan steps executed across all ranks: every step the ranks'
    /// [`plan::TimedCursor`]s stream (compute, memory, phase and
    /// collective-span steps as well as sends), plus one per receive. So
    /// it exceeds [`plan::PlanAnalysis::steps`], which counts message
    /// steps only, by the cursors' non-message steps.
    pub steps: u64,
    /// Point-to-point messages sent.
    pub sends: u64,
    /// Blocked tasks woken by a deposit. Parking at folded loops' heads
    /// changes the order, hence this count.
    pub wakes: u64,
    /// Loop iterations replayed from a recorded one instead of
    /// interpreted, counted where they are added (see the crate docs): an
    /// inner loop's iterations replayed inside an enclosing loop's replay
    /// are not counted again, so this equals
    /// [`plan::PlanAnalysis::folded_iterations`] wherever the two fold the
    /// same loops. `steps`, `sends` and `wakes` count every replayed
    /// iteration as if it had been interpreted.
    pub folded_iterations: u64,
    /// All-gathers and all-to-alls priced whole at a clean cut, every
    /// rank's exchanges played round by round, rather than stepped
    /// message by message (see the crate docs). Those replayed inside a
    /// folded loop are not counted; `steps` and `sends` count the
    /// exchanges as if they had been stepped.
    pub whole_collectives: u64,
    /// Host wall-clock time of the run, seconds.
    pub wall_s: f64,
}

/// What an engine run produces: the runtime-shaped report, the engine's
/// own counter timeline (virtual-time samples of queue occupancy), and
/// host-side stats.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-rank outcomes, identical in shape (and — at matching detail —
    /// in content) to an [`mps::try_run`] report.
    pub report: RunReport<()>,
    /// Engine timeline: `simrt.ready_tasks`, `simrt.blocked_tasks`,
    /// `simrt.inflight_msgs`, sampled at virtual time. Empty unless
    /// [`EngineConfig::timeline_every`] is set.
    pub timeline: Timeline,
    /// Host-side engine statistics.
    pub stats: EngineStats,
}

impl EngineReport {
    /// Assemble an [`obs::Trace`] named `name` from the run's span tracks
    /// (when detail tracing was on) with the engine timeline attached as
    /// counter tracks. `None` when there is nothing to emit.
    #[must_use]
    pub fn trace(&self, name: &str) -> Option<obs::Trace> {
        let mut trace = match self.report.trace(name) {
            Some(t) => t,
            None => {
                if self.timeline.series().iter().all(|s| s.samples.is_empty()) {
                    return None;
                }
                let mut t = obs::Trace::new(name);
                t.set_meta("ranks", &self.report.ranks.len().to_string());
                t.set_meta("f_hz", &format!("{}", self.report.f_hz));
                t
            }
        };
        self.timeline.attach(&mut trace);
        Some(trace)
    }
}

/// Why an engine run produced no report.
#[derive(Debug, Clone)]
pub enum Error {
    /// The run deadlocked: [`RunError::Deadlock`], with the wait-for
    /// edges and every rank's partial trace.
    Run(RunError),
    /// A plan shape violation stopped `rank`, the lowest rank one stopped
    /// (`plan::analyze_plan` lists them all).
    Shape {
        /// The rank.
        rank: usize,
        /// The violation.
        issue: ShapeIssue,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Run(err) => write!(f, "{err}"),
            Self::Shape { rank, issue } => write!(f, "rank {rank}: plan shape violation: {issue}"),
        }
    }
}

impl std::error::Error for Error {}

/// Run `plan` on `p` simulated ranks over `world` with the default
/// configuration.
///
/// # Panics
/// Panics if the run fails (use [`try_run_plan_with`] for the error
/// value).
#[must_use]
pub fn run_plan(world: &World, p: usize, plan: &CommPlan) -> EngineReport {
    match try_run_plan_with(&EngineConfig::default(), world, p, plan) {
        Ok(out) => out,
        Err(err) => panic!("simrt run failed: {err}"),
    }
}

/// Like [`run_plan`], but a deadlocked plan returns
/// [`RunError::Deadlock`] with the wait-for edges and per-rank partial
/// traces.
///
/// # Errors
/// [`RunError::Deadlock`] when every live task is parked on a receive no
/// remaining send can satisfy.
///
/// # Panics
/// Panics on a plan shape violation (use [`try_run_plan_with`] for the
/// error value), and as [`try_run_plan_with`] does.
pub fn try_run_plan(world: &World, p: usize, plan: &CommPlan) -> Result<EngineReport, RunError> {
    match try_run_plan_with(&EngineConfig::default(), world, p, plan) {
        Ok(out) => Ok(out),
        Err(Error::Run(err)) => Err(err),
        Err(err) => panic!("simrt run failed: {err}"),
    }
}

/// [`try_run_plan`] with explicit engine configuration, and every failure
/// as an error value.
///
/// Unlike the thread runtime there is no `p ≤ total_cores` cap: ranks are
/// tasks, and `p` in the thousands is the point.
///
/// # Errors
/// [`Error::Run`] with [`RunError::Deadlock`] when every live task is
/// parked on a receive no remaining send can satisfy; [`Error::Shape`]
/// when a plan shape violation stops a rank (the run goes on without it,
/// and the violation of the lowest such rank is returned).
///
/// # Panics
/// Panics if `p == 0`, or when `world.sched` holds a scheduler hook: the
/// engine picks its own schedule, so it cannot honor the hook's grants.
/// Explore schedules on the thread runtime (`mps::try_run` or
/// `verify::Explorer`) instead.
pub fn try_run_plan_with(
    cfg: &EngineConfig,
    world: &World,
    p: usize,
    plan: &CommPlan,
) -> Result<EngineReport, Error> {
    assert!(p > 0, "need at least one rank");
    assert!(
        world.sched.is_none(),
        "simrt cannot run under a scheduler hook; explore schedules on the mps thread runtime"
    );
    // Fold the `p`-only subtrees once instead of on every rank's every
    // step; the specialized plan streams identically at this `p`.
    let plan = &plan.specialize(p);
    engine::run(cfg, world, p, plan)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mps::{SchedGrant, SchedOp, SchedulerHook, World};
    use plan::{CommPlan, Cond, Expr, Op, ReduceOp, ShapeIssue, TagExpr};

    use crate::{EngineConfig, Error};

    /// A hook that grants everything; the engine must refuse it anyway.
    #[derive(Debug)]
    struct GrantAll;

    impl SchedulerHook for GrantAll {
        fn permit(&self, _rank: usize, _op: SchedOp) -> SchedGrant {
            SchedGrant::Proceed { source: None }
        }

        fn rank_finished(&self, _rank: usize) {}
    }

    #[test]
    #[should_panic(expected = "simrt cannot run under a scheduler hook")]
    fn a_scheduler_hook_is_refused_not_ignored() {
        let world = World::new(simcluster::system_g(), 2.8e9).with_scheduler(Arc::new(GrantAll));
        let plan = CommPlan::new(
            "allreduce",
            vec![Op::AllReduce {
                elems: Expr::Const(8),
                op: ReduceOp::Sum,
            }],
        );
        let _ = super::try_run_plan(&world, 2, &plan);
    }

    /// A plan whose rank 1 sends to `to` (and rank 0 waits for it).
    fn send_from_rank_1(to: Expr) -> CommPlan {
        let tag = || TagExpr::Expr(Expr::Const(3));
        CommPlan::new(
            "bad-peer",
            vec![Op::IfElse {
                cond: Cond::Eq(Expr::Rank, Expr::Const(1)),
                then: vec![Op::Send {
                    to,
                    tag: tag(),
                    bytes: Expr::Const(8),
                }],
                els: vec![Op::Recv {
                    from: Expr::Const(1),
                    tag: tag(),
                }],
            }],
        )
    }

    /// A shape violation is an error value naming the rank, not a panic,
    /// and it wins over the deadlock it leaves behind.
    #[test]
    fn shape_violations_are_typed_errors() {
        let world = World::new(simcluster::system_g(), 2.8e9);
        let cases = [
            (Expr::Rank, ShapeIssue::SelfMessage { peer: 1 }),
            (Expr::Const(5), ShapeIssue::PeerOutOfRange { peer: 5 }),
        ];
        for (to, want) in cases {
            let plan = send_from_rank_1(to);
            let err = super::try_run_plan_with(&EngineConfig::default(), &world, 2, &plan)
                .expect_err("rank 1 faults");
            let Error::Shape { rank, issue } = err else {
                panic!("expected a shape error, got {err}");
            };
            assert_eq!((rank, issue), (1, want));
        }
    }
}
