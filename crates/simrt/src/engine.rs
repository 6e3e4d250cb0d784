//! The discrete-event engine: rank tasks run on the [`plan::Schedule`],
//! the run loop it shares with `plan::analyze_plan`.
//!
//! ## Why the schedule cannot change the answer
//!
//! The engine is a *conservative* discrete-event simulation. Sends are
//! eager (they never block), receives are the only blocking operation, and
//! a rank's virtual clock advances only through its own program order plus
//! the arrival times of the envelopes it consumes. For a wildcard-free
//! plan every receive names its source, and deposits preserve each
//! sender's program order, so the envelope a receive matches — and hence
//! every clock value, counter, and segment — is independent of the order
//! in which the engine happens to resume runnable tasks. Any resume order
//! gives the same bits, so the engine takes the checker's.
//!
//! ## Wildcard plans
//!
//! Wildcard plans are where the order shows: which envelopes sit in a
//! `recv_any`'s inbox when it runs depends on the schedule. Order and
//! wildcard rule (lowest source) are the checker's, so the engine and
//! `plan::analyze_plan` choose alike at every wildcard and reach the same
//! verdict, the same on every run. It is not virtual-time order, which is
//! why `plan::analyze_plan` marks such plans inexact beyond two ranks.
//!
//! ## Deadlock
//!
//! A send's envelope is in its receiver's inbox before the sender's next
//! step, so nothing is ever in flight between tasks, and the starved-host
//! hedging of the thread runtime's detector is not needed: no ready task
//! with live tasks left *is* the terminal wait-for graph. The schedule
//! walks it once ([`plan::Schedule::wait_for`]); the engine reports the
//! [`DeadlockInfo`] `mps` documents — the first cycle in wait order, else
//! the chain from the lowest blocked rank to a finished rank or a
//! wildcard wait — with every rank's partial trace.
//!
//! ## Folding
//!
//! At aggregate detail, with no timeline and `world.obs` off, the ranks'
//! cursors yield the heads of every loop of [`plan::foldable_loops`], the
//! schedule parks the ranks there, and its cuts record one iteration and
//! replay it for the rest ([`crate::fold`]), inner loops' tapes nested in
//! enclosing ones. Parking changes the order, which the first section
//! shows cannot change the answer; it changes [`EngineStats::wakes`]. The
//! replay's own order differs too — an all-gather or all-to-all is
//! replayed round by round across all ranks — and the same argument
//! applies: each rank sees its own calls in its own order, and each
//! receive the arrival of the send it matched. In the same runs, and in
//! wildcard-free plans only, ranks also park at every all-gather's and
//! all-to-all's entrance, and at a clean cut there the engine plays the
//! whole collective round by round instead of stepping its messages
//! ([`EngineStats::whole_collectives`]).

use mps::{DeadlockInfo, RunError, RunReport, World};
use netsim::Hockney;
use obs::Timeline;
use plan::{CommPlan, Effects, Envelope, Load, Op, Schedule, ShapeIssue, Step};

use crate::fold::Folder;
use crate::task::{Delivery, RankTask};
use crate::{EngineConfig, EngineReport, EngineStats, Error};

/// Samples kept per timeline series (a ring: the newest win).
const TIMELINE_CAPACITY: usize = 4096;

/// The engine's effects on the schedule: each rank charges its steps to
/// its `RankCore`, and envelopes carry a [`Delivery`].
struct Engine<'a> {
    tasks: Vec<RankTask<'a>>,
    /// The contention-adjusted links at concurrency 2 and `p`, computed
    /// once: [`netsim::ContentionModel::effective`] is pure.
    links: [Hockney; 2],
    stats: EngineStats,
    timeline: Timeline,
    /// Sample the timeline every this many steps (`0`: never).
    every: u64,
    next_sample: u64,
    /// The latest virtual time a task reached when its run ended.
    t_hi: f64,
    /// Loop folding and whole collectives, in a run that folds.
    fold: Option<Folder<'a>>,
    /// The lowest rank a shape violation stopped, and the violation.
    fault: Option<(usize, ShapeIssue)>,
}

impl<'a> Effects<'a> for Engine<'a> {
    type Body = Delivery;

    #[inline]
    fn next_message(&mut self, r: usize) -> Result<Option<Step<'a>>, ShapeIssue> {
        let Some(fold) = &mut self.fold else {
            return self.tasks[r].next_message(&mut self.stats.steps, None);
        };
        loop {
            let step = self.tasks[r].next_message(&mut self.stats.steps, fold.tape())?;
            match step {
                Some(Step::LoopHead(i)) if !fold.parking[i] => {}
                _ => return Ok(step),
            }
        }
    }

    #[inline]
    fn send(&mut self, r: usize, to: usize, tag: u64, bytes: u64) -> Delivery {
        self.stats.steps += 1;
        self.stats.sends += 1;
        let tape = self.fold.as_mut().and_then(Folder::tape);
        self.tasks[r].send(&self.links, to, tag, bytes, tape)
    }

    #[inline]
    fn recv(&mut self, r: usize, env: Envelope<Delivery>) {
        self.stats.steps += 1;
        let tape = self.fold.as_mut().and_then(Folder::tape);
        self.tasks[r].consume(env, tape);
    }

    fn fault(&mut self, r: usize, issue: ShapeIssue) {
        if self.fault.as_ref().is_none_or(|(first, _)| r < *first) {
            self.fault = Some((r, issue));
        }
    }

    fn cut(&mut self, parked: &[usize], clean: bool, steps: &mut u64, wakes: &mut u64) {
        let fold = self.fold.as_mut().expect("only a folding run parks");
        // A collective's messages go over the link among all `p` ranks.
        let counts = [&mut self.stats.steps, &mut self.stats.sends, steps, wakes];
        fold.cut(&mut self.tasks, parked, clean, &self.links[1], counts);
    }

    fn paused(&mut self, r: usize, load: Load) {
        self.t_hi = self.t_hi.max(self.tasks[r].core.now());
        if self.every > 0 && self.stats.steps >= self.next_sample {
            self.next_sample += self.every;
            sample(&mut self.timeline, self.t_hi, load);
        }
    }
}

/// Execute `plan` on `p` rank tasks over `world`.
pub(crate) fn run(
    cfg: &EngineConfig,
    world: &World,
    p: usize,
    plan: &CommPlan,
) -> Result<EngineReport, Error> {
    let t0 = std::time::Instant::now();
    let detail = cfg.resolve_detail(p);
    // Folding and whole collectives replay a rank's accounting calls in
    // another order, which is all that changes its state only without
    // segment logs, samples and observers, and gives the same bits only
    // without wildcards.
    let folds = !detail
        && cfg.timeline_every == 0
        && !world.obs.trace
        && !world.obs.metrics
        && !plan.has_wildcard();
    let loops = if folds {
        plan::foldable_loops(plan)
    } else {
        Vec::new()
    };
    let heads: Vec<&Op> = loops.iter().map(|l| l.op).collect();
    let mut engine = Engine {
        tasks: (0..p)
            .map(|r| RankTask::new(r, p, world, plan, &heads, folds, detail))
            .collect(),
        links: [2, p].map(|n| world.contention.effective(&world.hockney(), n)),
        stats: EngineStats::default(),
        timeline: Timeline::new(TIMELINE_CAPACITY),
        every: cfg.timeline_every,
        next_sample: cfg.timeline_every,
        t_hi: 0.0,
        fold: folds.then(|| Folder::new(&loops)),
        fault: None,
    };
    let sched = Schedule::run(p, &mut engine);
    if let Some((rank, issue)) = engine.fault {
        return Err(Error::Shape { rank, issue });
    }
    engine.stats.wakes = sched.wakes;
    if let Some(fold) = &engine.fold {
        engine.stats.folded_iterations = fold.folded_iterations;
        engine.stats.whole_collectives = fold.whole_collectives;
    }
    engine.stats.wall_s = t0.elapsed().as_secs_f64();
    // What is left in an inbox was sent but never received: it goes to
    // the rank's `unconsumed` list, where the analyzer flags it, on a
    // completed run as on a deadlocked one.
    for (r, task) in engine.tasks.iter_mut().enumerate() {
        let left = sched.inbox(r).iter().map(|e| (e.src, e.tag, e.body.bytes));
        task.comm.unconsumed.extend(left);
    }
    if !sched.completed() {
        return Err(Error::Run(deadlock(&sched, engine.tasks)));
    }

    let report = RunReport {
        ranks: engine
            .tasks
            .into_iter()
            .map(RankTask::into_outcome)
            .collect(),
        f_hz: world.f_hz,
    };
    world.obs.write_trace_files("simrt", || {
        let name = format!(
            "{} p={} f={:.2}GHz simrt",
            world.cluster.name,
            report.ranks.len(),
            world.f_hz / 1e9
        );
        let mut trace = report.trace(&name)?;
        engine.timeline.attach(&mut trace);
        Some(trace)
    });
    Ok(EngineReport {
        report,
        timeline: engine.timeline,
        stats: engine.stats,
    })
}

/// Record one timeline sample at virtual time `t_s` (a running maximum,
/// so every series stays monotone for `analyze --trace`).
fn sample(timeline: &mut Timeline, t_s: f64, load: Load) {
    #[allow(clippy::cast_precision_loss)]
    {
        timeline.record("simrt.ready_tasks", "tasks", t_s, load.ready as f64);
        timeline.record(
            "simrt.blocked_tasks",
            "tasks",
            t_s,
            load.live.saturating_sub(load.ready) as f64,
        );
        timeline.record("simrt.inflight_msgs", "", t_s, load.in_flight as f64);
    }
}

/// The deadlock report of a run that stopped with blocked tasks: the
/// schedule's witness, and every rank's partial trace, whose `unconsumed`
/// list holds what was left in its inbox (the analyzer infers tag
/// mismatches from it).
fn deadlock(sched: &Schedule<Delivery>, tasks: Vec<RankTask>) -> RunError {
    let (edges, cyclic) = sched.wait_for().witness();
    obs::flight::record(
        "simrt.deadlock",
        "event",
        0.0,
        &[
            ("cyclic", cyclic.to_string()),
            (
                "edges",
                edges
                    .iter()
                    .map(|e| format!("{e:?}"))
                    .collect::<Vec<_>>()
                    .join(";"),
            ),
        ],
    );
    let _ = obs::flight::dump("simrt-deadlock");
    let comm = tasks.into_iter().map(|t| t.comm).collect();
    RunError::Deadlock(DeadlockInfo {
        edges,
        cyclic,
        comm,
    })
}
