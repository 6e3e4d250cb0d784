//! The discrete-event engine: rank tasks driven from one FIFO ready
//! queue on the caller's thread.
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
//! gives the same bits, so the engine uses the cheapest one: a FIFO queue
//! of runnable ranks, seeded `0..p` and appended to by the deposit that
//! unblocks a parked receiver.
//!
//! Wildcard plans are where the order shows: a `recv_any` matches the
//! first envelope with its tag in the receiver's inbox, and which sender
//! got there first depends on the schedule. Their schedule is defined
//! here and nowhere else: the FIFO order above is a pure function of the
//! plan and `p`, so a wildcard run is the same run-to-run. It is not the
//! virtual-time order, and `plan::analyze_plan` marks such plans inexact
//! beyond two ranks for the same reason.
//!
//! ## Deadlock
//!
//! Deposits are instantaneous (a send's envelope is buffered at its
//! receiver before the sender's next step executes), so there are never
//! undelivered messages "in flight" between tasks. The starved-host
//! condition that makes the thread runtime's detector hedge is therefore
//! trivially decidable here: an empty ready queue with live tasks *is*
//! the terminal wait-for graph. The engine reports the same
//! [`DeadlockInfo`] shape — edges, cyclicity, per-rank partial traces —
//! as `mps::try_run`.

use std::collections::VecDeque;

use mps::{DeadlockInfo, RunError, RunReport, WaitEdge, World};
use obs::Timeline;
use plan::CommPlan;

use crate::task::{Blocked, Links, Paused, RankTask};
use crate::{EngineConfig, EngineReport, EngineStats};

/// Samples kept per timeline series (a ring: the newest win).
const TIMELINE_CAPACITY: usize = 4096;

/// Execute `plan` on `p` rank tasks over `world`.
///
/// One FIFO queue of runnable ranks: every rank starts in it; a task
/// leaves it to run until it blocks or finishes, and the deposit that
/// unblocks a parked receiver appends it again. A task is in the queue at
/// most once: only a blocked task is re-queued, and queueing it unblocks
/// it.
pub(crate) fn run(
    cfg: &EngineConfig,
    world: &World,
    p: usize,
    plan: &CommPlan,
) -> Result<EngineReport, RunError> {
    let t0 = std::time::Instant::now();
    let detail = cfg.resolve_detail(p);
    let links = Links::new(world, p);
    let mut tasks: Vec<RankTask> = (0..p)
        .map(|r| RankTask::new(r, p, world, plan, detail))
        .collect();
    let mut stats = EngineStats::default();
    let mut timeline = Timeline::new(TIMELINE_CAPACITY);

    let mut ready: VecDeque<usize> = (0..p).collect();
    let mut live = p;
    let mut executed: u64 = 0;
    let mut next_sample = cfg.timeline_every;
    let mut t_hi = 0.0f64;
    // The one send buffer: filled by the running task's slice, then
    // drained. It keeps its capacity, so sends stop reallocating after
    // the first slices.
    let mut outbox = Vec::new();

    while let Some(r) = ready.pop_front() {
        let task = &mut tasks[r];
        let before = task.steps;
        let paused = task.advance(&links, &mut outbox);
        executed += task.steps - before;
        t_hi = t_hi.max(task.core.now());
        if paused == Paused::Finished {
            live -= 1;
        }
        for (dst, env) in outbox.drain(..) {
            let dst_task = &mut tasks[dst];
            if dst_task.wants(&env) {
                dst_task.blocked = Blocked::No;
                ready.push_back(dst);
                stats.wakes += 1;
            }
            dst_task.inbox.push(env);
        }
        if cfg.timeline_every > 0 && executed >= next_sample {
            next_sample += cfg.timeline_every;
            sample(&mut timeline, &tasks, t_hi, ready.len(), live);
        }
    }

    stats.steps = tasks.iter().map(|t| t.steps).sum();
    stats.sends = tasks.iter().map(|t| t.sends).sum();
    stats.wall_s = t0.elapsed().as_secs_f64();

    if tasks.iter().any(|t| !t.done()) {
        return Err(deadlock(&mut tasks));
    }

    debug_assert!(
        tasks.iter().all(|t| t.inbox.is_empty()),
        "a completed run must have consumed every message"
    );
    let report = RunReport {
        ranks: tasks.into_iter().map(RankTask::into_outcome).collect(),
        f_hz: world.f_hz,
    };
    write_trace_outputs(world, &report, &timeline);
    Ok(EngineReport {
        report,
        timeline,
        stats,
    })
}

/// Record one timeline sample at virtual time `t_s` (a running maximum,
/// so every series stays monotone for `analyze --trace`).
fn sample(timeline: &mut Timeline, tasks: &[RankTask], t_s: f64, ready: usize, live: usize) {
    let inflight: usize = tasks.iter().map(|t| t.inbox.len()).sum();
    #[allow(clippy::cast_precision_loss)]
    {
        timeline.record("simrt.ready_tasks", "tasks", t_s, ready as f64);
        timeline.record(
            "simrt.blocked_tasks",
            "tasks",
            t_s,
            live.saturating_sub(ready) as f64,
        );
        timeline.record("simrt.inflight_msgs", "", t_s, inflight as f64);
    }
}

/// Assemble the terminal wait-for graph: every live task is parked on a
/// receive that no remaining send can satisfy.
fn deadlock(tasks: &mut [RankTask]) -> RunError {
    let mut edges = Vec::new();
    for t in tasks.iter() {
        match t.blocked {
            Blocked::On { from, tag } => edges.push(WaitEdge {
                from_rank: t.rank(),
                on_rank: Some(from),
                tag,
            }),
            Blocked::Any { tag } => edges.push(WaitEdge {
                from_rank: t.rank(),
                on_rank: None,
                tag,
            }),
            Blocked::No | Blocked::Done => {}
        }
    }
    let cyclic = has_cycle(tasks);
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
    let comm = tasks
        .iter_mut()
        .map(|t| {
            t.drain_unconsumed();
            std::mem::take(&mut t.comm)
        })
        .collect();
    RunError::Deadlock(DeadlockInfo {
        edges,
        cyclic,
        comm,
    })
}

/// Is there a cycle in the wait-for graph? Each blocked task has at most
/// one successor (the rank it waits on, when that rank is itself still
/// live), so a stamped walk per start node suffices.
fn has_cycle(tasks: &[RankTask]) -> bool {
    let succ: Vec<Option<usize>> = tasks
        .iter()
        .map(|t| match t.blocked {
            Blocked::On { from, .. } if !tasks[from].done() => Some(from),
            _ => None,
        })
        .collect();
    // 0 = unvisited, 1 = on the current walk, 2 = exhausted.
    let mut state = vec![0u8; tasks.len()];
    for start in 0..tasks.len() {
        if state[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut node = start;
        loop {
            if state[node] == 1 {
                return true; // walked back into the current path
            }
            if state[node] == 2 {
                break; // joins an already-exhausted walk
            }
            state[node] = 1;
            path.push(node);
            match succ[node] {
                Some(next) => node = next,
                None => break,
            }
        }
        for visited in path {
            state[visited] = 2;
        }
    }
    false
}

/// Write the configured trace files at run end, with the engine's
/// timeline attached as counter tracks. Mirrors the thread runtime:
/// output failures go to stderr, never fail the run.
fn write_trace_outputs(world: &World, report: &RunReport<()>, timeline: &Timeline) {
    if !world.obs.trace || (world.obs.perfetto_path.is_none() && world.obs.jsonl_path.is_none()) {
        return;
    }
    let name = format!(
        "{} p={} f={:.2}GHz simrt",
        world.cluster.name,
        report.ranks.len(),
        world.f_hz / 1e9
    );
    let Some(mut trace) = report.trace(&name) else {
        return;
    };
    timeline.attach(&mut trace);
    if let Some(path) = &world.obs.perfetto_path {
        if let Err(e) = obs::perfetto::write_file(&trace, path) {
            eprintln!(
                "simrt: failed to write Perfetto trace {}: {e}",
                path.display()
            );
        }
    }
    if let Some(path) = &world.obs.jsonl_path {
        let result = std::fs::File::create(path).and_then(|f| {
            let mut sink = obs::JsonlSink::new(std::io::BufWriter::new(f));
            trace.emit(&mut sink)
        });
        if let Err(e) = result {
            eprintln!("simrt: failed to write JSONL trace {}: {e}", path.display());
        }
    }
}
