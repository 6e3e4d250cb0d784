//! The discrete-event engine: rank tasks driven from one FIFO ready
//! queue, sequentially or in pooled supersteps.
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
//! gives the same bits, so the sequential engine uses the cheapest one: a
//! FIFO queue of runnable ranks, seeded `0..p` and appended to by the
//! deposit that unblocks a parked receiver. Pooled supersteps are
//! bit-identical to it.
//!
//! Wildcard plans are where the order shows: a `recv_any` matches the
//! first envelope with its tag in the receiver's inbox, and which sender
//! got there first depends on the schedule. Their schedule is defined
//! here and nowhere else: they always run on the sequential engine (a
//! pool is ignored), and the FIFO order above is a pure function of the
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
use pool::PoolConfig;

use crate::task::{Blocked, Links, Paused, RankTask};
use crate::{EngineConfig, EngineReport, EngineStats};

/// Execute `plan` on `p` rank tasks over `world`.
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
    let mut timeline = Timeline::new(cfg.timeline_capacity);

    // A one-worker pool would run each superstep inline, paying O(p)
    // scans per barrier for nothing: it takes the sequential engine.
    let pooled = cfg
        .pool
        .as_ref()
        .filter(|pool_cfg| pool_cfg.threads() > 1 && !plan.has_wildcard() && p > 1);
    if let Some(pool_cfg) = pooled {
        superstep(
            pool_cfg,
            world,
            &links,
            &mut tasks,
            &mut stats,
            &mut timeline,
            cfg,
        );
    } else {
        sequential(world, &links, &mut tasks, &mut stats, &mut timeline, cfg);
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

/// The sequential engine: one FIFO queue of runnable ranks. Every rank
/// starts in it; a task leaves it to run until it blocks or finishes, and
/// the deposit that unblocks a parked receiver appends it again. A task is
/// in the queue at most once: only a blocked task is re-queued, and
/// queueing it unblocks it.
fn sequential(
    world: &World,
    links: &Links,
    tasks: &mut [RankTask],
    stats: &mut EngineStats,
    timeline: &mut Timeline,
    cfg: &EngineConfig,
) {
    let p = tasks.len();
    let mut ready: VecDeque<usize> = (0..p).collect();
    let mut live = p;
    let mut executed: u64 = 0;
    let mut next_sample = cfg.timeline_every;
    let mut t_hi = 0.0f64;
    // The one send buffer: lent to the running task for its slice, then
    // taken back and drained. It keeps its capacity, so sends stop
    // reallocating after every slice, and idle tasks hold no capacity.
    let mut outbox = Vec::new();

    while let Some(r) = ready.pop_front() {
        let before = tasks[r].steps;
        std::mem::swap(&mut outbox, &mut tasks[r].outbox);
        let paused = tasks[r].advance(world, links);
        std::mem::swap(&mut outbox, &mut tasks[r].outbox);
        executed += tasks[r].steps - before;
        t_hi = t_hi.max(tasks[r].core.now());
        if paused == Paused::Finished {
            live -= 1;
        }
        for (dst, env) in outbox.drain(..) {
            let dst_task = &mut tasks[dst];
            if dst_task.wants(&env) {
                dst_task.blocked = Blocked::No;
                dst_task.runnable = true;
                ready.push_back(dst);
                stats.wakes += 1;
            }
            dst_task.inbox.push(env);
        }
        if cfg.timeline_every > 0 && executed >= next_sample {
            next_sample += cfg.timeline_every;
            sample(timeline, tasks, t_hi, ready.len(), live);
        }
    }
}

/// The pooled engine: advance every runnable task in parallel (each slice
/// runs until its task blocks), then deposit all outboxes in sender-rank
/// order and wake the tasks they unblock. One barrier per superstep.
fn superstep(
    pool_cfg: &PoolConfig,
    world: &World,
    links: &Links,
    tasks: &mut [RankTask],
    stats: &mut EngineStats,
    timeline: &mut Timeline,
    cfg: &EngineConfig,
) {
    let p = tasks.len();
    let mut ready = p;
    let mut t_hi = 0.0f64;

    while ready > 0 {
        stats.supersteps += 1;
        pool::parallel_for_each_mut(pool_cfg, tasks, |_, task| {
            if task.runnable {
                task.advance(world, links);
            }
        });
        // Deposits in sender-rank order: arbitrary but fixed, and — for
        // the wildcard-free plans this mode accepts — irrelevant to what
        // any receive matches (per-source order is all that counts).
        for src in 0..p {
            if tasks[src].outbox.is_empty() {
                continue;
            }
            let outbox = std::mem::take(&mut tasks[src].outbox);
            for (dst, env) in outbox {
                let dst_task = &mut tasks[dst];
                if dst_task.wants(&env) {
                    dst_task.blocked = Blocked::No;
                    dst_task.runnable = true;
                    stats.wakes += 1;
                }
                dst_task.inbox.push(env);
            }
        }
        ready = tasks.iter().filter(|t| t.runnable).count();
        if cfg.timeline_every > 0 && stats.supersteps.is_multiple_of(cfg.timeline_every) {
            let live = tasks.iter().filter(|t| !t.done()).count();
            t_hi = tasks.iter().map(|t| t.core.now()).fold(t_hi, f64::max);
            sample(timeline, tasks, t_hi, ready, live);
        }
    }
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
