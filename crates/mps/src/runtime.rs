//! Spawn and join simulated ranks; collect the run report.

use std::collections::VecDeque;
use std::sync::mpsc::channel;
use std::sync::{Arc, Once};

use simcluster::{ComponentEnergy, EnergyMeter, SegmentLog};

use crate::ctx::{drain_inbox, Ctx};
use crate::envelope::Envelope;
use crate::rankcore::RankCore;
use crate::registry::Registry;
use crate::stats::Counters;
use crate::trace::{CommLog, DeadlockInfo, RunError};
use crate::world::World;

/// What one rank produced.
#[derive(Debug, Clone)]
pub struct RankOutcome<R> {
    /// The rank id.
    pub rank: usize,
    /// The program's return value.
    pub result: R,
    /// Workload counters (`Wc`, `Wm`, `M`, `B`, `T_IO`).
    pub stats: Counters,
    /// Typed activity log for energy metering and power profiling.
    pub log: SegmentLog,
    /// Communication trace (sends/receives with vector clocks) for the
    /// `analyze` crate's communication-graph checker.
    pub comm: CommLog,
    /// Virtual finish time of the rank, seconds.
    pub finish_s: f64,
    /// Phase markers `(name, virtual time)` recorded via [`Ctx::phase`].
    pub markers: Vec<(String, f64)>,
    /// The rank's span track, present when the world ran with
    /// `obs.trace` enabled.
    pub track: Option<obs::TrackTrace>,
}

/// The result of a parallel run.
#[derive(Debug, Clone)]
pub struct RunReport<R> {
    /// Per-rank outcomes, indexed by rank.
    pub ranks: Vec<RankOutcome<R>>,
    /// The frequency the run used, Hz.
    pub f_hz: f64,
}

impl<R> RunReport<R> {
    /// The parallel span `Tp`: the latest rank finish time.
    pub fn span(&self) -> f64 {
        self.ranks.iter().map(|r| r.finish_s).fold(0.0, f64::max)
    }

    /// All-processor counter totals (the sums in the paper's Eqs. 15–16).
    pub fn total_counters(&self) -> Counters {
        Counters::total(self.ranks.iter().map(|r| &r.stats))
    }

    /// Borrow the per-rank activity logs.
    pub fn logs(&self) -> Vec<&SegmentLog> {
        self.ranks.iter().map(|r| &r.log).collect()
    }

    /// Borrow the per-rank communication traces.
    pub fn comm_logs(&self) -> Vec<&CommLog> {
        self.ranks.iter().map(|r| &r.comm).collect()
    }

    /// Measure the run's total energy on `world`'s node type — the
    /// simulator-side `Ep` the analytical model is validated against.
    pub fn energy(&self, world: &World) -> ComponentEnergy {
        let meter = EnergyMeter::new(world.cluster.node.clone(), self.f_hz);
        let logs: Vec<SegmentLog> = self.ranks.iter().map(|r| r.log.clone()).collect();
        meter.run_energy(&logs).0
    }

    /// Assemble the per-rank span tracks into an [`obs::Trace`] named
    /// `name`. `None` when the run was executed without tracing.
    pub fn trace(&self, name: &str) -> Option<obs::Trace> {
        let tracks: Vec<obs::TrackTrace> =
            self.ranks.iter().filter_map(|r| r.track.clone()).collect();
        if tracks.is_empty() {
            return None;
        }
        let mut trace = obs::Trace::new(name);
        trace.set_meta("ranks", &self.ranks.len().to_string());
        trace.set_meta("f_hz", &format!("{}", self.f_hz));
        for t in tracks {
            trace.push_track(t);
        }
        Some(trace)
    }

    /// Convert the communication logs into the neutral per-rank timelines
    /// `obs::profile::critical_path` consumes. Always available — the
    /// comm trace is recorded regardless of the obs configuration.
    pub fn profile_ranks(&self) -> Vec<obs::profile::RankData> {
        use crate::trace::CommOp;
        self.ranks
            .iter()
            .map(|r| obs::profile::RankData {
                rank: r.rank,
                finish_s: r.finish_s,
                comm: r
                    .comm
                    .events
                    .iter()
                    .map(|e| obs::profile::CommRec {
                        kind: match e.op {
                            CommOp::Send { to } => obs::profile::CommKind::Send { to },
                            CommOp::Recv { from } => obs::profile::CommKind::Recv { from },
                        },
                        tag: e.tag,
                        bytes: e.bytes,
                        time_s: e.time_s,
                        waited_s: e.waited_s,
                    })
                    .collect(),
            })
            .collect()
    }
}

/// Panic payload used to unwind a rank when the run is declared dead.
/// Caught in [`try_run`]; never escapes the crate.
pub(crate) struct RankAbort {
    pub comm: CommLog,
}

/// Install (once, process-wide) a panic hook that stays silent for
/// [`RankAbort`] unwinds — they are control flow, not failures — and
/// delegates everything else to the previous hook.
fn install_abort_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<RankAbort>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Run `program` on `p` simulated ranks over `world`.
///
/// Each rank executes `program(&mut ctx)` on its own thread with its own
/// virtual clock; the function returns when all ranks finish. Panics in any
/// rank propagate (the run aborts loudly rather than hanging).
///
/// # Panics
/// Panics if `p == 0`, if `p` exceeds the cluster's total cores, or if the
/// run deadlocks (use [`try_run`] to get the deadlock as an error value).
pub fn run<R, F>(world: &World, p: usize, program: F) -> RunReport<R>
where
    R: Send,
    F: Fn(&mut Ctx) -> R + Sync,
{
    match try_run(world, p, program) {
        Ok(report) => report,
        Err(err) => panic!("simulated run failed: {err}"),
    }
}

/// Like [`run`], but a deadlocked program returns
/// [`RunError::Deadlock`] — with the offending wait-for chain and the
/// partial communication traces — instead of panicking.
///
/// # Errors
/// Returns [`RunError::Deadlock`] when the ranks' wait-for graph reaches a
/// terminal state (a cycle of blocked receives, or a receive on a rank
/// that already finished without sending).
///
/// # Panics
/// Panics if `p == 0` or `p` exceeds the cluster's total cores, and
/// propagates panics of the rank programs themselves.
pub fn try_run<R, F>(world: &World, p: usize, program: F) -> Result<RunReport<R>, RunError>
where
    R: Send,
    F: Fn(&mut Ctx) -> R + Sync,
{
    assert!(p > 0, "need at least one rank");
    assert!(
        p <= world.cluster.total_cores(),
        "{p} ranks exceed {}'s {} cores",
        world.cluster.name,
        world.cluster.total_cores()
    );
    install_abort_hook();

    // One unbounded channel per ordered rank pair: txs[s][d] sends s -> d,
    // rxs[d][s] receives s -> d.
    let mut txs: Vec<Vec<std::sync::mpsc::Sender<Envelope>>> =
        (0..p).map(|_| Vec::with_capacity(p)).collect();
    let mut rxs: Vec<Vec<Option<std::sync::mpsc::Receiver<Envelope>>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    for s in 0..p {
        for rx_row in &mut rxs {
            let (tx, rx) = channel::<Envelope>();
            txs[s].push(tx);
            rx_row[s] = Some(rx);
        }
    }

    let hockney = world.hockney();
    let program = &program;
    let registry = Arc::new(Registry::new(p));

    let mut outcomes: Vec<Option<RankOutcome<R>>> = (0..p).map(|_| None).collect();
    let mut aborted: Vec<CommLog> = Vec::new();
    let mut inboxes = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (rank, rx_row) in rxs.into_iter().enumerate() {
            // Senders for this rank: the tx of channel rank -> d for each d.
            let my_senders: Vec<_> = (0..p).map(|d| txs[rank][d].clone()).collect();
            let receivers: Vec<_> = rx_row
                .into_iter()
                .map(|r| r.expect("every pair wired"))
                .collect();
            let registry = Arc::clone(&registry);
            let handle = scope.spawn(move || {
                let mut ctx = Ctx {
                    core: RankCore::new(rank, p, world, true),
                    senders: my_senders,
                    receivers,
                    pending: (0..p).map(|_| VecDeque::new()).collect(),
                    coll_seq: 0,
                    hockney,
                    registry: Arc::clone(&registry),
                    comm: CommLog::new(rank),
                    vclock: vec![0; p],
                    last_probe: None,
                };
                let result = program(&mut ctx);
                registry.mark_finished(rank);
                if let Some(hook) = &world.sched {
                    hook.rank_finished(rank);
                }
                let fin = ctx.core.finish();
                let outcome = RankOutcome {
                    rank,
                    result,
                    stats: fin.stats,
                    log: fin.log,
                    comm: ctx.comm,
                    finish_s: fin.finish_s,
                    markers: fin.markers,
                    track: fin.track,
                };
                // The inbox outlives the rank: a peer may still send to it,
                // and what nobody received is filed once every rank is done.
                (outcome, ctx.pending, ctx.receivers)
            });
            handles.push(handle);
        }
        // Drop the original senders: each rank now holds the only clones of
        // its outgoing channels, so a panicking rank disconnects its peers
        // (turning would-be hangs into loud failures).
        drop(txs);
        for handle in handles {
            match handle.join() {
                Ok((outcome, pending, receivers)) => {
                    let slot = outcome.rank;
                    outcomes[slot] = Some(outcome);
                    inboxes.push((slot, pending, receivers));
                }
                Err(payload) => match payload.downcast::<RankAbort>() {
                    Ok(abort) => aborted.push(abort.comm),
                    Err(payload) => std::panic::resume_unwind(payload),
                },
            }
        }
    });
    for (rank, mut pending, receivers) in inboxes {
        let comm = &mut outcomes[rank].as_mut().expect("joined rank").comm;
        drain_inbox(&mut pending, &receivers, &mut comm.unconsumed);
    }

    if let Some(verdict) = registry.take_verdict() {
        // Assemble the per-rank traces: completed ranks contribute full
        // logs, aborted ranks the partial logs carried by their unwind.
        let mut comm: Vec<CommLog> = (0..p).map(CommLog::new).collect();
        for o in outcomes.into_iter().flatten() {
            let rank = o.comm.rank;
            comm[rank] = o.comm;
        }
        for log in aborted {
            let rank = log.rank;
            comm[rank] = log;
        }
        // Forensics: every thread's recent spans/events, captured before
        // the error surfaces (the rank threads are already joined, but
        // their flight rings outlive them).
        obs::flight::record(
            "mps.deadlock",
            "event",
            0.0,
            &[
                ("cyclic", verdict.cyclic.to_string()),
                (
                    "edges",
                    verdict
                        .edges
                        .iter()
                        .map(|e| format!("{e:?}"))
                        .collect::<Vec<_>>()
                        .join(";"),
                ),
            ],
        );
        let _ = obs::flight::dump("mps-deadlock");
        return Err(RunError::Deadlock(DeadlockInfo {
            edges: verdict.edges,
            cyclic: verdict.cyclic,
            comm,
        }));
    }

    if !aborted.is_empty() {
        // Ranks unwound without a registry verdict: a scheduler hook tore
        // the run down (`SchedGrant::Abort`).
        let mut comm: Vec<CommLog> = (0..p).map(CommLog::new).collect();
        for o in outcomes.into_iter().flatten() {
            let rank = o.comm.rank;
            comm[rank] = o.comm;
        }
        for log in aborted {
            let rank = log.rank;
            comm[rank] = log;
        }
        return Err(RunError::SchedulerAbort { comm });
    }

    let report = RunReport {
        ranks: outcomes
            .into_iter()
            .map(|o| o.expect("every rank reported"))
            .collect(),
        f_hz: world.f_hz,
    };
    world.obs.write_trace_files("mps", || {
        report.trace(&format!(
            "{} p={} f={:.2}GHz",
            world.cluster.name,
            report.ranks.len(),
            world.f_hz / 1e9
        ))
    });
    Ok(report)
}
