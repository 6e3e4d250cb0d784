//! Per-rank execution context: work charging and point-to-point messaging.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use netsim::Hockney;
use simcluster::units::Seconds;

use crate::envelope::{Envelope, INTERNAL_TAG_BASE};
use crate::rankcore::RankCore;
use crate::registry::{Registry, Verdict, WaitTarget};
use crate::runtime::RankAbort;
use crate::sched::{SchedGrant, SchedOp};
use crate::stats::Counters;
use crate::trace::{CommEvent, CommLog, CommOp};
use crate::world::World;

/// How often a blocked receive re-checks the wait-for graph.
const DEADLOCK_POLL: Duration = Duration::from_millis(10);

/// The handle a rank's program uses to charge work and communicate.
///
/// Created by [`crate::run`]; one per rank, owned by the rank's thread.
/// All execution-agnostic accounting lives in the embedded
/// [`RankCore`]; this type adds the thread-runtime transport (channels,
/// pending buffers, the deadlock-detection registry).
pub struct Ctx<'w> {
    pub(crate) core: RankCore<'w>,
    pub(crate) senders: Vec<Sender<Envelope>>,
    pub(crate) receivers: Vec<Receiver<Envelope>>,
    pub(crate) pending: Vec<VecDeque<Envelope>>,
    /// Next internal-collective sequence number (same on every rank because
    /// collectives execute in program order).
    pub(crate) coll_seq: u64,
    pub(crate) hockney: Hockney,
    pub(crate) registry: Arc<Registry>,
    pub(crate) comm: CommLog,
    pub(crate) vclock: Vec<u64>,
    /// Last stable deadlock observation `(verdict, chain progress)`.
    pub(crate) last_probe: Option<(Verdict, Vec<u64>)>,
}

impl<'w> Ctx<'w> {
    /// This rank's id, `0..size`.
    pub fn rank(&self) -> usize {
        self.core.rank
    }

    /// Number of ranks in the run.
    pub fn size(&self) -> usize {
        self.core.size
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.core.now()
    }

    /// The world this rank runs in.
    pub fn world(&self) -> &World {
        self.core.world
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> &Counters {
        &self.core.counters
    }

    // ------------------------------------------------------------------
    // Work charging (delegated to the shared rank core)
    // ------------------------------------------------------------------

    /// Charge `instructions` of on-chip computation (`Wc`): the CPU is busy
    /// for `instructions × tc` with `tc = CPI / f`; wall time is squeezed by
    /// the overlap factor.
    pub fn compute(&mut self, instructions: f64) {
        self.core.compute(instructions);
    }

    /// Charge `accesses` memory accesses against a working set of
    /// `working_set_bytes`.
    ///
    /// The cache model splits the accesses: the on-chip (cache-hit) share is
    /// compute time — the paper's Table 1 defines `tc` as *including on-chip
    /// caches and registers* — and is counted into `Wc` in instruction
    /// equivalents; only the DRAM share is charged as memory time and
    /// counted into `Wm` (that is what Perfmon's off-chip counters see).
    /// Cache latencies are core-clocked, so the on-chip time scales with
    /// `f_nominal / f` under DVFS; DRAM latency does not.
    ///
    /// This is where the simulator is richer than the model's flat `tm`,
    /// and why strong scaling (smaller per-rank working sets) yields the
    /// *negative* parallel memory overheads the paper fits for FT and CG.
    pub fn mem_access(&mut self, accesses: f64, working_set_bytes: u64) {
        self.core.mem_access(accesses, working_set_bytes);
    }

    /// Charge a *streaming* sweep that touches `element_touches` 8-byte-ish
    /// elements of a `working_set_bytes` working set.
    ///
    /// Streaming sweeps (vector updates, FFT passes, CSR traversal) move
    /// whole 64-byte cache lines and enjoy hardware prefetch, so the
    /// *countable* off-chip accesses — what Perfmon's miss counters see and
    /// what the model's `Wm` means — are ≈ 1/8 of the element touches.
    /// Random-access workloads should use [`Ctx::mem_access`] instead.
    pub fn mem_stream(&mut self, element_touches: f64, working_set_bytes: u64) {
        self.core.mem_stream(element_touches, working_set_bytes);
    }

    /// Charge `seconds` of flat local I/O (the paper's `T_IO`; NPB charges
    /// essentially none).
    pub fn io(&mut self, seconds: f64) {
        self.core.io(seconds);
    }

    /// Record a named phase marker at the current virtual time (consumed by
    /// the PowerPack analog for per-phase energy breakdowns). With tracing
    /// enabled the marker also opens a top-level phase span, closing the
    /// previous one.
    pub fn phase(&mut self, name: &str) {
        self.core.phase(name);
    }

    /// Run `body` inside a collective span named `name`, attributing the
    /// messages and bytes it generates to the collective's metrics. With
    /// observability disabled this is one branch on top of `body`.
    pub(crate) fn collective_scope<T>(
        &mut self,
        name: &'static str,
        body: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let scope = self.core.collective_begin(name);
        let out = body(self);
        self.core.collective_end(scope);
        out
    }

    // ------------------------------------------------------------------
    // Point-to-point messaging
    // ------------------------------------------------------------------

    /// Send `data` to rank `to` with a user `tag`.
    ///
    /// Eager semantics: returns after the NIC-busy time; the payload arrives
    /// at the receiver `ts + tw·bytes` after the send started.
    ///
    /// # Panics
    /// Panics on self-sends, out-of-range ranks, or tags ≥ 2³² (reserved
    /// for internal collectives).
    pub fn send<T: Send + 'static>(&mut self, to: usize, tag: u64, data: Vec<T>) {
        assert!(tag < INTERNAL_TAG_BASE, "user tags must be < 2^32");
        self.send_raw(to, tag, data, 2);
    }

    /// Receive the next message from rank `from` carrying `tag`.
    ///
    /// Blocks (in host time) until the message exists; in virtual time the
    /// rank waits — and logs an idle `Wait` segment — only if the arrival
    /// time is in its future.
    ///
    /// # Panics
    /// Panics if the payload's element type does not match `T`, or if the
    /// run deadlocks ([`crate::try_run`] turns that panic into a
    /// [`crate::RunError::Deadlock`] instead).
    pub fn recv<T: Send + 'static>(&mut self, from: usize, tag: u64) -> Vec<T> {
        assert!(tag < INTERNAL_TAG_BASE, "user tags must be < 2^32");
        self.recv_raw(from, tag)
    }

    /// Receive the next message carrying `tag` from *any* rank (the
    /// `MPI_ANY_SOURCE` analog). Returns the matched source and payload.
    ///
    /// Unlike [`Ctx::recv`], which is deterministic (per-pair channels are
    /// FIFO), the match order of `recv_any` genuinely depends on the
    /// schedule: two concurrent senders can be matched in either order.
    /// This is exactly the nondeterminism the `verify` crate's
    /// schedule-space explorer enumerates.
    ///
    /// # Panics
    /// Panics on tags ≥ 2³², payload type mismatches, or deadlock (under
    /// [`crate::try_run`] the latter becomes a [`crate::RunError`]).
    pub fn recv_any<T: Send + 'static>(&mut self, tag: u64) -> (usize, Vec<T>) {
        assert!(tag < INTERNAL_TAG_BASE, "user tags must be < 2^32");
        let source = self.permit(SchedOp::RecvAny { tag });
        let env = match source {
            // Controlled run: the scheduler resolved the wildcard to a
            // concrete source whose message is already in flight.
            Some(from) => self.take_envelope(from, tag),
            None => self.take_envelope_any(tag),
        };
        let from = env.src;
        let waited = self.core.account_recv(env.arrival_s);
        for (mine, theirs) in self.vclock.iter_mut().zip(&env.vc) {
            *mine = (*mine).max(*theirs);
        }
        self.vclock[self.core.rank] += 1;
        self.comm.events.push(CommEvent {
            op: CommOp::Recv { from },
            tag,
            bytes: env.bytes,
            time_s: self.now(),
            waited_s: waited.raw(),
            vc: self.vclock.clone(),
        });
        let payload = *env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving tag {tag} from rank {from} \
                     ({} bytes)",
                self.core.rank, env.bytes
            )
        });
        (from, payload)
    }

    /// Exchange with a partner: send `data`, then receive the partner's
    /// message with the same tag. Deadlock-free (sends never block).
    pub fn exchange<T: Send + 'static>(
        &mut self,
        partner: usize,
        tag: u64,
        data: Vec<T>,
    ) -> Vec<T> {
        assert!(tag < INTERNAL_TAG_BASE, "user tags must be < 2^32");
        self.exchange_raw(partner, tag, data, 2)
    }

    pub(crate) fn exchange_raw<T: Send + 'static>(
        &mut self,
        partner: usize,
        tag: u64,
        data: Vec<T>,
        concurrency: usize,
    ) -> Vec<T> {
        self.send_raw(partner, tag, data, concurrency);
        self.recv_raw(partner, tag)
    }

    /// Park in the world's scheduler hook (when installed) until `op` is
    /// granted. Returns the grant's wildcard-source choice. An `Abort`
    /// grant unwinds the rank with its partial trace, exactly like a
    /// deadlock abort; `try_run` reports [`crate::RunError::SchedulerAbort`].
    fn permit(&mut self, op: SchedOp) -> Option<usize> {
        let hook = self.core.world.sched.clone()?;
        match hook.permit(self.core.rank, op) {
            SchedGrant::Proceed { source } => source,
            SchedGrant::Abort => {
                self.registry.clear_blocked(self.core.rank);
                self.drain_unconsumed();
                let comm = std::mem::take(&mut self.comm);
                std::panic::panic_any(RankAbort { comm });
            }
        }
    }

    pub(crate) fn send_raw<T: Send + 'static>(
        &mut self,
        to: usize,
        tag: u64,
        data: Vec<T>,
        concurrency: usize,
    ) {
        assert!(
            to < self.core.size,
            "send to rank {to} of {}",
            self.core.size
        );
        assert!(
            to != self.core.rank,
            "self-sends are not allowed (rank {to})"
        );
        self.permit(SchedOp::Send { to, tag });
        let bytes = (std::mem::size_of::<T>() * data.len()) as u64;
        let h = self
            .core
            .world
            .contention
            .effective(&self.hockney, concurrency);
        let t_net = Seconds::new(h.p2p(bytes));
        let arrival = self.core.account_send(bytes, t_net);
        self.vclock[self.core.rank] += 1;
        self.comm.events.push(CommEvent {
            op: CommOp::Send { to },
            tag,
            bytes,
            time_s: self.now(),
            waited_s: 0.0,
            vc: self.vclock.clone(),
        });
        let env = Envelope {
            src: self.core.rank,
            tag,
            arrival_s: arrival.raw(), // full link time, not overlap-squeezed
            bytes,
            vc: self.vclock.clone(),
            payload: Box::new(data),
        };
        self.registry.note_send(self.core.rank, to);
        if self.senders[to].send(env).is_err() {
            self.abort_if_dead();
            panic!("receiver rank {to} hung up — did a rank panic?");
        }
    }

    pub(crate) fn recv_raw<T: Send + 'static>(&mut self, from: usize, tag: u64) -> Vec<T> {
        assert!(
            from < self.core.size,
            "recv from rank {from} of {}",
            self.core.size
        );
        assert!(from != self.core.rank, "self-receives are not allowed");
        self.permit(SchedOp::Recv { from, tag });
        let env = self.take_envelope(from, tag);
        let waited = self.core.account_recv(env.arrival_s);
        for (mine, theirs) in self.vclock.iter_mut().zip(&env.vc) {
            *mine = (*mine).max(*theirs);
        }
        self.vclock[self.core.rank] += 1;
        self.comm.events.push(CommEvent {
            op: CommOp::Recv { from },
            tag,
            bytes: env.bytes,
            time_s: self.now(),
            waited_s: waited.raw(),
            vc: self.vclock.clone(),
        });
        *env.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
            panic!(
                "rank {}: type mismatch receiving tag {tag} from rank {from} \
                     ({} bytes)",
                self.core.rank, env.bytes
            )
        })
    }

    /// Pull the first envelope from `from` matching `tag`, buffering any
    /// earlier non-matching messages. While the matching message has not
    /// arrived, the rank registers as blocked and participates in
    /// deadlock detection.
    fn take_envelope(&mut self, from: usize, tag: u64) -> Envelope {
        if let Some(pos) = self.pending[from].iter().position(|e| e.tag == tag) {
            return self.pending[from].remove(pos).expect("position exists");
        }
        self.registry.set_blocked(
            self.core.rank,
            WaitTarget {
                on: Some(from),
                tag,
            },
        );
        self.last_probe = None;
        loop {
            self.abort_if_dead();
            match self.receivers[from].recv_timeout(DEADLOCK_POLL) {
                Ok(env) => {
                    self.registry.note_drain(from, self.core.rank);
                    self.registry.bump_progress(self.core.rank);
                    self.last_probe = None;
                    if env.tag == tag {
                        self.registry.clear_blocked(self.core.rank);
                        return env;
                    }
                    self.pending[from].push_back(env);
                }
                Err(RecvTimeoutError::Timeout) => self.deadlock_check(),
                Err(RecvTimeoutError::Disconnected) => {
                    self.abort_if_dead();
                    // If the awaited sender *finished cleanly*, the message
                    // can never arrive: that is a communication bug (e.g. a
                    // mismatched tag), not a crash. Declare the run dead
                    // with the stuck chain so `try_run` reports it.
                    if let Some((verdict, _)) = self.registry.probe(self.core.rank) {
                        self.registry.declare_dead(verdict);
                        self.abort_if_dead();
                    }
                    panic!(
                        "rank {}: sender rank {from} hung up — did a rank panic?",
                        self.core.rank
                    );
                }
            }
        }
    }

    /// Pull the first envelope matching `tag` from *any* source, buffering
    /// non-matching messages. The blocked registration carries a wildcard
    /// target (`on: None`), so deadlock detection falls back to the
    /// registry's global terminal-state check.
    fn take_envelope_any(&mut self, tag: u64) -> Envelope {
        let sources: Vec<usize> = (0..self.core.size)
            .filter(|&s| s != self.core.rank)
            .collect();
        for &from in &sources {
            if let Some(pos) = self.pending[from].iter().position(|e| e.tag == tag) {
                return self.pending[from].remove(pos).expect("position exists");
            }
        }
        self.registry
            .set_blocked(self.core.rank, WaitTarget { on: None, tag });
        self.last_probe = None;
        loop {
            self.abort_if_dead();
            let mut drained = false;
            let mut disconnected = 0;
            for &from in &sources {
                loop {
                    match self.receivers[from].try_recv() {
                        Ok(env) => {
                            self.registry.note_drain(from, self.core.rank);
                            self.registry.bump_progress(self.core.rank);
                            self.last_probe = None;
                            drained = true;
                            if env.tag == tag {
                                self.registry.clear_blocked(self.core.rank);
                                return env;
                            }
                            self.pending[from].push_back(env);
                        }
                        Err(std::sync::mpsc::TryRecvError::Empty) => break,
                        Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                            disconnected += 1;
                            break;
                        }
                    }
                }
            }
            if drained {
                continue;
            }
            if disconnected == sources.len() {
                self.abort_if_dead();
                // Every possible sender hung up with no match buffered: the
                // awaited message can never arrive (see the sourced-receive
                // disconnect path above for the rationale).
                if let Some((verdict, _)) = self.registry.probe(self.core.rank) {
                    self.registry.declare_dead(verdict);
                    self.abort_if_dead();
                }
                panic!(
                    "rank {}: all senders hung up — did a rank panic?",
                    self.core.rank
                );
            }
            std::thread::sleep(DEADLOCK_POLL);
            self.deadlock_check();
        }
    }

    /// One deadlock-detection poll: walk the wait-for graph and declare the
    /// run dead when the same terminal chain is observed twice in a row
    /// with no progress on any chain member.
    fn deadlock_check(&mut self) {
        let Some((verdict, progress)) = self.registry.probe(self.core.rank) else {
            self.last_probe = None;
            return;
        };
        if let Some((prev_verdict, prev_progress)) = &self.last_probe {
            if *prev_verdict == verdict && *prev_progress == progress {
                self.registry.declare_dead(verdict.clone());
                self.abort_if_dead();
            }
        }
        self.last_probe = Some((verdict, progress));
    }

    /// Unwind this rank with its partial trace if the run has been declared
    /// dead. The payload is caught by [`crate::try_run`].
    fn abort_if_dead(&mut self) {
        if self.registry.is_dead() {
            self.registry.clear_blocked(self.core.rank);
            // Fold buffered-but-unmatched messages into the partial trace:
            // the analyzer infers tag mismatches from them.
            self.drain_unconsumed();
            let comm = std::mem::take(&mut self.comm);
            std::panic::panic_any(RankAbort { comm });
        }
    }

    /// Drain everything still sitting in this rank's inbox into the trace's
    /// `unconsumed` list (called when the rank aborts).
    pub(crate) fn drain_unconsumed(&mut self) {
        drain_inbox(
            &mut self.pending,
            &self.receivers,
            &mut self.comm.unconsumed,
        );
    }
}

/// Move every message still in a rank's inbox, buffered or in flight, to
/// `out` as `(src, tag, bytes)`, source by source.
pub(crate) fn drain_inbox(
    pending: &mut [VecDeque<Envelope>],
    receivers: &[Receiver<Envelope>],
    out: &mut Vec<(usize, u64, u64)>,
) {
    for (buffered, rx) in pending.iter_mut().zip(receivers) {
        let left = buffered.drain(..).chain(rx.try_iter());
        out.extend(left.map(|env| (env.src, env.tag, env.bytes)));
    }
}
