//! Shared run state for deadlock detection.
//!
//! Every rank registers in a [`Registry`] what it is blocked on; blocked
//! ranks periodically walk the wait-for graph. A run is declared dead when
//! a chain of blocked ranks either closes into a cycle or ends at a rank
//! that already finished, *and* the observation is stable across two
//! consecutive polls (no rank in the chain made progress in between) — the
//! stability requirement rules out transiently-observed chains while a
//! message is still being delivered by the host scheduler. A chain is also
//! never declared dead while any member still has an undelivered envelope
//! from the rank it waits on (per-channel send/drain counters): a starved
//! thread that simply hasn't been scheduled to pull its message must not
//! read as deadlocked, however long the host keeps it off-CPU.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::trace::WaitEdge;

/// What a blocked rank is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WaitTarget {
    /// The rank the message must come from; `None` for a wildcard receive
    /// (`recv_any`), which any rank's send could satisfy.
    pub on: Option<usize>,
    /// The tag the receive requires.
    pub tag: u64,
}

/// The verdict of a deadlock check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// Blocked chain starting at the detecting rank; a cycle starts at its
    /// lowest rank instead.
    pub edges: Vec<WaitEdge>,
    /// Whether the chain closes into a cycle (vs. ending at a finished rank).
    pub cyclic: bool,
}

/// Shared (across ranks of one run) deadlock-detection state.
pub(crate) struct Registry {
    /// Rank count of the run.
    p: usize,
    /// `blocked[r]` is `Some(target)` while rank `r` is inside a blocking
    /// receive with an empty matching inbox.
    blocked: Mutex<Vec<Option<WaitTarget>>>,
    /// Set once rank `r`'s program returned.
    finished: Vec<AtomicBool>,
    /// Incremented every time rank `r` pulls an envelope off a channel.
    progress: Vec<AtomicU64>,
    /// `sent[from * p + to]`: envelopes handed to the `from -> to` channel.
    sent: Vec<AtomicU64>,
    /// `drained[from * p + to]`: envelopes rank `to` pulled off that channel.
    drained: Vec<AtomicU64>,
    /// Set when a deadlock has been declared; all ranks must abort.
    dead: AtomicBool,
    /// The confirmed verdict (first writer wins).
    verdict: Mutex<Option<Verdict>>,
}

impl Registry {
    pub(crate) fn new(p: usize) -> Self {
        Self {
            p,
            blocked: Mutex::new(vec![None; p]),
            finished: (0..p).map(|_| AtomicBool::new(false)).collect(),
            progress: (0..p).map(|_| AtomicU64::new(0)).collect(),
            sent: (0..p * p).map(|_| AtomicU64::new(0)).collect(),
            drained: (0..p * p).map(|_| AtomicU64::new(0)).collect(),
            dead: AtomicBool::new(false),
            verdict: Mutex::new(None),
        }
    }

    /// Record an envelope handed to the `from -> to` channel. Called by the
    /// sender *before* the channel push, so [`Self::probe`] can never
    /// observe the channel as caught-up while an envelope is in flight.
    pub(crate) fn note_send(&self, from: usize, to: usize) {
        self.sent[from * self.p + to].fetch_add(1, Ordering::SeqCst);
    }

    /// Record rank `to` pulling an envelope off the `from -> to` channel.
    pub(crate) fn note_drain(&self, from: usize, to: usize) {
        self.drained[from * self.p + to].fetch_add(1, Ordering::SeqCst);
    }

    /// Whether the `from -> to` channel holds an envelope rank `to` has not
    /// yet pulled.
    fn undelivered(&self, from: usize, to: usize) -> bool {
        let idx = from * self.p + to;
        self.sent[idx].load(Ordering::SeqCst) > self.drained[idx].load(Ordering::SeqCst)
    }

    pub(crate) fn set_blocked(&self, rank: usize, target: WaitTarget) {
        self.blocked.lock().expect("registry poisoned")[rank] = Some(target);
    }

    pub(crate) fn clear_blocked(&self, rank: usize) {
        self.blocked.lock().expect("registry poisoned")[rank] = None;
    }

    pub(crate) fn mark_finished(&self, rank: usize) {
        self.finished[rank].store(true, Ordering::SeqCst);
    }

    pub(crate) fn bump_progress(&self, rank: usize) {
        self.progress[rank].fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    pub(crate) fn take_verdict(&self) -> Option<Verdict> {
        self.verdict.lock().expect("registry poisoned").clone()
    }

    /// Declare the run dead with `verdict` (first declaration wins).
    pub(crate) fn declare_dead(&self, verdict: Verdict) {
        let mut slot = self.verdict.lock().expect("registry poisoned");
        if slot.is_none() {
            *slot = Some(verdict);
        }
        drop(slot);
        self.dead.store(true, Ordering::SeqCst);
    }

    /// Walk the wait-for graph from `start`. Returns a candidate verdict
    /// plus the progress counters of the chain's ranks (for the stability
    /// check), or `None` when some rank on the chain is still runnable.
    pub(crate) fn probe(&self, start: usize) -> Option<(Verdict, Vec<u64>)> {
        let blocked = self.blocked.lock().expect("registry poisoned").clone();
        let mut chain: Vec<WaitEdge> = Vec::new();
        let mut on_chain = vec![false; blocked.len()];
        let mut cur = start;
        loop {
            let target = blocked[cur]?;
            let Some(on) = target.on else {
                // Wildcard receive: the chain walk cannot continue (any rank
                // could satisfy it), so fall back to a global check.
                return self.probe_wildcard(&blocked, chain, cur, target.tag);
            };
            // An envelope from the awaited rank already sits in `cur`'s
            // channel: `cur` will pull it as soon as the host scheduler runs
            // it, so the chain is not dead — it only *looks* stable because
            // a starved thread hasn't been scheduled between polls. Without
            // this check a loaded single-core host can false-positive on a
            // send that landed while both ranks were registered blocked.
            if self.undelivered(on, cur) {
                return None;
            }
            chain.push(WaitEdge {
                from_rank: cur,
                on_rank: Some(on),
                tag: target.tag,
            });
            if self.finished[on].load(Ordering::SeqCst) {
                let progress = self.chain_progress(&chain);
                return Some((
                    Verdict {
                        edges: chain,
                        cyclic: false,
                    },
                    progress,
                ));
            }
            on_chain[cur] = true;
            if on_chain[on] {
                // Trim the prefix that leads into (but is not part of) the
                // cycle so the reported edges are exactly the cycle, then
                // start it at its lowest rank: every member that probes
                // reports the same edges in the same order.
                let pos = chain
                    .iter()
                    .position(|e| e.from_rank == on)
                    .expect("cycle entry on chain");
                let mut cycle: Vec<WaitEdge> = chain[pos..].to_vec();
                let first = (0..cycle.len())
                    .min_by_key(|&i| cycle[i].from_rank)
                    .expect("a cycle has edges");
                cycle.rotate_left(first);
                let progress = self.chain_progress(&cycle);
                return Some((
                    Verdict {
                        edges: cycle,
                        cyclic: true,
                    },
                    progress,
                ));
            }
            cur = on;
        }
    }

    /// Global terminal-state check reached when the chain walk hits a
    /// wildcard receive at `cur`. A wildcard wait is only dead when *no*
    /// rank can ever satisfy it: either every other rank finished (stuck
    /// chain), or every unfinished rank is itself blocked with no envelope
    /// in flight toward any blocked rank (global deadlock).
    fn probe_wildcard(
        &self,
        blocked: &[Option<WaitTarget>],
        mut chain: Vec<WaitEdge>,
        cur: usize,
        tag: u64,
    ) -> Option<(Verdict, Vec<u64>)> {
        // Anything already in flight toward `cur` will wake it.
        if (0..self.p).any(|src| src != cur && self.undelivered(src, cur)) {
            return None;
        }
        chain.push(WaitEdge {
            from_rank: cur,
            on_rank: None,
            tag,
        });
        if (0..self.p)
            .filter(|&r| r != cur)
            .all(|r| self.finished[r].load(Ordering::SeqCst))
        {
            let progress = self.chain_progress(&chain);
            return Some((
                Verdict {
                    edges: chain,
                    cyclic: false,
                },
                progress,
            ));
        }
        // Global deadlock: every rank finished or blocked, and no blocked
        // rank has an undelivered envelope that could wake it.
        for (r, slot) in blocked.iter().enumerate() {
            if self.finished[r].load(Ordering::SeqCst) {
                continue;
            }
            if slot.is_none() {
                return None;
            }
            if (0..self.p).any(|src| src != r && self.undelivered(src, r)) {
                return None;
            }
        }
        for (r, slot) in blocked.iter().enumerate() {
            if r == cur
                || self.finished[r].load(Ordering::SeqCst)
                || chain.iter().any(|e| e.from_rank == r)
            {
                continue;
            }
            let t = slot.expect("unfinished ranks are blocked here");
            chain.push(WaitEdge {
                from_rank: r,
                on_rank: t.on,
                tag: t.tag,
            });
        }
        let progress = self.chain_progress(&chain);
        Some((
            Verdict {
                edges: chain,
                cyclic: true,
            },
            progress,
        ))
    }

    fn chain_progress(&self, edges: &[WaitEdge]) -> Vec<u64> {
        edges
            .iter()
            .map(|e| self.progress[e.from_rank].load(Ordering::SeqCst))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_finds_two_cycle() {
        let r = Registry::new(2);
        r.set_blocked(
            0,
            WaitTarget {
                on: Some(1),
                tag: 5,
            },
        );
        r.set_blocked(
            1,
            WaitTarget {
                on: Some(0),
                tag: 6,
            },
        );
        let (v, _) = r.probe(0).expect("cycle");
        assert!(v.cyclic);
        assert_eq!(v.edges.len(), 2);
        assert_eq!(
            v.edges[0],
            WaitEdge {
                from_rank: 0,
                on_rank: Some(1),
                tag: 5
            }
        );
        assert_eq!(
            v.edges[1],
            WaitEdge {
                from_rank: 1,
                on_rank: Some(0),
                tag: 6
            }
        );
    }

    #[test]
    fn probe_reports_chain_into_cycle_as_just_the_cycle() {
        let r = Registry::new(3);
        r.set_blocked(
            0,
            WaitTarget {
                on: Some(1),
                tag: 1,
            },
        );
        r.set_blocked(
            1,
            WaitTarget {
                on: Some(2),
                tag: 2,
            },
        );
        r.set_blocked(
            2,
            WaitTarget {
                on: Some(1),
                tag: 3,
            },
        );
        let (v, _) = r.probe(0).expect("cycle");
        assert!(v.cyclic);
        assert_eq!(v.edges.len(), 2, "prefix rank 0 is not part of the cycle");
        assert!(v.edges.iter().all(|e| e.from_rank != 0));
    }

    #[test]
    fn a_cycle_reads_the_same_from_each_of_its_ranks() {
        let r = Registry::new(3);
        for (rank, on) in [(0, 1), (1, 2), (2, 0)] {
            r.set_blocked(
                rank,
                WaitTarget {
                    on: Some(on),
                    tag: 10 + rank as u64,
                },
            );
        }
        let (first, _) = r.probe(0).expect("cycle");
        assert!(first.cyclic);
        assert_eq!(first.edges[0].from_rank, 0, "starts at the lowest rank");
        for start in 1..3 {
            let (v, _) = r.probe(start).expect("cycle");
            assert_eq!(v, first, "probed from rank {start}");
        }
    }

    #[test]
    fn undelivered_envelope_suppresses_the_verdict() {
        // Rank 1 sent to rank 0, then blocked on rank 0; rank 0 is blocked
        // on rank 1 but has not been scheduled to pull the envelope. The
        // apparent 0 <-> 1 cycle must NOT be reported until the envelope is
        // drained (at which point either rank 0 progresses or the cycle is
        // real).
        let r = Registry::new(2);
        r.set_blocked(
            0,
            WaitTarget {
                on: Some(1),
                tag: 5,
            },
        );
        r.note_send(1, 0);
        r.set_blocked(
            1,
            WaitTarget {
                on: Some(0),
                tag: 6,
            },
        );
        assert!(r.probe(0).is_none(), "in-flight envelope into rank 0");
        assert!(r.probe(1).is_none(), "same chain probed from rank 1");
        r.note_drain(1, 0);
        let (v, _) = r.probe(0).expect("drained channel, cycle is real");
        assert!(v.cyclic);
    }

    #[test]
    fn probe_detects_wait_on_finished_rank() {
        let r = Registry::new(2);
        r.mark_finished(0);
        r.set_blocked(
            1,
            WaitTarget {
                on: Some(0),
                tag: 7,
            },
        );
        let (v, _) = r.probe(1).expect("stuck");
        assert!(!v.cyclic);
        assert_eq!(
            v.edges,
            vec![WaitEdge {
                from_rank: 1,
                on_rank: Some(0),
                tag: 7
            }]
        );
    }

    #[test]
    fn probe_returns_none_while_a_chain_rank_runs() {
        let r = Registry::new(3);
        r.set_blocked(
            0,
            WaitTarget {
                on: Some(1),
                tag: 1,
            },
        );
        // Rank 1 is running (not blocked): no verdict.
        assert!(r.probe(0).is_none());
    }
}
