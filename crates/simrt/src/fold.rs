//! Folding repeated loop iterations: record one iteration's accounting as
//! a tape, then replay it.
//!
//! At aggregate detail, with no timeline and `world.obs` off, a rank's
//! state is its [`mps::RankCore`]: clock, counters, per-kind sums and
//! phase markers. Each step of a rank changes it through one of four
//! calls — [`mps::RankCore::apply`] for a work charge,
//! [`mps::RankCore::account_send`], [`mps::RankCore::account_recv`] and
//! [`mps::RankCore::phase`] (collective spans record nothing with `obs`
//! off) — whose inputs, for a loop the checker's rule
//! accepts ([`plan::foldable_loops`]), are the same in every iteration:
//! the body reads no loop variable of its own, and when every rank draws
//! the same number of tags and collective sequence numbers per iteration,
//! later iterations are the first with every tag relabelled one to one,
//! so each receive matches the relabelled image of the send it matched
//! before.
//!
//! So between the repeat cut before iteration 0 and the one before
//! iteration 1 the engine records those calls' inputs in the order the
//! schedule made them, and at the second cut calls them again `trips − 1`
//! times. A send records its link time, and its arrival is recomputed on
//! replay; a receive records which send it matched, which comes earlier
//! on the tape. Each rank sees its own calls in its own order, with the
//! same inputs, so every `f64` comes out bit for bit as interpreting
//! would leave it.
//!
//! The engine folds the innermost of those loops whose body holds no
//! O(p)-message collective (all-gather, all-to-all): a tape holds one
//! entry per step of one iteration across all ranks, `O(p log p)` for
//! the logarithmic collectives but `O(p²)` for an all-to-all (33.5 M
//! entries, about 0.4 GB, for FT at `p = 4096`). CG's inner loop folds;
//! FT is interpreted.

use std::collections::HashMap;
use std::hash::Hash;

use mps::Charge;
use plan::{CommPlan, FoldableLoop, Op};
use simcluster::units::Seconds;
use simcluster::SegmentKind;

use crate::task::RankTask;

/// The loops the engine folds: of [`plan::foldable_loops`], those with no
/// other such loop and no O(p)-message collective in their body.
pub(crate) fn engine_loops(plan: &CommPlan) -> Vec<FoldableLoop<'_>> {
    let all = plan::foldable_loops(plan);
    all.iter()
        .filter(|l| !has_big_collective(l.body) && !all.iter().any(|m| nests(l.body, m.op)))
        .copied()
        .collect()
}

/// Whether `op` (by address) lies anywhere inside `ops`.
fn nests(ops: &[Op], op: &Op) -> bool {
    ops.iter().any(|o| {
        std::ptr::eq(o, op)
            || match o {
                Op::Loop { body, .. } => nests(body, op),
                Op::IfElse { then, els, .. } => nests(then, op) || nests(els, op),
                _ => false,
            }
    })
}

/// Whether `ops` hold an all-gather or an all-to-all.
fn has_big_collective(ops: &[Op]) -> bool {
    ops.iter().any(|o| match o {
        Op::AllGather { .. } | Op::AllToAll { .. } => true,
        Op::Loop { body, .. } => has_big_collective(body),
        Op::IfElse { then, els, .. } => has_big_collective(then) || has_big_collective(els),
        _ => false,
    })
}

/// One accounting call of one rank; its argument is an index into the
/// tape's tables, which hold each distinct argument once (twelve bytes an
/// entry, where the arguments inline would take 32).
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// [`mps::RankCore::apply`] of `charges[charge]`.
    Charge { rank: u32, charge: u32 },
    /// [`mps::RankCore::account_send`] of `links[link]`.
    Send { rank: u32, link: u32 },
    /// [`mps::RankCore::account_recv`] of the arrival of the `send`-th
    /// send on the tape.
    Recv { rank: u32, send: u32 },
    /// [`mps::RankCore::phase`] of `names[name]`.
    Phase { rank: u32, name: u32 },
}

/// One iteration's accounting calls across all ranks, in schedule order.
#[derive(Debug, Default)]
pub(crate) struct Tape<'p> {
    entries: Vec<Entry>,
    /// The distinct charges, by their bits.
    charges: Interned<Charge, (SegmentKind, u64, u64)>,
    /// The distinct sends' `(bytes, link time)`, by their bits.
    links: Interned<(u64, Seconds), (u64, u64)>,
    /// The phase names, one per phase entry.
    names: Vec<&'p str>,
    sends: u32,
}

/// Values stored once each, found by a key of their bits.
#[derive(Debug)]
struct Interned<T, K> {
    items: Vec<T>,
    ids: HashMap<K, u32>,
}

impl<T, K> Default for Interned<T, K> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            ids: HashMap::new(),
        }
    }
}

impl<T, K: Hash + Eq> Interned<T, K> {
    /// The index of the value `key` names, storing `item` the first time.
    fn id(&mut self, key: K, item: T) -> u32 {
        let items = &mut self.items;
        *self.ids.entry(key).or_insert_with(|| {
            items.push(item);
            index32(items.len() - 1)
        })
    }
}

fn index32(i: usize) -> u32 {
    u32::try_from(i).expect("a tape index fits u32")
}

impl<'p> Tape<'p> {
    pub(crate) fn charge(&mut self, rank: usize, c: Charge) {
        let key = (c.kind, c.work.raw().to_bits(), c.count.to_bits());
        let charge = self.charges.id(key, c);
        let rank = index32(rank);
        self.entries.push(Entry::Charge { rank, charge });
    }

    /// Record a send; its ordinal on the tape, for the receive.
    pub(crate) fn send(&mut self, rank: usize, bytes: u64, t_net: Seconds) -> u32 {
        let link = self
            .links
            .id((bytes, t_net.raw().to_bits()), (bytes, t_net));
        let rank = index32(rank);
        self.entries.push(Entry::Send { rank, link });
        self.sends += 1;
        self.sends - 1
    }

    pub(crate) fn recv(&mut self, rank: usize, send: u32) {
        let rank = index32(rank);
        self.entries.push(Entry::Recv { rank, send });
    }

    pub(crate) fn phase(&mut self, rank: usize, name: &'p str) {
        let (rank, name_id) = (index32(rank), index32(self.names.len()));
        self.names.push(name);
        self.entries.push(Entry::Phase {
            rank,
            name: name_id,
        });
    }

    /// Make every call again, `times` times over.
    fn replay(&self, tasks: &mut [RankTask<'p>], times: u64) {
        let (charges, links) = (&self.charges.items, &self.links.items);
        let mut arrivals = vec![0.0; self.sends as usize];
        for _ in 0..times {
            let mut sent = 0;
            for entry in &self.entries {
                match *entry {
                    Entry::Charge { rank, charge } => {
                        tasks[rank as usize].core.apply(charges[charge as usize]);
                    }
                    Entry::Send { rank, link } => {
                        let (bytes, t_net) = links[link as usize];
                        let arrival = tasks[rank as usize].core.account_send(bytes, t_net);
                        arrivals[sent] = arrival.raw();
                        sent += 1;
                    }
                    Entry::Recv { rank, send } => {
                        tasks[rank as usize]
                            .core
                            .account_recv(arrivals[send as usize]);
                    }
                    Entry::Phase { rank, name } => {
                        tasks[rank as usize].core.phase(self.names[name as usize]);
                    }
                }
            }
        }
    }
}

/// The counters a fold advances as if the folded iterations had run: the
/// engine's steps and sends, and the schedule's message steps and wakes.
pub(crate) type Counts<'c> = [&'c mut u64; 4];

/// The recording of one loop instance's iteration 0.
struct Recording<'p> {
    /// The loop's index among the cursors' heads.
    id: usize,
    /// The loop variables at the cut, this loop's iteration (0) last.
    vars: Vec<i64>,
    tape: Tape<'p>,
    /// [`Counts`] at the cut.
    counts: [u64; 4],
    /// Each rank's tag draws and collective sequence numbers at the cut.
    counters: Vec<(u64, u64)>,
}

/// The folding state of one run.
pub(crate) struct Folder<'p> {
    /// Trip counts of the loops, indexed like the cursors' heads.
    trips: Vec<u64>,
    /// Whether ranks still park at each loop's heads.
    pub(crate) parking: Vec<bool>,
    rec: Option<Recording<'p>>,
    /// Iterations replayed rather than interpreted.
    pub(crate) folded_iterations: u64,
}

impl<'p> Folder<'p> {
    pub(crate) fn new(loops: &[FoldableLoop<'p>]) -> Self {
        Self {
            trips: loops.iter().map(|l| l.trips).collect(),
            parking: vec![true; loops.len()],
            rec: None,
            folded_iterations: 0,
        }
    }

    /// The tape being recorded, if any.
    pub(crate) fn tape(&mut self) -> Option<&mut Tape<'p>> {
        self.rec.as_mut().map(|r| &mut r.tape)
    }

    /// The schedule's cut with the ranks `parked` at loop heads (see
    /// [`plan::Effects::cut`]). At a repeat cut before iteration 0, start
    /// recording; at the one before iteration 1 of the same instance,
    /// replay the tape for the remaining iterations and move every rank
    /// past the loop. Any other cut drops the recording, and its loops
    /// are interpreted from then on.
    pub(crate) fn cut(
        &mut self,
        tasks: &mut [RankTask<'p>],
        parked: &[usize],
        clean: bool,
        counts: Counts,
    ) {
        let head = |r: usize| tasks[r].cursor.loop_head().expect("parked at a loop head");
        let (id, vars) = head(parked[0]);
        if !(clean && parked.iter().all(|&r| head(r) == (id, vars))) {
            for &r in parked {
                self.parking[head(r).0] = false;
            }
            self.rec = None;
            return;
        }
        let vars = vars.to_vec();
        let (&iter, enclosing) = vars.split_last().expect("a loop variable");
        let rec = self.rec.take();
        if iter == 0 {
            self.rec = Some(Recording {
                id,
                counts: counts.each_ref().map(|c| **c),
                counters: tasks.iter().map(|t| t.cursor.counters()).collect(),
                vars,
                tape: Tape::default(),
            });
            return;
        }
        let m = self.trips[id] - 1;
        let folded = rec
            .filter(|r| iter == 1 && r.id == id && r.vars.split_last() == Some((&0, enclosing)))
            .and_then(|r| Some((r.leave(tasks, m)?, repeat(&r.counts, &counts, m)?, r.tape)));
        let Some((leave, after, tape)) = folded else {
            self.parking[id] = false;
            return;
        };
        tape.replay(tasks, m);
        for (task, (tags, seq)) in tasks.iter_mut().zip(leave) {
            task.cursor.leave_loop(tags, seq);
        }
        for (c, v) in counts.into_iter().zip(after) {
            *c = v;
        }
        self.folded_iterations += m;
    }
}

impl Recording<'_> {
    /// Each rank's tag draws and sequence numbers after `m` more
    /// iterations, when every rank drew the same in iteration 0 (so the
    /// later iterations relabel its tags one to one) and they fit, the
    /// sequence numbers within [`mps::MAX_COLL_SEQ`] (past it a collective
    /// is a shape issue, which the interpreted run finds).
    fn leave(&self, tasks: &[RankTask], m: u64) -> Option<Vec<(u64, u64)>> {
        let delta = |(t0, s0): (u64, u64), (t1, s1): (u64, u64)| {
            Some((t1.checked_sub(t0)?, s1.checked_sub(s0)?))
        };
        let step = delta(self.counters[0], tasks[0].cursor.counters())?;
        self.counters
            .iter()
            .zip(tasks)
            .map(|(&start, task)| {
                let now = task.cursor.counters();
                if delta(start, now)? != step {
                    return None;
                }
                let seq = step.1.checked_mul(m)?.checked_add(now.1)?;
                (seq <= mps::MAX_COLL_SEQ + 1)
                    .then_some((step.0.checked_mul(m)?.checked_add(now.0)?, seq))
            })
            .collect()
    }
}

/// `now + m·(now − start)` for each counter; `None` on overflow.
fn repeat(start: &[u64; 4], now: &Counts, m: u64) -> Option<[u64; 4]> {
    let mut out = [0; 4];
    for ((o, &s), n) in out.iter_mut().zip(start).zip(now.iter()) {
        *o = n.checked_sub(s)?.checked_mul(m)?.checked_add(**n)?;
    }
    Some(out)
}
