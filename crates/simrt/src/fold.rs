//! Folding repeated loop iterations: record one iteration's accounting as
//! a tape, then replay it.
//!
//! At aggregate detail, with no timeline and `world.obs` off, a rank's
//! state is its [`mps::RankCore`]: clock, counters, per-kind sums and
//! phase markers. Each step of a rank changes it through one of four
//! calls — [`mps::RankCore::apply`] for a work charge,
//! [`mps::RankCore::account_send`], [`mps::RankCore::account_recv`] and
//! [`mps::RankCore::phase`] (collective spans record nothing with `obs`
//! off) — whose inputs, for a loop the checker's rule accepts
//! ([`plan::foldable_loops`]), are the same in every iteration: the body
//! reads no loop variable of its own, and when every rank draws the same
//! number of tags and collective sequence numbers per iteration, later
//! iterations are the first with every tag relabelled one to one, so each
//! receive matches the relabelled image of the send it matched before.
//!
//! So between the repeat cut before iteration 0 and the one before
//! iteration 1 the engine records those calls' inputs, and at the second
//! cut calls them again `trips − 1` times. A send records its link time,
//! and its arrival is recomputed on replay; a receive records which send
//! it matched. Each rank sees its own calls in its own order, with the
//! same inputs, so every `f64` comes out bit for bit as interpreting
//! would leave it. The engine folds every loop of
//! [`plan::foldable_loops`]; the checker, which multiplies sums instead,
//! folds those whose sums it can multiply exactly (all of the NPB
//! plans').
//!
//! ## O(p)-message collectives
//!
//! An all-gather or all-to-all sends `p − 1` messages from every rank, so
//! taping them would make a tape `O(p²)` (33.5 M entries, about 0.4 GB,
//! for FT at `p = 4096`). Their exchanges follow from `(rank, round)`
//! ([`mps::algo::BigColl`]), so they stay off the tape. Each rank's other
//! calls are filed into *segment* `k`, `k` the number of such collectives
//! the rank has entered in the iteration, and the tape notes each rank's
//! size expression and loop variables for collective `k`. Replay plays
//! segment `k` in schedule order, then collective `k` round by round:
//! every rank's send of the round, bytes read from the size's
//! [`plan::PeerProduct`] when it splits into one and evaluated at
//! `(rank, peer)` otherwise, then every rank's receive of its `from`
//! peer's arrival. That keeps each rank's own order, and every receive
//! still follows the send it matched, given what the recording checks:
//! a taped receive matched a send of its own or an earlier segment, a
//! collective's receive matched the same round of the same collective
//! (equal tags say the same round, equal segments the same collective),
//! and all ranks ran the same kind as their `k`-th collective. A
//! recording that fails a check is never replayed. No rank can finish
//! such a collective before every rank entered it, so the NPB plans pass
//! them all. Memory stays `O(p)` per collective.
//!
//! ## Whole collectives at a cut
//!
//! The same round-by-round play ([`play_collective`]) prices a live
//! collective. Ranks park at every all-gather's and all-to-all's entrance
//! ([`plan::Step::CollHead`]); at a clean cut — every rank parked there, no
//! message in flight — with every rank at the same kind and sequence
//! number, and every rank's size evaluating at each of its peers
//! ([`plan::TimedCursor::coll_bytes`]), the engine plays it whole and
//! moves the cursors past its exchanges. Each rank still makes one
//! `account_send` and one `account_recv` per message, in its own order, and
//! each receive reads the arrival of the send it matches, so the clocks
//! come out bit for bit as stepping every message leaves them. Any other
//! collective cut changes nothing, and the ranks step the collective. A
//! recording under way is unaffected: the ranks tell the tape where the
//! collective begins and ends, as when they step it, and its replay plays
//! it round by round again.
//!
//! ## Nested loops
//!
//! Recordings form a stack, one per foldable loop whose iteration 0 is
//! being recorded, innermost last, and calls go to the innermost. When an
//! inner loop is done — folded, or its fold refused at a repeat cut — its
//! tape becomes one entry of the enclosing tape, "play this tape `n`
//! times" (`trips`, or 1), at that clean cut. So CG's outer loop replays
//! its seven later iterations, each playing the inner tape 25 times.

use std::collections::HashMap;
use std::hash::Hash;

use mps::algo::BigColl;
use mps::Charge;
use netsim::Hockney;
use plan::{CollKind, Env, Expr, FoldableLoop};
use simcluster::units::Seconds;
use simcluster::SegmentKind;

use crate::task::RankTask;

/// The send ordinal a delivery carries when its send was not taped: it
/// belongs to an O(p)-message collective.
const UNTAPED: u32 = u32::MAX;

/// What a tape entry does; its argument `i` is an index into the tape's
/// tables, which hold each distinct argument once.
#[derive(Debug, Clone, Copy)]
#[repr(u32)]
enum Call {
    /// [`mps::RankCore::apply`] of `charges[i]`.
    Charge,
    /// [`mps::RankCore::account_send`] of `links[i]`: the segment's next
    /// send.
    Send,
    /// [`mps::RankCore::account_recv`] of the arrival of the segment's
    /// `i`-th send.
    Recv,
    /// [`mps::RankCore::account_recv`] of the arrival of the send
    /// `earlier[i]` names, in an earlier segment.
    RecvEarlier,
    /// [`mps::RankCore::phase`] of `names[i]`.
    Phase,
    /// Every rank's calls of `nested[i]`, played its count of times.
    Nested,
}

/// Bits of [`Entry::arg`] below the call's kind.
const KIND_SHIFT: u32 = 29;

/// One [`Call`] of one rank in eight bytes: the rank, and the call's kind
/// in the top three bits of `arg` over its argument (an enum with these
/// fields would take twelve).
#[derive(Debug, Clone, Copy)]
struct Entry {
    rank: u32,
    arg: u32,
}

impl Entry {
    fn new(call: Call, rank: usize, i: usize) -> Self {
        let i = index32(i);
        assert!(i < 1 << KIND_SHIFT, "a tape index fits {KIND_SHIFT} bits");
        Self {
            rank: index32(rank),
            arg: (call as u32) << KIND_SHIFT | i,
        }
    }

    #[inline]
    fn call(self) -> Call {
        match self.arg >> KIND_SHIFT {
            0 => Call::Charge,
            1 => Call::Send,
            2 => Call::Recv,
            3 => Call::RecvEarlier,
            4 => Call::Phase,
            _ => Call::Nested,
        }
    }

    #[inline]
    fn arg(self) -> usize {
        (self.arg & ((1 << KIND_SHIFT) - 1)) as usize
    }
}

/// A rank's place in the recording.
#[derive(Debug, Clone, Copy, Default)]
struct Place {
    /// O(p)-message collectives entered: the segment its calls go to.
    seg: u32,
    /// Whether it is inside one.
    inside: bool,
}

/// The calls of ranks that entered the same number of O(p)-message
/// collectives, in schedule order.
#[derive(Debug, Default)]
struct Segment {
    entries: Vec<Entry>,
    sends: u32,
}

/// One O(p)-message collective of the recorded iteration.
#[derive(Debug)]
struct BigCall {
    kind: CollKind,
    /// Each rank's size expression and loop variables, as an index into
    /// the tape's `sizes`.
    sizes: Vec<u32>,
}

/// A collective's per-peer size expression and the loop variables it is
/// evaluated under.
#[derive(Debug)]
struct Size<'p> {
    bytes: &'p Expr,
    vars: Vec<i64>,
}

/// One iteration's accounting calls across all ranks.
#[derive(Debug)]
pub(crate) struct Tape<'p> {
    /// Segment `k`: the calls of ranks that had entered `k` O(p)-message
    /// collectives.
    segs: Vec<Segment>,
    /// The O(p)-message collectives, the `k`-th played after segment `k`.
    calls: Vec<BigCall>,
    places: Vec<Place>,
    /// The distinct charges, by their bits.
    charges: Interned<Charge, (SegmentKind, u64, u64)>,
    /// The distinct sends' `(bytes, link time)`, by their bits.
    links: Interned<(u64, Seconds), (u64, u64)>,
    /// The distinct collective sizes, by expression address and variables.
    sizes: Interned<Size<'p>, (usize, Vec<i64>)>,
    /// The phase names, one per phase entry.
    names: Vec<&'p str>,
    /// The sends, `(segment, ordinal)`, that receives in later segments
    /// matched.
    earlier: Vec<(u32, u32)>,
    /// Inner loops' tapes and how many times each plays.
    nested: Vec<(Tape<'p>, u64)>,
    /// Whether replaying by segments could reorder a receive before its
    /// send: then the tape is never replayed.
    broken: bool,
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
    fn new(p: usize) -> Self {
        Self {
            segs: vec![Segment::default()],
            calls: Vec::new(),
            places: vec![Place::default(); p],
            charges: Interned::default(),
            links: Interned::default(),
            sizes: Interned::default(),
            names: Vec::new(),
            earlier: Vec::new(),
            nested: Vec::new(),
            broken: false,
        }
    }

    fn push(&mut self, rank: usize, call: Call, i: u32) {
        let seg = self.places[rank].seg as usize;
        self.segs[seg]
            .entries
            .push(Entry::new(call, rank, i as usize));
    }

    pub(crate) fn charge(&mut self, rank: usize, c: Charge) {
        let key = (c.kind, c.work.raw().to_bits(), c.count.to_bits());
        let charge = self.charges.id(key, c);
        self.push(rank, Call::Charge, charge);
    }

    /// Record a send; its ordinal in its segment ([`UNTAPED`] inside an
    /// O(p)-message collective) and the segment, for the receive.
    pub(crate) fn send(&mut self, rank: usize, bytes: u64, t_net: Seconds) -> (u32, u32) {
        let place = self.places[rank];
        if place.inside {
            return (UNTAPED, place.seg);
        }
        let link = self
            .links
            .id((bytes, t_net.raw().to_bits()), (bytes, t_net));
        self.push(rank, Call::Send, link);
        let seg = &mut self.segs[place.seg as usize];
        seg.sends += 1;
        (seg.sends - 1, place.seg)
    }

    /// Record a receive of the send `(send, seg)` returned.
    pub(crate) fn recv(&mut self, rank: usize, (send, seg): (u32, u32)) {
        let place = self.places[rank];
        if place.inside {
            self.broken |= send != UNTAPED || seg != place.seg;
        } else if send == UNTAPED || seg > place.seg {
            self.broken = true;
        } else if seg == place.seg {
            self.push(rank, Call::Recv, send);
        } else {
            let i = index32(self.earlier.len());
            self.earlier.push((seg, send));
            self.push(rank, Call::RecvEarlier, i);
        }
    }

    pub(crate) fn phase(&mut self, rank: usize, name: &'p str) {
        let i = index32(self.names.len());
        self.names.push(name);
        self.push(rank, Call::Phase, i);
    }

    /// Rank `rank` enters an O(p)-message collective of `kind` whose
    /// chunk for a peer has size `bytes` under loop variables `vars`.
    pub(crate) fn enter(&mut self, rank: usize, kind: CollKind, bytes: &'p Expr, vars: &[i64]) {
        let k = self.places[rank].seg as usize;
        self.places[rank] = Place {
            seg: index32(k + 1),
            inside: true,
        };
        if k == self.calls.len() {
            let p = self.places.len();
            self.calls.push(BigCall {
                kind,
                sizes: vec![0; p],
            });
            self.segs.push(Segment::default());
        }
        let key = (std::ptr::from_ref(bytes) as usize, vars.to_vec());
        let vars = vars.to_vec();
        let size = self.sizes.id(key, Size { bytes, vars });
        let call = &mut self.calls[k];
        call.sizes[rank] = size;
        self.broken |= call.kind != kind;
    }

    /// Rank `rank` closes a collective span.
    pub(crate) fn coll_end(&mut self, rank: usize) {
        self.places[rank].inside = false;
    }

    /// Whether every rank went through every collective and nothing
    /// failed a check: the tape replays as it was recorded.
    fn replayable(&self) -> bool {
        let k = self.calls.len();
        !self.broken && self.places.iter().all(|pl| pl.seg as usize == k)
    }

    /// Play `inner` `times` times at this point of every rank's calls,
    /// all of which must be in one segment.
    fn nest(&mut self, inner: Tape<'p>, times: u64) {
        let seg = self.places[0].seg;
        self.broken |= !inner.replayable() || self.places.iter().any(|pl| pl.seg != seg);
        let entry = Entry::new(Call::Nested, 0, self.nested.len());
        self.segs[seg as usize].entries.push(entry);
        self.nested.push((inner, times));
    }

    /// Make every call again, `times` times over; collective messages go
    /// over `link`.
    fn replay(&self, tasks: &mut [RankTask<'p>], link: &Hockney, times: u64) {
        let (charges, links) = (&self.charges.items, &self.links.items);
        // Where each segment's sends start in `arrivals`.
        let starts: Vec<usize> = self
            .segs
            .iter()
            .scan(0, |at, seg| {
                let start = *at;
                *at += seg.sends as usize;
                Some(start)
            })
            .collect();
        let total = self.segs.iter().map(|seg| seg.sends as usize).sum();
        let mut arrivals = vec![0.0; total];
        for _ in 0..times {
            for (k, (seg, &start)) in self.segs.iter().zip(&starts).enumerate() {
                let mut sent = start;
                for &entry in &seg.entries {
                    let (core, i) = (&mut tasks[entry.rank as usize].core, entry.arg());
                    match entry.call() {
                        Call::Charge => core.apply(charges[i]),
                        Call::Send => {
                            let (bytes, t_net) = links[i];
                            arrivals[sent] = core.account_send(bytes, t_net).raw();
                            sent += 1;
                        }
                        Call::Recv => {
                            core.account_recv(arrivals[start + i]);
                        }
                        Call::RecvEarlier => {
                            let (seg, send) = self.earlier[i];
                            core.account_recv(arrivals[starts[seg as usize] + send as usize]);
                        }
                        Call::Phase => core.phase(self.names[i]),
                        Call::Nested => {
                            let (inner, n) = &self.nested[i];
                            inner.replay(tasks, link, *n);
                        }
                    }
                }
                if let Some(call) = self.calls.get(k) {
                    let size = |r: usize| {
                        let Size { bytes, vars } = &self.sizes.items[call.sizes[r] as usize];
                        (*bytes, &vars[..])
                    };
                    play_collective(call.kind, size, tasks, link);
                }
            }
        }
    }
}

/// Make the sends and receives of one all-gather or all-to-all of `kind`
/// over `link`, round by round: every rank's send, then every rank's
/// receive of its `from` peer's arrival. `size(r)` is rank `r`'s size
/// expression and loop variables, which must evaluate at every peer; a
/// size that is a [`plan::PeerProduct`] is read from its factors.
fn play_collective<'s>(
    kind: CollKind,
    size: impl Fn(usize) -> (&'s Expr, &'s [i64]),
    tasks: &mut [RankTask],
    link: &Hockney,
) {
    let p = tasks.len();
    #[allow(clippy::cast_possible_wrap)]
    let env = |r: usize, peer: Option<usize>| {
        let (_, vars) = size(r);
        Env {
            p: p as i64,
            rank: r as i64,
            peer: peer.map(|q| q as i64),
            vars,
        }
    };
    let products: Vec<_> = (0..p)
        .map(|r| size(r).0.peer_product(&env(r, None)))
        .collect();
    let mut gens: Vec<BigColl> = (0..p)
        .map(|_| match kind {
            CollKind::AllGather => BigColl::allgather(&mut 0),
            _ => BigColl::alltoall(&mut 0),
        })
        .collect();
    // Each rank's source and the arrival of its send, this round.
    let mut round = vec![(0usize, 0.0f64); p];
    loop {
        for (r, (gen, task)) in gens.iter_mut().zip(tasks.iter_mut()).enumerate() {
            let Some(x) = gen.next(p, r) else {
                return;
            };
            let bytes = match &products[r] {
                Some(product) => product.at(x.peer),
                None => size(r)
                    .0
                    .eval(&env(r, Some(x.peer)))
                    .ok()
                    .and_then(|b| u64::try_from(b).ok())
                    .expect("a size that evaluates at every peer"),
            };
            let t_net = Seconds::new(link.p2p(bytes));
            round[r] = (x.from, task.core.account_send(bytes, t_net).raw());
        }
        for (task, &(from, _)) in tasks.iter_mut().zip(&round) {
            task.core.account_recv(round[from].1);
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
    /// The recordings under way, each nested in the one before.
    stack: Vec<Recording<'p>>,
    /// Iterations added at a repeat cut rather than interpreted; those
    /// replayed inside an enclosing loop's replay are not counted again.
    pub(crate) folded_iterations: u64,
    /// Collectives played whole at a collective cut.
    pub(crate) whole_collectives: u64,
}

impl<'p> Folder<'p> {
    pub(crate) fn new(loops: &[FoldableLoop<'p>]) -> Self {
        Self {
            trips: loops.iter().map(|l| l.trips).collect(),
            parking: vec![true; loops.len()],
            stack: Vec::new(),
            folded_iterations: 0,
            whole_collectives: 0,
        }
    }

    /// The innermost tape being recorded, if any.
    pub(crate) fn tape(&mut self) -> Option<&mut Tape<'p>> {
        self.stack.last_mut().map(|r| &mut r.tape)
    }

    /// The schedule's cut with the ranks `parked` at loop heads or
    /// collective entrances (see [`plan::Effects::cut`]). At a clean cut
    /// with every rank at the same collective, play it whole
    /// ([`play_whole`]). At a repeat cut before iteration 0 of a
    /// loop, start recording; at the one before iteration 1 of the same
    /// instance, replay the tape for the remaining iterations over `link`
    /// (the collectives' link), move every rank past the loop, and hand
    /// the tape to the enclosing recording. Any other cut with a rank at a
    /// loop head drops every recording, and the parked ranks' loops are
    /// interpreted from then on; one with ranks at collectives only
    /// changes nothing, and they interpret the collective.
    pub(crate) fn cut(
        &mut self,
        tasks: &mut [RankTask<'p>],
        parked: &[usize],
        clean: bool,
        link: &Hockney,
        counts: Counts,
    ) {
        let head = |r: usize| tasks[r].cursor.loop_head();
        let Some((id, vars)) = parked.iter().find_map(|&r| head(r)) else {
            if clean && play_whole(tasks, link, counts) {
                self.whole_collectives += 1;
            }
            return;
        };
        if !(clean && parked.iter().all(|&r| head(r) == Some((id, vars)))) {
            for &r in parked {
                if let Some((i, _)) = head(r) {
                    self.parking[i] = false;
                }
            }
            self.stack.clear();
            return;
        }
        let vars = vars.to_vec();
        let (&iter, enclosing) = vars.split_last().expect("a loop variable");
        if iter == 0 {
            self.stack.push(Recording {
                id,
                counts: counts.each_ref().map(|c| **c),
                counters: tasks.iter().map(|t| t.cursor.counters()).collect(),
                vars,
                tape: Tape::new(tasks.len()),
            });
            return;
        }
        let Some(rec) = self
            .stack
            .pop()
            .filter(|r| iter == 1 && r.id == id && r.vars.split_last() == Some((&0, enclosing)))
        else {
            self.parking[id] = false;
            self.stack.clear();
            return;
        };
        let trips = self.trips[id];
        let m = trips - 1;
        let folded = if rec.tape.replayable() {
            rec.leave(tasks, m).zip(repeat(&rec.counts, &counts, m))
        } else {
            None
        };
        let times = if let Some((leave, after)) = folded {
            rec.tape.replay(tasks, link, m);
            for (task, (tags, seq)) in tasks.iter_mut().zip(leave) {
                task.cursor.leave_loop(tags, seq);
            }
            for (c, v) in counts.into_iter().zip(after) {
                *c = v;
            }
            self.folded_iterations += m;
            trips
        } else {
            self.parking[id] = false;
            1
        };
        if let Some(outer) = self.stack.last_mut() {
            outer.tape.nest(rec.tape, times);
        }
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

/// At a clean cut with every rank at a collective's entrance: when all
/// stand at the same all-gather or all-to-all (kind and sequence number)
/// and every rank's sizes evaluate, play its exchanges round by round over
/// `link`, advance `counts` by them as if they had been stepped, move the
/// cursors past it, and say so. Otherwise change nothing: the ranks
/// interpret it, and a size fault stops its rank at its exchange. While a
/// loop is recorded, its tape already holds the collective as it holds an
/// interpreted one: the ranks told it where it begins, and tell it where
/// it ends.
fn play_whole(tasks: &mut [RankTask], link: &Hockney, counts: Counts) -> bool {
    let first = tasks[0].cursor.coll_head();
    let Some((kind, _)) = first else { return false };
    if !tasks
        .iter()
        .all(|t| t.cursor.coll_head() == first && t.cursor.coll_bytes().is_some())
    {
        return false;
    }
    let sizes: Vec<(&Expr, Vec<i64>)> = tasks
        .iter()
        .map(|t| {
            let (bytes, vars) = t.cursor.big_collective().expect("at a collective");
            (bytes, vars.to_vec())
        })
        .collect();
    play_collective(kind, |r| (sizes[r].0, &sizes[r].1[..]), tasks, link);
    for task in tasks.iter_mut() {
        task.cursor.leave_collective();
    }
    let n = tasks.len() as u64 - 1;
    let [steps, sends, sched_steps, _wakes] = counts;
    *steps += 2 * n * (n + 1);
    *sends += n * (n + 1);
    *sched_steps += 2 * n * (n + 1);
    true
}

/// `now + m·(now − start)` for each counter; `None` on overflow.
fn repeat(start: &[u64; 4], now: &Counts, m: u64) -> Option<[u64; 4]> {
    let mut out = [0; 4];
    for ((o, &s), n) in out.iter_mut().zip(start).zip(now.iter()) {
        *o = n.checked_sub(s)?.checked_mul(m)?.checked_add(**n)?;
    }
    Some(out)
}
