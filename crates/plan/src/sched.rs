//! The plan schedule: the one run loop of the static checker
//! ([`crate::analyze_plan`]) and the `simrt` event engine. It owns which
//! rank runs, each rank's inbox, who is blocked on what, and the terminal
//! wait-for walk; what a rank's steps *do* is its user's [`Effects`],
//! monomorphized into the loop.
//!
//! * **Order.** A stack of ready ranks, seeded so that rank 0 runs first.
//!   A rank runs until it blocks on a receive, finishes, or faults; the
//!   ranks its sends woke run next, the last woken first.
//! * **Matching.** Sends are eager: the envelope lands in the receiver's
//!   inbox (arrival order, O(messages in flight)) before the sender's next
//!   step. A receive takes the oldest envelope from its source with its
//!   tag — exactly `mps`'s per-`(src, dst)` FIFO channels with tag
//!   skipping, since senders deposit in program order, without `mps`'s
//!   `p²` channels (16.7M at `p = 4096`). A send to a rank blocked on
//!   exactly that `(src, tag)` is received at once.
//! * **The wildcard rule.** A `RecvAny` takes from the **lowest** source
//!   holding its tag. A rank blocked on one is woken by any deposit with
//!   the tag and retries when it next runs, when more sources may hold
//!   it. Wildcard-free plans match the same envelopes under any order;
//!   for wildcard plans this order and rule are *the* schedule.
//! * **Parking.** A rank whose effects report it at a loop head
//!   ([`Step::LoopHead`]) or at the entrance of an all-gather or
//!   all-to-all ([`Step::CollHead`]) parks there until no rank is ready.
//!   Then the schedule hands the parked ranks to [`Effects::cut`], saying
//!   whether the cut is *clean* — every rank parked, no message in flight
//!   — and releases them in rank order. At clean cuts the checker and the
//!   simrt engine fold repeated loop iterations and price whole
//!   collectives (see [`crate::check`]); without heads the order is the
//!   one above.
//! * **Terminal analysis.** A rank still blocked when none is ready waits
//!   forever; [`Schedule::wait_for`] walks that wait-for graph once. A
//!   parked rank is never left behind: it is released first.

use mps::WaitEdge;

use crate::check::ShapeIssue;
use crate::timed::Step;

/// A message in an inbox: its sender, its tag, and what the schedule's
/// user carries with it.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<B> {
    /// Sending rank.
    pub src: usize,
    /// Message tag (user or internal-collective).
    pub tag: u64,
    /// The user's payload (bytes for the checker, timing for simrt).
    pub body: B,
}

/// One user's per-rank effects: what running a rank's steps means to it.
pub trait Effects<'p> {
    /// What an envelope carries besides its source and tag.
    type Body;

    /// Rank `r`'s next message step (`Send`, `Recv` or `RecvAny`), with
    /// every step before it applied, or a [`Step::LoopHead`] or
    /// [`Step::CollHead`] at which the rank parks; `Ok(None)` once its
    /// program is complete.
    ///
    /// # Errors
    /// The shape issue that stops the rank, handed to [`Effects::fault`].
    fn next_message(&mut self, r: usize) -> Result<Option<Step<'p>>, ShapeIssue>;

    /// Rank `r` sends `bytes` to `to` under `tag`: the body to deposit.
    fn send(&mut self, r: usize, to: usize, tag: u64, bytes: u64) -> Self::Body;

    /// Rank `r` receives `env`.
    fn recv(&mut self, r: usize, env: Envelope<Self::Body>);

    /// A shape issue stopped rank `r`; it never runs again.
    fn fault(&mut self, r: usize, issue: ShapeIssue);

    /// Rank `r`'s wildcard receive of `tag` takes from the first of
    /// `sources`: every source holding the tag, ascending.
    fn wildcard(&mut self, _r: usize, _tag: u64, _sources: &[usize]) {}

    /// Rank `r`'s run ended and the ranks it woke are queued.
    fn paused(&mut self, _r: usize, _load: Load) {}

    /// No rank is ready and the ranks `parked` (ascending, at least one)
    /// wait at loop heads or collective entrances; the schedule releases
    /// them in rank order once this returns. `clean`: every rank is parked
    /// and no message is in flight. `steps` and `wakes` are
    /// [`Schedule::steps`] and [`Schedule::wakes`], for effects that
    /// account for the iterations and exchanges they skip.
    fn cut(&mut self, _parked: &[usize], _clean: bool, _steps: &mut u64, _wakes: &mut u64) {}
}

/// The schedule's occupancy between two rank runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Load {
    /// Ranks queued to run.
    pub ready: usize,
    /// Ranks that have neither finished nor faulted.
    pub live: usize,
    /// Envelopes deposited and not yet received.
    pub in_flight: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Runnable; first retries the wildcard receive of this tag, if any.
    Ready(Option<u64>),
    Blocked(WaitEdge),
    /// At a loop head or a collective's entrance, until no rank is ready.
    Parked,
    Finished,
    Faulted,
}

/// One run of `p` ranks: the state [`Schedule::run`] leaves behind.
#[derive(Debug)]
pub struct Schedule<B> {
    status: Vec<Status>,
    inboxes: Vec<Vec<Envelope<B>>>,
    /// Occupancy at the end of the run.
    pub load: Load,
    /// Message steps executed: each send and each receive once, a
    /// wildcard receive once per try. So a wildcard-free run in which
    /// every message is received takes `2 × messages` steps.
    pub steps: u64,
    /// Blocked ranks woken by a deposit.
    pub wakes: u64,
}

impl<B> Schedule<B> {
    /// Run `p` ranks with `effects` until none is ready.
    ///
    /// # Panics
    /// Panics when `p == 0`.
    pub fn run<'p, E: Effects<'p, Body = B>>(p: usize, effects: &mut E) -> Self {
        assert!(p >= 1, "need at least one rank");
        let mut s = Self {
            status: vec![Status::Ready(None); p],
            inboxes: (0..p).map(|_| Vec::new()).collect(),
            load: Load {
                ready: p,
                live: p,
                in_flight: 0,
            },
            steps: 0,
            wakes: 0,
        };
        let mut ready: Vec<usize> = (0..p).rev().collect();
        let mut woken = Vec::new();
        loop {
            while let Some(r) = ready.pop() {
                s.run_rank(r, effects, &mut woken);
                ready.append(&mut woken);
                s.load.ready = ready.len();
                effects.paused(r, s.load);
            }
            let parked: Vec<usize> = (0..p).filter(|&r| s.status[r] == Status::Parked).collect();
            if parked.is_empty() {
                return s;
            }
            let clean = parked.len() == p && s.load.in_flight == 0;
            effects.cut(&parked, clean, &mut s.steps, &mut s.wakes);
            for &r in parked.iter().rev() {
                s.status[r] = Status::Ready(None);
                ready.push(r);
            }
            s.load.ready = ready.len();
        }
    }

    /// Run rank `r` until it blocks, finishes, or faults.
    fn run_rank<'p, E: Effects<'p, Body = B>>(
        &mut self,
        r: usize,
        effects: &mut E,
        woken: &mut Vec<usize>,
    ) {
        let Status::Ready(mut retry) = self.status[r] else {
            unreachable!("only ready ranks are queued")
        };
        loop {
            let next = match retry.take() {
                Some(tag) => Ok(Some(Step::RecvAny { tag })),
                None => effects.next_message(r),
            };
            let (from, tag) = match next {
                Ok(Some(Step::Send { to, tag, bytes })) => {
                    self.steps += 1;
                    let body = effects.send(r, to, tag, bytes);
                    let env = Envelope { src: r, tag, body };
                    match self.status[to] {
                        // The rendezvous fast path: `to`'s inbox holds no
                        // match, so this send is its FIFO match.
                        Status::Blocked(w) if w.tag == tag && w.on_rank == Some(r) => {
                            self.wake(to, None, woken);
                            effects.recv(to, env);
                            continue;
                        }
                        Status::Blocked(w) if w.tag == tag && w.on_rank.is_none() => {
                            self.wake(to, Some(tag), woken);
                        }
                        _ => {}
                    }
                    self.inboxes[to].push(env);
                    self.load.in_flight += 1;
                    continue;
                }
                Ok(Some(Step::Recv { from, tag })) => (Some(from), tag),
                Ok(Some(Step::RecvAny { tag })) => (None, tag),
                Ok(Some(Step::LoopHead(_) | Step::CollHead)) => {
                    self.status[r] = Status::Parked;
                    return;
                }
                Ok(Some(_)) => unreachable!("next_message yields message steps only"),
                Ok(None) => return self.stop(r, Status::Finished),
                Err(issue) => {
                    effects.fault(r, issue);
                    return self.stop(r, Status::Faulted);
                }
            };
            self.steps += 1;
            let inbox = &mut self.inboxes[r];
            let src = from.or_else(|| {
                let sources = sources(inbox, tag);
                let lowest = *sources.first()?;
                effects.wildcard(r, tag, &sources);
                Some(lowest)
            });
            let Some(env) = src.and_then(|src| take(inbox, src, tag)) else {
                let wait = WaitEdge {
                    from_rank: r,
                    on_rank: from,
                    tag,
                };
                self.status[r] = Status::Blocked(wait);
                return;
            };
            self.load.in_flight -= 1;
            effects.recv(r, env);
        }
    }

    fn stop(&mut self, r: usize, status: Status) {
        self.status[r] = status;
        self.load.live -= 1;
    }

    fn wake(&mut self, r: usize, retry: Option<u64>, woken: &mut Vec<usize>) {
        self.status[r] = Status::Ready(retry);
        self.wakes += 1;
        woken.push(r);
    }

    /// Whether every rank finished.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.status.iter().all(|s| *s == Status::Finished)
    }

    /// Rank `r`'s wait, if it is blocked.
    #[must_use]
    pub fn wait(&self, r: usize) -> Option<WaitEdge> {
        match self.status[r] {
            Status::Blocked(w) => Some(w),
            _ => None,
        }
    }

    /// What was deposited for rank `r` and never received, oldest first.
    #[must_use]
    pub fn inbox(&self, r: usize) -> &[Envelope<B>] {
        &self.inboxes[r]
    }

    /// The terminal wait-for graph, walked once: from each blocked rank in
    /// ascending order, along specific waits on ranks that are themselves
    /// blocked, until the walk closes a cycle, meets an earlier walk, or
    /// ends at a wait on a finished or faulted rank or a wildcard wait.
    #[must_use]
    pub fn wait_for(&self) -> WaitFor {
        let p = self.status.len();
        let mut wf = WaitFor::default();
        // 0 unvisited, 1 on the current walk, 2 done.
        let mut color = vec![0u8; p];
        let mut in_cycle = vec![false; p];
        for start in (0..p).filter(|&r| self.wait(r).is_some()) {
            let mut path: Vec<WaitEdge> = Vec::new();
            let mut cur = start;
            let closes = loop {
                if color[cur] != 0 {
                    break color[cur] == 1;
                }
                color[cur] = 1;
                let w = self.wait(cur).expect("walks visit blocked ranks only");
                path.push(w);
                match w.on_rank.filter(|&on| self.wait(on).is_some()) {
                    Some(on) => cur = on,
                    None => break false,
                }
            };
            if closes {
                // The path suffix from `cur` is the cycle.
                let pos = path
                    .iter()
                    .position(|w| w.from_rank == cur)
                    .expect("on path");
                for w in &path[pos..] {
                    in_cycle[w.from_rank] = true;
                }
                wf.cycles.push(path[pos..].to_vec());
            }
            for w in &path {
                color[w.from_rank] = 2;
            }
            if wf.chain.is_empty() {
                wf.chain = path;
            }
        }
        wf.stranded = (0..p)
            .filter(|&r| !in_cycle[r])
            .filter_map(|r| self.wait(r))
            .collect();
        wf
    }
}

/// Remove the oldest envelope from `src` with `tag`: per-source FIFO with
/// tag skipping.
fn take<B>(inbox: &mut Vec<Envelope<B>>, src: usize, tag: u64) -> Option<Envelope<B>> {
    let i = inbox.iter().position(|e| e.src == src && e.tag == tag)?;
    Some(inbox.remove(i))
}

/// The distinct sources holding an envelope with `tag`, ascending: the
/// wildcard rule takes the first.
fn sources<B>(inbox: &[Envelope<B>], tag: u64) -> Vec<usize> {
    let mut s: Vec<usize> = inbox
        .iter()
        .filter(|e| e.tag == tag)
        .map(|e| e.src)
        .collect();
    s.sort_unstable();
    s.dedup();
    s
}

/// The terminal wait-for graph of a run ([`Schedule::wait_for`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitFor {
    /// Every circular wait, in the order the walks close them, each in
    /// wait order: every edge's `on_rank` is the next edge's `from_rank`,
    /// and the last edge's is the first's.
    pub cycles: Vec<Vec<WaitEdge>>,
    /// The blocked ranks on no cycle, ascending.
    pub stranded: Vec<WaitEdge>,
    /// The walk from the lowest blocked rank, in wait order.
    chain: Vec<WaitEdge>,
}

impl WaitFor {
    /// The one witness of a deadlock and whether it is cyclic: the first
    /// cycle; otherwise the chain from the lowest blocked rank to a wait
    /// on a finished rank or a wildcard wait.
    #[must_use]
    pub fn witness(mut self) -> (Vec<WaitEdge>, bool) {
        if self.cycles.is_empty() {
            (self.chain, false)
        } else {
            (self.cycles.swap_remove(0), true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: u64) -> Envelope<()> {
        Envelope { src, tag, body: () }
    }

    #[test]
    fn specific_receives_skip_tags_but_keep_per_source_order() {
        let mut inbox = vec![env(1, 5), env(2, 6), env(1, 6), env(1, 6)];
        // The oldest (1, 6) is behind a (1, 5) and a (2, 6).
        assert_eq!(take(&mut inbox, 1, 6), Some(env(1, 6)));
        assert_eq!(take(&mut inbox, 3, 6), None);
        // Ascending and distinct, although the (2, 6) arrived first.
        assert_eq!(sources(&inbox, 6), vec![1, 2]);
        assert_eq!(inbox, vec![env(1, 5), env(2, 6), env(1, 6)]);
    }
}
