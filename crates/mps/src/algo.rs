//! The collectives' message schedules, written once.
//!
//! Each collective is a sequence of message-level [`Act`]s per rank, with
//! the algorithms 2010-era MPICH/MVAPICH used:
//!
//! * barrier — dissemination
//! * broadcast / reduce — binomial tree
//! * allreduce — recursive doubling (with pre/post folding for non-powers
//!   of two)
//! * allgather — ring
//! * all-to-all — pairwise exchange (XOR pairing for powers of two,
//!   rotation otherwise)
//!
//! Two interpreters run these schedules: [`crate::Ctx`]'s collectives move
//! real payloads along them, and `plan::TimedCursor` streams them as the
//! steps that static analysis and the `simrt` event engine consume. Both
//! therefore see the same peers, the same [`internal_tag`] rounds and the
//! same per-rank collective sequence numbers by construction.
//!
//! The logarithmic collectives ([`SmallColl`]) expand whole, `O(log p)`
//! actions per rank. The two O(p)-message collectives ([`BigColl`]) yield
//! one [`Exchange`] at a time from constant-size state, so a caller never
//! has to materialize the `p − 1` exchanges of a call.

use crate::envelope::internal_tag;

/// One message-level action of a collective, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// Send `(to, tag, bytes)`. `bytes` is the schedule's payload size;
    /// the thread runtime charges the size of the payload it really sends.
    Send(usize, u64, u64),
    /// Receive `(from, tag)`. Unless a [`Act::Combine`] follows, the
    /// received payload replaces the rank's working buffer.
    Recv(usize, u64),
    /// Combine the payload just received into the working buffer: one
    /// instruction of on-chip work per `f64` element.
    Combine(u64),
}

/// A logarithmic collective with its evaluated arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallColl {
    /// Dissemination barrier (zero-byte messages).
    Barrier,
    /// Binomial broadcast of `bytes` from `root`.
    Bcast {
        /// Root rank.
        root: usize,
        /// Payload bytes.
        bytes: u64,
    },
    /// Binomial reduction of `elems` `f64`s to `root`.
    Reduce {
        /// Root rank.
        root: usize,
        /// Elements per payload.
        elems: u64,
    },
    /// Recursive-doubling allreduce of `elems` `f64`s.
    AllReduce {
        /// Elements per payload.
        elems: u64,
    },
}

impl SmallColl {
    /// Emit rank `rank`'s actions in a world of `p`, drawing this call's
    /// sequence number from `coll_seq` before the first action. At
    /// `p == 1` there are no actions, and the barrier draws no sequence
    /// number either.
    #[inline]
    pub fn expand(self, p: usize, rank: usize, coll_seq: &mut u64, mut act: impl FnMut(Act)) {
        if p == 1 {
            if !matches!(self, Self::Barrier) {
                *coll_seq += 1;
            }
            return;
        }
        let seq = *coll_seq;
        *coll_seq += 1;
        match self {
            // Dissemination: round k sends to `rank + 2^k`.
            Self::Barrier => {
                let (mut round, mut dist) = (0u32, 1usize);
                while dist < p {
                    let tag = internal_tag(seq, round);
                    act(Act::Send((rank + dist) % p, tag, 0));
                    act(Act::Recv((rank + p - dist) % p, tag));
                    dist <<= 1;
                    round += 1;
                }
            }
            // Binomial tree: receive from the parent, then send to the
            // children, largest subtree first.
            Self::Bcast { root, bytes } => {
                let vrank = (rank + p - root) % p;
                let tag = internal_tag(seq, 0);
                let mut mask = 1usize;
                while mask < p {
                    if vrank & mask != 0 {
                        act(Act::Recv((rank + p - mask) % p, tag));
                        break;
                    }
                    mask <<= 1;
                }
                mask >>= 1;
                while mask > 0 {
                    if vrank + mask < p {
                        act(Act::Send((rank + mask) % p, tag, bytes));
                    }
                    mask >>= 1;
                }
            }
            // Binomial tree: combine each child's payload (8 bytes per
            // element), then send to the parent and stop.
            Self::Reduce { root, elems } => {
                let vrank = (rank + p - root) % p;
                let tag = internal_tag(seq, 0);
                let mut mask = 1usize;
                while mask < p {
                    if vrank & mask == 0 {
                        if (vrank | mask) < p {
                            act(Act::Recv(((vrank | mask) + root) % p, tag));
                            act(Act::Combine(elems));
                        }
                    } else {
                        let dst = ((vrank & !mask) + root) % p;
                        act(Act::Send(dst, tag, elems * 8));
                        return;
                    }
                    mask <<= 1;
                }
            }
            // Recursive doubling over the largest power of two `m`; ranks
            // `m..p` fold into `rank - m` first and get the result back.
            Self::AllReduce { elems } => {
                let bytes = elems * 8;
                let m = prev_power_of_two(p);
                if rank >= m {
                    act(Act::Send(rank - m, internal_tag(seq, 0), bytes));
                    act(Act::Recv(rank - m, internal_tag(seq, 63)));
                    return;
                }
                if rank < p - m {
                    act(Act::Recv(rank + m, internal_tag(seq, 0)));
                    act(Act::Combine(elems));
                }
                let (mut round, mut mask) = (1u32, 1usize);
                while mask < m {
                    let tag = internal_tag(seq, round);
                    act(Act::Send(rank ^ mask, tag, bytes));
                    act(Act::Recv(rank ^ mask, tag));
                    act(Act::Combine(elems));
                    mask <<= 1;
                    round += 1;
                }
                if rank < p - m {
                    act(Act::Send(rank + m, internal_tag(seq, 63), bytes));
                }
            }
        }
    }
}

/// Generator state of an in-flight O(p)-message collective — ring
/// allgather or pairwise all-to-all — yielding one [`Exchange`] at a time.
#[derive(Debug, Clone)]
pub struct BigColl {
    alltoall: bool,
    seq: u64,
    /// The next iteration.
    i: usize,
}

/// One exchange of a [`BigColl`]: send chunk `peer` to `to`, then receive
/// from `from` the chunk that fills slot `slot`, both under `tag`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exchange {
    /// Destination of the send.
    pub to: usize,
    /// Source of the receive.
    pub from: usize,
    /// Index of the chunk sent: its owner (allgather) or its destination
    /// (all-to-all).
    pub peer: usize,
    /// Index of the chunk received, by the same convention.
    pub slot: usize,
    /// Message tag of both halves.
    pub tag: u64,
}

impl BigColl {
    /// A ring allgather, drawing its sequence number from `coll_seq`.
    pub fn allgather(coll_seq: &mut u64) -> Self {
        Self::start(false, coll_seq)
    }

    /// A pairwise all-to-all, drawing its sequence number from `coll_seq`.
    pub fn alltoall(coll_seq: &mut u64) -> Self {
        Self::start(true, coll_seq)
    }

    /// Both draw a sequence number even at `p == 1`, where the call has no
    /// exchanges. Allgather iterates `0..p - 1`, all-to-all `1..p`.
    fn start(alltoall: bool, coll_seq: &mut u64) -> Self {
        let seq = *coll_seq;
        *coll_seq += 1;
        Self {
            alltoall,
            seq,
            i: usize::from(alltoall),
        }
    }

    /// The one chunk index in `0..p` that none of rank `rank`'s exchanges
    /// sends: its own chunk in an all-to-all, which stays local, and its
    /// right neighbour's in a ring allgather, which arrives last. Every
    /// other index is the [`Exchange::peer`] of exactly one exchange.
    #[must_use]
    pub fn kept(&self, p: usize, rank: usize) -> usize {
        if self.alltoall {
            rank
        } else {
            (rank + 1) % p
        }
    }

    /// Rank `rank`'s next exchange in a world of `p`, or `None` once the
    /// collective is complete.
    #[inline]
    pub fn next(&mut self, p: usize, rank: usize) -> Option<Exchange> {
        let i = self.i;
        let (to, from, peer, slot) = match self.alltoall {
            // Ring: the chunk owned by `rank - i` moves right, and the one
            // owned by `left - i` arrives.
            false if i + 1 < p => {
                let left = (rank + p - 1) % p;
                ((rank + 1) % p, left, (rank + p - i) % p, (left + p - i) % p)
            }
            // XOR pairing for powers of two, rotation otherwise; the own
            // chunk stays local.
            true if i < p && p.is_power_of_two() => (rank ^ i, rank ^ i, rank ^ i, rank ^ i),
            true if i < p => {
                let (to, from) = ((rank + i) % p, (rank + p - i) % p);
                (to, from, to, from)
            }
            _ => return None,
        };
        self.i += 1;
        Some(Exchange {
            to,
            from,
            peer,
            slot,
            tag: internal_tag(self.seq, u32::try_from(i).expect("round fits u32")),
        })
    }
}

/// The largest power of two not above `p`.
#[inline]
fn prev_power_of_two(p: usize) -> usize {
    assert!(p > 0);
    1usize << (usize::BITS - 1 - p.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each rank's exchanges send every chunk index but the kept one,
    /// once each.
    #[test]
    fn exchanges_send_every_chunk_but_the_kept_one() {
        for p in 1..=17 {
            for rank in 0..p {
                for mut c in [BigColl::allgather(&mut 0), BigColl::alltoall(&mut 0)] {
                    let mut sent = vec![0; p];
                    sent[c.kept(p, rank)] += 1;
                    while let Some(x) = c.next(p, rank) {
                        sent[x.peer] += 1;
                    }
                    assert!(sent.iter().all(|&n| n == 1), "p={p} rank={rank}: {sent:?}");
                }
            }
        }
    }

    #[test]
    fn prev_power_of_two_cases() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(2), 2);
        assert_eq!(prev_power_of_two(3), 2);
        assert_eq!(prev_power_of_two(8), 8);
        assert_eq!(prev_power_of_two(12), 8);
    }
}
