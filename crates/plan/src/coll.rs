//! The collectives' message sequences, and the families they count under.
//!
//! Each algorithm mirrors `mps/src/collect.rs` line by line: the same
//! dissemination, binomial, recursive-doubling, ring and pairwise
//! exchanges, the same [`internal_tag`] sequencing (including which
//! collectives consume a sequence number before their `p == 1` early
//! return), and the same `combine` charges. [`crate::TimedCursor`] turns
//! the actions into the steps both `analyze_plan` and simrt consume.

use mps::internal_tag;

use crate::expr::Expr;

/// The collective families, for per-collective accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollKind {
    /// Dissemination barrier.
    Barrier,
    /// Binomial broadcast.
    Bcast,
    /// Binomial reduction.
    Reduce,
    /// Recursive-doubling allreduce.
    AllReduce,
    /// Ring allgather.
    AllGather,
    /// Pairwise-exchange all-to-all.
    AllToAll,
}

/// Number of collective families.
pub const COLL_KINDS: usize = 6;

impl CollKind {
    /// All families, in index order.
    pub const ALL: [CollKind; COLL_KINDS] = [
        CollKind::Barrier,
        CollKind::Bcast,
        CollKind::Reduce,
        CollKind::AllReduce,
        CollKind::AllGather,
        CollKind::AllToAll,
    ];

    /// Index into a `[T; COLL_KINDS]` table.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CollKind::Barrier => 0,
            CollKind::Bcast => 1,
            CollKind::Reduce => 2,
            CollKind::AllReduce => 3,
            CollKind::AllGather => 4,
            CollKind::AllToAll => 5,
        }
    }

    /// The span/metric name the `mps` runtime uses for this family.
    #[must_use]
    pub fn scope_name(self) -> &'static str {
        match self {
            CollKind::Barrier => "mps:barrier",
            CollKind::Bcast => "mps:bcast",
            CollKind::Reduce => "mps:reduce",
            CollKind::AllReduce => "mps:allreduce",
            CollKind::AllGather => "mps:allgather",
            CollKind::AllToAll => "mps:alltoall",
        }
    }
}

/// Per-family call/message/byte counters (the statics mirror of the
/// `mps.collective.<name>.*` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollStats {
    /// Collective invocations.
    pub calls: u64,
    /// Messages sent from this rank inside the family.
    pub messages: u64,
    /// Bytes sent from this rank inside the family.
    pub bytes: u64,
}

/// One message-level action of a collective, in the order `mps` runs it.
pub(crate) enum Act {
    /// Send `(to, tag, bytes)`.
    Send(usize, u64, u64),
    /// Receive `(from, tag)`.
    Recv(usize, u64),
    /// Combine a received payload of `f64` elements: one instruction each.
    Combine(u64),
}

/// A logarithmic collective with its evaluated arguments, expanded whole
/// (`O(log p)` actions per rank).
#[derive(Clone, Copy)]
pub(crate) enum SmallColl {
    Barrier,
    Bcast { root: usize, bytes: u64 },
    Reduce { root: usize, elems: u64 },
    AllReduce { elems: u64 },
}

impl SmallColl {
    pub(crate) fn kind(self) -> CollKind {
        match self {
            Self::Barrier => CollKind::Barrier,
            Self::Bcast { .. } => CollKind::Bcast,
            Self::Reduce { .. } => CollKind::Reduce,
            Self::AllReduce { .. } => CollKind::AllReduce,
        }
    }

    /// Emit rank `rank`'s actions, drawing this call's sequence number from
    /// `coll_seq` (the barrier returns before drawing one at `p == 1`).
    #[inline]
    pub(crate) fn expand(
        self,
        p: usize,
        rank: usize,
        coll_seq: &mut u64,
        mut act: impl FnMut(Act),
    ) {
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
/// allgather or pairwise all-to-all — yielding one exchange at a time, so
/// the cursor never materializes the `p − 1` exchanges of a call.
pub(crate) struct BigColl<'p> {
    /// [`CollKind::AllGather`] or [`CollKind::AllToAll`].
    pub(crate) kind: CollKind,
    seq: u64,
    /// The next iteration.
    i: usize,
    /// The per-peer size expression.
    pub(crate) bytes: &'p Expr,
}

/// One exchange of a [`BigColl`]: send `bytes` evaluated at `peer` to
/// `to`, then receive from `from`, both under `tag`.
pub(crate) struct Exchange {
    pub(crate) to: usize,
    pub(crate) from: usize,
    pub(crate) peer: i64,
    pub(crate) tag: u64,
}

impl<'p> BigColl<'p> {
    /// A call of `kind`, drawing its sequence number from `coll_seq` (as
    /// `mps` does, even at `p == 1`, where the call has no exchanges).
    pub(crate) fn new(kind: CollKind, coll_seq: &mut u64, bytes: &'p Expr) -> Self {
        let seq = *coll_seq;
        *coll_seq += 1;
        // Allgather iterates `0..p - 1`, all-to-all `1..p`.
        let i = usize::from(kind == CollKind::AllToAll);
        Self {
            kind,
            seq,
            i,
            bytes,
        }
    }

    /// Rank `rank`'s next exchange in a world of `p > 1`, or `None` once
    /// the collective is complete.
    pub(crate) fn next(&mut self, p: usize, rank: usize) -> Option<Exchange> {
        let i = self.i;
        let (to, from, peer) = match self.kind {
            // Ring: the chunk owned by `rank - i` moves right; sizes are
            // per owner.
            CollKind::AllGather if i < p - 1 => {
                ((rank + 1) % p, (rank + p - 1) % p, (rank + p - i) % p)
            }
            // XOR pairing for powers of two, rotation otherwise; the own
            // chunk is free.
            CollKind::AllToAll if i < p && p.is_power_of_two() => (rank ^ i, rank ^ i, rank ^ i),
            CollKind::AllToAll if i < p => ((rank + i) % p, (rank + p - i) % p, (rank + i) % p),
            _ => return None,
        };
        self.i += 1;
        Some(Exchange {
            to,
            from,
            peer: i64::try_from(peer).expect("rank fits i64"),
            tag: internal_tag(self.seq, u32::try_from(i).expect("round fits u32")),
        })
    }
}

fn prev_power_of_two(p: usize) -> usize {
    1usize << (usize::BITS - 1 - p.leading_zeros())
}
