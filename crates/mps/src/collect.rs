//! Collective operations on real payloads.
//!
//! Each collective interprets its message schedule from [`crate::algo`],
//! moving typed payloads along the schedule's sends and receives. Because
//! they are built from real point-to-point messages, collective *skew*
//! (ranks arriving at different virtual times) propagates exactly as on a
//! real machine — one of the behaviours the paper's analytical model
//! approximates away.

use crate::algo::{Act, BigColl, SmallColl};
use crate::ctx::Ctx;

/// Element-wise reduction operators for the typed collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    fn combine(self, acc: &mut [f64], other: &[f64]) {
        debug_assert_eq!(acc.len(), other.len());
        match self {
            ReduceOp::Sum => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a += *b;
                }
            }
            ReduceOp::Max => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.max(*b);
                }
            }
            ReduceOp::Min => {
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = a.min(*b);
                }
            }
        }
    }
}

/// Stand-in for [`ReduceOp::combine`] in collectives without a reduction.
fn no_combine<T>(_: &mut [T], _: &[T]) {
    unreachable!("only reductions combine");
}

impl<'w> Ctx<'w> {
    /// Dissemination barrier: `ceil(log2 p)` rounds of zero-payload
    /// exchanges. After it returns, every rank's clock is at least the
    /// latest pre-barrier clock (synchronization waits are logged).
    pub fn barrier(&mut self) {
        self.collective_scope("mps:barrier", |c| {
            c.run_small::<u8>(SmallColl::Barrier, Vec::new(), no_combine);
        });
    }

    /// Binomial-tree broadcast of `data` from `root`. Every rank returns the
    /// broadcast vector (the root returns its own input).
    pub fn bcast<T: Send + Clone + 'static>(&mut self, root: usize, data: Vec<T>) -> Vec<T> {
        let bytes = (std::mem::size_of::<T>() * data.len()) as u64;
        self.collective_scope("mps:bcast", |c| {
            assert!(root < c.size(), "broadcast root {root} out of range");
            c.run_small(SmallColl::Bcast { root, bytes }, data, no_combine)
                .0
        })
    }

    /// Binomial-tree reduction of `data` to `root`. The root receives the
    /// combined vector; other ranks receive `None`. Each combine charges one
    /// instruction per element of on-chip work.
    pub fn reduce(&mut self, root: usize, data: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        let elems = data.len() as u64;
        self.collective_scope("mps:reduce", |c| {
            assert!(root < c.size(), "reduce root {root} out of range");
            let coll = SmallColl::Reduce { root, elems };
            let (acc, sent) = c.run_small(coll, data.to_vec(), |a, b| op.combine(a, b));
            (!sent).then_some(acc)
        })
    }

    /// Allreduce with an arbitrary operator: recursive doubling among the
    /// largest power-of-two subset, with pre-fold of the `r = p − 2^m` extra
    /// ranks and a post-broadcast back to them (the MPICH scheme).
    pub fn allreduce(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        let elems = data.len() as u64;
        self.collective_scope("mps:allreduce", |c| {
            let coll = SmallColl::AllReduce { elems };
            c.run_small(coll, data.to_vec(), |a, b| op.combine(a, b)).0
        })
    }

    /// Element-wise sum allreduce (the common case in CG/EP/FT).
    pub fn allreduce_sum(&mut self, data: &[f64]) -> Vec<f64> {
        self.allreduce(data, ReduceOp::Sum)
    }

    /// Element-wise max allreduce.
    pub fn allreduce_max(&mut self, data: &[f64]) -> Vec<f64> {
        self.allreduce(data, ReduceOp::Max)
    }

    /// Scalar sum allreduce convenience.
    pub fn allreduce_scalar(&mut self, x: f64) -> f64 {
        self.allreduce_sum(&[x])[0]
    }

    /// Run this rank's actions of `coll` on the working buffer `buf`: each
    /// send carries a copy of the buffer, a received payload either feeds
    /// the following [`Act::Combine`] or replaces the buffer. Returns the
    /// final buffer and whether this rank sent anything.
    fn run_small<T: Send + Clone + 'static>(
        &mut self,
        coll: SmallColl,
        buf: Vec<T>,
        combine: impl Fn(&mut [T], &[T]),
    ) -> (Vec<T>, bool) {
        let (p, rank) = (self.size(), self.rank());
        let mut seq = self.coll_seq;
        let (mut acc, mut incoming, mut sent) = (buf, None, false);
        coll.expand(p, rank, &mut seq, |a| match a {
            Act::Send(to, tag, _) => {
                if let Some(b) = incoming.take() {
                    acc = b;
                }
                self.send_raw(to, tag, acc.clone(), p);
                sent = true;
            }
            Act::Recv(from, tag) => {
                if let Some(b) = incoming.replace(self.recv_raw::<T>(from, tag)) {
                    acc = b;
                }
            }
            Act::Combine(elems) => {
                let other = incoming.take().expect("a combine follows a receive");
                combine(&mut acc, &other);
                self.compute(elems as f64);
            }
        });
        self.coll_seq = seq;
        (incoming.unwrap_or(acc), sent)
    }

    /// Ring allgather: every rank contributes `mine`; returns all
    /// contributions indexed by rank.
    pub fn allgather<T: Send + Clone + 'static>(&mut self, mine: Vec<T>) -> Vec<Vec<T>> {
        self.collective_scope("mps:allgather", |c| {
            let big = BigColl::allgather(&mut c.coll_seq);
            c.run_big(big, mine, |out, owner| {
                out[owner].clone().expect("chunk present")
            })
        })
    }

    /// Pairwise-exchange all-to-all: `chunks[d]` goes to rank `d`; returns
    /// `received[s]` = chunk sent by rank `s`. Chunks may have different
    /// lengths (this doubles as `alltoallv`).
    ///
    /// Powers of two use XOR pairing (the "binary exchange" the paper's FT
    /// analysis assumes); other sizes use rotation pairing. Either way each
    /// rank sends `p − 1` messages — the `(p−1)(ts + tw·m)` cost of §V.B.1.
    pub fn alltoall<T: Send + Clone + 'static>(&mut self, mut chunks: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.collective_scope("mps:alltoall", |c| {
            assert_eq!(chunks.len(), c.size(), "alltoall needs one chunk per rank");
            let big = BigColl::alltoall(&mut c.coll_seq);
            // Own chunk stays local, free of charge.
            let mine = std::mem::take(&mut chunks[c.rank()]);
            c.run_big(big, mine, |_, dst| std::mem::take(&mut chunks[dst]))
        })
    }

    /// Run this rank's exchanges of `big`, starting from its own chunk
    /// `mine`: `chunk(out, peer)` yields the payload for each send, and
    /// each received payload fills its slot of the result.
    fn run_big<T: Send + 'static>(
        &mut self,
        mut big: BigColl,
        mine: Vec<T>,
        mut chunk: impl FnMut(&[Option<Vec<T>>], usize) -> Vec<T>,
    ) -> Vec<Vec<T>> {
        let (p, rank) = (self.size(), self.rank());
        let mut out: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        out[rank] = Some(mine);
        while let Some(x) = big.next(p, rank) {
            let data = chunk(&out, x.peer);
            self.send_raw(x.to, x.tag, data, p);
            out[x.slot] = Some(self.recv_raw::<T>(x.from, x.tag));
        }
        out.into_iter()
            .map(|c| c.expect("every slot received"))
            .collect()
    }

    /// Gather `mine` to `root` (via the ring allgather for simplicity of
    /// counting; NPB uses gather only for reporting).
    pub fn gather<T: Send + Clone + 'static>(
        &mut self,
        root: usize,
        mine: Vec<T>,
    ) -> Option<Vec<Vec<T>>> {
        let all = self.allgather(mine);
        (self.rank() == root).then_some(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_op_combines() {
        let mut a = vec![1.0, 5.0];
        ReduceOp::Sum.combine(&mut a, &[2.0, 3.0]);
        assert_eq!(a, vec![3.0, 8.0]);
        ReduceOp::Max.combine(&mut a, &[10.0, 0.0]);
        assert_eq!(a, vec![10.0, 8.0]);
        ReduceOp::Min.combine(&mut a, &[4.0, 2.0]);
        assert_eq!(a, vec![4.0, 2.0]);
    }
}
