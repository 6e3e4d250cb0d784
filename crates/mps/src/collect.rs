//! Collective operations, implemented message-by-message with the same
//! algorithms 2010-era MPICH/MVAPICH used:
//!
//! * barrier — dissemination
//! * broadcast / reduce — binomial tree
//! * allreduce — recursive doubling (with pre/post folding for non-powers
//!   of two)
//! * allgather — ring
//! * all-to-all — pairwise exchange (XOR pairing for powers of two,
//!   rotation otherwise)
//!
//! Because they are built from real point-to-point messages, collective
//! *skew* (ranks arriving at different virtual times) propagates exactly as
//! on a real machine — one of the behaviours the paper's analytical model
//! approximates away.

use crate::ctx::Ctx;
use crate::envelope::internal_tag;

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

impl<'w> Ctx<'w> {
    /// Dissemination barrier: `ceil(log2 p)` rounds of zero-payload
    /// exchanges. After it returns, every rank's clock is at least the
    /// latest pre-barrier clock (synchronization waits are logged).
    pub fn barrier(&mut self) {
        self.collective_scope("mps:barrier", Self::barrier_inner);
    }

    fn barrier_inner(&mut self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let seq = self.next_coll_seq();
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < p {
            let to = (self.rank() + dist) % p;
            let from = (self.rank() + p - dist) % p;
            let tag = internal_tag(seq, round);
            self.send_raw::<u8>(to, tag, Vec::new(), p);
            let _ = self.recv_raw::<u8>(from, tag);
            dist <<= 1;
            round += 1;
        }
    }

    /// Binomial-tree broadcast of `data` from `root`. Every rank returns the
    /// broadcast vector (the root returns its own input).
    pub fn bcast<T: Send + Clone + 'static>(&mut self, root: usize, data: Vec<T>) -> Vec<T> {
        self.collective_scope("mps:bcast", |c| c.bcast_inner(root, data))
    }

    fn bcast_inner<T: Send + Clone + 'static>(&mut self, root: usize, data: Vec<T>) -> Vec<T> {
        let p = self.size();
        assert!(root < p, "broadcast root {root} out of range");
        let seq = self.next_coll_seq();
        if p == 1 {
            return data;
        }
        let vrank = (self.rank() + p - root) % p;
        let tag = internal_tag(seq, 0);

        // Receive phase: wait for the message from the parent.
        let mut buf = data;
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask != 0 {
                let src = (self.rank() + p - mask) % p;
                buf = self.recv_raw::<T>(src, tag);
                break;
            }
            mask <<= 1;
        }
        // Send phase: forward to children below the received mask.
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < p {
                let dst = (self.rank() + mask) % p;
                self.send_raw(dst, tag, buf.clone(), p);
            }
            mask >>= 1;
        }
        buf
    }

    /// Binomial-tree reduction of `data` to `root`. The root receives the
    /// combined vector; other ranks receive `None`. Each combine charges one
    /// instruction per element of on-chip work.
    pub fn reduce(&mut self, root: usize, data: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        self.collective_scope("mps:reduce", |c| c.reduce_inner(root, data, op))
    }

    fn reduce_inner(&mut self, root: usize, data: &[f64], op: ReduceOp) -> Option<Vec<f64>> {
        let p = self.size();
        assert!(root < p, "reduce root {root} out of range");
        let seq = self.next_coll_seq();
        let mut acc = data.to_vec();
        if p == 1 {
            return Some(acc);
        }
        let vrank = (self.rank() + p - root) % p;
        let tag = internal_tag(seq, 0);
        let mut mask = 1usize;
        while mask < p {
            if vrank & mask == 0 {
                let child_v = vrank | mask;
                if child_v < p {
                    let src = (child_v + root) % p;
                    let other = self.recv_raw::<f64>(src, tag);
                    op.combine(&mut acc, &other);
                    self.compute(acc.len() as f64);
                }
            } else {
                let parent_v = vrank & !mask;
                let dst = (parent_v + root) % p;
                self.send_raw(dst, tag, acc.clone(), p);
                return None;
            }
            mask <<= 1;
        }
        Some(acc)
    }

    /// Allreduce with an arbitrary operator: recursive doubling among the
    /// largest power-of-two subset, with pre-fold of the `r = p − 2^m` extra
    /// ranks and a post-broadcast back to them (the MPICH scheme).
    pub fn allreduce(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        self.collective_scope("mps:allreduce", |c| c.allreduce_inner(data, op))
    }

    fn allreduce_inner(&mut self, data: &[f64], op: ReduceOp) -> Vec<f64> {
        let p = self.size();
        let seq = self.next_coll_seq();
        let mut acc = data.to_vec();
        if p == 1 {
            return acc;
        }
        let m = prev_power_of_two(p);
        let r = p - m;

        // Pre-fold: ranks >= m hand their data to rank - m.
        if self.rank() >= m {
            let tag = internal_tag(seq, 0);
            self.send_raw(self.rank() - m, tag, acc, p);
            // Wait for the final result.
            let tag = internal_tag(seq, 63);
            return self.recv_raw::<f64>(self.rank() - m, tag);
        }
        if self.rank() < r {
            let tag = internal_tag(seq, 0);
            let other = self.recv_raw::<f64>(self.rank() + m, tag);
            op.combine(&mut acc, &other);
            self.compute(acc.len() as f64);
        }

        // Recursive doubling among ranks < m.
        let mut round = 1u32;
        let mut mask = 1usize;
        while mask < m {
            let partner = self.rank() ^ mask;
            let tag = internal_tag(seq, round);
            let other = self.exchange_raw(partner, tag, acc.clone(), p);
            op.combine(&mut acc, &other);
            self.compute(acc.len() as f64);
            mask <<= 1;
            round += 1;
        }

        // Post: send results back to the folded ranks.
        if self.rank() < r {
            let tag = internal_tag(seq, 63);
            self.send_raw(self.rank() + m, tag, acc.clone(), p);
        }
        acc
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

    /// Ring allgather: every rank contributes `mine`; returns all
    /// contributions indexed by rank.
    pub fn allgather<T: Send + Clone + 'static>(&mut self, mine: Vec<T>) -> Vec<Vec<T>> {
        self.collective_scope("mps:allgather", |c| c.allgather_inner(mine))
    }

    fn allgather_inner<T: Send + Clone + 'static>(&mut self, mine: Vec<T>) -> Vec<Vec<T>> {
        let p = self.size();
        let seq = self.next_coll_seq();
        let mut out: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        out[self.rank()] = Some(mine);
        if p > 1 {
            let right = (self.rank() + 1) % p;
            let left = (self.rank() + p - 1) % p;
            for i in 0..p - 1 {
                // Chunk that originated at rank - i (mod p) moves right.
                let src_owner = (self.rank() + p - i) % p;
                let chunk = out[src_owner].clone().expect("chunk present");
                let tag = internal_tag(seq, i as u32);
                self.send_raw(right, tag, chunk, p);
                let incoming_owner = (left + p - i) % p;
                let recvd = self.recv_raw::<T>(left, tag);
                out[incoming_owner] = Some(recvd);
            }
        }
        out.into_iter()
            .map(|c| c.expect("all chunks gathered"))
            .collect()
    }

    /// Pairwise-exchange all-to-all: `chunks[d]` goes to rank `d`; returns
    /// `received[s]` = chunk sent by rank `s`. Chunks may have different
    /// lengths (this doubles as `alltoallv`).
    ///
    /// Powers of two use XOR pairing (the "binary exchange" the paper's FT
    /// analysis assumes); other sizes use rotation pairing. Either way each
    /// rank sends `p − 1` messages — the `(p−1)(ts + tw·m)` cost of §V.B.1.
    pub fn alltoall<T: Send + Clone + 'static>(&mut self, chunks: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.collective_scope("mps:alltoall", |c| c.alltoall_inner(chunks))
    }

    fn alltoall_inner<T: Send + Clone + 'static>(
        &mut self,
        mut chunks: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let p = self.size();
        assert_eq!(chunks.len(), p, "alltoall needs one chunk per rank");
        let seq = self.next_coll_seq();
        let mut out: Vec<Option<Vec<T>>> = (0..p).map(|_| None).collect();
        // Own chunk stays local, free of charge.
        out[self.rank()] = Some(std::mem::take(&mut chunks[self.rank()]));
        if p > 1 {
            if p.is_power_of_two() {
                for i in 1..p {
                    let partner = self.rank() ^ i;
                    let tag = internal_tag(seq, i as u32);
                    let data = std::mem::take(&mut chunks[partner]);
                    let recvd = self.exchange_raw(partner, tag, data, p);
                    out[partner] = Some(recvd);
                }
            } else {
                for i in 1..p {
                    let dst = (self.rank() + i) % p;
                    let src = (self.rank() + p - i) % p;
                    let tag = internal_tag(seq, i as u32);
                    let data = std::mem::take(&mut chunks[dst]);
                    self.send_raw(dst, tag, data, p);
                    out[src] = Some(self.recv_raw::<T>(src, tag));
                }
            }
        }
        out.into_iter()
            .map(|c| c.expect("all chunks exchanged"))
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

fn prev_power_of_two(p: usize) -> usize {
    assert!(p > 0);
    1usize << (usize::BITS - 1 - p.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prev_power_of_two_cases() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(2), 2);
        assert_eq!(prev_power_of_two(3), 2);
        assert_eq!(prev_power_of_two(8), 8);
        assert_eq!(prev_power_of_two(12), 8);
    }

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
