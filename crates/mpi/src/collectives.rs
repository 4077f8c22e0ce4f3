//! Collective operations.
//!
//! The NAS kernels of the paper's Figure 4 exercise `MPI_Allreduce`,
//! `MPI_Alltoall` and `MPI_Alltoallv`; the rest of the usual set is provided
//! for completeness.  Every collective is built from the point-to-point layer
//! of [`Comm`], so its virtual-time cost emerges from the placement and the
//! network model — which is precisely the effect the paper's evaluation
//! studies:
//!
//! * broadcast / reduce use binomial trees (`⌈log₂ n⌉` latency steps),
//! * allreduce is reduce-to-0 followed by broadcast,
//! * barrier is an empty allreduce,
//! * gather / scatter are linear at the root,
//! * alltoall(v) uses the ring (shift) schedule, `n − 1` exchange steps.

use crate::comm::Comm;
use crate::datatype::{Datatype, ReduceOp, Reducible};
use crate::error::{MpiError, MpiResult, Rank, Tag};

/// Tags reserved for the collective implementations (user code should use
/// tags below `0xFF00`).
pub(crate) mod tags {
    use super::Tag;
    /// Broadcast tree messages.
    pub(crate) const BCAST: Tag = 0xFF01;
    /// Reduce tree messages.
    pub(crate) const REDUCE: Tag = 0xFF02;
    /// Gather messages.
    pub(crate) const GATHER: Tag = 0xFF03;
    /// Scatter messages.
    pub(crate) const SCATTER: Tag = 0xFF04;
    /// All-to-all exchange messages.
    pub(crate) const ALLTOALL: Tag = 0xFF05;
    /// All-to-all-v exchange messages.
    pub(crate) const ALLTOALLV: Tag = 0xFF06;
}

impl Comm {
    /// Broadcast `data` from `root` to every rank; every rank returns the
    /// broadcast buffer (non-roots may pass an empty vector).
    pub fn bcast<T: Datatype>(&mut self, root: Rank, data: Vec<T>) -> MpiResult<Vec<T>> {
        let size = self.size();
        if root >= size {
            return Err(MpiError::InvalidRank { rank: root, size });
        }
        if size == 1 {
            return Ok(data);
        }
        let rank = self.rank();
        let relative = (rank + size - root) % size;
        let mut buffer = data;

        // Receive from the parent (if any).
        let mut mask: u32 = 1;
        while mask < size {
            if relative & mask != 0 {
                let src = (relative - mask + root) % size;
                buffer = self.recv::<T>(src, tags::BCAST)?;
                break;
            }
            mask <<= 1;
        }
        // Forward to children.
        mask >>= 1;
        while mask > 0 {
            if relative + mask < size {
                let dst = (relative + mask + root) % size;
                self.send(dst, tags::BCAST, &buffer)?;
            }
            mask >>= 1;
        }
        Ok(buffer)
    }

    /// Element-wise reduction of `data` onto `root`; returns `Some(result)`
    /// at the root and `None` elsewhere.
    pub(crate) fn reduce<T: Reducible>(
        &mut self,
        root: Rank,
        op: ReduceOp,
        data: &[T],
    ) -> MpiResult<Option<Vec<T>>> {
        let size = self.size();
        if root >= size {
            return Err(MpiError::InvalidRank { rank: root, size });
        }
        let rank = self.rank();
        let mut acc = data.to_vec();
        if size == 1 {
            return Ok(Some(acc));
        }
        let relative = (rank + size - root) % size;
        let mut mask: u32 = 1;
        while mask < size {
            if relative & mask == 0 {
                let child_rel = relative | mask;
                if child_rel < size {
                    let src = (child_rel + root) % size;
                    let contribution = self.recv::<T>(src, tags::REDUCE)?;
                    if contribution.len() != acc.len() {
                        return Err(MpiError::CollectiveMismatch(format!(
                            "reduce buffer length mismatch: {} vs {}",
                            contribution.len(),
                            acc.len()
                        )));
                    }
                    T::reduce_into(op, &mut acc, &contribution);
                }
            } else {
                let parent_rel = relative & !mask;
                let dst = (parent_rel + root) % size;
                self.send(dst, tags::REDUCE, &acc)?;
                return Ok(None);
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    }

    /// Reduction whose result is available on every rank
    /// (`MPI_Allreduce`): reduce to rank 0 then broadcast.
    pub fn allreduce<T: Reducible>(&mut self, op: ReduceOp, data: &[T]) -> MpiResult<Vec<T>> {
        let reduced = self.reduce(0, op, data)?;
        let seed = reduced.unwrap_or_default();
        self.bcast(0, seed)
    }

    /// Synchronizes every rank (`MPI_Barrier`).
    pub fn barrier(&mut self) -> MpiResult<()> {
        let _ = self.allreduce::<u8>(ReduceOp::Sum, &[0])?;
        Ok(())
    }

    /// Gathers every rank's buffer at `root`, concatenated in rank order;
    /// `Some` at the root, `None` elsewhere.  Buffers may have different
    /// lengths (this is closer to `MPI_Gatherv`).
    pub fn gather<T: Datatype>(&mut self, root: Rank, data: &[T]) -> MpiResult<Option<Vec<T>>> {
        let size = self.size();
        if root >= size {
            return Err(MpiError::InvalidRank { rank: root, size });
        }
        if self.rank() == root {
            let mut out = Vec::new();
            for src in 0..size {
                if src == root {
                    out.extend_from_slice(data);
                } else {
                    out.extend(self.recv::<T>(src, tags::GATHER)?);
                }
            }
            Ok(Some(out))
        } else {
            self.send(root, tags::GATHER, data)?;
            Ok(None)
        }
    }

    /// Gathers every rank's buffer on every rank (`MPI_Allgather` for equal
    /// counts, `MPI_Allgatherv` otherwise).
    pub fn allgather<T: Datatype>(&mut self, data: &[T]) -> MpiResult<Vec<T>> {
        let gathered = self.gather(0, data)?;
        self.bcast(0, gathered.unwrap_or_default())
    }

    /// Scatters equal-sized blocks of `data` (significant at the root only)
    /// to every rank; every rank returns its block of `count` elements.
    pub fn scatter<T: Datatype>(
        &mut self,
        root: Rank,
        data: &[T],
        count: usize,
    ) -> MpiResult<Vec<T>> {
        let size = self.size();
        if root >= size {
            return Err(MpiError::InvalidRank { rank: root, size });
        }
        if self.rank() == root {
            if data.len() != count * size as usize {
                return Err(MpiError::CollectiveMismatch(format!(
                    "scatter needs {} elements at the root, got {}",
                    count * size as usize,
                    data.len()
                )));
            }
            let mut own = Vec::new();
            for dst in 0..size {
                let block = &data[dst as usize * count..(dst as usize + 1) * count];
                if dst == root {
                    own = block.to_vec();
                } else {
                    self.send(dst, tags::SCATTER, block)?;
                }
            }
            Ok(own)
        } else {
            self.recv::<T>(root, tags::SCATTER)
        }
    }

    /// Exchanges equal-sized blocks between every pair of ranks
    /// (`MPI_Alltoall`): `data` holds `size` blocks of `data.len()/size`
    /// elements; the result holds the blocks received from each rank, in
    /// rank order.
    pub fn alltoall<T: Datatype>(&mut self, data: &[T]) -> MpiResult<Vec<T>> {
        let size = self.size() as usize;
        if !data.len().is_multiple_of(size) {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoall buffer of {} elements is not divisible by {} ranks",
                data.len(),
                size
            )));
        }
        let block = data.len() / size;
        let rank = self.rank() as usize;
        // One flat result buffer, written in place: cloning the send buffer
        // leaves the own block (slot `rank`) already correct, and every other
        // slot is overwritten by exactly one received block below.
        let mut result = data.to_vec();
        // Ring schedule: at step s exchange with rank+s / rank-s.
        for step in 1..size {
            let dst = ((rank + step) % size) as Rank;
            let src = ((rank + size - step) % size) as Rank;
            self.send(
                dst,
                tags::ALLTOALL,
                &data[dst as usize * block..(dst as usize + 1) * block],
            )?;
            let incoming = self.recv::<T>(src, tags::ALLTOALL)?;
            if incoming.len() != block {
                return Err(MpiError::CollectiveMismatch(format!(
                    "alltoall expected a block of {block} elements from rank {src}, got {}",
                    incoming.len()
                )));
            }
            result[src as usize * block..(src as usize + 1) * block].copy_from_slice(&incoming);
        }
        Ok(result)
    }

    /// Exchanges variable-sized blocks between every pair of ranks
    /// (`MPI_Alltoallv`): `blocks[d]` is sent to rank `d`.  Returns the
    /// received elements as one flat buffer in source-rank order plus the
    /// per-source element counts (`counts[s]` elements came from rank `s`),
    /// so callers index block `s` at `counts[..s].sum()..` without any
    /// nested-vector bookkeeping or flattening pass.
    pub fn alltoallv<T: Datatype>(&mut self, blocks: &[Vec<T>]) -> MpiResult<(Vec<T>, Vec<usize>)> {
        let size = self.size() as usize;
        if blocks.len() != size {
            return Err(MpiError::CollectiveMismatch(format!(
                "alltoallv needs one block per rank ({size}), got {}",
                blocks.len()
            )));
        }
        let rank = self.rank() as usize;
        let mut counts = vec![0usize; size];
        counts[rank] = blocks[rank].len();
        // Blocks arrive in ring order (rank-1, rank-2, ...), not source
        // order; park each transport buffer in its source's slot, then copy
        // every element exactly once into the flat result.
        let mut received: Vec<Option<Vec<T>>> = (0..size).map(|_| None).collect();
        for step in 1..size {
            let dst = ((rank + step) % size) as Rank;
            let src = ((rank + size - step) % size) as Rank;
            self.send(dst, tags::ALLTOALLV, &blocks[dst as usize])?;
            let incoming = self.recv::<T>(src, tags::ALLTOALLV)?;
            counts[src as usize] = incoming.len();
            received[src as usize] = Some(incoming);
        }
        let total: usize = counts.iter().sum();
        let mut result: Vec<T> = Vec::with_capacity(total);
        for (src, slot) in received.iter_mut().enumerate() {
            if src == rank {
                result.extend_from_slice(&blocks[rank]);
            } else {
                result.extend_from_slice(&slot.take().expect("one block per remote rank"));
            }
        }
        Ok((result, counts))
    }
}
