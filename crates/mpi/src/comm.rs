//! The per-process communicator: point-to-point messaging, compute-time
//! accounting and the logical clock.
//!
//! Every process instance owns one [`Comm`].  All communication updates the
//! instance's *virtual* clock from the network cost model: receiving a
//! message sets `clock = max(clock, sender_clock + transfer_time)`, so the
//! job's makespan is independent of how the OS happens to schedule the
//! underlying threads.

use crate::datatype::{wire_size, Datatype};
use crate::envelope::{Envelope, Router};
use crate::error::{MpiError, MpiResult, Rank, Tag};
use crate::registry::Registry;
use crate::stats::CommStats;
use crossbeam_channel::{Receiver, RecvTimeoutError};
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::memory::MemoryIntensity;
use p2pmpi_simgrid::network::{NetworkModel, PER_MESSAGE_OVERHEAD};
use p2pmpi_simgrid::time::SimTime;
use p2pmpi_simgrid::topology::HostId;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// How long (in *real* time) a receive waits before concluding that no live
/// replica of the sender remains.
pub(crate) const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// The communicator handed to user code running inside one process instance.
pub struct Comm {
    rank: Rank,
    replica: u32,
    size: u32,
    host: HostId,
    residents: usize,
    clock: SimTime,
    network: NetworkModel,
    compute: ComputeModel,
    router: Arc<Router>,
    registry: Arc<Registry>,
    rx: Receiver<Envelope>,
    send_seq: HashMap<(Rank, Tag), u64>,
    recv_seq: HashMap<(Rank, Tag), u64>,
    pending: VecDeque<Envelope>,
    fail_after: Option<u64>,
    ops: u64,
    stats: CommStats,
    recv_timeout: Duration,
}

/// Everything needed to build a `Comm`; assembled by the runtime.
pub(crate) struct CommConfig {
    pub(crate) rank: Rank,
    pub(crate) replica: u32,
    pub(crate) size: u32,
    pub(crate) host: HostId,
    pub(crate) residents: usize,
    pub(crate) network: NetworkModel,
    pub(crate) compute: ComputeModel,
    pub(crate) router: Arc<Router>,
    pub(crate) registry: Arc<Registry>,
    pub(crate) rx: Receiver<Envelope>,
    pub(crate) fail_after: Option<u64>,
    pub(crate) recv_timeout: Duration,
}

impl Comm {
    pub(crate) fn new(config: CommConfig) -> Self {
        Comm {
            rank: config.rank,
            replica: config.replica,
            size: config.size,
            host: config.host,
            residents: config.residents,
            clock: SimTime::ZERO,
            network: config.network,
            compute: config.compute,
            router: config.router,
            registry: config.registry,
            rx: config.rx,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
            pending: VecDeque::new(),
            fail_after: config.fail_after,
            ops: 0,
            stats: CommStats::default(),
            recv_timeout: config.recv_timeout,
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// This process's logical MPI rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// The communicator size (`n`, the number of logical ranks).
    pub fn size(&self) -> u32 {
        self.size
    }

    /// This instance's replica index (0 for the primary copy).
    pub(crate) fn replica(&self) -> u32 {
        self.replica
    }

    /// The host this instance runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The instance's logical clock.
    pub(crate) fn clock(&self) -> SimTime {
        self.clock
    }

    /// This instance's communication statistics so far.
    pub(crate) fn stats(&self) -> &CommStats {
        &self.stats
    }

    // ------------------------------------------------------------------
    // Failure injection and clock accounting
    // ------------------------------------------------------------------

    /// Counts one MPI operation, failing this instance if the failure plan
    /// says so.
    fn bump_op(&mut self) -> MpiResult<()> {
        if let Some(threshold) = self.fail_after {
            if self.ops >= threshold {
                self.registry.mark_failed(self.rank, self.replica);
                return Err(MpiError::ProcessFailed);
            }
        }
        self.ops += 1;
        Ok(())
    }

    /// Charges `ops` abstract operations of the given memory intensity to
    /// this instance's clock, accounting for co-resident processes.
    pub fn compute(&mut self, ops: f64, intensity: MemoryIntensity) -> MpiResult<()> {
        self.bump_op()?;
        let t = self
            .compute
            .compute_time(self.host, ops, intensity, self.residents);
        self.clock += t;
        self.stats.compute_ops += ops;
        self.stats.compute_time += t;
        Ok(())
    }

    fn check_rank(&self, rank: Rank) -> MpiResult<()> {
        if rank >= self.size {
            return Err(MpiError::InvalidRank {
                rank,
                size: self.size,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Sends `data` to every replica of `dst` under `tag` (the replication
    /// layer deduplicates on the receiving side).  Buffered/non-blocking: the
    /// call returns once the message is handed to the transport.
    pub(crate) fn send<T: Datatype>(&mut self, dst: Rank, tag: Tag, data: &[T]) -> MpiResult<()> {
        self.check_rank(dst)?;
        self.bump_op()?;
        let payload = T::to_bytes(data);
        let wire_bytes = wire_size(data);
        let seq = {
            let counter = self.send_seq.entry((dst, tag)).or_insert(0);
            let s = *counter;
            *counter += 1;
            s
        };
        // The sender pays the per-message software overhead (serialization,
        // syscalls); propagation and bandwidth are charged on the receiving
        // side from the sender's timestamp.
        self.clock += PER_MESSAGE_OVERHEAD;
        let envelope = Envelope {
            src: self.rank,
            src_host: self.host,
            tag,
            seq,
            sent_at: self.clock,
            wire_bytes,
            payload,
        };
        let delivered = self.router.deliver_to_all_replicas(dst, &envelope);
        if delivered == 0 && self.registry.primary_replica(dst).is_none() {
            // Every replica of the destination has been failed.  (If the
            // destination simply finished its kernel already, the message is
            // dropped silently — normal termination is not a fault.)
            return Err(MpiError::PeerUnreachable { rank: dst });
        }
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += wire_bytes;
        Ok(())
    }

    /// Receives the next in-order message from `src` under `tag`.
    pub(crate) fn recv<T: Datatype>(&mut self, src: Rank, tag: Tag) -> MpiResult<Vec<T>> {
        self.check_rank(src)?;
        self.bump_op()?;
        let expected = *self.recv_seq.get(&(src, tag)).unwrap_or(&0);

        // First look at messages we already pulled off the channel.
        if let Some(pos) = self
            .pending
            .iter()
            .position(|e| e.src == src && e.tag == tag && e.seq == expected)
        {
            let env = self.pending.remove(pos).expect("position is valid");
            return self.accept::<T>(env);
        }

        loop {
            match self.rx.recv_timeout(self.recv_timeout) {
                Ok(env) => {
                    if env.src == src && env.tag == tag {
                        if env.seq == expected {
                            return self.accept::<T>(env);
                        }
                        if env.seq < expected {
                            continue; // duplicate copy from a sender replica
                        }
                    } else {
                        // Drop duplicates of already-consumed messages from
                        // other (src, tag) streams, stash the rest.
                        let other_expected = *self.recv_seq.get(&(env.src, env.tag)).unwrap_or(&0);
                        if env.seq < other_expected {
                            continue;
                        }
                    }
                    self.pending.push_back(env);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    return Err(MpiError::PeerUnreachable { rank: src });
                }
            }
        }
    }

    fn accept<T: Datatype>(&mut self, env: Envelope) -> MpiResult<Vec<T>> {
        *self.recv_seq.entry((env.src, env.tag)).or_insert(0) += 1;
        let transfer = self
            .network
            .transfer_time(env.src_host, self.host, env.wire_bytes);
        self.clock = self.clock.max(env.sent_at + transfer);
        self.stats.messages_received += 1;
        self.stats.bytes_received += env.wire_bytes;
        Ok(T::from_bytes(&env.payload))
    }
}
