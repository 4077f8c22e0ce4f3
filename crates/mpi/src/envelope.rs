//! Message envelopes and the in-process router.
//!
//! The runtime runs every process instance as a thread; messages travel over
//! unbounded crossbeam channels.  The [`Envelope`] carries, besides the
//! payload, everything the receiver needs to update its *virtual* clock: the
//! sender's logical send time, the sender's host and the wire size.

use crate::error::{Rank, Tag};
use crate::placement::Placement;
use crossbeam_channel::{unbounded, Receiver, Sender};
use p2pmpi_simgrid::time::SimTime;
use p2pmpi_simgrid::topology::HostId;

/// One message in flight.
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    /// Sender's logical rank.
    pub(crate) src: Rank,
    /// Sender's host (used for the transfer-time model).
    pub(crate) src_host: HostId,
    /// Message tag.
    pub(crate) tag: Tag,
    /// Per-(src, dst, tag) sequence number; receivers use it to discard the
    /// duplicate copies produced by sender replication.
    pub(crate) seq: u64,
    /// Sender's virtual clock when the message left.
    pub(crate) sent_at: SimTime,
    /// Bytes on the wire.
    pub(crate) wire_bytes: u64,
    /// Serialized payload.
    pub(crate) payload: Vec<u8>,
}

/// Routes envelopes to process-instance channels.
pub(crate) struct Router {
    replication: u32,
    senders: Vec<Sender<Envelope>>,
}

impl Router {
    /// Builds the channel mesh for a placement; returns the router (shared by
    /// all instances) and one receiver per instance, indexed by
    /// [`Placement::instance_index`].
    pub(crate) fn new(placement: &Placement) -> (Router, Vec<Receiver<Envelope>>) {
        let count = placement.processes as usize * placement.replication as usize;
        let mut senders = Vec::with_capacity(count);
        let mut receivers = Vec::with_capacity(count);
        for _ in 0..count {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        (
            Router {
                replication: placement.replication,
                senders,
            },
            receivers,
        )
    }

    /// Sends an envelope to one specific `(rank, replica)` instance.
    /// Returns `false` if that instance's receiver is gone (its thread has
    /// already finished) — callers treat this as a best-effort delivery, the
    /// replication layer tolerates it.
    pub(crate) fn deliver(&self, rank: Rank, replica: u32, envelope: Envelope) -> bool {
        let idx = (rank * self.replication + replica) as usize;
        match self.senders.get(idx) {
            Some(tx) => tx.send(envelope).is_ok(),
            None => false,
        }
    }

    /// Sends copies of an envelope to every replica of `rank`.  Returns the
    /// number of copies actually delivered.
    pub(crate) fn deliver_to_all_replicas(&self, rank: Rank, envelope: &Envelope) -> usize {
        (0..self.replication)
            .filter(|&rep| self.deliver(rank, rep, envelope.clone()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(src: Rank, seq: u64) -> Envelope {
        Envelope {
            src,
            src_host: HostId(0),
            tag: 1,
            seq,
            sent_at: SimTime::ZERO,
            wire_bytes: 8,
            payload: vec![1, 2, 3],
        }
    }

    #[test]
    fn router_routes_to_the_right_instance() {
        let p = Placement::co_located(3, HostId(0));
        let (router, receivers) = Router::new(&p);
        assert!(router.deliver(2, 0, envelope(0, 0)));
        assert!(receivers[2].try_recv().is_ok());
        assert!(receivers[0].try_recv().is_err());
        assert!(receivers[1].try_recv().is_err());
    }

    #[test]
    fn replicated_delivery_fans_out() {
        let p = Placement::replicated_round_robin(2, 2, &[HostId(0), HostId(1)]);
        let (router, receivers) = Router::new(&p);
        assert_eq!(router.replication, 2);
        let delivered = router.deliver_to_all_replicas(1, &envelope(0, 0));
        assert_eq!(delivered, 2);
        // Instance indices of rank 1: 2 (replica 0) and 3 (replica 1).
        assert!(receivers[2].try_recv().is_ok());
        assert!(receivers[3].try_recv().is_ok());
    }

    #[test]
    fn delivery_to_dropped_receiver_reports_false() {
        let p = Placement::co_located(2, HostId(0));
        let (router, receivers) = Router::new(&p);
        drop(receivers);
        assert!(!router.deliver(0, 0, envelope(1, 0)));
        assert_eq!(router.deliver_to_all_replicas(1, &envelope(0, 0)), 0);
    }

    #[test]
    fn out_of_range_instance_is_false() {
        let p = Placement::co_located(2, HostId(0));
        let (router, _rx) = Router::new(&p);
        assert!(!router.deliver(5, 0, envelope(0, 0)));
    }
}
