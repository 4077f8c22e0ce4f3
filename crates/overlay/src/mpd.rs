//! The MPD: the per-peer daemon started by `mpiboot`.
//!
//! The MPD "represents the local resource as a peer in the P2P network"
//! (Section 3.2).  Its roles — maintaining membership, managing the cached
//! neighbourhood knowledge with latency probes, coordinating discovery and
//! reservation for a job, and gatekeeping the local resource — are split
//! here between the per-peer state ([`MpdNode`]) and the overlay-wide
//! simulation driver ([`crate::overlay::Overlay`]).

use crate::cache::CachedList;
use crate::config::OwnerConfig;
use crate::peer::{PeerDescriptor, PeerState};
use crate::rs::ReservationService;

/// Per-peer daemon state: descriptor, owner preferences, cached list and the
/// co-located Reservation Service.
#[derive(Debug)]
pub struct MpdNode {
    /// Who and where this peer is.
    pub(crate) descriptor: PeerDescriptor,
    /// Owner preferences enforced by the gatekeeper.
    pub(crate) config: OwnerConfig,
    /// Cached host list with latency estimates.
    pub cache: CachedList,
    /// The peer's Reservation Service.
    pub rs: ReservationService,
    /// Liveness (driven by fault injection).
    pub(crate) state: PeerState,
}

impl MpdNode {
    /// Creates a freshly booted MPD with an empty cache.
    pub(crate) fn new(descriptor: PeerDescriptor, config: OwnerConfig) -> Self {
        MpdNode {
            descriptor,
            config,
            cache: CachedList::new(),
            rs: ReservationService::new(),
            state: PeerState::Alive,
        }
    }

    /// True if the daemon currently answers requests.
    pub fn is_alive(&self) -> bool {
        self.state == PeerState::Alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::PeerId;
    use p2pmpi_simgrid::topology::HostId;

    #[test]
    fn new_node_is_alive_and_empty() {
        let n = MpdNode::new(
            PeerDescriptor::new(PeerId(0), HostId(0)),
            OwnerConfig::with_procs(4),
        );
        assert!(n.is_alive());
        assert!(n.cache.is_empty());
        assert_eq!(n.config.max_procs_per_app, 4);
        assert_eq!(n.rs.active_applications(), 0);
    }

    #[test]
    fn state_can_flip() {
        let mut n = MpdNode::new(
            PeerDescriptor::new(PeerId(1), HostId(1)),
            OwnerConfig::default(),
        );
        n.state = PeerState::Dead;
        assert!(!n.is_alive());
        n.state = PeerState::Alive;
        assert!(n.is_alive());
    }
}
