//! Peer identity and descriptors.
//!
//! In P2P-MPI every machine that runs `mpiboot` becomes a *peer*: its MPD
//! daemon registers with a supernode and is thereafter known to other peers
//! by the supernode's host list.  A peer is bound to exactly one physical
//! host of the topology.

use p2pmpi_simgrid::topology::HostId;
use std::fmt;

/// Identifier of a peer (dense index into the overlay's node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub usize);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer#{}", self.0)
    }
}

/// Liveness state of a peer, as seen by the fault-injection layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// The MPD answers requests.
    Alive,
    /// The MPD is gone; requests to it time out and it stops sending alive
    /// signals to the supernode.
    Dead,
}

/// Static description of a peer.
#[derive(Debug, Clone)]
pub struct PeerDescriptor {
    /// Peer identifier.
    pub id: PeerId,
    /// Physical host this peer's MPD runs on.
    pub host: HostId,
    /// Simulated network address ("IP:port"), used by deny lists.
    pub(crate) address: String,
}

impl PeerDescriptor {
    /// Creates a descriptor with a synthetic address derived from the ids.
    pub fn new(id: PeerId, host: HostId) -> Self {
        PeerDescriptor {
            id,
            host,
            address: format!(
                "10.{}.{}.{}:9200",
                (host.0 >> 8) & 0xff,
                host.0 & 0xff,
                id.0 % 250 + 1
            ),
        }
    }

    /// Creates a descriptor with an explicit address.
    #[cfg(test)]
    pub(crate) fn with_address(id: PeerId, host: HostId, address: impl Into<String>) -> Self {
        PeerDescriptor {
            id,
            host,
            address: address.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_has_synthetic_address() {
        let d = PeerDescriptor::new(PeerId(3), HostId(260));
        assert_eq!(d.id, PeerId(3));
        assert_eq!(d.host, HostId(260));
        assert!(d.address.starts_with("10.1.4."));
        assert!(d.address.ends_with(":9200"));
    }

    #[test]
    fn explicit_address_is_kept() {
        let d = PeerDescriptor::with_address(PeerId(0), HostId(0), "192.168.1.1:4444");
        assert_eq!(d.address, "192.168.1.1:4444");
    }

    #[test]
    fn peer_id_display() {
        assert_eq!(PeerId(7).to_string(), "peer#7");
    }

    #[test]
    fn peer_state_equality() {
        assert_eq!(PeerState::Alive, PeerState::Alive);
        assert_ne!(PeerState::Alive, PeerState::Dead);
    }
}
