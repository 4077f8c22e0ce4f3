//! The supernode: membership registry of the overlay.
//!
//! A supernode is "a necessary entry point for boot-strapping a peer willing
//! to join the overlay" (Section 3.2).  It maintains the *host list*: for
//! each registered peer, its address/ports and a "last seen" timestamp
//! refreshed by periodic alive signals.  Peers whose alive signals stop
//! arriving are eventually expired from the list.

use crate::peer::{PeerDescriptor, PeerId};
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One entry of the supernode's host list.
#[derive(Debug, Clone)]
pub struct HostListEntry {
    /// The registered peer.
    pub descriptor: PeerDescriptor,
    /// Last time a registration or alive signal was received.
    pub last_seen: SimTime,
}

/// Membership registry.
///
/// Entries live in a `BTreeMap` keyed by [`PeerId`], so the host list is
/// maintained in stable sorted order *incrementally* — `O(log n)` per
/// registration — instead of the clone-and-sort a snapshot API would pay on
/// every read.  Consumers walk [`Supernode::host_list_iter`] borrowed and
/// in order.
#[derive(Debug)]
pub struct Supernode {
    entries: BTreeMap<PeerId, HostListEntry>,
    /// Peers not heard from for longer than this are dropped by
    /// [`Supernode::expire_stale`].
    expiry: SimDuration,
    registrations: u64,
}

/// Default staleness bound before a silent peer is dropped (three missed
/// 2-minute alive periods).
pub const DEFAULT_EXPIRY: SimDuration = SimDuration::from_secs(360);

impl Default for Supernode {
    fn default() -> Self {
        Self::new(DEFAULT_EXPIRY)
    }
}

impl Supernode {
    /// Creates a supernode with the given staleness bound.
    pub fn new(expiry: SimDuration) -> Self {
        assert!(!expiry.is_zero(), "expiry must be non-zero");
        Supernode {
            entries: BTreeMap::new(),
            expiry,
            registrations: 0,
        }
    }

    /// Registers a peer (or refreshes it if already known).
    pub fn register(&mut self, descriptor: PeerDescriptor, now: SimTime) {
        self.registrations += 1;
        self.entries.insert(
            descriptor.id,
            HostListEntry {
                descriptor,
                last_seen: now,
            },
        );
    }

    /// Records an alive signal from `peer`.  Unknown peers are ignored (the
    /// MPD is expected to re-register after an expiry).
    pub fn alive(&mut self, peer: PeerId, now: SimTime) -> bool {
        if let Some(e) = self.entries.get_mut(&peer) {
            e.last_seen = now;
            true
        } else {
            false
        }
    }

    /// Wipes the host list, as a supernode crash would: the registry state is
    /// volatile and lost on restart, while the lifetime counters (a property
    /// of the simulation, not the process) are kept.  Peers re-populate the
    /// list by re-registering, exactly as after an expiry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Drops peers not heard from within the expiry window; returns how many
    /// were dropped.
    pub fn expire_stale(&mut self, now: SimTime) -> usize {
        let expiry = self.expiry;
        let before = self.entries.len();
        self.entries
            .retain(|_, e| now.saturating_since(e.last_seen) <= expiry);
        before - self.entries.len()
    }

    /// Borrowing view of the host list in stable ([`PeerId`]) order.  The
    /// order is maintained incrementally by the backing `BTreeMap`, so this
    /// neither clones nor sorts — every consumer (the MPD cache refresh, the
    /// experiment harnesses) walks it in place.
    pub fn host_list_iter(&self) -> impl Iterator<Item = &HostListEntry> {
        self.entries.values()
    }

    /// True if `peer` is currently registered.
    pub fn knows(&self, peer: PeerId) -> bool {
        self.entries.contains_key(&peer)
    }

    /// Number of registered peers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no peer is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total registrations processed (including re-registrations).
    pub fn registrations(&self) -> u64 {
        self.registrations
    }

    /// The staleness bound.
    pub fn expiry(&self) -> SimDuration {
        self.expiry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmpi_simgrid::topology::HostId;

    fn desc(i: usize) -> PeerDescriptor {
        PeerDescriptor::new(PeerId(i), HostId(i))
    }

    #[test]
    fn register_and_list() {
        let mut s = Supernode::default();
        assert!(s.is_empty());
        s.register(desc(1), SimTime::ZERO);
        s.register(desc(0), SimTime::ZERO);
        assert_eq!(s.len(), 2);
        // The borrowing iterator walks in stable PeerId order, whatever the
        // registration order was.
        let list: Vec<&HostListEntry> = s.host_list_iter().collect();
        assert_eq!(list[0].descriptor.id, PeerId(0));
        assert_eq!(list[1].descriptor.id, PeerId(1));
        assert!(s.knows(PeerId(0)));
        assert!(!s.knows(PeerId(9)));
        assert_eq!(s.registrations(), 2);
    }

    #[test]
    fn alive_refreshes_last_seen() {
        let mut s = Supernode::new(SimDuration::from_secs(100));
        s.register(desc(0), SimTime::ZERO);
        assert!(s.alive(PeerId(0), SimTime::from_secs(50)));
        assert!(!s.alive(PeerId(1), SimTime::from_secs(50)));
        // Peer 0 was refreshed at t=50, so at t=120 it is still within 100 s.
        assert_eq!(s.expire_stale(SimTime::from_secs(120)), 0);
        assert!(s.knows(PeerId(0)));
    }

    #[test]
    fn stale_peers_are_expired() {
        let mut s = Supernode::new(SimDuration::from_secs(100));
        s.register(desc(0), SimTime::ZERO);
        s.register(desc(1), SimTime::ZERO);
        s.alive(PeerId(1), SimTime::from_secs(150));
        let dropped = s.expire_stale(SimTime::from_secs(160));
        assert_eq!(dropped, 1);
        assert!(!s.knows(PeerId(0)));
        assert!(s.knows(PeerId(1)));
    }

    #[test]
    fn reregistration_updates_descriptor() {
        let mut s = Supernode::default();
        s.register(desc(0), SimTime::ZERO);
        let updated = PeerDescriptor::with_address(PeerId(0), HostId(5), "1.2.3.4:1");
        s.register(updated, SimTime::from_secs(1));
        let list: Vec<&HostListEntry> = s.host_list_iter().collect();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].descriptor.host, HostId(5));
        assert_eq!(list[0].last_seen, SimTime::from_secs(1));
    }

    #[test]
    fn clear_wipes_registry_but_keeps_counters() {
        let mut s = Supernode::default();
        s.register(desc(0), SimTime::ZERO);
        s.register(desc(1), SimTime::ZERO);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.registrations(), 2);
        // A re-registration after the crash repopulates the list.
        s.register(desc(0), SimTime::from_secs(1));
        assert!(s.knows(PeerId(0)));
        assert_eq!(s.registrations(), 3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_expiry_panics() {
        Supernode::new(SimDuration::ZERO);
    }
}
