//! The supernode: membership registry of the overlay.
//!
//! A supernode is "a necessary entry point for boot-strapping a peer willing
//! to join the overlay" (Section 3.2).  It maintains the *host list*: for
//! each registered peer, its address/ports and a "last seen" timestamp
//! refreshed by periodic alive signals.  Peers whose alive signals stop
//! arriving are eventually expired from the list.

use crate::peer::{PeerDescriptor, PeerId};
use p2pmpi_simgrid::time::{SimDuration, SimTime};

/// One entry of the supernode's host list.
#[derive(Debug, Clone)]
pub(crate) struct HostListEntry {
    /// The registered peer.
    pub(crate) descriptor: PeerDescriptor,
    /// Last time a registration or alive signal was received.
    pub(crate) last_seen: SimTime,
}

/// Membership registry.
///
/// Entries live in a table indexed by [`PeerId`] (peer ids are dense), so
/// a registration or an alive signal is one indexed store and the host list
/// is in ascending id order without a sort.  Consumers walk
/// `Supernode::host_list_iter` borrowed and in order.
#[derive(Debug)]
pub struct Supernode {
    /// The host list by peer id; `None` where no peer is registered.
    entries: Vec<Option<HostListEntry>>,
    /// Number of registered peers (the `Some` entries).
    len: usize,
    /// Peers not heard from for longer than this are dropped by
    /// [`Supernode::expire_stale`].
    expiry: SimDuration,
    registrations: u64,
}

/// Default staleness bound before a silent peer is dropped (three missed
/// 2-minute alive periods).
pub(crate) const DEFAULT_EXPIRY: SimDuration = SimDuration::from_secs(360);

impl Default for Supernode {
    fn default() -> Self {
        Self::new(DEFAULT_EXPIRY)
    }
}

impl Supernode {
    /// Creates a supernode with the given staleness bound.
    pub(crate) fn new(expiry: SimDuration) -> Self {
        assert!(!expiry.is_zero(), "expiry must be non-zero");
        Supernode {
            entries: Vec::new(),
            len: 0,
            expiry,
            registrations: 0,
        }
    }

    /// Registers a peer (or refreshes it if already known).
    pub(crate) fn register(&mut self, descriptor: PeerDescriptor, now: SimTime) {
        self.registrations += 1;
        let id = descriptor.id.0;
        if id >= self.entries.len() {
            self.entries.resize_with(id + 1, || None);
        }
        let entry = HostListEntry {
            descriptor,
            last_seen: now,
        };
        self.len += usize::from(self.entries[id].replace(entry).is_none());
    }

    /// Records an alive signal from `peer`.  Unknown peers are ignored (the
    /// MPD is expected to re-register after an expiry).
    pub(crate) fn alive(&mut self, peer: PeerId, now: SimTime) -> bool {
        let entry = self.entries.get_mut(peer.0).and_then(Option::as_mut);
        entry.map(|e| e.last_seen = now).is_some()
    }

    /// Wipes the host list, as a supernode crash would: the registry state is
    /// volatile and lost on restart, while the lifetime counters (a property
    /// of the simulation, not the process) are kept.  Peers re-populate the
    /// list by re-registering, exactly as after an expiry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.len = 0;
    }

    /// Drops peers not heard from within the expiry window; returns how many
    /// were dropped.
    pub(crate) fn expire_stale(&mut self, now: SimTime) -> usize {
        let expiry = self.expiry;
        let dropped = (self.entries.iter_mut())
            .filter_map(|slot| slot.take_if(|e| now.saturating_since(e.last_seen) > expiry))
            .count();
        self.len -= dropped;
        dropped
    }

    /// Borrowing view of the host list in ascending [`PeerId`] order, the
    /// order of the id-indexed table, so this neither clones nor sorts —
    /// the MPD cache refresh merges it in place.
    pub(crate) fn host_list_iter(&self) -> impl Iterator<Item = &HostListEntry> {
        self.entries.iter().flatten()
    }

    /// True if `peer` is currently registered.
    #[cfg(test)]
    pub(crate) fn knows(&self, peer: PeerId) -> bool {
        matches!(self.entries.get(peer.0), Some(Some(_)))
    }

    /// Number of registered peers.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True if no peer is registered.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total registrations processed (including re-registrations).
    pub fn registrations(&self) -> u64 {
        self.registrations
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
    fn the_registry_keeps_ascending_order_and_its_count() {
        let ids = |s: &Supernode| -> Vec<usize> {
            s.host_list_iter().map(|e| e.descriptor.id.0).collect()
        };
        let mut s = Supernode::new(SimDuration::from_secs(100));
        for i in [7, 2, 9, 0, 4] {
            s.register(desc(i), SimTime::ZERO);
        }
        assert_eq!(ids(&s), [0, 2, 4, 7, 9]);
        assert_eq!(s.len(), 5);
        // A re-registration refreshes its entry without counting it twice.
        s.register(desc(4), SimTime::from_secs(60));
        assert_eq!(s.len(), 5);
        let t = SimTime::from_secs(60);
        assert!(!s.alive(PeerId(3), t), "an id between registered ones");
        assert!(!s.alive(PeerId(42), t), "an id past every registered one");
        assert!(s.alive(PeerId(9), t));
        // 0, 2 and 7 were last seen at 0 s; 4 and 9 at 60 s.
        assert_eq!(s.expire_stale(SimTime::from_secs(150)), 3);
        assert_eq!(s.len(), 2);
        assert_eq!(ids(&s), [4, 9]);
        assert!(!s.alive(PeerId(7), SimTime::from_secs(150)), "expired");
        s.register(desc(7), SimTime::from_secs(150));
        assert_eq!((s.len(), ids(&s)), (3, vec![4, 7, 9]));
        s.clear();
        assert_eq!(s.len(), 0);
        assert!(ids(&s).is_empty());
        assert!(!s.alive(PeerId(4), SimTime::from_secs(150)), "cleared");
        s.register(desc(2), SimTime::from_secs(160));
        assert_eq!((s.len(), ids(&s)), (1, vec![2]));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_expiry_panics() {
        Supernode::new(SimDuration::ZERO);
    }
}
