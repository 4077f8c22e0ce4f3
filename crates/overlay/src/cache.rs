//! The MPD's cached peer list with measured latencies.
//!
//! Each MPD keeps a local cache of the supernode's host list; "to each host
//! in the cache list is associated a network latency value" obtained by
//! periodically ping'ing it (Section 4.1).  The booking step of the
//! reservation procedure walks this cache in ascending-latency order and
//! books hosts from the front.
//!
//! ## Incremental latency index
//!
//! The booking order is consulted once per job submission while the cache
//! mutates only on probes and membership changes, so the ascending-latency
//! order is maintained *incrementally*: a [`BTreeSet`] of `(latency, peer)`
//! keys is updated in `O(log m)` on every [`CachedList::merge`],
//! [`CachedList::record_probe`] and [`CachedList::remove`], and
//! [`CachedList::ranking_iter`] walks it without sorting or allocating.
//! Peers without a measurement sort last (they are the least attractive
//! candidates); ties break by peer id for determinism.  The tests compare
//! the index against sorting every entry on each read.

use crate::peer::{PeerDescriptor, PeerId};
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// One cached peer with its latest latency estimate.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The cached peer.
    pub descriptor: PeerDescriptor,
    /// Smoothed latency estimate from application-level probes; `None` until
    /// the first probe completes.
    pub latency: Option<SimDuration>,
    /// Time of the last successful probe.
    pub last_probe: Option<SimTime>,
    /// Consecutive failed probes / timeouts.
    pub failed_probes: u32,
}

/// Exponential smoothing factor applied to successive probe measurements:
/// `new = (1-EWMA_ALPHA)*old + EWMA_ALPHA*sample`.
pub const EWMA_ALPHA: f64 = 0.5;

/// Key of the latency-ordered index: ascending measured latency, peers
/// without a measurement last, ties broken by peer id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RankKey {
    latency: Option<SimDuration>,
    id: PeerId,
}

impl Ord for RankKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.latency, other.latency) {
            (Some(a), Some(b)) => a.cmp(&b).then(self.id.cmp(&other.id)),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => self.id.cmp(&other.id),
        }
    }
}

impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The MPD's cached list.
#[derive(Debug, Default)]
pub struct CachedList {
    entries: HashMap<PeerId, CacheEntry>,
    /// Latency-ordered view of `entries`, maintained on every mutation.
    index: BTreeSet<RankKey>,
}

impl CachedList {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CachedList {
            entries: HashMap::new(),
            index: BTreeSet::new(),
        }
    }

    /// Creates an empty cache pre-sized for `capacity` peers (e.g. the
    /// supernode's host-list length), so warm-up merges do not rehash.
    pub fn with_capacity(capacity: usize) -> Self {
        CachedList {
            entries: HashMap::with_capacity(capacity),
            index: BTreeSet::new(),
        }
    }

    /// Inserts an unprobed entry for `descriptor` unless its peer is already
    /// cached.  Returns `true` if the peer was new.  Both merge paths go
    /// through here so the entry/index invariant lives in one place.
    fn insert_if_vacant(&mut self, descriptor: PeerDescriptor) -> bool {
        let id = descriptor.id;
        if let std::collections::hash_map::Entry::Vacant(slot) = self.entries.entry(id) {
            slot.insert(CacheEntry {
                descriptor,
                latency: None,
                last_probe: None,
                failed_probes: 0,
            });
            self.index.insert(RankKey { latency: None, id });
            true
        } else {
            false
        }
    }

    /// Merges descriptors retrieved from the supernode into the cache,
    /// keeping existing latency estimates.  Returns the number of peers that
    /// were new to this cache.
    pub fn merge(&mut self, peers: impl IntoIterator<Item = PeerDescriptor>) -> usize {
        let mut added = 0;
        for d in peers {
            if self.insert_if_vacant(d) {
                added += 1;
            }
        }
        added
    }

    /// Like [`CachedList::merge`], but borrowing: descriptors are cloned only
    /// for peers actually new to the cache, so refreshing against an
    /// already-known host list allocates nothing.
    pub fn merge_refs<'a>(&mut self, peers: impl IntoIterator<Item = &'a PeerDescriptor>) -> usize {
        let mut added = 0;
        for d in peers {
            if !self.entries.contains_key(&d.id) && self.insert_if_vacant(d.clone()) {
                added += 1;
            }
        }
        added
    }

    /// Records a successful probe measurement for `peer`, smoothing with the
    /// previous estimate.  `O(log m)`: the peer's index key is re-slotted.
    pub fn record_probe(&mut self, peer: PeerId, sample: SimDuration, now: SimTime) {
        if let Some(e) = self.entries.get_mut(&peer) {
            let old = e.latency;
            let new = match old {
                Some(old) => {
                    let blended =
                        old.as_secs_f64() * (1.0 - EWMA_ALPHA) + sample.as_secs_f64() * EWMA_ALPHA;
                    SimDuration::from_secs_f64(blended)
                }
                None => sample,
            };
            e.latency = Some(new);
            e.last_probe = Some(now);
            e.failed_probes = 0;
            if old != Some(new) {
                self.index.remove(&RankKey {
                    latency: old,
                    id: peer,
                });
                self.index.insert(RankKey {
                    latency: Some(new),
                    id: peer,
                });
            }
        }
    }

    /// Records a failed probe (timeout) for `peer`.  Returns the new failure
    /// count, or `None` if the peer is not cached.  Does not move the peer in
    /// the latency order.
    pub fn record_probe_failure(&mut self, peer: PeerId) -> Option<u32> {
        self.entries.get_mut(&peer).map(|e| {
            e.failed_probes += 1;
            e.failed_probes
        })
    }

    /// Removes a peer (e.g. marked dead during a reservation round).
    pub fn remove(&mut self, peer: PeerId) -> bool {
        match self.entries.remove(&peer) {
            Some(e) => {
                self.index.remove(&RankKey {
                    latency: e.latency,
                    id: peer,
                });
                true
            }
            None => false,
        }
    }

    /// Looks up a cached entry.
    pub fn get(&self, peer: PeerId) -> Option<&CacheEntry> {
        self.entries.get(&peer)
    }

    /// Number of cached peers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All cached peers in unspecified order.
    pub fn peers(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.values()
    }

    /// Peer ids in ascending-latency order (unprobed last, ties by id),
    /// straight off the incremental index: no sort, no allocation.
    pub fn ranking_iter(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.index.iter().map(|k| k.id)
    }

    /// Cache entries in ascending-latency order, borrowed from the index.
    pub fn entries_by_latency(&self) -> impl Iterator<Item = &CacheEntry> {
        self.index.iter().map(|k| &self.entries[&k.id])
    }

    /// The cache sorted by ascending latency, which is exactly the order the
    /// booking step walks.  Materializes a `Vec`; hot paths should prefer
    /// [`CachedList::ranking_iter`] / [`CachedList::entries_by_latency`].
    pub fn sorted_by_latency(&self) -> Vec<&CacheEntry> {
        self.entries_by_latency().collect()
    }

    /// Convenience: peer ids in ascending-latency order.
    pub fn ranking(&self) -> Vec<PeerId> {
        self.ranking_iter().collect()
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
    fn merge_adds_only_new_peers() {
        let mut c = CachedList::new();
        assert_eq!(c.merge(vec![desc(0), desc(1)]), 2);
        assert_eq!(c.merge(vec![desc(1), desc(2)]), 1);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn probes_smooth_with_ewma() {
        let mut c = CachedList::new();
        c.merge(vec![desc(0)]);
        c.record_probe(PeerId(0), SimDuration::from_millis(10), SimTime::ZERO);
        assert_eq!(
            c.get(PeerId(0)).unwrap().latency,
            Some(SimDuration::from_millis(10))
        );
        c.record_probe(
            PeerId(0),
            SimDuration::from_millis(20),
            SimTime::from_secs(1),
        );
        // 0.5*10 + 0.5*20 = 15 ms
        assert_eq!(
            c.get(PeerId(0)).unwrap().latency,
            Some(SimDuration::from_millis(15))
        );
        assert_eq!(c.get(PeerId(0)).unwrap().failed_probes, 0);
    }

    #[test]
    fn failures_count_and_reset() {
        let mut c = CachedList::new();
        c.merge(vec![desc(0)]);
        assert_eq!(c.record_probe_failure(PeerId(0)), Some(1));
        assert_eq!(c.record_probe_failure(PeerId(0)), Some(2));
        assert_eq!(c.record_probe_failure(PeerId(9)), None);
        c.record_probe(PeerId(0), SimDuration::from_millis(5), SimTime::ZERO);
        assert_eq!(c.get(PeerId(0)).unwrap().failed_probes, 0);
    }

    #[test]
    fn sorting_puts_lowest_latency_first_and_unprobed_last() {
        let mut c = CachedList::new();
        c.merge(vec![desc(0), desc(1), desc(2), desc(3)]);
        c.record_probe(PeerId(2), SimDuration::from_millis(1), SimTime::ZERO);
        c.record_probe(PeerId(0), SimDuration::from_millis(12), SimTime::ZERO);
        c.record_probe(PeerId(1), SimDuration::from_millis(5), SimTime::ZERO);
        assert_eq!(
            c.ranking(),
            vec![PeerId(2), PeerId(1), PeerId(0), PeerId(3)]
        );
    }

    #[test]
    fn ties_break_by_peer_id() {
        let mut c = CachedList::new();
        c.merge(vec![desc(5), desc(3)]);
        c.record_probe(PeerId(5), SimDuration::from_millis(7), SimTime::ZERO);
        c.record_probe(PeerId(3), SimDuration::from_millis(7), SimTime::ZERO);
        assert_eq!(c.ranking(), vec![PeerId(3), PeerId(5)]);
    }

    #[test]
    fn remove_deletes_entry() {
        let mut c = CachedList::new();
        c.merge(vec![desc(0)]);
        assert!(c.remove(PeerId(0)));
        assert!(!c.remove(PeerId(0)));
        assert!(c.is_empty());
        assert_eq!(c.ranking_iter().count(), 0);
    }

    #[test]
    fn probing_unknown_peer_is_ignored() {
        let mut c = CachedList::new();
        c.record_probe(PeerId(4), SimDuration::from_millis(1), SimTime::ZERO);
        assert!(c.get(PeerId(4)).is_none());
    }

    #[test]
    fn incremental_index_matches_naive_sort() {
        let mut c = CachedList::with_capacity(8);
        c.merge((0..8).map(desc));
        for (i, ms) in [(0, 9), (3, 2), (5, 9), (1, 4)] {
            c.record_probe(PeerId(i), SimDuration::from_millis(ms), SimTime::ZERO);
        }
        c.remove(PeerId(5));
        c.record_probe(
            PeerId(3),
            SimDuration::from_millis(40),
            SimTime::from_secs(1),
        );
        // The booking order from first principles: every entry, sorted.
        let mut naive: Vec<&CacheEntry> = c.peers().collect();
        naive.sort_by_key(|e| (e.latency.is_none(), e.latency, e.descriptor.id));
        let naive: Vec<PeerId> = naive.into_iter().map(|e| e.descriptor.id).collect();
        assert_eq!(c.ranking(), naive);
        let via_entries: Vec<PeerId> = c.entries_by_latency().map(|e| e.descriptor.id).collect();
        assert_eq!(via_entries, naive);
    }

    #[test]
    fn ranking_iter_is_lazily_borrowing() {
        let mut c = CachedList::new();
        c.merge(vec![desc(0), desc(1), desc(2)]);
        c.record_probe(PeerId(1), SimDuration::from_millis(1), SimTime::ZERO);
        // Taking only the front of the iterator never walks the rest.
        let first = c.ranking_iter().next();
        assert_eq!(first, Some(PeerId(1)));
    }
}
