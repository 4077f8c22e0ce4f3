//! The MPD's cached peer list with measured latencies.
//!
//! Each MPD keeps a local cache of the supernode's host list; "to each host
//! in the cache list is associated a network latency value" obtained by
//! periodically ping'ing it (Section 4.1).  The booking step of the
//! reservation procedure walks this cache in ascending-latency order and
//! books hosts from the front.
//!
//! ## The sorted latency index
//!
//! Entries live in a `Vec` indexed by [`PeerId`] (peer ids are dense
//! node-table indices), and the booking order is a sorted `Vec` of
//! `(latency, peer)` keys that [`CachedList::ranking_iter`] reads as a
//! slice.  The order changes in bulk: a probe round re-measures every cached
//! peer ([`CachedList::record_probes`]), rewrites each key in place while
//! it walks them and then sorts once, so a round costs one pass plus one
//! sort of nearly sorted keys instead of a tree removal and insertion per
//! peer.  A merge that adds peers appends their keys and sorts once; the
//! rarer single changes ([`CachedList::record_probe`],
//! [`CachedList::remove`]) binary-search their key.  Peers without a
//! measurement sort last (they are the least attractive candidates); ties
//! break by peer id for determinism.  The tests compare the index against
//! sorting every entry on each read.

use crate::peer::{PeerDescriptor, PeerId};
use p2pmpi_simgrid::time::{SimDuration, SimTime};

/// One cached peer with its latest latency estimate.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The cached peer.
    pub descriptor: PeerDescriptor,
    /// Smoothed latency estimate from application-level probes; `None` until
    /// the first probe completes.
    pub latency: Option<SimDuration>,
    /// Time of the last successful probe.
    pub(crate) last_probe: Option<SimTime>,
    /// Consecutive failed probes / timeouts.
    pub failed_probes: u32,
}

impl CacheEntry {
    /// Folds one successful probe measurement into the estimate.
    fn observe(&mut self, sample: SimDuration, now: SimTime) {
        self.latency = Some(match self.latency {
            Some(old) => SimDuration::from_secs_f64(
                old.as_secs_f64() * (1.0 - EWMA_ALPHA) + sample.as_secs_f64() * EWMA_ALPHA,
            ),
            None => sample,
        });
        self.last_probe = Some(now);
        self.failed_probes = 0;
    }
}

/// Exponential smoothing factor applied to successive probe measurements:
/// `new = (1-EWMA_ALPHA)*old + EWMA_ALPHA*sample`.
pub(crate) const EWMA_ALPHA: f64 = 0.5;

/// Key of the latency-ordered index, compared field by field: peers
/// without a measurement last, then ascending measured latency, ties broken
/// by peer id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RankKey {
    unprobed: bool,
    /// The measured latency; zero while unprobed.
    latency: SimDuration,
    id: PeerId,
}

impl RankKey {
    fn new(latency: Option<SimDuration>, id: PeerId) -> Self {
        RankKey {
            unprobed: latency.is_none(),
            latency: latency.unwrap_or_default(),
            id,
        }
    }
}

/// The MPD's cached list.
#[derive(Debug, Default)]
pub struct CachedList {
    /// The cached entries, indexed by peer id.
    entries: Vec<Option<CacheEntry>>,
    /// One key per cached entry, sorted: the booking order.
    order: Vec<RankKey>,
}

impl CachedList {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CachedList::default()
    }

    fn entry_mut(&mut self, peer: PeerId) -> Option<&mut CacheEntry> {
        self.entries.get_mut(peer.0).and_then(Option::as_mut)
    }

    /// Position of `key` in the booking order; the key must be there.
    fn position(&self, key: RankKey) -> usize {
        self.order
            .binary_search(&key)
            .expect("every cached peer has its key in the order")
    }

    /// Merges descriptors retrieved from the supernode into the cache,
    /// keeping existing latency estimates.  Descriptors are cloned only for
    /// peers new to the cache, so refreshing against an already-known host
    /// list allocates nothing.  Returns the number of peers that were new.
    pub fn merge<'a>(&mut self, peers: impl IntoIterator<Item = &'a PeerDescriptor>) -> usize {
        let before = self.order.len();
        for d in peers {
            let id = d.id;
            if id.0 >= self.entries.len() {
                self.entries.resize_with(id.0 + 1, || None);
            }
            if self.entries[id.0].is_none() {
                self.entries[id.0] = Some(CacheEntry {
                    descriptor: d.clone(),
                    latency: None,
                    last_probe: None,
                    failed_probes: 0,
                });
                self.order.push(RankKey::new(None, id));
            }
        }
        let added = self.order.len() - before;
        if added > 0 {
            self.order.sort_unstable();
        }
        added
    }

    /// One probe round: walks every cached peer in the booking order, asks
    /// `probe` for its measurement (`None`: the probe failed) and folds it
    /// into the entry, then re-sorts the order once.  The walk sees the
    /// order as it was before the round.
    pub fn record_probes(
        &mut self,
        now: SimTime,
        mut probe: impl FnMut(PeerId) -> Option<SimDuration>,
    ) {
        for key in &mut self.order {
            let entry = self.entries[key.id.0]
                .as_mut()
                .expect("every key in the order is cached");
            match probe(key.id) {
                Some(sample) => {
                    entry.observe(sample, now);
                    *key = RankKey::new(entry.latency, key.id);
                }
                None => entry.failed_probes += 1,
            }
        }
        self.order.sort_unstable();
    }

    /// Records a successful probe measurement for `peer`, smoothing with the
    /// previous estimate.
    pub fn record_probe(&mut self, peer: PeerId, sample: SimDuration, now: SimTime) {
        let Some(entry) = self.entry_mut(peer) else {
            return;
        };
        let old = RankKey::new(entry.latency, peer);
        entry.observe(sample, now);
        let key = RankKey::new(entry.latency, peer);
        let at = self.position(old);
        self.order.remove(at);
        let at = self.order.partition_point(|k| *k < key);
        self.order.insert(at, key);
    }

    /// Records a failed probe (timeout) for `peer`.  Returns the new failure
    /// count, or `None` if the peer is not cached.  Does not move the peer in
    /// the latency order.
    pub fn record_probe_failure(&mut self, peer: PeerId) -> Option<u32> {
        self.entry_mut(peer).map(|e| {
            e.failed_probes += 1;
            e.failed_probes
        })
    }

    /// Removes a peer (e.g. marked dead during a reservation round).
    pub fn remove(&mut self, peer: PeerId) -> bool {
        match self.entries.get_mut(peer.0).and_then(Option::take) {
            Some(e) => {
                let at = self.position(RankKey::new(e.latency, peer));
                self.order.remove(at);
                true
            }
            None => false,
        }
    }

    /// Looks up a cached entry.
    pub fn get(&self, peer: PeerId) -> Option<&CacheEntry> {
        self.entries.get(peer.0).and_then(Option::as_ref)
    }

    /// Number of cached peers.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// All cached peers in peer-id order.
    pub fn peers(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.iter().flatten()
    }

    /// Peer ids in ascending-latency order (unprobed last, ties by id),
    /// straight off the sorted index: no sort, no allocation.
    pub fn ranking_iter(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.order.iter().map(|k| k.id)
    }

    /// Cache entries in ascending-latency order, borrowed from the index.
    pub fn entries_by_latency(&self) -> impl Iterator<Item = &CacheEntry> {
        self.ranking_iter().map(|id| self.get(id).expect("cached"))
    }

    /// The cache sorted by ascending latency, which is exactly the order the
    /// booking step walks.  Materializes a `Vec`; hot paths should prefer
    /// [`CachedList::ranking_iter`] / [`CachedList::entries_by_latency`].
    pub fn sorted_by_latency(&self) -> Vec<&CacheEntry> {
        self.entries_by_latency().collect()
    }

    /// Convenience: peer ids in ascending-latency order.
    pub(crate) fn ranking(&self) -> Vec<PeerId> {
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
        assert_eq!(c.merge(&[desc(0), desc(1)]), 2);
        assert_eq!(c.merge(&[desc(1), desc(2)]), 1);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn probes_smooth_with_ewma() {
        let mut c = CachedList::new();
        c.merge(&[desc(0)]);
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
        c.merge(&[desc(0)]);
        assert_eq!(c.record_probe_failure(PeerId(0)), Some(1));
        assert_eq!(c.record_probe_failure(PeerId(0)), Some(2));
        assert_eq!(c.record_probe_failure(PeerId(9)), None);
        c.record_probe(PeerId(0), SimDuration::from_millis(5), SimTime::ZERO);
        assert_eq!(c.get(PeerId(0)).unwrap().failed_probes, 0);
    }

    #[test]
    fn sorting_puts_lowest_latency_first_and_unprobed_last() {
        let mut c = CachedList::new();
        c.merge(&[desc(0), desc(1), desc(2), desc(3)]);
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
        c.merge(&[desc(5), desc(3)]);
        c.record_probe(PeerId(5), SimDuration::from_millis(7), SimTime::ZERO);
        c.record_probe(PeerId(3), SimDuration::from_millis(7), SimTime::ZERO);
        assert_eq!(c.ranking(), vec![PeerId(3), PeerId(5)]);
    }

    #[test]
    fn remove_deletes_entry() {
        let mut c = CachedList::new();
        c.merge(&[desc(0)]);
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
        let mut c = CachedList::new();
        c.merge(&(0..8).map(desc).collect::<Vec<_>>());
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
        c.merge(&[desc(0), desc(1), desc(2)]);
        c.record_probe(PeerId(1), SimDuration::from_millis(1), SimTime::ZERO);
        // Taking only the front of the iterator never walks the rest.
        let first = c.ranking_iter().next();
        assert_eq!(first, Some(PeerId(1)));
    }
}
