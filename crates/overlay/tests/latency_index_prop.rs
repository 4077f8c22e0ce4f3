//! Property test: the incrementally maintained latency index of
//! [`p2pmpi_overlay::cache::CachedList`] must agree with the naive
//! sort-every-read reference under arbitrary operation
//! sequences — including the unprobed-sort-last and tie-by-peer-id rules.

use p2pmpi_overlay::cache::CachedList;
use p2pmpi_overlay::peer::{PeerDescriptor, PeerId};
use p2pmpi_simgrid::rngutil::seeded;
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::HostId;
use rand::Rng;

const PEER_UNIVERSE: usize = 48;
const OPS: usize = 1_500;

fn descriptor(i: usize) -> PeerDescriptor {
    PeerDescriptor::new(PeerId(i), HostId(i))
}

/// The booking order read through the incremental index.
fn incremental_order(cache: &CachedList) -> Vec<PeerId> {
    cache.ranking_iter().collect()
}

/// The booking order recomputed from first principles: every entry,
/// sorted by measured latency (unprobed last), ties by peer id.
fn naive_order(cache: &CachedList) -> Vec<PeerId> {
    let mut entries: Vec<_> = cache.peers().collect();
    entries.sort_by_key(|e| (e.latency.is_none(), e.latency, e.descriptor.id));
    entries.into_iter().map(|e| e.descriptor.id).collect()
}

fn run_sequence(seed: u64) {
    let mut rng = seeded(seed);
    let mut cache = CachedList::new();
    let mut time = SimTime::ZERO;
    for op in 0..OPS {
        time += SimDuration::from_millis(1);
        let peer = PeerId(rng.gen_range(0..PEER_UNIVERSE));
        match rng.gen_range(0u32..100) {
            // Merge a random small batch (some peers will already be known).
            0..=19 => {
                let count = rng.gen_range(1usize..6);
                let batch: Vec<PeerDescriptor> = (0..count)
                    .map(|_| descriptor(rng.gen_range(0..PEER_UNIVERSE)))
                    .collect();
                cache.merge(batch);
            }
            // Probe with latencies drawn from a tiny discrete set so that
            // exact ties across distinct peers are common, exercising the
            // tie-by-peer-id rule.
            20..=69 => {
                let ms = [5u64, 5, 10, 17, 42][rng.gen_range(0usize..5)];
                cache.record_probe(peer, SimDuration::from_millis(ms), time);
            }
            70..=84 => {
                cache.record_probe_failure(peer);
            }
            _ => {
                cache.remove(peer);
            }
        }
        // The index must agree with the reference order after *every*
        // mutation, not just at the end.
        let inc = incremental_order(&cache);
        let naive = naive_order(&cache);
        assert_eq!(
            inc, naive,
            "index diverged from naive sort after op {op} (seed {seed})"
        );
        assert_eq!(inc.len(), cache.len(), "index lost or duplicated peers");
    }

    // Structural spot-checks of the final order: measured peers precede
    // unprobed ones, latencies are non-decreasing, ties are id-ordered.
    let entries: Vec<_> = cache.sorted_by_latency();
    for pair in entries.windows(2) {
        match (pair[0].latency, pair[1].latency) {
            (Some(a), Some(b)) => {
                assert!(a <= b, "latency order violated (seed {seed})");
                if a == b {
                    assert!(
                        pair[0].descriptor.id < pair[1].descriptor.id,
                        "tie not broken by peer id (seed {seed})"
                    );
                }
            }
            (None, Some(_)) => panic!("an unprobed peer sorted before a measured one"),
            (Some(_), None) | (None, None) => {}
        }
    }
}

#[test]
fn incremental_index_matches_naive_sort_under_random_ops() {
    for seed in [1, 7, 42, 1234, 0xdead_beef] {
        run_sequence(seed);
    }
}

#[test]
fn unprobed_peers_always_sort_last() {
    let mut cache = CachedList::new();
    cache.merge((0..10).map(descriptor));
    let mut rng = seeded(99);
    for i in 0..5usize {
        let ms = rng.gen_range(1u64..50);
        cache.record_probe(PeerId(i), SimDuration::from_millis(ms), SimTime::ZERO);
    }
    let order = incremental_order(&cache);
    assert_eq!(order.len(), 10);
    // The measured five come first (in latency order), the unprobed five
    // last in id order.
    assert!(order[..5].iter().all(|p| p.0 < 5));
    assert_eq!(order[5..].to_vec(), (5..10).map(PeerId).collect::<Vec<_>>());
    assert_eq!(order, naive_order(&cache));
}
