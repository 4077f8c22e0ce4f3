//! Host-capacity and idle-slot queries for the placement search.
//!
//! The search layer (`p2pmpi-bench`'s `paper fig4 --searched`) proposes migrate
//! moves by sampling *uniformly over idle core slots* of the whole grid —
//! a host with three free cores is three times as likely a destination as
//! one with a single free core, which is exactly how the co-allocator's
//! booking step weights hosts too.  [`IdleSlotIndex`] supports that with a
//! Fenwick (binary-indexed) tree over per-host free-slot counts:
//! `occupy`/`release` and `nth_free_slot` are all `O(log hosts)`, so a
//! 10k-move annealing chain spends microseconds here, not milliseconds.

use p2pmpi_simgrid::topology::{HostId, Topology};

/// Slot capacity of every host, in host-id order — the core count, which is
/// both the owner preference `P` of the paper's experiments and the bound
/// the placement evaluator (`p2pmpi_mpi::model::PlacementCost`) enforces
/// on migrates.
pub fn host_capacities(topology: &Topology) -> Vec<u32> {
    topology.hosts().iter().map(|h| h.cores as u32).collect()
}

/// Free-slot bookkeeping over all hosts with `O(log hosts)` updates and
/// uniform-over-slots sampling.
#[derive(Debug, Clone)]
pub struct IdleSlotIndex {
    /// Free slots per host.
    free: Vec<u32>,
    /// Fenwick tree over `free` (1-based, prefix sums of free slots).
    tree: Vec<u64>,
    total_free: u64,
}

impl IdleSlotIndex {
    /// An index with every host fully idle.
    #[cfg(test)]
    pub(crate) fn new(topology: &Topology) -> IdleSlotIndex {
        Self::from_capacities(&host_capacities(topology))
    }

    /// An index with explicit initial free-slot counts.
    pub fn from_capacities(free: &[u32]) -> IdleSlotIndex {
        let mut idx = IdleSlotIndex {
            free: free.to_vec(),
            tree: vec![0; free.len() + 1],
            total_free: 0,
        };
        for (h, &f) in free.iter().enumerate() {
            if f > 0 {
                idx.add(h, i64::from(f));
            }
        }
        idx.total_free = free.iter().map(|&f| u64::from(f)).sum();
        idx
    }

    /// An index reflecting an existing assignment: capacities minus the
    /// ranks already placed on each host.
    ///
    /// # Panics
    ///
    /// Panics if the assignment oversubscribes a host.
    pub fn for_placement(topology: &Topology, hosts: &[HostId]) -> IdleSlotIndex {
        let mut free = host_capacities(topology);
        for &h in hosts {
            assert!(free[h.0] > 0, "{h} is oversubscribed");
            free[h.0] -= 1;
        }
        Self::from_capacities(&free)
    }

    fn add(&mut self, host: usize, delta: i64) {
        let mut i = host + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Total idle slots across the grid.
    pub fn free_slots(&self) -> u64 {
        self.total_free
    }

    /// Takes one slot on `host`; returns `false` (without mutating) if the
    /// host is full.
    pub fn occupy(&mut self, host: HostId) -> bool {
        if self.free[host.0] == 0 {
            return false;
        }
        self.free[host.0] -= 1;
        self.total_free -= 1;
        self.add(host.0, -1);
        true
    }

    /// Returns one slot on `host`.
    pub fn release(&mut self, host: HostId) {
        self.free[host.0] += 1;
        self.total_free += 1;
        self.add(host.0, 1);
    }

    /// The host owning the `k`-th idle slot (0-based, slots ordered by host
    /// id): sample `k` uniformly from `0..free_slots()` for an
    /// uniform-over-slots random destination.
    ///
    /// # Panics
    ///
    /// Panics if `k >= free_slots()`.
    pub fn nth_free_slot(&self, k: u64) -> HostId {
        assert!(k < self.total_free, "slot index out of range");
        let mut remaining = k;
        let mut pos = 0usize;
        let mut mask = self.tree.len().next_power_of_two() >> 1;
        while mask > 0 {
            let next = pos + mask;
            if next < self.tree.len() && self.tree[next] <= remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            mask >>= 1;
        }
        HostId(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::scaled_table1;
    use crate::testbed::topology_from_specs;

    #[test]
    fn capacities_match_the_table() {
        let t = topology_from_specs(&scaled_table1(1));
        let caps = host_capacities(&t);
        assert_eq!(caps.len(), 350);
        assert_eq!(caps.iter().map(|&c| c as usize).sum::<usize>(), 1040);
        // Nancy grelon nodes are quad-core.
        assert_eq!(caps[0], 4);
    }

    #[test]
    fn occupy_release_and_sampling_agree_with_a_naive_walk() {
        let t = topology_from_specs(&scaled_table1(1));
        let mut idx = IdleSlotIndex::new(&t);
        assert_eq!(idx.free_slots(), 1040);

        // Fill the first two hosts completely.
        let h0 = t.hosts()[0].id;
        let h1 = t.hosts()[1].id;
        for _ in 0..4 {
            assert!(idx.occupy(h0));
            assert!(idx.occupy(h1));
        }
        assert!(!idx.occupy(h0), "full host refuses");
        assert_eq!(idx.free[h0.0], 0);
        assert_eq!(idx.free_slots(), 1032);

        // Slot 0 now lives on the first non-full host.
        assert_eq!(idx.nth_free_slot(0), t.hosts()[2].id);
        // The last slot lives on the last host.
        assert_eq!(idx.nth_free_slot(1031), t.hosts()[349].id);

        // Cross-check a spread of slot indices against a naive prefix walk.
        for k in [1u64, 17, 500, 777, 1000] {
            let mut remaining = k;
            let mut naive = None;
            for h in t.hosts() {
                let f = u64::from(idx.free[h.id.0]);
                if remaining < f {
                    naive = Some(h.id);
                    break;
                }
                remaining -= f;
            }
            assert_eq!(idx.nth_free_slot(k), naive.unwrap(), "slot {k}");
        }

        idx.release(h0);
        assert_eq!(idx.free[h0.0], 1);
        assert_eq!(idx.nth_free_slot(0), h0);
    }

    #[test]
    fn for_placement_subtracts_the_assignment() {
        let t = topology_from_specs(&scaled_table1(1));
        let h0 = t.hosts()[0].id;
        let hosts = vec![h0, h0, t.hosts()[5].id];
        let idx = IdleSlotIndex::for_placement(&t, &hosts);
        assert_eq!(idx.free[h0.0], 2);
        assert_eq!(idx.free_slots(), 1037);
    }

    #[test]
    #[should_panic(expected = "oversubscribed")]
    fn for_placement_rejects_oversubscription() {
        let t = topology_from_specs(&scaled_table1(1));
        let h1 = t.hosts()[1].id; // grelon: 4 cores
        IdleSlotIndex::for_placement(&t, &[h1; 5]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sampling_past_the_free_count_panics() {
        let t = topology_from_specs(&scaled_table1(1));
        let idx = IdleSlotIndex::new(&t);
        idx.nth_free_slot(1040);
    }
}
