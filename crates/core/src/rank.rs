//! MPI rank assignment.
//!
//! Once a strategy has decided how many process instances `u_i` each selected
//! host receives, ranks are assigned with the paper's algorithm
//! (Section 4.3): walk the hosts in `slist` order, give each host `u_i`
//! consecutive ranks from a counter that wraps at `n`, and cancel the
//! reservation of hosts with `u_i = 0`.
//!
//! That counter is plain arithmetic.  Number the instances `g = 0, 1, …`
//! host by host in `slist` order.  Instance `g` reads the counter after `g`
//! steps, so it is rank `g mod n`; the instances before it that got the same
//! rank are `g - n, g - 2n, …`, so it is that rank's `⌊g / n⌋`-th copy, its
//! replica index.  [`assign_ranks`] therefore writes a job's instances into
//! one flat vector, host by host, and a host's share is a contiguous span of
//! it ([`crate::allocation::AllocatedHost::span`]).
//!
//! Criterion (b) — "no two copies of a process are on the same processor" —
//! follows from `u_i ≤ c_i ≤ n`: a host's span is at most `n` consecutive
//! values of `g`, whose ranks `g mod n` are pairwise distinct.

use p2pmpi_overlay::messages::RankAssignment;

/// Appends a job's rank instances to `ranks`, host by host, from the
/// per-host counts.
///
/// `counts[i]` is the number of process instances host `i` of the `slist`
/// receives; `n` is the number of logical ranks.  Host `i`'s instances are
/// the next `counts[i]` entries; a host with a zero count gets none — its
/// reservation is to be cancelled, as the paper prescribes.
///
/// The replica index attached to each instance counts how many times that
/// rank has been assigned before it (0 for the primary copy, then 1, 2, …).
///
/// # Panics
///
/// Panics if `n == 0` while `counts` is non-zero, or if any `counts[i] > n`
/// (which would force two copies of a rank onto one host).
pub(crate) fn assign_ranks(counts: &[u32], n: u32, ranks: &mut Vec<RankAssignment>) {
    let total: u32 = counts.iter().sum();
    if total == 0 {
        return;
    }
    assert!(n > 0, "cannot assign ranks for a zero-process job");
    assert!(
        counts.iter().all(|&c| c <= n),
        "a host was given more instances than there are ranks"
    );
    ranks.extend((0..total).map(|g| RankAssignment {
        rank: g % n,
        replica: g / n,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One non-empty host of an assignment: its `slist` index and instances.
    type HostView = (usize, Vec<RankAssignment>);

    /// The paper's wrapping counter as written: walk the hosts, hand each
    /// the next `u_i` counter values and count every rank's copies so far.
    fn reference(counts: &[u32], n: u32) -> Vec<HostView> {
        let mut result = Vec::new();
        let mut rank = 0u32;
        let mut copies = vec![0u32; n as usize];
        for (i, &ui) in counts.iter().enumerate() {
            if ui == 0 {
                continue;
            }
            let mut ranks = Vec::with_capacity(ui as usize);
            for _ in 0..ui {
                let replica = copies[rank as usize];
                copies[rank as usize] += 1;
                ranks.push(RankAssignment { rank, replica });
                rank += 1;
                if rank >= n {
                    rank = 0;
                }
            }
            result.push((i, ranks));
        }
        result
    }

    /// [`assign_ranks`]'s flat vector cut into the same per-host view.
    fn assign(counts: &[u32], n: u32) -> Vec<HostView> {
        let mut flat = Vec::new();
        assign_ranks(counts, n, &mut flat);
        let mut rest = flat.as_slice();
        let hosts = counts.iter().enumerate().filter(|&(_, &u)| u > 0);
        let view = hosts
            .map(|(i, &u)| {
                let (mine, tail) = rest.split_at(u as usize);
                rest = tail;
                (i, mine.to_vec())
            })
            .collect();
        assert!(rest.is_empty(), "instances beyond the counts");
        view
    }

    /// Criterion (b): no host holds two copies of the same rank.
    fn replicas_are_separated(assignment: &[HostView]) -> bool {
        assignment.iter().all(|(_, ranks)| {
            let mut seen = std::collections::HashSet::new();
            ranks.iter().all(|r| seen.insert(r.rank))
        })
    }

    /// Every rank `0..n` appears exactly `r` times overall.
    fn replication_is_complete(assignment: &[HostView], n: u32, r: u32) -> bool {
        let mut counts = vec![0u32; n as usize];
        for ra in assignment.iter().flat_map(|(_, ranks)| ranks) {
            if ra.rank >= n {
                return false;
            }
            counts[ra.rank as usize] += 1;
        }
        counts.iter().all(|&c| c == r)
    }

    /// A random feasible distribution of `n * r` instances, every count
    /// `<= n`, followed by `extra_hosts` empty hosts.
    fn random_counts(n: u32, r: u32, extra_hosts: usize, seed: u64) -> Vec<u32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut remaining = n * r;
        let mut counts = Vec::new();
        while remaining > 0 {
            let c = rng.gen_range(0..=n.min(remaining));
            counts.push(c);
            remaining -= c;
        }
        counts.extend(std::iter::repeat_n(0u32, extra_hosts));
        counts
    }

    #[test]
    fn simple_concentrate_style_assignment() {
        // n=4, one host of capacity 4: ranks 0..3 on that host.
        let a = assign(&[4], 4);
        assert_eq!(a.len(), 1);
        assert_eq!(
            a[0].1.iter().map(|r| r.rank).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(replicas_are_separated(&a));
        assert!(replication_is_complete(&a, 4, 1));
    }

    #[test]
    fn paper_example_n3_r2_two_hosts() {
        // "processes P0, P1 and P2 ... mapped on H0 and their replicas P'0,
        // P'1 and P'2 on H1".
        let a = assign(&[3, 3], 3);
        let copy = |replica| (0..3).map(move |rank| RankAssignment { rank, replica });
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].1, copy(0).collect::<Vec<_>>());
        assert_eq!(a[1].1, copy(1).collect::<Vec<_>>());
        assert!(replicas_are_separated(&a));
        assert!(replication_is_complete(&a, 3, 2));
    }

    #[test]
    fn zero_count_hosts_are_cancelled() {
        let a = assign(&[2, 0, 2], 4);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].0, 0);
        assert_eq!(a[1].0, 2);
        assert_eq!(
            a[1].1.iter().map(|r| r.rank).collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    #[test]
    fn spread_style_replication_interleaves_copies() {
        // n=2, r=2 over 4 hosts, one instance each: ranks 0,1,0,1 with
        // replica indices 0,0,1,1.
        let a = assign(&[1, 1, 1, 1], 2);
        let flat: Vec<(u32, u32)> = a
            .iter()
            .flat_map(|(_, ranks)| ranks.iter().map(|r| (r.rank, r.replica)))
            .collect();
        assert_eq!(flat, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
        assert!(replication_is_complete(&a, 2, 2));
    }

    #[test]
    fn empty_counts_yield_empty_assignment() {
        assert!(assign(&[0, 0], 4).is_empty());
        assert!(assign(&[], 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "more instances than there are ranks")]
    fn overfull_host_panics() {
        assign_ranks(&[5], 4, &mut Vec::new());
    }

    proptest! {
        /// For any feasible strategy output, the paper's criterion (b) holds:
        /// no host carries two copies of the same rank, and with
        /// `Σ u_i = n × r` every rank gets exactly `r` copies.
        #[test]
        fn assignment_invariants(
            n in 1u32..20,
            r in 1u32..4,
            extra_hosts in 0usize..10,
            seed in any::<u64>(),
        ) {
            let a = assign(&random_counts(n, r, extra_hosts, seed), n);
            prop_assert!(replicas_are_separated(&a));
            prop_assert!(replication_is_complete(&a, n, r));
            // Hosts in the result appear in slist order.
            prop_assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        }

        /// The arithmetic counter is the paper's wrapping counter, instance
        /// for instance, replica indices included.
        #[test]
        fn arithmetic_counter_matches_the_wrapping_reference(
            n in 1u32..20,
            r in 1u32..4,
            extra_hosts in 0usize..4,
            seed in any::<u64>(),
        ) {
            let counts = random_counts(n, r, extra_hosts, seed);
            prop_assert_eq!(assign(&counts, n), reference(&counts, n));
        }
    }
}
