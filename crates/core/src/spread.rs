//! The *spread* strategy.
//!
//! "Spread tends to map processes on hosts so as to maximize the total amount
//! of available memory while maintaining locality as a secondary objective.
//! The strategy is to assign the MPI processes to all selected hosts (the
//! |slist| closest hosts regarding latency) in a round-robin fashion."
//! (Section 4.3.)
//!
//! The implementation below is a direct transcription of the paper's
//! pseudocode: repeatedly sweep the host list in latency order, placing one
//! process on each host that still has spare capacity, until `n × r`
//! processes have been placed.

use crate::strategy::check_preconditions;

/// Round-robin, one process per host per sweep.
pub(crate) fn distribute_into(capacities: &[u32], total: u32, out: &mut Vec<u32>) {
    check_preconditions(capacities, total);
    out.clear();
    out.resize(capacities.len(), 0);
    let mut d = 0u32; // processes distributed so far
    let mut cont = total > 0;
    while cont {
        let mut i = 0;
        while i < capacities.len() && cont {
            if out[i] < capacities[i] {
                out[i] += 1;
                d += 1;
            }
            if d == total {
                cont = false;
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::strategy::StrategyKind;
    use proptest::prelude::*;

    #[test]
    fn one_process_per_host_when_enough_hosts() {
        // 6 hosts of capacity 4, 4 processes: the 4 closest hosts take one
        // process each — the behaviour Figure 3 shows while hosts remain.
        let u = StrategyKind::Spread.distribute(&[4, 4, 4, 4, 4, 4], 4);
        assert_eq!(u, vec![1, 1, 1, 1, 0, 0]);
    }

    #[test]
    fn second_sweep_starts_at_closest_host() {
        // "the closest peers are first chosen to host a second process as
        // they have extra available cores" — the stair of Figure 3.
        let u = StrategyKind::Spread.distribute(&[4, 4, 4], 5);
        assert_eq!(u, vec![2, 2, 1]);
    }

    #[test]
    fn hosts_at_capacity_are_skipped() {
        let u = StrategyKind::Spread.distribute(&[1, 3, 1], 5);
        assert_eq!(u, vec![1, 3, 1]);
        let u = StrategyKind::Spread.distribute(&[1, 3, 2], 5);
        assert_eq!(u, vec![1, 2, 2]);
    }

    #[test]
    fn zero_capacity_hosts_get_nothing() {
        let u = StrategyKind::Spread.distribute(&[0, 2, 0, 2], 3);
        assert_eq!(u, vec![0, 2, 0, 1]);
    }

    #[test]
    fn zero_total_is_all_zeros() {
        assert_eq!(StrategyKind::Spread.distribute(&[3, 3], 0), vec![0, 0]);
    }

    #[test]
    fn exact_fill_uses_every_slot() {
        let u = StrategyKind::Spread.distribute(&[2, 2, 2], 6);
        assert_eq!(u, vec![2, 2, 2]);
    }

    #[test]
    fn paper_example_three_processes_two_hosts_replicated() {
        // p2pmpirun -n 3 -r 2 on two hosts of capacity >= 3: 6 instances are
        // placed 3 + 3.
        let u = StrategyKind::Spread.distribute(&[3, 3], 6);
        assert_eq!(u, vec![3, 3]);
    }

    proptest! {
        /// Spread keeps the load as even as the capacities allow: any host
        /// strictly below its capacity is at most one process below any other
        /// host (it would have received the next round-robin slot otherwise).
        #[test]
        fn spread_is_balanced(
            caps in prop::collection::vec(0u32..6, 1..30),
            frac in 0.0f64..1.0,
        ) {
            let cap_sum: u64 = caps.iter().map(|&c| c as u64).sum();
            let total = (cap_sum as f64 * frac).floor() as u32;
            let u = StrategyKind::Spread.distribute(&caps, total);
            let max_u = *u.iter().max().unwrap();
            for (i, (&ui, &ci)) in u.iter().zip(&caps).enumerate() {
                if ui < ci {
                    prop_assert!(
                        max_u <= ui + 1,
                        "host {i} has spare capacity but lags: u={ui}, max={max_u}"
                    );
                }
            }
        }

        /// Earlier (lower-latency) hosts never carry less than later hosts
        /// minus one sweep, i.e. the prefix is preferred.
        #[test]
        fn spread_prefers_earlier_hosts(
            caps in prop::collection::vec(1u32..6, 2..20),
            frac in 0.0f64..1.0,
        ) {
            let cap_sum: u64 = caps.iter().map(|&c| c as u64).sum();
            let total = (cap_sum as f64 * frac).floor() as u32;
            let u = StrategyKind::Spread.distribute(&caps, total);
            for w in 0..u.len() - 1 {
                let (a, b) = (u[w], u[w + 1]);
                // If host w still has capacity, it cannot be behind host w+1.
                if a < caps[w] {
                    prop_assert!(a >= b, "host {w}: {a} < next {b}");
                }
            }
        }
    }
}
