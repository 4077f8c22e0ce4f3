//! The *concentrate* strategy.
//!
//! "Concentrate tends to maximize locality between processes by using as many
//! cores as hosts offer.  The strategy is to assign the maximum MPI processes
//! to the capacity of each host (c_i)." (Section 4.3.)
//!
//! The implementation is the paper's pseudocode: walk the selected hosts in
//! ascending latency order and give each host `min(c_i, remaining)` processes
//! until all `n × r` are placed.

use crate::strategy::check_preconditions;

/// Fill each host to capacity, closest hosts first.
pub(crate) fn distribute_into(capacities: &[u32], total: u32, out: &mut Vec<u32>) {
    check_preconditions(capacities, total);
    out.clear();
    out.resize(capacities.len(), 0);
    let mut d = 0u32;
    let mut cont = total > 0;
    while cont {
        let mut i = 0;
        while i < capacities.len() && cont {
            out[i] = capacities[i].min(total - d);
            d += out[i];
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
    fn fills_closest_hosts_first() {
        // Figure 2: up to the local site's core capacity, only the closest
        // hosts are used.
        let u = StrategyKind::Concentrate.distribute(&[4, 4, 4, 4], 10);
        assert_eq!(u, vec![4, 4, 2, 0]);
    }

    #[test]
    fn exact_capacity_fits_exactly() {
        let u = StrategyKind::Concentrate.distribute(&[4, 4], 8);
        assert_eq!(u, vec![4, 4]);
    }

    #[test]
    fn single_host_can_take_everything() {
        let u = StrategyKind::Concentrate.distribute(&[16, 4, 4], 10);
        assert_eq!(u, vec![10, 0, 0]);
    }

    #[test]
    fn zero_capacity_hosts_are_skipped() {
        let u = StrategyKind::Concentrate.distribute(&[0, 3, 0, 3], 4);
        assert_eq!(u, vec![0, 3, 0, 1]);
    }

    #[test]
    fn zero_total_is_all_zeros() {
        assert_eq!(StrategyKind::Concentrate.distribute(&[2, 2], 0), vec![0, 0]);
    }

    proptest! {
        /// Concentrate produces a "prefix-saturated" distribution: every host
        /// that received fewer processes than its capacity is followed only
        /// by hosts that received nothing.
        #[test]
        fn concentrate_is_prefix_saturated(
            caps in prop::collection::vec(0u32..8, 1..30),
            frac in 0.0f64..1.0,
        ) {
            let cap_sum: u64 = caps.iter().map(|&c| c as u64).sum();
            let total = (cap_sum as f64 * frac).floor() as u32;
            let u = StrategyKind::Concentrate.distribute(&caps, total);
            let mut partial_seen = false;
            for (i, (&ui, &ci)) in u.iter().zip(&caps).enumerate() {
                if partial_seen {
                    prop_assert_eq!(ui, 0, "host {} received work after a partial host", i);
                }
                if ui < ci {
                    partial_seen = true;
                }
            }
        }

        /// Concentrate never uses more hosts than spread does for the same
        /// input (it is the locality-maximising extreme).
        #[test]
        fn concentrate_uses_at_most_as_many_hosts_as_spread(
            caps in prop::collection::vec(0u32..8, 1..30),
            frac in 0.0f64..1.0,
        ) {
            let cap_sum: u64 = caps.iter().map(|&c| c as u64).sum();
            let total = (cap_sum as f64 * frac).floor() as u32;
            let uc = StrategyKind::Concentrate.distribute(&caps, total);
            let us = StrategyKind::Spread.distribute(&caps, total);
            let hosts = |u: &[u32]| u.iter().filter(|&&x| x > 0).count();
            prop_assert!(hosts(&uc) <= hosts(&us));
        }
    }
}
