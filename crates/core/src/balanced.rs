//! The *balanced* strategy (extension).
//!
//! The paper's conclusion lists "the design of mixed strategies" as future
//! work: policies between the two extremes that do not require the user to
//! know the platform.  `Balanced(k)` is such a policy: it first fills hosts
//! like *concentrate* but never beyond `k` processes per host, then, if
//! processes remain, falls back to a *spread*-style round-robin over the
//! residual capacities.  `Balanced(1)` degenerates to spread-with-enough-
//! hosts; `Balanced(∞)` degenerates to concentrate.

use crate::strategy::{check_preconditions, AllocationStrategy};

/// Concentrate up to a per-host cap, then round-robin the remainder.
#[derive(Debug, Clone, Copy)]
pub struct Balanced {
    max_per_host: u32,
}

impl Balanced {
    /// Creates the strategy with the given per-host cap (≥ 1).
    pub fn new(max_per_host: u32) -> Self {
        assert!(max_per_host >= 1, "the per-host cap must be at least 1");
        Balanced { max_per_host }
    }

    /// The per-host cap.
    pub fn max_per_host(&self) -> u32 {
        self.max_per_host
    }
}

impl AllocationStrategy for Balanced {
    fn distribute_into(&self, capacities: &[u32], total: u32, out: &mut Vec<u32>) {
        check_preconditions(capacities, total);
        out.clear();
        out.resize(capacities.len(), 0);
        let mut remaining = total;

        // Phase 1: concentrate, capped at max_per_host.
        for (ui, &ci) in out.iter_mut().zip(capacities) {
            if remaining == 0 {
                break;
            }
            let take = ci.min(self.max_per_host).min(remaining);
            *ui = take;
            remaining -= take;
        }

        // Phase 2: round-robin whatever is left over the residual capacity.
        while remaining > 0 {
            let mut progressed = false;
            for (ui, &ci) in out.iter_mut().zip(capacities) {
                if remaining == 0 {
                    break;
                }
                if *ui < ci {
                    *ui += 1;
                    remaining -= 1;
                    progressed = true;
                }
            }
            assert!(progressed, "feasibility precondition violated");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concentrate::Concentrate;
    use crate::spread::Spread;
    use proptest::prelude::*;

    #[test]
    fn cap_limits_first_phase() {
        let u = Balanced::new(2).distribute(&[4, 4, 4], 5);
        assert_eq!(u, vec![2, 2, 1]);
    }

    #[test]
    fn overflow_falls_back_to_round_robin() {
        let u = Balanced::new(2).distribute(&[4, 4], 7);
        assert_eq!(u, vec![4, 3]);
    }

    #[test]
    fn cap_one_is_spread_like_when_hosts_suffice() {
        let caps = vec![4, 4, 4, 4];
        assert_eq!(
            Balanced::new(1).distribute(&caps, 4),
            Spread.distribute(&caps, 4)
        );
    }

    #[test]
    fn huge_cap_is_concentrate() {
        let caps = vec![4, 2, 6];
        assert_eq!(
            Balanced::new(u32::MAX).distribute(&caps, 9),
            Concentrate.distribute(&caps, 9)
        );
    }

    #[test]
    fn accessor_returns_cap() {
        assert_eq!(Balanced::new(3).max_per_host(), 3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_cap_panics() {
        Balanced::new(0);
    }

    proptest! {
        /// Balanced uses at least as many hosts as concentrate and at most as
        /// many as spread — it sits between the two extremes.
        #[test]
        fn balanced_sits_between_extremes(
            caps in prop::collection::vec(0u32..8, 1..25),
            frac in 0.0f64..1.0,
            k in 1u32..5,
        ) {
            let cap_sum: u64 = caps.iter().map(|&c| c as u64).sum();
            let total = (cap_sum as f64 * frac).floor() as u32;
            let hosts = |u: &[u32]| u.iter().filter(|&&x| x > 0).count();
            let ub = Balanced::new(k).distribute(&caps, total);
            let uc = Concentrate.distribute(&caps, total);
            let us = Spread.distribute(&caps, total);
            prop_assert!(hosts(&ub) >= hosts(&uc));
            prop_assert!(hosts(&ub) <= hosts(&us).max(hosts(&uc)));
        }
    }
}
