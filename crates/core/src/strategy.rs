//! Allocation strategies.
//!
//! A strategy decides how many process instances `u_i` each selected host
//! receives, given the host capacities `c_i` (in ascending-latency order) and
//! the total `n × r` to place.  The paper proposes two strategies, *spread*
//! and *concentrate* (Section 4.3).

use std::fmt;
use std::str::FromStr;

/// The built-in strategies, as selected by `p2pmpirun -a <name>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Round-robin one process at a time over the selected hosts
    /// (maximises aggregate memory; locality is secondary).
    Spread,
    /// Fill each host to its capacity starting with the closest
    /// (maximises locality).
    Concentrate,
    /// Model-driven placement: an upstream searcher (the day sweep's
    /// `SearchContext`) attaches an explicit host plan to the request,
    /// which the co-allocator honors verbatim.  As a *distribution
    /// function* this delegates to [*concentrate*](StrategyKind::Concentrate) —
    /// the fallback whenever a plan is absent or invalidated by brokering
    /// (a planned peer refused, died, or lost capacity).
    Searched,
}

impl StrategyKind {
    /// The strategy's command-line name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            StrategyKind::Spread => "spread",
            StrategyKind::Concentrate => "concentrate",
            StrategyKind::Searched => "searched",
        }
    }

    /// Distributes `total` process instances over hosts with capacities
    /// `capacities` (ascending latency order), writing the per-host counts
    /// into `out` (cleared first).  This is the hot-path entry point: the
    /// co-allocation driver reuses one buffer across jobs.
    ///
    /// The result has the same length as `capacities`, `u_i ≤ c_i` for
    /// every `i` and `Σ u_i = total`: the rank-assignment step relies on
    /// these invariants, and the property tests in this module check them.
    ///
    /// # Panics
    ///
    /// Panics if `Σ capacities < total`; callers are expected to have
    /// verified feasibility first (step 6 of the procedure).
    pub(crate) fn distribute_into(&self, capacities: &[u32], total: u32, out: &mut Vec<u32>) {
        match *self {
            StrategyKind::Spread => crate::spread::distribute_into(capacities, total, out),
            StrategyKind::Concentrate | StrategyKind::Searched => {
                crate::concentrate::distribute_into(capacities, total, out)
            }
        }
    }

    /// Distributes using this strategy (allocating convenience wrapper over
    /// `StrategyKind::distribute_into`).
    pub fn distribute(&self, capacities: &[u32], total: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(capacities.len());
        self.distribute_into(capacities, total, &mut out);
        out
    }
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "spread" => Ok(StrategyKind::Spread),
            "concentrate" => Ok(StrategyKind::Concentrate),
            "searched" => Ok(StrategyKind::Searched),
            other => Err(format!(
                "unknown strategy '{other}' (expected spread, concentrate or searched)"
            )),
        }
    }
}

/// Asserts the common preconditions of the strategy implementations.
pub(crate) fn check_preconditions(capacities: &[u32], total: u32) {
    let cap: u64 = capacities.iter().map(|&c| c as u64).sum();
    assert!(
        cap >= total as u64,
        "infeasible distribution: total capacity {cap} < {total} requested \
         (feasibility must be checked before distributing)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn names_and_parsing() {
        assert_eq!(StrategyKind::Spread.name(), "spread");
        assert_eq!(StrategyKind::Concentrate.to_string(), "concentrate");
        assert_eq!(
            "spread".parse::<StrategyKind>().unwrap(),
            StrategyKind::Spread
        );
        assert_eq!(
            "Concentrate".parse::<StrategyKind>().unwrap(),
            StrategyKind::Concentrate
        );
        assert_eq!(
            "searched".parse::<StrategyKind>().unwrap(),
            StrategyKind::Searched
        );
        assert_eq!(StrategyKind::Searched.to_string(), "searched");
        assert!("balanced:2".parse::<StrategyKind>().is_err());
        assert!("random".parse::<StrategyKind>().is_err());
    }

    /// The three strategy invariants hold for every built-in strategy on
    /// arbitrary feasible inputs.
    fn strategy_invariants(kind: StrategyKind, capacities: Vec<u32>, total: u32) {
        let u = kind.distribute(&capacities, total);
        assert_eq!(u.len(), capacities.len());
        for (ui, ci) in u.iter().zip(&capacities) {
            assert!(ui <= ci, "{kind}: u {ui} exceeds capacity {ci}");
        }
        assert_eq!(u.iter().map(|&x| x as u64).sum::<u64>(), total as u64);
    }

    proptest! {
        #[test]
        fn all_strategies_respect_invariants(
            caps in prop::collection::vec(0u32..8, 1..40),
            frac in 0.0f64..1.0,
        ) {
            let cap_sum: u64 = caps.iter().map(|&c| c as u64).sum();
            let total = (cap_sum as f64 * frac).floor() as u32;
            strategy_invariants(StrategyKind::Spread, caps.clone(), total);
            strategy_invariants(StrategyKind::Concentrate, caps.clone(), total);
            strategy_invariants(StrategyKind::Searched, caps, total);
        }
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_distribution_panics() {
        StrategyKind::Spread.distribute(&[1, 1], 3);
    }
}
