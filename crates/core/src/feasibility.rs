//! Allocation feasibility.
//!
//! Step 6 of the reservation procedure: "the MPD must decide whether the
//! allocation is feasible.  It is feasible if the two following conditions
//! are met: (a) |slist| ≥ r, (b) Σ c_i ≥ n × r."
//!
//! Condition (a) guarantees enough distinct hosts so that no two replicas of
//! a process share a host; condition (b) guarantees enough total capacity.

use crate::capacity::total_capacity;
use std::fmt;

/// Why an allocation is infeasible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Infeasibility {
    /// Fewer selected hosts than the replication degree (condition (a)).
    NotEnoughHostsForReplication {
        /// Number of selected hosts.
        hosts: usize,
        /// Requested replication degree.
        replication: u32,
    },
    /// Total capacity below `n × r` (condition (b)).
    InsufficientCapacity {
        /// Sum of host capacities.
        capacity: u64,
        /// Required `n × r`.
        required: u64,
    },
}

impl fmt::Display for Infeasibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Infeasibility::NotEnoughHostsForReplication { hosts, replication } => write!(
                f,
                "only {hosts} host(s) selected but replication degree is {replication}"
            ),
            Infeasibility::InsufficientCapacity { capacity, required } => write!(
                f,
                "selected hosts offer {capacity} process slot(s), {required} needed"
            ),
        }
    }
}

impl std::error::Error for Infeasibility {}

/// Checks the two feasibility conditions for a selected host list with the
/// given capacities (`c_i = min(P_i, n)` already applied).
pub(crate) fn check_feasibility(capacities: &[u32], n: u32, r: u32) -> Result<(), Infeasibility> {
    if capacities.len() < r as usize {
        return Err(Infeasibility::NotEnoughHostsForReplication {
            hosts: capacities.len(),
            replication: r,
        });
    }
    let required = n as u64 * r as u64;
    let capacity = total_capacity(capacities);
    if capacity < required {
        return Err(Infeasibility::InsufficientCapacity { capacity, required });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn feasible_when_both_conditions_hold() {
        assert!(check_feasibility(&[2, 2, 2], 3, 2).is_ok());
        assert!(check_feasibility(&[4], 4, 1).is_ok());
    }

    #[test]
    fn replication_needs_enough_hosts() {
        // One host cannot hold two replicas of anything.
        assert_eq!(
            check_feasibility(&[8], 3, 2),
            Err(Infeasibility::NotEnoughHostsForReplication {
                hosts: 1,
                replication: 2
            })
        );
    }

    #[test]
    fn capacity_must_cover_n_times_r() {
        assert_eq!(
            check_feasibility(&[1, 1, 1], 2, 2),
            Err(Infeasibility::InsufficientCapacity {
                capacity: 3,
                required: 4
            })
        );
    }

    #[test]
    fn paper_example_two_hosts_replication_two() {
        // p2pmpirun -n 3 -r 2 prog "requires a minimum of two hosts".
        assert!(check_feasibility(&[3, 3], 3, 2).is_ok());
        assert!(check_feasibility(&[3], 3, 2).is_err());
    }

    #[test]
    fn error_messages_are_informative() {
        let e = check_feasibility(&[1], 4, 2).unwrap_err();
        assert!(e.to_string().contains("replication"));
        let e = check_feasibility(&[1, 1], 4, 2).unwrap_err();
        assert!(e.to_string().contains("slot"));
    }

    proptest! {
        /// Feasibility is exactly the conjunction of the two paper conditions.
        #[test]
        fn matches_definition(
            caps in prop::collection::vec(0u32..6, 0..20),
            n in 1u32..10,
            r in 1u32..4,
        ) {
            let expected_a = caps.len() >= r as usize;
            let expected_b = caps.iter().map(|&c| c as u64).sum::<u64>() >= (n * r) as u64;
            let ok = check_feasibility(&caps, n, r).is_ok();
            prop_assert_eq!(ok, expected_a && expected_b);
        }
    }
}
