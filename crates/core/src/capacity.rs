//! Host capacities.
//!
//! Step 6 of the reservation procedure defines the capacity of host `i` as
//! `c_i = min(P_i, n)`: the owner accepts at most `P_i` processes of one
//! application, and the allocator never places more than `n` processes of an
//! `n`-process job on a single host, because with replication two copies of
//! the same logical process would otherwise share the host.

/// Capacity of one host for a job of `n` logical processes, given the
/// owner's `P` setting.
pub(crate) fn host_capacity(owner_p: u32, n: u32) -> u32 {
    owner_p.min(n)
}

/// Sum of capacities, used by the feasibility check
/// `Σ c_i ≥ n × r`.
pub(crate) fn total_capacity(capacities: &[u32]) -> u64 {
    capacities.iter().map(|&c| c as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_min_of_p_and_n() {
        assert_eq!(host_capacity(4, 100), 4);
        assert_eq!(host_capacity(8, 3), 3);
        assert_eq!(host_capacity(0, 5), 0);
    }

    #[test]
    fn vectorised_capacities() {
        assert_eq!(total_capacity(&[1, 2, 4]), 7);
        assert_eq!(total_capacity(&[]), 0);
    }

    #[test]
    fn marginal_case_from_the_paper() {
        // "we must not allocate more than n processes to a single host even
        // if P > n since two copies would be on that host"
        let n = 3;
        let p = 8;
        assert_eq!(host_capacity(p, n), n);
    }
}
