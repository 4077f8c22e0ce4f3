//! Process placement: which host runs which `(rank, replica)` instance.
//!
//! A [`Placement`] is the hand-over point between the co-allocation layer
//! (`p2pmpi-core`, which produces an [`Allocation`]) and the MPI runtime.
//! It can also be constructed directly for tests and micro-benchmarks.

use crate::error::Rank;
use p2pmpi_core::allocation::Allocation;
use p2pmpi_simgrid::topology::HostId;
use std::collections::HashMap;
use std::fmt;

/// One process instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcSpec {
    /// Logical MPI rank.
    pub rank: Rank,
    /// Replica index (0 = primary copy).
    pub replica: u32,
    /// Host the instance runs on.
    pub host: HostId,
}

/// A complete placement of `n × r` process instances.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Number of logical ranks.
    pub processes: u32,
    /// Replication degree.
    pub replication: u32,
    /// All instances; every `(rank, replica)` pair appears exactly once.
    pub procs: Vec<ProcSpec>,
}

/// Placement validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// Some `(rank, replica)` pair is missing or duplicated.
    IncompleteInstances,
    /// Two replicas of the same rank share a host.
    ReplicasShareHost {
        /// The rank whose copies collide.
        rank: Rank,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::IncompleteInstances => {
                write!(
                    f,
                    "placement does not cover every (rank, replica) exactly once"
                )
            }
            PlacementError::ReplicasShareHost { rank } => {
                write!(f, "two replicas of rank {rank} share a host")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

impl Placement {
    /// Converts a validated co-allocation into a placement.
    pub fn from_allocation(allocation: &Allocation) -> Placement {
        let mut procs = Vec::with_capacity(allocation.total_instances() as usize);
        for h in &allocation.hosts {
            for ra in &h.ranks {
                procs.push(ProcSpec {
                    rank: ra.rank,
                    replica: ra.replica,
                    host: h.host,
                });
            }
        }
        Placement {
            processes: allocation.processes,
            replication: allocation.replication,
            procs,
        }
    }

    /// All `n` ranks on one host (a "concentrate onto one node" extreme,
    /// handy for unit tests).
    pub fn co_located(n: u32, host: HostId) -> Placement {
        Placement {
            processes: n,
            replication: 1,
            procs: (0..n)
                .map(|rank| ProcSpec {
                    rank,
                    replica: 0,
                    host,
                })
                .collect(),
        }
    }

    /// One rank per host, in order (`n = hosts.len()`).
    pub fn one_per_host(hosts: &[HostId]) -> Placement {
        Placement {
            processes: hosts.len() as u32,
            replication: 1,
            procs: hosts
                .iter()
                .enumerate()
                .map(|(rank, &host)| ProcSpec {
                    rank: rank as Rank,
                    replica: 0,
                    host,
                })
                .collect(),
        }
    }

    /// `n` ranks dealt round-robin over `hosts`.
    pub fn round_robin(n: u32, hosts: &[HostId]) -> Placement {
        assert!(!hosts.is_empty(), "round_robin needs at least one host");
        Placement {
            processes: n,
            replication: 1,
            procs: (0..n)
                .map(|rank| ProcSpec {
                    rank,
                    replica: 0,
                    host: hosts[rank as usize % hosts.len()],
                })
                .collect(),
        }
    }

    /// `n` ranks with `r` replicas each, replica `k` of every rank living on
    /// `hosts[k]`-style rotation: replica copies are shifted by one host so
    /// that no two copies of a rank collide.  Requires `hosts.len() >= r`.
    pub fn replicated_round_robin(n: u32, r: u32, hosts: &[HostId]) -> Placement {
        assert!(
            hosts.len() >= r as usize,
            "need at least r distinct hosts to separate replicas"
        );
        let mut procs = Vec::with_capacity((n * r) as usize);
        for rank in 0..n {
            for replica in 0..r {
                let host = hosts[(rank as usize + replica as usize) % hosts.len()];
                procs.push(ProcSpec {
                    rank,
                    replica,
                    host,
                });
            }
        }
        Placement {
            processes: n,
            replication: r,
            procs,
        }
    }

    /// Total number of instances.
    pub fn total_instances(&self) -> usize {
        self.procs.len()
    }

    /// Dense index of an instance (used by the router's channel table).
    pub fn instance_index(&self, rank: Rank, replica: u32) -> usize {
        (rank * self.replication + replica) as usize
    }

    /// The host running `(rank, replica)`.
    pub fn host_of(&self, rank: Rank, replica: u32) -> Option<HostId> {
        self.procs
            .iter()
            .find(|p| p.rank == rank && p.replica == replica)
            .map(|p| p.host)
    }

    /// Number of instances co-resident on each host (drives the
    /// memory-contention model).
    pub fn residents_per_host(&self) -> HashMap<HostId, usize> {
        let mut m = HashMap::new();
        for p in &self.procs {
            *m.entry(p.host).or_insert(0) += 1;
        }
        m
    }

    /// Number of distinct hosts used.
    pub fn hosts_used(&self) -> usize {
        let mut hosts: Vec<HostId> = self.procs.iter().map(|p| p.host).collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts.len()
    }

    /// Checks structural invariants: every `(rank, replica)` instance appears
    /// exactly once, and no two replicas of a rank share a host.
    ///
    /// One pass over an instance-indexed host table, then a pairwise check
    /// among each rank's `replication` copies — O(ranks · replication²); this
    /// runs on every placed job of a day sweep.
    pub fn validate(&self) -> Result<(), PlacementError> {
        let replication = self.replication as usize;
        let expected = self.processes as usize * replication;
        if self.procs.len() != expected {
            return Err(PlacementError::IncompleteInstances);
        }
        let mut host_of: Vec<Option<HostId>> = vec![None; expected];
        for p in &self.procs {
            if p.rank >= self.processes || p.replica >= self.replication {
                return Err(PlacementError::IncompleteInstances);
            }
            let slot = &mut host_of[self.instance_index(p.rank, p.replica)];
            if slot.is_some() {
                return Err(PlacementError::IncompleteInstances);
            }
            *slot = Some(p.host);
        }
        if replication > 1 {
            for (rank, copies) in host_of.chunks_exact(replication).enumerate() {
                let shared = copies
                    .iter()
                    .enumerate()
                    .any(|(i, h)| copies[..i].contains(h));
                if shared {
                    return Err(PlacementError::ReplicasShareHost { rank: rank as Rank });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn co_located_and_one_per_host() {
        let p = Placement::co_located(4, HostId(7));
        assert_eq!(p.total_instances(), 4);
        assert_eq!(p.hosts_used(), 1);
        assert_eq!(p.residents_per_host()[&HostId(7)], 4);
        assert!(p.validate().is_ok());

        let hosts = vec![HostId(0), HostId(1), HostId(2)];
        let q = Placement::one_per_host(&hosts);
        assert_eq!(q.processes, 3);
        assert_eq!(q.hosts_used(), 3);
        assert_eq!(q.host_of(2, 0), Some(HostId(2)));
        assert!(q.validate().is_ok());
    }

    #[test]
    fn round_robin_wraps() {
        let hosts = vec![HostId(0), HostId(1)];
        let p = Placement::round_robin(5, &hosts);
        assert_eq!(p.host_of(0, 0), Some(HostId(0)));
        assert_eq!(p.host_of(1, 0), Some(HostId(1)));
        assert_eq!(p.host_of(4, 0), Some(HostId(0)));
        assert_eq!(p.residents_per_host()[&HostId(0)], 3);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn replicated_round_robin_separates_copies() {
        let hosts = vec![HostId(0), HostId(1), HostId(2)];
        let p = Placement::replicated_round_robin(3, 2, &hosts);
        assert_eq!(p.total_instances(), 6);
        assert!(p.validate().is_ok());
        for rank in 0..3 {
            assert_ne!(p.host_of(rank, 0), p.host_of(rank, 1));
        }
    }

    #[test]
    fn validation_catches_colocated_replicas() {
        let p = Placement {
            processes: 1,
            replication: 2,
            procs: vec![
                ProcSpec {
                    rank: 0,
                    replica: 0,
                    host: HostId(0),
                },
                ProcSpec {
                    rank: 0,
                    replica: 1,
                    host: HostId(0),
                },
            ],
        };
        assert_eq!(
            p.validate(),
            Err(PlacementError::ReplicasShareHost { rank: 0 })
        );
    }

    #[test]
    fn validation_catches_missing_and_duplicate_instances() {
        let mut p = Placement::co_located(3, HostId(0));
        p.procs.pop();
        assert_eq!(p.validate(), Err(PlacementError::IncompleteInstances));
        let mut q = Placement::co_located(2, HostId(0));
        q.procs[1].rank = 0;
        assert_eq!(q.validate(), Err(PlacementError::IncompleteInstances));
    }

    #[test]
    fn validation_catches_out_of_range_instances() {
        let mut p = Placement::co_located(3, HostId(0));
        p.procs[2].rank = 3;
        assert_eq!(p.validate(), Err(PlacementError::IncompleteInstances));
        let mut q = Placement::co_located(3, HostId(0));
        q.procs[0].replica = 1;
        assert_eq!(q.validate(), Err(PlacementError::IncompleteInstances));
        // One instance too many is a length mismatch, not a duplicate.
        let mut r = Placement::co_located(2, HostId(0));
        r.procs.push(r.procs[0]);
        assert_eq!(r.validate(), Err(PlacementError::IncompleteInstances));
    }

    #[test]
    fn validation_reports_the_first_rank_whose_replicas_collide() {
        let hosts = [HostId(0), HostId(1), HostId(2), HostId(3)];
        let mut p = Placement::replicated_round_robin(4, 3, &hosts);
        assert!(p.validate().is_ok());
        // Rank 2's third copy joins its first; rank 3's second joins its
        // first.  The lowest colliding rank is the one reported.
        let idx = |p: &Placement, rank, replica| {
            p.procs
                .iter()
                .position(|s| s.rank == rank && s.replica == replica)
                .unwrap()
        };
        let (a, b) = (idx(&p, 3, 1), idx(&p, 2, 2));
        p.procs[a].host = p.host_of(3, 0).unwrap();
        p.procs[b].host = p.host_of(2, 0).unwrap();
        assert_eq!(
            p.validate(),
            Err(PlacementError::ReplicasShareHost { rank: 2 })
        );
        // The order of `procs` is irrelevant.
        p.procs.reverse();
        assert_eq!(
            p.validate(),
            Err(PlacementError::ReplicasShareHost { rank: 2 })
        );
        // A missing instance wins over a collision.
        p.procs[0].rank = 9;
        assert_eq!(p.validate(), Err(PlacementError::IncompleteInstances));
    }

    #[test]
    fn hosts_used_counts_distinct_hosts() {
        let p = Placement::round_robin(7, &[HostId(5), HostId(2), HostId(9)]);
        assert_eq!(p.hosts_used(), 3);
        assert_eq!(p.hosts_used(), p.residents_per_host().len());
        assert_eq!(Placement::co_located(0, HostId(0)).hosts_used(), 0);
    }

    #[test]
    fn instance_index_is_dense() {
        let p = Placement::replicated_round_robin(3, 2, &[HostId(0), HostId(1)]);
        let mut seen = std::collections::HashSet::new();
        for spec in &p.procs {
            assert!(seen.insert(p.instance_index(spec.rank, spec.replica)));
        }
        assert_eq!(seen.len(), 6);
        assert!(seen.iter().all(|&i| i < 6));
    }

    #[test]
    #[should_panic(expected = "at least r distinct hosts")]
    fn replication_needs_enough_hosts() {
        Placement::replicated_round_robin(2, 3, &[HostId(0), HostId(1)]);
    }

    #[test]
    fn error_display() {
        assert!(PlacementError::IncompleteInstances
            .to_string()
            .contains("exactly once"));
        assert!(PlacementError::ReplicasShareHost { rank: 3 }
            .to_string()
            .contains("rank 3"));
    }
}
