//! The result of a co-allocation: which host runs which rank instances.

use crate::strategy::StrategyKind;
use p2pmpi_overlay::messages::{RankAssignment, ReservationKey};
use p2pmpi_overlay::peer::PeerId;
use p2pmpi_simgrid::topology::HostId;
use std::fmt;
use std::ops::Range;

/// One host's share of an allocation.
#[derive(Debug, Clone)]
pub struct AllocatedHost {
    /// The peer whose MPD accepted the processes.
    pub peer: PeerId,
    /// The physical host behind that peer.
    pub host: HostId,
    /// The capacity `c_i = min(P_i, n)` this host advertised.
    pub capacity: u32,
    /// Where the rank instances started on this host sit in
    /// [`Allocation::ranks`]; read them with [`Allocation::ranks_of`].  The
    /// hosts' spans tile that vector in host order.
    pub span: Range<u32>,
}

impl AllocatedHost {
    /// Number of process instances on this host (`u_i`).
    pub fn instances(&self) -> u32 {
        self.span.end - self.span.start
    }
}

/// A complete, validated placement of an `n × r` process job.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Reservation key under which the application was launched.
    pub key: ReservationKey,
    /// Number of logical MPI ranks (`n`).
    pub processes: u32,
    /// Replication degree (`r`).
    pub replication: u32,
    /// Strategy that produced the placement.
    pub strategy: StrategyKind,
    /// Hosts actually used, in ascending-latency (`slist`) order.
    pub hosts: Vec<AllocatedHost>,
    /// Every rank instance, host by host.
    pub ranks: Vec<RankAssignment>,
}

/// Violations of the allocation invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationInvariantError {
    /// Total instances differ from `n × r`.
    WrongInstanceCount {
        /// Instances present in the allocation.
        found: u64,
        /// Expected `n × r`.
        expected: u64,
    },
    /// A host carries two copies of the same rank.
    ReplicasShareHost {
        /// The offending host.
        host: HostId,
        /// The duplicated rank.
        rank: u32,
    },
    /// A rank does not have exactly `r` copies.
    WrongReplicaCount {
        /// The rank in question.
        rank: u32,
        /// Copies found.
        found: u32,
    },
    /// A host received more instances than its advertised capacity.
    OverCapacity {
        /// The offending host.
        host: HostId,
        /// Instances placed there.
        placed: u32,
        /// Its capacity.
        capacity: u32,
    },
}

impl fmt::Display for AllocationInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationInvariantError::WrongInstanceCount { found, expected } => {
                write!(f, "allocation has {found} instances, expected {expected}")
            }
            AllocationInvariantError::ReplicasShareHost { host, rank } => {
                write!(f, "two replicas of rank {rank} share {host}")
            }
            AllocationInvariantError::WrongReplicaCount { rank, found } => {
                write!(f, "rank {rank} has {found} replicas")
            }
            AllocationInvariantError::OverCapacity {
                host,
                placed,
                capacity,
            } => write!(
                f,
                "{host} got {placed} instances but capacity is {capacity}"
            ),
        }
    }
}

impl std::error::Error for AllocationInvariantError {}

impl Allocation {
    /// The rank instances started on `host`, one of [`Allocation::hosts`].
    pub fn ranks_of(&self, host: &AllocatedHost) -> &[RankAssignment] {
        &self.ranks[host.span.start as usize..host.span.end as usize]
    }

    /// Total number of process instances placed.
    pub fn total_instances(&self) -> u64 {
        self.hosts.iter().map(|h| u64::from(h.instances())).sum()
    }

    /// Number of distinct hosts used.
    pub fn hosts_used(&self) -> usize {
        self.hosts.len()
    }

    /// The host running a given `(rank, replica)` instance, if any.
    pub fn host_of(&self, rank: u32, replica: u32) -> Option<HostId> {
        self.hosts.iter().find_map(|h| {
            self.ranks_of(h)
                .iter()
                .any(|ra| ra.rank == rank && ra.replica == replica)
                .then_some(h.host)
        })
    }

    /// Placement table indexed `[rank][replica] → host`.
    pub fn placement(&self) -> Vec<Vec<HostId>> {
        let mut table =
            vec![vec![HostId(usize::MAX); self.replication as usize]; self.processes as usize];
        for h in &self.hosts {
            for ra in self.ranks_of(h) {
                table[ra.rank as usize][ra.replica as usize] = h.host;
            }
        }
        table
    }

    /// Checks every structural invariant the paper requires of a valid
    /// allocation.
    pub fn validate(&self) -> Result<(), AllocationInvariantError> {
        let expected = self.processes as u64 * self.replication as u64;
        let found = self.total_instances();
        if found != expected {
            return Err(AllocationInvariantError::WrongInstanceCount { found, expected });
        }
        // Per rank: copies seen so far, and one past the index of the last
        // host holding one.  Hosts are read one after the other, so a
        // second copy on the same host finds its own host there.
        let mut per_rank = vec![(0u32, 0usize); self.processes as usize];
        for (i, h) in self.hosts.iter().enumerate() {
            if h.instances() > h.capacity {
                return Err(AllocationInvariantError::OverCapacity {
                    host: h.host,
                    placed: h.instances(),
                    capacity: h.capacity,
                });
            }
            for ra in self.ranks_of(h) {
                let (copies, last_host) = &mut per_rank[ra.rank as usize];
                if *last_host == i + 1 {
                    return Err(AllocationInvariantError::ReplicasShareHost {
                        host: h.host,
                        rank: ra.rank,
                    });
                }
                *copies += 1;
                *last_host = i + 1;
            }
        }
        for (rank, &(count, _)) in per_rank.iter().enumerate() {
            if count != self.replication {
                return Err(AllocationInvariantError::WrongReplicaCount {
                    rank: rank as u32,
                    found: count,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One host: its peer and host index, its capacity and its
    /// `(rank, replica)` instances.
    type HostSpec<'a> = (usize, u32, &'a [(u32, u32)]);

    /// An allocation over `hosts`, laid out host by host.
    fn allocation(
        processes: u32,
        replication: u32,
        strategy: StrategyKind,
        hosts: &[HostSpec],
    ) -> Allocation {
        let mut ranks = Vec::new();
        let hosts = hosts
            .iter()
            .map(|&(i, capacity, instances)| {
                let start = ranks.len() as u32;
                ranks.extend(
                    instances
                        .iter()
                        .map(|&(rank, replica)| RankAssignment { rank, replica }),
                );
                AllocatedHost {
                    peer: PeerId(i),
                    host: HostId(i),
                    capacity,
                    span: start..ranks.len() as u32,
                }
            })
            .collect();
        Allocation {
            key: ReservationKey(1),
            processes,
            replication,
            strategy,
            hosts,
            ranks,
        }
    }

    fn valid_allocation() -> Allocation {
        allocation(
            3,
            2,
            StrategyKind::Spread,
            &[
                (0, 3, &[(0, 0), (1, 0), (2, 0)]),
                (1, 3, &[(0, 1), (1, 1), (2, 1)]),
            ],
        )
    }

    #[test]
    fn valid_allocation_passes_and_reports_shape() {
        let a = valid_allocation();
        assert!(a.validate().is_ok());
        assert_eq!(a.total_instances(), 6);
        assert_eq!(a.hosts_used(), 2);
        assert_eq!(a.host_of(1, 1), Some(HostId(1)));
        assert_eq!(a.host_of(1, 0), Some(HostId(0)));
        assert_eq!(a.host_of(7, 0), None);
        assert_eq!(a.placement()[2], vec![HostId(0), HostId(1)]);
        assert_eq!(a.hosts[0].instances(), 3);
    }

    #[test]
    fn missing_instances_are_detected() {
        let mut a = valid_allocation();
        a.hosts[1].span.end -= 1;
        a.ranks.pop();
        assert_eq!(
            a.validate(),
            Err(AllocationInvariantError::WrongInstanceCount {
                found: 5,
                expected: 6
            })
        );
    }

    #[test]
    fn co_located_replicas_are_detected() {
        let a = allocation(
            2,
            2,
            StrategyKind::Concentrate,
            &[(0, 4, &[(0, 0), (1, 0), (0, 1)]), (1, 4, &[(1, 1)])],
        );
        assert_eq!(
            a.validate(),
            Err(AllocationInvariantError::ReplicasShareHost {
                host: HostId(0),
                rank: 0
            })
        );
    }

    #[test]
    fn wrong_replica_count_is_detected() {
        let a = allocation(
            2,
            2,
            StrategyKind::Spread,
            &[
                (0, 2, &[(0, 0), (1, 0)]),
                (1, 2, &[(0, 1)]),
                (2, 2, &[(0, 2)]),
            ],
        );
        // Rank 0 has three copies spread over distinct hosts, rank 1 only
        // one; the per-rank count check fires.
        assert!(matches!(
            a.validate(),
            Err(AllocationInvariantError::WrongReplicaCount { .. })
        ));
    }

    #[test]
    fn over_capacity_is_detected() {
        let a = allocation(
            3,
            1,
            StrategyKind::Concentrate,
            &[(0, 2, &[(0, 0), (1, 0), (2, 0)])],
        );
        assert_eq!(
            a.validate(),
            Err(AllocationInvariantError::OverCapacity {
                host: HostId(0),
                placed: 3,
                capacity: 2
            })
        );
    }

    #[test]
    fn error_display() {
        let e = AllocationInvariantError::ReplicasShareHost {
            host: HostId(3),
            rank: 1,
        };
        assert!(e.to_string().contains("rank 1"));
    }
}
