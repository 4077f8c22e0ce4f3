//! Shared run-time registry: replica liveness and failure injection.
//!
//! P2P-MPI's fault tolerance replicates each logical process `r` times; the
//! communication library keeps the copies consistent and the application
//! survives as long as one copy of each rank remains (Section 3.2 and the
//! paper's reference \[11\]).
//! The registry is the shared, thread-safe record of which instances have
//! been failed, and the [`FailurePlan`] injects those failures
//! deterministically (after a given number of MPI operations on a given
//! instance).

use crate::error::Rank;
use std::sync::atomic::{AtomicBool, Ordering};

/// When to kill one process instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KillSpec {
    /// The rank to kill.
    pub(crate) rank: Rank,
    /// The replica index to kill.
    pub(crate) replica: u32,
    /// The instance fails when it is about to execute its
    /// `after_ops`-th MPI operation (0 = before doing anything).
    pub(crate) after_ops: u64,
}

/// A deterministic failure-injection plan.
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    kills: Vec<KillSpec>,
}

impl FailurePlan {
    /// No failures.
    pub fn none() -> Self {
        FailurePlan::default()
    }

    /// Adds a kill.
    pub fn kill(mut self, rank: Rank, replica: u32, after_ops: u64) -> Self {
        self.kills.push(KillSpec {
            rank,
            replica,
            after_ops,
        });
        self
    }

    /// The op threshold at which `(rank, replica)` must fail, if any.
    pub(crate) fn threshold(&self, rank: Rank, replica: u32) -> Option<u64> {
        self.kills
            .iter()
            .filter(|k| k.rank == rank && k.replica == replica)
            .map(|k| k.after_ops)
            .min()
    }
}

/// Thread-shared liveness table.
pub(crate) struct Registry {
    replication: u32,
    failed: Vec<AtomicBool>,
}

impl Registry {
    /// Creates a registry for `n` ranks with `r` replicas, everyone alive.
    pub(crate) fn new(processes: u32, replication: u32) -> Self {
        let count = (processes * replication) as usize;
        Registry {
            replication,
            failed: (0..count).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn index(&self, rank: Rank, replica: u32) -> usize {
        (rank * self.replication + replica) as usize
    }

    /// Marks an instance as failed.
    pub(crate) fn mark_failed(&self, rank: Rank, replica: u32) {
        self.failed[self.index(rank, replica)].store(true, Ordering::SeqCst);
    }

    /// True if the instance has been failed.
    fn is_failed(&self, rank: Rank, replica: u32) -> bool {
        self.failed[self.index(rank, replica)].load(Ordering::SeqCst)
    }

    /// The lowest-index replica of `rank` that is still alive, if any.
    pub(crate) fn primary_replica(&self, rank: Rank) -> Option<u32> {
        (0..self.replication).find(|&rep| !self.is_failed(rank, rep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_thresholds() {
        let plan = FailurePlan::none()
            .kill(1, 0, 10)
            .kill(1, 0, 5)
            .kill(2, 1, 0);
        assert_eq!(plan.threshold(1, 0), Some(5));
        assert_eq!(plan.threshold(2, 1), Some(0));
        assert_eq!(plan.threshold(0, 0), None);
        assert_eq!(plan.kills.len(), 3);
        assert!(FailurePlan::none().kills.is_empty());
    }

    #[test]
    fn registry_tracks_primaries() {
        let reg = Registry::new(3, 2);
        assert_eq!(reg.primary_replica(1), Some(0));
        reg.mark_failed(1, 0);
        assert!(reg.is_failed(1, 0));
        assert_eq!(reg.primary_replica(1), Some(1));
        reg.mark_failed(1, 1);
        assert!(reg.is_failed(1, 1));
        assert_eq!(reg.primary_replica(1), None);
        assert_eq!(reg.primary_replica(0), Some(0));
    }

    #[test]
    fn unreplicated_registry() {
        let reg = Registry::new(2, 1);
        assert_eq!(reg.primary_replica(0), Some(0));
        reg.mark_failed(0, 0);
        assert!(reg.is_failed(0, 0));
        assert_eq!(reg.primary_replica(0), None);
        assert_eq!(reg.primary_replica(1), Some(0));
    }
}
