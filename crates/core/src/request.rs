//! Job requests.
//!
//! An execution is invoked as `p2pmpirun -n n -r r -a alloc prog`
//! (Section 3.2): `n` MPI processes, an optional replication degree `r`
//! (each logical process gets `r` copies on distinct hosts) and an
//! allocation strategy.

use crate::strategy::StrategyKind;
use p2pmpi_overlay::peer::PeerId;
use std::fmt;
use std::sync::Arc;

/// One host of a search-produced placement plan: the peer to book and the
/// exact MPI ranks to pin there.  Ranks are explicit (not contiguous
/// blocks) because the annealed rank→host map is what the model priced —
/// permuting ranks changes ring/tree transfer costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedHost {
    /// The MPD peer managing the planned host.
    pub peer: PeerId,
    /// The MPI ranks to place on that host, in rank order.
    pub ranks: Vec<u32>,
}

/// A request to co-allocate and launch one MPI application.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Number of logical MPI processes (`-n`).
    pub(crate) processes: u32,
    /// Replication degree (`-r`); 1 means no replication.
    pub(crate) replication: u32,
    /// Allocation strategy (`-a`).
    pub(crate) strategy: StrategyKind,
    /// Program name (informational; the MPI runtime decides what to run).
    pub(crate) program: String,
    /// Search-produced placement plan ([`StrategyKind::Searched`] only).
    /// The co-allocator books the planned peers first and pins the planned
    /// ranks when every planned peer grants with enough capacity; any
    /// shortfall (refusal, death, lost capacity, replication > 1) falls
    /// back to the strategy's distribution function over whatever was
    /// granted.  Shared, not cloned, per brokering attempt.
    pub(crate) plan: Option<Arc<[PlannedHost]>>,
}

/// Errors detected before any network interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// `n` must be at least 1.
    ZeroProcesses,
    /// `r` must be at least 1.
    ZeroReplication,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::ZeroProcesses => write!(f, "a job needs at least one process"),
            RequestError::ZeroReplication => write!(f, "the replication degree must be >= 1"),
        }
    }
}

impl std::error::Error for RequestError {}

impl JobRequest {
    /// Builds a plain (non-replicated) request.
    pub fn new(processes: u32, strategy: StrategyKind, program: impl Into<String>) -> Self {
        JobRequest {
            processes,
            replication: 1,
            strategy,
            program: program.into(),
            plan: None,
        }
    }

    /// Builds a replicated request (`-r r`).
    pub fn replicated(
        processes: u32,
        replication: u32,
        strategy: StrategyKind,
        program: impl Into<String>,
    ) -> Self {
        JobRequest {
            processes,
            replication,
            strategy,
            program: program.into(),
            plan: None,
        }
    }

    /// Attaches a search-produced placement plan (see `JobRequest::plan`).
    pub fn with_plan(mut self, plan: Arc<[PlannedHost]>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Total number of process instances to place: `n × r`.
    pub(crate) fn total_instances(&self) -> u32 {
        self.processes * self.replication
    }

    /// Validates the request parameters.
    pub(crate) fn validate(&self) -> Result<(), RequestError> {
        if self.processes == 0 {
            return Err(RequestError::ZeroProcesses);
        }
        if self.replication == 0 {
            return Err(RequestError::ZeroReplication);
        }
        Ok(())
    }

    /// The command line this request corresponds to, for traces and docs.
    pub fn command_line(&self) -> String {
        format!(
            "p2pmpirun -n {} -r {} -a {} {}",
            self.processes,
            self.replication,
            self.strategy.name(),
            self.program
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_instances_is_n_times_r() {
        let j = JobRequest::replicated(3, 2, StrategyKind::Spread, "prog");
        assert_eq!(j.total_instances(), 6);
        assert_eq!(
            JobRequest::new(5, StrategyKind::Concentrate, "p").total_instances(),
            5
        );
    }

    #[test]
    fn validation_catches_zeros() {
        assert_eq!(
            JobRequest::new(0, StrategyKind::Spread, "p").validate(),
            Err(RequestError::ZeroProcesses)
        );
        assert_eq!(
            JobRequest::replicated(3, 0, StrategyKind::Spread, "p").validate(),
            Err(RequestError::ZeroReplication)
        );
        assert!(JobRequest::new(1, StrategyKind::Spread, "p")
            .validate()
            .is_ok());
    }

    #[test]
    fn command_line_matches_paper_syntax() {
        let j = JobRequest::replicated(3, 2, StrategyKind::Spread, "prog");
        assert_eq!(j.command_line(), "p2pmpirun -n 3 -r 2 -a spread prog");
    }

    #[test]
    fn errors_format() {
        assert!(RequestError::ZeroProcesses.to_string().contains("process"));
        assert!(RequestError::ZeroReplication
            .to_string()
            .contains("replication"));
    }
}
