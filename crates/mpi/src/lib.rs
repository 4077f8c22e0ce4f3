//! # p2pmpi-mpi
//!
//! The MPJ-like communication library of the `p2pmpi-rs` reproduction: a
//! message-passing runtime whose processes are OS threads, whose transport is
//! in-process channels, and whose *time* is virtual — charged from the
//! `p2pmpi-simgrid` network, compute and memory-contention models so that the
//! relative cost of *spread* vs *concentrate* placements (Figure 4 of the
//! paper) can be measured on a laptop.
//!
//! ## Pieces
//!
//! * [`datatype`] — typed buffers and reduction operators.
//! * [`placement`] — which host runs which `(rank, replica)` instance;
//!   convertible from a `p2pmpi-core` [`p2pmpi_core::Allocation`].
//! * [`Comm`] — the per-process communicator: `compute` and the logical
//!   clock.  Its point-to-point `send`/`recv` stay inside this crate, as
//!   the building blocks of the collectives.
//! * `collectives` — barrier, bcast, allreduce, gather, allgather,
//!   scatter, alltoall, alltoallv, as methods of [`Comm`].
//! * `registry` — replica liveness and deterministic failure injection
//!   ([`FailurePlan`]; the paper's replication-based fault tolerance).
//! * [`runtime`] — thread-per-process job execution and makespan
//!   measurement.
//! * [`model`] — LogGP-style analytical prediction of the collectives'
//!   virtual-time cost, for sweeps past the thread-per-rank scale
//!   ([`model::CollectiveBackend`] selects executed vs modeled), plus the
//!   placement evaluator ([`model::PlacementCost`]) the placement search
//!   runs on.
//!
//! ## Example
//!
//! ```
//! use p2pmpi_mpi::prelude::*;
//! use p2pmpi_simgrid::topology::{NodeSpec, TopologyBuilder};
//! use std::sync::Arc;
//!
//! let mut b = TopologyBuilder::new();
//! let site = b.add_site("local");
//! b.add_cluster(site, "c", "cpu", 4, NodeSpec::default());
//! let topology = Arc::new(b.build());
//! let hosts: Vec<_> = topology.hosts().iter().map(|h| h.id).collect();
//!
//! let runtime = MpiRuntime::new(topology);
//! let placement = Placement::one_per_host(&hosts);
//! let result = runtime.run(&placement, |comm| {
//!     let sum = comm.allreduce(ReduceOp::Sum, &[comm.rank() as i64])?;
//!     Ok(sum[0])
//! });
//! assert!(result.all_ranks_completed());
//! assert_eq!(*result.result_of(0).unwrap(), 0 + 1 + 2 + 3);
//! ```

#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(dead_code)]

mod collectives;
mod comm;
pub mod datatype;
mod envelope;
pub mod error;
pub mod model;
pub mod placement;
mod registry;
pub mod runtime;
mod stats;

pub use comm::Comm;
pub use datatype::{Datatype, ReduceOp, Reducible};
pub use error::{MpiError, MpiResult, Rank, Tag};
pub use model::{CollectiveBackend, ModelComm};
pub use placement::{Placement, PlacementError, ProcSpec};
pub use registry::FailurePlan;
pub use runtime::{InstanceOutcome, JobResult, MpiRuntime};
pub use stats::CommStats;

/// Commonly used items, for glob imports in kernels and examples.
pub mod prelude {
    pub use crate::comm::Comm;
    pub use crate::datatype::{Datatype, ReduceOp, Reducible};
    pub use crate::error::{MpiError, MpiResult, Rank, Tag};
    pub use crate::model::{CollectiveBackend, ModelComm};
    pub use crate::placement::Placement;
    pub use crate::registry::FailurePlan;
    pub use crate::runtime::{JobResult, MpiRuntime};
    pub use p2pmpi_simgrid::memory::MemoryIntensity;
}
