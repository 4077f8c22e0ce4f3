//! # p2pmpi-core
//!
//! The paper's primary contribution: **co-allocation of MPI processes over a
//! P2P overlay**, with the *spread* and *concentrate* strategies, the
//! replication-aware rank assignment, and the full reservation procedure of
//! Section 4 of
//! *"Large-Scale Experiment of Co-allocation Strategies for Peer-to-Peer
//! SuperComputing in P2P-MPI"* (Genaud & Rattanapoka, IPDPS/HPGC 2008).
//!
//! ## Pieces
//!
//! * [`strategy`] / `spread` / `concentrate` — the process-distribution
//!   policies (`-a` flag of `p2pmpirun`), chosen by [`StrategyKind`].
//! * `capacity` — `c_i = min(P_i, n)`.
//! * `feasibility` — the two feasibility conditions of step 6, refused as
//!   [`Infeasibility`].
//! * [`OverbookingPolicy`] — the booking step's overbooking factor.
//! * `rank` — rank/replica assignment guaranteeing that no two copies of a
//!   process share a host.
//! * [`reservation`] — the eight-step procedure driven against a
//!   [`p2pmpi_overlay::Overlay`].
//! * [`allocation`] / [`stats`] — the resulting placement and the per-site
//!   tallies plotted in Figures 2 and 3.
//!
//! ## Example
//!
//! ```
//! use p2pmpi_core::prelude::*;
//! use p2pmpi_overlay::OverlayBuilder;
//! use p2pmpi_simgrid::topology::{NodeSpec, TopologyBuilder};
//! use std::sync::Arc;
//!
//! // A small two-site grid.
//! let mut b = TopologyBuilder::new();
//! let here = b.add_site("here");
//! let there = b.add_site("there");
//! b.add_cluster(here, "h", "cpu", 2, NodeSpec { cores: 2, ..NodeSpec::default() });
//! b.add_cluster(there, "t", "cpu", 2, NodeSpec { cores: 2, ..NodeSpec::default() });
//! let topology = Arc::new(b.build());
//!
//! let mut overlay = OverlayBuilder::new(topology)
//!     .seed(1)
//!     .peer_per_host_with_core_capacity()
//!     .build();
//! overlay.boot_all();
//! let submitter = overlay.peer_ids()[0];
//! overlay.bootstrap_peer(submitter);
//!
//! // p2pmpirun -n 4 -a spread prog
//! let request = JobRequest::new(4, StrategyKind::Spread, "prog");
//! let report = allocate(&mut overlay, submitter, &request);
//! let allocation = report.allocation();
//! assert_eq!(allocation.total_instances(), 4);
//! assert!(allocation.validate().is_ok());
//! ```

#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(dead_code)]

pub mod allocation;
mod capacity;
mod concentrate;
mod feasibility;
mod overbooking;
mod rank;
mod request;
pub mod reservation;
mod spread;
pub mod stats;
pub mod strategy;

pub use allocation::{AllocatedHost, Allocation, AllocationInvariantError};
pub use feasibility::Infeasibility;
pub use overbooking::OverbookingPolicy;
pub use request::{JobRequest, RequestError};
pub use reservation::{allocate, AllocationError, CoAllocationReport, CoAllocator};
pub use stats::{total_hosts, total_processes, usage_by_site, SiteUsage};
pub use strategy::StrategyKind;

/// Commonly used items, for glob imports in examples and experiments.
pub mod prelude {
    pub use crate::allocation::Allocation;
    pub use crate::overbooking::OverbookingPolicy;
    pub use crate::request::{JobRequest, PlannedHost};
    pub use crate::reservation::{allocate, CoAllocator};
    pub use crate::stats::{usage_by_site, SiteUsage};
    pub use crate::strategy::StrategyKind;
}
