//! # p2pmpi-grid5000
//!
//! A model of the Grid'5000 testbed slice used in the paper's evaluation
//! (Section 5): the clusters of Table 1, the RTTs to the Nancy submitter
//! from the Figure 2/3 legends, the 10 Gbps backbone (1 Gbps towards
//! Bordeaux), and ready-made experiment scenarios.
//!
//! The paper ran on the physical testbed; this crate substitutes an
//! in-memory description driving the `p2pmpi-simgrid` cost models, which is
//! sufficient for everything the evaluation measures (where processes are
//! placed, and how placement affects EP/IS run time).
//!
//! Faults are not scheduled here: a fault scenario is authored as a
//! `p2pmpi_bench::workload::FaultSpec`, compiled to a churn schedule there
//! and put on the overlay's timeline with `Overlay::schedule_churn`.
//!
//! ```
//! use p2pmpi_grid5000::testbed::grid5000_topology;
//!
//! let topology = grid5000_topology();
//! assert_eq!(topology.host_count(), 350);
//! assert_eq!(topology.total_cores(), 1040);
//! ```

#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(dead_code)]

pub mod capacity;
pub mod scenario;
mod shard;
pub mod sites;
pub mod testbed;

pub use capacity::{host_capacities, IdleSlotIndex};
pub use scenario::{
    allocate_on, coallocation_sweep, paper_demand_steps, paper_ep_process_counts,
    paper_is_process_counts, probe_vs_icmp_ranking, SweepRow,
};
pub use shard::ShardPlan;
pub use sites::{ClusterSpec, RTT_TO_NANCY_MS, SITE_ORDER, TABLE1};
pub use testbed::{
    grid5000_testbed, grid5000_topology, legend, testbed_from_specs, topology_from_specs,
    Grid5000Testbed,
};
