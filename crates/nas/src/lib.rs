//! # p2pmpi-nas
//!
//! The two NAS Parallel Benchmark kernels the paper uses to assess the
//! impact of the allocation strategies (Section 5.2 / Figure 4):
//!
//! * [`ep`] — **EP**, Embarrassingly Parallel: independent Gaussian-deviate
//!   generation with one final `Allreduce`.  Compute-dominated.
//! * [`is`] — **IS**, Integer Sort: bucket-sort key redistribution with an
//!   `Allreduce` + `Alltoall` + `Alltoallv` every iteration.
//!   Communication-dominated.
//! * [`ft`] — **FT**, the 3-D FFT's transpose-based cost structure
//!   (model-only: the paper never executed FT, but its global transpose is
//!   the alltoall-heavy pattern the placement search now handles at scale).
//!
//! plus the trivial [`hostname`] program used for the co-allocation
//! experiment of Section 5.1, the [`classes`] table (S/W/A/B/C) and the NPB
//! generator `rng` (`randlc` with seed jumping).
//!
//! ```
//! use p2pmpi_nas::{ep::{ep_kernel, EpConfig}, classes::Class};
//! use p2pmpi_mpi::prelude::*;
//! use p2pmpi_simgrid::topology::{NodeSpec, TopologyBuilder};
//! use std::sync::Arc;
//!
//! let mut b = TopologyBuilder::new();
//! let site = b.add_site("here");
//! b.add_cluster(site, "c", "cpu", 4, NodeSpec::default());
//! let topology = Arc::new(b.build());
//! let hosts: Vec<_> = topology.hosts().iter().map(|h| h.id).collect();
//!
//! let runtime = MpiRuntime::new(topology);
//! let config = EpConfig::new(Class::S);
//! let result = runtime.run(&Placement::one_per_host(&hosts), move |comm| {
//!     ep_kernel(comm, &config)
//! });
//! assert!(result.all_ranks_completed());
//! assert!(result.result_of(0).unwrap().verify());
//! ```

#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(dead_code)]

pub mod classes;
pub mod ep;
pub mod ft;
pub mod hostname;
pub mod is;
mod rng;

pub use classes::Class;
pub use ep::{ep_kernel, ep_model, EpConfig, EpResult};
pub use ft::{ft_model, ft_schedule, FtConfig};
pub use hostname::{hostname_kernel, HostnameReport};
pub use is::{is_kernel, is_model, IsConfig, IsResult};
