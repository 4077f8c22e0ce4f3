//! # p2pmpi-simgrid
//!
//! Discrete-event simulation substrate for the `p2pmpi-rs` reproduction of
//! *"Large-Scale Experiment of Co-allocation Strategies for Peer-to-Peer
//! SuperComputing in P2P-MPI"* (Genaud & Rattanapoka, IPDPS/HPGC 2008).
//!
//! The paper's experiments ran on the physical Grid'5000 testbed.  This crate
//! provides the pieces needed to stand in for that testbed on a laptop:
//!
//! * [`time`] — integer-nanosecond virtual time ([`SimTime`], [`SimDuration`]).
//! * [`event`] / [`engine`] — a deterministic discrete-event engine used by
//!   the overlay protocol simulation; payloads live in a slab-backed
//!   [`event::EventStore`], and the priority structure is selectable
//!   ([`event::QueueKind`]: binary heap, or ladder queue for heavily skewed
//!   schedules).
//! * [`topology`] — sites, clusters and hosts with an inter-site RTT and
//!   bandwidth matrix (Table 1 of the paper is expressed with these types by
//!   the `p2pmpi-grid5000` crate).
//! * [`network`] — a latency + bandwidth transfer-time model, including the
//!   application-level "ping" probes P2P-MPI uses instead of ICMP.
//! * [`noise`] — the CPU/TCP load perturbation of probe measurements that the
//!   paper holds responsible for the Lyon/Rennes/Bordeaux interleaving.
//! * [`memory`] / [`compute`] — memory-contention and compute-time models
//!   that let the NAS EP/IS kernels of Figure 4 be timed under *spread* and
//!   *concentrate* placements.
//! * [`trace`] — event recording used by the experiment harnesses.
//! * [`rngutil`] — deterministic seeded RNG substreams.

#![warn(missing_docs)]

pub mod compute;
pub mod engine;
pub mod event;
pub mod memory;
pub mod network;
pub mod noise;
pub mod rngutil;
pub mod time;
pub mod topology;
pub mod trace;

pub use compute::ComputeModel;
pub use event::{EventKey, EventQueue, EventStore, QueueKind};
pub use memory::{MemoryContentionModel, MemoryIntensity};
pub use network::{NetworkModel, NetworkParams};
pub use noise::NoiseModel;
pub use time::{SimDuration, SimTime};
pub use topology::{
    Cluster, ClusterId, Host, HostId, NodeSpec, Site, SiteId, Topology, TopologyBuilder,
};
pub use trace::{TraceCategory, TraceEvent, Tracer};
