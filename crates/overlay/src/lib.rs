//! # p2pmpi-overlay
//!
//! The P2P middleware substrate of the `p2pmpi-rs` reproduction: supernode
//! membership, per-peer MPD daemons with cached host lists and latency
//! probing, the Reservation Service (RS) gatekeeper, and fault injection.
//!
//! Section 3.2 and 4 of the paper describe these components; the
//! co-allocation procedure that drives them lives in `p2pmpi-core`.
//!
//! ## Quick tour
//!
//! ```
//! use p2pmpi_overlay::boot::OverlayBuilder;
//! use p2pmpi_simgrid::topology::{NodeSpec, TopologyBuilder};
//! use std::sync::Arc;
//!
//! // Two sites, a handful of dual-core hosts.
//! let mut b = TopologyBuilder::new();
//! let s0 = b.add_site("local");
//! let s1 = b.add_site("remote");
//! b.add_cluster(s0, "l", "cpu", 2, NodeSpec::default());
//! b.add_cluster(s1, "r", "cpu", 2, NodeSpec::default());
//! let topology = Arc::new(b.build());
//!
//! // One peer per host, P = core count (the paper's setting), then boot.
//! let mut overlay = OverlayBuilder::new(topology)
//!     .seed(42)
//!     .peer_per_host_with_core_capacity()
//!     .build();
//! overlay.boot_all();
//! let submitter = overlay.peer_ids()[0];
//! overlay.bootstrap_peer(submitter);
//! assert_eq!(overlay.latency_ranking(submitter).len(), 3);
//! ```

#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(dead_code)]

pub mod boot;
pub mod cache;
pub mod churn;
pub mod config;
pub mod messages;
mod mpd;
pub mod overlay;
pub mod peer;
mod rs;
mod supernode;

pub use boot::OverlayBuilder;
pub use cache::{CacheEntry, CachedList};
pub use churn::ChurnSchedule;
pub use config::OwnerConfig;
pub use messages::{RankAssignment, RefusalReason, ReservationKey, ReservationReply, StartReply};
pub use mpd::MpdNode;
pub use overlay::{Overlay, RsOutcome};
pub use peer::{PeerDescriptor, PeerId, PeerState};
pub use rs::{Reservation, ReservationService, ReservationStatus, StartError};
pub use supernode::Supernode;
