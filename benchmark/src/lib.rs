//! # The repo benchmark
//!
//! Six named workloads, six end-to-end metrics and a traced per-layer split
//! of the headline runs of `p2pmpi-rs`: the day sweep under each fixed
//! strategy, the churn day, the searched day, the IS@1024 placement search
//! and the sharded week.  `README.md` beside this crate has the tables, the
//! protocol and the exact list of crate APIs the benchmark calls.
//!
//! The benchmark is a package of its own (an empty `[workspace]` table, path
//! dependencies on `../crates/*`), so the repository's root manifest and its
//! tier-1 tests never see it.

#![warn(missing_docs)]

pub mod contract;
pub mod json;
pub mod probes;
pub mod run;
pub mod stats;
pub mod traced;
pub mod workloads;
