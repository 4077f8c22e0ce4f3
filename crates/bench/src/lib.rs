//! # p2pmpi-bench
//!
//! Experiment harness for the `p2pmpi-rs` reproduction: the `paper` binary
//! regenerates every table and figure of the paper's evaluation (Section
//! 5), `paper all` all of them at once, and `day` runs the day-scale sweeps.
//! The cost of the co-allocation machinery itself is measured by the repo
//! benchmark (`benchmark/`, a package of its own), plus the in-run ratio
//! gates of the `perf_report` binary.
//!
//! | Paper artefact | Command |
//! |---|---|
//! | Table 1 (available resources) | `paper table1` |
//! | Figure 2 (concentrate: hosts & cores per site) | `paper fig2` |
//! | Figure 3 (spread: hosts & cores per site) | `paper fig3` |
//! | Figure 4 left (EP class B execution times) | `paper fig4 --kernel ep` |
//! | Figure 4 right (IS class B execution times) | `paper fig4 --kernel is` |
//! | §5.1 latency-ranking discussion & ablations | `paper ablation <mode>` |
//! | Figures 2–3 at sweep scale (day-trace utilisation) | `day` |
//!
//! Beyond the paper: `paper fig4 --searched` adds the placement the
//! annealing search finds under the LogGP model (the [`search`] module),
//! `day --shards N` replays the trace on parallel shard timelines (the
//! [`shard`] module), and `day --scenario` sweeps the fault-injection
//! scenario matrix (the [`scenario`] module), judging each named adversity
//! replay against its graceful-degradation criteria; `day --worst-phase`
//! (the same module) hunts the adversarial fault phase that maximises
//! recovery time.

#![warn(missing_docs)]
#![deny(unreachable_pub)]
#![deny(dead_code)]

pub mod cliargs;
pub mod experiments;
pub mod output;
pub mod par;
pub mod scenario;
pub mod search;
pub mod shard;
pub mod workload;
