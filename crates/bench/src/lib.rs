//! # p2pmpi-bench
//!
//! Experiment harness for the `p2pmpi-rs` reproduction: the binaries in
//! `src/bin/` regenerate every table and figure of the paper's evaluation
//! (Section 5).  The cost of the co-allocation machinery itself is measured
//! by the repo benchmark (`benchmark/`, a package of its own), plus the
//! in-run ratio gates of the `perf_report` binary.
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Table 1 (available resources) | `table1` |
//! | Figure 2 (concentrate: hosts & cores per site) | `fig2_concentrate` |
//! | Figure 3 (spread: hosts & cores per site) | `fig3_spread` |
//! | Figures 2–3 at sweep scale (day-trace utilisation) | `fig23_sweep` |
//! | Figure 4 left (EP class B execution times) | `fig4_ep` |
//! | Figure 4 right (IS class B execution times) | `fig4_is` |
//! | §5.1 latency-ranking discussion & ablations | `sweep` |
//!
//! Beyond the paper: `placement_search` anneals host assignments under the
//! LogGP model (the [`search`] module) — the third, *searched* curve of
//! `fig4_ep`/`fig4_is --searched` — `scenario_runner` sweeps the
//! fault-injection scenario matrix (the [`scenario`] module), judging each
//! named adversity replay against its graceful-degradation criteria, and
//! `fault_search` (the [`faultsearch`] module) hunts the adversarial
//! fault phase that maximises recovery time.

#![warn(missing_docs)]

pub mod cliargs;
pub mod experiments;
pub mod faultsearch;
pub mod output;
pub mod par;
pub mod scenario;
pub mod search;
pub mod shard;
pub mod workload;

pub use experiments::{fig2_fig3_sweep, fig4_kernel_times, Fig4Kernel, Fig4Point, Fig4Settings};
pub use faultsearch::{search_worst_phase, PhasePoint, PhaseSearchParams, PhaseSearchReport};
pub use output::{print_fig4_table, print_legend, print_sweep_tables};
pub use par::par_map;
pub use scenario::{
    outage_in_crowd_config, outage_in_crowd_faults, recovery_to_twin, run_matrix, run_scenario,
    Scenario, ScenarioParams, ScenarioVerdict, ALL_SCENARIOS, OUTAGE_IN_CROWD_WORST_OFFSET_SECS,
};
pub use search::{search_placement, SearchParams, SearchReport};
pub use shard::{run_shard_sweep, ShardSweepConfig, ShardSweepResult};
pub use workload::{
    run_day_sweep, DayProfile, DaySweepConfig, DaySweepResult, FaultSpec, JobMix, SweepFingerprint,
};
