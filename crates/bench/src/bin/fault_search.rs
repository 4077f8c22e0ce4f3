//! Hunts the adversarial phase of the Nancy outage against the flash
//! crowd: sweeps onset offsets of the outage in the composed
//! outage-in-crowd scenario and reports the offset that maximises recovery
//! time.
//!
//! ```text
//! cargo run --release -p p2pmpi-bench --bin fault_search -- \
//!     [--offsets s1,s2,...] [--refine N] [--compress F] [--rate-scale F] \
//!     [--seed N] [--no-gate]
//! ```
//!
//! Offsets are seconds on the *uncompressed* day (negative = the outage
//! starts earlier); the default grid is ±2 h around the nominal 10:30
//! onset in half-hour steps.  `--refine N` adds N golden-section
//! iterations around the worst grid bracket.  One JSON report goes to
//! stdout: every evaluated point, the nominal point, and the worst.
//!
//! Unless `--no-gate` is given, the run fails (exit 1) when the worst
//! phase's recovery time is not at least 10% worse than the nominal
//! onset's — the acceptance bound that proves fault timing *matters* and
//! guards the pinned `outage_in_crowd_worst` scenario
//! (`OUTAGE_IN_CROWD_WORST_OFFSET_SECS`) against drifting stale.

use p2pmpi_bench::cliargs::{flag_f64, flag_present, flag_u64, flag_value, parse_f64_list};
use p2pmpi_bench::faultsearch::{search_worst_phase, PhasePoint, PhaseSearchParams};
use p2pmpi_bench::scenario::OUTAGE_IN_CROWD_WORST_OFFSET_SECS;
use std::time::Instant;

/// The worst phase must be at least this much worse than the nominal
/// onset for the gate to pass.
const WORST_OVER_NOMINAL_MIN: f64 = 1.1;

fn point_json(p: &PhasePoint) -> String {
    format!(
        r#"{{ "offset_secs": {:.1}, "recovery_secs": {:.1}, "recovered": {}, "succeeded": {}, "submitted": {}, "jobs_killed": {} }}"#,
        p.offset_secs, p.recovery_secs, p.recovered, p.succeeded, p.submitted, p.jobs_killed
    )
}

fn main() {
    let mut params = PhaseSearchParams::default();
    if let Some(v) = flag_value("--offsets") {
        params.offsets = parse_f64_list(&v, "--offsets");
    }
    if let Some(n) = flag_u64("--refine") {
        params.refine_iters = n as usize;
    }
    if let Some(f) = flag_f64("--compress") {
        if f < 1.0 {
            eprintln!("--compress must be >= 1, got {f}");
            std::process::exit(2);
        }
        params.scenario.compress = f;
    } else {
        // The search default is the CI scale: one virtual hour per day.
        params.scenario.compress = 24.0;
    }
    if let Some(f) = flag_f64("--rate-scale") {
        params.scenario.rate_scale = f;
    }
    if let Some(s) = flag_u64("--seed") {
        params.scenario.seed = s;
    }

    eprintln!(
        "sweeping {} phase offsets (+{} refinement iters) at compress {}, rate scale {}, seed {}...",
        params.offsets.len(),
        params.refine_iters,
        params.scenario.compress,
        params.scenario.rate_scale,
        params.scenario.seed,
    );
    let start = Instant::now();
    let report = search_worst_phase(&params);
    let wall = start.elapsed().as_secs_f64();

    let points = report
        .points
        .iter()
        .map(|p| format!("    {}", point_json(p)))
        .collect::<Vec<_>>()
        .join(",\n");
    let ratio = report.worst_over_nominal();
    println!(
        r#"{{
  "compress": {compress},
  "rate_scale": {rate},
  "seed": {seed},
  "refined_evals": {refined},
  "points": [
{points}
  ],
  "nominal": {nominal},
  "worst": {worst},
  "worst_over_nominal": {ratio:.3},
  "pinned_offset_secs": {pinned:.1},
  "wall_s": {wall:.1}
}}"#,
        compress = params.scenario.compress,
        rate = params.scenario.rate_scale,
        seed = params.scenario.seed,
        refined = report.refined_evals,
        nominal = point_json(&report.nominal),
        worst = point_json(&report.worst),
        pinned = OUTAGE_IN_CROWD_WORST_OFFSET_SECS,
    );

    eprintln!(
        "worst phase {:+.0}s: recovery {:.1}s vs nominal {:.1}s ({ratio:.2}x) in {wall:.1}s wall",
        report.worst.offset_secs, report.worst.recovery_secs, report.nominal.recovery_secs,
    );
    if !flag_present("--no-gate") && ratio < WORST_OVER_NOMINAL_MIN {
        eprintln!(
            "GATE FAILED: worst recovery is only {ratio:.2}x the nominal onset's \
             (bound {WORST_OVER_NOMINAL_MIN}) — fault timing no longer matters here, \
             or the search grid misses the worst basin"
        );
        std::process::exit(1);
    }
}
