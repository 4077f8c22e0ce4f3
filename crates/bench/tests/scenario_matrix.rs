//! The fault-scenario matrix and the worst-phase search at the CI steps'
//! parameters (`day --scenario all` and `day --worst-phase`, both at
//! `--compress 24 --rate-scale 0.05`): every verdict the CI steps judge is
//! judged here too, so a scenario regression fails the test suite and
//! names the failing checks.

use p2pmpi_bench::par::par_map;
use p2pmpi_bench::scenario::{run_scenario, search_worst_phase, ScenarioParams, ALL_SCENARIOS};

/// The CI steps' scale; each scenario keeps its authored strategy.
fn ci_params() -> ScenarioParams {
    ScenarioParams {
        compress: 24.0,
        rate_scale: 0.05,
        ..ScenarioParams::default()
    }
}

#[test]
fn every_scenario_passes_every_check_at_ci_scale() {
    let params = ci_params();
    let verdicts = par_map(&ALL_SCENARIOS, |&s| run_scenario(s, &params));
    let failing: Vec<String> = verdicts
        .iter()
        .flat_map(|v| {
            v.checks
                .iter()
                .filter(|c| !c.passed)
                .map(move |c| format!("{}: {}: {}", v.scenario.name(), c.name, c.detail))
        })
        .collect();
    assert!(
        failing.is_empty(),
        "failing checks:\n{}",
        failing.join("\n")
    );
    // Every row is judged on all of its checks: none is skipped.
    let judged: usize = verdicts.iter().map(|v| v.checks.len()).sum();
    assert_eq!(judged, 38, "checks judged across the ten scenarios");
}

#[test]
fn the_worst_phase_recovers_at_least_ten_percent_slower_at_ci_scale() {
    // `day --worst-phase`'s default grid: ±2h around the nominal onset in
    // half-hour steps, no refinement, and its gate of 1.1x.
    let offsets: Vec<f64> = (-4..=4).map(|k| k as f64 * 1800.0).collect();
    let report = search_worst_phase(&ci_params(), &offsets, 0);
    assert_eq!(report.points.len(), offsets.len());
    let ratio = report.worst_over_nominal();
    assert!(
        ratio >= 1.1,
        "worst phase (offset {} s) recovers only {ratio:.2}x the nominal onset's",
        report.worst.offset_secs
    );
}
