//! Integration tests of the recovery-time metric: every verdict carries a
//! time-to-95%-of-twin-utilisation, composition makes recovery strictly
//! harder than the lone fault, and the composed/partial-site fault paths
//! genuinely kill jobs and yield a recovery time.

use p2pmpi_bench::scenario::{
    outage_in_crowd_config, recovery_to_twin, run_scenario, Scenario, ScenarioParams,
};
use p2pmpi_bench::workload::{run_day_sweep, FaultSpec};

/// The CI smoke scale of the scenario matrix: the day in one virtual hour.
fn ci_params() -> ScenarioParams {
    ScenarioParams {
        compress: 24.0,
        ..ScenarioParams::default()
    }
}

#[test]
fn baseline_day_recovers_instantly() {
    // No outage window means nothing to recover from: the verdict's
    // recovery time is defined as zero (not absent — `None` is reserved
    // for a run that never regained the twin's utilisation).
    let v = run_scenario(Scenario::BaselineDay, &ci_params());
    assert_eq!(v.recovery_secs, Some(0.0));
    assert!(v.passed(), "baseline day failed its own gates");
}

#[test]
fn composed_outage_recovers_strictly_later_than_the_lone_outage() {
    // The composition claim: an outage *during* the flash crowd takes
    // strictly longer to refill than the same-shaped lone outage, because
    // the outage clears into the crowd's hold tail — the twin's bar is
    // still crowd-inflated while arrivals have collapsed.  And the pinned
    // adversarial phase (`OUTAGE_IN_CROWD_WORST_OFFSET_SECS`) is strictly
    // worse again: that ordering is exactly what `day --worst-phase` hunts for.
    let params = ci_params();
    let lone = run_scenario(Scenario::SiteOutage, &params);
    let composed = run_scenario(Scenario::OutageInCrowd, &params);
    let worst = run_scenario(Scenario::OutageInCrowdWorst, &params);

    let lone_s = lone.recovery_secs.expect("lone outage never recovered");
    let composed_s = composed
        .recovery_secs
        .expect("composed outage never recovered");
    let worst_s = worst.recovery_secs.expect("worst phase never recovered");

    // One core-second bin at this scale is sample_period/compress = 12.5 s:
    // the composed recovery must be a real delay, not bin jitter.
    assert!(
        composed_s >= 12.5,
        "composed recovery {composed_s}s is below one bin — the refill is not arrival-limited"
    );
    assert!(
        composed_s > lone_s,
        "composed outage recovered in {composed_s}s, not strictly later than the lone outage's {lone_s}s"
    );
    assert!(
        worst_s > composed_s,
        "adversarial phase recovered in {worst_s}s, not strictly later than the nominal onset's {composed_s}s"
    );

    // All three still pass their graceful-degradation and SLO gates: the
    // point of the worst case is a *measured* longer recovery, not a miss.
    for (name, v) in [("lone", &lone), ("composed", &composed), ("worst", &worst)] {
        assert!(v.passed(), "{name} scenario failed its gates");
    }
}

#[test]
fn composed_and_partial_site_faults_kill_jobs_and_recover() {
    // An outage listed beside a crowd and a `PartialSite` brown-out of a
    // host subset: both fault shapes must kill running jobs, and the
    // composed one must be scored against its crowd-only twin.
    let composed = run_day_sweep(&outage_in_crowd_config(0.0, &ci_params()));

    // The crowd-only twin scores the run; the nominal outage window ends
    // at 12:30 on the uncompressed day = 1875 s compressed.
    let mut twin_cfg = outage_in_crowd_config(0.0, &ci_params());
    twin_cfg
        .faults
        .retain(|f| matches!(f, FaultSpec::FlashCrowd { .. }));
    let twin = run_day_sweep(&twin_cfg);
    let end = 12.5 * 3600.0 / 24.0;
    assert!(
        composed.jobs_killed > 0,
        "the composed outage killed no jobs"
    );
    assert!(
        recovery_to_twin(&composed, &twin, end).is_some(),
        "the composed outage never recovered to its twin"
    );

    // The rack brown-out (`PartialSite`).
    let rack = run_day_sweep(&Scenario::RackOutage.config(&ci_params()));
    assert!(rack.jobs_killed > 0, "the rack brown-out killed no jobs");
}
