//! Integration tests of the recovery-time metric: every verdict carries a
//! time-to-95%-of-twin-utilisation, composition makes recovery strictly
//! harder than the lone fault, and the composed/partial-site fault paths
//! stay bit-identical whichever queue structure backs the timeline.

use p2pmpi_bench::scenario::{
    outage_in_crowd_config, recovery_to_twin, run_scenario, Scenario, ScenarioParams,
};
use p2pmpi_bench::workload::{flatten_faults, run_day_sweep, FaultSpec};
use p2pmpi_simgrid::event::QueueKind;

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
    // worse again: that ordering is exactly what `fault_search` hunts for.
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
fn composed_and_partial_site_faults_are_queue_invariant() {
    // `Compose`/`PhaseShift` unfold to plain timeline faults and
    // `PartialSite` kills a host subset — none of it may depend on the
    // queue structure.  Both fault shapes must produce bit-identical
    // outcomes (and therefore bit-identical recovery times) on both queue
    // kinds.
    let run_composed = |kind: QueueKind| {
        let params = ScenarioParams {
            queue: kind,
            ..ci_params()
        };
        run_day_sweep(&outage_in_crowd_config(0.0, &params))
    };
    let ladder = run_composed(QueueKind::Ladder);
    let heap = run_composed(QueueKind::BinaryHeap);

    // The crowd-only twin scores each run; the nominal outage window ends
    // at 12:30 on the uncompressed day = 1875 s compressed.
    let mut twin_cfg = outage_in_crowd_config(0.0, &ci_params());
    twin_cfg.faults = flatten_faults(&twin_cfg.faults)
        .into_iter()
        .filter(|f| matches!(f, FaultSpec::FlashCrowd { .. }))
        .collect();
    let twin = run_day_sweep(&twin_cfg);
    let end = 12.5 * 3600.0 / 24.0;
    let recovery = recovery_to_twin(&ladder, &twin, end);
    assert!(ladder.jobs_killed > 0, "the composed outage killed no jobs");
    assert_eq!(ladder.submitted, heap.submitted);
    assert_eq!(ladder.succeeded, heap.succeeded);
    assert_eq!(ladder.failed, heap.failed);
    assert_eq!(ladder.timeouts, heap.timeouts);
    assert_eq!(ladder.jobs_killed, heap.jobs_killed);
    assert_eq!(ladder.events_processed, heap.events_processed);
    assert_eq!(ladder.bin_secs, heap.bin_secs);
    assert_eq!(ladder.site_core_bins, heap.site_core_bins);
    assert_eq!(recovery, recovery_to_twin(&heap, &twin, end));

    // Same contract for the rack brown-out (`PartialSite`).
    let run_rack = |kind: QueueKind| {
        let params = ScenarioParams {
            queue: kind,
            ..ci_params()
        };
        run_day_sweep(&Scenario::RackOutage.config(&params))
    };
    let rack_ladder = run_rack(QueueKind::Ladder);
    let rack_heap = run_rack(QueueKind::BinaryHeap);
    assert!(
        rack_ladder.jobs_killed > 0,
        "the rack brown-out killed no jobs"
    );
    assert_eq!(rack_ladder.submitted, rack_heap.submitted, "rack");
    assert_eq!(rack_ladder.succeeded, rack_heap.succeeded, "rack");
    assert_eq!(rack_ladder.failed, rack_heap.failed, "rack");
    assert_eq!(rack_ladder.jobs_killed, rack_heap.jobs_killed, "rack");
    assert_eq!(
        rack_ladder.events_processed, rack_heap.events_processed,
        "rack"
    );
    assert_eq!(rack_ladder.site_core_bins, rack_heap.site_core_bins, "rack");
}
