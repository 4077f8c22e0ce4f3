//! Integration tests of the reservation procedure under peer churn: dead
//! peers time out, overbooking absorbs losses, and the gatekeeper state stays
//! consistent across repeated submissions.

use p2p_mpi::prelude::*;
use p2pmpi_core::reservation::{CoAllocator, CoAllocatorParams};
use p2pmpi_overlay::churn::{random_churn, ChurnSchedule};
use p2pmpi_simgrid::rngutil;
use p2pmpi_simgrid::time::SimTime;

#[test]
fn overbooking_absorbs_crashed_peers() {
    let mut tb = grid5000_testbed(41, NoiseModel::default());
    // Crash 10% of the peers before the submission.
    let peers: Vec<_> = tb
        .overlay
        .peer_ids()
        .into_iter()
        .filter(|&p| p != tb.submitter)
        .collect();
    let mut rng = rngutil::substream(99, 0);
    let schedule = random_churn(
        &peers,
        0.10,
        SimDuration::from_secs(1),
        SimDuration::from_secs(10_000),
        &mut rng,
    );
    tb.overlay.schedule_churn(schedule.finish());
    tb.overlay
        .run_until(tb.overlay.now() + SimDuration::from_secs(2));
    assert!(tb.overlay.alive_count() <= 350 - 30);

    let allocator = CoAllocator::with_params(CoAllocatorParams {
        overbooking: OverbookingPolicy::Factor(1.5),
        ..CoAllocatorParams::default()
    });
    let report = allocator.allocate(
        &mut tb.overlay,
        tb.submitter,
        &JobRequest::new(250, StrategyKind::Spread, "hostname"),
    );
    assert!(report.is_success(), "{:?}", report.outcome);
    assert!(report.dead > 0, "some booked peers must have timed out");
    let alloc = report.allocation();
    assert_eq!(alloc.total_instances(), 250);
    // No dead peer received processes.
    for h in &alloc.hosts {
        assert!(tb.overlay.node(h.peer).is_alive());
    }
}

#[test]
fn dead_peers_are_pruned_from_the_cache_after_a_round() {
    let mut tb = grid5000_testbed(42, NoiseModel::disabled());
    let victims: Vec<_> = tb
        .overlay
        .latency_ranking(tb.submitter)
        .into_iter()
        .take(5)
        .collect();
    for &v in &victims {
        tb.overlay.kill_peer(v);
    }
    let before = tb.overlay.node(tb.submitter).cache.len();
    let report = allocate(
        &mut tb.overlay,
        tb.submitter,
        &JobRequest::new(100, StrategyKind::Concentrate, "hostname"),
    );
    assert!(report.is_success());
    assert_eq!(report.dead, 5);
    let after = tb.overlay.node(tb.submitter).cache.len();
    assert_eq!(after, before - 5, "step 5 drops dead peers from the cache");
}

#[test]
fn a_recovered_peer_can_be_used_by_a_later_submission() {
    let mut tb = grid5000_testbed(43, NoiseModel::disabled());
    // The closest non-submitter peer crashes, then recovers later.
    let closest = tb.overlay.latency_ranking(tb.submitter)[0];
    let mut schedule = ChurnSchedule::new();
    schedule.crash(closest, SimTime::from_secs(1));
    schedule.recover(closest, SimTime::from_secs(100));
    tb.overlay.schedule_churn(schedule.finish());

    tb.overlay
        .run_until(tb.overlay.now() + SimDuration::from_secs(5));
    let first = allocate(
        &mut tb.overlay,
        tb.submitter,
        &JobRequest::new(240, StrategyKind::Concentrate, "hostname"),
    );
    assert!(first.is_success());
    assert_eq!(first.dead, 1);
    assert!(first.allocation().hosts.iter().all(|h| h.peer != closest));
    // Release the first job.
    let key = first.key;
    for h in &first.allocation().hosts {
        tb.overlay.complete_job(h.peer, key);
    }

    // After recovery the peer re-registers; a cache refresh makes it usable.
    tb.overlay
        .run_until(tb.overlay.now() + SimDuration::from_secs(200));
    tb.overlay.refresh_cache(tb.submitter);
    tb.overlay.probe_round(tb.submitter);
    let second = allocate(
        &mut tb.overlay,
        tb.submitter,
        &JobRequest::new(240, StrategyKind::Concentrate, "hostname"),
    );
    assert!(second.is_success());
    assert!(
        second.allocation().hosts.iter().any(|h| h.peer == closest),
        "the recovered closest peer should be selected again"
    );
}

#[test]
fn consecutive_jobs_respect_the_gatekeeper_limit() {
    let mut tb = grid5000_testbed(44, NoiseModel::disabled());
    // First job takes the whole Nancy site (J = 1 everywhere).
    let first = allocate(
        &mut tb.overlay,
        tb.submitter,
        &JobRequest::new(240, StrategyKind::Concentrate, "one"),
    );
    assert!(first.is_success());
    // A second concentrate job of 240 must go entirely off-site.
    let second = allocate(
        &mut tb.overlay,
        tb.submitter,
        &JobRequest::new(240, StrategyKind::Concentrate, "two"),
    );
    assert!(second.is_success());
    let nancy = tb.topology.site_by_name("nancy").unwrap().id;
    for h in &second.allocation().hosts {
        assert_ne!(
            tb.topology.host(h.host).site,
            nancy,
            "nancy gatekeepers already host the first application"
        );
    }
    assert!(second.refused >= 1, "busy peers answer NOK");
}
