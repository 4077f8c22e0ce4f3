//! Integration test of the sweep-scale claim: modeled Figure 4 points at
//! 1k–2k ranks — far beyond the paper grid's 1040 cores and the executed
//! backend's thread-per-rank ceiling — complete in (fractions of) seconds
//! and behave sanely.

use p2pmpi_bench::experiments::{modeled_kernel_times, Fig4Kernel, Fig4Settings};
use p2pmpi_core::strategy::StrategyKind;
use p2pmpi_simgrid::time::SimDuration;
use std::time::Instant;

#[test]
fn ep_modeled_sweep_reaches_2048_ranks_in_seconds() {
    let settings = Fig4Settings::default();
    let counts = [512u32, 1024, 2048];
    let start = Instant::now();
    let spread = modeled_kernel_times(
        Fig4Kernel::Ep,
        StrategyKind::Spread,
        &counts,
        &settings,
        None,
    );
    let concentrate = modeled_kernel_times(
        Fig4Kernel::Ep,
        StrategyKind::Concentrate,
        &counts,
        &settings,
        None,
    );
    let wall = start.elapsed();
    assert!(
        wall.as_secs() < 30,
        "six modeled EP points through 2048 ranks took {wall:?}; the analytical backend must stay in seconds"
    );
    for points in [&spread, &concentrate] {
        assert_eq!(points.len(), 3);
        for p in points.iter() {
            assert!(p.verified);
            assert!(p.makespan > SimDuration::ZERO);
        }
        // EP is embarrassingly parallel: doubling ranks keeps cutting the
        // virtual time even at sweep scale (class B work per rank halves,
        // the two allreduces only grow logarithmically).
        assert!(points[1].makespan < points[0].makespan);
        assert!(points[2].makespan < points[1].makespan);
    }
    // Spread uses more hosts than concentrate at every point.
    for (s, c) in spread.iter().zip(&concentrate) {
        assert!(s.hosts_used > c.hosts_used);
    }
}

#[test]
fn is_modeled_point_runs_at_512_ranks() {
    // IS models the full ring alltoall(v) schedule (n² messages per
    // iteration), so keep the integration test at 512 ranks; the
    // benchmark's search_is1024 workload runs 1024 and the fig4_is binary
    // takes --ranks for more.
    let settings = Fig4Settings::default();
    let start = Instant::now();
    let points = modeled_kernel_times(
        Fig4Kernel::Is,
        StrategyKind::Concentrate,
        &[512],
        &settings,
        None,
    );
    let wall = start.elapsed();
    assert!(
        wall.as_secs() < 30,
        "one modeled IS point at 512 ranks took {wall:?}"
    );
    assert_eq!(points[0].processes, 512);
    assert!(points[0].verified);
    // Ten iterations of WAN-crossing collectives cannot be free.
    assert!(points[0].makespan > SimDuration::from_millis(100));
}
