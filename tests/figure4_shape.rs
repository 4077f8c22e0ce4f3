//! Integration tests of the *shape* of Figure 4: how the allocation strategy
//! affects EP and IS execution times on the Grid'5000 model.
//!
//! Absolute seconds are not expected to match the 2008 testbed; the
//! qualitative claims of Section 5.2 are what these tests pin down:
//!
//! * EP (compute-bound): spread is at least as fast as concentrate at small
//!   and medium scales (memory contention penalises concentrate), and the
//!   two converge at large scale.
//! * IS (communication-bound): spread wins at 32 processes (everything still
//!   fits in the Nancy cluster, one process per host), concentrate wins from
//!   64 processes on (spread starts paying inter-site latency every
//!   iteration) and stays roughly flat.
//!
//! The modeled backend that costs every placed job of the sweeps is pinned
//! to these executed kernels here too: same placement, same makespan.

use p2p_mpi::prelude::*;
use p2pmpi_bench::experiments::{run_kernel_once, Fig4Kernel, Fig4Settings};
use p2pmpi_mpi::placement::Placement;
use p2pmpi_simgrid::time::SimDuration;

/// Maximum relative |modeled − executed| / executed divergence tolerated for
/// EP.  EP's communication is data-independent, so the model replays the
/// executed clock arithmetic exactly; anything above float-noise level means
/// the model's schedule has drifted from `Comm`'s.
const EP_DIVERGENCE_TOLERANCE: f64 = 1e-9;
/// Tolerance for IS, whose alltoallv key-redistribution volumes the model
/// approximates as perfectly balanced (see `p2pmpi_nas::is::is_model`).  The
/// documented bound is 10%, deliberately loose; the divergence observed at
/// this test's IS@32 / divisor-64 point is ~3e-5 (0.003%), because the
/// hump-shaped key distribution redistributes almost uniformly.
const IS_DIVERGENCE_TOLERANCE: f64 = 0.10;

/// Allocates `n` processes with `strategy` on a fresh Grid'5000 testbed and
/// returns the kernel's virtual execution time.
fn run_on_grid<F, T>(n: u32, strategy: StrategyKind, kernel: F) -> (SimDuration, usize)
where
    F: Fn(&mut Comm) -> MpiResult<T> + Send + Sync,
    T: Send,
{
    let mut tb = grid5000_testbed(1000 + n as u64, NoiseModel::disabled());
    let report = allocate(
        &mut tb.overlay,
        tb.submitter,
        &JobRequest::new(n, strategy, "kernel"),
    );
    let allocation = report.allocation();
    let placement = Placement::from_allocation(allocation);
    let runtime = MpiRuntime::new(tb.topology.clone());
    let result = runtime.run(&placement, kernel);
    assert!(result.all_ranks_completed(), "{:?}", result.failures());
    (result.makespan, allocation.hosts_used())
}

fn ep_time(n: u32, strategy: StrategyKind) -> SimDuration {
    // Class B sizes with sampling: the charged time is class-accurate.
    let config = EpConfig::sampled(Class::B, 4096);
    run_on_grid(n, strategy, move |comm| ep_kernel(comm, &config)).0
}

fn is_time(n: u32, strategy: StrategyKind) -> SimDuration {
    let config = IsConfig::sampled(Class::B, 64).with_iterations(10);
    run_on_grid(n, strategy, move |comm| is_kernel(comm, &config)).0
}

#[test]
fn ep_spread_is_at_least_as_fast_as_concentrate_up_to_256() {
    for &n in &[32u32, 128] {
        let spread = ep_time(n, StrategyKind::Spread);
        let concentrate = ep_time(n, StrategyKind::Concentrate);
        assert!(
            spread <= concentrate,
            "EP at {n} processes: spread {spread} should not exceed concentrate {concentrate}"
        );
    }
}

#[test]
fn ep_gap_narrows_at_512_processes() {
    // "With 512 processes ... the overheads related to memory and
    // communications seem to reach an equilibrium at this point."
    let spread_128 = ep_time(128, StrategyKind::Spread);
    let conc_128 = ep_time(128, StrategyKind::Concentrate);
    let spread_512 = ep_time(512, StrategyKind::Spread);
    let conc_512 = ep_time(512, StrategyKind::Concentrate);
    let gap_128 = conc_128.as_secs_f64() / spread_128.as_secs_f64();
    let gap_512 = conc_512.as_secs_f64() / spread_512.as_secs_f64();
    assert!(
        gap_512 < gap_128,
        "the relative advantage of spread must shrink: {gap_128:.3} -> {gap_512:.3}"
    );
    // And EP keeps scaling: more processes, less time.
    assert!(spread_512 < spread_128);
    assert!(conc_512 < conc_128);
}

#[test]
fn is_spread_wins_at_32_processes() {
    // All 32 spread processes stay in the Nancy cluster with one process per
    // host, so they pay neither WAN latency nor memory contention.
    let spread = is_time(32, StrategyKind::Spread);
    let concentrate = is_time(32, StrategyKind::Concentrate);
    assert!(
        spread < concentrate,
        "IS at 32: spread {spread} should beat concentrate {concentrate}"
    );
}

#[test]
fn is_concentrate_wins_from_64_processes_on() {
    for &n in &[64u32, 128] {
        let spread = is_time(n, StrategyKind::Spread);
        let concentrate = is_time(n, StrategyKind::Concentrate);
        assert!(
            concentrate < spread,
            "IS at {n}: concentrate {concentrate} should beat spread {spread}"
        );
    }
}

#[test]
fn is_concentrate_stays_roughly_flat_while_spread_degrades() {
    // "Keeping the processes inside the cluster with concentrate gives a
    // roughly constant execution time", while spread slows down once it
    // leaves the cluster.
    let conc_32 = is_time(32, StrategyKind::Concentrate);
    let conc_128 = is_time(128, StrategyKind::Concentrate);
    let spread_32 = is_time(32, StrategyKind::Spread);
    let spread_128 = is_time(128, StrategyKind::Spread);
    let conc_ratio = conc_128.as_secs_f64() / conc_32.as_secs_f64();
    let spread_ratio = spread_128.as_secs_f64() / spread_32.as_secs_f64();
    assert!(
        conc_ratio < 2.0,
        "concentrate should stay within 2x of its 32-process time, got {conc_ratio:.2}x"
    );
    assert!(
        spread_ratio > conc_ratio,
        "spread must degrade faster than concentrate ({spread_ratio:.2}x vs {conc_ratio:.2}x)"
    );
}

#[test]
fn ep_uses_the_placement_the_strategy_produced() {
    let config = EpConfig::sampled(Class::B, 65536);
    let (_, spread_hosts) = run_on_grid(64, StrategyKind::Spread, move |comm| {
        ep_kernel(comm, &config)
    });
    let (_, conc_hosts) = run_on_grid(64, StrategyKind::Concentrate, move |comm| {
        ep_kernel(comm, &config)
    });
    assert_eq!(spread_hosts, 64, "spread: one process per host");
    assert_eq!(
        conc_hosts, 16,
        "concentrate: 64 processes on 16 quad-core nancy nodes"
    );
}

#[test]
fn modeled_kernels_match_the_executed_kernels() {
    let settings = Fig4Settings {
        is_sample_divisor: 64,
        ..Fig4Settings::default()
    };
    for (kernel, n, tolerance) in [
        (Fig4Kernel::Ep, 64, EP_DIVERGENCE_TOLERANCE),
        (Fig4Kernel::Is, 32, IS_DIVERGENCE_TOLERANCE),
    ] {
        // Both runs co-allocate on a fresh testbed with the same seed, so
        // they cost the same concentrate placement.
        let executed = run_kernel_once(kernel, StrategyKind::Concentrate, n, &settings);
        let modeled = run_kernel_once(kernel, StrategyKind::Concentrate, n, &settings.modeled());
        assert!(
            executed.verified,
            "{kernel:?}@{n}: the executed run failed to verify"
        );
        assert_eq!(executed.hosts_used, modeled.hosts_used);
        let e = executed.makespan.as_secs_f64();
        let m = modeled.makespan.as_secs_f64();
        let divergence = (m - e).abs() / e;
        eprintln!("{kernel:?}@{n}: executed {e:.9}s, modeled {m:.9}s, divergence {divergence:.3e}");
        assert!(
            divergence <= tolerance,
            "{kernel:?}@{n}: modeled {m:.9}s vs executed {e:.9}s diverges by {divergence:.3e}, \
             past the tolerance {tolerance:e}"
        );
    }
}
