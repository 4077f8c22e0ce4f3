//! The production costing of every placed job — `run_kernel_on_placement`'s
//! modeled arm, a cached compiled schedule evaluated by
//! `PlacementCost::cost_of` — against its oracle: a fresh `ModelComm` replay
//! of `ep_model` / `is_model` / `ft_model` on the same placement, which is
//! what the function ran before it was given the fast evaluator.  The two
//! must agree bit for bit on every placement the co-allocator can produce.
//!
//! The second half pins the CI-scale day (the paper day at 5% of its arrival
//! rates, compressed 24×) under both fixed strategies, under dead-peer churn
//! and under the searched strategy, and the CI-scale 4-shard week, to the
//! statistics the sweeps produced before the evaluator swap and before the
//! decided-exchange round events: any change that moves a hold, a placement
//! or a delivered message shows up here as one failed assert.

use p2p_mpi::prelude::*;
use p2pmpi_bench::experiments::{run_kernel_on_placement, Fig4Kernel, Fig4Settings};
use p2pmpi_bench::shard::{run_shard_sweep, ShardSweepConfig};
use p2pmpi_bench::workload::{run_day_sweep, DayProfile, DaySweepConfig, DaySweepResult};
use p2pmpi_mpi::model::ModelComm;
use p2pmpi_mpi::placement::Placement;
use p2pmpi_nas::ft::{ft_model, FtConfig};
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::memory::MemoryContentionModel;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::topology::{HostId, Topology};
use std::sync::{Arc, Barrier};

/// The job shapes of the day mix (EP 8–128, IS 8/32) plus FT, which only
/// the modeled backend can run.
const SHAPES: [(Fig4Kernel, u32); 7] = [
    (Fig4Kernel::Ep, 8),
    (Fig4Kernel::Ep, 32),
    (Fig4Kernel::Ep, 64),
    (Fig4Kernel::Ep, 128),
    (Fig4Kernel::Is, 8),
    (Fig4Kernel::Is, 32),
    (Fig4Kernel::Ft, 16),
];

/// The oracle: the kernel's program replayed on a fresh `ModelComm` built
/// from the settings' cost models.
fn oracle(
    kernel: Fig4Kernel,
    placement: &Placement,
    topology: &Arc<Topology>,
    settings: &Fig4Settings,
) -> SimDuration {
    let compute = match settings.contention_alpha {
        Some(alpha) => ComputeModel::with_contention(
            topology.clone(),
            MemoryContentionModel::with_alpha(alpha),
        ),
        None => ComputeModel::new(topology.clone()),
    };
    let mut model = ModelComm::new(placement, NetworkModel::new(topology.clone()), compute);
    match kernel {
        Fig4Kernel::Ep => ep_model(
            &mut model,
            &EpConfig::sampled(settings.class, settings.ep_sample_divisor),
        ),
        Fig4Kernel::Is => is_model(
            &mut model,
            &IsConfig::sampled(settings.class, settings.is_sample_divisor),
        ),
        Fig4Kernel::Ft => ft_model(&mut model, &FtConfig::new(settings.class)),
    }
}

/// Asserts production == oracle on one placement, with and without a
/// contention override, and that the point's host count is the placement's.
fn assert_costing_agrees(kernel: Fig4Kernel, placement: &Placement, topology: &Arc<Topology>) {
    for contention_alpha in [None, Some(0.35)] {
        let settings = Fig4Settings {
            contention_alpha,
            ..Fig4Settings::default().modeled()
        };
        let point = run_kernel_on_placement(
            kernel,
            StrategyKind::Concentrate,
            placement,
            topology,
            &settings,
        );
        assert_eq!(
            point.makespan,
            oracle(kernel, placement, topology, &settings),
            "{kernel:?} on {} ranks, alpha {contention_alpha:?}",
            placement.processes
        );
        assert_eq!(point.hosts_used, placement.residents_per_host().len());
        assert_eq!(point.processes, placement.processes);
        assert!(point.verified);
    }
}

#[test]
fn costing_equals_the_oracle_on_real_allocations() {
    // Every shape under both strategies, each on three differently seeded
    // grids: the probe noise reorders the booking, so the placements differ.
    for seed in 0..3u64 {
        for (i, &(kernel, ranks)) in SHAPES.iter().enumerate() {
            for strategy in [StrategyKind::Concentrate, StrategyKind::Spread] {
                let mut tb = grid5000_testbed(100 * seed + i as u64, NoiseModel::default());
                let request = JobRequest::new(ranks, strategy, kernel.program());
                let report = CoAllocator::new().allocate(&mut tb.overlay, tb.submitter, &request);
                let allocation = report.allocation();
                let placement = Placement::from_allocation(allocation);
                assert_eq!(placement.hosts_used(), allocation.hosts_used());
                assert_costing_agrees(kernel, &placement, &tb.topology);
            }
        }
    }
}

/// One host from each site in turn, three rounds: ranks dealt over these put
/// traffic on every directed site pair.
fn across_sites(topology: &Topology) -> Vec<HostId> {
    let mut across: Vec<HostId> = Vec::new();
    for i in 0..3 {
        for site in topology.sites() {
            across.push(topology.hosts_at_site(site.id).nth(i).unwrap().id);
        }
    }
    across
}

#[test]
fn costing_equals_the_oracle_on_hand_built_placements() {
    let topology = grid5000_topology();
    let nancy: Vec<HostId> = topology
        .hosts_at_site(topology.site_by_name("nancy").unwrap().id)
        .map(|h| h.id)
        .collect();
    let across = across_sites(&topology);
    for &(kernel, ranks) in &SHAPES {
        let n = ranks as usize;
        // An over-stacked host: more ranks than the node has cores.  The
        // model has no capacity notion, so this is costed like any other.
        assert!(ranks as usize > topology.host(nancy[0]).cores);
        assert_costing_agrees(kernel, &Placement::co_located(ranks, nancy[0]), &topology);
        // Four ranks per host, wrapping over a few hosts of one site.
        assert_costing_agrees(
            kernel,
            &Placement::round_robin(ranks, &nancy[..n.div_ceil(4)]),
            &topology,
        );
        // Ranks interleaved over all six sites.
        assert_costing_agrees(kernel, &Placement::round_robin(ranks, &across), &topology);
    }
    assert_costing_agrees(
        Fig4Kernel::Ep,
        &Placement::co_located(1, nancy[0]),
        &topology,
    );
}

/// The contract the sweeps' per-shape memo (`ShapeCosts`) keys on, on the
/// real kernels and the real grid: a placement costs the same bit for bit
/// after its hosts are swapped for others of their own clusters, one to one
/// (here each cluster's host list reversed).
#[test]
fn costing_reads_a_host_only_through_cluster_and_co_residency() {
    let topology = grid5000_topology();
    let mut image: Vec<HostId> = topology.hosts().iter().map(|h| h.id).collect();
    for cluster in topology.clusters() {
        let members: Vec<HostId> = topology
            .hosts_in_cluster(cluster.id)
            .map(|h| h.id)
            .collect();
        for (from, to) in members.iter().zip(members.iter().rev()) {
            image[from.0] = *to;
        }
    }
    let settings = Fig4Settings::default().modeled();
    let cost = |kernel, placement: &Placement| {
        run_kernel_on_placement(
            kernel,
            StrategyKind::Concentrate,
            placement,
            &topology,
            &settings,
        )
        .makespan
    };
    let across = across_sites(&topology);
    for (i, &(kernel, ranks)) in SHAPES.iter().enumerate() {
        let mut placements = vec![Placement::round_robin(ranks, &across)];
        for strategy in [StrategyKind::Concentrate, StrategyKind::Spread] {
            let mut tb = grid5000_testbed(i as u64, NoiseModel::default());
            let request = JobRequest::new(ranks, strategy, kernel.program());
            let report = CoAllocator::new().allocate(&mut tb.overlay, tb.submitter, &request);
            placements.push(Placement::from_allocation(report.allocation()));
        }
        for placement in placements {
            let mut relabelled = placement.clone();
            for spec in &mut relabelled.procs {
                spec.host = image[spec.host.0];
            }
            assert_ne!(relabelled.procs, placement.procs);
            assert_eq!(
                cost(kernel, &relabelled),
                cost(kernel, &placement),
                "{kernel:?} on {ranks} ranks"
            );
        }
    }
}

#[test]
fn cache_keys_on_everything_the_schedule_depends_on() {
    let topology = grid5000_topology();
    let hosts: Vec<HostId> = topology.hosts().iter().take(12).map(|h| h.id).collect();
    let placement = Placement::one_per_host(&hosts);
    let base = Fig4Settings::default().modeled();
    let variants = [
        base,
        Fig4Settings {
            class: Class::A,
            ..base
        },
        Fig4Settings {
            is_sample_divisor: 2,
            ..base
        },
        Fig4Settings {
            ep_sample_divisor: 64,
            ..base
        },
    ];
    for kernel in [Fig4Kernel::Ep, Fig4Kernel::Is, Fig4Kernel::Ft] {
        // Two rounds: the first fills the cache, the second must hit the
        // entry of its own settings, not a neighbour's.
        let mut first_round = Vec::new();
        for round in 0..2 {
            for (i, settings) in variants.iter().enumerate() {
                let cost = |s| {
                    run_kernel_on_placement(kernel, StrategyKind::Spread, &placement, &topology, s)
                        .makespan
                };
                let got = cost(settings);
                assert_eq!(got, oracle(kernel, &placement, &topology, settings));
                if round == 0 {
                    first_round.push(got);
                } else {
                    assert_eq!(got, first_round[i]);
                }
            }
        }
        // The class really changes the schedule (or the test proves nothing).
        assert_ne!(first_round[0], first_round[1], "{kernel:?}");
    }
}

#[test]
fn two_threads_costing_one_fresh_shape_agree_with_the_oracle() {
    // A shape no other test of this binary costs, so both threads meet an
    // empty cache slot; the barrier releases them into it together.
    let topology = grid5000_topology();
    let hosts: Vec<HostId> = topology.hosts().iter().step_by(9).map(|h| h.id).collect();
    let placement = Placement::round_robin(48, &hosts);
    let settings = Fig4Settings {
        class: Class::W,
        ..Fig4Settings::default().modeled()
    };
    let want = oracle(Fig4Kernel::Is, &placement, &topology, &settings);
    let barrier = Barrier::new(2);
    let got: Vec<SimDuration> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    run_kernel_on_placement(
                        Fig4Kernel::Is,
                        StrategyKind::Spread,
                        &placement,
                        &topology,
                        &settings,
                    )
                    .makespan
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("costing thread panicked"))
            .collect()
    });
    assert_eq!(got, [want, want]);
}

#[test]
#[should_panic(expected = "cannot model an invalid placement")]
fn an_invalid_placement_is_rejected() {
    let topology = grid5000_topology();
    let mut placement = Placement::co_located(8, HostId(0));
    placement.procs.pop();
    run_kernel_on_placement(
        Fig4Kernel::Ep,
        StrategyKind::Concentrate,
        &placement,
        &topology,
        &Fig4Settings::default().modeled(),
    );
}

#[test]
#[should_panic(expected = "unreplicated placements only")]
fn a_replicated_placement_is_rejected() {
    let topology = grid5000_topology();
    let hosts: Vec<HostId> = topology.hosts().iter().take(4).map(|h| h.id).collect();
    run_kernel_on_placement(
        Fig4Kernel::Ep,
        StrategyKind::Concentrate,
        &Placement::replicated_round_robin(8, 2, &hosts),
        &topology,
        &Fig4Settings::default().modeled(),
    );
}

#[test]
#[should_panic(expected = "FT is model-only")]
fn executed_ft_keeps_its_message() {
    let topology = grid5000_topology();
    run_kernel_on_placement(
        Fig4Kernel::Ft,
        StrategyKind::Concentrate,
        &Placement::co_located(2, HostId(0)),
        &topology,
        &Fig4Settings::test_sized(),
    );
}

/// The statistics of one sweep that a simulator-only change must not move.
#[derive(Debug, PartialEq, Eq)]
struct DayGolden {
    succeeded: usize,
    failed: usize,
    events_processed: u64,
    mean_hold_bits: u64,
    core_seconds_bits: u64,
}

impl DayGolden {
    fn of(r: &DaySweepResult) -> Self {
        DayGolden {
            succeeded: r.succeeded,
            failed: r.failed,
            events_processed: r.events_processed,
            mean_hold_bits: r.mean_hold_secs.to_bits(),
            core_seconds_bits: r.core_seconds.iter().sum::<f64>().to_bits(),
        }
    }
}

fn ci_day(mut cfg: DaySweepConfig) -> DayGolden {
    cfg.profile = cfg.profile.scaled(0.05);
    let r = run_day_sweep(&cfg.compress(24.0));
    assert_eq!(r.submitted, 1134);
    DayGolden::of(&r)
}

// Captured at commit 9275963 (PR 11), where every hold was a `ModelComm`
// replay; seed 2008, the config default.
#[test]
fn ci_day_goldens() {
    assert_eq!(
        ci_day(DaySweepConfig::new(StrategyKind::Concentrate)),
        DayGolden {
            succeeded: 875,
            failed: 259,
            events_processed: 111_261,
            mean_hold_bits: 0x4020_56c3_dfa5_d1f7,
            core_seconds_bits: 0x410b_d00a_4df2_ddda,
        }
    );
    assert_eq!(
        ci_day(DaySweepConfig::new(StrategyKind::Spread)),
        DayGolden {
            succeeded: 629,
            failed: 505,
            events_processed: 155_793,
            mean_hold_bits: 0x401e_0f98_f48b_abce,
            core_seconds_bits: 0x4102_c963_7f61_f34c,
        }
    );
    assert_eq!(
        ci_day(DaySweepConfig::dead_peer_day(StrategyKind::Concentrate)),
        DayGolden {
            succeeded: 690,
            failed: 444,
            events_processed: 128_337,
            mean_hold_bits: 0x4022_1218_5568_8a5f,
            core_seconds_bits: 0x4105_5048_3aa5_0dbc,
        }
    );
}

// Captured at commit f124865 (PR 12), before brokering rounds resolved their
// decided exchanges with one event; seed 2008.  The searched day plans,
// books and pins every arrival's annealed placement; the week is the
// `week_sweep --shards 4` smoke shape (`perf_report`'s CI-scale
// `sustained_throughput` input), whose cross-shard jobs are brokered at
// barriers on the coordinator.
#[test]
fn ci_searched_day_and_sharded_week_goldens() {
    assert_eq!(
        ci_day(DaySweepConfig::new(StrategyKind::Searched)),
        DayGolden {
            succeeded: 1134,
            failed: 0,
            events_processed: 137_842,
            mean_hold_bits: 0x4018_714b_c784_f125,
            core_seconds_bits: 0x4106_35fb_8066_bd5a,
        }
    );
    let mut base = DaySweepConfig::new(StrategyKind::Spread);
    base.profile = DayProfile::week();
    base = base.compress(168.0);
    base.profile = base.profile.scaled(0.02);
    let week = run_shard_sweep(&ShardSweepConfig::new(base, 4));
    assert_eq!(
        (
            week.merged.submitted,
            week.cross_submitted,
            week.cross_succeeded,
            week.barriers
        ),
        (3052, 160, 12, 160)
    );
    assert_eq!(
        DayGolden::of(&week.merged),
        DayGolden {
            succeeded: 1761,
            failed: 1291,
            events_processed: 334_401,
            mean_hold_bits: 0x4019_4784_a6af_74b0,
            core_seconds_bits: 0x4116_342e_1d79_860a,
        }
    );
}
