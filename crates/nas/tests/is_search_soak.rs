//! At-scale pin of the placement evaluator against the *real* NAS
//! schedules: the compiled `is_schedule` (and `ft_schedule`) driven through
//! a deterministic swap/migrate/undo walk on a multi-site grid, with a full
//! `ModelComm` replay after every accepted move.  The `p2pmpi-mpi` property
//! suite proves the move and fast-forward contracts on random programs;
//! this test proves them on the exact byte structures and repeated
//! iterations the placement search optimises — IS's balanced alltoallv
//! (compressed to a pooled transfer table) and FT's zero-diagonal
//! transpose.  It also pins where the pass fast-forwards each kernel's
//! iterations, and that every ring of every pass runs as an exact f64
//! wavefront — the site-run form on the spread start.

use p2pmpi_mpi::model::{
    CollectiveProgram, CompiledSchedule, ModelComm, Move, PlacementCost, ScheduleBuilder,
};
use p2pmpi_mpi::placement::Placement;
use p2pmpi_nas::classes::Class;
use p2pmpi_nas::ep::rank_share;
use p2pmpi_nas::ft::{ft_program, ft_schedule, FtConfig};
use p2pmpi_nas::is::{
    is_model, is_program, is_schedule, IsConfig, IS_MEMORY_INTENSITY, OPS_PER_KEY_PER_ITER,
};
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::rngutil::seeded;
use p2pmpi_simgrid::time::SimDuration;
use p2pmpi_simgrid::topology::{HostId, NodeSpec, Topology, TopologyBuilder};
use rand::Rng;
use std::sync::Arc;

/// Three sites, 48 quad-core hosts: room for 128 ranks plus idle slots for
/// migrates, with distinct RTTs so site changes rewrite table rows.
fn grid() -> Arc<Topology> {
    let mut b = TopologyBuilder::new();
    let sites: Vec<_> = (0..3).map(|i| b.add_site(format!("s{i}"))).collect();
    for (i, &s) in sites.iter().enumerate() {
        b.add_cluster(
            s,
            format!("c{i}"),
            "cpu",
            16,
            NodeSpec {
                cores: 4,
                ops_per_sec: 1.0e9 + i as f64 * 4.0e8,
                ..NodeSpec::default()
            },
        );
    }
    b.set_rtt(sites[0], sites[1], SimDuration::from_millis(9));
    b.set_rtt(sites[0], sites[2], SimDuration::from_millis(15));
    b.set_rtt(sites[1], sites[2], SimDuration::from_millis(21));
    b.set_bandwidth(sites[1], sites[2], 1e9);
    Arc::new(b.build())
}

/// Round-robin feasible start (a spread-like placement).
fn spread_hosts(topology: &Topology, n: u32) -> Vec<HostId> {
    let hosts = topology.hosts();
    let mut filled = vec![0u32; hosts.len()];
    let mut out = Vec::with_capacity(n as usize);
    'rounds: loop {
        for (i, h) in hosts.iter().enumerate() {
            if filled[i] < h.cores as u32 {
                filled[i] += 1;
                out.push(h.id);
                if out.len() == n as usize {
                    break 'rounds;
                }
            }
        }
    }
    out
}

/// An evaluator of `schedule` on the spread start over [`grid`].
fn evaluator(schedule: CompiledSchedule) -> PlacementCost {
    let topology = grid();
    let capacity: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
    let hosts = spread_hosts(&topology, schedule.size());
    PlacementCost::new(
        Arc::new(schedule),
        hosts,
        capacity,
        NetworkModel::new(topology.clone()),
        ComputeModel::new(topology),
    )
}

/// Every ring of the last pass ran as an exact f64 wavefront, in either
/// form: the real schedules' clocks stay far below 2^53 ns, and neither
/// kernel has a `PerPair` ring.  Returns the `(site-run, gathered)` counts.
fn assert_rings_ran_as_f64(cost: &PlacementCost, context: &str) -> (usize, usize) {
    let (site_run, gathered, per_receive) = cost.last_ring_paths();
    assert!(
        site_run + gathered > 0 && per_receive == 0,
        "{context}: {site_run} site-run, {gathered} gathered and {per_receive} per-receive rings"
    );
    (site_run, gathered)
}

fn soak(schedule: CompiledSchedule, n: u32, moves: u32, seed: u64) {
    let mut cost = evaluator(schedule);
    assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
    // The spread start holds its ranks in same-site runs of 16: every ring
    // at rest runs in the site-run form.
    let (site_run, gathered) = assert_rings_ran_as_f64(&cost, "at rest");
    assert!(
        site_run > 0 && gathered == 0,
        "at rest: {gathered} gathered rings"
    );

    let mut rng = seeded(seed);
    let host_count = grid().host_count();
    let mut accepted = 0u32;
    for step in 0..moves {
        let mv = if rng.gen_range(0u32..2) == 0 {
            Move::Swap {
                a: rng.gen_range(0..n),
                b: rng.gen_range(0..n),
            }
        } else {
            Move::Migrate {
                rank: rng.gen_range(0..n),
                to: HostId(rng.gen_range(0..host_count)),
            }
        };
        let before_cost = cost.cost();
        let before_hosts = cost.hosts().to_vec();
        if cost.apply(mv).is_err() {
            assert_eq!(cost.cost(), before_cost);
            continue;
        }
        accepted += 1;
        assert_eq!(
            cost.clocks(),
            &cost.oracle_clocks()[..],
            "step {step}: the clocks diverged from the oracle after {mv:?}"
        );
        assert_rings_ran_as_f64(&cost, &format!("step {step}"));
        if step % 3 == 0 {
            cost.undo();
            assert_eq!(cost.cost(), before_cost);
            assert_eq!(cost.hosts(), &before_hosts[..]);
            assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
        } else {
            cost.commit();
        }
    }
    assert!(accepted >= moves / 2, "the walk barely moved ({accepted})");
}

#[test]
fn is_schedule_soak_matches_oracle_at_128() {
    let config = IsConfig::sampled(Class::S, 4).with_iterations(4);
    soak(is_schedule(&config, 128), 128, 18, 42);
}

#[test]
fn is_schedule_pools_its_compute_phases_and_replays_exactly() {
    // IS computes the same per-rank shares in all ten iterations: they
    // compile to one compute phase, and the pooled schedule still costs
    // exactly what the kernel's program charges on a model communicator.
    let config = IsConfig::sampled(Class::S, 4);
    let schedule = is_schedule(&config, 32);
    assert_eq!(schedule.compute_phase_count(), 1);
    assert_eq!(schedule.repeated_block(), Some((0, 4, 10)));
    let topology = grid();
    let network = NetworkModel::new(topology.clone());
    let compute = ComputeModel::new(topology.clone());
    let hosts = spread_hosts(&topology, 32);
    let mut model = ModelComm::new(
        &Placement::one_per_host(&hosts),
        network.clone(),
        compute.clone(),
    );
    assert_eq!(
        PlacementCost::cost_of(&schedule, &hosts, &network, &compute),
        is_model(&mut model, &config)
    );
    let capacity = topology.hosts().iter().map(|h| h.cores as u32).collect();
    let cost = PlacementCost::new(Arc::new(schedule), hosts, capacity, network, compute);
    assert_eq!(cost.clocks(), model.clocks());
}

#[test]
fn ft_schedule_soak_matches_oracle_at_96() {
    let config = FtConfig::new(Class::S).with_iterations(3);
    soak(ft_schedule(&config, 96), 96, 18, 7);
}

/// Clock updates a schedule of `program` alone holds — the sum of its
/// segments' op counts, in `PlacementCost::last_delta_ops` units.
fn ops_of(n: u32, program: impl FnOnce(&mut ScheduleBuilder)) -> usize {
    let mut b = ScheduleBuilder::new(n);
    program(&mut b);
    b.finish().op_count()
}

/// IS's per-iteration compute phase, issued on its own: it interns to the
/// same phase as the iterations' own.
fn is_compute<P: CollectiveProgram>(p: &mut P, config: &IsConfig) {
    let (keys, size) = (config.class.is_keys(), p.size());
    p.compute(IS_MEMORY_INTENSITY, |rank| {
        rank_share(keys, rank, size).1 as f64 * OPS_PER_KEY_PER_ITER
    });
}

/// Whether swapping ranks `a` and `b` of the [`grid`] spread start moves
/// each to another site.
fn crosses_sites(n: u32, a: u32, b: u32) -> bool {
    let topology = grid();
    let hosts = spread_hosts(&topology, n);
    let site = |r: u32| topology.host(hosts[r as usize]).site;
    site(a) != site(b)
}

#[test]
fn is_steps_one_iteration_and_one_allreduce() {
    // IS's allreduce leaves every rank at the reduction's instant plus an
    // instant-independent offset: the second iteration's allreduce is the
    // first boundary in lockstep, and the pass skips to the allgather.
    let n = 128;
    let config = IsConfig::sampled(Class::S, 4);
    assert_eq!(config.iterations, 10);
    let one_iteration = ops_of(n, |b| is_program(b, &config.with_iterations(1)));
    let allreduce = ops_of(n, |b| b.allreduce(8));
    let stepped = one_iteration + allreduce;
    let schedule = is_schedule(&config, n);
    assert_eq!(schedule.repeated_block(), Some((0, 4, 10)));
    let full = schedule.op_count();
    let mut cost = evaluator(schedule);
    assert_eq!(cost.last_delta_ops(), stepped);
    assert!(stepped * 100 < full * 11, "{stepped} of {full} ops");
    assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
    // A cross-site swap rewrites ring rows and moves the critical path; the
    // pass still fires at the same boundary.
    assert!(crosses_sites(n, 0, 47));
    cost.apply(Move::Swap { a: 0, b: 47 }).unwrap();
    assert_eq!(cost.last_delta_ops(), stepped);
    assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
}

#[test]
fn ft_steps_two_iterations() {
    // FT's checksum allreduce closes its block: on the spread start lockstep
    // first shows at the top of the third iteration.
    let n = 96;
    let config = FtConfig::new(Class::S);
    assert_eq!(config.iterations, 6);
    let block = ops_of(n, |b| ft_program(b, &config.with_iterations(1)));
    let allreduce = ops_of(n, |b| b.allreduce(8));
    let mut cost = evaluator(ft_schedule(&config, n));
    assert_eq!(cost.last_delta_ops(), 2 * block);
    assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
    // After this swap the second iteration's transpose ring already leaves
    // every rank one constant later than the first one's did, so the pass
    // stops one segment earlier: before the second checksum allreduce.
    assert!(crosses_sites(n, 1, 40));
    cost.apply(Move::Swap { a: 1, b: 40 }).unwrap();
    assert_eq!(cost.last_delta_ops(), 2 * block - allreduce);
    assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
}

#[test]
fn a_rotated_is_block_fires_at_the_same_instant() {
    // One extra compute phase before the loop: the run is reported as
    // `[compute, allreduce, alltoall, alltoallv]` from segment 0, and the
    // last iteration's compute falls outside it.  The pass still stops
    // right after the second allreduce and steps only what follows the run.
    let n = 128;
    let config = IsConfig::sampled(Class::S, 4);
    let rotated = |b: &mut ScheduleBuilder| {
        is_compute(b, &config);
        is_program(b, &config);
    };
    let mut b = ScheduleBuilder::new(n);
    rotated(&mut b);
    let schedule = b.finish();
    assert_eq!(schedule.repeated_block(), Some((0, 4, 10)));
    assert_eq!(schedule.compute_phase_count(), 1);
    let compute = ops_of(n, |b| is_compute(b, &config));
    let allgather = ops_of(n, |b| b.allgather(|_| 3 * 8));
    let allreduce = ops_of(n, |b| b.allreduce(8));
    let through_second_allreduce = ops_of(n, |b| {
        is_compute(b, &config);
        is_program(b, &config.with_iterations(1));
    }) - allgather
        + allreduce;
    let after_run = compute + allgather;
    let mut cost = evaluator(schedule);
    assert_eq!(cost.last_delta_ops(), through_second_allreduce + after_run);
    assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
    cost.apply(Move::Swap { a: 0, b: 47 }).unwrap();
    assert_eq!(cost.last_delta_ops(), through_second_allreduce + after_run);
    assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
}
