//! Property test of the placement evaluator: after any sequence of
//! swap/migrate moves (committed or undone) over any placement and any
//! collective program, `PlacementCost`'s per-rank clocks must equal a
//! from-scratch `ModelComm` replay of the same program **exactly** — the
//! move and fast-forward contracts of `p2pmpi_mpi::model`.
//!
//! And the contract the sweeps' per-shape cost memo
//! (`p2pmpi_bench::experiments::ShapeCosts`) keys on: the evaluator reads a
//! host only through its cluster and through which ranks share it.

use p2pmpi_mpi::model::{
    CollectiveProgram, ModelComm, Move, MoveError, PlacementCost, ScheduleBuilder,
};
use p2pmpi_mpi::placement::Placement;
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::memory::MemoryIntensity;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::rngutil::seeded;
use p2pmpi_simgrid::topology::{HostId, NodeSpec, Topology, TopologyBuilder};
use proptest::{prop_assert, prop_assert_eq, proptest};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// Three sites with distinct RTTs (one on a slow 1 Gbps link, like
/// Bordeaux) and eleven hosts in four clusters, so random placements and
/// moves mix loopback, intra-site and cross-site messaging plus
/// co-location.  `near` holds two clusters that differ only in clock rate
/// (like Sophia's azur and sol); `n` and `m` differ only in site.
fn topology() -> Arc<Topology> {
    let mut b = TopologyBuilder::new();
    let near = b.add_site("near");
    let mid = b.add_site("mid");
    let far = b.add_site("far");
    b.add_cluster(near, "n", "cpu", 4, NodeSpec::default());
    b.add_cluster(mid, "m", "cpu", 2, NodeSpec::default());
    b.add_cluster(
        far,
        "f",
        "cpu",
        2,
        NodeSpec {
            cores: 4,
            ops_per_sec: 1.5e9,
            ..NodeSpec::default()
        },
    );
    // Added last, so the hosts of the three clusters above keep their ids.
    b.add_cluster(
        near,
        "n-slow",
        "cpu",
        3,
        NodeSpec {
            ops_per_sec: 0.8e9,
            ..NodeSpec::default()
        },
    );
    b.set_rtt(
        near,
        mid,
        p2pmpi_simgrid::time::SimDuration::from_millis(11),
    );
    b.set_rtt(
        near,
        far,
        p2pmpi_simgrid::time::SimDuration::from_millis(17),
    );
    b.set_rtt(mid, far, p2pmpi_simgrid::time::SimDuration::from_millis(17));
    b.set_bandwidth(near, far, 1e9);
    Arc::new(b.build())
}

/// A random collective program mixing every schedule shape the compiler
/// knows (compute, trees, rings, advance).
fn random_program<P: CollectiveProgram>(p: &mut P, program_seed: u64) {
    let mut rng = seeded(program_seed);
    let n = p.size();
    let steps = rng.gen_range(2usize..6);
    for _ in 0..steps {
        match rng.gen_range(0u32..8) {
            0 => {
                let scale = rng.gen_range(1u64..50) as f64;
                p.compute(MemoryIntensity::MEMORY_BOUND, |r| {
                    1e6 * scale * (r as f64 + 1.0)
                });
            }
            1 => p.bcast(rng.gen_range(0..n), rng.gen_range(1u64..5000)),
            2 => p.reduce(rng.gen_range(0..n), rng.gen_range(1u64..2000)),
            3 => p.allreduce(rng.gen_range(1u64..1000)),
            4 => p.alltoall(rng.gen_range(1u64..500)),
            5 => {
                let stride = rng.gen_range(0u64..37);
                p.alltoallv(move |src, dst| (src as u64 + dst as u64 * stride) % 91 * 4);
            }
            6 => p.allgather(|r| (r as u64 % 5) * 8 + 8),
            _ => p.barrier(),
        }
    }
}

/// A random *ring-dominated* program: several alltoall(v) segments back to
/// back — uniform, per-source and genuinely per-pair byte structures — with
/// the occasional compute or tree wedged between.  This is the shape that
/// stresses the pooled ring transfer tables (and the per-pair fallback
/// path) far harder than [`random_program`]'s one-in-eight ring draw.
fn ring_heavy_program<P: CollectiveProgram>(p: &mut P, program_seed: u64) {
    let mut rng = seeded(program_seed);
    let rings = rng.gen_range(3usize..7);
    for _ in 0..rings {
        match rng.gen_range(0u32..4) {
            // Uniform: every pair the same (compresses to one table row set).
            0 => p.alltoall(rng.gen_range(1u64..4000)),
            // Per-source: dst-independent rows, zero diagonal (FT-shaped).
            1 => {
                let scale = rng.gen_range(1u64..64);
                p.alltoallv(move |src, dst| {
                    if src == dst {
                        0
                    } else {
                        (src as u64 % 7 + 1) * scale * 8
                    }
                });
            }
            // Per-pair: rows genuinely differ, so no table is built and the
            // wavefront must fall back to per-receive transfer costing.
            2 => {
                let stride = rng.gen_range(1u64..29);
                p.alltoallv(move |src, dst| (src as u64 * 13 + dst as u64 * stride) % 97 * 8);
            }
            // A wedge between rings, so ring exits feed non-ring segments.
            _ => match rng.gen_range(0u32..3) {
                0 => p.allreduce(rng.gen_range(1u64..500)),
                1 => {
                    let scale = rng.gen_range(1u64..20) as f64;
                    p.compute(MemoryIntensity::CPU_BOUND, move |r| {
                        1e5 * scale * (r % 5 + 1) as f64
                    });
                }
                _ => p.barrier(),
            },
        }
    }
}

/// How the ranks of a repeated block's body depend on each other.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Coupling {
    /// Collectives over all ranks: lockstep after a repetition or two.
    Full,
    /// Two rank halves that never exchange a message and compute at rates
    /// no host speed or contention factor can equalize: no repetition is
    /// ever entered in lockstep, so the fast-forward must never fire.
    Never,
    /// A message chain evaluated against its direction, so the slowest
    /// rank's rate reaches rank `r` only after `r` repetitions: lockstep
    /// comes late or not at all.
    Late,
}

/// One repetition of a random block body (the same for a given seed).
fn block_body<P: CollectiveProgram>(p: &mut P, body_seed: u64, coupling: Coupling) {
    let mut rng = seeded(body_seed);
    let n = p.size();
    let half = n / 2;
    match coupling {
        Coupling::Full => {
            for _ in 0..rng.gen_range(1usize..5) {
                match rng.gen_range(0u32..7) {
                    0 => {
                        let scale = rng.gen_range(1u64..50) as f64;
                        p.compute(MemoryIntensity::MEMORY_BOUND, |r| {
                            1e6 * scale * (r % 3 + 1) as f64
                        });
                    }
                    1 => p.bcast(rng.gen_range(0..n), rng.gen_range(1u64..5000)),
                    2 => p.allreduce(rng.gen_range(1u64..1000)),
                    3 => p.alltoall(rng.gen_range(1u64..500)),
                    4 => {
                        let scale = rng.gen_range(1u64..64);
                        p.alltoallv(move |src, _| (src as u64 % 7 + 1) * scale * 8);
                    }
                    5 => {
                        let stride = rng.gen_range(1u64..29);
                        p.alltoallv(move |src, dst| {
                            (src as u64 * 13 + dst as u64 * stride) % 97 * 8
                        });
                    }
                    _ => p.advance(p2pmpi_simgrid::time::SimDuration::from_micros(
                        rng.gen_range(1u64..900),
                    )),
                }
            }
            // Trees alone would merge across repetitions into one segment.
            p.compute(MemoryIntensity::CPU_BOUND, |r| 1e5 * (r % 5 + 1) as f64);
        }
        Coupling::Never => {
            p.compute(MemoryIntensity::CPU_BOUND, |r| {
                [1e7, 2e8][usize::from(r >= half)]
            });
            for _ in 0..rng.gen_range(1usize..4) {
                let bytes = rng.gen_range(1u64..4000);
                p.message(rng.gen_range(0..half), rng.gen_range(0..half), bytes);
                p.message(rng.gen_range(half..n), rng.gen_range(half..n), bytes);
            }
        }
        Coupling::Late => {
            let scale = rng.gen_range(1u64..20) as f64;
            p.compute(MemoryIntensity::MEMORY_BOUND, move |r| {
                1e6 * scale * (n - r) as f64
            });
            for r in (0..n - 1).rev() {
                p.message(r, r + 1, 256);
            }
        }
    }
}

/// Optional prologue, `reps` equal blocks, optional epilogue.
fn repeated_program<P: CollectiveProgram>(
    p: &mut P,
    body_seed: u64,
    coupling: Coupling,
    reps: u32,
    prologue: bool,
    epilogue: bool,
) {
    // Never-coupling bodies keep their halves apart outside the run too.
    let wrap = |p: &mut P, bytes: u64| match coupling {
        Coupling::Never => p.message(0, 1, bytes),
        _ => p.allreduce(bytes),
    };
    if prologue {
        wrap(p, 48);
    }
    for _ in 0..reps {
        block_body(p, body_seed, coupling);
    }
    if epilogue {
        wrap(p, 112);
    }
}

/// One of the file's three program generators: mixed collectives, ring
/// heavy, or a repeated block in any of its couplings.
fn any_program<P: CollectiveProgram>(p: &mut P, kind: u32, seed: u64) {
    match kind {
        0 => random_program(p, seed),
        1 => ring_heavy_program(p, seed),
        _ => {
            let coupling = [Coupling::Full, Coupling::Never, Coupling::Late][(seed % 3) as usize];
            let reps = 3 + (seed / 3 % 6) as u32;
            repeated_program(p, seed, coupling, reps, seed & 8 != 0, seed & 16 != 0);
        }
    }
}

/// `n` ranks on hosts drawn from `pool` with no regard for cores:
/// `cost_of` has no capacity notion, so hosts stack.
fn stacked_hosts(pool: &[HostId], n: u32, seed: u64) -> Vec<HostId> {
    let mut rng = seeded(seed);
    (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
}

/// Maps every host to a host of its own cluster, one to one.
fn relabelling_within_clusters(topology: &Topology, seed: u64) -> Vec<HostId> {
    let mut rng = seeded(seed);
    let mut image: Vec<HostId> = topology.hosts().iter().map(|h| h.id).collect();
    for cluster in topology.clusters() {
        let members: Vec<HostId> = topology
            .hosts_in_cluster(cluster.id)
            .map(|h| h.id)
            .collect();
        let mut shuffled = members.clone();
        shuffled.shuffle(&mut rng);
        for (from, to) in members.iter().zip(shuffled) {
            image[from.0] = to;
        }
    }
    image
}

/// Assigns `n` ranks to random hosts without exceeding any host's core
/// capacity (migrates need somewhere to go, so capacity-feasible starts
/// matter).
fn random_feasible_hosts(topology: &Topology, n: u32, seed: u64) -> Vec<HostId> {
    let mut rng = seeded(seed);
    let mut free: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
    (0..n)
        .map(|_| loop {
            let h = rng.gen_range(0..free.len());
            if free[h] > 0 {
                free[h] -= 1;
                break HostId(h);
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn delta_after_any_move_sequence_equals_full_replay(
        n in 2u32..17,
        placement_seed in 0u64..1_000_000,
        program_seed in 0u64..1_000_000,
        move_seed in 0u64..1_000_000,
    ) {
        let topology = topology();
        let mut b = ScheduleBuilder::new(n);
        random_program(&mut b, program_seed);
        let schedule = Arc::new(b.finish());
        let hosts = random_feasible_hosts(&topology, n, placement_seed);
        let capacity: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
        let mut cost = PlacementCost::new(
            schedule,
            hosts,
            capacity,
            NetworkModel::new(topology.clone()),
            ComputeModel::new(topology.clone()),
        );

        // At rest the caches are a full replay by construction.
        prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);

        let mut rng = seeded(move_seed);
        let host_count = topology.host_count();
        for _ in 0..12 {
            let mv = if rng.gen_range(0u32..2) == 0 {
                Move::Swap {
                    a: rng.gen_range(0..n),
                    b: rng.gen_range(0..n),
                }
            } else {
                // Deliberately unfiltered: some migrates violate capacity
                // and must be rejected without touching any state.
                Move::Migrate {
                    rank: rng.gen_range(0..n),
                    to: HostId(rng.gen_range(0..host_count)),
                }
            };
            let before_cost = cost.cost();
            let before_hosts = cost.hosts().to_vec();
            match cost.apply(mv) {
                Err(MoveError::CapacityExceeded { .. }) => {
                    // Rejection is mutation-free.
                    prop_assert_eq!(cost.cost(), before_cost);
                    prop_assert_eq!(cost.hosts(), &before_hosts[..]);
                    prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
                }
                Ok(new_cost) => {
                    // The clocks after the move equal the from-scratch
                    // replay, per rank, bit for bit.
                    let oracle = cost.oracle_clocks();
                    prop_assert_eq!(cost.clocks(), &oracle[..],
                        "clocks diverged from the oracle after {:?}", mv);
                    let oracle_max = oracle.iter().copied().max().unwrap();
                    prop_assert_eq!(
                        new_cost,
                        oracle_max.saturating_since(p2pmpi_simgrid::time::SimTime::ZERO)
                    );
                    if rng.gen_range(0u32..3) == 0 {
                        // Revert: the pre-move state must come back exactly.
                        cost.undo();
                        prop_assert_eq!(cost.cost(), before_cost);
                        prop_assert_eq!(cost.hosts(), &before_hosts[..]);
                        prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
                    } else {
                        cost.commit();
                    }
                }
            }
        }
        // The capacity invariant survived the walk.
        let mut used = vec![0u32; host_count];
        for &h in cost.hosts() {
            used[h.0] += 1;
        }
        for (h, &u) in used.iter().enumerate() {
            prop_assert!(u <= topology.host(HostId(h)).cores as u32);
        }
    }

    #[test]
    fn ring_heavy_delta_equals_full_replay(
        n in 8u32..21,
        placement_seed in 0u64..1_000_000,
        program_seed in 0u64..1_000_000,
        move_seed in 0u64..1_000_000,
    ) {
        let topology = topology();
        let mut b = ScheduleBuilder::new(n);
        ring_heavy_program(&mut b, program_seed);
        let schedule = Arc::new(b.finish());
        let hosts = random_feasible_hosts(&topology, n, placement_seed);
        let capacity: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
        let mut cost = PlacementCost::new(
            schedule,
            hosts,
            capacity,
            NetworkModel::new(topology.clone()),
            ComputeModel::new(topology.clone()),
        );
        prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);

        let mut rng = seeded(move_seed);
        let host_count = topology.host_count();
        for _ in 0..10 {
            let mv = if rng.gen_range(0u32..2) == 0 {
                Move::Swap { a: rng.gen_range(0..n), b: rng.gen_range(0..n) }
            } else {
                Move::Migrate {
                    rank: rng.gen_range(0..n),
                    to: HostId(rng.gen_range(0..host_count)),
                }
            };
            let before_cost = cost.cost();
            if cost.apply(mv).is_err() {
                prop_assert_eq!(cost.cost(), before_cost);
                continue;
            }
            prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..],
                "ring-heavy clocks diverged from the oracle after {:?}", mv);
            if rng.gen_range(0u32..3) == 0 {
                cost.undo();
                prop_assert_eq!(cost.cost(), before_cost);
                prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
            } else {
                cost.commit();
            }
        }
    }

    /// The fast-forward contract: on programs that repeat one block 3–12
    /// times — bodies that reach lockstep at once, late or never, with and
    /// without a prologue and an epilogue around the run — the per-rank
    /// clocks equal the oracle's at rest, after every move and after `undo`,
    /// `cost_of` equals a `ModelComm` replay, and a never-coupling body is
    /// never fast-forwarded.
    #[test]
    fn repeated_blocks_equal_full_replay(
        n in 4u32..13,
        reps in 3u32..13,
        coupling in 0u32..3,
        wrapping in 0u32..4,
        placement_seed in 0u64..1_000_000,
        body_seed in 0u64..1_000_000,
        move_seed in 0u64..1_000_000,
    ) {
        let coupling = [Coupling::Full, Coupling::Never, Coupling::Late][coupling as usize];
        let (prologue, epilogue) = (wrapping & 1 != 0, wrapping & 2 != 0);
        let topology = topology();
        let mut b = ScheduleBuilder::new(n);
        repeated_program(&mut b, body_seed, coupling, reps, prologue, epilogue);
        let schedule = Arc::new(b.finish());
        // (Adjacent trees merge, so a prologue or epilogue can cost the run
        // its first or last block — and at three repetitions the run itself.)
        prop_assert!(reps < 5 || schedule.repeated_block().is_some());
        let full_ops = schedule.op_count();
        let hosts = random_feasible_hosts(&topology, n, placement_seed);
        let capacity: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
        let network = NetworkModel::new(topology.clone());
        let compute = ComputeModel::new(topology.clone());

        let mut replay = ModelComm::new(
            &Placement::one_per_host(&hosts),
            network.clone(),
            compute.clone(),
        );
        schedule.drive(&mut replay);
        prop_assert_eq!(
            PlacementCost::cost_of(&schedule, &hosts, &network, &compute),
            replay.makespan()
        );

        let mut cost = PlacementCost::new(schedule, hosts, capacity, network, compute);
        prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
        if coupling == Coupling::Never {
            prop_assert_eq!(cost.last_delta_ops(), full_ops);
        }

        let mut rng = seeded(move_seed);
        let host_count = topology.host_count();
        for _ in 0..8 {
            let mv = if rng.gen_range(0u32..2) == 0 {
                Move::Swap { a: rng.gen_range(0..n), b: rng.gen_range(0..n) }
            } else {
                Move::Migrate {
                    rank: rng.gen_range(0..n),
                    to: HostId(rng.gen_range(0..host_count)),
                }
            };
            let before_hosts = cost.hosts().to_vec();
            let before_clocks = cost.clocks().to_vec();
            if cost.apply(mv).is_err() {
                prop_assert_eq!(cost.clocks(), &before_clocks[..]);
                continue;
            }
            prop_assert_eq!(cost.clocks(), &cost.oracle_clocks()[..],
                "clocks diverged from the oracle after {:?}", mv);
            prop_assert!(cost.last_delta_ops() <= full_ops);
            if coupling == Coupling::Never && cost.hosts() != &before_hosts[..] {
                prop_assert_eq!(cost.last_delta_ops(), full_ops);
            }
            if rng.gen_range(0u32..3) == 0 {
                cost.undo();
                prop_assert_eq!(cost.hosts(), &before_hosts[..]);
                prop_assert_eq!(cost.clocks(), &before_clocks[..]);
            } else {
                cost.commit();
            }
        }
    }
}

proptest! {
    /// Any placement, stacked hosts included, costs the same bit for bit
    /// after any relabelling of its hosts that keeps each host's cluster
    /// and which ranks share a host.
    #[test]
    fn cost_reads_a_host_only_through_cluster_and_co_residency(
        n in 4u32..21,
        kind in 0u32..3,
        program_seed in 0u64..1_000_000,
        placement_seed in 0u64..1_000_000,
        relabel_seed in 0u64..1_000_000,
    ) {
        let topology = topology();
        let mut b = ScheduleBuilder::new(n);
        any_program(&mut b, kind, program_seed);
        let schedule = b.finish();
        let all: Vec<HostId> = topology.hosts().iter().map(|h| h.id).collect();
        let hosts = stacked_hosts(&all, n, placement_seed);
        let image = relabelling_within_clusters(&topology, relabel_seed);
        let relabelled: Vec<HostId> = hosts.iter().map(|h| image[h.0]).collect();
        let network = NetworkModel::new(topology.clone());
        let compute = ComputeModel::new(topology.clone());
        prop_assert_eq!(
            PlacementCost::cost_of(&schedule, &hosts, &network, &compute),
            PlacementCost::cost_of(&schedule, &relabelled, &network, &compute),
            "{:?} relabelled to {:?}", hosts, relabelled
        );
    }
}

/// The other half of the key's contract: it is not coarser than the model.
/// Moving one host of a placement to an empty host of a cluster with
/// another clock rate, or of another site, keeps the co-residency partition
/// and must change the cost of some generated case.
#[test]
fn moving_a_host_to_another_speed_or_site_changes_some_cost() {
    let topology = topology();
    let cluster = |name: &str| -> Vec<HostId> {
        let id = topology
            .clusters()
            .iter()
            .find(|c| c.name == name)
            .expect("a cluster of this file's topology")
            .id;
        topology.hosts_in_cluster(id).map(|h| h.id).collect()
    };
    let (n, n_slow, m, f) = (cluster("n"), cluster("n-slow"), cluster("m"), cluster("f"));
    // Placements use `n` and `f` only, so `n-slow` and `m` have room.
    let pool: Vec<HostId> = n.iter().chain(&f).copied().collect();
    let network = NetworkModel::new(topology.clone());
    let compute = ComputeModel::new(topology.clone());
    let (mut by_speed, mut by_site) = (0, 0);
    for seed in 0..24u64 {
        let ranks = 4 + (seed % 9) as u32;
        let mut b = ScheduleBuilder::new(ranks);
        any_program(&mut b, (seed % 3) as u32, seed);
        let schedule = b.finish();
        let mut hosts = stacked_hosts(&pool, ranks, seed ^ 0x5EED);
        hosts[0] = n[0];
        let cost = |hosts: &[HostId]| PlacementCost::cost_of(&schedule, hosts, &network, &compute);
        let with_first_host_at = |to: HostId| -> Vec<HostId> {
            hosts
                .iter()
                .map(|&h| if h == n[0] { to } else { h })
                .collect()
        };
        by_speed += usize::from(cost(&with_first_host_at(n_slow[0])) != cost(&hosts));
        by_site += usize::from(cost(&with_first_host_at(m[0])) != cost(&hosts));
    }
    assert!(
        by_speed > 0,
        "a slower cluster on the same site never showed"
    );
    assert!(by_site > 0, "an equal cluster on another site never showed");
}

/// A 4-site, 80-host, 320-core grid — big enough to place 256 ranks, with
/// distinct inter-site RTTs so moved ranks change transfer-table rows.
fn soak_topology() -> Arc<Topology> {
    let mut b = TopologyBuilder::new();
    let sites: Vec<_> = (0..4).map(|i| b.add_site(format!("s{i}"))).collect();
    for (i, &s) in sites.iter().enumerate() {
        b.add_cluster(
            s,
            format!("c{i}"),
            "cpu",
            20,
            NodeSpec {
                cores: 4,
                ops_per_sec: 1.0e9 + i as f64 * 2.5e8,
                ..NodeSpec::default()
            },
        );
    }
    for i in 0..sites.len() {
        for j in (i + 1)..sites.len() {
            b.set_rtt(
                sites[i],
                sites[j],
                p2pmpi_simgrid::time::SimDuration::from_millis(5 + 4 * (i + j) as u64),
            );
        }
    }
    b.set_bandwidth(sites[0], sites[3], 1e9);
    Arc::new(b.build())
}

/// IS's per-iteration collective shape (allreduce + alltoall + balanced
/// alltoallv + compute), inlined here so the `p2pmpi-mpi` test suite can
/// soak the evaluator at IS scale without depending on `p2pmpi-nas`.  The
/// balanced alltoallv compresses to a pooled transfer table; the trailing
/// allgather keeps a non-ring segment downstream of every ring.
fn is_shaped_program<P: CollectiveProgram>(p: &mut P, iterations: u32) {
    let n = p.size();
    let keys: u64 = 1 << 18;
    let buckets: u64 = 1 << 10;
    for _ in 0..iterations {
        p.allreduce(buckets * 8);
        p.alltoall(8);
        p.alltoallv(move |src, _| {
            let share = keys / n as u64 + u64::from((src as u64) < keys % n as u64);
            (share / n as u64) * 4
        });
        p.compute(MemoryIntensity::MEMORY_BOUND, move |r| {
            (keys / n as u64 + u64::from((r as u64) < keys % n as u64)) as f64 * 50.0
        });
    }
    p.allgather(|_| 3 * 8);
}

/// Deterministic 256-rank soak: an IS-shaped schedule on an 80-host grid,
/// a fixed swap/migrate walk with undo sprinkled in, and a full `ModelComm`
/// replay after **every** accepted move.  This is the at-scale pin of the
/// move contract — the pooled-table wavefront must match the oracle bit
/// for bit at the rank counts the search actually runs.
#[test]
fn is_shaped_soak_at_256_matches_oracle() {
    let topology = soak_topology();
    let n: u32 = 256;
    let mut b = ScheduleBuilder::new(n);
    is_shaped_program(&mut b, 3);
    let schedule = Arc::new(b.finish());
    let hosts = random_feasible_hosts(&topology, n, 0xC0FFEE);
    let capacity: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
    let mut cost = PlacementCost::new(
        schedule,
        hosts,
        capacity,
        NetworkModel::new(topology.clone()),
        ComputeModel::new(topology.clone()),
    );
    assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);

    let mut rng = seeded(2008);
    let host_count = topology.host_count();
    let mut accepted = 0u32;
    for step in 0..24 {
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
            assert_eq!(cost.hosts(), &before_hosts[..]);
            continue;
        }
        accepted += 1;
        assert_eq!(
            cost.clocks(),
            &cost.oracle_clocks()[..],
            "soak step {step}: clocks diverged from the oracle after {mv:?}"
        );
        if step % 3 == 0 {
            cost.undo();
            assert_eq!(cost.cost(), before_cost);
            assert_eq!(cost.hosts(), &before_hosts[..]);
            assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
        } else {
            cost.commit();
        }
    }
    // Most migrates land on full hosts (320 cores hold 256 ranks), so a
    // third of the walk surviving is the realistic floor.
    assert!(accepted >= 8, "the walk barely moved ({accepted} accepted)");
}
