//! At-scale pin of the placement evaluator against the *real* NAS
//! schedules: the compiled `is_schedule` (and `ft_schedule`) driven through
//! a deterministic swap/migrate/undo walk on a multi-site grid, with a full
//! `ModelComm` replay after every accepted move.  The `p2pmpi-mpi` property
//! suite proves the move and fast-forward contracts on random programs;
//! this test proves them on the exact byte structures and repeated
//! iterations the placement search optimises — IS's balanced alltoallv
//! (compressed to a pooled transfer table) and FT's zero-diagonal transpose.

use p2pmpi_mpi::model::{Move, PlacementCost};
use p2pmpi_nas::classes::Class;
use p2pmpi_nas::ft::{ft_schedule, FtConfig};
use p2pmpi_nas::is::{is_schedule, IsConfig};
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

fn soak(schedule: p2pmpi_mpi::model::CompiledSchedule, n: u32, moves: u32, seed: u64) {
    let topology = grid();
    let capacity: Vec<u32> = topology.hosts().iter().map(|h| h.cores as u32).collect();
    let mut cost = PlacementCost::new(
        Arc::new(schedule),
        spread_hosts(&topology, n),
        capacity,
        NetworkModel::new(topology.clone()),
        ComputeModel::new(topology.clone()),
    );
    assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);

    let mut rng = seeded(seed);
    let host_count = topology.host_count();
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
fn ft_schedule_soak_matches_oracle_at_96() {
    let config = FtConfig::new(Class::S).with_iterations(3);
    soak(ft_schedule(&config, 96), 96, 18, 7);
}
