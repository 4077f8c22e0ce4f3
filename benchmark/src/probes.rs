//! Probes: isolated call loops on one layer's public API, for the costs a
//! sweep cannot attribute from outside (a queue operation, one evaluator
//! move).  Inputs come from an inlined SplitMix64 with a fixed seed: a probe
//! measures the layer, not the workload's seed.

use crate::stats::SplitMix64;
use crate::workloads::{build_evaluator, SearchPlan};
use p2pmpi_bench::experiments::{Fig4Kernel, Fig4Settings};
use p2pmpi_mpi::model::{Move, PlacementCost};
use p2pmpi_simgrid::event::{EventQueue, QueueKind};
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::HostId;
use std::hint::black_box;
use std::time::Instant;

/// Pending events each queue probe holds steady.
const QUEUE_POPULATION: usize = 10_000;
/// Timed operations per queue probe.
const QUEUE_OPS: usize = 200_000;

/// Hold-and-churn on a calm population: 10 k pending events at uniform
/// sub-2 ms gaps; one op pops the earliest and pushes a replacement.  The
/// shape of `day_concentrate` / `day_spread` between bursts.
fn queue_calm_ns_per_op(kind: QueueKind) -> f64 {
    let mut rng = SplitMix64(0xCA1);
    let mut q: EventQueue<u64> = EventQueue::with_capacity_and_kind(QUEUE_POPULATION, kind);
    for i in 0..QUEUE_POPULATION {
        q.push(SimTime::from_nanos(rng.range(1, 2_000_000)), i as u64);
    }
    let mut sum = 0u64;
    let start = Instant::now();
    for i in 0..QUEUE_OPS {
        let e = q.pop().expect("the population never drains");
        sum = sum.wrapping_add(e.payload);
        q.push(
            e.time + SimDuration::from_nanos(rng.range(1, 2_000_000)),
            i as u64,
        );
    }
    black_box(sum);
    start.elapsed().as_nanos() as f64 / QUEUE_OPS as f64
}

/// The trimodal population of `day_churn`: one op is a reservation — push a
/// millisecond reply and its 2 s timeout, pop the earliest event, cancel the
/// timeout — and every fourth op also pushes a minutes-to-an-hour completion
/// and pops once more, so the long tail stays populated and the clock keeps
/// jumping across all three scales.
fn queue_skew_ns_per_op(kind: QueueKind) -> f64 {
    let mut rng = SplitMix64(0x5CE3);
    let mut q: EventQueue<u64> = EventQueue::with_capacity_and_kind(QUEUE_POPULATION, kind);
    let completion = |rng: &mut SplitMix64| SimDuration::from_millis(rng.range(60_000, 3_600_000));
    for i in 0..QUEUE_POPULATION {
        q.push(SimTime::ZERO + completion(&mut rng), i as u64);
    }
    let mut now = SimTime::ZERO;
    let mut sum = 0u64;
    let start = Instant::now();
    for i in 0..QUEUE_OPS {
        q.push(
            now + SimDuration::from_micros(rng.range(1_000, 5_000)),
            i as u64,
        );
        let timeout = q.push(now + SimDuration::from_secs(2), i as u64);
        let pops = if i % 4 == 0 {
            q.push(now + completion(&mut rng), i as u64);
            2
        } else {
            1
        };
        for _ in 0..pops {
            let e = q.pop().expect("the population never drains");
            now = e.time;
            sum = sum.wrapping_add(e.payload);
        }
        black_box(q.cancel(timeout));
    }
    black_box(sum);
    start.elapsed().as_nanos() as f64 / QUEUE_OPS as f64
}

/// Both queue probes on the sweep's queue kind.
pub fn queue_probes(kind: QueueKind) -> Vec<(&'static str, f64)> {
    vec![
        ("simgrid.queue_calm_ns_per_op", queue_calm_ns_per_op(kind)),
        ("simgrid.queue_skew_ns_per_op", queue_skew_ns_per_op(kind)),
    ]
}

/// Applies and commits `moves` random swaps and migrations (after warming
/// the caches on a tenth of them, undone).  Returns host seconds and
/// evaluator ops per applied move.
fn delta_per_move(
    cost: &mut PlacementCost,
    ranks: u32,
    host_count: usize,
    moves: usize,
) -> (f64, f64) {
    let mut rng = SplitMix64(0x5EA7);
    let mix: Vec<Move> = (0..moves)
        .map(|_| {
            if rng.range(0, 2) == 0 {
                Move::Swap {
                    a: rng.range(0, u64::from(ranks)) as u32,
                    b: rng.range(0, u64::from(ranks)) as u32,
                }
            } else {
                Move::Migrate {
                    rank: rng.range(0, u64::from(ranks)) as u32,
                    to: HostId(rng.range(0, host_count as u64) as usize),
                }
            }
        })
        .collect();
    for mv in mix.iter().take(moves / 10) {
        if cost.apply(*mv).is_ok() {
            cost.undo();
        }
    }
    let (mut applied, mut ops) = (0usize, 0usize);
    let start = Instant::now();
    for mv in &mix {
        if cost.apply(*mv).is_ok() {
            applied += 1;
            ops += cost.last_delta_ops();
            cost.commit();
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let applied = applied.max(1) as f64;
    (secs / applied, ops as f64 / applied)
}

/// The ring wavefront evaluator at the offline search's scale: cold build
/// (its parts are the workload's set-up), delta moves, a full replay.
pub fn is1024_probe(plan: &SearchPlan) -> Vec<(&'static str, f64)> {
    let (mut metrics, mut built) = plan.build_evaluator();
    let (secs_per_move, ops_per_move) =
        delta_per_move(&mut built.cost, plan.ranks, built.host_count, 30);
    const REPLAYS: usize = 4;
    let start = Instant::now();
    for _ in 0..REPLAYS {
        black_box(built.cost.oracle_cost());
    }
    let replay_ms = start.elapsed().as_secs_f64() * 1e3 / REPLAYS as f64;
    metrics.extend([
        ("nas.is1024_schedule_ops", built.schedule_ops as f64),
        ("mpi.is1024_delta_ms_per_move", secs_per_move * 1e3),
        ("mpi.is1024_delta_ops_per_move", ops_per_move),
        ("mpi.is1024_replay_ms", replay_ms),
        ("mpi.ring_cache_bytes", built.cost.ring_cache_bytes() as f64),
    ]);
    metrics
}

/// The tree evaluator at EP@256, the incremental case the searched day's
/// anneal loop lives on.
pub fn ep256_probe() -> Vec<(&'static str, f64)> {
    const RANKS: u32 = 256;
    let mut built = build_evaluator(Fig4Kernel::Ep, RANKS, &Fig4Settings::default().modeled());
    let (secs_per_move, ops_per_move) =
        delta_per_move(&mut built.cost, RANKS, built.host_count, 2_000);
    vec![
        ("mpi.ep256_delta_us_per_move", secs_per_move * 1e6),
        ("mpi.ep256_delta_ops_per_move", ops_per_move),
    ]
}
