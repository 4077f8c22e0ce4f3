//! Correctness anchors of the sharded parallel sweep driver: one shard
//! reproduces the sequential sweep bit-for-bit, the parallel and
//! single-thread drivers agree bit-for-bit (with and without cross-shard
//! jobs), and the queue kind backing each shard's timeline never changes
//! an outcome.

use p2pmpi_bench::shard::{run_shard_sweep, ShardSweepConfig};
use p2pmpi_bench::workload::{run_day_sweep, DaySweepConfig, DaySweepResult};
use p2pmpi_core::strategy::StrategyKind;
use p2pmpi_simgrid::event::QueueKind;
use p2pmpi_simgrid::time::SimDuration;

/// The CI-smoke shape shared with `tests/day_sweep.rs`: the day's burst
/// profile compressed into one virtual hour at ~1.1k jobs.
fn reduced(strategy: StrategyKind) -> DaySweepConfig {
    let mut cfg = DaySweepConfig::new(strategy).compress(24.0);
    cfg.profile = cfg.profile.scaled(0.05);
    cfg.sample_period = SimDuration::from_secs(60);
    cfg
}

/// Bit-for-bit outcome equality: submissions, outcomes, timeouts, kills,
/// leaks, delivered events, per-site work and every utilisation sample.
fn assert_identical(a: &DaySweepResult, b: &DaySweepResult, what: &str) {
    assert_eq!(a.submitted, b.submitted, "{what}");
    assert_eq!(a.succeeded, b.succeeded, "{what}");
    assert_eq!(a.failed, b.failed, "{what}");
    assert_eq!(a.timeouts, b.timeouts, "{what}");
    assert_eq!(a.jobs_killed, b.jobs_killed, "{what}");
    assert_eq!(a.leaked_grants, b.leaked_grants, "{what}");
    assert_eq!(a.leaked_grant_hwm, b.leaked_grant_hwm, "{what}");
    assert_eq!(a.events_processed, b.events_processed, "{what}");
    assert_eq!(a.reaped_tickets, b.reaped_tickets, "{what}");
    assert_eq!(a.dead_ticket_hwm, b.dead_ticket_hwm, "{what}");
    assert_eq!(a.site_names, b.site_names, "{what}");
    assert_eq!(a.core_seconds, b.core_seconds, "{what}");
    let sa: Vec<_> = a.samples.iter().map(|s| (s.t, &s.running)).collect();
    let sb: Vec<_> = b.samples.iter().map(|s| (s.t, &s.running)).collect();
    assert_eq!(sa, sb, "{what}");
}

#[test]
fn one_shard_reproduces_the_sequential_sweep_bit_for_bit() {
    // The 1-shard plan is the identity partition and shard 0 keeps the
    // base seed, so the sharded driver must be indistinguishable from
    // run_day_sweep — threads and barrier machinery included.
    let base = reduced(StrategyKind::Concentrate);
    let sequential = run_day_sweep(&base);
    let sharded = run_shard_sweep(&ShardSweepConfig::new(base, 1));
    assert_eq!(sharded.barriers, 0, "one shard must never synchronize");
    assert_eq!(sharded.cross_submitted, 0);
    assert_identical(&sharded.merged, &sequential, "1-shard vs sequential");
    assert_identical(&sharded.per_shard[0], &sequential, "shard 0 vs sequential");
}

#[test]
fn parallel_and_single_thread_drivers_agree_bit_for_bit() {
    // Shards share nothing between barriers and every coordinator step
    // runs in fixed shard order, so threading is unobservable — with and
    // without cross-shard traffic.
    for cross_fraction in [0.0, 0.1] {
        let mut cfg = ShardSweepConfig::new(reduced(StrategyKind::Spread), 4);
        cfg.cross_fraction = cross_fraction;
        cfg.parallel = true;
        let parallel = run_shard_sweep(&cfg);
        cfg.parallel = false;
        let single = run_shard_sweep(&cfg);
        let what = format!("parallel vs single-thread at cross {cross_fraction}");
        assert_identical(&parallel.merged, &single.merged, &what);
        assert_eq!(parallel.per_shard.len(), single.per_shard.len(), "{what}");
        for (p, s) in parallel.per_shard.iter().zip(&single.per_shard) {
            assert_identical(p, s, &what);
        }
        assert_eq!(parallel.cross_submitted, single.cross_submitted, "{what}");
        assert_eq!(parallel.cross_succeeded, single.cross_succeeded, "{what}");
        assert_eq!(parallel.cross_failed, single.cross_failed, "{what}");
        assert_eq!(parallel.barriers, single.barriers, "{what}");
        if cross_fraction == 0.0 {
            assert_eq!(
                parallel.barriers, 0,
                "zero cross fraction still synchronized"
            );
        } else {
            assert!(
                parallel.barriers > 0,
                "cross fraction 0.1 never synchronized"
            );
            assert!(
                parallel.cross_succeeded > 0,
                "no cross-shard job ever placed"
            );
        }
    }
}

#[test]
fn shard_timelines_agree_on_every_queue_kind() {
    // Same contract the sequential sweep pins: the queue structure backing
    // each shard's timeline is a performance choice, never a semantic one.
    let run = |kind: QueueKind| {
        let mut base = reduced(StrategyKind::Concentrate);
        base.queue = kind;
        let mut cfg = ShardSweepConfig::new(base, 3);
        cfg.cross_fraction = 0.1;
        run_shard_sweep(&cfg)
    };
    let heap = run(QueueKind::BinaryHeap);
    let ladder = run(QueueKind::Ladder);
    assert_identical(&heap.merged, &ladder.merged, "sharded heap vs ladder");
}
