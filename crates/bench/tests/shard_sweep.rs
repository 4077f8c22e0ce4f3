//! Correctness anchors of the sharded parallel sweep driver: one shard
//! reproduces the sequential sweep bit-for-bit, the parallel and
//! single-thread drivers agree bit-for-bit (with and without cross-shard
//! jobs).

use p2pmpi_bench::shard::{run_shard_sweep, ShardSweepConfig};
use p2pmpi_bench::workload::{run_day_sweep, DaySweepConfig, DaySweepResult};
use p2pmpi_core::strategy::StrategyKind;
use p2pmpi_simgrid::time::SimDuration;

/// The CI-smoke shape shared with `tests/day_sweep.rs`: the day's burst
/// profile compressed into one virtual hour at ~1.1k jobs.
fn reduced(strategy: StrategyKind) -> DaySweepConfig {
    let mut cfg = DaySweepConfig::new(strategy).compress(24.0);
    cfg.profile = cfg.profile.scaled(0.05);
    cfg.sample_period = SimDuration::from_secs(60);
    cfg
}

/// The first fingerprint stage where two results differ; `None` when they
/// are the same outcome bit for bit.
fn divergence(a: &DaySweepResult, b: &DaySweepResult) -> Option<&'static str> {
    a.fingerprint().first_divergence(&b.fingerprint())
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
    assert_eq!(divergence(&sharded.merged, &sequential), None, "merged");
    assert_eq!(divergence(&sharded.per_shard[0], &sequential), None);
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
        assert_eq!(divergence(&parallel.merged, &single.merged), None, "{what}");
        assert_eq!(parallel.per_shard.len(), single.per_shard.len(), "{what}");
        for (p, s) in parallel.per_shard.iter().zip(&single.per_shard) {
            assert_eq!(divergence(p, s), None, "{what}");
        }
        assert_eq!(parallel.cross_submitted, single.cross_submitted, "{what}");
        assert_eq!(parallel.cross_succeeded, single.cross_succeeded, "{what}");
        assert_eq!(parallel.cross_failed, single.cross_failed, "{what}");
        assert_eq!(parallel.barriers, single.barriers, "{what}");
        // The attribution: one phase per barrier plus the tail, and every
        // shard's lane work counted by the lane that ran it.
        for r in [&parallel, &single] {
            assert_eq!(r.phases, r.barriers + 1, "{what}");
            assert_eq!(r.lane_work.len(), 4, "{what}");
            assert!(r.lane_work.iter().all(|w| !w.is_zero()), "{what}");
        }
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
