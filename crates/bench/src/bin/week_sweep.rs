//! Week-scale sharded sweep: the Figures 2–3 day trace tiled across a
//! week and replayed over per-site shard timelines running in parallel
//! between conservative synchronization barriers.
//!
//! ```text
//! cargo run --release -p p2pmpi-bench --bin week_sweep -- \
//!     [--shards N] [--days N] [--cross-fraction F] \
//!     [--strategy concentrate|spread] [--queue ladder|heap] \
//!     [--seed N] [--compress F] [--rate-scale F] \
//!     [--sequential] [--baseline]
//! ```
//!
//! The full week at 10× traffic (`--rate-scale 10`, ~1.5M jobs) is the
//! production-scale target; `--shards 4 --compress 168 --rate-scale 0.02`
//! squeezes the week's shape into one virtual hour at ~3k jobs — the CI
//! smoke configuration.  See `p2pmpi_bench::shard` for the barrier
//! protocol and the lanes the shards run on; `--baseline` also runs the
//! single-thread driver, exits non-zero unless the two agree on every
//! outcome count, per-site core-second and utilisation sample, and reports
//! the wall-clock speedup.

use p2pmpi_bench::cliargs::{week_sweep_flags, WeekSweepFlags};
use p2pmpi_bench::par::hardware_threads;
use p2pmpi_bench::shard::{run_shard_sweep, ShardSweepConfig, ShardSweepResult};
use p2pmpi_bench::workload::{DayProfile, DaySweepConfig, DaySweepResult};
use p2pmpi_core::strategy::StrategyKind;

fn config_for(flags: &WeekSweepFlags) -> ShardSweepConfig {
    let strategy = match flags.strategy.as_str() {
        "concentrate" => StrategyKind::Concentrate,
        "spread" => StrategyKind::Spread,
        other => {
            eprintln!("unknown --strategy {other:?} (expected concentrate|spread)");
            std::process::exit(2);
        }
    };
    let mut base = DaySweepConfig::new(strategy);
    base.seed = flags.seed;
    base.queue = flags.queue;
    if flags.days == 0 {
        eprintln!("--days must be >= 1");
        std::process::exit(2);
    }
    base.profile = DayProfile::paper_day().repeated(flags.days);
    if let Some(f) = flags.compress {
        base = base.compress(f);
    }
    if let Some(f) = flags.rate_scale {
        base.profile = base.profile.scaled(f);
    }
    let mut cfg = ShardSweepConfig::new(base, flags.shards);
    cfg.cross_fraction = flags.cross_fraction;
    cfg.parallel = !flags.sequential;
    cfg
}

fn print_result(label: &str, r: &ShardSweepResult) {
    println!("\n[{label}]");
    println!(
        "shards\t{}\tbarriers\t{}\tcross\t{}/{} placed ({} refused)",
        r.per_shard.len(),
        r.barriers,
        r.cross_succeeded,
        r.cross_submitted,
        r.cross_failed,
    );
    print!("per_shard_submitted");
    for s in &r.per_shard {
        print!("\t{}", s.submitted);
    }
    println!();
    let m = &r.merged;
    println!(
        "submitted\t{}\tsucceeded\t{}\tfailed\t{}\ttimeouts\t{}",
        m.submitted, m.succeeded, m.failed, m.timeouts
    );
    println!(
        "shapes_costed\t{}/{} placed (shards + coordinator)",
        m.shapes_costed, m.succeeded
    );
    println!(
        "events\t{}\tvirtual_end\t{:.0}s\treaped\t{}\tdead_hwm\t{}",
        m.events_processed,
        m.virtual_end.as_secs_f64(),
        m.reaped_tickets,
        m.dead_ticket_hwm
    );
    print!("# work_share");
    for (site, share) in m.site_names.iter().zip(m.site_work_share()) {
        print!("\t{site}:{share:.3}");
    }
    println!();
    println!(
        "wall_ms\t{:.1}\tevents_per_sec\t{:.0}\tjobs_per_sec\t{:.1}",
        r.wall.as_secs_f64() * 1e3,
        r.events_per_sec(),
        r.jobs_per_sec()
    );
}

/// The fields of two merged results that differ, of those the parallel and
/// single-thread drivers must agree on bit for bit.
fn diverged(a: &DaySweepResult, b: &DaySweepResult) -> Vec<&'static str> {
    let same_samples = (a.samples.iter().map(|s| (s.t, &s.running)))
        .eq(b.samples.iter().map(|s| (s.t, &s.running)));
    [
        ("events_processed", a.events_processed == b.events_processed),
        ("submitted", a.submitted == b.submitted),
        ("succeeded", a.succeeded == b.succeeded),
        ("failed", a.failed == b.failed),
        ("timeouts", a.timeouts == b.timeouts),
        ("core_seconds", a.core_seconds == b.core_seconds),
        ("shapes_costed", a.shapes_costed == b.shapes_costed),
        ("samples", same_samples),
    ]
    .into_iter()
    .filter_map(|(field, same)| (!same).then_some(field))
    .collect()
}

fn main() {
    let flags = week_sweep_flags();
    let cfg = config_for(&flags);
    let cores = hardware_threads();
    eprintln!(
        "# week_sweep: {} shard(s), {} day(s), cross fraction {}, {} driver, {cores} hw thread(s)",
        cfg.shards,
        flags.days,
        cfg.cross_fraction,
        if cfg.parallel {
            "parallel"
        } else {
            "single-thread"
        },
    );

    let result = run_shard_sweep(&cfg);
    print_result(
        if cfg.parallel {
            "week_sweep_parallel"
        } else {
            "week_sweep_sequential"
        },
        &result,
    );

    if flags.baseline && cfg.parallel {
        let mut baseline_cfg = cfg.clone();
        baseline_cfg.parallel = false;
        let baseline = run_shard_sweep(&baseline_cfg);
        print_result("week_sweep_baseline", &baseline);
        let diverged = diverged(&baseline.merged, &result.merged);
        if !diverged.is_empty() {
            eprintln!(
                "FAIL: the parallel driver and the single-thread baseline disagree on {}",
                diverged.join(", ")
            );
            std::process::exit(1);
        }
        println!(
            "\nspeedup\t{:.2}x\t({} hw threads)",
            baseline.wall.as_secs_f64() / result.wall.as_secs_f64().max(1e-9),
            cores
        );
    }
}
