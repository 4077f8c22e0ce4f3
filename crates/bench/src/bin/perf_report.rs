//! In-run performance gates.
//!
//! The repo benchmark (`benchmark/`) measures every workload end to end and
//! layer by layer.  This binary holds only what it cannot express: timing
//! *ratios* taken inside one run, so they hold on any machine, and the
//! deterministic gates that need the release build the ratios already pay
//! for.  Every gate **exits non-zero** when violated:
//!
//! 1. **EP move vs replay** — one evaluator pass over EP@256 (the tree-only
//!    kernel, where the pass does as many clock updates as the replay and
//!    wins on the memoized integer transfer costs alone) must be at least
//!    [`PLACEMENT_DELTA_SPEEDUP_MIN`]× cheaper than a full `ModelComm`
//!    replay of the same schedule.
//! 2. **IS move vs replay** — the ring-dominated IS schedule at 128 ranks:
//!    a move must be at least [`IS_SEARCH_DELTA_SPEEDUP_MIN`]× cheaper than
//!    a full replay; the ring caches must stay under
//!    [`IS_SEARCH_RING_CACHE_BYTES_MAX`] (O(ranks·sites) tables); and IS's
//!    uniform sample alltoall must stay on the move-invariant site×site
//!    `Uniform` table form, saving at least
//!    [`IS_SEARCH_UNIFORM_SAVINGS_MIN`]× over the per-rank `PerSrc` layout.
//! 3. **Searched day** — the day sweep's `searched` booking strategy
//!    (`StrategyKind::Searched` through `SweepCore`) on the compressed day:
//!    its mean job makespan must beat the best fixed strategy by at least
//!    [`ONLINE_DAY_IMPROVEMENT_MIN`].  The day's prepare and anneal walls
//!    are printed as diagnostics.
//! 4. **Shard lanes** — the sharded week-shape driver
//!    (`p2pmpi_bench::shard`, what `day --shards` runs) over
//!    [`SUSTAINED_SHARDS`] site-aligned shards, parallel versus the
//!    bit-identical single-thread driver in [`SUSTAINED_PAIRS`] alternating
//!    pairs: with two or more hardware threads the parallel driver must
//!    reach [`SUSTAINED_MIN_SPEEDUP`] of `parallel = false`; with one the
//!    two are the same code on the same thread.
//!
//! Usage: `cargo run --release -p p2pmpi-bench --bin perf_report` (no
//! arguments; it prints to stderr and writes no file).

use p2pmpi_bench::experiments::{synthetic_placement, Fig4Kernel, Fig4Settings};
use p2pmpi_bench::par::hardware_threads;
use p2pmpi_bench::search::{kernel_schedule, placement_rank_hosts};
use p2pmpi_bench::shard::{run_shard_sweep, ShardSweepConfig};
use p2pmpi_bench::workload::{run_day_sweep, DayProfile, DaySweepConfig, DaySweepResult};
use p2pmpi_core::prelude::*;
use p2pmpi_grid5000::capacity::host_capacities;
use p2pmpi_grid5000::sites::scaled_table1;
use p2pmpi_grid5000::testbed::topology_from_specs;
use p2pmpi_mpi::model::{Move, PlacementCost};
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::rngutil::seeded;
use p2pmpi_simgrid::topology::HostId;
use rand::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn ns_per_iter(total_ns: u128, iters: usize) -> f64 {
    total_ns as f64 / iters.max(1) as f64
}

// ---------------------------------------------------------------------------
// sustained_throughput
// ---------------------------------------------------------------------------

/// Shard count of the sustained-throughput section — the Table-1 sites
/// partitioned four ways, the `day --shards 4` configuration.
const SUSTAINED_SHARDS: usize = 4;

/// Alternating parallel / single-thread pairs the section takes its median
/// walls from.
const SUSTAINED_PAIRS: usize = 5;

/// What "the lanes must not lose to one thread" tolerates.  A sweep this
/// short (~40 ms) can finish before the host scheduler has moved the
/// freshly spawned lane off the caller's core; the lanes then take turns on
/// that core and the handoffs cost 1–12% (0.88–0.99× measured on a 2-vCPU
/// VM, 1.25–1.3× once the lanes sit apart).  A structural loss — a thread
/// spawn or a park per phase — reads 0.1–0.7×.
const SUSTAINED_MIN_SPEEDUP: f64 = 0.85;

/// The sharded week-shape trace the sustained section replays: the paper
/// day tiled across seven days, compressed 168× so the week's shape fits
/// one virtual hour, at 2.5% of the paper's arrival rates (~3.8k jobs) —
/// the shape of CI's `day --shards 4 --days 7 --strategy spread --compress
/// 168 --rate-scale 0.02 --baseline` smoke, except that the rate is 2.5%,
/// not 2%: a sweep must keep the ~40 ms
/// length that [`SUSTAINED_MIN_SPEEDUP`] was calibrated on (a ~28 ms sweep
/// at 2% read 0.78–0.84× when its lanes shared one core).
fn sustained_config() -> ShardSweepConfig {
    let mut base = DaySweepConfig::new(StrategyKind::Spread);
    base.profile = DayProfile::paper_day().repeated(7);
    base = base.compress(168.0);
    base.profile = base.profile.scaled(0.025);
    ShardSweepConfig::new(base, SUSTAINED_SHARDS)
}

/// Everything the sustained-throughput section records.
struct SustainedSection {
    jobs: usize,
    events: u64,
    barriers: usize,
    parallel_wall_ms: f64,
    single_thread_wall_ms: f64,
    events_per_sec: f64,
    speedup: f64,
    shards: usize,
    hw_threads: usize,
}

/// The week-shape sharded sweep in [`SUSTAINED_PAIRS`] alternating pairs
/// (parallel first in one, single-thread first in the next, so a drifting
/// machine favours neither), each side reported at its median wall; every
/// pair asserts the two drivers' merged fingerprints are equal (the same
/// contract `tests/shard_sweep.rs` pins at reduced scale).
fn measure_sustained() -> SustainedSection {
    let cfg = sustained_config();
    let mut seq_cfg = cfg.clone();
    seq_cfg.parallel = false;
    let mut par_walls = Vec::with_capacity(SUSTAINED_PAIRS);
    let mut seq_walls = Vec::with_capacity(SUSTAINED_PAIRS);
    let mut last = None;
    for pair in 0..SUSTAINED_PAIRS {
        let (par, seq) = if pair % 2 == 0 {
            let par = run_shard_sweep(&cfg);
            (par, run_shard_sweep(&seq_cfg))
        } else {
            let seq = run_shard_sweep(&seq_cfg);
            (run_shard_sweep(&cfg), seq)
        };
        assert_eq!(
            par.merged
                .fingerprint()
                .first_divergence(&seq.merged.fingerprint()),
            None,
            "the parallel and single-thread drivers diverged"
        );
        par_walls.push(par.wall.as_secs_f64() * 1e3);
        seq_walls.push(seq.wall.as_secs_f64() * 1e3);
        last = Some(par);
    }
    let median = |walls: &mut Vec<f64>| {
        walls.sort_by(f64::total_cmp);
        walls[walls.len() / 2]
    };
    let par_wall = median(&mut par_walls);
    let seq_wall = median(&mut seq_walls);
    let par = last.expect("at least one pair ran");
    SustainedSection {
        jobs: par.merged.submitted,
        events: par.merged.events_processed,
        barriers: par.barriers,
        parallel_wall_ms: par_wall,
        single_thread_wall_ms: seq_wall,
        events_per_sec: par.merged.events_processed as f64 / (par_wall / 1e3).max(1e-9),
        speedup: seq_wall / par_wall.max(1e-9),
        shards: par.per_shard.len(),
        hw_threads: hardware_threads(),
    }
}

/// The lanes must not lose to one thread (past [`SUSTAINED_MIN_SPEEDUP`])
/// on a machine that has a second hardware thread to give them; on one
/// hardware thread the parallel driver *is* the single-thread driver and
/// there is nothing to judge.  Returns true if the gate failed.
fn check_sustained_gate(s: &SustainedSection) -> bool {
    let failed = s.hw_threads >= 2 && s.speedup < SUSTAINED_MIN_SPEEDUP;
    if failed {
        eprintln!(
            "FAIL: on {} hardware threads the {}-shard parallel driver ran at {:.2}x of \
             `parallel = false` (median of {SUSTAINED_PAIRS} alternating pairs); the lanes \
             must not lose to one thread (floor {SUSTAINED_MIN_SPEEDUP}x)",
            s.hw_threads, s.shards, s.speedup
        );
    }
    failed
}

// ---------------------------------------------------------------------------
// move vs replay
// ---------------------------------------------------------------------------

/// Required per-move speedup of the evaluator over a full `ModelComm`
/// replay at EP@256.  A move is one full pass: on a tree-only schedule it
/// does the same 1 276 clock updates as the replay, minus the float
/// transfer math (memoized integer costs) and the stats accounting —
/// measured 4.1–4.6× (7.1 µs against 32.8 µs), so the floor sits under
/// what one pass can deliver on a tree-only schedule.
const PLACEMENT_DELTA_SPEEDUP_MIN: f64 = 3.0;

/// Required per-move speedup of the evaluator over a full `ModelComm`
/// replay on the *ring-dominated* IS schedule.  A move runs the O(ranks²)
/// wavefront of the two rings of the first iteration, then the second
/// iteration's allreduce finds the ranks in lockstep and the pass
/// fast-forwards the rest, over pooled integer transfer tables where the
/// replay pays a per-receive float `transfer_time` + stats accounting
/// (observed 97–151× at IS@128, far above the 5× floor; the ratio is a
/// constant-factor property of the wavefront, so it holds at any rank
/// count).
const IS_SEARCH_DELTA_SPEEDUP_MIN: f64 = 5.0;

/// Ceiling on [`PlacementCost::ring_cache_bytes`]: the pooled tables are
/// O(ranks · sites).
const IS_SEARCH_RING_CACHE_BYTES_MAX: usize = 1 << 20;

/// Floor on the compression of the move-invariant `Uniform` site×site ring
/// tables versus the per-rank `PerSrc` layout they would otherwise occupy
/// (a `tsame` entry plus a site row per rank).  IS's sample alltoall is
/// uniform, so at least one pooled table must hold the form — losing it
/// (or its compression) regresses both the bytes and the rows a
/// site-changing move re-derives.
const IS_SEARCH_UNIFORM_SAVINGS_MIN: f64 = 8.0;

/// One move-vs-replay measurement, with the evaluator's ring-cache byte
/// accounting: the total it holds plus the `Uniform` specialisation's share
/// and the `PerSrc` bytes those tables would otherwise occupy.
struct MoveVsReplay {
    kernel: Fig4Kernel,
    ranks: u32,
    move_ns: f64,
    replay_ns: f64,
    speedup: f64,
    ring_cache_bytes: usize,
    uniform_tables: usize,
    uniform_bytes: usize,
    uniform_per_src_bytes: usize,
}

/// Times a move (apply + commit of a random move mix) against a
/// full `ModelComm` replay of the same schedule at `ranks` ranks of
/// `kernel`.
fn measure_move_vs_replay(
    kernel: Fig4Kernel,
    ranks: u32,
    moves: usize,
    replays: usize,
) -> MoveVsReplay {
    eprintln!("measuring a placement-search move vs a full replay ({kernel:?}@{ranks})...");
    let topology = topology_from_specs(&scaled_table1(
        p2pmpi_grid5000::sites::scale_factor_for_cores(ranks as usize),
    ));
    let settings = Fig4Settings::default().modeled();
    let schedule = Arc::new(kernel_schedule(kernel, &settings, ranks));
    let hosts = placement_rank_hosts(&synthetic_placement(&topology, StrategyKind::Spread, ranks));
    let mut cost = PlacementCost::new(
        schedule,
        hosts,
        host_capacities(&topology),
        NetworkModel::new(topology.clone()),
        ComputeModel::new(topology.clone()),
    );
    let mut rng = seeded(0x5EA7);
    let host_count = topology.host_count();
    let mix: Vec<Move> = (0..moves)
        .map(|_| {
            if rng.gen_range(0u32..2) == 0 {
                Move::Swap {
                    a: rng.gen_range(0..ranks),
                    b: rng.gen_range(0..ranks),
                }
            } else {
                Move::Migrate {
                    rank: rng.gen_range(0..ranks),
                    to: HostId(rng.gen_range(0..host_count)),
                }
            }
        })
        .collect();
    // Warm the transfer memo and branch predictors.
    for mv in mix.iter().take(moves / 10) {
        if cost.apply(*mv).is_ok() {
            cost.undo();
        }
    }
    let mut applied = 0usize;
    let start = Instant::now();
    for mv in &mix {
        if cost.apply(*mv).is_ok() {
            applied += 1;
            cost.commit();
        }
    }
    let move_ns = ns_per_iter(start.elapsed().as_nanos(), applied);
    let start = Instant::now();
    for _ in 0..replays {
        black_box(cost.oracle_cost());
    }
    let replay_ns = ns_per_iter(start.elapsed().as_nanos(), replays);
    let (uniform_tables, uniform_bytes, uniform_per_src_bytes) = cost.uniform_ring_summary();
    MoveVsReplay {
        kernel,
        ranks,
        move_ns,
        replay_ns,
        speedup: replay_ns / move_ns.max(1.0),
        ring_cache_bytes: cost.ring_cache_bytes(),
        uniform_tables,
        uniform_bytes,
        uniform_per_src_bytes,
    }
}

/// A move must be at least `min`× cheaper than a full replay; returns true
/// if it was not.
fn check_move_speedup(m: &MoveVsReplay, min: f64) -> bool {
    let failed = m.speedup < min;
    if failed {
        eprintln!(
            "FAIL: a {:?}@{} move ({:.0} ns) is only {:.1}x cheaper than a full replay \
             ({:.0} ns) — the gate requires {min}x",
            m.kernel, m.ranks, m.move_ns, m.speedup, m.replay_ns
        );
    }
    failed
}

/// The ring-table gates of the IS measurement; returns true if any failed.
fn check_ring_gates(s: &MoveVsReplay) -> bool {
    let mut drifted = false;
    if s.ring_cache_bytes > IS_SEARCH_RING_CACHE_BYTES_MAX {
        eprintln!(
            "FAIL: the evaluator's ring caches hold {} bytes at IS@{}; the ceiling is {} \
             (the compact-table contract of p2pmpi_mpi::model)",
            s.ring_cache_bytes, s.ranks, IS_SEARCH_RING_CACHE_BYTES_MAX
        );
        drifted = true;
    }
    if s.uniform_tables == 0
        || (s.uniform_per_src_bytes as f64) < IS_SEARCH_UNIFORM_SAVINGS_MIN * s.uniform_bytes as f64
    {
        eprintln!(
            "FAIL: IS@{} holds {} Uniform ring tables at {} bytes (PerSrc equivalent {} bytes); \
             the move-invariant site x site specialisation must exist and save at least \
             {IS_SEARCH_UNIFORM_SAVINGS_MIN}x",
            s.ranks, s.uniform_tables, s.uniform_bytes, s.uniform_per_src_bytes
        );
        drifted = true;
    }
    drifted
}

// ---------------------------------------------------------------------------
// online_placement
// ---------------------------------------------------------------------------

/// Required improvement of the searched day's mean job makespan over the
/// best fixed strategy (concentrate or spread) on the compressed day.
const ONLINE_DAY_IMPROVEMENT_MIN: f64 = 0.05;

/// Everything the online-placement section measures.
struct OnlinePlacementSection {
    concentrate: DaySweepResult,
    spread: DaySweepResult,
    searched: DaySweepResult,
    improvement: f64,
}

/// The day every strategy replays for the online comparison: the paper-day
/// shape compressed 24× at 5% of the arrival rates (~1.1k jobs) — the same
/// shape `day --strategy searched --compress 24 --rate-scale 0.05` smokes.
fn online_day_config(strategy: StrategyKind) -> DaySweepConfig {
    let mut cfg = DaySweepConfig::new(strategy).compress(24.0);
    cfg.profile = cfg.profile.scaled(0.05);
    cfg
}

fn measure_online_placement() -> OnlinePlacementSection {
    eprintln!(
        "measuring the searched day vs the fixed strategies (compress 24, rate scale 0.05)..."
    );
    let concentrate = run_day_sweep(&online_day_config(StrategyKind::Concentrate));
    let spread = run_day_sweep(&online_day_config(StrategyKind::Spread));
    let searched = run_day_sweep(&online_day_config(StrategyKind::Searched));
    let best_fixed = concentrate.mean_hold_secs.min(spread.mean_hold_secs);
    let improvement = 1.0 - searched.mean_hold_secs / best_fixed.max(1e-9);
    OnlinePlacementSection {
        concentrate,
        spread,
        searched,
        improvement,
    }
}

/// The online-placement gate; returns true if it failed.
fn check_online_placement_gate(o: &OnlinePlacementSection) -> bool {
    let failed = o.improvement < ONLINE_DAY_IMPROVEMENT_MIN;
    if failed {
        eprintln!(
            "FAIL: the searched day's mean job makespan ({:.2}s) is only {:.1}% better than the \
             best fixed strategy (concentrate {:.2}s, spread {:.2}s); the gate requires {:.0}%",
            o.searched.mean_hold_secs,
            o.improvement * 100.0,
            o.concentrate.mean_hold_secs,
            o.spread.mean_hold_secs,
            ONLINE_DAY_IMPROVEMENT_MIN * 100.0
        );
    }
    failed
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: perf_report (takes no arguments)");
        std::process::exit(2);
    }

    let ep = measure_move_vs_replay(Fig4Kernel::Ep, 256, 600, 60);
    eprintln!(
        "ep_move: move {:.0} ns vs replay {:.0} ns ({:.1}x)",
        ep.move_ns, ep.replay_ns, ep.speedup
    );
    let is = measure_move_vs_replay(Fig4Kernel::Is, 128, 60, 20);
    eprintln!(
        "is_move: move {:.0} ns vs replay {:.0} ns ({:.1}x), ring caches {} bytes \
         ({} Uniform tables: {} bytes vs {} PerSrc-equivalent)",
        is.move_ns,
        is.replay_ns,
        is.speedup,
        is.ring_cache_bytes,
        is.uniform_tables,
        is.uniform_bytes,
        is.uniform_per_src_bytes
    );
    let op = measure_online_placement();
    let op_stats = op
        .searched
        .search
        .expect("the searched day records its stats");
    eprintln!(
        "online_placement: searched day mean hold {:.2}s vs concentrate {:.2}s / \
         spread {:.2}s ({:+.1}%), {} arrivals searched, prepare {:.1} ms + anneal {:.1} ms wall",
        op.searched.mean_hold_secs,
        op.concentrate.mean_hold_secs,
        op.spread.mean_hold_secs,
        op.improvement * 100.0,
        op_stats.searched,
        op_stats.prepare_nanos as f64 / 1e6,
        op_stats.anneal_nanos as f64 / 1e6
    );
    eprintln!(
        "measuring sustained sharded throughput (week shape, {SUSTAINED_SHARDS} shards, parallel vs single-thread, median of {SUSTAINED_PAIRS} alternating pairs)..."
    );
    let sus = measure_sustained();
    eprintln!(
        "sustained_throughput ({} jobs, {} events, {} barriers): parallel {:.1} ms, \
         single-thread {:.1} ms, {:.0} events/s, speedup {:.2}x on {} hw thread(s)",
        sus.jobs,
        sus.events,
        sus.barriers,
        sus.parallel_wall_ms,
        sus.single_thread_wall_ms,
        sus.events_per_sec,
        sus.speedup,
        sus.hw_threads
    );
    let drifted = check_move_speedup(&ep, PLACEMENT_DELTA_SPEEDUP_MIN)
        | check_move_speedup(&is, IS_SEARCH_DELTA_SPEEDUP_MIN)
        | check_ring_gates(&is)
        | check_online_placement_gate(&op)
        | check_sustained_gate(&sus);
    if drifted {
        std::process::exit(1);
    }
    eprintln!(
        "perf_report: all move-vs-replay, ring-table, searched-day and shard-lane gates passed"
    );
}
