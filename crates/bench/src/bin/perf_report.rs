//! Hot-path performance report.
//!
//! Measures the co-allocation hot path on the warm Grid'5000 testbed and
//! writes `BENCH_hotpath.json` so successive PRs accumulate a perf
//! trajectory.  Ten measurements:
//!
//! 1. **ranking** — walking the booking order of a warm 349-peer cache via
//!    the incremental index versus the seed's naive sort-per-read.
//! 2. **allocate_warm** — full job submissions (book → broker → distribute →
//!    start → complete) with tracing off and on, compared against the seed
//!    tree's measured cost for the identical workload.
//! 3. **job_sweep_poisson** — throughput of a Poisson-arriving sweep, the
//!    workload the Figure 2–4 reproductions submit at scale; best of 3
//!    rounds, with the machine's hardware-thread count recorded alongside
//!    (the same discipline as `sustained_throughput`) so trajectory points
//!    from different machines are distinguishable.
//! 4. **modeled_collectives** — agreement between the executed thread-per-
//!    rank runtime and the LogGP analytical backend on the same placements
//!    (EP must match to [`EP_DIVERGENCE_TOLERANCE`], IS — whose alltoallv
//!    block sizes the model approximates as balanced — to
//!    [`IS_DIVERGENCE_TOLERANCE`]; the report **exits non-zero** if either
//!    bound is violated), plus modeled-sweep throughput at 1k–2k ranks.
//! 5. **churn_day** — the dead-peer day as the benchmark ships it
//!    ([`DaySweepConfig::dead_peer_day`] under concentrate, compressed 12×;
//!    24× at a quarter of the arrival rate under `--test`): flapping peers
//!    keep getting re-booked while dead, so thousands of reservation
//!    timeouts fire on the timeline.  The report **exits non-zero** unless
//!    the brokering scratch and the event store reached an allocation-free
//!    steady state (`DaySweepResult::steady_state_alloc_free`).  A gate
//!    only: its numbers go to stderr, not to the JSON report.
//! 6. **placement_search** — the model-driven placement search
//!    (`p2pmpi_bench::search` over `p2pmpi_mpi::model::PlacementCost`).
//!    Four gates, all **exit non-zero** when violated: (a) a move (one
//!    full evaluator pass) must be at least
//!    [`PLACEMENT_DELTA_SPEEDUP_MIN`]× cheaper than a full `ModelComm`
//!    replay at 256 ranks of EP — the tree-only kernel, where the pass does
//!    as many clock updates as the replay and wins on the memoized integer
//!    transfer costs alone; (b) on every standard
//!    scaled-Table-1 grid case the searched placement must be **no worse**
//!    than best-of(concentrate, spread); (c) on the heterogeneity-skewed
//!    `skewed_table1` grid it must be more than
//!    [`PLACEMENT_SKEWED_IMPROVEMENT_MIN`] better; (d) the full-scale
//!    1024-rank, 10k-move, 4-chain EP search must finish within
//!    [`PLACEMENT_SEARCH_WALL_BUDGET_S`] seconds of wall time (full runs
//!    only; `--test` runs (a)–(c) at reduced scale).
//! 7. **is_search** — the ring-dominated IS schedule at 1024 ranks through
//!    the same evaluator: a move must be at least
//!    [`IS_SEARCH_DELTA_SPEEDUP_MIN`]× cheaper than a full replay (the
//!    pooled integer transfer tables versus per-receive float costing, and
//!    eight of the ten iterations fast-forwarded),
//!    the ring caches must stay under [`IS_SEARCH_RING_CACHE_BYTES_MAX`]
//!    (O(ranks·sites) tables),
//!    the searched placement must not lose to best-of(concentrate,
//!    spread), and the at-scale search must finish within
//!    [`IS_SEARCH_WALL_BUDGET_S`] (full runs; `--test` runs the relative
//!    gates at IS@128).  The section also pins the `Uniform` ring
//!    specialisation: IS's uniform sample alltoall must stay on the
//!    move-invariant site×site table form and save at least
//!    [`IS_SEARCH_UNIFORM_SAVINGS_MIN`]× over the per-rank `PerSrc`
//!    layout it would otherwise occupy.  All **exit non-zero** when
//!    violated.
//! 8. **scenario_matrix** — the fault-injection scenario matrix
//!    (`p2pmpi_bench::scenario`) at the CI scale (compress 24, rate scale
//!    0.05): every scenario's graceful-degradation verdict must pass —
//!    zero leaked grants on the standard day, utilisation recovery after a
//!    correlated site outage, stale-view brokering through a supernode
//!    crash, eager reclamation under grant-leak stress — or the report
//!    **exits non-zero**.
//! 9. **sustained_throughput** — the sharded week-scale driver
//!    (`p2pmpi_bench::shard`, the `week_sweep` binary): the paper day
//!    tiled across seven days and replayed over [`SUSTAINED_SHARDS`]
//!    site-aligned shard timelines, parallel versus the bit-identical
//!    single-thread driver, in alternating pairs.  Records the median
//!    walls, sustained events/s, jobs/s, the wall-clock speedup, the
//!    machine's hardware-thread count and a `verdict`.  The driver runs
//!    on one lane per hardware thread (at most one per shard), so the one
//!    gate is relative and holds on any machine: with two or more
//!    hardware threads the parallel driver must reach
//!    [`SUSTAINED_MIN_SPEEDUP`] of `parallel = false` (`pass` / `fail`);
//!    with one the two are the same code on the same thread.
//!    Full runs additionally compare sustained events/s against the
//!    `previous` trajectory block of the existing report and **exit
//!    non-zero** on a drop of more than [`SUSTAINED_DROP_LIMIT`].
//! 10. **online_placement** — the day sweep's `searched` booking strategy
//!     (`StrategyKind::Searched` through `SweepCore`): every arrival
//!     re-runs the annealing search over the grid's current free cores on
//!     a fresh `PlacementCost` + Fenwick free-slot index, seeded from its
//!     kernel shape's previous plan
//!     (`p2pmpi_bench::search::SearchContext`).  One relative gate, **exit
//!     non-zero**: the searched compressed day's mean job makespan must
//!     beat the best fixed strategy by at least
//!     [`ONLINE_DAY_IMPROVEMENT_MIN`].  The day's prepare and anneal walls
//!     are reported as diagnostics.  Full runs additionally hold the
//!     searched day inside [`ONLINE_DAY_WALL_BUDGET_S`] of wall time.
//!
//! Usage:
//! `cargo run --release -p p2pmpi-bench --bin perf_report [out.json] [--seed-allocate-ns N] [--test]`
//!
//! `--test` runs only the churn day (5), the placement-search, is-search
//! and online-placement sections (6–7, 10) at reduced scale, the scenario
//! matrix (8) and the sustained sharded-throughput section (9) at its
//! CI-smoke scale, with the same *relative* gates (allocation-free steady
//! state, move-vs-replay speedups, ring cache ceiling and Uniform savings,
//! search quality, the searched-day improvement, every scenario verdict,
//! the shard lanes not losing to one thread) — the CI smoke.
//! Machine-absolute gates (the search wall budgets, the
//! sustained-trajectory drop limit) only apply to the full run, and
//! `--test` never writes the JSON report.
//!
//! Each JSON section carries a `"previous"` block holding the prior
//! report's headline numbers for that section (string-scanned from the
//! existing out file — the workspace deliberately vendors no JSON parser —
//! or `null` on the first run), so the committed report is a perf
//! *trajectory*, not just a snapshot.
//!
//! The seed baseline defaults to the median of five runs of the seed tree
//! (commit `fa2eb37`, rebuilt with this workspace's manifests and vendored
//! deps, same machine) driving the identical warm 100-process concentrate
//! workload.  To re-measure it: check out the seed commit in a worktree,
//! copy in `Cargo.toml`, `crates/*/Cargo.toml` and `vendor/`, add a driver
//! that loops `CoAllocator::allocate` on `grid5000_topology()` with a
//! disabled tracer, and pass its ns/job via `--seed-allocate-ns`.

use p2pmpi_bench::experiments::{
    modeled_kernel_times, run_kernel_once, synthetic_placement, Fig4Kernel, Fig4Settings,
};
use p2pmpi_bench::scenario::{run_matrix, ScenarioParams, ScenarioVerdict, ALL_SCENARIOS};
use p2pmpi_bench::search::{
    kernel_schedule, placement_rank_hosts, search_placement, SearchParams, SearchReport,
};
use p2pmpi_bench::shard::{run_shard_sweep, ShardSweepConfig};
use p2pmpi_bench::workload::{
    run_day_sweep, DayProfile, DaySweepConfig, DaySweepResult, PoissonArrivals,
};
use p2pmpi_core::prelude::*;
use p2pmpi_grid5000::capacity::host_capacities;
use p2pmpi_grid5000::sites::{scaled_table1, skewed_table1};
use p2pmpi_grid5000::testbed::{grid5000_testbed, topology_from_specs, Grid5000Testbed};
use p2pmpi_mpi::model::{Move, PlacementCost};
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::rngutil::seeded;
use p2pmpi_simgrid::topology::HostId;
use rand::Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const RANKING_REPS: usize = 2_000;
const ALLOC_JOBS: usize = 400;
const SWEEP_JOBS: usize = 1_000;

/// Median warm-allocate cost of the seed tree (ns/job, tracing disabled) for
/// the same workload; see the module docs for how to re-measure.
const SEED_ALLOCATE_NS_PER_JOB: f64 = 65_556.0;

/// Maximum relative |modeled − executed| / executed divergence tolerated for
/// EP.  EP's communication is data-independent, so the model replays the
/// executed clock arithmetic exactly; anything above float-noise level means
/// the model's schedule has drifted from `Comm`'s.
const EP_DIVERGENCE_TOLERANCE: f64 = 1e-9;
/// Tolerance for IS, whose alltoallv key-redistribution volumes the model
/// approximates as perfectly balanced (see `p2pmpi_nas::is::is_model`).  The
/// documented bound is 10%, deliberately loose; the divergence observed at
/// this report's IS@32 / divisor-64 point is ~3e-5 (0.003%), because the
/// hump-shaped key distribution redistributes almost uniformly.
const IS_DIVERGENCE_TOLERANCE: f64 = 0.10;

fn ns_per_iter(total_ns: u128, iters: usize) -> f64 {
    total_ns as f64 / iters.max(1) as f64
}

/// One full job submission, completed immediately so the next job finds the
/// gatekeepers free.  Returns the number of booked hosts.
fn submit_one(tb: &mut Grid5000Testbed, allocator: &CoAllocator, request: &JobRequest) -> usize {
    let report = allocator.allocate(&mut tb.overlay, tb.submitter, request);
    if let Ok(alloc) = &report.outcome {
        for h in &alloc.hosts {
            tb.overlay.complete_job(h.peer, report.key);
        }
    }
    report.booked
}

fn measure_ranking(tb: &Grid5000Testbed) -> (f64, f64) {
    let cache = &tb.overlay.node(tb.submitter).cache;

    let start = Instant::now();
    for _ in 0..RANKING_REPS {
        // The seed's booking order: collect every entry, sort, materialize.
        black_box(cache.sorted_by_latency_naive().len());
    }
    let naive_ns = ns_per_iter(start.elapsed().as_nanos(), RANKING_REPS);

    let start = Instant::now();
    for _ in 0..RANKING_REPS {
        // The incremental index: walk, no sort, no allocation.
        black_box(cache.ranking_iter().fold(0usize, |acc, p| acc + p.0));
    }
    let incremental_ns = ns_per_iter(start.elapsed().as_nanos(), RANKING_REPS);

    (naive_ns, incremental_ns)
}

/// Returns (tracing-off ns/job, tracing-on ns/job).
fn measure_allocate(tb: &mut Grid5000Testbed) -> (f64, f64) {
    let allocator = CoAllocator::new();
    let request = JobRequest::new(100, StrategyKind::Concentrate, "hostname");

    // Warm up scratch buffers and caches.
    for _ in 0..10 {
        submit_one(tb, &allocator, &request);
    }

    tb.overlay.tracer().set_enabled(false);
    let start = Instant::now();
    for _ in 0..ALLOC_JOBS {
        submit_one(tb, &allocator, &request);
    }
    let off_ns = ns_per_iter(start.elapsed().as_nanos(), ALLOC_JOBS);

    tb.overlay.tracer().set_enabled(true);
    let start = Instant::now();
    for _ in 0..ALLOC_JOBS {
        submit_one(tb, &allocator, &request);
    }
    let on_ns = ns_per_iter(start.elapsed().as_nanos(), ALLOC_JOBS);
    tb.overlay.tracer().clear();
    tb.overlay.tracer().set_enabled(false);

    (off_ns, on_ns)
}

/// The machine's hardware-thread count, recorded next to every best-of
/// wall-clock trajectory number so points from different machines stay
/// distinguishable.
fn hw_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Best-of-`rounds` Poisson sweep: each round continues the same arrival
/// process on the shared warm testbed, so the rounds measure identical
/// steady-state work and the minimum wall time strips scheduler noise.
fn measure_sweep(tb: &mut Grid5000Testbed, rounds: usize) -> (f64, f64) {
    let allocator = CoAllocator::new();
    let request = JobRequest::new(100, StrategyKind::Concentrate, "hostname");
    let mut arrivals = PoissonArrivals::new(1.0 / 30.0, 23);
    tb.overlay.tracer().set_enabled(false);
    let mut best_wall = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..SWEEP_JOBS {
            let gap = arrivals.next_gap();
            tb.overlay.advance(gap);
            submit_one(tb, &allocator, &request);
        }
        best_wall = best_wall.min(start.elapsed().as_secs_f64());
    }
    (best_wall * 1e3, SWEEP_JOBS as f64 / best_wall)
}

/// Executed-vs-modeled makespans of one Figure 4 point on the same
/// co-allocated placement; returns (executed_s, modeled_s, divergence).
fn measure_agreement(kernel: Fig4Kernel, n: u32, settings: &Fig4Settings) -> (f64, f64, f64) {
    let strategy = StrategyKind::Concentrate;
    let executed = run_kernel_once(kernel, strategy, n, settings);
    let modeled = run_kernel_once(kernel, strategy, n, &settings.modeled());
    assert!(
        executed.verified,
        "{kernel:?} executed run failed to verify"
    );
    let e = executed.makespan.as_secs_f64();
    let m = modeled.makespan.as_secs_f64();
    (e, m, (m - e).abs() / e)
}

/// Wall-clock of a modeled sweep point at `ranks`; returns (virtual_s, wall_ms).
fn measure_modeled_sweep(kernel: Fig4Kernel, ranks: u32, settings: &Fig4Settings) -> (f64, f64) {
    let start = Instant::now();
    let points = modeled_kernel_times(kernel, StrategyKind::Spread, &[ranks], settings, None);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (points[0].makespan.as_secs_f64(), wall_ms)
}

/// The churn day as the benchmark ships it: [`DaySweepConfig::dead_peer_day`]
/// under concentrate compressed 12× (the `day_churn` workload), or 24× at a
/// quarter of the arrival rate for `--test`.
fn churn_day_config(test_mode: bool) -> DaySweepConfig {
    let cfg = DaySweepConfig::dead_peer_day(StrategyKind::Concentrate);
    if test_mode {
        let mut cfg = cfg.compress(24.0);
        cfg.profile = cfg.profile.scaled(0.25);
        cfg
    } else {
        cfg.compress(12.0)
    }
}

/// Runs the churn day once and prints its headline numbers.
fn measure_churn_day(test_mode: bool) -> DaySweepResult {
    eprintln!("measuring the churn day (dead-peer flapping, compressed)...");
    let start = Instant::now();
    let result = run_day_sweep(&churn_day_config(test_mode));
    eprintln!(
        "churn_day ({} jobs, {} reservation timeouts, {} events): {:.1} ms",
        result.submitted,
        result.timeouts,
        result.events_processed,
        start.elapsed().as_secs_f64() * 1e3
    );
    result
}

/// The churn-day gate shared by full and `--test` runs: brokering under
/// timeout churn must reach an allocation-free steady state.  Returns true
/// if it did not (the caller exits non-zero).
fn check_churn_day_gate(result: &DaySweepResult) -> bool {
    let drifted = !result.steady_state_alloc_free();
    if drifted {
        eprintln!(
            "FAIL: churn-day brokering re-allocated past the mid-trace high-water mark \
             (events {} -> {}, scratch {} -> {})",
            result.events_capacity_mid,
            result.events_capacity_end,
            result.rs_scratch_capacity_mid,
            result.rs_scratch_capacity_end
        );
    }
    drifted
}

// ---------------------------------------------------------------------------
// scenario_matrix
// ---------------------------------------------------------------------------

/// Runs the fault-injection scenario matrix at the CI scale (the same
/// configuration `scenario_runner --all --compress 24` replays) and returns
/// every verdict with the wall time of the whole matrix.
fn measure_scenario_matrix() -> (Vec<ScenarioVerdict>, f64) {
    eprintln!(
        "running the fault-injection scenario matrix ({} scenarios, compress 24)...",
        ALL_SCENARIOS.len()
    );
    let params = ScenarioParams {
        compress: 24.0,
        ..ScenarioParams::default()
    };
    let start = Instant::now();
    let verdicts = run_matrix(&params);
    (verdicts, start.elapsed().as_secs_f64())
}

/// The graceful-degradation gates: every scenario verdict must pass.
/// Returns true if anything drifted.
fn check_scenario_gates(verdicts: &[ScenarioVerdict]) -> bool {
    let mut drifted = false;
    for v in verdicts {
        if v.passed() {
            continue;
        }
        drifted = true;
        for check in v.checks.iter().filter(|c| !c.passed) {
            eprintln!(
                "FAIL: scenario {} failed its {} criterion: {}",
                v.scenario.name(),
                check.name,
                check.detail
            );
        }
    }
    drifted
}

/// Allowed relative growth of a scenario's recovery time between
/// consecutive reports before the trajectory gate fails.
const RECOVERY_REGRESSION_LIMIT: f64 = 0.20;

/// Absolute slack on the recovery trend (seconds).  Recovery is read off
/// the binned utilisation timeline, so at the CI scale it is quantized to
/// 12.5 s bins — without at least one bin of slack, a single-bin wobble on
/// a small recovery (25 s → 37.5 s) would trip the 20% gate.
const RECOVERY_TREND_EPSILON_S: f64 = 15.0;

/// The recovery-time trajectory gate: a scenario whose recovery time grew
/// more than [`RECOVERY_REGRESSION_LIMIT`] (plus one bin of slack) over
/// the previous report's fails loudly, even while it still meets its SLO —
/// quiet erosion toward the SLO is exactly what a trend gate is for.
/// Returns true if anything drifted.
fn check_recovery_trend(verdicts: &[ScenarioVerdict], prior: Option<&str>) -> bool {
    let Some(slice) = prior.and_then(|p| section_slice(p, "scenario_matrix")) else {
        return false;
    };
    let mut drifted = false;
    for v in verdicts {
        if v.scenario.recovery_slo_secs().is_none() {
            continue;
        }
        // A never-recovered run already fails its own recovery_observed
        // criterion; the trend gate only judges measured values.
        let Some(now) = v.recovery_secs else { continue };
        let key = format!("{}_recovery_s", v.scenario.name());
        let Some(prev) = scan_f64(slice, &key) else {
            continue;
        };
        let bound = prev * (1.0 + RECOVERY_REGRESSION_LIMIT) + RECOVERY_TREND_EPSILON_S;
        if now > bound {
            eprintln!(
                "FAIL: scenario {} recovery time {now:.1}s regressed past the trend bound \
                 {bound:.1}s (previous report {prev:.1}s + {:.0}% + {RECOVERY_TREND_EPSILON_S}s \
                 quantization slack)",
                v.scenario.name(),
                RECOVERY_REGRESSION_LIMIT * 100.0
            );
            drifted = true;
        }
    }
    drifted
}

// ---------------------------------------------------------------------------
// sustained_throughput
// ---------------------------------------------------------------------------

/// Shard count of the sustained-throughput section — the Table-1 sites
/// partitioned four ways, the `week_sweep --shards 4` configuration.
const SUSTAINED_SHARDS: usize = 4;

/// Alternating parallel / single-thread pairs the section takes its median
/// walls from.
const SUSTAINED_PAIRS: usize = 5;

/// What "the lanes must not lose to one thread" tolerates.  A sweep this
/// short (~40 ms at the smoke scale) can finish before the host scheduler
/// has moved the freshly spawned lane off the caller's core; the lanes then
/// take turns on that core and the handoffs cost 1–12% (0.88–0.99× measured
/// on a 2-vCPU VM, 1.25–1.3× once the lanes sit apart).  A structural loss
/// — a thread spawn or a park per phase — reads 0.1–0.7×.
const SUSTAINED_MIN_SPEEDUP: f64 = 0.85;

/// Allowed drop of sustained events/s between consecutive full reports on
/// the same machine; a larger drop fails the report outright.
const SUSTAINED_DROP_LIMIT: f64 = 0.15;

/// The sharded week-shape trace the sustained section replays: the paper
/// day tiled across seven days, compressed 168× so the week's shape fits
/// one virtual hour, at 2.5% (CI smoke, ~3.8k jobs) or 10% (full run,
/// ~15k jobs) of the paper's arrival rates — the configuration the
/// `week_sweep` binary documents as its smoke shape, except that the smoke
/// rate is 2.5%, not 2%: a sweep must keep the ~40 ms length that
/// [`SUSTAINED_MIN_SPEEDUP`] was calibrated on (a ~28 ms sweep at 2% read
/// 0.78–0.84× when its lanes shared one core).
fn sustained_config(test_mode: bool) -> ShardSweepConfig {
    let mut base = DaySweepConfig::new(StrategyKind::Spread);
    base.profile = DayProfile::paper_day().repeated(7);
    base = base.compress(168.0);
    base.profile = base.profile.scaled(if test_mode { 0.025 } else { 0.1 });
    ShardSweepConfig::new(base, SUSTAINED_SHARDS)
}

/// Everything the sustained-throughput section records.
struct SustainedSection {
    jobs: usize,
    events: u64,
    barriers: usize,
    cross_submitted: usize,
    cross_succeeded: usize,
    parallel_wall_ms: f64,
    single_thread_wall_ms: f64,
    events_per_sec: f64,
    jobs_per_sec: f64,
    speedup: f64,
    shards: usize,
    hw_threads: usize,
    rate_scale: f64,
}

/// The week-shape sharded sweep in [`SUSTAINED_PAIRS`] alternating pairs
/// (parallel first in one, single-thread first in the next, so a drifting
/// machine favours neither), each side reported at its median wall; every
/// pair asserts the two drivers stayed bit-identical (the same contract
/// `tests/shard_sweep.rs` pins at reduced scale).
fn measure_sustained(test_mode: bool) -> SustainedSection {
    let cfg = sustained_config(test_mode);
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
            par.merged.events_processed, seq.merged.events_processed,
            "the parallel and single-thread drivers diverged"
        );
        assert_eq!(
            par.merged.succeeded, seq.merged.succeeded,
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
        cross_submitted: par.cross_submitted,
        cross_succeeded: par.cross_succeeded,
        parallel_wall_ms: par_wall,
        single_thread_wall_ms: seq_wall,
        events_per_sec: par.merged.events_processed as f64 / (par_wall / 1e3).max(1e-9),
        jobs_per_sec: par.merged.submitted as f64 / (par_wall / 1e3).max(1e-9),
        speedup: seq_wall / par_wall.max(1e-9),
        shards: par.per_shard.len(),
        hw_threads: hw_threads(),
        rate_scale: if test_mode { 0.025 } else { 0.1 },
    }
}

/// `"fail"` when the lanes lost to one thread (past
/// [`SUSTAINED_MIN_SPEEDUP`]) on a machine that has a second hardware
/// thread to give them; on one hardware thread the parallel driver *is* the
/// single-thread driver and there is nothing to judge.
fn sustained_verdict(s: &SustainedSection) -> &'static str {
    if s.hw_threads >= 2 && s.speedup < SUSTAINED_MIN_SPEEDUP {
        eprintln!(
            "FAIL: on {} hardware threads the {}-shard parallel driver ran at {:.2}x of \
             `parallel = false` (median of {SUSTAINED_PAIRS} alternating pairs); the lanes \
             must not lose to one thread (floor {SUSTAINED_MIN_SPEEDUP}x)",
            s.hw_threads, s.shards, s.speedup
        );
        return "fail";
    }
    "pass"
}

// ---------------------------------------------------------------------------
// trajectory
// ---------------------------------------------------------------------------

/// Brace-matched slice of one top-level section of a prior report.  The
/// report's own output is the only input (stable shape, no braces inside
/// its strings), so a real JSON parser — which the workspace deliberately
/// does not vendor — is not needed.
fn section_slice<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\": {{");
    let start = json.find(&needle)? + needle.len() - 1;
    let mut depth = 0usize;
    for (i, b) in json.as_bytes()[start..].iter().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[start..=start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// First `"key": <number>` inside a section slice.  Sections emit their
/// `"previous"` block last, so the first occurrence is always the
/// section's own current value.
fn scan_f64(slice: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = slice.find(&needle)? + needle.len();
    let rest = &slice[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `"previous"` trajectory block of one section: the named headline
/// keys scanned out of the prior report, or `null` when there is no prior
/// report or the section is new.
fn previous_block(prior: Option<&str>, section: &str, keys: &[&str]) -> String {
    let Some(slice) = prior.and_then(|p| section_slice(p, section)) else {
        return "null".to_string();
    };
    let fields: Vec<String> = keys
        .iter()
        .filter_map(|k| scan_f64(slice, k).map(|v| format!(r#""{k}": {v}"#)))
        .collect();
    if fields.is_empty() {
        "null".to_string()
    } else {
        format!("{{ {} }}", fields.join(", "))
    }
}

// ---------------------------------------------------------------------------
// placement_search
// ---------------------------------------------------------------------------

/// Required per-move speedup of the evaluator over a full `ModelComm`
/// replay at EP@256.  A move is one full pass: on a tree-only schedule it
/// does the same 1 276 clock updates as the replay, minus the float
/// transfer math (memoized integer costs) and the stats accounting —
/// measured 4.1–4.6× (7.1 µs against 32.8 µs), so the floor sits under
/// what one pass can deliver on a tree-only schedule.
const PLACEMENT_DELTA_SPEEDUP_MIN: f64 = 3.0;

/// Required improvement of the searched placement over
/// best-of(concentrate, spread) on the heterogeneity-skewed grid
/// (`skewed_table1`); observed ~70%+.
const PLACEMENT_SKEWED_IMPROVEMENT_MIN: f64 = 0.03;

/// Wall budget of the full-scale search shape (EP, 1024 ranks, 10k moves,
/// 4 chains); observed ~1 s, so single digits leaves generous headroom for
/// slower machines.
const PLACEMENT_SEARCH_WALL_BUDGET_S: f64 = 8.0;

/// One standard-grid quality case of the placement-search section.
struct SearchCase {
    kernel: Fig4Kernel,
    ranks: u32,
    report: SearchReport,
}

/// Everything the placement-search section measures.
struct PlacementSearchSection {
    delta_ranks: u32,
    delta_ns_per_move: f64,
    replay_ns: f64,
    delta_speedup: f64,
    avg_delta_ops: f64,
    schedule_ops: usize,
    standard: Vec<SearchCase>,
    skewed: SearchReport,
    skewed_ranks: u32,
    /// Full runs only: (wall seconds, moves) of the 1024-rank budget shape.
    budget: Option<(f64, SearchReport)>,
}

/// Ring-cache byte accounting returned by [`measure_move_vs_replay`]:
/// the total the evaluator holds plus the `Uniform` specialisation's share
/// and the `PerSrc` bytes those tables would otherwise occupy.
struct RingCacheStats {
    bytes: usize,
    uniform_tables: usize,
    uniform_bytes: usize,
    uniform_per_src_bytes: usize,
}

/// Times a move (apply + commit of a random move mix) against a
/// full `ModelComm` replay of the same schedule at `ranks` ranks of
/// `kernel`.  Returns `(move_ns, replay_ns, avg_ops_per_move, schedule_ops,
/// ring_cache_stats)`.
fn measure_move_vs_replay(
    kernel: Fig4Kernel,
    ranks: u32,
    moves: usize,
    replays: usize,
) -> (f64, f64, f64, usize, RingCacheStats) {
    let topology = topology_from_specs(&scaled_table1(
        p2pmpi_grid5000::sites::scale_factor_for_cores(ranks as usize),
    ));
    let settings = Fig4Settings::default().modeled();
    let schedule = Arc::new(kernel_schedule(kernel, &settings, ranks));
    let schedule_ops = schedule.op_count();
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
    let mut pass_ops = 0usize;
    let start = Instant::now();
    for mv in &mix {
        if cost.apply(*mv).is_ok() {
            applied += 1;
            pass_ops += cost.last_delta_ops();
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
    (
        move_ns,
        replay_ns,
        pass_ops as f64 / applied.max(1) as f64,
        schedule_ops,
        RingCacheStats {
            bytes: cost.ring_cache_bytes(),
            uniform_tables,
            uniform_bytes,
            uniform_per_src_bytes,
        },
    )
}

fn measure_placement_search(test_mode: bool) -> PlacementSearchSection {
    let settings = Fig4Settings::default().modeled();
    // The speedup gate is defined at 256 ranks in both modes (only the number
    // of timed moves shrinks under --test).
    let delta_ranks = 256;
    eprintln!("measuring a placement-search move vs a full replay (EP@{delta_ranks})...");
    let (timed_moves, replays) = if test_mode { (600, 60) } else { (2_000, 200) };
    let (delta_ns_per_move, replay_ns, avg_delta_ops, schedule_ops, _) =
        measure_move_vs_replay(Fig4Kernel::Ep, delta_ranks, timed_moves, replays);

    let standard_cases: &[(Fig4Kernel, u32, u64, u32)] = if test_mode {
        &[(Fig4Kernel::Ep, 64, 800, 2), (Fig4Kernel::Is, 16, 300, 2)]
    } else {
        &[
            (Fig4Kernel::Ep, 256, 4_000, 4),
            (Fig4Kernel::Ep, 1024, 4_000, 4),
            (Fig4Kernel::Is, 32, 800, 2),
        ]
    };
    let mut standard = Vec::new();
    for &(kernel, ranks, moves, chains) in standard_cases {
        eprintln!("measuring placement search quality ({kernel:?}@{ranks}, standard grid)...");
        let topology = topology_from_specs(&scaled_table1(
            p2pmpi_grid5000::sites::scale_factor_for_cores(ranks as usize),
        ));
        let report = search_placement(
            &topology,
            kernel,
            ranks,
            &settings,
            &SearchParams {
                moves,
                chains,
                seed: 2008,
            },
        );
        standard.push(SearchCase {
            kernel,
            ranks,
            report,
        });
    }

    let (skewed_ranks, skewed_moves, skewed_chains) = if test_mode {
        (64, 1_500, 2)
    } else {
        (256, 4_000, 4)
    };
    eprintln!("measuring placement search on the heterogeneity-skewed grid (EP@{skewed_ranks})...");
    let topology = topology_from_specs(&skewed_table1(
        p2pmpi_grid5000::sites::scale_factor_for_cores(skewed_ranks as usize),
    ));
    let skewed = search_placement(
        &topology,
        Fig4Kernel::Ep,
        skewed_ranks,
        &settings,
        &SearchParams {
            moves: skewed_moves,
            chains: skewed_chains,
            seed: 2008,
        },
    );

    let budget = if test_mode {
        None
    } else {
        eprintln!("measuring the wall budget shape (EP@1024, 10k moves, 4 chains)...");
        let topology = topology_from_specs(&scaled_table1(1));
        let start = Instant::now();
        let report = search_placement(
            &topology,
            Fig4Kernel::Ep,
            1024,
            &settings,
            &SearchParams {
                moves: 10_000,
                chains: 4,
                seed: 2008,
            },
        );
        Some((start.elapsed().as_secs_f64(), report))
    };

    PlacementSearchSection {
        delta_ranks,
        delta_ns_per_move,
        replay_ns,
        delta_speedup: replay_ns / delta_ns_per_move.max(1.0),
        avg_delta_ops,
        schedule_ops,
        standard,
        skewed,
        skewed_ranks,
        budget,
    }
}

/// The placement-search gates; returns true if anything failed.
fn check_placement_search_gates(p: &PlacementSearchSection) -> bool {
    let mut drifted = false;
    if p.delta_speedup < PLACEMENT_DELTA_SPEEDUP_MIN {
        eprintln!(
            "FAIL: a move ({:.0} ns) is only {:.1}x cheaper than a full replay \
             ({:.0} ns) at EP@{} — the gate requires {PLACEMENT_DELTA_SPEEDUP_MIN}x",
            p.delta_ns_per_move, p.delta_speedup, p.replay_ns, p.delta_ranks
        );
        drifted = true;
    }
    for case in &p.standard {
        let report = &case.report;
        if report.best > report.baseline() {
            eprintln!(
                "FAIL: searched placement ({:?}@{}) is worse than best-of(concentrate, spread): \
                 {:.6}s vs {:.6}s",
                case.kernel,
                case.ranks,
                report.best.as_secs_f64(),
                report.baseline().as_secs_f64()
            );
            drifted = true;
        }
    }
    if p.skewed.improvement() <= PLACEMENT_SKEWED_IMPROVEMENT_MIN {
        eprintln!(
            "FAIL: on the skewed grid (EP@{}) the search is only {:.2}% better than \
             best-of(concentrate, spread); the gate requires more than {:.0}%",
            p.skewed_ranks,
            p.skewed.improvement() * 100.0,
            PLACEMENT_SKEWED_IMPROVEMENT_MIN * 100.0
        );
        drifted = true;
    }
    if let Some((wall_s, _)) = p.budget {
        if wall_s > PLACEMENT_SEARCH_WALL_BUDGET_S {
            eprintln!(
                "FAIL: the EP@1024 / 10k-move / 4-chain search took {wall_s:.2}s; the documented \
                 budget is {PLACEMENT_SEARCH_WALL_BUDGET_S}s"
            );
            drifted = true;
        }
    }
    drifted
}

// ---------------------------------------------------------------------------
// is_search
// ---------------------------------------------------------------------------

/// Required per-move speedup of the evaluator over a full `ModelComm`
/// replay on the *ring-dominated* IS schedule at 1024 ranks.  A move runs
/// the O(ranks²) wavefront of every ring of the first two iterations and
/// fast-forwards the other eight, over pooled integer transfer tables
/// where the replay pays a per-receive float `transfer_time` + stats
/// accounting (observed ≈ 80×, far above the 5× floor).
const IS_SEARCH_DELTA_SPEEDUP_MIN: f64 = 5.0;

/// Ceiling on [`PlacementCost::ring_cache_bytes`] at IS@1024: the pooled
/// tables are O(ranks · sites).
const IS_SEARCH_RING_CACHE_BYTES_MAX: usize = 1 << 20;

/// Floor on the compression of the move-invariant `Uniform` site×site ring
/// tables versus the per-rank `PerSrc` layout they would otherwise occupy
/// (a `tsame` entry plus a site row per rank).  IS's sample alltoall is
/// uniform, so at least one pooled table must hold the form — losing it
/// (or its compression) regresses both the bytes and the rows a
/// site-changing move re-derives.
const IS_SEARCH_UNIFORM_SAVINGS_MIN: f64 = 8.0;

/// Wall budget of the full-scale IS search shape (1024 ranks, 400 moves,
/// 2 chains).  Ring moves are orders of magnitude costlier than EP's, so
/// the shape is smaller than EP's 10k-move budget run; the point of the
/// gate is that a searched `fig4_is` point at 1024 ranks is *minutes*, not
/// hours.
const IS_SEARCH_WALL_BUDGET_S: f64 = 90.0;

/// Everything the IS-at-scale search section measures.
struct IsSearchSection {
    ranks: u32,
    delta_ns_per_move: f64,
    replay_ns: f64,
    delta_speedup: f64,
    avg_delta_ops: f64,
    schedule_ops: usize,
    ring_cache_bytes: usize,
    uniform_tables: usize,
    uniform_bytes: usize,
    uniform_per_src_bytes: usize,
    search: SearchReport,
    search_moves: u64,
    search_chains: u32,
    search_wall_s: f64,
    test_mode: bool,
}

fn measure_is_search(test_mode: bool) -> IsSearchSection {
    let settings = Fig4Settings::default().modeled();
    // The tentpole gate is defined at 1024 ranks; --test shrinks the rank
    // count (the ratio is a constant-factor property of the wavefront, so
    // it holds at the reduced scale too) to keep the CI smoke fast.
    let (ranks, timed_moves, replays) = if test_mode {
        (128, 60, 20)
    } else {
        (1024, 30, 8)
    };
    eprintln!("measuring an IS move vs a full replay (IS@{ranks})...");
    let (delta_ns_per_move, replay_ns, avg_delta_ops, schedule_ops, ring) =
        measure_move_vs_replay(Fig4Kernel::Is, ranks, timed_moves, replays);

    let (search_moves, search_chains) = if test_mode { (120, 2) } else { (400, 2) };
    eprintln!("measuring IS search at scale (IS@{ranks}, {search_moves} moves x {search_chains} chains)...");
    let topology = topology_from_specs(&scaled_table1(
        p2pmpi_grid5000::sites::scale_factor_for_cores(ranks as usize),
    ));
    let start = Instant::now();
    let search = search_placement(
        &topology,
        Fig4Kernel::Is,
        ranks,
        &settings,
        &SearchParams {
            moves: search_moves,
            chains: search_chains,
            seed: 2008,
        },
    );
    let search_wall_s = start.elapsed().as_secs_f64();

    IsSearchSection {
        ranks,
        delta_ns_per_move,
        replay_ns,
        delta_speedup: replay_ns / delta_ns_per_move.max(1.0),
        avg_delta_ops,
        schedule_ops,
        ring_cache_bytes: ring.bytes,
        uniform_tables: ring.uniform_tables,
        uniform_bytes: ring.uniform_bytes,
        uniform_per_src_bytes: ring.uniform_per_src_bytes,
        search,
        search_moves,
        search_chains,
        search_wall_s,
        test_mode,
    }
}

/// The IS-at-scale gates; returns true if anything failed.
fn check_is_search_gates(s: &IsSearchSection) -> bool {
    let mut drifted = false;
    if s.delta_speedup < IS_SEARCH_DELTA_SPEEDUP_MIN {
        eprintln!(
            "FAIL: IS@{} move ({:.0} ns) is only {:.1}x cheaper than a full \
             replay ({:.0} ns) — the gate requires {IS_SEARCH_DELTA_SPEEDUP_MIN}x",
            s.ranks, s.delta_ns_per_move, s.delta_speedup, s.replay_ns
        );
        drifted = true;
    }
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
    if s.search.best > s.search.baseline() {
        eprintln!(
            "FAIL: searched IS@{} placement is worse than best-of(concentrate, spread): \
             {:.6}s vs {:.6}s",
            s.ranks,
            s.search.best.as_secs_f64(),
            s.search.baseline().as_secs_f64()
        );
        drifted = true;
    }
    // The wall budget is machine-absolute, so full runs only.
    if !s.test_mode && s.search_wall_s > IS_SEARCH_WALL_BUDGET_S {
        eprintln!(
            "FAIL: the IS@{} / {}-move / {}-chain search took {:.2}s; the documented budget \
             is {IS_SEARCH_WALL_BUDGET_S}s",
            s.ranks, s.search_moves, s.search_chains, s.search_wall_s
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

/// Wall budget of the searched compressed day (full runs only; observed
/// ~6 s release at the CI shape, so this leaves generous headroom for
/// slower machines).
const ONLINE_DAY_WALL_BUDGET_S: f64 = 120.0;

/// Everything the online-placement section measures.
struct OnlinePlacementSection {
    concentrate: DaySweepResult,
    spread: DaySweepResult,
    searched: DaySweepResult,
    searched_wall_s: f64,
    search_moves: u64,
    improvement: f64,
    test_mode: bool,
}

/// The day every strategy replays for the online comparison: the paper-day
/// shape compressed 24× at 5% of the arrival rates (~1.1k jobs) — the same
/// shape `fig23_sweep --searched --compress 24 --rate-scale 0.05` smokes.
fn online_day_config(strategy: StrategyKind) -> DaySweepConfig {
    let mut cfg = DaySweepConfig::new(strategy).compress(24.0);
    cfg.profile = cfg.profile.scaled(0.05);
    cfg
}

fn measure_online_placement(test_mode: bool) -> OnlinePlacementSection {
    eprintln!(
        "measuring the searched day vs the fixed strategies (compress 24, rate scale 0.05)..."
    );
    let concentrate = run_day_sweep(&online_day_config(StrategyKind::Concentrate));
    let spread = run_day_sweep(&online_day_config(StrategyKind::Spread));
    let searched_cfg = online_day_config(StrategyKind::Searched);
    let start = Instant::now();
    let searched = run_day_sweep(&searched_cfg);
    let searched_wall_s = start.elapsed().as_secs_f64();
    let best_fixed = concentrate.mean_hold_secs.min(spread.mean_hold_secs);
    let improvement = 1.0 - searched.mean_hold_secs / best_fixed.max(1e-9);
    OnlinePlacementSection {
        concentrate,
        spread,
        searched,
        searched_wall_s,
        search_moves: searched_cfg.search_moves,
        improvement,
        test_mode,
    }
}

/// The online-placement gates; returns true if anything failed.
fn check_online_placement_gates(o: &OnlinePlacementSection) -> bool {
    let mut drifted = false;
    if o.improvement < ONLINE_DAY_IMPROVEMENT_MIN {
        eprintln!(
            "FAIL: the searched day's mean job makespan ({:.2}s) is only {:.1}% better than the \
             best fixed strategy (concentrate {:.2}s, spread {:.2}s); the gate requires {:.0}%",
            o.searched.mean_hold_secs,
            o.improvement * 100.0,
            o.concentrate.mean_hold_secs,
            o.spread.mean_hold_secs,
            ONLINE_DAY_IMPROVEMENT_MIN * 100.0
        );
        drifted = true;
    }
    if !o.test_mode && o.searched_wall_s > ONLINE_DAY_WALL_BUDGET_S {
        eprintln!(
            "FAIL: the searched compressed day took {:.1}s wall; the documented budget is \
             {ONLINE_DAY_WALL_BUDGET_S}s",
            o.searched_wall_s
        );
        drifted = true;
    }
    drifted
}

fn main() {
    let mut out_path = "BENCH_hotpath.json".to_string();
    let mut seed_allocate_ns = SEED_ALLOCATE_NS_PER_JOB;
    let mut test_mode = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed-allocate-ns" => {
                seed_allocate_ns = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed-allocate-ns takes a number");
            }
            "--test" => test_mode = true,
            flag if flag.starts_with("--") => {
                eprintln!("unknown option: {flag}");
                eprintln!("usage: perf_report [out.json] [--seed-allocate-ns N] [--test]");
                std::process::exit(2);
            }
            other => out_path = other.to_string(),
        }
    }

    if test_mode {
        // CI smoke: the churn day and the placement search, reduced
        // scale, the relative gates, no report file.
        let churn = measure_churn_day(true);
        let ps = measure_placement_search(true);
        eprintln!(
            "placement_search (reduced): move {:.0} ns vs replay {:.0} ns ({:.1}x), \
             skewed improvement {:.1}%",
            ps.delta_ns_per_move,
            ps.replay_ns,
            ps.delta_speedup,
            ps.skewed.improvement() * 100.0
        );
        for case in &ps.standard {
            eprintln!(
                "placement_search {:?}@{}: conc {:.4}s spread {:.4}s searched {:.4}s",
                case.kernel,
                case.ranks,
                case.report.concentrate.as_secs_f64(),
                case.report.spread.as_secs_f64(),
                case.report.best.as_secs_f64()
            );
        }
        let is_search = measure_is_search(true);
        eprintln!(
            "is_search (reduced, IS@{}): move {:.0} ns vs replay {:.0} ns ({:.1}x), \
             ring caches {} bytes ({} Uniform tables: {} bytes vs {} PerSrc-equivalent), \
             search {:.1}s wall",
            is_search.ranks,
            is_search.delta_ns_per_move,
            is_search.replay_ns,
            is_search.delta_speedup,
            is_search.ring_cache_bytes,
            is_search.uniform_tables,
            is_search.uniform_bytes,
            is_search.uniform_per_src_bytes,
            is_search.search_wall_s
        );
        let op = measure_online_placement(true);
        let op_stats = op
            .searched
            .search
            .expect("the searched day records its stats");
        eprintln!(
            "online_placement (reduced): searched day mean hold {:.2}s vs concentrate {:.2}s / \
             spread {:.2}s ({:+.1}%), {} arrivals searched, prepare {:.1} ms + anneal {:.1} ms wall",
            op.searched.mean_hold_secs,
            op.concentrate.mean_hold_secs,
            op.spread.mean_hold_secs,
            op.improvement * 100.0,
            op_stats.searched,
            op_stats.prepare_nanos as f64 / 1e6,
            op_stats.anneal_nanos as f64 / 1e6
        );
        let (verdicts, matrix_wall_s) = measure_scenario_matrix();
        for v in &verdicts {
            eprintln!(
                "scenario {}: {} ({}/{} jobs placed)",
                v.scenario.name(),
                if v.passed() { "PASS" } else { "FAIL" },
                v.result.succeeded,
                v.result.submitted
            );
        }
        eprintln!(
            "scenario_matrix: {} scenarios in {matrix_wall_s:.1}s wall",
            verdicts.len()
        );
        eprintln!(
            "measuring sustained sharded throughput (week shape, {SUSTAINED_SHARDS} shards, parallel vs single-thread, median of {SUSTAINED_PAIRS} alternating pairs)..."
        );
        let sus = measure_sustained(true);
        eprintln!(
            "sustained_throughput (reduced, {} jobs, {} events, {} barriers): parallel {:.1} ms, \
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
        let sus_verdict = sustained_verdict(&sus);
        eprintln!("sustained_throughput verdict: {sus_verdict}");
        // The trend gate compares against the last written report, so the
        // smoke run also catches recovery-time regressions vs the tracked
        // trajectory (silently skipped when no prior report exists).
        let prior = std::fs::read_to_string(&out_path).ok();
        let drifted = check_churn_day_gate(&churn)
            | check_placement_search_gates(&ps)
            | check_is_search_gates(&is_search)
            | check_online_placement_gates(&op)
            | check_scenario_gates(&verdicts)
            | check_recovery_trend(&verdicts, prior.as_deref())
            | (sus_verdict == "fail");
        if drifted {
            std::process::exit(1);
        }
        eprintln!(
            "perf_report --test: all churn-day, placement-search, is-search, online-placement, \
             scenario and sustained-throughput gates passed"
        );
        return;
    }

    eprintln!("building warm Grid'5000 testbed (350 hosts)...");
    let mut tb = grid5000_testbed(17, NoiseModel::disabled());
    let hosts = tb.topology.host_count();
    let cached = tb.overlay.node(tb.submitter).cache.len();

    eprintln!("measuring booking-order ranking ({RANKING_REPS} reps)...");
    let (naive_ns, incremental_ns) = measure_ranking(&tb);

    eprintln!("measuring warm allocate ({ALLOC_JOBS} jobs per variant)...");
    let (off_ns, on_ns) = measure_allocate(&mut tb);

    eprintln!("measuring Poisson job sweep ({SWEEP_JOBS} jobs, best of 3 rounds)...");
    let (sweep_wall_ms, sweep_jobs_per_sec) = measure_sweep(&mut tb, 3);

    eprintln!("measuring modeled-vs-executed collective agreement (EP@64, IS@32)...");
    let agreement_settings = Fig4Settings {
        is_sample_divisor: 64,
        ..Fig4Settings::default()
    };
    let (ep_exec_s, ep_model_s, ep_div) =
        measure_agreement(Fig4Kernel::Ep, 64, &agreement_settings);
    let (is_exec_s, is_model_s, is_div) =
        measure_agreement(Fig4Kernel::Is, 32, &agreement_settings);

    eprintln!("measuring modeled sweep throughput (EP@2048, IS@1024)...");
    let sweep_settings = Fig4Settings::default();
    let (ep_sweep_virtual_s, ep_sweep_wall_ms) =
        measure_modeled_sweep(Fig4Kernel::Ep, 2048, &sweep_settings);
    let (is_sweep_virtual_s, is_sweep_wall_ms) =
        measure_modeled_sweep(Fig4Kernel::Is, 1024, &sweep_settings);

    let churn = measure_churn_day(false);
    let ps = measure_placement_search(false);
    let is_search = measure_is_search(false);
    let op = measure_online_placement(false);
    let (scenario_verdicts, scenario_wall_s) = measure_scenario_matrix();
    eprintln!(
        "measuring sustained sharded throughput (week shape, {SUSTAINED_SHARDS} shards, parallel vs single-thread, median of {SUSTAINED_PAIRS} alternating pairs)..."
    );
    let sus = measure_sustained(false);

    // The prior report (if any) supplies every section's trajectory block
    // and the sustained drop gate's baseline; read it before overwriting.
    let prior = std::fs::read_to_string(&out_path).ok();
    let prior = prior.as_deref();
    let prev_sustained_eps = prior
        .and_then(|p| section_slice(p, "sustained_throughput"))
        .and_then(|s| scan_f64(s, "events_per_sec"));
    let ranking_prev = previous_block(prior, "ranking", &["after_incremental_index_ns", "speedup"]);
    let alloc_prev = previous_block(
        prior,
        "allocate_warm",
        &[
            "after_tracing_off_ns_per_job",
            "after_tracing_on_ns_per_job",
        ],
    );
    let poisson_prev = previous_block(prior, "job_sweep_poisson", &["wall_ms", "jobs_per_sec"]);
    let scenario_prev = previous_block(
        prior,
        "scenario_matrix",
        &[
            "wall_s",
            "site_outage_recovery_s",
            "supernode_crash_recovery_s",
            "rack_outage_recovery_s",
            "outage_in_crowd_recovery_s",
            "outage_in_crowd_worst_recovery_s",
            "site_outage_degradation",
            "flash_crowd_degradation",
            "slow_links_degradation",
            "supernode_crash_degradation",
            "rack_outage_degradation",
            "outage_in_crowd_degradation",
            "outage_in_crowd_worst_degradation",
        ],
    );
    let placement_prev =
        previous_block(prior, "placement_search", &["delta_ns_per_move", "speedup"]);
    let is_search_prev = previous_block(
        prior,
        "is_search",
        &[
            "delta_ns_per_move",
            "speedup",
            "ring_cache_bytes",
            "uniform_ring_bytes",
            "wall_s",
        ],
    );
    let online_prev = previous_block(
        prior,
        "online_placement",
        &["searched_mean_hold_s", "improvement_vs_best_fixed"],
    );
    let sustained_prev = previous_block(
        prior,
        "sustained_throughput",
        &[
            "events_per_sec",
            "jobs_per_sec",
            "speedup",
            "parallel_wall_ms",
        ],
    );

    let ranking_speedup = naive_ns / incremental_ns.max(1.0);
    let alloc_speedup = seed_allocate_ns / off_ns.max(1.0);
    // The standard-grid search cases as a JSON array (the case list differs
    // between full and --test runs, so it is assembled, not templated).
    let search_cases_json = ps
        .standard
        .iter()
        .map(|case| {
            format!(
                r#"      {{ "kernel": "{:?}", "ranks": {}, "concentrate_s": {:.6}, "spread_s": {:.6}, "searched_s": {:.6}, "improvement_vs_best_of": {:.4}, "hosts_used": {} }}"#,
                case.kernel,
                case.ranks,
                case.report.concentrate.as_secs_f64(),
                case.report.spread.as_secs_f64(),
                case.report.best.as_secs_f64(),
                case.report.improvement(),
                case.report.hosts_used(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let (budget_wall_s, budget_report) = ps.budget.as_ref().expect("full run measures the budget");
    let ps_delta_ns = ps.delta_ns_per_move;
    let ps_replay_ns = ps.replay_ns;
    let ps_speedup = ps.delta_speedup;
    let ps_avg_ops = ps.avg_delta_ops;
    let ps_schedule_ops = ps.schedule_ops;
    let ps_delta_ranks = ps.delta_ranks;
    let skewed_ranks = ps.skewed_ranks;
    let skewed_conc = ps.skewed.concentrate.as_secs_f64();
    let skewed_spread = ps.skewed.spread.as_secs_f64();
    let skewed_best = ps.skewed.best.as_secs_f64();
    let skewed_improvement = ps.skewed.improvement();
    let budget_best = budget_report.best.as_secs_f64();
    let budget_moves = budget_report.evaluated();
    let is_ranks = is_search.ranks;
    let is_delta_ns = is_search.delta_ns_per_move;
    let is_replay_ns = is_search.replay_ns;
    let is_speedup = is_search.delta_speedup;
    let is_avg_ops = is_search.avg_delta_ops;
    let is_schedule_ops = is_search.schedule_ops;
    let is_ring_bytes = is_search.ring_cache_bytes;
    let is_search_moves = is_search.search_moves;
    let is_search_chains = is_search.search_chains;
    let is_search_wall_s = is_search.search_wall_s;
    let is_search_conc = is_search.search.concentrate.as_secs_f64();
    let is_search_spread = is_search.search.spread.as_secs_f64();
    let is_search_best = is_search.search.best.as_secs_f64();
    let is_search_improvement = is_search.search.improvement();
    let is_search_hosts = is_search.search.hosts_used();
    let is_uniform_tables = is_search.uniform_tables;
    let is_uniform_bytes = is_search.uniform_bytes;
    let is_uniform_per_src = is_search.uniform_per_src_bytes;
    let poisson_hw = hw_threads();
    let op_stats = op
        .searched
        .search
        .expect("the searched day records its stats");
    let op_moves = op.search_moves;
    let op_conc_sub = op.concentrate.submitted;
    let op_conc_suc = op.concentrate.succeeded;
    let op_conc_hold = op.concentrate.mean_hold_secs;
    let op_spread_sub = op.spread.submitted;
    let op_spread_suc = op.spread.succeeded;
    let op_spread_hold = op.spread.mean_hold_secs;
    let op_sea_sub = op.searched.submitted;
    let op_sea_suc = op.searched.succeeded;
    let op_sea_hold = op.searched.mean_hold_secs;
    let op_sea_wall_s = op.searched_wall_s;
    let op_arrivals = op_stats.arrivals;
    let op_planned = op_stats.searched;
    let op_infeasible = op_stats.infeasible;
    let op_moves_evaluated = op_stats.moves_evaluated;
    let op_prepare_ms = op_stats.prepare_nanos as f64 / 1e6;
    let op_anneal_ms = op_stats.anneal_nanos as f64 / 1e6;
    let op_amortized_us = (op_stats.prepare_nanos + op_stats.anneal_nanos) as f64
        / op_stats.arrivals.max(1) as f64
        / 1e3;
    let op_improvement = op.improvement;
    // One row per scenario verdict; check details live in the runner's own
    // JSON output, so the report keeps the headline numbers only.
    let scenario_rows_json = scenario_verdicts
        .iter()
        .map(|v| {
            let recovery = v
                .recovery_secs
                .map(|s| format!("{s:.1}"))
                .unwrap_or_else(|| "null".to_string());
            let degradation = v
                .baseline
                .as_ref()
                .map(|b| format!("{:.3}", v.result.succeeded as f64 / b.succeeded.max(1) as f64))
                .unwrap_or_else(|| "null".to_string());
            format!(
                r#"      {{ "scenario": "{}", "passed": {}, "submitted": {}, "succeeded": {}, "timeouts": {}, "jobs_killed": {}, "leaked_grants": {}, "leaked_grant_hwm": {}, "recovery_secs": {recovery}, "degradation_ratio": {degradation}, "checks_passed": {}, "checks_total": {} }}"#,
                v.scenario.name(),
                v.passed(),
                v.result.submitted,
                v.result.succeeded,
                v.result.timeouts,
                v.result.jobs_killed,
                v.result.leaked_grants,
                v.result.leaked_grant_hwm,
                v.checks.iter().filter(|c| c.passed).count(),
                v.checks.len(),
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    // Flat per-scenario trajectory keys (recovery times of the SLO-gated
    // scenarios, degradation ratios of the twin-judged ones): the shape
    // `previous_block`/`scan_f64` can track across reports, feeding the
    // recovery-trend gate.
    let scenario_trend_json = scenario_verdicts
        .iter()
        .flat_map(|v| {
            let mut keys = Vec::new();
            if v.scenario.recovery_slo_secs().is_some() {
                if let Some(s) = v.recovery_secs {
                    keys.push(format!(
                        r#"    "{}_recovery_s": {s:.1},"#,
                        v.scenario.name()
                    ));
                }
            }
            if let Some(b) = &v.baseline {
                keys.push(format!(
                    r#"    "{}_degradation": {:.3},"#,
                    v.scenario.name(),
                    v.result.succeeded as f64 / b.succeeded.max(1) as f64
                ));
            }
            keys
        })
        .collect::<Vec<_>>()
        .join("\n");
    let scenario_all_passed = scenario_verdicts.iter().all(|v| v.passed());
    let sus_shards = sus.shards;
    let sus_hw = sus.hw_threads;
    let sus_rate = sus.rate_scale;
    let sus_jobs = sus.jobs;
    let sus_events = sus.events;
    let sus_barriers = sus.barriers;
    let sus_cross_submitted = sus.cross_submitted;
    let sus_cross_succeeded = sus.cross_succeeded;
    let sus_par_ms = sus.parallel_wall_ms;
    let sus_seq_ms = sus.single_thread_wall_ms;
    let sus_eps = sus.events_per_sec;
    let sus_jps = sus.jobs_per_sec;
    let sus_speedup = sus.speedup;
    let sus_verdict = sustained_verdict(&sus);

    let json = format!(
        r#"{{
  "bench": "hotpath",
  "generated_by": "perf_report (cargo run --release -p p2pmpi-bench --bin perf_report)",
  "testbed": {{ "hosts": {hosts}, "cached_peers": {cached} }},
  "ranking": {{
    "description": "booking order of the warm submitter cache, per read; before = the seed's sort-per-read (still available as sorted_by_latency_naive), after = the incremental index",
    "before_naive_sort_ns": {naive_ns:.1},
    "after_incremental_index_ns": {incremental_ns:.1},
    "speedup": {ranking_speedup:.1},
    "previous": {ranking_prev}
  }},
  "allocate_warm": {{
    "description": "full job submission (100 procs, concentrate) on the warm cache; before = seed tree measured with identical workload/vendored deps (see perf_report docs)",
    "jobs_per_variant": {ALLOC_JOBS},
    "before_seed_ns_per_job": {seed_allocate_ns:.0},
    "after_tracing_off_ns_per_job": {off_ns:.0},
    "after_tracing_on_ns_per_job": {on_ns:.0},
    "speedup_tracing_off_vs_seed": {alloc_speedup:.2},
    "previous": {alloc_prev}
  }},
  "job_sweep_poisson": {{
    "description": "Poisson arrivals (mean gap 30 s virtual), tracing off, best of 3 rounds; hw_threads recorded like sustained_throughput so trajectory points from different machines stay distinguishable",
    "jobs": {SWEEP_JOBS},
    "rounds": 3,
    "hw_threads": {poisson_hw},
    "wall_ms": {sweep_wall_ms:.1},
    "jobs_per_sec": {sweep_jobs_per_sec:.0},
    "previous": {poisson_prev}
  }},
  "modeled_collectives": {{
    "description": "LogGP analytical backend (p2pmpi_mpi::model) vs the executed thread-per-rank runtime on identical co-allocated placements; divergence = |modeled - executed| / executed of the virtual makespan",
    "ep": {{
      "processes": 64,
      "executed_virtual_s": {ep_exec_s:.6},
      "modeled_virtual_s": {ep_model_s:.6},
      "divergence": {ep_div:.9},
      "tolerance": {EP_DIVERGENCE_TOLERANCE:e}
    }},
    "is": {{
      "processes": 32,
      "executed_virtual_s": {is_exec_s:.6},
      "modeled_virtual_s": {is_model_s:.6},
      "divergence": {is_div:.6},
      "tolerance": {IS_DIVERGENCE_TOLERANCE}
    }},
    "modeled_sweep": {{
      "description": "one modeled Figure 4 point at sweep scale (spread placement on the auto-scaled Table-1 grid), wall-clock per point",
      "ep_ranks": 2048,
      "ep_virtual_s": {ep_sweep_virtual_s:.3},
      "ep_wall_ms": {ep_sweep_wall_ms:.1},
      "is_ranks": 1024,
      "is_virtual_s": {is_sweep_virtual_s:.3},
      "is_wall_ms": {is_sweep_wall_ms:.1}
    }}
  }},
  "scenario_matrix": {{
    "description": "fault-injection scenario matrix (p2pmpi_bench::scenario, the scenario_runner binary) at the CI scale: each scenario replays the compressed day with one named adversity (correlated site or rack outage, 10x flash crowd, link degradation, supernode crash, grant-leak stress, composed outage-in-crowd at the nominal and adversarially-searched phase) and is judged against explicit graceful-degradation criteria plus per-scenario recovery-time SLOs; any failed verdict fails non-zero, and a recovery time more than 20% past the previous block's trips the trend gate",
    "compress": 24,
    "rate_scale": 0.05,
    "seed": 2008,
    "wall_s": {scenario_wall_s:.1},
    "all_passed": {scenario_all_passed},
{scenario_trend_json}
    "scenarios": [
{scenario_rows_json}
    ],
    "previous": {scenario_prev}
  }},
  "sustained_throughput": {{
    "description": "sharded week-scale driver (p2pmpi_bench::shard, the week_sweep binary): the paper day tiled across 7 days, compressed 168x, replayed over {SUSTAINED_SHARDS} site-aligned shard timelines running on min(shards, hw_threads) persistent lanes between conservative cross-shard barriers, versus the bit-identical single-thread driver, walls at the median of {SUSTAINED_PAIRS} alternating pairs; one relative gate (on >= 2 hw_threads the parallel driver must reach {SUSTAINED_MIN_SPEEDUP}x of the single-thread one, i.e. not lose to it beyond the handoff cost of lanes the host scheduler left on one core; verdict pass/fail) and full runs fail non-zero when events_per_sec drops more than {SUSTAINED_DROP_LIMIT} below the previous block",
    "shards": {sus_shards},
    "hw_threads": {sus_hw},
    "days": 7,
    "compress": 168,
    "rate_scale": {sus_rate},
    "jobs": {sus_jobs},
    "timeline_events": {sus_events},
    "barriers": {sus_barriers},
    "cross_jobs_submitted": {sus_cross_submitted},
    "cross_jobs_placed": {sus_cross_succeeded},
    "parallel_wall_ms": {sus_par_ms:.1},
    "single_thread_wall_ms": {sus_seq_ms:.1},
    "events_per_sec": {sus_eps:.0},
    "jobs_per_sec": {sus_jps:.1},
    "speedup": {sus_speedup:.2},
    "verdict": "{sus_verdict}",
    "drop_limit": {SUSTAINED_DROP_LIMIT},
    "previous": {sustained_prev}
  }},
  "placement_search": {{
    "description": "model-driven placement search (p2pmpi_bench::search annealing over p2pmpi_mpi::model::PlacementCost): a move is costed by one full evaluator pass over memoized integer transfer costs (repeated blocks fast-forwarded; EP has none) instead of a ModelComm replay; gates (all fail non-zero): a move >= {PLACEMENT_DELTA_SPEEDUP_MIN}x cheaper than the ModelComm replay at EP@256, searched never worse than best-of(concentrate, spread) on the standard grids, > {PLACEMENT_SKEWED_IMPROVEMENT_MIN} better on the skewed grid, and the EP@1024 10k-move 4-chain search within {PLACEMENT_SEARCH_WALL_BUDGET_S}s wall",
    "delta_vs_full_replay": {{
      "kernel": "Ep",
      "ranks": {ps_delta_ranks},
      "schedule_ops": {ps_schedule_ops},
      "delta_ns_per_move": {ps_delta_ns:.0},
      "avg_delta_ops_per_move": {ps_avg_ops:.1},
      "full_replay_ns": {ps_replay_ns:.0},
      "speedup": {ps_speedup:.1},
      "required_speedup": {PLACEMENT_DELTA_SPEEDUP_MIN}
    }},
    "standard_grid": [
{search_cases_json}
    ],
    "skewed_grid": {{
      "description": "skewed_table1: per-core rates skewed so the RTT booking order anti-correlates with speed; both fixed strategies are provably poor here and the search must win clearly",
      "kernel": "Ep",
      "ranks": {skewed_ranks},
      "concentrate_s": {skewed_conc:.6},
      "spread_s": {skewed_spread:.6},
      "searched_s": {skewed_best:.6},
      "improvement_vs_best_of": {skewed_improvement:.4},
      "required_improvement": {PLACEMENT_SKEWED_IMPROVEMENT_MIN}
    }},
    "wall_budget": {{
      "kernel": "Ep",
      "ranks": 1024,
      "moves_per_chain": 10000,
      "chains": 4,
      "moves_evaluated": {budget_moves},
      "searched_s": {budget_best:.6},
      "wall_s": {budget_wall_s:.2},
      "budget_s": {PLACEMENT_SEARCH_WALL_BUDGET_S}
    }},
    "previous": {placement_prev}
  }},
  "is_search": {{
    "description": "the ring-dominated IS schedule at 1024 ranks through the same evaluator: the compact pooled transfer tables (p2pmpi_mpi::model, O(ranks x sites) bytes) and the fast-forward of lockstep iterations must keep a move >= {IS_SEARCH_DELTA_SPEEDUP_MIN}x cheaper than a full ModelComm replay, hold the ring caches under ring_cache_bytes_max, never lose to best-of(concentrate, spread), and finish the at-scale search inside search_budget_s wall (full runs) — all fail non-zero",
    "kernel": "Is",
    "ranks": {is_ranks},
    "schedule_ops": {is_schedule_ops},
    "delta_ns_per_move": {is_delta_ns:.0},
    "avg_delta_ops_per_move": {is_avg_ops:.1},
    "full_replay_ns": {is_replay_ns:.0},
    "speedup": {is_speedup:.1},
    "required_speedup": {IS_SEARCH_DELTA_SPEEDUP_MIN},
    "ring_cache_bytes": {is_ring_bytes},
    "ring_cache_bytes_max": {IS_SEARCH_RING_CACHE_BYTES_MAX},
    "uniform_rings": {{
      "description": "the move-invariant Uniform specialisation (p2pmpi_mpi::model::RingTable::Uniform): a uniform ring's transfer table is a site x site matrix keyed by static topology data only — untouched by any move — versus the per-rank tsame + site-row PerSrc layout it would otherwise occupy; the savings floor fails non-zero",
      "uniform_ring_tables": {is_uniform_tables},
      "uniform_ring_bytes": {is_uniform_bytes},
      "per_src_equivalent_bytes": {is_uniform_per_src},
      "required_savings": {IS_SEARCH_UNIFORM_SAVINGS_MIN}
    }},
    "search": {{
      "moves_per_chain": {is_search_moves},
      "chains": {is_search_chains},
      "concentrate_s": {is_search_conc:.6},
      "spread_s": {is_search_spread:.6},
      "searched_s": {is_search_best:.6},
      "improvement_vs_best_of": {is_search_improvement:.4},
      "hosts_used": {is_search_hosts},
      "wall_s": {is_search_wall_s:.2},
      "search_budget_s": {IS_SEARCH_WALL_BUDGET_S}
    }},
    "previous": {is_search_prev}
  }},
  "online_placement": {{
    "description": "the day sweep's searched booking strategy (StrategyKind::Searched through SweepCore): every arrival re-runs the annealing search over the grid's current free cores on a fresh PlacementCost + Fenwick free-slot index, seeded from its kernel shape's previous plan (p2pmpi_bench::search::SearchContext); gates (all fail non-zero): the searched day's mean job makespan >= required_improvement better than the best fixed strategy, and (full runs) the searched day inside day_wall_budget_s",
    "day": {{
      "description": "the CI-smoke day (paper-day shape compressed 24x at 5% arrival rates, ~1.1k jobs) under each booking strategy; mean_hold_s is the mean modeled kernel makespan of the placed jobs",
      "compress": 24,
      "rate_scale": 0.05,
      "search_moves_per_arrival": {op_moves},
      "concentrate": {{ "submitted": {op_conc_sub}, "succeeded": {op_conc_suc}, "mean_hold_s": {op_conc_hold:.3} }},
      "spread": {{ "submitted": {op_spread_sub}, "succeeded": {op_spread_suc}, "mean_hold_s": {op_spread_hold:.3} }},
      "searched": {{
        "submitted": {op_sea_sub},
        "succeeded": {op_sea_suc},
        "mean_hold_s": {op_sea_hold:.3},
        "wall_s": {op_sea_wall_s:.2},
        "arrivals": {op_arrivals},
        "planned": {op_planned},
        "infeasible": {op_infeasible},
        "moves_evaluated": {op_moves_evaluated},
        "prepare_wall_ms": {op_prepare_ms:.1},
        "anneal_wall_ms": {op_anneal_ms:.1},
        "amortized_search_us_per_arrival": {op_amortized_us:.1}
      }},
      "searched_mean_hold_s": {op_sea_hold:.3},
      "improvement_vs_best_fixed": {op_improvement:.4},
      "required_improvement": {ONLINE_DAY_IMPROVEMENT_MIN},
      "day_wall_budget_s": {ONLINE_DAY_WALL_BUDGET_S}
    }},
    "previous": {online_prev}
  }}
}}
"#
    );

    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {out_path}");

    // Loud failure on model drift: the analytical backend is only useful
    // while it tracks the executed runtime, so a divergence outside the
    // documented tolerances fails the report (and CI) outright.
    let mut drifted = false;
    if ep_div > EP_DIVERGENCE_TOLERANCE {
        eprintln!(
            "FAIL: EP modeled-vs-executed divergence {ep_div:.3e} exceeds tolerance {EP_DIVERGENCE_TOLERANCE:e}"
        );
        drifted = true;
    }
    if is_div > IS_DIVERGENCE_TOLERANCE {
        eprintln!(
            "FAIL: IS modeled-vs-executed divergence {is_div:.4} exceeds tolerance {IS_DIVERGENCE_TOLERANCE}"
        );
        drifted = true;
    }
    // The churn day's allocation-free brokering …
    drifted |= check_churn_day_gate(&churn);
    // … the placement-search gates (move speedup, search quality, the
    // skewed-grid margin, the wall budget) …
    drifted |= check_placement_search_gates(&ps);
    // … the IS-at-scale gates (ring-move speedup, the ring-cache memory
    // ceiling, the Uniform savings floor, search quality and wall budget
    // at 1024 ranks) …
    drifted |= check_is_search_gates(&is_search);
    // … the online-placement gates (the searched day's improvement and
    // wall budget) …
    drifted |= check_online_placement_gates(&op);
    // … the graceful-degradation verdicts of the fault-injection matrix,
    // plus the recovery-time trajectory against the previous report …
    drifted |= check_scenario_gates(&scenario_verdicts);
    drifted |= check_recovery_trend(&scenario_verdicts, prior);
    // … the shard lanes not losing to one thread …
    drifted |= sus_verdict == "fail";
    // … the trajectory gate: sustained events/s may not silently erode
    // between consecutive full reports on the same machine …
    if let Some(prev_eps) = prev_sustained_eps {
        if sus.events_per_sec < prev_eps * (1.0 - SUSTAINED_DROP_LIMIT) {
            eprintln!(
                "FAIL: sustained sharded throughput ({:.0} events/s) dropped more than \
                 {:.0}% below the previous report ({prev_eps:.0} events/s)",
                sus.events_per_sec,
                SUSTAINED_DROP_LIMIT * 100.0
            );
            drifted = true;
        }
    }
    if drifted {
        std::process::exit(1);
    }
}
