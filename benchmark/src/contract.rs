//! Every name the benchmark emits, in one place.  `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] written to a file; the contract test
//! checks the two stay equal and that each run emits exactly these names.

use crate::json;

/// One named workload and the reason it exists.
pub struct WorkloadSpec {
    /// The `--workload` name.
    pub name: &'static str,
    /// Which layers it stresses, in one line.
    pub why: &'static str,
}

/// A metric a user of the simulator sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit (host and virtual seconds are never mixed under one name).
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of one layer (layer = crate).
pub struct PerLayer {
    /// Metric name, prefixed by its crate.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// How long one run measures, in seconds (`--seconds` default).
pub const RUN_SECONDS: u64 = 10;

/// The command the driver runs from the root of a checkout.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// The six workloads.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "day_concentrate",
        why: "paper Fig. 2 at day scale: full paper_day() under concentrate on a calm queue; mpi costing and core brokering do the work, bench::search and bench::shard do none",
    },
    WorkloadSpec {
        name: "day_spread",
        why: "same trace under spread: one process per host across six sites, more RS rounds and refusals per job; a concentrate-only fast path that costs spread shows here",
    },
    WorkloadSpec {
        name: "day_churn",
        why: "dead-peer day compressed 12x: every reservation arms and cancels a timeout on a trimodal event population; simgrid queue, reaping and overlay timeout paths dominate; most jobs refused by design",
    },
    WorkloadSpec {
        name: "day_searched",
        why: "searched strategy on the 5%-rate day compressed 24x: nearly all wall is the anneal loop over mpi PlacementCost at 8-128 ranks; timeline and brokering do almost nothing",
    },
    WorkloadSpec {
        name: "search_is1024",
        why: "search_placement(IS, 1024 ranks, 100 moves, 1 chain): the ring wavefront evaluator at scale with no overlay at all; ring-evaluator work can only show here",
    },
    WorkloadSpec {
        name: "week_sharded",
        why: "uncompressed week on 2 shard threads: the only threaded path; barrier brokering and cross-shard rollback; uncompressed so cross-shard jobs really place",
    },
];

/// The six end-to-end metrics, the same on every workload.
///
/// One bound serves all six workloads, so each is set by the workload on
/// which the metric is least steady across seeds (README, "First committed
/// numbers"): `day_searched` for the two rates (12–14% between the quartiles of
/// ten seeds, because a 1 100-job day's work moves with its seed) and
/// `day_churn` for `placed_share` (12%, the seed picks which peers flap).  A
/// bound has to sit well clear of that spread or the benchmark rejects
/// itself.  The bounds on `placed_share` and `mean_hold_s` are therefore not
/// noise allowances: both are simulated and repeat bit-for-bit for a seed.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "jobs/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "placed_share",
        unit: "ratio",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "mean_hold_s",
        unit: "virtual_s",
        better: "lower",
        bound: 0.2,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics of the traced run.  One that does not apply to a
/// workload (an `overlay.*` time on `search_is1024`, say) reads 0 there.
pub const PER_LAYER: [PerLayer; 43] = [
    layer("simgrid.events", "count", "lower"),
    layer("simgrid.events_per_s", "1/s", "higher"),
    layer("simgrid.queue_calm_ns_per_op", "ns", "lower"),
    layer("simgrid.queue_skew_ns_per_op", "ns", "lower"),
    layer("overlay.advance_s", "s", "lower"),
    layer("overlay.advance_events", "count", "lower"),
    layer("overlay.schedule_s", "s", "lower"),
    layer("overlay.maintenance_s", "s", "lower"),
    layer("core.allocate_s", "s", "lower"),
    layer("core.allocate_us_p50", "us", "lower"),
    layer("core.allocate_us_p99", "us", "lower"),
    layer("core.allocate_events", "count", "lower"),
    layer("core.placed", "count", "higher"),
    layer("core.refused", "count", "lower"),
    layer("core.rs_dead", "count", "lower"),
    layer("core.booking_virtual_ms_p50", "virtual_ms", "lower"),
    layer("core.booking_virtual_ms_p99", "virtual_ms", "lower"),
    layer("mpi.model_s", "s", "lower"),
    layer("mpi.model_us_p50", "us", "lower"),
    layer("mpi.model_us_p99", "us", "lower"),
    layer("mpi.is1024_build_s", "s", "lower"),
    layer("mpi.is1024_delta_ms_per_move", "ms", "lower"),
    layer("mpi.is1024_replay_ms", "ms", "lower"),
    layer("mpi.is1024_delta_ops_per_move", "count", "lower"),
    layer("mpi.ring_cache_bytes", "bytes", "lower"),
    layer("mpi.ep256_delta_us_per_move", "us", "lower"),
    layer("mpi.ep256_delta_ops_per_move", "count", "lower"),
    layer("nas.is1024_schedule_s", "s", "lower"),
    layer("nas.is1024_schedule_ops", "count", "lower"),
    layer("grid5000.boot_s", "s", "lower"),
    layer("bench.trace_gen_s", "s", "lower"),
    layer("bench.driver_self_s", "s", "lower"),
    layer("bench.search_prepare_s", "s", "lower"),
    layer("bench.search_anneal_s", "s", "lower"),
    layer("bench.search_moves", "count", "higher"),
    layer("bench.search_us_per_move", "us", "lower"),
    layer("bench.shard_parallel_s", "s", "lower"),
    layer("bench.shard_sequential_s", "s", "lower"),
    layer("bench.shard_speedup", "ratio", "higher"),
    layer("bench.shard_barriers", "count", "lower"),
    layer("bench.shard_cross_placed_share", "ratio", "higher"),
    layer("bench.trace_coverage", "ratio", "higher"),
    layer("bench.trace_overhead", "ratio", "lower"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let strings = |items: &[&str]| json::array(items.iter().map(|s| json::string(s)));
    let workloads = WORKLOADS
        .iter()
        .map(|w| json::object([("name", json::string(w.name)), ("why", json::string(w.why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        json::object([
            ("name", json::string(m.name)),
            ("unit", json::string(m.unit)),
            ("better", json::string(m.better)),
            ("bound", json::num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        json::object([
            ("name", json::string(m.name)),
            ("unit", json::string(m.unit)),
            ("better", json::string(m.better)),
        ])
    });
    let lines = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&COMMAND),
        strings(&PATHS),
        RUN_SECONDS,
        lines(workloads.collect()),
        lines(end_to_end.collect()),
        lines(per_layer.collect()),
    )
}
