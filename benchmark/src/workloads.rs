//! The six workloads: their inputs (built from the product's *default*
//! constructors, so the benchmark follows the code when defaults change),
//! their headline call, their set-up calls timed on their own, and the
//! simulated statistics every repetition must reproduce.

use crate::contract::WORKLOADS;
use crate::json;
use p2pmpi_bench::experiments::{synthetic_placement, Fig4Kernel, Fig4Settings};
use p2pmpi_bench::search::{
    kernel_schedule, placement_rank_hosts, search_placement, SearchParams, SearchReport,
};
use p2pmpi_bench::shard::{run_shard_sweep, ShardSweepConfig};
use p2pmpi_bench::workload::{
    day_trace, run_day_sweep, DayProfile, DaySweepConfig, DaySweepResult,
};
use p2pmpi_core::StrategyKind;
use p2pmpi_grid5000::sites::{scale_factor_for_cores, scaled_table1};
use p2pmpi_grid5000::testbed::{
    testbed_from_specs_with_queue, topology_from_specs, Grid5000Testbed,
};
use p2pmpi_grid5000::{host_capacities, ClusterSpec, ShardPlan, TABLE1};
use p2pmpi_mpi::model::{ModelComm, PlacementCost};
use p2pmpi_simgrid::event::QueueKind;
use p2pmpi_simgrid::time::SimDuration;
use p2pmpi_simgrid::topology::Topology;
use p2pmpi_simgrid::{ComputeModel, NetworkModel, NoiseModel};
use std::sync::Arc;
use std::time::Instant;

/// One of the six workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full `paper_day()` under concentrate.
    DayConcentrate,
    /// Full `paper_day()` under spread.
    DaySpread,
    /// The dead-peer day, compressed 12×.
    DayChurn,
    /// The searched strategy on the 5%-rate day, compressed 24×.
    DaySearched,
    /// `search_placement` for IS at 1024 ranks.
    SearchIs1024,
    /// The uncompressed week on two shard threads.
    WeekSharded,
}

/// All six, in `BENCHMARK.json` order.
pub const ALL: [Workload; 6] = [
    Workload::DayConcentrate,
    Workload::DaySpread,
    Workload::DayChurn,
    Workload::DaySearched,
    Workload::SearchIs1024,
    Workload::WeekSharded,
];

/// Extra rate scale of `--smoke`: every sweep replays 5% of its arrivals.
const SMOKE_RATE: f64 = 0.05;

/// The inputs of one workload, ready to run.
pub enum Plan {
    /// A sequential day sweep (`run_day_sweep`).
    Day(DaySweepConfig),
    /// A sharded week sweep (`run_shard_sweep`).
    Week(ShardSweepConfig),
    /// An offline placement search (`search_placement`).
    Search(SearchPlan),
}

/// Inputs of the offline IS search.
pub struct SearchPlan {
    /// Rank count searched (1024; 128 under `--smoke`).
    pub ranks: u32,
    /// Moves, chains and the seed.
    pub params: SearchParams,
    /// The analytical-backend kernel settings.
    pub settings: Fig4Settings,
}

impl SearchPlan {
    /// The grid the search runs on: Table 1 scaled to hold `ranks` cores.
    pub fn topology(&self) -> Arc<Topology> {
        topology_from_specs(&scaled_table1(scale_factor_for_cores(self.ranks as usize)))
    }
}

impl Workload {
    /// The `--workload` name: the contract's, whose table is in this order.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads the headline call keeps busy: the shard count for the week,
    /// one for everything else (the offline search runs a single chain).
    pub fn threads(self) -> usize {
        match self {
            Workload::WeekSharded => 2,
            _ => 1,
        }
    }

    /// Builds the workload's inputs from `seed`.
    pub fn plan(self, seed: u64, smoke: bool) -> Plan {
        let day = |mut cfg: DaySweepConfig| {
            cfg.seed = seed;
            if smoke {
                cfg.profile = cfg.profile.scaled(SMOKE_RATE);
            }
            cfg
        };
        match self {
            Workload::DayConcentrate => {
                Plan::Day(day(DaySweepConfig::new(StrategyKind::Concentrate)))
            }
            Workload::DaySpread => Plan::Day(day(DaySweepConfig::new(StrategyKind::Spread))),
            Workload::DayChurn => Plan::Day(day(DaySweepConfig::dead_peer_day(
                StrategyKind::Concentrate,
            )
            .compress(12.0))),
            Workload::DaySearched => {
                let mut cfg = DaySweepConfig::new(StrategyKind::Searched);
                cfg.profile = cfg.profile.scaled(0.05);
                Plan::Day(day(cfg.compress(24.0)))
            }
            Workload::SearchIs1024 => Plan::Search(SearchPlan {
                ranks: if smoke { 128 } else { 1024 },
                params: SearchParams {
                    moves: if smoke { 20 } else { 100 },
                    chains: 1,
                    seed,
                },
                settings: Fig4Settings::default().modeled(),
            }),
            Workload::WeekSharded => {
                let mut base = DaySweepConfig::new(StrategyKind::Concentrate);
                base.profile = DayProfile::week();
                Plan::Week(ShardSweepConfig::new(day(base), self.threads()))
            }
        }
    }
}

/// The simulated statistics of one repetition.  They are functions of the
/// inputs alone, so every repetition of a run must reproduce the first's
/// bit-for-bit, and a change that only speeds the simulator must leave them
/// identical between parent and change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Jobs submitted (placement requests).
    pub submitted: u64,
    /// Jobs placed.
    pub succeeded: u64,
    /// Jobs co-allocation refused.
    pub failed: u64,
    /// Reservation timeouts observed (dead booked peers).
    pub timeouts: u64,
    /// Timeline events delivered (annealing moves evaluated for the search).
    pub events: u64,
    /// Bits of the mean modeled makespan of placed jobs, in virtual seconds.
    pub mean_hold_bits: u64,
    /// The virtual clock at the end, in nanoseconds.
    pub virtual_end_ns: u64,
    /// Bits of the core-seconds charged, summed over sites in site order.
    pub core_seconds_bits: u64,
}

impl Fingerprint {
    /// Of a day sweep's result.
    pub fn of_day(r: &DaySweepResult) -> Fingerprint {
        Fingerprint {
            submitted: r.submitted as u64,
            succeeded: r.succeeded as u64,
            failed: r.failed as u64,
            timeouts: r.timeouts,
            events: r.events_processed,
            mean_hold_bits: r.mean_hold_secs.to_bits(),
            virtual_end_ns: r.virtual_end.as_nanos(),
            core_seconds_bits: r.core_seconds.iter().sum::<f64>().to_bits(),
        }
    }

    /// Mean modeled makespan of placed jobs, in virtual seconds.
    pub fn mean_hold_s(&self) -> f64 {
        f64::from_bits(self.mean_hold_bits)
    }

    /// Placed jobs over submitted jobs.
    pub fn placed_share(&self) -> f64 {
        self.succeeded as f64 / self.submitted.max(1) as f64
    }

    /// The `sim_fingerprint` object printed per workload, so parent and
    /// change can be diffed as text.
    pub fn to_json(&self) -> String {
        let int = |v: u64| v.to_string();
        json::object([
            ("submitted", int(self.submitted)),
            ("succeeded", int(self.succeeded)),
            ("failed", int(self.failed)),
            ("timeouts", int(self.timeouts)),
            ("events", int(self.events)),
            ("mean_hold_s", json::num(self.mean_hold_s())),
            (
                "mean_hold_bits",
                json::string(&format!("{:016x}", self.mean_hold_bits)),
            ),
            ("virtual_end_ns", int(self.virtual_end_ns)),
            (
                "core_seconds",
                json::num(f64::from_bits(self.core_seconds_bits)),
            ),
            (
                "core_seconds_bits",
                json::string(&format!("{:016x}", self.core_seconds_bits)),
            ),
        ])
    }
}

/// What one repetition of a headline call produced.
pub struct Rep {
    /// The repetition's simulated statistics.
    pub fingerprint: Fingerprint,
    /// The search report, when the headline call was `search_placement`.
    pub search: Option<SearchReport>,
}

/// Runs the workload's headline call once.
pub fn run_headline(plan: &Plan) -> Rep {
    match plan {
        Plan::Day(cfg) => Rep {
            fingerprint: Fingerprint::of_day(&run_day_sweep(cfg)),
            search: None,
        },
        Plan::Week(cfg) => Rep {
            fingerprint: Fingerprint::of_day(&run_shard_sweep(cfg).merged),
            search: None,
        },
        Plan::Search(plan) => {
            let report = search_placement(
                &plan.topology(),
                Fig4Kernel::Is,
                plan.ranks,
                &plan.settings,
                &plan.params,
            );
            Rep {
                fingerprint: Fingerprint {
                    submitted: 1,
                    succeeded: 1,
                    failed: 0,
                    timeouts: 0,
                    events: report.evaluated(),
                    mean_hold_bits: report.best.as_secs_f64().to_bits(),
                    virtual_end_ns: 0,
                    core_seconds_bits: (report.best.as_secs_f64() * f64::from(plan.ranks))
                        .to_bits(),
                },
                search: Some(report),
            }
        }
    }
}

/// Checks the offline search's report: the searched placement must not
/// lose to either fixed seed, and its cost must be what `ModelComm` computes
/// for that placement from scratch (a full replay).
pub fn search_defects(plan: &SearchPlan, report: &SearchReport) -> Vec<String> {
    let mut defects = Vec::new();
    if report.best > report.baseline() {
        defects.push(format!(
            "searched makespan {} loses to the better fixed seed, {}",
            report.best,
            report.baseline()
        ));
    }
    let topology = plan.topology();
    let mut replay = ModelComm::new(
        &report.best_placement(),
        NetworkModel::new(topology.clone()),
        ComputeModel::new(topology),
    );
    kernel_schedule(Fig4Kernel::Is, &plan.settings, plan.ranks).drive(&mut replay);
    if replay.makespan() != report.best {
        defects.push(format!(
            "searched cost {} differs from a full replay of its placement, {}",
            report.best,
            replay.makespan()
        ));
    }
    defects
}

/// The named parts of one set-up, in host seconds.  Their names are
/// per-layer metrics; their sum is one sample of `setup_s`.
pub type SetupParts = Vec<(&'static str, f64)>;

/// Sum of a set-up's parts.
pub fn setup_total(parts: &SetupParts) -> f64 {
    parts.iter().map(|(_, s)| s).sum()
}

/// Boots a sweep testbed exactly as the sweep drivers do: the overlay over
/// `specs` plus the three periodic behaviours every sweep installs.
pub fn boot_testbed(
    specs: &[ClusterSpec],
    seed: u64,
    queue: QueueKind,
    cache_refresh: SimDuration,
) -> Grid5000Testbed {
    let mut tb = testbed_from_specs_with_queue(specs, seed, NoiseModel::default(), queue);
    tb.overlay.tracer().set_enabled(false);
    tb.overlay.start_heartbeats();
    tb.overlay
        .start_reservation_expiry(SimDuration::from_secs(60), SimDuration::from_secs(120));
    tb.overlay.start_cache_refresh(tb.submitter, cache_refresh);
    tb
}

/// A `PlacementCost` built cold over the spread placement of `ranks` ranks
/// of `kernel`, on Table 1 scaled to hold them, with each stage timed.
pub struct ColdEvaluator {
    /// The evaluator.
    pub cost: PlacementCost,
    /// Hosts of the grid it sits on.
    pub host_count: usize,
    /// Ops of the compiled schedule.
    pub schedule_ops: usize,
    /// Host seconds to build the topology.
    pub boot_s: f64,
    /// Host seconds to compile the kernel's schedule.
    pub schedule_s: f64,
    /// Host seconds of `PlacementCost::new`.
    pub build_s: f64,
}

/// Builds a [`ColdEvaluator`].
pub fn build_evaluator(kernel: Fig4Kernel, ranks: u32, settings: &Fig4Settings) -> ColdEvaluator {
    let start = Instant::now();
    let topology = topology_from_specs(&scaled_table1(scale_factor_for_cores(ranks as usize)));
    let boot_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let schedule = kernel_schedule(kernel, settings, ranks);
    let schedule_s = start.elapsed().as_secs_f64();
    let schedule_ops = schedule.op_count();

    let hosts = placement_rank_hosts(&synthetic_placement(&topology, StrategyKind::Spread, ranks));
    let host_count = topology.host_count();
    let start = Instant::now();
    let cost = PlacementCost::new(
        Arc::new(schedule),
        hosts,
        host_capacities(&topology),
        NetworkModel::new(topology.clone()),
        ComputeModel::new(topology),
    );
    let build_s = start.elapsed().as_secs_f64();
    ColdEvaluator {
        cost,
        host_count,
        schedule_ops,
        boot_s,
        schedule_s,
        build_s,
    }
}

impl SearchPlan {
    /// The search's IS evaluator, built cold; its timed stages are the
    /// workload's set-up.
    pub fn build_evaluator(&self) -> (SetupParts, ColdEvaluator) {
        let built = build_evaluator(Fig4Kernel::Is, self.ranks, &self.settings);
        let parts = vec![
            ("grid5000.boot_s", built.boot_s),
            ("nas.is1024_schedule_s", built.schedule_s),
            ("mpi.is1024_build_s", built.build_s),
        ];
        (parts, built)
    }
}

/// Runs the workload's public set-up calls on their own, once, and times
/// them: testbed boot (per shard for the week) and trace generation for the
/// sweeps; topology, schedule compile and a cold evaluator build for the
/// offline search.  The headline calls repeat this work internally; timing it
/// apart is what makes work moved into set-up visible.
pub fn run_setup(plan: &Plan) -> SetupParts {
    let sweep = |base: &DaySweepConfig, shard_specs: &[&[ClusterSpec]]| {
        let start = Instant::now();
        for specs in shard_specs {
            std::hint::black_box(boot_testbed(
                specs,
                base.seed,
                base.queue,
                base.cache_refresh,
            ));
        }
        let boot_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        std::hint::black_box(day_trace(&base.profile, &base.mix, base.seed));
        let trace_gen_s = start.elapsed().as_secs_f64();
        vec![
            ("grid5000.boot_s", boot_s),
            ("bench.trace_gen_s", trace_gen_s),
        ]
    };
    match plan {
        Plan::Day(cfg) => sweep(cfg, &[TABLE1]),
        Plan::Week(cfg) => {
            let shards = ShardPlan::partition(TABLE1, cfg.shards);
            let specs: Vec<&[ClusterSpec]> = (0..shards.shard_count())
                .map(|s| shards.specs_for(s))
                .collect();
            sweep(&cfg.base, &specs)
        }
        Plan::Search(plan) => plan.build_evaluator().0,
    }
}
