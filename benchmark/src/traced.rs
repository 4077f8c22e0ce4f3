//! The traced pass: spans recorded around every call into a layer, from the
//! benchmark's own copy of the sequential sweep driver.
//!
//! `run_day_sweep` keeps its loop private, so the traced pass re-creates it
//! from public calls only — trace generation, testbed boot,
//! `Overlay::run_until`, `SearchContext::prepare` / `anneal_prepared`,
//! `CoAllocator::allocate`, `run_kernel_on_placement`, `schedule_completion`
//! — and checks that its simulated statistics equal `run_day_sweep`'s on the
//! same inputs.  The driver's utilisation samples are pure observation
//! (they never change what the timeline delivers) and are left out.
//!
//! Spans live in memory and are written out when the benchmark ends.  A
//! layer's self time is its spans' duration minus the part their child spans
//! cover.  End-to-end numbers never come from this pass.

use crate::json;
use crate::stats::percentile;
use crate::workloads::{boot_testbed, Fingerprint};
use p2pmpi_bench::experiments::{run_kernel_on_placement, Fig4Settings};
use p2pmpi_bench::search::{OnlineSearchParams, SearchContext};
use p2pmpi_bench::workload::{day_trace, DaySweepConfig};
use p2pmpi_core::prelude::*;
use p2pmpi_grid5000::TABLE1;
use p2pmpi_mpi::placement::Placement;
use p2pmpi_overlay::churn::flapping_churn;
use p2pmpi_simgrid::rngutil::{derive_seed, seeded};
use p2pmpi_simgrid::time::SimTime;
use p2pmpi_simgrid::topology::HostId;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// "No parent" / "no job" in a [`Span`].
pub const NONE: u32 = u32::MAX;

/// One timed call.  `parent` is the index of the span that caused it; spans
/// of one job share its index in the trace as `job`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer boundary crossed (`crate.call`).
    pub name: &'static str,
    /// Host nanoseconds since the pass began.
    pub start_ns: u64,
    /// Host nanoseconds since the pass began.
    pub end_ns: u64,
    /// Index of the causing span, or [`NONE`].
    pub parent: u32,
    /// Index of the job in the trace, or [`NONE`].
    pub job: u32,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The in-memory span log of one pass.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that will have children; close it with [`Spans::close`].
    fn open(&mut self, name: &'static str, parent: u32, job: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now_ns();
    }

    /// Records one childless call.
    fn leaf<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        job: u32,
        call: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, job);
        let out = call();
        self.close(span);
        out
    }

    /// Self time per span name, in seconds: each span's duration minus its
    /// children's.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *by_name.entry(s.name).or_insert(0.0) +=
                (s.end_ns - s.start_ns - children) as f64 * 1e-9;
        }
        by_name
    }

    /// Durations of the spans called `name`, in microseconds.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * 1e6)
            .collect()
    }

    /// Writes the log as JSON lines, one span per line; a span's id is its
    /// line number counted from 0.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let id = |v: u32| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        for s in &self.spans {
            let line = json::object([
                ("name", json::string(s.name)),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
                ("parent", id(s.parent)),
                ("job", id(s.job)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// What one traced day pass produced.
pub struct DayPass {
    /// The pass's simulated statistics (must equal `run_day_sweep`'s).
    pub fingerprint: Fingerprint,
    /// The span log.
    pub spans: Spans,
    /// Events `run_until` delivered between arrivals and in the tail.
    advance_events: u64,
    /// Events delivered on the timeline inside `allocate`.
    allocate_events: u64,
    /// Virtual booking latency of every `allocate`, in milliseconds.
    booking_ms: Vec<f64>,
    /// Annealing walks run (searched strategy only).
    walks: u64,
    /// Move budget of one walk.
    moves_per_walk: u64,
}

/// Replays `cfg`'s day through the benchmark's copy of the sequential
/// driver, one span per call into a layer.
///
/// # Panics
///
/// Panics if `cfg` injects faults: no workload does, and the private fault
/// installation is not part of the surface the benchmark copies.
pub fn traced_day(cfg: &DaySweepConfig) -> DayPass {
    assert!(
        cfg.faults.is_empty(),
        "the traced driver replays fault-free days only"
    );
    let mut spans = Spans::new();
    let pass = spans.open("bench.pass", NONE, NONE);

    let trace = spans.leaf("bench.trace_gen", pass, NONE, || {
        day_trace(&cfg.profile, &cfg.mix, cfg.seed)
    });
    let mut tb = spans.leaf("grid5000.boot", pass, NONE, || {
        boot_testbed(TABLE1, cfg.seed, cfg.queue, cfg.cache_refresh)
    });
    // The one knob the driver sets on the overlay that `boot_testbed` does
    // not: `dead_peer_day` turns the alive-peer timeout fast path off so
    // every reservation arms its timeout.  Outcomes are the same either way,
    // the queue work is not — without this the traced churn day runs 14%
    // *faster* than the run it is meant to explain.
    tb.overlay
        .set_rs_timeout_fast_path(cfg.rs_timeout_fast_path);
    let submitter = tb.submitter;
    if let Some(churn) = &cfg.churn {
        let peers: Vec<_> = tb
            .overlay
            .peer_ids()
            .into_iter()
            .filter(|&p| p != submitter)
            .collect();
        let mut rng = seeded(derive_seed(cfg.seed, 0xF1A9));
        let schedule = flapping_churn(
            &peers,
            churn.fraction,
            cfg.profile.horizon(),
            churn.downtime,
            churn.uptime,
            &mut rng,
        );
        tb.overlay.schedule_churn(schedule.finish());
    }

    let allocator = CoAllocator::new();
    let settings = Fig4Settings {
        seed: cfg.seed,
        ..Fig4Settings::default()
    }
    .modeled();
    let mut search = (cfg.strategy == StrategyKind::Searched).then(|| {
        let params = OnlineSearchParams {
            moves: cfg.search_moves,
            seed: derive_seed(cfg.seed, 0x0A11),
        };
        SearchContext::new(tb.topology.clone(), settings, params)
    });
    let mut caps: Vec<u32> = Vec::new();
    let mut next_probe = cfg
        .churn
        .is_some()
        .then(|| SimTime::ZERO + cfg.cache_refresh);

    let mut core_seconds = vec![0.0f64; tb.topology.site_count()];
    let mut site_cores = vec![0.0f64; core_seconds.len()];
    let (mut succeeded, mut failed, mut timeouts) = (0u64, 0u64, 0u64);
    let mut hold_secs_total = 0.0f64;
    let (mut advance_events, mut allocate_events, mut walks) = (0u64, 0u64, 0u64);
    let mut booking_ms: Vec<f64> = Vec::with_capacity(trace.len());
    // A job records at most eight spans on any workload: no reallocation
    // inside the timed loop.
    spans.spans.reserve(trace.len() * 8);

    for (i, job) in trace.iter().enumerate() {
        let id = i as u32;
        let span = spans.open("bench.job", pass, id);

        advance_events += spans.leaf("overlay.advance", span, id, || tb.overlay.run_until(job.at));
        // The refresh-cadence re-probe and the tombstone reap, at job
        // boundaries exactly like the driver (the probe draws RNG state).
        if let Some(due) = &mut next_probe {
            if tb.overlay.now() >= *due {
                spans.leaf("overlay.maintenance", span, id, || {
                    tb.overlay.probe_round(submitter)
                });
                while *due <= tb.overlay.now() {
                    *due += cfg.cache_refresh;
                }
            }
        }
        let dead = tb
            .overlay
            .events_queued()
            .saturating_sub(tb.overlay.events_pending());
        if dead > cfg.reap_threshold {
            spans.leaf("overlay.maintenance", span, id, || tb.overlay.reap_events());
        }

        let mut request = JobRequest::new(job.ranks, cfg.strategy, job.kernel.program());
        if let Some(ctx) = search.as_mut() {
            // Free capacity right now: one application per MPD, so a host is
            // wholly free when its peer is alive and idle.
            caps.clear();
            caps.resize(tb.topology.host_count(), 0);
            for (h, cap) in caps.iter_mut().enumerate() {
                if let Some(peer) = tb.overlay.peer_on_host(HostId(h)) {
                    let node = tb.overlay.node(peer);
                    if node.is_alive() && node.rs.active_applications() == 0 {
                        *cap = tb.topology.host(HostId(h)).cores as u32;
                    }
                }
            }
            let prepared = spans.leaf("bench.search_prepare", span, id, || {
                ctx.prepare(job.kernel, job.ranks, &caps)
            });
            if let Some(entry) = prepared {
                let hosts = spans.leaf("bench.search_anneal", span, id, || {
                    ctx.anneal_prepared(entry, i as u64)
                });
                walks += 1;
                let mut plan: Vec<PlannedHost> = Vec::new();
                for (rank, &host) in hosts.iter().enumerate() {
                    let peer = tb
                        .overlay
                        .peer_on_host(host)
                        .expect("searched placements only use hosts with live peers");
                    match plan.iter_mut().find(|ph| ph.peer == peer) {
                        Some(ph) => ph.ranks.push(rank as u32),
                        None => plan.push(PlannedHost {
                            peer,
                            ranks: vec![rank as u32],
                        }),
                    }
                }
                request = request.with_plan(Arc::from(plan));
            }
        }

        let events_before = tb.overlay.events_processed();
        let report = spans.leaf("core.allocate", span, id, || {
            allocator.allocate(&mut tb.overlay, submitter, &request)
        });
        allocate_events += tb.overlay.events_processed() - events_before;
        booking_ms.push(report.elapsed.as_millis_f64());
        timeouts += report.dead as u64;

        match &report.outcome {
            Ok(alloc) => {
                let point = spans.leaf("mpi.model", span, id, || {
                    let placement = Placement::from_allocation(alloc);
                    run_kernel_on_placement(
                        job.kernel,
                        cfg.strategy,
                        &placement,
                        &tb.topology,
                        &settings,
                    )
                });
                let hold = point.makespan.mul_f64(cfg.duration_scale);
                succeeded += 1;
                hold_secs_total += hold.as_secs_f64();
                // The driver's ledger arithmetic, in its order, so the
                // charged core-seconds compare bit-for-bit.
                site_cores.fill(0.0);
                for h in &alloc.hosts {
                    site_cores[tb.topology.host(h.host).site.0] += f64::from(h.instances());
                }
                for (total, &c) in core_seconds.iter_mut().zip(&site_cores) {
                    if c != 0.0 {
                        *total += c * hold.as_secs_f64();
                    }
                }
                let done_at = tb.overlay.now() + hold;
                spans.leaf("overlay.schedule", span, id, || {
                    let peers = alloc.hosts.iter().map(|h| h.peer).collect();
                    tb.overlay.schedule_completion(done_at, report.key, peers)
                });
            }
            Err(_) => failed += 1,
        }
        spans.close(span);
    }

    let horizon = SimTime::ZERO + cfg.profile.horizon();
    advance_events += spans.leaf("overlay.advance", pass, NONE, || {
        tb.overlay.run_until(horizon)
    });
    spans.close(pass);

    DayPass {
        fingerprint: Fingerprint {
            submitted: trace.len() as u64,
            succeeded,
            failed,
            timeouts,
            events: tb.overlay.events_processed(),
            mean_hold_bits: (hold_secs_total / succeeded.max(1) as f64).to_bits(),
            virtual_end_ns: tb.overlay.now().as_nanos(),
            core_seconds_bits: core_seconds.iter().sum::<f64>().to_bits(),
        },
        spans,
        advance_events,
        allocate_events,
        booking_ms,
        walks,
        moves_per_walk: cfg.search_moves,
    }
}

impl DayPass {
    /// Host seconds the whole pass took (the root span).
    pub fn wall_s(&self) -> f64 {
        self.spans.spans[0].secs()
    }

    /// The per-layer metrics this pass measured, by `BENCHMARK.json` name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let self_secs = self.spans.self_secs();
        let secs = |name: &str| self_secs.get(name).copied().unwrap_or(0.0);
        let wall_s = self.wall_s();
        let driver_self_s = secs("bench.pass") + secs("bench.job");
        let mut allocate_us = self.spans.durations_us("core.allocate");
        let mut model_us = self.spans.durations_us("mpi.model");
        let mut booking_ms = self.booking_ms.clone();
        let fp = &self.fingerprint;
        let moves = self.walks * self.moves_per_walk;
        vec![
            ("simgrid.events", fp.events as f64),
            ("simgrid.events_per_s", fp.events as f64 / wall_s),
            ("overlay.advance_s", secs("overlay.advance")),
            ("overlay.advance_events", self.advance_events as f64),
            ("overlay.schedule_s", secs("overlay.schedule")),
            ("overlay.maintenance_s", secs("overlay.maintenance")),
            ("core.allocate_s", secs("core.allocate")),
            ("core.allocate_us_p50", percentile(&mut allocate_us, 50.0)),
            ("core.allocate_us_p99", percentile(&mut allocate_us, 99.0)),
            ("core.allocate_events", self.allocate_events as f64),
            ("core.placed", fp.succeeded as f64),
            ("core.refused", fp.failed as f64),
            ("core.rs_dead", fp.timeouts as f64),
            (
                "core.booking_virtual_ms_p50",
                percentile(&mut booking_ms, 50.0),
            ),
            (
                "core.booking_virtual_ms_p99",
                percentile(&mut booking_ms, 99.0),
            ),
            ("mpi.model_s", secs("mpi.model")),
            ("mpi.model_us_p50", percentile(&mut model_us, 50.0)),
            ("mpi.model_us_p99", percentile(&mut model_us, 99.0)),
            ("grid5000.boot_s", secs("grid5000.boot")),
            ("bench.trace_gen_s", secs("bench.trace_gen")),
            ("bench.driver_self_s", driver_self_s),
            ("bench.search_prepare_s", secs("bench.search_prepare")),
            ("bench.search_anneal_s", secs("bench.search_anneal")),
            ("bench.search_moves", moves as f64),
            (
                "bench.search_us_per_move",
                if moves == 0 {
                    0.0
                } else {
                    secs("bench.search_anneal") * 1e6 / moves as f64
                },
            ),
            ("bench.trace_coverage", 1.0 - driver_self_s / wall_s),
        ]
    }
}
