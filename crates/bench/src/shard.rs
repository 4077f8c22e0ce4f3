//! The sharded parallel sweep driver: week-scale traces partitioned into
//! per-site shard timelines that run concurrently between conservative
//! synchronization barriers.
//!
//! # Why shards
//!
//! The sequential sweep ([`crate::workload::run_day_sweep`]) is one
//! discrete-event timeline over all of Table 1; a week-scale trace at 10×
//! traffic is millions of timeline events and its wall-clock is bounded by
//! one core.  But the Grid'5000 workload is *mostly site-local*: a job
//! brokered from a site's submitter books hosts ordered by RTT, and the
//! overlay's periodic machinery (heartbeats, expiry sweeps, cache
//! refreshes, churn) never crosses sites at all.  The driver exploits that:
//! [`ShardPlan`] partitions the grid into site-aligned shards, each shard
//! gets its own `crate::workload::SweepCore` — overlay, event timeline,
//! allocator, RNG substreams, sharing **nothing** with its siblings — and
//! the shard timelines run on persistent *lanes* between barriers (see
//! "Lanes" below).
//!
//! # The barrier protocol
//!
//! Every job of the trace is classified up front (a deterministic pre-pass
//! on its own RNG substream) as **shard-local** — submitted to its home
//! shard's core exactly as the sequential sweep would — or **cross-shard**
//! — needing capacity from more than one shard's sites.  The driver holds
//! the trace once, beside one home byte per job (`u8::MAX` for a cross
//! job) and the indices of the cross jobs: phase `k` is the run of the
//! trace up to the `k`-th cross job, and each shard submits the jobs of
//! the run homed on it, in trace order.  Cross-shard jobs are the only
//! synchronization points:
//!
//! 1. **Advance.**  Every shard runs its own timeline — local
//!    submissions, completions, heartbeats, churn — up to the cross-shard
//!    job's arrival time `T`.  This is conservative lookahead in the
//!    classic sense: between barriers no shard can schedule an event on
//!    another shard's timeline, so `T` (the next cross arrival) is a safe
//!    horizon for every shard.  After advancing, each shard asserts the
//!    contract via the engine's reported safe horizon
//!    (`Overlay::run_until_horizon`): its earliest pending event must lie
//!    strictly after `T`.
//! 2. **Broker.**  On the coordinator thread, the job is brokered against
//!    the *merged view*: per-shard free-core estimates feed
//!    `StrategyKind::distribute_into`, each shard allocates its split
//!    all-or-nothing through its own allocator, and a refusal anywhere
//!    rolls back the shards already booked (their gatekeeper slots are
//!    freed immediately, as a completion would).  On success the
//!    sub-placements are merged onto a global Table-1 topology (ranks
//!    re-offset per shard; each shard's hosts are mapped to their global
//!    ids once per sweep) and the job's kernel is costed **once** on the
//!    merged placement, so a cross-shard job pays the real cross-site
//!    communication cost — through the coordinator's own
//!    [`crate::experiments::ShapeCosts`] over the global topology, as the
//!    shards cost their local jobs through theirs.
//! 3. **Scatter.**  Each booked shard, in shard order, holds its part of
//!    the job through the path a local job takes, `SweepCore::hold`: the
//!    hold is charged to the shard's per-site ledger and one completion
//!    event goes onto the shard's timeline at `T + hold`
//!    (`Overlay::schedule_completion`).  The next parallel phase begins.
//!
//! Shard order is fixed everywhere (classification, brokering, scatter,
//! merge), all coordinator work happens between completed phases, and
//! shards share no state — so the result is **bit-identical** at every
//! lane count, one lane ([`ShardSweepConfig::parallel`] = false) included,
//! and with one shard it reproduces [`crate::workload::run_day_sweep`]
//! bit-for-bit (`tests/shard_sweep.rs` and the unit tests below pin both).
//!
//! Site-scoped faults route to the owning shard; flash crowds reshape the
//! shared trace before classification; a supernode outage applies to every
//! shard's registry.
//!
//! # Lanes
//!
//! A week is thousands of phases of well under a millisecond each, so the
//! threads have to outlive the phases.  A sweep runs on
//! `min(shards, available_parallelism())` lanes: shard `s` belongs to lane
//! `s % lanes`, a lane runs its shards in shard order, and lane 0 *is* the
//! calling thread — it advances its own shards between publishing a phase
//! and waiting for it, then brokers the barrier.  The other lanes are
//! threads spawned once per sweep.  One lane (`parallel = false`, a
//! one-core host, one shard) therefore spawns nothing and is the same code
//! on one thread.
//!
//! *Handoff.*  The coordinator releases phase `k` by storing `k + 1` to a
//! shared epoch counter (release) and unparking the workers; a worker
//! answers by storing the epoch to its own `done` counter (release) and
//! unparking the coordinator; both sides wait with acquire loads, spinning
//! for a bounded time before they park — lanes never outnumber
//! hardware threads, so a spinning lane is not in another's way.  One epoch
//! past the last phase tells every lane to drain and close its shards'
//! books (`SweepCore::finish`).  Each shard's core sits in a `Mutex` of its
//! own that the epoch order keeps uncontended: the owning lane locks it
//! during a phase, the coordinator locks all of them at the barrier.
//!
//! *Panics.*  A panic on any lane — the safe-horizon assert, a poisoned
//! shard lock — reaches the caller of [`run_shard_sweep`] with its original
//! payload.  A panicking worker's drop guard stores the poison epoch to its
//! `done` counter and unparks the coordinator, which poisons the shared
//! epoch to release the other workers, joins them all and resumes the
//! panic; a panic on the coordinator poisons the epoch as it unwinds.
//! Nobody waits on an epoch that will never come.

use crate::experiments::{Fig4Settings, ShapeCosts};
use crate::par::hardware_threads;
use crate::workload::{
    burst_profile, day_trace, DaySweepConfig, DaySweepResult, FaultSpec, JobSpec, SweepCore,
    UtilisationSample,
};
use p2pmpi_core::allocation::{AllocatedHost, Allocation};
use p2pmpi_core::prelude::*;
use p2pmpi_grid5000::testbed::topology_from_specs;
use p2pmpi_grid5000::{ShardPlan, TABLE1};
#[cfg(debug_assertions)]
use p2pmpi_overlay::{PeerId, ReservationStatus::Running};
use p2pmpi_overlay::{RankAssignment, ReservationKey};
use p2pmpi_simgrid::rngutil::{derive_seed, seeded};
use p2pmpi_simgrid::time::SimTime;
use p2pmpi_simgrid::topology::{HostId, Topology};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Configuration of one [`run_shard_sweep`] run.
#[derive(Debug, Clone)]
pub struct ShardSweepConfig {
    /// The sweep everything else is expressed against: profile, mix,
    /// strategy, churn, faults.  With
    /// `shards == 1` the driver reproduces `run_day_sweep(&base)`
    /// bit-for-bit.
    pub base: DaySweepConfig,
    /// Number of site-aligned shards (see [`ShardPlan::partition`]).
    pub shards: usize,
    /// Fraction of jobs classified cross-shard (each one a barrier).
    /// Ignored at `shards == 1`, where every job is local.
    pub cross_fraction: f64,
    /// Run the shard timelines on one lane per hardware thread (at most
    /// one per shard).  `false` runs every shard on the calling thread —
    /// same code, same result bit-for-bit, the baseline for speedup
    /// measurements.
    pub parallel: bool,
}

impl ShardSweepConfig {
    /// `shards` shards over `base`, parallel, with a 5% cross-shard
    /// fraction.
    pub fn new(base: DaySweepConfig, shards: usize) -> Self {
        ShardSweepConfig {
            base,
            shards,
            cross_fraction: 0.05,
            parallel: true,
        }
    }
}

/// What a sharded sweep produced: the merged view plus per-shard detail.
#[derive(Debug, Clone)]
pub struct ShardSweepResult {
    /// The merged result, shaped exactly like a sequential
    /// [`DaySweepResult`] over the full grid: global site order,
    /// per-sample utilisation summed across shards, cross-shard jobs
    /// folded into the submission/outcome/timeout counts.
    pub merged: DaySweepResult,
    /// Each shard's own result, in shard order (site vectors are in the
    /// shard's local site order).
    pub per_shard: Vec<DaySweepResult>,
    /// Cross-shard jobs brokered at barriers.
    pub cross_submitted: usize,
    /// Cross-shard jobs placed (all shards of the split accepted).
    pub cross_succeeded: usize,
    /// Cross-shard jobs refused (infeasible split or a shard refusal —
    /// already-booked shards were rolled back).
    pub cross_failed: usize,
    /// Synchronization barriers executed (= cross-shard jobs in the trace).
    pub barriers: usize,
    /// Wall-clock time of the whole run (trace generation through merge).
    pub wall: Duration,
    /// Wall time spent running each shard, in shard order: its share of
    /// every phase and its final drain, summed by the lane that ran it.
    pub lane_work: Vec<Duration>,
    /// Wall time the coordinator (lane 0) spent waiting, after its own
    /// shards' share of a phase, for the other lanes to finish theirs.
    pub coordinator_wait: Duration,
    /// Wall time the coordinator spent brokering cross-shard jobs at the
    /// barriers.
    pub broker: Duration,
    /// Phases run: one per barrier plus the tail.
    pub phases: usize,
}

impl ShardSweepResult {
    /// Sustained event throughput: merged timeline events delivered per
    /// wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.merged.events_processed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Sustained job throughput per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        self.merged.submitted as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Home byte of a cross-shard job.
const CROSS: u8 = u8::MAX;

/// The shared trace cut into phases at its cross-shard jobs.  It is held
/// once: a phase is a run of it, out of which each shard picks the jobs
/// homed on it.
struct Phases {
    trace: Vec<JobSpec>,
    /// Each job's home shard, or [`CROSS`].
    homes: Vec<u8>,
    /// Where each phase ends: the index of the cross job brokered at its
    /// barrier, or `trace.len()` for the tail; one more than the barriers.
    ends: Vec<usize>,
}

impl Phases {
    fn new(trace: Vec<JobSpec>, homes: Vec<u8>) -> Self {
        let cross = homes.iter().enumerate().filter(|&(_, &h)| h == CROSS);
        let ends = cross.map(|(i, _)| i).chain([trace.len()]).collect();
        Phases { trace, homes, ends }
    }

    /// Phase `k`'s jobs homed on `shard`, in trace order.
    fn local(&self, k: usize, shard: usize) -> impl Iterator<Item = &JobSpec> {
        let start = k.checked_sub(1).map_or(0, |j| self.ends[j] + 1);
        let homes = self.homes[start..self.ends[k]]
            .iter()
            .map(|&h| usize::from(h));
        let jobs = self.trace[start..].iter().zip(homes);
        jobs.filter(move |&(_, h)| h == shard).map(|(job, _)| job)
    }

    /// The cross-shard job ending phase `k`; `None` for the tail.
    fn cross(&self, k: usize) -> Option<&JobSpec> {
        self.trace.get(self.ends[k])
    }
}

/// Cross-shard bookkeeping accumulated at barriers.
#[derive(Default)]
struct CrossStats {
    submitted: usize,
    succeeded: usize,
    failed: usize,
    timeouts: u64,
    hold_secs: f64,
}

/// What a lane runs for one shard in one phase: [`run_segment`], or a
/// test's stand-in for it.
type SegmentFn = fn(usize, &mut SweepCore, &Phases, usize);

/// Runs one shard's share of phase `k`: submit its local jobs, then
/// advance to the barrier and assert the safe-horizon contract.
fn run_segment(shard: usize, core: &mut SweepCore, phases: &Phases, k: usize) {
    for job in phases.local(k, shard) {
        core.submit(job);
    }
    if let Some(at) = phases.cross(k).map(|job| job.at) {
        core.advance_to(at);
        // The conservative-lookahead contract: with the shard advanced to
        // the barrier, its earliest pending event lies strictly after it,
        // so brokering at the barrier cannot be invalidated by shard-local
        // work.  See the `p2pmpi_simgrid::event` docs' *Parallel shards*.
        let (_, horizon) = core.tb.overlay.run_until_horizon(at);
        assert!(
            horizon.is_none_or(|h| h > at),
            "shard {shard}'s timeline violated the safe-horizon contract at barrier {at:?}"
        );
    }
}

/// Brokers one cross-shard job at a barrier (every shard already advanced
/// to `job.at`): split, all-or-nothing per-shard allocation with rollback,
/// merged costing, and each booked shard's hold through the local job's
/// path, [`SweepCore::hold`].  `global_hosts[s][h]` is shard `s`'s host `h`
/// on the global topology `costs` was built over.
fn broker_cross(
    cores: &mut [&mut SweepCore],
    job: &JobSpec,
    base: &DaySweepConfig,
    global_hosts: &[Vec<HostId>],
    costs: &mut ShapeCosts,
    stats: &mut CrossStats,
) {
    stats.submitted += 1;
    // The merged view: each quiesced shard's free cores at the barrier.
    let capacities: Vec<u32> = cores.iter().map(|core| core.free_cores()).collect();
    // A job larger than the merged view is refused before it is split
    // (`distribute` requires the capacities to cover the ranks).
    let free: u64 = capacities.iter().map(|&c| u64::from(c)).sum();
    let mut refused = free < u64::from(job.ranks);
    let split = if refused {
        Vec::new()
    } else {
        base.strategy.distribute(&capacities, job.ranks)
    };
    // All-or-nothing: each shard of the split books through its own
    // allocator, and a refusal rolls back the shards already booked.  A
    // split that books no shard (a zero-rank job, which `run_day_sweep`
    // refuses as `InvalidRequest`) is refused too.
    let mut booked = Vec::new();
    for (s, &n) in split.iter().enumerate().filter(|&(_, &n)| n > 0) {
        if refused {
            break;
        }
        let SweepCore { allocator, tb, .. } = &mut *cores[s];
        let request = JobRequest::new(n, base.strategy, job.kernel.program());
        let report = allocator.allocate(&mut tb.overlay, tb.submitter, &request);
        stats.timeouts += report.dead as u64;
        match report.outcome {
            Ok(alloc) => booked.push((s, report.key, alloc)),
            Err(_) => refused = true,
        }
    }
    if refused || booked.is_empty() {
        for (s, key, alloc) in &booked {
            for h in &alloc.hosts {
                cores[*s].tb.overlay.complete_job(h.peer, *key);
            }
        }
        // Conservation: no booked shard still runs the job under its key,
        // and no shard has fewer free cores than the merged view counted.
        #[cfg(debug_assertions)]
        for (s, core) in cores.iter().enumerate() {
            let key = booked.iter().find(|b| b.0 == s).map(|b| b.1);
            let o = &core.tb.overlay;
            let status = |p| o.node(PeerId(p)).rs.reservation(key?).map(|r| r.status);
            let running = (0..o.peer_count()).find(|&p| status(p) == Some(Running));
            assert!(
                running.is_none(),
                "shard {s}: peer {running:?} runs {key:?} after rollback"
            );
            let (free, seen) = (core.free_cores(), capacities[s]);
            assert!(
                free >= seen,
                "shard {s}: {free} free cores after rolling back {key:?}, {seen} at the barrier"
            );
        }
        stats.failed += 1;
        return;
    }
    // Cost the kernel once on the merged placement, so the job pays its
    // real cross-site communication.
    let merged = merge_parts(&booked, global_hosts, job.ranks, base.strategy);
    let makespan = costs.makespan(job.kernel, &merged);
    let hold = makespan.mul_f64(base.duration_scale);
    stats.hold_secs += hold.as_secs_f64();
    // Scatter, in shard order, from the common barrier clock.
    for (s, key, alloc) in &booked {
        cores[*s].hold(alloc, *key, hold);
    }
    stats.succeeded += 1;
}

/// The parts of one cross-shard job, booked in shard order, as one
/// placement on the global topology (`global_hosts[s][h]` is shard `s`'s
/// host `h` there): hosts mapped to their global ids, ranks and spans
/// re-offset per part.  The parts are unreplicated, so a rank and its
/// instance shift alike.
fn merge_parts(
    parts: &[(usize, ReservationKey, Allocation)],
    global_hosts: &[Vec<HostId>],
    processes: u32,
    strategy: StrategyKind,
) -> Allocation {
    let mut hosts = Vec::new();
    let mut ranks = Vec::with_capacity(processes as usize);
    for (s, _, alloc) in parts {
        let shift = ranks.len() as u32;
        hosts.extend(alloc.hosts.iter().map(|h| AllocatedHost {
            host: global_hosts[*s][h.host.0],
            span: h.span.start + shift..h.span.end + shift,
            ..h.clone()
        }));
        ranks.extend(alloc.ranks.iter().map(|&ra| RankAssignment {
            rank: ra.rank + shift,
            ..ra
        }));
    }
    let merged = Allocation {
        key: parts[0].1,
        processes,
        replication: 1,
        strategy,
        hosts,
        ranks,
    };
    debug_assert!(merged.validate().is_ok());
    merged
}

/// Epoch value no phase reaches: the sweep is over because a lane panicked.
/// The largest `u64`, so "this epoch or later" waits see it too.
const POISONED: u64 = u64::MAX;

/// How long a waiter spins before it parks.  Lanes never outnumber
/// hardware threads, so spinning costs nobody a core, while a park costs the
/// waker a system call, the sleeper a wake-up latency of the order of a
/// whole phase and, where the scheduler wakes a thread next to its waker,
/// the lane its own core; only a wait many phases long (a lopsided tail, a
/// stalled sibling) is worth sleeping through.
const SPIN_FOR: Duration = Duration::from_millis(2);

/// Spins between two `yield_now` calls of a waiter.  The yield is for the
/// case the lane count cannot rule out: the scheduler has put two lanes on
/// one core (a 2-vCPU VM kept a freshly spawned lane on its parent's core
/// for ~0.6 s), and the lane this one waits for can only run when it steps
/// aside.  The sweep then runs at one-thread speed instead of a park per
/// handoff; on a core of its own the yield returns at once.
const SPINS_PER_YIELD: u32 = 64;

/// Blocks until `cell` reads `epoch` or later (`POISONED` included) and
/// returns what it read.  The acquire load pairs with the release store of
/// whoever advances `cell`, and that thread unparks this one afterwards: a
/// wake-up between the load and the `park` leaves the park token set, so it
/// is never lost.
fn wait_for(cell: &AtomicU64, epoch: u64) -> u64 {
    let start = Instant::now();
    let mut spins = 0u32;
    let mut spinning = true;
    loop {
        let seen = cell.load(Ordering::Acquire);
        if seen >= epoch {
            return seen;
        }
        if !spinning {
            std::thread::park();
        } else if spins < SPINS_PER_YIELD {
            spins += 1;
            std::hint::spin_loop();
        } else {
            spins = 0;
            std::thread::yield_now();
            spinning = start.elapsed() < SPIN_FOR;
        }
    }
}

/// The coordinator's end of the shared epoch: releases the worker lanes
/// phase by phase, and — however the coordinator leaves, a panic of its own
/// included — poisons the epoch on drop so no worker is left waiting.
struct Gate<'a> {
    epoch: &'a AtomicU64,
    workers: Vec<Thread>,
}

impl Gate<'_> {
    fn open(&self, epoch: u64) {
        // Release: everything the coordinator did to the shards before this
        // phase (brokering, scatter-back) is visible to a worker that reads
        // `epoch` in `wait_for`.
        self.epoch.store(epoch, Ordering::Release);
        for worker in &self.workers {
            worker.unpark();
        }
    }
}

impl Drop for Gate<'_> {
    fn drop(&mut self) {
        self.open(POISONED);
    }
}

/// A worker lane's panic notice: poisons its `done` counter so the
/// coordinator stops waiting for a phase that will never complete.
struct PoisonOnPanic<'a> {
    done: &'a AtomicU64,
    coordinator: &'a Thread,
}

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.done.store(POISONED, Ordering::Release);
            self.coordinator.unpark();
        }
    }
}

/// What the lanes of one sweep share.  See "Lanes" in the module docs.
struct Lanes<'a> {
    /// Lane count; shard `s` runs on lane `s % count`.
    count: usize,
    /// One slot per shard, emptied by the `finish` of the owning lane.  The
    /// epoch order keeps every lock uncontended.
    cores: Vec<Mutex<Option<SweepCore>>>,
    phases: &'a Phases,
    segment_fn: SegmentFn,
    horizon: SimTime,
    /// `k + 1` releases phase `k`; one past the last phase releases
    /// `finish`; `POISONED` sends the workers home.
    epoch: AtomicU64,
    /// Per worker lane (lane `w + 1` at index `w`): the last epoch it
    /// completed, or `POISONED`.
    done: Vec<AtomicU64>,
    coordinator: Thread,
}

impl Lanes<'_> {
    fn shards_of(&self, lane: usize) -> impl Iterator<Item = usize> {
        (lane..self.cores.len()).step_by(self.count)
    }

    /// Runs `lane`'s shards through one phase, in shard order, adding each
    /// shard's wall time to `spent[s]`.
    fn run_phase(&self, lane: usize, k: usize, spent: &mut [Duration]) {
        for s in self.shards_of(lane) {
            let start = Instant::now();
            let mut slot = self.cores[s]
                .lock()
                .expect("a lane panicked while holding this shard");
            let core = slot.as_mut().expect("a shard is finished once, last");
            (self.segment_fn)(s, core, self.phases, k);
            spent[s] += start.elapsed();
        }
    }

    /// Drains `lane`'s shards to the horizon and closes their books; each
    /// result comes with its shard's lane work, `spent[s]` plus the drain.
    fn finish(&self, lane: usize, spent: &[Duration]) -> Vec<Finished> {
        self.shards_of(lane)
            .map(|s| {
                let start = Instant::now();
                let core = self.cores[s]
                    .lock()
                    .expect("a lane panicked while holding this shard")
                    .take()
                    .expect("a shard is finished once, last");
                let result = core.finish(self.horizon);
                (s, result, spent[s] + start.elapsed())
            })
            .collect()
    }

    /// A worker lane's whole life: every phase as it is released, then
    /// `finish`.  Returns early and empty-handed on a poisoned epoch.
    fn work(&self, lane: usize) -> Vec<Finished> {
        let done = &self.done[lane - 1];
        let _notice = PoisonOnPanic {
            done,
            coordinator: &self.coordinator,
        };
        let mut spent = vec![Duration::ZERO; self.cores.len()];
        let phases = self.phases.ends.len();
        for k in 0..phases {
            let epoch = k as u64 + 1;
            if wait_for(&self.epoch, epoch) == POISONED {
                return Vec::new();
            }
            self.run_phase(lane, k, &mut spent);
            // Release: this lane's work on its shards is visible to the
            // coordinator once it reads `done` in `wait_for`.
            done.store(epoch, Ordering::Release);
            self.coordinator.unpark();
        }
        if wait_for(&self.epoch, phases as u64 + 1) == POISONED {
            return Vec::new();
        }
        self.finish(lane, &spent)
    }
}

/// A finished shard: its index, its result and its lane work.
type Finished = (usize, DaySweepResult, Duration);

/// Runs the sharded sweep.  See the module docs for the barrier protocol
/// and the lanes; `day --shards` renders the result.
pub fn run_shard_sweep(cfg: &ShardSweepConfig) -> ShardSweepResult {
    let lanes = if cfg.parallel { hardware_threads() } else { 1 };
    run_shard_sweep_on(cfg, lanes, run_segment)
}

/// [`run_shard_sweep`] on at most `lanes` lanes (never more than shards),
/// running `segment_fn` for each shard in each phase.  `cfg.parallel` is how
/// the public function picks `lanes` and is not read here.
fn run_shard_sweep_on(
    cfg: &ShardSweepConfig,
    lanes: usize,
    segment_fn: SegmentFn,
) -> ShardSweepResult {
    let start = Instant::now();
    let base = &cfg.base;
    let plan = ShardPlan::partition(TABLE1, cfg.shards);
    let shards = plan.shard_count();

    // One shared trace, classified deterministically on its own RNG
    // substream: a home shard weighted by shard capacity, and (at > 1
    // shard) an independent cross-shard coin per job.
    let profile = burst_profile(&base.profile, &base.faults);
    let trace = day_trace(&profile, &base.mix, base.seed);
    let shard_cores = plan.cores_per_shard();
    let cumulative: Vec<usize> = (1..=shards)
        .map(|s| shard_cores[..s].iter().sum())
        .collect();
    assert!(shards < usize::from(CROSS), "a home shard must fit a byte");
    let mut class_rng = seeded(derive_seed(base.seed, 0x5C1A));
    let homes = trace
        .iter()
        .map(|_| {
            let draw = class_rng.gen_range(0..cumulative[shards - 1]);
            let home = cumulative.partition_point(|&c| c <= draw) as u8;
            let cross = shards > 1 && class_rng.gen::<f64>() < cfg.cross_fraction;
            if cross {
                CROSS
            } else {
                home
            }
        })
        .collect();
    let phases = Phases::new(trace, homes);
    let barriers = phases.ends.len() - 1;

    // One SweepCore per shard: shard 0 keeps the base seed (with one shard
    // it *is* the sequential sweep), the rest derive independent noise and
    // churn substreams.  Site-scoped faults go to the owning shard.
    let cores: Vec<SweepCore> = (0..shards)
        .map(|s| {
            let mut shard_cfg = base.clone();
            shard_cfg.faults.retain(|f| match f {
                FaultSpec::FlashCrowd { .. } | FaultSpec::SupernodeOutage { .. } => true,
                FaultSpec::SiteOutage { site, .. }
                | FaultSpec::SlowLinks { site, .. }
                | FaultSpec::PartialSite { site, .. } => {
                    plan.shard_of_site(site)
                        .unwrap_or_else(|| panic!("fault names unknown site '{site}'"))
                        == s
                }
            });
            let seed = if s == 0 {
                base.seed
            } else {
                derive_seed(base.seed, 0x5AD0 + s as u64)
            };
            let local = phases.homes.iter().filter(|&&h| usize::from(h) == s);
            SweepCore::new(&shard_cfg, plan.specs_for(s), seed, local.count() / 2)
        })
        .collect();

    // The merged view cross-shard placements are costed on, and each
    // shard's hosts on it.
    let global_topology = topology_from_specs(TABLE1);
    let global_hosts: Vec<Vec<HostId>> = cores
        .iter()
        .map(|core| {
            let host = |name: &str| global_topology.host_by_name(name).map(|h| h.id);
            let hosts = core.tb.topology.hosts().iter().map(|h| host(&h.name));
            hosts
                .collect::<Option<_>>()
                .expect("every shard host is on the grid")
        })
        .collect();
    let settings = Fig4Settings {
        seed: base.seed,
        ..Fig4Settings::default()
    }
    .modeled();
    let mut costs = ShapeCosts::new(&global_topology, &settings);

    let lane_count = lanes.clamp(1, shards);
    let lanes = Lanes {
        count: lane_count,
        cores: cores.into_iter().map(|c| Mutex::new(Some(c))).collect(),
        phases: &phases,
        segment_fn,
        // Every shard drains its tail (remaining samples, completions,
        // heartbeats) to the profile's horizon before closing its books.
        horizon: SimTime::ZERO + base.profile.horizon(),
        epoch: AtomicU64::new(0),
        done: (1..lane_count).map(|_| AtomicU64::new(0)).collect(),
        coordinator: std::thread::current(),
    };
    let lanes = &lanes;

    let mut stats = CrossStats::default();
    // The coordinator's own clocks; each lane sums its shards' work itself,
    // and the coordinator reads those sums after the join.
    let (mut coordinator_wait, mut broker) = (Duration::ZERO, Duration::ZERO);
    let mut finished: Vec<Finished> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..lanes.count)
            .map(|lane| scope.spawn(move || lanes.work(lane)))
            .collect();
        let gate = Gate {
            epoch: &lanes.epoch,
            workers: handles.iter().map(|h| h.thread().clone()).collect(),
        };
        let mut healthy = true;
        let mut spent = vec![Duration::ZERO; shards];
        for k in 0..phases.ends.len() {
            let epoch = k as u64 + 1;
            gate.open(epoch);
            lanes.run_phase(0, k, &mut spent);
            let waiting = Instant::now();
            healthy = lanes
                .done
                .iter()
                .all(|done| wait_for(done, epoch) != POISONED);
            coordinator_wait += waiting.elapsed();
            if !healthy {
                break;
            }
            if let Some(job) = phases.cross(k) {
                let brokering = Instant::now();
                let mut slots: Vec<_> = lanes
                    .cores
                    .iter()
                    .map(|m| m.lock().expect("a lane panicked while holding this shard"))
                    .collect();
                let mut cores: Vec<&mut SweepCore> = slots
                    .iter_mut()
                    .map(|slot| slot.as_mut().expect("a shard is finished once, last"))
                    .collect();
                broker_cross(&mut cores, job, base, &global_hosts, &mut costs, &mut stats);
                broker += brokering.elapsed();
            }
        }
        let mut finished = Vec::new();
        if healthy {
            gate.open(phases.ends.len() as u64 + 1);
            finished = lanes.finish(0, &spent);
        } else {
            gate.open(POISONED);
        }
        for handle in handles {
            match handle.join() {
                Ok(part) => finished.extend(part),
                // The lane's own panic, not "a scoped thread panicked".
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        assert_eq!(finished.len(), shards, "a lane left without finishing");
        finished
    });
    finished.sort_by_key(|&(s, ..)| s);
    let (per_shard, lane_work): (Vec<_>, Vec<_>) = finished
        .into_iter()
        .map(|(_, result, work)| (result, work))
        .unzip();

    let merged = merge_results(&per_shard, &stats, costs.shapes(), &global_topology);
    ShardSweepResult {
        merged,
        per_shard,
        cross_submitted: stats.submitted,
        cross_succeeded: stats.succeeded,
        cross_failed: stats.failed,
        barriers,
        wall: start.elapsed(),
        lane_work,
        coordinator_wait,
        broker,
        phases: phases.ends.len(),
    }
}

/// Folds per-shard results, cross-shard stats and the coordinator's count of
/// costed placement shapes into one sequential-shaped [`DaySweepResult`] in
/// global site order.
fn merge_results(
    per_shard: &[DaySweepResult],
    stats: &CrossStats,
    coordinator_shapes: usize,
    global_topology: &Arc<Topology>,
) -> DaySweepResult {
    let sites = global_topology.sites();
    let site_names: Vec<String> = sites.iter().map(|s| s.name.clone()).collect();
    // Shard-local site index -> global site index, by name.
    let global = |n: &String| site_names.iter().position(|g| g == n);
    let maps: Vec<Vec<usize>> = per_shard
        .iter()
        .map(|r| r.site_names.iter().map(global).collect::<Option<_>>())
        .collect::<Option<_>>()
        .expect("every shard site is on the grid");

    // Shards sample on the same cadence to the same horizon, so their
    // sample trains line up instant for instant.
    let sample_count = per_shard[0].samples.len();
    let mut samples = Vec::with_capacity(sample_count);
    for k in 0..sample_count {
        let t = per_shard[0].samples[k].t;
        let mut running = vec![0u32; site_names.len()];
        for (r, map) in per_shard.iter().zip(&maps) {
            debug_assert_eq!(r.samples[k].t, t, "shard sample trains diverged");
            for (j, &v) in r.samples[k].running.iter().enumerate() {
                running[map[j]] += v;
            }
        }
        samples.push(UtilisationSample { t, running });
    }
    let mut core_seconds = vec![0.0f64; site_names.len()];
    for (r, map) in per_shard.iter().zip(&maps) {
        for (j, &v) in r.core_seconds.iter().enumerate() {
            core_seconds[map[j]] += v;
        }
    }

    // Binned core-second timelines merge like `core_seconds`, element-wise
    // on the shared bin grid (shards share the sample period; a shard that
    // charged less far into the tail just pads with zeros).
    let bin_secs = per_shard[0].bin_secs;
    let bin_count = per_shard
        .iter()
        .map(|r| r.site_core_bins.first().map_or(0, |s| s.len()))
        .max()
        .unwrap_or(0);
    let mut site_core_bins = vec![vec![0.0f64; bin_count]; site_names.len()];
    for (r, map) in per_shard.iter().zip(&maps) {
        debug_assert_eq!(r.bin_secs, bin_secs, "shard bin widths diverged");
        for (j, series) in r.site_core_bins.iter().enumerate() {
            for (b, &v) in series.iter().enumerate() {
                site_core_bins[map[j]][b] += v;
            }
        }
    }

    let succeeded = per_shard.iter().map(|r| r.succeeded).sum::<usize>() + stats.succeeded;
    let hold_total: f64 = per_shard
        .iter()
        .map(|r| r.mean_hold_secs * r.succeeded.max(1) as f64)
        .sum::<f64>()
        + stats.hold_secs;
    DaySweepResult {
        site_names,
        samples,
        bin_secs,
        site_core_bins,
        core_seconds,
        submitted: per_shard.iter().map(|r| r.submitted).sum::<usize>() + stats.submitted,
        succeeded,
        failed: per_shard.iter().map(|r| r.failed).sum::<usize>() + stats.failed,
        timeouts: per_shard.iter().map(|r| r.timeouts).sum::<u64>() + stats.timeouts,
        mean_hold_secs: hold_total / succeeded.max(1) as f64,
        events_processed: per_shard.iter().map(|r| r.events_processed).sum(),
        virtual_end: per_shard
            .iter()
            .map(|r| r.virtual_end)
            .max()
            .expect("at least one shard"),
        events_capacity_mid: per_shard.iter().map(|r| r.events_capacity_mid).sum(),
        events_capacity_end: per_shard.iter().map(|r| r.events_capacity_end).sum(),
        rs_scratch_capacity_mid: per_shard.iter().map(|r| r.rs_scratch_capacity_mid).sum(),
        rs_scratch_capacity_end: per_shard.iter().map(|r| r.rs_scratch_capacity_end).sum(),
        jobs_killed: per_shard.iter().map(|r| r.jobs_killed).sum(),
        leaked_grants: per_shard.iter().map(|r| r.leaked_grants).sum(),
        leaked_grant_hwm: per_shard.iter().map(|r| r.leaked_grant_hwm).sum(),
        // Per-shard search contexts never merge: fold the counters when any
        // shard searched (the sharded driver defaults to fixed strategies,
        // so this is usually `None`).
        search: per_shard
            .iter()
            .filter_map(|r| r.search)
            .reduce(|mut a, b| {
                a.arrivals += b.arrivals;
                a.searched += b.searched;
                a.infeasible += b.infeasible;
                a.moves_evaluated += b.moves_evaluated;
                a.prepare_nanos += b.prepare_nanos;
                a.anneal_nanos += b.anneal_nanos;
                a
            }),
        shapes_costed: per_shard.iter().map(|r| r.shapes_costed).sum::<usize>()
            + coordinator_shapes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Fig4Kernel;
    use p2pmpi_simgrid::time::SimDuration;
    use std::cell::Cell;
    use std::sync::mpsc;

    /// The CI-smoke shape of `tests/shard_sweep.rs` (the day compressed into
    /// one virtual hour at ~1.1k jobs) over four shards.
    fn reduced(strategy: StrategyKind, cross_fraction: f64) -> ShardSweepConfig {
        let mut base = DaySweepConfig::new(strategy).compress(24.0);
        base.profile = base.profile.scaled(0.05);
        base.sample_period = SimDuration::from_secs(60);
        let mut cfg = ShardSweepConfig::new(base, 4);
        cfg.cross_fraction = cross_fraction;
        cfg
    }

    #[test]
    fn phases_cut_the_trace_at_its_cross_jobs() {
        const X: u8 = CROSS;
        // A cross job first, two adjacent cross jobs (an empty phase between
        // them) and a cross job last (an empty tail), over two shards.
        for homes in [
            vec![X, 0, 1, 0, 1],
            vec![0, 1, X, X, 1, 0],
            vec![1, 0, 0, X],
            vec![X, X, 1, X, 0, X],
        ] {
            let trace: Vec<JobSpec> = (0..homes.len() as u32)
                .map(|i| JobSpec {
                    at: SimTime::from_secs(u64::from(i)),
                    ranks: i,
                    kernel: Fig4Kernel::Ep,
                })
                .collect();
            let phases = Phases::new(trace, homes.clone());
            let count = phases.ends.len();
            let ids = |jobs: &mut dyn Iterator<Item = &JobSpec>| -> Vec<u32> {
                jobs.map(|job| job.ranks).collect()
            };
            let homed = |h: u8| -> Vec<u32> {
                let jobs = (0..).zip(&homes).filter(|&(_, &home)| home == h);
                jobs.map(|(i, _)| i).collect()
            };
            // Each shard's filtered phases, in order, are its local jobs
            // in arrival order.
            for s in 0..2 {
                let mut filtered = (0..count).flat_map(|k| phases.local(k, s));
                assert_eq!(ids(&mut filtered), homed(s as u8));
            }
            // Each cross job ends exactly one phase, in arrival order; the
            // tail ends with none.
            let mut crosses = (0..count).filter_map(|k| phases.cross(k));
            assert_eq!(ids(&mut crosses), homed(X));
            assert!(phases.cross(count - 1).is_none());
            assert_eq!(count - 1, homed(X).len(), "barriers == ends.len() - 1");
        }
    }

    #[test]
    fn every_lane_count_reproduces_parallel_false_bit_for_bit() {
        // Everything a sharded sweep computed: the merged result's and each
        // shard's fingerprint, the shard count and the cross-shard counters.
        let fingerprints = |r: &ShardSweepResult| {
            let shards = r.per_shard.iter().map(DaySweepResult::fingerprint);
            std::iter::once(r.merged.fingerprint())
                .chain(shards)
                .collect::<Vec<_>>()
        };
        let counters = |r: &ShardSweepResult| {
            let cross = [r.cross_submitted, r.cross_succeeded, r.cross_failed];
            (r.per_shard.len(), cross, r.barriers)
        };
        for strategy in [StrategyKind::Concentrate, StrategyKind::Spread] {
            for cross_fraction in [0.0, 0.05] {
                let mut cfg = reduced(strategy, cross_fraction);
                cfg.parallel = false;
                let twin = run_shard_sweep(&cfg);
                assert_eq!(twin.barriers > 0, cross_fraction > 0.0);
                let want = fingerprints(&twin);
                for lanes in 1..=4 {
                    let run = run_shard_sweep_on(&cfg, lanes, run_segment);
                    let what = format!("{strategy:?}, cross {cross_fraction}, {lanes} lane(s)");
                    assert_eq!(counters(&run), counters(&twin), "{what}");
                    for (got, want) in fingerprints(&run).iter().zip(&want) {
                        assert_eq!(got.first_divergence(want), None, "{what}");
                    }
                }
            }
        }
    }

    thread_local! {
        /// Set by a test on its own thread; a thread the sweep spawns reads
        /// the default.
        static IS_CALLER: Cell<bool> = const { Cell::new(false) };
    }

    #[test]
    fn a_zero_rank_cross_job_is_refused_without_a_panic() {
        // Every job is cross-shard, and a 0-rank split books no shard: each
        // is counted refused, as `run_day_sweep` refuses a zero-rank job.
        let mut cfg = reduced(StrategyKind::Concentrate, 1.0);
        cfg.base.mix.ranks = vec![0];
        cfg.base.profile = cfg.base.profile.scaled(0.2);
        cfg.parallel = false;
        let r = run_shard_sweep(&cfg);
        assert!(r.cross_submitted > 0);
        assert_eq!(r.cross_failed, r.cross_submitted);
        assert_eq!(r.merged.failed, r.merged.submitted);
    }

    #[test]
    fn a_cross_job_larger_than_the_merged_view_is_refused_without_a_panic() {
        // Every job is cross-shard and asks for more ranks than the reduced
        // grid has cores: each is refused before it is split, counted like
        // any other refusal.
        let mut cfg = reduced(StrategyKind::Spread, 1.0);
        let cores: usize = TABLE1.iter().map(|spec| spec.cores).sum();
        cfg.base.mix.ranks = vec![cores as u32 + 1];
        cfg.base.profile = cfg.base.profile.scaled(0.2);
        cfg.parallel = false;
        let r = run_shard_sweep(&cfg);
        assert!(r.cross_submitted > 0);
        assert_eq!(r.cross_failed, r.cross_submitted);
        assert_eq!(r.merged.failed, r.merged.submitted);
    }

    fn segment_on_caller_only(shard: usize, core: &mut SweepCore, phases: &Phases, k: usize) {
        assert!(IS_CALLER.get(), "shard {shard} ran off the calling thread");
        run_segment(shard, core, phases, k);
    }

    fn segment_on_lane_of_two(shard: usize, core: &mut SweepCore, phases: &Phases, k: usize) {
        assert_eq!(
            IS_CALLER.get(),
            shard.is_multiple_of(2),
            "shard {shard} on the wrong lane"
        );
        run_segment(shard, core, phases, k);
    }

    #[test]
    fn lane_zero_is_the_caller_and_one_lane_spawns_nothing() {
        IS_CALLER.set(true);
        let cfg = reduced(StrategyKind::Concentrate, 0.05);
        run_shard_sweep_on(&cfg, 1, segment_on_caller_only);
        run_shard_sweep_on(&cfg, 2, segment_on_lane_of_two);
    }

    fn segment_failing_on_shard_two(shard: usize, core: &mut SweepCore, phases: &Phases, k: usize) {
        if shard == 2 && phases.cross(k).is_some() {
            panic!("injected failure on shard {shard}");
        }
        run_segment(shard, core, phases, k);
    }

    #[test]
    fn a_lane_panic_reaches_the_caller_instead_of_hanging_the_sweep() {
        // Shard 2 sits on lane 0 at one and two lanes (the coordinator
        // panics, alone and with a worker waiting on it) and on a worker
        // lane at three and four (the coordinator waits on the panicker).
        for lanes in 1..=4 {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let cfg = reduced(StrategyKind::Spread, 0.05);
                let caught = std::panic::catch_unwind(|| {
                    run_shard_sweep_on(&cfg, lanes, segment_failing_on_shard_two)
                });
                let message = match caught {
                    Ok(_) => "the sweep finished".to_string(),
                    Err(payload) => *payload
                        .downcast::<String>()
                        .expect("a formatted panic carries a String"),
                };
                tx.send(message).expect("the test is still listening");
            });
            let message = rx
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("the sweep hung on a panicked lane at {lanes} lane(s)"));
            assert_eq!(message, "injected failure on shard 2", "{lanes} lane(s)");
        }
    }
}
