//! Workload generation and the day-scale sweep driver.
//!
//! The paper submits jobs one at a time; pushing the reproduction to sweep
//! scale needs a synthetic arrival process and a driver that replays it
//! against the overlay's event timeline.  Two layers live here:
//!
//! * **[`DayProfile`]** — a piecewise-constant-rate arrival profile over a
//!   day of virtual time (86,400 s), the cheap stand-in for the
//!   inhomogeneous-Poisson workloads of Hohmann's IPPP package cited in
//!   PAPERS.md.  [`DayProfile::paper_day`] encodes a bursty office-hours
//!   shape integrating to ≥ 20k jobs.
//! * **[`run_day_sweep`]** — the discrete-event driver: jobs from a
//!   [`DayProfile`] trace are submitted through the co-allocator as virtual
//!   time advances (`Overlay::run_until`), each successful job charges its
//!   *modeled* kernel duration (`p2pmpi_mpi::model` on the job's real
//!   placement) as a hold on the booked hosts, and a scheduled completion
//!   releases them — all interleaved with heartbeat rounds, cache refreshes
//!   and reservation-expiry sweeps on one timeline.  Per-site utilisation is
//!   sampled on a fixed period, reproducing Figures 2–3 at sweep scale.
//!   The model runs once per distinct placement *shape*, not once per job
//!   (`crate::experiments::ShapeCosts`, one per sweep core; its contract
//!   is in that module's docs): [`DaySweepResult::shapes_costed`] of the
//!   `succeeded` jobs were costed, the others answered from the memo, and
//!   debug builds re-cost every one of those to check it.
//!
//! What a sweep computed is compared through one value,
//! [`DaySweepResult::fingerprint`]: every golden, every bit-identity test
//! and `day --shards N --baseline` ask it whether two sweeps had the same
//! outcome, and it names the first stage where they did not.

use crate::experiments::{Fig4Kernel, Fig4Settings, ShapeCosts};
use crate::search::{OnlineSearchParams, OnlineSearchStats, SearchContext};
use p2pmpi_core::prelude::*;
use p2pmpi_grid5000::testbed::{testbed_from_specs, Grid5000Testbed};
use p2pmpi_grid5000::{ClusterSpec, TABLE1};
use p2pmpi_overlay::churn::{flapping_churn, ChurnSchedule};
use p2pmpi_overlay::{Overlay, PeerId};
use p2pmpi_simgrid::event::QueueKind;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::rngutil::{derive_seed, seeded};
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::HostId;
use rand::Rng;
use std::fmt;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// DayProfile: piecewise-constant-rate arrivals over a day
// ---------------------------------------------------------------------------

/// One segment of a [`DayProfile`]: from `start` (inclusive) until the next
/// segment's start, arrivals occur at `rate_per_sec`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RateSegment {
    /// Offset of the segment from the start of the trace.
    pub(crate) start: SimDuration,
    /// Arrival rate within the segment (jobs per virtual second).
    pub(crate) rate_per_sec: f64,
}

/// A piecewise-constant-rate arrival profile over a bounded horizon.
///
/// Within each segment arrivals form a homogeneous Poisson process at the
/// segment's rate; by the memorylessness of the exponential this composes
/// into an (inhomogeneous, piecewise-constant) Poisson process over the
/// whole horizon.  Sampling is exact per segment, so the expected total
/// arrival count is the integral of the rate function
/// (`DayProfile::expected_jobs`).
#[derive(Debug, Clone)]
pub struct DayProfile {
    segments: Vec<RateSegment>,
    horizon: SimDuration,
}

/// Seconds in a virtual day.
pub(crate) const DAY_SECS: u64 = 86_400;

impl DayProfile {
    /// Builds a profile from `(start, rate)` segments over `horizon`.
    /// Segments must start at zero, be strictly ascending, and stay inside
    /// the horizon; rates must be non-negative and finite.
    fn piecewise(segments: Vec<RateSegment>, horizon: SimDuration) -> Self {
        assert!(!segments.is_empty(), "a profile needs at least one segment");
        assert!(
            segments[0].start.is_zero(),
            "the first segment must start at zero"
        );
        for pair in segments.windows(2) {
            assert!(
                pair[0].start < pair[1].start,
                "segment starts must be strictly ascending"
            );
        }
        let last = segments.last().expect("non-empty");
        assert!(
            last.start < horizon,
            "segments must start inside the horizon"
        );
        for s in &segments {
            assert!(
                s.rate_per_sec >= 0.0 && s.rate_per_sec.is_finite(),
                "segment rates must be non-negative and finite"
            );
        }
        DayProfile { segments, horizon }
    }

    /// A constant-rate profile (a homogeneous Poisson day).
    #[cfg(test)]
    pub(crate) fn constant(rate_per_sec: f64, horizon: SimDuration) -> Self {
        Self::piecewise(
            vec![RateSegment {
                start: SimDuration::ZERO,
                rate_per_sec,
            }],
            horizon,
        )
    }

    /// The bursty office-hours day the Figure 2–3 sweep replays: quiet
    /// night, morning ramp, a strong late-morning burst, a lunch dip, a long
    /// afternoon burst and an evening decay over 86,400 virtual seconds.
    /// Integrates to ≈ 21.7k jobs — the "day of submissions" scale the
    /// ROADMAP north-star asks for.
    pub fn paper_day() -> Self {
        let hour = |h: u64| SimDuration::from_secs(h * 3600);
        let seg = |h: u64, rate_per_sec: f64| RateSegment {
            start: hour(h),
            rate_per_sec,
        };
        Self::piecewise(
            vec![
                seg(0, 0.05),  // night
                seg(6, 0.15),  // morning ramp
                seg(9, 0.55),  // late-morning burst
                seg(12, 0.25), // lunch dip
                seg(13, 0.50), // afternoon burst
                seg(17, 0.30), // evening
                seg(20, 0.12), // night decay
            ],
            SimDuration::from_secs(DAY_SECS),
        )
    }

    /// The trace horizon.
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// The arrival rate at offset `t`.
    fn rate_at(&self, t: SimDuration) -> f64 {
        self.segments
            .iter()
            .rev()
            .find(|s| s.start <= t)
            .map(|s| s.rate_per_sec)
            .unwrap_or(0.0)
    }

    /// Each segment with the offset where it ends.
    fn spans(&self) -> impl Iterator<Item = (&RateSegment, SimDuration)> {
        let ends = self.segments[1..].iter().map(|n| n.start);
        self.segments.iter().zip(ends.chain([self.horizon]))
    }

    /// Expected number of arrivals over the horizon (the integral of the
    /// rate function).
    fn expected_jobs(&self) -> f64 {
        self.spans()
            .map(|(s, end)| s.rate_per_sec * end.saturating_sub(s.start).as_secs_f64())
            .sum()
    }

    /// What [`day_trace`] reserves: the expected count plus six standard
    /// deviations of the Poisson count, plus 16.
    fn trace_capacity(&self) -> usize {
        let expected = self.expected_jobs();
        (expected + 6.0 * expected.sqrt()) as usize + 16
    }

    /// Multiplies every segment rate by `factor` (expected jobs scale the
    /// same way).
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor >= 0.0 && factor.is_finite(), "scale must be finite");
        for s in &mut self.segments {
            s.rate_per_sec *= factor;
        }
        self
    }

    /// Compresses the profile in time by `factor`: segment boundaries and
    /// the horizon shrink by `factor` while rates grow by it, so the
    /// expected job count and the burst *shape* are preserved in `1/factor`
    /// of the virtual time.  This is how CI replays the whole day's shape in
    /// one virtual hour.
    pub(crate) fn compressed(mut self, factor: f64) -> Self {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "compression must be >= 1"
        );
        for s in &mut self.segments {
            s.start = SimDuration::from_secs_f64(s.start.as_secs_f64() / factor);
            s.rate_per_sec *= factor;
        }
        self.horizon = SimDuration::from_secs_f64(self.horizon.as_secs_f64() / factor);
        self
    }

    /// Tiles the profile `times` times end to end: copy `i`'s segments are
    /// offset by `i × horizon`, so a day profile becomes `times` identical
    /// days and the expected job count scales by `times`.  Composes with
    /// [`DayProfile::scaled`] (traffic multiplier) and
    /// `DayProfile::compressed` — the week-scale sweep driver builds its
    /// trace as `paper_day().repeated(7).scaled(10.0)` and compresses for
    /// CI.  Offsets are computed in integer nanoseconds, so the tiling is
    /// exact.
    pub fn repeated(&self, times: usize) -> Self {
        assert!(times >= 1, "repeating zero times would erase the profile");
        let horizon_ns = self.horizon.as_nanos();
        let mut segments = Vec::with_capacity(self.segments.len() * times);
        for i in 0..times {
            let offset = SimDuration::from_nanos(horizon_ns * i as u64);
            segments.extend(self.segments.iter().map(|s| RateSegment {
                start: s.start + offset,
                rate_per_sec: s.rate_per_sec,
            }));
        }
        Self::piecewise(segments, SimDuration::from_nanos(horizon_ns * times as u64))
    }

    /// A week of paper days: [`DayProfile::paper_day`] tiled seven times
    /// (≈ 152k expected jobs at 1× traffic; the ROADMAP's production-scale
    /// target runs it at 10×).  Its trace holds 16 bytes per job, 2.4 MB at
    /// 1×, plus one byte per job when sharded.
    pub fn week() -> Self {
        Self::paper_day().repeated(7)
    }

    /// Splices a flash crowd into the profile: between `at` and
    /// `at + duration` every rate is multiplied by `factor`, while the rest
    /// of the day is untouched.  The burst is expressed purely as extra
    /// piecewise segments — a boundary segment at `at` carrying
    /// `rate_at(at) * factor`, scaled copies of any interior segments, and a
    /// resume segment at the burst's end restoring the underlying rate — so
    /// the result is a plain [`DayProfile`] that composes with
    /// [`DayProfile::scaled`] and [`DayProfile::compressed`] and samples
    /// through the exact same per-segment machinery as the base day.
    fn with_burst(self, at: SimDuration, duration: SimDuration, factor: f64) -> Self {
        assert!(
            factor >= 0.0 && factor.is_finite(),
            "burst factor must be finite and non-negative"
        );
        assert!(!duration.is_zero(), "a burst needs a non-zero duration");
        assert!(at < self.horizon, "the burst must start inside the horizon");
        let end = (at + duration).min(self.horizon);
        let mut segments: Vec<RateSegment> = Vec::with_capacity(self.segments.len() + 2);
        // Untouched prefix.
        segments.extend(self.segments.iter().copied().filter(|s| s.start < at));
        // Burst onset: the underlying rate at `at`, amplified.
        segments.push(RateSegment {
            start: at,
            rate_per_sec: self.rate_at(at) * factor,
        });
        // Interior boundaries keep their position, amplified.
        segments.extend(
            self.segments
                .iter()
                .filter(|s| at < s.start && s.start < end)
                .map(|s| RateSegment {
                    start: s.start,
                    rate_per_sec: s.rate_per_sec * factor,
                }),
        );
        // Resume the underlying rate (unless the burst runs to the horizon
        // or an existing boundary already starts exactly there).
        if end < self.horizon && !self.segments.iter().any(|s| s.start == end) {
            segments.push(RateSegment {
                start: end,
                rate_per_sec: self.rate_at(end),
            });
        }
        // Untouched tail.
        segments.extend(self.segments.iter().copied().filter(|s| s.start >= end));
        // Re-validate through the constructor: the splice must preserve the
        // strictly-ascending invariant or it is a bug worth a panic.
        Self::piecewise(segments, self.horizon)
    }
}

// ---------------------------------------------------------------------------
// Job mix and traces
// ---------------------------------------------------------------------------

/// What each arriving job asks for.
#[derive(Debug, Clone)]
pub struct JobMix {
    /// Rank counts drawn uniformly per job.  The default palette spans
    /// "fits on two Nancy nodes" (8) to "must cross sites under spread"
    /// (128), so the day trace exercises the same demand range whose
    /// endpoints Figures 2–3 plot.
    pub ranks: Vec<u32>,
    /// Fraction of jobs running IS (the rest run EP).
    pub(crate) is_fraction: f64,
    /// Largest rank count an IS job uses; draws above it run EP instead.
    /// Mirrors the paper's Figure 4, whose IS panel stops at 128 ranks
    /// while EP continues.  It no longer bounds what a *job* costs the
    /// sweep, only what a placement *shape* costs once (`ShapeCosts`): an
    /// IS shape's twenty rings are O(ranks²) cells each (a pass steps two
    /// of them and fast-forwards the rest), so costing one
    /// (`run_kernel_on_placement`, cached schedule, concentrate or spread on
    /// the Grid'5000 topology, 2-vCPU x86 VM, release, best of five
    /// batches) takes ~3 µs at 8 ranks and 6–7.5 µs at 32 — against
    /// 0.6–5.6 µs for EP at 8–128 — and would take 36–45 µs at 128 (5.7 ms
    /// as a `ModelComm` replay), a hundred or so times a day.  The value
    /// stays because raising it changes which jobs run IS, hence every hold
    /// and every committed fingerprint.
    pub(crate) is_max_ranks: u32,
}

impl Default for JobMix {
    fn default() -> Self {
        JobMix {
            ranks: vec![8, 32, 64, 128],
            is_fraction: 0.3,
            is_max_ranks: 32,
        }
    }
}

/// One job of a submission trace.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Submission instant.
    pub at: SimTime,
    /// Number of MPI processes demanded.
    pub ranks: u32,
    /// The NAS kernel the job runs (determines its modeled duration).
    pub kernel: Fig4Kernel,
}

/// Materialises a full submission trace: arrival times from `profile`, job
/// shapes from `mix`, both deterministic in `seed` (independent substreams,
/// so changing the mix does not perturb the arrival instants).  Arrivals
/// are sorted, in the horizon and exact per segment.  One pass draws each
/// job's shape with its arrival into one `Vec` reserved six standard
/// deviations above the Poisson mean: 16 bytes per job.
pub fn day_trace(profile: &DayProfile, mix: &JobMix, seed: u64) -> Vec<JobSpec> {
    assert!(
        !mix.ranks.is_empty(),
        "the job mix needs at least one rank count"
    );
    let mut arrival_rng = seeded(derive_seed(seed, 0xA221));
    let mut rng = seeded(derive_seed(seed, 0x31B5));
    let mut trace = Vec::with_capacity(profile.trace_capacity());
    for (s, end) in profile.spans().filter(|(s, _)| s.rate_per_sec > 0.0) {
        let (mut t, end) = (s.start.as_secs_f64(), end.as_secs_f64());
        loop {
            let u: f64 = arrival_rng.gen();
            t += -(1.0 - u).ln() / s.rate_per_sec;
            if t >= end {
                break;
            }
            let ranks = mix.ranks[rng.gen_range(0..mix.ranks.len())];
            let kernel = if ranks <= mix.is_max_ranks && rng.gen::<f64>() < mix.is_fraction {
                Fig4Kernel::Is
            } else {
                Fig4Kernel::Ep
            };
            let at = SimTime::from_secs_f64(t);
            trace.push(JobSpec { at, ranks, kernel });
        }
    }
    trace
}

// ---------------------------------------------------------------------------
// The day-scale sweep driver
// ---------------------------------------------------------------------------

/// Flapping-churn fault injection for a day sweep (see
/// [`p2pmpi_overlay::churn::flapping_churn`]).
#[derive(Debug, Clone, Copy)]
pub struct DeadPeerChurn {
    /// Fraction of peers that flap (the submitter is never selected —
    /// it is excluded from the candidate list).
    pub fraction: f64,
    /// How long a flapping peer stays dead per cycle.
    pub downtime: SimDuration,
    /// How long it stays alive per cycle.
    pub uptime: SimDuration,
}

impl Default for DeadPeerChurn {
    /// ~25% of peers flapping on a 5-minute-down / 10-minute-up cycle:
    /// roughly 8% of the overlay is dead at any instant, and every refresh
    /// keeps re-introducing flapped peers to the submitter's cache.
    fn default() -> Self {
        DeadPeerChurn {
            fraction: 0.25,
            downtime: SimDuration::from_secs(300),
            uptime: SimDuration::from_secs(600),
        }
    }
}

/// One named adversity injected into a day sweep.  Times are offsets on
/// the *uncompressed* day; [`DaySweepConfig::compress`] scales them together
/// with everything else so a compressed run sees the same relative shape.
/// Faults compose by listing them in [`DaySweepConfig::faults`]: each entry
/// is installed on its own, on the one timeline.
#[derive(Debug, Clone)]
pub enum FaultSpec {
    /// Every peer of `site` crashes at `at` and recovers `duration` later,
    /// together (a switch or power failure, not independent flapping).  The
    /// submitter is always spared — its host doubles as the supernode's.
    SiteOutage {
        /// Site name as in the topology (e.g. `"rennes"`).
        site: String,
        /// Outage onset.
        at: SimDuration,
        /// Outage length.
        duration: SimDuration,
    },
    /// Arrival rates multiply by `factor` between `at` and `at + duration`
    /// (spliced into the profile via `DayProfile::with_burst`).
    FlashCrowd {
        /// Burst onset.
        at: SimDuration,
        /// Burst length.
        duration: SimDuration,
        /// Rate multiplier (10.0 = a 10× flash crowd).
        factor: f64,
    },
    /// Every transfer touching `site` is slowed by `latency_factor` between
    /// `at` and `at + duration` (congestion or a failing uplink).
    SlowLinks {
        /// Site name as in the topology.
        site: String,
        /// Degradation onset.
        at: SimDuration,
        /// Degradation length.
        duration: SimDuration,
        /// Latency multiplier (must be ≥ 1).
        latency_factor: f64,
    },
    /// The supernode crashes at `at` (volatile registry lost; cache
    /// refreshes fail and the submitter brokers from its stale view) and
    /// restarts `duration` later (heartbeats resync the registry).
    SupernodeOutage {
        /// Crash instant.
        at: SimDuration,
        /// Downtime before the restart.
        duration: SimDuration,
    },
    /// A rack browns out: the first `hosts` hosts of `site` (topology
    /// order — racks are contiguous in the host list) crash together at
    /// `at` and recover `duration` later.  The site itself stays up, so
    /// brokering keeps landing work on the surviving racks instead of
    /// writing the whole site off.
    PartialSite {
        /// Site name as in the topology.
        site: String,
        /// How many of the site's hosts go down (clamped to the site size).
        hosts: usize,
        /// Brown-out onset.
        at: SimDuration,
        /// Brown-out length.
        duration: SimDuration,
    },
}

impl FaultSpec {
    /// The fault's onset and length: every fault has exactly one of each.
    fn window_mut(&mut self) -> (&mut SimDuration, &mut SimDuration) {
        match self {
            FaultSpec::SiteOutage { at, duration, .. }
            | FaultSpec::FlashCrowd { at, duration, .. }
            | FaultSpec::SlowLinks { at, duration, .. }
            | FaultSpec::SupernodeOutage { at, duration }
            | FaultSpec::PartialSite { at, duration, .. } => (at, duration),
        }
    }

    /// Compiles the fault into the churn events it puts on `overlay`'s
    /// timeline, in the order [`Overlay::schedule_churn`] queues them.
    /// Both outage kinds take one site-host walk: every peer of the site
    /// (a whole site: no limit) or its first `hosts` (a rack brown-out)
    /// crashes at the onset and recovers at the end, `spare` excepted (the
    /// submitter, whose host doubles as the supernode's).  A slow-link
    /// window sets the site's latency factor and then 1.0; a supernode
    /// outage crashes and restarts it.  A flash crowd yields nothing: it
    /// reshapes the arrivals instead ([`burst_profile`]).
    ///
    /// Panics on an authoring error: an unknown site, a zero duration, a
    /// latency factor below 1 or an onset in the past.
    pub(crate) fn churn(&self, overlay: &Overlay, spare: PeerId) -> ChurnSchedule {
        let mut schedule = ChurnSchedule::new();
        let topology = overlay.topology();
        let site_id = |name: &str| {
            topology
                .site_by_name(name)
                .unwrap_or_else(|| panic!("unknown site '{name}'"))
                .id
        };
        let (at, duration) = match *self {
            FaultSpec::SiteOutage { at, duration, .. }
            | FaultSpec::FlashCrowd { at, duration, .. }
            | FaultSpec::SlowLinks { at, duration, .. }
            | FaultSpec::SupernodeOutage { at, duration }
            | FaultSpec::PartialSite { at, duration, .. } => (at, duration),
        };
        let (at, end) = (SimTime::ZERO + at, SimTime::ZERO + at + duration);
        let outage = match self {
            FaultSpec::FlashCrowd { .. } => return schedule,
            FaultSpec::SiteOutage { site, .. } => Some((site_id(site), usize::MAX)),
            FaultSpec::PartialSite { site, hosts, .. } => Some((site_id(site), *hosts)),
            FaultSpec::SlowLinks {
                site,
                latency_factor,
                ..
            } => {
                assert!(
                    *latency_factor >= 1.0,
                    "a factor below 1 would speed links up"
                );
                let site = site_id(site);
                schedule
                    .site_latency(site, *latency_factor, at)
                    .site_latency(site, 1.0, end);
                None
            }
            FaultSpec::SupernodeOutage { .. } => {
                schedule.supernode_down(at).supernode_up(end);
                None
            }
        };
        if let Some((site, limit)) = outage {
            let peers = topology
                .hosts_at_site(site)
                .filter_map(|host| overlay.peer_on_host(host.id))
                .filter(|&peer| peer != spare)
                .take(limit);
            for peer in peers {
                schedule.crash(peer, at).recover(peer, end);
            }
        }
        assert!(!duration.is_zero(), "a fault needs a non-zero duration");
        assert!(
            at >= overlay.now(),
            "a fault's onset must not be in the past"
        );
        schedule
    }
}

/// Configuration of one [`run_day_sweep`] run.
#[derive(Debug, Clone)]
pub struct DaySweepConfig {
    /// Allocation strategy every job uses.
    pub strategy: StrategyKind,
    /// Inert: the timeline has one queue structure, and the driver never
    /// reads this.  Kept because the benchmark passes it to its testbed
    /// boot and queue probes (`benchmark/README.md`, "The crate surface the
    /// benchmark calls").
    pub queue: QueueKind,
    /// Master seed (testbed noise, arrivals, job mix, churn phases).
    pub seed: u64,
    /// The arrival profile to replay.
    pub profile: DayProfile,
    /// The job-shape mix.
    pub mix: JobMix,
    /// Factor applied to each job's modeled kernel duration before charging
    /// it as a hold (1.0 charges the modeled makespan verbatim).
    pub duration_scale: f64,
    /// Period of the per-site utilisation samples.
    pub sample_period: SimDuration,
    /// Optional flapping churn: a booked peer that is dead makes its
    /// reservation request wait out a full `rs_timeout`.
    pub churn: Option<DeadPeerChurn>,
    /// Period of the submitter's supernode cache refresh (how quickly
    /// flapped peers re-enter the booking order after step 5 dropped them).
    pub cache_refresh: SimDuration,
    /// Inert: an exchange whose reply is bound to beat the timeout is
    /// always decided at send, and the driver never reads this.  Kept for
    /// the benchmark's traced driver, which forwards it to the no-op
    /// `Overlay::set_rs_timeout_fast_path`.
    pub rs_timeout_fast_path: bool,
    /// Named adversities injected into the day (site outages, flash crowds,
    /// link degradations, supernode crashes).  Times are on the uncompressed
    /// day; [`DaySweepConfig::compress`] scales them.
    pub faults: Vec<FaultSpec>,
    /// When on, a crashing peer kills the jobs running on it (their
    /// completions are revoked in reservation-key order and every
    /// participant is freed).  Off by default: the baseline day pays zero
    /// tracking overhead.
    pub fail_jobs_on_crash: bool,
    /// Inert: the driver reaps no tombstones (brokering rounds leave none)
    /// and never reads this.  Kept for the benchmark's traced driver, which
    /// still reaps past it through `Overlay::reap_events`,
    /// outcome-invariantly.
    pub reap_threshold: usize,
    /// Per-arrival annealing move budget of the online search (only read
    /// when `strategy` is [`StrategyKind::Searched`]).
    pub search_moves: u64,
}

impl DaySweepConfig {
    /// The day-scale defaults: the paper-day profile, the default job mix,
    /// 5-minute utilisation samples, no churn.
    pub fn new(strategy: StrategyKind) -> Self {
        DaySweepConfig {
            strategy,
            queue: QueueKind::default(),
            seed: 2008,
            profile: DayProfile::paper_day(),
            mix: JobMix::default(),
            duration_scale: 1.0,
            sample_period: SimDuration::from_secs(300),
            churn: None,
            cache_refresh: SimDuration::from_secs(600),
            rs_timeout_fast_path: true,
            faults: Vec::new(),
            fail_jobs_on_crash: false,
            reap_threshold: 8192,
            search_moves: 300,
        }
    }

    /// The churn-heavy dead-peer day: the paper-day trace with
    /// [`DeadPeerChurn::default`] flapping and a fast (2-minute) cache
    /// refresh, so the submitter keeps re-learning — and re-booking — peers
    /// that are currently dead.  Every such booking times out, and the
    /// submitter waits the `rs_timeout` out, while the alive peers'
    /// exchanges are decided at send as on every other day.
    pub fn dead_peer_day(strategy: StrategyKind) -> Self {
        DaySweepConfig {
            churn: Some(DeadPeerChurn::default()),
            cache_refresh: SimDuration::from_secs(120),
            ..Self::new(strategy)
        }
    }

    /// Compresses the whole scenario in time by `factor`: the arrival
    /// profile (`DayProfile::compressed`), the churn cycle, the
    /// cache-refresh period and the sample period all shrink together, so
    /// the day's per-job pressure (timeouts per job, refusals, burst shape)
    /// is preserved in `1/factor` of the virtual time.  `rs_timeout` is a
    /// protocol constant and does *not* compress: relative to a compressed
    /// day the 2 s timeout window widens, so a dead booking stalls a larger
    /// share of the day.
    pub fn compress(mut self, factor: f64) -> Self {
        let shrink =
            |d: SimDuration| SimDuration::from_secs_f64((d.as_secs_f64() / factor).max(1.0));
        self.profile = self.profile.compressed(factor);
        self.sample_period = shrink(self.sample_period);
        self.cache_refresh = shrink(self.cache_refresh);
        if let Some(churn) = &mut self.churn {
            churn.downtime = shrink(churn.downtime);
            churn.uptime = shrink(churn.uptime);
        }
        // Fault times shrink too; rates and factors are dimensionless.
        for fault in &mut self.faults {
            let (at, duration) = fault.window_mut();
            *at = shrink(*at);
            *duration = shrink(*duration);
        }
        self
    }
}

/// One per-site utilisation sample.
#[derive(Debug, Clone)]
pub struct UtilisationSample {
    /// Sample instant.
    pub t: SimTime,
    /// Running processes per site (indexed like `site_names`).
    pub running: Vec<u32>,
}

/// Everything a day-scale sweep produced.
#[derive(Debug, Clone)]
pub struct DaySweepResult {
    /// Site names, in topology order (indexes all per-site vectors).
    pub site_names: Vec<String>,
    /// Per-site running-process samples on the configured period.
    pub samples: Vec<UtilisationSample>,
    /// Core-seconds of work charged per site over the whole trace.
    pub core_seconds: Vec<f64>,
    /// Width of the [`DaySweepResult::site_core_bins`] bins, in seconds
    /// (the configured sample period).
    pub(crate) bin_secs: f64,
    /// Per-site core-seconds timeline: `site_core_bins[site][b]` is the
    /// work charged to `site` inside virtual-time bin
    /// `[b·bin_secs, (b+1)·bin_secs)`.  Each hold is spread across the
    /// bins it overlaps at charge time, so the series is exact (its sum
    /// equals `core_seconds`) and deterministic — this is what the
    /// recovery-time-to-95% gates measure against.
    pub(crate) site_core_bins: Vec<Vec<f64>>,
    /// Jobs submitted.
    pub submitted: usize,
    /// Jobs that allocated and ran.
    pub succeeded: usize,
    /// Jobs refused (infeasible or start failures under load/churn).
    pub failed: usize,
    /// Reservation timeouts observed by the submitters (dead booked peers)
    /// across the whole trace — each one waited out a full `rs_timeout`.
    pub timeouts: u64,
    /// Mean hold duration charged per successful job (seconds).
    pub mean_hold_secs: f64,
    /// Messages delivered on the overlay timeline, queued or not: every
    /// popped event plus every message of a brokering round, which the
    /// round delivers without a queue event (`Overlay::events_processed`).
    pub events_processed: u64,
    /// The virtual clock when the trace ended.
    pub virtual_end: SimTime,
    /// Timeline payload-slot capacity sampled halfway through the trace
    /// (after the morning burst set the high-water mark) and at the end.
    /// An equal pair means no event storage was allocated after the
    /// mid-trace sample.
    pub events_capacity_mid: usize,
    /// See [`DaySweepResult::events_capacity_mid`].
    pub events_capacity_end: usize,
    /// Capacity of the overlay's round buffer at the same two instants
    /// (`Overlay::rs_scratch_capacity`): every RS and start round walks
    /// its messages there, so it must reach its high-water mark, the
    /// largest round's message count, and not re-allocate once warm.
    pub rs_scratch_capacity_mid: usize,
    /// See [`DaySweepResult::rs_scratch_capacity_mid`].
    pub rs_scratch_capacity_end: usize,
    /// Running jobs killed by peer crashes (only non-zero when
    /// [`DaySweepConfig::fail_jobs_on_crash`] is on).
    pub jobs_killed: u64,
    /// Reservation grants whose reply lost the race to its timeout (each
    /// one eagerly released one transfer later; see the overlay docs).
    pub leaked_grants: u64,
    /// High-water mark of simultaneously outstanding leaked grants.
    pub leaked_grant_hwm: u64,
    /// Counters of the online search (`Some` only when the sweep ran with
    /// [`StrategyKind::Searched`]): arrivals searched, moves evaluated and
    /// wall-clock phase timings.
    pub search: Option<OnlineSearchStats>,
    /// Distinct placement shapes among the `succeeded` jobs — how many of
    /// them the analytical model actually costed (`ShapeCosts`); the rest
    /// were answered from an earlier job of their shape.  A sharded sweep
    /// sums its shards' counts and the coordinator's.
    pub shapes_costed: usize,
}

impl DaySweepResult {
    /// True if the event queue's and the brokering scratch's capacities
    /// sampled at mid-trace equal those sampled at the end: neither grew in
    /// the second half of the trace.  Only that window is compared, so a
    /// fault or burst that lands after the mid-trace sample can read
    /// `false` on a sweep that allocates nothing per job: at CI scale the
    /// flash crowd of `outage_in_crowd` and `outage_in_crowd_worst` grows
    /// the event queue from 8 to 16 slots (`events_capacity` `[8, 16]`).
    pub fn steady_state_alloc_free(&self) -> bool {
        self.events_capacity_mid == self.events_capacity_end
            && self.rs_scratch_capacity_mid == self.rs_scratch_capacity_end
    }
}

impl DaySweepResult {
    /// Grid-total core-seconds per time bin (sites summed), the utilisation
    /// timeline the recovery metric compares against its twin's.
    pub(crate) fn total_core_bins(&self) -> Vec<f64> {
        let bins = self.site_core_bins.first().map_or(0, |s| s.len());
        let mut total = vec![0.0f64; bins];
        for series in &self.site_core_bins {
            for (t, v) in total.iter_mut().zip(series) {
                *t += v;
            }
        }
        total
    }

    /// Core-seconds `site` was charged inside `[start_secs, end_secs)`,
    /// read off the binned timeline (bins partially overlapping the window
    /// count in full — callers align windows on bin edges for exactness).
    pub(crate) fn site_core_seconds_between(
        &self,
        site: usize,
        start_secs: f64,
        end_secs: f64,
    ) -> f64 {
        let w = self.bin_secs;
        let series = &self.site_core_bins[site];
        let first = (start_secs / w).floor().max(0.0) as usize;
        let last = ((end_secs / w).ceil() as usize).min(series.len());
        series[first.min(last)..last].iter().sum()
    }

    /// Share of the total charged work each site carried, in site order.
    pub fn site_work_share(&self) -> Vec<f64> {
        let total: f64 = self.core_seconds.iter().sum();
        self.core_seconds
            .iter()
            .map(|&c| if total > 0.0 { c / total } else { 0.0 })
            .collect()
    }

    /// What this sweep computed, staged in pipeline order (see
    /// [`SweepFingerprint`]).  Two results are the same outcome exactly
    /// when their fingerprints are equal.
    pub fn fingerprint(&self) -> SweepFingerprint {
        let mut placements = format!(
            "succeeded={} failed={} shapes_costed={}",
            self.succeeded, self.failed, self.shapes_costed
        );
        if let Some(s) = &self.search {
            placements += &format!(
                " arrivals={} searched={} infeasible={} moves={}",
                s.arrivals, s.searched, s.infeasible, s.moves_evaluated
            );
        }

        // Bulk data as 64-bit words, every variable-length run prefixed
        // with its length so that no two layouts digest alike.
        let bits = |v: &[f64]| {
            let words = v.iter().map(|x| x.to_bits());
            std::iter::once(v.len() as u64)
                .chain(words)
                .collect::<Vec<_>>()
        };
        let mut ledgers = vec![self.site_names.len() as u64];
        for name in &self.site_names {
            ledgers.push(name.len() as u64);
            ledgers.extend(name.bytes().map(u64::from));
        }
        ledgers.extend(bits(&self.core_seconds));
        ledgers.push(self.bin_secs.to_bits());
        for series in &self.site_core_bins {
            ledgers.extend(bits(series));
        }
        let mut samples = Vec::new();
        for s in &self.samples {
            samples.extend([s.t.as_nanos(), s.running.len() as u64]);
            samples.extend(s.running.iter().map(|&r| u64::from(r)));
        }
        let digest = |words: &[u64]| fnv1a(words.iter().flat_map(|w| w.to_le_bytes()));

        SweepFingerprint {
            stages: [
                format!("submitted={}", self.submitted),
                placements,
                format!("mean_hold_bits={:016x}", self.mean_hold_secs.to_bits()),
                format!(
                    "core_seconds_bits={:016x} fnv={:016x}",
                    self.core_seconds.iter().sum::<f64>().to_bits(),
                    digest(&ledgers)
                ),
                format!("n={} fnv={:016x}", self.samples.len(), digest(&samples)),
                format!(
                    "events_processed={} virtual_end_ns={} timeouts={} jobs_killed={} \
                     leaked_grants={} leaked_grant_hwm={}",
                    self.events_processed,
                    self.virtual_end.as_nanos(),
                    self.timeouts,
                    self.jobs_killed,
                    self.leaked_grants,
                    self.leaked_grant_hwm
                ),
            ],
        }
    }
}

/// FNV-1a, 64-bit: a fixed published function, so a digest is the same on
/// every toolchain and platform (std's `DefaultHasher` promises neither).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The stages of a [`SweepFingerprint`], in pipeline order.
const STAGES: [&str; 6] = [
    "trace",
    "placements",
    "holds",
    "ledgers",
    "samples",
    "timeline",
];

/// The one definition of "same outcome" for a sweep: what a
/// [`DaySweepResult`] computed, in six stages in pipeline order.
///
/// | stage | carries |
/// |---|---|
/// | `trace` | `submitted` |
/// | `placements` | `succeeded`, `failed`, `shapes_costed`; under the searched strategy also the search's arrivals, plans, infeasible arrivals and moves |
/// | `holds` | the bits of `mean_hold_secs` |
/// | `ledgers` | the bits of the `core_seconds` sum; a digest of the site names, each site's `core_seconds`, `bin_secs` and every `site_core_bins` value, bit for bit |
/// | `samples` | the sample count; a digest of every `(t, running)` |
/// | `timeline` | `events_processed`, `virtual_end`, `timeouts`, `jobs_killed`, `leaked_grants`, `leaked_grant_hwm` |
///
/// Scalars print in clear, bulk data as an FNV-1a 64 digest.  Excluded on
/// purpose: the search's wall-clock timings and the `*_capacity_*` allocation
/// diagnostics (how the simulator stored the outcome, not the outcome).
///
/// It prints as one line, `stage[key=value ...]` per stage, and parses back
/// from it, so a golden is a fingerprint line.  When two fingerprints
/// differ, [`SweepFingerprint::first_divergence`] names the earliest stage
/// that does: where the difference came from, not only that there is one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFingerprint {
    /// Each stage's rendered scalars and digests, in `STAGES` order.
    stages: [String; 6],
}

impl SweepFingerprint {
    /// The earliest stage (in pipeline order) where `self` and `other`
    /// differ, or `None` when they are the same outcome.
    pub fn first_divergence(&self, other: &SweepFingerprint) -> Option<&'static str> {
        STAGES
            .iter()
            .zip(self.stages.iter().zip(&other.stages))
            .find(|(_, (a, b))| a != b)
            .map(|(stage, _)| *stage)
    }
}

impl fmt::Display for SweepFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stages = STAGES.iter().zip(&self.stages);
        let stages: Vec<String> = stages.map(|(s, body)| format!("{s}[{body}]")).collect();
        f.write_str(&stages.join(" "))
    }
}

impl std::str::FromStr for SweepFingerprint {
    type Err = String;

    /// Parses the line [`SweepFingerprint`]'s `Display` prints.
    fn from_str(line: &str) -> Result<Self, String> {
        let mut stages: [String; 6] = Default::default();
        let mut rest = line;
        for (stage, slot) in STAGES.iter().zip(&mut stages) {
            let (body, tail) = rest
                .strip_prefix(stage)
                .and_then(|r| r.strip_prefix('['))
                .and_then(|r| r.split_once(']'))
                .ok_or_else(|| format!("expected `{stage}[...]` at {rest:?}"))?;
            *slot = body.to_string();
            rest = tail.strip_prefix(' ').unwrap_or(tail);
        }
        if !rest.is_empty() {
            return Err(format!("trailing text {rest:?}"));
        }
        Ok(SweepFingerprint { stages })
    }
}

/// Running processes per site, in site-id order.
pub(crate) fn sample_running(tb: &Grid5000Testbed) -> Vec<u32> {
    let mut running = vec![0u32; tb.topology.site_count()];
    for peer in (0..tb.overlay.peer_count()).map(PeerId) {
        let site = tb.topology.host(tb.overlay.host_of(peer)).site;
        running[site.0] += tb.overlay.node(peer).rs.running_processes();
    }
    running
}

/// Applies the [`FaultSpec::FlashCrowd`] entries of `faults` to `profile`
/// (flash crowds reshape the arrival process itself, so they act before the
/// trace is drawn; every other fault is an event on the overlay timeline).
pub(crate) fn burst_profile(profile: &DayProfile, faults: &[FaultSpec]) -> DayProfile {
    let mut profile = profile.clone();
    for fault in faults {
        if let FaultSpec::FlashCrowd {
            at,
            duration,
            factor,
        } = *fault
        {
            profile = profile.with_burst(at, duration, factor);
        }
    }
    profile
}

/// The reusable heart of a sweep: one testbed, one timeline, and the
/// submit/sample/charge loop of [`run_day_sweep`] — factored out so the
/// sharded driver (`crate::shard`) can run one `SweepCore` per shard over
/// its own site subset while the sequential sweep runs a single core over
/// all of Table 1.  Operation order inside [`SweepCore::submit`] and
/// [`SweepCore::finish`] is exactly the historical sequential loop.
pub(crate) struct SweepCore {
    pub(crate) cfg: DaySweepConfig,
    pub(crate) tb: Grid5000Testbed,
    pub(crate) allocator: CoAllocator,
    /// The modeled makespan of every placed job, costed once per placement
    /// shape (see [`crate::experiments`]' module docs).
    shape_costs: ShapeCosts,
    site_names: Vec<String>,
    samples: Vec<UtilisationSample>,
    next_sample: SimTime,
    next_probe: Option<SimTime>,
    core_seconds: Vec<f64>,
    site_core_bins: Vec<Vec<f64>>,
    /// Reused per-job per-site core-count scratch for the bin charging.
    charge_scratch: Vec<f64>,
    hold_secs_total: f64,
    pub(crate) submitted: usize,
    pub(crate) succeeded: usize,
    pub(crate) failed: usize,
    pub(crate) timeouts: u64,
    mid_job: usize,
    mid_caps: (usize, usize),
    /// The online search state (each shape's last plan), present only
    /// under [`StrategyKind::Searched`].
    search: Option<SearchContext>,
    /// Reused per-arrival free-capacity scratch for the online search.
    search_caps: Vec<u32>,
}

impl SweepCore {
    /// Boots a testbed over `specs` and installs every periodic behaviour
    /// and fault of `cfg`, exactly as the sequential sweep always has.
    /// `seed` feeds the testbed, churn phases and kernel model (the
    /// sequential sweep passes `cfg.seed`; shards > 0 pass derived
    /// sub-seeds so their noise streams are independent).  `mid_job` is the
    /// submission index at which steady-state capacities are sampled.
    ///
    /// Faults naming a site must name one present in `specs` — the sharded
    /// driver routes site-scoped faults to the owning shard before
    /// constructing cores.
    pub(crate) fn new(
        cfg: &DaySweepConfig,
        specs: &[ClusterSpec],
        seed: u64,
        mid_job: usize,
    ) -> Self {
        let mut tb = testbed_from_specs(specs, seed, NoiseModel::default());
        tb.overlay.tracer().set_enabled(false);
        tb.overlay.set_fail_jobs_on_crash(cfg.fail_jobs_on_crash);

        // Periodic behaviours share the timeline with submissions and
        // completions.
        tb.overlay.start_heartbeats();
        tb.overlay
            .start_reservation_expiry(SimDuration::from_secs(60), SimDuration::from_secs(120));
        let submitter = tb.submitter;
        tb.overlay.start_cache_refresh(submitter, cfg.cache_refresh);

        // Flapping churn rides the same timeline: booked-but-dead peers
        // park a full rs_timeout each (the timeout-heavy skewed
        // population).
        if let Some(churn) = &cfg.churn {
            let peers: Vec<_> = tb
                .overlay
                .peer_ids()
                .into_iter()
                .filter(|&p| p != submitter)
                .collect();
            let mut churn_rng = seeded(derive_seed(seed, 0xF1A9));
            let schedule = flapping_churn(
                &peers,
                churn.fraction,
                cfg.profile.horizon(),
                churn.downtime,
                churn.uptime,
                &mut churn_rng,
            );
            tb.overlay.schedule_churn(schedule);
        }

        // Timeline faults: correlated site outages, rack brown-outs, link
        // degradation windows and supernode crashes ride the same event
        // queue as everything else, one churn schedule per fault, in list
        // order.
        for fault in &cfg.faults {
            let schedule = fault.churn(&tb.overlay, submitter);
            tb.overlay.schedule_churn(schedule);
        }

        let allocator = CoAllocator::new();
        let settings = Fig4Settings {
            seed,
            ..Fig4Settings::default()
        }
        .modeled();

        // Under the searched strategy every arrival re-anneals against the
        // grid's current free cores, seeded from its shape's previous plan
        // (see `crate::search::SearchContext`).
        let search = (cfg.strategy == StrategyKind::Searched).then(|| {
            let params = OnlineSearchParams {
                moves: cfg.search_moves,
                seed: derive_seed(seed, 0x0A11),
            };
            SearchContext::new(tb.topology.clone(), settings, params)
        });

        let site_names: Vec<String> = tb.topology.sites().iter().map(|s| s.name.clone()).collect();
        let core_seconds = vec![0.0f64; site_names.len()];

        // Under churn the submitter re-probes on the refresh cadence,
        // exactly like its bootstrap did: freshly (re-)learned peers
        // re-enter the booking order by measured latency instead of parking
        // unprobed at the back.  Driven from the submission loop (not a
        // scheduled event) so the probe RNG draws happen at job
        // boundaries.
        let next_probe = if cfg.churn.is_some() || !cfg.faults.is_empty() {
            Some(SimTime::ZERO + cfg.cache_refresh)
        } else {
            None
        };

        SweepCore {
            cfg: cfg.clone(),
            shape_costs: ShapeCosts::new(&tb.topology, &settings),
            tb,
            allocator,
            site_names,
            samples: Vec::new(),
            next_sample: SimTime::ZERO,
            next_probe,
            site_core_bins: vec![Vec::new(); core_seconds.len()],
            charge_scratch: vec![0.0; core_seconds.len()],
            core_seconds,
            hold_secs_total: 0.0,
            submitted: 0,
            succeeded: 0,
            failed: 0,
            timeouts: 0,
            mid_job,
            mid_caps: (0, 0),
            search,
            search_caps: Vec::new(),
        }
    }

    /// Builds the request for `job`, running the online placement search
    /// first when the sweep's strategy is [`StrategyKind::Searched`]: the
    /// annealed per-rank host map rides the request as a plan the
    /// co-allocator books and pins verbatim (falling back to the fixed
    /// distribution when brokering invalidates it).  Any other strategy —
    /// or an infeasible instant (free cores cannot hold the job) — submits
    /// the plain request.
    fn request_for(&mut self, job: &JobSpec) -> JobRequest {
        let request = JobRequest::new(job.ranks, self.cfg.strategy, job.kernel.program());
        let Some(ctx) = self.search.as_mut() else {
            return request;
        };

        // Effective free capacity right now: the runtime admits one
        // application per MPD (`max_apps` = 1), so a host is wholly free
        // when its peer is alive and idle, wholly busy otherwise.  The
        // timeline was advanced to the arrival instant before this, so the
        // view matches what brokering will see.
        self.search_caps.clear();
        self.search_caps.resize(self.tb.topology.host_count(), 0u32);
        for (h, cap) in self.search_caps.iter_mut().enumerate() {
            if let Some(peer) = self.tb.overlay.peer_on_host(HostId(h)) {
                let node = self.tb.overlay.node(peer);
                if node.is_alive() && node.rs.active_applications() == 0 {
                    *cap = self.tb.topology.host(HostId(h)).cores as u32;
                }
            }
        }

        let arrival = (self.submitted - 1) as u64;
        let Some(hosts) = ctx.searched_hosts(job.kernel, job.ranks, &self.search_caps, arrival)
        else {
            return request;
        };

        // Fold the per-rank host map into per-host rank lists, hosts in
        // first-occurrence (rank) order.
        let mut plan: Vec<PlannedHost> = Vec::new();
        for (rank, &host) in hosts.iter().enumerate() {
            let peer = self
                .tb
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
        request.with_plan(Arc::from(plan))
    }

    /// Takes every utilisation sample due at or before `upto`.
    fn sample_due(&mut self, upto: SimTime) {
        while self.next_sample <= upto {
            self.tb.overlay.run_until(self.next_sample);
            self.samples.push(UtilisationSample {
                t: self.next_sample,
                running: sample_running(&self.tb),
            });
            self.next_sample += self.cfg.sample_period;
        }
    }

    /// Re-probes the supernode cache if a refresh period elapsed.
    fn maybe_probe(&mut self) {
        if let Some(due) = &mut self.next_probe {
            if self.tb.overlay.now() >= *due {
                self.tb.overlay.probe_round(self.tb.submitter);
                while *due <= self.tb.overlay.now() {
                    *due += self.cfg.cache_refresh;
                }
            }
        }
    }

    /// Cores not running work: the topology's cores minus every peer's
    /// running processes.  The sharded driver's merged view holds this
    /// count for each shard.
    pub(crate) fn free_cores(&self) -> u32 {
        let overlay = &self.tb.overlay;
        let running: u32 = (0..overlay.peer_count())
            .map(|p| overlay.node(PeerId(p)).rs.running_processes())
            .sum();
        (self.tb.topology.total_cores() as u32).saturating_sub(running)
    }

    /// Advances the timeline to `at` with samples and the probe cadence —
    /// exactly what [`SweepCore::submit`] does before brokering.  The
    /// sharded driver calls this to bring a shard to a synchronization
    /// barrier.
    pub(crate) fn advance_to(&mut self, at: SimTime) {
        self.sample_due(at);
        self.tb.overlay.run_until(at);
        self.maybe_probe();
    }

    /// Holds a placed job for `hold` from now: charges its core-seconds to
    /// this core's per-site ledger, then schedules its completion, which
    /// frees its hosts, with `Overlay::schedule_completion`.  A local job
    /// is held here by [`SweepCore::submit`]; a cross-shard job is held here
    /// on each shard it booked, with the hold costed on the merged
    /// placement, by the sharded driver's scatter (`crate::shard`).
    pub(crate) fn hold(
        &mut self,
        alloc: &p2pmpi_core::allocation::Allocation,
        key: p2pmpi_overlay::ReservationKey,
        hold: SimDuration,
    ) {
        // Per-site cores this job holds, summed before the bin spread so
        // each site walks its bins once per job, not once per host.
        self.charge_scratch.fill(0.0);
        for h in &alloc.hosts {
            let site = self.tb.topology.host(h.host).site;
            self.charge_scratch[site.0] += h.instances() as f64;
        }
        let start = self.tb.overlay.now().as_secs_f64();
        let end = start + hold.as_secs_f64();
        let w = self.cfg.sample_period.as_secs_f64();
        let first = (start / w).floor() as usize;
        let last = ((end / w).ceil() as usize).max(first + 1);
        if self.site_core_bins[0].len() < last {
            for series in &mut self.site_core_bins {
                series.resize(last, 0.0);
            }
        }
        for (site, &c) in self.charge_scratch.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            self.core_seconds[site] += c * hold.as_secs_f64();
            for b in first..last {
                let bin_start = b as f64 * w;
                let overlap = (end.min(bin_start + w) - start.max(bin_start)).max(0.0);
                if overlap > 0.0 {
                    self.site_core_bins[site][b] += c * overlap;
                }
            }
        }
        let done_at = self.tb.overlay.now() + hold;
        let peers: Vec<_> = alloc.hosts.iter().map(|h| h.peer).collect();
        self.tb.overlay.schedule_completion(done_at, key, peers);
    }

    /// Submits one job: advance the timeline to its arrival, broker it,
    /// and on success charge the modeled kernel time on the job's real
    /// placement as a hold on its booked hosts.
    pub(crate) fn submit(&mut self, job: &JobSpec) {
        if self.submitted == self.mid_job {
            self.mid_caps = (
                self.tb.overlay.events_capacity(),
                self.tb.overlay.rs_scratch_capacity(),
            );
        }
        self.submitted += 1;
        self.advance_to(job.at);
        let request = self.request_for(job);
        let report = self
            .allocator
            .allocate(&mut self.tb.overlay, self.tb.submitter, &request);
        self.timeouts += report.dead as u64;
        match &report.outcome {
            Ok(alloc) => {
                let makespan = self.shape_costs.makespan(job.kernel, alloc);
                let hold = makespan.mul_f64(self.cfg.duration_scale);
                self.succeeded += 1;
                self.hold_secs_total += hold.as_secs_f64();
                self.hold(alloc, report.key, hold);
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Drains the tail of the trace (remaining samples, completions,
    /// heartbeats) up to `horizon` and closes the books.
    pub(crate) fn finish(mut self, horizon: SimTime) -> DaySweepResult {
        self.sample_due(horizon);
        self.tb.overlay.run_until(horizon);

        DaySweepResult {
            site_names: self.site_names,
            samples: self.samples,
            bin_secs: self.cfg.sample_period.as_secs_f64(),
            site_core_bins: self.site_core_bins,
            core_seconds: self.core_seconds,
            submitted: self.submitted,
            succeeded: self.succeeded,
            failed: self.failed,
            timeouts: self.timeouts,
            mean_hold_secs: self.hold_secs_total / self.succeeded.max(1) as f64,
            events_processed: self.tb.overlay.events_processed(),
            virtual_end: self.tb.overlay.now(),
            events_capacity_mid: self.mid_caps.0,
            events_capacity_end: self.tb.overlay.events_capacity(),
            rs_scratch_capacity_mid: self.mid_caps.1,
            rs_scratch_capacity_end: self.tb.overlay.rs_scratch_capacity(),
            jobs_killed: self.tb.overlay.jobs_killed(),
            leaked_grants: self.tb.overlay.leaked_grants(),
            leaked_grant_hwm: self.tb.overlay.leaked_grant_hwm(),
            search: self.search.as_ref().map(|c| c.stats()),
            shapes_costed: self.shape_costs.shapes(),
        }
    }
}

/// Replays a [`DayProfile`] submission trace against a fresh Grid'5000
/// testbed on the overlay's event timeline.  See the module docs for the
/// driver-loop shape; the `day` binary renders the result.  This
/// is the sequential driver: one `SweepCore` over all of Table 1, every
/// job shard-local.  `crate::shard::run_shard_sweep` runs the same loop
/// split over per-site shards.
pub fn run_day_sweep(cfg: &DaySweepConfig) -> DaySweepResult {
    let profile = burst_profile(&cfg.profile, &cfg.faults);
    let trace = day_trace(&profile, &cfg.mix, cfg.seed);
    let mut core = SweepCore::new(cfg, TABLE1, cfg.seed, trace.len() / 2);
    for job in &trace {
        core.submit(job);
    }
    core.finish(SimTime::ZERO + cfg.profile.horizon())
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- DayProfile -------------------------------------------------------

    /// The arrival instants of `day_trace(p, default mix, seed)`.
    fn arrivals(p: &DayProfile, seed: u64) -> Vec<SimTime> {
        let trace = day_trace(p, &JobMix::default(), seed);
        trace.iter().map(|job| job.at).collect()
    }

    #[test]
    fn paper_day_integrates_past_twenty_thousand_jobs() {
        let p = DayProfile::paper_day();
        assert_eq!(p.horizon(), SimDuration::from_secs(DAY_SECS));
        let expected = p.expected_jobs();
        assert!(
            expected > 20_000.0 && expected < 25_000.0,
            "expected {expected}"
        );
        // Poisson count over the day: within 5 sigma of the mean.
        let n = arrivals(&p, 1).len() as f64;
        assert!((n - expected).abs() < 5.0 * expected.sqrt(), "sampled {n}");
    }

    #[test]
    fn arrivals_are_sorted_in_horizon_and_deterministic() {
        let p = DayProfile::paper_day();
        let a = arrivals(&p, 9);
        let b = arrivals(&p, 9);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals sorted");
        let end = SimTime::ZERO + p.horizon();
        assert!(a.iter().all(|&t| t < end));
        assert_ne!(a.len(), arrivals(&p, 10).len());
    }

    #[test]
    fn arrival_density_follows_the_rate_profile() {
        // The 9–12h burst must be ~11x denser than the 0–6h night (rates
        // 0.55 vs 0.05); allow generous sampling noise.
        let p = DayProfile::paper_day();
        let arrivals = arrivals(&p, 5);
        let in_window = |a: u64, b: u64| {
            arrivals
                .iter()
                .filter(|t| (a * 3600..b * 3600).contains(&(t.as_nanos() / 1_000_000_000)))
                .count() as f64
        };
        let night_per_hour = in_window(0, 6) / 6.0;
        let burst_per_hour = in_window(9, 12) / 3.0;
        let ratio = burst_per_hour / night_per_hour;
        assert!((6.0..18.0).contains(&ratio), "burst/night ratio {ratio}");
    }

    #[test]
    fn a_trace_never_outgrows_its_reservation() {
        // The Poisson count exceeds its mean half the time, so a
        // reservation of the mean alone would double the trace's buffer
        // at about half of these seeds.
        let p = DayProfile::paper_day();
        for seed in 0..64 {
            let trace = day_trace(&p, &JobMix::default(), seed);
            assert_eq!(trace.capacity(), p.trace_capacity(), "seed {seed}");
        }
    }

    #[test]
    fn compression_preserves_expected_jobs_in_less_time() {
        let p = DayProfile::paper_day();
        let expected = p.expected_jobs();
        let c = p.compressed(24.0);
        assert_eq!(c.horizon(), SimDuration::from_secs(3600));
        assert!((c.expected_jobs() - expected).abs() < 1e-6 * expected);
        // Scaling then stacks on top for the ~1k-job CI smoke.
        let small = c.scaled(0.05);
        assert!((small.expected_jobs() - 0.05 * expected).abs() < 1e-6 * expected);
    }

    #[test]
    fn repeated_tiles_the_day_exactly() {
        let day = DayProfile::paper_day();
        let week = DayProfile::week();
        assert_eq!(week.horizon(), SimDuration::from_secs(7 * 86_400));
        assert!(
            (week.expected_jobs() - 7.0 * day.expected_jobs()).abs() < 1e-6 * day.expected_jobs()
        );
        // Every instant of day k sees day 0's rate: the tiling is exact.
        for hour in [0u64, 3, 9, 12, 17, 23] {
            let t = SimDuration::from_secs(hour * 3600);
            for k in 1..7u64 {
                let shifted = t + SimDuration::from_secs(k * 86_400);
                assert_eq!(week.rate_at(shifted), day.rate_at(t), "day {k} hour {hour}");
            }
        }
        // repeated(1) is the identity, and compression stacks on top.
        assert_eq!(day.repeated(1).expected_jobs(), day.expected_jobs());
        let week_jobs = week.expected_jobs();
        let c = week.compressed(168.0);
        assert_eq!(c.horizon(), SimDuration::from_secs(3600));
        assert!((c.expected_jobs() - week_jobs).abs() < 1e-6 * week_jobs);
    }

    #[test]
    fn rate_at_picks_the_enclosing_segment() {
        let p = DayProfile::paper_day();
        assert_eq!(p.rate_at(SimDuration::from_secs(0)), 0.05);
        assert_eq!(p.rate_at(SimDuration::from_secs(10 * 3600)), 0.55);
        assert_eq!(p.rate_at(SimDuration::from_secs(23 * 3600)), 0.12);
    }

    // -- flash-crowd splice (satellite: statistical coverage) -------------

    #[test]
    fn with_burst_amplifies_inside_and_preserves_outside() {
        let p = DayProfile::paper_day();
        let burst = p.clone().with_burst(
            SimDuration::from_secs(10 * 3600),
            SimDuration::from_secs(3600),
            10.0,
        );
        // Inside the window: 10x the underlying late-morning rate.
        assert_eq!(burst.rate_at(SimDuration::from_secs(10 * 3600)), 5.5);
        assert_eq!(burst.rate_at(SimDuration::from_secs(10 * 3600 + 1800)), 5.5);
        // Outside: untouched, including right at the resume boundary.
        assert_eq!(burst.rate_at(SimDuration::from_secs(9 * 3600)), 0.55);
        assert_eq!(burst.rate_at(SimDuration::from_secs(11 * 3600)), 0.55);
        assert_eq!(burst.rate_at(SimDuration::from_secs(23 * 3600)), 0.12);
        // Expected jobs grow by exactly the burst window's surplus:
        // one hour at 9 * 0.55 extra.
        let surplus = burst.expected_jobs() - p.expected_jobs();
        assert!((surplus - 9.0 * 0.55 * 3600.0).abs() < 1e-6, "{surplus}");
    }

    #[test]
    fn with_burst_straddling_boundaries_scales_interior_segments() {
        // 11h..14h straddles the 12h lunch dip and the 13h afternoon rise.
        let p = DayProfile::paper_day();
        let burst = p.with_burst(
            SimDuration::from_secs(11 * 3600),
            SimDuration::from_secs(3 * 3600),
            4.0,
        );
        assert_eq!(burst.rate_at(SimDuration::from_secs(11 * 3600)), 2.2); // 0.55*4
        assert_eq!(burst.rate_at(SimDuration::from_secs(12 * 3600 + 60)), 1.0); // 0.25*4
        assert_eq!(burst.rate_at(SimDuration::from_secs(13 * 3600 + 60)), 2.0); // 0.50*4
        assert_eq!(burst.rate_at(SimDuration::from_secs(14 * 3600)), 0.50); // resumed
    }

    #[test]
    fn with_burst_at_an_existing_boundary_and_to_the_horizon() {
        let p = DayProfile::paper_day();
        // Onset exactly on the 9h boundary: the boundary segment is replaced
        // by its amplified copy, not duplicated.
        let b = p.clone().with_burst(
            SimDuration::from_secs(9 * 3600),
            SimDuration::from_secs(3 * 3600),
            2.0,
        );
        assert_eq!(b.rate_at(SimDuration::from_secs(9 * 3600)), 1.1);
        // The 12h lunch boundary already exists, so no resume duplicate: the
        // splice re-validates through `piecewise` (a duplicate would panic).
        assert_eq!(b.rate_at(SimDuration::from_secs(12 * 3600)), 0.25);
        // Burst running past the horizon is clamped to it.
        let tail = p.with_burst(
            SimDuration::from_secs(23 * 3600),
            SimDuration::from_secs(5 * 3600),
            3.0,
        );
        assert_eq!(tail.rate_at(SimDuration::from_secs(23 * 3600 + 60)), 0.36);
        assert_eq!(tail.horizon(), SimDuration::from_secs(DAY_SECS));
    }

    #[test]
    fn burst_window_mean_gap_matches_the_amplified_rate() {
        // Arrivals sampled inside a spliced 10x window must have a mean gap
        // within 3 standard errors of 1/(rate*factor).
        let rate = 0.5;
        let factor = 10.0;
        let p = DayProfile::constant(rate, SimDuration::from_secs(20_000)).with_burst(
            SimDuration::from_secs(5_000),
            SimDuration::from_secs(5_000),
            factor,
        );
        let window = SimTime::from_secs(5_000)..SimTime::from_secs(10_000);
        let inside: Vec<SimTime> = arrivals(&p, 77)
            .into_iter()
            .filter(|t| window.contains(t))
            .collect();
        let gaps: Vec<f64> = inside
            .windows(2)
            .map(|w| w[1].saturating_since(w[0]).as_secs_f64())
            .collect();
        let n = gaps.len() as f64;
        assert!(n > 1_000.0, "needs a dense window, got {n} gaps");
        let mean = gaps.iter().sum::<f64>() / n;
        let expected = 1.0 / (rate * factor);
        // Exponential gaps: sigma = mean, standard error = mean/sqrt(n).
        let tolerance = 3.0 * expected / n.sqrt();
        assert!(
            (mean - expected).abs() < tolerance,
            "mean gap {mean} vs {expected} ± {tolerance}"
        );
    }

    #[test]
    #[should_panic(expected = "inside the horizon")]
    fn burst_starting_past_the_horizon_panics() {
        DayProfile::paper_day().with_burst(
            SimDuration::from_secs(DAY_SECS + 1),
            SimDuration::from_secs(60),
            2.0,
        );
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_segments_panic() {
        DayProfile::piecewise(
            vec![
                RateSegment {
                    start: SimDuration::ZERO,
                    rate_per_sec: 1.0,
                },
                RateSegment {
                    start: SimDuration::ZERO,
                    rate_per_sec: 2.0,
                },
            ],
            SimDuration::from_secs(10),
        );
    }

    // -- traces -----------------------------------------------------------

    #[test]
    fn day_trace_is_deterministic_and_respects_the_mix() {
        let profile = DayProfile::constant(1.0, SimDuration::from_secs(2000));
        let mix = JobMix {
            ranks: vec![8],
            is_fraction: 0.5,
            ..JobMix::default()
        };
        let a = day_trace(&profile, &mix, 3);
        let b = day_trace(&profile, &mix, 3);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.at == y.at && x.ranks == y.ranks && x.kernel == y.kernel));
        assert!(a.iter().all(|j| j.ranks == 8));
        let is_share =
            a.iter().filter(|j| j.kernel == Fig4Kernel::Is).count() as f64 / a.len().max(1) as f64;
        assert!((0.35..0.65).contains(&is_share), "IS share {is_share}");
    }

    // -- the staged fingerprint -------------------------------------------

    /// A hand-built result: two sites, two bins, two samples, search
    /// counters present.
    fn fixture() -> DaySweepResult {
        let sample = |secs: u64, running: Vec<u32>| UtilisationSample {
            t: SimTime::from_secs(secs),
            running,
        };
        DaySweepResult {
            site_names: vec!["nancy".to_string(), "lyon".to_string()],
            samples: vec![sample(0, vec![0, 0]), sample(60, vec![16, 8])],
            core_seconds: vec![960.5, 120.25],
            bin_secs: 60.0,
            site_core_bins: vec![vec![480.5, 480.0], vec![120.25, 0.0]],
            submitted: 3,
            succeeded: 2,
            failed: 1,
            timeouts: 4,
            mean_hold_secs: 6.5,
            events_processed: 1234,
            virtual_end: SimTime::from_secs(120),
            events_capacity_mid: 64,
            events_capacity_end: 64,
            rs_scratch_capacity_mid: 0,
            rs_scratch_capacity_end: 0,
            jobs_killed: 1,
            leaked_grants: 5,
            leaked_grant_hwm: 2,
            search: Some(OnlineSearchStats {
                arrivals: 3,
                searched: 2,
                infeasible: 1,
                moves_evaluated: 600,
                prepare_nanos: 1_000,
                anneal_nanos: 9_000,
            }),
            shapes_costed: 2,
        }
    }

    #[test]
    fn a_perturbed_field_moves_exactly_its_own_stage_and_is_named() {
        fn next_up(x: f64) -> f64 {
            f64::from_bits(x.to_bits() + 1)
        }
        let base = fixture().fingerprint();

        // The hasher and the line format are pinned: the FNV-1a 64 test
        // vector of "a", then the fixture's whole line.
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            base.to_string(),
            "trace[submitted=3] placements[succeeded=2 failed=1 shapes_costed=2 arrivals=3 \
             searched=2 infeasible=1 moves=600] holds[mean_hold_bits=401a000000000000] \
             ledgers[core_seconds_bits=4090e30000000000 fnv=b0beff61f65afaff] \
             samples[n=2 fnv=4ebd76419518b08f] timeline[events_processed=1234 \
             virtual_end_ns=120000000000 timeouts=4 jobs_killed=1 leaked_grants=5 \
             leaked_grant_hwm=2]"
        );

        // Equal results print equal lines, and a line parses back.
        assert_eq!(fixture().fingerprint().to_string(), base.to_string());
        assert_eq!(base.to_string().parse(), Ok(base.clone()));
        assert!("trace[submitted=3]".parse::<SweepFingerprint>().is_err());

        type Perturb = fn(&mut DaySweepResult);
        let perturbations: [(&str, Perturb); 6] = [
            ("trace", |r| r.submitted += 1),
            ("placements", |r| r.failed += 1),
            ("holds", |r| r.mean_hold_secs = next_up(r.mean_hold_secs)),
            // -0.0 == 0.0, but not bit for bit.
            ("ledgers", |r| r.site_core_bins[1][1] = -0.0),
            ("samples", |r| r.samples[1].t += SimDuration::from_nanos(1)),
            ("timeline", |r| r.virtual_end += SimDuration::from_nanos(1)),
        ];
        for (stage, perturb) in perturbations {
            let mut r = fixture();
            perturb(&mut r);
            let moved = r.fingerprint();
            assert_eq!(moved.first_divergence(&base), Some(stage), "{moved}");
            let pairs = moved.stages.iter().zip(&base.stages);
            assert_eq!(pairs.filter(|(a, b)| a != b).count(), 1, "{moved}");
        }

        // What the fingerprint leaves out on purpose does not move it.
        let mut r = fixture();
        r.events_capacity_end += 1;
        r.rs_scratch_capacity_mid += 1;
        let search = r.search.as_mut().expect("fixture searched");
        search.prepare_nanos += 1;
        search.anneal_nanos += 1;
        assert_eq!(r.fingerprint(), base);
    }
}
