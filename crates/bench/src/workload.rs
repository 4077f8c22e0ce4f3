//! Workload generation and the day-scale sweep driver.
//!
//! The paper submits jobs one at a time; pushing the reproduction to sweep
//! scale needs a synthetic arrival process and a driver that replays it
//! against the overlay's event timeline.  Three layers live here:
//!
//! * **Arrival generators** — [`PoissonArrivals`] draws exponential
//!   inter-arrival gaps (a homogeneous Poisson process) and
//!   [`BurstyArrivals`] alternates between two rates.
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

use crate::experiments::{Fig4Kernel, Fig4Settings, ShapeCosts};
use crate::search::{OnlineSearchParams, OnlineSearchStats, SearchContext};
use p2pmpi_core::prelude::*;
use p2pmpi_grid5000::testbed::{testbed_from_specs_with_queue, Grid5000Testbed};
use p2pmpi_grid5000::{ClusterSpec, TABLE1};
use p2pmpi_overlay::churn::flapping_churn;
use p2pmpi_simgrid::event::QueueKind;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::rngutil::{derive_seed, seeded};
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::HostId;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Arrival generators
// ---------------------------------------------------------------------------

/// Homogeneous Poisson arrival process: gaps are `Exp(rate)` distributed.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rate_per_sec: f64,
    rng: StdRng,
}

impl PoissonArrivals {
    /// Creates a process with the given arrival rate (events per second of
    /// virtual time) and RNG seed.
    pub fn new(rate_per_sec: f64, seed: u64) -> Self {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "arrival rate must be positive"
        );
        PoissonArrivals {
            rate_per_sec,
            rng: seeded(seed),
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// Draws the next inter-arrival gap.
    pub fn next_gap(&mut self) -> SimDuration {
        // Inverse-CDF sampling; 1 - u keeps the argument of ln() positive.
        let u: f64 = self.rng.gen();
        let secs = -(1.0 - u).ln() / self.rate_per_sec;
        SimDuration::from_secs_f64(secs)
    }

    /// Draws `n` gaps into a vector (convenience for pre-scheduling a whole
    /// sweep so the event queue can be `reserve`d once).
    pub fn gaps(&mut self, n: usize) -> Vec<SimDuration> {
        (0..n).map(|_| self.next_gap()).collect()
    }
}

/// Two-phase inhomogeneous arrivals: `burst_len` arrivals at `burst_rate`,
/// then `quiet_len` arrivals at `quiet_rate`, repeating.
#[derive(Debug, Clone)]
pub struct BurstyArrivals {
    burst: PoissonArrivals,
    quiet: PoissonArrivals,
    burst_len: usize,
    quiet_len: usize,
    position: usize,
}

impl BurstyArrivals {
    /// Creates the alternating process.  Lengths must be positive.
    pub fn new(
        burst_rate: f64,
        burst_len: usize,
        quiet_rate: f64,
        quiet_len: usize,
        seed: u64,
    ) -> Self {
        assert!(
            burst_len > 0 && quiet_len > 0,
            "phase lengths must be positive"
        );
        BurstyArrivals {
            burst: PoissonArrivals::new(burst_rate, seed ^ 0x9E37),
            quiet: PoissonArrivals::new(quiet_rate, seed ^ 0x79B9),
            burst_len,
            quiet_len,
            position: 0,
        }
    }

    /// True if the *next* gap will be drawn from the burst phase.
    pub fn in_burst(&self) -> bool {
        self.position % (self.burst_len + self.quiet_len) < self.burst_len
    }

    /// Draws the next inter-arrival gap.
    pub fn next_gap(&mut self) -> SimDuration {
        let in_burst = self.in_burst();
        self.position += 1;
        if in_burst {
            self.burst.next_gap()
        } else {
            self.quiet.next_gap()
        }
    }

    /// Draws `n` gaps into a vector.
    pub fn gaps(&mut self, n: usize) -> Vec<SimDuration> {
        (0..n).map(|_| self.next_gap()).collect()
    }
}

// ---------------------------------------------------------------------------
// DayProfile: piecewise-constant-rate arrivals over a day
// ---------------------------------------------------------------------------

/// One segment of a [`DayProfile`]: from `start` (inclusive) until the next
/// segment's start, arrivals occur at `rate_per_sec`.
#[derive(Debug, Clone, Copy)]
pub struct RateSegment {
    /// Offset of the segment from the start of the trace.
    pub start: SimDuration,
    /// Arrival rate within the segment (jobs per virtual second).
    pub rate_per_sec: f64,
}

/// A piecewise-constant-rate arrival profile over a bounded horizon.
///
/// Within each segment arrivals form a homogeneous Poisson process at the
/// segment's rate; by the memorylessness of the exponential this composes
/// into an (inhomogeneous, piecewise-constant) Poisson process over the
/// whole horizon.  Sampling is exact per segment, so the expected total
/// arrival count is the integral of the rate function
/// ([`DayProfile::expected_jobs`]).
#[derive(Debug, Clone)]
pub struct DayProfile {
    segments: Vec<RateSegment>,
    horizon: SimDuration,
}

/// Seconds in a virtual day.
pub const DAY_SECS: u64 = 86_400;

impl DayProfile {
    /// Builds a profile from `(start, rate)` segments over `horizon`.
    /// Segments must start at zero, be strictly ascending, and stay inside
    /// the horizon; rates must be non-negative and finite.
    pub fn piecewise(segments: Vec<RateSegment>, horizon: SimDuration) -> Self {
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
    pub fn constant(rate_per_sec: f64, horizon: SimDuration) -> Self {
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
    pub fn rate_at(&self, t: SimDuration) -> f64 {
        self.segments
            .iter()
            .rev()
            .find(|s| s.start <= t)
            .map(|s| s.rate_per_sec)
            .unwrap_or(0.0)
    }

    /// Expected number of arrivals over the horizon (the integral of the
    /// rate function).
    pub fn expected_jobs(&self) -> f64 {
        let mut total = 0.0;
        for (i, s) in self.segments.iter().enumerate() {
            let end = self
                .segments
                .get(i + 1)
                .map(|n| n.start)
                .unwrap_or(self.horizon);
            total += s.rate_per_sec * (end.saturating_sub(s.start)).as_secs_f64();
        }
        total
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
    pub fn compressed(mut self, factor: f64) -> Self {
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
    /// [`DayProfile::compressed`] — the week-scale sweep driver builds its
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
    /// target runs it at 10×).
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
    pub fn with_burst(self, at: SimDuration, duration: SimDuration, factor: f64) -> Self {
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

    /// Samples one realisation of the arrival process.  Times are sorted,
    /// lie inside the horizon, and are fully determined by `seed`.
    pub fn arrivals(&self, seed: u64) -> Vec<SimTime> {
        let mut rng = seeded(seed);
        let mut out: Vec<SimTime> = Vec::with_capacity(self.expected_jobs() as usize + 16);
        for (i, s) in self.segments.iter().enumerate() {
            if s.rate_per_sec <= 0.0 {
                continue;
            }
            let end = self
                .segments
                .get(i + 1)
                .map(|n| n.start)
                .unwrap_or(self.horizon)
                .as_secs_f64();
            let mut t = s.start.as_secs_f64();
            loop {
                let u: f64 = rng.gen();
                t += -(1.0 - u).ln() / s.rate_per_sec;
                if t >= end {
                    break;
                }
                out.push(SimTime::from_secs_f64(t));
            }
        }
        out
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
    pub is_fraction: f64,
    /// Largest rank count an IS job uses; draws above it run EP instead.
    /// Mirrors the paper's Figure 4, whose IS panel stops at 128 ranks
    /// while EP continues.  It no longer bounds what a *job* costs the
    /// sweep, only what a placement *shape* costs once (`ShapeCosts`): an
    /// IS shape's twenty rings are O(ranks²) cells each, so costing one
    /// (`run_kernel_on_placement`, cached schedule) takes ~5 µs at 8 ranks
    /// and ~40 µs at 32 — against 0.4–3 µs for EP at 8–128 — and would
    /// take ~0.35 ms at 128 (4.6 ms as a `ModelComm` replay), a hundred or
    /// so times a day.  The value stays because raising it changes which
    /// jobs run IS, hence every hold and every committed fingerprint.
    pub is_max_ranks: u32,
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
/// so changing the mix does not perturb the arrival instants).
pub fn day_trace(profile: &DayProfile, mix: &JobMix, seed: u64) -> Vec<JobSpec> {
    assert!(
        !mix.ranks.is_empty(),
        "the job mix needs at least one rank count"
    );
    let arrivals = profile.arrivals(derive_seed(seed, 0xA221));
    let mut rng = seeded(derive_seed(seed, 0x31B5));
    arrivals
        .into_iter()
        .map(|at| {
            let ranks = mix.ranks[rng.gen_range(0..mix.ranks.len())];
            let kernel = if ranks <= mix.is_max_ranks && rng.gen::<f64>() < mix.is_fraction {
                Fig4Kernel::Is
            } else {
                Fig4Kernel::Ep
            };
            JobSpec { at, ranks, kernel }
        })
        .collect()
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
    /// (spliced into the profile via [`DayProfile::with_burst`]).
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
    /// Combinator: every child fault runs on the same timeline (an outage
    /// *during* a flash crowd, a rack loss *while* links crawl).  Children
    /// are independent — composition is concatenation of their event
    /// schedules, and [`FaultSpec::flattened`] unfolds the tree back into
    /// the primitive list the sweep installs.
    Compose(Vec<FaultSpec>),
    /// Combinator: slides the inner fault's onset by `offset_secs`
    /// (positive = later) against the day profile, clamping at the start
    /// of the day.  This is the knob the adversarial timing search
    /// (`fault_search`) turns to hunt the worst-case phase of an outage
    /// relative to a burst.
    PhaseShift {
        /// Signed onset shift in seconds (applied to every primitive
        /// inside `inner`).
        offset_secs: f64,
        /// The fault whose onset slides.
        inner: Box<FaultSpec>,
    },
}

impl FaultSpec {
    /// Scales the fault's times for a compressed day (rates and factors are
    /// dimensionless and stay put).  Combinators recurse: `Compose` maps
    /// its children and `PhaseShift` shrinks its offset's magnitude with
    /// the same rule before recursing into the shifted fault.
    fn compressed(self, shrink: &impl Fn(SimDuration) -> SimDuration) -> Self {
        match self {
            FaultSpec::SiteOutage { site, at, duration } => FaultSpec::SiteOutage {
                site,
                at: shrink(at),
                duration: shrink(duration),
            },
            FaultSpec::FlashCrowd {
                at,
                duration,
                factor,
            } => FaultSpec::FlashCrowd {
                at: shrink(at),
                duration: shrink(duration),
                factor,
            },
            FaultSpec::SlowLinks {
                site,
                at,
                duration,
                latency_factor,
            } => FaultSpec::SlowLinks {
                site,
                at: shrink(at),
                duration: shrink(duration),
                latency_factor,
            },
            FaultSpec::SupernodeOutage { at, duration } => FaultSpec::SupernodeOutage {
                at: shrink(at),
                duration: shrink(duration),
            },
            FaultSpec::PartialSite {
                site,
                hosts,
                at,
                duration,
            } => FaultSpec::PartialSite {
                site,
                hosts,
                at: shrink(at),
                duration: shrink(duration),
            },
            FaultSpec::Compose(children) => {
                FaultSpec::Compose(children.into_iter().map(|f| f.compressed(shrink)).collect())
            }
            FaultSpec::PhaseShift { offset_secs, inner } => FaultSpec::PhaseShift {
                offset_secs: if offset_secs == 0.0 {
                    0.0
                } else {
                    offset_secs.signum()
                        * shrink(SimDuration::from_secs_f64(offset_secs.abs())).as_secs_f64()
                },
                inner: Box::new(inner.compressed(shrink)),
            },
        }
    }

    /// Unfolds the fault tree into the primitive faults the sweep installs:
    /// `Compose` concatenates its children's primitives, `PhaseShift` adds
    /// its offset to every primitive onset underneath it (offsets nest
    /// additively), and a shifted onset clamps at the start of the day.
    pub fn flattened(&self) -> Vec<FaultSpec> {
        let mut out = Vec::new();
        self.flatten_into(0.0, &mut out);
        out
    }

    fn flatten_into(&self, offset_secs: f64, out: &mut Vec<FaultSpec>) {
        let shift =
            |at: SimDuration| SimDuration::from_secs_f64((at.as_secs_f64() + offset_secs).max(0.0));
        match self {
            FaultSpec::Compose(children) => {
                for child in children {
                    child.flatten_into(offset_secs, out);
                }
            }
            FaultSpec::PhaseShift {
                offset_secs: more,
                inner,
            } => inner.flatten_into(offset_secs + more, out),
            FaultSpec::SiteOutage { site, at, duration } => out.push(FaultSpec::SiteOutage {
                site: site.clone(),
                at: shift(*at),
                duration: *duration,
            }),
            FaultSpec::FlashCrowd {
                at,
                duration,
                factor,
            } => out.push(FaultSpec::FlashCrowd {
                at: shift(*at),
                duration: *duration,
                factor: *factor,
            }),
            FaultSpec::SlowLinks {
                site,
                at,
                duration,
                latency_factor,
            } => out.push(FaultSpec::SlowLinks {
                site: site.clone(),
                at: shift(*at),
                duration: *duration,
                latency_factor: *latency_factor,
            }),
            FaultSpec::SupernodeOutage { at, duration } => out.push(FaultSpec::SupernodeOutage {
                at: shift(*at),
                duration: *duration,
            }),
            FaultSpec::PartialSite {
                site,
                hosts,
                at,
                duration,
            } => out.push(FaultSpec::PartialSite {
                site: site.clone(),
                hosts: *hosts,
                at: shift(*at),
                duration: *duration,
            }),
        }
    }
}

/// Flattens a fault list's combinator trees into the primitive faults the
/// sweep installs, in declaration order.
pub fn flatten_faults(faults: &[FaultSpec]) -> Vec<FaultSpec> {
    let mut out = Vec::new();
    for fault in faults {
        fault.flatten_into(0.0, &mut out);
    }
    out
}

/// Configuration of one [`run_day_sweep`] run.
#[derive(Debug, Clone)]
pub struct DaySweepConfig {
    /// Allocation strategy every job uses.
    pub strategy: StrategyKind,
    /// Priority structure backing the overlay's event timeline.
    /// [`QueueKind::Ladder`] is the sweep default: with per-reservation
    /// timeouts the pending population is trimodal (millisecond replies,
    /// the 2 s timeout window, minute-to-hour completions), the skew the
    /// ladder is built for.
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
    /// Optional flapping churn: dead peers make booked reservation requests
    /// park a full `rs_timeout` on the timeline.
    pub churn: Option<DeadPeerChurn>,
    /// Period of the submitter's supernode cache refresh (how quickly
    /// flapped peers re-enter the booking order after step 5 dropped them).
    pub cache_refresh: SimDuration,
    /// Whether `rs_send` may decide at send an exchange whose reply is bound
    /// to beat the timeout — no timeout armed, no delivery event of its own,
    /// one event per round (outcome-invariant, pinned by
    /// `tests/day_sweep.rs`).  On by default;
    /// [`DaySweepConfig::dead_peer_day`] turns it off so the timeout-heavy
    /// benchmark keeps measuring the armed machinery it exists for.
    pub rs_timeout_fast_path: bool,
    /// Named adversities injected into the day (site outages, flash crowds,
    /// link degradations, supernode crashes).  Times are on the uncompressed
    /// day; [`DaySweepConfig::compress`] scales them.
    pub faults: Vec<FaultSpec>,
    /// When on, a crashing peer kills the jobs running on it (their
    /// completions are mass-revoked via `cancel_batch` and every
    /// participant is freed).  Off by default: the baseline day pays zero
    /// tracking overhead.
    pub fail_jobs_on_crash: bool,
    /// Tombstone-reap cadence: at each job boundary the driver compares the
    /// timeline's queued-ticket count against its live count, and when the
    /// difference (cancelled-but-unpopped tombstones) exceeds this
    /// threshold it calls the queue's eager compaction
    /// (`EventQueue::reap`).  This bounds the dead weight a cancel-heavy
    /// trace (churn revoking completions, timeout losers) can accumulate:
    /// dead tickets never exceed `reap_threshold` plus one job's worth of
    /// cancellations.  Reaping is outcome-invariant — it only drops
    /// tickets `pop` would have skipped.  `usize::MAX` disables it.
    pub reap_threshold: usize,
    /// Per-arrival annealing move budget of the online search (only read
    /// when `strategy` is [`StrategyKind::Searched`]).
    pub search_moves: u64,
}

impl DaySweepConfig {
    /// The day-scale defaults: ladder queue, the paper-day profile, the
    /// default job mix, 5-minute utilisation samples, no churn.
    pub fn new(strategy: StrategyKind) -> Self {
        DaySweepConfig {
            strategy,
            queue: QueueKind::Ladder,
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
    /// that are currently dead.  Every such booking parks an `rs_timeout`
    /// on the timeline while replies resolve in milliseconds: the resulting
    /// event population is the heavily skewed shape the ladder queue
    /// ([`QueueKind::Ladder`], this config's default) exists for.
    pub fn dead_peer_day(strategy: StrategyKind) -> Self {
        DaySweepConfig {
            churn: Some(DeadPeerChurn::default()),
            cache_refresh: SimDuration::from_secs(120),
            // This scenario exists to park timeout events on the timeline
            // (the skewed population the ladder queue is for), so no
            // exchange is decided at send: every reservation arms.
            rs_timeout_fast_path: false,
            ..Self::new(strategy)
        }
    }

    /// Compresses the whole scenario in time by `factor`: the arrival
    /// profile ([`DayProfile::compressed`]), the churn cycle, the
    /// cache-refresh period and the sample period all shrink together, so
    /// the day's per-job pressure (timeouts per job, refusals, burst shape)
    /// is preserved in `1/factor` of the virtual time.  `rs_timeout` is a
    /// protocol constant and does *not* compress: relative to a compressed
    /// day the 2 s timeout window widens, which makes compressed traces the
    /// natural stress test for skew-sensitive queue structures.
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
        self.faults = std::mem::take(&mut self.faults)
            .into_iter()
            .map(|f| f.compressed(&shrink))
            .collect();
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
    /// Cores available per site.
    pub site_cores: Vec<usize>,
    /// Per-site running-process samples on the configured period.
    pub samples: Vec<UtilisationSample>,
    /// Core-seconds of work charged per site over the whole trace.
    pub core_seconds: Vec<f64>,
    /// Width of the [`DaySweepResult::site_core_bins`] bins, in seconds
    /// (the configured sample period).
    pub bin_secs: f64,
    /// Per-site core-seconds timeline: `site_core_bins[site][b]` is the
    /// work charged to `site` inside virtual-time bin
    /// `[b·bin_secs, (b+1)·bin_secs)`.  Each hold is spread across the
    /// bins it overlaps at charge time, so the series is exact (its sum
    /// equals `core_seconds`) and deterministic across queue kinds — this
    /// is what the recovery-time-to-95% gates measure against.
    pub site_core_bins: Vec<Vec<f64>>,
    /// Jobs submitted.
    pub submitted: usize,
    /// Jobs that allocated and ran.
    pub succeeded: usize,
    /// Jobs refused (infeasible or start failures under load/churn).
    pub failed: usize,
    /// Reservation timeouts observed on the timeline (dead booked peers)
    /// across the whole trace — each one parked a full `rs_timeout` event.
    pub timeouts: u64,
    /// Mean hold duration charged per successful job (seconds).
    pub mean_hold_secs: f64,
    /// Messages delivered on the overlay timeline — messages delivered, not
    /// heap pops: an event that delivers a whole round's decided replies
    /// counts once per reply (`Overlay::events_processed`).
    pub events_processed: u64,
    /// The virtual clock when the trace ended.
    pub virtual_end: SimTime,
    /// Timeline payload-slot capacity sampled halfway through the trace
    /// (after the morning burst set the high-water mark) and at the end.
    /// An equal pair means the steady state allocated no event storage.
    pub events_capacity_mid: usize,
    /// See [`DaySweepResult::events_capacity_mid`].
    pub events_capacity_end: usize,
    /// Brokering scratch capacity at the same two instants: the
    /// pending-reply bookkeeping of `Overlay::rs_send` must not re-allocate
    /// per request once warm.
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
    /// Tombstones eagerly compacted by the reap cadence (see
    /// [`DaySweepConfig::reap_threshold`]).  Zero when the trace never
    /// crossed the threshold or reaping is disabled.
    pub reaped_tickets: u64,
    /// High-water mark of dead (cancelled-but-unpopped) tickets observed at
    /// job boundaries.  With reaping on, bounded by `reap_threshold` plus
    /// one inter-job interval's cancellations.
    pub dead_ticket_hwm: usize,
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
    /// True if neither the event store nor the brokering scratch allocated
    /// after the mid-trace sample — the allocation-free steady state the
    /// brokering hot path promises.
    pub fn steady_state_alloc_free(&self) -> bool {
        self.events_capacity_mid == self.events_capacity_end
            && self.rs_scratch_capacity_mid == self.rs_scratch_capacity_end
    }
}

impl DaySweepResult {
    /// Grid-total core-seconds per time bin (sites summed), the utilisation
    /// timeline the recovery metric compares against its twin's.
    pub fn total_core_bins(&self) -> Vec<f64> {
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
    pub fn site_core_seconds_between(&self, site: usize, start_secs: f64, end_secs: f64) -> f64 {
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
}

/// Running processes per site, in site-id order.
pub(crate) fn sample_running(tb: &Grid5000Testbed) -> Vec<u32> {
    let mut running = vec![0u32; tb.topology.site_count()];
    for peer in tb.overlay.peer_ids() {
        let site = tb.topology.host(tb.overlay.host_of(peer)).site;
        running[site.0] += tb.overlay.node(peer).rs.running_processes();
    }
    running
}

/// Applies the [`FaultSpec::FlashCrowd`] entries of `faults` to `profile`
/// (flash crowds reshape the arrival process itself, so they act before the
/// trace is drawn; every other fault is an event on the overlay timeline).
/// Combinators are flattened first, so a crowd inside a `Compose` or under
/// a `PhaseShift` splices at its effective onset.
pub(crate) fn burst_profile(profile: &DayProfile, faults: &[FaultSpec]) -> DayProfile {
    let mut profile = profile.clone();
    for fault in flatten_faults(faults) {
        if let FaultSpec::FlashCrowd {
            at,
            duration,
            factor,
        } = fault
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
/// [`SweepCore::finish`] is exactly the historical sequential loop; the
/// one addition, the tombstone-reap cadence, is outcome-invariant.
pub(crate) struct SweepCore {
    pub(crate) cfg: DaySweepConfig,
    pub(crate) tb: Grid5000Testbed,
    pub(crate) allocator: CoAllocator,
    /// The modeled makespan of every placed job, costed once per placement
    /// shape (see [`crate::experiments`]' module docs).
    shape_costs: ShapeCosts,
    site_names: Vec<String>,
    site_cores: Vec<usize>,
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
    reaped_tickets: u64,
    dead_ticket_hwm: usize,
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
        let mut tb = testbed_from_specs_with_queue(specs, seed, NoiseModel::default(), cfg.queue);
        tb.overlay.tracer().set_enabled(false);
        tb.overlay
            .set_rs_timeout_fast_path(cfg.rs_timeout_fast_path);
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
            tb.overlay.schedule_churn(schedule.finish());
        }

        // Timeline faults: correlated site outages, rack brown-outs, link
        // degradation windows and supernode crashes ride the same event
        // queue as everything else.  Combinator trees (`Compose`,
        // `PhaseShift`) unfold into primitives first, so a composed
        // scenario installs exactly the schedule its flattened parts would.
        let submitter_peer = tb.submitter;
        for fault in flatten_faults(&cfg.faults) {
            match &fault {
                FaultSpec::FlashCrowd { .. } => {} // applied to the profile pre-trace
                FaultSpec::SiteOutage { site, at, duration } => {
                    let schedule = p2pmpi_grid5000::site_outage_schedule(
                        &tb.overlay,
                        site,
                        SimTime::ZERO + *at,
                        *duration,
                        &[submitter_peer],
                    );
                    tb.overlay.schedule_churn(schedule.finish());
                }
                FaultSpec::PartialSite {
                    site,
                    hosts,
                    at,
                    duration,
                } => {
                    let subset = p2pmpi_grid5000::site_host_subset(
                        &tb.overlay,
                        site,
                        *hosts,
                        &[submitter_peer],
                    );
                    tb.overlay
                        .schedule_host_outage(&subset, SimTime::ZERO + *at, *duration);
                }
                FaultSpec::SlowLinks {
                    site,
                    at,
                    duration,
                    latency_factor,
                } => {
                    let site_id = tb
                        .topology
                        .site_by_name(site)
                        .unwrap_or_else(|| panic!("unknown site '{site}'"))
                        .id;
                    tb.overlay.schedule_link_degradation(
                        site_id,
                        SimTime::ZERO + *at,
                        *duration,
                        *latency_factor,
                    );
                }
                FaultSpec::SupernodeOutage { at, duration } => {
                    tb.overlay
                        .schedule_supernode_outage(SimTime::ZERO + *at, *duration);
                }
                FaultSpec::Compose(_) | FaultSpec::PhaseShift { .. } => {
                    unreachable!("flatten_faults only yields primitives")
                }
            }
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
        let site_cores: Vec<usize> = tb
            .topology
            .sites()
            .iter()
            .map(|s| tb.topology.cores_at_site(s.id))
            .collect();
        let core_seconds = vec![0.0f64; site_names.len()];

        // Under churn the submitter re-probes on the refresh cadence,
        // exactly like its bootstrap did: freshly (re-)learned peers
        // re-enter the booking order by measured latency instead of parking
        // unprobed at the back.  Driven from the submission loop (not a
        // scheduled event) so the probe RNG draws happen at job
        // boundaries, identically for every queue kind.
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
            site_cores,
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
            reaped_tickets: 0,
            dead_ticket_hwm: 0,
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

    /// The tombstone-reap cadence (see [`DaySweepConfig::reap_threshold`]):
    /// tracks the dead-ticket high-water mark and eagerly compacts the
    /// timeline when cancellations outrun pops.
    fn maybe_reap(&mut self) {
        let dead = self
            .tb
            .overlay
            .events_queued()
            .saturating_sub(self.tb.overlay.events_pending());
        self.dead_ticket_hwm = self.dead_ticket_hwm.max(dead);
        if dead > self.cfg.reap_threshold {
            self.reaped_tickets += self.tb.overlay.reap_events() as u64;
        }
    }

    /// Advances the timeline to `at` with samples, probe and reap cadence —
    /// exactly what [`SweepCore::submit`] does before brokering.  The
    /// sharded driver calls this to bring a shard to a synchronization
    /// barrier.
    pub(crate) fn advance_to(&mut self, at: SimTime) {
        self.sample_due(at);
        self.tb.overlay.run_until(at);
        self.maybe_probe();
        self.maybe_reap();
    }

    /// Charges `hold` on every booked host of `alloc` and schedules the
    /// job's completion (releasing the hosts) `hold` after now.  The
    /// counterpart, for cross-shard jobs whose hold was computed on the
    /// merged view, is [`SweepCore::charge_remote`] plus the driver's
    /// batched scatter-back.
    pub(crate) fn record_success(
        &mut self,
        alloc: &p2pmpi_core::allocation::Allocation,
        key: p2pmpi_overlay::ReservationKey,
        hold: SimDuration,
    ) {
        self.succeeded += 1;
        self.hold_secs_total += hold.as_secs_f64();
        let done_at = self.tb.overlay.now() + hold;
        self.charge_remote(alloc, hold);
        let peers: Vec<_> = alloc.hosts.iter().map(|h| h.peer).collect();
        self.tb.overlay.schedule_completion(done_at, key, peers);
    }

    /// Adds `hold`'s core-seconds for `alloc`'s hosts to this core's
    /// per-site ledger without scheduling anything — the charging half of
    /// [`SweepCore::record_success`], used on its own when the completion
    /// is scattered back in a barrier batch.
    pub(crate) fn charge_remote(
        &mut self,
        alloc: &p2pmpi_core::allocation::Allocation,
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
                self.record_success(alloc, report.key, hold);
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
            site_cores: self.site_cores,
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
            reaped_tickets: self.reaped_tickets,
            dead_ticket_hwm: self.dead_ticket_hwm,
            search: self.search.as_ref().map(|c| c.stats()),
            shapes_costed: self.shape_costs.shapes(),
        }
    }
}

/// Replays a [`DayProfile`] submission trace against a fresh Grid'5000
/// testbed on the overlay's event timeline.  See the module docs for the
/// driver-loop shape; the `fig23_sweep` binary renders the result.  This
/// is the sequential driver: one [`SweepCore`] over all of Table 1, every
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

    // -- satellite: statistical coverage of the arrival generators --------

    #[test]
    fn poisson_mean_gap_matches_inverse_rate_over_10k_draws() {
        // Mean of 10k Exp(rate) draws must sit within 3 standard errors of
        // 1/rate (sigma of the mean = (1/rate)/sqrt(n) ≈ 0.02 here).
        let rate = 0.5; // mean gap 2 s
        let n = 10_000;
        let mut p = PoissonArrivals::new(rate, 42);
        let mean: f64 = (0..n).map(|_| p.next_gap().as_secs_f64()).sum::<f64>() / n as f64;
        let expected = 1.0 / rate;
        let tolerance = 3.0 * expected / (n as f64).sqrt();
        assert!(
            (mean - expected).abs() < tolerance,
            "mean gap {mean} vs expected {expected} ± {tolerance}"
        );
    }

    #[test]
    fn poisson_gaps_are_deterministic_per_seed_and_vary_across_seeds() {
        let a: Vec<_> = PoissonArrivals::new(1.0, 7).gaps(50);
        let b: Vec<_> = PoissonArrivals::new(1.0, 7).gaps(50);
        let c: Vec<_> = PoissonArrivals::new(1.0, 8).gaps(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn bursty_alternates_phases_with_per_phase_rates() {
        // 100 draws per phase: each phase's mean gap must match its own
        // rate within 5 standard errors, through two full cycles.
        let (burst_rate, quiet_rate) = (50.0, 0.5);
        let phase_len = 100usize;
        let mut g = BurstyArrivals::new(burst_rate, phase_len, quiet_rate, phase_len, 3);
        for cycle in 0..2 {
            for (phase, rate) in [("burst", burst_rate), ("quiet", quiet_rate)] {
                assert_eq!(g.in_burst(), phase == "burst", "cycle {cycle} {phase}");
                let mean: f64 = (0..phase_len)
                    .map(|_| g.next_gap().as_secs_f64())
                    .sum::<f64>()
                    / phase_len as f64;
                let expected = 1.0 / rate;
                let tolerance = 5.0 * expected / (phase_len as f64).sqrt();
                assert!(
                    (mean - expected).abs() < tolerance,
                    "cycle {cycle} {phase} mean {mean} vs {expected} ± {tolerance}"
                );
            }
        }
    }

    #[test]
    fn bursty_gaps_are_deterministic_per_seed() {
        let a = BurstyArrivals::new(10.0, 5, 0.1, 5, 11).gaps(40);
        let b = BurstyArrivals::new(10.0, 5, 0.1, 5, 11).gaps(40);
        let c = BurstyArrivals::new(10.0, 5, 0.1, 5, 12).gaps(40);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        PoissonArrivals::new(0.0, 1);
    }

    // -- DayProfile -------------------------------------------------------

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
        let n = p.arrivals(1).len() as f64;
        assert!((n - expected).abs() < 5.0 * expected.sqrt(), "sampled {n}");
    }

    #[test]
    fn arrivals_are_sorted_in_horizon_and_deterministic() {
        let p = DayProfile::paper_day();
        let a = p.arrivals(9);
        let b = p.arrivals(9);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals sorted");
        let end = SimTime::ZERO + p.horizon();
        assert!(a.iter().all(|&t| t < end));
        assert_ne!(a.len(), p.arrivals(10).len());
    }

    #[test]
    fn arrival_density_follows_the_rate_profile() {
        // The 9–12h burst must be ~11x denser than the 0–6h night (rates
        // 0.55 vs 0.05); allow generous sampling noise.
        let p = DayProfile::paper_day();
        let arrivals = p.arrivals(5);
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
        // Statistical check mirroring the Poisson generator tests: arrivals
        // sampled inside a spliced 10x window must have a mean gap within
        // 3 standard errors of 1/(rate*factor).
        let rate = 0.5;
        let factor = 10.0;
        let p = DayProfile::constant(rate, SimDuration::from_secs(20_000)).with_burst(
            SimDuration::from_secs(5_000),
            SimDuration::from_secs(5_000),
            factor,
        );
        let window = SimTime::from_secs(5_000)..SimTime::from_secs(10_000);
        let inside: Vec<SimTime> = p
            .arrivals(77)
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
}
