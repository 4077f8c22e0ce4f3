//! The fault-injection scenario matrix: named adversity specs compiled onto
//! the day-sweep timeline, each judged against explicit graceful-degradation
//! criteria, and the adversarial phase search over its composed scenario.
//!
//! Where `workload` provides the *mechanisms* (a [`FaultSpec`] vocabulary and
//! a driver that schedules them), this module provides the *policy*: a fixed
//! matrix of named scenarios ([`Scenario`]), one [`DaySweepConfig`] per
//! scenario, and a [`ScenarioVerdict`] that states whether the overlay
//! degraded gracefully — not merely whether it survived.  `day --scenario`
//! prints one JSON verdict per scenario and exits non-zero on any failure;
//! CI runs it over the whole matrix compressed (`day --scenario all
//! --compress 24 --rate-scale 0.05`) as a gate.
//!
//! # Scenario taxonomy
//!
//! The matrix is one table, `MATRIX`: one row per scenario holding its
//! name, its authored config on the uncompressed day, its twin (none,
//! fault-free, or keeping the flash crowd) and its ordered checks, the
//! recovery SLO among them.  Each check kind is judged in one place
//! (`Check::judge`); a row supplies only the threshold, site or note that
//! differs between rows.  Read off the table, the rows are two controls
//! (`baseline_day`, `dead_peer_day`), five single faults judged against a
//! fault-free twin or absolute bounds, one partial degradation
//! (`rack_outage`: the site must dim, not go dark) and two composed faults
//! judged against a crowd-only twin (`outage_in_crowd` and its pinned
//! worst phase, `outage_in_crowd_worst`).
//!
//! A phase shift is an onset, not a wrapper: [`outage_in_crowd_config`]
//! authors the Nancy outage at `max(10:30 + offset, 0)` on the uncompressed
//! day, durations, factors and sites untouched, and
//! [`DaySweepConfig::compress`] scales that onset like every other fault
//! time, keeping the phase of fault vs burst invariant across scales.
//!
//! # The fault-event contract
//!
//! Every timeline fault takes one path: `FaultSpec::churn` compiles an
//! entry of [`DaySweepConfig::faults`] into a churn schedule, and the
//! driver puts one schedule per entry on the timeline through
//! `Overlay::schedule_churn`, in list order, so two faults due at one
//! instant act in the order they are listed.  A flash crowd compiles to
//! nothing: it reshapes the arrivals before the trace is drawn.  Beyond
//! each [`FaultSpec`] variant's own semantics, the verdicts rely on:
//!
//! * **Revocation ordering** — a peer crash first mass-revokes the doomed
//!   completions of its running jobs (one `cancel_batch` over their event
//!   keys, when `fail_jobs_on_crash` is on), freeing every participant
//!   *before* any later event observes the dead peer.  A revoked completion
//!   is never delivered; `jobs_killed` counts the revocations.
//! * **Correlated outages** — a site's (or, for a partial site, its first
//!   `hosts` hosts') peers crash at one instant and recover together,
//!   unlike the independent flapping of [`DeadPeerChurn`].  Both kinds walk
//!   the site's hosts in topology order, a whole site without a limit, and
//!   both spare the submitter.
//! * **Supernode degraded mode** — while the supernode is down, cache
//!   refreshes return empty (the submitter brokers from its stale
//!   `CachedList` instead of halting); on recovery the next heartbeat round
//!   re-registers every alive peer the registry no longer knows.
//! * **Link degradation** applies to transfers *scheduled* during the
//!   window.  A reply that loses the 2 s race to its timeout leaks its
//!   grant: counted in `leaked_grants` and eagerly released one transfer
//!   later, so the high-water mark (`leaked_grant_hwm`) stays far below the
//!   total.
//!
//! # Recovery-time SLOs
//!
//! Every verdict carries `recovery_secs` ([`recovery_to_twin`]: time until
//! grid-total utilisation regains 95% of the twin's; 0 without an outage
//! window).  Windowed scenarios gate it against a per-scenario SLO authored
//! on the uncompressed day and divided by the compression factor, so one
//! bound works at every scale; it is the only bound on a recovery time.
//!
//! # The verdict schema
//!
//! [`ScenarioVerdict::to_json`] renders one object per scenario:
//!
//! ```json
//! {
//!   "scenario": "site_outage",
//!   "passed": true,
//!   "metrics": { "submitted": 1085, "succeeded": 934, "failed": 151,
//!                "timeouts": 412, "jobs_killed": 17, "leaked_grants": 0,
//!                "leaked_grant_hwm": 0, "events_processed": 123456,
//!                "steady_state_alloc_free": true },
//!   "baseline": { "submitted": 1085, "succeeded": 1012, "failed": 73,
//!                 "timeouts": 0 },
//!   "recovery_secs": 120.0,
//!   "checks": [ { "name": "utilisation_recovers", "passed": true,
//!                 "detail": "..." } ]
//! }
//! ```
//!
//! `baseline` is the scenario's twin (same seed; no faults — except in
//! composed scenarios, where the twin keeps the flash crowd so both runs
//! replay the same trace) and is `null` for scenarios judged on absolute
//! criteria; `recovery_secs` is `0.0` when the scenario has no outage
//! window (trivially recovered) and `null` only when utilisation never
//! regained the twin's level.
//!
//! [`DeadPeerChurn`]: crate::workload::DeadPeerChurn

use crate::par::par_map;
use crate::workload::{
    run_day_sweep, DaySweepConfig, DaySweepResult, DeadPeerChurn, FaultSpec, JobMix,
};
use p2pmpi_core::strategy::StrategyKind;
use p2pmpi_simgrid::time::SimDuration;

/// Knobs shared by every scenario of a matrix run.
#[derive(Debug, Clone)]
pub struct ScenarioParams {
    /// Time compression of the day (1.0 = the full 86,400 s day).  Fault
    /// windows compress with it; the 2 s `rs_timeout` protocol constant
    /// does not.
    pub compress: f64,
    /// Arrival-rate multiplier (0.05 ≈ 1.1k jobs/day, the smoke scale).
    pub rate_scale: f64,
    /// Master seed (arrivals, job mix, testbed noise, churn phases).
    pub seed: u64,
    /// Optional allocation-strategy override applied to every scenario
    /// (and its no-fault twin).  `None` keeps each scenario's authored
    /// strategy.  [`StrategyKind::Searched`] puts the online placement
    /// search under fault pressure: the graceful-degradation gates must
    /// hold there exactly as they do for the fixed strategies.
    pub strategy: Option<StrategyKind>,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            compress: 1.0,
            rate_scale: 0.05,
            seed: 2008,
            strategy: None,
        }
    }
}

/// Post-recovery utilisation must reach this share of the no-fault twin's
/// (the "within 5%" acceptance bound).
const RECOVERY_UTILISATION_RATIO: f64 = 0.95;
/// The adversarial phase offset (seconds on the uncompressed day, applied
/// to the Nancy outage's 10:30 onset) `day --worst-phase` found to
/// maximise recovery time against the 10:00–12:00 flash crowd: -900 s
/// slides the outage window to 10:15–12:15, so Nancy — the site carrying
/// most of the submitter's work — comes back *just* after the crowd ends,
/// into the post-crowd lull where almost no arrivals refill it while the
/// twin still rides the crowd's hold tail (recovery 87.5 s vs the nominal
/// onset's 25 s at CI scale, 3.5x).  Pinned here so `outage_in_crowd_worst`
/// replays the found worst case deterministically; re-run `day
/// --worst-phase` to revalidate after placement or profile changes.
pub const OUTAGE_IN_CROWD_WORST_OFFSET_SECS: f64 = -900.0;

/// The named scenarios of the matrix, in the order the runner executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The standard no-fault day, the absolute reference: an
    /// allocation-free steady state and exactly zero leaked grants.
    BaselineDay,
    /// Independent dead-peer flapping ([`DaySweepConfig::dead_peer_day`]):
    /// timeouts must fire *and* most of the day must still place.
    DeadPeerDay,
    /// All of Rennes down for two hours mid-burst, killing running jobs:
    /// utilisation must dip, then recover to within 5% of the twin.
    SiteOutage,
    /// A 10x late-morning arrival burst the overlay must absorb.
    FlashCrowd,
    /// Rennes links 5x slower for three hours: replies still win their
    /// timeout races, so no grant leaks.
    SlowLinks,
    /// The supernode down for three hours while peers flap: brokering goes
    /// on from the stale cached view and the registry resyncs on recovery.
    SupernodeCrash,
    /// Sophia links 200x slower while every job books there: replies lose
    /// the 2 s race, so grants leak — and must be eagerly reclaimed.
    GrantLeakStress,
    /// 30 of Rennes' 90 hosts down for two hours
    /// ([`FaultSpec::PartialSite`]): the site must dim, not go dark.
    RackOutage,
    /// A Nancy outage *during* the 10x flash crowd
    /// ([`outage_in_crowd_config`]), judged against a crowd-only twin;
    /// recovery is strictly harder than the lone outage's.
    OutageInCrowd,
    /// [`Scenario::OutageInCrowd`] at the pinned worst phase
    /// ([`OUTAGE_IN_CROWD_WORST_OFFSET_SECS`]), with its own looser SLO.
    OutageInCrowdWorst,
}

/// Every scenario, in matrix order.
pub const ALL_SCENARIOS: [Scenario; 10] = [
    Scenario::BaselineDay,
    Scenario::DeadPeerDay,
    Scenario::SiteOutage,
    Scenario::FlashCrowd,
    Scenario::SlowLinks,
    Scenario::SupernodeCrash,
    Scenario::GrantLeakStress,
    Scenario::RackOutage,
    Scenario::OutageInCrowd,
    Scenario::OutageInCrowdWorst,
];

const fn hours(h: u64) -> SimDuration {
    SimDuration::from_secs(h * 3600)
}

/// What a relative verdict compares against: the scenario's own config
/// and seed with faults removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Twin {
    FaultFree,
    /// Only the flash crowd kept: both runs replay one inflated trace.
    KeepsCrowd,
}

impl Twin {
    fn run(self, cfg: &DaySweepConfig) -> DaySweepResult {
        let mut twin = cfg.clone();
        let keeps_crowd = self == Twin::KeepsCrowd;
        twin.faults
            .retain(|f| keeps_crowd && matches!(f, FaultSpec::FlashCrowd { .. }));
        run_day_sweep(&twin)
    }
}

/// One pass/fail criterion kind.  A variant carries only what differs
/// between the rows that use it: a threshold, a site or a detail note.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Check {
    /// The note says why no grant may leak.
    NoLeakedGrants(&'static str),
    GrantLeakPathExercised,
    LeaksEagerlyReclaimed,
    NoJobsKilled,
    OutageKillsRunningJobs,
    TimeoutsFired,
    CompletedJobsWhileDegraded,
    /// Minimum share of the submitted jobs that succeed.
    SuccessShare(f64),
    /// Minimum share of the twin's successes.
    SuccessVsBaseline(f64),
    SteadyStateAllocFree,
    BurstArrivalsSpliced,
    ThroughputNotReduced,
    SameArrivalTrace,
    /// The site runs nothing during the outage window.
    SiteGoesDark(&'static str),
    /// The site runs less than its twin during the window, but not nothing.
    SiteDimsNotDark(&'static str),
    UtilisationRecovers,
    /// The note names the twin in the detail.
    RecoveryObserved(&'static str),
    /// The recovery SLO in seconds on the *uncompressed* day, divided by
    /// the compression factor at judge time.  Calibrated at the CI scale
    /// with headroom: holds do not compress with the day, so a compressed
    /// run's recovery is dominated by the killed jobs' re-run tails.
    RecoveryWithinSlo(f64),
}

/// What a check reads: one scenario's faulted run and its evidence.
struct Judged<'a> {
    cfg: &'a DaySweepConfig,
    result: &'a DaySweepResult,
    twin: Option<&'a DaySweepResult>,
    recovery_secs: Option<f64>,
    compress: f64,
}

impl Check {
    /// The criterion's stable name (the JSON `name` field).
    fn name(self) -> &'static str {
        match self {
            Check::NoLeakedGrants(_) => "no_leaked_grants",
            Check::GrantLeakPathExercised => "grant_leak_path_exercised",
            Check::LeaksEagerlyReclaimed => "leaks_eagerly_reclaimed",
            Check::NoJobsKilled => "no_jobs_killed",
            Check::OutageKillsRunningJobs => "outage_kills_running_jobs",
            Check::TimeoutsFired => "timeouts_fired",
            Check::CompletedJobsWhileDegraded => "completed_jobs_while_degraded",
            Check::SuccessShare(_) => "success_share",
            Check::SuccessVsBaseline(_) => "success_vs_baseline",
            Check::SteadyStateAllocFree => "steady_state_alloc_free",
            Check::BurstArrivalsSpliced => "burst_arrivals_spliced",
            Check::ThroughputNotReduced => "throughput_not_reduced",
            Check::SameArrivalTrace => "same_arrival_trace",
            Check::SiteGoesDark(_) => "site_goes_dark_during_outage",
            Check::SiteDimsNotDark(_) => "site_dims_not_dark",
            Check::UtilisationRecovers => "utilisation_recovers",
            Check::RecoveryObserved(_) => "recovery_observed",
            Check::RecoveryWithinSlo(_) => "recovery_within_slo",
        }
    }

    /// Judges the criterion on `j`.  Panics when a row pairs a relative
    /// check with no twin, or a windowed one with no outage window (a
    /// matrix-definition bug).
    fn judge(self, j: &Judged) -> CheckOutcome {
        use Check::*;
        let r = j.result;
        let (submitted, succeeded) = (r.submitted, r.succeeded);
        let (killed, leaked, hwm) = (r.jobs_killed, r.leaked_grants, r.leaked_grant_hwm);
        let twin = || j.twin.expect("a relative check runs against a twin");
        let window = || outage_window(j.cfg).expect("a windowed check needs an outage window");
        let (passed, detail) = match self {
            NoLeakedGrants(why) => (leaked == 0, format!("leaked_grants = {leaked} ({why})")),
            GrantLeakPathExercised => (leaked > 0, format!("leaked_grants = {leaked}")),
            LeaksEagerlyReclaimed => (
                leaked == 0 || hwm < leaked,
                format!(
                    "high-water mark {hwm} of {leaked} total leaks (eager release must drain \
                     between jobs)"
                ),
            ),
            NoJobsKilled => (killed == 0, format!("jobs_killed = {killed}")),
            OutageKillsRunningJobs => (killed > 0, format!("jobs_killed = {killed}")),
            TimeoutsFired => (
                r.timeouts > 0,
                format!("reservation timeouts = {}", r.timeouts),
            ),
            CompletedJobsWhileDegraded => (succeeded > 0, format!("succeeded = {succeeded}")),
            SuccessShare(min) => succeeded_at_least(succeeded, submitted, min),
            SuccessVsBaseline(min) => succeeded_at_least(succeeded, twin().succeeded, min),
            SteadyStateAllocFree => {
                let (e0, e1) = (r.events_capacity_mid, r.events_capacity_end);
                let (s0, s1) = (r.rs_scratch_capacity_mid, r.rs_scratch_capacity_end);
                let detail = format!("events capacity {e0} -> {e1}, scratch {s0} -> {s1}");
                (r.steady_state_alloc_free(), detail)
            }
            BurstArrivalsSpliced => {
                let base = twin().submitted;
                let detail = format!("submitted {submitted} vs no-burst twin {base}");
                (submitted > base, detail)
            }
            ThroughputNotReduced => {
                let base = twin().succeeded;
                let detail = format!(
                    "succeeded {succeeded} vs no-burst twin {base} (extra load must not reduce \
                     completed work)"
                );
                (succeeded >= base, detail)
            }
            SameArrivalTrace => {
                let base = twin().submitted;
                let detail = format!(
                    "submitted {submitted} vs crowd twin {base} (the twin keeps the crowd, so \
                     both runs replay one inflated trace)"
                );
                (submitted == base, detail)
            }
            SiteGoesDark(site) => {
                // Killed jobs and dead peers mean the site runs *nothing*
                // in the window; total running counts can even rise, as
                // displaced work runs longer farther away.  The twin
                // comparison uses exact core-seconds: the sample grid can
                // be sparser than the holds and catch the twin's site empty.
                let (start, end) = window();
                let idx = site_index(r, site);
                let dark: f64 = (r.samples.iter())
                    .filter(|s| (start..end).contains(&s.t.as_secs_f64()))
                    .map(|s| s.running[idx] as f64)
                    .sum();
                let (fault_cs, twin_cs) = (r.core_seconds[idx], twin().core_seconds[idx]);
                let detail = format!(
                    "{site} outage-window utilisation {dark:.0}, whole-day core-seconds \
                     {fault_cs:.0} vs twin {twin_cs:.0} (the outage must remove {site} work)"
                );
                (dark == 0.0 && twin_cs > 0.0 && fault_cs < twin_cs, detail)
            }
            SiteDimsNotDark(site) => {
                let (start, end) = window();
                let idx = site_index(r, site);
                let fault_win = r.site_core_seconds_between(idx, start, end);
                let twin_win = twin().site_core_seconds_between(idx, start, end);
                let detail = format!(
                    "{site} outage-window core-seconds {fault_win:.0} vs twin {twin_win:.0} \
                     (the rack loss must dim the site, not darken it)"
                );
                (fault_win > 0.0 && fault_win < twin_win, detail)
            }
            UtilisationRecovers => {
                let (_, end) = window();
                let ratio = utilisation_after(r, end) / utilisation_after(twin(), end).max(1.0);
                let bound = RECOVERY_UTILISATION_RATIO;
                let detail = format!("post-recovery utilisation ratio {ratio:.3} (bound {bound})");
                (ratio >= bound, detail)
            }
            RecoveryObserved(twin_noun) => (
                j.recovery_secs.is_some(),
                match j.recovery_secs {
                    Some(s) => format!(
                        "utilisation regained the {twin_noun}'s level {s:.0}s after the outage \
                         ended"
                    ),
                    None => "utilisation never regained the twin's level".to_string(),
                },
            ),
            RecoveryWithinSlo(slo) => {
                // A recovery that never happened always fails.
                let bound = slo / j.compress.max(1.0);
                let detail = match j.recovery_secs {
                    Some(s) => {
                        format!("recovery {s:.0}s vs SLO {bound:.0}s (authored {slo:.0}s/day)")
                    }
                    None => format!("never recovered (SLO {bound:.0}s)"),
                };
                (j.recovery_secs.is_some_and(|s| s <= bound), detail)
            }
        };
        CheckOutcome {
            name: self.name(),
            passed,
            detail,
        }
    }
}

/// `got >= ceil(reference * min_ratio)` successes, with the evidence.
fn succeeded_at_least(got: usize, reference: usize, min_ratio: f64) -> (bool, String) {
    let bound = (reference as f64 * min_ratio).ceil() as usize;
    let pct = min_ratio * 100.0;
    let detail = format!("succeeded: {got} vs bound {bound} ({pct:.0}% of {reference})");
    (got >= bound, detail)
}

/// One row of the matrix: everything that defines a scenario.
struct Row {
    /// The stable name (CLI argument, JSON `scenario` field).
    name: &'static str,
    /// The authored config on the uncompressed day, before the matrix-wide
    /// knobs ([`finalize_config`]).
    config: fn() -> DaySweepConfig,
    /// `None` for scenarios judged on absolute criteria only.
    twin: Option<Twin>,
    /// The criteria, in verdict order.
    checks: &'static [Check],
}

/// The matrix, indexed by [`Scenario`] (declaration order).
static MATRIX: [Row; 10] = [
    Row {
        name: "baseline_day",
        config: || DaySweepConfig::new(StrategyKind::Concentrate),
        twin: None,
        // Holds do not compress with the day, so the CI scale's burst-hour
        // refusals are real: the share is ~0.77 there, ~0.9+ uncompressed.
        checks: &[
            Check::NoLeakedGrants("must be 0 on the standard day"),
            Check::NoJobsKilled,
            Check::SteadyStateAllocFree,
            Check::SuccessShare(0.70),
        ],
    },
    Row {
        name: "dead_peer_day",
        config: || DaySweepConfig::dead_peer_day(StrategyKind::Concentrate),
        twin: None,
        // The `day_sweep` integration test's bound under brutal flapping.
        checks: &[
            Check::TimeoutsFired,
            Check::SuccessShare(0.25),
            Check::SteadyStateAllocFree,
        ],
    },
    Row {
        name: "site_outage",
        config: || DaySweepConfig {
            faults: vec![FaultSpec::SiteOutage {
                site: "rennes".to_string(),
                at: hours(9),
                duration: hours(2),
            }],
            fail_jobs_on_crash: true,
            ..spread_large_ranks()
        },
        twin: Some(Twin::FaultFree),
        checks: &[
            Check::SiteGoesDark("rennes"),
            Check::UtilisationRecovers,
            Check::RecoveryObserved("twin"),
            Check::SuccessVsBaseline(0.60),
            Check::RecoveryWithinSlo(3600.0),
        ],
    },
    Row {
        name: "flash_crowd",
        config: || DaySweepConfig {
            faults: vec![FaultSpec::FlashCrowd {
                at: hours(10),
                duration: hours(1),
                factor: 10.0,
            }],
            ..DaySweepConfig::new(StrategyKind::Concentrate)
        },
        // This twin drops the crowd: it proves the burst was spliced.
        twin: Some(Twin::FaultFree),
        // The burst nearly doubles the arrivals against fixed capacity:
        // refusals are expected, collapse is not (~0.47 at CI scale).
        checks: &[
            Check::BurstArrivalsSpliced,
            Check::ThroughputNotReduced,
            Check::SuccessShare(0.40),
            Check::SteadyStateAllocFree,
        ],
    },
    Row {
        name: "slow_links",
        config: || DaySweepConfig {
            faults: vec![FaultSpec::SlowLinks {
                site: "rennes".to_string(),
                at: hours(9),
                duration: hours(3),
                latency_factor: 5.0,
            }],
            ..spread_large_ranks()
        },
        twin: Some(Twin::FaultFree),
        checks: &[
            Check::SuccessVsBaseline(0.90),
            Check::NoLeakedGrants("5x latency must stay inside the 2s timeout"),
        ],
    },
    Row {
        name: "supernode_crash",
        // Mild flapping makes the registry load-bearing: without refreshes
        // the submitter's view goes stale.
        config: || DaySweepConfig {
            churn: Some(DeadPeerChurn {
                fraction: 0.10,
                ..DeadPeerChurn::default()
            }),
            faults: vec![FaultSpec::SupernodeOutage {
                at: hours(9),
                duration: hours(3),
            }],
            ..DaySweepConfig::dead_peer_day(StrategyKind::Concentrate)
        },
        twin: Some(Twin::FaultFree),
        // 0.90 is the degraded-mode bound: stale-view brokering, not a halt.
        checks: &[
            Check::SuccessVsBaseline(0.90),
            Check::CompletedJobsWhileDegraded,
            Check::RecoveryWithinSlo(3600.0),
        ],
    },
    Row {
        name: "grant_leak_stress",
        // 300 hosts under spread force every job's bookings into Sophia.
        config: || DaySweepConfig {
            mix: JobMix {
                ranks: vec![300],
                ..JobMix::default()
            },
            faults: vec![FaultSpec::SlowLinks {
                site: "sophia".to_string(),
                at: hours(1),
                duration: hours(22),
                latency_factor: 200.0,
            }],
            ..DaySweepConfig::new(StrategyKind::Spread)
        },
        twin: None,
        checks: &[
            Check::GrantLeakPathExercised,
            Check::LeaksEagerlyReclaimed,
            Check::NoJobsKilled,
        ],
    },
    Row {
        name: "rack_outage",
        // Holds stretch (~3 s modeled -> ~1 min) so the brown-out reliably
        // catches jobs mid-run and leaves a measurable backlog.
        config: || DaySweepConfig {
            faults: vec![FaultSpec::PartialSite {
                site: "rennes".to_string(),
                hosts: 30,
                at: hours(9),
                duration: hours(2),
            }],
            fail_jobs_on_crash: true,
            duration_scale: 20.0,
            ..spread_large_ranks()
        },
        twin: Some(Twin::FaultFree),
        // Milder than a whole-site loss: a tighter bound than site_outage's.
        checks: &[
            Check::SiteDimsNotDark("rennes"),
            Check::OutageKillsRunningJobs,
            Check::SuccessVsBaseline(0.80),
            Check::RecoveryWithinSlo(3600.0),
        ],
    },
    Row {
        name: "outage_in_crowd",
        config: || outage_in_crowd(0.0),
        twin: Some(Twin::KeepsCrowd),
        checks: &[
            Check::SameArrivalTrace,
            Check::OutageKillsRunningJobs,
            Check::SuccessVsBaseline(0.55),
            Check::RecoveryObserved("crowd twin"),
            Check::RecoveryWithinSlo(7200.0),
        ],
    },
    Row {
        name: "outage_in_crowd_worst",
        config: || outage_in_crowd(OUTAGE_IN_CROWD_WORST_OFFSET_SECS),
        twin: Some(Twin::KeepsCrowd),
        checks: &[
            Check::SameArrivalTrace,
            Check::OutageKillsRunningJobs,
            Check::SuccessVsBaseline(0.55),
            Check::RecoveryObserved("crowd twin"),
            Check::RecoveryWithinSlo(10800.0),
        ],
    },
];

/// Spread with a large-rank palette, so Rennes (third in the submitter's
/// latency order) genuinely carries work a fault there can take away.
fn spread_large_ranks() -> DaySweepConfig {
    DaySweepConfig {
        mix: JobMix {
            ranks: vec![32, 128, 256],
            ..JobMix::default()
        },
        ..DaySweepConfig::new(StrategyKind::Spread)
    }
}

/// The authored outage-in-crowd day: a Nancy outage (10:30, 2 h)
/// phase-shifted by `offset_secs`, overlapped with a 10:00–12:00 10x flash
/// crowd.  At the nominal onset the outage clears at 12:30, inside the
/// crowd's hold tail: the twin is still crowd-inflated while arrivals have
/// collapsed to the lunch dip, so recovery measures a genuine
/// arrival-limited refill.
fn outage_in_crowd(offset_secs: f64) -> DaySweepConfig {
    let nominal = (hours(10) + SimDuration::from_secs(1800)).as_secs_f64();
    let mut cfg = DaySweepConfig {
        mix: JobMix {
            ranks: vec![8, 32, 64],
            ..JobMix::default()
        },
        faults: vec![
            FaultSpec::SiteOutage {
                site: "nancy".to_string(),
                at: SimDuration::from_secs_f64((nominal + offset_secs).max(0.0)),
                duration: hours(2),
            },
            FaultSpec::FlashCrowd {
                at: hours(10),
                duration: hours(2),
                factor: 10.0,
            },
        ],
        fail_jobs_on_crash: true,
        // Stretch holds (~4 s modeled -> ~3 min) so the outage reliably
        // kills running jobs and, crucially, so the crowd's long holds
        // persist in the twin well past the crowd itself: the
        // recovery-vs-phase basin is exactly as wide as that hold tail.
        duration_scale: 50.0,
        ..DaySweepConfig::new(StrategyKind::Spread)
    };
    // Thin the traffic (x0.1) so the normal day runs under capacity and the
    // post-crowd refill is genuinely arrival-limited — at full rate the
    // compressed day is so saturated that any freed rack refills within
    // one sample bin and recovery degenerates to zero everywhere.
    cfg.profile = cfg.profile.scaled(0.1);
    cfg
}

impl Scenario {
    /// The scenario's row of the matrix.
    fn row(self) -> &'static Row {
        &MATRIX[self as usize]
    }

    /// The scenario's stable name (CLI argument, JSON `scenario` field).
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Parses a scenario name as the runner's `--scenario` flag spells it.
    /// The error lists every valid name, so a typo at the CLI (or in CI
    /// YAML) tells the caller what it could have said.
    pub fn from_name(name: &str) -> Result<Self, String> {
        ALL_SCENARIOS
            .iter()
            .copied()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                let valid: Vec<&str> = ALL_SCENARIOS.iter().map(|s| s.name()).collect();
                format!("unknown scenario {name:?} (valid: {})", valid.join(", "))
            })
    }

    /// The scenario's sweep configuration at `params` scale.  Fault times
    /// are authored on the uncompressed day and compressed along with the
    /// profile, churn cycle and sample cadence.
    pub fn config(self, params: &ScenarioParams) -> DaySweepConfig {
        finalize_config((self.row().config)(), params)
    }
}

/// Applies the matrix-wide knobs (`seed`, strategy override,
/// compression, rate scale) to an authored scenario config.
fn finalize_config(mut cfg: DaySweepConfig, params: &ScenarioParams) -> DaySweepConfig {
    cfg.seed = params.seed;
    if let Some(strategy) = params.strategy {
        cfg.strategy = strategy;
    }
    if params.compress > 1.0 {
        cfg = cfg.compress(params.compress);
    }
    cfg.profile = cfg.profile.scaled(params.rate_scale);
    cfg
}

/// The outage-in-crowd sweep config at `params` scale with the Nancy
/// outage's onset shifted by `offset_secs` (uncompressed seconds): the
/// config of [`Scenario::OutageInCrowd`] at offset 0, and the one
/// [`search_worst_phase`] sweeps.
pub fn outage_in_crowd_config(offset_secs: f64, params: &ScenarioParams) -> DaySweepConfig {
    finalize_config(outage_in_crowd(offset_secs), params)
}

/// One pass/fail criterion of a verdict.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Stable criterion name.
    pub name: &'static str,
    /// Whether the criterion held.
    pub passed: bool,
    /// Human-readable evidence (measured values and the bound).
    pub detail: String,
}

/// The judged outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioVerdict {
    /// Which scenario ran.
    pub scenario: Scenario,
    /// The faulted run's full result.
    pub result: DaySweepResult,
    /// The no-fault twin (same seed and scale), when the scenario's
    /// criteria are relative.
    pub baseline: Option<DaySweepResult>,
    /// [`recovery_to_twin`] after the outage window; `Some(0.0)` when the
    /// scenario has no outage window (trivially recovered).
    pub recovery_secs: Option<f64>,
    /// Every criterion with its evidence.
    pub checks: Vec<CheckOutcome>,
}

impl ScenarioVerdict {
    /// True when every criterion held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Renders the verdict as one JSON object (see the module docs for the
    /// schema).
    pub fn to_json(&self) -> String {
        let r = &self.result;
        let baseline = match &self.baseline {
            Some(b) => format!(
                r#"{{ "submitted": {}, "succeeded": {}, "failed": {}, "timeouts": {} }}"#,
                b.submitted, b.succeeded, b.failed, b.timeouts
            ),
            None => "null".to_string(),
        };
        let recovery = match self.recovery_secs {
            Some(s) => format!("{s:.1}"),
            None => "null".to_string(),
        };
        let checks = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    r#"    {{ "name": "{}", "passed": {}, "detail": "{}" }}"#,
                    c.name, c.passed, c.detail
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            r#"{{
  "scenario": "{name}",
  "passed": {passed},
  "metrics": {{
    "submitted": {submitted},
    "succeeded": {succeeded},
    "failed": {failed},
    "timeouts": {timeouts},
    "jobs_killed": {jobs_killed},
    "leaked_grants": {leaked_grants},
    "leaked_grant_hwm": {leaked_hwm},
    "events_processed": {events},
    "steady_state_alloc_free": {alloc_free}
  }},
  "baseline": {baseline},
  "recovery_secs": {recovery},
  "checks": [
{checks}
  ]
}}"#,
            name = self.scenario.name(),
            passed = self.passed(),
            submitted = r.submitted,
            succeeded = r.succeeded,
            failed = r.failed,
            timeouts = r.timeouts,
            jobs_killed = r.jobs_killed,
            leaked_grants = r.leaked_grants,
            leaked_hwm = r.leaked_grant_hwm,
            events = r.events_processed,
            alloc_free = r.steady_state_alloc_free(),
        )
    }
}

/// The (start, end) seconds of the scenario's outage window in the
/// *compressed* coordinates of `cfg` (the coordinates the samples and
/// core-second bins use).
fn outage_window(cfg: &DaySweepConfig) -> Option<(f64, f64)> {
    cfg.faults.iter().find_map(|f| match f {
        FaultSpec::SiteOutage { at, duration, .. }
        | FaultSpec::SupernodeOutage { at, duration }
        | FaultSpec::PartialSite { at, duration, .. } => {
            let start = at.as_secs_f64();
            Some((start, start + duration.as_secs_f64()))
        }
        _ => None,
    })
}

/// Sum of grid-total utilisation over the samples at or after `end`.
fn utilisation_after(r: &DaySweepResult, end: f64) -> f64 {
    r.samples
        .iter()
        .filter(|s| s.t.as_secs_f64() >= end)
        .map(|s| s.running.iter().map(|&x| x as f64).sum::<f64>())
        .sum()
}

/// Panics on an unknown site (a scenario-definition bug).
fn site_index(r: &DaySweepResult, site: &str) -> usize {
    r.site_names
        .iter()
        .position(|n| n == site)
        .unwrap_or_else(|| panic!("unknown site '{site}'"))
}

/// Time-to-95%-of-twin-utilisation: the delay from `end_secs` (the close
/// of the fault window) until the faulted run's grid-total core-seconds
/// (the binned ledger, [`DaySweepResult::site_core_bins`]) first regains
/// `RECOVERY_UTILISATION_RATIO` of the twin's in the same bin, scanning
/// from the first bin fully past `end_secs`.  An empty twin bin satisfies
/// the ratio trivially: there is nothing to recover *to*.  `None` means
/// utilisation never got back within 5% before the series ended.
pub fn recovery_to_twin(
    fault: &DaySweepResult,
    twin: &DaySweepResult,
    end_secs: f64,
) -> Option<f64> {
    let w = fault.bin_secs;
    let fault_bins = fault.total_core_bins();
    let twin_bins = twin.total_core_bins();
    let bins = fault_bins.len().min(twin_bins.len());
    let first = (end_secs / w).ceil().max(0.0) as usize;
    (first.min(bins)..bins).find_map(|b| {
        if fault_bins[b] >= RECOVERY_UTILISATION_RATIO * twin_bins[b] {
            Some((b as f64 * w - end_secs).max(0.0))
        } else {
            None
        }
    })
}

/// Runs one scenario (and its twin where the criteria are relative) and
/// judges it against its row's checks, in order.
pub fn run_scenario(scenario: Scenario, params: &ScenarioParams) -> ScenarioVerdict {
    let row = scenario.row();
    let cfg = scenario.config(params);
    let result = run_day_sweep(&cfg);
    let baseline = row.twin.map(|twin| twin.run(&cfg));
    let recovery_secs = match (outage_window(&cfg), &baseline) {
        (Some((_, end)), Some(twin)) => recovery_to_twin(&result, twin, end),
        _ => Some(0.0),
    };
    let judged = Judged {
        cfg: &cfg,
        result: &result,
        twin: baseline.as_ref(),
        recovery_secs,
        compress: params.compress,
    };
    let checks = row.checks.iter().map(|c| c.judge(&judged)).collect();
    ScenarioVerdict {
        scenario,
        result,
        baseline,
        recovery_secs,
        checks,
    }
}

/// Inverse golden ratio: the interior-point placement of the
/// golden-section refinement.
const INV_PHI: f64 = 0.618_033_988_749_894_8;

/// One evaluated phase offset.
#[derive(Debug, Clone, Copy)]
pub struct PhasePoint {
    /// The offset, in uncompressed seconds (the search coordinate).
    pub offset_secs: f64,
    /// Recovery time in the run's (compressed) coordinates.  When
    /// `recovered` is false this is the remaining virtual day after the
    /// window — the pessimistic score of a run that never got back.
    pub recovery_secs: f64,
    /// Whether utilisation actually regained 95% of the twin's.
    pub recovered: bool,
    /// Jobs placed and run at this phase.
    pub succeeded: usize,
    /// Jobs submitted (identical across phases — one shared trace).
    pub submitted: usize,
    /// Running jobs the outage killed at this phase.
    pub jobs_killed: u64,
}

/// Everything one [`search_worst_phase`] hunt produced.
#[derive(Debug, Clone)]
pub struct PhaseSearchReport {
    /// Every evaluated point, in evaluation order (grid first, then
    /// refinement).
    pub points: Vec<PhasePoint>,
    /// The nominal-onset point (offset 0).
    pub nominal: PhasePoint,
    /// The worst point found (maximum recovery time; first wins ties).
    pub worst: PhasePoint,
    /// How many of the points came from golden-section refinement.
    pub refined_evals: usize,
}

impl PhaseSearchReport {
    /// Worst-vs-nominal recovery ratio (∞ when the nominal onset recovers
    /// instantly but the worst phase does not).
    pub fn worst_over_nominal(&self) -> f64 {
        if self.nominal.recovery_secs > 0.0 {
            self.worst.recovery_secs / self.nominal.recovery_secs
        } else if self.worst.recovery_secs > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

/// Runs the composed scenario at one phase offset and scores it against
/// the shared crowd twin.  A run that never recovers scores the remaining
/// virtual day, so "never recovered" dominates any finite recovery.
fn eval_phase(offset_secs: f64, params: &ScenarioParams, twin: &DaySweepResult) -> PhasePoint {
    let cfg = outage_in_crowd_config(offset_secs, params);
    let (_, end) = outage_window(&cfg).expect("the composed scenario declares an outage window");
    let result = run_day_sweep(&cfg);
    let recovery = recovery_to_twin(&result, twin, end);
    let horizon = cfg.profile.horizon().as_secs_f64();
    PhasePoint {
        offset_secs,
        recovery_secs: recovery.unwrap_or((horizon - end).max(0.0)),
        recovered: recovery.is_some(),
        succeeded: result.succeeded,
        submitted: result.submitted,
        jobs_killed: result.jobs_killed,
    }
}

/// The adversarial phase search: the same outage can be benign at 06:00
/// and brutal at 10:30.  Grid-sweeps the outage-in-crowd onset over
/// `offsets` (uncompressed seconds; offset 0 is always evaluated) on
/// [`par_map`], then golden-section-refines the bracket around the worst
/// grid point for `refine_iters` serial sweeps.  Every point is scored by
/// [`recovery_to_twin`] against the crowd-only twin [`run_scenario`] judges
/// `outage_in_crowd` against: the outage never reshapes arrivals.
///
/// # Panics
///
/// Panics if an offset is NaN.
pub fn search_worst_phase(
    params: &ScenarioParams,
    offsets: &[f64],
    refine_iters: usize,
) -> PhaseSearchReport {
    let twin = Twin::KeepsCrowd.run(&outage_in_crowd_config(0.0, params));

    let mut offsets = offsets.to_vec();
    if !offsets.contains(&0.0) {
        offsets.push(0.0);
    }
    offsets.sort_by(|a, b| a.partial_cmp(b).expect("finite offsets"));
    offsets.dedup();

    let mut points = par_map(&offsets, |&o| eval_phase(o, params, &twin));
    let nominal = *points
        .iter()
        .find(|pt| pt.offset_secs == 0.0)
        .expect("offset 0 is always evaluated");

    // The first point of maximum recovery.
    let worst_idx = |pts: &[PhasePoint]| {
        (0..pts.len()).fold(0, |w, i| {
            if pts[i].recovery_secs > pts[w].recovery_secs {
                i
            } else {
                w
            }
        })
    };

    // Golden-section refinement over the bracket spanned by the worst
    // grid point's neighbours.  Recovery vs phase is not unimodal in
    // general, but near a burst the worst basin is — and the grid sweep
    // already bounds how wrong a non-unimodal bracket can be (the grid
    // worst is kept regardless).
    let grid = offsets.len();
    if refine_iters > 0 && grid >= 2 {
        let wi = worst_idx(&points);
        let a = offsets[wi.saturating_sub(1)];
        let (mut lo, mut hi) = (a, offsets[(wi + 1).min(grid - 1)]);
        if hi > lo {
            // The interior points f1 < f2; each step keeps the worse-
            // recovering side and probes one new point inside it.
            let mut f1 = eval_phase(hi - INV_PHI * (hi - lo), params, &twin);
            let mut f2 = eval_phase(lo + INV_PHI * (hi - lo), params, &twin);
            points.extend([f1, f2]);
            for _ in 0..refine_iters {
                if f1.recovery_secs >= f2.recovery_secs {
                    (hi, f2) = (f2.offset_secs, f1);
                    f1 = eval_phase(hi - INV_PHI * (hi - lo), params, &twin);
                    points.push(f1);
                } else {
                    (lo, f1) = (f1.offset_secs, f2);
                    f2 = eval_phase(lo + INV_PHI * (hi - lo), params, &twin);
                    points.push(f2);
                }
            }
        }
    }

    PhaseSearchReport {
        worst: points[worst_idx(&points)],
        refined_evals: points.len() - grid,
        points,
        nominal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::fnv1a;
    use p2pmpi_grid5000::testbed::grid5000_testbed;
    use p2pmpi_overlay::{ChurnKind, PeerId};
    use p2pmpi_simgrid::noise::NoiseModel;

    /// The matrix definition, one row per scenario: name, twin, recovery
    /// SLO, ordered check names, the FNV-1a of the CI-scale config's
    /// `Debug` text and that of the checks' (their thresholds, sites and
    /// notes).  All but the last hash were captured from the matrix before
    /// it became a table; the last when it did, with every verdict (whose
    /// details print those thresholds) byte-equal to the old matrix's.
    const PINNED: [&str; 10] = [
        "baseline_day | None | None | no_leaked_grants no_jobs_killed steady_state_alloc_free success_share \
         | config 0xc1d20c3818bf7c28 | checks 0x39bbef44bf05a23b",
        "dead_peer_day | None | None | timeouts_fired success_share steady_state_alloc_free \
         | config 0xb6abd1f0fe82f0a0 | checks 0xc3db31ed96b42e2b",
        "site_outage | Some(FaultFree) | Some(3600.0) | site_goes_dark_during_outage utilisation_recovers recovery_observed success_vs_baseline recovery_within_slo \
         | config 0x8c6aa29f7b2005da | checks 0xbcf7b72ec0cefd36",
        "flash_crowd | Some(FaultFree) | None | burst_arrivals_spliced throughput_not_reduced success_share steady_state_alloc_free \
         | config 0xfcbf973a70321f36 | checks 0x9f8fb3d1c355415d",
        "slow_links | Some(FaultFree) | None | success_vs_baseline no_leaked_grants \
         | config 0x2fe5f72a7d7a83ae | checks 0x40920977c728d249",
        "supernode_crash | Some(FaultFree) | Some(3600.0) | success_vs_baseline completed_jobs_while_degraded recovery_within_slo \
         | config 0xba38e10d1bcc3b0d | checks 0xb26a1fe327bbc4ea",
        "grant_leak_stress | None | None | grant_leak_path_exercised leaks_eagerly_reclaimed no_jobs_killed \
         | config 0xadb43efd3d88cae4 | checks 0x94036d513896baaa",
        "rack_outage | Some(FaultFree) | Some(3600.0) | site_dims_not_dark outage_kills_running_jobs success_vs_baseline recovery_within_slo \
         | config 0x6923b031b1cf2a85 | checks 0xca1731b1b3475143",
        "outage_in_crowd | Some(KeepsCrowd) | Some(7200.0) | same_arrival_trace outage_kills_running_jobs success_vs_baseline recovery_observed recovery_within_slo \
         | config 0x3519274684123527 | checks 0x380efffbd8096617",
        "outage_in_crowd_worst | Some(KeepsCrowd) | Some(10800.0) | same_arrival_trace outage_kills_running_jobs success_vs_baseline recovery_observed recovery_within_slo \
         | config 0xc855c1e0ef44835a | checks 0xcd45d734cb271e35",
    ];

    #[test]
    fn scenario_names_round_trip() {
        let ci = ScenarioParams {
            compress: 24.0,
            ..ScenarioParams::default()
        };
        for (s, want) in ALL_SCENARIOS.into_iter().zip(PINNED) {
            let row = s.row();
            let slo = row.checks.iter().find_map(|c| match c {
                Check::RecoveryWithinSlo(slo) => Some(*slo),
                _ => None,
            });
            let names: Vec<&str> = row.checks.iter().map(|c| c.name()).collect();
            let fnv = |text: String| fnv1a(text.into_bytes());
            let got = format!(
                "{} | {:?} | {slo:?} | {} | config {:#018x} | checks {:#018x}",
                s.name(),
                row.twin,
                names.join(" "),
                fnv(format!("{:?}", s.config(&ci))),
                fnv(format!("{:?}", row.checks)),
            );
            assert_eq!(
                got, want,
                "scenario {s:?}: definition (left) vs pin (right)"
            );
            assert_eq!(Scenario::from_name(s.name()), Ok(s));
        }
        let err = Scenario::from_name("meteor_strike").unwrap_err();
        assert!(err.contains("meteor_strike"), "{err}");
        // The error path must teach the caller the valid vocabulary.
        for s in ALL_SCENARIOS {
            assert!(err.contains(s.name()), "error {err:?} misses {}", s.name());
        }
    }

    #[test]
    fn site_outage_takes_a_whole_site_down_and_back() {
        let mut tb = grid5000_testbed(11, NoiseModel::disabled());
        let topo = tb.topology.clone();
        let rennes = topo.site_by_name("rennes").unwrap().id;
        let rennes_peers: Vec<PeerId> = topo
            .hosts_at_site(rennes)
            .filter_map(|h| tb.overlay.peer_on_host(h.id))
            .collect();
        assert!(!rennes_peers.is_empty());
        // A rack brown-out is the same site-host walk, stopped early.
        let rack = FaultSpec::PartialSite {
            site: "rennes".to_string(),
            hosts: 5,
            at: SimDuration::from_secs(100),
            duration: SimDuration::from_secs(50),
        };
        let crashed: Vec<ChurnKind> = rack.churn(&tb.overlay, tb.submitter).finish()[..5]
            .iter()
            .map(|e| e.kind)
            .collect();
        let first: Vec<ChurnKind> = rennes_peers[..5]
            .iter()
            .map(|&p| ChurnKind::Crash(p))
            .collect();
        assert_eq!(crashed, first);

        let outage = FaultSpec::SiteOutage {
            site: "rennes".to_string(),
            at: SimDuration::from_secs(100),
            duration: SimDuration::from_secs(50),
        };
        let events = outage.churn(&tb.overlay, tb.submitter).finish();
        assert_eq!(events.len(), rennes_peers.len() * 2);
        let alive_before = tb.overlay.alive_count();
        tb.overlay.schedule_churn(events);
        tb.overlay
            .run_until(tb.overlay.now() + SimDuration::from_secs(120));
        // Every Rennes peer is down, together.
        assert_eq!(tb.overlay.alive_count(), alive_before - rennes_peers.len());
        for &p in &rennes_peers {
            assert!(!tb.overlay.node(p).is_alive());
        }
        tb.overlay
            .run_until(tb.overlay.now() + SimDuration::from_secs(50));
        assert_eq!(tb.overlay.alive_count(), alive_before);
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn site_outage_rejects_unknown_sites() {
        let tb = grid5000_testbed(1, NoiseModel::disabled());
        FaultSpec::SiteOutage {
            site: "atlantis".to_string(),
            at: SimDuration::ZERO,
            duration: SimDuration::from_secs(1),
        }
        .churn(&tb.overlay, tb.submitter);
    }

    #[test]
    fn configs_compress_fault_windows_with_the_day() {
        let params = ScenarioParams {
            compress: 24.0,
            ..ScenarioParams::default()
        };
        let cfg = Scenario::SiteOutage.config(&params);
        let (start, end) = outage_window(&cfg).unwrap();
        assert_eq!(start, 9.0 * 3600.0 / 24.0);
        assert_eq!(end - start, 2.0 * 3600.0 / 24.0);
        assert_eq!(cfg.profile.horizon(), SimDuration::from_secs(3600));
        // The flash crowd lives in the profile, not the timeline faults.
        let crowd = Scenario::FlashCrowd.config(&params);
        assert!(outage_window(&crowd).is_none());
        // The rack brown-out declares the same window as the site outage.
        let rack = Scenario::RackOutage.config(&params);
        assert_eq!(outage_window(&rack), Some((start, end)));
    }

    #[test]
    fn composed_config_compresses_phase_and_window_together() {
        let params = ScenarioParams {
            compress: 24.0,
            ..ScenarioParams::default()
        };
        // Nominal onset: 10:30 compressed, with the authored 2h length.
        let nominal = Scenario::OutageInCrowd.config(&params);
        let (start, end) = outage_window(&nominal).unwrap();
        assert_eq!(start, 10.5 * 3600.0 / 24.0);
        assert_eq!(end - start, 2.0 * 3600.0 / 24.0);
        // A +1h phase shift compresses to +150s: the window slides, the
        // duration does not.
        let shifted = outage_in_crowd_config(3600.0, &params);
        let (s2, e2) = outage_window(&shifted).unwrap();
        assert_eq!(s2, start + 3600.0 / 24.0);
        assert_eq!(e2 - s2, end - start);
    }

    #[test]
    fn verdict_json_has_the_documented_shape() {
        let verdict = run_scenario(
            Scenario::BaselineDay,
            &ScenarioParams {
                compress: 24.0,
                rate_scale: 0.01,
                ..ScenarioParams::default()
            },
        );
        let json = verdict.to_json();
        assert!(json.contains(r#""scenario": "baseline_day""#));
        assert!(json.contains(r#""metrics""#));
        assert!(json.contains(r#""leaked_grants": 0"#));
        assert!(json.contains(r#""baseline": null"#));
        assert!(json.contains(r#""checks""#));
    }

    #[test]
    fn the_parallel_grid_sweep_reports_what_a_serial_one_would() {
        let params = ScenarioParams {
            compress: 24.0,
            ..ScenarioParams::default()
        };
        // Unsorted, and without the nominal onset: the report lists the
        // grid in ascending order with offset 0 added.
        let report = search_worst_phase(&params, &[1800.0, -3600.0, 3600.0], 0);

        let twin = Twin::KeepsCrowd.run(&outage_in_crowd_config(0.0, &params));
        let serial: Vec<PhasePoint> = [-3600.0, 0.0, 1800.0, 3600.0]
            .iter()
            .map(|&o| eval_phase(o, &params, &twin))
            .collect();
        assert_eq!(format!("{:?}", report.points), format!("{serial:?}"));
        assert_eq!(format!("{:?}", report.nominal), format!("{:?}", serial[1]));
        let worst = serial.iter().fold(serial[0], |w, p| {
            if p.recovery_secs > w.recovery_secs {
                *p
            } else {
                w
            }
        });
        assert_eq!(format!("{:?}", report.worst), format!("{worst:?}"));
        assert_eq!(report.refined_evals, 0);
    }
}
