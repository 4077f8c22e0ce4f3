//! The fault-injection scenario matrix: named adversity specs compiled onto
//! the day-sweep timeline, each judged against explicit graceful-degradation
//! criteria.
//!
//! Where `workload` provides the *mechanisms* (a [`FaultSpec`] vocabulary and
//! a driver that schedules them), this module provides the *policy*: a fixed
//! matrix of named scenarios ([`Scenario`]), one [`DaySweepConfig`] per
//! scenario, and a [`ScenarioVerdict`] that states whether the overlay
//! degraded gracefully — not merely whether it survived.  The
//! `scenario_runner` binary prints one JSON verdict per scenario and exits
//! non-zero on any failure; CI runs it over the whole matrix compressed
//! (`scenario_runner --all --compress 24`) as a gate.
//!
//! # Scenario taxonomy
//!
//! The matrix covers four families:
//!
//! * **Controls** — `baseline_day` (the absolute reference; gates the
//!   allocation-free steady state and the zero-leak invariant) and
//!   `dead_peer_day` (independent flapping; the timeout-heavy population).
//! * **Single faults** — `site_outage`, `flash_crowd`, `slow_links`,
//!   `supernode_crash`, `grant_leak_stress`: one primitive [`FaultSpec`]
//!   each, judged against its no-fault twin or absolute bounds.
//! * **Partial degradation** — `rack_outage`: a [`FaultSpec::PartialSite`]
//!   browns out a rack-sized host subset (30 of Rennes' 90 hosts), so the
//!   site *dims* instead of going dark — brokering must keep using the
//!   survivors.
//! * **Composed faults** — `outage_in_crowd` overlaps a Nancy outage (the
//!   submitter's busiest site) with the 10x flash crowd, and
//!   `outage_in_crowd_worst` pins the adversarial phase the `fault_search`
//!   driver found (the outage onset, shifted against the burst, that
//!   maximises recovery time).
//!
//! # Composition semantics
//!
//! A scenario's faults are one flat list ([`DaySweepConfig::faults`]), and
//! listing faults is how they compose: each entry is installed on its own
//! on one timeline, so an outage *during* a crowd is the two entries side
//! by side.  Everything downstream (trace bursts, timeline installation,
//! outage-window extraction, shard routing, the twin's crowd-only filter)
//! reads that list as it is.  A phase shift is an onset, not a wrapper:
//! [`outage_in_crowd_faults`]`(offset)` authors the Nancy outage at
//! `max(10:30 + offset, 0)` on the uncompressed day, durations, factors
//! and sites untouched.  [`DaySweepConfig::compress`] then scales that
//! onset with the same rule as every other fault time, keeping the phase
//! of fault vs burst invariant across scales.
//!
//! # The fault-event contract
//!
//! Every fault is an event (or a trace transform) with documented semantics
//! the verdicts rely on:
//!
//! * **Revocation ordering** — a peer crash first mass-revokes the doomed
//!   completions of its running jobs (one `cancel_batch` over their event
//!   keys, when `fail_jobs_on_crash` is on), freeing every participant
//!   *before* any later event observes the dead peer.  A revoked completion
//!   is never delivered; `jobs_killed` counts the revocations.
//! * **Site outages** are correlated: all peers of the site crash at the
//!   same instant and recover together (`site_outage_schedule`), unlike the
//!   independent flapping of [`DeadPeerChurn`].  The submitter is always
//!   spared — its host doubles as the supernode's.  A **partial-site**
//!   outage crashes only the first `hosts` hosts of the site
//!   (`site_host_subset` + `Overlay::schedule_host_outage`), same
//!   correlated semantics, site survives.
//! * **Supernode degraded mode** — a supernode crash wipes the volatile
//!   registry.  While it is down, cache refreshes return empty (the
//!   submitter keeps brokering from its stale `CachedList` instead of
//!   halting) and heartbeats are no-ops; on recovery, the next heartbeat
//!   round re-registers every alive peer the registry no longer knows (the
//!   resync path).
//! * **Link degradation** applies to transfers *scheduled* during the
//!   window; in-flight events keep the cost they were scheduled with.  A
//!   degradation severe enough that a reservation reply loses the 2 s race
//!   to its timeout exercises the grant-leak path: the grant is counted in
//!   `leaked_grants` and eagerly released one transfer later, so the
//!   high-water mark of outstanding leaks (`leaked_grant_hwm`) stays far
//!   below the total.
//! * **Flash crowds** are pure trace transforms ([`DayProfile::with_burst`])
//!   applied before the trace is drawn; they never touch the overlay.  In a
//!   composed scenario the crowd stays in the *twin* too (both runs replay
//!   the same inflated trace), so the comparison isolates the outage.
//!
//! # Recovery-time SLOs
//!
//! Every verdict carries `recovery_secs`: the delay after the fault window
//! closes until grid-total utilisation — read off the exact per-site
//! core-seconds timeline (`DaySweepResult::site_core_bins`), not the sparse
//! samples — first regains [`RECOVERY_UTILISATION_RATIO`] (95%) of the
//! twin's in the same bin.  Scenarios without an outage window recover
//! trivially (`recovery_secs` = 0).  Windowed scenarios additionally gate
//! the value against a per-scenario SLO authored on the uncompressed day
//! and divided by the compression factor at judge time, so one bound works
//! at every scale.  That per-scenario SLO is the only bound on a recovery
//! time: `scenario_runner --all --compress 24` prints every one and exits
//! non-zero when any scenario misses its SLO.
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
//! [`DayProfile::with_burst`]: crate::workload::DayProfile::with_burst
//! [`DeadPeerChurn`]: crate::workload::DeadPeerChurn

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

/// Minimum success share of the no-fault baseline day.  Calibrated at the
/// CI scale (compress 24, rate scale 0.05, seed 2008), where holds do not
/// compress with the day and burst-hour refusals are real: the observed
/// share is ~0.77 there and ~0.9+ on the uncompressed day.
const BASELINE_SUCCESS_MIN: f64 = 0.70;
/// Minimum success share under brutal dead-peer flapping (mirrors the
/// `day_sweep` integration test's bound).
const DEAD_PEER_SUCCESS_MIN: f64 = 0.25;
/// Post-recovery utilisation must reach this share of the no-fault twin's
/// (the "within 5%" acceptance bound).
const RECOVERY_UTILISATION_RATIO: f64 = 0.95;
/// Success share a site-outage day must retain vs its no-fault twin.
const SITE_OUTAGE_SUCCESS_VS_BASELINE: f64 = 0.60;
/// Success share of submitted jobs a 10x flash crowd must still place
/// (the burst nearly doubles the day's arrivals against fixed capacity, so
/// refusals are expected — collapse is not; observed ~0.47 at CI scale).
const FLASH_CROWD_SUCCESS_MIN: f64 = 0.40;
/// Success share a mild link-degradation day must retain vs its twin.
const SLOW_LINKS_SUCCESS_VS_BASELINE: f64 = 0.90;
/// Success share a supernode-crash day must retain vs its twin (the
/// degraded-mode acceptance bound: stale-view brokering, not a halt).
const SUPERNODE_SUCCESS_VS_BASELINE: f64 = 0.90;
/// Success share a rack brown-out (a third of Rennes) must retain vs its
/// twin — milder than a whole-site loss, so the bound is tighter than
/// [`SITE_OUTAGE_SUCCESS_VS_BASELINE`].
const RACK_OUTAGE_SUCCESS_VS_BASELINE: f64 = 0.80;
/// Success share the composed outage-in-crowd day must retain vs its
/// crowd-only twin (the twin replays the same inflated trace, so this
/// isolates what the outage costs *under* the crowd).
const OUTAGE_IN_CROWD_SUCCESS_VS_BASELINE: f64 = 0.55;
/// The adversarial phase offset (seconds on the uncompressed day, applied
/// to the Nancy outage's 10:30 onset) the `fault_search` driver found to
/// maximise recovery time against the 10:00–12:00 flash crowd: -900 s
/// slides the outage window to 10:15–12:15, so Nancy — the site carrying
/// most of the submitter's work — comes back *just* after the crowd ends,
/// into the post-crowd lull where almost no arrivals refill it while the
/// twin still rides the crowd's hold tail (recovery 87.5 s vs the nominal
/// onset's 25 s at CI scale, 3.5x).  Pinned here so `outage_in_crowd_worst`
/// replays the found worst case deterministically; re-run `fault_search`
/// to revalidate after placement or profile changes.
pub const OUTAGE_IN_CROWD_WORST_OFFSET_SECS: f64 = -900.0;

/// The named scenarios of the matrix, in the order the runner executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The standard no-fault day: the absolute reference.  Gates that the
    /// steady state is allocation-free and — the grant-leak invariant —
    /// that `leaked_grants` stays exactly 0.
    BaselineDay,
    /// Independent dead-peer flapping ([`DaySweepConfig::dead_peer_day`]):
    /// timeouts must fire *and* most of the day must still place.
    DeadPeerDay,
    /// A correlated outage takes all of Rennes down for two hours mid-burst
    /// (running jobs are killed); utilisation must dip and then recover to
    /// within 5% of the no-fault twin.
    SiteOutage,
    /// A 10x arrival burst spliced into the late morning; the overlay must
    /// absorb it (bounded refusals, no storage growth past the high-water
    /// mark).
    FlashCrowd,
    /// A 5x latency degradation on the Rennes links for three hours:
    /// graceful slowdown — replies still win their timeout races, so no
    /// grants leak and throughput barely moves.
    SlowLinks,
    /// The supernode crashes for three hours while peers flap: the
    /// submitter must keep brokering from its stale cached view (degraded
    /// mode) and the registry must resync on recovery.
    SupernodeCrash,
    /// A 200x latency degradation on the Sophia links while every job
    /// demands hosts there: reservation replies systematically lose the 2 s
    /// race, hammering the reply-loses-race path.  Grants must leak — and
    /// must be eagerly reclaimed (high-water mark far below the total).
    GrantLeakStress,
    /// A rack browns out: 30 of Rennes' 90 hosts crash together for two
    /// hours ([`FaultSpec::PartialSite`]).  The site must dim, not go dark
    /// — brokering keeps landing work on the surviving racks — and
    /// utilisation must recover within the SLO.
    RackOutage,
    /// The composed stress: a Nancy outage — the submitter's home site,
    /// which carries most of a small-rank day's placements — *during* the
    /// 10x flash crowd ([`outage_in_crowd_faults`]).  Judged against a
    /// crowd-only twin (same inflated trace), so the verdict isolates what
    /// the outage costs under burst pressure; recovery is strictly harder
    /// than the lone outage's.
    OutageInCrowd,
    /// [`Scenario::OutageInCrowd`] with the outage onset shifted by the
    /// adversarial offset `fault_search` found
    /// ([`OUTAGE_IN_CROWD_WORST_OFFSET_SECS`]): the pinned worst case,
    /// gated with its own (looser) recovery SLO so a regression in the
    /// worst-case phase fails loudly.
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

impl Scenario {
    /// The scenario's stable name (CLI argument, JSON `scenario` field).
    pub fn name(self) -> &'static str {
        match self {
            Scenario::BaselineDay => "baseline_day",
            Scenario::DeadPeerDay => "dead_peer_day",
            Scenario::SiteOutage => "site_outage",
            Scenario::FlashCrowd => "flash_crowd",
            Scenario::SlowLinks => "slow_links",
            Scenario::SupernodeCrash => "supernode_crash",
            Scenario::GrantLeakStress => "grant_leak_stress",
            Scenario::RackOutage => "rack_outage",
            Scenario::OutageInCrowd => "outage_in_crowd",
            Scenario::OutageInCrowdWorst => "outage_in_crowd_worst",
        }
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

    /// One-line description for the runner's usage text.
    pub fn summary(self) -> &'static str {
        match self {
            Scenario::BaselineDay => "the no-fault day; gates leaked_grants == 0",
            Scenario::DeadPeerDay => "independent dead-peer flapping; timeouts must fire",
            Scenario::SiteOutage => "all of Rennes down 2h; utilisation must recover",
            Scenario::FlashCrowd => "10x arrival burst; must absorb without storage growth",
            Scenario::SlowLinks => "5x Rennes latency; graceful slowdown, no leaks",
            Scenario::SupernodeCrash => "supernode down 3h; stale-view brokering must continue",
            Scenario::GrantLeakStress => "200x Sophia latency; grants must leak and be reclaimed",
            Scenario::RackOutage => "30 of Rennes' 90 hosts down 2h; site dims, must recover",
            Scenario::OutageInCrowd => "Nancy outage during the 10x crowd; composed recovery",
            Scenario::OutageInCrowdWorst => "the outage at fault_search's worst-case phase",
        }
    }

    /// Whether the verdict compares against a twin run.
    fn needs_baseline(self) -> bool {
        matches!(
            self,
            Scenario::SiteOutage
                | Scenario::FlashCrowd
                | Scenario::SlowLinks
                | Scenario::SupernodeCrash
                | Scenario::RackOutage
                | Scenario::OutageInCrowd
                | Scenario::OutageInCrowdWorst
        )
    }

    /// Whether the twin keeps the flash-crowd trace transform.  Composed
    /// scenarios are judged against a crowd-only twin: both runs replay
    /// the identical inflated arrival trace, so the comparison isolates
    /// the outage.  (The `flash_crowd` scenario itself drops the crowd —
    /// its twin exists to prove the burst was spliced at all.)
    fn twin_keeps_crowd(self) -> bool {
        matches!(self, Scenario::OutageInCrowd | Scenario::OutageInCrowdWorst)
    }

    /// The scenario's recovery-time SLO in seconds on the *uncompressed*
    /// day (divide by the compression factor at judge time).  `None` for
    /// scenarios without an outage window — they recover trivially.
    ///
    /// Values are calibrated at the CI scale (compress 24, rate 0.05,
    /// seed 2008) with headroom: holds do not compress with the day, so a
    /// compressed run's recovery is dominated by the killed jobs' re-run
    /// tails and is noisier than the full day's.
    pub fn recovery_slo_secs(self) -> Option<f64> {
        match self {
            Scenario::SiteOutage => Some(hours(1).as_secs_f64()),
            Scenario::SupernodeCrash => Some(hours(1).as_secs_f64()),
            Scenario::RackOutage => Some(hours(1).as_secs_f64()),
            Scenario::OutageInCrowd => Some(hours(2).as_secs_f64()),
            Scenario::OutageInCrowdWorst => Some(hours(3).as_secs_f64()),
            _ => None,
        }
    }

    /// The scenario's sweep configuration at `params` scale.  Fault times
    /// are authored on the uncompressed day and compressed along with the
    /// profile, churn cycle and sample cadence.
    pub fn config(self, params: &ScenarioParams) -> DaySweepConfig {
        let cfg = match self {
            Scenario::BaselineDay => DaySweepConfig::new(StrategyKind::Concentrate),
            Scenario::DeadPeerDay => DaySweepConfig::dead_peer_day(StrategyKind::Concentrate),
            Scenario::SiteOutage => {
                // Spread with a large-rank palette so Rennes (third in the
                // submitter's latency order) genuinely carries work the
                // outage can take away.
                let mut cfg = DaySweepConfig::new(StrategyKind::Spread);
                cfg.mix = JobMix {
                    ranks: vec![32, 128, 256],
                    ..JobMix::default()
                };
                cfg.faults = vec![FaultSpec::SiteOutage {
                    site: "rennes".to_string(),
                    at: hours(9),
                    duration: hours(2),
                }];
                cfg.fail_jobs_on_crash = true;
                cfg
            }
            Scenario::FlashCrowd => {
                let mut cfg = DaySweepConfig::new(StrategyKind::Concentrate);
                cfg.faults = vec![FaultSpec::FlashCrowd {
                    at: hours(10),
                    duration: hours(1),
                    factor: 10.0,
                }];
                cfg
            }
            Scenario::SlowLinks => {
                let mut cfg = DaySweepConfig::new(StrategyKind::Spread);
                cfg.mix = JobMix {
                    ranks: vec![32, 128, 256],
                    ..JobMix::default()
                };
                cfg.faults = vec![FaultSpec::SlowLinks {
                    site: "rennes".to_string(),
                    at: hours(9),
                    duration: hours(3),
                    latency_factor: 5.0,
                }];
                cfg
            }
            Scenario::SupernodeCrash => {
                // Mild flapping makes the registry load-bearing: without
                // refreshes the submitter's view goes stale, which is
                // exactly the degraded mode under test.
                let mut cfg = DaySweepConfig::dead_peer_day(StrategyKind::Concentrate);
                cfg.churn = Some(DeadPeerChurn {
                    fraction: 0.10,
                    ..DeadPeerChurn::default()
                });
                cfg.faults = vec![FaultSpec::SupernodeOutage {
                    at: hours(9),
                    duration: hours(3),
                }];
                cfg
            }
            Scenario::GrantLeakStress => {
                // Every job demands 300 hosts under spread, which forces
                // bookings into Sophia — whose replies, at 200x latency,
                // systematically lose the 2 s race to their timeouts.
                let mut cfg = DaySweepConfig::new(StrategyKind::Spread);
                cfg.mix = JobMix {
                    ranks: vec![300],
                    ..JobMix::default()
                };
                cfg.faults = vec![FaultSpec::SlowLinks {
                    site: "sophia".to_string(),
                    at: hours(1),
                    duration: hours(22),
                    latency_factor: 200.0,
                }];
                cfg
            }
            Scenario::RackOutage => {
                // Same large-rank spread palette as the site outage so
                // Rennes carries real work — but only a third of its hosts
                // brown out, so the site dims instead of going dark.
                let mut cfg = DaySweepConfig::new(StrategyKind::Spread);
                cfg.mix = JobMix {
                    ranks: vec![32, 128, 256],
                    ..JobMix::default()
                };
                cfg.faults = vec![FaultSpec::PartialSite {
                    site: "rennes".to_string(),
                    hosts: 30,
                    at: hours(9),
                    duration: hours(2),
                }];
                cfg.fail_jobs_on_crash = true;
                // Stretch holds (~3 s modeled -> ~1 min) so the brown-out
                // reliably catches jobs mid-run and leaves a measurable
                // backlog — the same idiom as the injected-fault day
                // tests.
                cfg.duration_scale = 20.0;
                cfg
            }
            Scenario::OutageInCrowd => return outage_in_crowd_config(0.0, params),
            Scenario::OutageInCrowdWorst => {
                return outage_in_crowd_config(OUTAGE_IN_CROWD_WORST_OFFSET_SECS, params)
            }
        };
        finalize_config(cfg, params)
    }
}

/// Applies the matrix-wide knobs (`seed`, strategy override,
/// compression, rate scale) to an authored scenario config — the shared
/// tail of [`Scenario::config`] and [`outage_in_crowd_config`].
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

/// The composed outage-in-crowd faults: a Nancy outage (10:30, 2 h)
/// phase-shifted by `offset_secs`, overlapped with a 10:00–12:00 10x
/// flash crowd on one timeline.  Nancy is the submitter's home site and
/// carries most of a small-rank day's placements (Spread fills the
/// latency-closest hosts first), so losing it actually hurts; at the
/// nominal onset the outage clears at 12:30, inside the crowd's hold
/// tail — the twin's utilisation is still crowd-inflated while arrivals
/// have collapsed to the lunch dip, so recovery time measures a genuine
/// arrival-limited refill, not a formality.  Offset 0 is the nominal
/// onset ([`Scenario::OutageInCrowd`]); `fault_search` sweeps the offset
/// to find the worst case, and [`OUTAGE_IN_CROWD_WORST_OFFSET_SECS`] pins
/// what it found ([`Scenario::OutageInCrowdWorst`]).  A shifted onset
/// clamps at the start of the day.
pub fn outage_in_crowd_faults(offset_secs: f64) -> Vec<FaultSpec> {
    let nominal = (hours(10) + SimDuration::from_secs(1800)).as_secs_f64();
    vec![
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
    ]
}

/// The full outage-in-crowd sweep config at `params` scale with the outage
/// phase-shifted by `offset_secs` (uncompressed seconds).  Shared between
/// [`Scenario::config`] and the `fault_search` driver, so the adversarial
/// sweep explores exactly the scenario the matrix gates.
pub fn outage_in_crowd_config(offset_secs: f64, params: &ScenarioParams) -> DaySweepConfig {
    let mut cfg = DaySweepConfig::new(StrategyKind::Spread);
    cfg.mix = JobMix {
        ranks: vec![8, 32, 64],
        ..JobMix::default()
    };
    cfg.faults = outage_in_crowd_faults(offset_secs);
    cfg.fail_jobs_on_crash = true;
    // Stretch holds (~4 s modeled -> ~3 min) so the outage reliably kills
    // running jobs and, crucially, so the crowd's long holds persist in
    // the twin well past the crowd itself: the recovery-vs-phase basin is
    // exactly as wide as that hold tail.  Thin the traffic (x0.1) so the
    // normal day runs under capacity and the post-crowd refill is
    // genuinely arrival-limited — at full rate the compressed day is so
    // saturated that any freed rack refills within one sample bin and
    // recovery degenerates to zero everywhere.
    cfg.duration_scale = 50.0;
    cfg.profile = cfg.profile.scaled(0.1);
    finalize_config(cfg, params)
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

impl CheckOutcome {
    fn new(name: &'static str, passed: bool, detail: String) -> Self {
        CheckOutcome {
            name,
            passed,
            detail,
        }
    }
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
    /// Seconds from the end of the scenario's outage window until total
    /// utilisation first regained [`RECOVERY_UTILISATION_RATIO`] of the
    /// twin's, on the sample grid.  `Some(0.0)` when the scenario has no
    /// outage window (trivially recovered); `None` when utilisation never
    /// regained the twin's level before the day ended.
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

/// Total running processes of one utilisation sample.
fn total_running(r: &DaySweepResult, i: usize) -> f64 {
    r.samples[i].running.iter().map(|&x| x as f64).sum()
}

/// The (start, end) seconds of the scenario's outage window in the
/// *compressed* coordinates of `cfg` (the coordinates the samples and
/// core-second bins use).
pub(crate) fn outage_window(cfg: &DaySweepConfig) -> Option<(f64, f64)> {
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

/// Sum of total utilisation over samples whose instant satisfies `keep`.
fn utilisation_sum(r: &DaySweepResult, keep: impl Fn(f64) -> bool) -> f64 {
    (0..r.samples.len())
        .filter(|&i| keep(r.samples[i].t.as_secs_f64()))
        .map(|i| total_running(r, i))
        .sum()
}

/// Sum of one site's utilisation over samples whose instant satisfies
/// `keep`.  Panics on an unknown site (a scenario-definition bug).
fn site_utilisation_sum(r: &DaySweepResult, site: &str, keep: impl Fn(f64) -> bool) -> f64 {
    let idx = site_index(r, site);
    (0..r.samples.len())
        .filter(|&i| keep(r.samples[i].t.as_secs_f64()))
        .map(|i| r.samples[i].running[idx] as f64)
        .sum()
}

/// One site's exact whole-day core-seconds (charged at job start, not
/// sampled — robust to a sample grid sparser than the job holds).
fn site_core_seconds(r: &DaySweepResult, site: &str) -> f64 {
    r.core_seconds[site_index(r, site)]
}

fn site_index(r: &DaySweepResult, site: &str) -> usize {
    r.site_names
        .iter()
        .position(|n| n == site)
        .unwrap_or_else(|| panic!("unknown site '{site}'"))
}

/// Time-to-95%-of-twin-utilisation: the delay from `end_secs` (the close
/// of the fault window) until the faulted run's grid-total core-seconds
/// timeline first regains [`RECOVERY_UTILISATION_RATIO`] of the twin's in
/// the same bin.  Measured on the exact binned charge ledger
/// ([`DaySweepResult::site_core_bins`]) rather than the sparse running
/// samples, so the metric is deterministic and robust
/// to a sample grid sparser than the job holds.  The scan starts at the
/// first bin fully past `end_secs`; an empty twin bin (a quiet stretch of
/// the day) satisfies the ratio trivially — matching the intuition that
/// there is nothing to recover *to*.  `None` means utilisation never got
/// back within 5% before the series ended.
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

fn ratio_check(
    name: &'static str,
    what: &str,
    got: usize,
    reference: usize,
    min_ratio: f64,
) -> CheckOutcome {
    let bound = (reference as f64 * min_ratio).ceil() as usize;
    CheckOutcome::new(
        name,
        got >= bound,
        format!(
            "{what}: {got} vs bound {bound} ({min_ratio:.0}% of {reference})",
            min_ratio = min_ratio * 100.0
        ),
    )
}

/// Runs one scenario (and its twin where the criteria are relative) and
/// judges it.  Composed scenarios keep the flash crowd in the twin (see
/// [`Scenario::twin_keeps_crowd`]); every other twin is fault-free.
pub fn run_scenario(scenario: Scenario, params: &ScenarioParams) -> ScenarioVerdict {
    let cfg = scenario.config(params);
    let result = run_day_sweep(&cfg);
    let baseline = scenario.needs_baseline().then(|| {
        let mut twin = cfg.clone();
        let keeps_crowd = scenario.twin_keeps_crowd();
        twin.faults
            .retain(|f| keeps_crowd && matches!(f, FaultSpec::FlashCrowd { .. }));
        run_day_sweep(&twin)
    });

    // Every verdict carries a recovery time: windowed relative scenarios
    // measure time-to-95%-of-twin on the binned core-seconds timelines;
    // scenarios without an outage window recover trivially (0 s).
    let window = outage_window(&cfg);
    let recovery_secs = match (&window, &baseline) {
        (Some((_, end)), Some(twin)) => recovery_to_twin(&result, twin, *end),
        _ => Some(0.0),
    };

    let mut checks = Vec::new();
    match scenario {
        Scenario::BaselineDay => {
            checks.push(CheckOutcome::new(
                "no_leaked_grants",
                result.leaked_grants == 0,
                format!(
                    "leaked_grants = {} (must be 0 on the standard day)",
                    result.leaked_grants
                ),
            ));
            checks.push(CheckOutcome::new(
                "no_jobs_killed",
                result.jobs_killed == 0,
                format!("jobs_killed = {}", result.jobs_killed),
            ));
            checks.push(CheckOutcome::new(
                "steady_state_alloc_free",
                result.steady_state_alloc_free(),
                format!(
                    "events capacity {} -> {}, scratch {} -> {}",
                    result.events_capacity_mid,
                    result.events_capacity_end,
                    result.rs_scratch_capacity_mid,
                    result.rs_scratch_capacity_end
                ),
            ));
            checks.push(ratio_check(
                "success_share",
                "succeeded",
                result.succeeded,
                result.submitted,
                BASELINE_SUCCESS_MIN,
            ));
        }
        Scenario::DeadPeerDay => {
            checks.push(CheckOutcome::new(
                "timeouts_fired",
                result.timeouts > 0,
                format!("reservation timeouts = {}", result.timeouts),
            ));
            checks.push(ratio_check(
                "success_share",
                "succeeded",
                result.succeeded,
                result.submitted,
                DEAD_PEER_SUCCESS_MIN,
            ));
            checks.push(CheckOutcome::new(
                "steady_state_alloc_free",
                result.steady_state_alloc_free(),
                format!(
                    "events capacity {} -> {}, scratch {} -> {}",
                    result.events_capacity_mid,
                    result.events_capacity_end,
                    result.rs_scratch_capacity_mid,
                    result.rs_scratch_capacity_end
                ),
            ));
        }
        Scenario::SiteOutage => {
            let twin = baseline.as_ref().expect("relative scenario");
            let (start, end) = outage_window(&cfg).expect("site outage declares a window");
            // The honest dip signal is per-site: killed jobs and dead peers
            // mean Rennes runs *nothing* during the window.  (Total running
            // counts can even rise during the outage: surviving placements
            // are pushed to farther sites, run longer under the model, and
            // linger in more samples.)  The twin comparison uses exact
            // core-seconds, not window samples: on the uncompressed day the
            // 5-minute sample grid is sparser than the job holds and can
            // legitimately catch the twin's Rennes empty too.
            let dark = site_utilisation_sum(&result, "rennes", |t| t >= start && t < end);
            let fault_cs = site_core_seconds(&result, "rennes");
            let twin_cs = site_core_seconds(twin, "rennes");
            checks.push(CheckOutcome::new(
                "site_goes_dark_during_outage",
                dark == 0.0 && twin_cs > 0.0 && fault_cs < twin_cs,
                format!(
                    "rennes outage-window utilisation {dark:.0}, whole-day core-seconds \
                     {fault_cs:.0} vs twin {twin_cs:.0} (the outage must remove rennes work)"
                ),
            ));
            let post_fault = utilisation_sum(&result, |t| t >= end);
            let post_base = utilisation_sum(twin, |t| t >= end);
            let post_ratio = post_fault / post_base.max(1.0);
            checks.push(CheckOutcome::new(
                "utilisation_recovers",
                post_ratio >= RECOVERY_UTILISATION_RATIO,
                format!(
                    "post-recovery utilisation ratio {post_ratio:.3} (bound {RECOVERY_UTILISATION_RATIO})"
                ),
            ));
            checks.push(CheckOutcome::new(
                "recovery_observed",
                recovery_secs.is_some(),
                match recovery_secs {
                    Some(s) => format!(
                        "utilisation regained the twin's level {s:.0}s after the outage ended"
                    ),
                    None => "utilisation never regained the twin's level".to_string(),
                },
            ));
            checks.push(ratio_check(
                "success_vs_baseline",
                "succeeded",
                result.succeeded,
                twin.succeeded,
                SITE_OUTAGE_SUCCESS_VS_BASELINE,
            ));
        }
        Scenario::FlashCrowd => {
            let twin = baseline.as_ref().expect("relative scenario");
            checks.push(CheckOutcome::new(
                "burst_arrivals_spliced",
                result.submitted > twin.submitted,
                format!(
                    "submitted {} vs no-burst twin {}",
                    result.submitted, twin.submitted
                ),
            ));
            checks.push(CheckOutcome::new(
                "throughput_not_reduced",
                result.succeeded >= twin.succeeded,
                format!(
                    "succeeded {} vs no-burst twin {} (extra load must not reduce completed work)",
                    result.succeeded, twin.succeeded
                ),
            ));
            checks.push(ratio_check(
                "success_share",
                "succeeded",
                result.succeeded,
                result.submitted,
                FLASH_CROWD_SUCCESS_MIN,
            ));
            checks.push(CheckOutcome::new(
                "steady_state_alloc_free",
                result.steady_state_alloc_free(),
                format!(
                    "events capacity {} -> {}, scratch {} -> {}",
                    result.events_capacity_mid,
                    result.events_capacity_end,
                    result.rs_scratch_capacity_mid,
                    result.rs_scratch_capacity_end
                ),
            ));
        }
        Scenario::SlowLinks => {
            let twin = baseline.as_ref().expect("relative scenario");
            checks.push(ratio_check(
                "success_vs_baseline",
                "succeeded",
                result.succeeded,
                twin.succeeded,
                SLOW_LINKS_SUCCESS_VS_BASELINE,
            ));
            checks.push(CheckOutcome::new(
                "no_leaked_grants",
                result.leaked_grants == 0,
                format!(
                    "leaked_grants = {} (5x latency must stay inside the 2s timeout)",
                    result.leaked_grants
                ),
            ));
        }
        Scenario::SupernodeCrash => {
            let twin = baseline.as_ref().expect("relative scenario");
            checks.push(ratio_check(
                "success_vs_baseline",
                "succeeded",
                result.succeeded,
                twin.succeeded,
                SUPERNODE_SUCCESS_VS_BASELINE,
            ));
            checks.push(CheckOutcome::new(
                "completed_jobs_while_degraded",
                result.succeeded > 0,
                format!("succeeded = {}", result.succeeded),
            ));
        }
        Scenario::GrantLeakStress => {
            checks.push(CheckOutcome::new(
                "grant_leak_path_exercised",
                result.leaked_grants > 0,
                format!("leaked_grants = {}", result.leaked_grants),
            ));
            checks.push(CheckOutcome::new(
                "leaks_eagerly_reclaimed",
                result.leaked_grants == 0 || result.leaked_grant_hwm < result.leaked_grants,
                format!(
                    "high-water mark {} of {} total leaks (eager release must drain between jobs)",
                    result.leaked_grant_hwm, result.leaked_grants
                ),
            ));
            checks.push(CheckOutcome::new(
                "no_jobs_killed",
                result.jobs_killed == 0,
                format!("jobs_killed = {}", result.jobs_killed),
            ));
        }
        Scenario::RackOutage => {
            let twin = baseline.as_ref().expect("relative scenario");
            let (start, end) = outage_window(&cfg).expect("rack outage declares a window");
            // The partial-site signal: Rennes keeps running work during
            // the window (the surviving racks) but strictly less than its
            // twin — dimmed, not dark.  Both sums come off the exact
            // binned charge ledger, so the comparison holds even when the
            // sample grid is sparser than the holds.
            let idx = site_index(&result, "rennes");
            let fault_win = result.site_core_seconds_between(idx, start, end);
            let twin_win = twin.site_core_seconds_between(idx, start, end);
            checks.push(CheckOutcome::new(
                "site_dims_not_dark",
                fault_win > 0.0 && fault_win < twin_win,
                format!(
                    "rennes outage-window core-seconds {fault_win:.0} vs twin {twin_win:.0} \
                     (the rack loss must dim the site, not darken it)"
                ),
            ));
            checks.push(CheckOutcome::new(
                "outage_kills_running_jobs",
                result.jobs_killed > 0,
                format!("jobs_killed = {}", result.jobs_killed),
            ));
            checks.push(ratio_check(
                "success_vs_baseline",
                "succeeded",
                result.succeeded,
                twin.succeeded,
                RACK_OUTAGE_SUCCESS_VS_BASELINE,
            ));
        }
        Scenario::OutageInCrowd | Scenario::OutageInCrowdWorst => {
            let twin = baseline.as_ref().expect("relative scenario");
            checks.push(CheckOutcome::new(
                "same_arrival_trace",
                result.submitted == twin.submitted,
                format!(
                    "submitted {} vs crowd twin {} (the twin keeps the crowd, so both runs \
                     replay one inflated trace)",
                    result.submitted, twin.submitted
                ),
            ));
            checks.push(CheckOutcome::new(
                "outage_kills_running_jobs",
                result.jobs_killed > 0,
                format!("jobs_killed = {}", result.jobs_killed),
            ));
            checks.push(ratio_check(
                "success_vs_baseline",
                "succeeded",
                result.succeeded,
                twin.succeeded,
                OUTAGE_IN_CROWD_SUCCESS_VS_BASELINE,
            ));
            checks.push(CheckOutcome::new(
                "recovery_observed",
                recovery_secs.is_some(),
                match recovery_secs {
                    Some(s) => format!(
                        "utilisation regained the crowd twin's level {s:.0}s after the outage \
                         ended"
                    ),
                    None => "utilisation never regained the twin's level".to_string(),
                },
            ));
        }
    }

    // The per-scenario recovery SLO: authored on the uncompressed day,
    // divided by the compression factor so the same bound judges every
    // scale.  A `None` recovery (never regained 95%) always fails.
    if let Some(slo) = scenario.recovery_slo_secs() {
        let bound = slo / params.compress.max(1.0);
        checks.push(CheckOutcome::new(
            "recovery_within_slo",
            recovery_secs.is_some_and(|s| s <= bound),
            match recovery_secs {
                Some(s) => format!("recovery {s:.0}s vs SLO {bound:.0}s (authored {slo:.0}s/day)"),
                None => format!("never recovered (SLO {bound:.0}s)"),
            },
        ));
    }

    ScenarioVerdict {
        scenario,
        result,
        baseline,
        recovery_secs,
        checks,
    }
}

/// Runs the full matrix in [`ALL_SCENARIOS`] order.
pub fn run_matrix(params: &ScenarioParams) -> Vec<ScenarioVerdict> {
    ALL_SCENARIOS
        .iter()
        .map(|&s| run_scenario(s, params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_names_round_trip() {
        for s in ALL_SCENARIOS {
            assert_eq!(Scenario::from_name(s.name()), Ok(s));
            assert!(!s.summary().is_empty());
        }
        let err = Scenario::from_name("meteor_strike").unwrap_err();
        assert!(err.contains("meteor_strike"), "{err}");
        // The error path must teach the caller the valid vocabulary.
        for s in ALL_SCENARIOS {
            assert!(err.contains(s.name()), "error {err:?} misses {}", s.name());
        }
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
}
