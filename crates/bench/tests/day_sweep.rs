//! Integration test of the day-scale sweep harness at reduced scale: the
//! compressed paper-day trace must run fast on the event timeline,
//! reproduce the Figures 2–3 concentrate/spread contrast, genuinely fire
//! its timeout, leak and kill paths under churn and faults, and ignore the
//! config fields and overlay call that survive only for the benchmark.

use p2pmpi_bench::workload::{
    day_trace, run_day_sweep, DaySweepConfig, DaySweepResult, FaultSpec, SweepFingerprint,
};
use p2pmpi_core::prelude::{CoAllocator, JobRequest, StrategyKind};
use p2pmpi_grid5000::testbed::testbed_from_specs;
use p2pmpi_grid5000::TABLE1;
use p2pmpi_overlay::churn::flapping_churn;
use p2pmpi_overlay::overlay::Overlay;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::rngutil::{derive_seed, seeded};
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use std::time::Instant;

/// The CI-smoke shape: the whole day's burst profile compressed into one
/// virtual hour at ~1.1k jobs.
fn reduced(strategy: StrategyKind) -> DaySweepConfig {
    let mut cfg = DaySweepConfig::new(strategy).compress(24.0);
    cfg.profile = cfg.profile.scaled(0.05);
    cfg.sample_period = SimDuration::from_secs(60);
    cfg
}

#[test]
fn reduced_day_sweep_shows_the_concentrate_spread_contrast() {
    let start = Instant::now();
    let conc = run_day_sweep(&reduced(StrategyKind::Concentrate));
    let spread = run_day_sweep(&reduced(StrategyKind::Spread));
    let wall = start.elapsed();
    assert!(
        wall.as_secs() < 30,
        "two reduced day sweeps took {wall:?}; the full day must stay in single-digit seconds"
    );

    for (name, r) in [("concentrate", &conc), ("spread", &spread)] {
        assert_eq!(r.site_names[0], "nancy");
        assert!(
            r.submitted > 800,
            "{name}: only {} jobs arrived",
            r.submitted
        );
        assert_eq!(r.submitted, r.succeeded + r.failed, "{name}");
        assert!(
            r.succeeded > r.submitted / 2,
            "{name}: {}/{} jobs succeeded",
            r.succeeded,
            r.submitted
        );
        assert_eq!(
            r.virtual_end,
            p2pmpi_simgrid::time::SimTime::from_secs(3600)
        );
        // Completions, heartbeats and samples all ran on the timeline.
        assert!(r.events_processed > r.succeeded as u64, "{name}");
        // Some sample must have caught work in flight.
        assert!(
            r.samples.iter().any(|s| s.running.iter().sum::<u32>() > 0),
            "{name}: utilisation samples never saw a running process"
        );
        // A fixed strategy on a calm grid keeps producing the same few
        // placement shapes (39 and 49 here), so the model costs a small
        // share of the placed jobs and the memo answers the rest.
        assert!(
            r.shapes_costed >= 1 && r.shapes_costed * 100 < r.succeeded * 15,
            "{name}: {} shapes costed for {} placed jobs",
            r.shapes_costed,
            r.succeeded
        );
    }

    // The Figures 2–3 narrative: the concentrate run keeps (nearly) all the
    // work at Nancy, the spread run pushes a substantial share of it to the
    // other sites.
    let conc_nancy = conc.site_work_share()[0];
    let spread_nancy = spread.site_work_share()[0];
    assert!(conc_nancy > 0.85, "concentrate nancy share {conc_nancy}");
    assert!(spread_nancy < 0.80, "spread nancy share {spread_nancy}");
    assert!(
        conc_nancy > spread_nancy + 0.1,
        "contrast too weak: concentrate {conc_nancy} vs spread {spread_nancy}"
    );
    let spread_remote_sites = spread
        .site_work_share()
        .iter()
        .skip(1)
        .filter(|&&s| s > 0.01)
        .count();
    assert!(
        spread_remote_sites >= 2,
        "spread reached {spread_remote_sites} remote sites"
    );
}

/// The model costed at least one placement shape and at most one per placed
/// job (the memo answered the rest).
fn assert_a_shape_per_placed_job_at_most(r: &DaySweepResult) {
    assert!(
        (1..=r.succeeded).contains(&r.shapes_costed),
        "{} shapes costed for {} placed jobs",
        r.shapes_costed,
        r.succeeded
    );
}

/// The churn-heavy day at the CI-smoke scale.
fn reduced_churn_day() -> DaySweepConfig {
    let mut cfg = DaySweepConfig::dead_peer_day(StrategyKind::Concentrate).compress(24.0);
    cfg.profile = cfg.profile.scaled(0.05);
    cfg
}

#[test]
fn dead_peer_day_parks_timeouts_on_the_timeline_identically_on_every_queue() {
    // The churn-heavy scenario: flapping peers keep getting booked while
    // dead, so reservation timeouts genuinely occur while the alive peers'
    // exchanges are decided at send.  The
    // timeout count must be substantial and the sweep must still place a
    // meaningful share of the day.
    let day = run_day_sweep(&reduced_churn_day());
    assert!(day.submitted > 800, "only {} jobs arrived", day.submitted);
    assert!(
        day.timeouts > 100,
        "only {} reservation timeouts observed — the churn scenario is not exercising \
         the timeout path",
        day.timeouts
    );
    // Compression makes the churn brutal (a flapper cycles every ~37 s of
    // virtual time, and brokering genuinely stalls 2 s per dead booking),
    // so refusals and start failures are part of the scenario — but the
    // grid must still place a meaningful share of the day.
    assert!(
        day.succeeded > day.submitted / 4,
        "{}/{} jobs succeeded under churn",
        day.succeeded,
        day.submitted
    );
    // The brokering scratch and event store reach an allocation-free
    // steady state even under timeout churn.
    assert!(
        day.steady_state_alloc_free(),
        "brokering re-allocated past the mid-trace high-water mark: events {} -> {}, scratch {} -> {}",
        day.events_capacity_mid,
        day.events_capacity_end,
        day.rs_scratch_capacity_mid,
        day.rs_scratch_capacity_end,
    );
    // Churn scatters the placements over more shapes (86 here).
    assert_a_shape_per_placed_job_at_most(&day);
}

#[test]
fn a_churn_schedule_keeps_the_event_queue_near_its_calm_size() {
    // A flapping schedule queues one event at a time, not its thousands:
    // the dead-peer day's timeline stays within a small factor of the same
    // day without churn (same seed, scale and cache refresh).
    let churned = run_day_sweep(&reduced_churn_day());
    let mut calm = reduced_churn_day();
    calm.churn = None;
    let calm = run_day_sweep(&calm);
    assert!(
        churned.events_capacity_end <= 4 * calm.events_capacity_end,
        "event queue capacity {} under churn vs {} calm",
        churned.events_capacity_end,
        calm.events_capacity_end
    );
}

/// Replays `cfg`'s arrivals the way the benchmark's traced driver boots
/// and drives its testbed (every placed job held one minute), calling
/// `knob` on the overlay first, and logs what each submission saw.
fn replay(cfg: &DaySweepConfig, knob: impl FnOnce(&mut Overlay)) -> Vec<String> {
    let mut tb = testbed_from_specs(TABLE1, cfg.seed, NoiseModel::default());
    tb.overlay.tracer().set_enabled(false);
    tb.overlay.start_heartbeats();
    tb.overlay
        .start_reservation_expiry(SimDuration::from_secs(60), SimDuration::from_secs(120));
    tb.overlay
        .start_cache_refresh(tb.submitter, cfg.cache_refresh);
    knob(&mut tb.overlay);
    let churn = cfg.churn.as_ref().expect("a churn day");
    let mut peers = tb.overlay.peer_ids();
    peers.retain(|&p| p != tb.submitter);
    let schedule = flapping_churn(
        &peers,
        churn.fraction,
        cfg.profile.horizon(),
        churn.downtime,
        churn.uptime,
        &mut seeded(derive_seed(cfg.seed, 0xF1A9)),
    );
    tb.overlay.schedule_churn(schedule);
    let allocator = CoAllocator::new();
    let mut log = Vec::new();
    for job in day_trace(&cfg.profile, &cfg.mix, cfg.seed) {
        tb.overlay.run_until(job.at);
        let request = JobRequest::new(job.ranks, cfg.strategy, job.kernel.program());
        let report = allocator.allocate(&mut tb.overlay, tb.submitter, &request);
        if let Ok(alloc) = &report.outcome {
            let peers = alloc.hosts.iter().map(|h| h.peer).collect();
            let done = tb.overlay.now() + SimDuration::from_secs(60);
            tb.overlay.schedule_completion(done, report.key, peers);
        }
        // The queued-ticket count shows a cancelled event (a tombstone
        // until its firing time) even where outcomes agree.
        log.push(format!(
            "{} ok={} dead={} elapsed={} queued={}",
            tb.overlay.now(),
            report.outcome.is_ok(),
            report.dead,
            report.elapsed,
            tb.overlay.events_queued()
        ));
    }
    tb.overlay.run_until(SimTime::ZERO + cfg.profile.horizon());
    log.push(format!(
        "end events={} pending={} queued={} leaked={}",
        tb.overlay.events_processed(),
        tb.overlay.events_pending(),
        tb.overlay.events_queued(),
        tb.overlay.leaked_grants()
    ));
    log
}

#[test]
fn benchmark_shims_leave_the_churn_day_unchanged() {
    // `DaySweepConfig::{queue, rs_timeout_fast_path, reap_threshold}` and
    // `Overlay::set_rs_timeout_fast_path` outlived what they selected (the
    // benchmark still sets them): none may change a single outcome of the
    // day that used to turn them.
    let default = run_day_sweep(&reduced_churn_day()).fingerprint();
    let mut armed = reduced_churn_day();
    armed.rs_timeout_fast_path = false;
    let mut reaping = reduced_churn_day();
    reaping.reap_threshold = 0;
    for (cfg, what) in [
        (armed, "rs_timeout_fast_path = false"),
        (reaping, "reap_threshold = 0"),
    ] {
        let got = run_day_sweep(&cfg).fingerprint();
        assert_eq!(got.first_divergence(&default), None, "{what}");
    }
    // The overlay call, as `benchmark/src/traced.rs` makes it.
    let cfg = reduced_churn_day();
    let plain = replay(&cfg, |_| {});
    assert!(
        plain
            .iter()
            .any(|line| line.contains(" ok=") && !line.contains(" dead=0 ")),
        "the replay never booked a dead peer"
    );
    assert_eq!(
        plain,
        replay(&cfg, |o| o.set_rs_timeout_fast_path(false)),
        "set_rs_timeout_fast_path(false)"
    );
}

#[test]
fn searched_day_sweep_is_bit_identical_across_queues() {
    // The online search rides the sweep: every arrival re-anneals on
    // per-arrival RNG streams derived from the config seed, and the day
    // must still place most of its jobs.
    let mut cfg = DaySweepConfig::new(StrategyKind::Searched).compress(24.0);
    cfg.profile = cfg.profile.scaled(0.01);
    cfg.sample_period = SimDuration::from_secs(60);
    cfg.search_moves = 80;
    let day = run_day_sweep(&cfg);
    assert!(day.submitted > 150, "only {} jobs arrived", day.submitted);
    assert!(
        day.succeeded > day.submitted / 2,
        "{}/{} searched jobs succeeded",
        day.succeeded,
        day.submitted
    );
    // Annealed placements repeat far less, but still cost once per shape.
    assert_a_shape_per_placed_job_at_most(&day);
    let stats = day.search.expect("searched sweeps report search stats");
    assert!(stats.searched > 0 && stats.moves_evaluated > 0, "{stats:?}");
}

/// The stacked-fault day's fingerprint, captured at commit d2b7cd4 (before
/// every timeline fault became one churn event).
const STACKED_FAULTS_GOLDEN: &str = "trace[submitted=1134] \
    placements[succeeded=166 failed=968 shapes_costed=139] holds[mean_hold_bits=404bca78ff835d8e] \
    ledgers[core_seconds_bits=412cfcba54d55733 fnv=05b878e2cc9b34d7] \
    samples[n=61 fnv=962c618a49d3aa46] timeline[events_processed=317748 \
    virtual_end_ns=3600000000000 timeouts=35350 jobs_killed=2 leaked_grants=16990 \
    leaked_grant_hwm=70]";

#[test]
fn stacked_faults_fire_every_path_and_hold_their_golden() {
    // Injected faults ride the same timeline as everything else — churn
    // events, crash kills revoking completions, link-degradation toggles,
    // supernode crash/recovery and eager grant releases included — and a
    // scenario stacking every fault kind must genuinely fire each of them.
    // Times are in the compressed hour's coordinates (the config is
    // already compressed).
    let day = {
        let mut cfg = reduced(StrategyKind::Spread);
        cfg.mix.ranks = vec![32, 256, 300];
        cfg.fail_jobs_on_crash = true;
        // Stretch holds (~3 s modeled -> ~1 min) so the outage reliably
        // catches jobs mid-run: revocation needs victims.
        cfg.duration_scale = 20.0;
        cfg.faults = vec![
            FaultSpec::SiteOutage {
                site: "rennes".to_string(),
                at: SimDuration::from_secs(1350),
                duration: SimDuration::from_secs(300),
            },
            FaultSpec::PartialSite {
                site: "lyon".to_string(),
                hosts: 20,
                at: SimDuration::from_secs(900),
                duration: SimDuration::from_secs(600),
            },
            FaultSpec::SlowLinks {
                site: "sophia".to_string(),
                at: SimDuration::from_secs(150),
                duration: SimDuration::from_secs(3300),
                latency_factor: 200.0,
            },
            FaultSpec::SupernodeOutage {
                at: SimDuration::from_secs(2400),
                duration: SimDuration::from_secs(450),
            },
        ];
        run_day_sweep(&cfg)
    };
    // Every fault path genuinely fired: the outages revoked running jobs,
    // and the 200x Sophia latency made reservation replies lose their 2 s
    // races (leaks that the eager release then reclaimed).
    assert!(day.jobs_killed > 0, "the outages revoked no running jobs");
    assert!(
        day.leaked_grants > 0,
        "degraded links never exercised the reply-loses-race path"
    );
    assert!(
        day.leaked_grant_hwm < day.leaked_grants,
        "eager release never drained: high-water mark {} of {} leaks",
        day.leaked_grant_hwm,
        day.leaked_grants
    );
    let want: SweepFingerprint = STACKED_FAULTS_GOLDEN.parse().expect("a fingerprint line");
    let got = day.fingerprint();
    if let Some(stage) = got.first_divergence(&want) {
        panic!("the golden moved first at stage `{stage}`\n got {got}\nwant {want}");
    }
}
