//! Figures 2–3 at sweep scale: per-site utilisation timelines from a
//! day-long submission trace.
//!
//! ```text
//! cargo run --release -p p2pmpi-bench --bin fig23_sweep -- \
//!     [--strategy concentrate|spread|searched|both|all] \
//!     [--seed N] [--compress F] [--rate-scale F] [--duration-scale F] \
//!     [--sample-secs S] [--ranks a,b,c] [--churn F] [--search-moves N]
//! ```
//!
//! Where the paper's Figures 2 and 3 submit one job at a time and plot where
//! its processes land, this binary replays a **day** of bursty submissions
//! (the [`DayProfile::paper_day`] trace, ~21.7k jobs over 86,400 virtual
//! seconds) through the co-allocator and plots where the *fleet* of jobs
//! lands over time.  Per strategy it prints one `[utilisation_<strategy>]`
//! table — a row per 5-minute sample, a column per site with the processes
//! running there — plus a work-share summary.  The concentrate run keeps
//! the bulk of the work at Nancy (the submitter's site, lowest RTT),
//! spilling to Lyon/Rennes/... only during bursts; the spread run deals
//! work across all six sites from the first sample on — the same contrast
//! the paper's figures show, now visible as a timeline.
//!
//! # The driver loop
//!
//! The whole run is one discrete-event simulation on the overlay's event
//! timeline:
//!
//! 1. The trace is materialised up front ([`p2pmpi_bench::workload::day_trace`]):
//!    arrival instants from the piecewise-rate profile, job shapes (rank
//!    count, EP vs IS kernel) from the mix.
//! 2. For each job, `Overlay::run_until(job.at)` delivers everything due
//!    first — job completions, heartbeat rounds, periodic cache refreshes,
//!    reservation-expiry sweeps, churn — so the allocator sees exactly the
//!    overlay state a live system would have at that instant.
//! 3. The job is submitted through `CoAllocator::allocate`.  The brokering
//!    step runs on the timeline: a reservation request to a dead peer (or
//!    over a link too slow to answer in time) arms a timeout event, so the
//!    clock genuinely waits it out, while an alive peer's in-time reply is
//!    decided at send.  On success the job's **modeled** kernel
//!    duration (the LogGP analytical backend on the job's real placement)
//!    is charged as a hold, and an `Overlay::schedule_completion` event
//!    frees the booked hosts when it elapses.  On refusal (gatekeepers
//!    busy, infeasible) the job counts as failed — burst-hour refusals are
//!    part of the narrative.
//! 4. Utilisation is sampled every `--sample-secs` by reading each RS's
//!    running-process count, grouped by site.
//!
//! `--compress 24 --rate-scale 0.05` replays the full day's burst shape in
//! one virtual hour at ~1k jobs — the CI smoke configuration.  `--churn F`
//! adds the dead-peer flapping scenario (fraction `F` of peers on the
//! default down/up cycle, compressed with the profile): booked-but-dead
//! peers park full `rs_timeout` stalls on the timeline.

use p2pmpi_bench::cliargs::{day_sweep_flags, DaySweepFlags};
use p2pmpi_bench::workload::{
    run_day_sweep, DaySweepConfig, DaySweepResult, DeadPeerChurn, JobMix,
};
use p2pmpi_core::strategy::StrategyKind;
use p2pmpi_simgrid::time::SimDuration;
use std::time::Instant;

fn config_for(strategy: StrategyKind, flags: &DaySweepFlags) -> DaySweepConfig {
    // --churn F opts into the dead-peer scenario wholesale (flapping peers,
    // fast cache refresh) with only the flapping fraction overridden, so
    // the CLI cannot drift from the named scenario the tests and
    // scenario_runner gate on.
    let mut cfg = match flags.churn {
        Some(fraction) => {
            if !(0.0..=1.0).contains(&fraction) {
                eprintln!("--churn takes a fraction in [0, 1], got {fraction}");
                std::process::exit(2);
            }
            let mut cfg = DaySweepConfig::dead_peer_day(strategy);
            cfg.churn = Some(DeadPeerChurn {
                fraction,
                ..DeadPeerChurn::default()
            });
            cfg
        }
        None => DaySweepConfig::new(strategy),
    };
    cfg.seed = flags.seed;
    if let Some(f) = flags.compress {
        // Compresses the churn cycle and refresh cadence along with the
        // profile, preserving the per-job timeout pressure.
        cfg = cfg.compress(f);
    }
    if let Some(f) = flags.rate_scale {
        cfg.profile = cfg.profile.scaled(f);
    }
    if let Some(f) = flags.duration_scale {
        cfg.duration_scale = f;
    }
    if let Some(s) = flags.sample_secs {
        cfg.sample_period = SimDuration::from_secs(s);
    }
    if let Some(ranks) = &flags.ranks {
        cfg.mix = JobMix {
            ranks: ranks.clone(),
            ..JobMix::default()
        };
    }
    if let Some(moves) = flags.search_moves {
        cfg.search_moves = moves;
    }
    cfg
}

fn print_result(name: &str, result: &DaySweepResult, wall_ms: f64) {
    println!("\n[utilisation_{name}]");
    print!("t_secs");
    for site in &result.site_names {
        print!("\t{site}");
    }
    println!("\ttotal");
    for sample in &result.samples {
        print!("{:.0}", sample.t.as_secs_f64());
        let mut total = 0u32;
        for &r in &sample.running {
            total += r;
            print!("\t{r}");
        }
        println!("\t{total}");
    }

    println!("\n[work_share_{name}]");
    print!("# site");
    for site in &result.site_names {
        print!("\t{site}");
    }
    println!();
    print!("# share");
    for share in result.site_work_share() {
        print!("\t{share:.3}");
    }
    println!();

    eprintln!(
        "# {name}: {} submitted, {} succeeded ({} placement shapes costed), {} failed, \
         {} reservation timeouts, mean hold {:.1}s, {} timeline events, virtual end {:.0}s, \
         wall {wall_ms:.0}ms",
        result.submitted,
        result.succeeded,
        result.shapes_costed,
        result.failed,
        result.timeouts,
        result.mean_hold_secs,
        result.events_processed,
        result.virtual_end.as_secs_f64(),
    );
    if let Some(s) = &result.search {
        eprintln!(
            "# {name} online search: {} arrivals ({} searched, {} infeasible), \
             {} moves, prepare {:.0}ms + anneal {:.0}ms wall",
            s.arrivals,
            s.searched,
            s.infeasible,
            s.moves_evaluated,
            s.prepare_nanos as f64 / 1e6,
            s.anneal_nanos as f64 / 1e6,
        );
    }
}

fn main() {
    let flags = day_sweep_flags();
    let strategies: Vec<(&str, StrategyKind)> = match flags.strategy.as_str() {
        "concentrate" => vec![("concentrate", StrategyKind::Concentrate)],
        "spread" => vec![("spread", StrategyKind::Spread)],
        "searched" => vec![("searched", StrategyKind::Searched)],
        "both" => vec![
            ("concentrate", StrategyKind::Concentrate),
            ("spread", StrategyKind::Spread),
        ],
        "all" => vec![
            ("concentrate", StrategyKind::Concentrate),
            ("spread", StrategyKind::Spread),
            ("searched", StrategyKind::Searched),
        ],
        other => {
            eprintln!(
                "unknown --strategy {other:?} (expected concentrate|spread|searched|both|all)"
            );
            std::process::exit(2);
        }
    };

    for (name, strategy) in strategies {
        let cfg = config_for(strategy, &flags);
        eprintln!(
            "# {name} day sweep: ~{:.0} jobs over {:.0}s virtual, seed={}",
            cfg.profile.expected_jobs(),
            cfg.profile.horizon().as_secs_f64(),
            cfg.seed,
        );
        let start = Instant::now();
        let result = run_day_sweep(&cfg);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        print_result(name, &result, wall_ms);
    }
}
