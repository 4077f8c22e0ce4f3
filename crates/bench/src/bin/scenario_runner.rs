//! Runs the fault-injection scenario matrix and prints one JSON verdict per
//! scenario.
//!
//! ```text
//! cargo run --release -p p2pmpi-bench --bin scenario_runner -- \
//!     (--all | --scenario NAME) [--compress F] [--rate-scale F] \
//!     [--seed N] [--queue ladder|heap] \
//!     [--strategy spread|concentrate|searched|balanced:<k>]
//! ```
//!
//! Each scenario replays a day-scale submission trace with one named
//! adversity injected (see `p2pmpi_bench::scenario` for the matrix and the
//! fault-event contract) and is judged against explicit graceful-degradation
//! criteria: the supernode-crash day must complete ≥ 90% of its no-fault
//! twin's jobs, a site outage's utilisation must recover to within 5% of the
//! twin's, the standard day must leak zero grants, and so on.  Verdicts go
//! to stdout as JSON, in matrix order; progress and a pass/fail summary go
//! to stderr (scenarios run on every hardware thread, so their progress
//! lines interleave); the exit status is non-zero if any scenario failed
//! its criteria.
//!
//! `--compress 24` replays each scenario's day (and its fault windows) in
//! one virtual hour — the CI configuration.  `--rate-scale` defaults to
//! 0.05 (~1.1k jobs per day-equivalent).

use p2pmpi_bench::cliargs::{flag_f64, flag_present, flag_u64, flag_value, parse_queue_kind};
use p2pmpi_bench::par_map;
use p2pmpi_bench::scenario::{run_scenario, Scenario, ScenarioParams, ALL_SCENARIOS};
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: scenario_runner (--all | --scenario NAME) [--compress F] [--rate-scale F] \
         [--seed N] [--queue ladder|heap] [--strategy NAME]\n\nscenarios:"
    );
    for s in ALL_SCENARIOS {
        eprintln!("  {:<18} {}", s.name(), s.summary());
    }
    std::process::exit(2);
}

fn main() {
    let scenarios: Vec<Scenario> = if flag_present("--all") {
        ALL_SCENARIOS.to_vec()
    } else if let Some(name) = flag_value("--scenario") {
        match Scenario::from_name(&name) {
            Ok(s) => vec![s],
            Err(e) => {
                eprintln!("{e}");
                usage();
            }
        }
    } else {
        usage();
    };

    let mut params = ScenarioParams::default();
    if let Some(f) = flag_f64("--compress") {
        if f < 1.0 {
            eprintln!("--compress must be >= 1, got {f}");
            std::process::exit(2);
        }
        params.compress = f;
    }
    if let Some(f) = flag_f64("--rate-scale") {
        params.rate_scale = f;
    }
    if let Some(s) = flag_u64("--seed") {
        params.seed = s;
    }
    if let Some(q) = flag_value("--queue") {
        params.queue = parse_queue_kind(&q).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        });
    }
    if let Some(s) = flag_value("--strategy") {
        match s.parse() {
            Ok(strategy) => params.strategy = Some(strategy),
            Err(e) => {
                eprintln!("bad --strategy: {e}");
                std::process::exit(2);
            }
        }
    }

    // Scenarios are independent runs: spread them over the hardware
    // threads (progress lines interleave on stderr) and print the verdicts
    // in matrix order afterwards.
    let total = scenarios.len();
    let numbered: Vec<(usize, Scenario)> = scenarios.into_iter().enumerate().collect();
    let verdicts = par_map(&numbered, |&(i, scenario)| {
        eprintln!(
            "[{}/{total}] running {} (compress {}, rate scale {}, seed {})...",
            i + 1,
            scenario.name(),
            params.compress,
            params.rate_scale,
            params.seed,
        );
        let start = Instant::now();
        let verdict = run_scenario(scenario, &params);
        let wall = start.elapsed().as_secs_f64();
        let status = if verdict.passed() { "PASS" } else { "FAIL" };
        eprintln!(
            "[{}/{total}] {status} {} in {wall:.1}s wall ({}/{} jobs placed)",
            i + 1,
            scenario.name(),
            verdict.result.succeeded,
            verdict.result.submitted,
        );
        for check in verdict.checks.iter().filter(|c| !c.passed) {
            eprintln!(
                "  {} failed check {}: {}",
                scenario.name(),
                check.name,
                check.detail
            );
        }
        verdict
    });
    for verdict in &verdicts {
        println!("{}", verdict.to_json());
    }
    let failures = verdicts.iter().filter(|v| !v.passed()).count();
    if failures > 0 {
        eprintln!("{failures}/{total} scenarios failed their graceful-degradation criteria");
        std::process::exit(1);
    }
    eprintln!("all {total} scenarios passed");
}
