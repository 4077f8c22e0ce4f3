//! Day-scale sweeps: the bursty `DayProfile::paper_day` trace replayed
//! through the co-allocator on the overlay's event timeline.
//!
//! ```text
//! day [--strategy concentrate|spread|searched|both|all] [--seed N]
//!     [--compress F] [--rate-scale F] [--duration-scale F] [--sample-secs S]
//!     [--ranks a,b,c] [--churn F] [--search-moves N] [--days N]
//! day --shards N [--cross-fraction F] [--baseline] [the flags above]
//! day --scenario NAME|all [--strategy S] [--seed N] [--compress F] [--rate-scale F]
//! day --worst-phase [--offsets s1,s2,..] [--refine N] [--no-gate] [the four above]
//! ```
//!
//! Defaults: strategy `both`, seed 2008, compress 1, rate scale 1, one day.
//! A plain run prints per strategy a `[utilisation_<strategy>]` timeline,
//! the work shares and `DaySweepResult::fingerprint`.  `--shards N` runs on
//! `N` shard timelines; `--baseline` exits 1 unless the single-thread driver
//! matches.  `--scenario` prints a JSON verdict per fault scenario, exit 1 if
//! one fails (no `--strategy` keeps each one's own).  `--worst-phase` sweeps
//! the Nancy outage's onset against the flash crowd and, unless `--no-gate`,
//! exits 1 when the worst phase recovers < 10% slower than the nominal one:
//! `OUTAGE_IN_CROWD_WORST_OFFSET_SECS` must not go stale.  Every flag value
//! is checked before the first sweep starts; a bad one exits 2 naming it.

use p2pmpi_bench::cliargs::{non_negative, Args};
use p2pmpi_bench::par::{hardware_threads, par_map};
use p2pmpi_bench::scenario::{
    run_scenario, search_worst_phase, PhasePoint, Scenario, ScenarioParams, ALL_SCENARIOS,
    OUTAGE_IN_CROWD_WORST_OFFSET_SECS,
};
use p2pmpi_bench::shard::{run_shard_sweep, ShardSweepConfig, ShardSweepResult};
use p2pmpi_bench::workload::{run_day_sweep, DaySweepConfig};
use p2pmpi_core::strategy::StrategyKind::{self, Concentrate, Searched, Spread};
use p2pmpi_grid5000::SITE_ORDER;
use p2pmpi_simgrid::time::SimDuration;
use std::time::Instant;

const SHARED: &str = "--strategy --seed --compress --rate-scale --duration-scale \
                      --sample-secs --ranks --churn --search-moves --days";
const SHARDS: &str = "--shards --cross-fraction --baseline";
/// The `ScenarioParams` flags, all `--scenario` and `--worst-phase` share.
const SCALE: &str = "--strategy --seed --compress --rate-scale";
const WORST_PHASE: &str = "--worst-phase --offsets --refine --no-gate";
const SWITCHES: &str = "--baseline --worst-phase --no-gate";
const VALUED: &str = "--shards --cross-fraction --scenario --offsets --refine";

/// How much slower than the nominal onset the worst phase must recover.
const WORST_OVER_NOMINAL_MIN: f64 = 1.1;

fn main() {
    if let Err(e) = run() {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let argv = std::env::args().skip(1);
    let args = Args::parse(argv, SWITCHES, &format!("{SHARED} {VALUED}"))?;
    let compress: f64 = args.get("--compress")?.unwrap_or(1.0);
    if !(1.0..f64::INFINITY).contains(&compress) {
        return Err(format!("--compress must be >= 1, got {compress}"));
    }
    let rate_scale = args.get("--rate-scale")?.unwrap_or(1.0);
    let scale = ScenarioParams {
        compress,
        rate_scale: non_negative("--rate-scale", rate_scale)?,
        seed: args.get("--seed")?.unwrap_or(2008),
        strategy: None,
    };
    // One mode per run: each mode's flag list leaves out the others'.
    if args.has("--scenario") {
        args.only(0, &format!("{SCALE} --scenario"), "--scenario")?;
        return scenarios(&args, scale);
    }
    if args.has("--worst-phase") {
        args.only(0, &format!("{SCALE} {WORST_PHASE}"), "--worst-phase")?;
        return worst_phase(&args, scale);
    }
    let shards = args.has("--shards");
    match shards {
        true => args.only(0, &format!("{SHARED} {SHARDS}"), "--shards")?,
        false => args.only(0, SHARED, "a plain day")?,
    }
    let strategies = match args.get::<String>("--strategy")?.as_deref() {
        None | Some("both") => vec![Concentrate, Spread],
        Some("all") => vec![Concentrate, Spread, Searched],
        Some(_) => vec![args.get("--strategy")?.expect("--strategy was given")],
    };
    // Every strategy reads the same flags, so a bad value fails on the
    // first one, before any sweep.
    for strategy in strategies {
        let cfg = config_for(strategy, &args, &scale)?;
        if shards {
            week(cfg, &args)?;
        } else {
            day(cfg);
        }
    }
    Ok(())
}

/// The one `DaySweepConfig` the flags describe for `strategy`.
fn config_for(
    strategy: StrategyKind,
    args: &Args,
    scale: &ScenarioParams,
) -> Result<DaySweepConfig, String> {
    // --churn F opts into the dead-peer day wholesale (flapping peers, fast
    // cache refresh) with only the flapping fraction overridden, so the CLI
    // cannot drift from the named scenario the tests gate on.
    let mut cfg = match args.get::<f64>("--churn")? {
        None => DaySweepConfig::new(strategy),
        Some(f) if (0.0..=1.0).contains(&f) => {
            let mut cfg = DaySweepConfig::dead_peer_day(strategy);
            cfg.churn.iter_mut().for_each(|churn| churn.fraction = f);
            cfg
        }
        Some(f) => return Err(format!("--churn takes a fraction in [0, 1], got {f}")),
    };
    cfg.seed = scale.seed;
    match args.get::<usize>("--days")?.unwrap_or(1) {
        0 => return Err("--days must be >= 1".to_string()),
        1 => {}
        days => cfg.profile = cfg.profile.repeated(days),
    }
    if scale.compress > 1.0 {
        // Compresses the churn cycle and refresh cadence along with the
        // profile, preserving the per-job timeout pressure.
        cfg = cfg.compress(scale.compress);
    }
    cfg.profile = cfg.profile.scaled(scale.rate_scale);
    if let Some(f) = args.get("--duration-scale")? {
        cfg.duration_scale = non_negative("--duration-scale", f)?;
    }
    match args.get("--sample-secs")? {
        // A zero period would never advance the sample clock.
        Some(0) => return Err("--sample-secs must be >= 1, got 0".to_string()),
        Some(s) => cfg.sample_period = SimDuration::from_secs(s),
        None => {}
    }
    if let Some(ranks) = args.list("--ranks")? {
        if ranks.contains(&0) {
            return Err(format!("--ranks elements must be >= 1, got {ranks:?}"));
        }
        cfg.mix.ranks = ranks;
    }
    if let Some(moves) = args.get("--search-moves")? {
        cfg.search_moves = moves;
    }
    Ok(cfg)
}

/// A plain day: the utilisation timeline, the work shares and the
/// fingerprint (which carries the job counts, shapes costed and timeouts).
fn day(cfg: DaySweepConfig) {
    let start = Instant::now();
    let result = run_day_sweep(&cfg);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let name = cfg.strategy;
    let sites: String = result.site_names.iter().map(|s| format!("\t{s}")).collect();
    println!("\n[utilisation_{name}]\nt_secs{sites}\ttotal");
    for sample in &result.samples {
        print!("{:.0}", sample.t.as_secs_f64());
        for &r in &sample.running {
            print!("\t{r}");
        }
        println!("\t{}", sample.running.iter().sum::<u32>());
    }
    print!("\n[work_share_{name}]\n# site{sites}\n# share");
    for share in result.site_work_share() {
        print!("\t{share:.3}");
    }
    println!("\nfingerprint\t{name}\t{}", result.fingerprint());
    let hold = result.mean_hold_secs;
    eprintln!("# {name}: mean hold {hold:.1}s, wall {wall_ms:.0}ms");
}

/// `--shards N`: the sharded driver over `base`, and with `--baseline` the
/// single-thread driver it must match.
fn week(base: DaySweepConfig, args: &Args) -> Result<(), String> {
    let strategy = base.strategy;
    let shards = args.get("--shards")?.expect("--shards was given");
    // A shard is a set of whole sites: one per Table-1 site at most.
    let sites = SITE_ORDER.len();
    if !(1..=sites).contains(&shards) {
        return Err(format!(
            "--shards must be 1 to {sites} (Table 1), got {shards}"
        ));
    }
    let mut cfg = ShardSweepConfig::new(base, shards);
    if let Some(f) = args.get("--cross-fraction")? {
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("--cross-fraction must be in [0, 1], got {f}"));
        }
        cfg.cross_fraction = f;
    }
    let result = run_shard_sweep(&cfg);
    print_shards("week_sweep_parallel", &result);
    println!("fingerprint\t{strategy}\t{}", result.merged.fingerprint());
    if args.has("--baseline") {
        cfg.parallel = false;
        let baseline = run_shard_sweep(&cfg);
        print_shards("week_sweep_baseline", &baseline);
        let (want, got) = (baseline.merged.fingerprint(), result.merged.fingerprint());
        if let Some(stage) = got.first_divergence(&want) {
            eprintln!(
                "FAIL: the parallel driver and the single-thread baseline diverge first at \
                 stage `{stage}`\n  parallel  {got}\n  baseline  {want}"
            );
            std::process::exit(1);
        }
        let speedup = baseline.wall.as_secs_f64() / result.wall.as_secs_f64().max(1e-9);
        println!(
            "\nspeedup\t{speedup:.2}x\t({} hw threads)",
            hardware_threads()
        );
    }
    Ok(())
}

fn print_shards(label: &str, r: &ShardSweepResult) {
    println!("\n[{label}]");
    let (n, barriers, placed) = (r.per_shard.len(), r.barriers, r.cross_succeeded);
    let (cross, refused) = (r.cross_submitted, r.cross_failed);
    println!(
        "shards\t{n}\tbarriers\t{barriers}\tcross\t{placed}/{cross} placed ({refused} refused)"
    );
    print!("per_shard_submitted");
    for s in &r.per_shard {
        print!("\t{}", s.submitted);
    }
    let m = &r.merged;
    println!(
        "\nsubmitted\t{}\tsucceeded\t{}\tfailed\t{}\ttimeouts\t{}",
        m.submitted, m.succeeded, m.failed, m.timeouts
    );
    println!(
        "shapes_costed\t{}/{} placed (shards + coordinator)",
        m.shapes_costed, m.succeeded
    );
    let end = m.virtual_end.as_secs_f64();
    println!("events\t{}\tvirtual_end\t{end:.0}s", m.events_processed);
    print!("# work_share");
    for (site, share) in m.site_names.iter().zip(m.site_work_share()) {
        print!("\t{site}:{share:.3}");
    }
    println!(
        "\nwall_ms\t{:.1}\tevents_per_sec\t{:.0}\tjobs_per_sec\t{:.1}",
        r.wall.as_secs_f64() * 1e3,
        r.events_per_sec(),
        r.jobs_per_sec()
    );
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    print!("lane_work_ms");
    for &w in &r.lane_work {
        print!("\t{:.1}", ms(w));
    }
    println!(
        "\ncoordinator_wait_ms\t{:.1}\tbroker_ms\t{:.1}\tphases\t{}",
        ms(r.coordinator_wait),
        ms(r.broker),
        r.phases
    );
}

/// `--scenario NAME|all`: the matrix, one JSON verdict per scenario.
fn scenarios(args: &Args, mut params: ScenarioParams) -> Result<(), String> {
    params.strategy = args.get("--strategy")?;
    let scenarios = match args.get::<String>("--scenario")?.as_deref() {
        Some("all") => ALL_SCENARIOS.to_vec(),
        name => vec![Scenario::from_name(name.expect("--scenario was given"))?],
    };
    // Independent runs: spread over the hardware threads, printed in
    // matrix order.  Each verdict's JSON lists its checks and their details.
    let verdicts = par_map(&scenarios, |&scenario| run_scenario(scenario, &params));
    for verdict in &verdicts {
        println!("{}", verdict.to_json());
    }
    if verdicts.iter().any(|v| !v.passed()) {
        std::process::exit(1);
    }
    Ok(())
}

fn point_json(p: &PhasePoint) -> String {
    format!(
        r#"{{ "offset_secs": {:.1}, "recovery_secs": {:.1}, "recovered": {}, "succeeded": {}, "submitted": {}, "jobs_killed": {} }}"#,
        p.offset_secs, p.recovery_secs, p.recovered, p.succeeded, p.submitted, p.jobs_killed
    )
}

/// `--worst-phase`: the adversarial outage onset, one JSON report.
fn worst_phase(args: &Args, mut params: ScenarioParams) -> Result<(), String> {
    params.strategy = args.get("--strategy")?;
    // By default ±2h around the nominal 10:30 onset in half-hour steps: the
    // band where the outage window can straddle the 10:00 crowd.
    let offsets = match args.list::<f64>("--offsets")? {
        Some(offsets) => offsets,
        None => (-4..=4).map(|k| k as f64 * 1800.0).collect(),
    };
    if let Some(o) = offsets.iter().find(|o| !o.is_finite()) {
        return Err(format!("--offsets elements must be finite, got {o}"));
    }
    let refine_iters = args.get("--refine")?.unwrap_or(0);
    let start = Instant::now();
    let report = search_worst_phase(&params, &offsets, refine_iters);
    let wall = start.elapsed().as_secs_f64();

    let points: Vec<String> = report.points.iter().map(point_json).collect();
    let ratio = report.worst_over_nominal();
    println!(
        r#"{{
  "compress": {compress},
  "rate_scale": {rate},
  "seed": {seed},
  "refined_evals": {refined},
  "points": [
    {points}
  ],
  "nominal": {nominal},
  "worst": {worst},
  "worst_over_nominal": {ratio:.3},
  "pinned_offset_secs": {pinned:.1},
  "wall_s": {wall:.1}
}}"#,
        compress = params.compress,
        rate = params.rate_scale,
        seed = params.seed,
        refined = report.refined_evals,
        points = points.join(",\n    "),
        nominal = point_json(&report.nominal),
        worst = point_json(&report.worst),
        pinned = OUTAGE_IN_CROWD_WORST_OFFSET_SECS,
    );
    if !args.has("--no-gate") && ratio < WORST_OVER_NOMINAL_MIN {
        eprintln!("GATE FAILED: worst/nominal recovery {ratio:.2} < {WORST_OVER_NOMINAL_MIN}");
        std::process::exit(1);
    }
    Ok(())
}
