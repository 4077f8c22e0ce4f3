//! Regenerates the paper's evaluation (Section 5), one artefact per
//! subcommand:
//!
//! ```text
//! paper table1
//! paper fig2|fig3 [--seed N] [--sigma S]
//! paper fig4 [--kernel ep|is|ft] [--modeled] [--ranks a,b,c] [--class B]
//!            [--divisor D] [--alpha A] [--searched [--moves M] [--chains C] [--seed N]]
//! paper ablation latency-ranking [--sigma S] [--seed N]
//! paper ablation overbooking [--churn F] [--processes N] [--seed N]
//! paper ablation contention [--processes N]
//! paper all
//! ```
//!
//! Each artefact prints its rows, then `artefact[name=<n> rows=<count>
//! fnv=<16 hex>]` (FNV-1a of the rows), pinned for `all` by
//! `tests/paper_artefacts.rs`.  `fig4 --modeled` costs the collectives with
//! the LogGP model on a Table-1 grid scaled to the largest count (FT, at
//! IS's counts, is model-only); `--searched` adds the annealing search's
//! placement and implies `--modeled`, so all curves compare point by point.

use p2pmpi_bench::cliargs::{non_negative, Args};
use p2pmpi_bench::experiments::{
    fig2_fig3_sweep, modeled_kernel_times, run_kernel_once, searched_kernel_times, Fig4Kernel,
    Fig4Settings,
};
use p2pmpi_bench::output::{format_table1, print_fig4_table, print_sweep_tables};
use p2pmpi_bench::search::SearchParams;
use p2pmpi_bench::workload::fnv1a;
use p2pmpi_core::prelude::*;
use p2pmpi_core::strategy::StrategyKind::{Concentrate, Spread};
use p2pmpi_grid5000::scenario::{
    paper_ep_process_counts, paper_is_process_counts, probe_vs_icmp_ranking,
};
use p2pmpi_grid5000::sites::TABLE1;
use p2pmpi_grid5000::testbed::grid5000_testbed;
use p2pmpi_nas::classes::Class;
use p2pmpi_overlay::churn::random_churn;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::rngutil;
use p2pmpi_simgrid::time::SimDuration;
use std::fmt::Write;

const SUBCOMMANDS: &[&str] = &["table1", "fig2", "fig3", "fig4", "ablation", "all"];
const ABLATIONS: &[&str] = &["latency-ranking", "overbooking", "contention"];
const SWITCHES: &str = "--modeled --searched";
const VALUED: &str = "--seed --sigma --kernel --ranks --class --divisor --alpha --moves --chains \
                      --churn --processes";
const FIG4: &str = "--kernel --modeled --searched --ranks --class --divisor --alpha";
const SEARCH: &str = "--moves --chains --seed";
/// What `paper all` runs.
const ALL: &[&str] = &[
    "table1",
    "fig2",
    "fig3",
    "fig4 --kernel ep --modeled",
    "fig4 --kernel is --modeled",
    "ablation latency-ranking",
    "ablation overbooking",
    "ablation contention",
];

fn main() {
    let run = || {
        let args = parse(std::env::args().skip(1))?;
        if args.word(0, SUBCOMMANDS)? != "all" {
            return artefact(&args);
        }
        args.only(1, "", "all")?;
        for line in ALL {
            artefact(&parse(line.split(' ').map(String::from))?)?;
        }
        Ok(())
    };
    if let Err(e) = run() {
        eprintln!("{e}");
        std::process::exit(2);
    }
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    Args::parse(args, SWITCHES, VALUED)
}

/// Runs one artefact's subcommand and prints its rows and digest line.
fn artefact(args: &Args) -> Result<(), String> {
    let seed = args.get("--seed")?.unwrap_or(2008);
    let (name, rows) = match args.word(0, SUBCOMMANDS)? {
        "table1" => {
            args.only(1, "", "table1")?;
            ("table1".to_string(), format_table1(TABLE1))
        }
        sub @ ("fig2" | "fig3") => {
            args.only(1, "--seed --sigma", sub)?;
            let sigma = non_negative("--sigma", args.get("--sigma")?.unwrap_or(0.06))?;
            let strategy = if sub == "fig2" { Concentrate } else { Spread };
            eprintln!("# {strategy} sweep, seed={seed}, probe noise sigma={sigma}");
            let rows = fig2_fig3_sweep(strategy, seed, sigma);
            (sub.to_string(), print_sweep_tables(&rows))
        }
        "fig4" => fig4(args)?,
        _ => {
            let mode = args.word(1, ABLATIONS)?;
            let processes = args.get("--processes")?;
            let rows = match mode {
                "latency-ranking" => {
                    args.only(2, "--sigma --seed", mode)?;
                    let sigma = args.get("--sigma")?;
                    latency_ranking(sigma.map(|s| non_negative("--sigma", s)).transpose()?, seed)
                }
                "overbooking" => {
                    args.only(2, "--churn --processes --seed", mode)?;
                    let churn = args.get("--churn")?.unwrap_or(0.15);
                    overbooking(churn, processes.unwrap_or(300), seed)
                }
                _ => {
                    args.only(2, "--processes", mode)?;
                    contention(processes.unwrap_or(128))
                }
            };
            (format!("ablation-{mode}"), rows)
        }
    };
    print!("{rows}");
    let (count, digest) = (rows.lines().count(), fnv1a(rows.bytes()));
    println!("artefact[name={name} rows={count} fnv={digest:016x}]");
    Ok(())
}

/// Figure 4 for one kernel: concentrate and spread, plus the searched
/// curve under `--searched`.
fn fig4(args: &Args) -> Result<(String, String), String> {
    let searched = args.has("--searched");
    if searched {
        args.only(1, &format!("{FIG4} {SEARCH}"), "fig4 --searched")?;
    } else {
        args.only(1, FIG4, "fig4 without --searched")?;
    }
    let (kernel, label) = match args.get::<String>("--kernel")?.as_deref() {
        None | Some("ep") => (Fig4Kernel::Ep, "EP"),
        Some("is") => (Fig4Kernel::Is, "IS"),
        Some("ft") => (Fig4Kernel::Ft, "FT"),
        Some(other) => return Err(format!("invalid --kernel value {other:?}")),
    };
    let modeled = searched || args.has("--modeled");
    if kernel == Fig4Kernel::Ft && !modeled {
        return Err("--kernel ft is model-only: add --modeled or --searched".to_string());
    }
    let mut settings = Fig4Settings {
        class: args.get("--class")?.unwrap_or(Class::B),
        contention_alpha: args.get("--alpha")?,
        ..Fig4Settings::default()
    };
    if let Some(divisor) = args.get("--divisor")? {
        match kernel {
            Fig4Kernel::Ep => settings.ep_sample_divisor = divisor,
            Fig4Kernel::Is => settings.is_sample_divisor = divisor,
            Fig4Kernel::Ft => return Err("--divisor does not apply to --kernel ft".to_string()),
        }
    }
    let counts = args.list("--ranks")?.unwrap_or_else(|| match kernel {
        Fig4Kernel::Ep => paper_ep_process_counts(),
        Fig4Kernel::Is | Fig4Kernel::Ft => paper_is_process_counts(),
    });
    if counts.contains(&0) {
        return Err(format!("--ranks elements must be >= 1, got {counts:?}"));
    }
    let search = if searched {
        let default = SearchParams::default_for(kernel);
        let params = SearchParams {
            moves: args.get("--moves")?.unwrap_or(default.moves),
            chains: args.get("--chains")?.unwrap_or(default.chains),
            seed: args.get("--seed")?.unwrap_or(default.seed),
        };
        if params.chains == 0 {
            return Err("--chains must be >= 1, got 0".to_string());
        }
        Some(params)
    } else {
        None
    };
    let class = settings.class.to_string();
    let backend = if modeled { "modeled" } else { "executed" };
    eprintln!("# {label} class {class}, processes {counts:?}, backend {backend}");

    let run = |strategy| {
        if modeled {
            modeled_kernel_times(kernel, strategy, &counts, &settings)
        } else {
            let executed = |&n| run_kernel_once(kernel, strategy, n, &settings);
            counts.iter().map(executed).collect()
        }
    };
    let mut series = vec![("concentrate", run(Concentrate)), ("spread", run(Spread))];
    let verified = series.iter().all(|(_, s)| s.iter().all(|p| p.verified));
    assert!(
        verified,
        "{label} verification failed on at least one point"
    );
    if let Some(params) = search {
        let points = searched_kernel_times(kernel, &counts, &settings, &params);
        series.push(("searched", points));
    }
    let series: Vec<_> = series.iter().map(|(n, p)| (*n, p.as_slice())).collect();
    let rows = print_fig4_table(label, &class, &series);
    Ok((format!("fig4-{}", label.to_lowercase()), rows))
}

/// Probe-vs-ICMP ranking per site (Section 5.1's measurement accuracy);
/// `sigma` replaces the built-in noise ladder with a single level.
fn latency_ranking(sigma: Option<f64>, seed: u64) -> String {
    let sigmas = sigma.map_or(vec![0.0, 0.03, 0.06, 0.12], |s| vec![s]);
    let mut out = String::from("# sigma\trank\tsite\tmeasured_rtt_ms\ticmp_rtt_ms\n");
    for (i, &sigma) in sigmas.iter().enumerate() {
        let noise = if sigma == 0.0 {
            NoiseModel::disabled()
        } else {
            NoiseModel::with_sigma(sigma)
        };
        let tb = grid5000_testbed(seed.wrapping_add(100 + i as u64), noise);
        for (rank, (site, measured, icmp)) in probe_vs_icmp_ranking(&tb).iter().enumerate() {
            let _ = writeln!(out, "{sigma}\t{rank}\t{site}\t{measured:.3}\t{icmp:.3}");
        }
    }
    out
}

/// Allocation success and booking effort per overbooking policy when a
/// `churn` fraction of the peers crashed before the submission.
fn overbooking(churn: f64, demand: u32, seed: u64) -> String {
    let policies: [(&str, OverbookingPolicy); 4] = [
        ("none", OverbookingPolicy::None),
        ("factor_1.25", OverbookingPolicy::Factor(1.25)),
        ("factor_1.5", OverbookingPolicy::Factor(1.5)),
        ("factor_2.0", OverbookingPolicy::Factor(2.0)),
    ];
    let mut out =
        "# policy\tsuccess\thosts_used\tbooked\tgranted\tdead\tcancelled\telapsed_ms\n".to_string();
    for (name, policy) in policies {
        let mut tb = grid5000_testbed(seed.wrapping_add(9), NoiseModel::default());
        let mut peers = tb.overlay.peer_ids();
        peers.retain(|&p| p != tb.submitter);
        let mut rng = rngutil::substream(77, 1);
        let (from, to) = (SimDuration::from_secs(1), SimDuration::from_secs(3600));
        let schedule = random_churn(&peers, churn, from, to, &mut rng);
        tb.overlay.schedule_churn(schedule.finish());
        tb.overlay
            .run_until(tb.overlay.now() + SimDuration::from_secs(2));

        let allocator = CoAllocator::with_params(CoAllocatorParams {
            overbooking: policy,
            ..CoAllocatorParams::default()
        });
        let request = JobRequest::new(demand, Spread, "hostname");
        let r = allocator.allocate(&mut tb.overlay, tb.submitter, &request);
        let (ok, hosts) = (r.is_success(), r.outcome.map_or(0, |a| a.hosts_used()));
        let (booked, granted, dead, ms) = (r.booked, r.granted, r.dead, r.elapsed.as_millis_f64());
        let cancelled = r.cancelled_unused;
        let _ = writeln!(
            out,
            "{name}\t{ok}\t{hosts}\t{booked}\t{granted}\t{dead}\t{cancelled}\t{ms:.2}"
        );
    }
    out
}

/// The executed EP gap between the strategies at `n` processes against the
/// memory-contention coefficient (an ablation of the cost model).
fn contention(n: u32) -> String {
    let mut out = String::from("# alpha\tconcentrate_s\tspread_s\tratio\n");
    for alpha in [0.0, 0.1, 0.28, 0.5] {
        let settings = Fig4Settings {
            contention_alpha: Some(alpha),
            ..Fig4Settings::default()
        };
        let run = |strategy| {
            let point = run_kernel_once(Fig4Kernel::Ep, strategy, n, &settings);
            point.makespan.as_secs_f64()
        };
        let (c, s) = (run(Concentrate), run(Spread));
        let _ = writeln!(out, "{alpha}\t{c:.3}\t{s:.3}\t{:.3}", c / s.max(1e-9));
    }
    out
}
