//! Model-driven placement search: anneal host assignments under the LogGP
//! model and compare the found placement against the paper's two fixed
//! strategies.
//!
//! ```text
//! cargo run --release -p p2pmpi-bench --bin placement_search -- \
//!     [--kernel ep|is|ft] [--ranks N] [--scale K] [--skewed] \
//!     [--moves M] [--chains C] [--seed S] [--class B] [--divisor D]
//! ```
//!
//! Defaults: EP at 256 ranks, 10 000 moves (IS/FT: 2 000) on 4 chains, on a Table-1 grid
//! scaled just large enough (`--skewed` swaps in the heterogeneity-skewed
//! grid of `p2pmpi_grid5000::sites::skewed_table1`, where fixed strategies
//! are provably poor).  The search itself lives in `p2pmpi_bench::search`;
//! its hot path is the evaluator of `p2pmpi_mpi::model`, which costs a
//! candidate move with one integer pass over the compiled schedule instead
//! of a full model replay — `perf_report` gates that speedup at EP@256 and
//! IS@128.
//!
//! Ring kernels (IS, FT): the evaluator's ring state is pooled transfer
//! tables of O(ranks · sites) bytes (see the `p2pmpi_mpi::model` memory
//! note), so alltoall-heavy searches run at 1024+ ranks; a move runs each
//! ring's wavefront for the first two iterations and fast-forwards the
//! rest, so their per-move cost is still higher than EP's — budget moves
//! accordingly (`SearchParams::default_for`).

use p2pmpi_bench::cliargs as util;
use p2pmpi_bench::experiments::{Fig4Kernel, Fig4Settings};
use p2pmpi_bench::search::{search_placement, SearchParams};
use p2pmpi_grid5000::sites::{scale_factor_for_cores, scaled_table1, skewed_table1};
use p2pmpi_grid5000::testbed::topology_from_specs;
use p2pmpi_nas::classes::Class;
use std::time::Instant;

fn main() {
    let kernel = match util::flag_value("--kernel").as_deref() {
        None | Some("ep") => Fig4Kernel::Ep,
        Some("is") => Fig4Kernel::Is,
        Some("ft") => Fig4Kernel::Ft,
        Some(other) => {
            eprintln!("unknown kernel {other:?} (expected ep, is or ft)");
            std::process::exit(2);
        }
    };
    let ranks = util::flag_u64("--ranks").unwrap_or(256) as u32;
    let class: Class = util::flag_parsed("--class").unwrap_or(Class::B);
    let mut settings = Fig4Settings {
        class,
        ..Fig4Settings::default()
    }
    .modeled();
    if let Some(divisor) = util::flag_u64("--divisor") {
        match kernel {
            Fig4Kernel::Ep => settings.ep_sample_divisor = divisor,
            Fig4Kernel::Is => settings.is_sample_divisor = divisor,
            Fig4Kernel::Ft => {
                eprintln!("--divisor is ignored for FT (it always models the full class)")
            }
        }
    }
    let default_moves = match kernel {
        Fig4Kernel::Ep => 10_000,
        // Ring kernels pay a wavefront per ring segment per move.
        Fig4Kernel::Is | Fig4Kernel::Ft => 2_000,
    };
    let params = SearchParams {
        moves: util::flag_u64("--moves").unwrap_or(default_moves),
        chains: util::flag_u64("--chains").unwrap_or(4) as u32,
        seed: util::flag_u64("--seed").unwrap_or(2008),
    };
    let factor = util::flag_u64("--scale")
        .map(|s| s as usize)
        .unwrap_or_else(|| scale_factor_for_cores(ranks as usize));
    let skewed = util::flag_present("--skewed");
    let specs = if skewed {
        skewed_table1(factor)
    } else {
        scaled_table1(factor)
    };
    let topology = topology_from_specs(&specs);

    eprintln!(
        "# placement_search: {} {} ranks on the {}scale-{factor} Table-1 grid ({} hosts, {} cores), {} moves x {} chains, seed {}",
        kernel.program(),
        ranks,
        if skewed { "SKEWED " } else { "" },
        topology.host_count(),
        topology.total_cores(),
        params.moves,
        params.chains,
        params.seed,
    );

    let start = Instant::now();
    let report = search_placement(&topology, kernel, ranks, &settings, &params);
    let wall = start.elapsed();

    println!("placement\tmodeled_s\thosts_used");
    println!("concentrate\t{:.6}\t-", report.concentrate.as_secs_f64());
    println!("spread\t{:.6}\t-", report.spread.as_secs_f64());
    println!(
        "searched\t{:.6}\t{}",
        report.best.as_secs_f64(),
        report.hosts_used()
    );
    println!(
        "# searched is {:.2}% better than best-of(concentrate, spread); winning seed {:?}",
        report.improvement() * 100.0,
        report.best_seed,
    );
    for c in &report.chains {
        eprintln!(
            "# chain {:?}: initial {:.6}s -> best {:.6}s ({} evaluated, {} accepted)",
            c.seed,
            c.initial.as_secs_f64(),
            c.best.as_secs_f64(),
            c.evaluated,
            c.accepted,
        );
    }
    eprintln!(
        "# wall {:.2}s ({:.0} moves/s across chains)",
        wall.as_secs_f64(),
        report.evaluated() as f64 / wall.as_secs_f64().max(1e-9),
    );
}
