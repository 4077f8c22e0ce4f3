//! Regenerates Figure 4 (left): execution times of NAS EP class B from 32 to
//! 512 processes, under the *concentrate* and *spread* strategies.
//!
//! ```text
//! cargo run --release -p p2pmpi-bench --bin fig4_ep [-- --class B --divisor 512 --alpha A]
//! cargo run --release -p p2pmpi-bench --bin fig4_ep -- --modeled [--ranks 512,1024,2048] [--scale K]
//! ```
//!
//! The reported times are *virtual* (cost-model) seconds: the shape —
//! spread slightly ahead of concentrate until the per-process problem size
//! shrinks at 512 processes — is what reproduces the paper, not the absolute
//! values.
//!
//! `--modeled` switches the collectives to the LogGP analytical backend
//! (`p2pmpi_mpi::model`): no threads are spawned, so `--ranks` can sweep to
//! thousands of processes.  Counts beyond the paper grid's 1040 cores run on
//! a Table-1 grid scaled by `--scale` (default: just large enough), with
//! placements built synthetically in the co-allocator's idle-grid booking
//! order.
//!
//! `--searched` (implies the modeled backend for that curve) adds a third
//! column: the placement found by the annealing search
//! (`p2pmpi_bench::search`), never worse than the better fixed strategy and
//! usually well ahead of both on the heterogeneous Table-1 grid.  Tune it
//! with `--moves`/`--chains`/`--seed`.

use p2pmpi_bench::cliargs as util;
use p2pmpi_bench::experiments::{
    fig4_kernel_times, modeled_kernel_times, searched_kernel_times, Fig4Kernel, Fig4Settings,
};
use p2pmpi_bench::output::print_fig4_table;
use p2pmpi_core::strategy::StrategyKind;
use p2pmpi_grid5000::scenario::paper_ep_process_counts;
use p2pmpi_nas::classes::Class;

fn main() {
    let class: Class = util::flag_parsed("--class").unwrap_or(Class::B);
    let divisor = util::flag_u64("--divisor").unwrap_or(512);
    let settings = Fig4Settings {
        class,
        ep_sample_divisor: divisor,
        contention_alpha: util::flag_f64("--alpha"),
        ..Fig4Settings::default()
    };
    let flags = util::sweep_flags();
    let counts = flags.ranks.clone().unwrap_or_else(paper_ep_process_counts);

    let run = |strategy| {
        if flags.modeled {
            modeled_kernel_times(Fig4Kernel::Ep, strategy, &counts, &settings, flags.scale)
        } else {
            fig4_kernel_times(Fig4Kernel::Ep, strategy, &counts, &settings)
        }
    };
    eprintln!(
        "# EP class {class}, sample divisor {divisor}, processes {counts:?}, backend {}",
        flags.backend_name()
    );
    let concentrate = run(StrategyKind::Concentrate);
    let spread = run(StrategyKind::Spread);
    assert!(
        concentrate.iter().chain(&spread).all(|p| p.verified),
        "EP verification failed on at least one point"
    );
    let searched = flags.searched.then(|| {
        searched_kernel_times(
            Fig4Kernel::Ep,
            &counts,
            &settings,
            flags.scale,
            &flags.search_params(Fig4Kernel::Ep),
        )
    });
    let mut series: Vec<(&str, &[p2pmpi_bench::Fig4Point])> =
        vec![("concentrate", &concentrate), ("spread", &spread)];
    if let Some(searched) = &searched {
        series.push(("searched", searched));
    }
    print!("{}", print_fig4_table("EP", &class.to_string(), &series));
}
