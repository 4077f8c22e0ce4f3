//! Regenerates Figure 4 (right): execution times of NAS IS class B from 32
//! to 128 processes, under the *concentrate* and *spread* strategies.
//!
//! ```text
//! cargo run --release -p p2pmpi-bench --bin fig4_is [-- --class B --divisor 8 --alpha A]
//! cargo run --release -p p2pmpi-bench --bin fig4_is -- --modeled [--ranks 256,512,1024] [--scale K]
//! ```
//!
//! The reported times are *virtual* (cost-model) seconds.  The expected shape
//! (Section 5.2): at 32 processes spread wins because all processes still fit
//! in the Nancy cluster with one per host; from 64 processes on, spread pays
//! inter-site latency for its Alltoall/Allreduce traffic while concentrate
//! stays local and roughly flat.
//!
//! `--modeled` switches to the LogGP analytical backend (see `fig4_ep` for
//! the flags): IS at 1k+ ranks models the full ring alltoall(v) schedule in
//! seconds instead of spawning thousands of threads.
//!
//! `--searched` adds the annealing-search curve (see `fig4_ep`).  The
//! search's incremental evaluator keeps its ring state in pooled transfer
//! tables of O(ranks · sites) bytes, so searched IS runs at 1024+ ranks;
//! the default move budget is IS's own (smaller than EP's — override with
//! `--moves`).

use p2pmpi_bench::cliargs as util;
use p2pmpi_bench::experiments::{
    fig4_kernel_times, modeled_kernel_times, searched_kernel_times, Fig4Kernel, Fig4Settings,
};
use p2pmpi_bench::output::print_fig4_table;
use p2pmpi_core::strategy::StrategyKind;
use p2pmpi_grid5000::scenario::paper_is_process_counts;
use p2pmpi_nas::classes::Class;

fn main() {
    let class: Class = util::flag_parsed("--class").unwrap_or(Class::B);
    let divisor = util::flag_u64("--divisor").unwrap_or(8);
    let settings = Fig4Settings {
        class,
        is_sample_divisor: divisor,
        contention_alpha: util::flag_f64("--alpha"),
        ..Fig4Settings::default()
    };
    let flags = util::sweep_flags();
    let counts = flags.ranks.clone().unwrap_or_else(paper_is_process_counts);

    let run = |strategy| {
        if flags.modeled {
            modeled_kernel_times(Fig4Kernel::Is, strategy, &counts, &settings, flags.scale)
        } else {
            fig4_kernel_times(Fig4Kernel::Is, strategy, &counts, &settings)
        }
    };
    eprintln!(
        "# IS class {class}, sample divisor {divisor}, processes {counts:?}, backend {}",
        flags.backend_name()
    );
    let concentrate = run(StrategyKind::Concentrate);
    let spread = run(StrategyKind::Spread);
    assert!(
        concentrate.iter().chain(&spread).all(|p| p.verified),
        "IS verification failed on at least one point"
    );
    let searched = flags.searched.then(|| {
        searched_kernel_times(
            Fig4Kernel::Is,
            &counts,
            &settings,
            flags.scale,
            &flags.search_params(Fig4Kernel::Is),
        )
    });
    let mut series: Vec<(&str, &[p2pmpi_bench::Fig4Point])> =
        vec![("concentrate", &concentrate), ("spread", &spread)];
    if let Some(searched) = &searched {
        series.push(("searched", searched));
    }
    print!("{}", print_fig4_table("IS", &class.to_string(), &series));
}
