//! Where do processes land?  Reproduces the heart of the paper's Section 5.1
//! experiment interactively: allocate `hostname` jobs of growing size on the
//! Grid'5000 model with *concentrate* and *spread*, and print the per-site
//! breakdown.
//!
//! ```text
//! cargo run --release --example allocation_strategies
//! ```

use p2p_mpi::prelude::*;
use p2pmpi_core::stats::usage_by_site;
use p2pmpi_grid5000::sites::SITE_ORDER;

fn main() {
    let demands = [100u32, 250, 400, 600];
    let strategies = [StrategyKind::Concentrate, StrategyKind::Spread];

    println!("demanded\tstrategy\tsite\thosts\tprocesses");
    for &n in &demands {
        for strategy in strategies {
            // Each run uses a fresh testbed, as each point of the paper's
            // figures is an independent submission.
            let mut tb = grid5000_testbed(2008 + n as u64, NoiseModel::default());
            let report = allocate(
                &mut tb.overlay,
                tb.submitter,
                &JobRequest::new(n, strategy, "hostname"),
            );
            match &report.outcome {
                Ok(allocation) => {
                    let usage = usage_by_site(allocation, &tb.topology);
                    for site in SITE_ORDER {
                        let row = usage.iter().find(|u| u.site_name == *site).unwrap();
                        if row.hosts > 0 {
                            println!(
                                "{n}\t{strategy}\t{}\t{}\t{}",
                                row.site_name, row.hosts, row.processes
                            );
                        }
                    }
                }
                Err(e) => println!("{n}\t{strategy}\tFAILED: {e}\t\t"),
            }
        }
    }
}
