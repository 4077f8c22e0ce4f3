//! Quickstart: build a small two-site grid, boot the P2P-MPI overlay, submit
//! a job with each allocation strategy and run a tiny MPI program on the
//! resulting placement.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use p2p_mpi::prelude::*;
use p2pmpi_mpi::datatype::ReduceOp;
use std::sync::Arc;

fn main() {
    // 1. Describe the platform: two sites, 12 ms apart, four dual-core hosts
    //    at the local site and four quad-core hosts at the remote one.
    let mut builder = TopologyBuilder::new();
    let local = builder.add_site("local");
    let remote = builder.add_site("remote");
    builder.add_cluster(
        local,
        "tiny",
        "2-core CPU",
        4,
        NodeSpec {
            cores: 2,
            ..NodeSpec::default()
        },
    );
    builder.add_cluster(
        remote,
        "far",
        "4-core CPU",
        4,
        NodeSpec {
            cores: 4,
            ..NodeSpec::default()
        },
    );
    builder.set_rtt(local, remote, SimDuration::from_millis(12));
    let topology = Arc::new(builder.build());

    // 2. `mpiboot` everywhere: one peer per host, P = core count, then let the
    //    submitter probe the overlay.
    let mut overlay = OverlayBuilder::new(topology.clone())
        .seed(42)
        .peer_per_host_with_core_capacity()
        .build();
    overlay.boot_all();
    let submitter = overlay.peer_ids()[0];
    overlay.bootstrap_peer(submitter);

    // 3. `p2pmpirun -n 8 -a <strategy> hello` with both strategies.
    for strategy in [StrategyKind::Concentrate, StrategyKind::Spread] {
        let request = JobRequest::new(8, strategy, "hello");
        println!("$ {}", request.command_line());
        let report = allocate(&mut overlay, submitter, &request);
        let allocation = report.allocation();
        println!(
            "  booked {} peers, {} granted, reservation took {}",
            report.booked, report.granted, report.elapsed
        );
        for host in &allocation.hosts {
            let name = &topology.host(host.host).name;
            let ranks: Vec<String> = allocation
                .ranks_of(host)
                .iter()
                .map(|r| r.to_string())
                .collect();
            println!("  {name:<8} -> {}", ranks.join(" "));
        }

        // 4. Run a small MPI program on that placement: every rank
        //    contributes its rank to a global sum.
        let runtime = MpiRuntime::new(topology.clone());
        let placement = Placement::from_allocation(allocation);
        let result = runtime.run(&placement, |comm| {
            comm.compute(1.0e7, MemoryIntensity::CPU_BOUND)?;
            let total = comm.allreduce(ReduceOp::Sum, &[comm.rank() as i64])?;
            Ok(total[0])
        });
        println!(
            "  sum of ranks = {} (virtual execution time {})\n",
            result.result_of(0).unwrap(),
            result.makespan
        );

        // Free the gatekeepers for the next strategy.
        let key = allocation.key;
        for host in &allocation.hosts {
            overlay.complete_job(host.peer, key);
        }
    }
}
