//! Integration tests of the co-allocation experiment of Section 5.1 /
//! Figures 2 and 3: where do processes land on the Grid'5000 model under
//! each strategy, as the demanded process count grows?

use p2p_mpi::prelude::*;
use p2pmpi_core::stats::{total_hosts, total_processes};
use p2pmpi_grid5000::scenario::allocate_on;

fn nancy_usage(usage: &[p2pmpi_core::stats::SiteUsage]) -> (usize, u64) {
    let nancy = usage.iter().find(|u| u.site_name == "nancy").unwrap();
    (nancy.hosts, nancy.processes)
}

#[test]
fn concentrate_up_to_200_processes_stays_at_nancy() {
    // Figure 2: "the processes are allocated on the 60 hosts available at
    // nancy only, up to 200 processes".
    for &n in &[100u32, 150, 200] {
        let mut tb = grid5000_testbed(n as u64, NoiseModel::default());
        let (report, row) = allocate_on(&mut tb, n, StrategyKind::Concentrate);
        assert!(report.is_success());
        assert!(row.success);
        let (_, nancy_procs) = nancy_usage(&row.usage);
        assert_eq!(nancy_procs, n as u64, "all {n} processes stay at nancy");
        assert_eq!(total_processes(&row.usage), n as u64);
    }
}

#[test]
fn concentrate_beyond_240_spills_to_the_closest_site_first() {
    // Figure 2: past Nancy's 240 cores, "further hosts are first allocated at
    // lyon (5 for -n 250), as expected with respect to the RTT ranking".
    // (Probe noise disabled: with noise the paper itself observes that the
    // Lyon/Rennes/Bordeaux ranking can interleave.)
    let mut tb = grid5000_testbed(77, NoiseModel::disabled());
    let (report, row) = allocate_on(&mut tb, 250, StrategyKind::Concentrate);
    assert!(report.is_success());
    let (nancy_hosts, nancy_procs) = nancy_usage(&row.usage);
    assert_eq!(nancy_hosts, 60, "every nancy host is filled");
    assert_eq!(nancy_procs, 240, "nancy contributes all of its cores");
    let lyon = row.usage.iter().find(|u| u.site_name == "lyon").unwrap();
    assert_eq!(lyon.processes, 10, "the overflow lands at lyon");
    assert_eq!(lyon.hosts, 5, "5 dual-core lyon hosts, as in the paper");
    // Nothing farther than lyon is touched.
    for site in ["bordeaux", "grenoble", "sophia"] {
        let u = row.usage.iter().find(|u| u.site_name == site).unwrap();
        assert_eq!(u.processes, 0, "{site} must stay empty at n=250");
    }
}

#[test]
fn concentrate_spill_order_follows_rtt_ranking_without_noise() {
    // With probe noise disabled the spill order must be exactly the RTT
    // ranking: nancy, lyon, rennes, bordeaux, grenoble, sophia.
    let mut tb = grid5000_testbed(3, NoiseModel::disabled());
    let (report, row) = allocate_on(&mut tb, 600, StrategyKind::Concentrate);
    assert!(report.is_success());
    // 600 processes = 240 (nancy) + 100 (lyon) + 180 (rennes) + 80 at
    // bordeaux; grenoble and sophia stay empty.
    let by_name = |name: &str| {
        row.usage
            .iter()
            .find(|u| u.site_name == name)
            .unwrap()
            .processes
    };
    assert_eq!(by_name("nancy"), 240);
    assert_eq!(by_name("lyon"), 100);
    assert_eq!(by_name("rennes"), 180);
    assert_eq!(by_name("bordeaux"), 80);
    assert_eq!(by_name("grenoble"), 0);
    assert_eq!(by_name("sophia"), 0);
}

#[test]
fn spread_places_one_process_per_host_while_hosts_remain() {
    // Figure 3: spread keeps "the load on each peer to only one process"
    // while enough hosts exist (350 in total).
    for &n in &[100u32, 250, 350] {
        let mut tb = grid5000_testbed(n as u64 + 1, NoiseModel::default());
        let (report, row) = allocate_on(&mut tb, n, StrategyKind::Spread);
        assert!(report.is_success());
        assert_eq!(total_hosts(&row.usage), n as usize);
        assert_eq!(total_processes(&row.usage), n as u64);
        let alloc = report.allocation();
        assert!(alloc.hosts.iter().all(|h| h.instances() == 1));
    }
}

#[test]
fn spread_shows_the_stair_once_hosts_are_exhausted() {
    // Figure 3: "the number of cores allocated at nancy makes a stair at 400
    // processes since there are not enough hosts (350) to map one process per
    // host and the closest peers are first chosen to host a second process".
    let mut tb = grid5000_testbed(9, NoiseModel::default());
    let (report, row) = allocate_on(&mut tb, 400, StrategyKind::Spread);
    assert!(report.is_success());
    // All 350 hosts are in use...
    assert_eq!(total_hosts(&row.usage), 350);
    assert_eq!(total_processes(&row.usage), 400);
    // ...and the 50 extra processes all landed at the closest site (nancy),
    // whose quad-core hosts have spare capacity.
    let (nancy_hosts, nancy_procs) = nancy_usage(&row.usage);
    assert_eq!(nancy_hosts, 60);
    assert_eq!(nancy_procs, 110, "60 hosts + 50 second processes");
}

#[test]
fn spread_uses_every_peer_it_discovers_at_600() {
    let mut tb = grid5000_testbed(10, NoiseModel::default());
    let (report, row) = allocate_on(&mut tb, 600, StrategyKind::Spread);
    assert!(report.is_success());
    assert_eq!(total_hosts(&row.usage), 350, "spread tends to use them all");
    assert_eq!(total_processes(&row.usage), 600);
    // Every site participates.
    assert!(row.usage.iter().all(|u| u.hosts > 0));
}

#[test]
fn demands_beyond_the_grid_capacity_fail_feasibility() {
    let mut tb = grid5000_testbed(11, NoiseModel::default());
    let report = allocate(
        &mut tb.overlay,
        tb.submitter,
        &JobRequest::new(1041, StrategyKind::Concentrate, "hostname"),
    );
    assert!(!report.is_success());
    // And nothing is left reserved afterwards.
    for peer in tb.overlay.peer_ids() {
        assert_eq!(tb.overlay.node(peer).rs.active_applications(), 0);
    }
}

#[test]
fn allocation_reports_account_for_every_booked_peer() {
    let mut tb = grid5000_testbed(33, NoiseModel::default());
    let report = allocate(
        &mut tb.overlay,
        tb.submitter,
        &JobRequest::new(200, StrategyKind::Spread, "hostname"),
    );
    assert!(report.is_success());
    assert_eq!(report.granted + report.refused + report.dead, report.booked);
    assert!(report.booked >= 200);
    let alloc = report.allocation();
    assert!(alloc.validate().is_ok());
    assert_eq!(alloc.total_instances(), 200);
}
