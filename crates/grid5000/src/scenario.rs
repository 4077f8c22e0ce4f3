//! Ready-made experiment scenarios over the Grid'5000 testbed.
//!
//! These helpers reproduce the *setup* of Section 5: a submitter at Nancy,
//! one peer per host with `P` = core count, and a sweep of demanded process
//! counts for a given allocation strategy.  The experiment binaries in
//! `p2pmpi-bench` print their output from these.

use crate::testbed::{grid5000_testbed, Grid5000Testbed};
use p2pmpi_core::prelude::*;
use p2pmpi_core::reservation::CoAllocationReport;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::time::SimDuration;

/// One point of a Figure 2/3 style sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Number of processes demanded (`-n`).
    pub demanded: u32,
    /// Whether the co-allocation succeeded.
    pub success: bool,
    /// Hosts/processes allocated per site (empty if the allocation failed).
    pub usage: Vec<SiteUsage>,
    /// Virtual time the reservation procedure took.
    pub elapsed: SimDuration,
    /// Booking statistics: (booked, granted, refused, dead).
    pub booking: (usize, usize, usize, usize),
}

/// The demanded-process values of Figures 2 and 3: 100 to 600 by steps of 50.
pub fn paper_demand_steps() -> Vec<u32> {
    (2..=12).map(|k| k * 50).collect()
}

/// The process counts of Figure 4: EP uses 32..512, IS uses 32..128.
pub fn paper_ep_process_counts() -> Vec<u32> {
    vec![32, 64, 128, 256, 512]
}

/// The process counts of the IS benchmark in Figure 4.
pub fn paper_is_process_counts() -> Vec<u32> {
    vec![32, 64, 128]
}

/// Runs the "hostname" co-allocation experiment of Section 5.1: for each
/// demanded process count, build a fresh testbed (each point of the paper's
/// figures is an independent run), allocate with `strategy` and tally where
/// processes land.
pub fn coallocation_sweep(
    strategy: StrategyKind,
    demands: &[u32],
    seed: u64,
    noise: NoiseModel,
) -> Vec<SweepRow> {
    demands
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut tb = grid5000_testbed(seed.wrapping_add(i as u64), noise);
            let report = allocate(
                &mut tb.overlay,
                tb.submitter,
                &JobRequest::new(n, strategy, "hostname"),
            );
            sweep_row(&tb, n, &report)
        })
        .collect()
}

/// Runs one allocation on an existing testbed and tallies it (the job is
/// *not* released; callers wanting to reuse the testbed should complete it).
pub fn allocate_on(
    tb: &mut Grid5000Testbed,
    n: u32,
    strategy: StrategyKind,
) -> (CoAllocationReport, SweepRow) {
    let report = allocate(
        &mut tb.overlay,
        tb.submitter,
        &JobRequest::new(n, strategy, "hostname"),
    );
    let row = sweep_row(tb, n, &report);
    (report, row)
}

fn sweep_row(tb: &Grid5000Testbed, demanded: u32, report: &CoAllocationReport) -> SweepRow {
    let usage = report
        .outcome
        .as_ref()
        .map(|alloc| usage_by_site(alloc, &tb.topology))
        .unwrap_or_default();
    SweepRow {
        demanded,
        success: report.is_success(),
        usage,
        elapsed: report.elapsed,
        booking: (report.booked, report.granted, report.refused, report.dead),
    }
}

/// Compares the application-level latency ranking measured by the submitter
/// against the ICMP (noise-free) ranking, per site: returns
/// `(site, mean_measured_rtt_ms, icmp_rtt_ms)` rows sorted by measured RTT.
/// Section 5.1 argues the measured values need not match ICMP as long as the
/// ranking is mostly preserved.
pub fn probe_vs_icmp_ranking(tb: &Grid5000Testbed) -> Vec<(String, f64, f64)> {
    let topo = &tb.topology;
    let submitter_host = tb.overlay.host_of(tb.submitter);
    let mut per_site: Vec<(String, f64, f64, usize)> = topo
        .sites()
        .iter()
        .map(|s| (s.name.clone(), 0.0, 0.0, 0usize))
        .collect();
    for entry in tb.overlay.sorted_cache(tb.submitter) {
        let host = entry.descriptor.host;
        let site = topo.host(host).site;
        if let Some(measured) = entry.latency {
            let icmp = topo.rtt(submitter_host, host);
            let slot = &mut per_site[site.0];
            slot.1 += measured.as_millis_f64();
            slot.2 += icmp.as_millis_f64();
            slot.3 += 1;
        }
    }
    let mut rows: Vec<(String, f64, f64)> = per_site
        .into_iter()
        .filter(|(_, _, _, count)| *count > 0)
        .map(|(name, m, i, count)| (name, m / count as f64, i / count as f64))
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_steps_match_the_paper() {
        assert_eq!(
            paper_demand_steps(),
            vec![100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600]
        );
        assert_eq!(paper_ep_process_counts(), vec![32, 64, 128, 256, 512]);
        assert_eq!(paper_is_process_counts(), vec![32, 64, 128]);
    }

    #[test]
    fn concentrate_stays_at_nancy_for_small_demands() {
        let rows = coallocation_sweep(
            StrategyKind::Concentrate,
            &[100, 200],
            42,
            NoiseModel::disabled(),
        );
        for row in &rows {
            assert!(row.success);
            let nancy = row.usage.iter().find(|u| u.site_name == "nancy").unwrap();
            assert_eq!(nancy.processes, row.demanded as u64);
            let elsewhere: u64 = row
                .usage
                .iter()
                .filter(|u| u.site_name != "nancy")
                .map(|u| u.processes)
                .sum();
            assert_eq!(elsewhere, 0);
        }
    }

    #[test]
    fn spread_uses_one_process_per_host_at_300() {
        let rows = coallocation_sweep(StrategyKind::Spread, &[300], 7, NoiseModel::disabled());
        let row = &rows[0];
        assert!(row.success);
        let hosts: usize = row.usage.iter().map(|u| u.hosts).sum();
        let procs: u64 = row.usage.iter().map(|u| u.processes).sum();
        assert_eq!(procs, 300);
        // 350 hosts available: with one process per host, 300 hosts are used.
        assert_eq!(hosts, 300);
    }

    #[test]
    fn probe_ranking_orders_nancy_first() {
        let tb = grid5000_testbed(3, NoiseModel::default());
        let rows = probe_vs_icmp_ranking(&tb);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].0, "nancy");
        // Sophia is unambiguously the farthest even with noise.
        assert_eq!(rows.last().unwrap().0, "sophia");
    }
}
