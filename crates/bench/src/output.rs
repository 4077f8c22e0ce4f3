//! Plain-text (TSV) rendering of experiment results, in the same shape as
//! the paper's tables and figure data series.

use crate::experiments::Fig4Point;
use p2pmpi_grid5000::scenario::SweepRow;
use p2pmpi_grid5000::sites::{ClusterSpec, SITE_ORDER};
use p2pmpi_grid5000::testbed::legend;

/// Renders Table 1 from the cluster specifications.
pub fn format_table1(specs: &[ClusterSpec]) -> String {
    let mut out = String::from("Site\tCluster\tCPU\t#Nodes\t#CPUs\t#Cores\n");
    for s in specs {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            s.site, s.cluster, s.cpu_model, s.nodes, s.cpus, s.cores
        ));
    }
    let (hosts, cores) = p2pmpi_grid5000::sites::totals();
    out.push_str(&format!("total\t\t\t{hosts}\t\t{cores}\n"));
    out
}

/// Renders the figure legend the paper prints in the top-left corner of
/// Figures 2 and 3: per site, the RTT to Nancy and the available hosts and
/// cores.
fn print_legend() -> String {
    let mut out = String::from("# site\trtt_to_nancy_ms\thosts\tcores\n");
    for (site, rtt, hosts, cores) in legend() {
        out.push_str(&format!("# {site}\t{rtt:.3}\t{hosts}\t{cores}\n"));
    }
    out
}

/// Renders the two panels of Figure 2 or Figure 3: allocated hosts per site
/// and allocated cores (processes) per site, one row per demanded process
/// count and one column per site.
pub fn print_sweep_tables(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    out.push_str(&print_legend());

    for (title, pick) in [("allocated_hosts", true), ("allocated_cores", false)] {
        out.push_str(&format!("\n[{title}]\n"));
        out.push_str("demanded");
        for site in SITE_ORDER {
            out.push_str(&format!("\t{site}"));
        }
        out.push_str("\ttotal\n");
        for row in rows {
            out.push_str(&format!("{}", row.demanded));
            let mut total: u64 = 0;
            for site in SITE_ORDER {
                let value = row
                    .usage
                    .iter()
                    .find(|u| u.site_name == *site)
                    .map(|u| if pick { u.hosts as u64 } else { u.processes })
                    .unwrap_or(0);
                total += value;
                out.push_str(&format!("\t{value}"));
            }
            out.push_str(&format!("\t{total}\n"));
        }
    }
    out
}

/// Renders one Figure 4 data series (execution time vs process count) for a
/// set of strategy runs.
pub fn print_fig4_table(kernel: &str, class: &str, series: &[(&str, &[Fig4Point])]) -> String {
    let mut out = format!("# {kernel} (CLASS {class}) — virtual execution time in seconds\n");
    out.push_str("processes");
    for (name, _) in series {
        out.push_str(&format!("\t{name}_s\t{name}_hosts"));
    }
    out.push('\n');
    let counts: Vec<u32> = series
        .first()
        .map(|(_, pts)| pts.iter().map(|p| p.processes).collect())
        .unwrap_or_default();
    for (i, n) in counts.iter().enumerate() {
        out.push_str(&format!("{n}"));
        for (_, pts) in series {
            let p = &pts[i];
            debug_assert_eq!(p.processes, *n);
            out.push_str(&format!(
                "\t{:.3}\t{}",
                p.makespan.as_secs_f64(),
                p.hosts_used
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmpi_core::stats::SiteUsage;
    use p2pmpi_core::strategy::StrategyKind;
    use p2pmpi_grid5000::sites::TABLE1;
    use p2pmpi_simgrid::time::SimDuration;
    use p2pmpi_simgrid::topology::SiteId;

    #[test]
    fn table1_lists_every_cluster_and_totals() {
        let t = format_table1(TABLE1);
        assert!(t.contains("grelon"));
        assert!(t.contains("sol"));
        assert!(t.contains("Intel Itanium 2"));
        assert!(t.contains("total\t\t\t350\t\t1040"));
        assert_eq!(t.lines().count(), 1 + 8 + 1);
    }

    #[test]
    fn legend_has_six_sites() {
        let l = print_legend();
        assert_eq!(l.lines().count(), 7);
        assert!(l.contains("nancy\t0.087\t60\t240"));
        assert!(l.contains("sophia\t17.167\t70\t216"));
    }

    #[test]
    fn sweep_table_has_both_panels() {
        let rows = vec![SweepRow {
            demanded: 100,
            success: true,
            usage: vec![SiteUsage {
                site: SiteId(0),
                site_name: "nancy".to_string(),
                hosts: 25,
                processes: 100,
            }],
            elapsed: SimDuration::from_millis(40),
            booking: (125, 100, 0, 0),
        }];
        let t = print_sweep_tables(&rows);
        assert!(t.contains("[allocated_hosts]"));
        assert!(t.contains("[allocated_cores]"));
        assert!(t.contains("100\t25\t0\t0\t0\t0\t0\t25"));
        assert!(t.contains("100\t100\t0\t0\t0\t0\t0\t100"));
    }

    #[test]
    fn fig4_table_shape() {
        let mk = |n: u32, s: f64| Fig4Point {
            processes: n,
            strategy: StrategyKind::Spread,
            hosts_used: n as usize,
            makespan: SimDuration::from_secs_f64(s),
            verified: true,
        };
        let spread = vec![mk(32, 1.5), mk(64, 1.0)];
        let conc = vec![mk(32, 2.0), mk(64, 1.2)];
        let t = print_fig4_table("EP", "B", &[("concentrate", &conc), ("spread", &spread)]);
        assert!(t.starts_with("# EP (CLASS B)"));
        assert!(t.contains("processes\tconcentrate_s\tconcentrate_hosts\tspread_s\tspread_hosts"));
        assert!(t.contains("32\t2.000\t32\t1.500\t32"));
        assert!(t.contains("64\t1.200\t64\t1.000\t64"));
    }
}
