//! Per-site allocation statistics.
//!
//! Figures 2 and 3 of the paper plot, for each demanded process count, the
//! number of *hosts* and the number of *cores* (process slots) allocated at
//! each Grid'5000 site.  This module computes those tallies from an
//! [`Allocation`] and the topology.

use crate::allocation::Allocation;
use p2pmpi_simgrid::topology::{SiteId, Topology};

/// Hosts and processes allocated at one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteUsage {
    /// The site.
    pub site: SiteId,
    /// Site name (e.g. `"nancy"`).
    pub site_name: String,
    /// Number of distinct hosts of this site holding at least one process.
    pub hosts: usize,
    /// Number of process instances placed at this site (the paper's
    /// "allocated cores", since at most one process runs per core).
    pub processes: u64,
}

/// Tallies an allocation per site, in site-id order.  Sites with no
/// allocation are included with zeros so that experiment output always has
/// the same number of rows.
pub fn usage_by_site(allocation: &Allocation, topology: &Topology) -> Vec<SiteUsage> {
    let mut usage: Vec<SiteUsage> = topology
        .sites()
        .iter()
        .map(|s| SiteUsage {
            site: s.id,
            site_name: s.name.clone(),
            hosts: 0,
            processes: 0,
        })
        .collect();
    for h in &allocation.hosts {
        let site = topology.host(h.host).site;
        let entry = &mut usage[site.0];
        if h.instances() > 0 {
            entry.hosts += 1;
            entry.processes += h.instances() as u64;
        }
    }
    usage
}

/// Total hosts used across all sites.
pub fn total_hosts(usage: &[SiteUsage]) -> usize {
    usage.iter().map(|u| u.hosts).sum()
}

/// Total process instances across all sites.
pub fn total_processes(usage: &[SiteUsage]) -> u64 {
    usage.iter().map(|u| u.processes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::AllocatedHost;
    use crate::strategy::StrategyKind;
    use p2pmpi_overlay::messages::{RankAssignment, ReservationKey};
    use p2pmpi_overlay::peer::PeerId;
    use p2pmpi_simgrid::topology::{NodeSpec, TopologyBuilder};

    fn topo() -> Topology {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("nancy");
        let s1 = b.add_site("lyon");
        b.add_cluster(
            s0,
            "grelon",
            "xeon",
            2,
            NodeSpec {
                cores: 4,
                ..NodeSpec::default()
            },
        );
        b.add_cluster(
            s1,
            "capricorn",
            "opteron",
            2,
            NodeSpec {
                cores: 2,
                ..NodeSpec::default()
            },
        );
        b.build()
    }

    fn alloc(topology: &Topology) -> Allocation {
        let h = |name: &str, span: std::ops::Range<u32>| {
            let host = topology.host_by_name(name).unwrap();
            AllocatedHost {
                peer: PeerId(host.id.0),
                host: host.id,
                capacity: host.cores as u32,
                span,
            }
        };
        Allocation {
            key: ReservationKey(0),
            processes: 7,
            replication: 1,
            strategy: StrategyKind::Concentrate,
            hosts: vec![
                h("grelon-0", 0..4),
                h("grelon-1", 4..6),
                h("capricorn-0", 6..7),
            ],
            ranks: (0..7)
                .map(|rank| RankAssignment { rank, replica: 0 })
                .collect(),
        }
    }

    #[test]
    fn usage_counts_hosts_and_processes_per_site() {
        let t = topo();
        let a = alloc(&t);
        let usage = usage_by_site(&a, &t);
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0].site_name, "nancy");
        assert_eq!(usage[0].hosts, 2);
        assert_eq!(usage[0].processes, 6);
        assert_eq!(usage[1].site_name, "lyon");
        assert_eq!(usage[1].hosts, 1);
        assert_eq!(usage[1].processes, 1);
        assert_eq!(total_hosts(&usage), 3);
        assert_eq!(total_processes(&usage), 7);
    }

    #[test]
    fn empty_sites_appear_with_zeros() {
        let t = topo();
        let mut a = alloc(&t);
        a.hosts.pop(); // drop the lyon host
        let usage = usage_by_site(&a, &t);
        assert_eq!(usage[1].hosts, 0);
        assert_eq!(usage[1].processes, 0);
    }

    #[test]
    fn hosts_with_no_ranks_do_not_count() {
        let t = topo();
        let mut a = alloc(&t);
        a.hosts[2].span.start = a.hosts[2].span.end;
        let usage = usage_by_site(&a, &t);
        assert_eq!(usage[1].hosts, 0);
    }
}
