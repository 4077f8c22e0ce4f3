//! The "hostname" program of Section 5.1.
//!
//! "We run a program whose each process simply echoes the name of the host it
//! runs on.  Through this experiment, we observe where processes are mapped
//! depending on the chosen strategy."  Here every rank reports its host id;
//! rank 0 gathers the list, which the experiment harness then tallies per
//! site.

use p2pmpi_mpi::error::MpiResult;
use p2pmpi_mpi::Comm;
use p2pmpi_simgrid::topology::HostId;

/// What each rank reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostnameReport {
    /// This rank's host.
    pub(crate) my_host: HostId,
    /// At rank 0: every rank's host, in rank order.  Empty elsewhere.
    pub all_hosts: Vec<HostId>,
}

/// Runs the hostname kernel: every rank sends its host id to rank 0.
pub fn hostname_kernel(comm: &mut Comm) -> MpiResult<HostnameReport> {
    let my_host = comm.host();
    let gathered = comm.gather(0, &[my_host.0 as u64])?;
    Ok(HostnameReport {
        my_host,
        all_hosts: gathered
            .unwrap_or_default()
            .into_iter()
            .map(|h| HostId(h as usize))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmpi_mpi::placement::Placement;
    use p2pmpi_mpi::runtime::MpiRuntime;
    use p2pmpi_simgrid::topology::{NodeSpec, TopologyBuilder};
    use std::sync::Arc;

    #[test]
    fn rank_zero_learns_every_host() {
        let mut b = TopologyBuilder::new();
        let s = b.add_site("s");
        b.add_cluster(s, "c", "cpu", 3, NodeSpec::default());
        let topo = Arc::new(b.build());
        let hosts: Vec<HostId> = topo.hosts().iter().map(|h| h.id).collect();
        let rt = MpiRuntime::new(topo);
        let result = rt.run(&Placement::one_per_host(&hosts), hostname_kernel);
        assert!(result.all_ranks_completed());
        let root = result.result_of(0).unwrap();
        assert_eq!(root.all_hosts, hosts);
        let other = result.result_of(1).unwrap();
        assert!(other.all_hosts.is_empty());
        assert_eq!(other.my_host, hosts[1]);
    }
}
