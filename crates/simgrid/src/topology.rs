//! Grid topology model: sites, clusters, hosts and the inter-site network
//! characteristics (RTT and bandwidth).
//!
//! The model mirrors how the paper describes Grid'5000: a handful of *sites*
//! (Nancy, Lyon, …), each hosting one or two *clusters* of homogeneous
//! *hosts* with a given number of CPUs and cores, connected by a
//! wide-area network whose round-trip times are what the P2P-MPI peers
//! measure and rank.

use crate::time::SimDuration;
use std::fmt;

/// Identifier of a site (dense index into [`Topology::sites`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub usize);

/// Identifier of a cluster (dense index into [`Topology::clusters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub usize);

/// Identifier of a host (dense index into [`Topology::hosts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site#{}", self.0)
    }
}
impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster#{}", self.0)
    }
}
impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host#{}", self.0)
    }
}

/// A geographical site (one Grid'5000 campus).
#[derive(Debug, Clone)]
pub struct Site {
    /// Dense identifier.
    pub id: SiteId,
    /// Human-readable name, e.g. `"nancy"`.
    pub name: String,
}

/// A homogeneous cluster of hosts inside a site (one row of Table 1).
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Dense identifier.
    pub id: ClusterId,
    /// Cluster name, e.g. `"grelon"`.
    pub name: String,
    /// Site the cluster belongs to.
    pub site: SiteId,
    /// CPU model string, e.g. `"Intel Xeon 5110"`.
    pub cpu_model: String,
    /// Number of nodes (hosts).
    pub nodes: usize,
    /// Total number of CPU sockets in the cluster.
    pub cpus: usize,
    /// Total number of cores in the cluster.
    pub cores: usize,
}

impl Cluster {
    /// Cores per node, as used for the owner's `P` setting in the experiment.
    pub fn cores_per_node(&self) -> usize {
        self.cores.checked_div(self.nodes).unwrap_or(0)
    }
}

/// One physical machine able to host MPI processes.
#[derive(Debug, Clone)]
pub struct Host {
    /// Dense identifier.
    pub id: HostId,
    /// Host name, e.g. `"grelon-17"`.
    pub name: String,
    /// Site the host belongs to.
    pub site: SiteId,
    /// Cluster the host belongs to.
    pub cluster: ClusterId,
    /// Number of cores (the experiment sets the owner preference `P` to this).
    pub cores: usize,
    /// Per-core compute rate in floating-point/integer operations per second.
    pub ops_per_sec: f64,
    /// Installed memory in bytes.
    pub mem_bytes: u64,
}

/// Fully-built topology: immutable once constructed.
#[derive(Debug, Clone)]
pub struct Topology {
    sites: Vec<Site>,
    clusters: Vec<Cluster>,
    hosts: Vec<Host>,
    /// Symmetric site-to-site RTT matrix; the diagonal holds the intra-site RTT.
    rtt: Vec<Vec<SimDuration>>,
    /// Symmetric site-to-site bandwidth matrix in bits per second; the
    /// diagonal holds the intra-site (cluster switch) bandwidth.
    bw_bps: Vec<Vec<f64>>,
    /// RTT between two processes on the same host (loopback / shared memory).
    intra_host_rtt: SimDuration,
    /// Per-host NIC bandwidth in bits per second (caps all transfers).
    nic_bw_bps: f64,
}

impl Topology {
    /// All sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// All clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// All hosts.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Looks up a site.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0]
    }

    /// Looks up a cluster.
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.0]
    }

    /// Looks up a host.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0]
    }

    /// Finds a site by name.
    pub fn site_by_name(&self, name: &str) -> Option<&Site> {
        self.sites.iter().find(|s| s.name == name)
    }

    /// Finds a host by name.
    pub fn host_by_name(&self, name: &str) -> Option<&Host> {
        self.hosts.iter().find(|h| h.name == name)
    }

    /// Hosts located at `site`.
    pub fn hosts_at_site(&self, site: SiteId) -> impl Iterator<Item = &Host> {
        self.hosts.iter().filter(move |h| h.site == site)
    }

    /// Hosts belonging to `cluster`.
    pub fn hosts_in_cluster(&self, cluster: ClusterId) -> impl Iterator<Item = &Host> {
        self.hosts.iter().filter(move |h| h.cluster == cluster)
    }

    /// Total number of cores at `site`.
    pub fn cores_at_site(&self, site: SiteId) -> usize {
        self.hosts_at_site(site).map(|h| h.cores).sum()
    }

    /// Total number of cores in the whole topology.
    pub fn total_cores(&self) -> usize {
        self.hosts.iter().map(|h| h.cores).sum()
    }

    /// Base (noise-free) round-trip time between two hosts.
    ///
    /// Same host → loopback RTT; same site → intra-site RTT; otherwise the
    /// site-to-site matrix entry.
    pub fn rtt(&self, a: HostId, b: HostId) -> SimDuration {
        if a == b {
            return self.intra_host_rtt;
        }
        let sa = self.hosts[a.0].site;
        let sb = self.hosts[b.0].site;
        self.rtt[sa.0][sb.0]
    }

    /// Base round-trip time between two sites.
    pub fn site_rtt(&self, a: SiteId, b: SiteId) -> SimDuration {
        self.rtt[a.0][b.0]
    }

    /// One-way latency between two hosts (half the RTT).
    pub fn latency(&self, a: HostId, b: HostId) -> SimDuration {
        self.rtt(a, b) / 2
    }

    /// Bottleneck bandwidth between two hosts, in bits per second: the
    /// minimum of the two NICs and of the site-to-site link.
    pub fn bandwidth_bps(&self, a: HostId, b: HostId) -> f64 {
        if a == b {
            // Shared-memory transfers are modelled as a generous multiple of
            // the NIC rate rather than infinite, so message size still counts.
            return self.nic_bw_bps * 8.0;
        }
        let sa = self.hosts[a.0].site;
        let sb = self.hosts[b.0].site;
        self.bw_bps[sa.0][sb.0].min(self.nic_bw_bps)
    }
}

/// Default intra-site RTT if the builder does not override it: a LAN-grade
/// 0.087 ms, the Nancy-to-Nancy figure quoted in the paper's Figure 2 legend.
pub const DEFAULT_INTRA_SITE_RTT: SimDuration = SimDuration::from_micros(87);

/// Default loopback RTT between processes sharing a host.
pub const DEFAULT_INTRA_HOST_RTT: SimDuration = SimDuration::from_micros(10);

/// Default WAN bandwidth (10 Gbps, the Grid'5000 backbone).
pub const DEFAULT_WAN_BW_BPS: f64 = 10e9;

/// Default NIC bandwidth (1 Gbps Ethernet, standard on the 2008 clusters).
pub const DEFAULT_NIC_BW_BPS: f64 = 1e9;

/// Incremental builder for [`Topology`].
pub struct TopologyBuilder {
    sites: Vec<Site>,
    clusters: Vec<Cluster>,
    hosts: Vec<Host>,
    rtt_overrides: Vec<(SiteId, SiteId, SimDuration)>,
    bw_overrides: Vec<(SiteId, SiteId, f64)>,
    intra_site_rtt: SimDuration,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-node hardware description used when adding a cluster.
#[derive(Debug, Clone, Copy)]
pub struct NodeSpec {
    /// Cores per node.
    pub cores: usize,
    /// CPU sockets per node.
    pub cpus: usize,
    /// Per-core compute rate (operations per second).
    pub ops_per_sec: f64,
    /// Memory per node in bytes.
    pub mem_bytes: u64,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec {
            cores: 2,
            cpus: 2,
            // ~2 Gop/s per core is representative of the 2006-2008 Opteron /
            // Xeon cores listed in Table 1.
            ops_per_sec: 2.0e9,
            mem_bytes: 2 * 1024 * 1024 * 1024,
        }
    }
}

impl TopologyBuilder {
    /// Creates a builder with Grid'5000-flavoured defaults.
    pub fn new() -> Self {
        TopologyBuilder {
            sites: Vec::new(),
            clusters: Vec::new(),
            hosts: Vec::new(),
            rtt_overrides: Vec::new(),
            bw_overrides: Vec::new(),
            intra_site_rtt: DEFAULT_INTRA_SITE_RTT,
        }
    }

    /// Registers a site and returns its identifier.
    pub fn add_site(&mut self, name: impl Into<String>) -> SiteId {
        let id = SiteId(self.sites.len());
        self.sites.push(Site {
            id,
            name: name.into(),
        });
        id
    }

    /// Registers a cluster of `nodes` identical hosts at `site` and returns
    /// its identifier.  One [`Host`] is created per node, named
    /// `"<cluster>-<index>"`.
    pub fn add_cluster(
        &mut self,
        site: SiteId,
        name: impl Into<String>,
        cpu_model: impl Into<String>,
        nodes: usize,
        spec: NodeSpec,
    ) -> ClusterId {
        assert!(site.0 < self.sites.len(), "unknown site {site}");
        assert!(nodes > 0, "a cluster needs at least one node");
        assert!(spec.cores > 0, "a node needs at least one core");
        let name = name.into();
        let id = ClusterId(self.clusters.len());
        self.clusters.push(Cluster {
            id,
            name: name.clone(),
            site,
            cpu_model: cpu_model.into(),
            nodes,
            cpus: spec.cpus * nodes,
            cores: spec.cores * nodes,
        });
        for i in 0..nodes {
            let hid = HostId(self.hosts.len());
            self.hosts.push(Host {
                id: hid,
                name: format!("{name}-{i}"),
                site,
                cluster: id,
                cores: spec.cores,
                ops_per_sec: spec.ops_per_sec,
                mem_bytes: spec.mem_bytes,
            });
        }
        id
    }

    /// Sets the symmetric RTT between two distinct sites.
    pub fn set_rtt(&mut self, a: SiteId, b: SiteId, rtt: SimDuration) -> &mut Self {
        assert_ne!(a, b, "use set_intra_site_rtt for the diagonal");
        self.rtt_overrides.push((a, b, rtt));
        self
    }

    /// Sets the RTT used between hosts of the same site.
    pub fn set_intra_site_rtt(&mut self, rtt: SimDuration) -> &mut Self {
        self.intra_site_rtt = rtt;
        self
    }

    /// Sets the symmetric bandwidth (bits per second) between two sites.
    pub fn set_bandwidth(&mut self, a: SiteId, b: SiteId, bps: f64) -> &mut Self {
        assert!(bps > 0.0, "bandwidth must be positive");
        self.bw_overrides.push((a, b, bps));
        self
    }

    /// Finalises the topology.
    ///
    /// Site pairs without an explicit RTT default to 20 ms (a conservative
    /// national-WAN figure) so that forgetting an entry cannot silently make
    /// a remote site look local.  Site pairs without an explicit bandwidth
    /// get [`DEFAULT_WAN_BW_BPS`]; every host gets [`DEFAULT_NIC_BW_BPS`]
    /// and [`DEFAULT_INTRA_HOST_RTT`].
    pub fn build(self) -> Topology {
        let n = self.sites.len();
        let default_wan_rtt = SimDuration::from_millis(20);
        let mut rtt = vec![vec![default_wan_rtt; n]; n];
        let mut bw = vec![vec![DEFAULT_WAN_BW_BPS; n]; n];
        for (i, row) in rtt.iter_mut().enumerate() {
            row[i] = self.intra_site_rtt;
        }
        for (i, row) in bw.iter_mut().enumerate() {
            row[i] = DEFAULT_NIC_BW_BPS.max(DEFAULT_WAN_BW_BPS);
        }
        for (a, b, d) in self.rtt_overrides {
            rtt[a.0][b.0] = d;
            rtt[b.0][a.0] = d;
        }
        for (a, b, bps) in self.bw_overrides {
            bw[a.0][b.0] = bps;
            bw[b.0][a.0] = bps;
        }
        Topology {
            sites: self.sites,
            clusters: self.clusters,
            hosts: self.hosts,
            rtt,
            bw_bps: bw,
            intra_host_rtt: DEFAULT_INTRA_HOST_RTT,
            nic_bw_bps: DEFAULT_NIC_BW_BPS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_site_topology() -> Topology {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("alpha");
        let s1 = b.add_site("beta");
        b.add_cluster(
            s0,
            "a",
            "TestCPU",
            3,
            NodeSpec {
                cores: 4,
                cpus: 2,
                ops_per_sec: 1e9,
                mem_bytes: 1 << 30,
            },
        );
        b.add_cluster(
            s1,
            "b",
            "TestCPU",
            2,
            NodeSpec {
                cores: 2,
                cpus: 1,
                ops_per_sec: 1e9,
                mem_bytes: 1 << 30,
            },
        );
        b.set_rtt(s0, s1, SimDuration::from_millis(12));
        b.set_bandwidth(s0, s1, 1e9);
        b.build()
    }

    #[test]
    fn builder_creates_hosts_per_node() {
        let t = two_site_topology();
        assert_eq!(t.site_count(), 2);
        assert_eq!(t.clusters().len(), 2);
        assert_eq!(t.host_count(), 5);
        assert_eq!(t.hosts_at_site(SiteId(0)).count(), 3);
        assert_eq!(t.hosts_at_site(SiteId(1)).count(), 2);
        assert_eq!(t.cores_at_site(SiteId(0)), 12);
        assert_eq!(t.cores_at_site(SiteId(1)), 4);
        assert_eq!(t.total_cores(), 16);
        assert_eq!(t.host_by_name("a-2").unwrap().cluster, ClusterId(0));
        assert_eq!(t.cluster(ClusterId(0)).cores_per_node(), 4);
        assert_eq!(t.cluster(ClusterId(0)).cpus, 6);
    }

    #[test]
    fn rtt_resolution_by_locality() {
        let t = two_site_topology();
        let a0 = t.host_by_name("a-0").unwrap().id;
        let a1 = t.host_by_name("a-1").unwrap().id;
        let b0 = t.host_by_name("b-0").unwrap().id;
        assert_eq!(t.rtt(a0, a0), DEFAULT_INTRA_HOST_RTT);
        assert_eq!(t.rtt(a0, a1), DEFAULT_INTRA_SITE_RTT);
        assert_eq!(t.rtt(a0, b0), SimDuration::from_millis(12));
        assert_eq!(t.rtt(b0, a0), SimDuration::from_millis(12));
        assert_eq!(t.latency(a0, b0), SimDuration::from_millis(6));
    }

    #[test]
    fn bandwidth_is_bottlenecked_by_nic() {
        let t = two_site_topology();
        let a0 = t.host_by_name("a-0").unwrap().id;
        let a1 = t.host_by_name("a-1").unwrap().id;
        let b0 = t.host_by_name("b-0").unwrap().id;
        // WAN link is 1 Gbps, NIC is 1 Gbps -> 1 Gbps.
        assert_eq!(t.bandwidth_bps(a0, b0), 1e9);
        // Intra-site is limited by the NIC.
        assert_eq!(t.bandwidth_bps(a0, a1), DEFAULT_NIC_BW_BPS);
        // Same host is faster than any NIC.
        assert!(t.bandwidth_bps(a0, a0) > DEFAULT_NIC_BW_BPS);
    }

    #[test]
    fn missing_rtt_defaults_to_conservative_wan() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("x");
        let s1 = b.add_site("y");
        b.add_cluster(s0, "cx", "c", 1, NodeSpec::default());
        b.add_cluster(s1, "cy", "c", 1, NodeSpec::default());
        let t = b.build();
        assert_eq!(t.site_rtt(s0, s1), SimDuration::from_millis(20));
    }

    #[test]
    fn lookups_by_name() {
        let t = two_site_topology();
        assert!(t.site_by_name("alpha").is_some());
        assert!(t.site_by_name("gamma").is_none());
        assert!(t.host_by_name("b-1").is_some());
        assert!(t.host_by_name("b-7").is_none());
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn adding_cluster_to_unknown_site_panics() {
        let mut b = TopologyBuilder::new();
        b.add_cluster(SiteId(3), "c", "c", 1, NodeSpec::default());
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn rtt_diagonal_override_panics() {
        let mut b = TopologyBuilder::new();
        let s = b.add_site("x");
        b.set_rtt(s, s, SimDuration::from_millis(1));
    }

    #[test]
    fn display_of_ids() {
        assert_eq!(format!("{}", SiteId(1)), "site#1");
        assert_eq!(format!("{}", ClusterId(2)), "cluster#2");
        assert_eq!(format!("{}", HostId(3)), "host#3");
    }
}
