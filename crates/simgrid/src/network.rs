//! Point-to-point message transfer cost model.
//!
//! A transfer of `b` bytes from host `s` to host `d` costs
//!
//! ```text
//! T(s, d, b) = latency(s, d) + overhead + b * 8 / bandwidth(s, d)
//! ```
//!
//! i.e. a classic latency/bandwidth (Hockney) model with a fixed per-message
//! software overhead representing the Java serialization and TCP stack the
//! original P2P-MPI runtime goes through.  Collective operations are built on
//! top of this in the `p2pmpi-mpi` crate, so their cost emerges from the
//! placement of processes and this model — exactly the effect Figure 4 of the
//! paper studies.

use crate::time::SimDuration;
use crate::topology::{HostId, SiteId, Topology};
use std::sync::Arc;

/// Tunable parameters of the transfer model.
#[derive(Debug, Clone, Copy)]
pub struct NetworkParams {
    /// Fixed per-message software overhead (serialization, syscalls).
    pub per_message_overhead: SimDuration,
    /// Multiplier applied to the payload size to account for protocol framing.
    pub framing_factor: f64,
    /// Size in bytes of the empty "ping" message used by MPD latency probes.
    pub probe_bytes: u64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams {
            // ~35 us of per-message software overhead is representative of a
            // 2008-era Java TCP stack.
            per_message_overhead: SimDuration::from_micros(35),
            framing_factor: 1.05,
            probe_bytes: 64,
        }
    }
}

/// Transfer-time oracle bound to a topology.
///
/// The topology's RTT matrix is immutable (shared behind an `Arc`); transient
/// network degradation — the slow-link fault scenarios — is modeled here
/// instead, as per-site latency multipliers applied on top of the matrix
/// ([`NetworkModel::set_site_latency_factor`]).
#[derive(Debug, Clone)]
pub struct NetworkModel {
    topology: Arc<Topology>,
    params: NetworkParams,
    /// Per-site latency multipliers (empty while no link is degraded; the
    /// common case pays one `is_empty` check).  A transfer is slowed by the
    /// worse of its two endpoints' factors.
    site_latency_factor: Vec<f64>,
}

impl NetworkModel {
    /// Creates a model over `topology` with default parameters.
    pub fn new(topology: Arc<Topology>) -> Self {
        NetworkModel {
            topology,
            params: NetworkParams::default(),
            site_latency_factor: Vec::new(),
        }
    }

    /// Sets the latency multiplier of every transfer touching `site`
    /// (slow-link fault injection).  `1.0` restores the nominal latency; the
    /// bandwidth and overhead terms are unaffected.
    pub fn set_site_latency_factor(&mut self, site: SiteId, factor: f64) {
        assert!(
            factor >= 1.0 && factor.is_finite(),
            "a latency factor below 1 would speed links up"
        );
        if self.site_latency_factor.is_empty() {
            if factor == 1.0 {
                return;
            }
            self.site_latency_factor = vec![1.0; self.topology.site_count()];
        }
        self.site_latency_factor[site.0] = factor;
        if self.site_latency_factor.iter().all(|&f| f == 1.0) {
            self.site_latency_factor.clear();
        }
    }

    /// The latency multiplier of a `src → dst` transfer: the worse of the
    /// two endpoint sites' factors.
    fn latency_factor(&self, src: HostId, dst: HostId) -> f64 {
        if self.site_latency_factor.is_empty() {
            return 1.0;
        }
        let a = self.site_latency_factor[self.topology.host(src).site.0];
        let b = self.site_latency_factor[self.topology.host(dst).site.0];
        a.max(b)
    }

    /// The topology this model is bound to.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The model parameters.
    pub fn params(&self) -> NetworkParams {
        self.params
    }

    /// One-way transfer time of `bytes` from `src` to `dst`.
    pub fn transfer_time(&self, src: HostId, dst: HostId, bytes: u64) -> SimDuration {
        let mut latency = self.topology.latency(src, dst);
        let factor = self.latency_factor(src, dst);
        if factor != 1.0 {
            latency = latency.mul_f64(factor);
        }
        let bw = self.topology.bandwidth_bps(src, dst);
        let wire_bytes = bytes as f64 * self.params.framing_factor;
        let serialization = SimDuration::from_secs_f64(wire_bytes * 8.0 / bw);
        latency + self.params.per_message_overhead + serialization
    }

    /// Round-trip time of an application-level probe (the MPD "ping"): two
    /// empty-message transfers, as the paper's Section 4.1 describes.
    pub fn probe_rtt(&self, src: HostId, dst: HostId) -> SimDuration {
        self.transfer_time(src, dst, self.params.probe_bytes)
            + self.transfer_time(dst, src, self.params.probe_bytes)
    }

    /// Base RTT between hosts without any per-message overhead, i.e. the
    /// quantity an ICMP `ping` would report.  Exposed so experiments can
    /// compare the application-level ranking against the ICMP ranking, as
    /// Section 5.1 of the paper discusses.
    pub fn icmp_rtt(&self, src: HostId, dst: HostId) -> SimDuration {
        self.topology.rtt(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NodeSpec, TopologyBuilder};

    fn topology() -> Arc<Topology> {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("local");
        let s1 = b.add_site("remote");
        b.add_cluster(s0, "l", "cpu", 2, NodeSpec::default());
        b.add_cluster(s1, "r", "cpu", 2, NodeSpec::default());
        b.set_rtt(s0, s1, SimDuration::from_millis(10));
        b.set_bandwidth(s0, s1, 1e9);
        Arc::new(b.build())
    }

    #[test]
    fn transfer_time_has_latency_and_bandwidth_terms() {
        let t = topology();
        let m = NetworkModel::new(t.clone());
        let l0 = t.host_by_name("l-0").unwrap().id;
        let r0 = t.host_by_name("r-0").unwrap().id;
        let small = m.transfer_time(l0, r0, 1);
        let large = m.transfer_time(l0, r0, 10_000_000);
        // Latency floor: one-way 5 ms plus overhead.
        assert!(small >= SimDuration::from_millis(5));
        assert!(small < SimDuration::from_millis(6));
        // 10 MB over 1 Gbps is ~84 ms of serialization on top.
        assert!(large > small + SimDuration::from_millis(80));
        assert!(large < small + SimDuration::from_millis(95));
    }

    #[test]
    fn local_transfers_are_much_cheaper() {
        let t = topology();
        let m = NetworkModel::new(t.clone());
        let l0 = t.host_by_name("l-0").unwrap().id;
        let l1 = t.host_by_name("l-1").unwrap().id;
        let r0 = t.host_by_name("r-0").unwrap().id;
        let same_site = m.transfer_time(l0, l1, 1024);
        let cross_site = m.transfer_time(l0, r0, 1024);
        assert!(cross_site > same_site * 10);
        let same_host = m.transfer_time(l0, l0, 1024);
        assert!(same_host < same_site);
    }

    #[test]
    fn probe_rtt_is_round_trip() {
        let t = topology();
        let m = NetworkModel::new(t.clone());
        let l0 = t.host_by_name("l-0").unwrap().id;
        let r0 = t.host_by_name("r-0").unwrap().id;
        let one_way = m.transfer_time(l0, r0, m.params().probe_bytes);
        assert_eq!(m.probe_rtt(l0, r0), one_way * 2);
        // The application-level probe is strictly slower than ICMP, but the
        // ordering against other sites is what matters to P2P-MPI.
        assert!(m.probe_rtt(l0, r0) > m.icmp_rtt(l0, r0));
    }

    #[test]
    fn probe_preserves_icmp_ranking_without_noise() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("origin");
        let near = b.add_site("near");
        let far = b.add_site("far");
        b.add_cluster(s0, "o", "cpu", 1, NodeSpec::default());
        b.add_cluster(near, "n", "cpu", 1, NodeSpec::default());
        b.add_cluster(far, "f", "cpu", 1, NodeSpec::default());
        b.set_rtt(s0, near, SimDuration::from_millis(10));
        b.set_rtt(s0, far, SimDuration::from_millis(17));
        let t = Arc::new(b.build());
        let m = NetworkModel::new(t.clone());
        let o = t.host_by_name("o-0").unwrap().id;
        let n = t.host_by_name("n-0").unwrap().id;
        let f = t.host_by_name("f-0").unwrap().id;
        assert!(m.probe_rtt(o, n) < m.probe_rtt(o, f));
        assert!(m.icmp_rtt(o, n) < m.icmp_rtt(o, f));
    }

    #[test]
    fn site_latency_factor_slows_touching_transfers_only() {
        let t = topology();
        let mut m = NetworkModel::new(t.clone());
        let l0 = t.host_by_name("l-0").unwrap().id;
        let l1 = t.host_by_name("l-1").unwrap().id;
        let r0 = t.host_by_name("r-0").unwrap().id;
        let nominal_cross = m.transfer_time(l0, r0, 1024);
        let nominal_local = m.transfer_time(l0, l1, 1024);
        let remote = t.site_by_name("remote").unwrap().id;
        m.set_site_latency_factor(remote, 10.0);
        assert_eq!(m.site_latency_factor[remote.0], 10.0);
        // Cross-site latency term is multiplied; overhead/bandwidth are not.
        let degraded = m.transfer_time(l0, r0, 1024);
        assert!(degraded > nominal_cross * 9);
        assert!(degraded < nominal_cross * 10);
        // Local-site transfers are untouched (factor defaults to 1.0 there).
        assert_eq!(m.transfer_time(l0, l1, 1024), nominal_local);
        // The direction does not matter: either endpoint being degraded slows
        // the transfer.
        assert_eq!(m.transfer_time(r0, l0, 1024), degraded);
        // Restoring 1.0 everywhere returns to the exact nominal costs.
        m.set_site_latency_factor(remote, 1.0);
        assert_eq!(m.transfer_time(l0, r0, 1024), nominal_cross);
    }

    #[test]
    #[should_panic(expected = "latency factor")]
    fn sub_unit_latency_factor_panics() {
        let t = topology();
        let mut m = NetworkModel::new(t.clone());
        let s = t.site_by_name("remote").unwrap().id;
        m.set_site_latency_factor(s, 0.5);
    }
}
