//! Building a simulated Grid'5000 testbed from the Table 1 description.

use crate::sites::{
    rtt_between_ms, wan_bandwidth_bps, ClusterSpec, RTT_TO_NANCY_MS, SITE_ORDER, TABLE1,
};
use p2pmpi_overlay::boot::OverlayBuilder;
use p2pmpi_overlay::config::OwnerConfig;
use p2pmpi_overlay::overlay::Overlay;
use p2pmpi_overlay::peer::PeerId;
use p2pmpi_simgrid::event::QueueKind;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::time::SimDuration;
use p2pmpi_simgrid::topology::{NodeSpec, SiteId, Topology, TopologyBuilder};
use std::sync::Arc;

/// Builds the full Grid'5000 topology of Table 1 (6 sites, 8 clusters,
/// 350 hosts, 1040 cores) with the published RTTs and bandwidths.
pub fn grid5000_topology() -> Arc<Topology> {
    topology_from_specs(TABLE1)
}

/// Builds a topology from an arbitrary subset of cluster specs (useful for
/// scaled-down tests).
pub fn topology_from_specs(specs: &[ClusterSpec]) -> Arc<Topology> {
    let mut b = TopologyBuilder::new();
    // Intra-site RTT: the Nancy-to-Nancy figure of the legend.
    b.set_intra_site_rtt(SimDuration::from_micros_f64(87.0));
    let mut site_ids: Vec<(&str, SiteId)> = Vec::new();
    for &site in SITE_ORDER {
        if specs.iter().any(|s| s.site == site) {
            let id = b.add_site(site);
            site_ids.push((site, id));
        }
    }
    for spec in specs {
        let site_id = site_ids
            .iter()
            .find(|(name, _)| *name == spec.site)
            .expect("cluster references a known site")
            .1;
        b.add_cluster(
            site_id,
            spec.cluster,
            spec.cpu_model,
            spec.nodes,
            NodeSpec {
                cores: spec.cores_per_node(),
                cpus: spec.cpus_per_node(),
                ops_per_sec: spec.ops_per_core,
            },
        );
    }
    for (i, &(site_a, id_a)) in site_ids.iter().enumerate() {
        for &(site_b, id_b) in site_ids.iter().skip(i + 1) {
            let rtt_ms = rtt_between_ms(site_a, site_b).expect("known sites");
            b.set_rtt(id_a, id_b, SimDuration::from_millis_f64(rtt_ms));
            b.set_bandwidth(id_a, id_b, wan_bandwidth_bps(site_a, site_b));
        }
    }
    Arc::new(b.build())
}

/// Standard experiment configuration: a fully-booted overlay with one peer
/// per host, `P` = core count and `J = 1` (the paper's setting), the
/// submitter's cache bootstrapped, and the default probe-noise model.
pub struct Grid5000Testbed {
    /// The Grid'5000 topology.
    pub topology: Arc<Topology>,
    /// The booted overlay.
    pub overlay: Overlay,
    /// The peer acting as submitter (runs on a Nancy host, as in the paper
    /// where "job requests are originated" at Nancy).
    pub submitter: PeerId,
}

/// Builds the standard testbed with the given RNG seed and probe-noise model.
pub fn grid5000_testbed(seed: u64, noise: NoiseModel) -> Grid5000Testbed {
    testbed_from_specs(TABLE1, seed, noise)
}

/// Builds a testbed from a subset of Table 1 (smaller, faster variants for
/// unit and integration tests).
pub fn testbed_from_specs(specs: &[ClusterSpec], seed: u64, noise: NoiseModel) -> Grid5000Testbed {
    let topology = topology_from_specs(specs);
    let submitter_site = topology
        .site_by_name("nancy")
        .map(|s| s.id)
        .unwrap_or_else(|| topology.sites()[0].id);
    let submitter_host = topology
        .hosts_at_site(submitter_site)
        .next()
        .expect("the submitter site has at least one host")
        .id;
    let mut overlay = OverlayBuilder::new(topology.clone())
        .seed(seed)
        .noise(noise)
        .peer_per_host(|h| OwnerConfig::with_procs(h.cores as u32))
        .supernode_on(submitter_host)
        .build();
    overlay.boot_all();
    let submitter = overlay
        .peer_on_host(submitter_host)
        .expect("submitter host carries a peer");
    overlay.bootstrap_peer(submitter);
    Grid5000Testbed {
        topology,
        overlay,
        submitter,
    }
}

/// [`testbed_from_specs`]; the queue kind is ignored (there is one).  Kept
/// because the benchmark's testbed boot calls it with the sweep config's
/// [`QueueKind`].
pub fn testbed_from_specs_with_queue(
    specs: &[ClusterSpec],
    seed: u64,
    noise: NoiseModel,
    _queue: QueueKind,
) -> Grid5000Testbed {
    testbed_from_specs(specs, seed, noise)
}

/// The RTTs used by the model, for printing experiment legends like the
/// paper's figures: `(site, rtt_ms, hosts, cores)`.
pub fn legend() -> Vec<(&'static str, f64, usize, usize)> {
    crate::sites::totals_by_site()
        .into_iter()
        .map(|(site, hosts, cores)| {
            let rtt = RTT_TO_NANCY_MS
                .iter()
                .find(|(s, _)| *s == site)
                .map(|&(_, ms)| ms)
                .unwrap_or(0.0);
            (site, rtt, hosts, cores)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_topology_matches_table1() {
        let t = grid5000_topology();
        assert_eq!(t.site_count(), 6);
        assert_eq!(t.clusters().len(), 8);
        assert_eq!(t.host_count(), 350);
        assert_eq!(t.total_cores(), 1040);
        let nancy = t.site_by_name("nancy").unwrap().id;
        assert_eq!(t.hosts_at_site(nancy).count(), 60);
        assert_eq!(t.cores_at_site(nancy), 240);
        let sophia = t.site_by_name("sophia").unwrap().id;
        assert_eq!(t.hosts_at_site(sophia).count(), 70);
        assert_eq!(t.cores_at_site(sophia), 216);
    }

    #[test]
    fn rtt_matrix_reflects_published_values() {
        let t = grid5000_topology();
        let nancy = t.site_by_name("nancy").unwrap().id;
        let lyon = t.site_by_name("lyon").unwrap().id;
        let sophia = t.site_by_name("sophia").unwrap().id;
        assert_eq!(
            t.site_rtt(nancy, lyon),
            SimDuration::from_millis_f64(10.576)
        );
        assert_eq!(
            t.site_rtt(nancy, sophia),
            SimDuration::from_millis_f64(17.167)
        );
        assert_eq!(t.site_rtt(nancy, nancy), SimDuration::from_micros_f64(87.0));
    }

    #[test]
    fn bordeaux_bandwidth_is_one_gbps() {
        let t = grid5000_topology();
        let nancy_host = t
            .hosts_at_site(t.site_by_name("nancy").unwrap().id)
            .next()
            .unwrap()
            .id;
        let bordeaux_host = t
            .hosts_at_site(t.site_by_name("bordeaux").unwrap().id)
            .next()
            .unwrap()
            .id;
        let lyon_host = t
            .hosts_at_site(t.site_by_name("lyon").unwrap().id)
            .next()
            .unwrap()
            .id;
        assert_eq!(t.bandwidth_bps(nancy_host, bordeaux_host), 1e9);
        // Other WAN links are only limited by the NIC.
        assert!(t.bandwidth_bps(nancy_host, lyon_host) >= 1e9);
    }

    #[test]
    fn testbed_boots_with_a_nancy_submitter() {
        // Use a reduced spec set to keep the test fast (probing 350 peers
        // happens in the experiment harness, not unit tests).
        let specs: Vec<ClusterSpec> = TABLE1
            .iter()
            .cloned()
            .map(|mut s| {
                let cores_per_node = s.cores_per_node();
                let cpus_per_node = s.cpus_per_node();
                s.nodes = (s.nodes / 10).max(1);
                s.cpus = cpus_per_node * s.nodes;
                s.cores = cores_per_node * s.nodes;
                s
            })
            .collect();
        let tb = testbed_from_specs(&specs, 11, NoiseModel::disabled());
        assert_eq!(
            tb.topology.host(tb.overlay.host_of(tb.submitter)).site,
            tb.topology.site_by_name("nancy").unwrap().id
        );
        assert_eq!(tb.overlay.peer_count(), tb.topology.host_count());
        // The submitter knows every other peer after bootstrap.
        assert_eq!(
            tb.overlay.latency_ranking(tb.submitter).len(),
            tb.topology.host_count() - 1
        );
    }

    #[test]
    fn legend_matches_figure_headers() {
        let l = legend();
        assert_eq!(l.len(), 6);
        assert_eq!(l[0], ("nancy", 0.087, 60, 240));
        assert_eq!(l[5], ("sophia", 17.167, 70, 216));
    }
}
