//! Overlay construction ("mpiboot" for a whole testbed at once).
//!
//! [`OverlayBuilder`] wires a [`Topology`] to a set of peers (one per host in
//! the common case), their owner configurations, the noise model and the RNG
//! seed, and produces a ready-to-boot [`Overlay`].

use crate::config::OwnerConfig;
use crate::mpd::MpdNode;
use crate::overlay::Overlay;
use crate::peer::{PeerDescriptor, PeerId};
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::rngutil;
use p2pmpi_simgrid::topology::{Host, HostId, Topology};
use p2pmpi_simgrid::trace::Tracer;
use std::sync::Arc;

/// Builder for [`Overlay`].
pub struct OverlayBuilder {
    topology: Arc<Topology>,
    seed: u64,
    noise: NoiseModel,
    peers: Vec<(HostId, OwnerConfig)>,
    supernode_host: Option<HostId>,
    tracer: Tracer,
}

impl OverlayBuilder {
    /// Starts a builder over `topology` with default models and no peers.
    pub fn new(topology: Arc<Topology>) -> Self {
        OverlayBuilder {
            topology,
            seed: 0,
            noise: NoiseModel::default(),
            peers: Vec::new(),
            supernode_host: None,
            tracer: Tracer::new(),
        }
    }

    /// Sets the master RNG seed (probe noise, reservation keys, churn).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the probe noise model.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the tracer used by the overlay.
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Places the supernode on a specific host (defaults to the first host).
    pub fn supernode_on(mut self, host: HostId) -> Self {
        self.supernode_host = Some(host);
        self
    }

    /// Adds one peer on every host of the topology, with the owner
    /// configuration produced by `config_of`.
    pub fn peer_per_host<F>(mut self, config_of: F) -> Self
    where
        F: Fn(&Host) -> OwnerConfig,
    {
        let hosts: Vec<(HostId, OwnerConfig)> = self
            .topology
            .hosts()
            .iter()
            .map(|h| (h.id, config_of(h)))
            .collect();
        self.peers.extend(hosts);
        self
    }

    /// Adds one peer on every host with `P` set to the host's core count and
    /// `J = 1` — the configuration used throughout the paper's experiments.
    pub fn peer_per_host_with_core_capacity(self) -> Self {
        self.peer_per_host(|h| OwnerConfig::with_procs(h.cores as u32))
    }

    /// Builds the overlay.  Panics if no peer was added or a host carries two
    /// peers.
    pub fn build(self) -> Overlay {
        assert!(!self.peers.is_empty(), "an overlay needs at least one peer");
        let mut seen = std::collections::HashSet::new();
        for (h, _) in &self.peers {
            assert!(
                seen.insert(*h),
                "host {h} carries more than one peer (one MPD per machine)"
            );
            assert!(
                h.0 < self.topology.host_count(),
                "peer placed on unknown host {h}"
            );
        }
        let nodes: Vec<MpdNode> = self
            .peers
            .into_iter()
            .enumerate()
            .map(|(i, (host, config))| MpdNode::new(PeerDescriptor::new(PeerId(i), host), config))
            .collect();
        let supernode_host = self.supernode_host.unwrap_or(nodes[0].descriptor.host);
        let network = NetworkModel::new(self.topology.clone());
        let rng = rngutil::substream(self.seed, 0xB007);
        Overlay::assemble(
            self.topology,
            network,
            self.noise,
            supernode_host,
            nodes,
            rng,
            self.tracer,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmpi_simgrid::topology::{NodeSpec, TopologyBuilder};

    fn topo() -> Arc<Topology> {
        let mut b = TopologyBuilder::new();
        let s = b.add_site("s");
        b.add_cluster(
            s,
            "c",
            "cpu",
            4,
            NodeSpec {
                cores: 2,
                ..NodeSpec::default()
            },
        );
        Arc::new(b.build())
    }

    /// Adds one peer on `host`, as no public builder call does.
    fn with_peer(mut b: OverlayBuilder, host: HostId, config: OwnerConfig) -> OverlayBuilder {
        b.peers.push((host, config));
        b
    }

    #[test]
    fn peer_per_host_places_one_peer_everywhere() {
        let o = OverlayBuilder::new(topo())
            .peer_per_host_with_core_capacity()
            .build();
        assert_eq!(o.peer_count(), 4);
        for id in o.peer_ids() {
            assert_eq!(o.node(id).config.max_procs_per_app, 2);
            assert_eq!(o.peer_on_host(o.host_of(id)), Some(id));
        }
    }

    #[test]
    fn explicit_peers_and_supernode_placement() {
        let t = topo();
        let h0 = t.hosts()[0].id;
        let h2 = t.hosts()[2].id;
        let b = with_peer(OverlayBuilder::new(t), h0, OwnerConfig::new(2, 8));
        let o = with_peer(b, h2, OwnerConfig::default())
            .supernode_on(h2)
            .seed(7)
            .build();
        assert_eq!(o.peer_count(), 2);
        assert_eq!(o.node(PeerId(0)).config.max_procs_per_app, 8);
        assert!(o.peer_on_host(h2).is_some());
    }

    #[test]
    fn same_seed_same_keys() {
        let build = || {
            OverlayBuilder::new(topo())
                .seed(99)
                .peer_per_host_with_core_capacity()
                .build()
        };
        let mut a = build();
        let mut b = build();
        assert_eq!(a.generate_key(), b.generate_key());
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn empty_overlay_panics() {
        OverlayBuilder::new(topo()).build();
    }

    #[test]
    #[should_panic(expected = "more than one peer")]
    fn duplicate_host_panics() {
        OverlayBuilder::new(topo())
            .peer_per_host_with_core_capacity()
            .peer_per_host_with_core_capacity()
            .build();
    }
}
