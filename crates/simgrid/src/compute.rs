//! Compute-time cost model.
//!
//! Compute sections of an MPI process are described by an abstract operation
//! count; the model converts that into virtual time using the host's per-core
//! rate and the memory-contention slowdown of
//! [`MemoryContentionModel`].

use crate::memory::{MemoryContentionModel, MemoryIntensity};
use crate::time::SimDuration;
use crate::topology::{HostId, Topology};
use std::sync::Arc;

/// Converts abstract operation counts into virtual compute time.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    topology: Arc<Topology>,
    contention: MemoryContentionModel,
}

impl ComputeModel {
    /// Creates a compute model with the default contention parameters.
    pub fn new(topology: Arc<Topology>) -> Self {
        ComputeModel {
            topology,
            contention: MemoryContentionModel::default(),
        }
    }

    /// Creates a compute model with an explicit contention model.
    pub fn with_contention(topology: Arc<Topology>, contention: MemoryContentionModel) -> Self {
        ComputeModel {
            topology,
            contention,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// Time for one process on `host` to execute `ops` abstract operations of
    /// the given memory intensity while `residents` processes (including this
    /// one) share the host.
    pub fn compute_time(
        &self,
        host: HostId,
        ops: f64,
        intensity: MemoryIntensity,
        residents: usize,
    ) -> SimDuration {
        assert!(
            ops >= 0.0 && ops.is_finite(),
            "operation count must be >= 0"
        );
        let h = self.topology.host(host);
        let slowdown = self.contention.slowdown(residents, intensity);
        SimDuration::from_secs_f64(ops / h.ops_per_sec * slowdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{NodeSpec, TopologyBuilder};

    fn topo() -> Arc<Topology> {
        let mut b = TopologyBuilder::new();
        let s = b.add_site("s");
        b.add_cluster(
            s,
            "fast",
            "cpu",
            1,
            NodeSpec {
                cores: 4,
                cpus: 2,
                ops_per_sec: 2e9,
            },
        );
        b.add_cluster(
            s,
            "slow",
            "cpu",
            1,
            NodeSpec {
                cores: 2,
                cpus: 1,
                ops_per_sec: 1e9,
            },
        );
        Arc::new(b.build())
    }

    #[test]
    fn time_scales_with_ops_and_host_speed() {
        let t = topo();
        let m = ComputeModel::new(t.clone());
        let fast = t.host_by_name("fast-0").unwrap().id;
        let slow = t.host_by_name("slow-0").unwrap().id;
        let tf = m.compute_time(fast, 2e9, MemoryIntensity::NONE, 1);
        let ts = m.compute_time(slow, 2e9, MemoryIntensity::NONE, 1);
        assert_eq!(tf, SimDuration::from_secs(1));
        assert_eq!(ts, SimDuration::from_secs(2));
        let tf_half = m.compute_time(fast, 1e9, MemoryIntensity::NONE, 1);
        assert_eq!(tf_half, SimDuration::from_millis(500));
    }

    #[test]
    fn colocation_slows_down_memory_bound_work() {
        let t = topo();
        let m = ComputeModel::new(t.clone());
        let fast = t.host_by_name("fast-0").unwrap().id;
        let alone = m.compute_time(fast, 1e9, MemoryIntensity::MEMORY_BOUND, 1);
        let crowded = m.compute_time(fast, 1e9, MemoryIntensity::MEMORY_BOUND, 4);
        assert!(crowded > alone);
        // CPU-bound work is barely affected.
        let cpu_alone = m.compute_time(fast, 1e9, MemoryIntensity::CPU_BOUND, 1);
        let cpu_crowded = m.compute_time(fast, 1e9, MemoryIntensity::CPU_BOUND, 4);
        let mem_ratio = crowded.as_secs_f64() / alone.as_secs_f64();
        let cpu_ratio = cpu_crowded.as_secs_f64() / cpu_alone.as_secs_f64();
        assert!(mem_ratio > cpu_ratio);
    }

    #[test]
    fn zero_ops_is_zero_time() {
        let t = topo();
        let m = ComputeModel::new(t.clone());
        let fast = t.host_by_name("fast-0").unwrap().id;
        assert_eq!(
            m.compute_time(fast, 0.0, MemoryIntensity::MEMORY_BOUND, 8),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "operation count")]
    fn negative_ops_panics() {
        let t = topo();
        let m = ComputeModel::new(t.clone());
        let fast = t.host_by_name("fast-0").unwrap().id;
        m.compute_time(fast, -1.0, MemoryIntensity::NONE, 1);
    }
}
