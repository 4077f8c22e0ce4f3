//! The MPI job runtime: one OS thread per process instance, virtual-time
//! accounting, replication and failure injection.

use crate::comm::{Comm, CommConfig, DEFAULT_RECV_TIMEOUT};
use crate::envelope::Router;
use crate::error::{MpiError, MpiResult, Rank};
use crate::model::ModelComm;
use crate::placement::Placement;
use crate::registry::{FailurePlan, Registry};
use crate::stats::CommStats;
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::Topology;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Outcome of one process instance.
#[derive(Debug)]
pub struct InstanceOutcome<T> {
    /// Logical rank.
    pub rank: Rank,
    /// Replica index.
    pub(crate) replica: u32,
    /// What the kernel returned.
    pub(crate) result: MpiResult<T>,
    /// The instance's final logical clock.
    pub clock: SimTime,
    /// The instance's communication statistics.
    pub(crate) stats: CommStats,
}

/// Result of running one MPI job.
#[derive(Debug)]
pub struct JobResult<T> {
    /// Number of logical ranks.
    pub(crate) processes: u32,
    /// The job's virtual makespan: the largest final clock among instances
    /// that completed successfully.
    pub makespan: SimDuration,
    /// Every instance's outcome, indexed by `rank * r + replica`.
    pub instances: Vec<InstanceOutcome<T>>,
    /// Aggregated communication statistics over all instances.
    pub stats: CommStats,
}

impl<T> JobResult<T> {
    /// The result produced by the lowest-index replica of `rank` that
    /// completed successfully (the value the application observes).
    pub fn result_of(&self, rank: Rank) -> Option<&T> {
        self.instances
            .iter()
            .filter(|i| i.rank == rank)
            .find_map(|i| i.result.as_ref().ok())
    }

    /// True if every rank produced a result (possibly through a surviving
    /// replica).
    pub fn all_ranks_completed(&self) -> bool {
        (0..self.processes).all(|rank| self.result_of(rank).is_some())
    }

    /// Instances that ended in failure (injected or otherwise), as
    /// `(rank, replica, error)`.
    pub fn failures(&self) -> Vec<(Rank, u32, MpiError)> {
        self.instances
            .iter()
            .filter_map(|i| {
                i.result
                    .as_ref()
                    .err()
                    .map(|e| (i.rank, i.replica, e.clone()))
            })
            .collect()
    }
}

/// Runs MPI jobs over a topology's cost models.
#[derive(Clone)]
pub struct MpiRuntime {
    network: NetworkModel,
    compute: ComputeModel,
    recv_timeout: Duration,
    stack_size: usize,
}

impl MpiRuntime {
    /// Creates a runtime with default network/compute/contention models.
    pub fn new(topology: Arc<Topology>) -> Self {
        MpiRuntime {
            network: NetworkModel::new(topology.clone()),
            compute: ComputeModel::new(topology),
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            stack_size: 1 << 20,
        }
    }

    /// Creates a runtime with explicit cost models.
    pub fn with_models(network: NetworkModel, compute: ComputeModel) -> Self {
        MpiRuntime {
            network,
            compute,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            stack_size: 1 << 20,
        }
    }

    /// Builds an analytical model communicator for `placement` sharing this
    /// runtime's network and compute models, so modeled and executed runs of
    /// the same job are costed from identical parameters.
    pub fn model_comm(&self, placement: &Placement) -> ModelComm {
        ModelComm::new(placement, self.network.clone(), self.compute.clone())
    }

    /// Overrides the real-time receive timeout used to detect that every
    /// replica of a sender is gone.
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Runs `kernel` as an MPI job over `placement` without failures.
    pub fn run<T, F>(&self, placement: &Placement, kernel: F) -> JobResult<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> MpiResult<T> + Send + Sync,
    {
        self.run_with_failures(placement, &FailurePlan::none(), kernel)
    }

    /// Runs `kernel` as an MPI job over `placement`, injecting the failures
    /// described by `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the placement is structurally invalid (use
    /// [`Placement::validate`] to check beforehand when the placement comes
    /// from untrusted input).
    pub fn run_with_failures<T, F>(
        &self,
        placement: &Placement,
        plan: &FailurePlan,
        kernel: F,
    ) -> JobResult<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> MpiResult<T> + Send + Sync,
    {
        placement
            .validate()
            .expect("cannot run an MPI job on an invalid placement");
        let n = placement.processes;
        let r = placement.replication;
        let total = placement.total_instances();
        let (router, receivers) = Router::new(placement);
        let router = Arc::new(router);
        let registry = Arc::new(Registry::new(n, r));
        let residents = placement.residents_per_host();

        let outcomes: Mutex<Vec<Option<InstanceOutcome<T>>>> =
            Mutex::new((0..total).map(|_| None).collect());
        let mut receivers: Vec<Option<_>> = receivers.into_iter().map(Some).collect();

        std::thread::scope(|scope| {
            for spec in &placement.procs {
                let idx = placement.instance_index(spec.rank, spec.replica);
                let rx = receivers[idx].take().expect("each instance spawned once");
                let config = CommConfig {
                    rank: spec.rank,
                    replica: spec.replica,
                    size: n,
                    host: spec.host,
                    residents: residents[&spec.host],
                    network: self.network.clone(),
                    compute: self.compute.clone(),
                    router: router.clone(),
                    registry: registry.clone(),
                    rx,
                    fail_after: plan.threshold(spec.rank, spec.replica),
                    recv_timeout: self.recv_timeout,
                };
                let kernel = &kernel;
                let outcomes = &outcomes;
                std::thread::Builder::new()
                    .name(format!("mpi-{}.{}", spec.rank, spec.replica))
                    .stack_size(self.stack_size)
                    .spawn_scoped(scope, move || {
                        let mut comm = Comm::new(config);
                        let result = kernel(&mut comm);
                        let outcome = InstanceOutcome {
                            rank: comm.rank(),
                            replica: comm.replica(),
                            result,
                            clock: comm.clock(),
                            stats: comm.stats().clone(),
                        };
                        outcomes.lock()[idx] = Some(outcome);
                    })
                    .expect("failed to spawn an MPI process thread");
            }
        });

        let instances: Vec<InstanceOutcome<T>> = outcomes
            .into_inner()
            .into_iter()
            .map(|o| o.expect("every instance records an outcome"))
            .collect();
        let makespan = instances
            .iter()
            .filter(|i| i.result.is_ok())
            .map(|i| i.clock)
            .max()
            .unwrap_or(SimTime::ZERO)
            .saturating_since(SimTime::ZERO);
        let mut stats = CommStats::default();
        for i in &instances {
            stats.merge(&i.stats);
        }
        JobResult {
            processes: n,
            makespan,
            instances,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::ReduceOp;
    use crate::model::CollectiveProgram;
    use p2pmpi_simgrid::memory::MemoryIntensity;
    use p2pmpi_simgrid::topology::{HostId, NodeSpec, TopologyBuilder};

    fn topology(hosts_per_site: usize, cores: usize) -> Arc<Topology> {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("local");
        let s1 = b.add_site("remote");
        b.add_cluster(
            s0,
            "l",
            "cpu",
            hosts_per_site,
            NodeSpec {
                cores,
                ..NodeSpec::default()
            },
        );
        b.add_cluster(
            s1,
            "r",
            "cpu",
            hosts_per_site,
            NodeSpec {
                cores,
                ..NodeSpec::default()
            },
        );
        b.set_rtt(s0, s1, p2pmpi_simgrid::time::SimDuration::from_millis(10));
        Arc::new(b.build())
    }

    fn local_hosts(t: &Topology, count: usize) -> Vec<HostId> {
        t.hosts_at_site(t.site_by_name("local").unwrap().id)
            .take(count)
            .map(|h| h.id)
            .collect()
    }

    #[test]
    fn ring_send_recv_passes_a_token() {
        let t = topology(4, 2);
        let rt = MpiRuntime::new(t.clone());
        let placement = Placement::one_per_host(&local_hosts(&t, 4));
        let result = rt.run(&placement, |comm| {
            let size = comm.size();
            let rank = comm.rank();
            let next = (rank + 1) % size;
            let prev = (rank + size - 1) % size;
            if rank == 0 {
                comm.send(next, 1, &[42i32])?;
                let token = comm.recv::<i32>(prev, 1)?;
                Ok(token[0])
            } else {
                let token = comm.recv::<i32>(prev, 1)?;
                comm.send(next, 1, &[token[0] + 1])?;
                Ok(token[0])
            }
        });
        assert!(result.all_ranks_completed());
        // The token accumulates one increment per hop.
        assert_eq!(*result.result_of(0).unwrap(), 42 + 3);
        assert_eq!(*result.result_of(1).unwrap(), 42);
        assert_eq!(*result.result_of(3).unwrap(), 44);
        assert!(result.makespan > SimDuration::ZERO);
        assert_eq!(result.stats.messages_sent, 4);
        assert_eq!(result.stats.messages_received, 4);
    }

    #[test]
    fn allreduce_sums_ranks() {
        let t = topology(4, 2);
        let rt = MpiRuntime::new(t.clone());
        let placement = Placement::one_per_host(&local_hosts(&t, 4));
        let result = rt.run(&placement, |comm| {
            let sum = comm.allreduce(ReduceOp::Sum, &[comm.rank() as i64, 1])?;
            Ok(sum)
        });
        assert!(result.all_ranks_completed());
        for rank in 0..4 {
            assert_eq!(result.result_of(rank).unwrap(), &vec![6, 4]);
        }
    }

    #[test]
    fn collectives_cover_bcast_gather_scatter_alltoall() {
        let t = topology(4, 4);
        let rt = MpiRuntime::new(t.clone());
        let placement = Placement::one_per_host(&local_hosts(&t, 4));
        let result = rt.run(&placement, |comm| {
            let rank = comm.rank();
            let size = comm.size();
            // Broadcast.
            let seed = if rank == 0 { vec![7i32, 8, 9] } else { vec![] };
            let b = comm.bcast(0, seed)?;
            assert_eq!(b, vec![7, 8, 9]);
            // Scatter: rank i receives [i].
            let scatter_src: Vec<i32> = if rank == 1 {
                (0..size as i32).collect()
            } else {
                vec![]
            };
            let mine = comm.scatter(1, &scatter_src, 1)?;
            assert_eq!(mine, vec![rank as i32]);
            // Gather the scattered values back at rank 2.
            let gathered = comm.gather(2, &mine)?;
            if rank == 2 {
                assert_eq!(gathered.unwrap(), (0..size as i32).collect::<Vec<_>>());
            } else {
                assert!(gathered.is_none());
            }
            // Allgather.
            let all = comm.allgather(&[rank as i32])?;
            assert_eq!(all, (0..size as i32).collect::<Vec<_>>());
            // Alltoall: rank i sends value 10*i + j to rank j.
            let send: Vec<i32> = (0..size as i32).map(|j| 10 * rank as i32 + j).collect();
            let recv = comm.alltoall(&send)?;
            let expect: Vec<i32> = (0..size as i32).map(|i| 10 * i + rank as i32).collect();
            assert_eq!(recv, expect);
            // Alltoallv with variable sizes: rank i sends i+j elements to j.
            let blocks: Vec<Vec<i64>> = (0..size)
                .map(|j| vec![rank as i64; (rank + j) as usize])
                .collect();
            let (vrecv, vcounts) = comm.alltoallv(&blocks)?;
            let mut offset = 0;
            for (src, &count) in vcounts.iter().enumerate() {
                assert_eq!(count, src + rank as usize);
                assert!(vrecv[offset..offset + count]
                    .iter()
                    .all(|&x| x == src as i64));
                offset += count;
            }
            assert_eq!(offset, vrecv.len());
            // Reduce with Max at root 3.
            let m = comm.reduce(3, ReduceOp::Max, &[rank as i64 * 10])?;
            if rank == 3 {
                assert_eq!(m.unwrap(), vec![30]);
            }
            comm.barrier()?;
            Ok(rank)
        });
        assert!(result.all_ranks_completed(), "{:?}", result.failures());
    }

    #[test]
    fn remote_placement_takes_longer_than_local() {
        let t = topology(4, 4);
        let rt = MpiRuntime::new(t.clone());
        let local = local_hosts(&t, 2);
        let mut split = local_hosts(&t, 1);
        split.push(
            t.hosts_at_site(t.site_by_name("remote").unwrap().id)
                .next()
                .unwrap()
                .id,
        );
        let kernel = |comm: &mut Comm| {
            for _ in 0..10 {
                comm.allreduce(ReduceOp::Sum, &[1i64])?;
            }
            Ok(())
        };
        let local_result = rt.run(&Placement::one_per_host(&local), kernel);
        let split_result = rt.run(&Placement::one_per_host(&split), kernel);
        assert!(local_result.all_ranks_completed());
        assert!(split_result.all_ranks_completed());
        assert!(
            split_result.makespan > local_result.makespan * 5,
            "cross-site {} should dwarf local {}",
            split_result.makespan,
            local_result.makespan
        );
    }

    #[test]
    fn colocation_slows_memory_bound_compute() {
        let t = topology(4, 4);
        let rt = MpiRuntime::new(t.clone());
        let host = local_hosts(&t, 1)[0];
        let spread_hosts = local_hosts(&t, 4);
        let kernel = |comm: &mut Comm| {
            comm.compute(1e8, MemoryIntensity::MEMORY_BOUND)?;
            comm.barrier()?;
            Ok(())
        };
        let concentrated = rt.run(&Placement::co_located(4, host), kernel);
        let spread = rt.run(&Placement::one_per_host(&spread_hosts), kernel);
        assert!(concentrated.all_ranks_completed());
        assert!(spread.all_ranks_completed());
        // Intra-host messaging is cheaper but the memory contention dominates
        // for a memory-bound kernel of this size.
        assert!(concentrated.makespan > spread.makespan);
    }

    #[test]
    fn replication_masks_a_failure() {
        let t = topology(4, 2);
        let rt = MpiRuntime::new(t.clone()).with_recv_timeout(Duration::from_secs(5));
        let hosts = local_hosts(&t, 4);
        let placement = Placement::replicated_round_robin(2, 2, &hosts);
        // Kill replica 0 of rank 1 before it does anything.
        let plan = FailurePlan::none().kill(1, 0, 0);
        let result = rt.run_with_failures(&placement, &plan, |comm| {
            // A short ping-pong between ranks 0 and 1, repeated.
            let me = comm.rank();
            let peer = 1 - me;
            let mut last = 0i32;
            for i in 0..5 {
                if me == 0 {
                    comm.send(peer, 7, &[i])?;
                    last = comm.recv::<i32>(peer, 7)?[0];
                } else {
                    last = comm.recv::<i32>(peer, 7)?[0];
                    comm.send(peer, 7, &[last + 1])?;
                }
            }
            Ok(last)
        });
        // Rank 1's surviving replica produced the result; the job completed.
        assert!(result.all_ranks_completed(), "{:?}", result.failures());
        assert_eq!(result.failures().len(), 1);
        assert_eq!(result.failures()[0].0, 1);
        assert_eq!(*result.result_of(0).unwrap(), 5);
    }

    #[test]
    fn unreplicated_failure_is_reported() {
        let t = topology(2, 2);
        let rt = MpiRuntime::new(t.clone()).with_recv_timeout(Duration::from_millis(300));
        let placement = Placement::one_per_host(&local_hosts(&t, 2));
        let plan = FailurePlan::none().kill(1, 0, 0);
        let result = rt.run_with_failures(&placement, &plan, |comm| {
            if comm.rank() == 0 {
                // Rank 1 is dead; this receive must eventually give up.
                match comm.recv::<i32>(1, 3) {
                    Err(MpiError::PeerUnreachable { rank: 1 }) => Ok(-1),
                    other => panic!("expected unreachable peer, got {other:?}"),
                }
            } else {
                comm.compute(1.0, MemoryIntensity::NONE)?;
                Ok(0)
            }
        });
        assert_eq!(*result.result_of(0).unwrap(), -1);
        assert!(!result.all_ranks_completed());
        assert_eq!(
            result.instances.iter().filter(|i| i.result.is_ok()).count(),
            1
        );
    }

    #[test]
    fn makespan_is_deterministic_across_runs() {
        let t = topology(4, 2);
        let rt = MpiRuntime::new(t.clone());
        let placement = Placement::round_robin(8, &local_hosts(&t, 4));
        let kernel = |comm: &mut Comm| {
            comm.compute(1e6 * (comm.rank() as f64 + 1.0), MemoryIntensity::CPU_BOUND)?;
            comm.allreduce(ReduceOp::Sum, &[comm.rank() as i64])?;
            comm.alltoall(&vec![comm.rank() as i32; comm.size() as usize])?;
            Ok(())
        };
        let a = rt.run(&placement, kernel);
        let b = rt.run(&placement, kernel);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn modeled_clocks_match_executed_clocks_exactly() {
        // The fidelity contract of the analytical backend: for a fixed
        // sequence of collectives over a fixed placement, the model predicts
        // every rank's final clock exactly (see mpi::model docs).
        let t = topology(4, 4);
        let rt = MpiRuntime::new(t.clone());
        let mut hosts = local_hosts(&t, 3);
        hosts.push(
            t.hosts_at_site(t.site_by_name("remote").unwrap().id)
                .next()
                .unwrap()
                .id,
        );
        let placement = Placement::round_robin(6, &hosts);

        let executed = rt.run(&placement, |comm| {
            comm.compute(1e7 * (comm.rank() as f64 + 1.0), MemoryIntensity::CPU_BOUND)?;
            comm.bcast(2, vec![0u8; 1000])?;
            comm.allreduce(ReduceOp::Sum, &[comm.rank() as i64; 8])?;
            comm.alltoall(&[comm.rank() as i32; 12])?;
            let blocks: Vec<Vec<u32>> = (0..comm.size())
                .map(|d| vec![0u32; (comm.rank() + 2 * d) as usize])
                .collect();
            comm.alltoallv(&blocks)?;
            comm.gather(1, &vec![0f64; comm.rank() as usize + 1])?;
            comm.scatter(0, &vec![0u64; 5 * comm.size() as usize], 5)?;
            comm.barrier()?;
            Ok(())
        });
        assert!(executed.all_ranks_completed());

        let mut model = rt.model_comm(&placement);
        model.compute(MemoryIntensity::CPU_BOUND, |rank| 1e7 * (rank as f64 + 1.0));
        model.bcast(2, 1000);
        model.allreduce(8 * 8);
        model.alltoall(2 * 4); // 12 i32 over 6 ranks: 2-element blocks
        model.alltoallv(|src, dst| (src + 2 * dst) as u64 * 4);
        model.gather(1, |rank| (rank as u64 + 1) * 8);
        model.scatter(0, 5 * 8);
        model.barrier();

        for rank in 0..6u32 {
            let exec_clock = executed
                .instances
                .iter()
                .find(|i| i.rank == rank)
                .unwrap()
                .clock;
            assert_eq!(
                model.clock(rank),
                exec_clock,
                "rank {rank}: modeled clock must equal the executed clock"
            );
        }
        assert_eq!(model.makespan(), executed.makespan);
        assert_eq!(model.stats().messages_sent, executed.stats.messages_sent);
        assert_eq!(model.stats().bytes_sent, executed.stats.bytes_sent);
    }

    #[test]
    fn invalid_rank_is_rejected() {
        let t = topology(2, 2);
        let rt = MpiRuntime::new(t.clone());
        let placement = Placement::co_located(2, local_hosts(&t, 1)[0]);
        let result = rt.run(&placement, |comm| {
            if comm.rank() == 0 {
                match comm.send(9, 0, &[1i32]) {
                    Err(MpiError::InvalidRank { rank: 9, size: 2 }) => Ok(true),
                    other => panic!("expected invalid rank, got {other:?}"),
                }
            } else {
                Ok(true)
            }
        });
        assert!(result.all_ranks_completed());
    }
}
