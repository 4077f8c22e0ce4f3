//! Experiment drivers shared by the figure-regeneration binaries and the
//! integration tests.
//!
//! # Costing a sweep's jobs: one pass per placement shape
//!
//! The paper's two strategies walk one latency-ordered host list over a grid
//! of homogeneous clusters, so a day of co-allocations produces very few
//! *kinds* of placement (92 for the 17 668 jobs the paper day places under
//! concentrate, 75 for spread's 13 229), and the analytical model cannot tell
//! two placements of one kind apart: it reads a host only through its
//! cluster (the clock rate, and through the cluster its site, hence every
//! link) and through which ranks share it.  [`ShapeCosts`] is the memo the
//! sweeps cost their jobs through:
//!
//! * **In the key:** the kernel, the rank count, and per rank its host's
//!   cluster and that host's position in the allocation's host list (equal
//!   positions = same host).
//! * **Fixed per memo, so not in the key:** the topology and the
//!   [`Fig4Settings`] (class, sampling divisors, contention override) —
//!   `SweepCore` owns one memo for its testbed, the shard coordinator one
//!   over the global grid.  Overlay state never enters: the cost models are
//!   built from the topology alone, so a degraded link or a dead peer moves
//!   which placements brokering produces, never what one costs.
//! * **Who verifies it:** builds with `debug_assertions` (tier-1's tests)
//!   cost every hit again from scratch and compare; the relabelling
//!   properties in `crates/mpi/tests/placement_cost_prop.rs` and
//!   `tests/modeled_costing.rs` fail the day a model reads a host through
//!   anything else.
//! * **Memory:** one `Box<[u32]>` of `2 + ranks` words per shape: 44 KB of
//!   keys for the paper day's 92 shapes under concentrate, 28 KB for
//!   spread's 75.  Churn scatters placements: the dead-peer day compressed
//!   12× keeps 927 shapes for its 3 885 placed jobs in 466 KB.

use crate::search::{cached_kernel_schedule, models_for};
use p2pmpi_core::prelude::*;
use p2pmpi_grid5000::scenario::{coallocation_sweep, paper_demand_steps, SweepRow};
use p2pmpi_grid5000::sites::{scale_factor_for_cores, scaled_table1};
use p2pmpi_grid5000::testbed::{grid5000_testbed, topology_from_specs};
use p2pmpi_mpi::model::{rank_hosts, CollectiveBackend, PlacementCost};
use p2pmpi_mpi::placement::Placement;
use p2pmpi_mpi::runtime::MpiRuntime;
use p2pmpi_nas::classes::Class;
use p2pmpi_nas::ep::{ep_kernel, EpConfig};
use p2pmpi_nas::is::{is_kernel, IsConfig};
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::time::SimDuration;
use p2pmpi_simgrid::topology::{HostId, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// Runs the Figure 2 / Figure 3 co-allocation sweep (100..600 processes by
/// 50) for a strategy, with the given probe-noise sigma (0 disables noise).
pub fn fig2_fig3_sweep(strategy: StrategyKind, seed: u64, noise_sigma: f64) -> Vec<SweepRow> {
    let noise = if noise_sigma == 0.0 {
        NoiseModel::disabled()
    } else {
        NoiseModel::with_sigma(noise_sigma)
    };
    coallocation_sweep(strategy, &paper_demand_steps(), seed, noise)
}

/// Which NAS kernel a Figure 4 run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig4Kernel {
    /// Embarrassingly Parallel (Figure 4, left).
    Ep,
    /// Integer Sort (Figure 4, right).
    Is,
    /// Fourier Transform (extension; model-only — the paper never ran FT,
    /// but its global transpose is the alltoall-heavy pattern the placement
    /// search targets at scale).
    Ft,
}

impl Fig4Kernel {
    /// Program name used on the `p2pmpirun` command line.
    pub fn program(&self) -> &'static str {
        match self {
            Fig4Kernel::Ep => "NAS.EP",
            Fig4Kernel::Is => "NAS.IS",
            Fig4Kernel::Ft => "NAS.FT",
        }
    }
}

/// Knobs of a Figure 4 style run.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Settings {
    /// NAS problem class (the paper uses B).
    pub class: Class,
    /// EP sampling divisor (the charged time stays class-accurate; see
    /// `p2pmpi-nas`).  EP class B generates 2^30 pairs, so some sampling is
    /// needed to keep wall-clock time reasonable.
    pub ep_sample_divisor: u64,
    /// IS sampling divisor (1 = sort the full key array).
    pub is_sample_divisor: u64,
    /// RNG seed for the testbed (probe noise).
    pub seed: u64,
    /// Override of the memory-contention coefficient (ablation); `None`
    /// keeps the default model.
    pub contention_alpha: Option<f64>,
    /// How collectives are costed: executed thread-per-rank (the default) or
    /// the LogGP analytical model (`p2pmpi_mpi::model`), which scales to
    /// thousands of ranks.
    pub backend: CollectiveBackend,
}

impl Default for Fig4Settings {
    fn default() -> Self {
        Fig4Settings {
            class: Class::B,
            ep_sample_divisor: 512,
            is_sample_divisor: 8,
            seed: 42,
            contention_alpha: None,
            backend: CollectiveBackend::Executed,
        }
    }
}

impl Fig4Settings {
    /// A configuration small enough for unit/integration tests.
    pub fn test_sized() -> Self {
        Fig4Settings {
            class: Class::S,
            ep_sample_divisor: 16,
            is_sample_divisor: 4,
            seed: 7,
            contention_alpha: None,
            backend: CollectiveBackend::Executed,
        }
    }

    /// The same settings with the analytical backend selected.
    pub fn modeled(mut self) -> Self {
        self.backend = CollectiveBackend::Modeled;
        self
    }
}

/// One measured point of Figure 4.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Number of MPI processes.
    pub processes: u32,
    /// Allocation strategy used.
    pub strategy: StrategyKind,
    /// Distinct hosts the job ran on.
    pub hosts_used: usize,
    /// Virtual execution time of the kernel.
    pub makespan: SimDuration,
    /// Whether the kernel's own verification passed.
    pub verified: bool,
}

/// Measures the kernel's virtual execution time for each process count under
/// one allocation strategy, on a fresh Grid'5000 testbed per point (as in
/// the paper, each point is an independent run).
pub fn fig4_kernel_times(
    kernel: Fig4Kernel,
    strategy: StrategyKind,
    counts: &[u32],
    settings: &Fig4Settings,
) -> Vec<Fig4Point> {
    counts
        .iter()
        .map(|&n| run_kernel_once(kernel, strategy, n, settings))
        .collect()
}

/// Allocates `n` processes with `strategy` on a fresh testbed and runs the
/// kernel once, returning the measured point.
///
/// The collectives are costed by `settings.backend`: executed thread-per-rank
/// or the analytical model (a modeled point carries `verified = true`, since
/// the model computes clocks, not data — there is no numerical result to
/// check).  Either way the placement comes from a real co-allocation on the
/// overlay, so the two backends are directly comparable point by point.
pub fn run_kernel_once(
    kernel: Fig4Kernel,
    strategy: StrategyKind,
    n: u32,
    settings: &Fig4Settings,
) -> Fig4Point {
    let mut tb = grid5000_testbed(settings.seed.wrapping_add(n as u64), NoiseModel::default());
    let request = JobRequest::new(n, strategy, kernel.program());
    let report = allocate(&mut tb.overlay, tb.submitter, &request);
    let allocation = report.allocation().clone();
    let placement = Placement::from_allocation(&allocation);
    run_kernel_on_placement(kernel, strategy, &placement, &tb.topology, settings)
}

/// Runs (or models) the kernel once over an explicit placement; `strategy`
/// only labels the resulting point (the placement already encodes it).
///
/// Under [`CollectiveBackend::Modeled`] this is the **production** costing
/// of every placed job — the Figure 4 modeled points directly, the day sweep
/// and the shard coordinator once per placement shape through
/// [`ShapeCosts`]: the shape's schedule comes from
/// [`cached_kernel_schedule`] (compiled once per process, see its contract)
/// and [`PlacementCost::cost_of`] evaluates it on the placement, over the
/// same `search::models_for` cost models the placement search optimises against —
/// so a searched objective and a charged makespan are one code path.  The
/// **oracle** is a fresh `ModelComm` replay of `ep_model`/`is_model`/
/// `ft_model`: `tests/modeled_costing.rs` pins this function to it bit for
/// bit, and `ModelComm` itself is pinned to the executed runtime by
/// `model_agreement`.
///
/// # Panics
///
/// Panics on an invalid or replicated placement (modeled), and for
/// [`Fig4Kernel::Ft`] under the executed backend, which has no FT kernel.
pub fn run_kernel_on_placement(
    kernel: Fig4Kernel,
    strategy: StrategyKind,
    placement: &Placement,
    topology: &Arc<Topology>,
    settings: &Fig4Settings,
) -> Fig4Point {
    let (network, compute) = models_for(topology, settings);
    let (makespan, verified) = match (settings.backend, kernel) {
        (CollectiveBackend::Modeled, _) => {
            let hosts = rank_hosts(placement);
            let schedule = cached_kernel_schedule(kernel, settings, placement.processes);
            let makespan = PlacementCost::cost_of(&schedule, &hosts, &network, &compute);
            (makespan, true)
        }
        (CollectiveBackend::Executed, Fig4Kernel::Ep) => {
            let config = EpConfig::sampled(settings.class, settings.ep_sample_divisor);
            let runtime = MpiRuntime::with_models(network, compute);
            let result = runtime.run(placement, move |comm| ep_kernel(comm, &config));
            let ok = result.all_ranks_completed()
                && result.result_of(0).map(|r| r.verify()).unwrap_or(false);
            (result.makespan, ok)
        }
        (CollectiveBackend::Executed, Fig4Kernel::Is) => {
            let config = IsConfig::sampled(settings.class, settings.is_sample_divisor);
            let runtime = MpiRuntime::with_models(network, compute);
            let result = runtime.run(placement, move |comm| is_kernel(comm, &config));
            let ok = result.all_ranks_completed()
                && result.result_of(0).map(|r| r.verified).unwrap_or(false);
            (result.makespan, ok)
        }
        (CollectiveBackend::Executed, Fig4Kernel::Ft) => {
            panic!("FT is model-only (no executed kernel); run it with --modeled")
        }
    };

    Fig4Point {
        processes: placement.processes,
        strategy,
        hosts_used: placement.hosts_used(),
        makespan,
        verified,
    }
}

/// Modeled makespans of a sweep's placed jobs, costed once per placement
/// *shape*: two allocations with the same kernel and rank count whose ranks
/// sit on hosts of the same clusters with the same co-residency cost the
/// same bit for bit, so the second is answered from the first.  See the
/// module docs for the contract.
pub struct ShapeCosts {
    topology: Arc<Topology>,
    settings: Fig4Settings,
    /// The current job's key, reused across calls: kernel, rank count, then
    /// per rank `cluster << 16 | position of its host in the allocation`.
    key: Vec<u32>,
    costs: HashMap<Box<[u32]>, SimDuration>,
}

impl ShapeCosts {
    /// An empty memo for jobs placed on `topology` and costed under
    /// `settings`.
    ///
    /// # Panics
    ///
    /// Panics unless `settings` selects [`CollectiveBackend::Modeled`] (an
    /// executed run is not a function of the shape alone), and on a topology
    /// of 65 536 hosts or more, which the packed key could not tell apart.
    pub fn new(topology: &Arc<Topology>, settings: &Fig4Settings) -> Self {
        assert_eq!(
            settings.backend,
            CollectiveBackend::Modeled,
            "only modeled makespans are a function of the placement shape"
        );
        assert!(
            topology.host_count() < 1 << 16,
            "the shape key packs cluster and host position into 16 bits each"
        );
        ShapeCosts {
            topology: topology.clone(),
            settings: *settings,
            key: Vec::new(),
            costs: HashMap::new(),
        }
    }

    /// The modeled makespan of `kernel` on `allocation`'s placement:
    /// [`run_kernel_on_placement`]'s, computed by it the first time a shape
    /// is seen and remembered after.  `allocation` is one the co-allocator
    /// produced: valid, unreplicated, each host listed once.
    pub fn makespan(&mut self, kernel: Fig4Kernel, allocation: &Allocation) -> SimDuration {
        self.key.clear();
        self.key.push(kernel as u32);
        self.key.push(allocation.processes);
        // A rank the allocation left out keeps a word no host packs to, so
        // a broken allocation misses and is rejected by the model.
        self.key.resize(2 + allocation.processes as usize, u32::MAX);
        for (position, h) in allocation.hosts.iter().enumerate() {
            let cluster = self.topology.host(h.host).cluster.0;
            let packed = (cluster as u32) << 16 | position as u32;
            for ra in &h.ranks {
                self.key[2 + ra.rank as usize] = packed;
            }
        }
        if let Some(&known) = self.costs.get(self.key.as_slice()) {
            debug_assert_eq!(
                known,
                self.cost(kernel, allocation),
                "a placement cost differently from the first of its shape: \
                 the model reads a host through more than cluster and co-residency"
            );
            return known;
        }
        let makespan = self.cost(kernel, allocation);
        self.costs.insert(self.key.as_slice().into(), makespan);
        makespan
    }

    /// How many distinct shapes have been costed.
    pub fn shapes(&self) -> usize {
        self.costs.len()
    }

    fn cost(&self, kernel: Fig4Kernel, allocation: &Allocation) -> SimDuration {
        let placement = Placement::from_allocation(allocation);
        run_kernel_on_placement(
            kernel,
            allocation.strategy,
            &placement,
            &self.topology,
            &self.settings,
        )
        .makespan
    }
}

/// Host booking order the co-allocator uses on an *idle* grid: ascending
/// application-level RTT from the Nancy submitter (the first Nancy host),
/// ties broken by host id.
pub fn hosts_by_rtt(topology: &Topology) -> Vec<HostId> {
    let submitter = topology
        .site_by_name("nancy")
        .map(|s| s.id)
        .unwrap_or_else(|| topology.sites()[0].id);
    let submitter_host = topology
        .hosts_at_site(submitter)
        .next()
        .expect("the submitter site has at least one host")
        .id;
    let mut hosts: Vec<HostId> = topology.hosts().iter().map(|h| h.id).collect();
    hosts.sort_by_key(|&h| (topology.rtt(submitter_host, h), h));
    hosts
}

/// The placement `strategy` produces on an idle grid, built directly from
/// the topology (no overlay booking round): *concentrate* fills each host to
/// its core count in RTT order, *spread* deals one process per host in RTT
/// order, wrapping only once every host is used.  This is what sweep-scale
/// modeled experiments use beyond the real grid's 1040-core capacity, where
/// a live co-allocation could never succeed.
///
/// # Panics
///
/// Panics if `n` exceeds the topology's total cores, or for the `Balanced`
/// strategy (not used by any Figure 4 experiment).
pub fn synthetic_placement(topology: &Topology, strategy: StrategyKind, n: u32) -> Placement {
    assert!(
        n as usize <= topology.total_cores(),
        "{n} processes exceed the grid's {} cores; scale the topology first",
        topology.total_cores()
    );
    let hosts = hosts_by_rtt(topology);
    let mut slots: Vec<HostId> = Vec::with_capacity(n as usize);
    match strategy {
        StrategyKind::Concentrate => {
            'outer: for &h in &hosts {
                for _ in 0..topology.host(h).cores {
                    slots.push(h);
                    if slots.len() == n as usize {
                        break 'outer;
                    }
                }
            }
        }
        StrategyKind::Spread => {
            let mut filled = vec![0usize; hosts.len()];
            'rounds: loop {
                for (i, &h) in hosts.iter().enumerate() {
                    if filled[i] < topology.host(h).cores {
                        filled[i] += 1;
                        slots.push(h);
                        if slots.len() == n as usize {
                            break 'rounds;
                        }
                    }
                }
            }
        }
        StrategyKind::Balanced { .. } | StrategyKind::Searched => {
            panic!("synthetic placements support concentrate and spread only")
        }
    }
    Placement::one_per_host(&slots)
}

/// Measures modeled kernel times for each process count under one strategy,
/// on a Table-1 grid scaled just enough to hold the largest count (see
/// [`p2pmpi_grid5000::sites::scaled_table1`]).  This is the sweep-scale
/// entry point: 1k–4k-rank points complete in seconds because no threads are
/// spawned and no payload bytes move.
pub fn modeled_kernel_times(
    kernel: Fig4Kernel,
    strategy: StrategyKind,
    counts: &[u32],
    settings: &Fig4Settings,
    scale: Option<usize>,
) -> Vec<Fig4Point> {
    let max = counts.iter().copied().max().unwrap_or(0) as usize;
    let factor = scale.unwrap_or_else(|| scale_factor_for_cores(max));
    let topology = topology_from_specs(&scaled_table1(factor));
    let settings = settings.modeled();
    counts
        .iter()
        .map(|&n| {
            let placement = synthetic_placement(&topology, strategy, n);
            run_kernel_on_placement(kernel, strategy, &placement, &topology, &settings)
        })
        .collect()
}

/// Like [`modeled_kernel_times`], but with the placement *searched* instead
/// of fixed: each count runs a parallel-chain annealing search
/// ([`crate::search::search_placement`]) on the same scaled Table-1 grid the
/// synthetic concentrate/spread placements use, so the three curves of a
/// `fig4_* --searched` run are directly comparable point by point.  The
/// returned makespan is the searched placement's modeled cost — never worse
/// than best-of(concentrate, spread) by construction.
pub fn searched_kernel_times(
    kernel: Fig4Kernel,
    counts: &[u32],
    settings: &Fig4Settings,
    scale: Option<usize>,
    params: &crate::search::SearchParams,
) -> Vec<Fig4Point> {
    let max = counts.iter().copied().max().unwrap_or(0) as usize;
    let factor = scale.unwrap_or_else(|| scale_factor_for_cores(max));
    let topology = topology_from_specs(&scaled_table1(factor));
    let settings = settings.modeled();
    counts
        .iter()
        .map(|&n| {
            crate::search::search_placement(&topology, kernel, n, &settings, params).to_fig4_point()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmpi_core::allocation::AllocatedHost;
    use p2pmpi_overlay::{PeerId, RankAssignment, ReservationKey};

    /// An unreplicated allocation listing `(host, its ranks)` in order.
    fn allocation(hosts: &[(usize, &[u32])]) -> Allocation {
        Allocation {
            key: ReservationKey(0),
            processes: hosts.iter().map(|(_, ranks)| ranks.len() as u32).sum(),
            replication: 1,
            strategy: StrategyKind::Concentrate,
            hosts: hosts
                .iter()
                .map(|&(host, ranks)| AllocatedHost {
                    peer: PeerId(host),
                    host: HostId(host),
                    capacity: 4,
                    ranks: ranks
                        .iter()
                        .map(|&rank| RankAssignment { rank, replica: 0 })
                        .collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn same_cluster_hosts_share_a_shape_and_a_hit_returns_the_miss() {
        // Table 1 lists Nancy's 60 grelon nodes first.
        let topology = topology_from_specs(&scaled_table1(1));
        let settings = Fig4Settings::default().modeled();
        let first = allocation(&[(0, &[0, 1, 2, 3]), (1, &[4, 5, 6, 7])]);
        let twin = allocation(&[(41, &[0, 1, 2, 3]), (7, &[4, 5, 6, 7])]);
        let mut costs = ShapeCosts::new(&topology, &settings);
        assert_eq!(costs.shapes(), 0);
        let miss = costs.makespan(Fig4Kernel::Is, &first);
        assert!(miss > SimDuration::ZERO);
        assert_eq!(costs.shapes(), 1);
        assert_eq!(costs.makespan(Fig4Kernel::Is, &twin), miss);
        assert_eq!(costs.makespan(Fig4Kernel::Is, &first), miss);
        assert_eq!(costs.shapes(), 1);
        // The shared entry is what the twin costs on its own: an empty memo
        // can only miss.
        let mut empty = ShapeCosts::new(&topology, &settings);
        assert_eq!(empty.makespan(Fig4Kernel::Is, &twin), miss);
    }

    #[test]
    fn whatever_the_model_reads_is_a_shape_of_its_own() {
        let topology = topology_from_specs(&scaled_table1(1));
        let lyon = topology.site_by_name("lyon").unwrap().id;
        let lyon = topology.hosts_at_site(lyon).next().unwrap().id.0;
        let mut costs = ShapeCosts::new(&topology, &Fig4Settings::default().modeled());
        let base = allocation(&[(0, &[0, 1, 2, 3]), (1, &[4, 5, 6, 7])]);
        costs.makespan(Fig4Kernel::Ep, &base);
        let others = [
            ("kernel", Fig4Kernel::Is, base.clone()),
            (
                "rank count",
                Fig4Kernel::Ep,
                allocation(&[(0, &[0, 1, 2, 3]), (1, &[4, 5, 6])]),
            ),
            (
                "rank to host order",
                Fig4Kernel::Ep,
                allocation(&[(0, &[0, 2, 4, 6]), (1, &[1, 3, 5, 7])]),
            ),
            (
                "co-residency",
                Fig4Kernel::Ep,
                allocation(&[(0, &[0, 1, 2, 3]), (1, &[4, 5]), (2, &[6, 7])]),
            ),
            (
                "cluster",
                Fig4Kernel::Ep,
                allocation(&[(0, &[0, 1, 2, 3]), (lyon, &[4, 5, 6, 7])]),
            ),
        ];
        for (i, (what, kernel, other)) in others.iter().enumerate() {
            costs.makespan(*kernel, other);
            assert_eq!(costs.shapes(), i + 2, "{what} did not open a new shape");
        }
    }

    #[test]
    fn fig4_kernel_metadata() {
        assert_eq!(Fig4Kernel::Ep.program(), "NAS.EP");
        assert_eq!(Fig4Kernel::Is.program(), "NAS.IS");
        assert_eq!(Fig4Kernel::Ft.program(), "NAS.FT");
        let d = Fig4Settings::default();
        assert_eq!(d.class, Class::B);
        assert!(d.ep_sample_divisor > 1);
        let t = Fig4Settings::test_sized();
        assert_eq!(t.class, Class::S);
    }

    #[test]
    fn small_ep_point_runs_and_verifies() {
        let settings = Fig4Settings {
            ep_sample_divisor: 1,
            ..Fig4Settings::test_sized()
        };
        let point = run_kernel_once(Fig4Kernel::Ep, StrategyKind::Concentrate, 8, &settings);
        assert_eq!(point.processes, 8);
        assert!(point.verified);
        assert!(point.makespan > SimDuration::ZERO);
        // 8 processes concentrate onto two quad-core Nancy nodes.
        assert_eq!(point.hosts_used, 2);
    }

    #[test]
    fn small_is_point_runs_and_verifies() {
        let settings = Fig4Settings::test_sized();
        let point = run_kernel_once(Fig4Kernel::Is, StrategyKind::Spread, 8, &settings);
        assert!(point.verified);
        assert_eq!(point.hosts_used, 8);
        assert!(point.makespan > SimDuration::ZERO);
    }

    #[test]
    fn synthetic_placements_mirror_the_strategies() {
        let topology = topology_from_specs(&scaled_table1(1));
        // 64 concentrated processes fill 16 quad-core Nancy nodes.
        let conc = synthetic_placement(&topology, StrategyKind::Concentrate, 64);
        assert_eq!(conc.hosts_used(), 16);
        assert!(conc.validate().is_ok());
        // 64 spread processes take one host each.
        let spread = synthetic_placement(&topology, StrategyKind::Spread, 64);
        assert_eq!(spread.hosts_used(), 64);
        // Spread wraps once every host is used.
        let wrapped = synthetic_placement(&topology, StrategyKind::Spread, 400);
        assert_eq!(wrapped.hosts_used(), 350);
    }

    #[test]
    #[should_panic(expected = "exceed the grid")]
    fn synthetic_placement_rejects_oversubscription() {
        let topology = topology_from_specs(&scaled_table1(1));
        synthetic_placement(&topology, StrategyKind::Spread, 1041);
    }

    #[test]
    fn modeled_ep_point_matches_executed_exactly() {
        // EP's communication is data-independent, so the analytical backend
        // must reproduce the executed virtual makespan bit-for-bit on the
        // same placement.
        let settings = Fig4Settings::test_sized();
        let executed = run_kernel_once(Fig4Kernel::Ep, StrategyKind::Concentrate, 8, &settings);
        let modeled = run_kernel_once(
            Fig4Kernel::Ep,
            StrategyKind::Concentrate,
            8,
            &settings.modeled(),
        );
        assert_eq!(modeled.makespan, executed.makespan);
        assert_eq!(modeled.hosts_used, executed.hosts_used);
        assert!(modeled.verified);
    }

    #[test]
    fn modeled_sweep_scales_past_grid_capacity() {
        // 2048 ranks exceed the paper grid's 1040 cores; the modeled sweep
        // auto-scales the Table-1 grid and still produces a point (this runs
        // in well under a second — the executed backend could not even spawn
        // the threads comfortably).
        let settings = Fig4Settings::test_sized();
        let points = modeled_kernel_times(
            Fig4Kernel::Ep,
            StrategyKind::Spread,
            &[2048],
            &settings,
            None,
        );
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].processes, 2048);
        assert!(points[0].makespan > SimDuration::ZERO);
        // scale factor 2 doubles the grid to 700 hosts; spread wraps them.
        assert_eq!(points[0].hosts_used, 700);
    }

    #[test]
    fn fig2_sweep_first_point_is_nancy_only_under_concentrate() {
        let rows = fig2_fig3_sweep(StrategyKind::Concentrate, 1, 0.0);
        assert_eq!(rows.len(), 11);
        let first = &rows[0];
        assert_eq!(first.demanded, 100);
        assert!(first.success);
        let nancy = first.usage.iter().find(|u| u.site_name == "nancy").unwrap();
        assert_eq!(nancy.processes, 100);
    }
}
