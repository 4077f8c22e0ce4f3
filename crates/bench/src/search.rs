//! Model-driven placement search: simulated annealing over host
//! assignments, with the LogGP model as the objective.
//!
//! The paper compares exactly two fixed allocation strategies — concentrate
//! and spread — because on the physical testbed each Figure 4 point was an
//! expensive real run.  The analytical backend (`p2pmpi_mpi::model`) makes a
//! point cost milliseconds, and its evaluator ([`PlacementCost`]) costs a
//! candidate *move* with one integer pass over the compiled schedule —
//! microseconds at the day mix's shapes — which turns the model from a
//! validator into an optimizer: anneal over host assignments and return a
//! placement at least as good as either fixed strategy (and usually better
//! wherever the grid is heterogeneous).
//!
//! # Moves and feasibility
//!
//! Two move kinds, proposed 50/50:
//!
//! * **swap** — exchange the hosts of two ranks (capacity-neutral);
//! * **migrate** — move one rank to an idle core slot, sampled uniformly
//!   over the grid's free slots via
//!   [`p2pmpi_grid5000::capacity::IdleSlotIndex`].  The evaluator enforces
//!   host capacity independently, so a race between the index and the
//!   bookkeeping cannot oversubscribe a host.
//!
//! # The chain driver
//!
//! [`search_placement`] runs `chains` independent annealing chains on
//! scoped `std::thread`s.  Chains share the compiled schedule (an `Arc`)
//! but own their evaluator, idle-slot index and RNG stream (derived with
//! SplitMix64 from the master seed, so results are reproducible and
//! independent of thread interleaving); the reduction keeps the best-ever
//! placement across chains *and* both fixed baselines, ties broken by
//! chain index — so the search result is never worse than
//! best-of(concentrate, spread) by construction
//! (`search_never_loses_to_the_fixed_strategies` below pins it, and
//! `search_beats_both_baselines_on_the_skewed_grid` pins a >3% win on the
//! heterogeneity-skewed grid).
//!
//! Chains start from a *portfolio* of seeds, cycling speed-greedy
//! concentrate (fill the fastest cores first), the paper's concentrate and
//! spread, and speed-greedy spread.  The portfolio matters: on a
//! heterogeneous grid the makespan landscape has a wide barrier — moving
//! the *first* rank toward a fast remote site makes the job *worse*
//! (cross-site collective latency) until most ranks follow, and EP-style
//! kernels end in a synchronizing bcast that flattens any per-rank
//! gradient.  Annealing is a poor barrier-crosser but an excellent
//! *refiner*, so the greedy seeds carry it over the barrier and the moves
//! then do what no fixed strategy can: trade contention against locality
//! rank by rank (e.g. de-crowding four-resident nodes onto idle same-site
//! hosts).
//!
//! The temperature falls geometrically from 5% of the initial cost to 10⁻⁴
//! of that over the move budget; zero-cost moves are always accepted, which
//! lets rank assignments drift across the plateau a makespan objective
//! (a max over ranks) is full of.

use crate::experiments::{
    deal_hosts, fill_hosts, synthetic_placement, Fig4Kernel, Fig4Point, Fig4Settings,
};
use p2pmpi_core::strategy::StrategyKind;
use p2pmpi_grid5000::capacity::{host_capacities, IdleSlotIndex};
use p2pmpi_mpi::model::{rank_hosts, CompiledSchedule, Move, PlacementCost};
use p2pmpi_mpi::placement::Placement;
use p2pmpi_nas::classes::Class;
use p2pmpi_nas::ep::{ep_schedule, EpConfig};
use p2pmpi_nas::ft::{ft_schedule, FtConfig};
use p2pmpi_nas::is::{is_schedule, IsConfig};
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::memory::MemoryContentionModel;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::rngutil::{derive_seed, seeded};
use p2pmpi_simgrid::time::SimDuration;
use p2pmpi_simgrid::topology::{HostId, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Knobs of one placement search.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams {
    /// Annealing moves per chain.
    pub moves: u64,
    /// Independent chains (scoped threads).
    pub chains: u32,
    /// Master seed; each chain derives its own stream.
    pub seed: u64,
}

impl SearchParams {
    /// The one default table: 4 chains, seed 2008 and a per-kernel move
    /// budget.  An EP move re-derives the transfer times of the few tree
    /// messages its ranks send or receive, then makes one O(n) pass over a
    /// compute phase and one merged tree run (its two allreduces) that
    /// reads a cached time per message, so it can afford the full
    /// 4 000-move budget; an IS or FT move runs an O(n²) wavefront per ring
    /// of its first iteration (IS) or two (FT) — the rest fast-forward —
    /// so their defaults trade moves for wall-clock — the skewed-grid
    /// improvement saturates well before 1 500 moves on the
    /// communication-bound kernels, whose landscape is dominated by the
    /// site-count term rather than per-host speed.
    pub fn default_for(kernel: Fig4Kernel) -> Self {
        let moves = match kernel {
            Fig4Kernel::Ep => 4_000,
            Fig4Kernel::Is | Fig4Kernel::Ft => 1_500,
        };
        SearchParams {
            moves,
            chains: 4,
            seed: 2008,
        }
    }
}

/// The starting placement of one chain of the portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedKind {
    /// The paper's concentrate placement (RTT order).
    Concentrate,
    /// The paper's spread placement (RTT order).
    Spread,
    /// Concentrate onto the fastest cores first (speed order, RTT
    /// tie-break).
    FastConcentrate,
    /// One rank per host, fastest hosts first.
    FastSpread,
}

impl SeedKind {
    /// Portfolio rotation for chain `i`.
    fn for_chain(i: u32) -> SeedKind {
        match i % 4 {
            0 => SeedKind::FastConcentrate,
            1 => SeedKind::Concentrate,
            2 => SeedKind::Spread,
            _ => SeedKind::FastSpread,
        }
    }

    /// The closest paper strategy (labels Figure 4 points).
    fn strategy_label(self) -> StrategyKind {
        match self {
            SeedKind::Concentrate | SeedKind::FastConcentrate => StrategyKind::Concentrate,
            SeedKind::Spread | SeedKind::FastSpread => StrategyKind::Spread,
        }
    }
}

/// What one annealing chain did.
#[derive(Debug, Clone)]
pub struct ChainOutcome {
    /// The seed placement the chain started from.
    pub seed: SeedKind,
    /// Modeled makespan of the starting placement.
    pub initial: SimDuration,
    /// Best makespan the chain ever held.
    pub best: SimDuration,
    /// Moves evaluated (capacity-rejected proposals excluded).
    pub evaluated: u64,
    /// Moves accepted.
    pub accepted: u64,
    /// Best-ever host assignment.
    best_hosts: Vec<HostId>,
}

/// The search result: both fixed baselines and the best placement found.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Rank count searched.
    pub ranks: u32,
    /// Modeled makespan of the synthetic concentrate placement.
    pub concentrate: SimDuration,
    /// Modeled makespan of the synthetic spread placement.
    pub spread: SimDuration,
    /// Best modeled makespan across all chains (≤ the baselines by
    /// construction).
    pub best: SimDuration,
    /// Host of every rank in the best placement.
    pub best_hosts: Vec<HostId>,
    /// The seed of the winning chain (or the winning baseline).
    pub best_seed: SeedKind,
    /// Per-chain outcomes.
    pub chains: Vec<ChainOutcome>,
}

impl SearchReport {
    /// The better of the two fixed strategies.
    pub fn baseline(&self) -> SimDuration {
        self.concentrate.min(self.spread)
    }

    /// Relative improvement over [`SearchReport::baseline`] (0.03 = 3%).
    pub fn improvement(&self) -> f64 {
        let base = self.baseline().as_secs_f64();
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.best.as_secs_f64() / base
    }

    /// Distinct hosts of the best placement.
    pub fn hosts_used(&self) -> usize {
        let mut hosts = self.best_hosts.clone();
        hosts.sort_unstable();
        hosts.dedup();
        hosts.len()
    }

    /// Total moves evaluated across chains.
    pub fn evaluated(&self) -> u64 {
        self.chains.iter().map(|c| c.evaluated).sum()
    }

    /// The best placement as a [`Placement`].
    pub fn best_placement(&self) -> Placement {
        Placement::one_per_host(&self.best_hosts)
    }

    /// The search result as a Figure 4 point (the makespan is the modeled
    /// cost the search optimised, so no re-run is needed; `strategy` labels
    /// the winning chain's seed).
    pub fn to_fig4_point(&self) -> Fig4Point {
        Fig4Point {
            processes: self.ranks,
            strategy: self.best_seed.strategy_label(),
            hosts_used: self.hosts_used(),
            makespan: self.best,
            verified: true,
        }
    }
}

/// Compiles the kernel's collective program for `n` ranks (the `p2pmpi-nas`
/// schedule hooks), honouring the settings' class and sample divisors.
/// Always compiles; everything in this crate that costs or searches a
/// placement goes through [`cached_kernel_schedule`] instead.
pub fn kernel_schedule(kernel: Fig4Kernel, settings: &Fig4Settings, n: u32) -> CompiledSchedule {
    match kernel {
        Fig4Kernel::Ep => ep_schedule(
            &EpConfig::sampled(settings.class, settings.ep_sample_divisor),
            n,
        ),
        Fig4Kernel::Is => is_schedule(
            &IsConfig::sampled(settings.class, settings.is_sample_divisor),
            n,
        ),
        Fig4Kernel::Ft => ft_schedule(&FtConfig::new(settings.class), n),
    }
}

/// Everything [`kernel_schedule`] reads: two calls with equal keys compile
/// equal schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ScheduleKey {
    kernel: Fig4Kernel,
    class: Class,
    ep_sample_divisor: u64,
    is_sample_divisor: u64,
    ranks: u32,
}

/// [`kernel_schedule`] through a process-wide compile-once cache: a compiled
/// schedule is placement-independent, so every job, search chain and online
/// evaluator of one shape shares one `Arc`.
///
/// **Contract.**  The key is everything the compile reads — kernel, class,
/// both sample divisors, rank count — so a hit is always the schedule a
/// fresh compile would produce.  The lock covers the map lookup and the
/// insert only, never a compile or an evaluation; two threads meeting a
/// fresh shape may both compile it, the first insert wins and both return
/// that entry.  Entries are never evicted: the cache holds one schedule per
/// distinct (kernel, settings, rank count) the process ever costs, each
/// O(ranks) bytes per distinct tree run (equal runs pool: IS's ten
/// allreduces are one) and per distinct compute phase, plus the runs'
/// per-rank incidence ([`CompiledSchedule::heap_bytes`]) — six shapes for
/// a day sweep (EP@8–128, IS@8/32: 28 KB together); the largest the
/// benchmark and CI build, IS@1024, is 95 KB (a `--ranks` sweep adds one
/// entry per point: IS@4096 is 378 KB).
pub fn cached_kernel_schedule(
    kernel: Fig4Kernel,
    settings: &Fig4Settings,
    n: u32,
) -> Arc<CompiledSchedule> {
    static CACHE: OnceLock<Mutex<HashMap<ScheduleKey, Arc<CompiledSchedule>>>> = OnceLock::new();
    const POISON: &str = "nothing panics while holding the schedule cache lock";
    let cache = CACHE.get_or_init(Default::default);
    let key = ScheduleKey {
        kernel,
        class: settings.class,
        ep_sample_divisor: settings.ep_sample_divisor,
        is_sample_divisor: settings.is_sample_divisor,
        ranks: n,
    };
    if let Some(hit) = cache.lock().expect(POISON).get(&key) {
        return hit.clone();
    }
    let compiled = Arc::new(kernel_schedule(kernel, settings, n));
    cache
        .lock()
        .expect(POISON)
        .entry(key)
        .or_insert(compiled)
        .clone()
}

/// The cost models every modeled costing shares — `run_kernel_on_placement`,
/// the search chains and the online search context — so the searched
/// objective and the charged makespan agree exactly.
pub(crate) fn models_for(
    topology: &Arc<Topology>,
    settings: &Fig4Settings,
) -> (NetworkModel, ComputeModel) {
    let network = NetworkModel::new(topology.clone());
    let compute = match settings.contention_alpha {
        Some(alpha) => ComputeModel::with_contention(
            topology.clone(),
            MemoryContentionModel::with_alpha(alpha),
        ),
        None => ComputeModel::new(topology.clone()),
    };
    (network, compute)
}

/// Host of each rank of a placement, indexed by rank
/// ([`p2pmpi_mpi::model::rank_hosts`] under the name `perf_report` and the
/// repo benchmark call when they rebuild an evaluator from a synthetic
/// placement).
pub fn placement_rank_hosts(placement: &Placement) -> Vec<HostId> {
    rank_hosts(placement)
}

/// Proposes one move: 50/50 swap vs migrate-to-a-uniform-idle-slot.
fn propose(rng: &mut StdRng, n: u32, idle: &IdleSlotIndex) -> Move {
    if idle.free_slots() > 0 && rng.gen_range(0u32..2) == 1 {
        let rank = rng.gen_range(0..n);
        let slot = rng.gen_range(0..idle.free_slots());
        Move::Migrate {
            rank,
            to: idle.nth_free_slot(slot),
        }
    } else {
        Move::Swap {
            a: rng.gen_range(0..n),
            b: rng.gen_range(0..n),
        }
    }
}

/// Host booking order by descending core speed (ascending RTT from Nancy's
/// first host as the tie-break, then host id) — the compute-greedy
/// counterpart of `experiments::hosts_by_rtt`.
fn hosts_by_speed(topology: &Topology) -> Vec<HostId> {
    let rtt_order = crate::experiments::hosts_by_rtt(topology);
    let mut rtt_rank = vec![0usize; topology.host_count()];
    for (i, &h) in rtt_order.iter().enumerate() {
        rtt_rank[h.0] = i;
    }
    let mut hosts: Vec<HostId> = topology.hosts().iter().map(|h| h.id).collect();
    hosts.sort_by(|&a, &b| {
        let speed = topology
            .host(b)
            .ops_per_sec
            .partial_cmp(&topology.host(a).ops_per_sec)
            .expect("finite rates");
        speed
            .then(rtt_rank[a.0].cmp(&rtt_rank[b.0]))
            .then(a.cmp(&b))
    });
    hosts
}

/// Builds one seed placement of the portfolio.
fn seed_hosts(topology: &Topology, seed: SeedKind, n: u32) -> Vec<HostId> {
    let cores = |h: HostId| topology.host(h).cores;
    match seed {
        SeedKind::Concentrate => {
            placement_rank_hosts(&synthetic_placement(topology, StrategyKind::Concentrate, n))
        }
        SeedKind::Spread => {
            placement_rank_hosts(&synthetic_placement(topology, StrategyKind::Spread, n))
        }
        SeedKind::FastConcentrate => fill_hosts(&hosts_by_speed(topology), cores, n as usize),
        SeedKind::FastSpread => deal_hosts(&hosts_by_speed(topology), cores, n as usize),
    }
}

/// What one annealing walk did (the chain- and context-independent core of
/// a [`ChainOutcome`]).
struct AnnealOutcome {
    initial: SimDuration,
    best: SimDuration,
    best_hosts: Vec<HostId>,
    evaluated: u64,
    accepted: u64,
}

/// The annealing walk proper, over an evaluator and idle-slot index the
/// caller built ([`run_chain`] per chain, a [`SearchContext`] per arrival).
/// Leaves `cost` at the last *accepted* assignment.  Deterministic per
/// `chain_seed` for a given starting state.
fn anneal(
    cost: &mut PlacementCost,
    idle: &mut IdleSlotIndex,
    moves: u64,
    chain_seed: u64,
) -> AnnealOutcome {
    let mut rng = seeded(chain_seed);
    let n = cost.hosts().len() as u32;

    // Acceptance energy: the makespan plus a small multiple of the mean
    // per-rank clock.  A pure-makespan objective is a max() full of
    // plateaus — moving one rank off the slowest host leaves the maximum
    // unchanged, so nothing ratchets; the mean term restores a gradient
    // across those plateaus while staying too small to trade real makespan
    // away.  Best-placement tracking below is on the pure makespan.
    const MEAN_WEIGHT: f64 = 0.1;
    let energy = |makespan: SimDuration, mean: f64| makespan.as_secs_f64() + MEAN_WEIGHT * mean;

    let initial = cost.cost();
    let mut current_energy = energy(initial, cost.mean_clock_secs());
    let mut best = initial;
    let mut best_hosts = cost.hosts().to_vec();
    let t0 = (initial.as_secs_f64() * 0.05).max(1e-12);
    let t_end = t0 * 1e-4;
    let cooling = (t_end / t0).powf(1.0 / moves.max(1) as f64);
    let mut temp = t0;
    let mut evaluated = 0u64;
    let mut accepted = 0u64;

    for _ in 0..moves {
        let mv = propose(&mut rng, n, idle);
        // The idle index mirrors *committed* state: capture the migrate's
        // source before the evaluator mutates the assignment.
        let migrate_from = match mv {
            Move::Migrate { rank, .. } => Some(cost.hosts()[rank as usize]),
            Move::Swap { .. } => None,
        };
        temp *= cooling;
        let candidate = match cost.apply(mv) {
            Ok(c) => c,
            Err(_) => continue, // full host: nothing was mutated
        };
        evaluated += 1;
        let candidate_energy = energy(candidate, cost.mean_clock_secs());
        let delta = candidate_energy - current_energy;
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
        if !accept {
            cost.undo();
            continue;
        }
        cost.commit();
        accepted += 1;
        if let (Move::Migrate { to, .. }, Some(from)) = (mv, migrate_from) {
            if to != from {
                idle.release(from);
                let taken = idle.occupy(to);
                debug_assert!(taken, "evaluator accepted a move onto a full host");
            }
        }
        current_energy = candidate_energy;
        if candidate < best {
            best = candidate;
            best_hosts.clear();
            best_hosts.extend_from_slice(cost.hosts());
        }
    }

    AnnealOutcome {
        initial,
        best,
        best_hosts,
        evaluated,
        accepted,
    }
}

/// One annealing chain.
fn run_chain(
    schedule: Arc<CompiledSchedule>,
    topology: &Arc<Topology>,
    settings: &Fig4Settings,
    seed: SeedKind,
    initial_hosts: &[HostId],
    moves: u64,
    chain_seed: u64,
) -> ChainOutcome {
    let (network, compute) = models_for(topology, settings);
    let mut cost = PlacementCost::new(
        schedule,
        initial_hosts.to_vec(),
        host_capacities(topology),
        network,
        compute,
    );
    let mut idle = IdleSlotIndex::for_placement(topology, initial_hosts);
    let a = anneal(&mut cost, &mut idle, moves, chain_seed);
    ChainOutcome {
        seed,
        initial: a.initial,
        best: a.best,
        evaluated: a.evaluated,
        accepted: a.accepted,
        best_hosts: a.best_hosts,
    }
}

/// Runs the parallel-chain annealing search for `n` ranks of `kernel` on
/// `topology` and returns the baselines plus the best placement found.
///
/// # Panics
///
/// Panics if `n` exceeds the topology's total cores (searches run on
/// synthetic placements, like the modeled sweeps) or `params.chains == 0`.
pub fn search_placement(
    topology: &Arc<Topology>,
    kernel: Fig4Kernel,
    n: u32,
    settings: &Fig4Settings,
    params: &SearchParams,
) -> SearchReport {
    assert!(params.chains >= 1, "need at least one chain");
    let schedule = cached_kernel_schedule(kernel, settings, n);
    let concentrate_hosts = seed_hosts(topology, SeedKind::Concentrate, n);
    let spread_hosts = seed_hosts(topology, SeedKind::Spread, n);

    let chain_seeds: Vec<(SeedKind, Vec<HostId>)> = (0..params.chains)
        .map(|i| {
            let kind = SeedKind::for_chain(i);
            (kind, seed_hosts(topology, kind, n))
        })
        .collect();

    let outcomes: Vec<ChainOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = chain_seeds
            .iter()
            .enumerate()
            .map(|(i, (kind, hosts))| {
                let schedule = schedule.clone();
                let chain_seed = derive_seed(params.seed, 0x5EA7C4 ^ i as u64);
                scope.spawn(move || {
                    run_chain(
                        schedule,
                        topology,
                        settings,
                        *kind,
                        hosts,
                        params.moves,
                        chain_seed,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("annealing chain panicked"))
            .collect()
    });

    // The fixed baselines are part of the reduction whether or not a chain
    // started from them, so the result can never lose to either.
    // Costed by the evaluator's full pass — bit-equal to a `ModelComm`
    // replay, and to the `initial` of a chain seeded there.
    let baseline_cost = |hosts: &[HostId]| -> SimDuration {
        let (network, compute) = models_for(topology, settings);
        PlacementCost::cost_of(&schedule, hosts, &network, &compute)
    };
    let concentrate = outcomes
        .iter()
        .find(|c| c.seed == SeedKind::Concentrate)
        .map(|c| c.initial)
        .unwrap_or_else(|| baseline_cost(&concentrate_hosts));
    let spread = outcomes
        .iter()
        .find(|c| c.seed == SeedKind::Spread)
        .map(|c| c.initial)
        .unwrap_or_else(|| baseline_cost(&spread_hosts));

    let mut candidates: Vec<(SimDuration, &[HostId], SeedKind)> = vec![
        (concentrate, &concentrate_hosts[..], SeedKind::Concentrate),
        (spread, &spread_hosts[..], SeedKind::Spread),
    ];
    candidates.extend(outcomes.iter().map(|c| (c.best, &c.best_hosts[..], c.seed)));
    let (best, best_hosts, best_seed) = candidates
        .iter()
        .enumerate()
        // Cost ties resolve toward the *earliest* candidate — i.e. a
        // baseline beats an equal-cost chain, keeping ties deterministic
        // and baseline-labelled (exactly what "no worse than best-of"
        // reports: an equal result is the baseline, not a lucky walk).
        .min_by_key(|(i, (cost, _, _))| (*cost, *i))
        .map(|(_, &(cost, hosts, kind))| (cost, hosts.to_vec(), kind))
        .expect("candidates is never empty");

    SearchReport {
        ranks: n,
        concentrate,
        spread,
        best,
        best_hosts,
        best_seed,
        chains: outcomes,
    }
}

// --- online per-arrival search (the day sweep's `searched` strategy) -----

/// Knobs of the *online* per-arrival search.
#[derive(Debug, Clone, Copy)]
pub struct OnlineSearchParams {
    /// Annealing moves per arrival.  One chain only: the speed-greedy
    /// capped seed is the portfolio leader on every grid the sweep runs,
    /// and per-arrival wall budget is the scarce resource.
    pub moves: u64,
    /// Master seed; every arrival derives its own RNG stream.
    pub seed: u64,
}

impl Default for OnlineSearchParams {
    fn default() -> Self {
        OnlineSearchParams {
            moves: 300,
            seed: 2008,
        }
    }
}

/// Counters of a day's online searching.  The nano counters are wall-clock
/// (diagnostics only — never compared by determinism pins).
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineSearchStats {
    /// Searched-strategy arrivals seen.
    pub arrivals: u64,
    /// Arrivals that produced a plan.
    pub searched: u64,
    /// Arrivals the free cores could not hold (fell back to the fixed
    /// distribution over whatever brokering grants).
    pub infeasible: u64,
    /// Annealing moves evaluated across all arrivals.
    pub moves_evaluated: u64,
    /// Wall nanoseconds spent in `prepare` (seed repair and evaluator
    /// build), infeasible arrivals included.
    pub prepare_nanos: u64,
    /// Wall nanoseconds spent annealing.
    pub anneal_nanos: u64,
}

/// The evaluator and idle-slot index [`SearchContext::prepare`] built for
/// the arrival being searched.
struct Prepared {
    kernel: Fig4Kernel,
    ranks: u32,
    cost: PlacementCost,
    idle: IdleSlotIndex,
}

/// The online search state the day sweep threads through
/// `SweepCore::submit`.  Every arrival gets a fresh [`PlacementCost`] and
/// [`IdleSlotIndex`] over the process-wide cached schedule
/// ([`cached_kernel_schedule`]); the only state carried from one arrival to
/// the next is `last_plan`, the previous annealed plan of each kernel shape,
/// which seeds the shape's next walk (`Self::seed_for`).
pub struct SearchContext {
    topology: Arc<Topology>,
    settings: Fig4Settings,
    params: OnlineSearchParams,
    /// What [`Self::prepare`] built and [`Self::anneal_prepared`] consumes.
    prepared: Option<Prepared>,
    /// Host order by descending core speed (static topology data, computed
    /// once, drives the capped seed placement).
    speed_order: Vec<HostId>,
    /// The last plan annealed per shape: the next arrival of that shape
    /// seeds from it, repaired for the new occupancy (see
    /// [`Self::seed_for`]).  It is part of the deterministic search
    /// trajectory, not a cache: dropping it changes the plans.
    last_plan: Vec<(Fig4Kernel, u32, Vec<HostId>)>,
    stats: OnlineSearchStats,
}

impl SearchContext {
    /// A context that has searched nothing yet (every shape's first arrival
    /// seeds from `Self::seed_hosts_capped`).
    pub fn new(
        topology: Arc<Topology>,
        settings: Fig4Settings,
        params: OnlineSearchParams,
    ) -> SearchContext {
        let speed_order = hosts_by_speed(&topology);
        SearchContext {
            topology,
            settings,
            params,
            prepared: None,
            speed_order,
            last_plan: Vec::new(),
            stats: OnlineSearchStats::default(),
        }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> OnlineSearchStats {
        self.stats
    }

    /// The search's seed placement under per-host free capacities:
    /// concentrate onto the fastest free cores.  `None` when the free
    /// cores cannot hold `n` ranks.
    fn seed_hosts_capped(&self, caps: &[u32], n: u32) -> Option<Vec<HostId>> {
        let slots = fill_hosts(&self.speed_order, |h| caps[h.0] as usize, n as usize);
        // A 0-rank job has no placement to search.
        (n > 0 && slots.len() == n as usize).then_some(slots)
    }

    /// The seed placement of one arrival: the shape's previous annealed
    /// plan, repaired for the new occupancy — every rank whose host still
    /// has a free slot stays put (first keeper wins a contended slot), the
    /// displaced ones take the fastest remaining free cores.  Falls back
    /// to [`Self::seed_hosts_capped`] on a shape's first sighting.  The
    /// repair starts each walk from what the last one learned: between two
    /// arrivals of a shape only the cores that changed hands displace
    /// ranks.  `None` when the free cores cannot hold `n` ranks (the same
    /// condition as the capped seed).
    fn seed_for(&self, kernel: Fig4Kernel, n: u32, caps: &[u32]) -> Option<Vec<HostId>> {
        let Some((_, _, prev)) = self
            .last_plan
            .iter()
            .find(|(k, r, _)| *k == kernel && *r == n)
        else {
            return self.seed_hosts_capped(caps, n);
        };
        let mut free = caps.to_vec();
        let kept: Vec<Option<HostId>> = prev
            .iter()
            .map(|&h| {
                if free[h.0] > 0 {
                    free[h.0] -= 1;
                    Some(h)
                } else {
                    None
                }
            })
            .collect();
        let displaced = kept.iter().filter(|k| k.is_none()).count();
        let spill = fill_hosts(&self.speed_order, |h| free[h.0] as usize, displaced);
        if spill.len() < displaced {
            return None;
        }
        let mut spill = spill.into_iter();
        Some(
            kept.into_iter()
                .map(|k| k.unwrap_or_else(|| spill.next().expect("one spill slot per displaced")))
                .collect(),
        )
    }

    /// Phase 1 of one arrival: build the evaluator and idle-slot index for
    /// the kernel shape over the grid's current free capacities, seeded by
    /// `Self::seed_for`.  Returns the token [`Self::anneal_prepared`]
    /// takes, or `None` when the free cores cannot hold the job.
    pub fn prepare(&mut self, kernel: Fig4Kernel, n: u32, caps: &[u32]) -> Option<usize> {
        let seed = self.seed_for(kernel, n, caps)?;
        let schedule = cached_kernel_schedule(kernel, &self.settings, n);
        let (network, compute) = models_for(&self.topology, &self.settings);
        let cost = PlacementCost::new(schedule, seed, caps.to_vec(), network, compute);
        let free: Vec<u32> = caps
            .iter()
            .enumerate()
            .map(|(h, &cap)| cap - cost.residents_on(HostId(h)))
            .collect();
        let idle = IdleSlotIndex::from_capacities(&free);
        self.prepared = Some(Prepared {
            kernel,
            ranks: n,
            cost,
            idle,
        });
        Some(0)
    }

    /// Phase 2: the annealing walk over what [`Self::prepare`] just built
    /// (`_token` is its return value).  `arrival` indexes the job so every
    /// arrival gets its own derived RNG stream.
    ///
    /// # Panics
    ///
    /// Panics unless a successful `prepare` ran since the last walk.
    pub fn anneal_prepared(&mut self, _token: usize, arrival: u64) -> Vec<HostId> {
        let chain_seed = derive_seed(self.params.seed, 0x0A11 ^ arrival);
        let Prepared {
            kernel,
            ranks,
            mut cost,
            mut idle,
        } = self
            .prepared
            .take()
            .expect("prepare builds the evaluator of every walk");
        let a = anneal(&mut cost, &mut idle, self.params.moves, chain_seed);
        self.stats.moves_evaluated += a.evaluated;
        match self
            .last_plan
            .iter_mut()
            .find(|(k, r, _)| *k == kernel && *r == ranks)
        {
            Some(slot) => slot.2.clone_from(&a.best_hosts),
            None => self.last_plan.push((kernel, ranks, a.best_hosts.clone())),
        }
        a.best_hosts
    }

    /// One arrival's full search: prepare, anneal, count.  Returns the
    /// per-rank host assignment of the best placement found, or `None`
    /// when the grid cannot hold the job.
    pub fn searched_hosts(
        &mut self,
        kernel: Fig4Kernel,
        n: u32,
        caps: &[u32],
        arrival: u64,
    ) -> Option<Vec<HostId>> {
        self.stats.arrivals += 1;
        let start = std::time::Instant::now();
        let token = self.prepare(kernel, n, caps);
        let prepared = std::time::Instant::now();
        self.stats.prepare_nanos += (prepared - start).as_nanos() as u64;
        let Some(idx) = token else {
            self.stats.infeasible += 1;
            return None;
        };
        let hosts = self.anneal_prepared(idx, arrival);
        self.stats.anneal_nanos += prepared.elapsed().as_nanos() as u64;
        self.stats.searched += 1;
        Some(hosts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmpi_grid5000::sites::{scaled_table1, skewed_table1};
    use p2pmpi_grid5000::testbed::topology_from_specs;

    fn quick_params(seed: u64) -> SearchParams {
        SearchParams {
            moves: 600,
            chains: 2,
            seed,
        }
    }

    #[test]
    fn search_never_loses_to_the_fixed_strategies() {
        let topology = topology_from_specs(&scaled_table1(1));
        let settings = Fig4Settings::test_sized();
        for kernel in [Fig4Kernel::Ep, Fig4Kernel::Is, Fig4Kernel::Ft] {
            let report = search_placement(&topology, kernel, 32, &settings, &quick_params(11));
            assert!(
                report.best <= report.baseline(),
                "{kernel:?}: searched {} vs baseline {}",
                report.best,
                report.baseline()
            );
            assert_eq!(report.best_hosts.len(), 32);
            // The best placement is capacity-feasible.
            let placement = report.best_placement();
            assert!(placement.validate().is_ok());
            let residents = placement.residents_per_host();
            for (&host, &count) in &residents {
                assert!(count <= topology.host(host).cores);
            }
        }
    }

    #[test]
    fn search_beats_both_baselines_on_the_skewed_grid() {
        // Concentrate books the (halved) Nancy nodes and spread deals one
        // rank to every slow host in RTT order: a compute-bound kernel must
        // find the boosted Opteron clusters instead.
        let topology = topology_from_specs(&skewed_table1(1));
        let settings = Fig4Settings::test_sized();
        let report = search_placement(
            &topology,
            Fig4Kernel::Ep,
            64,
            &settings,
            &SearchParams {
                moves: 2_500,
                chains: 2,
                seed: 5,
            },
        );
        assert!(
            report.improvement() > 0.03,
            "only {:.2}% better than best-of(concentrate, spread)",
            report.improvement() * 100.0
        );
    }

    #[test]
    fn per_kernel_move_budgets() {
        let ep = SearchParams::default_for(Fig4Kernel::Ep);
        let is = SearchParams::default_for(Fig4Kernel::Is);
        assert!(is.moves < ep.moves, "ring kernels get a smaller budget");
        assert_eq!((is.chains, is.seed), (ep.chains, ep.seed));
        assert_eq!(is.moves, SearchParams::default_for(Fig4Kernel::Ft).moves);
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let topology = topology_from_specs(&scaled_table1(1));
        let settings = Fig4Settings::test_sized();
        let a = search_placement(&topology, Fig4Kernel::Ep, 24, &settings, &quick_params(7));
        let b = search_placement(&topology, Fig4Kernel::Ep, 24, &settings, &quick_params(7));
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_hosts, b.best_hosts);
        let c = search_placement(&topology, Fig4Kernel::Ep, 24, &settings, &quick_params(8));
        // A different seed walks differently (costs may tie, hosts differ
        // with overwhelming probability on a 350-host grid).
        assert!(c.best_hosts != a.best_hosts || c.best == a.best);
    }

    #[test]
    fn single_chain_still_covers_both_baselines() {
        let topology = topology_from_specs(&scaled_table1(1));
        let settings = Fig4Settings::test_sized();
        let report = search_placement(
            &topology,
            Fig4Kernel::Is,
            16,
            &settings,
            &SearchParams {
                moves: 50,
                chains: 1,
                seed: 3,
            },
        );
        assert!(report.best <= report.concentrate.min(report.spread));
        assert!(report.spread > SimDuration::ZERO);
        assert!(report.concentrate > SimDuration::ZERO);
    }

    #[test]
    fn is128_report_is_pinned() {
        // The benchmark's smoke shape of `search_is1024`: one chain from
        // the speed-greedy seed, so both fixed baselines are costed on
        // their own and enter the winner reduction.  Values captured
        // before the baselines moved from a `ModelComm` replay to
        // `PlacementCost::cost_of`.
        let topology = topology_from_specs(&scaled_table1(1));
        let settings = Fig4Settings::default().modeled();
        let report = search_placement(
            &topology,
            Fig4Kernel::Is,
            128,
            &settings,
            &SearchParams {
                moves: 20,
                chains: 1,
                seed: 2008,
            },
        );
        assert_eq!(
            (
                report.concentrate.as_nanos(),
                report.spread.as_nanos(),
                report.baseline().as_nanos(),
                report.best.as_nanos(),
            ),
            (446_798_289, 9_740_286_009, 446_798_289, 398_087_399)
        );
    }
}
