//! LogGP-style analytical cost model of the collective operations — and the
//! incremental (delta) placement evaluator built on top of it.
//!
//! The executed runtime ([`crate::runtime::MpiRuntime::run`]) spawns one OS
//! thread per rank and lets the virtual-time cost of a collective *emerge*
//! from thousands of point-to-point messages.  That is faithful but caps
//! Figure 4 sweeps at a few hundred ranks.  This module predicts the same
//! virtual clocks *analytically*: one scalar clock per rank, advanced by
//! walking the exact message schedule of each collective (binomial
//! broadcast/reduce trees, the ring alltoall(v) schedule, linear
//! gather/scatter) under the LogGP cost algebra below — no threads, no
//! channels, no payload bytes.  A 2048-rank NAS-IS iteration that would need
//! 2048 threads and ~4 M channel messages becomes ~4 M scalar clock updates,
//! so sweeps scale to thousands of ranks in seconds.
//!
//! # The LogGP parameterisation
//!
//! LogGP (Alexandrov et al., after the LogP model of Culler et al.) describes
//! a network by:
//!
//! * **L** — the one-way wire latency between two hosts,
//! * **o** — the per-message CPU overhead paid by the software stack,
//! * **g** — the minimum gap between consecutive message injections,
//! * **G** — the gap per byte, i.e. the reciprocal bandwidth for long
//!   messages.
//!
//! The executed runtime's transfer rule (see `p2pmpi_simgrid::network`) is
//!
//! ```text
//! sender:   clock += o                      (software overhead, per message)
//! receiver: clock  = max(clock, sent_at + L + o + bytes·framing·8/bw)
//! ```
//!
//! which is exactly a LogGP cost with `L = rtt/2`, `o` the per-message
//! software overhead on either side, `g = o` (the sender can inject the next
//! message as soon as it has paid the overhead of the previous one) and
//! `G = framing · 8 / bandwidth` seconds per byte.  [`LogGpParams::between`]
//! exposes this mapping for a host pair.
//!
//! ## How Grid'5000 link specs map to L/o/g/G
//!
//! The `p2pmpi-grid5000` crate builds its topology from the paper's Table 1
//! and figure legends (`p2pmpi_grid5000::sites`), and those published specs
//! are precisely what instantiate the four parameters:
//!
//! * **L** comes from `RTT_TO_NANCY_MS` (halved): e.g. Nancy↔Sophia has an
//!   RTT of 17.167 ms, so `L ≈ 8.58 ms`; two hosts of the same site use the
//!   intra-site RTT of 0.087 ms (`L ≈ 43 µs`), and co-located processes the
//!   loopback RTT.
//! * **o** and **g** are the 35 µs per-message software overhead of the
//!   2008-era Java/TCP stack (`NetworkParams::per_message_overhead`), the
//!   same on every link.
//! * **G** comes from `wan_bandwidth_bps` and the NIC rate: 10 Gbps between
//!   most sites but 1 Gbps on any link touching Bordeaux and 1 Gbps at every
//!   NIC, times the 1.05 protocol-framing factor — so
//!   `G = 1.05 · 8 / min(link, NIC) ≈ 8.4 ns/byte` on a 1 Gbps bottleneck.
//!
//! # One schedule, three interpreters
//!
//! The collective schedules themselves — which rank messages which rank, in
//! what order, with how many bytes — depend only on the communicator size,
//! never on the placement.  They are therefore expressed once, as the
//! *default methods* of [`CollectiveProgram`], in terms of four placement-
//! independent primitives (`compute`, `advance`, `message`, `ring_exchange`).
//! Three interpreters consume them:
//!
//! * [`ModelComm`] executes the primitives immediately on per-rank scalar
//!   clocks — the **oracle**;
//! * [`ScheduleBuilder`] records them into a [`CompiledSchedule`], a flat,
//!   placement-independent representation of the whole kernel;
//! * [`PlacementCost`] evaluates a compiled schedule on a host assignment —
//!   the **production** evaluator, in two forms over one full-pass routine:
//!   [`PlacementCost::cost_of`] costs one fixed assignment (every placed
//!   job of a sweep, every modeled Figure 4 point), and a `PlacementCost`
//!   *value* re-costs a *mutable* assignment incrementally (the placement
//!   search).
//!
//! Because all three share the default-method schedules, "the model", "the
//! recorded schedule" and "the evaluator" cannot drift apart: the property
//! tests pin `PlacementCost` to a fresh [`ModelComm`] replay
//! (`CompiledSchedule::drive`) per-rank-exactly.
//!
//! ## Oracle and production
//!
//! `ModelComm` is the reference: it is the interpreter pinned to the
//! *executed* runtime (`tests/model_agreement.rs`), it costs every message
//! through one `NetworkModel::transfer_time` call, and nothing is cached.
//! That makes it easy to trust and slow — 300–380 µs for one IS@32 job,
//! O(ranks²) transfer computations per ring.  It therefore runs only where
//! a second opinion is wanted: [`PlacementCost::oracle_cost`], the property
//! tests, `is_search_soak`, the facade's `modeled_costing` test, and the
//! benchmark's replay check.
//!
//! Everything that *charges* a makespan goes through the evaluator's full
//! pass instead: tree messages through a `(byte size, link class)` memo,
//! rings through pooled transfer tables and a branchless u64 wavefront
//! (~2 ns per receive).  The same pass fills the delta caches of a
//! searching `PlacementCost`, so the objective a search optimises and the
//! makespan a sweep charges are one code path, not two that agree.
//! `cost_of` keeps none of the search's state — no per-segment clocks, no
//! journal, no per-host resident lists, nothing sized by the topology's
//! host count beyond one zeroed counter per host — so small jobs gain too:
//! measured on the day mix's shapes, EP@8–128 costs 0.4–3 µs where the
//! `ModelComm` replay took 0.9–30 µs, IS@8 5 µs against 20, IS@32 ~40 µs
//! against ~300.
//!
//! A compiled schedule is placement-independent, so callers compile each
//! kernel shape once and share it (`p2pmpi_bench::search::
//! cached_kernel_schedule` is the process-wide cache; its contract is
//! documented there).
//!
//! # The delta-evaluation contract
//!
//! [`PlacementCost`] exists to make *placement search* cheap: simulated
//! annealing proposes a move (swap two ranks' hosts, or migrate one rank to
//! an idle slot), asks for the new modeled makespan, and keeps or reverts
//! it.  A full model replay costs O(schedule) per proposal; the delta
//! evaluator costs O(affected ranks).
//!
//! **What is cached.**  Per segment of the compiled schedule (a compute
//! phase, a run of tree messages, one ring collective), `PlacementCost`
//! keeps the per-rank clocks at the segment boundary; per tree message, the
//! (`in_src`, `in_dst`, `out_dst`) clock triple of its last evaluation; and
//! a memo of LogGP transfer times keyed by (byte count, link class) — link
//! class meaning same-host / directed site pair, the only thing the
//! transfer cost depends on; the schedule interns its handful of distinct
//! message sizes at compile time, so the memo is a dense table and a lookup
//! is one indexed load.  Ring segments keep no per-step clocks at all:
//! they share *pooled transfer tables*, one per distinct `Uniform`/`PerSrc`
//! byte structure among the schedule's rings (pooled at compile time, in
//! the schedule).  A `Uniform` ring (same byte
//! count on every edge) collapses to one loopback scalar plus a
//! *site×site* matrix (`site[src_site · sites + dst_site]`) keyed by static
//! topology data only — O(sites²) bytes and **move-invariant**.  A
//! `PerSrc` ring keeps each source rank's transfer nanoseconds to a
//! co-resident (`tsame[src]`) and to a host at every destination site
//! (`tsite[src · sites + site]`) — O(ranks · sites) bytes, independent of
//! the step count.
//!
//! **What a move invalidates.**  A move changes (a) the transfer cost of
//! every message whose *endpoint rank* moved, and (b) the compute cost of
//! every rank whose host or whose host's *resident count* changed (a swap
//! preserves all resident counts; a migrate changes two hosts').  The delta
//! pass walks the schedule visiting only operations whose inputs changed:
//! a per-rank sorted index of tree messages seeds a worklist with the moved
//! ranks' messages, and dirtiness propagates forward — a rank whose
//! recomputed clock *re-matches* the cached trajectory leaves the dirty set
//! immediately (the `max()` in the receive rule absorbs most perturbations),
//! which is what bounds the affected set in practice.  A moved rank whose
//! *site* changed additionally rewrites its `tsite` row in every pooled
//! `PerSrc` table (journaled as `RingRow` entries); `tsame` is
//! host-independent and `Uniform` tables are site-keyed, so neither ever
//! changes.  A ring segment is then re-run as a two-row integer
//! *wavefront* over the tables — `C[d] = max(C'[d], C'[src] + t) + o` per
//! step, pure u64 nanosecond arithmetic, no float math and no hashing, over
//! a per-rank host/site view and co-location list derived once per pass — and
//! only the exit clocks that differ from the segment boundary are journaled
//! and carried forward as the dirty frontier.  Every cache mutation is
//! journaled, so [`PlacementCost::undo`] restores the pre-move state
//! exactly and [`PlacementCost::commit`] is O(1).
//!
//! **Exactness.**  Delta-after-move equals a from-scratch replay bit for
//! bit, per rank — pinned by `crates/mpi/tests/placement_cost_prop.rs` over
//! random schedules, placements and move sequences, with
//! [`PlacementCost::oracle_clocks`] (a fresh `ModelComm` replay) as the
//! oracle.  The wavefront is exact because `SimTime` is a plain u64
//! nanosecond counter and the table entries are the very
//! `NetworkModel::transfer_time` values the replay computes; a ring's cost
//! is a max-plus product of n−1 banded matrices, so a single move perturbs
//! O(n) of its edges and *every* exit clock can depend on them — which is
//! why the wavefront re-derives all n−1 steps instead of chasing a sparse
//! frontier, and why it wins: ~3 ns per receive against the replay's float
//! transfer math and stats accounting.  A capacity-violating migrate is
//! rejected without touching any state.
//!
//! **Memory.**  The caches are O(schedule): trees cost three clocks per
//! message; rings cost O(ranks · sites) for the pooled tables plus two
//! O(ranks) scratch rows, shared across *all* ring segments with the same
//! byte structure ([`PlacementCost::ring_cache_bytes`] reports the total).
//! IS at 1024 ranks holds a few tables of ~64 KB — versus the ≈168 MB of
//! per-(step, rank) clock rows this design replaced — so IS and other
//! alltoall-heavy kernels stay searchable at 1024+ ranks.
//!
//! # The cross-job warm-reuse contract
//!
//! An online placement searcher (the day sweep's `searched` strategy) keeps
//! one warm `PlacementCost` per *kernel shape* — (program, rank count) —
//! across arrivals, because the job mix repeats a handful of shapes and the
//! grid state drifts by only a few occupy/release events between them.
//! [`PlacementCost::rebase`] is the resync point, and its invalidation
//! rules are deliberately narrow:
//!
//! * **Host diffs** are replayed as one wholesale multi-rank move: every
//!   rank whose host differs re-derives exactly what a migrate would
//!   (messages touching it, compute on touched hosts, `PerSrc` ring rows on
//!   site changes), through the same delta pass ordinary moves use.
//! * **Capacity changes invalidate nothing.**  The compute model's
//!   contention term keys on `residents` — ranks of *this* schedule — so
//!   other jobs occupying or releasing slots shifts only where future moves
//!   may go, never any cached clock.  The new capacities take effect
//!   immediately for subsequent `apply` feasibility checks.
//! * **Everything topology-keyed survives forever**: the (link class,
//!   bytes) transfer memo, `Uniform` ring tables, site representatives.
//!
//! `rebase` has commit semantics (the undo journal is cleared; no move can
//! be undone across it) and is exact: a rebased warm evaluator is
//! bit-identical to a fresh [`PlacementCost::new`] over the same arguments,
//! pinned by proptest over random occupy/release interleavings in
//! `tests/placement_cost_prop.rs`.  That exactness is what lets the online
//! search run warm by default and prove itself against a cold rebuild only
//! in tests and `perf_report`.
//!
//! # Fidelity
//!
//! [`ModelComm`] replays the *identical* schedule and clock arithmetic the
//! executed collectives use (same tree shapes, same per-step send order, the
//! same `SimDuration::from_secs_f64` roundings via
//! `NetworkModel::transfer_time`), so for a fixed sequence of collectives
//! over a fixed placement the modeled per-rank clocks are **equal** to the
//! executed ones — the property test in `tests/model_agreement.rs` pins this
//! for every collective at up to 16 ranks over random placements.  Modeled
//! *kernels* (e.g. `p2pmpi-nas`'s `is_model`) may still diverge slightly
//! where message sizes are data-dependent and the model substitutes a
//! balanced approximation; `perf_report` measures and bounds that divergence.
//!
//! # Choosing a backend
//!
//! [`CollectiveBackend`] selects between the two execution styles;
//! [`crate::runtime::MpiRuntime::with_backend`] records the choice on the
//! runtime and [`crate::runtime::MpiRuntime::model_comm`] builds a
//! [`ModelComm`] sharing the runtime's network and compute models, so a
//! modeled replay and an executed run of one job are costed from identical
//! parameters.  The experiment layer (`p2pmpi_bench::experiments::
//! run_kernel_on_placement`) costs `Modeled` jobs with
//! [`PlacementCost::cost_of`] over cost models built the same way.

use crate::error::Rank;
use crate::placement::{Placement, ProcSpec};
use crate::stats::CommStats;
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::memory::MemoryIntensity;
use p2pmpi_simgrid::network::NetworkModel;
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::{HostId, Topology};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::Arc;

/// How a job's collectives are costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveBackend {
    /// One OS thread per rank, real message passing over channels; the cost
    /// emerges from the point-to-point layer (today's default path).
    #[default]
    Executed,
    /// Analytical LogGP-style prediction on per-rank scalar clocks; no
    /// threads, scales to thousands of ranks.
    Modeled,
}

/// The LogGP parameters of one (src, dst) host pair, derived from the
/// network model (see the module docs for the mapping).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogGpParams {
    /// `L`: one-way wire latency.
    pub latency: SimDuration,
    /// `o`: per-message software overhead (sender side; the receive path
    /// pays the same once more inside the transfer time).
    pub overhead: SimDuration,
    /// `g`: minimum gap between consecutive message injections (equals `o`
    /// under this runtime's cost rule).
    pub gap: SimDuration,
    /// `G`: seconds per payload byte (framing included).
    pub secs_per_byte: f64,
}

impl LogGpParams {
    /// Derives the parameters for messages from `src` to `dst`.
    pub fn between(network: &NetworkModel, src: HostId, dst: HostId) -> LogGpParams {
        let params = network.params();
        let topology = network.topology();
        let overhead = params.per_message_overhead;
        LogGpParams {
            latency: topology.latency(src, dst),
            overhead,
            gap: overhead,
            secs_per_byte: params.framing_factor * 8.0 / topology.bandwidth_bps(src, dst),
        }
    }
}

/// A program of collective operations, expressed placement-independently.
///
/// The default methods carry the *exact* collective schedules the executed
/// runtime uses (binomial broadcast/reduce trees, linear gather/scatter, the
/// ring alltoall(v)); implementors supply only the four primitives.  The
/// per-rank closures (`ops_of`, `bytes_of`, `bytes`) must be pure functions
/// of their rank arguments: interpreters may evaluate them in any order and
/// any number of times.
pub trait CollectiveProgram {
    /// Number of ranks.
    fn size(&self) -> u32;

    /// Charges a compute section to every rank; `ops_of(rank)` gives the
    /// abstract operation count of each rank's share.
    fn compute<F: FnMut(Rank) -> f64>(&mut self, intensity: MemoryIntensity, ops_of: F);

    /// Advances every rank's clock by `d` (I/O or set-up phases).
    fn advance(&mut self, d: SimDuration);

    /// One point-to-point message: the sender pays `o`, the receiver's clock
    /// rises to the arrival time (mirrors `Comm::send`/`Comm::accept`).
    fn message(&mut self, src: Rank, dst: Rank, bytes: u64);

    /// The full ring exchange of `Comm::alltoallv`: at step `s` every rank
    /// stamps a send to rank `r+s`, then blocks receiving from rank `r-s`;
    /// all sends of a step are stamped against the pre-step clocks.
    /// `bytes(src, dst)` is the block `src` sends to `dst`.
    fn ring_exchange<F: FnMut(Rank, Rank) -> u64>(&mut self, bytes: F);

    /// Binomial-tree broadcast of `bytes` from `root` (mirrors
    /// [`crate::Comm::bcast`]).
    fn bcast(&mut self, root: Rank, bytes: u64) {
        let size = self.size() as usize;
        assert!((root as usize) < size, "root {root} outside 0..{size}");
        if size <= 1 {
            return;
        }
        // Process ranks in increasing *relative* order: a rank's parent has a
        // smaller relative index, so its (receive, forward...) program has
        // already run and this rank's clock already reflects the arrival.
        for rel in 0..size {
            let me = (rel + root as usize) % size;
            // Forward to children in the executed send order: masks descend
            // from just below this rank's receive mask (or from the top for
            // the root).
            let mut mask: usize = 1;
            while mask < size && rel & mask == 0 {
                mask <<= 1;
            }
            mask >>= 1;
            while mask > 0 {
                if rel + mask < size {
                    let child = (rel + mask + root as usize) % size;
                    self.message(me as Rank, child as Rank, bytes);
                }
                mask >>= 1;
            }
        }
    }

    /// Binomial-tree reduction of `bytes` onto `root` (mirrors
    /// [`crate::Comm::reduce`]; the element-wise combine is free, as in the
    /// executed path).
    fn reduce(&mut self, root: Rank, bytes: u64) {
        let size = self.size() as usize;
        assert!((root as usize) < size, "root {root} outside 0..{size}");
        if size <= 1 {
            return;
        }
        // Children have larger relative indices: process them first so each
        // rank's clock includes every child contribution before it forwards
        // to its own parent.
        for rel in (1..size).rev() {
            let me = (rel + root as usize) % size;
            let parent_rel = rel & (rel - 1); // clear the lowest set bit
            let parent = (parent_rel + root as usize) % size;
            self.message(me as Rank, parent as Rank, bytes);
        }
    }

    /// Reduce-to-0 followed by broadcast (mirrors
    /// [`crate::Comm::allreduce`]).
    fn allreduce(&mut self, bytes: u64) {
        self.reduce(0, bytes);
        self.bcast(0, bytes);
    }

    /// Empty allreduce (mirrors [`crate::Comm::barrier`]: one `u8`).
    fn barrier(&mut self) {
        self.allreduce(1);
    }

    /// Linear gather at `root`; `bytes_of(rank)` is each rank's contribution
    /// (mirrors [`crate::Comm::gather`]).
    fn gather<F: FnMut(Rank) -> u64>(&mut self, root: Rank, mut bytes_of: F) {
        let size = self.size();
        assert!(root < size, "root {root} outside 0..{size}");
        for src in 0..size {
            if src != root {
                self.message(src, root, bytes_of(src));
            }
        }
    }

    /// Gather at 0 then broadcast of the concatenation (mirrors
    /// [`crate::Comm::allgather`]).
    fn allgather<F: FnMut(Rank) -> u64>(&mut self, mut bytes_of: F) {
        let total: u64 = (0..self.size()).map(&mut bytes_of).sum();
        self.gather(0, &mut bytes_of);
        self.bcast(0, total);
    }

    /// Linear scatter of `block_bytes` per rank from `root` (mirrors
    /// [`crate::Comm::scatter`]).
    fn scatter(&mut self, root: Rank, block_bytes: u64) {
        let size = self.size();
        assert!(root < size, "root {root} outside 0..{size}");
        for dst in 0..size {
            if dst != root {
                self.message(root, dst, block_bytes);
            }
        }
    }

    /// Ring alltoall of equal `block_bytes` blocks (mirrors
    /// [`crate::Comm::alltoall`]).
    fn alltoall(&mut self, block_bytes: u64) {
        self.alltoallv(move |_, _| block_bytes);
    }

    /// Ring alltoallv; `bytes(src, dst)` is the block `src` sends to `dst`
    /// (mirrors [`crate::Comm::alltoallv`]).
    fn alltoallv<F: FnMut(Rank, Rank) -> u64>(&mut self, bytes: F) {
        self.ring_exchange(bytes);
    }
}

/// Host of every rank of a placement the analytical evaluators accept,
/// indexed by rank — the input of [`PlacementCost::cost_of`] and the first
/// step of [`ModelComm::new`].
///
/// # Panics
///
/// Panics if the placement is invalid or uses replication (replicas only
/// matter under failure injection, which the analytical model does not
/// simulate).
pub fn rank_hosts(placement: &Placement) -> Vec<HostId> {
    placement
        .validate()
        .expect("cannot model an invalid placement");
    assert_eq!(
        placement.replication, 1,
        "the analytical model supports unreplicated placements only"
    );
    let mut hosts = vec![HostId(0); placement.processes as usize];
    for spec in &placement.procs {
        hosts[spec.rank as usize] = spec.host;
    }
    hosts
}

/// Analytical stand-in for a whole communicator: one virtual clock per rank,
/// advanced by the same schedules and cost rules as the executed collectives.
///
/// The collectives come from the [`CollectiveProgram`] trait (bring it into
/// scope to call them); methods mirror [`crate::Comm`]'s but take *byte
/// counts* instead of data (the model never touches payloads).  Per-rank
/// quantities (gather contributions, alltoallv block sizes, compute work)
/// are supplied as closures over the rank index.
pub struct ModelComm {
    hosts: Vec<HostId>,
    residents: Vec<usize>,
    clocks: Vec<SimTime>,
    network: NetworkModel,
    compute: ComputeModel,
    stats: CommStats,
    /// Scratch: per-rank send timestamps within one ring step.
    sent_at: Vec<SimTime>,
}

impl ModelComm {
    /// Builds a model communicator for `placement` over the given cost
    /// models.
    ///
    /// # Panics
    ///
    /// Panics if the placement is invalid or uses replication (replicas only
    /// matter under failure injection, which the analytical model does not
    /// simulate).
    pub fn new(placement: &Placement, network: NetworkModel, compute: ComputeModel) -> ModelComm {
        let hosts = rank_hosts(placement);
        let n = hosts.len();
        let residents_per_host = placement.residents_per_host();
        let residents = hosts
            .iter()
            .map(|h| residents_per_host[h])
            .collect::<Vec<_>>();
        ModelComm {
            hosts,
            residents,
            clocks: vec![SimTime::ZERO; n],
            network,
            compute,
            stats: CommStats::default(),
            sent_at: vec![SimTime::ZERO; n],
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.clocks.len() as u32
    }

    /// The modeled clock of one rank.
    pub fn clock(&self, rank: Rank) -> SimTime {
        self.clocks[rank as usize]
    }

    /// All per-rank clocks.
    pub fn clocks(&self) -> &[SimTime] {
        &self.clocks
    }

    /// The job makespan so far: the largest per-rank clock.
    pub fn makespan(&self) -> SimDuration {
        self.clocks
            .iter()
            .copied()
            .max()
            .unwrap_or(SimTime::ZERO)
            .saturating_since(SimTime::ZERO)
    }

    /// Aggregate modeled traffic and compute counters (what the executed
    /// job's [`CommStats`] would sum to).
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }
}

impl CollectiveProgram for ModelComm {
    fn size(&self) -> u32 {
        self.clocks.len() as u32
    }

    fn compute<F: FnMut(Rank) -> f64>(&mut self, intensity: MemoryIntensity, mut ops_of: F) {
        for rank in 0..self.clocks.len() {
            let ops = ops_of(rank as Rank);
            let t =
                self.compute
                    .compute_time(self.hosts[rank], ops, intensity, self.residents[rank]);
            self.clocks[rank] += t;
            self.stats.compute_ops += ops;
            self.stats.compute_time += t;
        }
    }

    fn advance(&mut self, d: SimDuration) {
        for c in &mut self.clocks {
            *c += d;
        }
    }

    #[inline]
    fn message(&mut self, src: Rank, dst: Rank, bytes: u64) {
        let (src, dst) = (src as usize, dst as usize);
        let overhead = self.network.params().per_message_overhead;
        self.clocks[src] += overhead;
        let transfer = self
            .network
            .transfer_time(self.hosts[src], self.hosts[dst], bytes);
        let arrival = self.clocks[src] + transfer;
        self.clocks[dst] = self.clocks[dst].max(arrival);
        self.stats.messages_sent += 1;
        self.stats.messages_received += 1;
        self.stats.bytes_sent += bytes;
        self.stats.bytes_received += bytes;
    }

    fn ring_exchange<F: FnMut(Rank, Rank) -> u64>(&mut self, mut bytes: F) {
        let size = self.clocks.len();
        if size <= 1 {
            return;
        }
        let overhead = self.network.params().per_message_overhead;
        // Ring schedule: at step s every rank sends to rank+s and then blocks
        // receiving from rank-s.  Two phases per step: all sends are stamped
        // against the pre-step clocks, then every receive takes the max.
        for step in 1..size {
            for (rank, sent) in self.sent_at.iter_mut().enumerate() {
                self.clocks[rank] += overhead;
                *sent = self.clocks[rank];
            }
            for rank in 0..size {
                let src = (rank + size - step) % size;
                let b = bytes(src as Rank, rank as Rank);
                let transfer = self
                    .network
                    .transfer_time(self.hosts[src], self.hosts[rank], b);
                let arrival = self.sent_at[src] + transfer;
                self.clocks[rank] = self.clocks[rank].max(arrival);
                // Each (src → rank) block counts once on each side, as the
                // executed path does.
                self.stats.messages_sent += 1;
                self.stats.messages_received += 1;
                self.stats.bytes_sent += b;
                self.stats.bytes_received += b;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compiled schedules
// ---------------------------------------------------------------------------

/// One tree message of a compiled schedule.
#[derive(Debug, Clone, Copy)]
struct MsgRec {
    src: u32,
    dst: u32,
    /// Index of the message's byte count in [`CompiledSchedule::msg_sizes`]
    /// — the row key of the evaluator's transfer memo.
    size: u32,
}

/// Byte counts of one ring collective, compressed by structure: NAS
/// alltoalls are uniform, IS's balanced alltoallv depends only on the
/// source rank; the general matrix is kept as the fallback.  Equality is
/// what pools ring transfer tables across segments (see [`PlacementCost`]).
#[derive(Debug, Clone, PartialEq)]
enum RingBytes {
    Uniform(u64),
    PerSrc(Box<[u64]>),
    PerPair(Box<[u64]>),
}

impl RingBytes {
    #[inline]
    fn get(&self, n: usize, src: usize, dst: usize) -> u64 {
        match self {
            RingBytes::Uniform(b) => *b,
            RingBytes::PerSrc(rows) => rows[src],
            RingBytes::PerPair(m) => m[src * n + dst],
        }
    }
}

/// One segment of a compiled schedule.
#[derive(Debug, Clone)]
enum Segment {
    /// A compute phase: per-rank abstract operation counts.
    Compute {
        intensity: MemoryIntensity,
        ops: Box<[f64]>,
    },
    /// A run of sequential tree messages (adjacent trees are merged);
    /// `by_rank[r]` lists the indices of the messages touching rank `r`,
    /// ascending — the worklist seed of the delta pass.
    Msgs {
        msgs: Box<[MsgRec]>,
        by_rank: Box<[Box<[u32]>]>,
    },
    /// One full ring exchange (n−1 steps); `shape` indexes
    /// [`CompiledSchedule::ring_shapes`].
    Ring { shape: u32 },
    /// A uniform clock advance.
    Advance { d: SimDuration },
}

/// A placement-independent, flat representation of a whole kernel's
/// collective program, recorded by [`ScheduleBuilder`] and evaluated —
/// incrementally — by [`PlacementCost`].
#[derive(Debug, Clone)]
pub struct CompiledSchedule {
    size: u32,
    segments: Vec<Segment>,
    /// The distinct byte counts of the schedule's tree messages (a handful
    /// per kernel: EP has two, IS three).
    msg_sizes: Vec<u64>,
    /// The distinct byte structures of the schedule's rings.  Segments with
    /// equal structure share one entry — and thereby one pooled transfer
    /// table in every evaluator (see [`PlacementCost`]).
    ring_shapes: Vec<RingBytes>,
}

impl CompiledSchedule {
    /// Number of ranks the schedule was compiled for.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Number of compiled segments (compute phases, merged tree runs,
    /// rings).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The length of a full replay — per-rank compute terms, tree
    /// messages, per-step ring receives and advance terms (the same units
    /// [`PlacementCost::last_delta_ops`] counts), for reporting.
    pub fn op_count(&self) -> usize {
        let n = self.size as usize;
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Compute { ops, .. } => ops.len(),
                Segment::Msgs { msgs, .. } => msgs.len(),
                Segment::Ring { .. } => n.saturating_sub(1) * n,
                Segment::Advance { .. } => n,
            })
            .sum()
    }

    /// Heap bytes the schedule holds — what one entry of a schedule cache
    /// costs (the tree messages and their per-rank index dominate).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let segments: usize = self
            .segments
            .iter()
            .map(|s| match s {
                Segment::Compute { ops, .. } => ops.len() * size_of::<f64>(),
                Segment::Msgs { msgs, by_rank } => {
                    msgs.len() * size_of::<MsgRec>()
                        + by_rank.len() * size_of::<Box<[u32]>>()
                        + by_rank.iter().map(|r| r.len()).sum::<usize>() * size_of::<u32>()
                }
                Segment::Ring { .. } | Segment::Advance { .. } => 0,
            })
            .sum();
        let rings: usize = self
            .ring_shapes
            .iter()
            .map(|r| match r {
                RingBytes::Uniform(_) => 0,
                RingBytes::PerSrc(b) | RingBytes::PerPair(b) => b.len() * size_of::<u64>(),
            })
            .sum();
        self.segments.capacity() * size_of::<Segment>()
            + self.ring_shapes.capacity() * size_of::<RingBytes>()
            + self.msg_sizes.capacity() * size_of::<u64>()
            + segments
            + rings
    }

    /// Replays the recorded primitive sequence on any other interpreter —
    /// driving a fresh [`ModelComm`] with this is exactly a full model
    /// replay of the original program (the oracle of the delta evaluator).
    pub fn drive<P: CollectiveProgram>(&self, p: &mut P) {
        assert_eq!(p.size(), self.size, "schedule compiled for another size");
        let n = self.size as usize;
        for seg in &self.segments {
            match seg {
                Segment::Compute { intensity, ops } => {
                    p.compute(*intensity, |r| ops[r as usize]);
                }
                Segment::Msgs { msgs, .. } => {
                    for m in msgs.iter() {
                        p.message(m.src, m.dst, self.msg_sizes[m.size as usize]);
                    }
                }
                Segment::Ring { shape } => {
                    let bytes = &self.ring_shapes[*shape as usize];
                    p.ring_exchange(|s, d| bytes.get(n, s as usize, d as usize));
                }
                Segment::Advance { d } => p.advance(*d),
            }
        }
    }
}

/// Records a [`CollectiveProgram`] into a [`CompiledSchedule`].
///
/// Run the kernel's program against a builder (`p2pmpi-nas` exposes
/// `ep_schedule`/`is_schedule` doing exactly that), then [`finish`] it.
///
/// [`finish`]: ScheduleBuilder::finish
pub struct ScheduleBuilder {
    size: u32,
    segments: Vec<Segment>,
    /// Pending tree messages of the segment being built (adjacent trees
    /// merge into one segment).
    open_msgs: Vec<MsgRec>,
    msg_sizes: Vec<u64>,
    /// Index of each byte count in `msg_sizes`.
    size_index: HashMap<u64, u32>,
    ring_shapes: Vec<RingBytes>,
}

impl ScheduleBuilder {
    /// Starts an empty schedule for `size` ranks.
    pub fn new(size: u32) -> ScheduleBuilder {
        assert!(size >= 1, "a schedule needs at least one rank");
        ScheduleBuilder {
            size,
            segments: Vec::new(),
            open_msgs: Vec::new(),
            msg_sizes: Vec::new(),
            size_index: HashMap::new(),
            ring_shapes: Vec::new(),
        }
    }

    fn close_msgs(&mut self) {
        if self.open_msgs.is_empty() {
            return;
        }
        let msgs: Box<[MsgRec]> = std::mem::take(&mut self.open_msgs).into_boxed_slice();
        let mut by_rank: Vec<Vec<u32>> = vec![Vec::new(); self.size as usize];
        for (k, m) in msgs.iter().enumerate() {
            by_rank[m.src as usize].push(k as u32);
            if m.dst != m.src {
                by_rank[m.dst as usize].push(k as u32);
            }
        }
        let by_rank: Box<[Box<[u32]>]> =
            by_rank.into_iter().map(|v| v.into_boxed_slice()).collect();
        self.segments.push(Segment::Msgs { msgs, by_rank });
    }

    /// Finalises the recording.
    pub fn finish(mut self) -> CompiledSchedule {
        self.close_msgs();
        CompiledSchedule {
            size: self.size,
            segments: self.segments,
            msg_sizes: self.msg_sizes,
            ring_shapes: self.ring_shapes,
        }
    }
}

impl CollectiveProgram for ScheduleBuilder {
    fn size(&self) -> u32 {
        self.size
    }

    fn compute<F: FnMut(Rank) -> f64>(&mut self, intensity: MemoryIntensity, mut ops_of: F) {
        self.close_msgs();
        let ops: Box<[f64]> = (0..self.size).map(&mut ops_of).collect();
        self.segments.push(Segment::Compute { intensity, ops });
    }

    fn advance(&mut self, d: SimDuration) {
        self.close_msgs();
        self.segments.push(Segment::Advance { d });
    }

    fn message(&mut self, src: Rank, dst: Rank, bytes: u64) {
        // A tree sends one byte count down every edge, so the previous
        // message almost always answers the lookup.
        let size = match self.open_msgs.last() {
            Some(m) if self.msg_sizes[m.size as usize] == bytes => m.size,
            _ => *self.size_index.entry(bytes).or_insert_with(|| {
                self.msg_sizes.push(bytes);
                (self.msg_sizes.len() - 1) as u32
            }),
        };
        self.open_msgs.push(MsgRec { src, dst, size });
    }

    fn ring_exchange<F: FnMut(Rank, Rank) -> u64>(&mut self, mut bytes: F) {
        let n = self.size as usize;
        if n <= 1 {
            return;
        }
        self.close_msgs();
        let mut matrix = vec![0u64; n * n];
        for src in 0..n {
            for dst in 0..n {
                matrix[src * n + dst] = bytes(src as Rank, dst as Rank);
            }
        }
        // The ring's steps run 1..n — a rank never exchanges with itself —
        // so the diagonal is ignored when deciding the compressed form
        // (transpose-style alltoallvs send 0 bytes to self but a constant
        // block everywhere else, and must still compress).  A compressed
        // form answers the (never-costed) diagonal query with the
        // off-diagonal value.
        let mut rows: Vec<u64> = Vec::with_capacity(n);
        let per_src_constant = (0..n).all(|src| {
            let row = &matrix[src * n..(src + 1) * n];
            let first = row[if src == 0 { 1 } else { 0 }];
            rows.push(first);
            row.iter()
                .enumerate()
                .all(|(dst, &b)| dst == src || b == first)
        });
        let bytes = if per_src_constant {
            if rows.iter().all(|&b| b == rows[0]) {
                RingBytes::Uniform(rows[0])
            } else {
                RingBytes::PerSrc(rows.into_boxed_slice())
            }
        } else {
            RingBytes::PerPair(matrix.into_boxed_slice())
        };
        let shape = match self.ring_shapes.iter().position(|s| *s == bytes) {
            Some(i) => i,
            None => {
                self.ring_shapes.push(bytes);
                self.ring_shapes.len() - 1
            }
        };
        self.segments.push(Segment::Ring {
            shape: shape as u32,
        });
    }
}

// ---------------------------------------------------------------------------
// The incremental placement evaluator
// ---------------------------------------------------------------------------

/// A candidate move of the placement search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Exchange the hosts of two ranks (resident counts are preserved, so
    /// only the two ranks' own compute and message costs change).
    Swap {
        /// First rank.
        a: Rank,
        /// Second rank.
        b: Rank,
    },
    /// Move one rank to another host (requires an idle slot there; changes
    /// the resident count — and thus every co-resident's compute cost — on
    /// both hosts).
    Migrate {
        /// The rank to move.
        rank: Rank,
        /// Destination host.
        to: HostId,
    },
}

/// Why a move was rejected (the evaluator's state is untouched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveError {
    /// The destination host has no idle slot.
    CapacityExceeded {
        /// The full host.
        host: HostId,
        /// Its capacity (slots).
        capacity: u32,
    },
}

impl fmt::Display for MoveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoveError::CapacityExceeded { host, capacity } => {
                write!(f, "{host} is full ({capacity} slots)")
            }
        }
    }
}

impl std::error::Error for MoveError {}

/// Cached clock triple of one tree message.
#[derive(Debug, Clone, Copy)]
struct MsgCache {
    in_src: SimTime,
    in_dst: SimTime,
    out_dst: SimTime,
}

/// Per-segment delta caches (shapes parallel [`Segment`]).
enum SegCache {
    Plain,
    Msgs {
        msgs: Vec<MsgCache>,
        queued_epoch: Vec<u32>,
    },
}

/// Pooled transfer table of the ring wavefront: one per distinct
/// `Uniform`/`PerSrc` entry of [`CompiledSchedule::ring_shapes`].
/// Entries are `NetworkModel::transfer_time` values in nanoseconds — the
/// transfer cost depends only on same-host-ness / the directed site pair
/// and the byte count.
enum RingTable {
    /// A `Uniform` ring sends the same byte count on every edge, so the
    /// whole table collapses to one scalar plus a site×site matrix — both
    /// keyed by static topology data only.  **No move ever invalidates a
    /// `Uniform` table**: `retarget_ring_rows` skips it and the undo journal
    /// never records a row for it.
    Uniform {
        /// Same-host transfer (host-independent loopback cost).
        tsame: u64,
        /// Directed site-pair transfer (`site[src_site * site_count +
        /// dst_site]`).  The diagonal holds the distinct-host intra-site
        /// cost; same-host pairs are patched with `tsame` by the colo list.
        site: Box<[u64]>,
    },
    /// A `PerSrc` ring sends a source-rank-dependent byte count, so the
    /// table keeps per-rank rows that must be re-derived when a rank
    /// changes site.
    PerSrc {
        /// Same-host transfer per source rank (`tsame[src]`).  Loopback
        /// cost is host-independent, so a move never invalidates this half.
        tsame: Box<[u64]>,
        /// Transfer from each source rank's current host to a host at each
        /// destination site (`tsite[src * site_count + site]`).  A moved
        /// rank's row changes only when its *site* changes.
        tsite: Box<[u64]>,
    },
}

/// One journaled cache mutation (reverted in reverse order by `undo`).
enum UndoEntry {
    Boundary {
        seg: u32,
        rank: u32,
        old: SimTime,
    },
    Msg {
        seg: u32,
        idx: u32,
        old: MsgCache,
    },
    RingRow {
        table: u32,
        rank: u32,
        old: Box<[u64]>,
    },
}

/// The in-flight move awaiting `commit`/`undo`.
struct PendingMove {
    mv: Move,
    /// The source host of a migrate (unused for swaps).
    old_host: HostId,
    /// True when the move changed nothing (same-host swap etc.).
    noop: bool,
    old_makespan: SimDuration,
    old_clock_mean: f64,
}

/// Transfer-memo cell that has not been costed yet.
const UNCOSTED: u64 = u64::MAX;

/// Where a recording [`EvalCore::full_pass`] writes the delta caches.
struct Recording<'a> {
    caches: &'a mut [SegCache],
    boundary: &'a mut [Vec<SimTime>],
}

/// The move-independent half of the evaluator: everything one *full* pass
/// over a schedule reads — the tree-message transfer memo, the pooled ring
/// tables, the rings' per-rank host/site view and the wavefront scratch —
/// and nothing a move needs.  [`PlacementCost`] embeds one and layers the delta
/// caches, the journal and the per-host bookkeeping on top;
/// [`PlacementCost::cost_of`] builds one, runs [`EvalCore::full_pass`] once
/// and drops it.  Everything here is sized by ranks and sites, never by the
/// topology's host count.
struct EvalCore {
    overhead: SimDuration,
    site_count: usize,
    /// Link classes per memo row: same-host, then every directed site pair.
    classes: usize,
    /// Memoized LogGP transfer nanoseconds of tree messages,
    /// `tree_memo[size · classes + class]` with `size` a
    /// [`CompiledSchedule::msg_sizes`] index: the transfer cost depends
    /// only on same-host-ness / the site pair and the byte count, so a
    /// handful of cells covers any schedule — and a lookup is one indexed
    /// load, no hashing.  Topology-keyed, so it survives every move.
    tree_memo: Vec<u64>,
    /// Two representative hosts per site, for building transfer-table rows
    /// (the second repeats the first at single-host sites, whose distinct-
    /// host intra-site entries are unreachable).  Empty when the schedule
    /// has no table ring.
    site_rep: Vec<[HostId; 2]>,
    /// Pooled ring transfer tables, parallel to the schedule's
    /// `ring_shapes` (`None` for a `PerPair` shape, whose wavefront costs
    /// every receive through the network model).
    ring_tables: Vec<Option<RingTable>>,
    // --- the rings' per-rank view of the host assignment, refreshed once
    // per pass (empty when the schedule has no ring) ---
    host_of: Vec<u32>,
    site_of: Vec<u32>,
    /// Same-host `(step, dst, src)` ring pairs, ascending: the loopback
    /// receives the table wavefront patches after each step.
    colo: Vec<(u32, u32, u32)>,
    /// Scratch of the colo construction: `(host, rank)` sorted by host.
    by_host: Vec<(u32, u32)>,
    // --- wavefront scratch ---
    /// Ring wavefront rows (per-rank clocks in nanoseconds).
    wf_prev: Vec<u64>,
    wf_cur: Vec<u64>,
    /// Per-rank row expansion of a `Uniform` site×site table, rebuilt from
    /// `site_of` at the start of each wavefront over one — scratch, never
    /// journaled — so the hot loop keeps the sequential `PerSrc` row shape.
    uniform_rows: Vec<u64>,
}

impl EvalCore {
    /// Sizes the memo and scratch for `schedule` and builds its pooled ring
    /// tables for the assignment `hosts`.
    fn new(schedule: &CompiledSchedule, hosts: &[HostId], network: &NetworkModel) -> EvalCore {
        let n = hosts.len();
        let site_count = network.topology().site_count();
        let classes = 1 + site_count * site_count;
        let ring_n = if schedule.ring_shapes.is_empty() {
            0
        } else {
            n
        };
        let mut core = EvalCore {
            overhead: network.params().per_message_overhead,
            site_count,
            classes,
            tree_memo: vec![UNCOSTED; schedule.msg_sizes.len() * classes],
            site_rep: Vec::new(),
            ring_tables: Vec::new(),
            host_of: vec![0; ring_n],
            site_of: vec![0; ring_n],
            colo: Vec::new(),
            by_host: Vec::new(),
            wf_prev: vec![0; ring_n],
            wf_cur: vec![0; ring_n],
            uniform_rows: Vec::new(),
        };
        core.build_ring_tables(schedule, hosts, network);
        core
    }

    /// Builds one pooled transfer table per `Uniform`/`PerSrc` ring shape.
    fn build_ring_tables(
        &mut self,
        schedule: &CompiledSchedule,
        hosts: &[HostId],
        network: &NetworkModel,
    ) {
        let shapes = &schedule.ring_shapes;
        if shapes.iter().any(|s| !matches!(s, RingBytes::PerPair(_))) {
            let topology = network.topology();
            self.site_rep = vec![[HostId(0); 2]; self.site_count];
            let mut reps_seen = vec![0u8; self.site_count];
            for h in topology.hosts() {
                let s = h.site.0;
                match reps_seen[s] {
                    0 => {
                        self.site_rep[s] = [h.id, h.id];
                        reps_seen[s] = 1;
                    }
                    1 => {
                        self.site_rep[s][1] = h.id;
                        reps_seen[s] = 2;
                    }
                    _ => {}
                }
            }
        }
        let s_count = self.site_count;
        let tables = shapes
            .iter()
            .map(|shape| match shape {
                RingBytes::PerPair(_) => None,
                // Uniform rings send the same byte count on every edge, so
                // the table is a site×site matrix keyed by static topology
                // data only — fully move-invariant, no journaling ever.
                // The diagonal wants the distinct-host intra-site cost;
                // same-host pairs are patched by the colo list, so a
                // single-host site's loopback entry is unreachable (but
                // harmless).
                RingBytes::Uniform(b) => {
                    let mut site = vec![0u64; s_count * s_count].into_boxed_slice();
                    for (sa, row) in site.chunks_exact_mut(s_count).enumerate() {
                        self.site_row(network, self.site_rep[sa][0], *b, row);
                    }
                    let rep = self.site_rep[0][0];
                    let tsame = network.transfer_time(rep, rep, *b).as_nanos();
                    Some(RingTable::Uniform { tsame, site })
                }
                RingBytes::PerSrc(bytes) => {
                    let tsame = hosts
                        .iter()
                        .zip(bytes.iter())
                        .map(|(&h, &b)| network.transfer_time(h, h, b).as_nanos())
                        .collect();
                    let mut tsite = vec![0u64; hosts.len() * s_count].into_boxed_slice();
                    for ((row, &h), &b) in
                        tsite.chunks_exact_mut(s_count).zip(hosts).zip(bytes.iter())
                    {
                        self.site_row(network, h, b, row);
                    }
                    Some(RingTable::PerSrc { tsame, tsite })
                }
            })
            .collect();
        self.ring_tables = tables;
    }

    /// Fills `row[s]` with the transfer time of `bytes` from `src` to a
    /// *distinct* host at site `s`.
    fn site_row(&self, network: &NetworkModel, src: HostId, bytes: u64, row: &mut [u64]) {
        for (slot, rep) in row.iter_mut().zip(&self.site_rep) {
            let dst = if rep[0] != src { rep[0] } else { rep[1] };
            *slot = network.transfer_time(src, dst, bytes).as_nanos();
        }
    }

    /// Rewrites `rank`'s `tsite` row in every pooled `PerSrc` table for its
    /// new host — needed only when the rank changed *site*: `Uniform` tables
    /// are move-invariant and `tsame` is host-independent (loopback).  The
    /// old rows go to `journal` when the caller can undo.  Returns the
    /// number of cells rewritten.
    fn retarget_ring_rows(
        &mut self,
        schedule: &CompiledSchedule,
        network: &NetworkModel,
        rank: usize,
        new_host: HostId,
        mut journal: Option<&mut Vec<UndoEntry>>,
    ) -> usize {
        let s_count = self.site_count;
        let mut tables = std::mem::take(&mut self.ring_tables);
        let mut ops = 0;
        for (ti, (table, shape)) in tables.iter_mut().zip(&schedule.ring_shapes).enumerate() {
            let (Some(RingTable::PerSrc { tsite, .. }), RingBytes::PerSrc(bytes)) = (table, shape)
            else {
                continue;
            };
            let row = &mut tsite[rank * s_count..][..s_count];
            if let Some(journal) = journal.as_deref_mut() {
                journal.push(UndoEntry::RingRow {
                    table: ti as u32,
                    rank: rank as u32,
                    old: row.to_vec().into_boxed_slice(),
                });
            }
            self.site_row(network, new_host, bytes[rank], row);
            ops += s_count;
        }
        self.ring_tables = tables;
        ops
    }

    /// Re-derives what the ring wavefronts read of `hosts`: host index and
    /// site of every rank, plus — when a table ring will read it — the
    /// list of same-host ring pairs.  `residents` (ranks per host id)
    /// short-cuts the common all-hosts-distinct case.  A schedule without
    /// rings has no view to refresh.
    fn refresh_ring_view(&mut self, hosts: &[HostId], residents: &[u32], topology: &Topology) {
        if self.ring_tables.is_empty() {
            return;
        }
        let n = hosts.len();
        let mut stacked = false;
        for (r, &h) in hosts.iter().enumerate() {
            self.host_of[r] = h.0 as u32;
            self.site_of[r] = topology.host(h).site.0 as u32;
            stacked |= residents[h.0] > 1;
        }
        self.colo.clear();
        if !stacked || self.ring_tables.iter().all(Option::is_none) {
            return;
        }
        // Same-host (src, dst) pairs are rare — at most cores per host — so
        // the wavefront's hot loop costs every receive through the site row
        // unconditionally and patches the loopback pairs afterwards, keyed
        // by their ring-step distance.  Sorting by host finds the
        // co-located runs.
        self.by_host.clear();
        self.by_host
            .extend((0..n as u32).map(|r| (self.host_of[r as usize], r)));
        self.by_host.sort_unstable();
        for run in self.by_host.chunk_by(|a, b| a.0 == b.0) {
            for &(_, a) in run {
                for &(_, b) in run {
                    if a != b {
                        let step = (b as usize + n - a as usize) % n;
                        self.colo.push((step as u32, b, a));
                    }
                }
            }
        }
        self.colo.sort_unstable();
    }

    /// LogGP transfer time of a tree message of byte-size index `size`
    /// from host `src` to host `dst`, through the `(size, class)` memo.
    #[inline]
    fn tree_transfer(
        &mut self,
        network: &NetworkModel,
        sizes: &[u64],
        src: HostId,
        dst: HostId,
        size: u32,
    ) -> SimDuration {
        // Link class of the pair: the transfer cost depends only on
        // same-host-ness and the (directed) site pair.
        let class = if src == dst {
            0
        } else {
            let topology = network.topology();
            1 + topology.host(src).site.0 * self.site_count + topology.host(dst).site.0
        };
        let cell = &mut self.tree_memo[size as usize * self.classes + class];
        if *cell == UNCOSTED {
            *cell = network
                .transfer_time(src, dst, sizes[size as usize])
                .as_nanos();
        }
        SimDuration::from_nanos(*cell)
    }

    /// One full evaluation of `schedule` on `hosts`: `clocks` (all zero on
    /// entry) holds the final per-rank clocks on return.  This is the one
    /// code path behind every full costing — [`PlacementCost::new`] and
    /// [`PlacementCost::rebase`] run it with a [`Recording`] to fill the
    /// delta caches, [`PlacementCost::cost_of`] runs it bare.
    #[allow(clippy::too_many_arguments)]
    fn full_pass(
        &mut self,
        schedule: &CompiledSchedule,
        hosts: &[HostId],
        residents: &[u32],
        network: &NetworkModel,
        compute: &ComputeModel,
        clocks: &mut [SimTime],
        mut record: Option<Recording<'_>>,
    ) {
        self.refresh_ring_view(hosts, residents, network.topology());
        for (seg, segment) in schedule.segments.iter().enumerate() {
            match segment {
                Segment::Compute { intensity, ops } => {
                    for ((c, &h), &ops) in clocks.iter_mut().zip(hosts).zip(ops.iter()) {
                        *c += compute.compute_time(h, ops, *intensity, residents[h.0] as usize);
                    }
                }
                Segment::Msgs { msgs, .. } => {
                    let mut cache = match &mut record {
                        Some(rec) => match &mut rec.caches[seg] {
                            SegCache::Msgs { msgs, .. } => Some(msgs),
                            SegCache::Plain => unreachable!("segment/cache shape mismatch"),
                        },
                        None => None,
                    };
                    for (k, &m) in msgs.iter().enumerate() {
                        let (s, d) = (m.src as usize, m.dst as usize);
                        let in_src = clocks[s];
                        let in_dst = clocks[d];
                        let out_src = in_src + self.overhead;
                        let t = self.tree_transfer(
                            network,
                            &schedule.msg_sizes,
                            hosts[s],
                            hosts[d],
                            m.size,
                        );
                        let out_dst = in_dst.max(out_src + t);
                        clocks[s] = out_src;
                        clocks[d] = out_dst;
                        if let Some(cache) = &mut cache {
                            cache[k] = MsgCache {
                                in_src,
                                in_dst,
                                out_dst,
                            };
                        }
                    }
                }
                Segment::Ring { shape } => {
                    if clocks.len() > 1 {
                        for (slot, c) in self.wf_prev.iter_mut().zip(clocks.iter()) {
                            *slot = c.as_nanos();
                        }
                        self.ring_wavefront(schedule, network, *shape);
                        for (c, &ns) in clocks.iter_mut().zip(&self.wf_prev) {
                            *c = SimTime::from_nanos(ns);
                        }
                    }
                }
                Segment::Advance { d } => {
                    for c in clocks.iter_mut() {
                        *c += *d;
                    }
                }
            }
            if let Some(rec) = &mut record {
                rec.boundary[seg].copy_from_slice(clocks);
            }
        }
    }

    /// Runs one ring segment's full wavefront under the current view.
    /// `wf_prev` holds the per-rank entry clocks in nanoseconds on entry and
    /// the exit clocks on return.  The per-step recurrence —
    /// `C[d] = max(P[d], P[src] + t) + o` with `src = d − step (mod n)` — is
    /// exactly [`ModelComm`]'s ring rule (stamp all sends against pre-step
    /// clocks, then take each receive's max) rewritten over u64
    /// nanoseconds, which is exact because `SimTime` *is* a saturating u64
    /// nanosecond counter.
    fn ring_wavefront(&mut self, schedule: &CompiledSchedule, network: &NetworkModel, shape: u32) {
        let n = self.host_of.len();
        debug_assert_eq!(n, schedule.size() as usize);
        let mut prev = std::mem::take(&mut self.wf_prev);
        let mut cur = std::mem::take(&mut self.wf_cur);
        let o = self.overhead.as_nanos();
        match &self.ring_tables[shape as usize] {
            Some(t) => {
                let mut urows = std::mem::take(&mut self.uniform_rows);
                let (colo, site_of) = (&self.colo, &self.site_of);
                let s_count = self.site_count;
                let mut pi = 0usize;
                // Per-src site rows for the hot loop: a `PerSrc` table
                // holds them directly; a `Uniform` table is expanded from
                // `site_of` into scratch once per wavefront (O(ranks·sites),
                // dwarfed by the O(ranks²) recurrence) so the inner loops
                // keep the sequential row iteration — a per-receive
                // `site[ss·s + sd]` gather here measured ~2× slower on the
                // ring-dominated IS schedule.
                let rows: &[u64] = match t {
                    RingTable::Uniform { site, .. } => {
                        urows.clear();
                        urows.reserve(n * s_count);
                        for &s in &site_of[..n] {
                            urows.extend_from_slice(&site[s as usize * s_count..][..s_count]);
                        }
                        &urows
                    }
                    RingTable::PerSrc { tsite, .. } => tsite,
                };
                // The wrap in `src = d − step (mod n)` splits each step into
                // two linear runs, so the whole row is zipped slices: no
                // index arithmetic, no bounds checks, no per-cell branch.
                for step in 1..n {
                    // d in step..n pairs with src = d − step.
                    for ((((c, &pd), &ps), &sd), row) in cur[step..]
                        .iter_mut()
                        .zip(&prev[step..])
                        .zip(&prev[..n - step])
                        .zip(&site_of[step..])
                        .zip(rows.chunks_exact(s_count))
                    {
                        *c = pd
                            .max(ps.saturating_add(row[sd as usize]))
                            .saturating_add(o);
                    }
                    // d in 0..step wraps to src = d + n − step.
                    for ((((c, &pd), &ps), &sd), row) in cur[..step]
                        .iter_mut()
                        .zip(&prev[..step])
                        .zip(&prev[n - step..])
                        .zip(&site_of[..step])
                        .zip(rows[(n - step) * s_count..].chunks_exact(s_count))
                    {
                        *c = pd
                            .max(ps.saturating_add(row[sd as usize]))
                            .saturating_add(o);
                    }
                    while pi < colo.len() && colo[pi].0 as usize == step {
                        let (_, d, src) = colo[pi];
                        let ts = match t {
                            RingTable::Uniform { tsame, .. } => *tsame,
                            RingTable::PerSrc { tsame, .. } => tsame[src as usize],
                        };
                        cur[d as usize] = prev[d as usize]
                            .max(prev[src as usize].saturating_add(ts))
                            .saturating_add(o);
                        pi += 1;
                    }
                    std::mem::swap(&mut prev, &mut cur);
                }
                self.uniform_rows = urows;
            }
            None => {
                // PerPair fallback: per-receive byte counts, costed straight
                // through the network model.
                let bytes = &schedule.ring_shapes[shape as usize];
                let host_of = &self.host_of;
                for step in 1..n {
                    for d in 0..n {
                        let src = if d >= step { d - step } else { d + n - step };
                        let tt = network
                            .transfer_time(
                                HostId(host_of[src] as usize),
                                HostId(host_of[d] as usize),
                                bytes.get(n, src, d),
                            )
                            .as_nanos();
                        cur[d] = prev[d].max(prev[src].saturating_add(tt)).saturating_add(o);
                    }
                    std::mem::swap(&mut prev, &mut cur);
                }
            }
        }
        self.wf_prev = prev;
        self.wf_cur = cur;
    }
}

/// Incremental evaluator of one compiled schedule over a mutable host
/// assignment — the hot path of the placement search.  See the module docs
/// for the delta-evaluation contract (what is cached, what a move
/// invalidates, the exactness guarantee).
///
/// The evaluation protocol is `apply` → (`commit` | `undo`): `apply`
/// performs the move *and* returns the new modeled makespan; `commit` keeps
/// it (O(1)); `undo` restores every cache and the host assignment exactly.
/// A caller that only wants one placement's makespan — no moves — uses
/// [`PlacementCost::cost_of`], the same full pass without any of the move
/// state.
pub struct PlacementCost {
    schedule: Arc<CompiledSchedule>,
    network: NetworkModel,
    compute: ComputeModel,
    /// Transfer memo, ring tables, per-rank view and wavefront scratch (the
    /// part shared with [`PlacementCost::cost_of`]).
    core: EvalCore,
    /// Host of each rank.
    hosts: Vec<HostId>,
    /// Resident ranks per host id (drives the memory-contention model).
    residents: Vec<u32>,
    /// Slot capacity per host id.
    capacity: Vec<u32>,
    /// Ranks currently resident on each host id.
    ranks_on_host: Vec<Vec<u32>>,
    /// Per-rank clocks at each segment boundary.
    boundary: Vec<Vec<SimTime>>,
    /// All-zero segment entry of the first segment.
    entry: Vec<SimTime>,
    caches: Vec<SegCache>,
    makespan: SimDuration,
    /// Mean final clock in seconds (see [`PlacementCost::mean_clock_secs`]).
    clock_mean: f64,
    // --- delta scratch ---
    dirty_flag: Vec<bool>,
    dirty_val: Vec<SimTime>,
    dirty_list: Vec<u32>,
    visit_epoch: Vec<u32>,
    epoch: u32,
    worklist: BinaryHeap<Reverse<u32>>,
    cand: Vec<u32>,
    moved: Vec<u32>,
    /// Old host of each moved rank (parallel to `moved`).
    moved_old_host: Vec<HostId>,
    compute_affected: Vec<u32>,
    journal: Vec<UndoEntry>,
    pending: Option<PendingMove>,
    /// Delta operations processed by the last `apply` (diagnostics).
    last_delta_ops: usize,
}

impl PlacementCost {
    /// Builds the evaluator: `hosts[rank]` is the initial assignment,
    /// `capacity[host]` the slot count of every host of the topology.
    /// The construction performs one full replay to fill the caches.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` does not match the schedule's rank count, if
    /// `capacity` does not cover the topology, or if the initial placement
    /// already exceeds a host's capacity.
    pub fn new(
        schedule: Arc<CompiledSchedule>,
        hosts: Vec<HostId>,
        capacity: Vec<u32>,
        network: NetworkModel,
        compute: ComputeModel,
    ) -> PlacementCost {
        let n = schedule.size() as usize;
        assert_eq!(hosts.len(), n, "one host per rank");
        let host_count = network.topology().host_count();
        assert_eq!(capacity.len(), host_count, "one capacity per host");
        let mut residents = vec![0u32; host_count];
        let mut ranks_on_host: Vec<Vec<u32>> = vec![Vec::new(); host_count];
        for (r, &h) in hosts.iter().enumerate() {
            residents[h.0] += 1;
            ranks_on_host[h.0].push(r as u32);
        }
        for (h, (&used, &cap)) in residents.iter().zip(&capacity).enumerate() {
            assert!(
                used <= cap,
                "initial placement puts {used} ranks on {} (capacity {cap})",
                HostId(h)
            );
        }
        let caches = schedule
            .segments
            .iter()
            .map(|seg| match seg {
                Segment::Msgs { msgs, .. } => SegCache::Msgs {
                    msgs: vec![
                        MsgCache {
                            in_src: SimTime::ZERO,
                            in_dst: SimTime::ZERO,
                            out_dst: SimTime::ZERO,
                        };
                        msgs.len()
                    ],
                    queued_epoch: vec![0; msgs.len()],
                },
                _ => SegCache::Plain,
            })
            .collect();
        let boundary = vec![vec![SimTime::ZERO; n]; schedule.segments.len()];
        let core = EvalCore::new(&schedule, &hosts, &network);
        let mut cost = PlacementCost {
            schedule,
            network,
            compute,
            core,
            hosts,
            residents,
            capacity,
            ranks_on_host,
            boundary,
            entry: vec![SimTime::ZERO; n],
            caches,
            makespan: SimDuration::ZERO,
            clock_mean: 0.0,
            dirty_flag: vec![false; n],
            dirty_val: vec![SimTime::ZERO; n],
            dirty_list: Vec::new(),
            visit_epoch: vec![0; n],
            epoch: 0,
            worklist: BinaryHeap::new(),
            cand: Vec::new(),
            moved: Vec::new(),
            moved_old_host: Vec::new(),
            compute_affected: Vec::new(),
            journal: Vec::new(),
            pending: None,
            last_delta_ops: 0,
        };
        cost.rebuild();
        cost
    }

    /// The modeled makespan of `schedule` on the assignment `hosts[rank]` —
    /// the cost-only entry point: one full pass of the same evaluator
    /// [`PlacementCost::new`] fills its caches with, without the caches, the
    /// journal or any per-host move bookkeeping.  Equal to a fresh
    /// [`ModelComm`] replay of the schedule bit for bit.
    ///
    /// Unlike [`PlacementCost::new`] there is no capacity notion here: like
    /// [`ModelComm`], any assignment is costed, including one that stacks
    /// more ranks on a host than it has cores.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` does not match the schedule's rank count or names
    /// a host outside the topology.
    pub fn cost_of(
        schedule: &CompiledSchedule,
        hosts: &[HostId],
        network: &NetworkModel,
        compute: &ComputeModel,
    ) -> SimDuration {
        assert_eq!(hosts.len(), schedule.size() as usize, "one host per rank");
        // The one host-sized allocation: a zeroed resident counter.
        let mut residents = vec![0u32; network.topology().host_count()];
        for h in hosts {
            residents[h.0] += 1;
        }
        let mut clocks = vec![SimTime::ZERO; hosts.len()];
        EvalCore::new(schedule, hosts, network).full_pass(
            schedule,
            hosts,
            &residents,
            network,
            compute,
            &mut clocks,
            None,
        );
        let last = clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
        last.saturating_since(SimTime::ZERO)
    }

    /// The modeled makespan of the current host assignment.
    pub fn cost(&self) -> SimDuration {
        self.makespan
    }

    /// Mean final per-rank clock, in seconds.  A makespan objective is a
    /// `max()` full of plateaus — moving one rank off the slowest host
    /// usually leaves the maximum unchanged — so annealing drivers blend a
    /// small multiple of this into their acceptance energy to restore a
    /// gradient across those plateaus (best-placement tracking stays on the
    /// pure makespan).  Maintained by the same O(ranks) scan as the
    /// makespan, and restored exactly by `undo`.
    pub fn mean_clock_secs(&self) -> f64 {
        self.clock_mean
    }

    /// The current host of every rank.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// The final per-rank clocks of the current assignment.
    pub fn clocks(&self) -> &[SimTime] {
        self.boundary.last().unwrap_or(&self.entry)
    }

    /// Ranks currently resident on `host`.
    pub fn residents_on(&self, host: HostId) -> u32 {
        self.residents[host.0]
    }

    /// Idle slots left on `host`.
    pub fn free_on(&self, host: HostId) -> u32 {
        self.capacity[host.0] - self.residents[host.0]
    }

    /// Delta operations (messages, ring receives, compute terms) evaluated
    /// by the last `apply` — the quantity the O(affected) claim is about.
    pub fn last_delta_ops(&self) -> usize {
        self.last_delta_ops
    }

    /// The current assignment as a [`Placement`].
    pub fn to_placement(&self) -> Placement {
        Placement {
            processes: self.hosts.len() as u32,
            replication: 1,
            procs: self
                .hosts
                .iter()
                .enumerate()
                .map(|(rank, &host)| ProcSpec {
                    rank: rank as Rank,
                    replica: 0,
                    host,
                })
                .collect(),
        }
    }

    /// Full model replay of the current assignment on a fresh [`ModelComm`]
    /// — the oracle the delta caches are verified against (and the baseline
    /// of the ≥5× per-move speedup gate in `perf_report`).
    pub fn oracle_clocks(&self) -> Vec<SimTime> {
        let placement = self.to_placement();
        let mut m = ModelComm::new(&placement, self.network.clone(), self.compute.clone());
        self.schedule.drive(&mut m);
        m.clocks().to_vec()
    }

    /// The oracle's makespan (see [`PlacementCost::oracle_clocks`]).
    pub fn oracle_cost(&self) -> SimDuration {
        let placement = self.to_placement();
        let mut m = ModelComm::new(&placement, self.network.clone(), self.compute.clone());
        self.schedule.drive(&mut m);
        m.makespan()
    }

    /// Applies `mv` and returns the new modeled makespan, delta-evaluated.
    /// The move stays in flight until [`PlacementCost::commit`] or
    /// [`PlacementCost::undo`].  A capacity-violating migrate returns an
    /// error and leaves every piece of state untouched.
    ///
    /// # Panics
    ///
    /// Panics if a previous move is still in flight or a rank/host index is
    /// out of range.
    pub fn apply(&mut self, mv: Move) -> Result<SimDuration, MoveError> {
        assert!(
            self.pending.is_none(),
            "commit or undo the previous move before applying another"
        );
        let n = self.hosts.len() as u32;
        self.moved.clear();
        self.moved_old_host.clear();
        self.compute_affected.clear();
        let mut noop = false;
        let mut old_host = HostId(0);
        match mv {
            Move::Swap { a, b } => {
                assert!(a < n && b < n, "swap ranks out of range");
                let (ha, hb) = (self.hosts[a as usize], self.hosts[b as usize]);
                if a == b || ha == hb {
                    noop = true;
                } else {
                    self.hosts[a as usize] = hb;
                    self.hosts[b as usize] = ha;
                    remove_rank(&mut self.ranks_on_host[ha.0], a);
                    remove_rank(&mut self.ranks_on_host[hb.0], b);
                    self.ranks_on_host[hb.0].push(a);
                    self.ranks_on_host[ha.0].push(b);
                    self.moved.extend([a, b]);
                    self.moved_old_host.extend([ha, hb]);
                    // A swap preserves every resident count: only the two
                    // ranks' own compute costs can change.
                    self.compute_affected.extend([a, b]);
                }
            }
            Move::Migrate { rank, to } => {
                assert!(rank < n, "migrate rank out of range");
                assert!(to.0 < self.capacity.len(), "migrate host out of range");
                let from = self.hosts[rank as usize];
                if from == to {
                    noop = true;
                } else if self.residents[to.0] >= self.capacity[to.0] {
                    return Err(MoveError::CapacityExceeded {
                        host: to,
                        capacity: self.capacity[to.0],
                    });
                } else {
                    self.hosts[rank as usize] = to;
                    self.residents[from.0] -= 1;
                    self.residents[to.0] += 1;
                    remove_rank(&mut self.ranks_on_host[from.0], rank);
                    self.ranks_on_host[to.0].push(rank);
                    self.moved.push(rank);
                    self.moved_old_host.push(from);
                    old_host = from;
                    // Resident counts changed on both hosts: every rank
                    // still (or newly) living there re-costs its compute.
                    self.compute_affected
                        .extend_from_slice(&self.ranks_on_host[from.0]);
                    self.compute_affected
                        .extend_from_slice(&self.ranks_on_host[to.0]);
                }
            }
        }
        let old_makespan = self.makespan;
        let old_clock_mean = self.clock_mean;
        self.pending = Some(PendingMove {
            mv,
            old_host,
            noop,
            old_makespan,
            old_clock_mean,
        });
        if !noop {
            self.delta_eval();
        } else {
            self.last_delta_ops = 0;
        }
        Ok(self.makespan)
    }

    /// Keeps the in-flight move (O(1): the caches already describe it).
    ///
    /// # Panics
    ///
    /// Panics if no move is in flight.
    pub fn commit(&mut self) {
        self.pending.take().expect("no move to commit");
        self.journal.clear();
    }

    /// Reverts the in-flight move: every journaled cache cell, the host
    /// assignment and the resident bookkeeping return to their pre-`apply`
    /// state exactly.
    ///
    /// # Panics
    ///
    /// Panics if no move is in flight.
    pub fn undo(&mut self) {
        let p = self.pending.take().expect("no move to undo");
        while let Some(u) = self.journal.pop() {
            match u {
                UndoEntry::Boundary { seg, rank, old } => {
                    self.boundary[seg as usize][rank as usize] = old;
                }
                UndoEntry::Msg { seg, idx, old } => {
                    if let SegCache::Msgs { msgs, .. } = &mut self.caches[seg as usize] {
                        msgs[idx as usize] = old;
                    }
                }
                UndoEntry::RingRow { table, rank, old } => {
                    let s = self.core.site_count;
                    let Some(RingTable::PerSrc { tsite, .. }) =
                        &mut self.core.ring_tables[table as usize]
                    else {
                        unreachable!("only PerSrc ring tables are ever journaled")
                    };
                    tsite[rank as usize * s..][..s].copy_from_slice(&old);
                }
            }
        }
        self.makespan = p.old_makespan;
        self.clock_mean = p.old_clock_mean;
        if !p.noop {
            match p.mv {
                Move::Swap { a, b } => {
                    let (ha, hb) = (self.hosts[a as usize], self.hosts[b as usize]);
                    self.hosts[a as usize] = hb;
                    self.hosts[b as usize] = ha;
                    remove_rank(&mut self.ranks_on_host[ha.0], a);
                    remove_rank(&mut self.ranks_on_host[hb.0], b);
                    self.ranks_on_host[hb.0].push(a);
                    self.ranks_on_host[ha.0].push(b);
                }
                Move::Migrate { rank, to } => {
                    self.hosts[rank as usize] = p.old_host;
                    self.residents[to.0] -= 1;
                    self.residents[p.old_host.0] += 1;
                    remove_rank(&mut self.ranks_on_host[to.0], rank);
                    self.ranks_on_host[p.old_host.0].push(rank);
                }
            }
        }
    }

    /// Re-parks the evaluator on `new_hosts` under its *current*
    /// capacities: [`Self::rebase`] with the capacity vector unchanged.
    ///
    /// The online searcher parks each pooled evaluator on the annealed
    /// best placement after a walk — the walk itself ends wherever its
    /// last accepted move left it, typically dozens of ranks away from
    /// the best.  Without the re-park, the next arrival's rebase diff is
    /// churn *plus* that annealing drift, which degenerates into the
    /// wholesale path on every arrival; with it, the diff is the
    /// occupancy churn alone.
    pub fn rehome(&mut self, new_hosts: &[HostId]) -> SimDuration {
        let caps = self.capacity.clone();
        self.rebase(new_hosts, &caps)
    }

    /// Re-synchronizes a *warm* evaluator with the grid state of a new
    /// arrival: adopts `new_hosts` as the rank assignment and
    /// `new_capacity` as the per-host slot capacities.  This is the
    /// cross-job half of the warm-reuse story (see the module docs):
    /// between two arrivals of the same kernel shape only a handful of
    /// occupy/release events happened, so the diff against the cached
    /// assignment is usually empty — the O(hosts) capacity-resync early
    /// return — and otherwise small enough that a segment re-run over the
    /// warm caches (no allocations, no ring-table build) is the cheapest
    /// way to absorb it.
    ///
    /// Capacity changes alone dirty no clocks — the memory-contention model
    /// keys on `residents`, which counts only this schedule's own ranks —
    /// so a pure capacity resync is O(hosts).  The rebase has commit
    /// semantics: the undo journal is cleared, no move can be undone across
    /// it.  The resulting caches are bit-identical to a fresh
    /// [`PlacementCost::new`] with the same arguments, which is what makes
    /// the warm online-search path exact (pinned by proptest).
    ///
    /// Returns the re-evaluated makespan.
    ///
    /// # Panics
    ///
    /// Panics if a move is in flight, if the slice lengths do not match the
    /// schedule/topology, or if the new assignment oversubscribes a host
    /// under the new capacities.
    pub fn rebase(&mut self, new_hosts: &[HostId], new_capacity: &[u32]) -> SimDuration {
        assert!(
            self.pending.is_none(),
            "commit or undo the in-flight move before rebasing"
        );
        assert_eq!(
            new_hosts.len(),
            self.hosts.len(),
            "rebase changes hosts, not the rank count"
        );
        assert_eq!(
            new_capacity.len(),
            self.capacity.len(),
            "one capacity per host"
        );
        self.capacity.copy_from_slice(new_capacity);
        self.moved.clear();
        self.moved_old_host.clear();
        self.compute_affected.clear();
        let n = self.hosts.len();
        let moved_count = new_hosts
            .iter()
            .zip(&self.hosts)
            .filter(|(new_h, old_h)| new_h != old_h)
            .count();
        if moved_count == 0 {
            self.assert_within_capacity();
            self.last_delta_ops = 0;
            return self.makespan;
        }
        // Any moved rank goes wholesale: a collective segment touches
        // every rank, so even a one-rank diff dirties essentially the
        // whole schedule and the journaled delta machinery (per-receive
        // patches, ring re-runs from the earliest touched step) costs
        // *more* than re-running every segment once over the warm caches
        // — measured at every day-mix shape from EP@64 up, and within a
        // microsecond of break-even below that.  Adopt the assignment and
        // rebuild in place: the caches end bit-identical to a fresh
        // [`PlacementCost::new`] either way, and the rebuild skips what
        // actually dominates a cold arrival — the allocations and the
        // ring-table build.  The zero-diff early return above is the warm
        // fast path the steady-state regime lives on.
        // Ring rows first, while the old assignment is still readable.
        for (r, &new) in new_hosts.iter().enumerate() {
            self.retarget_rank(r, self.hosts[r], new, false);
        }
        self.hosts.copy_from_slice(new_hosts);
        self.residents.iter_mut().for_each(|r| *r = 0);
        self.ranks_on_host.iter_mut().for_each(Vec::clear);
        for (r, &h) in self.hosts.iter().enumerate() {
            self.residents[h.0] += 1;
            self.ranks_on_host[h.0].push(r as u32);
        }
        self.assert_within_capacity();
        self.rebuild();
        self.journal.clear();
        self.last_delta_ops = n * self.schedule.segments.len();
        self.makespan
    }

    fn assert_within_capacity(&self) {
        for (h, (&used, &cap)) in self.residents.iter().zip(&self.capacity).enumerate() {
            assert!(
                used <= cap,
                "rebase puts {used} ranks on {} (capacity {cap})",
                HostId(h)
            );
        }
    }

    // -- internals ---------------------------------------------------------

    #[inline]
    fn compute_cost(&self, rank: usize, ops: f64, intensity: MemoryIntensity) -> SimDuration {
        let h = self.hosts[rank];
        self.compute
            .compute_time(h, ops, intensity, self.residents[h.0] as usize)
    }

    #[inline]
    fn set_dirty(&mut self, r: u32, v: SimTime) {
        if !self.dirty_flag[r as usize] {
            self.dirty_flag[r as usize] = true;
            self.dirty_list.push(r);
        }
        self.dirty_val[r as usize] = v;
    }

    /// Entry clocks of segment `seg` for a clean rank.
    #[inline]
    fn entry_clock(&self, seg: usize, rank: usize) -> SimTime {
        if seg == 0 {
            SimTime::ZERO
        } else {
            self.boundary[seg - 1][rank]
        }
    }

    /// Full replay filling every cache (construction and wholesale rebase;
    /// moves maintain the caches incrementally).
    fn rebuild(&mut self) {
        let mut clocks = vec![SimTime::ZERO; self.hosts.len()];
        self.core.full_pass(
            &self.schedule,
            &self.hosts,
            &self.residents,
            &self.network,
            &self.compute,
            &mut clocks,
            Some(Recording {
                caches: &mut self.caches,
                boundary: &mut self.boundary,
            }),
        );
        let (max, sum) = max_and_sum(&clocks);
        self.makespan = max.saturating_since(SimTime::ZERO);
        self.clock_mean = sum / clocks.len().max(1) as f64;
    }

    /// The delta pass: propagate the in-flight move through every segment,
    /// journaling each cache mutation.
    fn delta_eval(&mut self) {
        let schedule = self.schedule.clone();
        let moved = std::mem::take(&mut self.moved);
        let old_hosts = std::mem::take(&mut self.moved_old_host);
        let affected = std::mem::take(&mut self.compute_affected);
        debug_assert!(self.dirty_list.is_empty());
        let mut delta_ops = 0;
        for (&r, &old) in moved.iter().zip(&old_hosts) {
            delta_ops += self.retarget_rank(r as usize, old, self.hosts[r as usize], true);
        }
        self.core
            .refresh_ring_view(&self.hosts, &self.residents, self.network.topology());

        for (seg, segment) in schedule.segments.iter().enumerate() {
            match segment {
                Segment::Compute { intensity, ops } => {
                    delta_ops += self.delta_compute(seg, *intensity, ops, &affected);
                }
                Segment::Msgs { msgs, by_rank } => {
                    delta_ops += self.delta_msgs(seg, msgs, by_rank, &moved);
                }
                Segment::Ring { shape } => {
                    delta_ops += self.delta_ring(seg, *shape);
                }
                Segment::Advance { d } => {
                    delta_ops += self.delta_advance(seg, *d);
                }
            }
        }

        // New makespan and mean: the final boundary holds the committed
        // clocks of clean ranks and the just-written clocks of dirty ones.
        let finals = self.boundary.last().unwrap_or(&self.entry);
        let (max, sum) = max_and_sum(finals);
        self.makespan = max.saturating_since(SimTime::ZERO);
        self.clock_mean = sum / finals.len().max(1) as f64;

        for &r in &self.dirty_list {
            self.dirty_flag[r as usize] = false;
        }
        self.dirty_list.clear();
        self.moved = moved;
        self.moved_old_host = old_hosts;
        self.compute_affected = affected;
        self.last_delta_ops = delta_ops;
    }

    /// Gathers the currently-dirty ranks (deduplicated) into `self.cand`.
    fn gather_dirty(&mut self) {
        self.epoch += 1;
        let ep = self.epoch;
        let mut cand = std::mem::take(&mut self.cand);
        cand.clear();
        for &r in &self.dirty_list {
            if self.dirty_flag[r as usize] && self.visit_epoch[r as usize] != ep {
                self.visit_epoch[r as usize] = ep;
                cand.push(r);
            }
        }
        self.cand = cand;
    }

    fn delta_compute(
        &mut self,
        seg: usize,
        intensity: MemoryIntensity,
        ops: &[f64],
        affected: &[u32],
    ) -> usize {
        self.gather_dirty();
        let ep = self.epoch;
        let mut cand = std::mem::take(&mut self.cand);
        for &r in affected {
            if self.visit_epoch[r as usize] != ep {
                self.visit_epoch[r as usize] = ep;
                cand.push(r);
            }
        }
        for &r in &cand {
            let ri = r as usize;
            let in_v = if self.dirty_flag[ri] {
                self.dirty_val[ri]
            } else {
                self.entry_clock(seg, ri)
            };
            let out = in_v + self.compute_cost(ri, ops[ri], intensity);
            let cached = self.boundary[seg][ri];
            if out != cached {
                self.journal.push(UndoEntry::Boundary {
                    seg: seg as u32,
                    rank: r,
                    old: cached,
                });
                self.boundary[seg][ri] = out;
                self.set_dirty(r, out);
            } else {
                self.dirty_flag[ri] = false;
            }
        }
        let n = cand.len();
        self.cand = cand;
        n
    }

    fn delta_advance(&mut self, seg: usize, d: SimDuration) -> usize {
        self.gather_dirty();
        let cand = std::mem::take(&mut self.cand);
        for &r in &cand {
            let ri = r as usize;
            let out = self.dirty_val[ri] + d;
            let cached = self.boundary[seg][ri];
            if out != cached {
                self.journal.push(UndoEntry::Boundary {
                    seg: seg as u32,
                    rank: r,
                    old: cached,
                });
                self.boundary[seg][ri] = out;
                self.dirty_val[ri] = out;
            } else {
                self.dirty_flag[ri] = false;
            }
        }
        let n = cand.len();
        self.cand = cand;
        n
    }

    /// Updates the segment's boundary from the ranks still dirty at its end
    /// (their boundary value necessarily changed; see the module docs).
    fn sweep_boundary(&mut self, seg: usize) {
        self.gather_dirty();
        let cand = std::mem::take(&mut self.cand);
        for &r in &cand {
            let ri = r as usize;
            let old = self.boundary[seg][ri];
            let new = self.dirty_val[ri];
            if old != new {
                self.journal.push(UndoEntry::Boundary {
                    seg: seg as u32,
                    rank: r,
                    old,
                });
                self.boundary[seg][ri] = new;
            } else {
                // The clock re-converged exactly onto the cached boundary.
                self.dirty_flag[ri] = false;
            }
        }
        self.cand = cand;
    }

    fn delta_msgs(
        &mut self,
        seg: usize,
        msgs: &[MsgRec],
        by_rank: &[Box<[u32]>],
        moved: &[u32],
    ) -> usize {
        let mut cache = std::mem::replace(&mut self.caches[seg], SegCache::Plain);
        let SegCache::Msgs {
            msgs: mcache,
            queued_epoch,
        } = &mut cache
        else {
            unreachable!("segment/cache shape mismatch")
        };
        self.epoch += 1;
        let ep = self.epoch;
        debug_assert!(self.worklist.is_empty());
        // Seed: the first message of every entry-dirty rank, every message
        // of a moved rank (their transfer costs changed).
        for i in 0..self.dirty_list.len() {
            let r = self.dirty_list[i];
            if !self.dirty_flag[r as usize] {
                continue;
            }
            if let Some(&k) = by_rank[r as usize].first() {
                if queued_epoch[k as usize] != ep {
                    queued_epoch[k as usize] = ep;
                    self.worklist.push(Reverse(k));
                }
            }
        }
        for &m in moved {
            for &k in by_rank[m as usize].iter() {
                if queued_epoch[k as usize] != ep {
                    queued_epoch[k as usize] = ep;
                    self.worklist.push(Reverse(k));
                }
            }
        }
        let mut processed = 0usize;
        while let Some(Reverse(k)) = self.worklist.pop() {
            processed += 1;
            let m = msgs[k as usize];
            let (s, d) = (m.src as usize, m.dst as usize);
            let old = mcache[k as usize];
            let in_src = if self.dirty_flag[s] {
                self.dirty_val[s]
            } else {
                old.in_src
            };
            let in_dst = if self.dirty_flag[d] {
                self.dirty_val[d]
            } else {
                old.in_dst
            };
            let out_src = in_src + self.core.overhead;
            let t = self.core.tree_transfer(
                &self.network,
                &self.schedule.msg_sizes,
                self.hosts[s],
                self.hosts[d],
                m.size,
            );
            let out_dst = in_dst.max(out_src + t);
            if in_src != old.in_src || in_dst != old.in_dst || out_dst != old.out_dst {
                self.journal.push(UndoEntry::Msg {
                    seg: seg as u32,
                    idx: k,
                    old,
                });
                mcache[k as usize] = MsgCache {
                    in_src,
                    in_dst,
                    out_dst,
                };
            }
            // The sender's post-message clock changes exactly when its input
            // did (the overhead is constant).
            if in_src != old.in_src {
                self.set_dirty(m.src, out_src);
                push_next(&mut self.worklist, queued_epoch, ep, &by_rank[s], k);
            } else {
                self.dirty_flag[s] = false;
            }
            if out_dst != old.out_dst {
                self.set_dirty(m.dst, out_dst);
                push_next(&mut self.worklist, queued_epoch, ep, &by_rank[d], k);
            } else {
                self.dirty_flag[d] = false;
            }
        }
        self.caches[seg] = cache;
        self.sweep_boundary(seg);
        processed
    }

    /// Re-derives one ring segment with the two-row wavefront.  A move
    /// perturbs the transfer cost of a moved rank against *every* partner,
    /// and the ring's max-plus recurrence can carry that to any exit clock,
    /// so the delta pass re-runs all n−1 steps — but over the pooled
    /// integer tables, which is what makes it several times cheaper than a
    /// replay (see the module docs).
    fn delta_ring(&mut self, seg: usize, shape: u32) -> usize {
        let n = self.hosts.len();
        if n <= 1 {
            return 0;
        }
        // Entry row: the committed segment entry with dirty overrides.
        for r in 0..n {
            let c = if self.dirty_flag[r] {
                self.dirty_val[r]
            } else {
                self.entry_clock(seg, r)
            };
            self.core.wf_prev[r] = c.as_nanos();
        }
        self.core
            .ring_wavefront(&self.schedule, &self.network, shape);
        // Flip the frontier: exactly the ranks whose exit clock changed are
        // dirty entering the next segment.
        let mut list = std::mem::take(&mut self.dirty_list);
        for &r in &list {
            self.dirty_flag[r as usize] = false;
        }
        list.clear();
        self.dirty_list = list;
        for d in 0..n {
            let new = SimTime::from_nanos(self.core.wf_prev[d]);
            let old = self.boundary[seg][d];
            if new != old {
                self.journal.push(UndoEntry::Boundary {
                    seg: seg as u32,
                    rank: d as u32,
                    old,
                });
                self.boundary[seg][d] = new;
                self.set_dirty(d as u32, new);
            }
        }
        (n - 1) * n
    }

    /// Rewrites the pooled `PerSrc` ring rows of a rank going from `old` to
    /// `new` — if its *site* changes: a same-site move keeps the rank's
    /// site-pair classes, so most moves touch nothing.  The old rows are
    /// journaled when the move can be undone (a rebase clears the journal
    /// anyway).  Returns the number of cells rewritten.
    fn retarget_rank(&mut self, rank: usize, old: HostId, new: HostId, undoable: bool) -> usize {
        let topology = self.network.topology();
        if topology.host(old).site == topology.host(new).site {
            return 0;
        }
        let journal = undoable.then_some(&mut self.journal);
        self.core
            .retarget_ring_rows(&self.schedule, &self.network, rank, new, journal)
    }

    /// Bytes of ring-cache state the evaluator holds: the pooled transfer
    /// tables plus the wavefront scratch rows — O(ranks · sites), versus
    /// the O(steps · ranks²) per-(step, rank) clock rows of the previous
    /// design (reported and bounded by `perf_report`'s `is_search` gate).
    pub fn ring_cache_bytes(&self) -> usize {
        let core = &self.core;
        let tables: usize = core
            .ring_tables
            .iter()
            .flatten()
            .map(|t| match t {
                RingTable::Uniform { site, .. } => (site.len() + 1) * std::mem::size_of::<u64>(),
                RingTable::PerSrc { tsame, tsite } => {
                    (tsame.len() + tsite.len()) * std::mem::size_of::<u64>()
                }
            })
            .sum();
        tables
            + (core.wf_prev.len() + core.wf_cur.len() + core.uniform_rows.len())
                * std::mem::size_of::<u64>()
            + (core.host_of.len() + core.site_of.len()) * std::mem::size_of::<u32>()
            + core.by_host.len() * std::mem::size_of::<(u32, u32)>()
            + core.colo.len() * std::mem::size_of::<(u32, u32, u32)>()
    }

    /// Byte accounting of the `Uniform` specialisation: `(tables,
    /// uniform_bytes, per_src_equivalent_bytes)` — how many pooled transfer
    /// tables compressed to the move-invariant site×site form, the bytes
    /// they hold, and what the same tables would occupy in the journaled
    /// `PerSrc` layout (a `tsame` entry plus a site row per rank).
    pub fn uniform_ring_summary(&self) -> (usize, usize, usize) {
        let n = self.hosts.len();
        let word = std::mem::size_of::<u64>();
        let mut tables = 0usize;
        let mut bytes = 0usize;
        let mut per_src = 0usize;
        for t in self.core.ring_tables.iter().flatten() {
            if let RingTable::Uniform { site, .. } = t {
                tables += 1;
                bytes += (site.len() + 1) * word;
                per_src += (n + n * self.core.site_count) * word;
            }
        }
        (tables, bytes, per_src)
    }
}

/// One pass over the final clocks: the largest (the makespan) and the sum
/// in seconds (the plateau-breaking regularizer of annealing drivers).
fn max_and_sum(clocks: &[SimTime]) -> (SimTime, f64) {
    let mut max = SimTime::ZERO;
    let mut sum = 0.0f64;
    for &c in clocks {
        max = max.max(c);
        sum += c.as_secs_f64();
    }
    (max, sum)
}

/// Removes one occurrence of `rank` from a host's resident list.
fn remove_rank(list: &mut Vec<u32>, rank: u32) {
    let i = list
        .iter()
        .position(|&r| r == rank)
        .expect("rank resident list out of sync");
    list.swap_remove(i);
}

/// Pushes the next message of a rank after message `k` onto the worklist.
#[inline]
fn push_next(
    worklist: &mut BinaryHeap<Reverse<u32>>,
    queued_epoch: &mut [u32],
    ep: u32,
    by_rank: &[u32],
    k: u32,
) {
    let pos = by_rank.partition_point(|&i| i <= k);
    if let Some(&next) = by_rank.get(pos) {
        if queued_epoch[next as usize] != ep {
            queued_epoch[next as usize] = ep;
            worklist.push(Reverse(next));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmpi_simgrid::topology::{NodeSpec, Topology, TopologyBuilder};
    use std::sync::Arc;

    fn topology() -> Arc<Topology> {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("local");
        let s1 = b.add_site("remote");
        b.add_cluster(s0, "l", "cpu", 4, NodeSpec::default());
        b.add_cluster(s1, "r", "cpu", 4, NodeSpec::default());
        b.set_rtt(s0, s1, SimDuration::from_millis(10));
        Arc::new(b.build())
    }

    fn model_for(placement: &Placement, t: &Arc<Topology>) -> ModelComm {
        ModelComm::new(
            placement,
            NetworkModel::new(t.clone()),
            ComputeModel::new(t.clone()),
        )
    }

    #[test]
    fn loggp_params_reflect_the_link() {
        let t = topology();
        let m = NetworkModel::new(t.clone());
        let l0 = t.host_by_name("l-0").unwrap().id;
        let r0 = t.host_by_name("r-0").unwrap().id;
        let local = LogGpParams::between(&m, l0, l0);
        let wan = LogGpParams::between(&m, l0, r0);
        assert_eq!(wan.latency, SimDuration::from_millis(5));
        assert!(local.latency < wan.latency);
        assert_eq!(wan.overhead, m.params().per_message_overhead);
        assert_eq!(wan.gap, wan.overhead);
        // 1 Gbps NIC bottleneck with 1.05 framing: ~8.4 ns per byte.
        assert!((wan.secs_per_byte - 8.4e-9).abs() < 0.1e-9);
        // Loopback is modelled faster than the NIC.
        assert!(local.secs_per_byte < wan.secs_per_byte);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        let t = topology();
        let p = Placement::co_located(1, t.hosts()[0].id);
        let mut m = model_for(&p, &t);
        m.bcast(0, 1 << 20);
        m.reduce(0, 1 << 20);
        m.allreduce(1 << 20);
        m.alltoall(1 << 20);
        assert_eq!(m.makespan(), SimDuration::ZERO);
    }

    #[test]
    fn bcast_cost_grows_logarithmically() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().map(|h| h.id).take(4).collect();
        // 2 ranks: one message; 4 ranks: two latency steps on the critical
        // path (binomial tree), not three.
        let mut two = model_for(&Placement::one_per_host(&hosts[..2]), &t);
        two.bcast(0, 64);
        let mut four = model_for(&Placement::one_per_host(&hosts), &t);
        four.bcast(0, 64);
        let t2 = two.makespan();
        let t4 = four.makespan();
        assert!(t4 > t2);
        assert!(
            t4 < t2 * 3,
            "4-rank binomial bcast {t4} must cost ~2 latency steps, not 3 ({t2} each)"
        );
        assert_eq!(four.stats().messages_sent, 3);
    }

    #[test]
    fn cross_site_collectives_cost_more() {
        let t = topology();
        let local: Vec<_> = t.hosts().iter().take(4).map(|h| h.id).collect();
        let mixed: Vec<_> = t.hosts().iter().skip(2).take(4).map(|h| h.id).collect();
        let mut a = model_for(&Placement::one_per_host(&local), &t);
        a.allreduce(1024);
        let mut b = model_for(&Placement::one_per_host(&mixed), &t);
        b.allreduce(1024);
        assert!(b.makespan() > a.makespan() * 10);
    }

    #[test]
    fn compute_respects_residents() {
        let t = topology();
        let host = t.hosts()[0].id;
        let spread: Vec<_> = t.hosts().iter().take(4).map(|h| h.id).collect();
        let mut packed = model_for(&Placement::co_located(4, host), &t);
        packed.compute(MemoryIntensity::MEMORY_BOUND, |_| 1e9);
        let mut spread_m = model_for(&Placement::one_per_host(&spread), &t);
        spread_m.compute(MemoryIntensity::MEMORY_BOUND, |_| 1e9);
        assert!(packed.makespan() > spread_m.makespan());
        assert_eq!(packed.stats().compute_ops, 4e9);
    }

    #[test]
    fn alltoall_counts_ring_messages() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(4).map(|h| h.id).collect();
        let mut m = model_for(&Placement::one_per_host(&hosts), &t);
        m.alltoall(256);
        // n(n-1) messages of 256 bytes.
        assert_eq!(m.stats().messages_sent, 12);
        assert_eq!(m.stats().bytes_sent, 12 * 256);
        assert!(m.makespan() > SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "unreplicated")]
    fn replicated_placement_is_rejected() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(4).map(|h| h.id).collect();
        let p = Placement::replicated_round_robin(2, 2, &hosts);
        model_for(&p, &t);
    }

    /// A small mixed program exercised by the schedule/evaluator tests.
    fn record_program<P: CollectiveProgram>(p: &mut P) {
        p.compute(MemoryIntensity::MEMORY_BOUND, |r| 1e8 * (r as f64 + 1.0));
        p.allreduce(64);
        p.alltoall(128);
        p.alltoallv(|src, _| src as u64 * 16);
        p.allgather(|r| (r % 3) as u64 * 8 + 8);
        p.barrier();
    }

    fn evaluator_for(hosts: Vec<HostId>, t: &Arc<Topology>) -> PlacementCost {
        let mut b = ScheduleBuilder::new(hosts.len() as u32);
        record_program(&mut b);
        let schedule = Arc::new(b.finish());
        let capacity = t.hosts().iter().map(|h| h.cores as u32).collect();
        PlacementCost::new(
            schedule,
            hosts,
            capacity,
            NetworkModel::new(t.clone()),
            ComputeModel::new(t.clone()),
        )
    }

    #[test]
    fn compiled_schedule_drives_a_model_comm_identically() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(6).map(|h| h.id).collect();
        let placement = Placement::one_per_host(&hosts);
        let mut direct = model_for(&placement, &t);
        record_program(&mut direct);

        let mut b = ScheduleBuilder::new(6);
        record_program(&mut b);
        let schedule = b.finish();
        let mut driven = model_for(&placement, &t);
        schedule.drive(&mut driven);

        assert_eq!(direct.clocks(), driven.clocks());
        assert_eq!(direct.stats().messages_sent, driven.stats().messages_sent);
    }

    #[test]
    fn schedule_interns_message_sizes_and_pools_ring_shapes() {
        let mut b = ScheduleBuilder::new(8);
        for _ in 0..3 {
            b.allreduce(64);
            b.alltoall(128);
            b.alltoallv(|src, _| src as u64 * 16);
        }
        b.bcast(0, 64);
        b.gather(0, |r| 8 + r as u64 % 2);
        let schedule = b.finish();
        assert_eq!(schedule.msg_sizes, [64, 9, 8]);
        assert_eq!(schedule.ring_shapes.len(), 2);
        // Three allreduce runs, the bcast + gather run, six rings.
        assert_eq!(schedule.segment_count(), 10);
        // Dominated by the tree messages: 3·14 + 7 + 7 records plus their
        // per-rank index.
        let msgs = 56 * std::mem::size_of::<MsgRec>();
        assert!(schedule.heap_bytes() > msgs && schedule.heap_bytes() < 8 * msgs);
    }

    #[test]
    fn cost_of_equals_a_model_comm_replay() {
        let t = topology();
        let host = |i: usize| t.hosts()[i].id;
        let mut b = ScheduleBuilder::new(6);
        record_program(&mut b);
        // A PerPair ring too: the wavefront's table-less fallback.
        b.alltoallv(|src, dst| (src as u64 * 7 + dst as u64) % 13 * 8);
        let schedule = b.finish();
        let network = NetworkModel::new(t.clone());
        let compute = ComputeModel::new(t.clone());
        let assignments = [
            // One rank per host, both sites.
            (1..7).map(host).collect::<Vec<_>>(),
            // Pairs sharing a host, the pairs not adjacent in rank order.
            vec![host(0), host(5), host(0), host(1), host(5), host(1)],
            // Six ranks on one two-core host: `PlacementCost::new` would
            // refuse this assignment, the cost-only entry has no capacity
            // notion — exactly like `ModelComm`.
            vec![host(4); 6],
        ];
        for hosts in assignments {
            let mut replay = model_for(&Placement::one_per_host(&hosts), &t);
            schedule.drive(&mut replay);
            assert_eq!(
                PlacementCost::cost_of(&schedule, &hosts, &network, &compute),
                replay.makespan(),
                "{hosts:?}"
            );
        }
    }

    #[test]
    fn rank_hosts_indexes_by_rank() {
        let mut p = Placement::one_per_host(&[HostId(3), HostId(1), HostId(2)]);
        p.procs.reverse();
        assert_eq!(rank_hosts(&p), [HostId(3), HostId(1), HostId(2)]);
    }

    #[test]
    fn placement_cost_matches_the_oracle_at_rest_and_after_moves() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(6).map(|h| h.id).collect();
        let mut cost = evaluator_for(hosts, &t);
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);

        // A cross-site swap changes the picture; delta == oracle.
        let before = cost.cost();
        let after = cost.apply(Move::Swap { a: 0, b: 5 }).unwrap();
        cost.commit();
        assert_ne!(before, after);
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
        assert_eq!(cost.cost(), cost.oracle_cost());

        // Migrate onto an occupied-but-not-full host (co-location).
        let dst = cost.hosts()[1];
        let c = cost.apply(Move::Migrate { rank: 2, to: dst }).unwrap();
        cost.commit();
        assert_eq!(c, cost.oracle_cost());
        assert_eq!(cost.residents_on(dst), 2);
    }

    #[test]
    fn undo_restores_the_exact_pre_move_state() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(6).map(|h| h.id).collect();
        let mut cost = evaluator_for(hosts.clone(), &t);
        let before_cost = cost.cost();
        let before_clocks = cost.clocks().to_vec();

        cost.apply(Move::Swap { a: 1, b: 4 }).unwrap();
        cost.undo();
        assert_eq!(cost.cost(), before_cost);
        assert_eq!(cost.clocks(), &before_clocks[..]);
        assert_eq!(cost.hosts(), &hosts[..]);

        // Undo of a migrate restores the resident counts too.
        let dst = hosts[0];
        cost.apply(Move::Migrate { rank: 3, to: dst }).unwrap();
        cost.undo();
        assert_eq!(cost.residents_on(dst), 1);
        assert_eq!(cost.hosts(), &hosts[..]);
        assert_eq!(cost.clocks(), &before_clocks[..]);
    }

    #[test]
    fn capacity_violating_migrate_is_rejected_without_mutation() {
        let t = topology();
        // Fill host 0 (2 cores) completely, rank 2 lives elsewhere.
        let h0 = t.hosts()[0].id;
        let h5 = t.hosts()[5].id;
        let cap0 = t.host(h0).cores as u32;
        let mut hosts = vec![h0; cap0 as usize];
        hosts.push(h5);
        let full_rank = cap0;
        let mut cost = evaluator_for(hosts.clone(), &t);
        let before_cost = cost.cost();
        let before_clocks = cost.clocks().to_vec();
        let err = cost
            .apply(Move::Migrate {
                rank: full_rank,
                to: h0,
            })
            .unwrap_err();
        assert_eq!(
            err,
            MoveError::CapacityExceeded {
                host: h0,
                capacity: cap0
            }
        );
        // Nothing moved, nothing journaled: the next apply is legal and the
        // state is exactly the pre-error one.
        assert_eq!(cost.hosts(), &hosts[..]);
        assert_eq!(cost.cost(), before_cost);
        assert_eq!(cost.clocks(), &before_clocks[..]);
        let after = cost.apply(Move::Swap { a: 0, b: full_rank }).unwrap();
        cost.commit();
        assert_eq!(after, cost.oracle_cost());
    }

    #[test]
    fn noop_moves_cost_nothing_and_commit_cleanly() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(4).map(|h| h.id).collect();
        let mut cost = evaluator_for(hosts.clone(), &t);
        let before = cost.cost();
        let same = cost.apply(Move::Swap { a: 2, b: 2 }).unwrap();
        assert_eq!(same, before);
        assert_eq!(cost.last_delta_ops(), 0);
        cost.undo();
        let same = cost
            .apply(Move::Migrate {
                rank: 1,
                to: hosts[1],
            })
            .unwrap();
        assert_eq!(same, before);
        cost.commit();
        assert_eq!(cost.hosts(), &hosts[..]);
    }

    #[test]
    fn transpose_alltoallv_compresses_despite_the_diagonal() {
        // FT-shaped: 0 bytes to self, a constant block everywhere else.
        // The diagonal is never costed (ring steps run 1..n), so this must
        // compress to Uniform — and cost exactly what the direct model run
        // charges.
        let mut b = ScheduleBuilder::new(6);
        b.alltoallv(|src, dst| if src == dst { 0 } else { 4096 });
        b.alltoallv(|src, dst| if src == dst { 0 } else { (src as u64 + 1) * 64 });
        b.alltoallv(|src, dst| (src as u64 * 7 + dst as u64) % 13 * 8);
        let schedule = b.finish();
        let forms: Vec<_> = schedule
            .segments
            .iter()
            .filter_map(|s| match s {
                Segment::Ring { shape } => Some(&schedule.ring_shapes[*shape as usize]),
                _ => None,
            })
            .collect();
        assert_eq!(forms.len(), 3);
        assert!(matches!(forms[0], RingBytes::Uniform(4096)));
        assert!(matches!(forms[1], RingBytes::PerSrc(_)));
        assert!(matches!(forms[2], RingBytes::PerPair(_)));

        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(6).map(|h| h.id).collect();
        let placement = Placement::one_per_host(&hosts);
        let mut direct = model_for(&placement, &t);
        direct.alltoallv(|src, dst| if src == dst { 0 } else { 4096 });
        direct.alltoallv(|src, dst| if src == dst { 0 } else { (src as u64 + 1) * 64 });
        direct.alltoallv(|src, dst| (src as u64 * 7 + dst as u64) % 13 * 8);
        let mut driven = model_for(&placement, &t);
        schedule.drive(&mut driven);
        assert_eq!(direct.clocks(), driven.clocks());
    }

    #[test]
    fn ring_tables_pool_across_identical_segments() {
        // Ten iterations of the same uniform ring share one pooled table:
        // the evaluator's ring state must cost the same as a single ring's.
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().map(|h| h.id).collect();
        let capacity: Vec<u32> = t.hosts().iter().map(|h| h.cores as u32).collect();
        let build = |rings: usize| {
            let mut b = ScheduleBuilder::new(hosts.len() as u32);
            for _ in 0..rings {
                b.alltoall(512);
            }
            PlacementCost::new(
                Arc::new(b.finish()),
                hosts.clone(),
                capacity.clone(),
                NetworkModel::new(t.clone()),
                ComputeModel::new(t.clone()),
            )
        };
        let one = build(1);
        let ten = build(10);
        assert_eq!(one.ring_cache_bytes(), ten.ring_cache_bytes());
        // O(ranks · sites) state: 8 ranks on a 2-site grid is well under a
        // kilobyte of table plus the shared wavefront scratch.
        assert!(ten.ring_cache_bytes() < 1024);

        // Moves on the pooled schedule still match the oracle.
        let mut ten = ten;
        ten.apply(Move::Swap { a: 0, b: 7 }).unwrap();
        ten.commit();
        assert_eq!(ten.clocks(), &ten.oracle_clocks()[..]);
    }

    #[test]
    fn delta_visits_far_fewer_ops_than_the_full_schedule() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().map(|h| h.id).collect();
        // EP-shaped program: one compute phase and two allreduces.
        let n = hosts.len() as u32;
        let mut b = ScheduleBuilder::new(n);
        b.compute(MemoryIntensity::CPU_BOUND, |_| 1e9);
        b.allreduce(16);
        b.allreduce(96);
        let schedule = Arc::new(b.finish());
        let full_ops = schedule.op_count();
        let capacity = t.hosts().iter().map(|h| h.cores as u32).collect();
        let mut cost = PlacementCost::new(
            schedule,
            hosts,
            capacity,
            NetworkModel::new(t.clone()),
            ComputeModel::new(t.clone()),
        );
        cost.apply(Move::Swap { a: 0, b: 7 }).unwrap();
        cost.commit();
        assert_eq!(cost.cost(), cost.oracle_cost());
        assert!(
            cost.last_delta_ops() < full_ops,
            "delta visited {} ops of a {}-op schedule",
            cost.last_delta_ops(),
            full_ops
        );
    }
}
