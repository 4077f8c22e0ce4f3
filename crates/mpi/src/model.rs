//! LogGP-style analytical cost model of the collective operations — and the
//! placement evaluator built on top of it.
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
//!   *value* re-costs a *mutable* assignment move by move (the placement
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
//! (~2 ns per receive), repeated blocks fast-forwarded (see the fast-forward
//! contract below).  The same pass costs every move of a searching
//! `PlacementCost`, so the objective a search optimises and the makespan a
//! sweep charges are one code path, not two that agree.  `cost_of` keeps
//! none of the search's state — no capacities, no second clock vector,
//! nothing sized by the topology's host count beyond one zeroed counter per
//! host — so small jobs gain too: measured on the day mix's shapes,
//! EP@8–128 costs 0.4–3 µs where the `ModelComm` replay takes 0.9–30 µs,
//! IS@8 ~3 µs against 20, IS@32 ~10 µs against ~300 (two of IS's ten
//! iterations stepped, eight fast-forwarded).
//!
//! A compiled schedule is placement-independent, so callers compile each
//! kernel shape once and share it (`p2pmpi_bench::search::
//! cached_kernel_schedule` is the process-wide cache; its contract is
//! documented there).
//!
//! # The move contract
//!
//! [`PlacementCost`] exists for *placement search*: simulated annealing
//! proposes a move (swap two ranks' hosts, or migrate one rank to an idle
//! slot), asks for the new modeled makespan, and keeps or reverts it.
//!
//! **`apply` is one full pass.**  It mutates the assignment — hosts,
//! per-host resident counts, and the `PerSrc` ring rows of a rank that
//! changed *site* — and runs [`PlacementCost::cost_of`]'s pass over the whole
//! schedule into a second clock vector.  Nothing is cached per segment or
//! per message: a move on the critical path dirties a whole allreduce and a
//! ring must be re-run in full anyway, so incremental bookkeeping only pays
//! from ~1 000 tree-only ranks up — above every shape the searched day and
//! the benchmark run (ROADMAP item 5 has the measured crossover).
//!
//! **What survives a move.**  The `(byte count, link class)` transfer memo
//! of tree messages — link class meaning same-host / directed site pair,
//! the only thing a transfer cost depends on; the schedule interns its
//! handful of distinct message sizes at compile time, so the memo is a
//! dense table and a lookup is one indexed load.  And the rings' *pooled
//! transfer tables*, one per distinct `Uniform`/`PerSrc` byte structure
//! among the schedule's rings (pooled at compile time, in the schedule).  A
//! `Uniform` ring (same byte count on every edge) collapses to one loopback
//! scalar plus a *site×site* matrix keyed by static topology data only —
//! O(sites²) bytes and **move-invariant**.  A `PerSrc` ring keeps each
//! source rank's transfer nanoseconds to a co-resident (`tsame[src]`,
//! host-independent) and to a host at every destination site
//! (`tsite[src · sites + site]`) — O(ranks · sites) bytes; a row is a pure
//! function of the rank's host and byte count, so a site-changing move
//! re-derives it and `undo` re-derives it back from the old host.
//!
//! **`undo` is a swap and a restore; `commit` is O(1).**
//! [`PlacementCost::clocks`] always holds the final per-rank clocks of the
//! current assignment; the vector `apply` displaced holds the previous
//! assignment's, so `undo` swaps the two back and restores hosts, resident
//! counts and ring rows.  A capacity-violating migrate is rejected without
//! touching any state.
//!
//! **Exactness.**  The clocks after any move sequence equal a from-scratch
//! [`ModelComm`] replay bit for bit, per rank — pinned by
//! `crates/mpi/tests/placement_cost_prop.rs` over random schedules,
//! placements and move sequences, with [`PlacementCost::oracle_clocks`] as
//! the oracle.  A ring is a two-row integer *wavefront* over the tables —
//! `C[d] = max(C'[d], C'[src] + t) + o` per step, pure u64 nanosecond
//! arithmetic over a per-rank host/site view and co-location list derived
//! once per pass — exact because `SimTime` is a plain u64 nanosecond
//! counter and the table entries are the very `NetworkModel::transfer_time`
//! values the replay computes.
//!
//! **Memory.**  Two clock vectors, the memo, and for rings O(ranks · sites)
//! of pooled tables plus O(ranks) scratch rows shared across *all* ring
//! segments with the same byte structure
//! ([`PlacementCost::ring_cache_bytes`] reports the total): IS at 1024 ranks
//! holds a few tables of ~64 KB.
//!
//! # The fast-forward contract
//!
//! Iterative kernels repeat one block of segments — IS's ten iterations are
//! `[allreduce, alltoall, alltoallv, compute]` ten times.
//! [`ScheduleBuilder::finish`] finds the longest run of three or more
//! back-to-back *equal* blocks structurally (equal segments intern to equal
//! ids; nothing is trusted from the caller) and records it on the schedule.
//! The pass remembers the clocks entering each repetition; when every rank
//! enters repetition `k` exactly one constant `c` later than it entered
//! repetition `k − 1`, the remaining repetitions are an addition: every
//! clock gains `(reps − k) · c` and the pass jumps past the run.
//!
//! *Why that is exact.*  On a fixed assignment every primitive commutes
//! with a uniform shift of all clocks, as long as no u64 nanosecond
//! addition saturates: a compute phase and `advance` add a
//! clock-independent term per rank; a message maps `(in_src, in_dst)` to
//! `(in_src + o, max(in_dst, in_src + o + t))`; a ring step is
//! `max(C'[d], C'[src] + t) + o`.  So a block maps entry clocks `x + c` to
//! exit clocks `F(x) + c`, and equal blocks entered at `x, x + c` are
//! entered at `x + 2c, x + 3c, …` by induction.  *The overflow guard:*
//! clocks only grow and every intermediate (an arrival time) is bounded by
//! a final clock, so the skip is taken only if `max(clocks) + (reps − k)·c`
//! fits a u64 — otherwise, and whenever the ranks did not advance in
//! lockstep, the pass keeps stepping and tries again at the next
//! repetition.  The decision is made per pass from the clocks alone: no
//! flag, no per-kernel annotation, and a body whose rank groups never
//! couple (or couple late) simply never (or late) fires.
//!
//! *Where it fires.*  A block that starts or ends with a synchronizing
//! collective reaches lockstep after one warm-up repetition: IS at 8, 32
//! and 1024 ranks and FT at 256 skip from the third repetition on every
//! pass measured, so IS costs two of its ten iterations
//! ([`PlacementCost::last_delta_ops`] reads 0.20–0.21 × `op_count()`) and
//! class-B FT two of its twenty.  EP has no repetition and is stepped in
//! full.
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
use std::collections::HashMap;
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
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// One segment of a compiled schedule.  Equality is what detects repeated
/// blocks (see [`CompiledSchedule::repeat`]): equal segments are the same
/// function of the clocks on any one assignment.
#[derive(Debug, Clone, PartialEq)]
enum Segment {
    /// A compute phase: per-rank abstract operation counts.
    Compute {
        intensity: MemoryIntensity,
        ops: Box<[f64]>,
    },
    /// A run of sequential tree messages (adjacent trees are merged).
    Msgs { msgs: Box<[MsgRec]> },
    /// One full ring exchange (n−1 steps); `shape` indexes
    /// [`CompiledSchedule::ring_shapes`].
    Ring { shape: u32 },
    /// A uniform clock advance.
    Advance { d: SimDuration },
}

impl Segment {
    /// Clock updates one evaluation of the segment performs on `n` ranks —
    /// the unit of [`CompiledSchedule::op_count`].
    fn op_count(&self, n: usize) -> usize {
        match self {
            Segment::Compute { ops, .. } => ops.len(),
            Segment::Msgs { msgs } => msgs.len(),
            Segment::Ring { .. } => n.saturating_sub(1) * n,
            Segment::Advance { .. } => n,
        }
    }
}

/// A run of back-to-back equal blocks of a schedule: segments
/// `start + k · period .. start + (k + 1) · period` are equal for every
/// repetition `k < reps`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Repeat {
    start: usize,
    period: usize,
    reps: usize,
}

impl Repeat {
    /// The first segment after the run.
    fn end(&self) -> usize {
        self.start + self.period * self.reps
    }
}

/// Fewest back-to-back equal blocks worth recording: the fast-forward needs
/// one repetition to reach lockstep and one to observe it.
const MIN_REPEATS: usize = 3;

/// A placement-independent, flat representation of a whole kernel's
/// collective program, recorded by [`ScheduleBuilder`] and evaluated by
/// [`PlacementCost`].
#[derive(Debug, Clone)]
pub struct CompiledSchedule {
    size: u32,
    segments: Vec<Segment>,
    /// The run of ≥ [`MIN_REPEATS`] equal blocks covering the most segments
    /// (IS: its ten iterations; EP: none) — what the evaluator's pass may
    /// fast-forward (see the module docs).  Found structurally by
    /// [`ScheduleBuilder::finish`].
    repeat: Option<Repeat>,
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

    /// The schedule's repeated block as `(start, period, reps)`: segments
    /// `start + k · period .. start + (k + 1) · period` are equal for every
    /// `k < reps` (at least three), and no other such run covers more
    /// segments.  `None` when nothing repeats three times back to back.
    /// Test-only surface: the `nas` kernels pin their detected run with it;
    /// no production code reads it.
    #[doc(hidden)]
    pub fn repeated_block(&self) -> Option<(usize, usize, usize)> {
        self.repeat.map(|r| (r.start, r.period, r.reps))
    }

    /// When `seg` is the first segment of a repetition of the repeated
    /// block: the block and the repetitions still to run, this one included.
    fn repeat_top(&self, seg: usize) -> Option<(Repeat, usize)> {
        let rep = self.repeat?;
        let into = seg.checked_sub(rep.start)?;
        (seg < rep.end() && into % rep.period == 0).then(|| (rep, rep.reps - into / rep.period))
    }

    /// The length of a full replay — per-rank compute terms, tree
    /// messages, per-step ring receives and advance terms (the same units
    /// [`PlacementCost::last_delta_ops`] counts), for reporting.
    pub fn op_count(&self) -> usize {
        let n = self.size as usize;
        self.segments.iter().map(|s| s.op_count(n)).sum()
    }

    /// Heap bytes the schedule holds — what one entry of a schedule cache
    /// costs (the tree messages dominate).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let segments: usize = self
            .segments
            .iter()
            .map(|s| match s {
                Segment::Compute { ops, .. } => ops.len() * size_of::<f64>(),
                Segment::Msgs { msgs } => msgs.len() * size_of::<MsgRec>(),
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
    /// replay of the original program (the oracle of the evaluator).
    pub fn drive<P: CollectiveProgram>(&self, p: &mut P) {
        assert_eq!(p.size(), self.size, "schedule compiled for another size");
        let n = self.size as usize;
        for seg in &self.segments {
            match seg {
                Segment::Compute { intensity, ops } => {
                    p.compute(*intensity, |r| ops[r as usize]);
                }
                Segment::Msgs { msgs } => {
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
        let msgs = std::mem::take(&mut self.open_msgs).into_boxed_slice();
        self.segments.push(Segment::Msgs { msgs });
    }

    /// Finalises the recording, detecting its repeated blocks.
    pub fn finish(mut self) -> CompiledSchedule {
        self.close_msgs();
        CompiledSchedule {
            size: self.size,
            repeat: find_repeat(&self.segments),
            segments: self.segments,
            msg_sizes: self.msg_sizes,
            ring_shapes: self.ring_shapes,
        }
    }
}

/// The run of at least [`MIN_REPEATS`] back-to-back equal blocks covering
/// the most segments; the shortest period, then the earliest start, break
/// ties.  Segments are interned to ids first (equal segments, equal ids),
/// so the scan compares integers.
fn find_repeat(segments: &[Segment]) -> Option<Repeat> {
    let mut distinct: Vec<&Segment> = Vec::new();
    let ids: Vec<usize> = segments
        .iter()
        .map(|seg| {
            distinct.iter().position(|d| *d == seg).unwrap_or_else(|| {
                distinct.push(seg);
                distinct.len() - 1
            })
        })
        .collect();
    let mut best: Option<Repeat> = None;
    for period in 1..=ids.len() / MIN_REPEATS {
        // `run` counts the consecutive positions ending at `i` whose segment
        // recurs one period later; a run of `r` is `r / period + 1` blocks.
        let mut run = 0;
        for i in 0..ids.len() - period {
            run = if ids[i] == ids[i + period] {
                run + 1
            } else {
                0
            };
            let reps = run / period + 1;
            if reps >= MIN_REPEATS && best.is_none_or(|b| reps * period > b.reps * b.period) {
                best = Some(Repeat {
                    start: i + 1 - run,
                    period,
                    reps,
                });
            }
        }
    }
    best
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
// The placement evaluator
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

/// Pooled transfer table of the ring wavefront: one per distinct
/// `Uniform`/`PerSrc` entry of [`CompiledSchedule::ring_shapes`].
/// Entries are `NetworkModel::transfer_time` values in nanoseconds — the
/// transfer cost depends only on same-host-ness / the directed site pair
/// and the byte count.
enum RingTable {
    /// A `Uniform` ring sends the same byte count on every edge, so the
    /// whole table collapses to one scalar plus a site×site matrix — both
    /// keyed by static topology data only.  **No move ever invalidates a
    /// `Uniform` table**: `retarget_ring_rows` skips it.
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

/// The in-flight move awaiting `commit`/`undo`.
struct PendingMove {
    /// `(rank, host it left)` of every rank the move relocated: two for a
    /// swap, one for a migrate, none for a move that changed nothing
    /// (same-host swap etc.).
    relocated: [Option<(Rank, HostId)>; 2],
    old_makespan: SimDuration,
    old_clock_mean: f64,
}

/// Transfer-memo cell that has not been costed yet.
const UNCOSTED: u64 = u64::MAX;

/// The pass half of the evaluator: everything one full pass over a schedule
/// reads — the tree-message transfer memo, the pooled ring tables, the
/// rings' per-rank host/site view and the scratch rows — and nothing a move
/// needs.  [`PlacementCost`] embeds one and layers the clocks, the capacity
/// bookkeeping and the in-flight move on top; [`PlacementCost::cost_of`]
/// builds one, runs [`EvalCore::full_pass`] once and drops it.  Everything
/// here is sized by ranks and sites, never by the topology's host count.
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
    /// `site_of` at the start of each wavefront over one, so the hot loop
    /// keeps the sequential `PerSrc` row shape.
    uniform_rows: Vec<u64>,
    /// Per-rank clocks (nanoseconds) on entry to the repetition of the
    /// schedule's repeated block the pass is in — what the next
    /// repetition's entry is compared with (empty without a repeat).
    rep_entry: Vec<u64>,
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
            rep_entry: vec![0; if schedule.repeat.is_some() { n } else { 0 }],
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
                // data only — fully move-invariant.
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

    /// Re-derives `rank`'s `tsite` row in every pooled `PerSrc` table for
    /// the host it now lives on, if that changed its *site*: a row is a pure
    /// function of the host's site and the rank's byte count, `Uniform`
    /// tables are move-invariant and `tsame` is host-independent (loopback),
    /// so a same-site move touches nothing.
    fn retarget_ring_rows(
        &mut self,
        schedule: &CompiledSchedule,
        network: &NetworkModel,
        rank: usize,
        old_host: HostId,
        new_host: HostId,
    ) {
        let topology = network.topology();
        if topology.host(old_host).site == topology.host(new_host).site {
            return;
        }
        let s_count = self.site_count;
        let mut tables = std::mem::take(&mut self.ring_tables);
        for (table, shape) in tables.iter_mut().zip(&schedule.ring_shapes) {
            if let (Some(RingTable::PerSrc { tsite, .. }), RingBytes::PerSrc(bytes)) =
                (table, shape)
            {
                let row = &mut tsite[rank * s_count..][..s_count];
                self.site_row(network, new_host, bytes[rank], row);
            }
        }
        self.ring_tables = tables;
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
    /// code path behind every costing — [`PlacementCost::cost_of`] and every
    /// [`PlacementCost::new`] and [`PlacementCost::apply`].  Returns the
    /// clock updates evaluated, in [`CompiledSchedule::op_count`] units:
    /// fast-forwarded repetitions are not evaluated and not counted.
    fn full_pass(
        &mut self,
        schedule: &CompiledSchedule,
        hosts: &[HostId],
        residents: &[u32],
        network: &NetworkModel,
        compute: &ComputeModel,
        clocks: &mut [SimTime],
    ) -> usize {
        self.refresh_ring_view(hosts, residents, network.topology());
        let n = clocks.len();
        let mut evaluated = 0;
        let mut seg = 0;
        while seg < schedule.segments.len() {
            if let Some((rep, left)) = schedule.repeat_top(seg) {
                if left < rep.reps && self.fast_forward(clocks, left) {
                    seg = rep.end();
                    continue;
                }
                for (slot, c) in self.rep_entry.iter_mut().zip(clocks.iter()) {
                    *slot = c.as_nanos();
                }
            }
            let segment = &schedule.segments[seg];
            match segment {
                Segment::Compute { intensity, ops } => {
                    for ((c, &h), &ops) in clocks.iter_mut().zip(hosts).zip(ops.iter()) {
                        *c += compute.compute_time(h, ops, *intensity, residents[h.0] as usize);
                    }
                }
                Segment::Msgs { msgs } => {
                    for &m in msgs.iter() {
                        let (s, d) = (m.src as usize, m.dst as usize);
                        let out_src = clocks[s] + self.overhead;
                        let t = self.tree_transfer(
                            network,
                            &schedule.msg_sizes,
                            hosts[s],
                            hosts[d],
                            m.size,
                        );
                        clocks[s] = out_src;
                        clocks[d] = clocks[d].max(out_src + t);
                    }
                }
                Segment::Ring { shape } => {
                    if n > 1 {
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
            evaluated += segment.op_count(n);
            seg += 1;
        }
        evaluated
    }

    /// The fast-forward test at the top of a repetition of the schedule's
    /// repeated block with `left` repetitions (this one included) to go: if
    /// every rank's clock is exactly one constant `c` past its
    /// [`Self::rep_entry`] value — the previous repetition's entry — and the
    /// shifted clocks fit a u64, adds `left · c` to every clock and returns
    /// true; the caller then jumps past the run.  Exact by the shift
    /// invariance of every primitive (see the fast-forward contract in the
    /// module docs); on false nothing is touched and the caller steps on.
    fn fast_forward(&self, clocks: &mut [SimTime], left: usize) -> bool {
        // A schedule has at least one rank, and clocks never decrease: the
        // differences are non-negative.
        let c = clocks[0].as_nanos() - self.rep_entry[0];
        let mut max = 0;
        for (clock, &entry) in clocks.iter().zip(&self.rep_entry) {
            if clock.as_nanos() - entry != c {
                return false;
            }
            max = max.max(clock.as_nanos());
        }
        let Some(shift) = c.checked_mul(left as u64) else {
            return false;
        };
        if max.checked_add(shift).is_none() {
            return false;
        }
        for clock in clocks.iter_mut() {
            *clock = SimTime::from_nanos(clock.as_nanos() + shift);
        }
        true
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

/// Evaluator of one compiled schedule over a mutable host assignment — the
/// hot path of the placement search.  See the module docs for the move
/// contract (what a move costs, what survives it, the exactness guarantee).
///
/// The evaluation protocol is `apply` → (`commit` | `undo`): `apply`
/// performs the move *and* returns the new modeled makespan; `commit` keeps
/// it (O(1)); `undo` restores the clocks and the host assignment exactly.
/// A caller that only wants one placement's makespan — no moves — uses
/// [`PlacementCost::cost_of`], the same full pass without any of the move
/// state.
pub struct PlacementCost {
    schedule: Arc<CompiledSchedule>,
    network: NetworkModel,
    compute: ComputeModel,
    /// Transfer memo, ring tables, per-rank view and scratch rows (the part
    /// shared with [`PlacementCost::cost_of`]).
    core: EvalCore,
    /// Host of each rank.
    hosts: Vec<HostId>,
    /// Resident ranks per host id (drives the memory-contention model).
    residents: Vec<u32>,
    /// Slot capacity per host id.
    capacity: Vec<u32>,
    /// Final per-rank clocks of the current assignment.
    clocks: Vec<SimTime>,
    /// The clocks the last pass displaced: the pre-move clocks while a move
    /// is in flight (what `undo` swaps back), the next pass's target
    /// otherwise.
    prev_clocks: Vec<SimTime>,
    makespan: SimDuration,
    /// Mean final clock in seconds (see [`PlacementCost::mean_clock_secs`]).
    clock_mean: f64,
    pending: Option<PendingMove>,
    /// Clock updates the last pass evaluated (see
    /// [`PlacementCost::last_delta_ops`]).
    last_delta_ops: usize,
}

impl PlacementCost {
    /// Builds the evaluator: `hosts[rank]` is the initial assignment,
    /// `capacity[host]` the slot count of every host of the topology.
    /// The construction performs one full pass.
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
        for h in &hosts {
            residents[h.0] += 1;
        }
        let core = EvalCore::new(&schedule, &hosts, &network);
        let mut cost = PlacementCost {
            schedule,
            network,
            compute,
            core,
            hosts,
            residents,
            capacity,
            clocks: vec![SimTime::ZERO; n],
            prev_clocks: vec![SimTime::ZERO; n],
            makespan: SimDuration::ZERO,
            clock_mean: 0.0,
            pending: None,
            last_delta_ops: 0,
        };
        for (h, (&used, &cap)) in cost.residents.iter().zip(&cost.capacity).enumerate() {
            assert!(
                used <= cap,
                "initial placement puts {used} ranks on {} (capacity {cap})",
                HostId(h)
            );
        }
        cost.pass();
        cost
    }

    /// The modeled makespan of `schedule` on the assignment `hosts[rank]` —
    /// the cost-only entry point: the one full pass that also costs every
    /// move of a searching evaluator, without the capacities or the second
    /// clock vector.  Equal to a fresh [`ModelComm`] replay of the schedule
    /// bit for bit.
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
    /// pure makespan).  Taken by the same O(ranks) scan as the makespan,
    /// and restored exactly by `undo`.
    pub fn mean_clock_secs(&self) -> f64 {
        self.clock_mean
    }

    /// The current host of every rank.
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }

    /// The final per-rank clocks of the current assignment.
    pub fn clocks(&self) -> &[SimTime] {
        &self.clocks
    }

    /// Ranks currently resident on `host`.
    pub fn residents_on(&self, host: HostId) -> u32 {
        self.residents[host.0]
    }

    /// Idle slots left on `host`.
    pub fn free_on(&self, host: HostId) -> u32 {
        self.capacity[host.0] - self.residents[host.0]
    }

    /// Clock updates (messages, ring receives, compute and advance terms —
    /// [`CompiledSchedule::op_count`] units) the last pass evaluated, whether
    /// it ran for [`Self::new`] or [`Self::apply`]: `op_count()` minus the
    /// repetitions the pass fast-forwarded, and 0 after an `apply` that
    /// changed no rank's host.  It counts a whole pass, not a difference;
    /// the name is the one the benchmark's `mpi.*_delta_ops_per_move`
    /// probes and `perf_report` call.
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
    /// — the oracle the evaluator is verified against (and the baseline of
    /// the per-move speedup gates in `perf_report`).
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

    /// Applies `mv` and returns the new modeled makespan, costed by one full
    /// pass.  The move stays in flight until [`PlacementCost::commit`] or
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
        // `(rank, destination)` of every rank that changes host.
        let targets = match mv {
            Move::Swap { a, b } => {
                assert!(a < n && b < n, "swap ranks out of range");
                let (ha, hb) = (self.hosts[a as usize], self.hosts[b as usize]);
                if ha == hb {
                    [None, None]
                } else {
                    [Some((a, hb)), Some((b, ha))]
                }
            }
            Move::Migrate { rank, to } => {
                assert!(rank < n, "migrate rank out of range");
                assert!(to.0 < self.capacity.len(), "migrate host out of range");
                if self.hosts[rank as usize] == to {
                    [None, None]
                } else if self.residents[to.0] >= self.capacity[to.0] {
                    return Err(MoveError::CapacityExceeded {
                        host: to,
                        capacity: self.capacity[to.0],
                    });
                } else {
                    [Some((rank, to)), None]
                }
            }
        };
        let relocated =
            targets.map(|t| t.map(|(rank, to)| (rank, self.relocate(rank as usize, to))));
        self.pending = Some(PendingMove {
            relocated,
            old_makespan: self.makespan,
            old_clock_mean: self.clock_mean,
        });
        if relocated[0].is_some() {
            self.pass();
        } else {
            self.last_delta_ops = 0;
        }
        Ok(self.makespan)
    }

    /// Keeps the in-flight move (O(1): the clocks already describe it).
    ///
    /// # Panics
    ///
    /// Panics if no move is in flight.
    pub fn commit(&mut self) {
        self.pending.take().expect("no move to commit");
    }

    /// Reverts the in-flight move: the clocks, the host assignment, the
    /// resident counts and the ring rows return to their pre-`apply` state
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics if no move is in flight.
    pub fn undo(&mut self) {
        let p = self.pending.take().expect("no move to undo");
        if p.relocated[0].is_some() {
            std::mem::swap(&mut self.clocks, &mut self.prev_clocks);
        }
        for (rank, from) in p.relocated.into_iter().flatten() {
            self.relocate(rank as usize, from);
        }
        self.makespan = p.old_makespan;
        self.clock_mean = p.old_clock_mean;
    }

    /// Puts `rank` on `to` — host, resident counts, `PerSrc` ring rows — and
    /// returns the host it left.
    fn relocate(&mut self, rank: usize, to: HostId) -> HostId {
        let from = std::mem::replace(&mut self.hosts[rank], to);
        self.residents[from.0] -= 1;
        self.residents[to.0] += 1;
        self.core
            .retarget_ring_rows(&self.schedule, &self.network, rank, from, to);
        from
    }

    /// Costs the current assignment with one full pass into the spare clock
    /// vector and makes it current; the displaced clocks stay in
    /// `prev_clocks`.
    fn pass(&mut self) {
        self.prev_clocks.fill(SimTime::ZERO);
        self.last_delta_ops = self.core.full_pass(
            &self.schedule,
            &self.hosts,
            &self.residents,
            &self.network,
            &self.compute,
            &mut self.prev_clocks,
        );
        std::mem::swap(&mut self.clocks, &mut self.prev_clocks);
        let (max, sum) = max_and_sum(&self.clocks);
        self.makespan = max.saturating_since(SimTime::ZERO);
        self.clock_mean = sum / self.clocks.len().max(1) as f64;
    }

    /// Bytes of ring-cache state the evaluator holds: the pooled transfer
    /// tables plus the wavefront scratch rows — O(ranks · sites) (reported
    /// and bounded by `perf_report`'s `is_search` gate).
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
    /// they hold, and what the same tables would occupy in the per-rank
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

#[cfg(test)]
mod tests {
    use super::*;
    use p2pmpi_simgrid::topology::{NodeSpec, Topology, TopologyBuilder};
    use std::sync::Arc;

    /// Two sites of `hosts_per_site` dual-core hosts each.
    fn grid(hosts_per_site: usize) -> Arc<Topology> {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("local");
        let s1 = b.add_site("remote");
        b.add_cluster(s0, "l", "cpu", hosts_per_site, NodeSpec::default());
        b.add_cluster(s1, "r", "cpu", hosts_per_site, NodeSpec::default());
        b.set_rtt(s0, s1, SimDuration::from_millis(10));
        Arc::new(b.build())
    }

    fn topology() -> Arc<Topology> {
        grid(4)
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
        evaluator_of(record_program, hosts, t)
    }

    /// An evaluator of `program` on `hosts`, every host at its core count.
    fn evaluator_of(
        program: impl FnOnce(&mut ScheduleBuilder),
        hosts: Vec<HostId>,
        t: &Arc<Topology>,
    ) -> PlacementCost {
        let mut b = ScheduleBuilder::new(hosts.len() as u32);
        program(&mut b);
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
        // Dominated by the tree messages: 3·14 + 7 + 7 records.
        let msgs = 56 * std::mem::size_of::<MsgRec>();
        assert!(schedule.heap_bytes() > msgs && schedule.heap_bytes() < 3 * msgs);
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

        // A cross-site swap changes the picture; move == oracle.
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

        // A cross-site migrate rewrites rank 0's row of the `PerSrc` ring
        // table (`record_program`'s alltoallv); undo re-derives it from the
        // old host, so the next move is costed over the right table.
        let remote = hosts[5];
        assert_ne!(t.host(hosts[0]).site, t.host(remote).site);
        cost.apply(Move::Migrate {
            rank: 0,
            to: remote,
        })
        .unwrap();
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
        cost.undo();
        assert_eq!(cost.residents_on(remote), 1);
        assert_eq!(cost.hosts(), &hosts[..]);
        assert_eq!(cost.clocks(), &before_clocks[..]);
        cost.apply(Move::Swap { a: 2, b: 3 }).unwrap();
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
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
        // Nothing moved: the next apply is legal and the state is exactly
        // the pre-error one.
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

    /// IS's shape: per iteration a synchronizing allreduce, a `Uniform` and
    /// a `PerSrc` ring and a rank-dependent compute; one allgather after.
    fn is_shaped<P: CollectiveProgram>(p: &mut P, iterations: u32) {
        for _ in 0..iterations {
            p.allreduce(1 << 13);
            p.alltoall(8);
            p.alltoallv(|src, _| (src as u64 % 3 + 1) * 256);
            p.compute(MemoryIntensity::MEMORY_BOUND, |r| 1e6 * (r % 4 + 1) as f64);
        }
        p.allgather(|_| 24);
    }

    /// Two rank halves that never exchange a message and compute at
    /// different rates: no repetition is ever entered in lockstep.
    fn never_coupling<P: CollectiveProgram>(p: &mut P, iterations: u32) {
        let half = p.size() / 2;
        for _ in 0..iterations {
            p.compute(MemoryIntensity::CPU_BOUND, |r| {
                [1e8, 3e8][usize::from(r >= half)]
            });
            p.message(0, 1, 64);
            p.message(half, half + 1, 64);
        }
    }

    fn repeat_of(n: u32, program: impl FnOnce(&mut ScheduleBuilder)) -> Option<Repeat> {
        let mut b = ScheduleBuilder::new(n);
        program(&mut b);
        b.finish().repeat
    }

    #[test]
    fn finish_finds_the_longest_run_of_equal_blocks() {
        let found = |start, period, reps| {
            Some(Repeat {
                start,
                period,
                reps,
            })
        };
        // IS: ten iterations of four segments; the allgather is outside.
        assert_eq!(repeat_of(8, |b| is_shaped(b, 10)), found(0, 4, 10));
        // EP: a compute phase and one merged tree run — nothing repeats.
        let ep = |b: &mut ScheduleBuilder| {
            b.compute(MemoryIntensity::CPU_BOUND, |_| 1e9);
            b.allreduce(16);
            b.allreduce(96);
        };
        assert_eq!(repeat_of(8, ep), None);
        // FT: compute, transpose ring, checksum allreduce per iteration.
        let ft = |b: &mut ScheduleBuilder| {
            for _ in 0..6 {
                b.compute(MemoryIntensity::MEMORY_BOUND, |_| 1e7);
                b.alltoallv(|src, dst| if src == dst { 0 } else { 4096 });
                b.allreduce(16);
            }
        };
        assert_eq!(repeat_of(8, ft), found(0, 3, 6));
        // Two repetitions are not worth recording.
        assert_eq!(repeat_of(8, |b| is_shaped(b, 2)), None);
        // A prologue's tree merges into the first iteration's `Msgs`, which
        // then equals no later one: the run starts after it and has one
        // block less.
        let late = |b: &mut ScheduleBuilder| {
            b.bcast(0, 64);
            is_shaped(b, 10);
        };
        assert_eq!(repeat_of(8, late), found(1, 4, 9));
        // An epilogue differing only in its byte count is not a block.
        let sized = |b: &mut ScheduleBuilder| {
            for bytes in [64, 64, 64, 64, 128] {
                b.alltoall(bytes);
            }
        };
        assert_eq!(repeat_of(8, sized), found(0, 1, 4));
    }

    /// 64 ranks, two per host, over both sites of a 32-host grid.
    fn stacked_64(t: &Arc<Topology>) -> Vec<HostId> {
        t.hosts().iter().flat_map(|h| [h.id; 2]).collect()
    }

    #[test]
    fn lockstep_repetitions_are_fast_forwarded_and_not_counted() {
        let t = grid(16);
        let mut cost = evaluator_of(|b| is_shaped(b, 10), stacked_64(&t), &t);
        let full = cost.schedule.op_count();
        // The construction pass already skips from the third iteration on.
        assert!(cost.last_delta_ops() * 100 <= full * 35);
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
        // So does a move's pass (a cross-site swap: new ring rows).
        cost.apply(Move::Swap { a: 0, b: 63 }).unwrap();
        assert!(cost.last_delta_ops() > 0);
        assert!(
            cost.last_delta_ops() * 100 <= full * 35,
            "{} of {full} ops evaluated",
            cost.last_delta_ops()
        );
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
    }

    #[test]
    fn a_body_that_never_couples_is_stepped_in_full() {
        let t = grid(16);
        let mut cost = evaluator_of(|b| never_coupling(b, 8), stacked_64(&t), &t);
        assert!(cost.schedule.repeat.is_some());
        assert_eq!(cost.last_delta_ops(), cost.schedule.op_count());
        cost.apply(Move::Swap { a: 1, b: 40 }).unwrap();
        assert_eq!(cost.last_delta_ops(), cost.schedule.op_count());
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
    }

    #[test]
    fn entry_clocks_near_the_u64_ceiling_are_stepped() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(6).map(|h| h.id).collect();
        let calm = evaluator_of(|b| is_shaped(b, 10), hosts.clone(), &t);
        // Start so late that the clocks saturate about half-way through the
        // iterations: lockstep is observed at the third one, but the shifted
        // clocks would not fit a u64.
        let headroom = calm.cost().as_nanos() / 2;
        let late = |b: &mut ScheduleBuilder| {
            b.advance(SimDuration::from_nanos(u64::MAX - headroom));
            is_shaped(b, 10);
        };
        let mut cost = evaluator_of(late, hosts, &t);
        assert_eq!(cost.schedule.repeat.map(|r| r.reps), Some(10));
        // (The `advance` alone adds one op per rank.)
        assert!(cost.last_delta_ops() > calm.last_delta_ops() + 6);
        assert_eq!(cost.cost(), SimDuration::MAX);
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
        cost.apply(Move::Swap { a: 0, b: 5 }).unwrap();
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
    }
}
