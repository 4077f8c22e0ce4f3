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
//! `G = framing · 8 / bandwidth` seconds per byte.
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
//!   2008-era Java/TCP stack (`p2pmpi_simgrid::network::PER_MESSAGE_OVERHEAD`),
//!   the same on every link.
//! * **G** comes from `wan_bandwidth_bps` and the NIC rate: 10 Gbps between
//!   most sites but 1 Gbps on any link touching Bordeaux and 1 Gbps at every
//!   NIC, times the 1.05 protocol-framing factor
//!   (`p2pmpi_simgrid::network::FRAMING_FACTOR`) — so
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
//!   placement-independent representation of the whole kernel (a ring in
//!   O(ranks) memory unless its bytes vary per pair; a row may be evaluated
//!   twice);
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
//! pass instead: tree messages through one cached transfer time each,
//! compute phases through a per-rank term cache, rings through pooled
//! transfer tables and an exact f64 wavefront (~0.4 ns per receive in its
//! site-run form, ~1–1.3 ns gathered; see *Exactness* below), repeated
//! blocks fast-forwarded (see the fast-forward contract below).
//! The same pass costs every move of a searching `PlacementCost`, so the
//! objective a search optimises and the makespan a sweep charges are one
//! code path, not two that agree.  `cost_of` keeps none of the search's
//! state — no capacities, no second clock vector, nothing sized by the
//! topology's host count beyond one zeroed counter per host — so small jobs
//! gain too: measured on the day mix's shapes, concentrated on the
//! Grid'5000 topology (2-vCPU x86 VM, release, best of five batches),
//! EP@8–128 costs 0.5–4.5 µs where the `ModelComm` replay takes 0.8–13 µs,
//! IS@8 ~3.2 µs against ~21, IS@32 ~7.5 µs against ~350 (one of IS's ten
//! iterations and the second one's allreduce stepped, the rest
//! fast-forwarded).  A move of a searching evaluator, which hits the term
//! cache and re-derives only its ranks' tree times, costs 0.22–1.3 µs at
//! EP@8–128, ~0.8 µs at IS@8, ~4.2 µs at IS@32 (~2.8 µs spread).  At
//! IS@1024 a `cost_of` pass takes ~0.84 ms concentrated and ~0.90 ms
//! spread (site-run rings; 2.2 and 2.3 ms when every ring ran gathered),
//! and ~2.7 ms with the ranks dealt over the sites in turn (gathered).
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
//! **`apply` is one full pass.**  It relocates the moved ranks — hosts,
//! per-host resident counts, the per-rank view and the cached terms below that
//! depend on them — and runs [`PlacementCost::cost_of`]'s pass over the whole
//! schedule into a second clock vector.  No clock of an earlier pass is kept
//! per segment or per message: a move on the critical path dirties a whole
//! allreduce and a ring must be re-run in full anyway, so incremental clock
//! bookkeeping only pays from ~1 000 tree-only ranks up — above every shape the
//! searched day and the benchmark run (the measured crossover table is in
//! CHANGES.md, in the entry that replaced the delta evaluator with the full
//! pass; ROADMAP lists it under "Parked").  What the pass does skip is
//! re-deriving a *term* the move did not change, below.
//!
//! **What survives a move.**
//!
//! * The *tree times*: one transfer time per message of each distinct tree
//!   run (equal runs pool at compile time: IS's ten allreduces are one),
//!   read from a dense `(byte count, link class)` memo — same host, else
//!   the directed site pair.  A relocation re-derives only its rank's
//!   messages, from the schedule's per-rank incidence list (at EP@128 ~8
//!   of 508, 28 for rank 0, the root of every tree), so `undo` re-derives
//!   them back; in debug builds the pass re-derives every time and compares.
//! * The *compute-term cache*: one row per distinct compute phase (equal
//!   phases pool at compile time, as rings do: IS's ten iterations share
//!   one row), holding each rank's last `ComputeModel::compute_time` result
//!   and the `host << 32 | residents[host]` tag it was costed under.  The
//!   ops and the intensity are fixed per rank and phase, so the tag is
//!   everything a move can change: the pass re-costs a rank only when its
//!   tag differs — the ranks a move relocated and, after a migrate, their
//!   co-residents on both hosts — and adds the cached term otherwise.  The
//!   tag is the key, so `apply`, `undo` and `commit` carry no invalidation
//!   code.  Under `debug_assertions` every hit is re-costed and compared,
//!   so every debug-profile test that costs a placement checks the cache.
//! * The rings' *pooled transfer tables*, one per distinct
//!   `Uniform`/`PerSrc` byte structure among the schedule's rings (pooled
//!   at compile time, in the schedule).  A `Uniform` ring (same byte count
//!   on every edge) collapses to one loopback scalar plus a *site×site*
//!   matrix keyed by static topology data only — O(sites²) bytes and
//!   **move-invariant**.  A `PerSrc` ring keeps each source rank's transfer
//!   nanoseconds to a co-resident (`tsame[src]`, host-independent) and to a
//!   host at every destination site (`tsite[src · sites + site]`) —
//!   O(ranks · sites) bytes; a row is a pure function of the rank's host
//!   and byte count, so a site-changing move re-derives it and `undo`
//!   re-derives it back from the old host.
//!
//! **The per-rank view** — each rank's host index and site — is set when
//! the evaluator is built and kept by every relocation; tree times derive
//! from it and ring wavefronts read it.  A pass rebuilds only the list of
//! co-located ring pairs, and only when a table ring will read it.
//!
//! **`undo` is a swap and a restore; `commit` is O(1).**
//! [`PlacementCost::clocks`] always holds the final per-rank clocks of the
//! current assignment; the vector `apply` displaced holds the previous
//! assignment's, so `undo` swaps the two back and relocates the moved ranks
//! back.  A capacity-violating migrate is rejected without touching any
//! state.
//!
//! **Exactness.**  The clocks after any move sequence equal a from-scratch
//! [`ModelComm`] replay bit for bit, per rank — pinned by
//! `crates/mpi/tests/placement_cost_prop.rs` over random schedules,
//! placements and move sequences, with [`PlacementCost::oracle_clocks`] as
//! the oracle.  A ring is a two-row *wavefront* over the tables,
//! `C[d] = max(C'[d], C'[src] + t) + o` per step, whose entries are the very
//! `NetworkModel::transfer_time` nanoseconds the replay computes.  It runs
//! in f64, which holds every integer below 2^53 exactly; a ring whose
//! clocks could reach 2^53 ns (~104 days) costs each receive in saturating
//! u64 instead, as a `PerPair` ring does.
//!
//! **The two f64 ring forms.**  Each pass picks one for all its table
//! rings, from the per-rank view alone:
//!
//! * *site-run*, for rings of 64 ranks and more whose rank order keeps
//!   sites in long runs: same-site stretches of 8+ ranks anchor the runs,
//!   ranks between anchors split where the fewest stray (land in a run at
//!   another site); with at most one stray per eight ranks,
//!   each wavefront expands its table into one column per destination
//!   site, a step's receives are at most two zipped loops per run over the
//!   run's column (no gather: LLVM vectorises them at the x86-64 baseline,
//!   `addpd` / `maxpd`) and each stray is received again from its own
//!   site's column.  The search's seed placements keep sites in runs on
//!   the scaled Grid'5000 grid, and so do the walks from them: every ring
//!   of a 100-move IS@1024 search ran site-run, from each of the four
//!   seeds, and at IS@128 8 of 802 (four chains, seed 7) ran gathered;
//! * *gathered* otherwise — smaller rings, ranks scattered over the sites —
//!   with two zipped loops per step, each receive reading its entry from
//!   its source's site row at its own site.
//!
//! Either way a step's same-host pairs are received again last, at loopback
//! cost.  Every receive is the same f64 `+` and `max` of the same entries in
//! both forms, so the forms agree bit for bit: `model::tests::
//! both_f64_ring_forms_equal_the_oracle_at_96_ranks` pins each against the
//! oracle through moves and undos, and `is_search_soak` runs the real IS
//! and FT rings in the site-run form.  The measurements behind the three
//! bounds are on their private constants (`SITE_RUN_MIN_RANKS`,
//! `SITE_RUN_MIN_LEN`, `SITE_RUN_STRAY_DIV`).
//!
//! **Memory.**  Two clock vectors, the memo, one u64 per pooled tree
//! message (4 KB at EP@128), the per-rank view, 16 bytes per rank per
//! distinct compute phase, the fast-forward's snapshots (one u64 per rank
//! per position of the repeated block: `period × ranks`, 32 KB for IS at
//! 1024 ranks), and for rings O(ranks · sites) of f64 tables and scratch
//! rows shared across *all* ring segments with the same byte structure
//! ([`PlacementCost::ring_cache_bytes`] reports the rings' total: ~101 KB
//! at IS@1024, half of it the per-wavefront table expansion — site columns
//! in the site-run form, `Uniform` rows in the gathered one — and 12 bytes
//! per site run plus 4 per stray).
//!
//! # The fast-forward contract
//!
//! Iterative kernels repeat one block of segments — IS's ten iterations are
//! `[allreduce, alltoall, alltoallv, compute]` ten times.
//! [`ScheduleBuilder::finish`] finds the longest run of three or more
//! back-to-back *equal* blocks structurally (equal segments intern to equal
//! ids; nothing is trusted from the caller) and records it on the schedule.
//! The pass remembers the clocks of the previous repetition at every
//! position of the block; when, at some segment boundary inside repetition
//! `k`, every rank's clock is exactly one constant `c` later than it was at
//! the same position of repetition `k − 1`, the remaining repetitions are
//! an addition: every clock becomes repetition `k`'s entry plus
//! `(reps − k) · c` and the pass jumps past the run.
//!
//! *Why that is exact.*  On a fixed assignment every primitive commutes
//! with a uniform shift of all clocks, as long as no u64 nanosecond
//! addition saturates: a compute phase and `advance` add a
//! clock-independent term per rank; a message maps `(in_src, in_dst)` to
//! `(in_src + o, max(in_dst, in_src + o + t))`; a ring step is
//! `max(C'[d], C'[src] + t) + o`.  So the segments from position `j` to the
//! end of the block map clocks `x + c` to `F(x) + c`: repetition `k`'s
//! clocks at `j` are repetition `k − 1`'s plus `c`, so repetition `k + 1` is
//! entered exactly `c` after repetition `k`.  From there the whole block
//! maps entry clocks `x + c` to exit clocks `G(x) + c`, and equal blocks
//! entered at `x, x + c` are entered at `x + 2c, x + 3c, …` by induction.
//! *The overflow guard:* clocks only grow and every intermediate (an
//! arrival time) is bounded by a final clock, so the skip is taken only if
//! `max(entry of k) + (reps − k)·c` fits a u64 — otherwise, and whenever
//! the ranks are not in lockstep, the pass keeps stepping and tries again
//! at the next boundary.  The decision is made per pass from the clocks
//! alone: no flag, no per-kernel annotation, and a body whose rank groups
//! never couple (or couple late) simply never (or late) fires.  Because
//! every boundary is tested, where the run fires does not depend on which
//! rotation of the block [`ScheduleBuilder::finish`] reports.
//!
//! *Where it fires.*  A synchronizing collective leaves rank `i` at its
//! result instant `R` plus a placement-dependent but `R`-independent
//! offset, so the ranks are in lockstep right after the second
//! repetition's synchronizing collective.  IS's block opens with its
//! allreduce: every pass measured (the Figure 4 shapes at 8, 32, 128 and
//! 1024 ranks, spread starts and random moves) steps the first iteration
//! and the second one's allreduce, so [`PlacementCost::last_delta_ops`]
//! reads 0.10 × `op_count()` (0.12 at 8 ranks, where the closing
//! allgather weighs more).  FT's checksum allreduce closes its block, so FT
//! steps its first two iterations — or one segment less on placements
//! where the second transpose ring already leaves the ranks in lockstep
//! (about half of the moves measured at 96 and 256 ranks).  EP has no
//! repetition and is stepped in full.
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
//! balanced approximation; `tests/figure4_shape.rs`'s
//! `modeled_kernels_match_the_executed_kernels` measures and bounds that
//! divergence on the NAS kernels.
//!
//! # Choosing a backend
//!
//! [`CollectiveBackend`] names the two execution styles.  The runtime does
//! not hold a choice: the caller picks one per job.  The experiment layer
//! selects it with `p2pmpi_bench::experiments::Fig4Settings::backend`, and
//! `run_kernel_on_placement` calls [`crate::runtime::MpiRuntime::run`] for
//! `Executed` jobs and costs `Modeled` ones with
//! [`PlacementCost::cost_of`].  [`crate::runtime::MpiRuntime::model_comm`]
//! builds a [`ModelComm`] sharing the runtime's network and compute models,
//! so a modeled replay and an executed run of one job are costed from
//! identical parameters.

use crate::error::Rank;
use crate::placement::Placement;
use crate::stats::CommStats;
use p2pmpi_simgrid::compute::ComputeModel;
use p2pmpi_simgrid::memory::MemoryIntensity;
use p2pmpi_simgrid::network::{NetworkModel, PER_MESSAGE_OVERHEAD};
use p2pmpi_simgrid::time::{SimDuration, SimTime};
use p2pmpi_simgrid::topology::HostId;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
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
    /// `Comm::reduce`; the element-wise combine is free, as in the
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
        self.clocks[src] += PER_MESSAGE_OVERHEAD;
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
        // Ring schedule: at step s every rank sends to rank+s and then blocks
        // receiving from rank-s.  Two phases per step: all sends are stamped
        // against the pre-step clocks, then every receive takes the max.
        for step in 1..size {
            for (rank, sent) in self.sent_at.iter_mut().enumerate() {
                self.clocks[rank] += PER_MESSAGE_OVERHEAD;
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

/// The work of one compute phase: per-rank abstract operation counts under
/// one memory intensity.  Equality is what pools phases across segments
/// (IS's ten iterations compute the same shares) and thereby the
/// evaluator's compute-term rows (see [`EvalCore`]).
#[derive(Debug, Clone, PartialEq)]
struct ComputePhase {
    intensity: MemoryIntensity,
    ops: Box<[f64]>,
}

/// One segment of a compiled schedule.  Equality is what detects repeated
/// blocks (see [`CompiledSchedule::repeat`]): equal segments are the same
/// function of the clocks on any one assignment.
#[derive(Debug, Clone, PartialEq)]
enum Segment {
    /// A compute phase; `phase` indexes
    /// [`CompiledSchedule::compute_phases`].
    Compute { phase: u32 },
    /// A run of sequential tree messages (adjacent trees are merged);
    /// `tree` indexes [`CompiledSchedule::trees`].
    Msgs { tree: u32 },
    /// One full ring exchange (n−1 steps); `shape` indexes
    /// [`CompiledSchedule::ring_shapes`].
    Ring { shape: u32 },
    /// A uniform clock advance.
    Advance { d: SimDuration },
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
/// one repetition to snapshot every block position and a second to observe
/// lockstep in, and with only two it could skip at most the second's tail.
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
    /// The messages of every distinct tree run, back to back: one cached
    /// transfer time each in every evaluator (see [`EvalCore`]).
    msgs: Vec<MsgRec>,
    /// The distinct tree runs, as ranges of `msgs`.
    trees: Vec<Range<usize>>,
    /// The `msgs` indices rank `r` sends or receives (the times a move of
    /// `r` can change): `incident[incident_start[r]..incident_start[r + 1]]`.
    incident_start: Vec<u32>,
    incident: Vec<u32>,
    /// The distinct byte structures of the schedule's rings.  Segments with
    /// equal structure share one entry — and thereby one pooled transfer
    /// table in every evaluator (see [`PlacementCost`]).
    ring_shapes: Vec<RingBytes>,
    /// The distinct compute phases (EP and IS have one each).  Segments
    /// with equal work share one entry — and thereby one row of cached
    /// compute terms in every evaluator.
    compute_phases: Vec<ComputePhase>,
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

    /// Number of distinct compute phases: equal `compute` calls pool into
    /// one.  Test-only surface, like [`Self::repeated_block`].
    #[doc(hidden)]
    pub fn compute_phase_count(&self) -> usize {
        self.compute_phases.len()
    }

    /// The length of a full replay — per-rank compute terms, tree
    /// messages, per-step ring receives and advance terms (the same units
    /// [`PlacementCost::last_delta_ops`] counts), for reporting.
    pub fn op_count(&self) -> usize {
        self.segments.iter().map(|s| self.segment_ops(s)).sum()
    }

    /// Clock updates one evaluation of `seg` performs — the unit of
    /// [`Self::op_count`].
    fn segment_ops(&self, seg: &Segment) -> usize {
        let n = self.size as usize;
        match seg {
            Segment::Compute { .. } | Segment::Advance { .. } => n,
            Segment::Msgs { tree } => self.trees[*tree as usize].len(),
            Segment::Ring { .. } => n.saturating_sub(1) * n,
        }
    }

    /// Heap bytes the schedule holds — what one entry of a schedule cache
    /// costs (the pooled tree messages and their incidence dominate).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let msgs = self.msgs.capacity() * size_of::<MsgRec>()
            + self.trees.capacity() * size_of::<Range<usize>>()
            + (self.incident_start.capacity() + self.incident.capacity()) * size_of::<u32>();
        let phases: usize = self
            .compute_phases
            .iter()
            .map(|p| p.ops.len() * size_of::<f64>())
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
            + self.compute_phases.capacity() * size_of::<ComputePhase>()
            + self.msg_sizes.capacity() * size_of::<u64>()
            + msgs
            + phases
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
                Segment::Compute { phase } => {
                    let phase = &self.compute_phases[*phase as usize];
                    p.compute(phase.intensity, |r| phase.ops[r as usize]);
                }
                Segment::Msgs { tree } => {
                    for m in &self.msgs[self.trees[*tree as usize].clone()] {
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
/// A ring costs O(ranks) memory unless its bytes vary per pair.
///
/// [`finish`]: ScheduleBuilder::finish
pub struct ScheduleBuilder {
    size: u32,
    segments: Vec<Segment>,
    /// Pending tree messages of the segment being built (adjacent trees
    /// merge into one segment).
    open_msgs: Vec<MsgRec>,
    /// The distinct closed tree runs.
    trees: Vec<Box<[MsgRec]>>,
    msg_sizes: Vec<u64>,
    /// Index of each byte count in `msg_sizes`.
    size_index: HashMap<u64, u32>,
    ring_shapes: Vec<RingBytes>,
    compute_phases: Vec<ComputePhase>,
}

/// Index of `item` in `pool`, appending it if no equal entry exists — how
/// tree runs, ring shapes and compute phases pool across segments.
fn intern<T: PartialEq>(pool: &mut Vec<T>, item: T) -> u32 {
    let index = pool.iter().position(|p| *p == item).unwrap_or_else(|| {
        pool.push(item);
        pool.len() - 1
    });
    index as u32
}

impl ScheduleBuilder {
    /// Starts an empty schedule for `size` ranks.
    pub fn new(size: u32) -> ScheduleBuilder {
        assert!(size >= 1, "a schedule needs at least one rank");
        ScheduleBuilder {
            size,
            segments: Vec::new(),
            open_msgs: Vec::new(),
            trees: Vec::new(),
            msg_sizes: Vec::new(),
            size_index: HashMap::new(),
            ring_shapes: Vec::new(),
            compute_phases: Vec::new(),
        }
    }

    fn close_msgs(&mut self) {
        if self.open_msgs.is_empty() {
            return;
        }
        let msgs = std::mem::take(&mut self.open_msgs).into_boxed_slice();
        let tree = intern(&mut self.trees, msgs);
        self.segments.push(Segment::Msgs { tree });
    }

    /// Finalises the recording: lays out and indexes the pooled tree runs
    /// and detects the repeated blocks.
    pub fn finish(mut self) -> CompiledSchedule {
        self.close_msgs();
        let msgs: Vec<MsgRec> = self.trees.concat();
        let mut trees = Vec::with_capacity(self.trees.len());
        for tree in &self.trees {
            let start = trees.last().map_or(0, |r: &Range<usize>| r.end);
            trees.push(start..start + tree.len());
        }
        // A message counts once for its source and once for its destination.
        let ends = |(m, i): (&MsgRec, u32)| [(m.src, i), (m.dst, i)];
        let mut by_rank: Vec<(u32, u32)> = msgs.iter().zip(0..).flat_map(ends).collect();
        by_rank.sort_unstable();
        let incident_start = (0..=self.size)
            .map(|r| by_rank.partition_point(|&(rank, _)| rank < r) as u32)
            .collect();
        CompiledSchedule {
            size: self.size,
            repeat: find_repeat(&self.segments),
            segments: self.segments,
            msg_sizes: self.msg_sizes,
            msgs,
            trees,
            incident_start,
            incident: by_rank.iter().map(|&(_, i)| i).collect(),
            ring_shapes: self.ring_shapes,
            compute_phases: self.compute_phases,
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
        let ops = (0..self.size).map(&mut ops_of).collect();
        let phase = intern(&mut self.compute_phases, ComputePhase { intensity, ops });
        self.segments.push(Segment::Compute { phase });
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

    /// Keeps one byte count per source rank (one in all if they agree)
    /// when every row is constant off the diagonal, checking one row at a
    /// time: O(ranks) memory.  Ring steps run 1..n, so the never-costed
    /// diagonal is ignored (a transpose sends 0 bytes to self and must
    /// still compress).  Only a per-pair ring keeps its n × n matrix, from
    /// a second evaluation of its rows.
    fn ring_exchange<F: FnMut(Rank, Rank) -> u64>(&mut self, mut bytes: F) {
        let n = self.size as usize;
        if n <= 1 {
            return;
        }
        self.close_msgs();
        let rows: Option<Box<[u64]>> = (0..self.size)
            .map(|src| {
                let first = bytes(src, u32::from(src == 0));
                let same = (0..self.size).all(|dst| dst == src || bytes(src, dst) == first);
                same.then_some(first)
            })
            .collect();
        let bytes = match rows {
            Some(rows) if rows.iter().all(|&b| b == rows[0]) => RingBytes::Uniform(rows[0]),
            Some(rows) => RingBytes::PerSrc(rows),
            None => {
                let pair = |i: usize| bytes((i / n) as Rank, (i % n) as Rank);
                RingBytes::PerPair((0..n * n).map(pair).collect())
            }
        };
        let shape = intern(&mut self.ring_shapes, bytes);
        self.segments.push(Segment::Ring { shape });
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
    /// The move names a rank the schedule does not have.
    RankOutOfRange {
        /// The rank named.
        rank: Rank,
        /// The schedule's rank count.
        ranks: u32,
    },
    /// The migrate names a host outside the topology.
    HostOutOfRange {
        /// The host named.
        host: HostId,
        /// The topology's host count.
        hosts: usize,
    },
}

impl fmt::Display for MoveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoveError::CapacityExceeded { host, capacity } => {
                write!(f, "{host} is full ({capacity} slots)")
            }
            MoveError::RankOutOfRange { rank, ranks } => write!(f, "rank {rank} not in 0..{ranks}"),
            MoveError::HostOutOfRange { host, hosts } => write!(f, "{host} not in 0..{hosts}"),
        }
    }
}

impl std::error::Error for MoveError {}

/// Pooled transfer table of the ring wavefront: one per distinct
/// `Uniform`/`PerSrc` entry of [`CompiledSchedule::ring_shapes`].
/// Entries are `NetworkModel::transfer_time` values in nanoseconds, held as
/// f64 (exact below 2^53; see [`EvalCore::ring_wavefront`]) — the transfer
/// cost depends only on same-host-ness / the directed site pair and the
/// byte count.  `tmax` bounds every entry from above.
enum RingTable {
    /// A `Uniform` ring sends the same byte count on every edge, so the
    /// whole table collapses to one scalar plus a site×site matrix — both
    /// keyed by static topology data only.  **No move ever invalidates a
    /// `Uniform` table**: `EvalCore::relocate` skips it.
    Uniform {
        /// Same-host transfer (host-independent loopback cost).
        tsame: f64,
        /// Directed site-pair transfer (`site[src_site * site_count +
        /// dst_site]`).  The diagonal holds the distinct-host intra-site
        /// cost; same-host pairs are patched with `tsame` by the colo list.
        site: Box<[f64]>,
        tmax: f64,
    },
    /// A `PerSrc` ring sends a source-rank-dependent byte count, so the
    /// table keeps per-rank rows that must be re-derived when a rank
    /// changes site.
    PerSrc {
        /// Same-host transfer per source rank (`tsame[src]`).  Loopback
        /// cost is host-independent, so a move never invalidates this half.
        tsame: Box<[f64]>,
        /// Transfer from each source rank's current host to a host at each
        /// destination site (`tsite[src * site_count + site]`).  A moved
        /// rank's row changes only when its *site* changes.
        tsite: Box<[f64]>,
        /// Raised by every re-derived row, never lowered.
        tmax: f64,
    },
}

/// Integers below this are exact f64s.
const F64_EXACT: u64 = 1 << 53;

/// Ranks below which a table ring always runs the gathered form.  Below
/// it the two forms cost the same within noise (an IS@32 `cost_of` pass,
/// best of ten batches, measured ~6–8 µs either way on site-contiguous
/// placements), so the day's searched IS rings (8–32 ranks) keep the loop
/// they have always run; `day_searched` read the same with and without
/// this and the stray bound (five pairs, 0.40 vs 0.42 s).
const SITE_RUN_MIN_RANKS: usize = 64;

/// The shortest same-site stretch that anchors a site run (see
/// [`EvalCore::refresh_runs`]).  A run costs up to two loop set-ups per
/// step, which a stretch of a few ranks would pay for a few receives.
const SITE_RUN_MIN_LEN: usize = 8;

/// The site-run form runs only while at most `ranks / SITE_RUN_STRAY_DIV`
/// ranks are strays: each stray is received twice per step, once in its
/// run's loop and once gathered.  Without this bound, IS with its ranks
/// dealt over the six Grid'5000 sites in turn (every rank a stray but the
/// first run's) measured 1.8× slower than gathered at 128 ranks and 1.9×
/// at 1024 (`cost_of`, 89 vs 51 µs and 5.0 vs 2.7 ms).
const SITE_RUN_STRAY_DIV: usize = 8;

/// Ranks `start..end` of a ring's rank order, all at `site` except the
/// strays among them (see [`EvalCore::refresh_runs`]).
struct SiteRun {
    start: u32,
    end: u32,
    site: u32,
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

/// Compute-term cell that has not been costed yet: no `(host, residents)`
/// tag equals it (a host id and a resident count each fit 32 bits, and no
/// host holds `u32::MAX` ranks).
const UNTAGGED: u64 = u64::MAX;

/// The key of a cached compute term: everything `ComputeModel::compute_time`
/// reads that a move can change — the rank's host and that host's resident
/// count (the ops and the intensity are fixed per rank and phase).
#[inline]
fn compute_tag(host: HostId, residents: u32) -> u64 {
    (host.0 as u64) << 32 | u64::from(residents)
}

/// The pass half of the evaluator: everything one full pass over a schedule
/// reads — the tree-message transfer times, the cached compute terms, the
/// pooled ring tables, the per-rank host/site view and the scratch rows —
/// and, of what a move needs, only [`EvalCore::relocate`].
/// [`PlacementCost`] embeds one and layers the clocks, the capacity
/// bookkeeping and the in-flight move on top; [`PlacementCost::cost_of`]
/// builds one, runs [`EvalCore::full_pass`] once and drops it.  Everything
/// here is sized by ranks and sites, never by the topology's host count.
struct EvalCore {
    site_count: usize,
    /// Link classes per memo row: same-host, then every directed site pair.
    classes: usize,
    /// Memoized LogGP transfer nanoseconds of tree messages,
    /// `tree_memo[size · classes + class]` with `size` a
    /// [`CompiledSchedule::msg_sizes`] index: the transfer cost depends
    /// only on same-host-ness / the site pair and the byte count, so a
    /// handful of cells covers any schedule and survives every move.
    tree_memo: Vec<u64>,
    /// Transfer nanoseconds of [`CompiledSchedule::msgs`] under the view:
    /// filled when the core is built, kept by [`Self::relocate`].
    tree_times: Vec<u64>,
    /// Cached compute terms, `compute_rows[phase · ranks + rank]` with
    /// `phase` a [`CompiledSchedule::compute_phases`] index: the
    /// [`compute_tag`] the term was costed under and the term.  A pass
    /// re-costs a rank only when its tag changed — a move touches the two
    /// ranks it relocates and their co-residents — so nothing ever
    /// invalidates a cell: the tag is the key.
    compute_rows: Vec<(u64, SimDuration)>,
    /// Two representative hosts per site, for building transfer-table rows
    /// (the second repeats the first at single-host sites, whose distinct-
    /// host intra-site entries are unreachable).  Empty when the schedule
    /// has no table ring.
    site_rep: Vec<[HostId; 2]>,
    /// Pooled ring transfer tables, parallel to the schedule's
    /// `ring_shapes` (`None` for a `PerPair` shape, whose wavefront costs
    /// every receive through the network model).
    ring_tables: Vec<Option<RingTable>>,
    // --- the per-rank view of the host assignment, kept by `relocate`
    // (tree times derive from it, ring wavefronts read it) ---
    host_of: Vec<u32>,
    site_of: Vec<u32>,
    /// Same-host `(dst, src)` ring pairs, step `k`'s at `colo[colo_start[k]..
    /// colo_start[k + 1]]`: the loopback receives the table wavefront
    /// patches after step `k`.
    colo: Vec<(u32, u32)>,
    colo_start: Vec<u32>,
    /// Scratch of the colo construction: the ranks sorted by host.
    by_host: Vec<u32>,
    // --- wavefront scratch ---
    /// Table wavefront rows (shifted clocks in ns); empty without table rings.
    wf_prev: Vec<f64>,
    wf_cur: Vec<f64>,
    /// The table a wavefront reads, laid out for its loop and rebuilt at
    /// its start: per-destination-site columns `[site · ranks + src]` in
    /// the site-run form, per-source site rows `[src · sites + site]` of a
    /// `Uniform` table in the gathered form (a `PerSrc` table holds those).
    table_scratch: Vec<f64>,
    /// The site runs of the rank order, rebuilt per pass (see
    /// [`Self::refresh_runs`]); empty when table rings run gathered.
    runs: Vec<SiteRun>,
    /// The ranks whose site differs from their run's.
    strays: Vec<u32>,
    /// The second clock row of a per-receive ring.
    spare_clocks: Vec<SimTime>,
    /// Ring wavefronts of the last pass run `(site-run, gathered, per
    /// receive)` (see [`PlacementCost::last_ring_paths`]).
    ring_paths: (usize, usize, usize),
    /// Per-rank clocks (nanoseconds) at each position of the schedule's
    /// repeated block, `rep_clocks[pos · ranks + rank]`, as the pass last
    /// passed it — what the next repetition's clocks at that position are
    /// compared with (empty without a repeat).
    rep_clocks: Vec<u64>,
}

impl EvalCore {
    /// Sizes the memo and scratch for `schedule` and builds its pooled ring
    /// tables for the assignment `hosts`.
    fn new(schedule: &CompiledSchedule, hosts: &[HostId], network: &NetworkModel) -> EvalCore {
        let n = hosts.len();
        let site_count = network.topology().site_count();
        let classes = 1 + site_count * site_count;
        let mut core = EvalCore {
            site_count,
            classes,
            tree_memo: vec![UNCOSTED; schedule.msg_sizes.len() * classes],
            tree_times: vec![0; schedule.msgs.len()],
            compute_rows: vec![(UNTAGGED, SimDuration::ZERO); schedule.compute_phases.len() * n],
            site_rep: Vec::new(),
            ring_tables: Vec::new(),
            host_of: hosts.iter().map(|h| h.0 as u32).collect(),
            site_of: hosts
                .iter()
                .map(|&h| network.topology().host(h).site.0 as u32)
                .collect(),
            colo: Vec::new(),
            colo_start: Vec::new(),
            by_host: Vec::new(),
            wf_prev: Vec::new(),
            wf_cur: Vec::new(),
            table_scratch: Vec::new(),
            runs: Vec::new(),
            strays: Vec::new(),
            spare_clocks: Vec::new(),
            ring_paths: (0, 0, 0),
            rep_clocks: vec![0; schedule.repeat.map_or(0, |r| r.period * n)],
        };
        core.build_ring_tables(schedule, hosts, network);
        for i in 0..schedule.msgs.len() {
            core.retime(schedule, network, i);
        }
        core
    }

    /// Builds one pooled transfer table per `Uniform`/`PerSrc` ring shape
    /// and, if there is one, sizes the table wavefront's rows.
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
            (self.wf_prev, self.wf_cur) = (vec![0.0; hosts.len()], vec![0.0; hosts.len()]);
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
                    let mut site = vec![0.0; s_count * s_count].into_boxed_slice();
                    for (sa, row) in site.chunks_exact_mut(s_count).enumerate() {
                        self.site_row(network, self.site_rep[sa][0], *b, row);
                    }
                    let rep = self.site_rep[0][0];
                    let tsame = network.transfer_time(rep, rep, *b).as_nanos() as f64;
                    let tmax = site.iter().copied().fold(tsame, f64::max);
                    Some(RingTable::Uniform { tsame, site, tmax })
                }
                RingBytes::PerSrc(bytes) => {
                    let tsame: Box<[f64]> = hosts
                        .iter()
                        .zip(bytes.iter())
                        .map(|(&h, &b)| network.transfer_time(h, h, b).as_nanos() as f64)
                        .collect();
                    let mut tsite = vec![0.0; hosts.len() * s_count].into_boxed_slice();
                    for ((row, &h), &b) in
                        tsite.chunks_exact_mut(s_count).zip(hosts).zip(bytes.iter())
                    {
                        self.site_row(network, h, b, row);
                    }
                    let tmax = tsame.iter().chain(&tsite[..]).copied().fold(0.0, f64::max);
                    Some(RingTable::PerSrc { tsame, tsite, tmax })
                }
            })
            .collect();
        self.ring_tables = tables;
    }

    /// Fills `row[s]` with the transfer time of `bytes` from `src` to a
    /// *distinct* host at site `s`.
    fn site_row(&self, network: &NetworkModel, src: HostId, bytes: u64, row: &mut [f64]) {
        for (slot, rep) in row.iter_mut().zip(&self.site_rep) {
            let dst = if rep[0] != src { rep[0] } else { rep[1] };
            *slot = network.transfer_time(src, dst, bytes).as_nanos() as f64;
        }
    }

    /// Puts `rank` on `to` in the view and re-derives the times of the tree
    /// messages it sends or receives (one between two relocated ranks is
    /// re-derived again by the second) and, if its *site* changed, its
    /// `tsite` row in every `PerSrc` table — `Uniform` tables and `tsame`
    /// (loopback) are host-independent.
    fn relocate(
        &mut self,
        schedule: &CompiledSchedule,
        network: &NetworkModel,
        rank: usize,
        to: HostId,
    ) {
        let site = network.topology().host(to).site.0 as u32;
        self.host_of[rank] = to.0 as u32;
        let old_site = std::mem::replace(&mut self.site_of[rank], site);
        let ends = &schedule.incident_start[rank..=rank + 1];
        for &i in &schedule.incident[ends[0] as usize..ends[1] as usize] {
            self.retime(schedule, network, i as usize);
        }
        if old_site == site {
            return;
        }
        let s_count = self.site_count;
        let mut tables = std::mem::take(&mut self.ring_tables);
        for (table, shape) in tables.iter_mut().zip(&schedule.ring_shapes) {
            if let (Some(RingTable::PerSrc { tsite, tmax, .. }), RingBytes::PerSrc(bytes)) =
                (table, shape)
            {
                let row = &mut tsite[rank * s_count..][..s_count];
                self.site_row(network, to, bytes[rank], row);
                *tmax = row.iter().copied().fold(*tmax, f64::max);
            }
        }
        self.ring_tables = tables;
    }

    /// Derives [`Self::tree_times`]`[i]` from the view through the memo:
    /// the class is same-host, else the ranks' directed site pair.
    fn retime(&mut self, schedule: &CompiledSchedule, network: &NetworkModel, i: usize) {
        let m = schedule.msgs[i];
        let (s, d) = (m.src as usize, m.dst as usize);
        let class = if self.host_of[s] == self.host_of[d] {
            0
        } else {
            1 + self.site_of[s] as usize * self.site_count + self.site_of[d] as usize
        };
        let cell = m.size as usize * self.classes + class;
        if self.tree_memo[cell] == UNCOSTED {
            self.tree_memo[cell] = self.transfer_ns(network, schedule, m);
        }
        self.tree_times[i] = self.tree_memo[cell];
    }

    /// `network`'s transfer time of `m` between its ranks' current hosts.
    fn transfer_ns(&self, network: &NetworkModel, schedule: &CompiledSchedule, m: MsgRec) -> u64 {
        let host = |r: u32| HostId(self.host_of[r as usize] as usize);
        let bytes = schedule.msg_sizes[m.size as usize];
        let t = network.transfer_time(host(m.src), host(m.dst), bytes);
        t.as_nanos()
    }

    /// Rebuilds the same-host ring pairs if a table ring will read them;
    /// `residents` (per host id) short-cuts the all-hosts-distinct case.
    /// Sorting the ranks by host finds the co-located runs; their pairs are
    /// counted, then placed, by ring step.
    fn refresh_colo(&mut self, residents: &[u32]) {
        let n = self.host_of.len();
        self.colo.clear();
        self.colo_start.clear();
        if self.wf_prev.is_empty() || self.host_of.iter().all(|&h| residents[h as usize] <= 1) {
            return;
        }
        let (host_of, by_host, start) = (&self.host_of, &mut self.by_host, &mut self.colo_start);
        by_host.clear();
        by_host.extend(0..n as u32);
        by_host.sort_unstable_by_key(|&r| host_of[r as usize]);
        let runs = by_host.chunk_by(|&a, &b| host_of[a as usize] == host_of[b as usize]);
        let pairs = || {
            runs.clone().flat_map(|run| {
                let others =
                    move |d: u32| run.iter().filter(move |&&s| s != d).map(move |&s| (d, s));
                run.iter().flat_map(move |&d| others(d))
            })
        };
        let step = |(d, s): (u32, u32)| (d as usize + n - s as usize) % n;
        start.resize(n + 1, 0);
        for p in pairs() {
            start[step(p)] += 1;
        }
        for k in 1..=n {
            start[k] += start[k - 1];
        }
        self.colo.resize(start[n] as usize, (0, 0));
        for p in pairs() {
            let k = step(p);
            start[k] -= 1;
            self.colo[start[k] as usize] = p;
        }
    }

    /// Rebuilds the site runs if the table rings will run in the site-run
    /// form: same-site stretches of at least [`SITE_RUN_MIN_LEN`] ranks
    /// anchor them, the ranks between two anchors split where the fewest
    /// land in a run at another site (the strays).  Leaves both lists empty
    /// — the gathered form — for a ring under [`SITE_RUN_MIN_RANKS`],
    /// without an anchor or with too many strays.
    fn refresh_runs(&mut self) {
        let n = self.site_of.len();
        self.runs.clear();
        self.strays.clear();
        if self.wf_prev.is_empty() || n < SITE_RUN_MIN_RANKS {
            return;
        }
        let site_of = &self.site_of;
        let (mut next, mut anchored, end) = (0, 0, n as u32);
        for stretch in site_of.chunk_by(|a, b| a == b) {
            let (first, site) = (next, stretch[0]);
            next += stretch.len();
            if stretch.len() < SITE_RUN_MIN_LEN {
                continue;
            }
            let gap = std::mem::replace(&mut anchored, next)..first;
            let start = match self.runs.last_mut() {
                Some(run) if run.site == site => continue,
                // A cut after rank `r` strays `gain` fewer of the gap's ranks
                // than a cut at its start.
                Some(run) => {
                    let (mut gain, mut best) = (0, (0, gap.start));
                    for r in gap {
                        gain += i32::from(site_of[r] == run.site) - i32::from(site_of[r] == site);
                        best = best.max((gain, r + 1));
                    }
                    run.end = best.1 as u32;
                    run.end
                }
                None => 0,
            };
            self.runs.push(SiteRun { start, end, site });
        }
        self.strays.extend(self.runs.iter().flat_map(|run| {
            (run.start..run.end).filter(move |&r| site_of[r as usize] != run.site)
        }));
        if self.strays.len() > n / SITE_RUN_STRAY_DIV {
            self.runs.clear();
            self.strays.clear();
        }
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
        debug_assert!(
            hosts
                .iter()
                .zip(&self.host_of)
                .all(|(h, &v)| h.0 as u32 == v),
            "the per-rank view drifted from the assignment"
        );
        self.refresh_colo(residents);
        self.refresh_runs();
        self.ring_paths = (0, 0, 0);
        let n = clocks.len();
        let mut evaluated = 0;
        let mut seg = 0;
        while seg < schedule.segments.len() {
            let in_run = schedule
                .repeat
                .filter(|r| (r.start..r.end()).contains(&seg));
            if let Some(rep) = in_run {
                let into = seg - rep.start;
                let (k, pos) = (into / rep.period, into % rep.period);
                if k > 0 && self.fast_forward(clocks, pos, rep.reps - k) {
                    seg = rep.end();
                    continue;
                }
                let snapshot = &mut self.rep_clocks[pos * n..][..n];
                for (slot, c) in snapshot.iter_mut().zip(clocks.iter()) {
                    *slot = c.as_nanos();
                }
            }
            let segment = &schedule.segments[seg];
            match segment {
                Segment::Compute { phase } => {
                    let ComputePhase { intensity, ops } = &schedule.compute_phases[*phase as usize];
                    let row = &mut self.compute_rows[*phase as usize * n..][..n];
                    for (((c, &h), &ops), cell) in
                        clocks.iter_mut().zip(hosts).zip(ops.iter()).zip(row)
                    {
                        let on_host = residents[h.0];
                        let tag = compute_tag(h, on_host);
                        let term = || compute.compute_time(h, ops, *intensity, on_host as usize);
                        if cell.0 != tag {
                            *cell = (tag, term());
                        } else {
                            debug_assert_eq!(
                                cell.1,
                                term(),
                                "cached compute term of {h} with {on_host} residents"
                            );
                        }
                        *c += cell.1;
                    }
                }
                Segment::Msgs { tree } => {
                    let range = schedule.trees[*tree as usize].clone();
                    for (&m, &t) in schedule.msgs[range.clone()]
                        .iter()
                        .zip(&self.tree_times[range])
                    {
                        debug_assert_eq!(
                            t,
                            self.transfer_ns(network, schedule, m),
                            "cached transfer time of {m:?}"
                        );
                        let (s, d) = (m.src as usize, m.dst as usize);
                        let out_src = clocks[s] + PER_MESSAGE_OVERHEAD;
                        clocks[s] = out_src;
                        clocks[d] = clocks[d].max(out_src + SimDuration::from_nanos(t));
                    }
                }
                Segment::Ring { shape } => self.ring_wavefront(schedule, network, *shape, clocks),
                Segment::Advance { d } => {
                    for c in clocks.iter_mut() {
                        *c += *d;
                    }
                }
            }
            evaluated += schedule.segment_ops(segment);
            seg += 1;
        }
        evaluated
    }

    /// The fast-forward test at block position `pos` of a repetition `k`
    /// of the schedule's repeated block, with `left` repetitions (`k`
    /// included) to go: if every rank's clock is exactly one constant `c`
    /// past its [`Self::rep_clocks`] value at `pos` — repetition `k − 1`'s —
    /// and the shifted clocks fit a u64, sets every clock to repetition
    /// `k`'s entry plus `left · c` and returns true; the caller then jumps
    /// past the run.  Exact by the shift invariance of every primitive (see
    /// the fast-forward contract in the module docs); on false nothing is
    /// touched and the caller steps on.
    fn fast_forward(&self, clocks: &mut [SimTime], pos: usize, left: usize) -> bool {
        let n = clocks.len();
        let prev = &self.rep_clocks[pos * n..][..n];
        // A schedule has at least one rank, and clocks never decrease: the
        // differences are non-negative.
        let c = clocks[0].as_nanos() - prev[0];
        if clocks
            .iter()
            .zip(prev)
            .any(|(clock, &p)| clock.as_nanos() - p != c)
        {
            return false;
        }
        // Repetition `k`'s entry is the snapshot it took at position 0 —
        // except at position 0 itself, where the snapshot is still
        // repetition `k − 1`'s: that entry is `c` earlier, one more step.
        let steps = left + usize::from(pos == 0);
        let entry = &self.rep_clocks[..n];
        let Some(shift) = c.checked_mul(steps as u64) else {
            return false;
        };
        if entry.iter().any(|e| e.checked_add(shift).is_none()) {
            return false;
        }
        for (clock, &e) in clocks.iter_mut().zip(entry) {
            *clock = SimTime::from_nanos(e + shift);
        }
        true
    }

    /// Runs one ring segment's wavefront over `clocks`: per step,
    /// `C[d] = max(C'[d], C'[src] + t) + o` with `src = d − step (mod n)`,
    /// exactly [`ModelComm`]'s ring rule.  A table ring runs it shifted,
    /// `D = C − step · o`, as `D[d] = max(D'[d], D'[src] + t)` in f64 and adds
    /// `(n − 1) · o` at exit: every clock, entry and sum is an integer at most
    /// `B = max(C) + (n − 1) · (tmax + o)`, so for `B < 2^53` every f64 `+`
    /// and `max` is exact.  Any other ring (`B ≥ 2^53`, or `PerPair`) costs
    /// each receive through the network model in saturating u64.
    ///
    /// A table ring's step takes one of two forms, chosen per pass by
    /// [`Self::refresh_runs`]:
    ///
    /// * *site-run*: the table is expanded into one column per destination
    ///   site, and each run's receives are at most two zipped loops over
    ///   `D'`, `D'` shifted by the step and the run's column — no gather,
    ///   so they vectorise; each stray is then received again from its own
    ///   site's column;
    /// * *gathered*: two zipped loops over the whole row (one per side of
    ///   the wrap), each receive reading `t` from its source's site row at
    ///   its own site.
    ///
    /// Either way the step's same-host pairs are received again last, at
    /// loopback cost.  Every receive ends as the same `+` and `max` of the
    /// same f64s in both forms, so they agree bit for bit.
    ///
    /// Kept out of line: inlined into [`Self::full_pass`], whose other arms
    /// carry every tree-only move, it made EP@128 moves measure ~8% slower.
    #[inline(never)]
    fn ring_wavefront(
        &mut self,
        schedule: &CompiledSchedule,
        network: &NetworkModel,
        shape: u32,
        clocks: &mut [SimTime],
    ) {
        let n = clocks.len();
        let o = PER_MESSAGE_OVERHEAD.as_nanos();
        let entry = clocks.iter().max().map_or(0, |c| c.as_nanos());
        let table = self.ring_tables[shape as usize].as_ref().filter(|t| {
            let (RingTable::Uniform { tmax, .. } | RingTable::PerSrc { tmax, .. }) = t;
            let span = (n as u64 - 1).saturating_mul((*tmax as u64).saturating_add(o));
            entry.saturating_add(span) < F64_EXACT
        });
        let Some(table) = table else {
            self.ring_paths.2 += 1;
            let bytes = &schedule.ring_shapes[shape as usize];
            let host = |r: usize| HostId(self.host_of[r] as usize);
            self.spare_clocks.resize(n, SimTime::ZERO);
            let (mut prev, mut cur) = (&mut *clocks, &mut self.spare_clocks[..]);
            for step in 1..n {
                for d in 0..n {
                    let src = if d >= step { d - step } else { d + n - step };
                    let t = network.transfer_time(host(src), host(d), bytes.get(n, src, d));
                    cur[d] = prev[d].max(prev[src] + t) + PER_MESSAGE_OVERHEAD;
                }
                std::mem::swap(&mut prev, &mut cur);
            }
            // `n − 1` steps: an odd count leaves the exit clocks in the spare.
            if n.is_multiple_of(2) {
                clocks.copy_from_slice(&self.spare_clocks);
            }
            return;
        };
        let mut prev = std::mem::take(&mut self.wf_prev);
        let mut cur = std::mem::take(&mut self.wf_cur);
        // Clocks below 2^53 convert through i64: one instruction each way.
        for (p, c) in prev.iter_mut().zip(clocks.iter()) {
            *p = c.as_nanos() as i64 as f64;
        }
        let (colo, site_of, s_count) = (&self.colo, &self.site_of, self.site_count);
        let (colo_start, runs, strays) = (&self.colo_start, &self.runs, &self.strays);
        let site_run = !runs.is_empty();
        // The table as the loop reads it, expanded once per wavefront
        // (O(ranks·sites)): per-site columns for the site-run form; for the
        // gathered form per-src site rows, which a `PerSrc` table holds and
        // a `Uniform` one is expanded into from `site_of` (a per-receive
        // `site[ss·s + sd]` gather measured ~2× slower on the ring-dominated
        // IS schedule).
        let scratch = &mut self.table_scratch;
        let expanded: &[f64] = if site_run {
            self.ring_paths.0 += 1;
            scratch.clear();
            for sd in 0..s_count {
                match table {
                    RingTable::Uniform { site, .. } => {
                        scratch.extend(site_of.iter().map(|&ss| site[ss as usize * s_count + sd]))
                    }
                    RingTable::PerSrc { tsite, .. } => {
                        scratch.extend(tsite[sd..].iter().step_by(s_count))
                    }
                }
            }
            scratch
        } else {
            self.ring_paths.1 += 1;
            match table {
                RingTable::Uniform { site, .. } => {
                    scratch.clear();
                    for &s in site_of {
                        scratch.extend_from_slice(&site[s as usize * s_count..][..s_count]);
                    }
                    scratch
                }
                RingTable::PerSrc { tsite, .. } => tsite,
            }
        };
        // One `maxsd`, without the NaN handling of `f64::max`.
        let later = |a: f64, b: f64| if a > b { a } else { b };
        // A step's same-host pairs, received again last.
        let patch_colo = |step: usize, prev: &[f64], cur: &mut [f64]| {
            let at = |k: usize| colo_start.get(k).map_or(0, |&i| i as usize);
            for &(d, src) in &colo[at(step)..at(step + 1)] {
                let ts = match table {
                    RingTable::Uniform { tsame, .. } => *tsame,
                    RingTable::PerSrc { tsame, .. } => tsame[src as usize],
                };
                cur[d as usize] = later(prev[d as usize], prev[src as usize] + ts);
            }
        };
        // The wrap in `src = d − step (mod n)` splits each step into linear
        // runs, so every loop is zipped slices: no index arithmetic, no
        // bounds checks, no per-cell branch.
        if site_run {
            for step in 1..n {
                for run in runs {
                    let col = &expanded[run.site as usize * n..][..n];
                    let (a, b) = (run.start as usize, run.end as usize);
                    let split = step.clamp(a, b);
                    // d in a..split wraps to src = d + n − step; d in split..b
                    // pairs with src = d − step.
                    for (dst, wrap) in [(a..split, n), (split..b, 0)] {
                        if dst.is_empty() {
                            continue;
                        }
                        let src = dst.start + wrap - step..dst.end + wrap - step;
                        for (((c, &pd), &ps), &t) in cur[dst.clone()]
                            .iter_mut()
                            .zip(&prev[dst])
                            .zip(&prev[src.clone()])
                            .zip(&col[src])
                        {
                            *c = later(pd, ps + t);
                        }
                    }
                }
                for &d in strays {
                    let d = d as usize;
                    let src = if d >= step { d - step } else { d + n - step };
                    let t = expanded[site_of[d] as usize * n + src];
                    cur[d] = later(prev[d], prev[src] + t);
                }
                patch_colo(step, &prev, &mut cur);
                std::mem::swap(&mut prev, &mut cur);
            }
        } else {
            for step in 1..n {
                // d in step..n pairs with src = d − step; d in 0..step wraps
                // to src = d + n − step.
                for (dst, src) in [(step..n, 0..n - step), (0..step, n - step..n)] {
                    for ((((c, &pd), &ps), &sd), row) in cur[dst.clone()]
                        .iter_mut()
                        .zip(&prev[dst.clone()])
                        .zip(&prev[src.clone()])
                        .zip(&site_of[dst])
                        .zip(expanded[src.start * s_count..].chunks_exact(s_count))
                    {
                        *c = later(pd, ps + row[sd as usize]);
                    }
                }
                patch_colo(step, &prev, &mut cur);
                std::mem::swap(&mut prev, &mut cur);
            }
        }
        let shift = (n as u64 - 1) * o;
        for (c, &d) in clocks.iter_mut().zip(&prev) {
            *c = SimTime::from_nanos(d as i64 as u64 + shift);
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
    /// Tree times, compute-term cache, ring tables, per-rank view and
    /// scratch rows (the part shared with [`PlacementCost::cost_of`]).
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

    /// Clock updates (messages, ring receives, compute and advance terms —
    /// [`CompiledSchedule::op_count`] units) the last pass evaluated, whether
    /// it ran for [`Self::new`] or [`Self::apply`]: `op_count()` minus the
    /// segments the pass fast-forwarded (every one of the repeated run after
    /// the boundary where it found lockstep), and 0 after an `apply` that
    /// changed no rank's host.  It counts a whole pass, not a difference;
    /// the name is the one the benchmark's `mpi.*_delta_ops_per_move`
    /// probes call.
    pub fn last_delta_ops(&self) -> usize {
        self.last_delta_ops
    }

    /// Full model replay of the current assignment on a fresh [`ModelComm`]
    /// — the oracle the evaluator is verified against (and the baseline of
    /// `perf_report`'s move-vs-replay gates, `PLACEMENT_DELTA_SPEEDUP_MIN`
    /// and `IS_SEARCH_DELTA_SPEEDUP_MIN`).
    pub fn oracle_clocks(&self) -> Vec<SimTime> {
        let placement = Placement::one_per_host(&self.hosts);
        let mut m = ModelComm::new(&placement, self.network.clone(), self.compute.clone());
        self.schedule.drive(&mut m);
        m.clocks().to_vec()
    }

    /// The oracle's makespan (see [`PlacementCost::oracle_clocks`]).
    pub fn oracle_cost(&self) -> SimDuration {
        let last = self.oracle_clocks().into_iter().max();
        last.unwrap_or(SimTime::ZERO)
            .saturating_since(SimTime::ZERO)
    }

    /// Applies `mv` and returns the new modeled makespan, costed by one full
    /// pass.  The move stays in flight until [`PlacementCost::commit`] or
    /// [`PlacementCost::undo`].  A capacity-violating migrate, or a move
    /// naming a rank or host out of range, returns an error and leaves every
    /// piece of state untouched.
    ///
    /// # Panics
    ///
    /// Panics if a previous move is still in flight.
    pub fn apply(&mut self, mv: Move) -> Result<SimDuration, MoveError> {
        assert!(
            self.pending.is_none(),
            "commit or undo the previous move before applying another"
        );
        let n = self.hosts.len() as u32;
        let rank_in_range = |rank: Rank| {
            (rank < n)
                .then_some(rank as usize)
                .ok_or(MoveError::RankOutOfRange { rank, ranks: n })
        };
        // `(rank, destination)` of every rank that changes host.
        let targets = match mv {
            Move::Swap { a, b } => {
                let (ha, hb) = (self.hosts[rank_in_range(a)?], self.hosts[rank_in_range(b)?]);
                if ha == hb {
                    [None, None]
                } else {
                    [Some((a, hb)), Some((b, ha))]
                }
            }
            Move::Migrate { rank, to } => {
                let hosts = self.capacity.len();
                if to.0 >= hosts {
                    return Err(MoveError::HostOutOfRange { host: to, hosts });
                }
                if self.hosts[rank_in_range(rank)?] == to {
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
    /// resident counts, the view, the tree times and the ring rows return
    /// to their pre-`apply` state exactly.
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

    /// Puts `rank` on `to` — host, resident counts and the core's view,
    /// tree times and `PerSrc` ring rows — and returns the host it left.
    fn relocate(&mut self, rank: usize, to: HostId) -> HostId {
        let from = std::mem::replace(&mut self.hosts[rank], to);
        self.residents[from.0] -= 1;
        self.residents[to.0] += 1;
        self.core.relocate(&self.schedule, &self.network, rank, to);
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

    /// Bytes of ring-cache state the evaluator holds: the pooled tables' f64
    /// entries (not their `tmax`), the wavefront scratch rows and expanded
    /// table, the per-rank view, the same-host pairs and the site runs and
    /// strays — O(ranks · sites) (bounded at IS@128 by `perf_report`'s
    /// `IS_SEARCH_RING_CACHE_BYTES_MAX`, and reported at IS@1024 by the
    /// benchmark's `mpi.ring_cache_bytes`).
    pub fn ring_cache_bytes(&self) -> usize {
        use std::mem::size_of;
        let core = &self.core;
        let tables: usize = core
            .ring_tables
            .iter()
            .flatten()
            .map(|t| match t {
                RingTable::Uniform { site, .. } => site.len() + 1,
                RingTable::PerSrc { tsame, tsite, .. } => tsame.len() + tsite.len(),
            })
            .sum();
        let rows = core.wf_prev.len() + core.wf_cur.len() + core.table_scratch.len();
        (tables + rows) * size_of::<f64>()
            + (core.host_of.len() + core.site_of.len()) * size_of::<u32>()
            + (core.colo_start.len() + core.by_host.len()) * size_of::<u32>()
            + core.colo.len() * size_of::<(u32, u32)>()
            + core.runs.len() * size_of::<SiteRun>()
            + core.strays.len() * size_of::<u32>()
            + core.spare_clocks.len() * size_of::<SimTime>()
    }

    /// Byte accounting of the `Uniform` specialisation: `(tables,
    /// uniform_bytes, per_src_equivalent_bytes)` — how many pooled transfer
    /// tables compressed to the move-invariant site×site form, the bytes
    /// of f64 entries they hold, and what the same tables would occupy in
    /// the per-rank `PerSrc` layout (a `tsame` entry plus a site row per
    /// rank).
    pub fn uniform_ring_summary(&self) -> (usize, usize, usize) {
        let n = self.hosts.len();
        let word = std::mem::size_of::<f64>();
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

    /// Ring wavefronts the last pass ran `(site-run, gathered, per
    /// receive)`: the first two are the exact f64 forms of a table ring —
    /// site-run at 64 ranks and more whose order keeps sites in long runs,
    /// gathered otherwise — and only a `PerPair` ring, or a table ring
    /// whose clocks reach 2^53 ns, runs per receive.  Test-only surface,
    /// like [`CompiledSchedule::repeated_block`].
    #[doc(hidden)]
    pub fn last_ring_paths(&self) -> (usize, usize, usize) {
        self.core.ring_paths
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
        // The three equal allreduce runs pool into one tree: 14 + 7 + 7
        // records, each listed under both of its ranks.
        assert_eq!(schedule.trees, [0..14, 14..28]);
        let at = |r: usize| schedule.incident_start[r] as usize;
        assert_eq!(at(8), 2 * 28);
        for r in 0..8 {
            for &i in &schedule.incident[at(r)..at(r + 1)] {
                let m = schedule.msgs[i as usize];
                assert!(m.src as usize == r || m.dst as usize == r);
            }
        }
        // Dominated by the pooled tree messages and their incidence.
        let msgs = 28 * (std::mem::size_of::<MsgRec>() + 2 * std::mem::size_of::<u32>());
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

    /// EP's shape: one rank-dependent compute phase, then two allreduces
    /// that merge into one tree run.
    fn ep_shaped<P: CollectiveProgram>(p: &mut P) {
        p.compute(MemoryIntensity::CPU_BOUND, |r| 1e7 * (r % 3 + 1) as f64);
        p.allreduce(2 * 8);
        p.allreduce(12 * 8);
    }

    #[test]
    fn moves_re_derive_exactly_the_tree_times_they_touch() {
        // Rank 0 roots every tree, so it is an endpoint of every gather
        // message and of log n edges per tree; rank 15 is a leaf.  After
        // every step the clocks equal a fresh evaluator's over the same
        // hosts: a tree time a move left stale would show, on either rank
        // of a swap, whether the move is committed or undone.
        let t = grid(10);
        let (site0, site1) = (|i: usize| t.hosts()[i].id, |i: usize| t.hosts()[10 + i].id);
        // Ranks 0-7 one per host at site 0, ranks 8-15 at site 1; hosts 8
        // and 9 of each site stay idle.
        let hosts: Vec<_> = (0..8).map(site0).chain((0..8).map(site1)).collect();
        let steps = [
            // Cross-site swap of the root and a leaf.
            (Move::Swap { a: 0, b: 15 }, true),
            (Move::Swap { a: 0, b: 15 }, false),
            // The root onto an idle host of the other site, then back.
            (
                Move::Migrate {
                    rank: 0,
                    to: site1(8),
                },
                true,
            ),
            (
                Move::Migrate {
                    rank: 0,
                    to: site0(0),
                },
                false,
            ),
            // The leaf onto the root's host: their edges become loopback.
            (
                Move::Migrate {
                    rank: 15,
                    to: site0(0),
                },
                true,
            ),
            (Move::Swap { a: 0, b: 3 }, false),
            (Move::Swap { a: 15, b: 4 }, true),
            (
                Move::Migrate {
                    rank: 0,
                    to: site0(9),
                },
                true,
            ),
            (Move::Swap { a: 0, b: 15 }, true),
        ];
        for program in [ep_shaped as fn(&mut ScheduleBuilder), |b| is_shaped(b, 10)] {
            let mut cost = evaluator_of(program, hosts.clone(), &t);
            let fresh = |cost: &PlacementCost| {
                let capacity = t.hosts().iter().map(|h| h.cores as u32).collect();
                let network = NetworkModel::new(t.clone());
                let compute = ComputeModel::new(t.clone());
                let hosts = cost.hosts().to_vec();
                PlacementCost::new(cost.schedule.clone(), hosts, capacity, network, compute)
            };
            for (mv, keep) in steps {
                cost.apply(mv).unwrap();
                assert_eq!(cost.clocks(), fresh(&cost).clocks(), "after {mv:?}");
                match keep {
                    true => cost.commit(),
                    false => cost.undo(),
                }
                assert_eq!(cost.clocks(), fresh(&cost).clocks(), "kept {keep}: {mv:?}");
            }
        }
    }

    #[test]
    fn a_migrate_recosts_the_compute_of_a_rank_it_did_not_move() {
        // Rank 0 never moves, but a migrate onto its host changes its
        // resident count and thus its memory-bound compute term: the cached
        // term must not survive that.
        let t = topology();
        let (h0, h1) = (t.hosts()[0].id, t.hosts()[1].id);
        let phase = |b: &mut ScheduleBuilder| b.compute(MemoryIntensity::MEMORY_BOUND, |_| 1e9);
        let mut cost = evaluator_of(phase, vec![h0, h1], &t);
        let alone = cost.clocks()[0];
        let stack = Move::Migrate { rank: 1, to: h0 };
        cost.apply(stack).unwrap();
        assert!(cost.clocks()[0] > alone, "rank 0 now shares its host");
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
        cost.undo();
        assert_eq!(cost.clocks()[0], alone);
        // The undone move left its terms in the cache; applying it again
        // hits them and must still match the oracle.
        cost.apply(stack).unwrap();
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
    fn a_ring_with_one_varying_row_keeps_every_pair() {
        // Rows are checked one at a time; only the last varies, so the
        // compiler must still fall back to the full matrix, and that
        // matrix must be the closure's, diagonal included.
        let n = 7;
        let bytes = |src: Rank, dst: Rank| {
            if src == n - 1 {
                100 + dst as u64
            } else {
                10 * src as u64 + u64::from(src == dst)
            }
        };
        let mut b = ScheduleBuilder::new(n);
        b.alltoallv(bytes);
        let schedule = b.finish();
        let expected: Vec<u64> = (0..n)
            .flat_map(|src| (0..n).map(move |dst| bytes(src, dst)))
            .collect();
        assert_eq!(
            schedule.ring_shapes,
            [RingBytes::PerPair(expected.into_boxed_slice())]
        );
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
        // The allreduce puts every rank in lockstep: the pass steps the first
        // iteration and the second one's allreduce, then skips to the
        // allgather.
        let (segments, rep) = (&cost.schedule.segments, cost.schedule.repeat.unwrap());
        let ops = |segs: &[Segment]| {
            let schedule = &cost.schedule;
            segs.iter().map(|s| schedule.segment_ops(s)).sum::<usize>()
        };
        let stepped = ops(&segments[..rep.period + 1]) + ops(&segments[rep.end()..]);
        assert_eq!(
            rep,
            Repeat {
                start: 0,
                period: 4,
                reps: 10
            }
        );
        assert_eq!(cost.last_delta_ops(), stepped);
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
        // So does a move's pass (a cross-site swap: new ring rows).
        cost.apply(Move::Swap { a: 0, b: 63 }).unwrap();
        assert_eq!(cost.last_delta_ops(), stepped);
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
        // iterations: lockstep is observed right after the second one's
        // allreduce, but the shifted clocks would not fit a u64, so the
        // guard refuses the skip there and at every later boundary until the
        // clocks saturate.
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

    #[test]
    fn ring_accounting_at_is128_is_no_larger_than_with_u64_tables() {
        // IS@128 over both sites, one rank per host and two per host (which
        // lists same-host pairs): the bytes the evaluator held when its
        // tables, rows and scratch were u64, measured on these evaluators,
        // plus the site runs that came later (two here, and no strays).
        let t = grid(64);
        let spread: Vec<_> = t.hosts().iter().map(|h| h.id).collect();
        let stacked: Vec<_> = t
            .hosts()
            .iter()
            .step_by(2)
            .flat_map(|h| [h.id; 2])
            .collect();
        for (hosts, u64_bytes) in [(spread, 8232), (stacked, 10792)] {
            let cost = evaluator_of(|b| is_shaped(b, 10), hosts, &t);
            assert_eq!(cost.last_ring_paths(), (2, 0, 0));
            assert_eq!((cost.core.runs.len(), cost.core.strays.len()), (2, 0));
            let runs = 2 * std::mem::size_of::<SiteRun>();
            assert!(
                cost.ring_cache_bytes() <= u64_bytes + runs,
                "{}",
                cost.ring_cache_bytes()
            );
            assert_eq!(cost.uniform_ring_summary(), (1, 40, 3072));
        }
    }

    /// The bound `B` of `cost`'s first table ring entered at `entry`.
    fn first_ring_bound(cost: &PlacementCost, entry: u64) -> u64 {
        let tmax = match cost.core.ring_tables.iter().flatten().next().unwrap() {
            RingTable::Uniform { tmax, .. } | RingTable::PerSrc { tmax, .. } => *tmax as u64,
        };
        let n = cost.hosts().len() as u64;
        entry + (n - 1) * (tmax + PER_MESSAGE_OVERHEAD.as_nanos())
    }

    #[test]
    fn a_table_ring_runs_as_f64_below_2_pow_53_and_per_receive_from_it() {
        let t = topology();
        // Two ranks share a host, so the colo patch runs on both paths.
        let hosts: Vec<_> = [0, 0, 1, 5, 6, 2].map(|i| t.hosts()[i].id).to_vec();
        let uniform = |b: &mut ScheduleBuilder| b.alltoall(700);
        let per_src = |b: &mut ScheduleBuilder| b.alltoallv(|src, _| (src as u64 + 1) * 96);
        for ring in [uniform as fn(&mut ScheduleBuilder), per_src] {
            let calm = evaluator_of(ring, hosts.clone(), &t);
            assert_eq!(calm.last_ring_paths(), (0, 1, 0));
            // Enter the ring at `B = 2^53 − 1`, then at `B = 2^53`.
            let below = F64_EXACT - 1 - first_ring_bound(&calm, 0);
            for (entry, paths) in [(below, (0, 1, 0)), (below + 1, (0, 0, 1))] {
                let late = |b: &mut ScheduleBuilder| {
                    b.advance(SimDuration::from_nanos(entry));
                    ring(b);
                };
                let mut cost = evaluator_of(late, hosts.clone(), &t);
                assert_eq!(
                    first_ring_bound(&cost, entry),
                    F64_EXACT - 1 + paths.2 as u64
                );
                assert_eq!(cost.last_ring_paths(), paths);
                assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
                // Both paths agree with the un-shifted ring, shifted.
                let shifted: Vec<_> = calm
                    .clocks()
                    .iter()
                    .map(|&c| c + SimDuration::from_nanos(entry))
                    .collect();
                assert_eq!(cost.clocks(), &shifted[..]);
                cost.apply(Move::Swap { a: 1, b: 4 }).unwrap();
                assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
                cost.undo();
                assert_eq!(cost.clocks(), &shifted[..]);
            }
        }
    }

    /// Three sites of 40 dual-core hosts, each site pair at its own RTT and
    /// one pair at a lower bandwidth, so every site column differs.
    fn three_sites() -> Arc<Topology> {
        let mut b = TopologyBuilder::new();
        let s: Vec<_> = ["a", "b", "c"].map(|name| b.add_site(name)).to_vec();
        for (i, &site) in s.iter().enumerate() {
            b.add_cluster(site, format!("c{i}"), "cpu", 40, NodeSpec::default());
        }
        b.set_rtt(s[0], s[1], SimDuration::from_millis(9));
        b.set_rtt(s[0], s[2], SimDuration::from_millis(15));
        b.set_rtt(s[1], s[2], SimDuration::from_millis(21));
        b.set_bandwidth(s[1], s[2], 1e9);
        Arc::new(b.build())
    }

    #[test]
    fn both_f64_ring_forms_equal_the_oracle_at_96_ranks() {
        let t = three_sites();
        let host = |i: usize| t.hosts()[i].id;
        // Site-contiguous, one rank per host: runs 0..40, 40..80, 80..96.
        let contiguous: Vec<_> = (0..96).map(host).collect();
        // Ranks 10 and 11 share an idle host of site c and rank 50 joins rank
        // 39's host: three strays, each also receiving from a same-host
        // partner at some step (11 from 10 at step 1).  Ranks 20 and 21
        // share a host inside their run.
        let mut strayed = contiguous.clone();
        strayed[10] = host(100);
        strayed[11] = host(100);
        strayed[50] = host(39);
        strayed[21] = host(20);
        // Round-robin over the sites: every stretch is one rank long.
        let scattered: Vec<_> = (0..96).map(|r| host(r % 3 * 40 + r / 3)).collect();
        let moves = [
            // Within a site; across sites (two more strays); onto a host
            // that already holds a rank (a new same-host pair); across
            // sites again.
            Move::Swap { a: 2, b: 30 },
            Move::Swap { a: 5, b: 75 },
            Move::Migrate {
                rank: 70,
                to: host(60),
            },
            Move::Swap { a: 30, b: 95 },
        ];
        // Rank 10 enters the rings last, so the receives on its paths, and
        // the same-host one at step 1 first, decide the clocks.
        let program = |b: &mut ScheduleBuilder| {
            b.compute(
                MemoryIntensity::CPU_BOUND,
                |r| if r == 10 { 1e8 } else { 1e6 },
            );
            b.alltoall(700);
            b.alltoallv(|src, _| (src as u64 % 3 + 1) * 256);
        };
        for (hosts, strays, form) in [
            (contiguous, 0, (2, 0, 0)),
            (strayed, 3, (2, 0, 0)),
            (scattered, 0, (0, 2, 0)),
        ] {
            let mut cost = evaluator_of(program, hosts, &t);
            assert_eq!(cost.last_ring_paths(), form);
            assert_eq!(cost.core.strays.len(), strays);
            assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
            for (i, mv) in moves.into_iter().enumerate() {
                let before = cost.clocks().to_vec();
                cost.apply(mv).unwrap();
                assert_eq!(cost.last_ring_paths(), form, "{mv:?}");
                assert_eq!(cost.clocks(), &cost.oracle_clocks()[..], "{mv:?}");
                if i % 2 == 0 {
                    cost.undo();
                    assert_eq!(cost.clocks(), &before[..], "undo {mv:?}");
                } else {
                    cost.commit();
                }
                assert_eq!(cost.clocks(), &cost.oracle_clocks()[..], "{mv:?}");
            }
        }
    }

    #[test]
    fn a_cross_site_swap_near_a_run_boundary_strays_only_the_swapped_ranks() {
        // Site-contiguous: runs 0..40, 40..80, 80..96 at sites a, b, c.
        // After the swap, ranks 80..85 are a stretch of five at c, too
        // short to anchor a run: they belong with the c run after them,
        // not as strays of the b run before them.
        let t = three_sites();
        let hosts = (0..96).map(|i| t.hosts()[i].id).collect();
        let mut cost = evaluator_of(|b| b.alltoall(700), hosts, &t);
        cost.apply(Move::Swap { a: 5, b: 85 }).unwrap();
        assert_eq!(cost.core.strays, [5, 85]);
        assert_eq!(cost.last_ring_paths(), (1, 0, 0));
        assert_eq!(cost.clocks(), &cost.oracle_clocks()[..]);
    }

    #[test]
    fn a_rank_out_of_range_is_an_error_and_moves_nothing() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(4).map(|h| h.id).collect();
        let mut cost = evaluator_for(hosts.clone(), &t);
        let before = cost.clocks().to_vec();
        let out = MoveError::RankOutOfRange { rank: 4, ranks: 4 };
        for mv in [
            Move::Swap { a: 4, b: 0 },
            Move::Swap { a: 0, b: 4 },
            Move::Migrate {
                rank: 4,
                to: hosts[0],
            },
        ] {
            assert_eq!(cost.apply(mv), Err(out));
            assert_eq!(cost.hosts(), &hosts[..]);
            assert_eq!(cost.clocks(), &before[..]);
        }
        assert_eq!(out.to_string(), "rank 4 not in 0..4");
        // No move is left in flight.
        cost.apply(Move::Swap { a: 0, b: 3 }).unwrap();
        cost.commit();
    }

    #[test]
    fn a_host_out_of_range_is_an_error_and_moves_nothing() {
        let t = topology();
        let hosts: Vec<_> = t.hosts().iter().take(4).map(|h| h.id).collect();
        let mut cost = evaluator_for(hosts.clone(), &t);
        let before = cost.clocks().to_vec();
        let to = HostId(t.host_count());
        let err = cost.apply(Move::Migrate { rank: 0, to }).unwrap_err();
        assert_eq!(
            err,
            MoveError::HostOutOfRange {
                host: to,
                hosts: t.host_count()
            }
        );
        assert_eq!(err.to_string(), format!("{to} not in 0..8"));
        assert_eq!(cost.hosts(), &hosts[..]);
        assert_eq!(cost.clocks(), &before[..]);
        cost.apply(Move::Migrate {
            rank: 0,
            to: t.hosts()[7].id,
        })
        .unwrap();
        cost.commit();
    }
}
