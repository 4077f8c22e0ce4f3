//! Time-ordered event storage and queues with FIFO tie-breaking.
//!
//! Two pieces live here:
//!
//! * [`EventStore`] — a slab/arena for event payloads.  Payloads are stored
//!   once and addressed by a compact [`EventKey`]; freed slots are recycled,
//!   so a steady-state simulation performs no per-event `Vec` growth and the
//!   priority structures below shuffle 24-byte tickets instead of payloads.
//! * [`EventQueue`] — the time-ordered queue built on top of the store, with
//!   a choice of priority structure ([`QueueKind`]): the classic binary heap
//!   (default), or a ladder queue (Tang, Goh & Thng, ACM TOMACS 2005) whose
//!   enqueue and dequeue stay amortised O(1) when the pending population is
//!   large and heavily *skewed* in time.
//!
//! The queue is generic over the payload type; the overlay crate's typed
//! event loop ([`crate::engine::TypedEngine`]) is built on it.
//!
//! # Choosing a queue kind
//!
//! Both structures obey the same ordering contract; the choice is pure
//! performance, driven by the *size* and *shape* of the pending population:
//!
//! * **[`QueueKind::BinaryHeap`]** — small populations (≲ a few hundred) or
//!   bursty push/drain patterns.  O(log n) is unbeatable while `n` is tiny
//!   and the heap has no bucket bookkeeping to amortise.  The default, and
//!   the reference the equivalence tests compare the ladder against.
//! * **[`QueueKind::Ladder`]** — large *skewed* populations.  Buckets accept
//!   events by unsorted append and are only sorted (bottom tier) when their
//!   turn to fire comes; a bucket that turns out to be overcrowded is
//!   re-partitioned into a finer rung instead of being scanned linearly, so
//!   dense clusters cost O(1) amortised per event no matter how narrow they
//!   are.  This is the structure for timeout-heavy timelines where most
//!   events are armed, cancelled and collected within a tight window (the
//!   day and week sweeps default to it).
//!
//! Cancellation-heavy workloads also benefit from the transfer-time
//! tombstone compaction described below, which the ladder performs and the
//! heap (which never moves tickets between buckets) cannot.
//!
//! # Ordering contract (FIFO tie-break)
//!
//! Events scheduled for the same virtual instant are delivered **in the
//! order they were scheduled**, whatever the [`QueueKind`].  Every push is
//! stamped with a monotonically increasing sequence number, and both
//! priority structures order by `(time, seq)`; the ladder sorts each chunk
//! by that same key before firing it, so moving events between rungs cannot
//! reorder ties.  Simulations rely on this for determinism — e.g. an
//! "arrival" and the "probe" it schedules at the same instant must always
//! fire in that order — and `ties_are_fifo*` pins the contract.
//!
//! # Cancellation and its interaction with FIFO ordering
//!
//! [`EventQueue::push`] returns the payload's [`EventKey`];
//! [`EventQueue::cancel`] revokes a pending event by that key and hands the
//! payload back.  Cancellation never touches the priority structures: the
//! payload slot is turned into a **tombstone** and the 24-byte ticket stays
//! queued until its firing time comes up, at which point the pop loop
//! discards it and recycles the slot.  Because no ticket is ever removed or
//! re-inserted out of band, the `(time, seq)` order of the *surviving*
//! events — including FIFO among equal instants — is exactly the order they
//! were originally pushed in; cancelling an event can never reorder its
//! neighbours (`cancel_preserves_fifo_around_tombstones` pins this).
//!
//! One refinement keeps cancel-heavy workloads cheap: whenever the ladder
//! queue *transfers* a bucket anyway (a rung spawn or bottom-tier
//! transfer), tombstoned tickets are compacted out on the way instead of
//! being carried to their firing time.  Dropping a ticket cannot reorder
//! the survivors, so the FIFO contract is unaffected;
//! it only means [`EventQueue::queued_len`] (tickets, including tombstones
//! awaiting collection) converges toward [`EventQueue::live_len`] (pending
//! payloads) without waiting for the tombstones' nominal firing times.
//!
//! Keys are generation-stamped: once an event has fired or been cancelled,
//! its key is stale, and cancelling a stale key is a harmless no-op that
//! returns `None` — even if the underlying slot has since been recycled for
//! a newer event.  This is what makes "cancel the timeout when the reply
//! arrives" races safe to express: the late cancel of an already-fired
//! timeout cannot revoke an unrelated event.
//!
//! Cancellation-heavy *long* traces can also compact on demand:
//! [`EventQueue::reap`] eagerly collects every tombstoned ticket (and
//! recycles its slot) without waiting for firing times or bucket transfers,
//! so a driver can bound `queued_len() - live_len()` on whatever cadence it
//! documents.
//!
//! # Parallel shards
//!
//! A conservatively synchronised parallel simulation (see `bench::shard`)
//! runs one `EventQueue`-backed timeline per shard and advances the shards
//! on separate threads between barriers.  Two properties of this module make
//! that sound:
//!
//! * **Safe horizon** — once a timeline has drained everything due at or
//!   before its barrier time, the firing time of its next pending event
//!   ([`EventQueue::peek_time`]) is a *lower bound* on when the shard's
//!   state can next change: between barriers new work enters a shard's
//!   timeline only from its own event handlers, never from another shard.
//!   A coordinator may therefore inspect — or splice completions into —
//!   every shard at a barrier instant `t` once each shard has drained to
//!   `t`, and the merged view it brokers against is exactly the one a
//!   sequential execution would see.
//! * **Per-shard FIFO ties** — sequence numbers are per-queue, so each
//!   shard's `(time, seq)` order is exactly the order *that shard*
//!   scheduled its events, independent of thread interleaving; a parallel
//!   run is bit-identical to a sequential execution of the same per-shard
//!   schedules.  Cross-shard completions are scattered back through
//!   [`EventQueue::push_batch`] at the barrier, in deterministic
//!   (shard-index, job) order, so they too occupy reproducible sequence
//!   numbers.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

// ---------------------------------------------------------------------------
// EventStore: slab-allocated payloads behind stable keys
// ---------------------------------------------------------------------------

/// Compact generation-stamped handle to a payload inside an [`EventStore`].
///
/// A key is *live* from [`EventStore::insert`] until the payload leaves the
/// store (fired via `take`/`resolve`, or revoked via `cancel`).  Stale keys
/// are harmless: the generation stamp lets the store tell a recycled slot
/// from the original occupant, so `cancel` with a stale key is a no-op
/// instead of revoking an unrelated newer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    index: u32,
    generation: u32,
}

impl EventKey {
    /// Raw slot index (exposed for diagnostics).
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// The slot generation this key refers to (exposed for diagnostics).
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// Sentinel for "no free slot" in the intrusive free list.
const NO_FREE_SLOT: u32 = u32::MAX;

/// Payload state of one slab slot.
enum SlotState<E> {
    /// Free and threading the intrusive free list (so freeing and reusing a
    /// slot touches exactly one cache line — no side array of free indices).
    Vacant { next_free: u32 },
    /// Holding a pending event's payload.
    Occupied(E),
    /// Cancelled: the payload is gone but a ticket in some priority
    /// structure still points here, so the slot cannot be recycled until
    /// that ticket is popped and discarded.
    Tombstone,
}

/// One slab slot: its payload state plus the generation counter that
/// invalidates stale [`EventKey`]s once the slot is recycled.
struct Slot<E> {
    generation: u32,
    state: SlotState<E>,
}

/// Arena of event payloads with free-slot recycling.
///
/// `insert` returns a stable [`EventKey`]; `take` frees the slot for reuse
/// through an intrusive free list.  The backing `Vec` only grows when more
/// events are *simultaneously* pending than ever before, so a steady-state
/// simulation reaches a high-water mark once and then allocates nothing
/// further for bookkeeping.
///
/// `cancel` removes a payload *without* freeing the slot (leaving a
/// tombstone for the priority structure's ticket to collect later); slots
/// carry a generation counter so keys cannot alias across recycling.
pub struct EventStore<E> {
    slots: Vec<Slot<E>>,
    free_head: u32,
    live: usize,
    tombstones: usize,
}

impl<E> Default for EventStore<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventStore<E> {
    /// Creates an empty store.
    pub fn new() -> Self {
        EventStore {
            slots: Vec::new(),
            free_head: NO_FREE_SLOT,
            live: 0,
            tombstones: 0,
        }
    }

    /// Creates a store pre-sized for `cap` simultaneously pending payloads.
    pub fn with_capacity(cap: usize) -> Self {
        EventStore {
            slots: Vec::with_capacity(cap),
            free_head: NO_FREE_SLOT,
            live: 0,
            tombstones: 0,
        }
    }

    /// Reserves room for at least `additional` more simultaneous payloads.
    /// Inserts fill vacant slots before growing, so only the shortfall past
    /// the vacant count needs backing capacity (`Vec::reserve` already
    /// accounts for capacity beyond the current length).  Tombstoned slots
    /// count as unavailable: they only free up when their ticket is popped.
    pub fn reserve(&mut self, additional: usize) {
        let vacant = self.slots.len() - self.live - self.tombstones;
        self.slots.reserve(additional.saturating_sub(vacant));
    }

    /// Number of slots allocated (the high-water mark of pending events).
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Number of live payloads.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no payloads are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Stores `payload`, recycling a freed slot when one exists.
    #[inline]
    pub fn insert(&mut self, payload: E) -> EventKey {
        self.live += 1;
        let idx = self.free_head;
        if idx != NO_FREE_SLOT {
            let slot = &mut self.slots[idx as usize];
            match std::mem::replace(&mut slot.state, SlotState::Occupied(payload)) {
                SlotState::Vacant { next_free } => self.free_head = next_free,
                _ => unreachable!("free list points at a non-vacant slot"),
            }
            EventKey {
                index: idx,
                generation: slot.generation,
            }
        } else {
            let idx = u32::try_from(self.slots.len()).expect("event store exceeds u32 slots");
            assert!(idx != NO_FREE_SLOT, "event store exceeds u32 slots");
            self.slots.push(Slot {
                generation: 0,
                state: SlotState::Occupied(payload),
            });
            EventKey {
                index: idx,
                generation: 0,
            }
        }
    }

    /// Marks `key`'s slot vacant and threads it onto the free list, bumping
    /// the generation so stale keys to this slot can never match again.
    #[inline]
    fn vacate(&mut self, index: u32) {
        let slot = &mut self.slots[index as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slot.state = SlotState::Vacant {
            next_free: self.free_head,
        };
        self.free_head = index;
    }

    /// Removes and returns the payload behind `key`.
    ///
    /// # Panics
    ///
    /// Panics if the key is stale (fired, cancelled, or recycled) — a
    /// double-take of a slot is a queue bug, never a user error.  Callers
    /// racing against cancellation should use [`EventStore::resolve`].
    #[inline]
    pub fn take(&mut self, key: EventKey) -> E {
        self.resolve(key).expect("event key taken twice")
    }

    /// Collects the payload behind a popped ticket's key.
    ///
    /// Returns the payload if the slot is live, or `None` if the event was
    /// cancelled in the meantime (the tombstone is recycled either way).
    /// Stale-generation keys also return `None` without touching the slot.
    #[inline]
    pub fn resolve(&mut self, key: EventKey) -> Option<E> {
        let slot = self.slots.get_mut(key.index as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        match std::mem::replace(&mut slot.state, SlotState::Tombstone) {
            SlotState::Occupied(payload) => {
                self.live -= 1;
                self.vacate(key.index);
                Some(payload)
            }
            SlotState::Tombstone => {
                self.tombstones -= 1;
                self.vacate(key.index);
                None
            }
            SlotState::Vacant { next_free } => {
                // Same generation but vacant cannot happen (vacating bumps
                // the generation); restore the state before surfacing it.
                self.slots[key.index as usize].state = SlotState::Vacant { next_free };
                unreachable!("live-generation key points at a vacant slot")
            }
        }
    }

    /// Revokes the payload behind `key` without recycling the slot: the slot
    /// becomes a tombstone that the priority structure's ticket collects on
    /// pop.  Returns `None` (and changes nothing) if the key is stale.
    #[inline]
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        let slot = self.slots.get_mut(key.index as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        match std::mem::replace(&mut slot.state, SlotState::Tombstone) {
            SlotState::Occupied(payload) => {
                self.live -= 1;
                self.tombstones += 1;
                Some(payload)
            }
            other => {
                // Already a tombstone (double cancel) — put it back.
                slot.state = other;
                None
            }
        }
    }

    /// If `key`'s slot holds a tombstone, recycles it and returns `true`.
    ///
    /// This is the transfer-time compaction hook: a priority structure that
    /// is about to move a ticket between buckets calls this first and drops
    /// the ticket when the event behind it is already cancelled, instead of
    /// carrying the dead ticket to its firing time.  Live (and stale-key)
    /// slots are left untouched.
    #[inline]
    fn reap(&mut self, key: EventKey) -> bool {
        let Some(slot) = self.slots.get_mut(key.index as usize) else {
            return false;
        };
        if slot.generation != key.generation {
            // A queued ticket's slot is never recycled out from under it, so
            // a mismatch can only mean the caller handed us a foreign key;
            // leave it alone.
            return false;
        }
        if matches!(slot.state, SlotState::Tombstone) {
            self.tombstones -= 1;
            self.vacate(key.index);
            true
        } else {
            false
        }
    }

    /// Number of cancelled payload slots whose tickets are still queued.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }

    /// True if `key` still refers to a pending (not fired, not cancelled)
    /// payload.
    #[inline]
    pub fn is_live(&self, key: EventKey) -> bool {
        self.slots
            .get(key.index as usize)
            .map(|s| s.generation == key.generation && matches!(s.state, SlotState::Occupied(_)))
            .unwrap_or(false)
    }

    /// Discards all payloads and recycles every slot.  All outstanding keys
    /// become invalid (the slot table is rebuilt from generation 0).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_head = NO_FREE_SLOT;
        self.live = 0;
        self.tombstones = 0;
    }
}

// ---------------------------------------------------------------------------
// Tickets and the selectable priority structures
// ---------------------------------------------------------------------------

/// Which priority structure an [`EventQueue`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// `std::collections::BinaryHeap` of tickets: O(log n) push/pop, best
    /// for small or bursty queues.  The default.
    #[default]
    BinaryHeap,
    /// Ladder queue: amortised O(1) push/pop that stays O(1) on heavily
    /// *skewed* populations (dense clusters riding on a sparse tail, e.g.
    /// timeout-heavy timelines).  See the module docs for the selection
    /// guide.
    Ladder,
}

/// A queue ticket: when to fire, FIFO tie-break, and where the payload lives.
///
/// The firing time and sequence number are pre-packed into one `u128`
/// (`time << 64 | seq`) at push time, so the comparison every hot path
/// performs — heap sift, ladder bottom sort and insert — is a single
/// wide-integer compare instead of a two-field lexicographic one,
/// and the ticket stays 24 bytes.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    /// `(time_ns << 64) | seq`: orders by time, FIFO among ties.
    packed: u128,
    key: EventKey,
}

impl Ticket {
    #[inline]
    fn new(time: SimTime, seq: u64, key: EventKey) -> Self {
        Ticket {
            packed: ((time.as_nanos() as u128) << 64) | seq as u128,
            key,
        }
    }

    /// The firing time, recovered from the high 64 bits.
    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_nanos(self.time_ns())
    }

    /// The firing time in nanoseconds (what the bucket maths works in).
    #[inline]
    fn time_ns(&self) -> u64 {
        (self.packed >> 64) as u64
    }

    #[inline]
    fn sort_key(&self) -> u128 {
        self.packed
    }
}

/// Wrapper giving `BinaryHeap` min-queue semantics over the packed
/// `(time, seq)` key.
struct HeapTicket(Ticket);

impl PartialEq for HeapTicket {
    fn eq(&self, other: &Self) -> bool {
        self.0.packed == other.0.packed
    }
}
impl Eq for HeapTicket {}
impl PartialOrd for HeapTicket {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapTicket {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest seq)
        // ticket is popped first.  One u128 compare: this is the hottest
        // instruction of the heap-backed engine's churn loop.
        other.0.packed.cmp(&self.0.packed)
    }
}

/// Once the innermost rung's current bucket shrinks to this many tickets it
/// is sorted into the bottom tier instead of spawning a finer rung.
const LADDER_BOTTOM_THRESH: usize = 32;
/// Hard cap on simultaneously live rungs; at the cap an overcrowded bucket
/// is sorted into the bottom tier anyway.  Widths at least halve per spawn,
/// so even pathological schedules stay well under this.
const LADDER_MAX_RUNGS: usize = 32;

/// One rung of a [`LadderQueue`]: a bucket array partitioning a half-open
/// time interval `[start, start + width·buckets.len())` into equal slots.
/// Buckets before `cur` have been consumed; pushes only ever target
/// `cur..`, so buckets receive events by *unsorted append*.
struct Rung {
    buckets: Vec<Vec<Ticket>>,
    /// Slot width in nanoseconds (>= 1).
    width: u64,
    /// Time at the start of bucket 0.
    start: u64,
    /// Exclusive upper bound of the interval this rung *owns* under the
    /// tier tiling.  The bucket array's raw coverage
    /// (`start + width·buckets.len()`) may overhang this (widths are
    /// rounded up), but events at or past `limit` belong to the next outer
    /// tier — routing by coverage instead of `limit` would let a late push
    /// overtake earlier events still sitting in the outer rung.
    limit: u128,
    /// Next bucket to consume.
    cur: usize,
    /// Tickets currently held across all buckets.
    count: usize,
}

impl Rung {
    /// Inclusive lower time bound of the unconsumed region.
    #[inline]
    fn cur_start(&self) -> u128 {
        self.start as u128 + self.width as u128 * self.cur as u128
    }

    #[inline]
    fn bucket_of(&self, t: u64) -> usize {
        ((t - self.start) / self.width) as usize
    }
}

/// Ladder queue of tickets (Tang, Goh & Thng, "Ladder queue: an O(1)
/// priority queue structure for large-scale discrete event simulation",
/// ACM TOMACS 2005), adapted to the [`EventStore`] ticket regime.
///
/// Three tiers:
///
/// * **Top** — an unsorted list for the far future (`time >= top_start`).
///   Pushing there is an append; its min/max are tracked for the eventual
///   spawn.
/// * **Rungs** — bucket arrays spawned on demand.  Rung 0 is spawned from
///   the whole top tier; when the bucket whose turn has come is still
///   overcrowded (> [`LADDER_BOTTOM_THRESH`]), it is re-partitioned into a
///   finer rung *covering just that bucket's interval* instead of being
///   sorted wholesale — this recursive refinement is what keeps dense
///   clusters O(1) amortised where a single global bucket width would
///   degrade.  Bucket pushes are unsorted appends.
/// * **Bottom** — the currently firing chunk, sorted descending by
///   `(time, seq)` so pops are `Vec::pop`.
///
/// The tiers tile time exactly: `bottom` covers everything before the
/// innermost rung's consumption point, each rung covers up to the next
/// outer rung's consumption point, and `top` covers `top_start..`.  A push
/// is routed by that tiling, so earlier-than-cursor pushes land in
/// `bottom` via one sorted insert.  `bottom` is kept *ascending* behind a
/// consumption cursor (rather than descending behind `Vec::pop`) so the
/// overwhelmingly common near-now push — an event scheduled a few
/// microseconds ahead of the chunk being fired, later than everything
/// still in it — is an O(1) append instead of a whole-chunk memmove;
/// a handler cascade that schedules its successor while a dense tie
/// cluster is draining would otherwise go quadratic.
///
/// Tombstone hygiene: every transfer (top → rung, rung → finer rung, bucket
/// → bottom) runs the store's reap hook and drops tickets whose events were
/// cancelled, so cancel-heavy workloads do not drag dead tickets through
/// the refinement cascade.
struct LadderQueue {
    top: Vec<Ticket>,
    /// Min/max times in `top` (meaningful while `top` is non-empty).
    top_min: u64,
    top_max: u64,
    /// Times `>= top_start` belong to `top` (0 while nothing was spawned, so
    /// everything starts in `top`).
    top_start: u64,
    /// Spawned rungs, coarsest first; `rungs.last()` is being consumed.
    rungs: Vec<Rung>,
    /// The firing chunk, sorted ascending by `(time, seq)`; tickets before
    /// `bottom_cur` have been consumed.  The vec is drained (and the cursor
    /// reset) the moment the last live ticket pops, so `bottom_cur ==
    /// bottom.len()` implies both are 0.
    bottom: Vec<Ticket>,
    /// Next ticket of `bottom` to fire.
    bottom_cur: usize,
    /// Reusable transfer scratch, so bucket moves do not allocate in steady
    /// state.
    transfer: Vec<Ticket>,
    /// Bucket arrays of collapsed rungs, recycled by the next spawn: a
    /// steady-state spawn/drain/collapse cycle reuses the same buffers
    /// instead of allocating a fresh array (and fresh buckets) every time.
    spare_rungs: Vec<Vec<Vec<Ticket>>>,
    /// Total queued tickets (live + tombstones not yet compacted).
    len: usize,
}

impl LadderQueue {
    fn new() -> Self {
        LadderQueue {
            top: Vec::new(),
            top_min: 0,
            top_max: 0,
            top_start: 0,
            rungs: Vec::new(),
            bottom: Vec::new(),
            bottom_cur: 0,
            transfer: Vec::new(),
            spare_rungs: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn push_top(&mut self, ticket: Ticket) {
        let t = ticket.time_ns();
        if self.top.is_empty() {
            self.top_min = t;
            self.top_max = t;
        } else {
            self.top_min = self.top_min.min(t);
            self.top_max = self.top_max.max(t);
        }
        self.top.push(ticket);
    }

    #[inline]
    fn push(&mut self, ticket: Ticket) {
        self.len += 1;
        self.route(ticket);
    }

    /// Routes one ticket to its tier (`push` without the length bump, so
    /// a bottom-spawn can re-route).
    fn route(&mut self, ticket: Ticket) {
        let t = ticket.time_ns();
        // With no spawned structure everything accumulates in the top tier
        // (even below `top_start`: the next spawn re-derives its range from
        // the actual min/max, so rewinds are absorbed there).
        if self.rungs.is_empty() && self.bottom.is_empty() {
            self.push_top(ticket);
            return;
        }
        if t >= self.top_start {
            self.push_top(ticket);
            return;
        }
        // Below every rung's consumption point: the firing chunk.  The
        // common case — later than everything still in the chunk — appends.
        let innermost_floor = self
            .rungs
            .last()
            .map(|r| r.cur_start())
            .unwrap_or(self.top_start as u128);
        if (t as u128) < innermost_floor {
            let live = &self.bottom[self.bottom_cur..];
            let pos = live.partition_point(|other| other.sort_key() < ticket.sort_key());
            // A sorted insert that would shift more than a bucket's worth
            // of tickets means `bottom` has degenerated into a standing
            // working set (a wide chunk that new near-now events keep
            // landing inside): spin its live region back out into a rung
            // (the ladder paper's bottom-spawn) and re-route.
            if live.len() - pos > LADDER_BOTTOM_THRESH && self.rungs.len() < LADDER_MAX_RUNGS {
                self.spawn_from_bottom(innermost_floor);
                self.route(ticket);
                return;
            }
            self.bottom.insert(self.bottom_cur + pos, ticket);
            return;
        }
        // The tiers tile `[bottom, top_start)`: the first rung (walking
        // inside-out) whose *owned* interval reaches past `t` takes it, and
        // `t` is at or past that rung's consumption point by the tiling
        // invariant.
        for rung in self.rungs.iter_mut().rev() {
            if (t as u128) < rung.limit {
                let b = rung.bucket_of(t);
                debug_assert!(b >= rung.cur, "push into a consumed ladder bucket");
                debug_assert!(b < rung.buckets.len(), "push past the rung's coverage");
                rung.buckets[b].push(ticket);
                rung.count += 1;
                return;
            }
        }
        unreachable!("ticket below top_start fits no ladder tier");
    }

    /// Converts the live region of `bottom` into a new innermost rung
    /// owning `[live min, floor)`, leaving `bottom` empty.  `floor` is the
    /// previous innermost consumption point (the exclusive bound of
    /// everything in `bottom`), so the tiling invariant is preserved.
    fn spawn_from_bottom(&mut self, floor: u128) {
        debug_assert!(self.bottom_cur < self.bottom.len());
        self.transfer.clear();
        self.transfer.extend(self.bottom.drain(self.bottom_cur..));
        self.bottom.clear();
        self.bottom_cur = 0;
        // The live region is ascending, so its first ticket is the minimum.
        let min = self.transfer[0].time_ns();
        let span = (floor - min as u128) as u64;
        let n = self.transfer.len() as u64;
        let width = span.div_ceil(n).max(1);
        let nbuckets = (span.div_ceil(width) as usize).max(1);
        self.spawn_rung(min, width, nbuckets, floor);
    }

    /// Spawns rung 0 from the entire top tier (compacting tombstones on the
    /// way) and empties `top`.
    fn spawn_from_top(&mut self, reap: &mut dyn FnMut(EventKey) -> bool) {
        debug_assert!(!self.top.is_empty());
        self.transfer.clear();
        self.transfer.append(&mut self.top);
        let before = self.transfer.len();
        self.transfer.retain(|t| !reap(t.key));
        self.len -= before - self.transfer.len();
        self.top_start = self.top_max.saturating_add(1);
        if self.transfer.is_empty() {
            return;
        }
        let span = (self.top_max - self.top_min).saturating_add(1);
        let n = self.transfer.len() as u64;
        let width = span.div_ceil(n).max(1);
        let nbuckets = (span.div_ceil(width) as usize).max(1);
        self.spawn_rung(self.top_min, width, nbuckets, self.top_start as u128);
    }

    /// Creates a new innermost rung covering `[start, start + width·nbuckets)`
    /// but *owning* only `[start, limit)` under the tier tiling, and
    /// distributes `self.transfer` into its buckets.  Bucket arrays are
    /// recycled from collapsed rungs when available.
    fn spawn_rung(&mut self, start: u64, width: u64, nbuckets: usize, limit: u128) {
        let mut buckets = self.spare_rungs.pop().unwrap_or_default();
        debug_assert!(buckets.iter().all(Vec::is_empty));
        if buckets.len() > nbuckets {
            buckets.truncate(nbuckets);
        } else {
            buckets.resize_with(nbuckets, Vec::new);
        }
        let mut rung = Rung {
            buckets,
            width,
            start,
            limit,
            cur: 0,
            count: self.transfer.len(),
        };
        for ticket in self.transfer.drain(..) {
            let b = rung.bucket_of(ticket.time_ns());
            rung.buckets[b].push(ticket);
        }
        self.rungs.push(rung);
    }

    /// Refills the bottom tier from the rungs (spawning from top when every
    /// rung is exhausted), so that `bottom` is non-empty unless the whole
    /// queue is.  This is where bucket transfers — and therefore tombstone
    /// compaction and recursive refinement — happen.
    fn ensure_bottom(&mut self, reap: &mut dyn FnMut(EventKey) -> bool) {
        while self.bottom_cur == self.bottom.len() {
            // Collapse exhausted rungs, stashing their (empty) bucket
            // arrays for the next spawn.
            while self.rungs.last().is_some_and(|r| r.count == 0) {
                let rung = self.rungs.pop().expect("just checked");
                if self.spare_rungs.len() < LADDER_MAX_RUNGS {
                    self.spare_rungs.push(rung.buckets);
                }
            }
            let Some(rung) = self.rungs.last_mut() else {
                if self.top.is_empty() {
                    return; // truly empty
                }
                self.spawn_from_top(reap);
                continue;
            };
            while rung.buckets[rung.cur].is_empty() {
                rung.cur += 1;
            }
            let width = rung.width;
            let b_start = rung.start + rung.cur as u64 * width;
            self.transfer.clear();
            self.transfer.append(&mut rung.buckets[rung.cur]);
            rung.cur += 1;
            rung.count -= self.transfer.len();
            let before = self.transfer.len();
            self.transfer.retain(|t| !reap(t.key));
            self.len -= before - self.transfer.len();
            let n = self.transfer.len();
            if n > LADDER_BOTTOM_THRESH && width > 1 && self.rungs.len() < LADDER_MAX_RUNGS {
                // Overcrowded bucket: refine it into a finer rung instead of
                // paying an oversized sort.  The new width at least halves
                // (n >= 2), so refinement terminates at width 1 — a pure tie
                // bucket — which is always sorted directly.  The refined
                // rung owns exactly the source bucket's interval: its
                // rounded-up coverage may overhang it, and routing by the
                // overhang would deliver late pushes ahead of events still
                // queued in this rung's later buckets.
                let new_width = width.div_ceil(n as u64).max(1);
                let nbuckets = (width.div_ceil(new_width) as usize).max(1);
                self.spawn_rung(
                    b_start,
                    new_width,
                    nbuckets,
                    b_start as u128 + width as u128,
                );
                continue;
            }
            // Sort the chunk ascending; the cursor fires it front to back.
            self.transfer.sort_unstable_by_key(|t| t.sort_key());
            std::mem::swap(&mut self.bottom, &mut self.transfer);
            self.bottom_cur = 0;
        }
    }

    #[inline]
    fn peek(&mut self, reap: &mut dyn FnMut(EventKey) -> bool) -> Option<Ticket> {
        self.ensure_bottom(reap);
        self.bottom.get(self.bottom_cur).copied()
    }

    #[inline]
    fn pop(&mut self, reap: &mut dyn FnMut(EventKey) -> bool) -> Option<Ticket> {
        self.ensure_bottom(reap);
        let ticket = *self.bottom.get(self.bottom_cur)?;
        self.bottom_cur += 1;
        if self.bottom_cur == self.bottom.len() {
            self.bottom.clear();
            self.bottom_cur = 0;
        }
        self.len -= 1;
        Some(ticket)
    }

    /// Eagerly drops tombstoned tickets from every tier.  Dropping a ticket
    /// never reorders the survivors, so the FIFO contract is unaffected.
    fn compact(&mut self, reap: &mut dyn FnMut(EventKey) -> bool) {
        let mut dropped = 0usize;
        let before = self.top.len();
        self.top.retain(|t| !reap(t.key));
        dropped += before - self.top.len();
        if let (Some(min), Some(max)) = (
            self.top.iter().map(Ticket::time_ns).min(),
            self.top.iter().map(Ticket::time_ns).max(),
        ) {
            self.top_min = min;
            self.top_max = max;
        }
        for rung in &mut self.rungs {
            let cur = rung.cur;
            for bucket in &mut rung.buckets[cur..] {
                let before = bucket.len();
                bucket.retain(|t| !reap(t.key));
                let gone = before - bucket.len();
                rung.count -= gone;
                dropped += gone;
            }
        }
        // The consumed prefix of `bottom` is spent tickets kept only so the
        // cursor stays cheap; drop it so the retain sees the live region.
        self.bottom.drain(..self.bottom_cur);
        self.bottom_cur = 0;
        let before = self.bottom.len();
        self.bottom.retain(|t| !reap(t.key));
        dropped += before - self.bottom.len();
        self.len -= dropped;
    }

    fn clear(&mut self) {
        self.top.clear();
        self.rungs.clear();
        self.bottom.clear();
        self.bottom_cur = 0;
        self.transfer.clear();
        self.top_start = 0;
        self.len = 0;
    }
}

/// The selectable priority structure over tickets.
enum TicketQueue {
    Heap(BinaryHeap<HeapTicket>),
    Ladder(LadderQueue),
}

impl TicketQueue {
    fn new(kind: QueueKind, cap: usize) -> Self {
        match kind {
            QueueKind::BinaryHeap => TicketQueue::Heap(BinaryHeap::with_capacity(cap)),
            QueueKind::Ladder => TicketQueue::Ladder(LadderQueue::new()),
        }
    }

    fn kind(&self) -> QueueKind {
        match self {
            TicketQueue::Heap(_) => QueueKind::BinaryHeap,
            TicketQueue::Ladder(_) => QueueKind::Ladder,
        }
    }

    /// Tickets currently queued, including tombstones awaiting collection.
    fn len(&self) -> usize {
        match self {
            TicketQueue::Heap(h) => h.len(),
            TicketQueue::Ladder(l) => l.len,
        }
    }

    #[inline]
    fn push(&mut self, ticket: Ticket) {
        match self {
            TicketQueue::Heap(h) => h.push(HeapTicket(ticket)),
            TicketQueue::Ladder(l) => l.push(ticket),
        }
    }

    #[inline]
    fn pop(&mut self, reap: &mut dyn FnMut(EventKey) -> bool) -> Option<Ticket> {
        match self {
            TicketQueue::Heap(h) => h.pop().map(|t| t.0),
            TicketQueue::Ladder(l) => l.pop(reap),
        }
    }

    #[inline]
    fn peek(&mut self, reap: &mut dyn FnMut(EventKey) -> bool) -> Option<Ticket> {
        match self {
            TicketQueue::Heap(h) => h.peek().map(|t| t.0),
            TicketQueue::Ladder(l) => l.peek(reap),
        }
    }

    fn clear(&mut self) {
        match self {
            TicketQueue::Heap(h) => h.clear(),
            TicketQueue::Ladder(l) => l.clear(),
        }
    }

    /// Eagerly compacts tombstoned tickets out of the structure (see
    /// [`EventQueue::reap`]).  The heap is rebuilt from its retained
    /// tickets (heapify is O(n), and pop order is a total order on the
    /// packed key, so the rebuild cannot perturb delivery); the ladder
    /// retains each tier in place.
    fn compact(&mut self, reap: &mut dyn FnMut(EventKey) -> bool) {
        match self {
            TicketQueue::Heap(h) => {
                let mut tickets = std::mem::take(h).into_vec();
                tickets.retain(|t| !reap(t.0.key));
                *h = BinaryHeap::from(tickets);
            }
            TicketQueue::Ladder(l) => l.compact(reap),
        }
    }

    fn reserve(&mut self, additional: usize) {
        if let TicketQueue::Heap(h) = self {
            h.reserve(additional);
        }
        // The ladder sizes itself from its population; nothing to do.
    }
}

// ---------------------------------------------------------------------------
// EventQueue: store + tickets behind the original API
// ---------------------------------------------------------------------------

/// A scheduled event popped from the queue.
#[derive(Debug, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Virtual instant at which the event fires.
    pub time: SimTime,
    /// The event payload.
    pub payload: E,
}

/// Min-queue of events ordered by firing time, FIFO among equal times.
///
/// Payloads live in an [`EventStore`] arena; the priority structure (chosen
/// by [`QueueKind`]) orders compact tickets.  See the module docs for the
/// FIFO ordering contract.
pub struct EventQueue<E> {
    store: EventStore<E>,
    tickets: TicketQueue,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue over a binary heap.
    pub fn new() -> Self {
        Self::with_kind(QueueKind::BinaryHeap)
    }

    /// Creates an empty queue over the given priority structure.
    pub fn with_kind(kind: QueueKind) -> Self {
        EventQueue {
            store: EventStore::new(),
            tickets: TicketQueue::new(kind, 0),
            next_seq: 0,
        }
    }

    /// Creates an empty binary-heap queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_capacity_and_kind(cap, QueueKind::BinaryHeap)
    }

    /// Creates an empty queue with pre-allocated capacity over the given
    /// priority structure.
    pub fn with_capacity_and_kind(cap: usize, kind: QueueKind) -> Self {
        EventQueue {
            store: EventStore::with_capacity(cap),
            tickets: TicketQueue::new(kind, cap),
            next_seq: 0,
        }
    }

    /// The priority structure in use.
    pub fn kind(&self) -> QueueKind {
        self.tickets.kind()
    }

    /// Reserves capacity for at least `additional` more events, so bursts of
    /// scheduling (e.g. a job sweep enqueueing its whole arrival process)
    /// do not regrow the structures incrementally.
    pub fn reserve(&mut self, additional: usize) {
        self.store.reserve(additional);
        self.tickets.reserve(additional);
    }

    /// Current allocated payload capacity (the [`EventStore`]'s slot count —
    /// the payload arena is the allocation that matters for both queue
    /// kinds; the heap's ticket buffer tracks it and the ladder sizes
    /// itself from its population).
    pub fn capacity(&self) -> usize {
        self.store.capacity()
    }

    /// Schedules `payload` to fire at `time` and returns the key under which
    /// it can be [`EventQueue::cancel`]led while still pending.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) -> EventKey {
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = self.store.insert(payload);
        self.tickets.push(Ticket::new(time, seq, key));
        key
    }

    /// Schedules a batch of events in iteration order, appending each
    /// event's key to `keys`.  Equivalent to calling [`EventQueue::push`]
    /// per item — the batch occupies consecutive sequence numbers, so FIFO
    /// ties respect iteration order — but payload-store capacity is
    /// reserved up front from the iterator's size hint.  This is the
    /// scatter-back splice of a sharded simulation: a barrier that brokered
    /// a cross-shard job pushes the job's completion events into each
    /// owning shard's timeline in one call (see the module docs' *Parallel
    /// shards* section).
    pub fn push_batch(
        &mut self,
        events: impl IntoIterator<Item = (SimTime, E)>,
        keys: &mut Vec<EventKey>,
    ) {
        let events = events.into_iter();
        let (lower, _) = events.size_hint();
        self.store.reserve(lower);
        keys.reserve(lower);
        for (time, payload) in events {
            keys.push(self.push(time, payload));
        }
    }

    /// Revokes a pending event, returning its payload.  Returns `None` if
    /// the key is stale — the event already fired, was already cancelled, or
    /// the queue was cleared — making cancel-after-fire races harmless.
    ///
    /// The event's ticket stays in the priority structure as a tombstone
    /// until its firing time comes up; see the module docs for why this
    /// preserves the FIFO ordering contract.
    #[inline]
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        self.store.cancel(key)
    }

    /// True if `key` still refers to a pending event.
    pub fn is_pending(&self, key: EventKey) -> bool {
        self.store.is_live(key)
    }

    /// Removes and returns the earliest pending event, if any.  Tombstones
    /// left by cancellation are discarded (and their slots recycled) on the
    /// way.
    #[inline]
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let store = &mut self.store;
        while let Some(t) = self.tickets.pop(&mut |k| store.reap(k)) {
            if let Some(payload) = store.resolve(t.key) {
                return Some(Scheduled {
                    time: t.time(),
                    payload,
                });
            }
        }
        None
    }

    /// Firing time of the earliest pending event, if any.  Tombstoned
    /// tickets encountered at the front are discarded eagerly, so the
    /// returned time always belongs to an event `pop` would deliver.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let store = &mut self.store;
        while let Some(t) = self.tickets.peek(&mut |k| store.reap(k)) {
            if store.is_live(t.key) {
                return Some(t.time());
            }
            let t = self
                .tickets
                .pop(&mut |k| store.reap(k))
                .expect("peek found a ticket");
            let cancelled = store.resolve(t.key);
            debug_assert!(cancelled.is_none(), "live ticket discarded by peek");
        }
        None
    }

    /// Number of pending events (cancelled events no longer count, even
    /// while their tombstoned tickets await collection).
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Number of pending (live) events — an explicit-name alias of
    /// [`EventQueue::len`] for callers contrasting it with
    /// [`EventQueue::queued_len`].
    pub fn live_len(&self) -> usize {
        self.store.len()
    }

    /// Number of tickets currently queued, *including* tombstones from
    /// cancelled events that have not been collected yet (at their firing
    /// time, or earlier when a ladder bucket transfer compacts them).
    /// `queued_len() - live_len()` is the dead weight a
    /// cancel-heavy workload is currently carrying.
    pub fn queued_len(&self) -> usize {
        self.tickets.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Eagerly compacts tombstones: every ticket whose event was cancelled
    /// is dropped from the priority structure and its payload slot
    /// recycled, without waiting for the ticket's nominal firing time (or
    /// the next bucket transfer).  Returns the number of dead tickets
    /// collected.
    ///
    /// Compaction is outcome-invariant — dropping a dead ticket can never
    /// reorder the surviving events (see the module docs on cancellation) —
    /// so a driver may call this on any cadence.  Long cancellation-heavy
    /// traces call it when `queued_len() - live_len()` exceeds a documented
    /// threshold, bounding the dead weight the structure carries.  Cost is
    /// O(queued): the heap re-heapifies, the ladder retains each tier.
    pub fn reap(&mut self) -> usize {
        let before = self.tickets.len();
        let store = &mut self.store;
        self.tickets.compact(&mut |k| store.reap(k));
        before - self.tickets.len()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.tickets.clear();
        self.store.clear();
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngutil::seeded;
    use crate::time::SimDuration;
    use rand::Rng;

    const KINDS: [QueueKind; 2] = [QueueKind::BinaryHeap, QueueKind::Ladder];

    #[test]
    fn pops_in_time_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            q.push(SimTime::from_millis(30), "c");
            q.push(SimTime::from_millis(10), "a");
            q.push(SimTime::from_millis(20), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{kind:?}");
        }
    }

    #[test]
    fn ties_are_fifo() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_secs(1);
            for i in 0..100 {
                q.push(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{kind:?}");
        }
    }

    #[test]
    fn ties_are_fifo_across_transfers_and_interleaving() {
        // Regression test for the FIFO contract (see module docs): pushes at
        // a handful of distinct instants interleaved with pops, in volumes
        // that force the ladder through several rung spawns and collapses,
        // must still drain each instant's events in push order.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let mut next_id = 0u64;
            let mut drained: Vec<(SimTime, u64)> = Vec::new();
            // Three waves of pushes with partial drains between them.
            for wave in 0..3u64 {
                for i in 0..400u64 {
                    // Few distinct times -> massive tie groups.
                    let t = SimTime::from_millis(wave * 10 + (i % 4));
                    q.push(t, (t, next_id));
                    next_id += 1;
                }
                for _ in 0..300 {
                    drained.push(q.pop().unwrap().payload);
                }
            }
            while let Some(s) = q.pop() {
                drained.push(s.payload);
            }
            assert_eq!(drained.len(), 1200, "{kind:?}");
            // Within each instant, ids must be strictly increasing.
            let mut last_id_at: std::collections::HashMap<SimTime, u64> = Default::default();
            let mut last_time = SimTime::ZERO;
            for (t, id) in drained {
                assert!(t >= last_time, "{kind:?}: time went backwards");
                last_time = t;
                if let Some(&prev) = last_id_at.get(&t) {
                    assert!(prev < id, "{kind:?}: FIFO violated at {t}");
                }
                last_id_at.insert(t, id);
            }
        }
    }

    #[test]
    fn peek_and_len() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_secs(5), ());
            q.push(SimTime::from_secs(2), ());
            assert_eq!(q.len(), 2);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.scheduled_count(), 2);
        }
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let base = SimTime::ZERO;
            q.push(base + SimDuration::from_millis(5), 5);
            q.push(base + SimDuration::from_millis(1), 1);
            assert_eq!(q.pop().unwrap().payload, 1);
            q.push(base + SimDuration::from_millis(3), 3);
            q.push(base + SimDuration::from_millis(4), 4);
            assert_eq!(q.pop().unwrap().payload, 3);
            assert_eq!(q.pop().unwrap().payload, 4);
            assert_eq!(q.pop().unwrap().payload, 5);
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn reserve_grows_capacity_without_losing_events() {
        let mut q = EventQueue::with_capacity(2);
        q.push(SimTime::from_secs(2), "b");
        q.push(SimTime::from_secs(1), "a");
        assert!(q.capacity() >= 2);
        q.reserve(50);
        assert!(q.capacity() >= 52);
        assert_eq!(q.pop().unwrap().payload, "a");
        assert_eq!(q.pop().unwrap().payload, "b");
    }

    #[test]
    fn scheduled_struct_reports_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(42), "x");
        let s = q.pop().unwrap();
        assert_eq!(s.time, SimTime::from_micros(42));
        assert_eq!(s.payload, "x");
    }

    #[test]
    fn store_recycles_slots() {
        let mut store = EventStore::with_capacity(4);
        let a = store.insert("a");
        let b = store.insert("b");
        assert_eq!(store.len(), 2);
        assert_eq!(store.take(a), "a");
        let c = store.insert("c");
        // The freed slot is reused: no growth past the high-water mark.
        assert_eq!(c.index(), a.index());
        assert_eq!(store.take(b), "b");
        assert_eq!(store.take(c), "c");
        assert!(store.is_empty());
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn store_take_twice_panics() {
        let mut store = EventStore::new();
        let k = store.insert(7);
        store.take(k);
        store.take(k);
    }

    #[test]
    fn reserve_guarantees_capacity_for_a_full_burst() {
        // Regression: reserve must not double-count the Vec's length-beyond-
        // live slack — a burst of `additional` inserts after reserve may not
        // reallocate, even when no slots are vacant.
        let mut store = EventStore::with_capacity(4);
        let keys: Vec<_> = (0..4).map(|i| store.insert(i)).collect();
        store.take(keys[0]);
        store.take(keys[1]);
        let _ = store.insert(100); // refill one vacant slot: 3 live, 1 vacant
        store.reserve(300);
        let cap = store.capacity();
        for i in 0..300 {
            store.insert(i);
        }
        assert_eq!(
            store.capacity(),
            cap,
            "burst inserts reallocated after reserve"
        );
        assert_eq!(store.len(), 303);
    }

    #[test]
    fn queue_high_water_mark_is_stable() {
        let mut q: EventQueue<u64> = EventQueue::with_capacity(64);
        for round in 0..10u64 {
            for i in 0..64 {
                q.push(SimTime::from_millis(round * 100 + i), i);
            }
            while q.pop().is_some() {}
        }
        // Ten rounds of 64 events never grow the store past its capacity.
        assert_eq!(q.capacity(), 64);
        assert_eq!(q.scheduled_count(), 640);
    }

    #[test]
    fn cancel_before_fire_removes_the_event() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let _a = q.push(SimTime::from_millis(1), "a");
            let b = q.push(SimTime::from_millis(2), "b");
            let _c = q.push(SimTime::from_millis(3), "c");
            assert!(q.is_pending(b));
            assert_eq!(q.cancel(b), Some("b"), "{kind:?}");
            assert!(!q.is_pending(b));
            assert_eq!(q.len(), 2, "{kind:?}");
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
            assert_eq!(order, vec!["a", "c"], "{kind:?}");
        }
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let a = q.push(SimTime::from_millis(1), "a");
            assert_eq!(q.pop().unwrap().payload, "a");
            // The key is stale: cancelling it must return None and leave the
            // queue untouched.
            assert_eq!(q.cancel(a), None, "{kind:?}");
            assert!(q.is_empty());
            // Double cancel is equally harmless.
            let b = q.push(SimTime::from_millis(2), "b");
            assert_eq!(q.cancel(b), Some("b"));
            assert_eq!(q.cancel(b), None, "{kind:?}");
            assert!(q.pop().is_none(), "{kind:?}");
        }
    }

    #[test]
    fn cancelled_key_cannot_revoke_a_recycled_slot() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let a = q.push(SimTime::from_millis(1), "a");
            assert_eq!(q.pop().unwrap().payload, "a");
            // The new event recycles a's slot (same index, new generation).
            let b = q.push(SimTime::from_millis(2), "b");
            assert_eq!(b.index(), a.index());
            assert_ne!(b.generation(), a.generation());
            // Cancelling the stale key must not revoke b.
            assert_eq!(q.cancel(a), None, "{kind:?}");
            assert_eq!(q.pop().unwrap().payload, "b", "{kind:?}");
        }
    }

    #[test]
    fn cancel_preserves_fifo_around_tombstones() {
        // The FIFO contract (module docs): cancelling an event must not
        // reorder the survivors of its tie group, even across interleaved
        // pushes, pops, and ladder bucket transfers.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_secs(1);
            let keys: Vec<_> = (0..200usize).map(|i| q.push(t, i)).collect();
            // Tombstone every third event, including the very first.
            for (i, &k) in keys.iter().enumerate() {
                if i % 3 == 0 {
                    assert_eq!(q.cancel(k), Some(i));
                }
            }
            // Interleave a later tie group before draining.
            let t2 = SimTime::from_secs(2);
            let late_keys: Vec<_> = (200..260usize).map(|i| q.push(t2, i)).collect();
            assert_eq!(q.cancel(late_keys[0]), Some(200));
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
            let expected: Vec<usize> = (0..200).filter(|i| i % 3 != 0).chain(201..260).collect();
            assert_eq!(order, expected, "{kind:?}");
        }
    }

    #[test]
    fn peek_time_skips_tombstones() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let a = q.push(SimTime::from_millis(1), "a");
            q.push(SimTime::from_millis(5), "b");
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
            q.cancel(a);
            // peek must report b's time, not the tombstone's.
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)), "{kind:?}");
            assert_eq!(q.pop().unwrap().payload, "b");
            assert_eq!(q.peek_time(), None);
        }
    }

    #[test]
    fn default_kind_is_binary_heap() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.kind(), QueueKind::BinaryHeap);
        let l: EventQueue<()> = EventQueue::with_capacity_and_kind(10, QueueKind::Ladder);
        assert_eq!(l.kind(), QueueKind::Ladder);
    }

    #[test]
    fn ladder_rung_spawn_preserves_fifo_across_a_dense_tie_cluster() {
        // A dense cluster (far larger than the bottom-tier threshold) with
        // massive tie groups, pushed on top of a sparse tail: consuming the
        // cluster forces rung spawns (the cluster bucket is overcrowded) and
        // rung collapses (each refined rung drains), and the tie groups must
        // still drain in push order through every transfer.
        let mut q = EventQueue::with_kind(QueueKind::Ladder);
        // Sparse tail first, so the cluster lands mid-structure.
        for h in [5u64, 9, 2, 7] {
            q.push(SimTime::from_secs(h * 3600), (h * 3600 * 1000, u64::MAX));
        }
        let mut id = 0u64;
        for ms in 0..40u64 {
            for _ in 0..50 {
                // 40 instants × 50-way ties = 2000 events inside one second.
                q.push(SimTime::from_millis(3_600_000 + ms), (3_600_000 + ms, id));
                id += 1;
            }
        }
        assert_eq!(q.len(), 2004);
        let mut last = (0u64, 0u64);
        let mut popped = 0;
        while let Some(s) = q.pop() {
            let (ms, id) = s.payload;
            assert_eq!(s.time.as_nanos() / 1_000_000, ms, "payload matches time");
            assert!(
                (ms, id) > last || popped == 0,
                "order violated: {last:?} then ({ms}, {id})"
            );
            last = (ms, id);
            popped += 1;
        }
        assert_eq!(popped, 2004);
    }

    #[test]
    fn ladder_refined_rung_does_not_capture_its_overhang() {
        // Regression: a refined rung's bucket coverage is rounded up past
        // the source bucket's interval.  A push landing in that overhang
        // belongs to the *outer* rung's next bucket — routing it into the
        // refined rung delivered it ahead of earlier events still queued in
        // the outer rung (time going backwards).
        let mut q = EventQueue::with_kind(QueueKind::Ladder);
        // Dense cluster (> bottom threshold) forcing a refinement of the
        // first bucket, one event just past that bucket, one far away.
        for t in 1000..1040u64 {
            q.push(SimTime::from_nanos(t), t);
        }
        q.push(SimTime::from_nanos(3358), 3358);
        q.push(SimTime::from_nanos(100_000), 100_000);
        // First pop spawns rung 0 (bucket width 2358 over [1000, 100001))
        // and refines the crowded first bucket; its rounded-up coverage
        // overhangs [1000, 3358) slightly.
        assert_eq!(q.pop().unwrap().payload, 1000);
        // A push into the overhang must go to the outer rung, not ahead of
        // the 3358 event.
        q.push(SimTime::from_nanos(3359), 3359);
        let mut last = 0u64;
        while let Some(s) = q.pop() {
            assert!(
                s.payload >= last,
                "time went backwards: {} after {last}",
                s.payload
            );
            last = s.payload;
        }
        assert_eq!(last, 100_000);
    }

    #[test]
    fn ladder_handles_rewinds_below_the_consumed_region() {
        // After draining into the bottom tier, pushes earlier than the
        // innermost rung's consumption point must land in the bottom tier
        // (never a consumed bucket) and pop in order.
        let mut q = EventQueue::with_kind(QueueKind::Ladder);
        for i in 0..200u64 {
            q.push(SimTime::from_millis(1000 + i * 10), i);
        }
        assert_eq!(q.pop().unwrap().payload, 0);
        // Earlier than everything still pending, later than the last pop.
        q.push(SimTime::from_millis(1005), 777);
        assert_eq!(q.pop().unwrap().payload, 777);
        assert_eq!(q.pop().unwrap().payload, 1);
        let drained = std::iter::from_fn(|| q.pop()).count();
        assert_eq!(drained, 198);
    }

    #[test]
    fn live_len_and_queued_len_track_tombstones() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let keys: Vec<_> = (0..100u64)
                .map(|i| q.push(SimTime::from_millis(10 + i), i))
                .collect();
            for k in &keys[..40] {
                q.cancel(*k);
            }
            assert_eq!(q.live_len(), 60, "{kind:?}");
            assert_eq!(
                q.queued_len(),
                100,
                "{kind:?}: tombstoned tickets stay queued until collected"
            );
            // Popping one live event collects the 40 leading tombstones on
            // the way (they fire earlier).
            assert_eq!(q.pop().unwrap().payload, 40, "{kind:?}");
            assert_eq!(q.live_len(), 59, "{kind:?}");
            assert_eq!(q.queued_len(), 59, "{kind:?}");
        }
    }

    #[test]
    fn push_batch_preserves_fifo_and_returns_cancelable_keys() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let t = SimTime::from_secs(1);
            let mut keys = Vec::new();
            q.push_batch((0..50u64).map(|i| (t, i)), &mut keys);
            assert_eq!(keys.len(), 50, "{kind:?}");
            assert_eq!(q.cancel(keys[10]), Some(10), "{kind:?}");
            // The batch occupies consecutive sequence numbers: survivors of
            // the tie group drain in batch order.
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
            let expected: Vec<u64> = (0..50).filter(|&i| i != 10).collect();
            assert_eq!(order, expected, "{kind:?}");
        }
    }

    #[test]
    fn reap_collects_tombstones_eagerly_on_every_kind() {
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let keys: Vec<_> = (0..200u64)
                .map(|i| q.push(SimTime::from_millis(10 + i), i))
                .collect();
            for k in keys.iter().step_by(2) {
                q.cancel(*k);
            }
            assert_eq!(q.live_len(), 100, "{kind:?}");
            let dead = q.queued_len() - q.live_len();
            assert_eq!(q.reap(), dead, "{kind:?}");
            assert_eq!(q.queued_len(), 100, "{kind:?}");
            assert_eq!(q.live_len(), 100, "{kind:?}");
            // Reaping again finds nothing; survivors drain in push order.
            assert_eq!(q.reap(), 0, "{kind:?}");
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
            let expected: Vec<u64> = (0..200).filter(|i| i % 2 == 1).collect();
            assert_eq!(order, expected, "{kind:?}");
        }
    }

    #[test]
    fn reap_mid_drain_preserves_order_on_every_kind() {
        // Reap while the structure is mid-consumption (the ladder has live
        // rungs and a partially fired bottom chunk): compaction must stay
        // outcome-invariant.
        for kind in KINDS {
            let mut q = EventQueue::with_kind(kind);
            let keys: Vec<_> = (0..500u64)
                .map(|i| q.push(SimTime::from_millis(i / 5), i))
                .collect();
            for expect in 0..100u64 {
                assert_eq!(q.pop().unwrap().payload, expect, "{kind:?}");
            }
            for k in keys[100..].iter().step_by(3) {
                q.cancel(*k);
            }
            let dead = q.queued_len() - q.live_len();
            assert!(dead > 0);
            assert_eq!(q.reap(), dead, "{kind:?}");
            assert_eq!(q.queued_len(), q.live_len(), "{kind:?}");
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
            let expected: Vec<u64> = (100..500).filter(|i| (i - 100) % 3 != 0).collect();
            assert_eq!(order, expected, "{kind:?}");
        }
    }

    #[test]
    fn bucket_transfers_compact_tombstones_before_firing_time() {
        // Consuming the first cluster transfers its bucket, which must shed
        // the cancelled majority without waiting for their times.
        let mut lad = EventQueue::with_kind(QueueKind::Ladder);
        let doomed: Vec<_> = (0..500u64)
            .map(|i| lad.push(SimTime::from_millis(1000 + i), i))
            .collect();
        for k in doomed.iter().skip(1) {
            lad.cancel(*k);
        }
        lad.push(SimTime::from_secs(3600), 999);
        assert_eq!(lad.queued_len(), 501);
        // The first pop spawns from top and transfers buckets: the dead
        // tickets compact away, leaving only the survivor and the tail.
        assert_eq!(lad.pop().unwrap().payload, 0);
        assert_eq!(lad.live_len(), 1);
        assert!(
            lad.queued_len() <= 2,
            "ladder transfer carried {} tombstones",
            lad.queued_len() - lad.live_len()
        );
    }

    #[test]
    fn ladder_agrees_with_heap_on_random_workloads_with_cancellation() {
        for trial in 0..4u64 {
            let mut rng = seeded(0x1ADDE2 + trial);
            let mut heap = EventQueue::with_kind(QueueKind::BinaryHeap);
            let mut lad = EventQueue::with_kind(QueueKind::Ladder);
            let mut pending: Vec<(EventKey, EventKey)> = Vec::new();
            let mut floor = 0u64;
            for op in 0..3_000u32 {
                let roll = rng.gen_range(0u32..100);
                if roll < 55 || heap.is_empty() {
                    // Heavily skewed times: most clustered tight, some far.
                    let t = floor
                        + match rng.gen_range(0u32..4) {
                            0..=2 => rng.gen_range(0u64..100_000),
                            _ => rng.gen_range(0u64..50_000_000_000),
                        };
                    let hk = heap.push(SimTime::from_nanos(t), op);
                    let lk = lad.push(SimTime::from_nanos(t), op);
                    pending.push((hk, lk));
                } else if roll < 75 && !pending.is_empty() {
                    let idx = rng.gen_range(0..pending.len());
                    let (hk, lk) = pending.swap_remove(idx);
                    assert_eq!(heap.cancel(hk), lad.cancel(lk), "trial {trial}");
                } else {
                    let a = heap.pop();
                    let b = lad.pop();
                    assert_eq!(
                        a.as_ref().map(|s| (s.time, s.payload)),
                        b.as_ref().map(|s| (s.time, s.payload)),
                        "trial {trial}"
                    );
                    if let Some(s) = a {
                        floor = s.time.as_nanos();
                    }
                }
                assert_eq!(heap.len(), lad.len(), "trial {trial}");
            }
            while let Some(a) = heap.pop() {
                let b = lad.pop().expect("ladder drained early");
                assert_eq!((a.time, a.payload), (b.time, b.payload), "trial {trial}");
            }
            assert!(lad.pop().is_none());
        }
    }
}
