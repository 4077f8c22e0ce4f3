//! Time-ordered event storage and the event queue, with FIFO tie-breaking.
//!
//! Two pieces live here:
//!
//! * [`EventStore`] — a slab/arena for event payloads.  Payloads are stored
//!   once and addressed by a compact [`EventKey`]; freed slots are recycled,
//!   so a steady-state simulation performs no per-event `Vec` growth and the
//!   binary heap below shuffles 24-byte tickets instead of payloads.
//! * [`EventQueue`] — the time-ordered queue built on top of the store: a
//!   `std::collections::BinaryHeap` of tickets, O(log n) push and pop.  The
//!   overlay keeps its pending population small (running jobs'
//!   completions, the periodic behaviours, the timeouts of dead peers and
//!   slow links), where a heap's small constants win.
//!
//! The queue is generic over the payload type; the overlay crate's typed
//! event loop ([`crate::engine::TypedEngine`]) is built on it.
//!
//! # Ordering contract (FIFO tie-break)
//!
//! Events scheduled for the same virtual instant are delivered **in the
//! order they were scheduled**.  Every push is stamped with a monotonically
//! increasing sequence number and the heap orders by `(time, seq)`.
//! Simulations rely on this for determinism — e.g. an "arrival" and the
//! "probe" it schedules at the same instant must always fire in that order
//! — and `ties_are_fifo*` pins the contract; `tests/queue_equivalence_prop.rs`
//! checks it against a sorted-`Vec` reference under random pushes, pops,
//! cancellations and reaps.
//!
//! # Cancellation and its interaction with FIFO ordering
//!
//! [`EventQueue::push`] returns the payload's [`EventKey`];
//! [`EventQueue::cancel`] revokes a pending event by that key and hands the
//! payload back.  Cancellation never touches the heap: the payload slot is
//! turned into a **tombstone** and the 24-byte ticket stays queued until it
//! is collected — at its firing time, when the pop loop discards it and
//! recycles the slot, or earlier by [`EventQueue::reap`].  Because no ticket
//! is ever re-inserted out of band, the `(time, seq)` order of the
//! *surviving* events — including FIFO among equal instants — is exactly
//! the order they were originally pushed in; cancelling an event can never
//! reorder its neighbours (`cancel_preserves_fifo_around_tombstones` pins
//! this).
//!
//! Keys are generation-stamped: once an event has fired or been cancelled,
//! its key is stale, and cancelling a stale key is a harmless no-op that
//! returns `None` — even if the underlying slot has since been recycled for
//! a newer event.  This is what makes "cancel the timeout when the reply
//! arrives" races safe to express: the late cancel of an already-fired
//! timeout cannot revoke an unrelated event.
//!
//! [`EventQueue::reap`] collects every tombstoned ticket eagerly (and
//! recycles its slot) without waiting for firing times, so a caller can
//! bound `queued_len() - live_len()` on whatever cadence it likes; dropping
//! a dead ticket cannot reorder the survivors.
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
//!   schedules.  Cross-shard completions are scattered back at the
//!   barrier with ordinary pushes, in deterministic (shard-index, job)
//!   order, so they too occupy reproducible sequence numbers.

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
    /// Cancelled: the payload is gone but a ticket in the queue's heap
    /// still points here, so the slot cannot be recycled until
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
/// tombstone for the heap's ticket to collect later); slots
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
    /// becomes a tombstone that the heap's ticket collects on
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
    /// This is [`EventQueue::reap`]'s compaction hook: the queue drops a
    /// ticket when the event behind it is already cancelled, instead of
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

    /// True if `key` still refers to a pending (not fired, not cancelled)
    /// payload.
    #[inline]
    fn is_live(&self, key: EventKey) -> bool {
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
// Tickets and the heap
// ---------------------------------------------------------------------------

/// The priority structure behind an [`EventQueue`].  There is one, the
/// binary heap; the type survives only as the value the benchmark passes
/// to [`EventQueue::with_capacity_and_kind`] and the grid5000 testbed
/// builder, and nothing branches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// `std::collections::BinaryHeap` of tickets.
    #[default]
    BinaryHeap,
}

/// A queue ticket: when to fire, FIFO tie-break, and where the payload lives.
///
/// The firing time and sequence number are pre-packed into one `u128`
/// (`time << 64 | seq`) at push time, so the comparison every heap sift
/// performs is a single wide-integer compare instead of a two-field
/// lexicographic one, and the ticket stays 24 bytes.
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
            packed: pack(time, seq),
            key,
        }
    }

    /// The firing time, recovered from the high 64 bits.
    #[inline]
    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.packed >> 64) as u64)
    }
}

/// `(time_ns << 64) | seq`: the queue's total order as one integer.
#[inline]
fn pack(time: SimTime, seq: u64) -> u128 {
    ((time.as_nanos() as u128) << 64) | seq as u128
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
        // instruction of the engine's churn loop.
        other.0.packed.cmp(&self.0.packed)
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
/// Payloads live in an [`EventStore`] arena; a binary heap orders compact
/// tickets.  See the module docs for the FIFO ordering contract.
pub struct EventQueue<E> {
    store: EventStore<E>,
    tickets: BinaryHeap<HeapTicket>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            store: EventStore::with_capacity(cap),
            tickets: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// [`EventQueue::with_capacity`]; the kind is ignored (there is one).
    /// Kept for the benchmark's queue probes, which pass the sweep config's
    /// [`QueueKind`] through.
    pub fn with_capacity_and_kind(cap: usize, _kind: QueueKind) -> Self {
        Self::with_capacity(cap)
    }

    /// Reserves capacity for at least `additional` more events, so bursts of
    /// scheduling (e.g. a job sweep enqueueing its whole arrival process)
    /// do not regrow the structures incrementally.
    pub fn reserve(&mut self, additional: usize) {
        self.store.reserve(additional);
        self.tickets.reserve(additional);
    }

    /// Current allocated payload capacity (the [`EventStore`]'s slot count —
    /// the payload arena is the allocation that matters; the heap's ticket
    /// buffer tracks it).
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
        self.tickets.push(HeapTicket(Ticket::new(time, seq, key)));
        key
    }

    /// Revokes a pending event, returning its payload.  Returns `None` if
    /// the key is stale — the event already fired, was already cancelled, or
    /// the queue was cleared — making cancel-after-fire races harmless.
    ///
    /// The event's ticket stays in the heap as a tombstone until its firing
    /// time comes up or [`EventQueue::reap`] collects it; see the module
    /// docs for why this preserves the FIFO ordering contract.
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
        self.pop_before(SimTime::MAX, u64::MAX)
    }

    /// Takes the sequence number the next push would get, for an owner
    /// ordering a message of its own against the queue without pushing it.
    pub fn stamp(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Pops the earliest pending event only if it precedes `(time, stamp)`
    /// in the queue's `(time, seq)` order; tombstones before that bound are
    /// collected on the way, none after it.
    #[inline]
    pub fn pop_before(&mut self, time: SimTime, stamp: u64) -> Option<Scheduled<E>> {
        let bound = pack(time, stamp);
        while self.tickets.peek()?.0.packed < bound {
            let HeapTicket(t) = self.tickets.pop()?;
            if let Some(payload) = self.store.resolve(t.key) {
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
        while let Some(&HeapTicket(t)) = self.tickets.peek() {
            if self.store.is_live(t.key) {
                return Some(t.time());
            }
            self.tickets.pop();
            let cancelled = self.store.resolve(t.key);
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
    /// time, or by [`EventQueue::reap`]).  `queued_len() - live_len()` is
    /// the dead weight a cancel-heavy workload is currently carrying.
    pub fn queued_len(&self) -> usize {
        self.tickets.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Eagerly compacts tombstones: every ticket whose event was cancelled
    /// is dropped from the heap and its payload slot recycled, without
    /// waiting for the ticket's nominal firing time.  Returns the number of
    /// dead tickets collected.
    ///
    /// Compaction is outcome-invariant — pop order is a total order on the
    /// packed `(time, seq)` key, so re-heapifying the survivors cannot
    /// perturb delivery — so a caller may call this on any cadence.  Cost
    /// is O(queued), reusing the heap's buffer.
    pub fn reap(&mut self) -> usize {
        let before = self.tickets.len();
        let mut tickets = std::mem::take(&mut self.tickets).into_vec();
        tickets.retain(|t| !self.store.reap(t.0.key));
        self.tickets = BinaryHeap::from(tickets);
        before - self.tickets.len()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.tickets.clear();
        self.store.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_are_fifo_across_transfers_and_interleaving() {
        // Regression test for the FIFO contract (see module docs): pushes at
        // a handful of distinct instants interleaved with pops, in volumes
        // that reshape the heap many times over, must still drain each
        // instant's events in push order.
        let mut q = EventQueue::new();
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
        assert_eq!(drained.len(), 1200);
        // Within each instant, ids must be strictly increasing.
        let mut last_id_at: std::collections::HashMap<SimTime, u64> = Default::default();
        let mut last_time = SimTime::ZERO;
        for (t, id) in drained {
            assert!(t >= last_time, "time went backwards");
            last_time = t;
            if let Some(&prev) = last_id_at.get(&t) {
                assert!(prev < id, "FIFO violated at {t}");
            }
            last_id_at.insert(t, id);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(5), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.next_seq, 2);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
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
        assert_eq!(q.next_seq, 640);
    }

    #[test]
    fn cancel_before_fire_removes_the_event() {
        let mut q = EventQueue::new();
        let _a = q.push(SimTime::from_millis(1), "a");
        let b = q.push(SimTime::from_millis(2), "b");
        let _c = q.push(SimTime::from_millis(3), "c");
        assert!(q.is_pending(b));
        assert_eq!(q.cancel(b), Some("b"));
        assert!(!q.is_pending(b));
        assert_eq!(q.len(), 2);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        assert_eq!(order, vec!["a", "c"]);
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_millis(1), "a");
        assert_eq!(q.pop().unwrap().payload, "a");
        // The key is stale: cancelling it must return None and leave the
        // queue untouched.
        assert_eq!(q.cancel(a), None);
        assert!(q.is_empty());
        // Double cancel is equally harmless.
        let b = q.push(SimTime::from_millis(2), "b");
        assert_eq!(q.cancel(b), Some("b"));
        assert_eq!(q.cancel(b), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_key_cannot_revoke_a_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_millis(1), "a");
        assert_eq!(q.pop().unwrap().payload, "a");
        // The new event recycles a's slot (same index, new generation).
        let b = q.push(SimTime::from_millis(2), "b");
        assert_eq!(b.index(), a.index());
        assert_ne!(b.generation(), a.generation());
        // Cancelling the stale key must not revoke b.
        assert_eq!(q.cancel(a), None);
        assert_eq!(q.pop().unwrap().payload, "b");
    }

    #[test]
    fn cancel_preserves_fifo_around_tombstones() {
        // The FIFO contract (module docs): cancelling an event must not
        // reorder the survivors of its tie group, even across interleaved
        // pushes and pops.
        let mut q = EventQueue::new();
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
        assert_eq!(order, expected);
    }

    #[test]
    fn peek_time_skips_tombstones() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_millis(1), "a");
        q.push(SimTime::from_millis(5), "b");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        q.cancel(a);
        // peek must report b's time, not the tombstone's.
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        assert_eq!(q.pop().unwrap().payload, "b");
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn live_len_and_queued_len_track_tombstones() {
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..100u64)
            .map(|i| q.push(SimTime::from_millis(10 + i), i))
            .collect();
        for k in &keys[..40] {
            q.cancel(*k);
        }
        assert_eq!(q.live_len(), 60);
        assert_eq!(
            q.queued_len(),
            100,
            "tombstoned tickets stay queued until collected"
        );
        // Popping one live event collects the 40 leading tombstones on the
        // way (they fire earlier).
        assert_eq!(q.pop().unwrap().payload, 40);
        assert_eq!(q.live_len(), 59);
        assert_eq!(q.queued_len(), 59);
    }

    #[test]
    fn reap_collects_tombstones_eagerly_on_every_kind() {
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..200u64)
            .map(|i| q.push(SimTime::from_millis(10 + i), i))
            .collect();
        for k in keys.iter().step_by(2) {
            q.cancel(*k);
        }
        assert_eq!(q.live_len(), 100);
        let dead = q.queued_len() - q.live_len();
        assert_eq!(q.reap(), dead);
        assert_eq!(q.queued_len(), 100);
        assert_eq!(q.live_len(), 100);
        // Reaping again finds nothing; survivors drain in push order.
        assert_eq!(q.reap(), 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        let expected: Vec<u64> = (0..200).filter(|i| i % 2 == 1).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn reap_mid_drain_preserves_order_on_every_kind() {
        // Reap while the queue is mid-consumption: compaction must stay
        // outcome-invariant, tie groups included.
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..500u64)
            .map(|i| q.push(SimTime::from_millis(i / 5), i))
            .collect();
        for expect in 0..100u64 {
            assert_eq!(q.pop().unwrap().payload, expect);
        }
        for k in keys[100..].iter().step_by(3) {
            q.cancel(*k);
        }
        let dead = q.queued_len() - q.live_len();
        assert!(dead > 0);
        assert_eq!(q.reap(), dead);
        assert_eq!(q.queued_len(), q.live_len());
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        let expected: Vec<u64> = (100..500).filter(|i| (i - 100) % 3 != 0).collect();
        assert_eq!(order, expected);
    }
}
