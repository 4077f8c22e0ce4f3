//! The event queue: a time-ordered min-queue of payloads, FIFO among
//! equal instants.
//!
//! [`EventQueue`] keeps each payload in a slot of its own and orders
//! compact tickets in a `std::collections::BinaryHeap`, O(log n) push and
//! pop.  The overlay keeps its pending population small (running jobs'
//! completions, the periodic behaviours, the timeouts of dead peers and
//! slow links), where a heap's small constants win.  A slot is reused once
//! its ticket has left the heap, so a steady-state simulation reaches a
//! high-water mark once and then allocates nothing further.  The overlay
//! crate's typed event loop ([`crate::engine::TypedEngine`]) is built on it.
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
//! cancellations and reaps.  A push under an earlier stamp
//! ([`EventQueue::push_stamped`]) sorts as a push at that moment would.
//!
//! # Cancellation
//!
//! [`EventQueue::push`] returns the event's [`EventKey`]: its slot and its
//! sequence number, which no other event ever takes.  An event is pending
//! while its slot holds its own sequence number.  [`EventQueue::cancel`]
//! empties the slot and hands the payload back; the ticket stays queued as
//! a **tombstone** until the pop loop discards it at its firing time or
//! [`EventQueue::reap`] collects it early, and only then is the slot free.
//! No ticket is ever re-inserted out of band, so the survivors keep their
//! `(time, seq)` order, FIFO ties included
//! (`cancel_preserves_fifo_around_tombstones`).  Cancelling a key whose
//! event already fired or was cancelled returns `None`, even after its slot
//! was reused, since the newer event's sequence number differs: the late
//! cancel of an already-fired timeout cannot revoke an unrelated event.
//!
//! # Parallel shards
//!
//! A conservatively synchronised parallel simulation (see `bench::shard`)
//! runs one queue per shard on separate threads between barriers.  Once a
//! timeline has drained everything due at or before its barrier time,
//! [`EventQueue::peek_time`] is a *lower bound* on when the shard's state
//! can next change (new work enters only from its own handlers), so a
//! coordinator sees at the barrier exactly what a sequential execution
//! would.  Sequence numbers are per queue, so each shard's FIFO ties follow
//! the order *that shard* scheduled its events, independent of thread
//! interleaving; cross-shard completions are pushed back at the barrier in
//! deterministic (shard-index, job) order.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a pushed event: the payload slot it occupies and the sequence
/// number its push took.
///
/// The key is live until the event fires or is cancelled.  Stale keys are
/// harmless: a reused slot holds another sequence number, so `cancel` with
/// a stale key is a no-op instead of revoking an unrelated newer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    slot: u32,
    seq: u64,
}

/// The priority structure behind an [`EventQueue`]: there is one, the binary
/// heap.  The benchmark and the grid5000 testbed builder still pass it to
/// [`EventQueue::with_capacity_and_kind`]; nothing branches on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// `std::collections::BinaryHeap` of tickets.
    #[default]
    BinaryHeap,
}

/// A queue ticket: when to fire, FIFO tie-break, and where the payload lives.
/// The heap compares the packed `u128` alone, so every sift is one
/// wide-integer compare instead of a two-field lexicographic one.
struct Ticket {
    /// `(time_ns << 64) | seq`: orders by time, FIFO among ties.
    packed: u128,
    slot: u32,
}

impl Ticket {
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

impl PartialEq for Ticket {
    fn eq(&self, other: &Self) -> bool {
        self.packed == other.packed
    }
}
impl Eq for Ticket {}
impl PartialOrd for Ticket {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ticket {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest seq)
        // ticket is popped first.  One u128 compare: this is the hottest
        // instruction of the engine's churn loop.
        other.packed.cmp(&self.packed)
    }
}

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
/// See the module docs for the FIFO ordering contract and cancellation.
pub struct EventQueue<E> {
    /// Payload slots: `(seq, payload)` while that event is pending, `None`
    /// once it is cancelled, fired or the slot is free.
    slots: Vec<Option<(u64, E)>>,
    /// Slots whose ticket has left the heap, reused last-freed first.
    free: Vec<u32>,
    tickets: BinaryHeap<Ticket>,
    /// Pending (not fired, not cancelled) events.
    live: usize,
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
    pub(crate) fn with_capacity(cap: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            tickets: BinaryHeap::with_capacity(cap),
            live: 0,
            next_seq: 0,
        }
    }

    /// `EventQueue::with_capacity`; the kind is ignored (there is one).
    /// Kept for the benchmark's queue probes, which pass the sweep config's
    /// [`QueueKind`] through.
    pub fn with_capacity_and_kind(cap: usize, _kind: QueueKind) -> Self {
        Self::with_capacity(cap)
    }

    /// Allocated payload slots (the heap's ticket buffer and the free stack
    /// track it).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    /// Schedules `payload` to fire at `time` and returns the key under which
    /// it can be [`EventQueue::cancel`]led while still pending.
    #[inline]
    pub fn push(&mut self, time: SimTime, payload: E) -> EventKey {
        let seq = self.stamp();
        self.push_stamped(time, seq, payload)
    }

    /// [`EventQueue::push`] under an earlier, unused [`EventQueue::stamp`].
    #[inline]
    pub fn push_stamped(&mut self, time: SimTime, seq: u64, payload: E) -> EventKey {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some((seq, payload));
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event queue exceeds u32 slots");
                self.slots.push(Some((seq, payload)));
                // Room for every slot to be free at once: freeing a slot
                // never allocates.
                self.free.reserve(self.slots.len() - self.free.len());
                slot
            }
        };
        self.live += 1;
        self.tickets.push(Ticket {
            packed: pack(time, seq),
            slot,
        });
        EventKey { slot, seq }
    }

    /// Revokes a pending event, returning its payload.  Returns `None` if
    /// the key is stale — the event already fired or was already
    /// cancelled — making cancel-after-fire races harmless.
    ///
    /// The event's ticket stays in the heap as a tombstone until its firing
    /// time comes up or [`EventQueue::reap`] collects it; see the module
    /// docs for why this preserves the FIFO ordering contract.
    #[inline]
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        let slot = self.slots.get_mut(key.slot as usize)?;
        if slot.as_ref().map(|&(seq, _)| seq) != Some(key.seq) {
            return None;
        }
        self.live -= 1;
        slot.take().map(|(_, payload)| payload)
    }

    /// Removes and returns the earliest pending event, if any.  Tombstones
    /// left by cancellation are discarded (and their slots freed) on the
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
        while self.tickets.peek()?.packed < bound {
            let t = self.tickets.pop()?;
            self.free.push(t.slot);
            if let Some((_, payload)) = self.slots[t.slot as usize].take() {
                self.live -= 1;
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
        while let Some(t) = self.tickets.peek() {
            if self.slots[t.slot as usize].is_some() {
                return Some(t.time());
            }
            let slot = t.slot;
            self.tickets.pop();
            self.free.push(slot);
        }
        None
    }

    /// Number of pending events (cancelled events no longer count, even
    /// while their tombstoned tickets await collection).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Number of tickets currently queued, *including* tombstones from
    /// cancelled events that have not been collected yet (at their firing
    /// time, or by [`EventQueue::reap`]).  `queued_len() - len()` is the
    /// dead weight a cancel-heavy workload is currently carrying.
    pub fn queued_len(&self) -> usize {
        self.tickets.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Eagerly compacts tombstones: every ticket whose event was cancelled
    /// is dropped from the heap and its slot freed, without waiting for the
    /// ticket's nominal firing time.  Returns the number of dead tickets
    /// collected.
    ///
    /// Compaction is outcome-invariant — pop order is a total order on the
    /// packed `(time, seq)` key, so re-heapifying the survivors cannot
    /// perturb delivery — so a caller may call this on any cadence.  Cost
    /// is O(queued), reusing the heap's buffer.
    pub fn reap(&mut self) -> usize {
        let before = self.tickets.len();
        let mut tickets = std::mem::take(&mut self.tickets).into_vec();
        tickets.retain(|t| {
            let live = self.slots[t.slot as usize].is_some();
            if !live {
                self.free.push(t.slot);
            }
            live
        });
        self.tickets = BinaryHeap::from(tickets);
        before - self.tickets.len()
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
        assert_eq!(q.pop().unwrap().time, SimTime::from_secs(2));
        assert_eq!((q.len(), q.peek_time()), (1, Some(SimTime::from_secs(5))));
        assert_eq!(q.pop().unwrap().time, SimTime::from_secs(5));
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
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
    fn scheduled_struct_reports_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(42), "x");
        let s = q.pop().unwrap();
        assert_eq!(s.time, SimTime::from_micros(42));
        assert_eq!(s.payload, "x");
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
        assert_eq!(q.len(), 3);
        assert_eq!(q.cancel(b), Some("b"));
        assert_eq!(q.len(), 2);
        assert_eq!(q.queued_len(), 3, "the ticket stays queued as a tombstone");
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
        let mut q = EventQueue::with_capacity(2);
        let a = q.push(SimTime::from_millis(1), "a");
        assert_eq!(q.pop().unwrap().payload, "a");
        // The new event reuses a's slot under a sequence number of its own.
        let b = q.push(SimTime::from_millis(2), "b");
        assert_eq!(b.slot, a.slot);
        assert_ne!(b.seq, a.seq);
        // Cancelling the stale key must not revoke b.
        assert_eq!(q.cancel(a), None);
        // A cancelled event's slot stays taken while its tombstone is
        // queued, and is reused once the tombstone is collected.
        assert_eq!(q.cancel(b), Some("b"));
        let c = q.push(SimTime::from_millis(3), "c");
        assert_ne!(c.slot, b.slot);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        let d = q.push(SimTime::from_millis(4), "d");
        assert_eq!(d.slot, b.slot);
        assert_eq!((q.cancel(a), q.cancel(b)), (None, None));
        assert_eq!(q.capacity(), 2, "two slots serve all four events");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        assert_eq!(order, vec!["c", "d"]);
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
        assert_eq!(q.len(), 60);
        assert_eq!(
            q.queued_len(),
            100,
            "tombstoned tickets stay queued until collected"
        );
        // Popping one live event collects the 40 leading tombstones on the
        // way (they fire earlier).
        assert_eq!(q.pop().unwrap().payload, 40);
        assert_eq!(q.len(), 59);
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
        assert_eq!(q.len(), 100);
        let dead = q.queued_len() - q.len();
        assert_eq!(q.reap(), dead);
        assert_eq!(q.queued_len(), 100);
        assert_eq!(q.len(), 100);
        // The reaped tickets' slots are free: refilling them does not grow
        // the slot table.
        let capacity = q.capacity();
        let refill: Vec<_> = (0..100u64)
            .map(|i| q.push(SimTime::from_secs(9), i))
            .collect();
        assert_eq!(q.capacity(), capacity);
        for k in refill {
            q.cancel(k);
        }
        assert_eq!(q.reap(), 100);
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
        let dead = q.queued_len() - q.len();
        assert!(dead > 0);
        assert_eq!(q.reap(), dead);
        assert_eq!(q.queued_len(), q.len());
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.payload)).collect();
        let expected: Vec<u64> = (100..500).filter(|i| (i - 100) % 3 != 0).collect();
        assert_eq!(order, expected);
    }
}
