//! Discrete-event engine over plain data events.
//!
//! [`TypedEngine`] owns a virtual clock and an [`EventQueue`] of payloads
//! (an enum, typically) and leaves dispatch to its owner: the owner pops due
//! events with [`TypedEngine::pop_due`] and handles each with full `&mut`
//! access to its own state, so the engine can be a *field* of the
//! simulation it drives (the overlay crate's simulation runs on this).  It
//! is the substrate on which the overlay's periodic behaviours (alive
//! signals, cache refreshes, latency probes, reservation timeouts) are
//! simulated.
//!
//! [`TypedEngine::schedule_at`] / [`TypedEngine::schedule_in`] return the
//! event's [`EventKey`], which [`TypedEngine::cancel`] accepts to revoke a
//! pending event (cancel-after-fire is a harmless no-op; see `crate::event`
//! for the tombstone mechanics and the FIFO guarantees around them).

use crate::event::{EventKey, EventQueue, Scheduled};
use crate::time::{SimDuration, SimTime};

/// Clock-plus-queue engine over plain data events.
///
/// The owner's driver loop calls [`TypedEngine::pop_due`] until it returns
/// `None`, handles each event with full `&mut` access to its own state, and
/// finishes with [`TypedEngine::advance_clock_to`].
///
/// ```
/// use p2pmpi_simgrid::engine::TypedEngine;
/// use p2pmpi_simgrid::time::SimTime;
///
/// let mut sim: TypedEngine<&str> = TypedEngine::new();
/// sim.schedule_at(SimTime::from_secs(1), "tick");
/// let deadline = SimTime::from_secs(5);
/// while let Some(ev) = sim.pop_due(deadline) {
///     assert_eq!((ev.time, ev.payload), (SimTime::from_secs(1), "tick"));
/// }
/// sim.advance_clock_to(deadline);
/// assert_eq!(sim.now(), deadline);
/// ```
pub struct TypedEngine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
}

impl<E> Default for TypedEngine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TypedEngine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        TypedEngine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of deliveries so far: one per event popped by
    /// [`TypedEngine::pop_due`], plus whatever the owner reported through
    /// [`TypedEngine::count_delivered`].
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Adds `n` deliveries that took no pop of their own to
    /// [`TypedEngine::processed`]: an owner that delivers messages it never
    /// pushed (ordered against the queue by [`TypedEngine::stamp`] and
    /// [`TypedEngine::pop_before`]) counts them here, so the figure counts
    /// messages delivered, queued or not.
    pub fn count_delivered(&mut self, n: u64) {
        self.processed += n;
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of tickets still queued, including tombstones of cancelled
    /// events awaiting collection (see `EventQueue::queued_len`).
    pub fn queued(&self) -> usize {
        self.queue.queued_len()
    }

    /// Payload-slot capacity of the event queue (the high-water mark of
    /// simultaneously pending events).
    pub fn events_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// The timeline's *safe horizon*: once everything due at or before the
    /// owner's barrier time has been drained, this is a lower bound on when
    /// the timeline's state can next change — between barriers new work
    /// only enters from the owner's own event handlers.  `None` means the
    /// timeline is drained dry and cannot change state at all until
    /// something is scheduled from outside.  This is the per-shard report a
    /// conservatively synchronised parallel driver collects at each barrier
    /// (see the `crate::event` module docs' *Parallel shards* section).
    pub fn safe_horizon(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Eagerly compacts cancelled events' tombstoned tickets out of the
    /// queue, recycling their payload slots (see [`EventQueue::reap`]).
    /// Returns how many dead tickets were collected.
    pub fn reap_events(&mut self) -> usize {
        self.queue.reap()
    }

    /// Schedules `event` at absolute time `at`, returning its key for
    /// [`TypedEngine::cancel`].  Scheduling in the past panics.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventKey {
        let stamp = self.stamp();
        self.schedule_stamped(at, stamp, event)
    }

    /// [`TypedEngine::schedule_at`] under an earlier [`TypedEngine::stamp`].
    pub fn schedule_stamped(&mut self, at: SimTime, stamp: u64, event: E) -> EventKey {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past ({at} < {})",
            self.now
        );
        self.queue.push_stamped(at, stamp, event)
    }

    /// Schedules `event` after the given delay, returning its key.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventKey {
        self.schedule_at(self.now + delay, event)
    }

    /// Revokes a pending event, returning its payload; `None` if the key is
    /// stale (already fired or cancelled).
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        self.queue.cancel(key)
    }

    /// Delivers the earliest event due at or before `deadline`, advancing
    /// the clock to its firing time; `None` once nothing (more) is due.
    /// The owner's driver loop is `while let Some(ev) = sim.pop_due(t)`,
    /// followed by [`TypedEngine::advance_clock_to`] so idle time up to the
    /// deadline also passes.
    pub fn pop_due(&mut self, deadline: SimTime) -> Option<Scheduled<E>> {
        match self.queue.peek_time() {
            Some(t) if t <= deadline => {
                let ev = self.queue.pop().expect("peek_time found an event");
                debug_assert!(ev.time >= self.now, "event queue went backwards");
                self.now = ev.time;
                self.processed += 1;
                Some(ev)
            }
            _ => None,
        }
    }

    /// Takes the next FIFO stamp (see [`EventQueue::stamp`]).
    pub fn stamp(&mut self) -> u64 {
        self.queue.stamp()
    }

    /// [`TypedEngine::pop_due`] for the earliest event only if it precedes
    /// `(at, stamp)` (see [`EventQueue::pop_before`]).
    pub fn pop_before(&mut self, at: SimTime, stamp: u64) -> Option<Scheduled<E>> {
        let ev = self.queue.pop_before(at, stamp)?;
        self.now = ev.time;
        self.processed += 1;
        Some(ev)
    }

    /// Raises the clock to `deadline` if it is ahead of `now` (no-op
    /// otherwise).  Call after draining [`TypedEngine::pop_due`] so repeated
    /// bounded runs behave like a wall clock.
    pub fn advance_clock_to(&mut self, deadline: SimTime) {
        if self.now < deadline {
            self.now = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_engine_runs_a_bounded_driver_loop() {
        let mut sim: TypedEngine<u32> = TypedEngine::new();
        for i in 1..=6u32 {
            sim.schedule_at(SimTime::from_secs(i as u64), i);
        }
        let mut seen = Vec::new();
        let deadline = SimTime::from_secs(4);
        while let Some(ev) = sim.pop_due(deadline) {
            assert_eq!(sim.now(), ev.time);
            seen.push(ev.payload);
        }
        sim.advance_clock_to(deadline);
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(sim.now(), deadline);
        assert_eq!(sim.pending(), 2);
        assert_eq!(sim.processed(), 4);
        // Deliveries that took no pop count without moving the clock or
        // the queue.
        sim.count_delivered(3);
        assert_eq!(sim.processed(), 7);
        assert_eq!((sim.now(), sim.pending()), (deadline, 2));
        // A later deadline picks up the rest; idle time passes afterwards.
        while let Some(ev) = sim.pop_due(SimTime::from_secs(60)) {
            seen.push(ev.payload);
        }
        sim.advance_clock_to(SimTime::from_secs(60));
        assert_eq!(seen, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(sim.now(), SimTime::from_secs(60));
    }

    #[test]
    fn typed_engine_cancellation_expresses_rearmed_timeouts() {
        // The heartbeat/timeout idiom the overlay uses: arm a timeout, then
        // cancel and re-arm it when the "reply" arrives earlier.
        let mut sim: TypedEngine<&str> = TypedEngine::new();
        let timeout = sim.schedule_at(SimTime::from_secs(10), "timeout");
        sim.schedule_at(SimTime::from_secs(4), "reply");
        let ev = sim.pop_due(SimTime::MAX).unwrap();
        assert_eq!(ev.payload, "reply");
        assert_eq!(sim.cancel(timeout), Some("timeout"));
        let rearmed = sim.schedule_in(SimDuration::from_secs(10), "timeout");
        let ev = sim.pop_due(SimTime::MAX).unwrap();
        assert_eq!((ev.time, ev.payload), (SimTime::from_secs(14), "timeout"));
        // Both keys are stale now: the cancelled one and the fired one.
        assert_eq!((sim.cancel(timeout), sim.cancel(rearmed)), (None, None));
        assert!(sim.pop_due(SimTime::MAX).is_none());
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn typed_engine_rejects_past_scheduling() {
        let mut sim: TypedEngine<()> = TypedEngine::new();
        sim.schedule_at(SimTime::from_secs(5), ());
        while sim.pop_due(SimTime::from_secs(10)).is_some() {}
        sim.advance_clock_to(SimTime::from_secs(10));
        sim.schedule_at(SimTime::from_secs(7), ());
    }
}
