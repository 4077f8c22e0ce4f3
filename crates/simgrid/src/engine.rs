//! Closure-based discrete-event engine.
//!
//! The engine owns a virtual clock and a queue of closures.  Each closure
//! receives `&mut Engine` when it fires, so it can schedule follow-up events,
//! inspect the clock, or stop the run.  This is the substrate on which the
//! overlay's periodic behaviours (alive signals, cache refreshes, latency
//! probes, reservation timeouts) are simulated.
//!
//! Closure payloads live in the slab-backed [`crate::event::EventStore`]
//! behind the queue, and the priority structure is selectable via
//! [`QueueKind`] ([`Engine::with_queue_kind`]): the default binary heap, a
//! calendar queue for large uniform event populations, or a ladder queue
//! for large *skewed* ones (see `crate::event` for the selection guide).
//! The scheduling API
//! ([`Engine::schedule_at`] / [`Engine::schedule_in`]) is identical for
//! every configuration.  Both scheduling calls return the event's
//! [`EventKey`], which [`Engine::cancel`] accepts to revoke a pending event
//! (cancel-after-fire is a harmless no-op; see `crate::event` for the
//! tombstone mechanics and the FIFO guarantees around them).
//!
//! [`TypedEngine`] is the same clock-plus-queue machinery for simulations
//! whose events are plain data instead of boxed closures: the owner pops
//! due events with [`TypedEngine::pop_due`] and dispatches them itself,
//! which sidesteps the borrow knot of closures that need `&mut` access to
//! state the engine lives inside (the overlay crate's simulation runs on
//! this).

use crate::event::{EventKey, EventQueue, QueueKind, Scheduled};
use crate::time::{SimDuration, SimTime};

/// A schedulable action.
pub type Action = Box<dyn FnOnce(&mut Engine)>;

/// Discrete-event engine with a closure event model.
pub struct Engine {
    now: SimTime,
    queue: EventQueue<Action>,
    processed: u64,
    stopped: bool,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_queue_kind(QueueKind::BinaryHeap)
    }

    /// Creates an engine using the given priority structure for its event
    /// queue (see [`QueueKind`]); the scheduling API is unaffected.
    pub fn with_queue_kind(kind: QueueKind) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_kind(kind),
            processed: 0,
            stopped: false,
        }
    }

    /// Creates an engine whose queue is pre-sized for `capacity` pending
    /// events.  Simulations that know their event volume up front (e.g. a
    /// job sweep scheduling thousands of arrivals) avoid every intermediate
    /// growth of the event store.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_kind(capacity, QueueKind::BinaryHeap)
    }

    /// Creates a pre-sized engine over the given priority structure.
    pub fn with_capacity_and_kind(capacity: usize, kind: QueueKind) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity_and_kind(capacity, kind),
            processed: 0,
            stopped: false,
        }
    }

    /// The priority structure the event queue uses.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// Reserves queue capacity for at least `additional` more events.
    pub fn reserve_events(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Requests the run loop to stop after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// True if [`Engine::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Schedules `action` at absolute time `at`, returning its key for
    /// [`Engine::cancel`].  Scheduling in the past is a logic error and
    /// panics to surface protocol bugs early.
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F) -> EventKey
    where
        F: FnOnce(&mut Engine) + 'static,
    {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past ({} < {})",
            at,
            self.now
        );
        self.queue.push(at, Box::new(action))
    }

    /// Schedules `action` after the given delay, returning its key for
    /// [`Engine::cancel`].
    pub fn schedule_in<F>(&mut self, delay: SimDuration, action: F) -> EventKey
    where
        F: FnOnce(&mut Engine) + 'static,
    {
        let at = self.now + delay;
        self.queue.push(at, Box::new(action))
    }

    /// Revokes a pending event.  Returns `true` if the event was still
    /// pending; `false` if it already fired, was already cancelled, or the
    /// key is otherwise stale (so timeout-vs-reply races need no guard).
    pub fn cancel(&mut self, key: EventKey) -> bool {
        self.queue.cancel(key).is_some()
    }

    /// True if `key` still refers to a pending event.
    pub fn is_pending(&self, key: EventKey) -> bool {
        self.queue.is_pending(key)
    }

    /// Executes the next pending event, advancing the clock.  Returns `false`
    /// if the queue was empty or the engine was stopped.
    pub fn step(&mut self) -> bool {
        if self.stopped {
            return false;
        }
        match self.queue.pop() {
            Some(ev) => {
                debug_assert!(ev.time >= self.now, "event queue went backwards");
                self.now = ev.time;
                self.processed += 1;
                (ev.payload)(self);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue drains or [`Engine::stop`] is called.  Returns the
    /// number of events executed by this call.
    pub fn run(&mut self) -> u64 {
        let before = self.processed;
        while self.step() {}
        self.processed - before
    }

    /// Runs until virtual time would exceed `deadline` (events at exactly
    /// `deadline` are executed), the queue drains, or the engine is stopped.
    /// The clock is left at `min(deadline, time of last executed event)` or at
    /// `deadline` if the queue drained earlier, so repeated calls with
    /// increasing deadlines behave like a wall clock.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.processed;
        while !self.stopped {
            match self.queue.peek_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if !self.stopped && self.now < deadline {
            self.now = deadline;
        }
        self.processed - before
    }

    /// Runs for `span` of virtual time from the current clock.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let deadline = self.now + span;
        self.run_until(deadline)
    }
}

/// Helper for periodic behaviours: reschedules itself every `period` until
/// `until` (exclusive), invoking `tick` each time.  Returns immediately; the
/// ticking happens as the engine runs.
pub fn schedule_periodic<F>(engine: &mut Engine, period: SimDuration, until: SimTime, tick: F)
where
    F: FnMut(&mut Engine) + 'static,
{
    assert!(!period.is_zero(), "periodic events need a non-zero period");
    fn arm<F>(engine: &mut Engine, period: SimDuration, until: SimTime, mut tick: F)
    where
        F: FnMut(&mut Engine) + 'static,
    {
        let next = engine.now() + period;
        if next >= until {
            return;
        }
        engine.schedule_at(next, move |e| {
            tick(e);
            arm(e, period, until, tick);
        });
    }
    arm(engine, period, until, tick);
}

/// Clock-plus-queue engine over plain data events.
///
/// Where [`Engine`] owns boxed closures that receive `&mut Engine`,
/// `TypedEngine` holds an enum (or any payload type) and leaves dispatch to
/// its owner: the owner's driver loop calls [`TypedEngine::pop_due`] until
/// it returns `None`, handles each event with full `&mut` access to its own
/// state, and finishes with [`TypedEngine::advance_clock_to`].  This is the
/// natural shape when the engine is a *field* of the simulation state (as in
/// the overlay), where closure events could not borrow the state mutably.
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
    /// Creates an engine with the clock at [`SimTime::ZERO`] over the
    /// default binary heap.
    pub fn new() -> Self {
        Self::with_queue_kind(QueueKind::BinaryHeap)
    }

    /// Creates an engine over the given priority structure.
    pub fn with_queue_kind(kind: QueueKind) -> Self {
        TypedEngine {
            now: SimTime::ZERO,
            queue: EventQueue::with_kind(kind),
            processed: 0,
        }
    }

    /// Creates a pre-sized engine over the given priority structure.
    pub fn with_capacity_and_kind(capacity: usize, kind: QueueKind) -> Self {
        TypedEngine {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity_and_kind(capacity, kind),
            processed: 0,
        }
    }

    /// The priority structure the event queue uses.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// Reserves queue capacity for at least `additional` more events.
    pub fn reserve_events(&mut self, additional: usize) {
        self.queue.reserve(additional);
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
    /// [`TypedEngine::processed`]: an owner that lets one scheduled event
    /// stand for several simulated messages (a round's replies riding the
    /// event of the latest one) reports the rest here, so the figure keeps
    /// counting messages delivered, whatever the batching.
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

    /// Firing time of the earliest pending event.
    pub fn next_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
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

    /// Schedules a batch of events in iteration order (consecutive sequence
    /// numbers, so same-instant events fire in batch order), appending each
    /// event's key to `keys`.  Scheduling in the past panics, as in
    /// [`TypedEngine::schedule_at`].
    pub fn schedule_batch(
        &mut self,
        events: impl IntoIterator<Item = (SimTime, E)>,
        keys: &mut Vec<EventKey>,
    ) {
        let now = self.now;
        self.queue.push_batch(
            events.into_iter().inspect(|(at, _)| {
                assert!(
                    *at >= now,
                    "cannot schedule an event in the past ({at} < {now})"
                );
            }),
            keys,
        );
    }

    /// Schedules `event` at absolute time `at`, returning its key for
    /// [`TypedEngine::cancel`].  Scheduling in the past panics.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventKey {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past ({} < {})",
            at,
            self.now
        );
        self.queue.push(at, event)
    }

    /// Schedules `event` after the given delay, returning its key.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventKey {
        let at = self.now + delay;
        self.queue.push(at, event)
    }

    /// Revokes a pending event, returning its payload; `None` if the key is
    /// stale (already fired or cancelled).
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        self.queue.cancel(key)
    }

    /// Revokes a batch of pending events, returning the payloads that were
    /// still live.  Stale keys (already fired or cancelled) are skipped
    /// silently, so fault injectors can mass-revoke everything a crashed
    /// host still had scheduled without tracking which keys already fired.
    pub fn cancel_batch(&mut self, keys: impl IntoIterator<Item = EventKey>) -> Vec<E> {
        keys.into_iter()
            .filter_map(|key| self.queue.cancel(key))
            .collect()
    }

    /// True if `key` still refers to a pending event.
    pub fn is_pending(&self, key: EventKey) -> bool {
        self.queue.is_pending(key)
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
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn with_capacity_presizes_the_queue() {
        let mut e = Engine::with_capacity(64);
        for i in 0..64u64 {
            e.schedule_at(SimTime::from_secs(i), |_| {});
        }
        assert_eq!(e.pending(), 64);
        e.reserve_events(100);
        assert_eq!(e.run(), 64);
    }

    #[test]
    fn calendar_engine_runs_identically() {
        // The same schedule must produce the same firing order and final
        // clock whichever queue kind backs the engine.
        let run = |kind: QueueKind| {
            let mut e = Engine::with_capacity_and_kind(16, kind);
            assert_eq!(e.queue_kind(), kind);
            let hits = Rc::new(RefCell::new(Vec::new()));
            for i in [7u64, 3, 3, 9, 1] {
                let h = hits.clone();
                e.schedule_in(SimDuration::from_millis(i), move |eng| {
                    h.borrow_mut().push((eng.now(), i));
                });
            }
            e.run();
            (Rc::try_unwrap(hits).unwrap().into_inner(), e.now())
        };
        let (heap_hits, heap_now) = run(QueueKind::BinaryHeap);
        let (cal_hits, cal_now) = run(QueueKind::Calendar);
        assert_eq!(heap_hits, cal_hits);
        assert_eq!(heap_now, cal_now);
        // FIFO among the two 3 ms events: scheduling order is preserved.
        assert_eq!(heap_hits[1].1, 3);
        assert_eq!(heap_hits[2].1, 3);
    }

    #[test]
    fn clock_advances_with_events() {
        let mut e = Engine::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        e.schedule_at(SimTime::from_millis(10), move |eng| {
            h.borrow_mut().push(eng.now());
        });
        let h = hits.clone();
        e.schedule_at(SimTime::from_millis(5), move |eng| {
            h.borrow_mut().push(eng.now());
        });
        assert_eq!(e.run(), 2);
        assert_eq!(
            *hits.borrow(),
            vec![SimTime::from_millis(5), SimTime::from_millis(10)]
        );
        assert_eq!(e.now(), SimTime::from_millis(10));
    }

    #[test]
    fn events_can_schedule_followups() {
        let mut e = Engine::new();
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        e.schedule_in(SimDuration::from_secs(1), move |eng| {
            *c.borrow_mut() += 1;
            let c2 = c.clone();
            eng.schedule_in(SimDuration::from_secs(1), move |_| {
                *c2.borrow_mut() += 1;
            });
        });
        e.run();
        assert_eq!(*count.borrow(), 2);
        assert_eq!(e.now(), SimTime::from_secs(2));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut e = Engine::new();
        let fired = Rc::new(RefCell::new(0));
        for i in 1..=10u64 {
            let f = fired.clone();
            e.schedule_at(SimTime::from_secs(i), move |_| {
                *f.borrow_mut() += 1;
            });
        }
        assert_eq!(e.run_until(SimTime::from_secs(4)), 4);
        assert_eq!(*fired.borrow(), 4);
        assert_eq!(e.now(), SimTime::from_secs(4));
        assert_eq!(e.pending(), 6);
        // Advancing further picks up where we left off.
        assert_eq!(e.run_until(SimTime::from_secs(20)), 6);
        assert_eq!(e.now(), SimTime::from_secs(20));
    }

    #[test]
    fn run_for_advances_relative() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(3), |_| {});
        e.run_for(SimDuration::from_secs(1));
        assert_eq!(e.now(), SimTime::from_secs(1));
        e.run_for(SimDuration::from_secs(5));
        assert_eq!(e.now(), SimTime::from_secs(6));
        assert_eq!(e.processed(), 1);
    }

    #[test]
    fn stop_halts_run() {
        let mut e = Engine::new();
        let seen = Rc::new(RefCell::new(0));
        for i in 0..5u64 {
            let s = seen.clone();
            e.schedule_at(SimTime::from_secs(i + 1), move |eng| {
                *s.borrow_mut() += 1;
                if *s.borrow() == 2 {
                    eng.stop();
                }
            });
        }
        e.run();
        assert_eq!(*seen.borrow(), 2);
        assert!(e.is_stopped());
        assert_eq!(e.pending(), 3);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut e = Engine::new();
        e.schedule_at(SimTime::from_secs(2), |_| {});
        e.run();
        e.schedule_at(SimTime::from_secs(1), |_| {});
    }

    #[test]
    fn periodic_ticks_until_deadline() {
        let mut e = Engine::new();
        let ticks = Rc::new(RefCell::new(Vec::new()));
        let t = ticks.clone();
        schedule_periodic(
            &mut e,
            SimDuration::from_secs(2),
            SimTime::from_secs(9),
            move |eng| t.borrow_mut().push(eng.now().as_nanos() / 1_000_000_000),
        );
        e.run();
        assert_eq!(*ticks.borrow(), vec![2, 4, 6, 8]);
    }

    #[test]
    #[should_panic(expected = "non-zero period")]
    fn periodic_zero_period_panics() {
        let mut e = Engine::new();
        schedule_periodic(&mut e, SimDuration::ZERO, SimTime::from_secs(1), |_| {});
    }

    #[test]
    fn cancelled_closures_do_not_fire() {
        let mut e = Engine::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        e.schedule_at(SimTime::from_secs(1), move |_| h.borrow_mut().push(1));
        let h = hits.clone();
        let doomed = e.schedule_at(SimTime::from_secs(2), move |_| h.borrow_mut().push(2));
        let h = hits.clone();
        e.schedule_at(SimTime::from_secs(3), move |_| h.borrow_mut().push(3));
        assert!(e.is_pending(doomed));
        assert!(e.cancel(doomed));
        assert!(!e.is_pending(doomed));
        assert_eq!(e.run(), 2);
        assert_eq!(*hits.borrow(), vec![1, 3]);
        // Cancel-after-fire (and double cancel) are no-ops.
        assert!(!e.cancel(doomed));
    }

    #[test]
    fn typed_engine_runs_a_bounded_driver_loop() {
        let mut sim: TypedEngine<u32> = TypedEngine::with_queue_kind(QueueKind::Calendar);
        assert_eq!(sim.queue_kind(), QueueKind::Calendar);
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
        // Deliveries that rode a popped event count without moving the
        // clock or the queue.
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
        assert!(!sim.is_pending(rearmed));
        assert!(sim.pop_due(SimTime::MAX).is_none());
    }

    #[test]
    fn typed_engine_cancel_batch_skips_stale_keys() {
        // Mass revocation on a crash: some keys already fired, some were
        // cancelled individually — only the live payloads come back.
        let mut sim: TypedEngine<u32> = TypedEngine::new();
        let keys: Vec<_> = (1..=5u32)
            .map(|i| sim.schedule_at(SimTime::from_secs(i as u64), i))
            .collect();
        assert_eq!(sim.pop_due(SimTime::MAX).unwrap().payload, 1);
        assert_eq!(sim.cancel(keys[2]), Some(3));
        let mut revoked = sim.cancel_batch(keys);
        revoked.sort_unstable();
        assert_eq!(revoked, vec![2, 4, 5]);
        assert!(sim.pop_due(SimTime::MAX).is_none());
        assert_eq!(sim.pending(), 0);
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
