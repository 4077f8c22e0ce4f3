//! Property test: [`EventQueue`] behaves like a plain sorted `Vec`.
//!
//! The reference keeps every ticket in a `Vec` sorted by `(time, seq)` and
//! cancels by linear search, marking the entry dead the way the queue
//! leaves a tombstone.  Under arbitrary interleavings of pushes, batch
//! pushes, pops, bounded pops, peeks, cancellations, reaps and stamps taken
//! without a push, the queue must deliver *exactly* the reference's `(time,
//! payload)` stream — FIFO ties included — agree on every cancel (stale
//! keys included) and every stamp, and carry the same live and queued
//! counts: a dead ticket is collected when the front reaches it or when
//! `reap` sweeps it, never otherwise.

use p2pmpi_simgrid::event::{EventKey, EventQueue, Scheduled};
use p2pmpi_simgrid::rngutil::seeded;
use p2pmpi_simgrid::time::SimTime;
use proptest::prelude::*;
use rand::Rng;

/// One scripted operation of a random workload.
#[derive(Debug, Clone)]
enum Op {
    /// Push at `floor + offset` (the floor is the last popped time, so the
    /// schedule never goes backwards the way an engine never would).
    Push(u64),
    /// `push_batch` of several events at `floor + offset` each.
    PushBatch(Vec<u64>),
    /// Cancel a random still-tracked key (may already be stale).
    Cancel(usize),
    /// Pop the earliest event.
    Pop,
    /// Read the earliest pending firing time.
    PeekTime,
    /// Collect every dead ticket eagerly.
    Reap,
    /// Take a stamp without pushing.
    Stamp,
    /// Pop the earliest event only if it precedes `(floor + offset, stamp)`,
    /// the stamp picked among those handed out so far (`pick` modulo).
    PopBefore(u64, u64),
}

/// A time offset on one of three scales: tight clusters (ties and
/// near-ties), a medium band, and a sparse far tail.
fn offset(rng: &mut impl Rng) -> u64 {
    match rng.gen_range(0u32..4) {
        0 => rng.gen_range(0u64..10),
        1 => rng.gen_range(0u64..100_000),
        2 => rng.gen_range(0u64..10_000_000),
        _ => rng.gen_range(0u64..60_000_000_000),
    }
}

fn script(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = seeded(seed);
    (0..ops)
        .map(|_| match rng.gen_range(0u32..100) {
            0..=44 => Op::Push(offset(&mut rng)),
            45..=49 => Op::PushBatch(
                (0..rng.gen_range(1usize..8))
                    .map(|_| offset(&mut rng))
                    .collect(),
            ),
            50..=64 => Op::Cancel(rng.gen()),
            65..=79 => Op::Pop,
            80..=84 => Op::PopBefore(offset(&mut rng), rng.gen()),
            85..=87 => Op::Stamp,
            88..=94 => Op::PeekTime,
            _ => Op::Reap,
        })
        .collect()
}

/// One reference ticket: firing time, sequence number, payload, and whether
/// its event was cancelled (a tombstone awaiting collection).
struct Entry {
    time: SimTime,
    seq: u64,
    payload: u32,
    dead: bool,
}

/// The reference queue: a `Vec` kept sorted by `(time, seq)`.
#[derive(Default)]
struct Reference {
    entries: Vec<Entry>,
    next_seq: u64,
}

impl Reference {
    fn push(&mut self, time: SimTime, payload: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Every earlier push has a smaller seq, so the entry goes after all
        // entries due at or before `time`.
        let at = self.entries.partition_point(|e| e.time <= time);
        self.entries.insert(
            at,
            Entry {
                time,
                seq,
                payload,
                dead: false,
            },
        );
        seq
    }

    fn cancel(&mut self, seq: u64) -> Option<u32> {
        let entry = self.entries.iter_mut().find(|e| e.seq == seq && !e.dead)?;
        entry.dead = true;
        Some(entry.payload)
    }

    /// Drops the dead entries at the front, as the queue's pop and peek do.
    fn collect_front(&mut self) {
        let dead = self.entries.iter().take_while(|e| e.dead).count();
        self.entries.drain(..dead);
    }

    fn pop(&mut self) -> Option<Scheduled<u32>> {
        self.collect_front();
        (!self.entries.is_empty()).then(|| {
            let e = self.entries.remove(0);
            Scheduled {
                time: e.time,
                payload: e.payload,
            }
        })
    }

    fn stamp(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Pops entries while the front precedes `(time, stamp)`, dead ones
    /// collected, until a live one comes off.
    fn pop_before(&mut self, time: SimTime, stamp: u64) -> Option<Scheduled<u32>> {
        while let Some(first) = self.entries.first() {
            if (first.time, first.seq) >= (time, stamp) {
                break;
            }
            let e = self.entries.remove(0);
            if !e.dead {
                return Some(Scheduled {
                    time: e.time,
                    payload: e.payload,
                });
            }
        }
        None
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.collect_front();
        self.entries.first().map(|e| e.time)
    }

    fn reap(&mut self) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !e.dead);
        before - self.entries.len()
    }

    fn live_len(&self) -> usize {
        self.entries.iter().filter(|e| !e.dead).count()
    }
}

proptest! {
    #[test]
    fn event_queue_matches_a_sorted_vec_reference(
        seed in 0u64..1_000_000,
        ops in 200usize..1200,
    ) {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut reference = Reference::default();
        // Every key handed out, with the reference seq it stands for.
        let mut keys: Vec<(EventKey, u64)> = Vec::new();
        let mut batch_keys = Vec::new();
        let mut floor = 0u64;
        for (i, op) in script(seed, ops).into_iter().enumerate() {
            let payload = i as u32;
            match op {
                Op::Push(offset) => {
                    let t = SimTime::from_nanos(floor + offset);
                    keys.push((queue.push(t, payload), reference.push(t, payload)));
                }
                Op::PushBatch(offsets) => {
                    let events: Vec<(SimTime, u32)> = offsets
                        .iter()
                        .map(|&o| (SimTime::from_nanos(floor + o), payload))
                        .collect();
                    batch_keys.clear();
                    queue.push_batch(events.iter().copied(), &mut batch_keys);
                    prop_assert_eq!(batch_keys.len(), events.len());
                    for (&key, &(t, p)) in batch_keys.iter().zip(&events) {
                        keys.push((key, reference.push(t, p)));
                    }
                }
                Op::Cancel(pick) => {
                    if keys.is_empty() {
                        continue;
                    }
                    // Keys may be stale (popped or already cancelled); both
                    // must agree on whether the cancel landed.
                    let (key, seq) = keys.swap_remove(pick % keys.len());
                    prop_assert_eq!(queue.cancel(key), reference.cancel(seq), "cancel at op {}", i);
                }
                Op::Pop => {
                    let popped = queue.pop();
                    prop_assert_eq!(&popped, &reference.pop(), "pop at op {}", i);
                    if let Some(s) = popped {
                        floor = s.time.as_nanos();
                    }
                }
                Op::PopBefore(offset, pick) => {
                    let t = SimTime::from_nanos(floor + offset);
                    let stamp = pick % (reference.next_seq + 1);
                    let popped = queue.pop_before(t, stamp);
                    let expected = reference.pop_before(t, stamp);
                    prop_assert_eq!(&popped, &expected, "pop_before at op {}", i);
                    if let Some(s) = popped {
                        floor = s.time.as_nanos();
                    }
                }
                Op::Stamp => {
                    prop_assert_eq!(queue.stamp(), reference.stamp(), "stamp at op {}", i);
                }
                Op::PeekTime => {
                    prop_assert_eq!(queue.peek_time(), reference.peek_time(), "peek at op {}", i);
                }
                Op::Reap => {
                    prop_assert_eq!(queue.reap(), reference.reap(), "reap at op {}", i);
                }
            }
            prop_assert_eq!(queue.len(), reference.live_len(), "live count at op {}", i);
            prop_assert_eq!(queue.queued_len(), reference.entries.len(), "queued count at op {}", i);
        }
        // Drain whatever survived; the full tail must agree too.
        loop {
            let tail = queue.pop();
            prop_assert_eq!(&tail, &reference.pop(), "tail diverged");
            if tail.is_none() {
                break;
            }
        }
    }
}
