//! Property test: the two [`QueueKind`]s are interchangeable.
//!
//! The binary heap is the reference implementation; the ladder queue must
//! deliver *exactly* the same `(time, payload)` stream — FIFO ties included
//! — under arbitrary interleavings of pushes, pops and cancellations.
//! Cancellation is the interesting part: tombstoned tickets travel through
//! ladder rung transfers (where they may be compacted early), and none of
//! that may reorder the survivors or desynchronise the live-event count.

use p2pmpi_simgrid::event::{EventKey, EventQueue, QueueKind, Scheduled};
use p2pmpi_simgrid::rngutil::seeded;
use p2pmpi_simgrid::time::SimTime;
use proptest::prelude::*;
use rand::Rng;

/// One scripted operation of a random workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push at `floor + offset` (the floor is the last popped time, so the
    /// schedule never goes backwards the way an engine never would).
    Push(u64),
    /// Cancel a random still-tracked key (may already be stale).
    Cancel(usize),
    /// Pop the earliest event.
    Pop,
}

/// Draws a workload whose pushes mix three time scales: tight clusters
/// (ties and near-ties), a medium band, and a sparse far tail — the shape
/// that stresses the ladder's rung refinement.
fn script(seed: u64, ops: usize) -> Vec<Op> {
    let mut rng = seeded(seed);
    (0..ops)
        .map(|_| match rng.gen_range(0u32..100) {
            0..=54 => Op::Push(match rng.gen_range(0u32..4) {
                0 => rng.gen_range(0u64..10),
                1 => rng.gen_range(0u64..100_000),
                2 => rng.gen_range(0u64..10_000_000),
                _ => rng.gen_range(0u64..60_000_000_000),
            }),
            55..=74 => Op::Cancel(rng.gen()),
            _ => Op::Pop,
        })
        .collect()
}

struct Tracked {
    queue: EventQueue<u32>,
    keys: Vec<EventKey>,
}

impl Tracked {
    fn new(kind: QueueKind) -> Self {
        Tracked {
            queue: EventQueue::with_kind(kind),
            keys: Vec::new(),
        }
    }
}

proptest! {
    #[test]
    fn heap_and_ladder_deliver_identical_streams(
        seed in 0u64..1_000_000,
        ops in 200usize..1200,
    ) {
        let script = script(seed, ops);
        let mut queues = [
            Tracked::new(QueueKind::BinaryHeap),
            Tracked::new(QueueKind::Ladder),
        ];
        let mut floor = 0u64;
        for (i, op) in script.iter().enumerate() {
            match *op {
                Op::Push(offset) => {
                    let t = SimTime::from_nanos(floor + offset);
                    for q in &mut queues {
                        let key = q.queue.push(t, i as u32);
                        q.keys.push(key);
                    }
                }
                Op::Cancel(pick) => {
                    if queues[0].keys.is_empty() {
                        continue;
                    }
                    let idx = pick % queues[0].keys.len();
                    // Keys may be stale (popped or already cancelled); both
                    // queues must agree on whether the cancel landed.
                    let results: Vec<Option<u32>> = queues
                        .iter_mut()
                        .map(|q| q.queue.cancel(q.keys.swap_remove(idx)))
                        .collect();
                    prop_assert_eq!(results[0], results[1], "ladder cancel diverged at op {}", i);
                }
                Op::Pop => {
                    let popped: Vec<Option<Scheduled<u32>>> =
                        queues.iter_mut().map(|q| q.queue.pop()).collect();
                    prop_assert_eq!(&popped[0], &popped[1], "ladder pop diverged at op {}", i);
                    if let Some(s) = &popped[0] {
                        floor = s.time.as_nanos();
                    }
                }
            }
            prop_assert_eq!(queues[0].queue.len(), queues[1].queue.len());
        }
        // Drain whatever survived; the full tail must agree too.
        loop {
            let tail: Vec<Option<Scheduled<u32>>> =
                queues.iter_mut().map(|q| q.queue.pop()).collect();
            prop_assert_eq!(&tail[0], &tail[1], "ladder tail diverged");
            if tail[0].is_none() {
                break;
            }
        }
    }
}
