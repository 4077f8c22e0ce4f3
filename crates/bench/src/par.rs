//! Run-level parallelism for the harness: independent runs (scenarios of
//! the matrix, phase offsets of the fault search) spread over the host's
//! hardware threads with no protocol between them.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Hardware threads this process may use (1 where the host will not say):
/// the worker count of [`par_map`] and the lane count of the sharded sweep.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on `min(items.len(), hardware_threads())`
/// scoped threads and returns the results in input order.  Threads claim
/// the next unclaimed item as they free up, so uneven items balance; with
/// one worker nothing is spawned.  A panic in `f` resumes on the caller
/// once the other workers have drained the queue.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = hardware_threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Relaxed: the counter hands out indices and publishes nothing else;
    // the results travel through `join`.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut claimed = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            match items.get(i) {
                Some(item) => claimed.push((i, f(item))),
                None => return claimed,
            }
        }
    };
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        for handle in handles {
            match handle.join() {
                Ok(claimed) => {
                    for (i, r) in claimed {
                        results[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::par_map;

    #[test]
    fn results_come_back_in_input_order() {
        // Early items take longest, so they finish last.
        let items: Vec<u64> = (0..64).collect();
        let f = |&i: &u64| (0..(64 - i) * 2_000).fold(i, |acc, k| acc ^ k.wrapping_mul(acc | 1));
        let serial: Vec<u64> = items.iter().map(f).collect();
        assert_eq!(par_map(&items, f), serial);
        assert_eq!(par_map(&items[..1], f), serial[..1]);
        assert!(par_map(&items[..0], f).is_empty());
    }
}
