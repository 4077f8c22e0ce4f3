//! The sharded sweep holds its trace once: its peak live heap grows by
//! about 17 bytes per job (the 16-byte `JobSpec` and one home-shard byte),
//! not by a per-phase copy of every local job.  A tracking
//! `#[global_allocator]` keeps the process's live heap bytes and their peak
//! in atomics; two one-lane sweeps over the same compressed week differ
//! only in their arrival rate, and the difference of their peaks per added
//! job is what the trace costs.

use p2pmpi_bench::shard::{run_shard_sweep, ShardSweepConfig};
use p2pmpi_bench::workload::{DayProfile, DaySweepConfig};
use p2pmpi_core::strategy::StrategyKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, tracking the live heap bytes of every thread.
struct Tracking;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Tracking` keeps `System`'s contract; tracking touches no memory it
// hands out.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: `ptr` came from `System` with `layout`, and the caller's
        // guarantees for `new_size` are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static TRACKING: Tracking = Tracking;

/// A week compressed into one virtual hour at `rate` times its traffic,
/// on two shards and one lane: its jobs and the peak live heap the sweep
/// added to what was live before it.
fn sweep_at(rate: f64) -> (usize, usize) {
    let mut base = DaySweepConfig::new(StrategyKind::Concentrate);
    base.profile = DayProfile::week().scaled(rate);
    let mut cfg = ShardSweepConfig::new(base.compress(168.0), 2);
    cfg.parallel = false;
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let jobs = run_shard_sweep(&cfg).merged.submitted;
    (jobs, PEAK.load(Relaxed) - before)
}

#[test]
fn the_sharded_sweep_adds_at_most_24_bytes_of_peak_heap_per_job() {
    // The process's first sweep also fills the process-wide schedule cache
    // (`search::cached_kernel_schedule`, ~28 KB), which outlives it, so a
    // sweep runs once before either measured one.
    sweep_at(0.02);
    let (few, small) = sweep_at(0.02);
    let (many, large) = sweep_at(0.1);
    let per_job = large.saturating_sub(small) as f64 / (many - few) as f64;
    println!("{few} jobs: {small} B; {many} jobs: {large} B; {per_job:.1} B per added job");
    assert!(
        per_job <= 24.0,
        "{per_job:.1} B of peak heap per added job ({few} jobs: {small} B, {many} jobs: {large} B)"
    );
}
