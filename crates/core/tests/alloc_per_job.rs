//! A warm co-allocator makes the same number of heap allocations for every
//! placed job, whatever its size: the returned `Allocation`'s two vectors,
//! its hosts and its flat rank instances, and nothing per host.  A counting
//! `#[global_allocator]` reads this thread's `alloc` and `realloc` calls
//! around each `allocate`.
//!
//! Without debug assertions the count is exactly 2.  With them,
//! `allocate` also runs `Allocation::validate`, whose per-rank table adds
//! a constant.

use p2pmpi_core::{CoAllocator, JobRequest, StrategyKind};
use p2pmpi_overlay::boot::OverlayBuilder;
use p2pmpi_overlay::overlay::Overlay;
use p2pmpi_overlay::peer::PeerId;
use p2pmpi_simgrid::noise::NoiseModel;
use p2pmpi_simgrid::time::SimDuration;
use p2pmpi_simgrid::topology::{NodeSpec, TopologyBuilder};
use p2pmpi_simgrid::trace::Tracer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// The system allocator, counting this thread's `alloc` and `realloc`
/// calls.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and never fails while the thread is being torn down.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` keeps `System`'s contract; counting touches no memory it
// hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`, and the caller's
        // guarantees for `new_size` are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Two sites of 100 dual-core hosts, 10 ms apart, one peer per host, the
/// tracer off; the submitter sits on the first site.
fn booted_overlay() -> (Overlay, PeerId) {
    let mut b = TopologyBuilder::new();
    let near = b.add_site("near");
    let far = b.add_site("far");
    for (site, prefix) in [(near, "n"), (far, "f")] {
        let node = NodeSpec {
            cores: 2,
            ..NodeSpec::default()
        };
        b.add_cluster(site, prefix, "cpu", 100, node);
    }
    b.set_rtt(near, far, SimDuration::from_millis(10));
    let topology = Arc::new(b.build());
    let mut overlay = OverlayBuilder::new(topology.clone())
        .seed(7)
        .noise(NoiseModel::disabled())
        .tracer(Tracer::disabled())
        .peer_per_host_with_core_capacity()
        .build();
    overlay.boot_all();
    let submitter = overlay
        .peer_on_host(topology.host_by_name("n-0").unwrap().id)
        .unwrap();
    overlay.bootstrap_peer(submitter);
    (overlay, submitter)
}

#[test]
fn a_warm_allocator_allocates_the_same_per_job_at_every_size() {
    let (mut overlay, submitter) = booted_overlay();
    let allocator = CoAllocator::new();
    let shapes: Vec<(StrategyKind, u32)> = [StrategyKind::Concentrate, StrategyKind::Spread]
        .into_iter()
        .flat_map(|strategy| [8, 32, 128].map(|ranks| (strategy, ranks)))
        .collect();
    // Places one job and completes its hosts; returns the allocations made
    // inside `allocate`.
    let mut place = |&(strategy, ranks): &(StrategyKind, u32)| {
        let request = JobRequest::new(ranks, strategy, "alloc");
        let before = calls();
        let report = allocator.allocate(&mut overlay, submitter, &request);
        let made = calls() - before;
        for h in &report.allocation().hosts {
            overlay.complete_job(h.peer, report.key);
        }
        made
    };
    // The first pass warms the allocator's scratch buffers and the overlay.
    for shape in &shapes {
        place(shape);
    }
    let made: Vec<u64> = shapes.iter().map(&mut place).collect();
    assert!(
        made.iter().all(|&m| m == made[0]),
        "allocations per job vary with the job's shape: {shapes:?} -> {made:?}"
    );
    if !cfg!(debug_assertions) {
        assert_eq!(
            made[0], 2,
            "a placed job allocates more than its two vectors"
        );
    }
}
