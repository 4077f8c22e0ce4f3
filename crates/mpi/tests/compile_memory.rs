//! Compiling a schedule holds O(ranks) memory per ring: no ring whose
//! rows are constant off the diagonal is ever held as an n × n byte
//! matrix.  A recording `#[global_allocator]` reads the largest single
//! `alloc` or `realloc` this thread makes while a 1024-rank
//! `ScheduleBuilder` records IS's and FT's ring shapes and an allreduce; a
//! compiler that built the matrix would allocate 8 MiB per ring.

use p2pmpi_mpi::model::{CollectiveProgram, ScheduleBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, recording the largest size this thread's
/// `alloc` and `realloc` calls ask for.
struct Recording;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates and never fails while the thread is being torn down.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

/// The largest single allocation `f` makes on this thread.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|c| c.set(0));
    f();
    LARGEST.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Recording` keeps `System`'s contract; recording touches no memory it
// hands out.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller's
        // guarantees for `new_size` are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static RECORDING: Recording = Recording;

const MIB: usize = 1 << 20;

#[test]
fn a_1024_rank_compile_allocates_nothing_near_a_byte_matrix() {
    let mut segments = 0;
    let largest = largest_allocation(|| {
        let mut b = ScheduleBuilder::new(1024);
        // IS's two rings: a uniform alltoall and a per-source alltoallv.
        b.alltoall(8);
        b.alltoallv(|src, _| (src as u64 % 3 + 1) * 256);
        // FT's transpose: nothing to self, a per-source block elsewhere.
        b.alltoallv(|src, dst| if src == dst { 0 } else { (src as u64 + 1) * 64 });
        b.allreduce(1 << 13);
        segments = b.finish().segment_count();
    });
    assert_eq!(segments, 4);
    assert!(
        largest < MIB,
        "compiling at 1024 ranks made a {largest}-byte allocation"
    );
}
