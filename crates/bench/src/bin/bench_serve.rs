//! Perf snapshot: batched weight-stationary serving (with the pipelined
//! prewarm scheduler) vs cold per-request execution on the same trace.
//!
//! Writes `BENCH_serve.json` at the workspace root. Pass `--quick` for
//! the CI smoke variant (small trace, same schema), written to
//! `results/BENCH_serve.json` instead.
//!
//! The binary installs a counting global allocator so the snapshot can
//! report the allocation count of a warm serving round (the
//! zero-allocation hot-path claim, measured end to end).

use std::alloc::{GlobalAlloc, Layout, System};

/// System allocator wrapper that reports every allocation to
/// [`oxbar_bench::alloc_counter`].
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        oxbar_bench::alloc_counter::record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        oxbar_bench::alloc_counter::record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        oxbar_bench::alloc_counter::record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn main() {
    oxbar_bench::alloc_counter::activate();
    let quick = std::env::args().any(|a| a == "--quick");
    oxbar_bench::serve::render(&oxbar_bench::serve::run(quick));
}
