//! Allocation regression for the serving hot path: a warm
//! [`CompiledTile::execute_into`] round performs **zero** heap
//! allocations, a warm whole-network forward performs a small, bounded
//! number (job lists, output tensors — never per-pixel or per-window
//! buffers), also per request of a warm batch, and a warm dynamic
//! (attention) MVM performs a few, the same number at every sequence
//! position.
//!
//! The whole file is one sequential test body behind a counting global
//! allocator, so no concurrent test can contaminate the counters.

use oxbar_dataflow::tiles::WeightTiles;
use oxbar_dataflow::FoldPlan;
use oxbar_nn::synthetic;
use oxbar_nn::zoo::lenet5;
use oxbar_nn::{Conv2d, TensorShape};
use oxbar_sim::tile::{CompiledTile, TileDrive};
use oxbar_sim::{DeviceExecutor, ExecArena, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (alloc, alloc_zeroed, realloc) made by the
/// test thread on top of the system allocator.
///
/// Counting is gated to the test thread via a const-initialized
/// thread-local (no lazy init, so reading it never allocates): libtest's
/// main thread lazily allocates its mpmc-channel `Context` the first
/// time its blocking `recv` parks, and that init races into whichever
/// measured window is open when it fires — a process-global counter
/// flakes on it under load.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations performed by `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_rounds_do_not_touch_the_allocator() {
    // Everything under test runs single-threaded on this thread (the
    // whole-network forward below pins `with_threads(1)`), so counting
    // this thread alone loses nothing.
    MEASURED.with(|m| m.set(true));

    // --- Zero allocations: a warm execute round through an arena. ---
    // Noisy config: complex gains, ADC readout, drift + variation — the
    // serving configuration, so the whole chain (dedupe table, batched
    // complex MVM with scratch planes, digitize, recovery, partials) is
    // exercised.
    let conv = Conv2d::new("probe", TensorShape::new(9, 9, 3), 3, 3, 6, 1, 1);
    let bank = synthetic::filter_bank(&conv, 6, 5);
    let plan = FoldPlan::plan(&conv, 32, 8, 1);
    let config = SimConfig::noisy(32, 8);
    let tiles = WeightTiles::new(&conv, &bank.weights, &plan);
    let tile = tiles.tile(0);
    let compiled = CompiledTile::compile(&tile, &config, 7);
    let windows: Vec<Vec<u8>> = (0..81)
        .map(|p| {
            (0..tile.rows())
                .map(|r| ((p * 7 + r * 3) % 64) as u8)
                .collect()
        })
        .collect();
    let drive = TileDrive::new(tile.rows(), windows.concat(), None);
    let mut arena = ExecArena::default();
    // Cold round: the arena grows its buffers (allocates).
    compiled.execute_into(&drive, &config, true, &mut arena);
    let baseline = arena.partials().to_vec();
    // Warm rounds: byte-identical results, zero allocations.
    for round in 0..3 {
        let allocs = allocations_in(|| {
            compiled.execute_into(&drive, &config, true, &mut arena);
        });
        assert_eq!(allocs, 0, "warm execute round {round} hit the allocator");
        assert_eq!(arena.partials(), baseline.as_slice(), "round {round}");
    }
    // The no-dedupe path reuses the same buffers allocation-free too.
    compiled.execute_into(&drive, &config, false, &mut arena);
    let allocs = allocations_in(|| {
        compiled.execute_into(&drive, &config, false, &mut arena);
    });
    assert_eq!(allocs, 0, "warm no-dedupe round hit the allocator");

    // --- Bounded allocations: a warm whole-network forward. ---
    // The forward still allocates its outputs (job lists, layer tensors,
    // the walk records), but nothing proportional to pixels × windows:
    // the per-tile buffers all come from the executor's arena pool.
    let net = lenet5();
    let input = synthetic::activations(net.input(), 6, 42);
    let filters = synthetic::filter_banks(&net, 6, 7);
    let exec = DeviceExecutor::new(SimConfig::noisy(128, 128).with_threads(1));
    exec.forward(&net, &input, &filters).unwrap(); // compile + grow pool
    exec.forward(&net, &input, &filters).unwrap(); // settle arena sizes
    let warm = allocations_in(|| {
        exec.forward(&net, &input, &filters).unwrap();
    });
    // LeNet-5 runs 8 layers / ~10 tiles; the warm forward's allocation
    // count must stay in the low hundreds (output + bookkeeping only) —
    // before the arena pool it was tens of thousands (per-window drive
    // rows, per-pixel partials, fresh accumulator lanes).
    assert!(
        warm <= 400,
        "warm forward allocated {warm} times (budget 400)"
    );
    // And it stays bounded: the pool has converged, so later rounds never
    // climb back up.
    for round in 0..3 {
        let next = allocations_in(|| {
            exec.forward(&net, &input, &filters).unwrap();
        });
        assert!(
            next <= warm,
            "warm allocation count climbed from {warm} to {next} in round {round}"
        );
    }

    // --- The same budget per request for a warm batch of 4. ---
    let inputs: Vec<_> = (0..4)
        .map(|seed| synthetic::activations(net.input(), 6, 100 + seed))
        .collect();
    let batch: Vec<_> = inputs.iter().collect();
    exec.try_forward_batch(&net, &batch, &filters).unwrap(); // grow for 4
    exec.try_forward_batch(&net, &batch, &filters).unwrap();
    let warm_batch = allocations_in(|| {
        exec.try_forward_batch(&net, &batch, &filters).unwrap();
    });
    assert!(
        warm_batch <= 4 * 400,
        "warm batch of 4 allocated {warm_batch} times (budget 400 per request)"
    );

    // --- A warm dynamic MVM: attention's QKᵀ (p key rows × 8) and AV
    // (8 value rows × p). Its noise draws are remembered and its tiles
    // compile into pooled gain planes, so a warm call allocates only its
    // bookkeeping and output — the same count at every position p,
    // however many tiles the product folds into.
    let dynamic = DeviceExecutor::new(SimConfig::noisy(128, 128).with_threads(1));
    let mut counts = Vec::new();
    for position in [1usize, 16, 300] {
        for (stage, outputs, inputs, low) in [(0, position, 8, -63), (1, 8, position, 0)] {
            let rows: Vec<Vec<i8>> = (0..outputs)
                .map(|o| {
                    (0..inputs)
                        .map(|i| ((o * inputs + i) * 37 % 63) as i8 - 31)
                        .collect()
                })
                .collect();
            let drive: Vec<i64> = (0..inputs)
                .map(|i| low + (i as i64 * 17) % (64 - low))
                .collect();
            // Cold call: draws the stage's noise, grows the pooled buffers.
            let cold = dynamic.dynamic_mv(stage, &rows, &drive);
            let mut warm = Vec::new();
            let allocs = allocations_in(|| {
                warm = dynamic.dynamic_mv(stage, &rows, &drive);
            });
            assert_eq!(warm, cold, "stage {stage} p{position}: warm call diverged");
            assert!(
                allocs <= 8,
                "warm dynamic MVM (stage {stage}, p{position}) allocated {allocs} times (budget 8)"
            );
            counts.push(allocs);
        }
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "warm dynamic allocations vary with position: {counts:?}"
    );
}
