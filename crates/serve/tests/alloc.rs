//! Allocation regression for the engine: a warm serve batch round —
//! same-model batch through a fully resident weight-stationary executor —
//! performs a bounded number of heap allocations, independent of how
//! many rounds came before it (the arena pool, not the allocator, backs
//! the per-tile execution). The same holds for a warm decode batch of
//! eight `llm_tiny` sequences.

use oxbar_nn::reference::Tensor3;
use oxbar_nn::synthetic;
use oxbar_serve::{catalog, BatchPolicy, InferRequest, ModelId, ServeConfig, ServeEngine};
use oxbar_sim::SimConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Held by every test for its whole body: the counter is process-wide,
/// so tests on parallel threads would count each other's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Queues a deadline-free request at tick 0.
fn submit_at_zero(engine: &mut ServeEngine, model: ModelId, input: Tensor3) {
    let request = InferRequest {
        model,
        input,
        arrival: 0,
        deadline: None,
    };
    engine.try_submit(request).expect("valid request");
}

#[test]
fn warm_batch_round_allocations_are_bounded() {
    let _serial = SERIAL.lock().expect("no test panicked holding the lock");
    let device = SimConfig::noisy(64, 64).with_threads(1);
    let mut engine = ServeEngine::new(
        ServeConfig::new(device)
            .with_policy(BatchPolicy::new(8, 8))
            .with_workers(1),
    );
    let lenet = engine.admit(catalog::lenet5_model()).unwrap();
    let inputs: Vec<_> = (0..4u64)
        .map(|i| synthetic::activations(engine.input_shape(lenet), 6, i))
        .collect();

    // Two rounds to program the tiles and settle the arena pool.
    for _ in 0..2 {
        for input in &inputs {
            submit_at_zero(&mut engine, lenet, input.clone());
        }
        engine.drain_traced();
    }

    // A warm round: 4 requests coalesced into one batch, every tile a
    // cache hit. Submissions (queue + input clones) happen outside the
    // measured window; the drain itself allocates only batch bookkeeping
    // and per-layer outputs — on the order of a hundred allocations per
    // request, never per-window or per-pixel scratch.
    let mut budget_checked = 0;
    for round in 0..3 {
        for input in &inputs {
            submit_at_zero(&mut engine, lenet, input.clone());
        }
        let allocs = allocations_in(|| {
            let done = engine.drain_traced().completions;
            assert_eq!(done.len(), inputs.len());
        });
        let per_request = allocs / inputs.len() as u64;
        assert!(
            per_request <= 250,
            "round {round}: {per_request} allocations per warm request (budget 250)"
        );
        budget_checked += 1;
    }
    assert_eq!(budget_checked, 3);
    let stats = engine.stats();
    assert!(stats.hit_rate() > 0.5, "rounds after the first must hit");
}

#[test]
fn warm_decode_batch_allocations_are_bounded() {
    let _serial = SERIAL.lock().expect("no test panicked holding the lock");
    const STEPS: usize = 4;
    let device = SimConfig::noisy(128, 128).with_threads(1);
    let mut engine = ServeEngine::new(ServeConfig::new(device).with_workers(1));
    let llm = engine.admit(catalog::llm_tiny()).unwrap();
    let begin = |engine: &mut ServeEngine| {
        for prompt in [5, 20, 3, 31, 0, 17, 9, 26] {
            engine.begin_sequence(llm, prompt, STEPS, 0, 1).unwrap();
        }
    };
    // One drain to program the tiles, remember the attention stages'
    // noise draws and settle the arena pool.
    begin(&mut engine);
    engine.drain_traced();

    // Warm drains: each pass is one decode batch of all eight sequences,
    // at positions 0..STEPS. Beginning the sequences happens outside the
    // measured window; the drain allocates the digital glue's vectors,
    // the batch's drives and outputs, and each stage's bookkeeping —
    // never per-cell or per-window buffers.
    for round in 0..3 {
        begin(&mut engine);
        let allocs = allocations_in(|| {
            let trace = engine.drain_traced();
            assert_eq!(trace.batch_ms.len(), STEPS, "one batch per decode step");
        });
        let per_batch = allocs / STEPS as u64;
        assert!(
            per_batch <= 1_150,
            "round {round}: {per_batch} allocations per warm decode batch (budget 1150)"
        );
    }
}
