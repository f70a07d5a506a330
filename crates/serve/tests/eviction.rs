//! Eviction-policy behavior at the tile-budget boundary, and the
//! cache-thrash vs weight-stationary serving scenario it creates.

use oxbar_nn::reference::Tensor3;
use oxbar_nn::synthetic;
use oxbar_serve::{catalog, BatchPolicy, InferRequest, ModelId, ServeConfig, ServeEngine};
use oxbar_sim::SimConfig;

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

fn engine_with(budget: usize, policy: BatchPolicy) -> (ServeEngine, ModelId, ModelId) {
    let device = SimConfig::ideal(64, 64).with_threads(1);
    let mut engine = ServeEngine::new(
        ServeConfig::new(device)
            .with_cache_budget(budget)
            .with_policy(policy),
    );
    let a = engine.admit(catalog::vgg16_conv_sample()).unwrap();
    let b = engine.admit(catalog::mobilenet_sample()).unwrap();
    (engine, a, b)
}

/// Serves one request of the model and returns its cache footprint.
fn footprint_of(engine: &mut ServeEngine, model: ModelId) -> usize {
    let input = synthetic::activations(engine.input_shape(model), 6, 0);
    submit_at_zero(engine, model, input);
    engine.drain_traced();
    engine.stats().models[model.0].cache.cells
}

/// Submits one request for each of `a` then `b` and drains, three times.
fn serve_three_rounds(engine: &mut ServeEngine, a: ModelId, b: ModelId) {
    for seed in 0..3u64 {
        for model in [a, b] {
            let input = synthetic::activations(engine.input_shape(model), 6, seed);
            submit_at_zero(engine, model, input);
        }
        engine.drain_traced();
    }
}

#[test]
fn budget_exactly_at_joint_footprint_keeps_both_models_resident() {
    let (mut probe, a, b) = engine_with(usize::MAX, BatchPolicy::SINGLE);
    let fa = footprint_of(&mut probe, a);
    let fb = footprint_of(&mut probe, b);
    assert!(fa > 0 && fb > 0);

    // Exactly the joint footprint: occupancy == budget must NOT evict.
    let (mut engine, a, b) = engine_with(fa + fb, BatchPolicy::SINGLE);
    serve_three_rounds(&mut engine, a, b);
    let stats = engine.stats();
    assert_eq!(stats.evictions, 0, "occupancy == budget is within budget");
    assert_eq!(stats.occupancy_cells, fa + fb);
    assert!(stats.models[a.0].cache.hits > 0, "model A stayed resident");
    assert!(stats.models[b.0].cache.hits > 0, "model B stayed resident");

    // One cell short: the models can no longer coexist. Round 1 evicts A
    // when B lands; every later round recompiles each model and evicts
    // the other — two evictions per round.
    let (mut engine, a, b) = engine_with(fa + fb - 1, BatchPolicy::SINGLE);
    serve_three_rounds(&mut engine, a, b);
    let stats = engine.stats();
    assert_eq!(
        stats.evictions, 5,
        "1 eviction in round 1, then 2 per round"
    );
    assert!(stats.occupancy_cells < fa + fb);
    assert_eq!(stats.models[a.0].cache.hits, 0, "A never survives to hit");
    assert_eq!(stats.models[b.0].cache.hits, 0, "B never survives to hit");
}

#[test]
fn batching_amortizes_reprogramming_under_a_tight_budget() {
    // A budget that holds either model alone but not both: round-robin
    // traffic with single-request dispatch thrashes (every model switch
    // evicts the other model), while same-model batching reprograms once
    // per batch. Same requests, same results, very different work.
    let (mut probe, a, b) = engine_with(usize::MAX, BatchPolicy::SINGLE);
    let fa = footprint_of(&mut probe, a);
    let fb = footprint_of(&mut probe, b);
    let budget = fa.max(fb) + 1_000;
    assert!(budget < fa + fb, "budget must not hold both models");

    let trace: Vec<(ModelId, u64)> = (0..12u64).map(|i| ([a, b][(i % 2) as usize], i)).collect();

    let run = |policy: BatchPolicy| {
        let (mut engine, a2, b2) = engine_with(budget, policy);
        assert_eq!((a2, b2), (a, b));
        for &(model, seed) in &trace {
            let input = synthetic::activations(engine.input_shape(model), 6, seed);
            submit_at_zero(&mut engine, model, input);
        }
        let mut done = engine.drain_traced().completions;
        done.sort_by_key(|c| c.id);
        let outputs: Vec<Vec<i64>> = done.iter().map(|c| c.output.data().to_vec()).collect();
        (outputs, engine.stats())
    };

    let (thrash_out, thrash) = run(BatchPolicy::SINGLE);
    let (batched_out, batched) = run(BatchPolicy::new(6, u64::MAX));
    assert_eq!(batched_out, thrash_out, "policy must never change results");

    assert!(
        thrash.evictions >= 10,
        "round-robin single dispatch thrashes: {} evictions",
        thrash.evictions
    );
    assert!(
        batched.evictions <= 2,
        "batched dispatch amortizes: {} evictions",
        batched.evictions
    );
    // Under this budget every batch is its model's first since an
    // eviction, so neither policy ever hits: batching saves lookups, not
    // hit rate.
    assert_eq!((thrash.hit_rate(), batched.hit_rate()), (0.0, 0.0));
    let thrash_misses: u64 = thrash.models.iter().map(|m| m.cache.misses).sum();
    let batched_misses: u64 = batched.models.iter().map(|m| m.cache.misses).sum();
    assert!(
        batched_misses * 3 <= thrash_misses,
        "batching must cut reprogramming ≥3×: {batched_misses} vs {thrash_misses}"
    );
}
