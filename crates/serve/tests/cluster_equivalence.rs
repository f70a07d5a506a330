//! Cluster-layer equivalence properties.
//!
//! Three invariants make the multi-chip refactor safe to ship:
//!
//! 1. **a chip too small for a model answers like an unbounded one**: on
//!    a noisy device, a chip whose budget is half the larger model's
//!    footprint (so that model's overflow tiles are reprogrammed every
//!    batch, from remembered noise draws) answers byte-identically to a
//!    `usize::MAX` chip, across random policies and worker counts;
//! 2. **multi-chip serving changes work, not results**: the same trace on
//!    a 2-chip cluster answers byte-identically to one big chip, and at
//!    any worker count observes the same completions, in the same order,
//!    and the same stats (a round is as wide as the cluster, so the
//!    worker count only picks threads);
//! 3. an **over-budget hot spot migrates** models between chips during
//!    serving — programmed tiles and all, bit-exact, no eviction — when
//!    a sibling has occupancy room.

use oxbar_nn::reference::Tensor3;
use oxbar_nn::synthetic::{self, small_network};
use oxbar_serve::request::request_seed;
use oxbar_serve::{
    catalog, BatchPolicy, ChipId, Completion, EngineStats, InferRequest, ModelId, ModelSpec,
    PlacementPolicy, RequestId, ServeConfig, ServeEngine,
};
use oxbar_sim::{DeviceExecutor, SimConfig};
use proptest::prelude::*;

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

/// Two random small sequential networks as the resident models.
fn random_specs(seed: u64) -> [ModelSpec; 2] {
    [
        catalog::spec_from_network(small_network(seed), seed ^ 0x11),
        catalog::spec_from_network(small_network(seed ^ 0x7F3), seed ^ 0x22),
    ]
}

/// Runs the same random 8-request trace through an engine built from
/// `config`, returning the completions in drain order and the final
/// stats.
fn serve_trace(
    config: ServeConfig,
    specs: &[ModelSpec],
    seed: u64,
) -> (Vec<Completion>, EngineStats) {
    let mut engine = ServeEngine::new(config);
    let ids: Vec<ModelId> = specs
        .iter()
        .map(|s| engine.admit(s.clone()).expect("sequential models admit"))
        .collect();
    for i in 0..8u64 {
        let which = (request_seed(seed, i) % specs.len() as u64) as usize;
        engine
            .try_submit(InferRequest {
                model: ids[which],
                input: synthetic::activations(
                    specs[which].network.input(),
                    6,
                    request_seed(seed ^ 0xBEEF, i),
                ),
                arrival: i / 2,
                deadline: None,
            })
            .expect("valid request");
    }
    (engine.drain_traced().completions, engine.stats())
}

/// Every request's output, in request-id order.
fn outputs(done: &[Completion]) -> Vec<(RequestId, &[i64])> {
    let mut out: Vec<_> = done.iter().map(|c| (c.id, c.output.data())).collect();
    out.sort_unstable_by_key(|&(id, _)| id);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn an_overflowing_chip_answers_like_an_unbounded_one(seed in 0u64..10_000) {
        let specs = random_specs(seed);
        let device = SimConfig::noisy(16, 8).with_seed(seed).with_threads(1);
        let footprint = specs
            .iter()
            .map(|s| DeviceExecutor::new(device.clone()).model_footprint_cells(&s.network))
            .max()
            .expect("two models");
        let base = ServeConfig::new(device)
            .with_policy(BatchPolicy::new(1 + (seed % 5) as usize, seed % 7))
            .with_workers(1 + (seed % 3) as usize);
        let tight = serve_trace(base.clone().with_chips(vec![footprint / 2]), &specs, seed);
        let unbounded = serve_trace(base.with_chips(vec![usize::MAX]), &specs, seed);
        prop_assert_eq!(outputs(&tight.0), outputs(&unbounded.0));
    }

    #[test]
    fn multi_chip_serving_changes_work_not_results(seed in 0u64..10_000) {
        let specs = random_specs(seed);
        let device = SimConfig::ideal(32, 16).with_seed(seed).with_threads(1);
        // Half the cases run roomy chips, half run per-chip budgets tight
        // enough to force eviction/migration churn.
        let per_chip = if seed % 2 == 0 { 1_000_000 } else { 3_000 };
        let placement = if seed % 2 == 0 {
            PlacementPolicy::LeastLoaded
        } else {
            PlacementPolicy::FirstFit
        };
        let dual = ServeConfig::new(device.clone())
            .with_policy(BatchPolicy::new(1 + (seed % 5) as usize, seed % 7))
            .with_chips(vec![per_chip, per_chip])
            .with_placement(placement);
        let serial = serve_trace(dual.clone().with_workers(1), &specs, seed);
        let wide = serve_trace(dual.clone().with_workers(3), &specs, seed);
        // The worker count only picks threads: completions, their order
        // and every counter (evictions, migrations, placement) are the
        // same.
        prop_assert_eq!(&serial, &wide);
        // The same trace on one big chip answers identically: sharding
        // (and any migration/eviction it causes) never touches results.
        let single = serve_trace(dual.with_chips(vec![2 * per_chip]), &specs, seed);
        prop_assert_eq!(outputs(&serial.0), outputs(&single.0));
    }
}

#[test]
fn overflow_hot_spot_migrates_between_chips_during_serving() {
    // Three ~61k-cell LeNets on two 100k-cell chips: first fit pins A to
    // chip 0 and B to chip 1; C's footprint has committed room nowhere,
    // so permissive admission overflows it onto the least-committed chip
    // (the tie breaks to chip 0). Serving A then C pushes chip 0 to
    // ~122k resident cells, and enforcement must MIGRATE the LRU model A
    // to chip 1 — which has occupancy room because B never served — not
    // evict it.
    let device = SimConfig::ideal(128, 128).with_threads(1);
    let config = ServeConfig::new(device.clone()).with_chips(vec![100_000, 100_000]);
    let mut engine = ServeEngine::new(config);
    let a = engine.admit(catalog::lenet5_model()).unwrap();
    let b = engine.admit(catalog::lenet5_model()).unwrap();
    let c = engine.admit(catalog::lenet5_model()).unwrap();
    assert_eq!(engine.registry().chip_of(a), ChipId(0));
    assert_eq!(engine.registry().chip_of(b), ChipId(1));
    assert_eq!(
        engine.registry().chip_of(c),
        ChipId(0),
        "overflow lands on chip 0"
    );

    let shape = engine.input_shape(a);
    let input = move |seed| synthetic::activations(shape, 6, seed);
    submit_at_zero(&mut engine, a, input(1));
    submit_at_zero(&mut engine, c, input(2));
    let done = engine.drain_traced().completions;
    assert_eq!(done.len(), 2);

    let stats = engine.stats();
    assert_eq!(stats.evictions, 0, "a sibling had room: no eviction");
    assert_eq!(stats.migrations, 1, "the hot spot resolved by migration");
    assert_eq!(engine.registry().chip_of(a), ChipId(1), "LRU model A moved");
    assert_eq!(stats.chips[1].migrations_in, 1);
    assert_eq!(stats.chips[0].migrations_out, 1);
    assert_eq!(stats.chips[0].models, 1, "C remains on chip 0");
    assert_eq!(stats.chips[1].models, 2, "B plus the migrated A");
    assert!(stats.chips[0].occupancy_cells <= 100_000);
    assert!(stats.chips[1].occupancy_cells <= 100_000);

    // Per-chip stats reconcile with the per-model breakdown.
    let model_hits: u64 = stats.models.iter().map(|m| m.cache.hits).sum();
    let model_misses: u64 = stats.models.iter().map(|m| m.cache.misses).sum();
    let chip_hits: u64 = stats.chips.iter().map(|c| c.hits).sum();
    let chip_misses: u64 = stats.chips.iter().map(|c| c.misses).sum();
    assert_eq!((chip_hits, chip_misses), (model_hits, model_misses));
    let chip_occ: usize = stats.chips.iter().map(|c| c.occupancy_cells).sum();
    assert_eq!(chip_occ, stats.occupancy_cells);

    // Migration kept A's programmed state resident: serving it again is
    // pure cache hits, and the answer matches a one-big-chip engine that
    // never sharded (admission seeds are global, so model A is the same
    // device in both worlds).
    let misses_before = stats.models[a.0].cache.misses;
    submit_at_zero(&mut engine, a, input(1));
    let replay = engine.drain_traced().completions;
    assert_eq!(
        engine.stats().models[a.0].cache.misses,
        misses_before,
        "migrated state serves without reprogramming"
    );

    let mut oracle = ServeEngine::new(ServeConfig::new(device).with_cache_budget(1_000_000));
    let oa = oracle.admit(catalog::lenet5_model()).unwrap();
    oracle.admit(catalog::lenet5_model()).unwrap();
    oracle.admit(catalog::lenet5_model()).unwrap();
    submit_at_zero(&mut oracle, oa, input(1));
    let expect = oracle.drain_traced().completions;
    assert_eq!(oa, a);
    assert_eq!(
        replay[0].output, expect[0].output,
        "migration must never change what a model answers"
    );
}
