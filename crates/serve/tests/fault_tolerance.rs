//! Fault-injection properties of the serving engine.
//!
//! The contract under test: a [`FaultPlan`] keyed on the global batch
//! dispatch counter makes every fault decision — failover target, retry
//! count, shed set, recovery — deterministic. The decisions match across
//! worker counts for a fixed plan on replicated chips with roomy budgets
//! and for a kill on a recovery destination; other mixes may differ by
//! worker count in their counters, never in their answers. Because
//! replicas share each model's admission seed (and recovery restores
//! programmed state bit-exactly from the PCM snapshot), every request
//! that survives answers byte-identically to a cluster that never
//! faulted. Nothing is ever silently lost: every submitted request ends
//! as exactly one completion or one structured shed notice.

use oxbar_nn::synthetic::{self, small_network};
use oxbar_serve::request::request_seed;
use oxbar_serve::{
    catalog, BatchPolicy, ChipHealth, FaultPlan, InferRequest, ModelId, ModelSpec, PlacementPolicy,
    RequestId, ServeConfig, ServeEngine, ShedNotice,
};
use oxbar_sim::{DeviceExecutor, SimConfig};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::BTreeMap;

/// Two random small sequential networks as the resident models.
fn random_specs(seed: u64) -> [ModelSpec; 2] {
    [
        catalog::spec_from_network(small_network(seed), seed ^ 0x11),
        catalog::spec_from_network(small_network(seed ^ 0x7F3), seed ^ 0x22),
    ]
}

/// Everything a faulted run must keep invariant under the worker count.
struct FaultedRun {
    /// Request id → output values, survivors only.
    outputs: BTreeMap<RequestId, Vec<i64>>,
    /// Structured shed notices, sorted by request id.
    sheds: Vec<ShedNotice>,
    stats: oxbar_serve::EngineStats,
}

/// Serves one drain of `(spec index, arrival, deadline)` requests on an
/// engine built from `config`; request `i`'s input is seeded from
/// `(seed, i)`.
fn serve_trace(
    config: ServeConfig,
    specs: &[ModelSpec],
    seed: u64,
    requests: impl IntoIterator<Item = (usize, u64, Option<u64>)>,
) -> FaultedRun {
    let mut engine = ServeEngine::new(config);
    let ids: Vec<ModelId> = specs
        .iter()
        .map(|s| engine.admit(s.clone()).expect("small models admit"))
        .collect();
    for (i, (which, arrival, deadline)) in (0u64..).zip(requests) {
        engine
            .try_submit(InferRequest {
                model: ids[which],
                input: synthetic::activations(
                    specs[which].network.input(),
                    6,
                    request_seed(seed ^ 0xBEEF, i),
                ),
                arrival,
                deadline,
            })
            .expect("trace requests are valid");
    }
    let trace = engine.drain_traced();
    let outputs = trace
        .completions
        .iter()
        .map(|c| (c.id, c.output.data().to_vec()))
        .collect();
    let mut sheds = trace.sheds;
    sheds.sort_by_key(|s| s.id);
    FaultedRun {
        outputs,
        sheds,
        stats: engine.stats(),
    }
}

/// Runs an `n`-request trace (mixed across `specs`, arrivals `i / 2`,
/// deadlines chosen by `deadline_of`) through an engine built from
/// `config`, one drain.
fn faulted_trace(
    config: ServeConfig,
    specs: &[ModelSpec],
    seed: u64,
    n: u64,
    deadline_of: impl Fn(u64, u64) -> Option<u64>,
) -> FaultedRun {
    let requests = (0..n).map(|i| {
        let which = (request_seed(seed, i) % specs.len() as u64) as usize;
        let arrival = i / 2;
        (which, arrival, deadline_of(i, arrival))
    });
    serve_trace(config, specs, seed, requests)
}

/// Body of the worker-count invariance property, kept outside the
/// `proptest!` macro (the shim's token-munching expansion can't swallow
/// a body this long).
fn check_worker_count_invariance(seed: u64) -> Result<(), TestCaseError> {
    let specs = random_specs(seed);
    let device = SimConfig::ideal(32, 16).with_seed(seed).with_threads(1);
    let n = 10u64;
    let plan = FaultPlan::new().kill_chip(seed % 6, (seed % 3) as usize);
    let base = ServeConfig::new(device)
        .with_policy(BatchPolicy::new(1 + (seed % 3) as usize, seed % 5))
        .with_chips(vec![200_000; 3])
        .with_placement(PlacementPolicy::Replicated(2))
        .with_faults(plan);
    // Tight deadlines on a third of the trace so the deadline-shed rule
    // gets exercised when the kill lands mid-trace.
    let deadline_of = |i: u64, arrival: u64| {
        if request_seed(seed ^ 0xD1E, i).is_multiple_of(3) {
            Some(arrival + 1)
        } else {
            None
        }
    };
    let serial = faulted_trace(base.clone().with_workers(1), &specs, seed, n, deadline_of);
    let wide = faulted_trace(base.clone().with_workers(3), &specs, seed, n, deadline_of);

    // Conservation: every request completes or sheds, never both, never
    // neither.
    for run in [&serial, &wide] {
        prop_assert_eq!(run.outputs.len() + run.sheds.len(), n as usize);
        prop_assert!(run.sheds.iter().all(|s| !run.outputs.contains_key(&s.id)));
        prop_assert_eq!(run.stats.sheds, run.sheds.len() as u64);
    }

    // Worker-count invariance of everything a client can observe.
    prop_assert_eq!(&serial.outputs, &wide.outputs);
    let shed_ids = |run: &FaultedRun| run.sheds.iter().map(|s| s.id).collect::<Vec<_>>();
    prop_assert_eq!(shed_ids(&serial), shed_ids(&wide));
    prop_assert_eq!(serial.stats.retries, wide.stats.retries);
    prop_assert_eq!(serial.stats.recoveries, wide.stats.recoveries);

    // Survivors answer byte-identically to a cluster that never faulted:
    // replicas and snapshot recovery share the admission seed, so
    // failover is invisible in outputs.
    let oracle = faulted_trace(
        base.with_faults(FaultPlan::new()).with_workers(1),
        &specs,
        seed,
        n,
        deadline_of,
    );
    prop_assert!(oracle.sheds.is_empty(), "no faults → nothing sheds");
    for (id, output) in &serial.outputs {
        prop_assert_eq!(Some(output), oracle.outputs.get(id));
    }
    Ok(())
}

/// Body of the random fault-mix property: one to three kills on 2–4
/// chips under every placement policy, with roomy budgets or budgets of
/// one model each (so models migrate), at 1–4 workers.
fn check_random_fault_mix(seed: u64) -> Result<(), TestCaseError> {
    let draw = |k: u64| request_seed(seed ^ 0xFA17, k);
    let device = SimConfig::ideal(32, 16).with_seed(seed).with_threads(1);
    let network = small_network(seed);
    let footprint = DeviceExecutor::new(device.clone()).model_footprint_cells(&network);
    let specs: Vec<ModelSpec> = (0..2 + draw(1) % 3)
        .map(|m| catalog::spec_from_network(network.clone(), 100 + m))
        .collect();
    let chips = 2 + (draw(2) % 3) as usize;
    let n = 8 + draw(3) % 9;
    let mut plan = FaultPlan::new();
    for k in 0..1 + draw(4) % 3 {
        plan = plan.kill_chip(draw(10 + k) % n, (draw(20 + k) % chips as u64) as usize);
    }
    let placement = [
        PlacementPolicy::FirstFit,
        PlacementPolicy::LeastLoaded,
        PlacementPolicy::Replicated(2),
    ][(draw(7) % 3) as usize];
    let budget = if draw(8).is_multiple_of(2) {
        footprint
    } else {
        200_000
    };
    let base = ServeConfig::new(device)
        .with_policy(BatchPolicy::new(1 + (draw(9) % 3) as usize, draw(60) % 4))
        .with_chips(vec![budget; chips])
        .with_placement(placement)
        .with_prewarm(draw(61).is_multiple_of(2));
    let models = specs.len() as u64;
    let requests = || {
        (0..n).map(move |i| {
            let arrival = i / 2;
            let which = (draw(100 + i) % models) as usize;
            (
                which,
                arrival,
                draw(200 + i).is_multiple_of(4).then_some(arrival + 1),
            )
        })
    };
    let oracle = serve_trace(base.clone(), &specs, seed, requests());
    for workers in 1..=4 {
        let config = base.clone().with_workers(workers).with_faults(plan.clone());
        let run = serve_trace(config, &specs, seed, requests());
        prop_assert_eq!(run.outputs.len() + run.sheds.len(), n as usize);
        for shed in &run.sheds {
            prop_assert!(!run.outputs.contains_key(&shed.id));
            // Fates never pick a chip whose executors are dead, so no
            // batch is ever refused at run time.
            prop_assert!(!shed.detail.contains("refused"), "{}", shed.detail);
        }
        for (id, output) in &run.outputs {
            prop_assert_eq!(Some(output), oracle.outputs.get(id));
        }
        let chip_retries: u64 = run.stats.chips.iter().map(|c| c.retries).sum();
        let chip_sheds: u64 = run.stats.chips.iter().map(|c| c.sheds).sum();
        prop_assert_eq!(chip_retries, run.stats.retries);
        prop_assert_eq!(chip_sheds, run.stats.sheds);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // A fixed fault plan on a replicated 3-chip cluster: worker count
    // changes nothing observable (outputs, shed set, retry/shed/recovery
    // counters), no request is lost, and every survivor answers exactly
    // what the never-faulted oracle answers.
    #[test]
    fn faulted_serving_is_worker_count_invariant_and_loses_nothing(seed in 0u64..10_000) {
        check_worker_count_invariance(seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random fault mixes, placements, budgets and worker counts: nothing
    // is lost, no batch meets a dead executor, every survivor answers
    // like the never-faulted oracle, and per-chip counters reconcile.
    #[test]
    fn random_fault_mixes_lose_nothing_at_any_worker_count(seed in 0u64..10_000) {
        check_random_fault_mix(seed)?;
    }
}

#[test]
fn replicated_cluster_survives_a_mid_trace_chip_kill_without_recovery() {
    // One model replicated on both chips; chip 1 dies mid-trace. Requests
    // whose turn fell on chip 1 fail over to its replica — no snapshot
    // recovery, no sheds, zero lost — and answer exactly what the
    // no-fault cluster answers.
    let specs = random_specs(42);
    let device = SimConfig::ideal(32, 16).with_seed(42).with_threads(1);
    let base = ServeConfig::new(device)
        .with_policy(BatchPolicy::new(1, 0)) // one request per batch: seq == submit order
        .with_chips(vec![200_000, 200_000])
        .with_placement(PlacementPolicy::Replicated(2));
    let run = faulted_trace(
        base.clone().with_faults(FaultPlan::new().kill_chip(4, 1)),
        &specs,
        42,
        8,
        |_, _| None,
    );
    assert_eq!(run.outputs.len(), 8, "zero lost");
    assert!(run.sheds.is_empty(), "replica absorbs the kill");
    assert_eq!(run.stats.recoveries, 0, "failover, not recovery");
    // Post-kill, every odd dispatch seq (whose turn was chip 1) retried
    // onto chip 0: seqs 5 and 7.
    assert_eq!(run.stats.retries, 2);
    assert_eq!(
        run.stats.chips[1].retries, 2,
        "retries charge the failed chip"
    );
    assert_eq!(run.stats.chips[1].health, ChipHealth::Failed);
    assert_eq!(run.stats.chips[0].health, ChipHealth::Healthy);

    let oracle = faulted_trace(base, &specs, 42, 8, |_, _| None);
    assert_eq!(
        run.outputs, oracle.outputs,
        "failover is invisible in outputs"
    );
}

#[test]
fn unreplicated_model_recovers_from_its_snapshot_after_a_chip_kill() {
    // Single-residency placement: when the home chip dies there is no
    // replica, so the engine restores the model's programmed state from
    // its PCM snapshot onto the surviving chip. Zero lost, one recovery,
    // outputs unchanged.
    let device = SimConfig::ideal(128, 128).with_threads(1);
    let base = ServeConfig::new(device)
        .with_policy(BatchPolicy::new(1, 0))
        .with_chips(vec![100_000, 100_000])
        .with_placement(PlacementPolicy::FirstFit);
    let serve = |plan: FaultPlan| {
        let mut engine = ServeEngine::new(base.clone().with_faults(plan));
        let a = engine.admit(catalog::lenet5_model()).unwrap();
        let shape = engine.input_shape(a);
        for i in 0..6u64 {
            engine
                .try_submit(InferRequest {
                    model: a,
                    input: synthetic::activations(shape, 6, i),
                    arrival: i,
                    deadline: None,
                })
                .expect("valid request");
        }
        let trace = engine.drain_traced();
        (trace, engine.stats())
    };

    let (trace, stats) = serve(FaultPlan::new().kill_chip(3, 0));
    assert_eq!(trace.completions.len(), 6, "zero lost");
    assert!(trace.sheds.is_empty());
    assert_eq!(stats.recoveries, 1, "snapshot restore onto the survivor");
    assert!(stats.recovery_ms >= 0.0);
    assert_eq!(stats.chips[0].health, ChipHealth::Failed);
    assert_eq!(stats.models[0].chip, 1, "model now lives on the survivor");
    // The pre-kill cache state came along with the snapshot: replaying a
    // warm request after recovery must not reprogram tiles.
    assert!(stats.models[0].cache.hits > 0);

    let (oracle, _) = serve(FaultPlan::new());
    let outputs = |t: &oxbar_serve::DrainTrace| {
        let mut v: Vec<_> = t
            .completions
            .iter()
            .map(|c| (c.id, c.output.data().to_vec()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(outputs(&trace), outputs(&oracle), "recovery is bit-exact");
}

#[test]
fn failover_sheds_only_requests_whose_deadline_became_unreachable() {
    // Unreplicated model, home chip killed at dispatch seq 3. Requests
    // already served keep their answers; of the failed-over tail, only
    // the one whose deadline precedes its batch's latest arrival sheds —
    // with a structured notice naming the cause — and the rest recover
    // and complete.
    let specs = random_specs(7);
    let device = SimConfig::ideal(32, 16).with_seed(7).with_threads(1);
    let spec = &specs[..1];
    let base = ServeConfig::new(device)
        .with_policy(BatchPolicy::new(1, 0))
        .with_chips(vec![200_000, 200_000])
        .with_placement(PlacementPolicy::FirstFit);
    let deadline_of = |i: u64, arrival: u64| {
        if i == 3 {
            Some(arrival - 1) // already missed when it arrives
        } else {
            Some(arrival + 10_000)
        }
    };
    let run = faulted_trace(
        base.clone().with_faults(FaultPlan::new().kill_chip(3, 0)),
        spec,
        7,
        6,
        deadline_of,
    );
    assert_eq!(run.sheds.len(), 1, "exactly the doomed request sheds");
    assert_eq!(run.sheds[0].id, RequestId(3));
    assert!(
        run.sheds[0].detail.contains("deadline unreachable"),
        "notice names the cause: {}",
        run.sheds[0].detail
    );
    assert_eq!(run.outputs.len(), 5);
    assert_eq!(run.stats.sheds, 1);
    assert_eq!(run.stats.chips[0].sheds, 1, "shed charges the failed chip");
    assert_eq!(run.stats.recoveries, 1);

    // Tight deadlines without a fault shed nothing: shedding is strictly
    // a failover decision, never an admission-time one.
    let calm = faulted_trace(base, spec, 7, 6, deadline_of);
    assert!(calm.sheds.is_empty());
    assert_eq!(calm.outputs.len(), 6);
}

#[test]
fn losing_every_chip_sheds_the_remaining_trace_structurally() {
    // Kill the only chip mid-trace: everything not yet served must come
    // back as a structured shed notice — no panic, no hang, no silent
    // loss — and the engine stays usable for stats.
    let specs = random_specs(3);
    let device = SimConfig::ideal(32, 16).with_seed(3).with_threads(1);
    let run = faulted_trace(
        ServeConfig::new(device)
            .with_policy(BatchPolicy::new(1, 0))
            .with_chips(vec![200_000])
            .with_faults(FaultPlan::new().kill_chip(2, 0)),
        &specs,
        3,
        6,
        |_, _| None,
    );
    assert_eq!(run.outputs.len(), 2, "pre-kill requests completed");
    assert_eq!(run.sheds.len(), 4, "post-kill requests shed");
    assert!(run
        .sheds
        .iter()
        .all(|s| s.detail.contains("no healthy chip")));
    assert_eq!(run.stats.sheds, 4);
    assert_eq!(run.stats.recoveries, 0, "nowhere to recover to");
    assert_eq!(run.stats.chips[0].health, ChipHealth::Failed);
}

#[test]
fn a_kill_on_a_recovery_destination_recovers_again_for_any_worker_count() {
    // One unreplicated model on three chips. Chip 0 dies at dispatch 1,
    // so the model is restored onto chip 1; chip 1 — the recovery
    // destination — dies at dispatch 4, so it is restored again, onto
    // chip 2. Each kill re-routes exactly one batch and charges it to
    // the chip that died, whatever the worker count.
    let specs = &random_specs(7)[..1];
    let device = SimConfig::ideal(32, 16).with_seed(7).with_threads(1);
    let base = ServeConfig::new(device)
        .with_policy(BatchPolicy::new(1, 0))
        .with_chips(vec![200_000; 3])
        .with_placement(PlacementPolicy::FirstFit);
    let requests = || (0..8).map(|i| (0, i, None));
    let oracle = serve_trace(base.clone(), specs, 7, requests());
    for workers in [1, 3] {
        let plan = FaultPlan::new().kill_chip(1, 0).kill_chip(4, 1);
        let run = serve_trace(
            base.clone().with_workers(workers).with_faults(plan),
            specs,
            7,
            requests(),
        );
        assert_eq!(run.outputs, oracle.outputs, "{workers} workers: outputs");
        assert!(run.sheds.is_empty(), "{workers} workers: nothing sheds");
        assert_eq!(run.stats.recoveries, 2, "{workers} workers: recoveries");
        assert_eq!(run.stats.retries, 2, "{workers} workers: retries");
        let per_chip: Vec<u64> = run.stats.chips.iter().map(|c| c.retries).collect();
        assert_eq!(per_chip, [1, 1, 0], "{workers} workers: per-chip retries");
    }
}

#[test]
fn a_kill_on_a_migration_destination_loses_nothing() {
    // Three chips that each fit one model and four models: model 3
    // overflows onto chip 0, so alternating traffic on models 0 and 3
    // makes chip 0 migrate one of them to an idle sibling. A kill of
    // chip 1 anywhere in the trace must find the models that live there
    // now. Which model migrates depends on the worker count (budgets are
    // enforced once per round), so worker invariance is not asserted.
    let device = SimConfig::ideal(32, 16).with_seed(7).with_threads(1);
    let network = small_network(7);
    let footprint = DeviceExecutor::new(device.clone()).model_footprint_cells(&network);
    let specs: Vec<ModelSpec> = (100..104)
        .map(|seed| catalog::spec_from_network(network.clone(), seed))
        .collect();
    let base = ServeConfig::new(device)
        .with_policy(BatchPolicy::new(1, 0))
        .with_chips(vec![footprint; 3])
        .with_placement(PlacementPolicy::FirstFit);
    let requests = || (0..12).map(|i| (if i % 2 == 0 { 0 } else { 3 }, i, None));
    let oracle = serve_trace(base.clone(), &specs, 7, requests());
    assert_eq!(oracle.outputs.len(), 12);
    for workers in [1, 3] {
        for kill in 2..10 {
            let config = base
                .clone()
                .with_workers(workers)
                .with_faults(FaultPlan::new().kill_chip(kill, 1));
            let run = serve_trace(config, &specs, 7, requests());
            let case = format!("{workers} workers, kill at {kill}");
            assert_eq!(
                run.outputs.len() + run.sheds.len(),
                12,
                "{case}: conservation"
            );
            for (id, output) in &run.outputs {
                assert_eq!(Some(output), oracle.outputs.get(id), "{case}: {id:?}");
            }
            let per_chip: u64 = run.stats.chips.iter().map(|c| c.retries).sum();
            assert_eq!(per_chip, run.stats.retries, "{case}: retries reconcile");
        }
    }
}
