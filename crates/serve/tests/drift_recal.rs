//! Drift-aware self-healing properties of the serving engine.
//!
//! The contract under test has two halves. With aging **disabled** (the
//! default device config), the entire drift machinery — the virtual tile
//! clock, the health monitor, the recalibration stage — is structurally
//! inert: outputs, eviction sequences, and stats are byte-identical with
//! recalibration on or off and across worker counts. With aging
//! **enabled**, every drift decision is keyed on the global batch
//! dispatch counter at single-threaded drain boundaries — never wall
//! clock — so even a trace that ages tiles past the accuracy budget,
//! degrades chips, recalibrates them back, and races a mid-trace chip
//! kill through replicated failover stays byte-identical across worker
//! counts; and a recalibration planned for a chip that dies is dropped
//! structurally, never dispatched or retried.

use oxbar_nn::synthetic::{self, small_network};
use oxbar_serve::request::request_seed;
use oxbar_serve::{
    catalog, BatchPolicy, ChipHealth, EngineStats, FaultPlan, InferRequest, ModelId, ModelSpec,
    PlacementPolicy, RequestId, ServeConfig, ServeEngine,
};
use oxbar_sim::{DeviceExecutor, SimConfig};
use oxbar_units::Time;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::BTreeMap;

/// A per-tick aging rate that gives the noisy device a single-digit
/// accuracy budget (measured: 4 ticks), so short traces cross it.
const AGING_TICK_SECONDS: f64 = 1e4;

/// Everything a drift run must keep invariant under the worker count.
#[derive(Debug, PartialEq)]
struct DriftRun {
    /// Request id → output values, survivors only.
    outputs: BTreeMap<RequestId, Vec<i64>>,
    /// Shed request ids, ascending.
    sheds: Vec<RequestId>,
    /// Final chip health states, by chip index.
    health: Vec<ChipHealth>,
    stats: EngineStats,
}

/// Runs an `n`-request trace through `waves` drains (aging advances at
/// drain boundaries, so multi-drain traces are what age tiles), two
/// random small models, arrivals `i`, no deadlines unless `deadline_of`
/// says otherwise.
fn drift_trace(
    config: ServeConfig,
    specs: &[ModelSpec],
    seed: u64,
    n: u64,
    waves: u64,
) -> DriftRun {
    let mut engine = ServeEngine::new(config);
    let ids: Vec<ModelId> = specs
        .iter()
        .map(|s| engine.admit(s.clone()).expect("small models admit"))
        .collect();
    let mut outputs = BTreeMap::new();
    let mut sheds = Vec::new();
    let per_wave = n.div_ceil(waves);
    for wave in 0..waves {
        for i in (wave * per_wave)..((wave + 1) * per_wave).min(n) {
            let which = (request_seed(seed, i) % specs.len() as u64) as usize;
            engine
                .try_submit(InferRequest {
                    model: ids[which],
                    input: synthetic::activations(
                        specs[which].network.input(),
                        6,
                        request_seed(seed ^ 0xBEEF, i),
                    ),
                    arrival: i,
                    deadline: None,
                })
                .expect("valid request");
        }
        let trace = engine.drain_traced();
        for c in trace.completions {
            outputs.insert(c.id, c.output.data().to_vec());
        }
        sheds.extend(trace.sheds.iter().map(|s| s.id));
    }
    sheds.sort_unstable();
    let stats = engine.stats();
    DriftRun {
        outputs,
        sheds,
        health: stats.chips.iter().map(|c| c.health).collect(),
        stats,
    }
}

/// Two random small sequential networks as the resident models.
fn random_specs(seed: u64) -> [ModelSpec; 2] {
    [
        catalog::spec_from_network(small_network(seed), seed ^ 0x11),
        catalog::spec_from_network(small_network(seed ^ 0x7F3), seed ^ 0x22),
    ]
}

/// An aging noisy device: drift exponent from the paper-typical noise
/// model plus a per-tick aging rate.
fn aging_device(seed: u64) -> SimConfig {
    SimConfig::noisy(32, 16)
        .with_seed(seed)
        .with_threads(1)
        .with_drift_tick(Time::from_seconds(AGING_TICK_SECONDS))
}

/// Body of the no-drift inertness property, outside the `proptest!`
/// macro (the shim's expansion can't swallow long bodies).
fn check_inert_without_drift(seed: u64) -> Result<(), TestCaseError> {
    let specs = random_specs(seed);
    // Noisy but NOT aging: drift_tick stays zero.
    let device = SimConfig::noisy(32, 16).with_seed(seed).with_threads(1);
    // A small cache budget so evictions happen mid-trace.
    let base = ServeConfig::new(device)
        .with_policy(BatchPolicy::new(1 + (seed % 3) as usize, seed % 5))
        .with_chips(vec![60_000; 2]);
    let reference = drift_trace(
        base.clone().with_workers(1).with_recalibration(false),
        &specs,
        seed,
        10,
        4,
    );
    prop_assert_eq!(reference.outputs.len(), 10);
    for workers in [1usize, 2, 4] {
        // At a fixed worker count, recalibration on vs off changes
        // *nothing* — the full stats structs are byte-identical.
        let off = drift_trace(
            base.clone().with_workers(workers).with_recalibration(false),
            &specs,
            seed,
            10,
            4,
        );
        let on = drift_trace(
            base.clone().with_workers(workers).with_recalibration(true),
            &specs,
            seed,
            10,
            4,
        );
        prop_assert_eq!(&on.stats, &off.stats);
        // Across worker counts, outputs and the eviction sequence are
        // byte-identical (prewarm stage counts legitimately vary with
        // round composition, so the comparison is functional state).
        for run in [&off, &on] {
            prop_assert_eq!(&run.outputs, &reference.outputs);
            prop_assert_eq!(&run.sheds, &reference.sheds);
            prop_assert_eq!(run.stats.evictions, reference.stats.evictions);
            prop_assert_eq!(run.stats.migrations, reference.stats.migrations);
            prop_assert_eq!(run.stats.occupancy_cells, reference.stats.occupancy_cells);
            prop_assert_eq!(run.stats.recalibrations, 0);
            prop_assert_eq!(run.stats.recalibrated_tiles, 0);
            prop_assert_eq!(run.stats.drift_budget_breaches, 0);
            prop_assert_eq!(run.stats.drift_heals, 0);
            prop_assert_eq!(run.stats.stage_panics, 0);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // With drift disabled, outputs, eviction sequences, and stats are
    // byte-identical with recalibration on vs off and across worker
    // counts.
    #[test]
    fn drift_machinery_is_inert_without_drift(seed in 0u64..1000) {
        check_inert_without_drift(seed)?;
    }
}

/// Summed |Δ| between a run's outputs and a reference run, over the
/// request-id range `[lo, hi)`.
fn total_delta(run: &DriftRun, reference: &DriftRun, lo: u64, hi: u64) -> u64 {
    let mut total = 0u64;
    for (id, outputs) in &run.outputs {
        if id.0 < lo || id.0 >= hi {
            continue;
        }
        let baseline = &reference.outputs[id];
        assert_eq!(outputs.len(), baseline.len());
        for (a, b) in outputs.iter().zip(baseline) {
            total += a.abs_diff(*b);
        }
    }
    total
}

/// With aging enabled, a trace long enough to breach the accuracy
/// budget degrades the chip, marks the oldest tiles for recalibration
/// (each re-derives at fresh-program state at its next read), and heals
/// the chip — and the self-healing engine's divergence from an engine
/// whose tiles never aged stays bounded by the accuracy budget (every
/// tile serves within `budget` ticks of its last programming), while
/// the unhealed engine's divergence grows with its unbounded tile age.
#[test]
fn recalibration_restores_accuracy_and_heals() {
    let specs = random_specs(9);
    let budget = DeviceExecutor::new(aging_device(9))
        .drift_budget_ticks()
        .expect("aging device has a bounded budget");
    assert!(budget > 0 && budget < 16, "test assumes a small budget");
    let base = ServeConfig::new(aging_device(9)).with_policy(BatchPolicy::SINGLE);
    let n = 4 * (budget + 1);
    let waves = n; // one request per drain: ages advance every request
    let healed = drift_trace(base.clone(), &specs, 9, n, waves);
    let fresh = drift_trace(
        ServeConfig::new(SimConfig::noisy(32, 16).with_seed(9).with_threads(1))
            .with_policy(BatchPolicy::SINGLE),
        &specs,
        9,
        n,
        waves,
    );
    // The budget was breached and the engine recalibrated and healed.
    assert!(healed.stats.drift_budget_breaches > 0);
    assert!(healed.stats.recalibrations > 0);
    assert!(healed.stats.recalibrated_tiles > 0);
    assert!(healed.stats.drift_heals > 0);
    assert_eq!(healed.health, vec![ChipHealth::Healthy]);
    assert_eq!(healed.sheds.len(), 0, "self-healing never sheds");
    assert_eq!(healed.outputs.len(), n as usize);
    // An identical engine with recalibration off breaches the budget
    // but never recovers: it is left degraded at end of trace.
    let unhealed = drift_trace(base.with_recalibration(false), &specs, 9, n, waves);
    assert_eq!(unhealed.stats.recalibrations, 0);
    assert_eq!(unhealed.stats.drift_heals, 0);
    assert!(unhealed.stats.drift_budget_breaches > 0);
    assert_eq!(unhealed.health, vec![ChipHealth::Degraded]);
    // Before the first breach (ticks 0..=budget) the two engines are
    // bit-identical — recalibration is pure standby until then.
    let prefix = budget + 1;
    assert_eq!(total_delta(&healed, &unhealed, 0, prefix), 0);
    // After recalibration kicks in, the healed engine's tiles always
    // serve within `budget` ticks of their last programming while the
    // unhealed engine's age grows without bound: over the post-breach
    // trace the healed engine tracks the never-aged reference strictly
    // closer than the unhealed one. (Per-request deltas are not
    // monotone in age — the quantized layers amplify analog slip
    // unevenly — so the comparison is the summed divergence.)
    let healed_tail = total_delta(&healed, &fresh, prefix, n);
    let unhealed_tail = total_delta(&unhealed, &fresh, prefix, n);
    assert!(
        healed_tail < unhealed_tail,
        "healed divergence {healed_tail} !< unhealed divergence {unhealed_tail}"
    );
}

/// Drift × fault interaction: recalibration racing a mid-trace chip
/// kill through replicated failover stays byte-identical across worker
/// counts 1, 2, and 4.
#[test]
fn recal_racing_chip_kill_is_worker_invariant() {
    let specs = random_specs(4);
    let plan = FaultPlan::new().kill_chip(9, 0);
    let base = ServeConfig::new(aging_device(4))
        .with_policy(BatchPolicy::SINGLE)
        .with_chips(vec![200_000; 3])
        .with_placement(PlacementPolicy::Replicated(2))
        .with_faults(plan);
    let reference = drift_trace(base.clone().with_workers(1), &specs, 4, 24, 12);
    // The run exercised the interaction: tiles aged past the budget and
    // recalibrated while a chip died mid-trace.
    assert!(reference.stats.drift_budget_breaches > 0);
    assert!(reference.stats.recalibrations > 0);
    assert_eq!(reference.health[0], ChipHealth::Failed);
    assert_eq!(
        reference.outputs.len() + reference.sheds.len(),
        24,
        "every request completes or sheds"
    );
    // A marked tile re-derives at its next read, whichever worker
    // reads it, so each chip's cache counters are worker-invariant too.
    let cache = |run: &DriftRun| -> Vec<(u64, u64)> {
        run.stats.chips.iter().map(|c| (c.hits, c.misses)).collect()
    };
    for workers in [2usize, 4] {
        let run = drift_trace(base.clone().with_workers(workers), &specs, 4, 24, 12);
        assert_eq!(
            cache(&run),
            cache(&reference),
            "workers={workers}: per-chip (hits, misses)"
        );
        assert_eq!(run.outputs, reference.outputs, "workers={workers}");
        assert_eq!(run.sheds, reference.sheds, "workers={workers}");
        assert_eq!(run.health, reference.health, "workers={workers}");
        assert_eq!(
            run.stats.recalibrations, reference.stats.recalibrations,
            "workers={workers}"
        );
        assert_eq!(
            run.stats.drift_budget_breaches, reference.stats.drift_budget_breaches,
            "workers={workers}"
        );
    }
}

/// A recalibration planned for a chip that has died is dropped
/// structurally: the dead chip is never targeted again, its counters
/// stop moving, and the trace still completes.
#[test]
fn recal_on_a_dead_chip_is_dropped_structurally() {
    let specs = random_specs(7);
    let budget = DeviceExecutor::new(aging_device(7))
        .drift_budget_ticks()
        .expect("bounded budget");
    // Kill the only chip serving both models right after the budget is
    // first breached, with a sibling to fail over to.
    let plan = FaultPlan::new().kill_chip(budget + 2, 0);
    let base = ServeConfig::new(aging_device(7))
        .with_policy(BatchPolicy::SINGLE)
        .with_chips(vec![200_000; 2])
        .with_placement(PlacementPolicy::FirstFit)
        .with_faults(plan);
    let n = 4 * (budget + 2);
    let run = drift_trace(base, &specs, 7, n, n);
    // The trace completed (failover absorbed the kill) and the dead
    // chip stayed dead — no recal ever resurrected or retried it.
    assert_eq!(run.outputs.len() + run.sheds.len(), n as usize);
    assert_eq!(run.health[0], ChipHealth::Failed);
    // Recalibration still ran for the surviving chip once the recovered
    // models aged past the budget there.
    assert!(run.stats.drift_budget_breaches > 0);
}
