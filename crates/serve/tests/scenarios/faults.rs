//! Failover, recovery and shedding on hand-built traces. Replicas share
//! each model's admission seed and recovery restores programmed state
//! bit-exactly from the PCM snapshot, so every survivor answers what a
//! never-faulted cluster answers, and every request ends as exactly one
//! completion or one structured shed notice.

use crate::runner::{infers, random_specs, serve, Ask, Op};
use oxbar_nn::synthetic::small_network;
use oxbar_serve::ChipHealth::{Failed, Healthy};
use oxbar_serve::{catalog, BatchPolicy, FaultPlan, ModelSpec, PlacementPolicy, ServeConfig};
use oxbar_sim::{DeviceExecutor, SimConfig};

/// An ideal 32×16 device.
fn ideal(seed: u64) -> SimConfig {
    SimConfig::ideal(32, 16).with_seed(seed).with_threads(1)
}

/// One request per batch (dispatch sequence = arrival order) on chips of
/// `budgets` under `placement`.
fn one_per_batch(
    device: SimConfig,
    budgets: Vec<usize>,
    placement: PlacementPolicy,
) -> ServeConfig {
    ServeConfig::new(device)
        .with_policy(BatchPolicy::new(1, 0))
        .with_chips(budgets)
        .with_placement(placement)
}

#[test]
fn replicated_cluster_survives_a_mid_trace_chip_kill_without_recovery() {
    // One model replicated on both chips; chip 1 dies mid-trace. Requests
    // whose turn fell on chip 1 fail over to its replica — no snapshot
    // recovery, no sheds, zero lost — and answer exactly what the
    // no-fault cluster answers.
    let specs = random_specs(42);
    let base = one_per_batch(ideal(42), vec![200_000; 2], PlacementPolicy::Replicated(2));
    let ops = infers(42, 8, 2, |i| i / 2, |_, _| None);
    let run = serve(
        base.clone().with_faults(FaultPlan::new().kill_chip(4, 1)),
        &specs,
        42,
        &ops,
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
    assert_eq!(run.health(), [Healthy, Failed]);
    let oracle = serve(base, &specs, 42, &ops);
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
    let specs = [catalog::lenet5_model()];
    let device = SimConfig::ideal(128, 128).with_threads(1);
    let base = one_per_batch(device, vec![100_000; 2], PlacementPolicy::FirstFit);
    let ops = infers(0, 6, 1, |i| i, |_, _| None);
    let run = serve(
        base.clone().with_faults(FaultPlan::new().kill_chip(3, 0)),
        &specs,
        0,
        &ops,
    );
    assert_eq!(run.completions.len(), 6, "zero lost");
    assert!(run.sheds.is_empty());
    let stats = &run.stats;
    assert_eq!(stats.recoveries, 1, "snapshot restore onto the survivor");
    assert!(stats.recovery_ms >= 0.0);
    assert_eq!(stats.chips[0].health, Failed);
    assert_eq!(stats.models[0].chip, 1, "model now lives on the survivor");
    // The pre-kill cache state came along with the snapshot: replaying a
    // warm request after recovery must not reprogram tiles.
    assert!(stats.models[0].cache.hits > 0);
    let oracle = serve(base, &specs, 0, &ops);
    assert_eq!(run.outputs, oracle.outputs, "recovery is bit-exact");
}

#[test]
fn failover_sheds_only_requests_whose_deadline_became_unreachable() {
    // Unreplicated model, home chip killed at dispatch seq 3. Requests
    // already served keep their answers; of the failed-over tail, only
    // the one whose deadline precedes its batch's latest arrival sheds —
    // with a structured notice naming the cause — and the rest recover
    // and complete.
    let specs = &random_specs(7)[..1];
    let base = one_per_batch(ideal(7), vec![200_000; 2], PlacementPolicy::FirstFit);
    // Request 3 has already missed its deadline when it arrives.
    let deadline = |i: u64, arrival: u64| {
        Some(if i == 3 {
            arrival - 1
        } else {
            arrival + 10_000
        })
    };
    let ops = infers(7, 6, 1, |i| i / 2, deadline);
    let run = serve(
        base.clone().with_faults(FaultPlan::new().kill_chip(3, 0)),
        specs,
        7,
        &ops,
    );
    assert_eq!(
        run.sheds.keys().collect::<Vec<_>>(),
        [&Ask::Infer(3)],
        "exactly the doomed request sheds"
    );
    let detail = &run.sheds[&Ask::Infer(3)];
    assert!(
        detail.contains("deadline unreachable"),
        "notice names the cause: {detail}"
    );
    assert_eq!(run.outputs.len(), 5);
    assert_eq!(run.stats.sheds, 1);
    assert_eq!(run.stats.chips[0].sheds, 1, "shed charges the failed chip");
    assert_eq!(run.stats.recoveries, 1);
    // Tight deadlines without a fault shed nothing: shedding is strictly
    // a failover decision, never an admission-time one.
    let calm = serve(base, specs, 7, &ops);
    assert!(calm.sheds.is_empty());
    assert_eq!(calm.outputs.len(), 6);
}

#[test]
fn losing_every_chip_sheds_the_remaining_trace_structurally() {
    // Kill the only chip mid-trace: everything not yet served must come
    // back as a structured shed notice — no panic, no hang, no silent
    // loss — and the engine stays usable for stats.
    let config = one_per_batch(ideal(3), vec![200_000], PlacementPolicy::FirstFit)
        .with_faults(FaultPlan::new().kill_chip(2, 0));
    let run = serve(
        config,
        &random_specs(3),
        3,
        &infers(3, 6, 2, |i| i / 2, |_, _| None),
    );
    assert_eq!(run.outputs.len(), 2, "pre-kill requests completed");
    assert_eq!(run.sheds.len(), 4, "post-kill requests shed");
    assert!(run.sheds.values().all(|d| d.contains("no healthy chip")));
    assert_eq!(run.stats.sheds, 4);
    assert_eq!(run.stats.recoveries, 0, "nowhere to recover to");
    assert_eq!(run.health(), [Failed]);
}

#[test]
fn a_kill_on_a_recovery_destination_recovers_again_for_any_worker_count() {
    // One unreplicated model on three chips. Chip 0 dies at dispatch 1,
    // so the model is restored onto chip 1; chip 1 — the recovery
    // destination — dies at dispatch 4, so it is restored again, onto
    // chip 2. Each kill re-routes exactly one batch and charges it to
    // the chip that died, whatever the worker count.
    let specs = &random_specs(7)[..1];
    let base = one_per_batch(ideal(7), vec![200_000; 3], PlacementPolicy::FirstFit);
    let ops = infers(7, 8, 1, |i| i, |_, _| None);
    let oracle = serve(base.clone(), specs, 7, &ops);
    for workers in [1, 3] {
        let plan = FaultPlan::new().kill_chip(1, 0).kill_chip(4, 1);
        let config = base.clone().with_workers(workers).with_faults(plan);
        let run = serve(config, specs, 7, &ops);
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
    let network = small_network(7);
    let footprint = DeviceExecutor::new(ideal(7)).model_footprint_cells(&network);
    let specs: Vec<ModelSpec> = (100..104)
        .map(|seed| catalog::spec_from_network(network.clone(), seed))
        .collect();
    let base = one_per_batch(ideal(7), vec![footprint; 3], PlacementPolicy::FirstFit);
    let ops: Vec<Op> = (0..12)
        .map(|i| Op::Infer {
            model: if i % 2 == 0 { 0 } else { 3 },
            arrival: i,
            deadline: None,
        })
        .collect();
    let oracle = serve(base.clone(), &specs, 7, &ops);
    assert_eq!(oracle.outputs.len(), 12);
    for workers in [1, 3] {
        for kill in 2..10 {
            let config = base
                .clone()
                .with_workers(workers)
                .with_faults(FaultPlan::new().kill_chip(kill, 1));
            let run = serve(config, &specs, 7, &ops);
            let case = format!("{workers} workers, kill at {kill}");
            assert_eq!(
                run.outputs.len() + run.sheds.len(),
                12,
                "{case}: conservation"
            );
            for (ask, output) in &run.outputs {
                assert_eq!(Some(output), oracle.outputs.get(ask), "{case}: {ask:?}");
            }
            let per_chip: u64 = run.stats.chips.iter().map(|c| c.retries).sum();
            assert_eq!(per_chip, run.stats.retries, "{case}: retries reconcile");
        }
    }
}
