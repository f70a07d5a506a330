//! Drift-aware self-healing. With aging enabled, every drift decision is
//! keyed on the global batch dispatch counter at single-threaded drain
//! boundaries — never wall clock — so a trace that ages tiles past the
//! accuracy budget, degrades chips, recalibrates them back and races a
//! chip kill through replicated failover answers the same at 1, 2 and 4
//! workers, and a recalibration never targets a dead chip. (With aging
//! disabled the machinery is inert; the scenario property asserts it.)

use crate::runner::{aging_device, drift_budget, in_drains, infers, random_specs, serve, Op, Run};
use oxbar_serve::ChipHealth::{Degraded, Failed, Healthy};
use oxbar_serve::{BatchPolicy, FaultPlan, PlacementPolicy, ServeConfig};
use oxbar_sim::SimConfig;

/// `n` deadline-free requests at arrivals `0..n` over two models, in
/// drains of `per_drain`.
fn aging_trace(seed: u64, n: u64, per_drain: u64) -> Vec<Op> {
    in_drains(&infers(seed, n, 2, |i| i, |_, _| None), per_drain as usize)
}

/// Summed |Δ| between a run's inference outputs and a reference run's,
/// over the inference range `[lo, hi)`.
fn total_delta(run: &Run, reference: &Run, lo: u64, hi: u64) -> u64 {
    let want = reference.inferred();
    run.inferred()
        .range(lo..hi)
        .flat_map(|(i, out)| {
            assert_eq!(out.len(), want[i].len());
            out.iter().zip(want[i]).map(|(a, b)| a.abs_diff(*b))
        })
        .sum()
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
    let budget = drift_budget(9);
    assert!(budget > 0 && budget < 16, "test assumes a small budget");
    let base = ServeConfig::new(aging_device(9)).with_policy(BatchPolicy::SINGLE);
    let n = 4 * (budget + 1);
    // One request per drain: ages advance every request.
    let ops = aging_trace(9, n, 1);
    let healed = serve(base.clone(), &specs, 9, &ops);
    let never_aged = SimConfig::noisy(32, 16).with_seed(9).with_threads(1);
    let fresh = serve(
        ServeConfig::new(never_aged).with_policy(BatchPolicy::SINGLE),
        &specs,
        9,
        &ops,
    );
    // The budget was breached and the engine recalibrated and healed.
    let [recals, tiles, breaches, heals] = healed.drift();
    assert!(recals > 0 && tiles > 0 && breaches > 0 && heals > 0);
    assert_eq!(healed.health(), [Healthy]);
    assert_eq!(healed.sheds.len(), 0, "self-healing never sheds");
    assert_eq!(healed.outputs.len(), n as usize);
    // An identical engine with recalibration off breaches the budget
    // but never recovers: it is left degraded at end of trace.
    let unhealed = serve(base.with_recalibration(false), &specs, 9, &ops);
    assert_eq!(unhealed.stats.recalibrations, 0);
    assert_eq!(unhealed.stats.drift_heals, 0);
    assert!(unhealed.stats.drift_budget_breaches > 0);
    assert_eq!(unhealed.health(), [Degraded]);
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
    let base = ServeConfig::new(aging_device(4))
        .with_policy(BatchPolicy::SINGLE)
        .with_chips(vec![200_000; 3])
        .with_placement(PlacementPolicy::Replicated(2))
        .with_faults(FaultPlan::new().kill_chip(9, 0));
    let ops = aging_trace(4, 24, 2);
    let reference = serve(base.clone(), &specs, 4, &ops);
    // The run exercised the interaction: tiles aged past the budget and
    // recalibrated while a chip died mid-trace.
    assert!(reference.stats.drift_budget_breaches > 0);
    assert!(reference.stats.recalibrations > 0);
    assert_eq!(reference.health()[0], Failed);
    assert_eq!(
        reference.outputs.len() + reference.sheds.len(),
        24,
        "every request completes or sheds"
    );
    // A marked tile re-derives at its next read, whichever worker
    // reads it, so every run observes what one worker does, each chip's
    // cache counters included.
    for workers in [2usize, 4] {
        let run = serve(base.clone().with_workers(workers), &specs, 4, &ops);
        assert_eq!(run.first_difference(&reference), None, "workers={workers}");
    }
}

/// A recalibration planned for a chip that has died is dropped
/// structurally: the dead chip is never targeted again, its counters
/// stop moving, and the trace still completes.
#[test]
fn recal_on_a_dead_chip_is_dropped_structurally() {
    let budget = drift_budget(7);
    // Kill the only chip serving both models right after the budget is
    // first breached, with a sibling to fail over to.
    let config = ServeConfig::new(aging_device(7))
        .with_policy(BatchPolicy::SINGLE)
        .with_chips(vec![200_000; 2])
        .with_placement(PlacementPolicy::FirstFit)
        .with_faults(FaultPlan::new().kill_chip(budget + 2, 0));
    let n = 4 * (budget + 2);
    let run = serve(config, &random_specs(7), 7, &aging_trace(7, n, 1));
    // The trace completed (failover absorbed the kill) and the dead
    // chip stayed dead — no recal ever resurrected or retried it.
    assert_eq!(run.outputs.len() + run.sheds.len(), n as usize);
    assert_eq!(run.health()[0], Failed);
    // Recalibration still ran for the surviving chip once the recovered
    // models aged past the budget there.
    assert!(run.stats.drift_budget_breaches > 0);
}
