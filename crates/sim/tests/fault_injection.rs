//! Device-level fault injection: structured errors, one-shot transients,
//! and snapshot-readability of killed chips.

use oxbar_nn::synthetic;
use oxbar_nn::zoo::lenet5;
use oxbar_sim::{DeviceExecutor, ExecError, FaultPlan, InjectedFault, SimConfig};

fn fixture() -> (
    oxbar_nn::Network,
    oxbar_nn::reference::Tensor3,
    Vec<oxbar_nn::reference::FilterBank>,
) {
    let net = lenet5();
    let input = synthetic::activations(net.input(), 6, 11);
    let filters = synthetic::filter_banks(&net, 6, 12);
    (net, input, filters)
}

#[test]
fn killed_chip_refuses_execution_with_a_structured_error() {
    let (net, input, filters) = fixture();
    let exec = DeviceExecutor::new(SimConfig::ideal(64, 64));
    assert!(
        exec.try_forward_batch(&net, &[&input], &filters).is_ok(),
        "a fresh chip serves"
    );
    exec.inject_fault(InjectedFault::Kill);
    assert_eq!(
        exec.try_forward_batch(&net, &[&input], &filters),
        Err(ExecError::ChipFailed)
    );
    // Kill is sticky: a second attempt fails the same way.
    assert_eq!(
        exec.try_forward_batch(&net, &[&input], &filters),
        Err(ExecError::ChipFailed)
    );
}

#[test]
fn transient_tile_fault_fails_once_then_retries_byte_identically() {
    let (net, input, filters) = fixture();
    let exec = DeviceExecutor::new(SimConfig::ideal(64, 64));
    let baseline = exec.forward(&net, &input, &filters).expect("baseline");

    exec.inject_fault(InjectedFault::TileTransient { layer: 0, tile: 0 });
    assert_eq!(
        exec.try_forward_batch(&net, &[&input], &filters),
        Err(ExecError::TileFault { layer: 0, tile: 0 })
    );
    // The transient is one-shot: the retry succeeds and is byte-identical
    // to the unfaulted baseline.
    let retried = exec
        .try_forward_batch(&net, &[&input], &filters)
        .expect("retry succeeds");
    assert_eq!(retried, vec![baseline]);
}

#[test]
fn killed_chip_stays_snapshot_readable_and_restores_healthy() {
    let (net, input, filters) = fixture();
    let exec = DeviceExecutor::new(SimConfig::noisy(64, 64).with_seed(21));
    let baseline = exec
        .forward(&net, &input, &filters)
        .expect("warm the cache");
    exec.inject_fault(InjectedFault::Kill);

    // PCM non-volatility: the programmed state survives the control-plane
    // death, so the snapshot still captures every resident tile…
    let snapshot = exec.snapshot();
    assert!(!snapshot.tiles.is_empty());

    // …and restoring it yields a *healthy* chip whose outputs are
    // byte-identical to the pre-kill baseline.
    let restored = DeviceExecutor::restore_at(&snapshot, 0);
    let replayed = restored
        .try_forward_batch(&net, &[&input], &filters)
        .expect("restored chip serves");
    assert_eq!(replayed, vec![baseline]);
}

#[test]
fn clones_do_not_inherit_faults() {
    let (net, input, filters) = fixture();
    let exec = DeviceExecutor::new(SimConfig::ideal(32, 32));
    exec.inject_fault(InjectedFault::Kill);
    let clone = exec.clone();
    assert!(clone.try_forward_batch(&net, &[&input], &filters).is_ok());
}

#[test]
fn fault_plans_are_round_keyed_and_serializable() {
    let plan = FaultPlan::new()
        .kill_chip(4, 1)
        .tile_transient(2, 0)
        .drift(6, 1);
    let at = |round| plan.events().iter().filter(|e| e.round() == round).count();
    assert_eq!(at(4), 1);
    assert_eq!(at(3), 0);
    let json = serde_json::to_string(&plan).expect("serialize");
    let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, plan);
}
