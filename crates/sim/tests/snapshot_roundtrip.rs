//! Chip snapshots reconstruct programmed tile state bit-exactly.
//!
//! A PCM chip's programmed state is non-volatile, so a serialized
//! snapshot of `{codes, per-tile seeds, config}` must rebuild an
//! executor whose forward passes are byte-identical to the source —
//! including every stochastic stream (programming variation, drift,
//! per-channel phase errors). This is the invariant that makes
//! snapshot-based model migration between serving chips sound.

use oxbar_nn::synthetic::{self, small_network};
use oxbar_nn::zoo::lenet5;
use oxbar_sim::{ChipSnapshot, DeviceExecutor, SimConfig};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::HashSet;

#[test]
fn snapshot_restore_forward_is_bit_exact_under_noise() {
    let net = lenet5();
    let input = synthetic::activations(net.input(), 6, 11);
    let filters = synthetic::filter_banks(&net, 6, 12);
    let config = SimConfig::noisy(128, 128).with_seed(909).with_threads(1);
    let exec = DeviceExecutor::new(config);
    let original = exec.forward(&net, &input, &filters).unwrap();

    // Serialize through the workspace serde shim and back: the snapshot
    // survives the wire format it would migrate over.
    let snap = exec.snapshot();
    assert!(!snap.tiles.is_empty(), "forward populates the cache");
    let json = serde_json::to_string(&snap).unwrap();
    let decoded: ChipSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(decoded, snap, "snapshot round-trips the serde shim");

    let restored = DeviceExecutor::restore_at(&decoded, 0);
    let replay = restored.forward(&net, &input, &filters).unwrap();
    assert_eq!(replay, original, "restored chip must replay bit-exactly");

    // The restored cache holds exactly the snapshotted state: same
    // occupancy, same counters, and every replay execution was a hit.
    let before = exec.cache_stats();
    let after = restored.cache_stats();
    assert_eq!((after.entries, after.cells), (before.entries, before.cells));
    assert_eq!(snap.cells(), after.cells, "snapshot accounts its own cells");
    assert_eq!(
        after.misses, before.misses,
        "restore compiles are not misses"
    );
    assert_eq!(
        after.hits,
        before.hits + before.misses,
        "every restored tile serves the replay from the cache"
    );
}

/// A snapshot captured *while* a forward is programming tiles on the
/// same executor must still be a consistent image: unique tile keys,
/// cell accounting that matches what a restore actually admits (never
/// double-counted), and bit-exact replays. This is the recovery
/// scenario — a snapshot taken of an executor that is still being
/// programmed is restored onto a sibling.
fn check_snapshot_under_concurrent_forward(seed: u64) -> Result<(), TestCaseError> {
    let net_a = small_network(seed);
    let net_b = small_network(seed ^ 0x5A5A);
    let input_a = synthetic::activations(net_a.input(), 6, seed ^ 1);
    let input_b = synthetic::activations(net_b.input(), 6, seed ^ 2);
    let filters_a = synthetic::filter_banks(&net_a, 6, seed ^ 3);
    let filters_b = synthetic::filter_banks(&net_b, 6, seed ^ 4);
    let config = SimConfig::noisy(32, 16).with_seed(seed).with_threads(1);
    let exec = DeviceExecutor::new(config);

    // Model A is fully resident before the race starts.
    let out_a = exec.forward(&net_a, &input_a, &filters_a).unwrap();
    let (snaps, out_b) = std::thread::scope(|scope| {
        // The concurrent forward: model B's tile set programs in the
        // background while snapshots are being captured.
        let forward = scope.spawn(|| exec.forward(&net_b, &input_b, &filters_b).unwrap());
        let mut snaps: Vec<ChipSnapshot> = Vec::new();
        while !forward.is_finished() || snaps.is_empty() {
            snaps.push(exec.snapshot());
        }
        (snaps, forward.join().expect("forward thread"))
    });

    for snap in &snaps {
        // No tile appears twice, whatever instant the capture hit.
        let mut keys = HashSet::new();
        for t in &snap.tiles {
            prop_assert!(
                keys.insert((t.layer, t.tile, t.seed)),
                "duplicate tile in a mid-forward snapshot"
            );
        }
        // The snapshot's own cell accounting is what a restore admits.
        let restored = DeviceExecutor::restore_at(snap, 0);
        prop_assert_eq!(restored.cache_stats().cells, snap.cells());
        prop_assert_eq!(restored.cache_stats().entries, snap.tiles.len());
        // Model A was resident before the race: every capture replays it
        // bit-exactly (model B's missing tail lazily compiles to the
        // same seeded state, so it is bit-exact too).
        let replay_a = restored.forward(&net_a, &input_a, &filters_a).unwrap();
        prop_assert_eq!(&replay_a, &out_a);
    }
    let last = DeviceExecutor::restore_at(snaps.last().expect("at least one capture"), 0);
    let replay_b = last.forward(&net_b, &input_b, &filters_b).unwrap();
    prop_assert_eq!(&replay_b, &out_b);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn snapshot_under_concurrent_forward_is_consistent(seed in 0u64..10_000) {
        check_snapshot_under_concurrent_forward(seed)?;
    }
}

#[test]
fn snapshot_of_cold_executor_restores_empty() {
    let config = SimConfig::noisy(64, 64).with_seed(3).with_threads(1);
    let exec = DeviceExecutor::new(config).with_cache_budget(0);
    let snap = exec.snapshot();
    assert!(snap.tiles.is_empty());
    assert_eq!(snap.cells(), 0);
    let restored = DeviceExecutor::restore_at(&snap, 0);
    assert_eq!(restored.cache_stats().entries, 0);
    assert_eq!(restored.cache_stats().budget, 0);
}
