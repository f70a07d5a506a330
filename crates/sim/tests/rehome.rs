//! Moving an executor to another chip keeps its programmed tiles: PCM is
//! non-volatile, so [`DeviceExecutor::rehome`] recompiles nothing. What
//! the destination's budget holds stays resident, in `(layer, tile)`
//! order, exactly as an install under that budget would admit it; every
//! kept tile counts as programmed at the move; and the moved executor
//! answers byte for byte what it answered before.

use oxbar_nn::reference::{FilterBank, Tensor3};
use oxbar_nn::synthetic;
use oxbar_nn::zoo::lenet5;
use oxbar_nn::Network;
use oxbar_sim::{CacheStats, DeviceExecutor, DeviceForward, SimConfig};
use oxbar_units::Time;

/// LeNet-5 with seeded filters and one seeded input.
fn lenet() -> (Network, Vec<FilterBank>, Tensor3) {
    let net = lenet5();
    let filters = synthetic::filter_banks(&net, 6, 3);
    let input = synthetic::activations(net.input(), 6, 4);
    (net, filters, input)
}

fn noisy() -> SimConfig {
    SimConfig::noisy(128, 128).with_threads(1)
}

fn forward(exec: &DeviceExecutor) -> DeviceForward {
    let (net, filters, input) = lenet();
    exec.forward(&net, &input, &filters).unwrap()
}

fn occupancy(stats: CacheStats) -> (usize, usize) {
    (stats.entries, stats.cells)
}

#[test]
fn a_roomy_move_keeps_every_tile_and_replays_as_hits() {
    let mut exec = DeviceExecutor::new(noisy());
    let before = forward(&exec);
    let warm = exec.cache_stats();
    exec.rehome(usize::MAX, 0);
    let moved = exec.cache_stats();
    assert_eq!(
        (moved.entries, moved.cells, moved.hits, moved.misses),
        (warm.entries, warm.cells, warm.hits, warm.misses),
        "a move keeps the tiles and the counters"
    );
    assert_eq!(moved.budget, usize::MAX);
    assert_eq!(forward(&exec), before, "the replay answers as before");
    let replayed = exec.cache_stats();
    assert_eq!(replayed.misses, warm.misses, "nothing is reprogrammed");
    assert_eq!(replayed.hits, warm.hits + warm.entries as u64);
}

#[test]
fn a_tight_move_keeps_what_an_install_under_its_budget_admits() {
    let (net, _, _) = lenet();
    let half = DeviceExecutor::new(noisy()).model_footprint_cells(&net) / 2;
    let mut exec = DeviceExecutor::new(noisy());
    let before = forward(&exec);
    exec.rehome(half, 0);
    let fresh = DeviceExecutor::new(noisy()).with_cache_budget(half);
    forward(&fresh);
    let moved = exec.cache_stats();
    assert!(moved.cells <= half && moved.entries > 0);
    assert_eq!(occupancy(moved), occupancy(fresh.cache_stats()));
    assert_eq!(
        forward(&exec),
        before,
        "dropped tiles reprogram to the same state"
    );
}

#[test]
fn a_move_under_aging_stamps_every_tile_fresh() {
    let aging = noisy().with_drift_tick(Time::from_seconds(1e6));
    let mut exec = DeviceExecutor::new(aging.clone());
    let young = forward(&exec);
    let tiles = exec.cache_stats().entries as u64;
    exec.set_clock(5);
    let old = forward(&exec);
    assert_ne!(old, young, "five ticks of drift move the readout");
    assert!(exec.tile_ages().iter().all(|t| t.age_ticks == 5));
    exec.rehome(usize::MAX, 5);
    let ages = exec.tile_ages();
    assert_eq!(ages.len() as u64, tiles);
    assert!(ages.iter().all(|t| t.age_ticks == 0), "{ages:?}");
    // Each tile's drift was derived at age 5, so its next read re-derives
    // it at age 0: one miss per tile, and the first forward of a fresh
    // executor at clock 5.
    let misses = exec.cache_stats().misses;
    let fresh = DeviceExecutor::new(aging);
    fresh.set_clock(5);
    assert_eq!(forward(&exec), forward(&fresh));
    assert_eq!(exec.cache_stats().misses, misses + tiles);
}
