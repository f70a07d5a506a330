//! Every writer of the weight-stationary tile cache claims its keys
//! through one single-flight path: two forwards racing on the same fresh
//! executor program each tile exactly once, and each answers exactly as
//! it would alone.

use oxbar_nn::synthetic;
use oxbar_nn::zoo::lenet5;
use oxbar_sim::{DeviceExecutor, SimConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

#[test]
fn racing_forwards_program_each_tile_once() {
    let net = lenet5();
    let input = synthetic::activations(net.input(), 6, 1);
    let filters = synthetic::filter_banks(&net, 6, 2);
    let config = SimConfig::noisy(32, 16).with_threads(1);
    let alone = DeviceExecutor::new(config.clone());
    let expected = alone.forward(&net, &input, &filters).unwrap();
    let tiles = alone.cache_stats().misses;
    assert_eq!(tiles, 137, "LeNet-5 folds into 137 tiles on 32×16 arrays");
    for race in 0..20 {
        let exec = DeviceExecutor::new(config.clone());
        let start = Barrier::new(2);
        let (first, second) = std::thread::scope(|scope| {
            let other = scope.spawn(|| {
                start.wait();
                exec.forward(&net, &input, &filters).unwrap()
            });
            start.wait();
            let forward = exec.forward(&net, &input, &filters).unwrap();
            (other.join().expect("forward thread"), forward)
        });
        // Each tile is programmed by whichever forward claims it first,
        // and the other forward hits it.
        let stats = exec.cache_stats();
        assert_eq!(stats.misses, tiles, "race {race}: one miss per tile");
        assert_eq!(stats.hits, tiles, "race {race}: one hit per tile");
        assert_eq!(first, expected, "race {race}: first forward differs");
        assert_eq!(second, expected, "race {race}: second forward differs");
    }
}

#[test]
fn a_panicking_compile_releases_its_claim() {
    let net = lenet5();
    let input = synthetic::activations(net.input(), 6, 1);
    let filters = synthetic::filter_banks(&net, 6, 2);
    // 8-bit weights overflow the 6-bit device's code range, so the first
    // tile the forward claims panics while compiling.
    let too_wide = synthetic::filter_banks(&net, 8, 2);
    let config = SimConfig::noisy(32, 16).with_threads(1);
    let exec = DeviceExecutor::new(config.clone());
    let failed = catch_unwind(AssertUnwindSafe(|| exec.forward(&net, &input, &too_wide)));
    assert!(failed.is_err(), "out-of-range weights must not program");
    // The claimed key was released: the next forward programs it instead
    // of waiting forever for the failed compile.
    let forward = exec.forward(&net, &input, &filters).unwrap();
    let alone = DeviceExecutor::new(config).forward(&net, &input, &filters);
    assert_eq!(forward, alone.unwrap());
}
