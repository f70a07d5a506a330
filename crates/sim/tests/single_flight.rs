//! Every writer of the weight-stationary tile cache claims its keys
//! through one single-flight path: a `prewarm` racing a `forward` on the
//! same fresh executor programs each tile exactly once, and the forward
//! answers exactly as it would alone.

use oxbar_nn::synthetic;
use oxbar_nn::zoo::lenet5;
use oxbar_sim::{DeviceExecutor, SimConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

#[test]
fn prewarm_racing_a_forward_programs_each_tile_once() {
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
        let (prewarmed, forward) = std::thread::scope(|scope| {
            let prewarm = scope.spawn(|| {
                start.wait();
                exec.prewarm(&net, &filters)
            });
            start.wait();
            let forward = exec.forward(&net, &input, &filters).unwrap();
            (prewarm.join().expect("prewarm thread"), forward)
        });
        let stats = exec.cache_stats();
        assert_eq!(stats.misses, tiles, "race {race}: one miss per tile");
        // Each tile is programmed by whichever side claims it first; the
        // forward hits every tile the prewarm programmed.
        assert_eq!(stats.hits, prewarmed as u64, "race {race}");
        assert_eq!(forward, expected, "race {race}: forward differs");
    }
}

#[test]
fn a_panicking_compile_releases_its_claim() {
    let net = lenet5();
    let input = synthetic::activations(net.input(), 6, 1);
    let filters = synthetic::filter_banks(&net, 6, 2);
    // 8-bit weights overflow the 6-bit device's code range, so the first
    // tile the prewarm claims panics while compiling.
    let too_wide = synthetic::filter_banks(&net, 8, 2);
    let config = SimConfig::noisy(32, 16).with_threads(1);
    let exec = DeviceExecutor::new(config.clone());
    let prewarm = catch_unwind(AssertUnwindSafe(|| exec.prewarm(&net, &too_wide)));
    assert!(prewarm.is_err(), "out-of-range weights must not program");
    // The claimed key was released: the forward programs it instead of
    // waiting forever for the failed compile.
    let forward = exec.forward(&net, &input, &filters).unwrap();
    let alone = DeviceExecutor::new(config).forward(&net, &input, &filters);
    assert_eq!(forward, alone.unwrap());
}
