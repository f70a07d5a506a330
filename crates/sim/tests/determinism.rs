//! Parallel tile execution must be byte-identical to serial execution,
//! in both ideal and noisy modes (fixed per-tile seeds, order-preserving
//! accumulation).

use oxbar_nn::synthetic;
use oxbar_nn::zoo::lenet5;
use oxbar_sim::{run_inference, DeviceExecutor, SimConfig};

#[test]
fn parallel_equals_serial_ideal_mode() {
    let net = lenet5();
    let input = synthetic::activations(net.input(), 6, 3);
    let filters = synthetic::filter_banks(&net, 6, 4);
    let serial = DeviceExecutor::new(SimConfig::ideal(128, 128).with_threads(1))
        .forward(&net, &input, &filters)
        .unwrap();
    for threads in [2, 4, 0] {
        let parallel = DeviceExecutor::new(SimConfig::ideal(128, 128).with_threads(threads))
            .forward(&net, &input, &filters)
            .unwrap();
        assert_eq!(parallel, serial, "threads={threads}");
    }
}

#[test]
fn parallel_equals_serial_noisy_mode() {
    // The harder case: every tile draws phase errors and PCM programming
    // variation from its own seeded stream, so scheduling must not leak
    // into the numerics.
    let net = lenet5();
    let images = vec![synthetic::activations(net.input(), 6, 13)];
    let filters = synthetic::filter_banks(&net, 6, 14);
    let serial = run_inference(
        &net,
        &SimConfig::noisy(128, 128).with_threads(1),
        &images,
        &filters,
    )
    .unwrap();
    let parallel = run_inference(
        &net,
        &SimConfig::noisy(128, 128).with_threads(0),
        &images,
        &filters,
    )
    .unwrap();
    assert_eq!(parallel, serial);
    // Byte-identical through serialization as well.
    let a = serde_json::to_string(&serial).unwrap();
    let b = serde_json::to_string(&parallel).unwrap();
    assert_eq!(a, b);
}

#[test]
fn repeated_runs_are_reproducible() {
    let net = lenet5();
    let images = vec![synthetic::activations(net.input(), 6, 21)];
    let filters = synthetic::filter_banks(&net, 6, 22);
    let cfg = SimConfig::noisy(64, 64).with_seed(5);
    let a = run_inference(&net, &cfg, &images, &filters).unwrap();
    let b = run_inference(&net, &cfg, &images, &filters).unwrap();
    assert_eq!(a, b);
    // A different base seed draws different noise.
    let c = run_inference(&net, &cfg.clone().with_seed(6), &images, &filters).unwrap();
    assert_ne!(a, c);
}
