//! The acceptance scenario: LeNet-5 end to end through
//! PCM → photonics → ADC, bit-exact against the integer reference in
//! ideal mode, with a meaningful per-layer fidelity report in noisy mode —
//! and fast enough to live in the regular test suite.

use oxbar_nn::reference::Executor;
use oxbar_nn::synthetic;
use oxbar_nn::zoo::lenet5;
use oxbar_sim::{run_inference, DeviceExecutor, SimConfig};
use std::time::Instant;

#[test]
fn lenet5_ideal_mode_is_bit_exact() {
    let net = lenet5();
    let images: Vec<_> = (0..3)
        .map(|s| synthetic::activations(net.input(), 6, 1000 + s))
        .collect();
    let filters = synthetic::filter_banks(&net, 6, 77);
    let report = run_inference(&net, &SimConfig::ideal(128, 128), &images, &filters).unwrap();
    assert!(report.exact, "{report:?}");
    assert_eq!(report.output_error_rate, 0.0);
    assert_eq!(report.output_max_abs_delta, 0);
    assert_eq!(report.top1_agreement, 1.0);
    assert_eq!(report.images, 3);
    // Every crossbar-mapped layer programmed PCM cells; the network has
    // 5 conv-like layers and 2 pools.
    assert_eq!(report.layers.len(), 7);
    assert!(report.cells_programmed > 0);

    // Cross-check a single image against the reference executor directly.
    let (ref_out, _) = Executor::new(6)
        .forward(&net, &images[0], &filters)
        .unwrap();
    let fwd = DeviceExecutor::new(SimConfig::ideal(128, 128))
        .forward(&net, &images[0], &filters)
        .unwrap();
    assert_eq!(fwd.output, ref_out);
}

#[test]
fn lenet5_noisy_mode_reports_fidelity() {
    let net = lenet5();
    let images = vec![synthetic::activations(net.input(), 6, 2000)];
    let filters = synthetic::filter_banks(&net, 6, 88);
    let report = run_inference(&net, &SimConfig::noisy(128, 128), &images, &filters).unwrap();
    assert!(!report.exact);
    assert!(report.output_error_rate > 0.0 || report.output_max_abs_delta == 0);
    // Per-layer records exist for every layer, with per-layer error rates.
    assert_eq!(report.layers.len(), net.layers().len());
    for layer in &report.layers {
        assert!(
            layer.error_rate >= 0.0 && layer.error_rate <= 1.0,
            "{layer:?}"
        );
        assert!(layer.elements > 0);
    }
    // The report is serializable (it feeds the bench figure + golden files).
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert!(json.contains("top1_agreement"));
}

#[test]
fn device_level_tests_stay_fast() {
    // Wall-clock sanity bound: a full ideal LeNet-5 pass must stay cheap
    // enough for CI (release job budgets 60 s for the whole crate).
    let net = lenet5();
    let input = synthetic::activations(net.input(), 6, 5);
    let filters = synthetic::filter_banks(&net, 6, 6);
    let start = Instant::now();
    let fwd = DeviceExecutor::new(SimConfig::ideal(128, 128))
        .forward(&net, &input, &filters)
        .unwrap();
    assert_eq!(fwd.output.shape().elements(), 10);
    let elapsed = start.elapsed();
    // Generous bound (debug builds are ~20× slower than release).
    assert!(
        elapsed.as_secs() < 120,
        "single LeNet pass took {elapsed:?}"
    );
}
