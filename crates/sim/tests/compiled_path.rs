//! The compiled transfer-matrix fast path must be an invisible
//! optimization: engines differ in speed only, never in results.
//!
//! * `FieldWalk` (the cell-by-cell oracle) vs `Compiled` on the full
//!   device chain, ideal and noisy. The noisy case also pins the compiled
//!   path's duplicate-window cache: a padded convolution produces many
//!   repeated and all-zero windows, and the field walk dedupes nothing.

use oxbar_nn::reference::conv2d_exact;
use oxbar_nn::synthetic;
use oxbar_nn::zoo::lenet5;
use oxbar_nn::{Conv2d, TensorShape};
use oxbar_sim::{DeviceExecutor, MvmEngine, SimConfig};

/// A padded conv (duplicate + all-zero im2col windows) on noisy hardware.
fn padded_conv() -> Conv2d {
    Conv2d::new("probe", TensorShape::new(9, 9, 3), 3, 3, 6, 1, 1)
}

fn conv_partials(config: &SimConfig, engine: MvmEngine) -> Vec<i64> {
    let conv = padded_conv();
    let input = synthetic::activations(conv.input, 6, 21);
    let bank = synthetic::filter_bank(&conv, 6, 22);
    let out = conv.output_shape();
    let pixels: Vec<usize> = (0..out.h * out.w).collect();
    let exec = DeviceExecutor::new(config.clone()).with_engine(engine);
    exec.conv_pixels_flat(&conv, &input, &bank, 0, &pixels).0
}

#[test]
fn compiled_engine_matches_field_walk_ideal() {
    let config = SimConfig::ideal(32, 8);
    let walk = conv_partials(&config, MvmEngine::FieldWalk);
    let compiled = conv_partials(&config, MvmEngine::Compiled);
    assert_eq!(walk, compiled);

    // And both equal the exact integer reference.
    let conv = padded_conv();
    let input = synthetic::activations(conv.input, 6, 21);
    let bank = synthetic::filter_bank(&conv, 6, 22);
    let exact = conv2d_exact(&input, &bank, &conv);
    let out = conv.output_shape();
    for (pid, per_oc) in compiled.chunks_exact(out.c).enumerate() {
        for (oc, &v) in per_oc.iter().enumerate() {
            assert_eq!(v, exact.data()[pid * out.c + oc], "pixel {pid} oc {oc}");
        }
    }
}

#[test]
fn compiled_engine_matches_field_walk_noisy() {
    // Full noise: PCM sigma, drift, phase error + trimmers, compensated
    // losses, 12-bit ADC. The compiled gains fold every one of these.
    let config = SimConfig::noisy(32, 8);
    let walk = conv_partials(&config, MvmEngine::FieldWalk);
    let compiled = conv_partials(&config, MvmEngine::Compiled);
    assert_eq!(walk, compiled);
}

#[test]
fn lenet_forward_identical_across_engines() {
    let net = lenet5();
    let input = synthetic::activations(net.input(), 6, 33);
    let filters = synthetic::filter_banks(&net, 6, 34);
    for config in [SimConfig::ideal(64, 32), SimConfig::noisy(64, 32)] {
        let compiled = DeviceExecutor::new(config.clone())
            .forward(&net, &input, &filters)
            .unwrap();
        let walk = DeviceExecutor::new(config.clone())
            .with_engine(MvmEngine::FieldWalk)
            .forward(&net, &input, &filters)
            .unwrap();
        assert_eq!(compiled, walk, "config {config:?}");
    }
}
