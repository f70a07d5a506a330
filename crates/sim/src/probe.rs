//! Sampled single-layer validation for networks too large (or too
//! residual) to execute end to end at field level.

use crate::config::SimConfig;
use crate::executor::{sample_pixels, DeviceExecutor};
use oxbar_nn::synthetic;
use oxbar_nn::Conv2d;
use serde::{Deserialize, Serialize};

/// Result of probing one conv-like layer at device level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerProbe {
    /// Network the layer came from.
    pub network: String,
    /// Layer name.
    pub layer: String,
    /// Flattened filter rows (the crossbar row demand).
    pub filter_rows: usize,
    /// Fold tiles executed.
    pub tiles: usize,
    /// Output pixels sampled.
    pub sampled_pixels: usize,
    /// Raw accumulator values compared (`pixels × out_c`).
    pub elements: usize,
    /// Values that differ from the exact integer convolution.
    pub mismatches: usize,
    /// Worst absolute deviation of the raw accumulators.
    pub max_abs_delta: i64,
    /// PCM cells written.
    pub cells_programmed: usize,
}

/// Runs one conv layer on synthetic data through the device chain at a
/// sampled subset of output pixels and compares the raw accumulators
/// against [`oxbar_nn::reference::conv2d_exact`].
///
/// `max_pixels == 0` means every output pixel.
///
/// # Examples
///
/// ```
/// use oxbar_nn::zoo::lenet5;
/// use oxbar_sim::{probe_conv, SimConfig};
///
/// let conv = lenet5().conv_like_layers().next().unwrap();
/// let probe = probe_conv("lenet5", &conv, &SimConfig::ideal(64, 64), 5, 8);
/// assert_eq!(probe.mismatches, 0); // ideal chain is exact
/// ```
#[must_use]
pub fn probe_conv(
    network: &str,
    conv: &Conv2d,
    config: &SimConfig,
    seed: u64,
    max_pixels: usize,
) -> LayerProbe {
    let input = synthetic::activations(conv.input, config.activation_bits, seed);
    let bank = synthetic::filter_bank(conv, config.weight_bits, seed.wrapping_add(1));
    let out = conv.output_shape();
    let pixels = sample_pixels(out, max_pixels);
    // Fold the probe seed into the device seed as well, so probes of
    // different layers (or repeated probes) draw independent noise
    // realizations, not the same per-tile stream every time.
    let config = config
        .clone()
        .with_seed(config.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let executor = DeviceExecutor::new(config);
    let (values, stats) = executor.conv_pixels_flat(conv, &input, &bank, 0, &pixels);

    let mut mismatches = 0usize;
    let mut max_abs_delta = 0i64;
    let mut elements = 0usize;
    for (&pid, row) in pixels.iter().zip(values.chunks_exact(conv.out_c)) {
        let exact = exact_pixel(conv, &input, &bank, pid);
        for (oc, &got) in row.iter().enumerate() {
            let want = exact[oc];
            elements += 1;
            if got != want {
                mismatches += 1;
                max_abs_delta = max_abs_delta.max((got - want).abs());
            }
        }
    }
    LayerProbe {
        network: network.to_string(),
        layer: conv.name.clone(),
        filter_rows: conv.filter_rows(),
        tiles: stats.tiles,
        sampled_pixels: pixels.len(),
        elements,
        mismatches,
        max_abs_delta,
        cells_programmed: stats.cells_programmed,
    }
}

/// The exact integer convolution at one output pixel (all channels) —
/// avoids materializing the whole exact output for huge probed layers.
fn exact_pixel(
    conv: &Conv2d,
    input: &oxbar_nn::reference::Tensor3,
    bank: &oxbar_nn::reference::FilterBank,
    pixel: usize,
) -> Vec<i64> {
    let out = conv.output_shape();
    let oy = pixel / out.w;
    let ox = pixel % out.w;
    let in_per_group = conv.in_c_per_group();
    let out_per_group = conv.out_c_per_group();
    (0..conv.out_c)
        .map(|oc| {
            let group = oc / out_per_group;
            let c_base = group * in_per_group;
            let w = &bank.weights[oc];
            let mut acc = 0i64;
            let mut widx = 0;
            for ky in 0..conv.k_h {
                for kx in 0..conv.k_w {
                    let iy = (oy * conv.stride + ky) as isize - conv.padding as isize;
                    let ix = (ox * conv.stride + kx) as isize - conv.padding as isize;
                    for ci in 0..in_per_group {
                        acc += i64::from(w[widx]) * input.at_padded(iy, ix, c_base + ci);
                        widx += 1;
                    }
                }
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oxbar_nn::TensorShape;

    #[test]
    fn ideal_probe_is_exact_even_with_folding() {
        // 3×3×24 = 216 rows on a 64-row array → 4 row folds.
        let conv = Conv2d::new("folded", TensorShape::new(6, 6, 24), 3, 3, 10, 1, 1);
        let probe = probe_conv("test", &conv, &SimConfig::ideal(64, 8), 3, 6);
        assert_eq!(probe.mismatches, 0, "{probe:?}");
        assert!(probe.tiles >= 4 * 2, "row and column folding expected");
        assert_eq!(probe.sampled_pixels, 6);
    }

    #[test]
    fn exact_pixel_agrees_with_full_reference_conv() {
        let conv = Conv2d::new("x", TensorShape::new(6, 6, 4), 3, 3, 5, 2, 1).with_groups(1);
        let input = synthetic::activations(conv.input, 6, 17);
        let bank = synthetic::filter_bank(&conv, 6, 18);
        let full = oxbar_nn::reference::conv2d_exact(&input, &bank, &conv);
        let out = conv.output_shape();
        for pid in 0..out.h * out.w {
            let per_oc = exact_pixel(&conv, &input, &bank, pid);
            for (oc, &v) in per_oc.iter().enumerate() {
                assert_eq!(v, full.data()[pid * out.c + oc], "pixel {pid} oc {oc}");
            }
        }
    }

    #[test]
    fn noisy_probe_reports_deviation() {
        let conv = Conv2d::new("noisy", TensorShape::new(6, 6, 24), 3, 3, 8, 1, 1);
        let probe = probe_conv("test", &conv, &SimConfig::noisy(64, 16), 3, 6);
        assert!(probe.mismatches > 0, "{probe:?}");
        assert!(probe.max_abs_delta > 0);
    }
}
