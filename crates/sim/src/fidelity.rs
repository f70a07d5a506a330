//! Fidelity accounting: device-level execution vs the exact integer
//! reference, per layer and per network.

use crate::config::SimConfig;
use crate::executor::{walk_network, DeviceExecutor, DeviceForward};
use oxbar_nn::reference::{conv2d_exact, FilterBank, Tensor3, UnsupportedLayer};
use oxbar_nn::Network;
use serde::{Deserialize, Serialize};

/// Mismatch statistics for one layer, aggregated over a batch of images.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerFidelity {
    /// Layer name.
    pub name: String,
    /// Activation elements compared (summed over images).
    pub elements: usize,
    /// Elements whose device code differs from the reference code.
    pub mismatches: usize,
    /// `mismatches / elements` — the symbol/bit-error rate of the layer's
    /// activation codes.
    pub error_rate: f64,
    /// Worst absolute code deviation observed.
    pub max_abs_delta: i64,
}

/// A whole-network fidelity report over a batch of synthetic images.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceFidelity {
    /// Network name.
    pub network: String,
    /// Images evaluated.
    pub images: usize,
    /// Per-layer statistics in execution order.
    pub layers: Vec<LayerFidelity>,
    /// Error rate of the final output tensor.
    pub output_error_rate: f64,
    /// Worst absolute deviation of the final output tensor.
    pub output_max_abs_delta: i64,
    /// Fraction of images whose arg-max class matches the reference.
    pub top1_agreement: f64,
    /// Total PCM cells written across the run.
    pub cells_programmed: u64,
    /// Total PCM programming energy (nJ).
    pub program_energy_nj: f64,
    /// `true` iff every layer of every image was bit-for-bit exact.
    pub exact: bool,
}

/// Runs a batch of images through both the device pipeline and the exact
/// integer reference and reports where (and how far) they diverge.
///
/// In [`SimConfig::ideal`] mode the report comes back with
/// `exact == true`, zero error rates, and 100% top-1 agreement; noisy
/// configurations quantify the per-layer erosion.
///
/// # Errors
///
/// Returns [`UnsupportedLayer`] for residual networks.
///
/// # Panics
///
/// Panics if `images` is empty or `filters` does not cover the network.
///
/// # Examples
///
/// ```
/// use oxbar_nn::synthetic;
/// use oxbar_nn::zoo::lenet5;
/// use oxbar_sim::{run_inference, SimConfig};
///
/// let net = lenet5();
/// let images = vec![synthetic::activations(net.input(), 6, 3)];
/// let filters = synthetic::filter_banks(&net, 6, 4);
/// let report = run_inference(&net, &SimConfig::ideal(128, 128), &images, &filters).unwrap();
/// assert!(report.exact);
/// assert_eq!(report.top1_agreement, 1.0);
/// ```
pub fn run_inference(
    network: &Network,
    config: &SimConfig,
    images: &[Tensor3],
    filters: &[FilterBank],
) -> Result<InferenceFidelity, UnsupportedLayer> {
    assert!(!images.is_empty(), "at least one image required");
    let executor = DeviceExecutor::new(config.clone());
    let mut layers: Vec<LayerFidelity> = Vec::new();
    let mut output_elements = 0usize;
    let mut output_mismatches = 0usize;
    let mut output_max_delta = 0i64;
    let mut top1_matches = 0usize;
    let mut cells = 0u64;
    let mut energy_nj = 0.0f64;

    for image in images {
        let device = executor.forward(network, image, filters)?;
        let reference = reference_layers(network, image, filters, config.activation_bits)?;
        assert_eq!(device.layers.len(), reference.len());
        if layers.is_empty() {
            layers = device
                .layers
                .iter()
                .map(|l| LayerFidelity {
                    name: l.name.clone(),
                    elements: 0,
                    mismatches: 0,
                    error_rate: 0.0,
                    max_abs_delta: 0,
                })
                .collect();
        }
        for ((dev, rf), agg) in device.layers.iter().zip(&reference).zip(&mut layers) {
            let (mism, max_delta) = compare(&dev.output, rf);
            agg.elements += rf.data().len();
            agg.mismatches += mism;
            agg.max_abs_delta = agg.max_abs_delta.max(max_delta);
            if let Some(stats) = &dev.stats {
                cells += stats.cells_programmed as u64;
                energy_nj += stats.program_energy.as_nanojoules();
            }
        }
        let final_ref = reference.last().expect("network has layers");
        let (mism, max_delta) = compare(&device.output, final_ref);
        output_elements += final_ref.data().len();
        output_mismatches += mism;
        output_max_delta = output_max_delta.max(max_delta);
        if argmax(&device.output) == argmax(final_ref) {
            top1_matches += 1;
        }
    }

    for layer in &mut layers {
        layer.error_rate = layer.mismatches as f64 / layer.elements.max(1) as f64;
    }
    let exact = layers.iter().all(|l| l.mismatches == 0);
    Ok(InferenceFidelity {
        network: network.name().to_string(),
        images: images.len(),
        layers,
        output_error_rate: output_mismatches as f64 / output_elements.max(1) as f64,
        output_max_abs_delta: output_max_delta,
        top1_agreement: top1_matches as f64 / images.len() as f64,
        cells_programmed: cells,
        program_energy_nj: energy_nj,
        exact,
    })
}

/// Convenience accessor: the device forward pass alone (no comparison).
///
/// # Errors
///
/// Returns [`UnsupportedLayer`] for residual networks.
pub fn device_forward(
    network: &Network,
    config: &SimConfig,
    image: &Tensor3,
    filters: &[FilterBank],
) -> Result<DeviceForward, UnsupportedLayer> {
    DeviceExecutor::new(config.clone()).forward(network, image, filters)
}

/// Exact per-layer reference outputs (the reference executor only returns
/// the final tensor, so the comparison re-walks the graph with the exact
/// integer convolution plugged into the shared [`walk_network`] skeleton —
/// the digital semantics around the MVM cannot diverge from the device
/// pipeline's).
fn reference_layers(
    network: &Network,
    input: &Tensor3,
    filters: &[FilterBank],
    bits: u8,
) -> Result<Vec<Tensor3>, UnsupportedLayer> {
    let mut walked = walk_network(network, &[input], bits, |_, conv_idx, conv, conv_inputs| {
        conv_inputs
            .iter()
            .map(|conv_input| conv2d_exact(conv_input, &filters[conv_idx], conv))
            .collect()
    })?;
    let walked = walked.pop().expect("one input gives one walk");
    Ok(walked.into_iter().map(|w| w.output).collect())
}

fn compare(a: &Tensor3, b: &Tensor3) -> (usize, i64) {
    assert_eq!(a.shape(), b.shape(), "comparison requires equal shapes");
    let mut mismatches = 0usize;
    let mut max_delta = 0i64;
    for (&x, &y) in a.data().iter().zip(b.data()) {
        if x != y {
            mismatches += 1;
            max_delta = max_delta.max((x - y).abs());
        }
    }
    (mismatches, max_delta)
}

fn argmax(t: &Tensor3) -> usize {
    t.data()
        .iter()
        .enumerate()
        .max_by(|(i, a), (j, b)| a.cmp(b).then(j.cmp(i)))
        .map_or(0, |(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oxbar_nn::synthetic;
    use oxbar_nn::zoo::lenet5;

    #[test]
    fn ideal_lenet_is_exact_with_full_top1() {
        let net = lenet5();
        let images: Vec<Tensor3> = (0..2)
            .map(|s| synthetic::activations(net.input(), 6, 100 + s))
            .collect();
        let filters = synthetic::filter_banks(&net, 6, 55);
        let report = run_inference(&net, &SimConfig::ideal(128, 128), &images, &filters).unwrap();
        assert!(report.exact, "{report:?}");
        assert_eq!(report.output_error_rate, 0.0);
        assert_eq!(report.output_max_abs_delta, 0);
        assert_eq!(report.top1_agreement, 1.0);
        assert!(report.cells_programmed > 0);
        assert!(report.program_energy_nj > 0.0);
        assert_eq!(report.layers.len(), net.layers().len());
    }

    #[test]
    fn noisy_lenet_reports_per_layer_erosion() {
        let net = lenet5();
        let images = vec![synthetic::activations(net.input(), 6, 7)];
        let filters = synthetic::filter_banks(&net, 6, 8);
        let report = run_inference(&net, &SimConfig::noisy(128, 128), &images, &filters).unwrap();
        assert!(!report.exact, "noise must perturb some activation");
        assert!(report.output_error_rate <= 1.0);
        // The crossbar-mapped layers carry stats; pooling layers do not.
        assert!(report.layers.iter().any(|l| l.mismatches > 0));
    }

    #[test]
    fn argmax_prefers_first_maximum() {
        use oxbar_nn::TensorShape;
        let t = Tensor3::new(TensorShape::flat(4), vec![1, 5, 5, 2]);
        assert_eq!(argmax(&t), 1);
    }
}
