//! Exact integer reference execution — the functional ground truth the
//! photonic crossbar is validated against.

use crate::layer::{Activation, Conv2d, Layer, Pool, PoolKind};
use crate::shape::TensorShape;
use crate::Network;
use serde::{Deserialize, Serialize};

/// A single-image integer activation tensor in HWC layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tensor3 {
    shape: TensorShape,
    data: Vec<i64>,
}

impl Tensor3 {
    /// Creates a tensor from HWC-ordered data.
    ///
    /// # Panics
    ///
    /// Panics if `data` length differs from the shape's element count.
    #[must_use]
    pub fn new(shape: TensorShape, data: Vec<i64>) -> Self {
        assert_eq!(
            data.len(),
            shape.elements(),
            "data length {} != shape {shape}",
            data.len()
        );
        Self { shape, data }
    }

    /// A zero tensor.
    #[must_use]
    pub fn zeros(shape: TensorShape) -> Self {
        Self::new(shape, vec![0; shape.elements()])
    }

    /// The shape.
    #[must_use]
    pub fn shape(&self) -> TensorShape {
        self.shape
    }

    /// Raw HWC data.
    #[must_use]
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    /// Element access with zero padding outside bounds.
    #[must_use]
    pub fn at_padded(&self, y: isize, x: isize, c: usize) -> i64 {
        if y < 0 || x < 0 || y >= self.shape.h as isize || x >= self.shape.w as isize {
            return 0;
        }
        self.data[(y as usize * self.shape.w + x as usize) * self.shape.c + c]
    }

    /// Maximum absolute value (0 for an empty tensor).
    #[must_use]
    pub fn max_abs(&self) -> i64 {
        self.data.iter().map(|v| v.abs()).max().unwrap_or(0)
    }
}

/// Flattened filter bank for one conv layer: `[out_c][kh·kw·in_c_per_group]`
/// signed codes, grouped consecutively (group g owns output channels
/// `g·out_per_group ..`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterBank {
    /// Weights per output channel, flattened kh·kw·cin-per-group, HWC order.
    pub weights: Vec<Vec<i8>>,
}

impl FilterBank {
    /// Validates the bank against a conv spec.
    ///
    /// # Panics
    ///
    /// Panics on a shape mismatch.
    pub fn check(&self, conv: &Conv2d) {
        assert_eq!(self.weights.len(), conv.out_c, "filter count mismatch");
        for (oc, w) in self.weights.iter().enumerate() {
            assert_eq!(w.len(), conv.filter_rows(), "filter {oc} length mismatch");
        }
    }
}

/// Exact integer convolution (no requantization): returns raw accumulators.
///
/// # Panics
///
/// Panics if the input or filters don't match the spec.
#[must_use]
pub fn conv2d_exact(input: &Tensor3, filters: &FilterBank, conv: &Conv2d) -> Tensor3 {
    assert_eq!(input.shape(), conv.input, "input shape mismatch");
    filters.check(conv);
    let out = conv.output_shape();
    let in_per_group = conv.in_c_per_group();
    let out_per_group = conv.out_c_per_group();
    let mut data = vec![0i64; out.elements()];
    for oy in 0..out.h {
        for ox in 0..out.w {
            for oc in 0..conv.out_c {
                let group = oc / out_per_group;
                let c_base = group * in_per_group;
                let w = &filters.weights[oc];
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
                data[(oy * out.w + ox) * out.c + oc] = acc;
            }
        }
    }
    Tensor3::new(out, data)
}

/// Integer pooling.
///
/// Average pooling uses truncating division (hardware-style).
///
/// # Panics
///
/// Panics if the input shape mismatches the pool spec.
#[must_use]
pub fn pool_exact(input: &Tensor3, pool: &Pool) -> Tensor3 {
    assert_eq!(input.shape(), pool.input, "input shape mismatch");
    let out = pool.output_shape();
    let mut data = vec![0i64; out.elements()];
    for oy in 0..out.h {
        for ox in 0..out.w {
            for c in 0..out.c {
                let mut acc: Option<i64> = None;
                let mut sum = 0i64;
                for ky in 0..pool.k {
                    for kx in 0..pool.k {
                        let iy = (oy * pool.stride + ky) as isize - pool.padding as isize;
                        let ix = (ox * pool.stride + kx) as isize - pool.padding as isize;
                        let v = input.at_padded(iy, ix, c);
                        sum += v;
                        acc = Some(acc.map_or(v, |a: i64| a.max(v)));
                    }
                }
                data[(oy * out.w + ox) * out.c + c] = match pool.kind {
                    PoolKind::Max => acc.unwrap_or(0),
                    PoolKind::Average => sum / (pool.k * pool.k) as i64,
                };
            }
        }
    }
    Tensor3::new(out, data)
}

/// Rescales raw accumulators into the unsigned activation range
/// `[0, 2^bits − 1]` with a per-tensor power-of-two shift (hardware-style
/// requantization). Returns the shifted tensor and the shift used.
#[must_use]
pub fn requantize(tensor: &Tensor3, bits: u8) -> (Tensor3, u32) {
    let ceiling = (1i64 << bits) - 1;
    let max = tensor.data().iter().copied().max().unwrap_or(0).max(0);
    let min = tensor.data().iter().copied().min().unwrap_or(0).min(0);
    // Arithmetic right shift rounds toward -inf, so the negative bound
    // must be checked on the shifted minimum itself: deriving the shift
    // from max_abs alone lets e.g. -127 >> 1 = -64 escape a 6-bit
    // ceiling of +/-63.
    let mut shift = 0u32;
    while (max >> shift) > ceiling || (min >> shift) < -ceiling {
        shift += 1;
    }
    let data = tensor.data().iter().map(|&v| v >> shift).collect();
    (Tensor3::new(tensor.shape(), data), shift)
}

/// Applies a fused activation in place semantics (returns a new tensor).
#[must_use]
pub fn activate(tensor: &Tensor3, activation: Activation) -> Tensor3 {
    let data = tensor
        .data()
        .iter()
        .map(|&v| match activation {
            Activation::None => v,
            Activation::Relu => v.max(0),
        })
        .collect();
    Tensor3::new(tensor.shape(), data)
}

/// Per-layer record of a reference forward pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerTrace {
    /// Layer name.
    pub name: String,
    /// Requantization shift applied after the layer.
    pub shift: u32,
    /// Output shape.
    pub output: TensorShape,
}

/// Exact INT-`bits` executor for *sequential* networks (no residual `Add`
/// layers — the flattened graph does not carry skip wiring; see the module
/// docs of [`crate::graph`]).
#[derive(Debug, Clone)]
pub struct Executor {
    bits: u8,
}

/// Error returned when a network contains layers the executor cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedLayer {
    /// The offending layer's name.
    pub layer: String,
}

impl core::fmt::Display for UnsupportedLayer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "layer `{}` is not executable by the sequential reference executor",
            self.layer
        )
    }
}

impl std::error::Error for UnsupportedLayer {}

impl UnsupportedLayer {
    /// Refuses a network the sequential executors cannot run: one with a
    /// residual `Add` layer, whose skip wiring the flattened layer list
    /// does not carry.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedLayer`] naming the network's first `Add`
    /// layer.
    pub fn check(network: &Network) -> Result<(), Self> {
        network.layers().iter().try_for_each(|l| match l {
            Layer::Add(a) => Err(Self {
                layer: a.name.clone(),
            }),
            _ => Ok(()),
        })
    }
}

impl Executor {
    /// Creates an executor with the given activation precision.
    #[must_use]
    pub fn new(bits: u8) -> Self {
        Self { bits }
    }

    /// Runs a forward pass with the given per-conv-layer filter banks
    /// (indexed in [`Network::conv_like_layers`] order).
    ///
    /// Returns the output tensor and per-layer traces.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedLayer`] for networks with residual `Add` layers.
    ///
    /// # Panics
    ///
    /// Panics if `filters` does not provide a bank per conv-like layer.
    pub fn forward(
        &self,
        network: &Network,
        input: &Tensor3,
        filters: &[FilterBank],
    ) -> Result<(Tensor3, Vec<LayerTrace>), UnsupportedLayer> {
        UnsupportedLayer::check(network)?;
        let mut conv_idx = 0;
        let mut current = input.clone();
        let mut traces = Vec::new();
        for layer in network.layers() {
            match layer {
                Layer::Add(_) => unreachable!("Add layers rejected by the check"),
                Layer::Pool(p) => {
                    current = pool_exact(&current, p);
                    traces.push(LayerTrace {
                        name: p.name.clone(),
                        shift: 0,
                        output: current.shape(),
                    });
                }
                Layer::Conv2d(_) | Layer::Dense(_) => {
                    let conv = match layer {
                        Layer::Conv2d(c) => c.clone(),
                        Layer::Dense(d) => d.as_conv(),
                        _ => unreachable!(),
                    };
                    // A dense layer consumes the flattened previous tensor.
                    let conv_input = if current.shape() != conv.input
                        && current.shape().elements() == conv.input.elements()
                    {
                        Tensor3::new(conv.input, current.data().to_vec())
                    } else {
                        current.clone()
                    };
                    assert!(
                        conv_idx < filters.len(),
                        "missing filter bank for `{}`",
                        conv.name
                    );
                    let raw = conv2d_exact(&conv_input, &filters[conv_idx], &conv);
                    conv_idx += 1;
                    let activated = activate(&raw, conv.activation);
                    let (requant, shift) = requantize(&activated, self.bits);
                    traces.push(LayerTrace {
                        name: conv.name.clone(),
                        shift,
                        output: requant.shape(),
                    });
                    current = requant;
                }
            }
        }
        Ok((current, traces))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;
    use crate::zoo::lenet5;

    #[test]
    fn conv_identity_kernel() {
        // A 1×1 conv with weight 1 copies the input channel.
        let input = Tensor3::new(TensorShape::new(2, 2, 1), vec![1, 2, 3, 4]);
        let conv = Conv2d::new("id", TensorShape::new(2, 2, 1), 1, 1, 1, 1, 0);
        let filters = FilterBank {
            weights: vec![vec![1]],
        };
        let out = conv2d_exact(&input, &filters, &conv);
        assert_eq!(out.data(), &[1, 2, 3, 4]);
    }

    #[test]
    fn conv_sums_window() {
        // 3×3 all-ones kernel with padding 1 on a 3×3 all-ones image:
        // corners see 4 neighbours, edges 6, center 9.
        let input = Tensor3::new(TensorShape::new(3, 3, 1), vec![1; 9]);
        let conv = Conv2d::new("sum", TensorShape::new(3, 3, 1), 3, 3, 1, 1, 1);
        let filters = FilterBank {
            weights: vec![vec![1; 9]],
        };
        let out = conv2d_exact(&input, &filters, &conv);
        assert_eq!(out.data(), &[4, 6, 4, 6, 9, 6, 4, 6, 4]);
    }

    #[test]
    fn stride_downsamples() {
        let input = Tensor3::new(TensorShape::new(4, 4, 1), (1..=16).collect());
        let conv = Conv2d::new("s2", TensorShape::new(4, 4, 1), 1, 1, 1, 2, 0);
        let filters = FilterBank {
            weights: vec![vec![1]],
        };
        let out = conv2d_exact(&input, &filters, &conv);
        assert_eq!(out.data(), &[1, 3, 9, 11]);
    }

    #[test]
    fn grouped_conv_partitions_channels() {
        // Two groups: each output channel sees only its half of the input.
        let input = Tensor3::new(TensorShape::new(1, 1, 4), vec![1, 10, 100, 1000]);
        let conv = Conv2d::new("g2", TensorShape::new(1, 1, 4), 1, 1, 2, 1, 0).with_groups(2);
        let filters = FilterBank {
            weights: vec![vec![1, 1], vec![1, 1]],
        };
        let out = conv2d_exact(&input, &filters, &conv);
        assert_eq!(out.data(), &[11, 1100]);
    }

    #[test]
    fn max_pool_picks_maximum() {
        let input = Tensor3::new(TensorShape::new(2, 2, 1), vec![5, -3, 2, 9]);
        let pool = Pool::new("p", TensorShape::new(2, 2, 1), PoolKind::Max, 2, 2, 0);
        assert_eq!(pool_exact(&input, &pool).data(), &[9]);
    }

    #[test]
    fn avg_pool_truncates() {
        let input = Tensor3::new(TensorShape::new(2, 2, 1), vec![1, 2, 3, 5]);
        let pool = Pool::new("p", TensorShape::new(2, 2, 1), PoolKind::Average, 2, 2, 0);
        assert_eq!(pool_exact(&input, &pool).data(), &[2]); // 11/4 truncated
    }

    #[test]
    fn requantize_bounds_range() {
        let t = Tensor3::new(TensorShape::new(1, 1, 3), vec![1000, 500, 63]);
        let (q, shift) = requantize(&t, 6);
        assert!(shift > 0);
        assert!(q.max_abs() <= 63);
    }

    #[test]
    fn requantize_bounds_negative_boundary_values() {
        // Arithmetic shift rounds toward -inf: a max_abs-derived shift
        // would send -127 >> 1 to -64, one past the 6-bit ceiling.
        for v in [-64i64, -127, -128, -129, -4097] {
            let t = Tensor3::new(TensorShape::new(1, 1, 2), vec![v, 63]);
            let (q, _) = requantize(&t, 6);
            assert!(q.max_abs() <= 63, "{v} requantized to {:?}", q.data());
        }
        // Positive-only tensors keep the historical shifts exactly.
        let t = Tensor3::new(TensorShape::new(1, 1, 2), vec![127, 63]);
        assert_eq!(requantize(&t, 6).1, 1);
        let t = Tensor3::new(TensorShape::new(1, 1, 1), vec![63]);
        assert_eq!(requantize(&t, 6).1, 0);
    }

    #[test]
    fn relu_clamps() {
        let t = Tensor3::new(TensorShape::new(1, 1, 2), vec![-5, 5]);
        assert_eq!(activate(&t, Activation::Relu).data(), &[0, 5]);
    }

    #[test]
    fn lenet_forward_runs_end_to_end() {
        let net = lenet5();
        let input = synthetic::activations(net.input(), 6, 42);
        let filters = synthetic::filter_banks(&net, 6, 7);
        let (out, traces) = Executor::new(6).forward(&net, &input, &filters).unwrap();
        assert_eq!(out.shape().elements(), 10);
        assert_eq!(traces.len(), net.layers().len());
        // Outputs must fit the INT6 activation range after requantization.
        assert!(out.max_abs() <= 63);
    }

    #[test]
    fn residual_networks_rejected() {
        let net = crate::zoo::resnet50_v1_5();
        let input = synthetic::activations(net.input(), 6, 1);
        let filters = synthetic::filter_banks(&net, 6, 2);
        let err = Executor::new(6)
            .forward(&net, &input, &filters)
            .unwrap_err();
        assert!(err.to_string().contains("conv2_1_add"));
    }
}
