//! Device-level **autoregressive transformer** execution: a decode batch
//! on the photonic crossbar, bit-exact against the integer oracle in
//! [`SimConfig::ideal`] mode.
//!
//! The transformer step ([`oxbar_nn::transformer::generate_steps`]) is
//! generic over a [`MatmulEngine`] and runs a decode batch batch-major:
//! every sequence goes through the stack layer by layer, each keeping its
//! own KV cache, token and position. This module provides the device
//! backend. The six projections of each block plus the LM head run as
//! **static** MVMs, one executor call per projection for the whole
//! decode batch (the batch form of [`DeviceExecutor::conv_pixels_flat`])
//! — the same weight-stationary path CNN layers use, sharing the tile
//! cache, so each projection tile is looked up, validated and driven
//! once per batch (one cache hit per tile per batch); one forward of
//! the dense stack programs them all ahead of a decode. The
//! per-head `QKᵀ` and `AV` products run as **dynamic** MVMs, one
//! executor call per attention stage for the whole batch (the batch
//! form of [`DeviceExecutor::dynamic_mv`]): their "weights" are the KV
//! cache, different every token, so each tile is programmed, used once,
//! and discarded without touching the cache. All of a stage's sequences
//! of one geometry share one plan per tile (fold, gain factors, readout
//! chain, remembered draws); only their codes are programmed apart.
//!
//! The device noise of those tiles does not change between tokens. A
//! dynamic tile's seed fixes its PCM-write normals and its trimmed
//! residual phases, as prefixes independent of the tile's shape, so the
//! executor remembers them per seed ([`crate::tile::TileNoise`], grown to
//! the largest tile the seed has programmed) and each call only maps the
//! new codes, writes the cells and reads their drift straight into pooled
//! gain planes. This is the executor's one memo rule: it remembers the
//! draws of every tile that will be programmed again at its next use,
//! which is every dynamic tile and every static projection tile the cell
//! budget refuses (within that budget). Remembering a draw cannot change a value: the same float
//! operations run on the same numbers in the same order as a fresh
//! program and compile (`crates/sim/tests/dynamic_noise.rs` pins the noisy
//! path to recorded outputs and to the field-walk oracle). The memory is
//! bounded by one array of draws per dynamic seed: about 1.6 MB per
//! executor for `llm_tiny` at 1,024 positions (8 stages × 8 tiles ×
//! 1,024 cells), about 25 KB for 16-step sequences.
//!
//! Layernorm, softmax, requantization, and the ReLU between the
//! feed-forward projections stay digital (inside `generate_steps`
//! itself), mirroring how the CNN path keeps pooling and activation off
//! the analog array.
//!
//! [`lm_steps`] is the serving entry point: it runs one decode step of
//! every sequence in a batch against read-only KV caches and returns the
//! rows to append, so the caller decides when a step is accepted and a
//! step re-run on a replica decodes bit-identically. Each sequence's
//! outcome is byte-identical to a one-sequence batch of it
//! (`crates/sim/tests/llm_batch.rs`).

use crate::executor::DeviceExecutor;
use oxbar_nn::reference::{FilterBank, Tensor3};
use oxbar_nn::transformer::{generate_steps, LmWeights, MatmulEngine, StepInput, StepOutcome};
use oxbar_nn::{Layer, Network, TensorShape};

#[cfg(doc)]
use crate::config::SimConfig;

/// [`DeviceLmEngine`]'s error type: a device MVM cannot fail, so this is
/// the uninhabited type the integer oracle's engine uses too.
pub type ExecError = core::convert::Infallible;

/// The photonic-crossbar backend for [`oxbar_nn::transformer`]: static
/// projections through the weight-stationary cached path, attention
/// matmuls through the uncached dynamic path, each one executor call per
/// decode batch.
#[derive(Debug)]
pub struct DeviceLmEngine<'a> {
    executor: &'a DeviceExecutor,
    network: &'a Network,
    filters: &'a [FilterBank],
}

impl<'a> DeviceLmEngine<'a> {
    /// Creates an engine over the model's dense stack (from
    /// [`LmWeights::network`]) and its filter banks (from
    /// [`LmWeights::filters`]).
    ///
    /// # Panics
    ///
    /// Panics if the network contains non-dense layers or the filter
    /// count disagrees with the layer count.
    #[must_use]
    pub fn new(
        executor: &'a DeviceExecutor,
        network: &'a Network,
        filters: &'a [FilterBank],
    ) -> Self {
        assert!(
            network
                .layers()
                .iter()
                .all(|layer| matches!(layer, Layer::Dense(_))),
            "transformer stack must be all-dense"
        );
        assert_eq!(
            network.layers().len(),
            filters.len(),
            "filter count disagrees with layer count"
        );
        Self {
            executor,
            network,
            filters,
        }
    }
}

impl MatmulEngine for DeviceLmEngine<'_> {
    type Error = ExecError;

    fn static_mv(&mut self, layer_index: usize, drive: &[i64]) -> Result<Vec<i64>, Self::Error> {
        let mut values = self.static_mv_batch(layer_index, &[drive])?;
        Ok(values.pop().expect("one drive gives one output"))
    }

    fn dynamic_mv(
        &mut self,
        stage: usize,
        rows: &[Vec<i8>],
        drive: &[i64],
    ) -> Result<Vec<i64>, Self::Error> {
        Ok(self.executor.dynamic_mv(stage, rows, drive))
    }

    fn static_mv_batch(
        &mut self,
        layer_index: usize,
        drives: &[&[i64]],
    ) -> Result<Vec<Vec<i64>>, Self::Error> {
        let Layer::Dense(dense) = &self.network.layers()[layer_index] else {
            unreachable!("constructor enforces an all-dense stack");
        };
        let conv = dense.as_conv();
        let inputs: Vec<Tensor3> = drives
            .iter()
            .map(|drive| Tensor3::new(TensorShape::flat(drive.len()), drive.to_vec()))
            .collect();
        let inputs: Vec<&Tensor3> = inputs.iter().collect();
        Ok(self
            .executor
            .conv_pixels_batch(
                &conv,
                &inputs,
                &self.filters[layer_index],
                layer_index,
                &[0],
            )
            .into_iter()
            .map(|(values, _)| values)
            .collect())
    }

    fn dynamic_mv_batch(
        &mut self,
        stage: usize,
        products: &[(&[Vec<i8>], &[i64])],
    ) -> Result<Vec<Vec<i64>>, Self::Error> {
        Ok(self.executor.dynamic_mv_batch(stage, products))
    }
}

/// One autoregressive decode step on the device for every sequence of
/// `batch`, batch-major ([`generate_steps`]): each sequence embeds its
/// token at its position and runs the full block stack against its
/// read-only cache. Apply each returned [`StepOutcome`] with
/// [`oxbar_nn::transformer::KvCache::apply`] once the step is accepted
/// (the split makes a re-run idempotent).
///
/// # Panics
///
/// Panics if a token is outside the vocabulary, a cache length disagrees
/// with its position, or the network/filters don't match `weights`.
pub fn lm_steps(
    executor: &DeviceExecutor,
    network: &Network,
    filters: &[FilterBank],
    weights: &LmWeights,
    batch: &[StepInput<'_>],
) -> Vec<StepOutcome> {
    let mut engine = DeviceLmEngine::new(executor, network, filters);
    let Ok(steps) = generate_steps(weights, &mut engine, batch);
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use oxbar_nn::transformer::{generate, KvCache, LmConfig, OracleEngine};

    fn tiny_weights(seed: u64) -> LmWeights {
        LmWeights::synthetic(LmConfig::tiny(), seed)
    }

    fn device_generate(
        executor: &DeviceExecutor,
        weights: &LmWeights,
        prompt: u32,
        steps: usize,
    ) -> Vec<StepOutcome> {
        let network = weights.network("lm");
        let filters = weights.filters();
        let mut cache = KvCache::new(&weights.config);
        let mut token = prompt;
        let mut outcomes = Vec::with_capacity(steps);
        for pos in 0..steps {
            let step = StepInput {
                cache: &cache,
                token,
                pos,
            };
            let outcome = lm_steps(executor, &network, &filters, weights, &[step]).remove(0);
            cache.apply(&outcome);
            token = outcome.next_token;
            outcomes.push(outcome);
        }
        outcomes
    }

    #[test]
    fn ideal_device_matches_oracle_bit_for_bit() {
        let weights = tiny_weights(11);
        let executor = DeviceExecutor::new(SimConfig::ideal(128, 128));
        let device = device_generate(&executor, &weights, 3, 6);
        let mut oracle = OracleEngine::new(&weights);
        let exact = generate(&weights, &mut oracle, 3, 6).expect("oracle is infallible");
        assert_eq!(device.len(), exact.len());
        for (d, e) in device.iter().zip(&exact) {
            assert_eq!(d.next_token, e.next_token);
            assert_eq!(d.logits, e.logits);
            assert_eq!(d.k_rows, e.k_rows);
            assert_eq!(d.v_rows, e.v_rows);
        }
    }

    #[test]
    fn dynamic_path_never_touches_the_tile_cache() {
        let weights = tiny_weights(5);
        let executor = DeviceExecutor::new(SimConfig::ideal(128, 128));
        let network = weights.network("lm");
        let filters = weights.filters();
        let zeros = Tensor3::new(network.input(), vec![0; network.input().elements()]);
        executor.forward(&network, &zeros, &filters).unwrap();
        let warm = executor.cache_stats();
        device_generate(&executor, &weights, 1, 4);
        let after = executor.cache_stats();
        // Every static MVM hits the tiles the forward programmed; dynamic
        // matmuls add neither entries nor misses.
        assert_eq!(after.entries, warm.entries);
        assert_eq!(after.misses, warm.misses);
        assert!(after.hits > warm.hits);
    }

    #[test]
    fn noisy_decode_is_deterministic_across_thread_counts() {
        let weights = tiny_weights(23);
        let serial = DeviceExecutor::new(SimConfig::noisy(128, 128).with_threads(1));
        let parallel = DeviceExecutor::new(SimConfig::noisy(128, 128).with_threads(4));
        let a = device_generate(&serial, &weights, 2, 5);
        let b = device_generate(&parallel, &weights, 2, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.next_token, y.next_token);
            assert_eq!(x.logits, y.logits);
        }
    }

    #[test]
    fn dynamic_mv_matches_exact_dot_in_ideal_mode() {
        let executor = DeviceExecutor::new(SimConfig::ideal(128, 128));
        let rows: Vec<Vec<i8>> = vec![vec![3, -5, 7], vec![-31, 0, 31], vec![1, 2, 3]];
        let drive = vec![63, -12, 40];
        let got = executor.dynamic_mv(0, &rows, &drive);
        let exact: Vec<i64> = rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&drive)
                    .map(|(&w, &x)| i64::from(w) * x)
                    .sum()
            })
            .collect();
        assert_eq!(got, exact);
    }

    #[test]
    fn dynamic_mv_folds_long_sequences() {
        // 300 cached positions on a 128×128 array forces row folding on
        // the AV pass; the folded sum must still match the exact dot.
        let executor = DeviceExecutor::new(SimConfig::ideal(128, 128));
        let positions = 300;
        let rows: Vec<Vec<i8>> = (0..16)
            .map(|d| {
                (0..positions)
                    .map(|j| (((d * 7 + j * 13) % 63) as i8) - 31)
                    .collect()
            })
            .collect();
        let drive: Vec<i64> = (0..positions).map(|j| (j % 64) as i64).collect();
        let got = executor.dynamic_mv(1, &rows, &drive);
        let exact: Vec<i64> = rows
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&drive)
                    .map(|(&w, &x)| i64::from(w) * x)
                    .sum()
            })
            .collect();
        assert_eq!(got, exact);
    }
}
