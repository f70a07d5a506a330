//! A batch-major forward ([`DeviceExecutor::try_forward_batch`]) is one
//! [`DeviceExecutor::forward`] per input, byte for byte — the final
//! output, every layer's output and shift, and each input's per-layer
//! `LayerStats` — across batch sizes, networks, noise, signed inputs and
//! cell budgets that hold the whole model, all but one cell of it, or
//! nothing. And a batch programs each tile at most once.

use oxbar_nn::reference::{FilterBank, Tensor3};
use oxbar_nn::synthetic::{self, small_network};
use oxbar_nn::zoo::lenet5;
use oxbar_nn::{Dense, Layer, Network, TensorShape};
use oxbar_sim::{DeviceExecutor, SimConfig};
use proptest::prelude::*;

/// The largest batch under test.
const MAX_BATCH: usize = 8;

/// `size` seeded inputs; every other one is signed (negated at odd
/// positions), so batches mix one- and two-pass inputs.
fn batch_inputs(net: &Network, seed: u64, size: usize) -> Vec<Tensor3> {
    (0..size as u64)
        .map(|i| {
            let input = synthetic::activations(net.input(), 6, seed ^ (i << 8));
            if i % 2 == 0 {
                return input;
            }
            let data = input
                .data()
                .iter()
                .enumerate()
                .map(|(k, &v)| if k % 2 == 1 { -v } else { v })
                .collect();
            Tensor3::new(input.shape(), data)
        })
        .collect()
}

/// A two-layer perceptron: its first layer is dense, so the inputs that
/// share one execute call arrive raw — signed and unsigned side by side.
fn mlp(seed: u64) -> Network {
    let features = 3 + (seed % 40) as usize;
    let hidden = 2 + (seed / 40 % 20) as usize;
    let classes = 2 + (seed % 5) as usize;
    let mut net = Network::new(format!("mlp_{seed}"), TensorShape::flat(features));
    net.push(Layer::Dense(Dense::new("fc1", features, hidden)));
    net.push(Layer::Dense(Dense::new("fc2", hidden, classes)));
    net
}

/// The cell budgets under test: the default, one cell short of the
/// model's footprint (the last tile never stays resident), and 0 (every
/// tile is programmed on every use).
fn budgets(net: &Network, config: &SimConfig) -> [Option<usize>; 3] {
    let footprint = DeviceExecutor::new(config.clone()).model_footprint_cells(net);
    [None, Some(footprint - 1), Some(0)]
}

fn executor(config: &SimConfig, budget: Option<usize>) -> DeviceExecutor {
    let exec = DeviceExecutor::new(config.clone());
    match budget {
        Some(cells) => exec.with_cache_budget(cells),
        None => exec,
    }
}

/// Every batch `inputs[..n]` for `n` in `sizes`, each on a fresh
/// executor and then again warm, equals one forward per input.
fn assert_batches_equal_singles(
    net: &Network,
    filters: &[FilterBank],
    config: &SimConfig,
    inputs: &[Tensor3],
    sizes: impl IntoIterator<Item = usize>,
) {
    let sizes: Vec<usize> = sizes.into_iter().collect();
    for budget in budgets(net, config) {
        let lone = executor(config, budget);
        let singles: Vec<_> = inputs
            .iter()
            .map(|input| lone.forward(net, input, filters).unwrap())
            .collect();
        for &size in &sizes {
            let exec = executor(config, budget);
            let refs: Vec<&Tensor3> = inputs[..size].iter().collect();
            for pass in ["cold", "warm"] {
                let batch = exec.try_forward_batch(net, &refs, filters).unwrap();
                let context = format!("{} batch {size} {pass} budget {budget:?}", net.name());
                assert_eq!(batch, singles[..size], "{context}");
                assert_eq!(
                    serde_json::to_string(&batch).unwrap(),
                    serde_json::to_string(&singles[..size].to_vec()).unwrap(),
                    "{context}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batch_equals_singles_on_small_networks(seed in 0u64..10_000) {
        for net in [small_network(seed), mlp(seed)] {
            let filters = synthetic::filter_banks(&net, 6, seed ^ 0xAA);
            let inputs = batch_inputs(&net, seed, MAX_BATCH);
            for config in [SimConfig::ideal(16, 8), SimConfig::noisy(16, 8)] {
                let config = config.with_seed(seed).with_threads(1);
                assert_batches_equal_singles(&net, &filters, &config, &inputs, 1..=MAX_BATCH);
            }
        }
    }
}

#[test]
fn batch_equals_singles_on_lenet5() {
    let net = lenet5();
    let filters = synthetic::filter_banks(&net, 6, 7);
    let inputs = batch_inputs(&net, 42, MAX_BATCH);
    for config in [SimConfig::ideal(128, 128), SimConfig::noisy(128, 128)] {
        assert_batches_equal_singles(&net, &filters, &config, &inputs, 1..=MAX_BATCH);
    }
}

#[test]
fn batch_equals_singles_past_the_shared_call_cap() {
    // Enough one- and two-window inputs that a dense layer's shared
    // execute calls split several times.
    let net = mlp(77);
    let filters = synthetic::filter_banks(&net, 6, 78);
    let inputs = batch_inputs(&net, 79, 70);
    for config in [SimConfig::ideal(16, 8), SimConfig::noisy(16, 8)] {
        assert_batches_equal_singles(&net, &filters, &config, &inputs, [70]);
    }
}

#[test]
fn batch_equals_singles_with_parallel_tiles() {
    // Tile jobs on several threads add into the shared lanes in any
    // order; integer sums make that order invisible.
    let net = lenet5();
    let filters = synthetic::filter_banks(&net, 6, 9);
    let inputs = batch_inputs(&net, 11, 4);
    let config = SimConfig::noisy(64, 64).with_threads(4);
    assert_batches_equal_singles(&net, &filters, &config, &inputs, [4]);
}

#[test]
fn a_batch_programs_each_missing_tile_once() {
    let net = lenet5();
    let filters = synthetic::filter_banks(&net, 6, 3);
    let inputs = batch_inputs(&net, 5, 4);
    let refs: Vec<&Tensor3> = inputs.iter().collect();
    let config = SimConfig::noisy(128, 128).with_threads(1);
    let [_, short, cold] = budgets(&net, &config);

    // One cell short of the footprint: after a first forward every tile
    // but the last is resident.
    let exec = executor(&config, short);
    exec.forward(&net, &inputs[0], &filters).unwrap();
    let primed = exec.cache_stats();
    let tiles = primed.misses;
    let missing = tiles - primed.entries as u64;
    assert_eq!(missing, 1, "exactly one tile does not fit");
    exec.try_forward_batch(&net, &refs, &filters).unwrap();
    let after = exec.cache_stats();
    assert_eq!(
        after.misses - primed.misses,
        missing,
        "a batch of 4 programs a non-resident tile once, not 4 times"
    );
    assert_eq!(after.hits - primed.hits, primed.entries as u64);

    // With no budget at all, a batch programs every tile exactly once.
    let exec = executor(&config, cold);
    exec.try_forward_batch(&net, &refs, &filters).unwrap();
    let stats = exec.cache_stats();
    assert_eq!((stats.misses, stats.hits), (tiles, 0));
}
