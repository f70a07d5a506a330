//! A decode batch runs batch-major: each static projection is one
//! executor call for all of the batch's sequences, and each attention
//! stage runs under one plan per tile geometry. The contract: every
//! sequence's outcome (next token, logits, K/V rows) is byte-identical
//! to that sequence stepped alone, on noisy chips of both weight
//! mappings, and on ideal physics the device batch equals the integer
//! oracle driven through the default (one call per sequence) trait
//! methods.
//!
//! The batch mixes positions so that some sequences share a geometry
//! (and so a plan) and others do not, and so that both attention passes
//! fold past 128 rows: `QKᵀ` at 129 and 300 positions folds its columns,
//! `AV` its rows.

use oxbar_nn::mapping::WeightMapping;
use oxbar_nn::transformer::{
    generate_step, generate_steps, KvCache, LmConfig, LmWeights, OracleEngine, StepInput,
    StepOutcome,
};
use oxbar_sim::{lm_steps, DeviceExecutor, SimConfig};

/// The position each sequence of the batch decodes at. The repeats share
/// a geometry with an earlier sequence.
const POSITIONS: [usize; 8] = [0, 1, 16, 129, 300, 16, 300, 0];

/// SplitMix64: the deterministic stream the cached K/V rows come from.
struct Codes(u64);

impl Codes {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A code in `−q..=q`.
    fn code(&mut self, q: i64) -> i8 {
        i8::try_from(self.next() % (2 * q as u64 + 1)).expect("code fits i8") - q as i8
    }
}

/// A `positions`-long cache of weight-code K/V rows, drawn from `seed`.
fn cache(weights: &LmWeights, positions: usize, seed: u64) -> KvCache {
    let config = &weights.config;
    let mut codes = Codes(seed);
    let mut cache = KvCache::new(config);
    for block in &mut cache.blocks {
        for _ in 0..positions {
            let mut row = || {
                (0..config.d_model)
                    .map(|_| codes.code(config.q_max()))
                    .collect()
            };
            block.k.push(row());
            block.v.push(row());
        }
    }
    assert_eq!(cache.len(), positions);
    cache
}

/// The batch's caches and tokens, one per [`POSITIONS`] entry.
fn scenario(weights: &LmWeights) -> (Vec<KvCache>, Vec<u32>) {
    let caches = POSITIONS
        .iter()
        .enumerate()
        .map(|(s, &pos)| cache(weights, pos, 100 + s as u64))
        .collect();
    let tokens = (0..POSITIONS.len())
        .map(|s| (s * 7 % weights.config.vocab) as u32)
        .collect();
    (caches, tokens)
}

fn batch<'a>(caches: &'a [KvCache], tokens: &[u32]) -> Vec<StepInput<'a>> {
    caches
        .iter()
        .zip(tokens)
        .zip(POSITIONS)
        .map(|((cache, &token), pos)| StepInput { cache, token, pos })
        .collect()
}

fn weights() -> LmWeights {
    LmWeights::synthetic(LmConfig::tiny(), 10)
}

/// The whole batch in one [`lm_steps`] call, and each sequence in a
/// one-sequence call of its own on a second executor.
fn together_and_alone(config: &SimConfig) -> (Vec<StepOutcome>, Vec<StepOutcome>) {
    let weights = weights();
    let (network, filters) = (weights.network("lm"), weights.filters());
    let (caches, tokens) = scenario(&weights);
    let steps = batch(&caches, &tokens);
    let batched = DeviceExecutor::new(config.clone());
    let together = lm_steps(&batched, &network, &filters, &weights, &steps);
    let lone = DeviceExecutor::new(config.clone());
    let alone = steps
        .iter()
        .map(|step| lm_steps(&lone, &network, &filters, &weights, &[*step]).remove(0))
        .collect();
    (together, alone)
}

#[test]
fn a_noisy_decode_batch_equals_each_sequence_alone() {
    let configs = [
        SimConfig::noisy(128, 128).with_threads(1),
        SimConfig::noisy(64, 32)
            .with_mapping(WeightMapping::Differential)
            .with_seed(7),
    ];
    for config in configs {
        let (together, alone) = together_and_alone(&config);
        assert_eq!(together.len(), POSITIONS.len());
        for (s, (got, want)) in together.iter().zip(&alone).enumerate() {
            assert_eq!(
                got, want,
                "{}x{} {:?}: sequence {s} at position {} diverged in the batch",
                config.array_rows, config.array_cols, config.mapping, POSITIONS[s]
            );
        }
    }
}

#[test]
fn an_ideal_decode_batch_equals_the_oracle() {
    let weights = weights();
    let (network, filters) = (weights.network("lm"), weights.filters());
    let (caches, tokens) = scenario(&weights);
    let steps = batch(&caches, &tokens);
    let exec = DeviceExecutor::new(SimConfig::ideal(128, 128));
    let device = lm_steps(&exec, &network, &filters, &weights, &steps);
    // The oracle implements only the one-sequence methods, so its batch
    // runs through the trait's default batch methods.
    let mut oracle = OracleEngine::new(&weights);
    let exact = generate_steps(&weights, &mut oracle, &steps).expect("oracle is infallible");
    assert_eq!(device, exact, "ideal device batch diverged from the oracle");
    for (step, want) in steps.iter().zip(&exact) {
        let alone = generate_step(&weights, &mut oracle, step.cache, step.token, step.pos)
            .expect("oracle is infallible");
        assert_eq!(
            &alone, want,
            "position {}: batch differs from alone",
            step.pos
        );
    }
}
