//! Property test pinning the device transformer pipeline to the integer
//! oracle: for random model shapes, sequence lengths, seeds, array
//! geometries, and **both** weight mappings, every decode step on the
//! ideal-mode crossbar is bit-for-bit the oracle's — next token, full
//! logit vector, and the K/V rows appended to the cache.

use oxbar_nn::mapping::WeightMapping;
use oxbar_nn::transformer::{generate, KvCache, LmConfig, LmWeights, OracleEngine, StepInput};
use oxbar_sim::{lm_steps, DeviceExecutor, SimConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ideal_device_decode_equals_oracle(seed in 0u64..10_000) {
        // Derive the whole scenario from one seed so failures replay.
        let heads = [1, 2, 4][(seed % 3) as usize];
        let d_model = heads * [4, 8][((seed / 3) % 2) as usize];
        let config = LmConfig {
            d_model,
            d_ff: d_model * 2,
            heads,
            vocab: 8 + (seed % 25) as usize,
            blocks: 1 + (seed % 2) as usize,
            bits: 6,
            positions: 64,
        };
        config.validate();
        let weights = LmWeights::synthetic(config, seed ^ 0xC0FFEE);
        let steps = 2 + (seed % 5) as usize;
        let prompt = (seed % config.vocab as u64) as u32;

        let mapping = if seed.is_multiple_of(2) {
            WeightMapping::Offset
        } else {
            WeightMapping::Differential
        };
        let rows = [32, 64, 128][((seed / 7) % 3) as usize];
        let sim = SimConfig::ideal(rows, rows)
            .with_mapping(mapping)
            .with_seed(seed);
        let executor = DeviceExecutor::new(sim);

        let mut oracle = OracleEngine::new(&weights);
        let exact = generate(&weights, &mut oracle, prompt, steps)
            .expect("oracle is infallible");

        let network = weights.network("lm");
        let filters = weights.filters();
        let mut cache = KvCache::new(&weights.config);
        let mut token = prompt;
        for (pos, want) in exact.iter().enumerate() {
            let step = StepInput { cache: &cache, token, pos };
            let got = lm_steps(&executor, &network, &filters, &weights, &[step]).remove(0);
            prop_assert!(
                got.logits == want.logits,
                "seed {} pos {} ({:?} {}x{}): logits diverged",
                seed, pos, mapping, rows, rows
            );
            prop_assert_eq!(got.next_token, want.next_token);
            prop_assert_eq!(&got.k_rows, &want.k_rows);
            prop_assert_eq!(&got.v_rows, &want.v_rows);
            cache.apply(&got);
            token = got.next_token;
        }
    }
}
