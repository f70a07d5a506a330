//! Property test: for random interleaved multi-model request streams and
//! random engine policies, the batched engine equals the per-model
//! sequential oracle (every request through its own fresh executor).

use oxbar_nn::synthetic::{self, small_network};
use oxbar_serve::request::request_seed;
use oxbar_serve::{catalog, BatchPolicy, InferRequest, ModelId, ServeConfig, ServeEngine};
use oxbar_sim::{DeviceExecutor, SimConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn interleaved_streams_equal_per_model_sequential_oracle(seed in 0u64..10_000) {
        // Two random small sequential networks as the resident models.
        let specs = [
            catalog::spec_from_network(small_network(seed), seed ^ 0x11),
            catalog::spec_from_network(small_network(seed ^ 0x7F3), seed ^ 0x22),
        ];
        let device = SimConfig::ideal(32, 16).with_seed(seed).with_threads(1);

        // Random policy, worker count and budget pressure.
        let max_batch = 1 + (seed % 5) as usize;
        let max_wait = seed % 7;
        let workers = 1 + (seed % 3) as usize;
        let budget = if seed % 2 == 0 { usize::MAX } else { 4_000 };
        let mut engine = ServeEngine::new(
            ServeConfig::new(device.clone())
                .with_policy(BatchPolicy::new(max_batch, max_wait))
                .with_workers(workers)
                .with_cache_budget(budget),
        );
        let ids: Vec<ModelId> = specs
            .iter()
            .map(|s| engine.admit(s.clone()).expect("sequential models admit"))
            .collect();

        // A random interleaved stream of 8 requests.
        let requests: Vec<InferRequest> = (0..8u64)
            .map(|i| {
                let which = (request_seed(seed, i) % 2) as usize;
                InferRequest {
                    model: ids[which],
                    input: synthetic::activations(
                        specs[which].network.input(),
                        6,
                        request_seed(seed ^ 0xBEEF, i),
                    ),
                    arrival: i / 2,
                    deadline: None,
                }
            })
            .collect();
        for request in &requests {
            engine.try_submit(request.clone()).expect("valid request");
        }
        let mut done = engine.drain_traced().completions;
        done.sort_by_key(|c| c.id);
        prop_assert_eq!(done.len(), requests.len());

        // Oracle: each request alone, through a fresh executor built with
        // the model's admission seed.
        for (completion, request) in done.iter().zip(&requests) {
            prop_assert_eq!(completion.model, request.model);
            let which = completion.model.0;
            let config = device
                .clone()
                .with_seed(request_seed(device.seed, which as u64));
            let oracle = DeviceExecutor::new(config)
                .forward(&specs[which].network, &request.input, &specs[which].filters)
                .expect("sequential");
            prop_assert!(
                oracle.output == completion.output,
                "seed {} request {:?} diverged from the oracle",
                seed,
                completion.id
            );
        }
    }
}
