//! Cross-crate property test: for random small networks, the ideal-mode
//! device pipeline (PCM → photonics → readout) equals the exact integer
//! reference executor, exactly.

use crate::{run_inference, DeviceExecutor, SimConfig};
use oxbar_nn::mapping::WeightMapping;
use oxbar_nn::reference::Executor;
use oxbar_nn::synthetic::{self, small_network};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn ideal_pipeline_equals_reference_on_random_networks(seed in 0u64..10_000) {
        let net = small_network(seed);
        let input = synthetic::activations(net.input(), 6, seed ^ 0x55);
        let filters = synthetic::filter_banks(&net, 6, seed ^ 0xAA);

        // Vary the physical configuration with the seed too: array size
        // (forcing different fold counts) and both weight mappings.
        let rows = [16, 32, 64][(seed % 3) as usize];
        let cols = [8, 16, 32][((seed / 3) % 3) as usize];
        let mapping = if seed % 2 == 0 {
            WeightMapping::Offset
        } else {
            WeightMapping::Differential
        };
        let config = SimConfig::ideal(rows, cols)
            .with_mapping(mapping)
            .with_seed(seed);

        let (ref_out, _) = Executor::new(6)
            .forward(&net, &input, &filters)
            .expect("small networks are sequential");
        let report = run_inference(&net, &config, std::slice::from_ref(&input), &filters)
            .expect("small networks are sequential");
        prop_assert!(
            report.exact,
            "seed {} ({}x{} {:?}): {:?}",
            seed,
            rows,
            cols,
            mapping,
            report
        );
        prop_assert_eq!(report.output_max_abs_delta, 0);

        // And the device forward output itself is the reference tensor.
        let fwd = DeviceExecutor::new(config).forward(&net, &input, &filters).unwrap();
        prop_assert_eq!(fwd.output, ref_out);
    }
}
