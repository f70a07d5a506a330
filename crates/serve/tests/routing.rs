//! Property test: `route_rounds` keeps its routing invariants on random
//! batch lists, round sizes and chip placements. Every batch lands in
//! exactly one round, batches ascend within a round, no round exceeds
//! the round size, and one chip routes exactly as `chunks`.

use oxbar_serve::batcher::{route_rounds, Batch};
use oxbar_serve::ModelId;
use proptest::prelude::*;

fn batch_list(models: &[usize]) -> Vec<Batch> {
    models
        .iter()
        .enumerate()
        .map(|(seq, &model)| Batch {
            seq,
            model: ModelId(model),
            members: vec![seq],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn routing_keeps_its_invariants(
        models in proptest::collection::vec(0usize..6, 0..40),
        round_size in 1usize..6,
        chips in 1usize..4,
    ) {
        let batches = batch_list(&models);
        // Deterministic, deliberately lumpy model→chip placement,
        // including sparse chip ids.
        let chip_of = |b: &Batch| (b.model.0 * 7 + 3) % chips * 5;
        let rounds = route_rounds(&batches, round_size, chip_of);
        let mut all: Vec<usize> = rounds.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..batches.len()).collect::<Vec<_>>());
        for round in &rounds {
            prop_assert!(!round.is_empty() && round.len() <= round_size);
            prop_assert!(round.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn single_chip_routing_is_chunking(
        n in 0usize..40,
        round_size in 1usize..6,
    ) {
        let batches = batch_list(&vec![0; n]);
        let rounds = route_rounds(&batches, round_size, |_| 0);
        let chunks: Vec<Vec<usize>> = (0..n)
            .collect::<Vec<_>>()
            .chunks(round_size)
            .map(<[usize]>::to_vec)
            .collect();
        prop_assert_eq!(rounds, chunks);
    }
}
