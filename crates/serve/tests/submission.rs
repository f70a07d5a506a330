//! Property test: interleaved out-of-order / equal-tick submission
//! streams. Concurrent connections deliver non-monotonic arrival ticks,
//! so admission must order them instead of panicking — and the drained
//! schedule must be byte-identical to submitting the same trace already
//! sorted by arrival (stable: equal ticks keep submission order).

use oxbar_nn::synthetic::{self, small_network};
use oxbar_serve::request::request_seed;
use oxbar_serve::{catalog, BatchPolicy, InferRequest, ServeConfig, ServeEngine, SubmitError};
use oxbar_sim::SimConfig;
use proptest::prelude::*;

fn engine(seed: u64) -> ServeEngine {
    let device = SimConfig::ideal(32, 16).with_seed(seed).with_threads(1);
    let max_batch = 1 + (seed % 4) as usize;
    let max_wait = seed % 5;
    let mut engine = ServeEngine::new(
        ServeConfig::new(device)
            .with_policy(BatchPolicy::new(max_batch, max_wait))
            .with_workers(1 + (seed % 2) as usize),
    );
    engine
        .admit(catalog::spec_from_network(small_network(seed), seed ^ 0x31))
        .expect("model admits");
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn out_of_order_streams_match_the_sorted_replay(
        seed in 0u64..10_000,
        arrivals in proptest::collection::vec(0u64..6, 1..16),
    ) {
        // The scrambled stream: arrival ticks in arbitrary (often
        // decreasing or equal) order, inputs keyed by submission index.
        let mut scrambled = engine(seed);
        let shape = scrambled.input_shape(oxbar_serve::ModelId(0));
        let requests: Vec<InferRequest> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &arrival)| InferRequest {
                model: oxbar_serve::ModelId(0),
                input: synthetic::activations(shape, 6, request_seed(seed, i as u64)),
                arrival,
                deadline: None,
            })
            .collect();
        for request in &requests {
            // Never panics, whatever the tick order.
            scrambled
                .try_submit(request.clone())
                .expect("well-formed requests admit");
        }

        // The oracle: the same trace pre-sorted by arrival, stably, so
        // equal ticks keep their submission order.
        let mut sorted_trace = requests.clone();
        sorted_trace.sort_by_key(|r| r.arrival);
        let mut oracle = engine(seed);
        for request in &sorted_trace {
            oracle.try_submit(request.clone()).expect("sorted trace admits");
        }

        let scrambled_done = scrambled.drain_traced().completions;
        let oracle_done = oracle.drain_traced().completions;
        prop_assert_eq!(scrambled_done.len(), requests.len());

        // Identical dispatch schedule and bytes: same (arrival, output,
        // batch_seq, batch_size) sequence. RequestIds differ (they count
        // submission order), so compare everything else positionally.
        for (s, o) in scrambled_done.iter().zip(&oracle_done) {
            prop_assert_eq!(s.arrival, o.arrival);
            prop_assert_eq!(s.batch_seq, o.batch_seq);
            prop_assert_eq!(s.batch_size, o.batch_size);
            prop_assert!(s.output == o.output, "outputs diverged at seed {}", seed);
        }
    }

    #[test]
    fn malformed_submissions_are_structured_errors(seed in 0u64..10_000) {
        let mut e = engine(seed);
        let shape = e.input_shape(oxbar_serve::ModelId(0));
        // Unknown model id.
        let bad_model = InferRequest {
            model: oxbar_serve::ModelId(99),
            input: synthetic::activations(shape, 6, 1),
            arrival: 0,
            deadline: None,
        };
        prop_assert_eq!(
            e.try_submit(bad_model),
            Err(SubmitError::UnknownModel(oxbar_serve::ModelId(99)))
        );
        // Wrong input shape.
        let wrong_shape = InferRequest {
            model: oxbar_serve::ModelId(0),
            input: synthetic::activations(oxbar_nn::TensorShape::new(1, 1, 1), 6, 1),
            arrival: 0,
            deadline: None,
        };
        let shape_err = matches!(
            e.try_submit(wrong_shape),
            Err(SubmitError::ShapeMismatch { .. })
        );
        prop_assert!(shape_err);
        // The engine still serves after rejections.
        let ok = InferRequest {
            model: oxbar_serve::ModelId(0),
            input: synthetic::activations(shape, 6, 2),
            arrival: 0,
            deadline: None,
        };
        prop_assert!(e.try_submit(ok).is_ok());
        prop_assert_eq!(e.drain_traced().completions.len(), 1);
    }
}
