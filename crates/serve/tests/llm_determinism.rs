//! Determinism of autoregressive token serving.
//!
//! The contract under test: a sequence's token stream is a pure function
//! of `(weights, prompt, steps, device config)` — byte-identical across
//! dispatch worker counts, with the prewarm pipeline on or off, and
//! across cluster shapes (1 chip vs `Replicated(2)`), **including** a
//! chip kill landing mid-sequence: replicas share the model's admission
//! seed, so failover never perturbs a single decoded token.

use oxbar_nn::synthetic;
use oxbar_serve::{
    catalog, Completion, EngineStats, FaultPlan, InferRequest, PlacementPolicy, RequestId,
    ServeConfig, ServeEngine,
};
use oxbar_sim::SimConfig;
use std::collections::BTreeMap;

/// Runs the canonical mixed CNN + LLM trace through `config`: two
/// sequences against `llm_tiny` interleaved with four LeNet requests,
/// drained to idle. Returns the completions, both token streams and the
/// engine's statistics.
fn mixed_trace(config: ServeConfig) -> (Vec<Completion>, Vec<Vec<u32>>, EngineStats) {
    let mut engine = ServeEngine::new(config);
    let lenet = engine.admit(catalog::lenet5_model()).expect("lenet admits");
    let llm = engine.admit(catalog::llm_tiny()).expect("llm_tiny admits");
    let a = engine.begin_sequence(llm, 5, 8, 0, 1).expect("sequence a");
    let b = engine.begin_sequence(llm, 20, 8, 1, 1).expect("sequence b");
    for i in 0..4u64 {
        engine
            .try_submit(InferRequest {
                model: lenet,
                input: synthetic::activations(engine.input_shape(lenet), 6, i),
                arrival: i,
                deadline: Some(i + 200),
            })
            .expect("valid request");
    }
    let trace = engine.drain_traced();
    assert!(trace.sheds.is_empty(), "no sequence is shed");
    let done = trace.completions;
    let tokens = vec![
        engine.sequence_tokens(a).to_vec(),
        engine.sequence_tokens(b).to_vec(),
    ];
    assert!(tokens.iter().all(|t| t.len() == 8), "both sequences finish");
    (done, tokens, engine.stats())
}

#[test]
fn token_streams_are_invariant_across_workers_and_prewarm() {
    // Noisy physics on purpose: determinism must survive the full device
    // model, not just the ideal integer path.
    let device = SimConfig::noisy(64, 64).with_seed(41).with_threads(1);
    let base = ServeConfig::new(device);
    let (done_ref, tokens_ref, _) = mixed_trace(base.clone().with_workers(1));
    for workers in [2usize, 4] {
        for prewarm in [true, false] {
            let config = base.clone().with_workers(workers).with_prewarm(prewarm);
            let (done, tokens, _) = mixed_trace(config);
            assert_eq!(
                tokens, tokens_ref,
                "token streams diverged at workers={workers} prewarm={prewarm}"
            );
            assert_eq!(
                done, done_ref,
                "completions diverged at workers={workers} prewarm={prewarm}"
            );
        }
    }
    assert_eq!(done_ref.len(), 4 + 16, "4 CNN + 2 sequences x 8 steps");
}

#[test]
fn replicated_failover_mid_sequence_is_byte_identical() {
    let device = SimConfig::noisy(64, 64).with_seed(17).with_threads(1);
    // Reference: one healthy chip, no faults.
    let single = ServeConfig::new(device.clone()).with_chips(vec![600_000]);
    let (_, tokens_ref, _) = mixed_trace(single);

    // Same trace on a two-chip replicated cluster whose chip 0 is killed
    // at global batch 3 — mid-sequence (each decode step is its own
    // scheduler pass, so the sequences span many batches).
    let replicated = ServeConfig::new(device)
        .with_chips(vec![600_000, 600_000])
        .with_placement(PlacementPolicy::Replicated(2))
        .with_faults(FaultPlan::new().kill_chip(3, 0));
    let (_, tokens, _) = mixed_trace(replicated);
    assert_eq!(
        tokens, tokens_ref,
        "mid-sequence chip kill must be invisible in the token stream"
    );
}

#[test]
fn token_steps_under_a_fault_mix_are_invariant_across_workers() {
    let device = SimConfig::noisy(64, 64).with_seed(17).with_threads(1);
    let (done_ref, tokens_ref, _) =
        mixed_trace(ServeConfig::new(device.clone()).with_chips(vec![600_000]));
    let cnn_outputs = |done: &[Completion]| -> BTreeMap<RequestId, Vec<i64>> {
        done.iter()
            .filter(|c| c.sequence.is_none())
            .map(|c| (c.id, c.output.data().to_vec()))
            .collect()
    };
    // `Replicated(2)` on three chips puts LeNet on chips 0 and 1 and
    // llm_tiny on chips 2 and 0. After the first pass every batch is one
    // token step of both sequences (9 batches in all), so the kill lands
    // inside the trace: chip 0, a replica of both models, dies
    // mid-sequence.
    let plan = FaultPlan::new().kill_chip(6, 0);
    let mut retries = Vec::new();
    for workers in [1usize, 2, 4] {
        let config = ServeConfig::new(device.clone())
            .with_chips(vec![600_000; 3])
            .with_placement(PlacementPolicy::Replicated(2))
            .with_workers(workers)
            .with_faults(plan.clone());
        // `mixed_trace` also asserts that nothing is shed.
        let (done, tokens, stats) = mixed_trace(config);
        assert_eq!(
            tokens, tokens_ref,
            "token streams diverged at workers={workers}"
        );
        assert_eq!(
            cnn_outputs(&done),
            cnn_outputs(&done_ref),
            "CNN outputs diverged at workers={workers}"
        );
        assert_eq!((stats.tokens, stats.requests), (16, 20));
        retries.push(stats.chips.iter().map(|c| c.retries).collect::<Vec<_>>());
    }
    assert!(
        retries.iter().all(|r| *r == retries[0]),
        "per-chip retries vary with the worker count: {retries:?}"
    );
    // One token step re-routed off chip 0.
    assert_eq!(retries[0], [1, 0, 0]);
}

#[test]
fn all_chips_failed_sheds_the_sequence_instead_of_hanging() {
    // A single chip killed mid-sequence leaves no replica and nothing to
    // recover onto once its snapshot path also runs out; the engine must
    // terminate the sequence with a structured shed, not loop forever.
    let device = SimConfig::ideal(64, 64).with_seed(3).with_threads(1);
    let config = ServeConfig::new(device)
        .with_chips(vec![600_000])
        .with_faults(
            FaultPlan::new()
                .kill_chip(2, 0)
                .kill_chip(3, 0)
                .kill_chip(4, 0),
        );
    let mut engine = ServeEngine::new(config);
    let llm = engine.admit(catalog::llm_tiny()).expect("llm_tiny admits");
    let seq = engine.begin_sequence(llm, 5, 8, 0, 1).expect("sequence");
    let trace = engine.drain_traced();
    // The shed is structured, not silent: a notice names the sequence.
    if trace
        .sheds
        .iter()
        .any(|notice| notice.sequence == Some(seq))
    {
        assert!(
            engine.sequence_tokens(seq).len() < 8,
            "a shed sequence stops early"
        );
    } else {
        // Snapshot recovery may legitimately save the sequence; then
        // every token must be present.
        assert_eq!(engine.sequence_tokens(seq).len(), 8);
    }
}

/// Prompts of the eight sequences the decode-batch tests run.
const BATCH_PROMPTS: [u32; 8] = [5, 20, 3, 31, 0, 17, 9, 26];

/// What [`decode_together`] observed.
struct Decoded {
    /// Per sequence, its tokens.
    tokens: Vec<Vec<u32>>,
    /// Per sequence, each step's logits.
    logits: Vec<Vec<Vec<i64>>>,
    /// The size of every batch the drain ran, in dispatch order.
    batch_sizes: Vec<usize>,
}

/// Begins one `steps`-step `llm_tiny` sequence per prompt, all arriving
/// together, and drains to idle on a fresh one-chip engine.
fn decode_together(device: &SimConfig, prompts: &[u32], steps: usize) -> Decoded {
    let mut engine = ServeEngine::new(ServeConfig::new(device.clone()));
    let llm = engine.admit(catalog::llm_tiny()).expect("llm_tiny admits");
    let ids: Vec<_> = prompts
        .iter()
        .map(|&prompt| {
            engine
                .begin_sequence(llm, prompt, steps, 0, 1)
                .expect("sequence")
        })
        .collect();
    let trace = engine.drain_traced();
    assert!(trace.sheds.is_empty(), "no sequence is shed");
    let mut logits = vec![vec![Vec::new(); steps]; prompts.len()];
    let mut sizes = BTreeMap::new();
    for c in &trace.completions {
        let token = c.sequence.as_ref().expect("only token steps run");
        let s = ids
            .iter()
            .position(|&id| id == token.sequence)
            .expect("known sequence");
        logits[s][token.step] = c.output.data().to_vec();
        sizes.insert(c.batch_seq, c.batch_size);
    }
    Decoded {
        tokens: ids
            .iter()
            .map(|&id| engine.sequence_tokens(id).to_vec())
            .collect(),
        logits,
        batch_sizes: sizes.into_values().collect(),
    }
}

#[test]
fn a_decode_batch_equals_each_sequence_decoded_alone() {
    let device = SimConfig::noisy(128, 128).with_threads(1);
    let steps = 6;
    let together = decode_together(&device, &BATCH_PROMPTS, steps);
    assert_eq!(
        together.batch_sizes,
        vec![8; steps],
        "every pass decodes all eight sequences in one batch"
    );
    for (s, &prompt) in BATCH_PROMPTS.iter().enumerate() {
        let alone = decode_together(&device, &[prompt], steps);
        assert_eq!(alone.batch_sizes, vec![1; steps]);
        assert_eq!(
            together.tokens[s], alone.tokens[0],
            "prompt {prompt}: tokens diverged"
        );
        assert_eq!(
            together.logits[s], alone.logits[0],
            "prompt {prompt}: logits diverged"
        );
    }
}

#[test]
fn a_warm_decode_batch_looks_up_each_static_tile_once() {
    let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::noisy(128, 128).with_threads(1)));
    let llm = engine.admit(catalog::llm_tiny()).expect("llm_tiny admits");
    engine
        .begin_sequence(llm, 1, 1, 0, 1)
        .expect("warm-up sequence");
    engine.drain_traced();
    let cache = |engine: &ServeEngine| engine.stats().models[llm.0].cache;
    let warm = cache(&engine);
    // llm_tiny's seven projections each fit one 128×128 tile.
    assert_eq!(
        (warm.entries, warm.misses),
        (7, 7),
        "the warm-up programs every tile"
    );
    for &prompt in &BATCH_PROMPTS {
        engine
            .begin_sequence(llm, prompt, 4, 0, 1)
            .expect("sequence");
    }
    let batches = engine.drain_traced().batch_ms.len();
    assert_eq!(batches, 4, "one batch of eight per decode step");
    let after = cache(&engine);
    assert_eq!(after.misses, warm.misses, "a warm decode programs nothing");
    assert_eq!(
        after.hits - warm.hits,
        7 * batches as u64,
        "a decode batch looks each static tile up once, not once per sequence"
    );
}
