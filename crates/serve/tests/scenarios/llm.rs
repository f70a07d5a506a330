//! Determinism of autoregressive token serving: a sequence's token
//! stream is a pure function of `(weights, prompt, steps, device
//! config)` — byte-identical across dispatch worker counts and across
//! cluster shapes (1 chip vs `Replicated(2)`), including a chip kill
//! landing mid-sequence. And a decode batch answers like each of its
//! sequences decoded alone.

use crate::runner::{infers, serve, Ask, Op, Run};
use oxbar_serve::{catalog, FaultPlan, PlacementPolicy, ServeConfig};
use oxbar_sim::SimConfig;
use std::collections::BTreeMap;

/// The canonical mixed CNN + LLM trace: two 8-step sequences against
/// `llm_tiny` interleaved with four LeNet requests, drained to idle.
fn mixed(config: ServeConfig) -> Run {
    let specs = [catalog::lenet5_model(), catalog::llm_tiny()];
    let mut ops = vec![
        Op::Generate {
            model: 1,
            prompt: 5,
            steps: 8,
            arrival: 0,
        },
        Op::Generate {
            model: 1,
            prompt: 20,
            steps: 8,
            arrival: 1,
        },
    ];
    ops.extend(infers(0, 4, 1, |i| i, |_, arrival| Some(arrival + 200)));
    let run = serve(config, &specs, 0, &ops);
    assert!(run.sheds.is_empty(), "no sequence is shed");
    assert!(
        run.tokens.iter().all(|t| t.len() == 8),
        "both sequences finish"
    );
    run
}

#[test]
fn token_streams_are_invariant_across_workers() {
    // Noisy physics on purpose: determinism must survive the full device
    // model, not just the ideal integer path.
    let base = ServeConfig::new(SimConfig::noisy(64, 64).with_seed(41).with_threads(1));
    let one = mixed(base.clone());
    for workers in [2usize, 4] {
        let run = mixed(base.clone().with_workers(workers));
        assert_eq!(run.first_difference(&one), None, "workers={workers}");
    }
    assert_eq!(
        one.completions.len(),
        4 + 16,
        "4 CNN + 2 sequences x 8 steps"
    );
}

#[test]
fn replicated_failover_mid_sequence_is_byte_identical() {
    let device = SimConfig::noisy(64, 64).with_seed(17).with_threads(1);
    let single = mixed(ServeConfig::new(device.clone()).with_chips(vec![600_000]));
    // Same trace on a two-chip replicated cluster whose chip 0 is killed
    // at global batch 3 — mid-sequence (each decode step is its own
    // scheduler pass, so the sequences span many batches).
    let replicated = ServeConfig::new(device)
        .with_chips(vec![600_000, 600_000])
        .with_placement(PlacementPolicy::Replicated(2))
        .with_faults(FaultPlan::new().kill_chip(3, 0));
    assert_eq!(
        mixed(replicated).tokens,
        single.tokens,
        "mid-sequence chip kill must be invisible in the token stream"
    );
}

#[test]
fn token_steps_under_a_fault_mix_are_invariant_across_workers() {
    let device = SimConfig::noisy(64, 64).with_seed(17).with_threads(1);
    let reference = mixed(ServeConfig::new(device.clone()).with_chips(vec![600_000]));
    // `Replicated(2)` on three chips puts LeNet on chips 0 and 1 and
    // llm_tiny on chips 2 and 0. After the first pass every batch is one
    // token step of both sequences (9 batches in all), so the kill lands
    // inside the trace: chip 0, a replica of both models, dies
    // mid-sequence.
    let run = |workers| {
        let config = ServeConfig::new(device.clone())
            .with_chips(vec![600_000; 3])
            .with_placement(PlacementPolicy::Replicated(2))
            .with_workers(workers)
            .with_faults(FaultPlan::new().kill_chip(6, 0));
        mixed(config)
    };
    let one = run(1);
    assert_eq!(one.tokens, reference.tokens, "tokens");
    assert_eq!(one.inferred(), reference.inferred(), "CNN outputs");
    assert_eq!((one.stats.tokens, one.stats.requests), (16, 20));
    // One token step re-routed off chip 0.
    let retries: Vec<u64> = one.stats.chips.iter().map(|c| c.retries).collect();
    assert_eq!(retries, [1, 0, 0]);
    for workers in [2, 4] {
        assert_eq!(
            run(workers).first_difference(&one),
            None,
            "workers={workers}"
        );
    }
}

#[test]
fn all_chips_failed_sheds_the_sequence_instead_of_hanging() {
    // A single chip killed mid-sequence leaves no replica and nothing to
    // recover onto once every chip is failed; the engine must
    // terminate the sequence with a structured shed, not loop forever.
    let device = SimConfig::ideal(64, 64).with_seed(3).with_threads(1);
    let plan = FaultPlan::new()
        .kill_chip(2, 0)
        .kill_chip(3, 0)
        .kill_chip(4, 0);
    let config = ServeConfig::new(device)
        .with_chips(vec![600_000])
        .with_faults(plan);
    let generate = Op::Generate {
        model: 0,
        prompt: 5,
        steps: 8,
        arrival: 0,
    };
    let run = serve(config, &[catalog::llm_tiny()], 3, &[generate]);
    let emitted = run.tokens[0].len();
    if run.sheds.contains_key(&Ask::Step(0, emitted)) {
        // The shed is structured, not silent: a notice names the
        // sequence, which stops early.
        assert!(emitted < 8, "a shed sequence stops early");
    } else {
        // A recovery may legitimately save the sequence; then
        // every token must be present.
        assert_eq!(emitted, 8);
    }
}

/// Prompts of the eight sequences the decode-batch tests run.
const BATCH_PROMPTS: [u32; 8] = [5, 20, 3, 31, 0, 17, 9, 26];

/// `steps`-step `llm_tiny` sequences from `prompts`, all arriving at 0.
fn sequences(prompts: &[u32], steps: usize) -> impl Iterator<Item = Op> + '_ {
    prompts.iter().map(move |&prompt| Op::Generate {
        model: 0,
        prompt,
        steps,
        arrival: 0,
    })
}

/// Decodes one sequence per prompt together on a fresh one-chip engine;
/// returns the run and the size of every batch it ran, in dispatch
/// order.
fn decode_together(device: &SimConfig, prompts: &[u32], steps: usize) -> (Run, Vec<usize>) {
    let ops: Vec<Op> = sequences(prompts, steps).collect();
    let run = serve(
        ServeConfig::new(device.clone()),
        &[catalog::llm_tiny()],
        0,
        &ops,
    );
    assert!(run.sheds.is_empty(), "no sequence is shed");
    let sizes: BTreeMap<usize, usize> = run
        .completions
        .iter()
        .map(|c| (c.batch_seq, c.batch_size))
        .collect();
    (run, sizes.into_values().collect())
}

#[test]
fn a_decode_batch_equals_each_sequence_decoded_alone() {
    let device = SimConfig::noisy(128, 128).with_threads(1);
    let steps = 6;
    let (together, sizes) = decode_together(&device, &BATCH_PROMPTS, steps);
    assert_eq!(
        sizes,
        vec![8; steps],
        "every pass decodes all eight sequences in one batch"
    );
    for (s, &prompt) in (0..).zip(&BATCH_PROMPTS) {
        let (alone, sizes) = decode_together(&device, &[prompt], steps);
        assert_eq!(sizes, vec![1; steps]);
        assert_eq!(
            together.tokens[s as usize], alone.tokens[0],
            "prompt {prompt}: tokens diverged"
        );
        for t in 0..steps {
            assert_eq!(
                together.outputs[&Ask::Step(s, t)],
                alone.outputs[&Ask::Step(0, t)],
                "prompt {prompt}: logits diverged at step {t}"
            );
        }
    }
}

#[test]
fn a_warm_decode_batch_looks_up_each_static_tile_once() {
    let config = ServeConfig::new(SimConfig::noisy(128, 128).with_threads(1));
    let specs = [catalog::llm_tiny()];
    let warm_up: Vec<Op> = sequences(&[1], 1).chain([Op::Drain]).collect();
    let warm = serve(config.clone(), &specs, 0, &warm_up).stats;
    let ops: Vec<Op> = warm_up
        .iter()
        .copied()
        .chain(sequences(&BATCH_PROMPTS, 4))
        .collect();
    let after = serve(config, &specs, 0, &ops).stats;
    let (before, now) = (warm.models[0].cache, after.models[0].cache);
    // llm_tiny's seven projections each fit one 128×128 tile.
    assert_eq!(
        (before.entries, before.misses),
        (7, 7),
        "the warm-up programs every tile"
    );
    let batches = after.batches - warm.batches;
    assert_eq!(batches, 4, "one batch of eight per decode step");
    assert_eq!(now.misses, before.misses, "a warm decode programs nothing");
    assert_eq!(
        now.hits - before.hits,
        7 * batches,
        "a decode batch looks each static tile up once, not once per sequence"
    );
}
