//! Golden transformer-block snapshot: the tiny autoregressive decoder
//! (`catalog::llm_tiny`) served end to end on the ideal device, pinned
//! token-for-token and logit-for-logit against the integer oracle.
//!
//! Everything here is exact integer arithmetic — the INT6 attention
//! pipeline (folded QKᵀ/AV crossbar passes, digital layernorm / softmax
//! / requantization) has one correct answer, so the golden file catches
//! any drift in the quantization recipe, the weight mapping, or the
//! dynamic-MVM fold.

use crate::write_csv;
use oxbar_nn::transformer::{generate as oracle_generate, LmConfig, LmWeights, OracleEngine};
use oxbar_serve::{catalog, ServeConfig, ServeEngine};
use oxbar_sim::SimConfig;

/// The pinned decode transcript plus the structural facts of the block.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LlmBlockReport {
    /// Embedding width.
    pub d_model: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Attention heads.
    pub heads: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Decoder blocks.
    pub blocks: usize,
    /// Activation/weight quantization bits.
    pub bits: u8,
    /// The prompt token seeding the sequence.
    pub prompt: u32,
    /// Decode steps.
    pub steps: usize,
    /// The greedy token stream (oracle == ideal device).
    pub tokens: Vec<u32>,
    /// Whether the ideal-device serving run reproduced the oracle's
    /// token stream bit for bit. Anything but `true` is a correctness
    /// failure.
    pub device_matches_oracle: bool,
    /// The first step's full logit vector (one lane per vocab entry).
    pub first_step_logits: Vec<i64>,
    /// Dense projections in the weight-stationary stack (QKV, attention
    /// output, two FFN layers per block, plus the LM head).
    pub dense_layers: usize,
    /// Compiled weight-stationary footprint of that stack, in crossbar
    /// cells.
    pub footprint_cells: usize,
    /// Dynamic (uncached) attention MVM stages per decode step:
    /// `blocks x heads x 2` (QKᵀ and AV).
    pub dynamic_stages_per_step: usize,
}

/// Decodes the pinned sequence on the oracle and the ideal device.
#[must_use]
pub fn generate() -> LlmBlockReport {
    let weights = LmWeights::synthetic(LmConfig::tiny(), 0x11f7);
    let config = weights.config;
    let prompt = 5u32;
    let steps = 12usize;
    let mut oracle = OracleEngine::new(&weights);
    let outcomes =
        oracle_generate(&weights, &mut oracle, prompt, steps).expect("the oracle is infallible");
    let tokens: Vec<u32> = outcomes.iter().map(|o| o.next_token).collect();
    let first_step_logits = outcomes[0].logits.clone();

    // The same sequence through the serving engine on ideal physics.
    let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
    let llm = engine.admit(catalog::llm_tiny()).expect("llm_tiny admits");
    let seq = engine
        .begin_sequence(llm, prompt, steps, 0, 1)
        .expect("sequence begins");
    engine.drain_traced();
    let device_matches_oracle = engine.sequence_tokens(seq) == &tokens[..];
    let stats = engine.stats();

    LlmBlockReport {
        d_model: config.d_model,
        d_ff: config.d_ff,
        heads: config.heads,
        vocab: config.vocab,
        blocks: config.blocks,
        bits: config.bits,
        prompt,
        steps,
        tokens,
        device_matches_oracle,
        first_step_logits,
        dense_layers: weights.network("llm_tiny").conv_like_layers().count(),
        footprint_cells: stats.models[0].cache.cells,
        dynamic_stages_per_step: config.blocks * config.heads * 2,
    }
}

/// Prints the decode transcript and block facts.
pub fn render(report: &LlmBlockReport) {
    println!(
        "# llm_block — tiny decoder (d_model {}, {} heads, {} block(s), INT{}) on the ideal device",
        report.d_model, report.heads, report.blocks, report.bits
    );
    println!(
        "dense stack: {} layers, {} cells weight-stationary; {} dynamic attention stages/step",
        report.dense_layers, report.footprint_cells, report.dynamic_stages_per_step
    );
    println!(
        "prompt {} -> {} steps: {:?}",
        report.prompt, report.steps, report.tokens
    );
    println!(
        "device == oracle: {}",
        if report.device_matches_oracle {
            "yes (bit for bit)"
        } else {
            "NO (bug)"
        }
    );
}

/// Generates the snapshot and writes `results/llm_block.csv`.
#[must_use]
pub fn run() -> LlmBlockReport {
    let report = generate();
    let rows: Vec<Vec<String>> = report
        .tokens
        .iter()
        .enumerate()
        .map(|(step, token)| vec![step.to_string(), token.to_string()])
        .collect();
    write_csv("llm_block", &["step", "token"], &rows);
    report
}
