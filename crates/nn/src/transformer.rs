//! Quantized autoregressive transformer blocks for the crossbar.
//!
//! The attention pipeline is decomposed exactly the way the PCM crossbar
//! wants it:
//!
//! - **static MVMs** — the six projection matrices of every block
//!   (`wq/wk/wv/wo/up/down`) plus the LM head are ordinary dense layers,
//!   weight-stationary on programmed tiles. They are expressed as a
//!   sequential [`Network`] of [`Dense`] layers so the serving stack's
//!   admission, footprint accounting, prewarm, eviction, and migration
//!   paths all apply unchanged.
//! - **dynamic MVMs** — `QKᵀ` and `AV` are matmuls against *data*
//!   (the cached K/V rows), folded through the same tile geometry but
//!   never cached: their "weights" change every token.
//! - **digital glue** — layernorm, softmax, requantization, and the
//!   residual adds stay in the integer digital domain, exactly like the
//!   accumulate/pool/requant stages of the CNN path.
//!
//! Everything is integer-exact: [`generate_step`] driven by the
//! [`OracleEngine`] is the bit-for-bit ground truth the device-level
//! pipeline is validated against (`oxbar-sim` implements the same
//! [`MatmulEngine`] trait on the photonic executor). A decode batch runs
//! batch-major through [`generate_steps`]: each projection and attention
//! stage is one engine call for all of the batch's sequences.

use crate::layer::{Dense, Layer};
use crate::reference::{requantize, FilterBank, Tensor3};
use crate::shape::TensorShape;
use crate::Network;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Static dense layers per transformer block (`wq wk wv wo up down`).
pub const LAYERS_PER_BLOCK: usize = 6;

/// Shape of a quantized decoder-only transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LmConfig {
    /// Model (residual stream) width.
    pub d_model: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Attention heads (`d_model` must divide evenly).
    pub heads: usize,
    /// Vocabulary size (logit count of the LM head).
    pub vocab: usize,
    /// Decoder block count.
    pub blocks: usize,
    /// Activation precision in bits (6 for the INT6 crossbar pipeline).
    pub bits: u8,
    /// Length of the positional-embedding table (positions wrap modulo
    /// this, so sequences longer than the table stay well-defined).
    pub positions: usize,
}

impl LmConfig {
    /// A tiny single-block configuration, sized so every projection fits
    /// a handful of crossbar tiles — the serving smoke model.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            d_model: 32,
            d_ff: 64,
            heads: 4,
            vocab: 32,
            blocks: 1,
            bits: 6,
            positions: 64,
        }
    }

    /// Per-head width.
    #[must_use]
    pub fn head_dim(&self) -> usize {
        self.d_model / self.heads
    }

    /// Unsigned activation ceiling `2^bits − 1`.
    #[must_use]
    pub fn v_max(&self) -> i64 {
        (1i64 << self.bits) - 1
    }

    /// Signed weight-code ceiling `2^(bits−1) − 1`.
    #[must_use]
    pub fn q_max(&self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions, heads not dividing `d_model`, or a
    /// vocabulary smaller than 2.
    pub fn validate(&self) {
        assert!(
            self.d_model > 0
                && self.d_ff > 0
                && self.heads > 0
                && self.blocks > 0
                && self.positions > 0,
            "transformer dimensions must be non-zero"
        );
        assert!(
            self.d_model.is_multiple_of(self.heads),
            "heads ({}) must divide d_model ({})",
            self.heads,
            self.d_model
        );
        assert!(self.vocab >= 2, "vocabulary needs at least two tokens");
        assert!((2..=8).contains(&self.bits), "bits out of range");
    }
}

/// The six static projection banks of one decoder block, in the same
/// order they appear in the dense-stack [`Network`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockWeights {
    /// Query projection, `d_model → d_model`.
    pub wq: FilterBank,
    /// Key projection, `d_model → d_model`.
    pub wk: FilterBank,
    /// Value projection, `d_model → d_model`.
    pub wv: FilterBank,
    /// Attention output projection, `d_model → d_model`.
    pub wo: FilterBank,
    /// Feed-forward up projection, `d_model → d_ff`.
    pub up: FilterBank,
    /// Feed-forward down projection, `d_ff → d_model`.
    pub down: FilterBank,
}

/// A complete quantized decoder-only LM: config, per-block projections,
/// LM head, and the (digital) token/position embedding tables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LmWeights {
    /// Model shape.
    pub config: LmConfig,
    /// Per-block static projections.
    pub blocks: Vec<BlockWeights>,
    /// LM head, `d_model → vocab`.
    pub head: FilterBank,
    /// Token embedding rows (`vocab` rows of `d_model` unsigned codes).
    pub embedding: Vec<Vec<i64>>,
    /// Positional embedding rows (`config.positions` rows).
    pub positional: Vec<Vec<i64>>,
}

fn synthetic_bank(out_rows: usize, in_cols: usize, q: i64, rng: &mut StdRng) -> FilterBank {
    let weights = (0..out_rows)
        .map(|_| {
            (0..in_cols)
                .map(|_| rng.random_range(-q..=q) as i8)
                .collect()
        })
        .collect();
    FilterBank { weights }
}

impl LmWeights {
    /// Generates reproducible synthetic weights for `config` (the LLM
    /// analogue of [`crate::synthetic::filter_banks`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn synthetic(config: LmConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let q = config.q_max();
        let d = config.d_model;
        let blocks = (0..config.blocks)
            .map(|_| BlockWeights {
                wq: synthetic_bank(d, d, q, &mut rng),
                wk: synthetic_bank(d, d, q, &mut rng),
                wv: synthetic_bank(d, d, q, &mut rng),
                wo: synthetic_bank(d, d, q, &mut rng),
                up: synthetic_bank(config.d_ff, d, q, &mut rng),
                down: synthetic_bank(d, config.d_ff, q, &mut rng),
            })
            .collect();
        let head = synthetic_bank(config.vocab, d, q, &mut rng);
        let v_max = config.v_max();
        let embedding = (0..config.vocab)
            .map(|_| (0..d).map(|_| rng.random_range(0..=v_max)).collect())
            .collect();
        let positional = (0..config.positions)
            .map(|_| (0..d).map(|_| rng.random_range(0..=v_max)).collect())
            .collect();
        Self {
            config,
            blocks,
            head,
            embedding,
            positional,
        }
    }

    /// The dense-stack [`Network`] view of the static projections: per
    /// block `wq wk wv wo up down`, then the LM head. This is what the
    /// serving registry admits — footprint, prewarm, eviction, and
    /// migration all see an ordinary sequential network.
    #[must_use]
    pub fn network(&self, name: impl Into<String>) -> Network {
        let d = self.config.d_model;
        let mut net = Network::new(name, TensorShape::flat(d));
        for (b, _) in self.blocks.iter().enumerate() {
            net.push(Layer::Dense(Dense::new(format!("b{b}_wq"), d, d)));
            net.push(Layer::Dense(Dense::new(format!("b{b}_wk"), d, d)));
            net.push(Layer::Dense(Dense::new(format!("b{b}_wv"), d, d)));
            net.push(Layer::Dense(Dense::new(format!("b{b}_wo"), d, d)));
            net.push(Layer::Dense(Dense::new(
                format!("b{b}_up"),
                d,
                self.config.d_ff,
            )));
            net.push(Layer::Dense(Dense::new(
                format!("b{b}_down"),
                self.config.d_ff,
                d,
            )));
        }
        net.push(Layer::Dense(Dense::new("lm_head", d, self.config.vocab)));
        net
    }

    /// The filter banks of [`Self::network`], in conv-like layer order.
    #[must_use]
    pub fn filters(&self) -> Vec<FilterBank> {
        let mut banks = Vec::with_capacity(self.blocks.len() * LAYERS_PER_BLOCK + 1);
        for block in &self.blocks {
            banks.push(block.wq.clone());
            banks.push(block.wk.clone());
            banks.push(block.wv.clone());
            banks.push(block.wo.clone());
            banks.push(block.up.clone());
            banks.push(block.down.clone());
        }
        banks.push(self.head.clone());
        banks
    }

    /// The filter bank behind dense-stack layer `layer_index` (what a
    /// [`MatmulEngine::static_mv`] implementation multiplies by).
    ///
    /// # Panics
    ///
    /// Panics if the index is past the LM head.
    #[must_use]
    pub fn bank(&self, layer_index: usize) -> &FilterBank {
        let head_index = self.blocks.len() * LAYERS_PER_BLOCK;
        if layer_index == head_index {
            return &self.head;
        }
        assert!(layer_index < head_index, "layer {layer_index} out of range");
        let block = &self.blocks[layer_index / LAYERS_PER_BLOCK];
        match layer_index % LAYERS_PER_BLOCK {
            0 => &block.wq,
            1 => &block.wk,
            2 => &block.wv,
            3 => &block.wo,
            4 => &block.up,
            _ => &block.down,
        }
    }

    /// The (digital) embedding of `token` at sequence position `pos`:
    /// token row plus positional row, clamped to the unsigned activation
    /// range so it can drive the first static MVM directly.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    #[must_use]
    pub fn embed(&self, token: u32, pos: usize) -> Vec<i64> {
        let row = &self.embedding[token as usize];
        let positional = &self.positional[pos % self.config.positions];
        let v_max = self.config.v_max();
        row.iter()
            .zip(positional)
            .map(|(&e, &p)| ((e + p) / 2).clamp(0, v_max))
            .collect()
    }
}

/// Integer square root (largest `r` with `r² ≤ v`; 0 for negatives).
#[must_use]
fn isqrt(v: i64) -> i64 {
    if v <= 0 {
        return 0;
    }
    let mut r = (v as f64).sqrt() as i64;
    while r * r > v {
        r -= 1;
    }
    while (r + 1) * (r + 1) <= v {
        r += 1;
    }
    r
}

/// Integer layer normalization into the unsigned activation range
/// `[0, v_max]`: center on the truncating mean, scale by the integer
/// standard deviation, and re-bias around `(v_max+1)/2`. Pure integer
/// arithmetic — the digital-domain normalizer of the transformer block.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn layernorm_int(values: &[i64], v_max: i64) -> Vec<i64> {
    assert!(!values.is_empty(), "layernorm of an empty vector");
    let n = values.len() as i64;
    let mean = values.iter().sum::<i64>() / n;
    let centered: Vec<i64> = values.iter().map(|v| v - mean).collect();
    let var = centered.iter().map(|c| c * c).sum::<i64>() / n;
    let std = isqrt(var).max(1);
    let half = (v_max + 1) / 2;
    centered
        .iter()
        .map(|c| (c * half / std + half).clamp(0, v_max))
        .collect()
}

/// Integer base-2 softmax into `[0, v_max]`: the maximum score maps to
/// `v_max` and every other score is attenuated by one right shift per
/// `scale` units of distance from the maximum (`scale` adapts to the
/// score spread). Monotone, exact, and cheap — the digital boundary
/// between the two folded attention MVMs.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn softmax_int(scores: &[i64], v_max: i64) -> Vec<i64> {
    let max = *scores.iter().max().expect("softmax of an empty vector");
    let min = *scores.iter().min().expect("softmax of an empty vector");
    let scale = ((max - min) / 6).max(1);
    scores
        .iter()
        .map(|&s| {
            let shift = ((max - s) / scale).min(62) as u32;
            v_max >> shift
        })
        .collect()
}

/// Index of the maximum value (lowest index on ties) — greedy decoding.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn argmax(values: &[i64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Per-block cached K/V rows: one signed quantized row per generated
/// position. Rows are stored in *weight code* range (±`q_max`) so they
/// can be folded onto crossbar tiles as dynamic weights directly.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockCache {
    /// Cached key rows, one per position, each `d_model` long.
    pub k: Vec<Vec<i8>>,
    /// Cached value rows, one per position, each `d_model` long.
    pub v: Vec<Vec<i8>>,
}

/// The KV cache of one autoregressive sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvCache {
    /// Per-block caches, in block order.
    pub blocks: Vec<BlockCache>,
}

impl KvCache {
    /// An empty cache for `config`.
    #[must_use]
    pub fn new(config: &LmConfig) -> Self {
        Self {
            blocks: vec![BlockCache::default(); config.blocks],
        }
    }

    /// Positions cached so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.first().map_or(0, |b| b.k.len())
    }

    /// Whether no position has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the K/V rows a completed step produced. Kept separate
    /// from [`generate_step`] so a failed/retried device step never
    /// half-mutates the cache.
    ///
    /// # Panics
    ///
    /// Panics if the outcome's block count mismatches the cache.
    pub fn apply(&mut self, outcome: &StepOutcome) {
        assert_eq!(
            outcome.k_rows.len(),
            self.blocks.len(),
            "outcome block count mismatch"
        );
        for (block, (k, v)) in self
            .blocks
            .iter_mut()
            .zip(outcome.k_rows.iter().zip(&outcome.v_rows))
        {
            block.k.push(k.clone());
            block.v.push(v.clone());
        }
    }
}

/// What one [`generate_step`] produced. The cache mutation is split out
/// (see [`KvCache::apply`]) so device retries and replica failover can
/// re-run a step idempotently.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// Greedy-decoded next token.
    pub next_token: u32,
    /// Raw integer logits over the vocabulary.
    pub logits: Vec<i64>,
    /// New K row per block (to append to the cache).
    pub k_rows: Vec<Vec<i8>>,
    /// New V row per block (to append to the cache).
    pub v_rows: Vec<Vec<i8>>,
}

/// The matmul backend a transformer step runs on.
///
/// Two flavors mirror the two kinds of crossbar traffic:
/// [`MatmulEngine::static_mv`] multiplies by a *programmed* projection
/// (dense-stack layer `layer_index`, weight-stationary and cacheable),
/// while [`MatmulEngine::dynamic_mv`] multiplies by freshly supplied
/// signed rows (the K/V data of `QKᵀ` and `AV`, never cached).
///
/// [`generate_steps`] drives a whole decode batch through the batch
/// methods, one call per projection or attention stage for all of the
/// batch's sequences. Their default implementations call the
/// one-sequence methods in batch order, so a backend that multiplies one
/// drive at a time needs only those two.
pub trait MatmulEngine {
    /// Backend failure (infallible for the oracle, device faults for the
    /// photonic executor).
    type Error;

    /// Multiplies the static projection at dense-stack `layer_index` by
    /// `drive` (length = the layer's input features, `|v| ≤ v_max`).
    ///
    /// # Errors
    ///
    /// Propagates backend execution failures.
    fn static_mv(&mut self, layer_index: usize, drive: &[i64]) -> Result<Vec<i64>, Self::Error>;

    /// Multiplies dynamic signed rows by `drive`. `stage` is a stable
    /// small integer identifying the matmul site
    /// (`block·heads·2 + head·2 + {0: QKᵀ, 1: AV}`) so device backends
    /// can seed their analog noise deterministically.
    ///
    /// # Errors
    ///
    /// Propagates backend execution failures.
    fn dynamic_mv(
        &mut self,
        stage: usize,
        rows: &[Vec<i8>],
        drive: &[i64],
    ) -> Result<Vec<i64>, Self::Error>;

    /// [`Self::static_mv`] of one projection for every drive of a batch,
    /// one output per drive.
    ///
    /// # Errors
    ///
    /// Propagates backend execution failures.
    fn static_mv_batch(
        &mut self,
        layer_index: usize,
        drives: &[&[i64]],
    ) -> Result<Vec<Vec<i64>>, Self::Error> {
        drives
            .iter()
            .map(|drive| self.static_mv(layer_index, drive))
            .collect()
    }

    /// [`Self::dynamic_mv`] at one stage for every `(rows, drive)`
    /// product of a batch, one output per product.
    ///
    /// # Errors
    ///
    /// Propagates backend execution failures.
    fn dynamic_mv_batch(
        &mut self,
        stage: usize,
        products: &[(&[Vec<i8>], &[i64])],
    ) -> Result<Vec<Vec<i64>>, Self::Error> {
        products
            .iter()
            .map(|&(rows, drive)| self.dynamic_mv(stage, rows, drive))
            .collect()
    }
}

fn requantize_vec(values: Vec<i64>, bits: u8) -> Vec<i64> {
    let len = values.len();
    let tensor = Tensor3::new(TensorShape::flat(len), values);
    let (out, _) = requantize(&tensor, bits);
    out.data().to_vec()
}

fn to_codes(values: &[i64]) -> Vec<i8> {
    values
        .iter()
        .map(|&v| i8::try_from(v).expect("requantized code fits i8"))
        .collect()
}

/// One sequence's place in a decode batch: its read-only KV cache, the
/// token it feeds and the position it decodes at (the cache length).
#[derive(Debug, Clone, Copy)]
pub struct StepInput<'a> {
    /// The sequence's cache, read only during the step.
    pub cache: &'a KvCache,
    /// The token the step embeds.
    pub token: u32,
    /// The position the step decodes at.
    pub pos: usize,
}

/// Runs one autoregressive decode step: embed `token` at `pos`, run
/// every block (attention over `cache` plus the current position, then
/// the feed-forward), and greedy-decode the next token from the LM-head
/// logits. The cache is *read only* — apply the returned
/// [`StepOutcome`] with [`KvCache::apply`] once the step is accepted. A
/// one-sequence [`generate_steps`].
///
/// # Errors
///
/// Propagates engine execution failures (device faults).
///
/// # Panics
///
/// Panics if `token` is outside the vocabulary or the cache length
/// disagrees with `pos`.
pub fn generate_step<E: MatmulEngine>(
    weights: &LmWeights,
    engine: &mut E,
    cache: &KvCache,
    token: u32,
    pos: usize,
) -> Result<StepOutcome, E::Error> {
    let mut outcomes = generate_steps(weights, engine, &[StepInput { cache, token, pos }])?;
    Ok(outcomes.pop().expect("one sequence gives one outcome"))
}

/// Runs one decode step of every sequence in `batch`, **batch-major**:
/// layer by layer, each static projection is one
/// [`MatmulEngine::static_mv_batch`] over the batch's drives and each
/// attention stage one [`MatmulEngine::dynamic_mv_batch`] over its
/// products, while each sequence keeps its own cache, token and
/// position. Returns one [`StepOutcome`] per sequence, in batch order,
/// each equal to a [`generate_step`] of that sequence alone whenever the
/// engine's batch methods equal their one-sequence calls (as the
/// defaults do).
///
/// # Errors
///
/// Propagates engine execution failures (device faults).
///
/// # Panics
///
/// Panics if a token is outside the vocabulary or a cache length
/// disagrees with its position.
pub fn generate_steps<E: MatmulEngine>(
    weights: &LmWeights,
    engine: &mut E,
    batch: &[StepInput<'_>],
) -> Result<Vec<StepOutcome>, E::Error> {
    let config = &weights.config;
    for step in batch {
        assert!(
            (step.token as usize) < config.vocab,
            "token {} outside vocabulary {}",
            step.token,
            config.vocab
        );
        assert_eq!(
            step.cache.len(),
            step.pos,
            "cache length disagrees with position"
        );
    }
    let bits = config.bits;
    let v_max = config.v_max();
    let hd = config.head_dim();
    let mut xs: Vec<Vec<i64>> = batch
        .iter()
        .map(|step| weights.embed(step.token, step.pos))
        .collect();
    let mut k_rows = vec![Vec::with_capacity(config.blocks); batch.len()];
    let mut v_rows = vec![Vec::with_capacity(config.blocks); batch.len()];
    for b in 0..config.blocks {
        let base = b * LAYERS_PER_BLOCK;
        let hs: Vec<Vec<i64>> = xs.iter().map(|x| layernorm_int(x, v_max)).collect();
        // Three static projections share the normalized drive.
        let qs: Vec<Vec<i64>> = static_batch(engine, base, &hs)?
            .into_iter()
            .map(|q| requantize_vec(q, bits))
            .collect();
        let codes = |values: Vec<Vec<i64>>| -> Vec<Vec<i8>> {
            values
                .into_iter()
                .map(|v| to_codes(&requantize_vec(v, bits - 1)))
                .collect()
        };
        let ks = codes(static_batch(engine, base + 1, &hs)?);
        let vs = codes(static_batch(engine, base + 2, &hs)?);

        // Attention: QKᵀ then AV, per head, over cache + current row.
        let mut ctxs = vec![vec![0i64; config.d_model]; batch.len()];
        for head in 0..config.heads {
            let span = head * hd..(head + 1) * hd;
            let stage = (b * config.heads + head) * 2;
            let k_heads: Vec<Vec<Vec<i8>>> = batch
                .iter()
                .zip(&ks)
                .map(|(step, k)| {
                    let cached = &step.cache.blocks[b].k;
                    (0..=step.pos)
                        .map(|j| {
                            let row = if j < step.pos { &cached[j] } else { k };
                            row[span.clone()].to_vec()
                        })
                        .collect()
                })
                .collect();
            let products: Vec<(&[Vec<i8>], &[i64])> = k_heads
                .iter()
                .zip(&qs)
                .map(|(k_head, q)| (k_head.as_slice(), &q[span.clone()]))
                .collect();
            let attns: Vec<Vec<i64>> = engine
                .dynamic_mv_batch(stage, &products)?
                .iter()
                .map(|scores| softmax_int(scores, v_max))
                .collect();
            // AV as a second folded MVM: row d holds V[j][d] over j.
            let v_heads: Vec<Vec<Vec<i8>>> = batch
                .iter()
                .zip(&vs)
                .map(|(step, v)| {
                    let cached = &step.cache.blocks[b].v;
                    (0..hd)
                        .map(|d| {
                            (0..=step.pos)
                                .map(|j| {
                                    let row = if j < step.pos { &cached[j] } else { v };
                                    row[head * hd + d]
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let products: Vec<(&[Vec<i8>], &[i64])> = v_heads
                .iter()
                .zip(&attns)
                .map(|(v_head, attn)| (v_head.as_slice(), attn.as_slice()))
                .collect();
            for (ctx, head_ctx) in ctxs
                .iter_mut()
                .zip(engine.dynamic_mv_batch(stage + 1, &products)?)
            {
                ctx[span.clone()].copy_from_slice(&head_ctx);
            }
        }
        let ctx_qs: Vec<Vec<i64>> = ctxs.into_iter().map(|c| requantize_vec(c, bits)).collect();
        let os = static_batch(engine, base + 3, &ctx_qs)?;
        for (x, o) in xs.iter_mut().zip(os) {
            let o = requantize_vec(o, bits);
            *x = requantize_vec(x.iter().zip(&o).map(|(&a, &b)| a + b).collect(), bits);
        }

        // Feed-forward with a digital ReLU between the two projections.
        let h2s: Vec<Vec<i64>> = xs.iter().map(|x| layernorm_int(x, v_max)).collect();
        let us: Vec<Vec<i64>> = static_batch(engine, base + 4, &h2s)?
            .into_iter()
            .map(|up| requantize_vec(up.into_iter().map(|v| v.max(0)).collect(), bits))
            .collect();
        let downs = static_batch(engine, base + 5, &us)?;
        for (x, down) in xs.iter_mut().zip(downs) {
            let down = requantize_vec(down, bits);
            *x = requantize_vec(x.iter().zip(&down).map(|(&a, &b)| a + b).collect(), bits);
        }

        for (((k_rows, v_rows), k), v) in k_rows.iter_mut().zip(&mut v_rows).zip(ks).zip(vs) {
            k_rows.push(k);
            v_rows.push(v);
        }
    }
    let finals: Vec<Vec<i64>> = xs.iter().map(|x| layernorm_int(x, v_max)).collect();
    let logits = static_batch(engine, config.blocks * LAYERS_PER_BLOCK, &finals)?;
    Ok(logits
        .into_iter()
        .zip(k_rows.into_iter().zip(v_rows))
        .map(|(logits, (k_rows, v_rows))| StepOutcome {
            next_token: argmax(&logits) as u32,
            logits,
            k_rows,
            v_rows,
        })
        .collect())
}

/// One [`MatmulEngine::static_mv_batch`] over owned drives.
fn static_batch<E: MatmulEngine>(
    engine: &mut E,
    layer_index: usize,
    drives: &[Vec<i64>],
) -> Result<Vec<Vec<i64>>, E::Error> {
    let drives: Vec<&[i64]> = drives.iter().map(Vec::as_slice).collect();
    engine.static_mv_batch(layer_index, &drives)
}

/// Runs a whole greedy decode of `steps` tokens starting from `prompt`,
/// applying the cache after every step. Returns every step outcome.
///
/// # Errors
///
/// Propagates engine execution failures.
pub fn generate<E: MatmulEngine>(
    weights: &LmWeights,
    engine: &mut E,
    prompt: u32,
    steps: usize,
) -> Result<Vec<StepOutcome>, E::Error> {
    let mut cache = KvCache::new(&weights.config);
    let mut token = prompt;
    let mut outcomes = Vec::with_capacity(steps);
    for pos in 0..steps {
        let outcome = generate_step(weights, engine, &cache, token, pos)?;
        cache.apply(&outcome);
        token = outcome.next_token;
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// The exact-integer reference backend: plain dot products, no device
/// model. [`generate_step`] on this engine *is* the functional ground
/// truth for the photonic transformer pipeline.
#[derive(Debug, Clone)]
pub struct OracleEngine<'a> {
    weights: &'a LmWeights,
}

impl<'a> OracleEngine<'a> {
    /// Creates an oracle over `weights`.
    #[must_use]
    pub fn new(weights: &'a LmWeights) -> Self {
        Self { weights }
    }
}

fn dot_rows<W: Copy + Into<i64>>(rows: &[Vec<W>], drive: &[i64]) -> Vec<i64> {
    rows.iter()
        .map(|row| {
            assert_eq!(row.len(), drive.len(), "drive length mismatch");
            row.iter()
                .zip(drive)
                .map(|(&w, &x)| w.into() * x)
                .sum::<i64>()
        })
        .collect()
}

impl MatmulEngine for OracleEngine<'_> {
    type Error = core::convert::Infallible;

    fn static_mv(&mut self, layer_index: usize, drive: &[i64]) -> Result<Vec<i64>, Self::Error> {
        Ok(dot_rows(&self.weights.bank(layer_index).weights, drive))
    }

    fn dynamic_mv(
        &mut self,
        _stage: usize,
        rows: &[Vec<i8>],
        drive: &[i64],
    ) -> Result<Vec<i64>, Self::Error> {
        Ok(dot_rows(rows, drive))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_weights(seed: u64) -> LmWeights {
        LmWeights::synthetic(LmConfig::tiny(), seed)
    }

    #[test]
    fn config_validation_catches_bad_heads() {
        let mut config = LmConfig::tiny();
        config.heads = 5;
        let caught = std::panic::catch_unwind(|| config.validate());
        assert!(caught.is_err(), "5 heads cannot divide d_model=32");
    }

    #[test]
    fn synthetic_weights_reproducible_and_in_range() {
        let a = tiny_weights(7);
        assert_eq!(a, tiny_weights(7));
        assert_ne!(a, tiny_weights(8));
        let q = a.config.q_max() as i8;
        for bank in a.filters() {
            for row in &bank.weights {
                assert!(row.iter().all(|&w| (-q..=q).contains(&w)));
            }
        }
        let v_max = a.config.v_max();
        for row in &a.embedding {
            assert!(row.iter().all(|&e| (0..=v_max).contains(&e)));
        }
    }

    #[test]
    fn dense_stack_network_audits_clean() {
        let weights = tiny_weights(3);
        let net = weights.network("llm");
        assert_eq!(net.audit_shapes(), None);
        assert_eq!(
            net.conv_like_layers().count(),
            weights.config.blocks * LAYERS_PER_BLOCK + 1
        );
        assert_eq!(net.conv_like_layers().count(), weights.filters().len());
        // Bank lookup agrees with the filter list layer for layer.
        for (idx, bank) in weights.filters().iter().enumerate() {
            assert_eq!(weights.bank(idx), bank, "layer {idx}");
        }
    }

    #[test]
    fn layernorm_lands_in_unsigned_range() {
        let out = layernorm_int(&[-120, -3, 0, 44, 63, 1000], 63);
        assert!(out.iter().all(|&v| (0..=63).contains(&v)));
        // Order is preserved (monotone transform).
        for w in out.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let flat = layernorm_int(&[5, 5, 5], 63);
        assert_eq!(flat, vec![32, 32, 32], "constant input centers at half");
    }

    #[test]
    fn softmax_peaks_at_the_maximum() {
        let probs = softmax_int(&[10, 500, -80, 499], 63);
        assert_eq!(probs[1], 63, "max score gets full weight");
        assert!(probs[3] <= 63 && probs[3] >= probs[0]);
        assert_eq!(probs[2], 0, "distant score attenuates to zero");
        assert!(probs.iter().all(|&p| (0..=63).contains(&p)));
    }

    #[test]
    fn argmax_breaks_ties_low() {
        assert_eq!(argmax(&[3, 9, 9, 1]), 1);
        assert_eq!(argmax(&[-5]), 0);
    }

    #[test]
    fn oracle_generates_reproducibly_within_vocab() {
        let weights = tiny_weights(11);
        let mut engine = OracleEngine::new(&weights);
        let a = generate(&weights, &mut engine, 3, 12).unwrap();
        let mut engine = OracleEngine::new(&weights);
        let b = generate(&weights, &mut engine, 3, 12).unwrap();
        assert_eq!(a, b, "greedy decode is deterministic");
        assert!(a
            .iter()
            .all(|s| (s.next_token as usize) < weights.config.vocab));
        assert_eq!(a.len(), 12);
        // K/V rows are weight codes.
        let q = weights.config.q_max() as i8;
        for step in &a {
            for row in step.k_rows.iter().chain(&step.v_rows) {
                assert!(row.iter().all(|&c| (-q..=q).contains(&c)));
            }
        }
    }

    #[test]
    fn step_is_pure_in_the_cache() {
        // Re-running the same step against the same cache must agree —
        // the property device retries and replica failover rely on.
        let weights = tiny_weights(5);
        let mut engine = OracleEngine::new(&weights);
        let mut cache = KvCache::new(&weights.config);
        let first = generate_step(&weights, &mut engine, &cache, 1, 0).unwrap();
        let again = generate_step(&weights, &mut engine, &cache, 1, 0).unwrap();
        assert_eq!(first, again);
        cache.apply(&first);
        assert_eq!(cache.len(), 1);
        let second = generate_step(&weights, &mut engine, &cache, first.next_token, 1).unwrap();
        assert_eq!(second.logits.len(), weights.config.vocab);
    }
}
