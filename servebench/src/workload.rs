//! What every workload shares: the device and catalog, the seeded request
//! generators, and the engine configurations.
//!
//! Every input the serving stack receives is a pure function of the
//! workload seed: CNN request `k` draws its model from the catalog mix and
//! its activations from [`request_seed`]; sequence `j` draws its prompt the
//! same way.

use crate::trace::Tracer;
use oxbar_nn::reference::Tensor3;
use oxbar_nn::{synthetic, TensorShape};
use oxbar_serve::request::request_seed;
use oxbar_serve::{
    catalog, BatchPolicy, InferRequest, ModelId, ModelSpec, PlacementPolicy, ServeConfig,
    ServeEngine,
};
use oxbar_sim::{DeviceExecutor, SimConfig};

/// Relative traffic of the four stock catalog models (LeNet-5, AlexNet
/// head, VGG block, MobileNet pair), in admission order.
pub const MIX: [u64; 4] = [3, 2, 2, 3];

/// Decode steps per generated sequence.
pub const SEQUENCE_STEPS: usize = 16;

/// The batching policy of every workload.
pub const POLICY: BatchPolicy = BatchPolicy {
    max_batch: 16,
    max_wait: 8,
};

/// Activation bits of generated inputs (the device's INT6 range).
const INPUT_BITS: u8 = 6;

/// The device every workload serves on.
#[must_use]
pub fn device() -> SimConfig {
    SimConfig::noisy(128, 128).with_threads(1)
}

/// The served catalog: the stock catalog, then the tiny transformer.
#[must_use]
pub fn catalog_specs() -> Vec<ModelSpec> {
    let mut specs = catalog::stock_catalog();
    specs.push(catalog::llm_tiny());
    specs
}

/// The model id of the tiny transformer in [`catalog_specs`] order.
pub const LLM: ModelId = ModelId(4);

/// One CNN request of the trace: its model and input activations.
///
/// Every block of `Σ MIX` consecutive requests holds each model exactly
/// its weight many times, in a seeded order, so seeds change the order
/// and the inputs but not the amount of work.
#[must_use]
pub fn cnn_request(seed: u64, index: u64, shapes: &[TensorShape]) -> (ModelId, Tensor3) {
    let block_len = MIX.iter().sum::<u64>();
    let (block, slot) = (index / block_len, index % block_len);
    let mut models: Vec<usize> = MIX
        .iter()
        .enumerate()
        .flat_map(|(m, &weight)| std::iter::repeat_n(m, weight as usize))
        .collect();
    for i in (1..models.len()).rev() {
        let draw = request_seed(seed ^ 0xb10c, block * block_len + i as u64);
        models.swap(i, (draw % (i as u64 + 1)) as usize);
    }
    let model = models[slot as usize];
    let input = synthetic::activations(
        shapes[model],
        INPUT_BITS,
        request_seed(seed ^ 0x1a9d, index),
    );
    (ModelId(model), input)
}

/// The prompt token of generated sequence `index`.
#[must_use]
pub fn prompt(seed: u64, index: u64, vocab: usize) -> u32 {
    u32::try_from(request_seed(seed ^ 0x5e9, index) % vocab as u64).expect("vocab fits u32")
}

/// Input shapes of the catalog, in admission order.
#[must_use]
pub fn input_shapes(engine: &ServeEngine) -> Vec<TensorShape> {
    (0..engine.registry().len())
        .map(|m| engine.input_shape(ModelId(m)))
        .collect()
}

/// The tiny transformer's vocabulary.
#[must_use]
pub fn vocab(engine: &ServeEngine) -> usize {
    engine
        .registry()
        .spec(LLM)
        .lm
        .as_ref()
        .expect("llm_tiny is a language model")
        .config
        .vocab
}

/// Summed weight-stationary footprint of the catalog, in cells.
#[must_use]
pub fn catalog_footprint() -> usize {
    let exec = DeviceExecutor::new(device());
    catalog_specs()
        .iter()
        .map(|spec| exec.model_footprint_cells(&spec.network))
        .sum()
}

/// One chip whose default budget holds the whole catalog, prewarm on,
/// one worker.
#[must_use]
pub fn resident_config() -> ServeConfig {
    ServeConfig::new(device())
        .with_policy(POLICY)
        .with_workers(1)
        .with_prewarm(true)
}

/// Two chips, each with a third of the catalog footprint, least-loaded
/// placement, prewarm on, two workers.
#[must_use]
pub fn thrash_config() -> ServeConfig {
    let third = catalog_footprint() / 3;
    ServeConfig::new(device())
        .with_policy(POLICY)
        .with_workers(2)
        .with_prewarm(true)
        .with_chips(vec![third, third])
        .with_placement(PlacementPolicy::LeastLoaded)
}

/// The reference configuration outputs are checked against: one chip
/// with a zero cell budget (every tile is programmed per request) and no
/// batching.
#[must_use]
pub fn cold_config() -> ServeConfig {
    ServeConfig::new(device())
        .with_policy(BatchPolicy::SINGLE)
        .with_cache_budget(0)
        .with_workers(1)
        .with_prewarm(false)
}

/// An engine with the catalog admitted in [`catalog_specs`] order, so
/// every engine gives each model the same device seed.
///
/// # Panics
///
/// Panics if a catalog model is refused.
#[must_use]
pub fn build_engine(config: ServeConfig, t: &mut Tracer) -> ServeEngine {
    let (mut engine, _) = t.time("engine.new", 0, |_| ServeEngine::new(config));
    for (m, spec) in catalog_specs().into_iter().enumerate() {
        t.time("cluster.admit", m as u64, |_| engine.admit(spec))
            .0
            .expect("catalog models admit");
    }
    engine
}

/// Programs every model's tiles (what fits), then drains one request per
/// CNN model and one short sequence, so the first measured request finds
/// a warm engine.
///
/// # Panics
///
/// Panics if the warm-up submissions are refused.
pub fn prewarm_and_warm_up(engine: &mut ServeEngine, seed: u64, t: &mut Tracer) {
    for m in 0..engine.registry().len() {
        t.time("cluster.prewarm", m as u64, |_| {
            engine.registry().prewarm(ModelId(m))
        });
    }
    let shapes = input_shapes(engine);
    for (m, &shape) in shapes.iter().enumerate().take(MIX.len()) {
        let request = InferRequest {
            model: ModelId(m),
            input: warm_up_input(seed, m, shape),
            arrival: 0,
            deadline: None,
        };
        t.time("engine.try_submit", m as u64, |_| {
            engine.try_submit(request)
        })
        .0
        .expect("warm-up request admits");
    }
    t.time("engine.begin_sequence", 0, |_| {
        engine.begin_sequence(LLM, 0, WARM_UP_STEPS, 0, 1)
    })
    .0
    .expect("warm-up sequence begins");
    t.time("engine.drain_traced", 0, |_| engine.drain_traced());
}

/// Decode steps of a warm-up sequence.
pub const WARM_UP_STEPS: usize = 4;

/// The input of model `m`'s warm-up request.
#[must_use]
pub fn warm_up_input(seed: u64, m: usize, shape: TensorShape) -> Tensor3 {
    synthetic::activations(shape, INPUT_BITS, request_seed(seed ^ 0xa11, m as u64))
}

/// Peak resident set of this process, MB (`VmHWM`); 0 where unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
