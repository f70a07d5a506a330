//! The serving engine: a submission queue, the dynamic batcher, and a
//! deterministic scheduler whose rounds are as wide as the cluster.

use crate::batcher::{form_batches, route_rounds, Batch, BatchPolicy};
use crate::cluster::{ChipHealth, ChipId, ChipStats, Cluster, FaultPlan, PlacementPolicy};
use crate::registry::{AdmitError, ModelCacheStats, ModelSpec};
use crate::request::{Completion, InferRequest, ModelId, RequestId, SequenceId, TokenCompletion};
use oxbar_core::dse::parallel_map;
use oxbar_nn::reference::Tensor3;
use oxbar_nn::transformer::{KvCache, StepInput, StepOutcome};
use oxbar_nn::TensorShape;
use oxbar_sim::llm::lm_steps;
use oxbar_sim::{DeviceExecutor, SimConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Hard per-sequence cap on decode steps, so a hostile `Generate` cannot
/// pin the engine in an unbounded token loop.
pub const MAX_SEQUENCE_STEPS: usize = 1024;

/// Full configuration of a [`ServeEngine`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Device configuration every admitted model's executor derives from
    /// (per-model seeds are mixed in at admission).
    pub device: SimConfig,
    /// How the batcher coalesces the queue.
    pub policy: BatchPolicy,
    /// How a round's batches run: with 1 on the calling thread, with any
    /// other value each on its own thread. It picks threads only: a round
    /// is as wide as the cluster has chips whatever this is, so every
    /// completion, shed and counter is the same at any worker count.
    pub workers: usize,
    /// Drift-aware online recalibration: when the device config ages
    /// resident tiles ([`oxbar_sim::NoiseModel::drift_tick`] and a drift
    /// exponent both non-zero), each drain boundary marks the oldest
    /// tiles that crossed the accuracy budget (`Cluster::begin_pass`),
    /// and each marked tile re-derives at fresh-program state at its
    /// next read. Decisions are keyed on the global dispatch counter at
    /// single-threaded drain boundaries — never wall clock — so which
    /// tiles are marked does not depend on the worker count, only on the
    /// tile ages the drain inherits; with aging disabled the flag is
    /// structurally inert (on or off, nothing changes). On by default.
    pub recalibration: bool,
    /// Per-chip weight-stationary budgets, in crossbar cells (the
    /// hardware's finite PCM tile capacity): one chip per entry, at
    /// least one. The default is one chip of 4M cells. With two or more
    /// entries the engine serves a multi-chip [`Cluster`]: models place
    /// onto chips at admission, rounds route across chips, and
    /// over-budget chips migrate models to siblings before evicting.
    pub chip_budgets: Vec<usize>,
    /// How admitted models place onto chips (ignored on a single chip).
    pub placement: PlacementPolicy,
    /// Deterministic chip-kill schedule, keyed on the engine's global
    /// batch dispatch counter: a kill with round `r` lands just before
    /// the `r`-th batch dispatched since engine creation, so the chip is
    /// failed at every dispatch count above `r`. Every fault decision
    /// reads health at its own dispatch count — never wall clock, never
    /// how far other batches have run. Empty by default: a no-fault
    /// engine is byte-identical to one without this field.
    pub fault_plan: FaultPlan,
}

impl ServeConfig {
    /// A serving configuration with the default batching policy (batches
    /// of up to 16 within an 8-tick window), one chip of the simulator's
    /// 4M-cell weight-stationary budget, and serial dispatch.
    #[must_use]
    pub fn new(device: SimConfig) -> Self {
        Self {
            device,
            policy: BatchPolicy::new(16, 8),
            workers: 1,
            recalibration: true,
            chip_budgets: vec![4_000_000],
            placement: PlacementPolicy::FirstFit,
            fault_plan: FaultPlan::new(),
        }
    }

    /// Overrides the batching policy.
    #[must_use]
    pub fn with_policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Serves one chip of `cells` weight-stationary cells.
    #[must_use]
    pub fn with_cache_budget(mut self, cells: usize) -> Self {
        self.chip_budgets = vec![cells];
        self
    }

    /// Overrides [`Self::workers`].
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Does nothing, whatever `prewarm` is: a drain programs every tile
    /// in the batch that reads it, on the chip that batch runs on, and
    /// programming ahead of traffic is one explicit [`Cluster::prewarm`]
    /// call. Kept only because the `servebench` workloads still call it.
    #[must_use]
    pub fn with_prewarm(self, _prewarm: bool) -> Self {
        self
    }

    /// Enables/disables drift-aware online recalibration (on by
    /// default; inert unless the device config ages tiles).
    #[must_use]
    pub fn with_recalibration(mut self, recalibration: bool) -> Self {
        self.recalibration = recalibration;
        self
    }

    /// Serves one chip per entry of `chip_budgets`, with those cell
    /// budgets. The list must not be empty ([`ServeEngine::new`] panics
    /// on an empty one).
    #[must_use]
    pub fn with_chips(mut self, chip_budgets: Vec<usize>) -> Self {
        self.chip_budgets = chip_budgets;
        self
    }

    /// Overrides the model→chip placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Schedules a deterministic fault plan (empty by default).
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }
}

/// Aggregate serving statistics since engine creation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Requests completed across all drains.
    pub requests: u64,
    /// Batches dispatched across all drains.
    pub batches: u64,
    /// Whole-model cache evictions forced by the chip budgets.
    pub evictions: u64,
    /// Tiles [`Cluster::prewarm`] programmed and compiled ahead of
    /// traffic, summed over every residency it warmed.
    pub prewarmed_tiles: u64,
    /// Summed cache occupancy across models, in cells.
    pub occupancy_cells: usize,
    /// The cell budgets summed over chips.
    pub budget_cells: usize,
    /// Per-model tile-cache statistics, in admission order.
    pub models: Vec<ModelCacheStats>,
    /// Cross-chip model migrations: residencies an over-budget chip moved
    /// to a sibling, programmed tiles and all, instead of evicting them
    /// (always 0 on a single chip).
    pub migrations: u64,
    /// Per-chip statistics, in chip-index order (one entry on a
    /// single-chip engine).
    pub chips: Vec<ChipStats>,
    /// Fault-charged retries, summed over [`Self::chips`]: one per
    /// batch re-routed off a failed chip.
    pub retries: u64,
    /// Requests shed instead of served — re-routed members whose
    /// deadline precedes their batch's latest arrival, or members with
    /// no healthy chip left to run on, summed over [`Self::chips`]. Shed
    /// requests complete with a structured notice, never silently.
    pub sheds: u64,
    /// Models recovered after losing every serving residency: the
    /// richest residency moved, programmed tiles and all, off its failed
    /// chip onto a serving one (PCM is non-volatile).
    pub recoveries: u64,
    /// Autoregressive sequences begun (finished or not).
    pub sequences: u64,
    /// Decode-step tokens emitted across all sequences.
    pub tokens: u64,
    /// Recalibration passes: one per chip per drain that marked
    /// over-budget tiles (`Cluster::begin_pass`).
    pub recalibrations: u64,
    /// Tiles those passes marked; each re-derives at fresh-program
    /// state at its next read.
    pub recalibrated_tiles: u64,
    /// Chips the drain-boundary scan promoted to
    /// [`ChipHealth::Degraded`] (one per Healthy→Degraded transition,
    /// not per tile).
    pub drift_budget_breaches: u64,
    /// Degraded→Healthy transitions the scan made once a chip's resident
    /// tiles were all recalibrated back under budget.
    pub drift_heals: u64,
}

impl EngineStats {
    /// Tile-level cache hit rate aggregated over every model. A batch
    /// looks each tile up once, so larger batches lower it while cutting
    /// the misses per request.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.models.iter().fold((0u64, 0u64), |(h, m), s| {
            (h + s.cache.hits, m + s.cache.misses)
        });
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Mean requests per dispatched batch.
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// Why [`ServeEngine::try_submit`] refused a request.
///
/// Submission rejection is *structured*, never a panic: the serving edge
/// hands untrusted client input to the engine, and a misbehaving client
/// must not be able to crash it. Note that an out-of-order arrival tick
/// is deliberately **not** an error — concurrent network connections
/// routinely deliver non-monotonic ticks, so admission orders the queue
/// by arrival instead (see [`ServeEngine::try_submit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The request names a model this engine never admitted.
    UnknownModel(ModelId),
    /// The input tensor's shape does not match the model's input layer.
    ShapeMismatch {
        /// The model the request targeted.
        model: ModelId,
        /// The shape the model's input layer requires.
        expected: TensorShape,
        /// The shape the request carried.
        got: TensorShape,
    },
    /// The input tensor is internally inconsistent: its data length does
    /// not equal its shape's element count (possible only for tensors
    /// deserialized from an untrusted wire payload — in-process
    /// construction validates on [`oxbar_nn::reference::Tensor3::new`]).
    MalformedTensor {
        /// Elements the declared shape requires.
        expected: usize,
        /// Data values actually carried.
        got: usize,
    },
    /// A sequence operation targeted a model that is not an
    /// autoregressive language model ([`ModelSpec::lm`] is `None`).
    NotLanguageModel(ModelId),
    /// The prompt token is outside the model's vocabulary.
    BadToken {
        /// The model the sequence targeted.
        model: ModelId,
        /// The offending token.
        token: u32,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// The requested decode-step count is zero or above
    /// [`MAX_SEQUENCE_STEPS`].
    BadSteps {
        /// The step count the request carried.
        steps: usize,
        /// The per-sequence cap.
        max: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownModel(model) => write!(f, "unknown model {model:?}"),
            Self::ShapeMismatch {
                model,
                expected,
                got,
            } => write!(
                f,
                "input shape must match the model: {model:?} expects {expected}, got {got}"
            ),
            Self::MalformedTensor { expected, got } => write!(
                f,
                "malformed tensor: shape declares {expected} elements, data carries {got}"
            ),
            Self::NotLanguageModel(model) => {
                write!(f, "model {model:?} is not a language model")
            }
            Self::BadToken {
                model,
                token,
                vocab,
            } => write!(
                f,
                "token {token} outside the {vocab}-token vocabulary of {model:?}"
            ),
            Self::BadSteps { steps, max } => {
                write!(f, "sequence steps must be in 1..={max}, got {steps}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Everything one [`ServeEngine::drain_traced`] call observed: the
/// completions, each batch's measured wall time, and the dispatch rounds
/// the scheduler actually ran — the inputs
/// [`crate::loadgen::replay_latencies`] needs to replay the queueing
/// timeline of chips that compute side by side.
#[derive(Debug, Clone)]
pub struct DrainTrace {
    /// One completion per request, in round order: batch by batch as
    /// [`Self::rounds`] lists them, flattened, and ascending
    /// [`RequestId`] within a batch.
    pub completions: Vec<Completion>,
    /// Measured wall-clock execution time of each batch (ms), indexed by
    /// `batch_seq`.
    pub batch_ms: Vec<f64>,
    /// The dispatch rounds: `rounds[k]` holds the `batch_seq` values
    /// dispatched together in round `k` (ascending), never more than the
    /// cluster has chips. Every batch appears in exactly one round.
    pub rounds: Vec<Vec<usize>>,
    /// Requests shed by the fault handler instead of completed, in the
    /// same round order as `completions`. Empty on a no-fault drain.
    /// Every queued request lands in exactly one of `completions` or
    /// `sheds` — nothing is silently lost.
    pub sheds: Vec<ShedNotice>,
}

/// A request the engine shed instead of served: its batch was re-routed
/// off a failed chip and the member either had a deadline before its
/// batch's latest arrival or had no healthy chip left to run on.
/// Shedding a decode step ends its whole sequence, which `sequence`
/// names.
///
/// The notice carries everything the serving edge needs to answer the
/// client explicitly — shedding is a structured completion, never a
/// hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedNotice {
    /// The request that was shed.
    pub id: RequestId,
    /// The sequence the shed step ended, when the request was a decode
    /// step; `None` for an ordinary inference.
    pub sequence: Option<SequenceId>,
    /// The model it targeted.
    pub model: ModelId,
    /// Its arrival tick.
    pub arrival: u64,
    /// Its advisory deadline, if any.
    pub deadline: Option<u64>,
    /// Human-readable reason for the shed.
    pub detail: String,
}

struct Queued {
    id: RequestId,
    request: InferRequest,
    /// Set when this queue entry is one decode step of an autoregressive
    /// sequence (index into `ServeEngine::sequences`); the entry then
    /// executes as one decode step of its batch's [`lm_steps`] against
    /// the sequence's KV cache instead of a network forward.
    sequence: Option<u64>,
}

/// One live autoregressive generation session. Exactly one decode step
/// per sequence is ever queued or in flight: step `t + 1` enters the
/// queue only when step `t`'s completion is absorbed, so the KV cache an
/// executing step reads is always settled.
struct Sequence {
    model: ModelId,
    cache: KvCache,
    /// Steps completed so far (= the position the next step decodes at).
    pos: usize,
    /// Total decode steps this sequence runs.
    steps: usize,
    /// The token the next step feeds (the prompt, then each emitted
    /// token).
    next_token: u32,
    /// Ticks between successive token arrivals.
    interval: u64,
    /// Arrival tick of the next step to enqueue.
    next_arrival: u64,
    /// Every token emitted so far, in order — the sequence's output
    /// stream.
    tokens: Vec<u32>,
}

impl Sequence {
    /// Ends the sequence (completed, or shed: later steps would decode
    /// against a hole in the cache) and frees its KV cache: no step of it
    /// will run again, and only `tokens` stays readable.
    fn finish(&mut self) {
        self.cache.blocks = Vec::new();
    }
}

/// One executed batch member: the completion plus, for a token step, the
/// device outcome the serial completion loop applies to the sequence
/// (KV-cache append, next-token advance, next-step submission).
struct Executed {
    completion: Completion,
    outcome: Option<(u64, StepOutcome)>,
}

/// Where one batch runs, resolved at the start of its step.
struct Fate {
    /// The chip that executes the batch; `None` when no chip is left to
    /// run on and every member is shed.
    chip: Option<usize>,
    /// Queue slots (batch members) shed instead of served, ascending.
    shed: Vec<usize>,
    /// The failed chip this batch was re-routed away from, if any.
    failed_from: Option<usize>,
}

/// A deterministic, multi-model, batched inference engine over the
/// device-level simulator.
///
/// The life of a request: [`ServeEngine::try_submit`] appends it to the
/// queue; [`ServeEngine::drain_traced`] coalesces the queue into
/// same-model batches ([`form_batches`]), routes them into rounds as wide
/// as the cluster has chips, runs each round's batches through the
/// order-preserving [`parallel_map`], executes every request on its
/// model's weight-stationary [`oxbar_sim::DeviceExecutor`] (a tile is
/// programmed by the first batch that reads it, on the chip that batch
/// runs on), and enforces the per-chip cell budgets between rounds
/// (migration, then LRU whole-model eviction). Programming ahead of
/// traffic is a deployment step, [`Cluster::prewarm`], which the engine
/// never takes on its own.
///
/// # Determinism
///
/// Outputs are byte-identical across batching policies because every
/// stochastic quantity is pinned to a stable key, never to execution
/// order: a model's PCM programming and phase noise derive from its
/// admission seed ([`oxbar_sim::config::tile_seed`] per tile), and a
/// trace's inputs derive from per-request seeds
/// ([`crate::request::request_seed`]). Caching and eviction change only
/// *work*, not results, so a batched drain equals a serial replay of the
/// same trace — the property `crates/serve/tests/determinism.rs` pins
/// down.
///
/// The worker count changes nothing a caller can observe: rounds are as
/// wide as the cluster, and every decision (fates, recoveries, budgets,
/// LRU touches, completion order) is made between rounds, on the calling
/// thread, in dispatch order. Inside a round only batches of one model
/// share an executor, and they claim its tiles in the same order,
/// single-flight, so hits and misses do not depend on which finishes
/// first (at [`SimConfig::threads`] = 1). A chip is
/// failed at dispatch count `n` exactly when [`ServeConfig::fault_plan`]
/// kills it at a round below `n`. `crates/serve/tests/scenarios/` checks
/// completions, outputs, sheds, tokens and stats at one to four workers.
///
/// # Examples
///
/// ```
/// use oxbar_serve::{catalog, InferRequest, ServeConfig, ServeEngine};
/// use oxbar_sim::SimConfig;
/// use oxbar_nn::synthetic;
///
/// let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
/// let model = engine.admit(catalog::lenet5_model()).unwrap();
/// let input = synthetic::activations(engine.input_shape(model), 6, 1);
/// engine
///     .try_submit(InferRequest { model, input, arrival: 0, deadline: None })
///     .unwrap();
/// let done = engine.drain_traced().completions;
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].output.shape().elements(), 10);
/// ```
pub struct ServeEngine {
    config: ServeConfig,
    registry: Cluster,
    queue: Vec<Queued>,
    next_id: u64,
    requests: u64,
    /// Batches dispatched across all drains — also the global dispatch
    /// sequence number the next batch gets, which keys the fault plan.
    batches: u64,
    /// Every sequence ever begun, indexed by [`SequenceId`]; a finished
    /// one keeps its tokens but not its KV cache.
    sequences: Vec<Sequence>,
    /// Decode steps completed across all sequences.
    tokens: u64,
}

impl ServeEngine {
    /// Creates an empty engine.
    ///
    /// # Panics
    ///
    /// Panics if `config.chip_budgets` is empty.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        let registry = Cluster::new(
            config.device.clone(),
            &config.chip_budgets,
            config.placement,
        )
        .with_faults(config.fault_plan.clone());
        Self {
            config,
            registry,
            queue: Vec::new(),
            next_id: 0,
            requests: 0,
            batches: 0,
            sequences: Vec::new(),
            tokens: 0,
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Admits a model into the registry.
    ///
    /// # Errors
    ///
    /// Returns [`AdmitError`] for residual networks or filter banks that
    /// do not cover the network.
    pub fn admit(&mut self, spec: ModelSpec) -> Result<ModelId, AdmitError> {
        self.registry.admit(spec)
    }

    /// Admits a model only if some chip has committed room for its full
    /// weight-stationary footprint — the admission-control variant the
    /// network server uses, so a catalog can never be oversubscribed past
    /// the cluster's cell budgets at admission time.
    ///
    /// # Errors
    ///
    /// Everything [`Self::admit`] returns, plus
    /// [`AdmitError::Capacity`] when no chip can commit the model.
    pub fn admit_strict(&mut self, spec: ModelSpec) -> Result<ModelId, AdmitError> {
        self.registry.admit_strict(spec)
    }

    /// The input tensor shape requests for `id` must carry.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this engine.
    #[must_use]
    pub fn input_shape(&self, id: ModelId) -> oxbar_nn::TensorShape {
        self.registry.input_shape(id)
    }

    /// The model cluster (for reports and catalog introspection). On a
    /// default configuration this is a single-chip cluster.
    #[must_use]
    pub fn registry(&self) -> &Cluster {
        &self.registry
    }

    /// Enqueues a request, returning its [`RequestId`], or a structured
    /// [`SubmitError`] for a request the engine cannot serve.
    ///
    /// Admission keeps the queue ordered by arrival tick: a request whose
    /// tick precedes already-queued ones is *inserted in order* (after
    /// every queued request with an equal-or-earlier tick, so equal ticks
    /// keep submission order). Concurrent connections routinely deliver
    /// non-monotonic ticks — ordered insertion makes that a non-event,
    /// and the batcher's non-decreasing-arrival precondition holds by
    /// construction.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownModel`] for a model id this engine never
    /// admitted, [`SubmitError::ShapeMismatch`] when the input tensor's
    /// shape differs from the model's input layer, and
    /// [`SubmitError::MalformedTensor`] when the tensor's data length
    /// contradicts its own declared shape (possible only for tensors that
    /// bypassed [`oxbar_nn::reference::Tensor3::new`], e.g. wire
    /// deserialization).
    pub fn try_submit(&mut self, request: InferRequest) -> Result<RequestId, SubmitError> {
        if request.model.0 >= self.registry.len() {
            return Err(SubmitError::UnknownModel(request.model));
        }
        let expected = self.registry.input_shape(request.model);
        let got = request.input.shape();
        if got != expected {
            return Err(SubmitError::ShapeMismatch {
                model: request.model,
                expected,
                got,
            });
        }
        if request.input.data().len() != expected.elements() {
            return Err(SubmitError::MalformedTensor {
                expected: expected.elements(),
                got: request.input.data().len(),
            });
        }
        Ok(self.enqueue(request, None))
    }

    /// Appends a validated request to the queue in arrival order.
    fn enqueue(&mut self, request: InferRequest, sequence: Option<u64>) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let pos = self
            .queue
            .partition_point(|q| q.request.arrival <= request.arrival);
        self.queue.insert(
            pos,
            Queued {
                id,
                request,
                sequence,
            },
        );
        id
    }

    /// Begins an autoregressive generation sequence: `steps` greedy
    /// decode steps starting from `prompt`, the first arriving at
    /// `arrival` and each subsequent token `interval` ticks after the
    /// previous one completes. Token steps ride the ordinary queue — they
    /// batch with CNN traffic, route across chips, and fail over to
    /// replicas like any request — but
    /// step `t + 1` is submitted only when step `t` completes, so one
    /// sequence is a long-lived chain of requests rather than a burst.
    ///
    /// Token steps carry no deadline: a generation session is an open
    /// stream, not a deadline-bound query, so the failover shedder never
    /// drops one unless *no* healthy chip remains.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownModel`] for an unadmitted model,
    /// [`SubmitError::NotLanguageModel`] when the model has no
    /// transformer weights, [`SubmitError::BadSteps`] for a zero or
    /// over-cap step count, and [`SubmitError::BadToken`] for a prompt
    /// outside the vocabulary.
    pub fn begin_sequence(
        &mut self,
        model: ModelId,
        prompt: u32,
        steps: usize,
        arrival: u64,
        interval: u64,
    ) -> Result<SequenceId, SubmitError> {
        if model.0 >= self.registry.len() {
            return Err(SubmitError::UnknownModel(model));
        }
        let spec = self.registry.spec(model);
        let Some(weights) = spec.lm.as_ref() else {
            return Err(SubmitError::NotLanguageModel(model));
        };
        if steps == 0 || steps > MAX_SEQUENCE_STEPS {
            return Err(SubmitError::BadSteps {
                steps,
                max: MAX_SEQUENCE_STEPS,
            });
        }
        let vocab = weights.config.vocab;
        if prompt as usize >= vocab {
            return Err(SubmitError::BadToken {
                model,
                token: prompt,
                vocab,
            });
        }
        let cache = KvCache::new(&weights.config);
        let seq_id = self.sequences.len() as u64;
        self.sequences.push(Sequence {
            model,
            cache,
            pos: 0,
            steps,
            next_token: prompt,
            interval,
            next_arrival: arrival,
            tokens: Vec::new(),
        });
        self.enqueue(token_request(model, prompt, arrival), Some(seq_id));
        Ok(SequenceId(seq_id))
    }

    /// The tokens sequence `id` has emitted so far, in decode order.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this engine.
    #[must_use]
    pub fn sequence_tokens(&self, id: SequenceId) -> &[u32] {
        &self.sequences[usize::try_from(id.0).expect("sequence id fits usize")].tokens
    }

    /// Requests currently queued (submitted but not yet drained).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Processes the whole queue: forms batches, dispatches them in
    /// rounds of at most as many batches as the cluster has chips,
    /// enforces the cell budgets between rounds, and returns everything
    /// the drain observed — one [`Completion`] per request in round order
    /// (batch by batch as the rounds list them; ascending [`RequestId`]
    /// within a batch), each batch's measured wall time in ms indexed by
    /// `batch_seq`, and the dispatch rounds the scheduler ran.
    ///
    /// The round schedule is a pure function of the queue, the policy,
    /// the placement and chip health, so everything but the timings is
    /// the same for any worker count (see the determinism notes on
    /// [`ServeEngine`]).
    ///
    /// The timings are observational only — nothing in the engine
    /// branches on them. A batch's time measures its execution, including
    /// the PCM programming of every tile it is the first to read (none,
    /// for a model [`Cluster::prewarm`] warmed and no budget pass has
    /// evicted since). The batches of one round model chips computing side
    /// by side, so a serial sum of their times overstates the pipeline's
    /// occupancy: feed `batch_ms` and `rounds` to
    /// [`crate::loadgen::replay_latencies`] to recover per-request
    /// latencies under a tick schedule.
    ///
    /// A drain runs **to idle**: completing one decode step of a
    /// sequence submits the next, so the scheduler keeps making passes
    /// over the regrown queue until no request — CNN or token — remains.
    /// Passes merge into one trace with continuous `batch_seq` numbering.
    pub fn drain_traced(&mut self) -> DrainTrace {
        let mut trace = self.drain_pass();
        while !self.queue.is_empty() {
            let more = self.drain_pass();
            let offset = trace.batch_ms.len();
            trace
                .completions
                .extend(more.completions.into_iter().map(|mut c| {
                    c.batch_seq += offset;
                    c
                }));
            trace.batch_ms.extend(more.batch_ms);
            trace.rounds.extend(
                more.rounds
                    .into_iter()
                    .map(|round| round.into_iter().map(|seq| seq + offset).collect()),
            );
            trace.sheds.extend(more.sheds);
        }
        trace
    }

    /// One scheduler pass over the current queue, one step per dispatch
    /// round. Each step (1) resolves its batches' fates in dispatch order
    /// against where each model lives now, (2) runs its batches through
    /// one pool, and (3) absorbs the results and enforces the cell
    /// budgets. Token-step completions may submit follow-up requests —
    /// the [`Self::drain_traced`] loop picks those up in the next pass.
    fn drain_pass(&mut self) -> DrainTrace {
        let queue = std::mem::take(&mut self.queue);
        let keys: Vec<(ModelId, u64)> = queue
            .iter()
            .map(|q| (q.request.model, q.request.arrival))
            .collect();
        let batches = form_batches(&keys, self.config.policy);
        let seq_base = self.batches;
        // The drain boundary (single-threaded): the tile clocks advance
        // to the global dispatch counter, and the cluster settles drift
        // health and recalibration marks in one scan.
        self.registry
            .begin_pass(seq_base, self.config.recalibration);
        // A round is as wide as the cluster: it prefers batches on
        // distinct chips, so the chips compute side by side, and
        // replicated models spread successive batches across their
        // replicas. On one chip every round is one batch.
        let rounds = route_rounds(&batches, self.registry.chip_count(), |b| {
            let seq = seq_base + b.seq as u64;
            let homes = self.registry.residencies(b.model);
            pick_replica(&homes, seq, |c| {
                self.registry.chip_health(ChipId(c), seq + 1)
            })
            .1
            .unwrap_or_else(|| self.registry.chip_of(b.model).0)
        });
        let mut completions = Vec::with_capacity(queue.len());
        let mut timings = vec![0.0; batches.len()];
        let mut shed_notices: Vec<ShedNotice> = Vec::new();
        let mut fates: Vec<Fate> = Vec::with_capacity(batches.len());
        for round in &rounds {
            // 1. Fates resolve in dispatch order whatever the round
            // width: every batch up to the round's last, including those
            // a later round runs. A fate only ever picks a chip that
            // serves at its batch's sequence, so no batch runs on a
            // failed chip.
            let end = round.last().map_or(0, |&last| last + 1);
            while fates.len() < end {
                fates.push(self.resolve_fate(&batches[fates.len()], &queue, seq_base));
            }
            // 2. One pool runs the round's batches: with one worker on
            // the calling thread, in dispatch order; otherwise each on
            // its own thread.
            let lanes = if self.config.workers == 1 {
                1
            } else {
                round.len()
            };
            let done = parallel_map(round, lanes, |_, &i| {
                self.run_batch(&batches[i], &fates[i], &queue, seq_base)
            });
            // 3. Absorb in dispatch order, then enforce the budgets at
            // chip health one past the last resolved batch.
            for (&i, (executed, ms)) in round.iter().zip(done) {
                timings[i] = ms;
                self.absorb_batch(
                    &batches[i],
                    &fates[i],
                    executed,
                    &queue,
                    &mut completions,
                    &mut shed_notices,
                );
            }
            self.registry.enforce_budget(seq_base + fates.len() as u64);
        }
        self.requests += completions.len() as u64;
        self.batches = seq_base + batches.len() as u64;
        DrainTrace {
            completions,
            batch_ms: timings,
            rounds,
            sheds: shed_notices,
        }
    }

    /// Resolves one batch's [`Fate`], in dispatch order, against where
    /// its model lives *now* — recoveries and migrations earlier in the
    /// drain are visible — and each chip's health at the batch's dispatch
    /// sequence + 1. A batch whose nominal replica failed re-routes to
    /// the best surviving replica, else recovers the model right here by
    /// moving its programmed tiles to a serving chip, else sheds. A
    /// re-routed member whose deadline precedes the batch's latest
    /// arrival sheds too — the only path that ever sheds a member with a
    /// chip to run on.
    fn resolve_fate(&mut self, batch: &Batch, queue: &[Queued], seq_base: u64) -> Fate {
        let seq = seq_base + batch.seq as u64;
        let homes = self.registry.residencies(batch.model);
        let (nominal, serving) = pick_replica(&homes, seq, |c| {
            self.registry.chip_health(ChipId(c), seq + 1)
        });
        let mut fate = Fate {
            chip: serving,
            shed: Vec::new(),
            failed_from: None,
        };
        if serving != Some(nominal) {
            fate.failed_from = Some(nominal);
            fate.chip =
                serving.or_else(|| self.registry.recover(batch.model, seq + 1).map(|c| c.0));
            fate.shed = if fate.chip.is_some() {
                let max_arrival = batch
                    .members
                    .iter()
                    .map(|&s| queue[s].request.arrival)
                    .max()
                    .unwrap_or(0);
                batch
                    .members
                    .iter()
                    .copied()
                    .filter(|&s| queue[s].request.deadline.is_some_and(|d| d < max_arrival))
                    .collect()
            } else {
                batch.members.clone()
            };
        }
        fate
    }

    /// Runs one batch per its fate, returning its executions and its
    /// wall-clock execution time in ms.
    fn run_batch(
        &self,
        batch: &Batch,
        fate: &Fate,
        queue: &[Queued],
        seq_base: u64,
    ) -> (Vec<Executed>, f64) {
        let start = std::time::Instant::now();
        let executed = fate.chip.map_or(Vec::new(), |chip| {
            // A recovery or migration since the fate was resolved may
            // have moved the model off `chip`; a copy on a chip that
            // serves at the batch's sequence answers identically.
            let executor = self
                .registry
                .executor_on(batch.model, ChipId(chip))
                .unwrap_or_else(|| {
                    let n = seq_base + batch.seq as u64 + 1;
                    let homes = self.registry.residencies(batch.model);
                    homes
                        .into_iter()
                        .filter(|&c| self.registry.chip_health(c, n).serves())
                        .find_map(|c| self.registry.executor_on(batch.model, c))
                        .expect("a moved model lives on a chip that serves")
                });
            self.execute_on(batch, queue, executor, &fate.shed)
        });
        (executed, start.elapsed().as_secs_f64() * 1e3)
    }

    /// Folds one executed batch into the drain: the LRU touch, the fault
    /// accounting its fate planned (a re-route charges a retry to the
    /// chip it failed away from), the shed notices, and its completions.
    fn absorb_batch(
        &mut self,
        batch: &Batch,
        fate: &Fate,
        executed: Vec<Executed>,
        queue: &[Queued],
        completions: &mut Vec<Completion>,
        notices: &mut Vec<ShedNotice>,
    ) {
        self.registry.touch(batch.model);
        if let Some(from) = fate.failed_from {
            // A re-route only counts as a retry if something actually
            // re-executes.
            if fate.shed.len() < batch.members.len() {
                self.registry.note_retry(ChipId(from));
            }
            if !fate.shed.is_empty() {
                let detail = if fate.chip.is_some() {
                    format!("deadline unreachable after chip {from} failed")
                } else {
                    format!("no healthy chip left after chip {from} failed")
                };
                self.shed_members(batch, queue, &fate.shed, from, &detail, notices);
            }
        }
        for e in executed {
            if let Some((seq_id, outcome)) = e.outcome {
                self.advance_sequence(seq_id, &outcome);
            }
            completions.push(e.completion);
        }
    }

    /// Applies one finished decode step: extends the KV cache, records
    /// the emitted token, and — if the sequence still has steps left —
    /// enqueues the next token request (the autoregressive feedback
    /// edge: step `t + 1` enters the queue only now).
    fn advance_sequence(&mut self, seq_id: u64, outcome: &StepOutcome) {
        self.tokens += 1;
        let sequence = &mut self.sequences[usize::try_from(seq_id).expect("sequence id")];
        sequence.cache.apply(outcome);
        sequence.pos += 1;
        sequence.tokens.push(outcome.next_token);
        sequence.next_token = outcome.next_token;
        if sequence.pos < sequence.steps {
            sequence.next_arrival = sequence.next_arrival.saturating_add(sequence.interval);
            let model = sequence.model;
            let token = sequence.next_token;
            let arrival = sequence.next_arrival;
            self.enqueue(token_request(model, token, arrival), Some(seq_id));
        } else {
            sequence.finish();
        }
    }

    /// Records shed members: engine + chip counters and one structured
    /// notice per request.
    fn shed_members(
        &mut self,
        batch: &Batch,
        queue: &[Queued],
        slots: &[usize],
        chip: usize,
        detail: &str,
        notices: &mut Vec<ShedNotice>,
    ) {
        for &slot in slots {
            let q = &queue[slot];
            self.registry.note_shed(ChipId(chip));
            if let Some(seq_id) = q.sequence {
                // Shedding a decode step ends its whole sequence: no
                // further token is enqueued, and the notice names the
                // sequence so the client is told.
                self.sequences[usize::try_from(seq_id).expect("sequence id")].finish();
            }
            notices.push(ShedNotice {
                id: q.id,
                sequence: q.sequence.map(SequenceId),
                model: batch.model,
                arrival: q.request.arrival,
                deadline: q.request.deadline,
                detail: detail.to_string(),
            });
        }
    }

    /// Runs every non-shed member of a batch on one executor. The CNN
    /// members run as one batch-major
    /// [`DeviceExecutor::try_forward_batch`] and the members carrying a
    /// sequence id as one batch-major [`lm_steps`] (one decode step per
    /// sequence), so each static tile is looked up and programmed at most
    /// once per batch. Reading `self.sequences` here is safe because a
    /// sequence has at most one step in flight per pass.
    fn execute_on(
        &self,
        batch: &Batch,
        queue: &[Queued],
        executor: &DeviceExecutor,
        shed: &[usize],
    ) -> Vec<Executed> {
        let spec = self.registry.spec(batch.model);
        let survivors: Vec<&Queued> = batch
            .members
            .iter()
            .filter(|s| !shed.contains(s))
            .map(|&s| &queue[s])
            .collect();
        let sequence = |id: u64| &self.sequences[usize::try_from(id).expect("sequence id")];
        let inputs: Vec<&Tensor3> = survivors
            .iter()
            .filter(|q| q.sequence.is_none())
            .map(|q| &q.request.input)
            .collect();
        let steps: Vec<StepInput<'_>> = survivors
            .iter()
            .filter_map(|q| q.sequence)
            .map(|id| {
                let seq = sequence(id);
                StepInput {
                    cache: &seq.cache,
                    token: seq.next_token,
                    pos: seq.pos,
                }
            })
            .collect();
        let mut forwards = if inputs.is_empty() {
            Vec::new()
        } else {
            executor
                .try_forward_batch(&spec.network, &inputs, &spec.filters)
                .expect("`Cluster::validate` admits no residual network")
        }
        .into_iter();
        let mut steps = if steps.is_empty() {
            Vec::new()
        } else {
            let lm = spec.lm.as_ref().expect("sequence targets a language model");
            lm_steps(executor, &spec.network, &spec.filters, lm, &steps)
        }
        .into_iter();
        let mut out = Vec::with_capacity(survivors.len());
        for q in &survivors {
            let (output, token, outcome) = match q.sequence {
                Some(id) => {
                    let seq = sequence(id);
                    let step = steps.next().expect("one decode step per sequence member");
                    let logits = TensorShape::flat(step.logits.len());
                    let token = TokenCompletion {
                        sequence: SequenceId(id),
                        step: seq.pos,
                        token: step.next_token,
                        done: seq.pos + 1 >= seq.steps,
                    };
                    (
                        Tensor3::new(logits, step.logits.clone()),
                        Some(token),
                        Some((id, step)),
                    )
                }
                None => {
                    let forward = forwards.next().expect("one forward per CNN member");
                    (forward.output, None, None)
                }
            };
            out.push(Executed {
                completion: Completion {
                    id: q.id,
                    model: batch.model,
                    arrival: q.request.arrival,
                    deadline: q.request.deadline,
                    output,
                    batch_seq: batch.seq,
                    batch_size: survivors.len(),
                    sequence: token,
                },
                outcome,
            });
        }
        out
    }

    /// Aggregate statistics since engine creation.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let chips = self.registry.chip_stats(self.batches);
        let drift = self.registry.drift_stats();
        EngineStats {
            requests: self.requests,
            batches: self.batches,
            evictions: self.registry.evictions(),
            prewarmed_tiles: self.registry.prewarmed_tiles(),
            occupancy_cells: self.registry.occupancy(),
            budget_cells: self.registry.budget(),
            models: self.registry.cache_stats(),
            migrations: self.registry.migrations(),
            retries: chips.iter().map(|c| c.retries).sum(),
            sheds: chips.iter().map(|c| c.sheds).sum(),
            chips,
            recoveries: self.registry.recoveries(),
            sequences: self.sequences.len() as u64,
            tokens: self.tokens,
            recalibrations: drift.recalibrations,
            recalibrated_tiles: drift.recalibrated_tiles,
            drift_budget_breaches: drift.drift_budget_breaches,
            drift_heals: drift.drift_heals,
        }
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("models", &self.registry.len())
            .field("queued", &self.queue.len())
            .field("requests", &self.requests)
            .field("batches", &self.batches)
            .finish()
    }
}

/// Picks the residency chip that serves dispatch `seq` of a model living
/// on `homes`, given each chip's health at that point. Replicas rank
/// healthy, then degraded, then failed (slot order within a class), and
/// successive dispatches load-balance across the ranked list, so a
/// failure only re-routes the failed chip's share. Returns the nominal
/// chip and the one that serves: the nominal chip itself, or — when it
/// failed — the best surviving replica (`None` if none survives).
fn pick_replica(
    homes: &[ChipId],
    seq: u64,
    health: impl Fn(usize) -> ChipHealth,
) -> (usize, Option<usize>) {
    let rank = |chip: usize| match health(chip) {
        ChipHealth::Healthy => 0u8,
        ChipHealth::Degraded => 1,
        ChipHealth::Failed => 2,
    };
    let mut order: Vec<(u8, usize)> = homes.iter().map(|c| (rank(c.0), c.0)).collect();
    order.sort_by_key(|&(rank, _)| rank);
    let (rank, nominal) = order[seq as usize % order.len()];
    let serving = if rank < 2 {
        Some(nominal)
    } else {
        Some(order[0]).filter(|best| best.0 < 2).map(|best| best.1)
    };
    (nominal, serving)
}

/// Builds the queued request for one decode step of a sequence. The
/// input tensor carries only the step's token — the engine keys the real
/// state (the KV cache) off the sequence id — and the deadline is `None`:
/// token steps are never deadline-shed, only all-chips-failed can shed
/// them.
fn token_request(model: ModelId, token: u32, arrival: u64) -> InferRequest {
    InferRequest {
        model,
        input: Tensor3::new(TensorShape::flat(1), vec![i64::from(token)]),
        arrival,
        deadline: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use oxbar_nn::synthetic;

    /// Queues a deadline-free request at tick 0.
    fn submit_at_zero(engine: &mut ServeEngine, model: ModelId, input: Tensor3) {
        let request = InferRequest {
            model,
            input,
            arrival: 0,
            deadline: None,
        };
        engine.try_submit(request).expect("valid request");
    }

    #[test]
    fn pick_replica_ranks_healthy_then_degraded_and_skips_failed() {
        let homes = [ChipId(0), ChipId(1)];
        let degraded_0 = |c: usize| [ChipHealth::Degraded, ChipHealth::Healthy][c];
        // Healthy replica ranks first; the degraded one still serves its
        // share of the dispatches.
        assert_eq!(pick_replica(&homes, 0, degraded_0), (1, Some(1)));
        assert_eq!(pick_replica(&homes, 1, degraded_0), (0, Some(0)));
        // A failed replica's share re-routes to the best survivor.
        let failed_0 = |c: usize| [ChipHealth::Failed, ChipHealth::Degraded][c];
        assert_eq!(pick_replica(&homes, 1, failed_0), (0, Some(1)));
        assert_eq!(
            pick_replica(&homes, 0, |_| ChipHealth::Failed),
            (0, None),
            "no survivor: the recovery trigger"
        );
    }

    #[test]
    fn drain_completes_every_request_once() {
        let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
        let lenet = engine.admit(catalog::lenet5_model()).unwrap();
        let mobile = engine.admit(catalog::mobilenet_sample()).unwrap();
        for i in 0..6u64 {
            let model = if i % 2 == 0 { lenet } else { mobile };
            let input = synthetic::activations(engine.input_shape(model), 6, i);
            engine
                .try_submit(InferRequest {
                    model,
                    input,
                    arrival: i,
                    deadline: Some(i + 100),
                })
                .unwrap();
        }
        assert_eq!(engine.queued(), 6);
        let done = engine.drain_traced().completions;
        assert_eq!(engine.queued(), 0);
        let mut ids: Vec<u64> = done.iter().map(|c| c.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
        let stats = engine.stats();
        assert_eq!(stats.requests, 6);
        assert!(stats.batches <= 4, "same-model requests coalesce");
        assert!(stats.mean_batch_size() > 1.0);
    }

    #[test]
    fn second_drain_is_weight_stationary() {
        let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
        let lenet = engine.admit(catalog::lenet5_model()).unwrap();
        let input = synthetic::activations(engine.input_shape(lenet), 6, 0);
        submit_at_zero(&mut engine, lenet, input.clone());
        engine.drain_traced();
        let cold_misses = engine.stats().models[0].cache.misses;
        submit_at_zero(&mut engine, lenet, input);
        engine.drain_traced();
        let stats = engine.stats();
        assert_eq!(stats.models[0].cache.misses, cold_misses, "no recompiles");
        assert!(stats.hit_rate() > 0.0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn try_submit_returns_structured_errors() {
        let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
        let lenet = engine.admit(catalog::lenet5_model()).unwrap();
        let shape = engine.input_shape(lenet);
        let unknown = engine.try_submit(InferRequest {
            model: ModelId(7),
            input: synthetic::activations(shape, 6, 0),
            arrival: 0,
            deadline: None,
        });
        assert_eq!(unknown, Err(SubmitError::UnknownModel(ModelId(7))));
        let wrong_shape = oxbar_nn::TensorShape::new(4, 4, 1);
        let mismatch = engine.try_submit(InferRequest {
            model: lenet,
            input: synthetic::activations(wrong_shape, 6, 0),
            arrival: 0,
            deadline: None,
        });
        assert_eq!(
            mismatch,
            Err(SubmitError::ShapeMismatch {
                model: lenet,
                expected: shape,
                got: wrong_shape,
            })
        );
        assert_eq!(engine.queued(), 0, "rejected requests never queue");
    }

    #[test]
    fn out_of_order_submissions_insert_in_arrival_order() {
        let mut engine = ServeEngine::new(
            ServeConfig::new(SimConfig::ideal(64, 64)).with_policy(BatchPolicy::SINGLE),
        );
        let lenet = engine.admit(catalog::lenet5_model()).unwrap();
        // A misbehaving (or merely concurrent) client stream: ticks
        // arrive 5, 2, 9, 2 — non-monotonic and with a duplicate.
        for (i, arrival) in [5u64, 2, 9, 2].into_iter().enumerate() {
            let input = synthetic::activations(engine.input_shape(lenet), 6, i as u64);
            engine
                .try_submit(InferRequest {
                    model: lenet,
                    input,
                    arrival,
                    deadline: None,
                })
                .expect("out-of-order ticks are not an error");
        }
        let done = engine.drain_traced().completions;
        let order: Vec<(u64, u64)> = done.iter().map(|c| (c.arrival, c.id.0)).collect();
        // Queue drains in arrival order; the two tick-2 requests keep
        // their submission order (id 1 before id 3).
        assert_eq!(order, vec![(2, 1), (2, 3), (5, 0), (9, 2)]);
    }

    #[test]
    fn sequence_decodes_match_the_oracle_and_finish() {
        use oxbar_nn::transformer::{generate, OracleEngine};
        let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
        let spec = catalog::llm_tiny();
        let weights = spec.lm.clone().expect("llm_tiny is a language model");
        let llm = engine.admit(spec).unwrap();
        let seq = engine.begin_sequence(llm, 3, 8, 0, 1).unwrap();
        let trace = engine.drain_traced();
        assert!(trace.sheds.is_empty(), "no step is shed");
        let done = trace.completions;
        assert_eq!(engine.sequence_tokens(seq).len(), 8, "every step ran");

        let mut oracle = OracleEngine::new(&weights);
        let want: Vec<u32> = generate(&weights, &mut oracle, 3, 8)
            .expect("oracle is infallible")
            .into_iter()
            .map(|s| s.next_token)
            .collect();
        assert_eq!(
            engine.sequence_tokens(seq),
            &want[..],
            "ideal device == oracle"
        );

        // Every step surfaced as a Completion on the sequence, in step
        // order, with `done` exactly on the last.
        let steps: Vec<(usize, u32, bool)> = done
            .iter()
            .filter_map(|c| c.sequence.as_ref())
            .filter(|t| t.sequence == seq)
            .map(|t| (t.step, t.token, t.done))
            .collect();
        assert_eq!(steps.len(), 8);
        for (i, (step, token, last)) in steps.iter().enumerate() {
            assert_eq!(*step, i, "steps complete in order");
            assert_eq!(*token, want[i]);
            assert_eq!(*last, i == 7, "done marks exactly the final step");
        }
        let stats = engine.stats();
        assert_eq!(stats.sequences, 1);
        assert_eq!(stats.tokens, 8);
    }

    #[test]
    fn mixed_cnn_and_llm_drain_is_worker_invariant() {
        let run = |workers: usize| {
            let mut engine =
                ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)).with_workers(workers));
            let lenet = engine.admit(catalog::lenet5_model()).unwrap();
            let llm = engine.admit(catalog::llm_tiny()).unwrap();
            let a = engine.begin_sequence(llm, 1, 6, 0, 1).unwrap();
            let b = engine.begin_sequence(llm, 9, 6, 0, 1).unwrap();
            for i in 0..4u64 {
                let input = synthetic::activations(engine.input_shape(lenet), 6, i);
                engine
                    .try_submit(InferRequest {
                        model: lenet,
                        input,
                        arrival: i,
                        deadline: Some(i + 100),
                    })
                    .unwrap();
            }
            let trace = engine.drain_traced();
            // Completions arrive round by round, as `rounds` lists the
            // batches.
            let mut order: Vec<usize> = trace.completions.iter().map(|c| c.batch_seq).collect();
            order.dedup();
            assert_eq!(order, trace.rounds.concat(), "{workers} workers");
            let tokens = (
                engine.sequence_tokens(a).to_vec(),
                engine.sequence_tokens(b).to_vec(),
            );
            (trace.completions, tokens)
        };
        let (done1, tokens1) = run(1);
        let (done4, tokens4) = run(4);
        assert_eq!(tokens1, tokens4, "token streams are worker-invariant");
        assert_eq!(done1, done4, "mixed traffic is byte-identical");
        assert_eq!(
            done1.len(),
            4 + 12,
            "4 CNN requests + 2 sequences x 6 steps"
        );
    }

    #[test]
    fn finished_and_shed_sequences_free_their_kv_cache() {
        // One chip, killed mid-drain: the short sequence completes before
        // the kill, the long ones have no chip left and shed.
        let device = SimConfig::ideal(64, 64).with_threads(1);
        let config = ServeConfig::new(device)
            .with_chips(vec![600_000])
            .with_faults(FaultPlan::new().kill_chip(4, 0));
        let mut engine = ServeEngine::new(config);
        let llm = engine.admit(catalog::llm_tiny()).unwrap();
        let ids = [
            engine.begin_sequence(llm, 1, 2, 0, 1).unwrap(),
            engine.begin_sequence(llm, 5, 12, 0, 1).unwrap(),
            engine.begin_sequence(llm, 9, 12, 0, 1).unwrap(),
        ];
        let mut shed: Vec<SequenceId> = engine
            .drain_traced()
            .sheds
            .iter()
            .filter_map(|notice| notice.sequence)
            .collect();
        shed.sort_unstable();
        assert_eq!(shed, ids[1..], "the long sequences shed");
        assert_eq!(
            engine.sequence_tokens(ids[0]).len(),
            2,
            "completes before the kill"
        );
        assert!(ids[1..]
            .iter()
            .all(|&id| !engine.sequence_tokens(id).is_empty()));
        for (i, sequence) in engine.sequences.iter().enumerate() {
            let rows: usize = sequence
                .cache
                .blocks
                .iter()
                .map(|b| b.k.len() + b.v.len())
                .sum();
            assert_eq!(rows, 0, "sequence {i} still holds KV cache rows");
        }
    }

    #[test]
    fn begin_sequence_rejects_structured() {
        let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
        let lenet = engine.admit(catalog::lenet5_model()).unwrap();
        let llm = engine.admit(catalog::llm_tiny()).unwrap();
        assert_eq!(
            engine.begin_sequence(ModelId(9), 0, 4, 0, 1),
            Err(SubmitError::UnknownModel(ModelId(9)))
        );
        assert_eq!(
            engine.begin_sequence(lenet, 0, 4, 0, 1),
            Err(SubmitError::NotLanguageModel(lenet))
        );
        assert_eq!(
            engine.begin_sequence(llm, 0, 0, 0, 1),
            Err(SubmitError::BadSteps {
                steps: 0,
                max: MAX_SEQUENCE_STEPS
            })
        );
        assert_eq!(
            engine.begin_sequence(llm, 77, 4, 0, 1),
            Err(SubmitError::BadToken {
                model: llm,
                token: 77,
                vocab: 32
            })
        );
        assert_eq!(engine.queued(), 0, "rejected sequences never queue");
    }
}
