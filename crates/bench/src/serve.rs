//! `serve` perf snapshot: batched weight-stationary serving vs
//! one-request-at-a-time cold execution on the *same* request trace,
//! emitted as machine-readable `BENCH_serve.json` at the workspace root.
//!
//! Every case replays one deterministic open-loop trace over the stock
//! serving catalog through a differently configured [`ServeEngine`]; the
//! headline compares the batched engine (weight-stationary tile caches,
//! same-model coalescing) against the cold baseline (single-request
//! dispatch, zero cache budget — every request reprograms its PCM tiles
//! and recompiles its transfer matrices). A second pair of cases pins the
//! cache-thrash scenario: a budget that holds only some of the catalog,
//! served interleaved vs batched.
//!
//! Latencies come from [`replay_latencies`]: the engine measures each
//! batch's wall time, and the queueing timeline is replayed with the
//! trace's arrival ticks mapped to milliseconds so that the offered load
//! is ~80% of the case's own saturated throughput.
//!
//! The report also carries each catalog model's *analytic* throughput
//! ceiling from the paper's system model ([`oxbar_core::Chip`]), so the
//! measured simulator-level numbers sit next to the modeled
//! hardware-level IPS in one artifact.

use oxbar_core::{Chip, ChipConfig};
use oxbar_nn::reference::Tensor3;
use oxbar_serve::loadgen::{replay_latencies, MixEntry, OpenLoop};
use oxbar_serve::protocol::{Client, ClientFrame, ServerFrame};
use oxbar_serve::request::request_seed;
use oxbar_serve::{
    catalog, BatchPolicy, ChipStats, FaultPlan, InferRequest, LatencySummary, ModelId,
    PlacementPolicy, RequestId, ServeConfig, ServeEngine, Server, ServerConfig,
};
use oxbar_sim::SimConfig;
use serde::Serialize;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::Duration;

/// The headline speedup target (from the issue's acceptance criteria).
pub const TARGET_SPEEDUP: f64 = 5.0;

/// Offered load for latency replay, as a fraction of the case's own
/// saturated throughput.
const REPLAY_LOAD: f64 = 0.8;

/// One admitted model's static facts.
#[derive(Debug, Clone, Serialize)]
pub struct ModelReport {
    /// Model name (from the stock catalog).
    pub name: String,
    /// Weight-stationary tile footprint, in crossbar cells.
    pub footprint_cells: usize,
    /// Analytic inferences/s for this network on the paper's optimal
    /// chip configuration (`oxbar_core::Chip`), for context against the
    /// measured serving numbers.
    pub analytic_ips: f64,
}

/// One serving configuration replayed over the shared trace.
#[derive(Debug, Clone, Serialize)]
pub struct CaseResult {
    /// Case name.
    pub name: String,
    /// Requests in the trace.
    pub requests: usize,
    /// Batch-size cap of the policy.
    pub max_batch: usize,
    /// Coalescing window of the policy, in ticks.
    pub max_wait: u64,
    /// Global weight-stationary budget, in cells (summed over chips on a
    /// multi-chip cluster).
    pub budget_cells: usize,
    /// Per-chip cell budgets of the serving cluster; a single entry is
    /// the classic one-chip engine.
    pub chip_budgets: Vec<usize>,
    /// Whether every model was programmed before the drain
    /// ([`oxbar_serve::Cluster::prewarm`], a deployment step) instead of
    /// by the first batch that reads it.
    pub prewarm: bool,
    /// Summed batch *execution* time of the drain (ms) — what the
    /// dispatch pipeline spends serving requests, including the PCM
    /// programming of every tile a batch is the first to read. A
    /// prewarmed case programmed its models before the drain, off this
    /// path and off `elapsed_ms`.
    pub wall_ms: f64,
    /// End-to-end drain time (ms), including scheduler overhead.
    pub elapsed_ms: f64,
    /// Saturated throughput: `requests / wall_ms`, in requests/s.
    pub throughput_rps: f64,
    /// Median request latency at 80% offered load (ms).
    pub p50_ms: f64,
    /// 99th-percentile request latency at 80% offered load (ms).
    pub p99_ms: f64,
    /// 99th-percentile latency over each model's *first* batch — the
    /// cold-start tail that programming ahead of traffic removes.
    pub p99_cold_start_ms: f64,
    /// Mean request latency at 80% offered load (ms).
    pub mean_ms: f64,
    /// Deadline misses during the replay.
    pub deadline_misses: usize,
    /// Tile-cache hit rate across all models.
    pub hit_rate: f64,
    /// Whole-model cache evictions forced by the budget.
    pub evictions: u64,
    /// Cross-chip migrations an over-budget chip made instead of evicting
    /// (always 0 on a single chip).
    pub migrations: u64,
    /// Tiles programmed + compiled before the drain.
    pub prewarmed_tiles: u64,
    /// Mean requests per dispatched batch.
    pub mean_batch_size: f64,
    /// `cold wall_ms / this wall_ms`; `null` for the cold baseline
    /// itself.
    pub speedup_vs_cold: Option<f64>,
    /// Per-chip occupancy / eviction / migration / hit breakdown, in
    /// chip-index order.
    pub per_chip: Vec<ChipStats>,
}

/// The closed-loop loopback section: the network front end driven over
/// real sockets by concurrent client threads, cross-checked for byte
/// identity against the in-process engine on the same trace.
#[derive(Debug, Clone, Serialize)]
pub struct ClosedLoopReport {
    /// Concurrent client connections (each its own socket + thread).
    pub connections: usize,
    /// Requests each connection served, one at a time (closed loop).
    pub waves: usize,
    /// Total requests over the wire (`connections × waves`).
    pub requests: usize,
    /// Whether every wire response matched the in-process engine fed the
    /// same trace, byte for byte. Anything but `true` is a correctness
    /// failure, not a perf regression.
    pub byte_identical: bool,
    /// End-to-end wall time of the client run (connect → last Bye), ms.
    pub wall_ms: f64,
    /// Median per-request latency measured at the clients (socket
    /// round-trip including batching delay), ms.
    pub wire_p50_ms: f64,
    /// 99th-percentile client-measured latency, ms.
    pub wire_p99_ms: f64,
    /// Mean client-measured latency, ms.
    pub wire_mean_ms: f64,
    /// Median latency from the round-aware queueing replay of the same
    /// trace (the engine-level figure, free of socket noise), ms.
    pub replay_p50_ms: f64,
    /// 99th-percentile round-aware replay latency, ms.
    pub replay_p99_ms: f64,
    /// Mean round-aware replay latency, ms.
    pub replay_mean_ms: f64,
}

/// One fault-injected replay of the shared trace: a chip killed at a
/// fixed dispatch sequence number, everything the failure surface must
/// account for.
#[derive(Debug, Clone, Serialize)]
pub struct FaultCase {
    /// Requests that completed with an answer.
    pub completions: usize,
    /// Requests shed with a structured notice (deadline unreachable or
    /// no healthy chip).
    pub shed: u64,
    /// Requests that vanished without a completion *or* a shed notice.
    /// Anything but 0 is a correctness failure.
    pub lost: u64,
    /// Fault-charged retries (batches re-routed off the killed chip).
    pub retried: u64,
    /// Recoveries of unreplicated models: each moved its programmed
    /// tiles off the killed chip onto the survivor.
    pub recoveries: u64,
    /// 99th-percentile request latency at the no-fault case's offered
    /// load (ms) — directly comparable to `no_fault_p99_ms`.
    pub p99_ms: f64,
    /// Whether every surviving request answered byte-identically to the
    /// never-faulted cluster. Anything but `true` is a correctness
    /// failure.
    pub survivors_byte_identical: bool,
    /// Per-chip health / retry / shed breakdown after the run.
    pub per_chip: Vec<ChipStats>,
}

/// The fault-injection section: the shared trace replayed on a two-chip
/// cluster with chip 1 killed mid-trace, replicated vs unreplicated,
/// against the no-fault baseline.
#[derive(Debug, Clone, Serialize)]
pub struct FaultInjectionReport {
    /// Requests in the trace.
    pub requests: usize,
    /// Global batch dispatch sequence number the kill lands on
    /// (mid-trace: half the no-fault run's batch count).
    pub kill_seq: u64,
    /// 99th-percentile latency of the same trace with no fault (ms).
    pub no_fault_p99_ms: f64,
    /// `Replicated(2)`: the kill fails over to live replicas.
    pub replicated: FaultCase,
    /// `LeastLoaded` single residency: the kill forces recovery onto
    /// the survivor.
    pub unreplicated: FaultCase,
    /// `replicated.p99_ms / no_fault_p99_ms` — the degradation budget
    /// (acceptance: ≤ 2.0).
    pub p99_ratio_replicated_vs_no_fault: f64,
}

/// One comparison window of the drift section: a contiguous span of the
/// trace graded element-wise against the drift-free reference run.
#[derive(Debug, Clone, Serialize)]
pub struct DriftWindow {
    /// Requests in the window.
    pub requests: usize,
    /// Output elements compared.
    pub elements: usize,
    /// Worst absolute output deviation from the reference.
    pub max_abs_delta: i64,
    /// Fraction of output elements that differ from the reference.
    pub error_rate: f64,
}

/// The drift/self-healing section: a long multi-drain trace on a device
/// whose PCM tiles age one virtual tick per dispatched batch, replayed
/// with online recalibration on and off, graded against the same trace
/// with drift disabled.
#[derive(Debug, Clone, Serialize)]
pub struct DriftRecalReport {
    /// Requests in the trace.
    pub requests: usize,
    /// Drains the trace was split into (aging advances at drain
    /// boundaries).
    pub waves: usize,
    /// Wall-clock seconds one virtual tick represents.
    pub drift_tick_seconds: f64,
    /// The analytic accuracy budget: ticks until the worst-case level
    /// slips half an LSB.
    pub budget_ticks: u64,
    /// Budget breaches the health monitor flagged on the recalibrating
    /// run.
    pub breaches: u64,
    /// Recalibration passes the scheduler ran (one per chip per drain
    /// that marked tiles).
    pub recalibrations: u64,
    /// Tiles those passes marked; each re-derives at fresh-program state
    /// at its next read.
    pub recalibrated_tiles: u64,
    /// Requests that vanished without a completion or a shed notice on
    /// the recalibrating run. Anything but 0 is a correctness failure.
    pub lost: u64,
    /// Degraded→Healthy transitions on the recalibrating run: the chip
    /// degrades on breach and heals once recalibration clears the
    /// backlog. Zero is a correctness failure. (Final-instant health is
    /// phase-dependent — tile cohorts re-cross the budget on a rotating
    /// schedule — so the section grades the transition count, not the
    /// end state.)
    pub heals: u64,
    /// Whether the non-recalibrating run ended the trace `Degraded`
    /// (without recalibration a breach can never heal).
    pub unhealed_degraded: bool,
    /// The in-budget run-up band `[n/8, n/2)`: past the pristine head
    /// (whose near-zero tile ages would understate the error rate every
    /// in-budget engine actually runs at — analog readout perturbs most
    /// output elements by ±1 code even one tick after programming) and
    /// spanning the age ramp up to the first breach. This is the
    /// "fresh-program level" the late window is graded against.
    pub fresh_window: DriftWindow,
    /// The recalibrating run's last trace quarter.
    pub recal_late_window: DriftWindow,
    /// The non-recalibrating run's last trace quarter.
    pub norecal_late_window: DriftWindow,
    /// Whether the late-window max|Δ| and error rate returned to the
    /// fresh-program level (recalibration bounds every tile's age by
    /// the budget, so the late window samples the same in-budget age
    /// range as the fresh band) *and* beat the unhealed run. The
    /// fresh-level comparison carries a small tolerance (10% on max|Δ|,
    /// +0.01 on error rate) because two windows of different request
    /// mixes jitter by a few ±1-code elements — an order of magnitude
    /// below the unhealed run's drift.
    pub accuracy_recovered: bool,
    /// p99 request latency with recalibration on (ms), at the shared
    /// offered load.
    pub p99_with_recal_ms: f64,
    /// p99 request latency with recalibration off (ms).
    pub p99_without_recal_ms: f64,
    /// `p99_with_recal_ms / p99_without_recal_ms` — the cost of
    /// self-healing (acceptance: ≤ 2.0; a marked tile re-derives once,
    /// inside the first batch that reads it).
    pub p99_ratio_recal_vs_no_recal: f64,
}

/// The autoregressive transformer section: token-by-token sequences
/// against the tiny decoder (`catalog::llm_tiny`) served through the
/// same scheduler, tile cache, and batcher as the CNN traffic. The
/// dense stack (QKV/output/FFN projections + LM head) is
/// weight-stationary; the per-token attention matmuls run on the
/// uncached dynamic MVM path.
#[derive(Debug, Clone, Serialize)]
pub struct LlmReport {
    /// Sequences decoded in the steady-state measurement (a separate
    /// cold sequence feeds the first-token figure).
    pub sequences: usize,
    /// Decode steps per sequence.
    pub steps: usize,
    /// Tokens decoded across the steady-state sequences.
    pub tokens: u64,
    /// Steady-state decode throughput on the warm engine, tokens/s.
    pub tokens_per_sec: f64,
    /// Wall time of the cold first-token batch (pays PCM tile
    /// programming and transfer-matrix compilation — nothing is
    /// prewarmed, on purpose, so the cost is visible), ms.
    pub first_token_ms: f64,
    /// Mean wall time of a steady-state token batch, ms.
    pub steady_token_ms: f64,
    /// Tile-cache hit rate of the dense stack after warmup — the
    /// weight-stationary claim for autoregressive serving (≈ 1.0: the
    /// dynamic attention passes never touch the cache).
    pub steady_hit_rate: f64,
    /// p99 CNN request latency in the mixed CNN + LLM replay, ms.
    pub mixed_cnn_p99_ms: f64,
    /// Whether the mixed CNN + LLM drain — completions *and* token
    /// streams — was byte-identical between 1 and 4 dispatch workers.
    /// Anything but `true` is a correctness failure.
    pub byte_identical: bool,
    /// Tokens emitted == sequences × steps everywhere, nothing lost or
    /// duplicated. Anything but `true` is a correctness failure.
    pub token_conservation: bool,
}

/// The full machine-readable snapshot (`BENCH_serve.json`).
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Snapshot identifier (`"serve"`).
    pub bench: String,
    /// `"quick"` (CI smoke) or `"full"`.
    pub mode: String,
    /// Time unit of the per-case numbers (`"ms"`).
    pub unit: String,
    /// The headline speedup target.
    pub target_speedup: f64,
    /// Whether the batched case met the target against the cold baseline;
    /// `null` in quick mode (the smoke trace is too short to amortize the
    /// first-compile cost, so only the full trace is graded).
    pub achieved: Option<bool>,
    /// Heap allocations of one warm serving round (a 4-request
    /// same-model batch through a fully resident engine), measured by the
    /// binary's counting global allocator; `null` when no counting
    /// allocator is installed (library tests).
    pub warm_round_allocations: Option<u64>,
    /// The admitted catalog, in admission order.
    pub models: Vec<ModelReport>,
    /// Per-configuration results; cold baseline first, headline second.
    pub cases: Vec<CaseResult>,
    /// The network front end driven over loopback sockets.
    pub closed_loop: ClosedLoopReport,
    /// Mid-trace chip-kill behavior: failover, recovery, shedding.
    pub fault_injection: FaultInjectionReport,
    /// Tile aging, budget-driven degradation, and online recalibration.
    pub drift_recal: DriftRecalReport,
    /// Autoregressive token serving against the tiny transformer.
    pub llm: LlmReport,
}

/// The shared trace: a weighted open-loop mix over the whole catalog.
fn workload(requests: usize) -> OpenLoop {
    OpenLoop {
        mix: vec![
            MixEntry {
                model: oxbar_serve::ModelId(0),
                weight: 3,
            },
            MixEntry {
                model: oxbar_serve::ModelId(1),
                weight: 2,
            },
            MixEntry {
                model: oxbar_serve::ModelId(2),
                weight: 2,
            },
            MixEntry {
                model: oxbar_serve::ModelId(3),
                weight: 3,
            },
        ],
        requests,
        interarrival: 1,
        seed: 2023,
        deadline_slack: Some(100),
    }
}

/// Builds an engine over the stock catalog on one chip per entry of
/// `chips`, with those cell budgets (least-loaded placement, so the
/// catalog spreads over several).
fn engine_with(policy: BatchPolicy, chips: &[usize]) -> ServeEngine {
    let device = SimConfig::noisy(128, 128).with_threads(1);
    let mut engine = ServeEngine::new(
        ServeConfig::new(device)
            .with_policy(policy)
            .with_workers(1)
            .with_chips(chips.to_vec())
            .with_placement(PlacementPolicy::LeastLoaded),
    );
    for spec in catalog::stock_catalog() {
        engine.admit(spec).expect("catalog models admit");
    }
    engine
}

/// Replays the shared trace through one engine configuration; with
/// `prewarm`, every model is programmed before the timed drain.
fn run_case(
    name: &str,
    requests: usize,
    policy: BatchPolicy,
    chips: &[usize],
    prewarm: bool,
) -> CaseResult {
    let mut engine = engine_with(policy, chips);
    if prewarm {
        for m in 0..engine.registry().len() {
            engine.registry().prewarm(ModelId(m));
        }
    }
    let load = workload(requests);
    for request in load.trace(|m| engine.input_shape(m)) {
        engine.try_submit(request).expect("valid request");
    }
    let drain_start = std::time::Instant::now();
    let trace = engine.drain_traced();
    let elapsed_ms = drain_start.elapsed().as_secs_f64() * 1e3;
    let (completions, batch_ms) = (trace.completions, trace.batch_ms);
    let wall_ms: f64 = batch_ms.iter().sum();
    let throughput_rps = requests as f64 / (wall_ms / 1e3);
    // Replay the queueing timeline at 80% of this case's saturation,
    // using the dispatch rounds the drain actually ran (round-aware
    // replay: concurrent batches within a round overlap).
    let tick_ms = wall_ms / requests as f64 / REPLAY_LOAD;
    let (latencies, deadline_misses) =
        replay_latencies(&completions, &batch_ms, &trace.rounds, tick_ms);
    let summary = LatencySummary::of(&latencies);
    // Cold-start tail: latencies of the requests in each model's first
    // dispatched batch.
    let mut first_batch_of_model: Vec<Option<usize>> = vec![None; engine.registry().len()];
    for c in &completions {
        let slot = &mut first_batch_of_model[c.model.0];
        *slot = Some(slot.map_or(c.batch_seq, |s| s.min(c.batch_seq)));
    }
    let cold_start: Vec<f64> = completions
        .iter()
        .zip(&latencies)
        .filter(|(c, _)| first_batch_of_model[c.model.0] == Some(c.batch_seq))
        .map(|(_, &l)| l)
        .collect();
    let cold_summary = LatencySummary::of(&cold_start);
    let stats = engine.stats();
    CaseResult {
        name: name.to_string(),
        requests,
        max_batch: policy.max_batch,
        max_wait: policy.max_wait,
        budget_cells: stats.budget_cells,
        chip_budgets: engine.config().chip_budgets.clone(),
        prewarm,
        wall_ms,
        elapsed_ms,
        throughput_rps,
        p50_ms: summary.p50_ms,
        p99_ms: summary.p99_ms,
        p99_cold_start_ms: cold_summary.p99_ms,
        mean_ms: summary.mean_ms,
        deadline_misses,
        hit_rate: stats.hit_rate(),
        evictions: stats.evictions,
        migrations: stats.migrations,
        prewarmed_tiles: stats.prewarmed_tiles,
        mean_batch_size: stats.mean_batch_size(),
        speedup_vs_cold: None,
        per_chip: stats.chips,
    }
}

/// Connections the closed-loop loopback run drives concurrently.
const CLOSED_LOOP_CONNECTIONS: usize = 8;

/// The closed-loop trace entry for connection `c`, wave `w`: a model
/// from the stock catalog and the seed of its synthetic input. Pure
/// function, so the wire run and the in-process oracle replay the exact
/// same trace.
fn closed_loop_entry(c: usize, w: usize, waves: usize) -> (usize, u64) {
    let model = (c + w) % 4;
    let seed = request_seed(0xC105ED, (c * waves + w) as u64);
    (model, seed)
}

/// Drives the network front end over loopback: 8 concurrent connections
/// in closed loop (each submits its next request only when the previous
/// completed), then cross-checks every response byte-for-byte against
/// the in-process engine fed the same trace, and recovers engine-level
/// p50/p99 from the round-aware replay.
fn run_closed_loop(quick: bool) -> ClosedLoopReport {
    let waves = if quick { 3 } else { 10 };
    let connections = CLOSED_LOOP_CONNECTIONS;
    let requests = connections * waves;
    let engine = engine_with(BatchPolicy::new(16, 8), &[4_000_000]);
    let shapes: Vec<oxbar_nn::TensorShape> =
        (0..4).map(|i| engine.input_shape(ModelId(i))).collect();
    let server = Server::start(engine, ServerConfig::default()).expect("server binds loopback");
    let addr = server.addr();

    let run_start = std::time::Instant::now();
    let handles: Vec<std::thread::JoinHandle<Vec<(f64, oxbar_nn::reference::Tensor3)>>> = (0
        ..connections)
        .map(|c| {
            let shapes = shapes.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("loopback connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("read timeout");
                let mut client = Client::connect(stream).expect("handshake");
                (0..waves)
                    .map(|w| {
                        let (model, seed) = closed_loop_entry(c, w, waves);
                        let input = oxbar_nn::synthetic::activations(shapes[model], 6, seed);
                        let sent = std::time::Instant::now();
                        client
                            .send(&ClientFrame::Infer {
                                tag: w as u64,
                                model,
                                arrival: w as u64,
                                deadline: None,
                                input,
                            })
                            .expect("send over loopback");
                        match client.wait_completion(w as u64).expect("completion") {
                            ServerFrame::Completion { output, .. } => {
                                (sent.elapsed().as_secs_f64() * 1e3, output)
                            }
                            other => panic!("closed loop expected a completion, got {other:?}"),
                        }
                    })
                    .collect()
            })
        })
        .collect();
    let mut served: Vec<Vec<(f64, oxbar_nn::reference::Tensor3)>> = Vec::new();
    for handle in handles {
        served.push(handle.join().expect("client thread"));
    }
    let wall_ms = run_start.elapsed().as_secs_f64() * 1e3;
    server.shutdown();

    // In-process oracle on the identical trace. RequestId counts
    // submission order, so sorting completions by id maps completion
    // `c * waves + w` back to connection `c`, wave `w`.
    let mut oracle = engine_with(BatchPolicy::new(16, 8), &[4_000_000]);
    for c in 0..connections {
        for w in 0..waves {
            let (model, seed) = closed_loop_entry(c, w, waves);
            oracle
                .try_submit(InferRequest {
                    model: ModelId(model),
                    input: oxbar_nn::synthetic::activations(shapes[model], 6, seed),
                    arrival: w as u64,
                    deadline: None,
                })
                .expect("oracle submits");
        }
    }
    let trace = oracle.drain_traced();
    let mut by_id = trace.completions.clone();
    by_id.sort_by_key(|d| d.id);
    let byte_identical = served.iter().enumerate().all(|(c, outputs)| {
        outputs
            .iter()
            .enumerate()
            .all(|(w, (_, output))| by_id[c * waves + w].output == *output)
    });

    let wire: Vec<f64> = served.iter().flatten().map(|(ms, _)| *ms).collect();
    let wire_summary = LatencySummary::of(&wire);
    let engine_wall: f64 = trace.batch_ms.iter().sum();
    let tick_ms = engine_wall / requests as f64 / REPLAY_LOAD;
    let (replay, _) = replay_latencies(&trace.completions, &trace.batch_ms, &trace.rounds, tick_ms);
    let replay_summary = LatencySummary::of(&replay);
    ClosedLoopReport {
        connections,
        waves,
        requests,
        byte_identical,
        wall_ms,
        wire_p50_ms: wire_summary.p50_ms,
        wire_p99_ms: wire_summary.p99_ms,
        wire_mean_ms: wire_summary.mean_ms,
        replay_p50_ms: replay_summary.p50_ms,
        replay_p99_ms: replay_summary.p99_ms,
        replay_mean_ms: replay_summary.mean_ms,
    }
}

/// What one fault-section replay produced.
struct FaultRun {
    /// Request id → output values, survivors only.
    outputs: BTreeMap<RequestId, Vec<i64>>,
    sheds: u64,
    p99_ms: f64,
    tick_ms: f64,
    stats: oxbar_serve::EngineStats,
}

/// Replays the shared trace on a two-chip cluster under `placement` and
/// `plan`, **in-process** (batch sequence numbers — and therefore the
/// kill point — must not depend on socket coalescing timing). `tick_ms`
/// pins the replay's offered load to the no-fault baseline's so the p99
/// figures are comparable; `None` derives it from this run's own wall.
fn run_fault_trace(
    requests: usize,
    placement: PlacementPolicy,
    plan: FaultPlan,
    tick_ms: Option<f64>,
) -> FaultRun {
    let device = SimConfig::noisy(128, 128).with_threads(1);
    let mut engine = ServeEngine::new(
        ServeConfig::new(device)
            .with_policy(BatchPolicy::new(16, 8))
            .with_workers(1)
            .with_chips(vec![4_000_000, 4_000_000])
            .with_placement(placement)
            .with_faults(plan),
    );
    for spec in catalog::stock_catalog() {
        engine.admit(spec).expect("catalog models admit");
    }
    for request in workload(requests).trace(|m| engine.input_shape(m)) {
        engine.try_submit(request).expect("valid request");
    }
    let trace = engine.drain_traced();
    let wall_ms: f64 = trace.batch_ms.iter().sum();
    let tick_ms = tick_ms.unwrap_or(wall_ms / requests as f64 / REPLAY_LOAD);
    let (latencies, _) =
        replay_latencies(&trace.completions, &trace.batch_ms, &trace.rounds, tick_ms);
    FaultRun {
        outputs: trace
            .completions
            .iter()
            .map(|c| (c.id, c.output.data().to_vec()))
            .collect(),
        sheds: trace.sheds.len() as u64,
        p99_ms: LatencySummary::of(&latencies).p99_ms,
        tick_ms,
        stats: engine.stats(),
    }
}

/// The fault-injection section: chip 1 killed halfway through the
/// no-fault run's dispatch sequence, once with every model replicated on
/// both chips (failover) and once with single residency (recovery),
/// graded against the no-fault baseline.
fn run_fault_injection(requests: usize) -> FaultInjectionReport {
    let baseline = run_fault_trace(
        requests,
        PlacementPolicy::Replicated(2),
        FaultPlan::new(),
        None,
    );
    let kill_seq = baseline.stats.batches / 2;
    let grade = |run: FaultRun| -> FaultCase {
        // Byte identity against the no-fault cluster: admission seeds
        // are global, so placement never changes what a model answers.
        let survivors_byte_identical = run
            .outputs
            .iter()
            .all(|(id, out)| baseline.outputs.get(id) == Some(out));
        FaultCase {
            completions: run.outputs.len(),
            shed: run.sheds,
            lost: (requests as u64).saturating_sub(run.outputs.len() as u64 + run.sheds),
            retried: run.stats.retries,
            recoveries: run.stats.recoveries,
            p99_ms: run.p99_ms,
            survivors_byte_identical,
            per_chip: run.stats.chips,
        }
    };
    let replicated = grade(run_fault_trace(
        requests,
        PlacementPolicy::Replicated(2),
        FaultPlan::new().kill_chip(kill_seq, 1),
        Some(baseline.tick_ms),
    ));
    let unreplicated = grade(run_fault_trace(
        requests,
        PlacementPolicy::LeastLoaded,
        FaultPlan::new().kill_chip(kill_seq, 1),
        Some(baseline.tick_ms),
    ));
    FaultInjectionReport {
        requests,
        kill_seq,
        no_fault_p99_ms: baseline.p99_ms,
        p99_ratio_replicated_vs_no_fault: replicated.p99_ms / baseline.p99_ms,
        replicated,
        unreplicated,
    }
}

/// One virtual tick of the drift section, in wall-clock seconds. At
/// this rate the noisy 128×128 device's half-LSB budget is 43 ticks —
/// large enough that the per-drain recalibration cap keeps up with the
/// whole catalog's aging (the steady state is sustainable), small
/// enough that the drift trace crosses it.
const DRIFT_TICK_SECONDS: f64 = 1e3;

/// What one drift-section replay produced.
struct DriftTraceRun {
    /// Request id → output values.
    outputs: BTreeMap<RequestId, Vec<i64>>,
    sheds: u64,
    p99_ms: f64,
    tick_ms: f64,
    stats: oxbar_serve::EngineStats,
    /// Final health of the single serving chip.
    health: oxbar_serve::ChipHealth,
}

/// Replays the shared trace in `waves` drains (tile age advances at
/// drain boundaries, so one long drain would never age anything
/// mid-trace). `aging` turns the per-tick drift clock on; `recal` the
/// scheduler's recalibration stage. `tick_ms` pins the replay's offered
/// load (see [`run_fault_trace`]).
fn run_drift_trace(
    requests: usize,
    waves: usize,
    aging: bool,
    recal: bool,
    tick_ms: Option<f64>,
) -> DriftTraceRun {
    let mut device = SimConfig::noisy(128, 128).with_threads(1);
    if aging {
        device = device.with_drift_tick(oxbar_units::Time::from_seconds(DRIFT_TICK_SECONDS));
    }
    let mut engine = ServeEngine::new(
        ServeConfig::new(device)
            .with_policy(BatchPolicy::new(16, 8))
            .with_cache_budget(4_000_000)
            .with_workers(1)
            .with_recalibration(recal),
    );
    for spec in catalog::stock_catalog() {
        engine.admit(spec).expect("catalog models admit");
    }
    let all: Vec<InferRequest> = workload(requests).trace(|m| engine.input_shape(m));
    let per_wave = requests.div_ceil(waves);
    let mut traces = Vec::new();
    for chunk in all.chunks(per_wave) {
        for request in chunk {
            engine.try_submit(request.clone()).expect("valid request");
        }
        traces.push(engine.drain_traced());
    }
    let wall_ms: f64 = traces.iter().flat_map(|t| &t.batch_ms).sum();
    let tick_ms = tick_ms.unwrap_or(wall_ms / requests as f64 / REPLAY_LOAD);
    let mut outputs = BTreeMap::new();
    let mut sheds = 0u64;
    let mut latencies = Vec::new();
    for trace in &traces {
        let (wave_latencies, _) =
            replay_latencies(&trace.completions, &trace.batch_ms, &trace.rounds, tick_ms);
        latencies.extend(wave_latencies);
        sheds += trace.sheds.len() as u64;
        for c in &trace.completions {
            outputs.insert(c.id, c.output.data().to_vec());
        }
    }
    let stats = engine.stats();
    let health = stats.chips[0].health;
    DriftTraceRun {
        outputs,
        sheds,
        p99_ms: LatencySummary::of(&latencies).p99_ms,
        tick_ms,
        stats,
        health,
    }
}

/// Grades one span of request ids `[lo, hi)` against the drift-free
/// reference outputs.
fn drift_window(run: &DriftTraceRun, reference: &DriftTraceRun, lo: u64, hi: u64) -> DriftWindow {
    let mut requests = 0usize;
    let mut elements = 0usize;
    let mut mismatches = 0usize;
    let mut max_delta = 0i64;
    for (id, outputs) in &run.outputs {
        if id.0 < lo || id.0 >= hi {
            continue;
        }
        let Some(baseline) = reference.outputs.get(id) else {
            continue;
        };
        requests += 1;
        elements += baseline.len();
        for (a, b) in outputs.iter().zip(baseline) {
            if a != b {
                mismatches += 1;
                max_delta = max_delta.max((a - b).abs());
            }
        }
    }
    DriftWindow {
        requests,
        elements,
        max_abs_delta: max_delta,
        error_rate: mismatches as f64 / elements.max(1) as f64,
    }
}

/// The drift section: a long trace split into enough drains to walk
/// tile ages well past the accuracy budget, with recalibration on and
/// off, graded against the identical trace with drift disabled. The
/// trace is longer than the shared one on purpose: the budget is 43
/// ticks and ages advance roughly 1.7 ticks per two-request drain, so
/// the first trace half must span the whole `0..=budget` age ramp and
/// the tail must sit in the recalibrated steady state.
fn run_drift_recal(quick: bool) -> DriftRecalReport {
    let requests = if quick { 96 } else { 192 };
    let waves = requests / 2;
    let budget_ticks = oxbar_sim::DeviceExecutor::new(
        SimConfig::noisy(128, 128)
            .with_threads(1)
            .with_drift_tick(oxbar_units::Time::from_seconds(DRIFT_TICK_SECONDS)),
    )
    .drift_budget_ticks()
    .expect("aging device has a bounded budget");
    // The drift-free reference: same trace, same engine, drift off. Its
    // outputs are the accuracy yardstick and its own wall pins the
    // offered load for both aged runs.
    let reference = run_drift_trace(requests, waves, false, true, None);
    let recal = run_drift_trace(requests, waves, true, true, Some(reference.tick_ms));
    let norecal = run_drift_trace(requests, waves, true, false, Some(reference.tick_ms));

    let n = requests as u64;
    let quarter = n / 4;
    // Fresh window: the in-budget run-up band — after the pristine
    // first eighth (tiles near age 0, unrepresentatively low error
    // rate) and through the age ramp toward the first breach. Late
    // window: the last quarter, deep in the recalibrated steady state
    // where no tile ever *serves* past the budget. Recalibration bounds
    // the late window to the same age range the fresh band walked, so
    // its divergence from the drift-free reference must not exceed the
    // fresh band's — and must not exceed the unhealed engine's, whose
    // tile ages grow without bound.
    let fresh_window = drift_window(&recal, &reference, n / 8, n / 2);
    let recal_late_window = drift_window(&recal, &reference, n - quarter, n);
    let norecal_late_window = drift_window(&norecal, &reference, n - quarter, n);
    let max_f64 = |w: &DriftWindow| w.max_abs_delta as f64;
    let accuracy_recovered = max_f64(&recal_late_window) <= max_f64(&fresh_window) * 1.1
        && recal_late_window.error_rate <= fresh_window.error_rate + 0.01
        && recal_late_window.error_rate < norecal_late_window.error_rate;
    DriftRecalReport {
        requests,
        waves,
        drift_tick_seconds: DRIFT_TICK_SECONDS,
        budget_ticks,
        breaches: recal.stats.drift_budget_breaches,
        recalibrations: recal.stats.recalibrations,
        recalibrated_tiles: recal.stats.recalibrated_tiles,
        lost: n.saturating_sub(recal.outputs.len() as u64 + recal.sheds),
        heals: recal.stats.drift_heals,
        unhealed_degraded: norecal.health == oxbar_serve::ChipHealth::Degraded,
        fresh_window,
        recal_late_window,
        norecal_late_window,
        accuracy_recovered,
        p99_with_recal_ms: recal.p99_ms,
        p99_without_recal_ms: norecal.p99_ms,
        p99_ratio_recal_vs_no_recal: recal.p99_ms / norecal.p99_ms,
    }
}

/// The LLM section. Three measurements:
///
/// 1. **Cold first token vs steady tokens** — a fresh engine decodes
///    one sequence; the step-0 batch pays PCM programming and
///    compilation, every later step reuses the resident tiles.
/// 2. **Steady-state throughput + hit rate** — the now-warm engine
///    decodes `sequences` more; the dense stack's cache-stat delta over
///    exactly this phase gives the post-warmup hit rate.
/// 3. **Mixed CNN + LLM** — two sequences interleaved with LeNet batch
///    traffic, replayed at 1 and 4 workers for byte identity, with the
///    CNN p99 measured from the round-aware queueing replay.
fn run_llm(quick: bool) -> LlmReport {
    let steps = if quick { 8 } else { 32 };
    let sequences = 4usize;
    let config = ServeConfig::new(SimConfig::noisy(128, 128).with_threads(1))
        .with_policy(BatchPolicy::new(16, 8))
        .with_cache_budget(4_000_000)
        .with_workers(1);

    // Phase 1: cold sequence on a fresh engine.
    let mut engine = ServeEngine::new(config.clone());
    let llm = engine.admit(catalog::llm_tiny()).expect("llm_tiny admits");
    engine
        .begin_sequence(llm, 5, steps, 0, 1)
        .expect("cold sequence begins");
    let cold_trace = engine.drain_traced();
    let mut first_token_ms = 0.0;
    let mut steady_batches = Vec::new();
    for c in &cold_trace.completions {
        let Some(tc) = &c.sequence else { continue };
        if tc.step == 0 {
            first_token_ms = cold_trace.batch_ms[c.batch_seq];
        } else {
            steady_batches.push(cold_trace.batch_ms[c.batch_seq]);
        }
    }
    let steady_token_ms = if steady_batches.is_empty() {
        0.0
    } else {
        steady_batches.iter().sum::<f64>() / steady_batches.len() as f64
    };
    let warm = engine.stats().models[llm.0].cache;

    // Phase 2: steady state on the warm engine.
    for s in 0..sequences {
        let prompt = (3 + 7 * s as u32) % 32;
        engine
            .begin_sequence(llm, prompt, steps, s as u64, 1)
            .expect("steady sequence begins");
    }
    let steady_trace = engine.drain_traced();
    let steady_wall_ms: f64 = steady_trace.batch_ms.iter().sum();
    let stats = engine.stats();
    let cache = &stats.models[llm.0].cache;
    let (hits, misses) = (cache.hits - warm.hits, cache.misses - warm.misses);
    let steady_hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let tokens = (sequences * steps) as u64;
    let tokens_per_sec = tokens as f64 / (steady_wall_ms / 1e3);
    let phase_conservation = stats.tokens == ((sequences + 1) * steps) as u64;

    // Phase 3: mixed CNN + LLM, 1 vs 4 workers.
    let mixed = |workers: usize| {
        let mut engine = ServeEngine::new(config.clone().with_workers(workers));
        let lenet = engine.admit(catalog::lenet5_model()).expect("lenet admits");
        let llm = engine.admit(catalog::llm_tiny()).expect("llm_tiny admits");
        let seqs: Vec<_> = (0..2u32)
            .map(|s| {
                engine
                    .begin_sequence(llm, 1 + 11 * s, steps, u64::from(s), 1)
                    .expect("mixed sequence begins")
            })
            .collect();
        for i in 0..8u64 {
            engine
                .try_submit(InferRequest {
                    model: lenet,
                    input: oxbar_nn::synthetic::activations(engine.input_shape(lenet), 6, i),
                    arrival: i,
                    deadline: None,
                })
                .expect("valid request");
        }
        let trace = engine.drain_traced();
        let tokens: Vec<Vec<u32>> = seqs
            .iter()
            .map(|&s| engine.sequence_tokens(s).to_vec())
            .collect();
        (trace, tokens)
    };
    let (trace1, tokens1) = mixed(1);
    let (trace4, tokens4) = mixed(4);
    let byte_identical = trace1.completions == trace4.completions && tokens1 == tokens4;
    let mixed_wall: f64 = trace1.batch_ms.iter().sum();
    let tick_ms = mixed_wall / trace1.completions.len() as f64 / REPLAY_LOAD;
    let (latencies, _) = replay_latencies(
        &trace1.completions,
        &trace1.batch_ms,
        &trace1.rounds,
        tick_ms,
    );
    let cnn: Vec<f64> = trace1
        .completions
        .iter()
        .zip(&latencies)
        .filter(|(c, _)| c.sequence.is_none())
        .map(|(_, &l)| l)
        .collect();
    let mixed_cnn_p99_ms = LatencySummary::of(&cnn).p99_ms;
    let mixed_tokens: usize = tokens1.iter().map(Vec::len).sum();
    let token_conservation = phase_conservation && mixed_tokens == 2 * steps;

    LlmReport {
        sequences,
        steps,
        tokens,
        tokens_per_sec,
        first_token_ms,
        steady_token_ms,
        steady_hit_rate,
        mixed_cnn_p99_ms,
        byte_identical,
        token_conservation,
    }
}

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

/// Heap allocations of one warm serving round: a 4-request same-model
/// batch through a fully resident engine. Requires the
/// `bench_serve` binary's counting allocator; returns `None` elsewhere.
fn warm_round_allocations() -> Option<u64> {
    if !crate::alloc_counter::active() {
        return None;
    }
    let mut engine = engine_with(BatchPolicy::new(8, 8), &[4_000_000]);
    let inputs: Vec<_> = (0..4u64)
        .map(|i| {
            oxbar_nn::synthetic::activations(engine.input_shape(oxbar_serve::ModelId(0)), 6, i)
        })
        .collect();
    // Two rounds to program the tiles and settle the executor arena pool.
    for _ in 0..2 {
        for input in &inputs {
            submit_at_zero(&mut engine, oxbar_serve::ModelId(0), input.clone());
        }
        engine.drain_traced();
    }
    for input in &inputs {
        submit_at_zero(&mut engine, oxbar_serve::ModelId(0), input.clone());
    }
    let before = crate::alloc_counter::count();
    engine.drain_traced();
    Some(crate::alloc_counter::count() - before)
}

/// Static per-model facts: footprint (measured by serving one request on
/// an unconstrained engine) and the analytic chip-model IPS.
fn model_reports() -> Vec<ModelReport> {
    let chip = Chip::new(ChipConfig::paper_optimal());
    let mut engine = engine_with(BatchPolicy::SINGLE, &[usize::MAX]);
    catalog::stock_catalog()
        .into_iter()
        .enumerate()
        .map(|(index, spec)| {
            let id = oxbar_serve::ModelId(index);
            let input = oxbar_nn::synthetic::activations(engine.input_shape(id), 6, 1);
            submit_at_zero(&mut engine, id, input);
            engine.drain_traced();
            ModelReport {
                analytic_ips: chip.evaluate(&spec.network).ips,
                name: spec.name,
                footprint_cells: engine.stats().models[index].cache.cells,
            }
        })
        .collect()
}

/// Runs the snapshot. `quick` keeps the trace small enough for a CI
/// smoke step; the full mode replays the headline trace.
#[must_use]
pub fn generate(quick: bool) -> ServeReport {
    let requests = if quick { 24 } else { 120 };
    let models = model_reports();
    // A budget that can hold the two lightest models but not the whole
    // catalog: the cache-thrash operating point.
    let total_cells: usize = models.iter().map(|m| m.footprint_cells).sum();
    let tight = total_cells / 3;

    let cold = run_case(
        "open_loop/cold_serial",
        requests,
        BatchPolicy::SINGLE,
        &[0],
        false,
    );
    let mut cases = vec![cold];
    // The headline: batched weight-stationary serving, every model
    // programmed at deployment, before the traffic.
    let mut batched = run_case(
        "open_loop/batched_weight_stationary",
        requests,
        BatchPolicy::new(16, 8),
        &[4_000_000],
        true,
    );
    batched.speedup_vs_cold = Some(cases[0].wall_ms / batched.wall_ms);
    cases.push(batched);
    // Multi-chip: the same total budget sharded across two chips with
    // least-loaded placement — the catalog spreads (each model programmed
    // on its chip at deployment), and the per-chip breakdown lands in the
    // report.
    let mut dual = run_case(
        "open_loop/dual_chip_least_loaded",
        requests,
        BatchPolicy::new(16, 8),
        &[2_000_000, 2_000_000],
        true,
    );
    dual.speedup_vs_cold = Some(cases[0].wall_ms / dual.wall_ms);
    cases.push(dual);
    if !quick {
        // Ablation: the same batched engine without deployment-time
        // programming (every model's first batch stalls on PCM
        // programming).
        let mut no_prewarm = run_case(
            "open_loop/batched_no_prewarm",
            requests,
            BatchPolicy::new(16, 8),
            &[4_000_000],
            false,
        );
        no_prewarm.speedup_vs_cold = Some(cases[0].wall_ms / no_prewarm.wall_ms);
        cases.push(no_prewarm);
        // The tight-budget cases serve lazily: the catalog does not fit,
        // so programming it all ahead of traffic would only overfill.
        for (name, policy) in [
            ("open_loop/tight_budget_interleaved", BatchPolicy::SINGLE),
            ("open_loop/tight_budget_batched", BatchPolicy::new(16, 8)),
        ] {
            let mut case = run_case(name, requests, policy, &[tight], false);
            case.speedup_vs_cold = Some(cases[0].wall_ms / case.wall_ms);
            cases.push(case);
        }
        // The sharding payoff: at the same per-chip budget that thrashes
        // a single chip, a second chip keeps more of the catalog
        // resident — fewer evictions, no worse tail.
        let mut tight_dual = run_case(
            "open_loop/tight_budget_dual_chip",
            requests,
            BatchPolicy::new(16, 8),
            &[tight, tight],
            false,
        );
        tight_dual.speedup_vs_cold = Some(cases[0].wall_ms / tight_dual.wall_ms);
        cases.push(tight_dual);
    }
    let achieved = (!quick).then(|| cases[1].speedup_vs_cold.unwrap_or(0.0) >= TARGET_SPEEDUP);
    ServeReport {
        bench: "serve".to_string(),
        mode: if quick { "quick" } else { "full" }.to_string(),
        unit: "ms".to_string(),
        target_speedup: TARGET_SPEEDUP,
        achieved,
        warm_round_allocations: warm_round_allocations(),
        models,
        cases,
        closed_loop: run_closed_loop(quick),
        fault_injection: run_fault_injection(requests),
        drift_recal: run_drift_recal(quick),
        llm: run_llm(quick),
    }
}

/// Prints the serving table.
pub fn render(report: &ServeReport) {
    println!(
        "# serve — batched weight-stationary serving vs cold per-request execution, {} mode",
        report.mode
    );
    println!("models (footprint = compiled tile cells; analytic = chip-model ceiling):");
    for m in &report.models {
        println!(
            "  {:<24} {:>9} cells   {:>12.0} IPS analytic",
            m.name, m.footprint_cells, m.analytic_ips
        );
    }
    println!(
        "{:<38} {:>5} {:>5} {:>3} {:>8} {:>8} {:>7} {:>7} {:>8} {:>6} {:>5} {:>4} {:>8}",
        "case",
        "chips",
        "batch",
        "pw",
        "wall_ms",
        "elap_ms",
        "p50_ms",
        "p99_ms",
        "p99cold",
        "hit",
        "evict",
        "migr",
        "speedup"
    );
    for c in &report.cases {
        println!(
            "{:<38} {:>5} {:>5} {:>3} {:>8.1} {:>8.1} {:>7.2} {:>7.2} {:>8.2} {:>5.0}% {:>5} {:>4} {:>8}",
            c.name,
            c.chip_budgets.len(),
            c.max_batch,
            if c.prewarm { "on" } else { "off" },
            c.wall_ms,
            c.elapsed_ms,
            c.p50_ms,
            c.p99_ms,
            c.p99_cold_start_ms,
            c.hit_rate * 100.0,
            c.evictions,
            c.migrations,
            c.speedup_vs_cold
                .map_or_else(|| "—".to_string(), |s| format!("{s:.1}x")),
        );
        if c.chip_budgets.len() > 1 {
            for chip in &c.per_chip {
                println!(
                    "    chip{}: {}/{} cells, {} models, {:.0}% hit, {} evict, {}/{} migr in/out",
                    chip.chip,
                    chip.occupancy_cells,
                    chip.budget_cells,
                    chip.models,
                    chip.hit_rate() * 100.0,
                    chip.evictions,
                    chip.migrations_in,
                    chip.migrations_out,
                );
            }
        }
    }
    let cl = &report.closed_loop;
    println!(
        "closed loop over loopback: {} conns x {} waves, wall {:.0} ms, \
         wire p50/p99 {:.2}/{:.2} ms, replay p50/p99 {:.2}/{:.2} ms, byte-identical: {}",
        cl.connections,
        cl.waves,
        cl.wall_ms,
        cl.wire_p50_ms,
        cl.wire_p99_ms,
        cl.replay_p50_ms,
        cl.replay_p99_ms,
        if cl.byte_identical { "yes" } else { "NO (bug)" },
    );
    let fi = &report.fault_injection;
    println!(
        "fault injection (chip 1 killed at dispatch seq {}, no-fault p99 {:.2} ms):",
        fi.kill_seq, fi.no_fault_p99_ms
    );
    for (name, case) in [
        ("replicated(2)", &fi.replicated),
        ("unreplicated", &fi.unreplicated),
    ] {
        println!(
            "  {:<14} {} done, {} shed, {} lost, {} retried, {} recoveries, \
             p99 {:.2} ms, survivors byte-identical: {}",
            name,
            case.completions,
            case.shed,
            case.lost,
            case.retried,
            case.recoveries,
            case.p99_ms,
            if case.survivors_byte_identical {
                "yes"
            } else {
                "NO (bug)"
            },
        );
    }
    println!(
        "  replicated p99 vs no-fault: {:.2}x (budget 2.0x)",
        fi.p99_ratio_replicated_vs_no_fault
    );
    let dr = &report.drift_recal;
    println!(
        "drift recal ({} reqs / {} drains, tick {:.0e} s, budget {} ticks): \
         {} breaches, {} recals / {} tiles, {} lost, {} heals, unhealed degraded: {}",
        dr.requests,
        dr.waves,
        dr.drift_tick_seconds,
        dr.budget_ticks,
        dr.breaches,
        dr.recalibrations,
        dr.recalibrated_tiles,
        dr.lost,
        dr.heals,
        if dr.unhealed_degraded {
            "yes"
        } else {
            "NO (bug)"
        },
    );
    println!(
        "  max|Δ|/err vs drift-free: fresh {}/{:.4}, late+recal {}/{:.4}, late no-recal {}/{:.4} \
         — recovered: {}",
        dr.fresh_window.max_abs_delta,
        dr.fresh_window.error_rate,
        dr.recal_late_window.max_abs_delta,
        dr.recal_late_window.error_rate,
        dr.norecal_late_window.max_abs_delta,
        dr.norecal_late_window.error_rate,
        if dr.accuracy_recovered {
            "yes"
        } else {
            "NO (bug)"
        },
    );
    println!(
        "  p99 with/without recal: {:.2}/{:.2} ms = {:.2}x (budget 2.0x)",
        dr.p99_with_recal_ms, dr.p99_without_recal_ms, dr.p99_ratio_recal_vs_no_recal
    );
    let llm = &report.llm;
    println!(
        "llm (llm_tiny, {} seqs x {} steps): {:.0} tokens/s steady, \
         first token {:.2} ms vs steady {:.3} ms, steady hit {:.1}%, \
         mixed CNN p99 {:.2} ms, byte-identical: {}, conservation: {}",
        llm.sequences,
        llm.steps,
        llm.tokens_per_sec,
        llm.first_token_ms,
        llm.steady_token_ms,
        llm.steady_hit_rate * 100.0,
        llm.mixed_cnn_p99_ms,
        if llm.byte_identical {
            "yes"
        } else {
            "NO (bug)"
        },
        if llm.token_conservation {
            "yes"
        } else {
            "NO (bug)"
        },
    );
    match report.warm_round_allocations {
        Some(allocs) => println!("warm round allocations: {allocs} (4-request resident batch)"),
        None => println!("warm round allocations: not measured (no counting allocator)"),
    }
    match report.achieved {
        Some(met) => println!(
            "target {:.0}x batched vs cold: {}",
            report.target_speedup,
            if met { "MET" } else { "NOT MET" }
        ),
        None => println!(
            "target {:.0}x: graded on the full trace only (quick mode is a smoke run)",
            report.target_speedup
        ),
    }
}

/// Generates the snapshot and writes `BENCH_serve.json` at the workspace
/// root (under `results/` in quick mode).
///
/// # Panics
///
/// Panics if the snapshot cannot be serialized or written.
#[must_use]
pub fn run(quick: bool) -> ServeReport {
    let report = generate(quick);
    let path = crate::snapshot_path("BENCH_serve.json", quick);
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, json + "\n").expect("write BENCH_serve.json");
    println!("[written] {}", path.display());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_has_valid_schema() {
        let report = generate(true);
        assert_eq!(report.bench, "serve");
        assert_eq!(report.mode, "quick");
        assert_eq!(report.unit, "ms");
        assert_eq!(report.models.len(), 4);
        for m in &report.models {
            assert!(m.footprint_cells > 0);
            assert!(m.analytic_ips > 0.0);
        }
        assert_eq!(
            report.cases.len(),
            3,
            "quick mode: cold + batched + dual-chip smoke"
        );
        for c in &report.cases {
            assert!(c.wall_ms > 0.0);
            assert!(c.elapsed_ms >= c.wall_ms * 0.5, "elapsed sanity");
            assert!(c.throughput_rps > 0.0);
            assert!(c.p50_ms > 0.0 && c.p99_ms >= c.p50_ms);
            assert!(c.p99_cold_start_ms > 0.0);
            assert!((0.0..=1.0).contains(&c.hit_rate));
            assert!(!c.chip_budgets.is_empty());
            assert_eq!(c.per_chip.len(), c.chip_budgets.len());
            assert_eq!(c.budget_cells, c.chip_budgets.iter().sum::<usize>());
        }
        assert_eq!(report.cases[0].speedup_vs_cold, None);
        assert!(!report.cases[0].prewarm, "cold baseline programs lazily");
        assert_eq!(report.cases[0].prewarmed_tiles, 0);
        assert!(report.cases[1].speedup_vs_cold.is_some());
        assert!(
            report.cases[1].prewarm,
            "the smoke case programs its models at deployment"
        );
        assert!(
            report.cases[1].prewarmed_tiles > 0,
            "deployment-time prewarm must program tiles"
        );
        assert_eq!(report.cases[0].hit_rate, 0.0, "budget 0 never hits");
        let dual = &report.cases[2];
        assert_eq!(dual.chip_budgets.len(), 2, "the smoke run shards 2 chips");
        assert!(
            dual.per_chip.iter().all(|c| c.models > 0),
            "least-loaded placement spreads the catalog across both chips"
        );
        let chip_occ: usize = dual.per_chip.iter().map(|c| c.occupancy_cells).sum();
        assert!(chip_occ > 0, "serving leaves resident state somewhere");
        assert_eq!(report.achieved, None, "quick mode is not graded");
        assert_eq!(
            report.warm_round_allocations, None,
            "library tests run without the counting allocator"
        );
        let fi = &report.fault_injection;
        assert_eq!(fi.requests, report.cases[0].requests);
        for case in [&fi.replicated, &fi.unreplicated] {
            assert_eq!(case.lost, 0, "a chip kill must never lose a request");
            assert_eq!(
                case.completions as u64 + case.shed,
                fi.requests as u64,
                "every request completes or sheds"
            );
            assert!(
                case.survivors_byte_identical,
                "failover/recovery must not change answers"
            );
            assert!(case.p99_ms > 0.0);
            // Per-chip counters reconcile with the engine totals.
            let chip_retries: u64 = case.per_chip.iter().map(|c| c.retries).sum();
            let chip_sheds: u64 = case.per_chip.iter().map(|c| c.sheds).sum();
            assert_eq!(chip_retries, case.retried);
            assert_eq!(chip_sheds, case.shed);
            assert_eq!(
                case.per_chip
                    .iter()
                    .filter(|c| c.health == oxbar_serve::ChipHealth::Failed)
                    .count(),
                1,
                "exactly the killed chip is marked failed"
            );
        }
        assert!(fi.replicated.retried >= 1, "the kill forces failovers");
        assert_eq!(
            fi.replicated.recoveries, 0,
            "replicas absorb the kill without recovery"
        );
        assert!(
            fi.unreplicated.recoveries >= 1,
            "single residency must recover by moving to the survivor"
        );
        assert!(fi.no_fault_p99_ms > 0.0);
        assert!(fi.p99_ratio_replicated_vs_no_fault.is_finite());
        let cl = &report.closed_loop;
        assert_eq!(cl.connections, 8, "the loopback run is 8-wide");
        assert_eq!(cl.requests, cl.connections * cl.waves);
        assert!(
            cl.byte_identical,
            "wire responses must equal the in-process engine"
        );
        assert!(cl.wall_ms > 0.0);
        assert!(cl.wire_p50_ms > 0.0 && cl.wire_p99_ms >= cl.wire_p50_ms);
        assert!(cl.replay_p50_ms > 0.0 && cl.replay_p99_ms >= cl.replay_p50_ms);
        let llm = &report.llm;
        assert_eq!(llm.sequences, 4);
        assert_eq!(llm.tokens, (llm.sequences * llm.steps) as u64);
        assert!(llm.tokens_per_sec > 0.0);
        assert!(
            llm.first_token_ms > llm.steady_token_ms,
            "the cold first token must pay PCM programming: first {} ms vs steady {} ms",
            llm.first_token_ms,
            llm.steady_token_ms
        );
        assert!(
            llm.steady_hit_rate > 0.99,
            "the dense stack is weight-stationary after warmup, got {}",
            llm.steady_hit_rate
        );
        assert!(llm.mixed_cnn_p99_ms > 0.0);
        assert!(
            llm.byte_identical,
            "mixed CNN + LLM traffic must be worker-invariant"
        );
        assert!(llm.token_conservation, "every step emits exactly one token");
        let dr = &report.drift_recal;
        assert!(dr.requests >= report.cases[0].requests);
        assert!(dr.waves > 1, "aging needs multi-drain traces");
        assert!(dr.budget_ticks > 0);
        assert!(dr.breaches > 0, "the trace must cross the accuracy budget");
        assert!(dr.recalibrations > 0 && dr.recalibrated_tiles > 0);
        assert_eq!(dr.lost, 0, "self-healing must never lose a request");
        assert!(dr.heals > 0, "recalibration must heal the chip");
        assert!(dr.unhealed_degraded, "without recal the breach must stick");
        assert!(
            dr.accuracy_recovered,
            "late-window accuracy must return to the fresh-program level: \
             fresh {}/{:.4}, late {}/{:.4}",
            dr.fresh_window.max_abs_delta,
            dr.fresh_window.error_rate,
            dr.recal_late_window.max_abs_delta,
            dr.recal_late_window.error_rate,
        );
        for window in [
            &dr.fresh_window,
            &dr.recal_late_window,
            &dr.norecal_late_window,
        ] {
            assert!(window.requests > 0 && window.elements > 0);
            assert!((0.0..=1.0).contains(&window.error_rate));
        }
        assert!(dr.p99_with_recal_ms > 0.0 && dr.p99_without_recal_ms > 0.0);
        assert!(
            dr.p99_ratio_recal_vs_no_recal <= 2.0,
            "re-deriving marked tiles must cost at most 2x p99: {:.2}x",
            dr.p99_ratio_recal_vs_no_recal
        );
    }
}
