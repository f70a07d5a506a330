//! `warm_offline` and `thrash_offline`: an in-process engine drains the
//! same seeded open-loop trace over and over.
//!
//! A trace is [`TRACE_REQUESTS`] CNN requests over the catalog mix, one
//! tick apart, then [`TRACE_SEQUENCES`] generated sequences arriving
//! together after the last of them. Each drain starts with the whole trace
//! queued, so a sequence's first token waits for the CNN work queued ahead
//! of it, and its later tokens each take one scheduler pass. Latencies come from
//! the drain's own timeline: a batch completes when its dispatch round
//! ends, a round lasting as long as its slowest batch, with batch times as
//! the engine measured them.

use crate::layers::{self, LayerInputs};
use crate::trace::Tracer;
use crate::workload::{self, LLM, POLICY, SEQUENCE_STEPS};
use crate::{stats, Finish, Metric, Samples, Workload};
use oxbar_nn::reference::Tensor3;
use oxbar_serve::protocol::{ClientFrame, ServerFrame, WireToken};
use oxbar_serve::{DrainTrace, EngineStats, InferRequest, ModelId, ServeConfig, ServeEngine};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

/// CNN requests per trace.
pub const TRACE_REQUESTS: u64 = 160;

/// Generated sequences per trace.
pub const TRACE_SEQUENCES: u64 = 8;

/// CNN requests of the trace re-served on the cold reference engine.
const COLD_CHECKS: usize = 8;

/// An offline workload.
#[derive(Debug, Clone)]
pub struct Offline {
    seed: u64,
    config: ServeConfig,
}

impl Offline {
    /// `warm_offline`: one chip holding the whole catalog.
    #[must_use]
    pub fn warm(seed: u64) -> Self {
        Self {
            seed,
            config: workload::resident_config(),
        }
    }

    /// `thrash_offline`: two chips, each holding a third of it.
    #[must_use]
    pub fn thrash(seed: u64) -> Self {
        Self {
            seed,
            config: workload::thrash_config(),
        }
    }
}

/// What a drain answered: CNN outputs in trace order, and per sequence
/// its `(token, logits)` steps.
#[derive(Debug, Clone, PartialEq)]
struct Answers {
    cnn: Vec<Tensor3>,
    tokens: Vec<Vec<(u32, Tensor3)>>,
}

/// Engine-side data of the traced phase.
#[derive(Debug)]
struct TracedPhase {
    spans: Range<usize>,
    before: EngineStats,
    after: EngineStats,
    drain_ms: Vec<f64>,
    batch_ms: Vec<f64>,
    round_ms: f64,
}

/// A set-up engine and its trace.
#[derive(Debug)]
pub struct System {
    engine: ServeEngine,
    trace: Vec<InferRequest>,
    prompts: Vec<(u32, u64)>,
    first: Option<Answers>,
    drains: u64,
    diverged: u64,
    traced: Option<TracedPhase>,
}

impl Workload for Offline {
    type System = System;

    fn setup(&self, t: &mut Tracer) -> System {
        let mut engine = workload::build_engine(self.config.clone(), t);
        workload::prewarm_and_warm_up(&mut engine, self.seed, t);
        let shapes = workload::input_shapes(&engine);
        let vocab = workload::vocab(&engine);
        let trace = (0..TRACE_REQUESTS)
            .map(|k| {
                let (model, input) = workload::cnn_request(self.seed, k, &shapes);
                InferRequest {
                    model,
                    input,
                    arrival: k,
                    deadline: None,
                }
            })
            .collect();
        let prompts = (0..TRACE_SEQUENCES)
            .map(|j| (workload::prompt(self.seed, j, vocab), TRACE_REQUESTS))
            .collect();
        System {
            engine,
            trace,
            prompts,
            first: None,
            drains: 0,
            diverged: 0,
            traced: None,
        }
    }

    fn teardown(&self, system: System) {
        drop(system);
    }

    fn phase(&self, sys: &mut System, seconds: f64, t: &mut Tracer) -> Samples {
        let start = Instant::now();
        let span_from = t.spans().len();
        let before = sys.engine.stats();
        let mut samples = Samples::default();
        let (mut drain_ms, mut batch_ms, mut round_ms) = (Vec::new(), Vec::new(), 0.0);
        loop {
            let requests = sys.trace.clone();
            samples.attempted += TRACE_REQUESTS + TRACE_SEQUENCES;
            for (k, request) in requests.into_iter().enumerate() {
                let (submitted, _) = t.time("engine.try_submit", k as u64, |_| {
                    sys.engine.try_submit(request)
                });
                samples.failed += u64::from(submitted.is_err());
            }
            for (j, &(prompt, arrival)) in sys.prompts.iter().enumerate() {
                let (begun, _) = t.time("engine.begin_sequence", j as u64, |_| {
                    sys.engine
                        .begin_sequence(LLM, prompt, SEQUENCE_STEPS, arrival, 1)
                });
                samples.failed += u64::from(begun.is_err());
            }
            let (trace, wall) = t.time("engine.drain_traced", sys.drains, |_| {
                sys.engine.drain_traced()
            });
            sys.drains += 1;
            let drained = Drained::of(&trace);
            samples.failed += drained.missing();
            samples.completed += drained.answers.cnn.len() as u64;
            samples.serving_s += wall;
            samples.req_ms.push(drained.cnn_ms);
            samples.ttft_ms.push(drained.ttft_ms);
            samples.itl_ms.push(drained.itl_ms);
            match &sys.first {
                None => sys.first = Some(drained.answers),
                Some(first) => sys.diverged += u64::from(*first != drained.answers),
            }
            drain_ms.push(wall * 1e3);
            round_ms += drained.round_ms;
            batch_ms.extend(trace.batch_ms);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        if t.is_on() {
            sys.traced = Some(TracedPhase {
                spans: span_from..t.spans().len(),
                before,
                after: sys.engine.stats(),
                drain_ms,
                batch_ms,
                round_ms,
            });
        }
        samples
    }

    fn finish(&self, sys: System, t: &mut Tracer, layer_budget: Option<Duration>) -> Finish {
        let mut finish = Finish::default();
        let first = sys.first.clone().expect("at least one drain ran");
        // Every drain of the trace must answer exactly like the first.
        finish.checked += sys.drains.saturating_sub(1);
        finish.mismatches += sys.diverged;
        // A sample served one request at a time with no tile cache.
        let mut cold = workload::build_engine(workload::cold_config(), t);
        for k in cold_sample(&sys.trace) {
            let request = sys.trace[k].clone();
            t.time("engine.try_submit", k as u64, |_| cold.try_submit(request))
                .0
                .expect("cold reference admits the request");
            let (trace, _) = t.time("engine.drain_traced", k as u64, |_| cold.drain_traced());
            finish.checked += 1;
            let same = trace.completions.len() == 1 && trace.completions[0].output == first.cnn[k];
            finish.mismatches += u64::from(!same);
        }
        let (prompt, arrival) = sys.prompts[0];
        cold.begin_sequence(LLM, prompt, SEQUENCE_STEPS, arrival, 1)
            .expect("cold reference begins the sequence");
        let (trace, _) = t.time("engine.drain_traced", 0, |_| cold.drain_traced());
        finish.checked += 1;
        let cold_tokens = Drained::of(&trace).answers.tokens;
        finish.mismatches += u64::from(cold_tokens.first() != first.tokens.first());

        let stats = sys.engine.stats();
        finish.report.push(format!(
            "{} drains of {TRACE_REQUESTS} requests + {TRACE_SEQUENCES}x{SEQUENCE_STEPS} tokens; \
             hit rate {:.4}, {} evictions, {} migrations, mean batch {:.2}",
            sys.drains,
            stats.hit_rate(),
            stats.evictions,
            stats.migrations,
            stats.mean_batch_size()
        ));
        if let (Some(budget), Some(traced)) = (layer_budget, &sys.traced) {
            finish.per_layer = self.per_layer(&sys, &first, traced, budget, t);
        }
        finish
    }
}

impl Offline {
    fn per_layer(
        &self,
        sys: &System,
        first: &Answers,
        traced: &TracedPhase,
        budget: Duration,
        t: &mut Tracer,
    ) -> Vec<Metric> {
        let submit_us: Vec<f64> = t
            .durations("engine.try_submit", traced.spans.clone())
            .iter()
            .map(|s| s * 1e6)
            .collect();
        let mut metrics = engine_metrics(
            &submit_us,
            &traced.drain_ms,
            &traced.batch_ms,
            traced.round_ms,
        );
        metrics.extend(dispatch_metrics(
            traced.after.requests - traced.before.requests,
            traced.after.batches - traced.before.batches,
        ));
        metrics.extend(cluster_metrics(&traced.before, &traced.after));
        let exchanges = sys
            .trace
            .iter()
            .zip(&first.cnn)
            .enumerate()
            .map(|(k, (request, output))| {
                (
                    ClientFrame::Infer {
                        tag: k as u64,
                        model: request.model.0,
                        arrival: request.arrival,
                        deadline: request.deadline,
                        input: request.input.clone(),
                    },
                    ServerFrame::Completion {
                        tag: k as u64,
                        batch_seq: k as u64,
                        batch_size: 1,
                        output: output.clone(),
                        sequence: None,
                    },
                )
            })
            .collect();
        let stream = first
            .tokens
            .iter()
            .enumerate()
            .flat_map(|(j, steps)| {
                steps
                    .iter()
                    .enumerate()
                    .map(move |(step, (token, logits))| ServerFrame::Completion {
                        tag: j as u64,
                        batch_seq: step as u64,
                        batch_size: 1,
                        output: logits.clone(),
                        sequence: Some(WireToken {
                            step: step as u64,
                            token: u64::from(*token),
                            done: step + 1 == SEQUENCE_STEPS,
                        }),
                    })
            })
            .collect();
        let mut queue: Vec<(ModelId, u64)> =
            sys.trace.iter().map(|r| (r.model, r.arrival)).collect();
        queue.extend(sys.prompts.iter().map(|&(_, arrival)| (LLM, arrival)));
        queue.sort_by_key(|&(_, arrival)| arrival);
        let inputs = LayerInputs {
            engine: &sys.engine,
            seed: self.seed,
            exchanges,
            stream,
            queue,
            client_ms: None,
        };
        layers::measure(&inputs, budget, t, &mut metrics);
        metrics
    }
}

/// The trace positions re-served cold: the first request of each model,
/// then evenly spaced ones.
fn cold_sample(trace: &[InferRequest]) -> Vec<usize> {
    let mut picks: Vec<usize> = (0..workload::MIX.len())
        .filter_map(|m| trace.iter().position(|r| r.model == ModelId(m)))
        .collect();
    let mut k = 0;
    while picks.len() < COLD_CHECKS.min(trace.len()) {
        if !picks.contains(&k) {
            picks.push(k);
        }
        k = (k + trace.len() / COLD_CHECKS + 1) % trace.len();
    }
    picks
}

/// One drain, taken apart.
#[derive(Debug)]
struct Drained {
    answers: Answers,
    cnn_ms: Vec<f64>,
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    round_ms: f64,
    sheds: usize,
}

impl Drained {
    fn of(trace: &DrainTrace) -> Self {
        // Each batch completes when its round does.
        let mut done_ms = vec![0.0; trace.batch_ms.len()];
        let mut clock = 0.0;
        for round in &trace.rounds {
            clock += round.iter().map(|&b| trace.batch_ms[b]).fold(0.0, f64::max);
            for &b in round {
                done_ms[b] = clock;
            }
        }
        let mut cnn: Vec<_> = trace
            .completions
            .iter()
            .filter(|c| c.sequence.is_none())
            .collect();
        cnn.sort_by_key(|c| c.id);
        let mut sequences: BTreeMap<u64, Vec<(usize, u32, &Tensor3, f64)>> = BTreeMap::new();
        for c in &trace.completions {
            if let Some(tc) = &c.sequence {
                sequences.entry(tc.sequence.0).or_default().push((
                    tc.step,
                    tc.token,
                    &c.output,
                    done_ms[c.batch_seq],
                ));
            }
        }
        let (mut ttft_ms, mut itl_ms) = (Vec::new(), Vec::new());
        let mut tokens = Vec::new();
        for steps in sequences.values_mut() {
            steps.sort_by_key(|s| s.0);
            ttft_ms.push(steps[0].3);
            itl_ms.extend(steps.windows(2).map(|w| w[1].3 - w[0].3));
            tokens.push(steps.iter().map(|s| (s.1, s.2.clone())).collect());
        }
        Self {
            cnn_ms: cnn.iter().map(|c| done_ms[c.batch_seq]).collect(),
            answers: Answers {
                cnn: cnn.iter().map(|c| c.output.clone()).collect(),
                tokens,
            },
            ttft_ms,
            itl_ms,
            round_ms: clock,
            sheds: trace.sheds.len(),
        }
    }

    /// Trace entries this drain did not answer in full.
    fn missing(&self) -> u64 {
        let cnn = (TRACE_REQUESTS as usize).saturating_sub(self.answers.cnn.len());
        let short = self
            .answers
            .tokens
            .iter()
            .filter(|s| s.len() != SEQUENCE_STEPS)
            .count()
            + (TRACE_SEQUENCES as usize).saturating_sub(self.answers.tokens.len());
        (cnn + short + self.sheds) as u64
    }
}

/// The engine metrics: submission, drain and batch times, and the share
/// of drain wall time spent executing batch rounds.
pub(crate) fn engine_metrics(
    submit_us: &[f64],
    drain_ms: &[f64],
    batch_ms: &[f64],
    round_ms: f64,
) -> Vec<Metric> {
    let wall: f64 = drain_ms.iter().sum();
    vec![
        Metric::new(
            "engine.submit_us",
            "us",
            stats::median(submit_us),
            submit_us.len(),
        ),
        Metric::new(
            "engine.drain_ms",
            "ms",
            stats::median(drain_ms),
            drain_ms.len(),
        ),
        Metric::new(
            "engine.batch_ms",
            "ms",
            stats::median(batch_ms),
            batch_ms.len(),
        ),
        Metric::new(
            "engine.exec_share",
            "ratio",
            round_ms / wall.max(f64::MIN_POSITIVE),
            drain_ms.len(),
        )
        .note("sum of per-round max batch_ms / drain wall"),
    ]
}

/// Dispatch counters: batches, mean batch size and how full batches run.
pub(crate) fn dispatch_metrics(requests: u64, batches: u64) -> Vec<Metric> {
    let mean_batch = requests as f64 / batches.max(1) as f64;
    let n = usize::try_from(batches).unwrap_or(usize::MAX);
    vec![
        Metric::new("server.batches", "count", batches as f64, 1),
        Metric::new("server.mean_batch", "count", mean_batch, n),
        Metric::new(
            "batcher.fill",
            "ratio",
            mean_batch / POLICY.max_batch as f64,
            n,
        ),
    ]
}

/// Tile-cache and placement counters between two engine snapshots.
pub(crate) fn cluster_metrics(before: &EngineStats, after: &EngineStats) -> Vec<Metric> {
    let sum = |s: &EngineStats| {
        s.models.iter().fold((0u64, 0u64), |(h, m), x| {
            (h + x.cache.hits, m + x.cache.misses)
        })
    };
    let ((h0, m0), (h1, m1)) = (sum(before), sum(after));
    let (hits, misses) = (h1 - h0, m1 - m0);
    let count = |v: u64| Metric::new("", "count", v as f64, 1);
    vec![
        Metric::new(
            "cluster.hit_rate",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            usize::try_from(hits + misses).unwrap_or(usize::MAX),
        ),
        Metric {
            name: "cluster.misses".into(),
            ..count(misses)
        },
        Metric {
            name: "cluster.evictions".into(),
            ..count(after.evictions - before.evictions)
        },
        Metric {
            name: "cluster.migrations".into(),
            ..count(after.migrations - before.migrations)
        },
        Metric {
            name: "cluster.prewarmed_tiles".into(),
            ..count(after.prewarmed_tiles - before.prewarmed_tiles)
        },
    ]
}
