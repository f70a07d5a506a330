//! Load generation and latency accounting for the serving engine.
//!
//! [`OpenLoop`] is the open-loop discipline: requests arrive on a fixed
//! schedule (every `interarrival` ticks) regardless of how fast the
//! server drains them, which exposes queueing delay under offered load.
//! (Closed-loop load is driven over real sockets by the benchmarks.)
//! Every request's input is synthesized from [`request_seed`], so a
//! trace is a pure function of its parameters: replaying it through any
//! engine configuration yields byte-identical outputs.
//!
//! Wall-clock time exists only in the caller: the engine is deterministic
//! and tick-based, so a benchmark measures the wall time of each
//! dispatched batch and feeds it to [`replay_latencies`], which re-runs
//! the queueing timeline (arrivals in ticks × measured service times) to
//! recover per-request latencies and deadline misses.

use crate::request::{request_seed, Completion, InferRequest, ModelId};
use oxbar_nn::synthetic;
use oxbar_nn::TensorShape;
use serde::{Deserialize, Serialize};

/// One entry of a request mix: a model and its relative traffic weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MixEntry {
    /// The admitted model.
    pub model: ModelId,
    /// Relative weight (requests are drawn proportionally).
    pub weight: u32,
}

/// Picks the mix entry for request `index` (deterministic weighted draw).
fn pick(mix: &[MixEntry], seed: u64, index: u64) -> ModelId {
    let total: u64 = mix.iter().map(|m| u64::from(m.weight)).sum();
    assert!(total > 0, "mix weights must not all be zero");
    let mut roll = request_seed(seed, index) % total;
    for entry in mix {
        let w = u64::from(entry.weight);
        if roll < w {
            return entry.model;
        }
        roll -= w;
    }
    unreachable!("roll < total")
}

/// An open-loop (fixed-arrival-schedule) workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenLoop {
    /// The traffic mix over admitted models.
    pub mix: Vec<MixEntry>,
    /// Total requests in the trace.
    pub requests: usize,
    /// Ticks between consecutive arrivals.
    pub interarrival: u64,
    /// Trace seed (drives model picks and input synthesis).
    pub seed: u64,
    /// Deadline slack in ticks added to each arrival (`None` = no
    /// deadlines).
    pub deadline_slack: Option<u64>,
}

impl OpenLoop {
    /// Generates the request trace. `input_shape(model)` supplies each
    /// model's input shape (use
    /// [`ServeEngine::input_shape`](crate::engine::ServeEngine::input_shape)).
    pub fn trace(&self, mut input_shape: impl FnMut(ModelId) -> TensorShape) -> Vec<InferRequest> {
        (0..self.requests as u64)
            .map(|i| {
                let model = pick(&self.mix, self.seed, i);
                let arrival = i * self.interarrival;
                InferRequest {
                    model,
                    input: synthetic::activations(
                        input_shape(model),
                        6,
                        request_seed(self.seed ^ 0x1a9d, i),
                    ),
                    arrival,
                    deadline: self.deadline_slack.map(|s| arrival + s),
                }
            })
            .collect()
    }
}

/// Latency percentiles over a set of per-request samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Worst latency (ms).
    pub max_ms: f64,
    /// Mean latency (ms).
    pub mean_ms: f64,
}

impl LatencySummary {
    /// Summarizes a non-empty sample set (nearest-rank percentiles).
    /// NaN samples sort last under IEEE 754 total ordering rather than
    /// aborting the whole summary.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "at least one latency sample required");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |p: f64| {
            let idx = (p * sorted.len() as f64).ceil() as usize;
            sorted[idx.clamp(1, sorted.len()) - 1]
        };
        Self {
            p50_ms: rank(0.50),
            p99_ms: rank(0.99),
            max_ms: *sorted.last().expect("non-empty"),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
        }
    }
}

/// Replays the queueing timeline of one drain and returns `(latencies_ms,
/// deadline_misses)` in completion order.
///
/// The model mirrors what the scheduler actually does
/// ([`crate::engine::ServeEngine::drain_traced`]): batches execute in
/// dispatch *rounds*, and every batch within a round runs **concurrently**,
/// as the chips compute side by side. No batch of round `k` starts before
/// round `k − 1` has finished (the engine absorbs a whole round before it
/// dispatches the next); within that bound each batch starts once its own
/// members have all arrived (the batcher held it open for them), whatever
/// the other batches of its round wait for, and completes *its own* wall
/// time later. The round finishes when its slowest batch does. A
/// request's latency is its batch's completion time minus its own arrival
/// time; a deadline is missed when completion lands after
/// `deadline × tick_ms`.
///
/// With one batch per round (`rounds == [[0], [1], ..]`, the one-chip
/// schedule) this degenerates to a single-pipeline replay. Pass the
/// `rounds` the drain actually ran: a serial replay of multi-chip rounds
/// would overstate p50/p99.
///
/// # Panics
///
/// Panics if a completion references a batch without a measured wall
/// time, or if `rounds` does not cover every measured batch exactly once.
#[must_use]
pub fn replay_latencies(
    completions: &[Completion],
    batch_wall_ms: &[f64],
    rounds: &[Vec<usize>],
    tick_ms: f64,
) -> (Vec<f64>, usize) {
    let batches = batch_wall_ms.len();
    let mut routed = vec![false; batches];
    for &seq in rounds.iter().flatten() {
        assert!(seq < batches, "round references unmeasured batch {seq}");
        assert!(!routed[seq], "batch {seq} routed into two rounds");
        routed[seq] = true;
    }
    assert!(
        routed.iter().all(|&r| r),
        "every measured batch must be routed into exactly one round"
    );
    // Latest member arrival per batch: the batch cannot dispatch earlier.
    let mut ready_ms = vec![0.0f64; batches];
    for c in completions {
        assert!(c.batch_seq < batches, "unmeasured batch {}", c.batch_seq);
        ready_ms[c.batch_seq] = ready_ms[c.batch_seq].max(c.arrival as f64 * tick_ms);
    }
    let mut finish_ms = vec![0.0f64; batches];
    let mut clock = 0.0f64;
    for round in rounds {
        for &b in round {
            finish_ms[b] = clock.max(ready_ms[b]) + batch_wall_ms[b];
        }
        clock = round.iter().map(|&b| finish_ms[b]).fold(clock, f64::max);
    }
    let mut misses = 0;
    let latencies = completions
        .iter()
        .map(|c| {
            let done = finish_ms[c.batch_seq];
            if let Some(d) = c.deadline {
                if done > d as f64 * tick_ms {
                    misses += 1;
                }
            }
            done - c.arrival as f64 * tick_ms
        })
        .collect();
    (latencies, misses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use oxbar_nn::reference::Tensor3;

    #[test]
    fn open_loop_traces_are_reproducible_and_scheduled() {
        let load = OpenLoop {
            mix: vec![
                MixEntry {
                    model: ModelId(0),
                    weight: 3,
                },
                MixEntry {
                    model: ModelId(1),
                    weight: 1,
                },
            ],
            requests: 40,
            interarrival: 2,
            seed: 9,
            deadline_slack: Some(50),
        };
        let shape = |_m: ModelId| TensorShape::new(2, 2, 1);
        let a = load.trace(shape);
        let b = load.trace(shape);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
        for (i, req) in a.iter().enumerate() {
            assert_eq!(req.arrival, 2 * i as u64);
            assert_eq!(req.deadline, Some(req.arrival + 50));
        }
        let zeros = a.iter().filter(|r| r.model == ModelId(0)).count();
        assert!(zeros > 20 && zeros < 40, "mix is weighted 3:1, got {zeros}");
    }

    #[test]
    fn latency_summary_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = LatencySummary::of(&samples);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-12);
    }

    fn completion(id: u64, arrival: u64, deadline: Option<u64>, seq: usize) -> Completion {
        Completion {
            id: RequestId(id),
            model: ModelId(0),
            arrival,
            deadline,
            output: Tensor3::new(TensorShape::flat(1), vec![0]),
            batch_seq: seq,
            batch_size: 1,
            sequence: None,
        }
    }

    #[test]
    fn replay_accounts_queueing_and_deadlines() {
        // Two batches of 10 ms each; requests arrive at ticks 0 and 1
        // (1 tick = 1 ms). The second batch queues behind the first.
        let completions = vec![completion(0, 0, Some(15), 0), completion(1, 1, Some(15), 1)];
        let (lat, misses) = replay_latencies(&completions, &[10.0, 10.0], &[vec![0], vec![1]], 1.0);
        assert_eq!(lat, vec![10.0, 19.0]);
        assert_eq!(misses, 1, "request 1 finishes at 20 ms > deadline 15 ms");
    }

    #[test]
    fn replay_waits_for_late_batch_members() {
        // One batch whose last member arrives at tick 5 (5 ms): dispatch
        // cannot start before then.
        let completions = vec![completion(0, 0, None, 0), completion(1, 5, None, 0)];
        let (lat, misses) = replay_latencies(&completions, &[2.0], &[vec![0]], 1.0);
        assert_eq!(lat, vec![7.0, 2.0]);
        assert_eq!(misses, 0);
    }

    #[test]
    fn replay_runs_round_members_concurrently() {
        // Rounds [[0, 1], [2]] with walls [10, 4, 5]: batches 0 and 1
        // share round 0 and both start at t = 0, so batch 1 finishes at
        // 4 ms (not queued behind batch 0 as the old serial replay
        // claimed). Round 1 starts when the *slowest* member of round 0
        // finishes (10 ms), so batch 2 finishes at 15 ms.
        let completions = vec![
            completion(0, 0, None, 0),
            completion(1, 0, None, 1),
            completion(2, 0, None, 2),
        ];
        let rounds = vec![vec![0, 1], vec![2]];
        let (lat, misses) = replay_latencies(&completions, &[10.0, 4.0, 5.0], &rounds, 1.0);
        assert_eq!(lat, vec![10.0, 4.0, 15.0]);
        assert_eq!(misses, 0);
    }

    #[test]
    fn replay_batch_start_waits_only_for_its_own_members() {
        // Round 0 holds batches 0 and 1; batch 1's member arrives at tick
        // 6, but batch 0 was ready at 0 and does not wait for it: batch 0
        // finishes at 2 ms, batch 1 at 6 + 3 = 9 ms.
        let completions = vec![completion(0, 0, None, 0), completion(1, 6, None, 1)];
        let rounds = vec![vec![0, 1]];
        let (lat, misses) = replay_latencies(&completions, &[2.0, 3.0], &rounds, 1.0);
        assert_eq!(lat, vec![2.0, 3.0]);
        assert_eq!(misses, 0);
    }

    #[test]
    fn serial_rounds_degenerate_to_single_pipeline() {
        // With one batch per round the round-aware replay must reproduce
        // the classic serial model: clock = max(clock, ready) + wall.
        let completions = vec![
            completion(0, 0, None, 0),
            completion(1, 3, None, 1),
            completion(2, 30, None, 2),
        ];
        let walls = [10.0, 5.0, 2.0];
        let serial = [vec![0], vec![1], vec![2]];
        let (lat, _) = replay_latencies(&completions, &walls, &serial, 1.0);
        // Serial: f0 = 10, f1 = max(10, 3) + 5 = 15, f2 = max(15, 30) + 2 = 32.
        assert_eq!(lat, vec![10.0, 12.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "routed into exactly one round")]
    fn replay_rejects_unrouted_batches() {
        let completions = vec![completion(0, 0, None, 0)];
        let _ = replay_latencies(&completions, &[1.0, 1.0], &[vec![0]], 1.0);
    }
}
