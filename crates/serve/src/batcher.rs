//! The dynamic batcher: deterministic coalescing of same-model requests
//! under a batch-size cap and an arrival-window time budget.

use crate::request::ModelId;
use serde::{Deserialize, Serialize};

/// How the batcher coalesces the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPolicy {
    /// Maximum requests per batch (≥ 1).
    pub max_batch: usize,
    /// How many ticks past the batch head's arrival a request may arrive
    /// and still join the head's batch (0 = only simultaneous arrivals
    /// coalesce).
    pub max_wait: u64,
}

impl BatchPolicy {
    /// One request per batch: batching disabled (the serial-dispatch
    /// baseline).
    pub const SINGLE: Self = Self {
        max_batch: 1,
        max_wait: 0,
    };

    /// A batching policy with the given size cap and coalescing window.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    #[must_use]
    pub fn new(max_batch: usize, max_wait: u64) -> Self {
        assert!(max_batch >= 1, "a batch holds at least one request");
        Self {
            max_batch,
            max_wait,
        }
    }
}

/// One formed batch: queue positions of its members, in submission order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Batch {
    /// Dispatch sequence number (0-based).
    pub seq: usize,
    /// The model every member targets.
    pub model: ModelId,
    /// Queue indices of the members, ascending.
    pub members: Vec<usize>,
}

/// Coalesces a queue of `(model, arrival)` pairs into batches.
///
/// Greedy and deterministic: the earliest unbatched request becomes a
/// batch head; later same-model requests join while the batch has room
/// and their arrival is within `max_wait` ticks of the head's. Heads are
/// taken in queue order, so dispatch order follows arrival order and a
/// given queue always forms the same batches — the engine's scheduling is
/// a pure function of the trace.
///
/// # Examples
///
/// ```
/// use oxbar_serve::batcher::{form_batches, BatchPolicy};
/// use oxbar_serve::ModelId;
///
/// let queue = [(ModelId(0), 0), (ModelId(1), 1), (ModelId(0), 2)];
/// let batches = form_batches(&queue, BatchPolicy::new(4, 8));
/// assert_eq!(batches.len(), 2);
/// assert_eq!(batches[0].members, vec![0, 2]); // both ModelId(0) requests
/// assert_eq!(batches[1].members, vec![1]);
/// ```
#[must_use]
pub fn form_batches(queue: &[(ModelId, u64)], policy: BatchPolicy) -> Vec<Batch> {
    assert!(policy.max_batch >= 1, "a batch holds at least one request");
    let mut taken = vec![false; queue.len()];
    let mut batches = Vec::new();
    for head in 0..queue.len() {
        if taken[head] {
            continue;
        }
        let (model, head_arrival) = queue[head];
        let mut members = vec![head];
        taken[head] = true;
        let window = head_arrival.saturating_add(policy.max_wait);
        for (offset, &(m, arrival)) in queue[head + 1..].iter().enumerate() {
            if members.len() >= policy.max_batch || arrival > window {
                break;
            }
            let idx = head + 1 + offset;
            if !taken[idx] && m == model {
                members.push(idx);
                taken[idx] = true;
            }
        }
        batches.push(Batch {
            seq: batches.len(),
            model,
            members,
        });
    }
    batches
}

/// Routes formed batches into dispatch rounds of at most `round_size`,
/// preferring to spread each round across distinct chips. The engine
/// passes its chip count, so a round is as wide as the cluster.
///
/// Every round is built in two scans over the remaining batches, both in
/// queue order: a **preference** scan takes the earliest batch of each
/// chip (`chip_of(batch)` — per *batch*, so replicated models can spread
/// successive batches across their replicas) not yet represented in the
/// round, so the chips compute side by side; then a **fill** scan tops
/// the round up with the earliest remaining batches regardless of chip.
/// Within a round the original batch order is preserved.
///
/// On a single chip the preference scan degenerates to "take the first
/// remaining batch", so the rounds are exactly
/// `batches.chunks(round_size)`. Deterministic in all cases: a pure
/// function of the batch list, the round size, and the placement. The
/// scans cost O(batches² / round_size); a drain pass holds at most a few
/// hundred batches.
///
/// # Panics
///
/// Panics if `round_size` is zero.
#[must_use]
pub fn route_rounds(
    batches: &[Batch],
    round_size: usize,
    chip_of: impl Fn(&Batch) -> usize,
) -> Vec<Vec<usize>> {
    assert!(round_size >= 1, "a round dispatches at least one batch");
    let chips: Vec<usize> = batches.iter().map(chip_of).collect();
    let mut taken = vec![false; batches.len()];
    let mut remaining = batches.len();
    let mut rounds = Vec::new();
    while remaining > 0 {
        let mut round: Vec<usize> = Vec::with_capacity(round_size.min(remaining));
        let mut used: Vec<usize> = Vec::new();
        for (idx, (slot, &chip)) in taken.iter_mut().zip(&chips).enumerate() {
            if round.len() == round_size {
                break;
            }
            if !*slot && !used.contains(&chip) {
                *slot = true;
                used.push(chip);
                round.push(idx);
            }
        }
        for (idx, slot) in taken.iter_mut().enumerate() {
            if round.len() == round_size {
                break;
            }
            if !*slot {
                *slot = true;
                round.push(idx);
            }
        }
        round.sort_unstable();
        remaining -= round.len();
        rounds.push(round);
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_policy_never_coalesces() {
        let queue = [(ModelId(0), 0), (ModelId(0), 0), (ModelId(0), 0)];
        let batches = form_batches(&queue, BatchPolicy::SINGLE);
        assert_eq!(batches.len(), 3);
        assert!(batches.iter().all(|b| b.members.len() == 1));
    }

    #[test]
    fn size_cap_splits_long_runs() {
        let queue: Vec<_> = (0..10).map(|t| (ModelId(0), t)).collect();
        let batches = form_batches(&queue, BatchPolicy::new(4, 100));
        let sizes: Vec<_> = batches.iter().map(|b| b.members.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn window_excludes_late_arrivals() {
        let queue = [(ModelId(0), 0), (ModelId(0), 3), (ModelId(0), 4)];
        let batches = form_batches(&queue, BatchPolicy::new(8, 3));
        assert_eq!(batches[0].members, vec![0, 1], "tick 4 is past 0 + 3");
        assert_eq!(batches[1].members, vec![2]);
    }

    #[test]
    fn interleaved_models_keep_per_model_order() {
        let queue = [
            (ModelId(0), 0),
            (ModelId(1), 0),
            (ModelId(0), 1),
            (ModelId(1), 1),
            (ModelId(0), 2),
        ];
        let batches = form_batches(&queue, BatchPolicy::new(16, 16));
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].members, vec![0, 2, 4]);
        assert_eq!(batches[1].members, vec![1, 3]);
        // Every queue slot lands in exactly one batch.
        let mut all: Vec<usize> = batches.iter().flat_map(|b| b.members.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_queue_forms_no_batches() {
        assert!(form_batches(&[], BatchPolicy::new(4, 4)).is_empty());
    }

    fn batch(seq: usize, model: usize) -> Batch {
        Batch {
            seq,
            model: ModelId(model),
            members: vec![seq],
        }
    }

    #[test]
    fn single_chip_routing_equals_chunking() {
        let batches: Vec<Batch> = (0..7).map(|s| batch(s, s % 3)).collect();
        for round_size in 1..=4 {
            let rounds = route_rounds(&batches, round_size, |_| 0);
            let chunks: Vec<Vec<usize>> = (0..batches.len())
                .collect::<Vec<_>>()
                .chunks(round_size)
                .map(<[usize]>::to_vec)
                .collect();
            assert_eq!(rounds, chunks, "round_size {round_size}");
        }
    }

    #[test]
    fn routing_spreads_a_round_across_chips() {
        // Models 0,1 on chip 0; model 2 on chip 1. Queue: three chip-0
        // batches then a chip-1 batch. A 2-wide round should pair the
        // first chip-0 batch with the chip-1 batch.
        let batches = vec![batch(0, 0), batch(1, 1), batch(2, 0), batch(3, 2)];
        let chip_of = |b: &Batch| usize::from(b.model.0 == 2);
        let rounds = route_rounds(&batches, 2, chip_of);
        assert_eq!(rounds, vec![vec![0, 3], vec![1, 2]]);
        // Every batch is dispatched exactly once.
        let mut all: Vec<usize> = rounds.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn routing_fill_pass_tops_up_single_chip_tails() {
        let batches = vec![batch(0, 0), batch(1, 0), batch(2, 0)];
        let rounds = route_rounds(&batches, 2, |_| 7);
        assert_eq!(rounds, vec![vec![0, 1], vec![2]]);
    }
}
