//! Pins the serving engine's drift and fault decisions to recorded
//! values, on traces that age tiles past the accuracy budget,
//! recalibrate them, and kill chips mid-trace.
//!
//! The values were recorded while a recalibrated tile was still
//! re-derived eagerly by a stage job riding the dispatch rounds. A tile
//! marked at the drain boundary now re-derives at its next read, and the
//! traces must not notice: every survivor's output, the shed set, each
//! chip's final health and the eight drift and fault counters are pinned
//! exactly. Outputs are pinned by their count and an FNV-1a digest.
//! Cache hits and misses are deliberately not pinned: they count work
//! (when a marked tile is re-derived), not decisions.
//!
//! - **Healed / unhealed:** one aging chip, one request per drain,
//!   recalibration on and off.
//! - **Recal racing a kill:** three aging chips, models replicated
//!   twice, chip 0 killed at dispatch 9.
//! - **Recal on a dead chip:** two aging chips, the only serving chip
//!   killed right after the budget is first breached.
//! - **Kill with tight deadlines:** three ideal chips, models replicated
//!   twice, one kill, a third of the requests due one tick after they
//!   arrive; at one and three workers.

use crate::runner::{aging_device, drift_budget, in_drains, infers, random_specs, serve, Run};
use oxbar_serve::request::request_seed;
use oxbar_serve::ChipHealth::{self, Degraded, Failed, Healthy};
use oxbar_serve::{BatchPolicy, FaultPlan, PlacementPolicy, ServeConfig};
use oxbar_sim::SimConfig;

/// What a trace pins.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// Survivors, and the FNV-1a digest of their indices and outputs in
    /// index order.
    outputs: (usize, u64),
    /// Shed inference indices, ascending.
    sheds: Vec<u64>,
    /// Final chip health, by chip index.
    health: Vec<ChipHealth>,
    /// `recalibrations`, `recalibrated_tiles`, `drift_budget_breaches`,
    /// `drift_heals`, `evictions`, `migrations`, `retries`, `recoveries`.
    counters: [u64; 8],
}

/// The pinned view of a run.
fn observed(run: &Run) -> Observed {
    let outputs = run.inferred();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (&i, out) in &outputs {
        for v in std::iter::once(i as i64).chain(out.iter().copied()) {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    let [recals, tiles, breaches, heals] = run.drift();
    let s = &run.stats;
    Observed {
        outputs: (outputs.len(), h),
        sheds: run.shed_infers(),
        health: run.health(),
        counters: [
            recals,
            tiles,
            breaches,
            heals,
            s.evictions,
            s.migrations,
            s.retries,
            s.recoveries,
        ],
    }
}

/// `Observed` from pinned values, for readable tables.
fn pinned(
    outputs: (usize, u64),
    sheds: &[u64],
    health: &[ChipHealth],
    counters: [u64; 8],
) -> Observed {
    Observed {
        outputs,
        sheds: sheds.to_vec(),
        health: health.to_vec(),
        counters,
    }
}

/// `n` deadline-free requests at arrivals `0..n` over two models of
/// seed `seed`, in drains of `per_drain`, served by `config`.
fn aging_run(config: ServeConfig, seed: u64, n: u64, per_drain: usize) -> Observed {
    let ops = in_drains(&infers(seed, n, 2, |i| i, |_, _| None), per_drain);
    observed(&serve(config, &random_specs(seed), seed, &ops))
}

#[test]
fn healed_and_unhealed_traces_match_the_golden() {
    let n = 4 * (drift_budget(9) + 1);
    let base = ServeConfig::new(aging_device(9)).with_policy(BatchPolicy::SINGLE);
    assert_eq!(
        aging_run(base.clone(), 9, n, 1),
        pinned(
            (20, 1192119129960734175),
            &[],
            &[Healthy],
            [6, 27, 6, 6, 0, 0, 0, 0]
        ),
        "healed"
    );
    assert_eq!(
        aging_run(base.with_recalibration(false), 9, n, 1),
        pinned(
            (20, 16768247899913153132),
            &[],
            &[Degraded],
            [0, 0, 1, 0, 0, 0, 0, 0]
        ),
        "unhealed"
    );
}

#[test]
fn recal_racing_a_kill_matches_the_golden() {
    let config = ServeConfig::new(aging_device(4))
        .with_policy(BatchPolicy::SINGLE)
        .with_chips(vec![200_000; 3])
        .with_placement(PlacementPolicy::Replicated(2))
        .with_faults(FaultPlan::new().kill_chip(9, 0))
        .with_workers(1);
    assert_eq!(
        aging_run(config, 4, 24, 2),
        pinned(
            (24, 6093489138107957716),
            &[],
            &[Failed, Healthy, Healthy],
            [8, 16, 7, 6, 0, 0, 8, 0]
        )
    );
}

#[test]
fn recal_on_a_dead_chip_matches_the_golden() {
    let budget = drift_budget(7);
    let config = ServeConfig::new(aging_device(7))
        .with_policy(BatchPolicy::SINGLE)
        .with_chips(vec![200_000; 2])
        .with_placement(PlacementPolicy::FirstFit)
        .with_faults(FaultPlan::new().kill_chip(budget + 2, 0));
    assert_eq!(
        aging_run(config, 7, 4 * (budget + 2), 1),
        pinned(
            (24, 932005006320747057),
            &[],
            &[Failed, Degraded],
            [8, 28, 7, 5, 0, 0, 2, 2]
        )
    );
}

/// The kill-only replicated trace: ten requests at arrivals `i / 2`, a
/// third due one tick after arrival, on three replicated ideal chips.
fn kill_trace(seed: u64, workers: usize) -> Observed {
    let device = SimConfig::ideal(32, 16).with_seed(seed).with_threads(1);
    let config = ServeConfig::new(device)
        .with_policy(BatchPolicy::new(1 + (seed % 3) as usize, seed % 5))
        .with_chips(vec![200_000; 3])
        .with_placement(PlacementPolicy::Replicated(2))
        .with_faults(FaultPlan::new().kill_chip(seed % 6, (seed % 3) as usize))
        .with_workers(workers);
    let tight = |i: u64, arrival: u64| {
        request_seed(seed ^ 0xD1E, i)
            .is_multiple_of(3)
            .then_some(arrival + 1)
    };
    let ops = infers(seed, 10, 2, |i| i / 2, tight);
    observed(&serve(config, &random_specs(seed), seed, &ops))
}

#[test]
fn kills_with_tight_deadlines_match_the_golden() {
    for workers in [1, 3] {
        assert_eq!(
            kill_trace(0, workers),
            pinned(
                (10, 2325651172889904815),
                &[],
                &[Failed, Healthy, Healthy],
                [0, 0, 0, 0, 0, 0, 5, 0]
            ),
            "seed 0, {workers} workers"
        );
        assert_eq!(
            kill_trace(19, workers),
            pinned(
                (9, 5259467862807141789),
                &[5],
                &[Healthy, Failed, Healthy],
                [0, 0, 0, 0, 0, 0, 2, 0]
            ),
            "seed 19, {workers} workers"
        );
    }
}
