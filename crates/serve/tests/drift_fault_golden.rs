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

use oxbar_nn::synthetic::{self, small_network};
use oxbar_serve::request::request_seed;
use oxbar_serve::{
    catalog, BatchPolicy, ChipHealth, FaultPlan, InferRequest, ModelId, ModelSpec, PlacementPolicy,
    ServeConfig, ServeEngine,
};
use oxbar_sim::{DeviceExecutor, SimConfig};
use oxbar_units::Time;
use std::collections::BTreeMap;
use ChipHealth::{Degraded, Failed, Healthy};

/// The aging rate `drift_recal.rs` uses: a single-digit budget.
const AGING_TICK_SECONDS: f64 = 1e4;

/// What a trace pins.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    /// Survivors, and the FNV-1a digest of their ids and outputs in id
    /// order.
    outputs: (usize, u64),
    /// Shed request ids, ascending.
    sheds: Vec<u64>,
    /// Final chip health, by chip index.
    health: Vec<ChipHealth>,
    /// `recalibrations`, `recalibrated_tiles`, `drift_budget_breaches`,
    /// `drift_heals`, `evictions`, `migrations`, `retries`, `recoveries`.
    counters: [u64; 8],
}

/// FNV-1a over the little-endian bytes of `values`.
fn digest(values: impl IntoIterator<Item = i64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Serves `requests` — `(spec index, arrival, deadline)`, request `i`'s
/// input seeded from `(seed, i)` — in drains of `per_wave` requests.
fn observe(
    config: ServeConfig,
    specs: &[ModelSpec],
    seed: u64,
    requests: &[(usize, u64, Option<u64>)],
    per_wave: usize,
) -> Observed {
    let mut engine = ServeEngine::new(config);
    let ids: Vec<ModelId> = specs
        .iter()
        .map(|s| engine.admit(s.clone()).expect("small models admit"))
        .collect();
    let mut outputs = BTreeMap::new();
    let mut sheds = Vec::new();
    for (wave, chunk) in requests.chunks(per_wave).enumerate() {
        for (k, &(which, arrival, deadline)) in chunk.iter().enumerate() {
            let i = (wave * per_wave + k) as u64;
            engine
                .try_submit(InferRequest {
                    model: ids[which],
                    input: synthetic::activations(
                        specs[which].network.input(),
                        6,
                        request_seed(seed ^ 0xBEEF, i),
                    ),
                    arrival,
                    deadline,
                })
                .expect("valid request");
        }
        let trace = engine.drain_traced();
        for c in trace.completions {
            outputs.insert(c.id.0, c.output.data().to_vec());
        }
        sheds.extend(trace.sheds.iter().map(|s| s.id.0));
    }
    sheds.sort_unstable();
    let stats = engine.stats();
    let values = outputs
        .iter()
        .flat_map(|(&id, out)| std::iter::once(id as i64).chain(out.iter().copied()));
    Observed {
        outputs: (outputs.len(), digest(values)),
        sheds,
        health: stats.chips.iter().map(|c| c.health).collect(),
        counters: [
            stats.recalibrations,
            stats.recalibrated_tiles,
            stats.drift_budget_breaches,
            stats.drift_heals,
            stats.evictions,
            stats.migrations,
            stats.retries,
            stats.recoveries,
        ],
    }
}

/// Two random small sequential networks as the resident models.
fn random_specs(seed: u64) -> [ModelSpec; 2] {
    [
        catalog::spec_from_network(small_network(seed), seed ^ 0x11),
        catalog::spec_from_network(small_network(seed ^ 0x7F3), seed ^ 0x22),
    ]
}

/// A noisy device that ages its tiles.
fn aging_device(seed: u64) -> SimConfig {
    SimConfig::noisy(32, 16)
        .with_seed(seed)
        .with_threads(1)
        .with_drift_tick(Time::from_seconds(AGING_TICK_SECONDS))
}

/// `n` deadline-free requests at arrivals `0..n` over two models.
fn drift_requests(seed: u64, n: u64) -> Vec<(usize, u64, Option<u64>)> {
    (0..n)
        .map(|i| ((request_seed(seed, i) % 2) as usize, i, None))
        .collect()
}

/// The aging device's accuracy budget, in dispatch ticks.
fn budget(seed: u64) -> u64 {
    DeviceExecutor::new(aging_device(seed))
        .drift_budget_ticks()
        .expect("aging device has a bounded budget")
}

/// `Observed` from a pinned digest, for readable tables.
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

#[test]
fn healed_and_unhealed_traces_match_the_golden() {
    let specs = random_specs(9);
    let n = 4 * (budget(9) + 1);
    let requests = drift_requests(9, n);
    let base = ServeConfig::new(aging_device(9)).with_policy(BatchPolicy::SINGLE);
    let healed = observe(base.clone(), &specs, 9, &requests, 1);
    assert_eq!(
        healed,
        pinned(
            (20, 1192119129960734175),
            &[],
            &[Healthy],
            [6, 27, 6, 6, 0, 0, 0, 0]
        ),
        "healed"
    );
    let unhealed = observe(base.with_recalibration(false), &specs, 9, &requests, 1);
    assert_eq!(
        unhealed,
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
    let specs = random_specs(4);
    let config = ServeConfig::new(aging_device(4))
        .with_policy(BatchPolicy::SINGLE)
        .with_chips(vec![200_000; 3])
        .with_placement(PlacementPolicy::Replicated(2))
        .with_faults(FaultPlan::new().kill_chip(9, 0))
        .with_workers(1);
    let run = observe(config, &specs, 4, &drift_requests(4, 24), 2);
    assert_eq!(
        run,
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
    let specs = random_specs(7);
    let budget = budget(7);
    let config = ServeConfig::new(aging_device(7))
        .with_policy(BatchPolicy::SINGLE)
        .with_chips(vec![200_000; 2])
        .with_placement(PlacementPolicy::FirstFit)
        .with_faults(FaultPlan::new().kill_chip(budget + 2, 0));
    let n = 4 * (budget + 2);
    let run = observe(config, &specs, 7, &drift_requests(7, n), 1);
    assert_eq!(
        run,
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
    let specs = random_specs(seed);
    let device = SimConfig::ideal(32, 16).with_seed(seed).with_threads(1);
    let config = ServeConfig::new(device)
        .with_policy(BatchPolicy::new(1 + (seed % 3) as usize, seed % 5))
        .with_chips(vec![200_000; 3])
        .with_placement(PlacementPolicy::Replicated(2))
        .with_faults(FaultPlan::new().kill_chip(seed % 6, (seed % 3) as usize))
        .with_workers(workers);
    let requests: Vec<_> = (0..10u64)
        .map(|i| {
            let arrival = i / 2;
            let tight = request_seed(seed ^ 0xD1E, i).is_multiple_of(3);
            (
                (request_seed(seed, i) % 2) as usize,
                arrival,
                tight.then_some(arrival + 1),
            )
        })
        .collect();
    observe(config, &specs, seed, &requests, requests.len())
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
