//! The one seeded scenario runner and invariant checker every suite in
//! this binary shares.
//!
//! [`serve`] plays a trace of [`Op`]s through a fresh engine and records
//! what a client could observe, keyed by what each request asked for
//! ([`Ask`]), so runs at different worker counts, or with and without
//! faults, compare request by request. [`Scenario::draw`] generates a
//! random trace and cluster; [`Scenario::check`] runs it at 1–4 workers
//! and asserts the invariants that hold there.

use oxbar_nn::synthetic::{self, small_network};
use oxbar_serve::request::request_seed;
use oxbar_serve::ChipHealth::Failed;
use oxbar_serve::{
    catalog, BatchPolicy, Completion, EngineStats, FaultPlan, InferRequest, ModelId, ModelSpec,
    PlacementPolicy, ServeConfig, ServeEngine,
};
use oxbar_sim::{DeviceExecutor, SimConfig};
use oxbar_units::Time;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::BTreeMap;

/// A per-tick aging rate that gives the noisy device a single-digit
/// accuracy budget (measured: 4 ticks), so short traces cross it.
const AGING_TICK_SECONDS: f64 = 1e4;

/// A noisy 32×16 device that ages its tiles.
pub fn aging_device(seed: u64) -> SimConfig {
    SimConfig::noisy(32, 16)
        .with_seed(seed)
        .with_threads(1)
        .with_drift_tick(Time::from_seconds(AGING_TICK_SECONDS))
}

/// The aging device's accuracy budget, in dispatch ticks.
pub fn drift_budget(seed: u64) -> u64 {
    DeviceExecutor::new(aging_device(seed))
        .drift_budget_ticks()
        .expect("aging device has a bounded budget")
}

/// Two random small sequential networks as the resident models.
pub fn random_specs(seed: u64) -> Vec<ModelSpec> {
    vec![
        catalog::spec_from_network(small_network(seed), seed ^ 0x11),
        catalog::spec_from_network(small_network(seed ^ 0x7F3), seed ^ 0x22),
    ]
}

/// One step of a trace.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// An inference on model `model` (an index into the scenario's
    /// specs). The `i`-th inference of a trace carries the input seeded
    /// from `(seed, i)`.
    Infer {
        model: usize,
        arrival: u64,
        deadline: Option<u64>,
    },
    /// A sequence of `steps` decode steps from `prompt`, the first at
    /// `arrival` and each later one a tick after the previous completes.
    Generate {
        model: usize,
        prompt: u32,
        steps: usize,
        arrival: u64,
    },
    /// Drain the engine to idle (a trace also drains at its end).
    Drain,
}

/// `n` inferences, the `i`-th on model `request_seed(seed, i) % models`
/// at `arrival(i)` with `deadline(i, arrival)`.
pub fn infers(
    seed: u64,
    n: u64,
    models: usize,
    arrival: impl Fn(u64) -> u64,
    deadline: impl Fn(u64, u64) -> Option<u64>,
) -> Vec<Op> {
    (0..n)
        .map(|i| Op::Infer {
            model: (request_seed(seed, i) % models as u64) as usize,
            arrival: arrival(i),
            deadline: deadline(i, arrival(i)),
        })
        .collect()
}

/// `ops` with a drain after every `per_drain` of them.
pub fn in_drains(ops: &[Op], per_drain: usize) -> Vec<Op> {
    ops.chunks(per_drain)
        .flat_map(|chunk| chunk.iter().copied().chain([Op::Drain]))
        .collect()
}

/// What a request asked for: the `i`-th inference of the trace, or
/// decode step `t` of the `s`-th sequence. Request ids of token steps
/// depend on when earlier steps completed; these keys do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ask {
    Infer(u64),
    Step(u64, usize),
}

/// Everything one run observed.
#[derive(Debug)]
pub struct Run {
    /// Every completion, drain after drain.
    pub completions: Vec<Completion>,
    /// Survivors' outputs (logits, for a token step).
    pub outputs: BTreeMap<Ask, Vec<i64>>,
    /// Shed requests and the detail of each notice.
    pub sheds: BTreeMap<Ask, String>,
    /// Per sequence, every token it emitted.
    pub tokens: Vec<Vec<u32>>,
    pub stats: EngineStats,
}

impl Run {
    /// Survivors' inference outputs, by inference index.
    pub fn inferred(&self) -> BTreeMap<u64, &[i64]> {
        self.outputs
            .iter()
            .filter_map(|(ask, out)| match ask {
                Ask::Infer(i) => Some((*i, out.as_slice())),
                Ask::Step(..) => None,
            })
            .collect()
    }

    /// Shed inference indices, ascending.
    pub fn shed_infers(&self) -> Vec<u64> {
        self.sheds
            .keys()
            .filter_map(|ask| match ask {
                Ask::Infer(i) => Some(*i),
                Ask::Step(..) => None,
            })
            .collect()
    }

    /// Final chip health, by chip index.
    pub fn health(&self) -> Vec<oxbar_serve::ChipHealth> {
        self.stats.chips.iter().map(|c| c.health).collect()
    }

    /// `recalibrations`, `recalibrated_tiles`, `drift_budget_breaches`,
    /// `drift_heals`.
    pub fn drift(&self) -> [u64; 4] {
        let s = &self.stats;
        [
            s.recalibrations,
            s.recalibrated_tiles,
            s.drift_budget_breaches,
            s.drift_heals,
        ]
    }

    /// The stats with the one wall-clock field zeroed.
    pub fn stats_without_wall_clock(&self) -> EngineStats {
        EngineStats {
            recovery_ms: 0.0,
            ..self.stats.clone()
        }
    }
}

/// Plays `ops` through a fresh engine built from `config` with `specs`
/// admitted in order; inference inputs derive from `seed`.
pub fn serve(config: ServeConfig, specs: &[ModelSpec], seed: u64, ops: &[Op]) -> Run {
    let mut engine = ServeEngine::new(config);
    let models: Vec<ModelId> = specs
        .iter()
        .map(|s| engine.admit(s.clone()).expect("scenario models admit"))
        .collect();
    let mut infer_of = BTreeMap::new();
    let mut sequences = Vec::new();
    let mut run = Run {
        completions: Vec::new(),
        outputs: BTreeMap::new(),
        sheds: BTreeMap::new(),
        tokens: Vec::new(),
        stats: engine.stats(),
    };
    for &op in ops.iter().chain([&Op::Drain]) {
        match op {
            Op::Infer {
                model,
                arrival,
                deadline,
            } => {
                let i = infer_of.len() as u64;
                let input = synthetic::activations(
                    specs[model].network.input(),
                    6,
                    request_seed(seed ^ 0xBEEF, i),
                );
                let request = InferRequest {
                    model: models[model],
                    input,
                    arrival,
                    deadline,
                };
                let id = engine
                    .try_submit(request)
                    .expect("trace requests are valid");
                infer_of.insert(id, i);
            }
            Op::Generate {
                model,
                prompt,
                steps,
                arrival,
            } => sequences.push(
                engine
                    .begin_sequence(models[model], prompt, steps, arrival, 1)
                    .expect("trace sequences are valid"),
            ),
            Op::Drain if engine.queued() > 0 => {
                let trace = engine.drain_traced();
                for c in trace.completions {
                    let ask = match &c.sequence {
                        Some(t) => Ask::Step(t.sequence.0, t.step),
                        None => Ask::Infer(infer_of[&c.id]),
                    };
                    run.outputs.insert(ask, c.output.data().to_vec());
                    run.completions.push(c);
                }
                for shed in trace.sheds {
                    let ask = match shed.sequence {
                        Some(s) => Ask::Step(s.0, engine.sequence_tokens(s).len()),
                        None => Ask::Infer(infer_of[&shed.id]),
                    };
                    run.sheds.insert(ask, shed.detail);
                }
            }
            Op::Drain => {}
        }
    }
    run.tokens = sequences
        .iter()
        .map(|&s| engine.sequence_tokens(s).to_vec())
        .collect();
    run.stats = engine.stats();
    run
}

/// One random trace on one random cluster.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Seeds the draws and the inference inputs.
    pub seed: u64,
    pub specs: Vec<ModelSpec>,
    pub config: ServeConfig,
    pub ops: Vec<Op>,
}

impl Scenario {
    /// The CNN fault mix: 2–4 copies of one small network (own filter
    /// seeds) on 2–4 ideal chips, 1–3 kills, any placement, roomy
    /// budgets or budgets of one model per chip, prewarm on or off, and
    /// 8–16 inferences two per tick, a quarter due a tick after arrival.
    pub fn fault_mix(seed: u64) -> Self {
        let draw = |k: u64| request_seed(seed ^ 0xFA17, k);
        let device = SimConfig::ideal(32, 16).with_seed(seed).with_threads(1);
        let network = small_network(seed);
        let footprint = DeviceExecutor::new(device.clone()).model_footprint_cells(&network);
        let specs: Vec<ModelSpec> = (0..2 + draw(1) % 3)
            .map(|m| catalog::spec_from_network(network.clone(), 100 + m))
            .collect();
        let chips = 2 + (draw(2) % 3) as usize;
        let n = 8 + draw(3) % 9;
        let mut plan = FaultPlan::new();
        for k in 0..1 + draw(4) % 3 {
            plan = plan.kill_chip(draw(10 + k) % n, (draw(20 + k) % chips as u64) as usize);
        }
        let placement = [
            PlacementPolicy::FirstFit,
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::Replicated(2),
        ][(draw(7) % 3) as usize];
        let budget = if draw(8).is_multiple_of(2) {
            footprint
        } else {
            200_000
        };
        let config = ServeConfig::new(device)
            .with_policy(BatchPolicy::new(1 + (draw(9) % 3) as usize, draw(60) % 4))
            .with_chips(vec![budget; chips])
            .with_placement(placement)
            .with_prewarm(draw(61).is_multiple_of(2))
            .with_faults(plan);
        let ops = (0..n)
            .map(|i| Op::Infer {
                model: (draw(100 + i) % specs.len() as u64) as usize,
                arrival: i / 2,
                deadline: draw(200 + i).is_multiple_of(4).then_some(i / 2 + 1),
            })
            .collect();
        Self {
            seed,
            specs,
            config,
            ops,
        }
    }

    /// The generator: a [`Self::fault_mix`] on an ideal, noisy, or noisy
    /// and aging device, with `llm_tiny` sequences half the time, spread
    /// over 1–3 drains.
    pub fn draw(seed: u64) -> Self {
        let draw = |k: u64| request_seed(seed ^ 0x5CE7, k);
        let mut s = Self::fault_mix(seed);
        match draw(0) % 3 {
            0 => {}
            1 => s.config.device = SimConfig::noisy(32, 16).with_seed(seed).with_threads(1),
            _ => s.config.device = aging_device(seed),
        }
        if draw(1).is_multiple_of(2) {
            s.specs.push(catalog::llm_tiny());
            for k in 0..1 + draw(2) % 2 {
                let at = (draw(10 + k) % (s.ops.len() as u64 + 1)) as usize;
                let generate = Op::Generate {
                    model: s.specs.len() - 1,
                    prompt: (draw(20 + k) % 32) as u32,
                    steps: 2 + (draw(30 + k) % 3) as usize,
                    arrival: draw(40 + k) % 4,
                };
                s.ops.insert(at, generate);
            }
        }
        let drains = 1 + draw(3) % 3;
        s.ops = in_drains(&s.ops, s.ops.len().div_ceil(drains as usize));
        s
    }

    /// Plays the trace through the scenario's cluster, edited by `edit`.
    pub fn run(&self, edit: impl FnOnce(ServeConfig) -> ServeConfig) -> Run {
        serve(edit(self.config.clone()), &self.specs, self.seed, &self.ops)
    }

    /// Runs the scenario at 1–4 workers and asserts:
    ///
    /// - **every trace:** every inference completes or sheds, never
    ///   both; every sequence ends `done` or shed; per-chip counters
    ///   reconcile with the totals; no shed says "refused"; the shed
    ///   set is the same at every worker count;
    /// - **roomy budgets** (every chip could hold every model): retries,
    ///   sheds, recoveries, evictions and migrations are the same at every
    ///   worker count, and so is occupancy unless prewarm could fill a
    ///   chip no batch then runs on;
    /// - **without aging:** every survivor answers what the fault-free
    ///   one-worker run answers, every sequence emits a prefix of its
    ///   tokens there, the drift machinery stays idle, and the stats are
    ///   identical with recalibration on or off;
    /// - **aging, roomy budgets, prewarm off:** tokens, final health and
    ///   the four drift counters are the same at every worker count, and
    ///   so are the outputs when no run recovered a model.
    ///
    /// Tight budgets are enforced once per round, so the round width moves
    /// evictions and migrations, and with them the tiles that reprogram
    /// fresh; aging outcomes then differ too.
    pub fn check(&self) -> Result<(), TestCaseError> {
        let ctx = |w: usize| format!("seed {} at {w} workers", self.seed);
        let device = DeviceExecutor::new(self.config.device.clone());
        let aging = device.drift_budget_ticks().is_some();
        let replicas = match self.config.placement {
            PlacementPolicy::Replicated(k) => k.max(1),
            _ => 1,
        };
        let all: usize = self
            .specs
            .iter()
            .map(|s| device.model_footprint_cells(&s.network) * replicas)
            .sum();
        let roomy = self
            .config
            .effective_chip_budgets()
            .iter()
            .all(|&b| b >= all);
        let runs: Vec<Run> = (1..=4).map(|w| self.run(|c| c.with_workers(w))).collect();
        let one = &runs[0];
        let infers = self.ops.iter().filter(|op| matches!(op, Op::Infer { .. }));
        let infers = infers.count() as u64;
        for (w, run) in (1..).zip(&runs) {
            let ctx = ctx(w);
            for i in 0..infers {
                let (done, shed) = (&run.outputs, &run.sheds);
                let ask = Ask::Infer(i);
                prop_assert!(
                    done.contains_key(&ask) != shed.contains_key(&ask),
                    "{ctx}: inference {i} must complete or shed"
                );
            }
            for (s, tokens) in (0..).zip(&run.tokens) {
                let done = run.completions.iter().any(|c| {
                    c.sequence
                        .as_ref()
                        .is_some_and(|t| t.sequence.0 == s && t.done)
                });
                let shed = run.sheds.contains_key(&Ask::Step(s, tokens.len()));
                prop_assert!(done != shed, "{ctx}: sequence {s} must end done or shed");
            }
            prop_assert!(run.outputs.keys().all(|a| !run.sheds.contains_key(a)));
            for detail in run.sheds.values() {
                prop_assert!(!detail.contains("refused"), "{ctx}: {detail}");
            }
            let st = &run.stats;
            let chip_sum =
                |f: fn(&oxbar_serve::ChipStats) -> u64| st.chips.iter().map(f).sum::<u64>();
            prop_assert_eq!(chip_sum(|c| c.retries), st.retries);
            prop_assert_eq!(chip_sum(|c| c.sheds), st.sheds);
            prop_assert_eq!(st.sheds, run.sheds.len() as u64);
            prop_assert_eq!(st.requests, run.completions.len() as u64);
            prop_assert_eq!(
                st.tokens,
                run.tokens.iter().map(Vec::len).sum::<usize>() as u64
            );
            let keys = |r: &Run| r.sheds.keys().copied().collect::<Vec<_>>();
            prop_assert!(keys(run) == keys(one), "{ctx}: shed set moved");
            if roomy {
                let faults = |r: &Run| {
                    let s = &r.stats;
                    (s.retries, s.sheds, s.recoveries, s.evictions, s.migrations)
                };
                prop_assert!(faults(run) == faults(one), "{ctx}: fault counters moved");
                // Whether a prewarm ran depends on the round width, and
                // it can fill a chip no batch then runs on: an idle
                // replica's primary, or a chip that dies.
                let cells = |r: &Run| r.stats.occupancy_cells;
                let idle_warm =
                    self.config.prewarm && (replicas > 1 || one.health().contains(&Failed));
                prop_assert!(idle_warm || cells(run) == cells(one), "{ctx}: occupancy");
            }
            if aging && roomy && !self.config.prewarm {
                prop_assert!(run.tokens == one.tokens, "{ctx}: tokens moved");
                prop_assert!(run.health() == one.health(), "{ctx}: health moved");
                prop_assert!(run.drift() == one.drift(), "{ctx}: drift counters moved");
                if run.stats.recoveries + one.stats.recoveries == 0 {
                    prop_assert!(run.outputs == one.outputs, "{ctx}: outputs moved");
                }
            }
        }
        if !aging {
            let oracle = self.run(|c| c.with_workers(1).with_faults(FaultPlan::new()));
            prop_assert!(oracle.sheds.is_empty(), "no faults, nothing sheds");
            for (w, run) in (1..).zip(&runs) {
                let ctx = ctx(w);
                for (ask, output) in &run.outputs {
                    let want = oracle.outputs.get(ask);
                    prop_assert!(
                        Some(output) == want,
                        "{ctx}: {ask:?} differs from the oracle"
                    );
                }
                for (got, want) in run.tokens.iter().zip(&oracle.tokens) {
                    prop_assert!(
                        want.starts_with(got),
                        "{ctx}: tokens differ from the oracle"
                    );
                }
                prop_assert_eq!(run.drift(), [0; 4]);
                prop_assert_eq!(run.stats.stage_panics, 0);
                let off = self.run(|c| c.with_workers(w).with_recalibration(false));
                prop_assert!(
                    off.stats_without_wall_clock() == run.stats_without_wall_clock()
                        && off.outputs == run.outputs,
                    "{ctx}: recalibration off changed the run"
                );
            }
        }
        Ok(())
    }
}
