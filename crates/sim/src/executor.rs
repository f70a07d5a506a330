//! Whole-network execution through the device chain.

use crate::arena::ExecArena;
use crate::config::{tile_seed, SimConfig};
use crate::fault::{ExecError, InjectedFault};
use crate::snapshot::{ChipSnapshot, TileSnapshot};
use crate::tile::{run_tile_with, CompiledTile, MvmEngine, TileDrive};
use oxbar_core::dse::parallel_map;
use oxbar_dataflow::tiles::{TileGeometry, WeightTiles};
use oxbar_dataflow::FoldPlan;
use oxbar_electronics::accumulator::Accumulator;
use oxbar_nn::reference::{
    activate, pool_exact, requantize, FilterBank, Tensor3, UnsupportedLayer,
};
use oxbar_nn::{Conv2d, Layer, Network, TensorShape};
use oxbar_pcm::drift::DriftModel;
use oxbar_pcm::ProgramReport;
use oxbar_units::{Energy, Time};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Aggregated device statistics for one crossbar-mapped layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerStats {
    /// Fold tiles executed.
    pub tiles: usize,
    /// PCM cells written across all tiles.
    pub cells_programmed: usize,
    /// Total PCM programming energy.
    pub program_energy: Energy,
    /// Total PCM programming time (tiles programmed back to back).
    pub program_time: Time,
    /// Digital partial-sum accumulation operations.
    pub accumulator_ops: u64,
    /// Digital accumulation energy.
    pub accumulator_energy: Energy,
}

impl LayerStats {
    fn absorb(&mut self, program: &ProgramReport) {
        self.tiles += 1;
        self.cells_programmed += program.cells_programmed;
        self.program_energy += program.energy;
        self.program_time += program.time;
    }
}

/// One executed layer: its post-processing output and device statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerExecution {
    /// Layer name.
    pub name: String,
    /// Requantization shift applied after the layer (0 for pools).
    pub shift: u32,
    /// The layer's output tensor (after activation and requantization).
    pub output: Tensor3,
    /// Device statistics; `None` for digital layers (pooling).
    pub stats: Option<LayerStats>,
}

/// A completed device-level forward pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceForward {
    /// The network's final output tensor.
    pub output: Tensor3,
    /// Per-layer records in execution order.
    pub layers: Vec<LayerExecution>,
}

/// Executes whole quantized networks through the physical device chain:
/// fold/tile planning → PCM programming → field-level photonic MVM →
/// TIA/ADC readout → digital accumulation, pooling, and requantization.
///
/// In [`SimConfig::ideal`] mode the result is bit-for-bit identical to
/// [`oxbar_nn::reference::Executor`]; with noise enabled the deviation is
/// what the fidelity report quantifies.
///
/// # Examples
///
/// ```
/// use oxbar_nn::synthetic;
/// use oxbar_nn::zoo::lenet5;
/// use oxbar_sim::{DeviceExecutor, SimConfig};
///
/// let net = lenet5();
/// let input = synthetic::activations(net.input(), 6, 1);
/// let filters = synthetic::filter_banks(&net, 6, 2);
/// let exec = DeviceExecutor::new(SimConfig::ideal(128, 128));
/// let forward = exec.forward(&net, &input, &filters).unwrap();
/// assert_eq!(forward.output.shape().elements(), 10);
/// ```
#[derive(Debug)]
pub struct DeviceExecutor {
    config: SimConfig,
    engine: MvmEngine,
    /// Weight-stationary cache of programmed + compiled tiles, keyed by
    /// `(layer index, tile index)` and validated against the tile's exact
    /// weights on every hit. Mirrors the hardware: a programmed PCM tile
    /// serves many pixel batches and images without reprogramming. Entries
    /// are deterministic functions of `(config, seed, layer, tile,
    /// weights)`, so caching never changes results — only work.
    cache: Mutex<TileCache>,
    /// Signaled whenever an in-flight tile compile finishes, waking any
    /// worker blocked on the same key in [`Self::compiled_tile`].
    compile_done: Condvar,
    /// Cells of compiled state the cache may hold.
    cache_budget: usize,
    /// Pool of reusable execution arenas: checked out per tile job, which
    /// returns it once the tile's partials are in the accumulator lanes
    /// (and once per layer for those lanes). Arenas carry scratch space
    /// only, never results, so pooling cannot change outputs — it removes
    /// the heap allocator from the warm serving path.
    arenas: Mutex<Vec<ExecArena>>,
    /// Injected fault state (see [`crate::fault`]). Faults gate *forward
    /// execution* only: a killed chip's non-volatile programmed state is
    /// still snapshot-readable, which is what recovery relies on.
    fault: Mutex<FaultState>,
    /// The executor's virtual clock, in scheduler dispatch ticks. Serving
    /// engines advance it at round boundaries (single-threaded, from the
    /// global dispatch counter — never wall clock), which makes tile age,
    /// drifted readouts, and recalibration decisions deterministic
    /// functions of the workload.
    clock: AtomicU64,
}

/// The executor's current injected-fault condition.
#[derive(Debug, Default)]
struct FaultState {
    /// Control plane down: every `try_forward` returns
    /// [`ExecError::ChipFailed`].
    killed: bool,
    /// Drift-degraded: execution still succeeds; schedulers read this
    /// through [`DeviceExecutor::is_degraded`].
    degraded: bool,
    /// Armed one-shot transient `(layer, tile)`: consumed by the next
    /// `try_forward`, which fails once with [`ExecError::TileFault`].
    transient: Option<(usize, usize)>,
}

/// Cells of compiled tile state the cache may hold (bounds memory on
/// networks whose layers are far larger than the reuse window).
const TILE_CACHE_CELL_BUDGET: usize = 4_000_000;

/// Adder width of the digital partial-sum accumulator (bits).
const ACCUMULATOR_BITS: u8 = 48;

/// Windows per execute call below which a batch's inputs share one call:
/// the MVM kernel's block width
/// ([`oxbar_photonics::transfer::CompiledCrossbar::run_normalized_batch_with`]
/// loads each gain row once per four windows, and runs fewer one by one).
const MERGE_BELOW_WINDOWS: usize = 4;

/// Upper bound on the windows of one shared execute call.
const MAX_MERGED_WINDOWS: usize = 64;

/// Seed-index base for dynamic (uncached) MVM stages: a dynamic stage `s`
/// seeds its tiles as layer `DYNAMIC_STAGE_BASE + s`, far above any real
/// network's layer count, so dynamic-path device noise can never collide
/// with a static layer's per-tile noise streams.
const DYNAMIC_STAGE_BASE: usize = 1 << 20;

/// A snapshot of the weight-stationary tile cache's performance counters.
///
/// Hits are tile lookups served from an already programmed + compiled
/// tile (the weight-stationary fast path); misses had to program the PCM
/// array and compile the transfer matrix. A forward looks each tile up
/// once for its whole batch ([`DeviceExecutor::try_forward_batch`]), so a
/// batch of *n* counts one hit or miss per tile, not *n*. Counters
/// accumulate from executor creation (or the last
/// [`DeviceExecutor::clear_cache`], which resets occupancy but *not* the
/// counters — eviction under a serving budget is itself a cache event
/// worth measuring).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Tile lookups served from the cache.
    pub hits: u64,
    /// Tile lookups that had to program + compile.
    pub misses: u64,
    /// Compiled tiles currently held.
    pub entries: usize,
    /// Crossbar cells currently held (`Σ rows × physical cols`).
    pub cells: usize,
    /// The cell budget the cache admits entries against.
    pub budget: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 for an unused cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident tile's programming age and projected drift error, as
/// reported by [`DeviceExecutor::tile_ages`] — the observability surface a
/// serving scheduler ranks recalibration candidates with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileDriftInfo {
    /// Layer index of the tile.
    pub layer: usize,
    /// Tile index within the layer.
    pub tile: usize,
    /// Dispatch ticks since the tile's PCM array was last programmed.
    pub age_ticks: u64,
    /// Worst-case transmission slip (full-scale fraction) at this age,
    /// relative to the baseline programming, across the device's levels.
    pub projected_slip: f64,
}

/// Rebuilds a geometry-less [`oxbar_dataflow::tiles::WeightTile`] from
/// stored column-major codes
/// — only the codes matter for recompilation (snapshot restore and
/// in-place recalibration both re-derive compiled state this way).
fn weight_tile_from_codes(values: &[i8], rows: usize) -> oxbar_dataflow::tiles::WeightTile {
    let cols = values.len().checked_div(rows).unwrap_or(0);
    let values: Vec<Vec<i8>> = (0..rows)
        .map(|r| (0..cols).map(|c| values[c * rows + r]).collect())
        .collect();
    oxbar_dataflow::tiles::WeightTile {
        group: 0,
        row_fold: 0,
        col_fold: 0,
        row_offset: 0,
        col_offset: 0,
        values,
    }
}

#[derive(Debug, Default)]
struct TileCache {
    /// Keyed by `(layer index, tile index)`.
    tiles: HashMap<(usize, usize), Arc<CompiledTile>>,
    /// Keys some thread is compiling right now. Concurrent executions of
    /// the same network single-flight their compiles through this set:
    /// the first thread to miss programs the tile, everyone else waits on
    /// [`DeviceExecutor::compile_done`] and then takes the hit path. One
    /// missing tile is exactly one miss however many workers want it.
    in_flight: HashSet<(usize, usize)>,
    /// Programming-age records for resident tiles, maintained in lockstep
    /// with `tiles` (only populated while aging is active). A tile whose
    /// `derived_age` lags the clock re-derives its drifted transmissions
    /// (same seed stream, later elapsed) before the next execution.
    ages: HashMap<(usize, usize), TileAge>,
    cells: usize,
    hits: u64,
    misses: u64,
}

/// Programming age of one resident tile, in virtual dispatch ticks.
#[derive(Debug, Clone, Copy)]
struct TileAge {
    /// Clock value when the tile's PCM array was last (re)programmed.
    programmed_at: u64,
    /// The age the cached compiled state's transmissions were derived at;
    /// lags `clock − programmed_at` until the next aged re-derivation.
    derived_age: u64,
}

impl Clone for DeviceExecutor {
    /// Clones the configuration; the clone starts with an empty tile
    /// cache (entries are re-derived on demand, identically).
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            engine: self.engine,
            cache: Mutex::new(TileCache::default()),
            compile_done: Condvar::new(),
            cache_budget: self.cache_budget,
            arenas: Mutex::new(Vec::new()),
            // A clone is fresh hardware: injected faults do not follow it.
            fault: Mutex::new(FaultState::default()),
            clock: AtomicU64::new(0),
        }
    }
}

impl DeviceExecutor {
    /// Creates an executor for the given configuration on the default
    /// (compiled transfer-matrix) MVM engine.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Self {
            config,
            engine: MvmEngine::default(),
            cache: Mutex::new(TileCache::default()),
            compile_done: Condvar::new(),
            cache_budget: TILE_CACHE_CELL_BUDGET,
            arenas: Mutex::new(Vec::new()),
            fault: Mutex::new(FaultState::default()),
            clock: AtomicU64::new(0),
        }
    }

    /// Applies one injected fault (see [`crate::fault`]): `Kill` refuses
    /// all further forward execution, `TileTransient` arms a one-shot
    /// failure consumed by the next [`Self::try_forward`], and `Drift`
    /// marks the chip degraded without changing results.
    ///
    /// # Panics
    ///
    /// Panics if the fault mutex was poisoned.
    pub fn inject_fault(&self, fault: InjectedFault) {
        let mut state = self.fault.lock().expect("fault state");
        match fault {
            InjectedFault::Kill => state.killed = true,
            InjectedFault::TileTransient { layer, tile } => {
                state.transient = Some((layer, tile));
            }
            InjectedFault::Drift => state.degraded = true,
        }
    }

    /// Whether the chip's control plane has been killed (every
    /// [`Self::try_forward`] returns [`ExecError::ChipFailed`]). The
    /// programmed array state stays snapshot-readable regardless.
    ///
    /// # Panics
    ///
    /// Panics if the fault mutex was poisoned.
    #[must_use]
    pub fn is_failed(&self) -> bool {
        self.fault.lock().expect("fault state").killed
    }

    /// Whether the chip is marked drift-degraded (results unchanged;
    /// schedulers should prefer healthy replicas).
    ///
    /// # Panics
    ///
    /// Panics if the fault mutex was poisoned.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.fault.lock().expect("fault state").degraded
    }

    /// [`Self::try_forward_batch`] for one input.
    ///
    /// # Errors
    ///
    /// See [`Self::try_forward_batch`].
    ///
    /// # Panics
    ///
    /// See [`Self::try_forward_batch`].
    pub fn try_forward(
        &self,
        network: &Network,
        input: &Tensor3,
        filters: &[FilterBank],
    ) -> Result<DeviceForward, ExecError> {
        self.try_forward_batch(network, &[input], filters).map(only)
    }

    /// Runs a batch of inputs through the network **batch-major**: layer
    /// by layer, each tile is resolved once for the whole batch (one
    /// cache lookup, so a tile that does not fit the cell budget is
    /// programmed once per batch, not once per input) and every input's
    /// windows are driven through it. Each result is byte-identical to a
    /// [`Self::forward`] of that input alone, [`LayerStats`] included.
    ///
    /// The injected-fault surface applies once per call: a killed chip
    /// returns [`ExecError::ChipFailed`] (never executes), an armed
    /// one-shot transient is consumed and returned as
    /// [`ExecError::TileFault`] (an immediate retry succeeds,
    /// byte-identically), and model-level refusals surface as
    /// [`ExecError::Unsupported`].
    ///
    /// # Errors
    ///
    /// See above — every failure mode is a structured [`ExecError`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::forward`] (mismatched
    /// filters or input), and if the fault mutex was poisoned.
    ///
    /// # Examples
    ///
    /// ```
    /// use oxbar_nn::synthetic;
    /// use oxbar_nn::zoo::lenet5;
    /// use oxbar_sim::{DeviceExecutor, SimConfig};
    ///
    /// let net = lenet5();
    /// let filters = synthetic::filter_banks(&net, 6, 2);
    /// let images: Vec<_> = (0..3)
    ///     .map(|seed| synthetic::activations(net.input(), 6, seed))
    ///     .collect();
    /// let exec = DeviceExecutor::new(SimConfig::noisy(128, 128)).with_cache_budget(0);
    /// let batch: Vec<_> = images.iter().collect();
    /// let forwards = exec.try_forward_batch(&net, &batch, &filters).unwrap();
    /// // With no cell budget every tile is programmed, once for the batch.
    /// let programmed = exec.cache_stats().misses;
    /// for (image, forward) in images.iter().zip(&forwards) {
    ///     assert_eq!(forward, &exec.forward(&net, image, &filters).unwrap());
    /// }
    /// assert_eq!(exec.cache_stats().misses, 4 * programmed);
    /// ```
    pub fn try_forward_batch(
        &self,
        network: &Network,
        inputs: &[&Tensor3],
        filters: &[FilterBank],
    ) -> Result<Vec<DeviceForward>, ExecError> {
        self.fault_gate()?;
        self.forward_batch(network, inputs, filters)
            .map_err(ExecError::Unsupported)
    }

    /// The injected-fault gate every fallible execution entry point runs
    /// through: a killed chip refuses with [`ExecError::ChipFailed`], and
    /// an armed one-shot transient is consumed and surfaced as
    /// [`ExecError::TileFault`] (an immediate retry succeeds). Exposed so
    /// multi-MVM executions (the autoregressive transformer step in
    /// `crate::llm`) can take the same fault surface between their inner
    /// MVMs, not just at step entry.
    ///
    /// # Errors
    ///
    /// Returns the injected fault, if any is active.
    ///
    /// # Panics
    ///
    /// Panics if the fault mutex was poisoned.
    pub fn fault_gate(&self) -> Result<(), ExecError> {
        let mut state = self.fault.lock().expect("fault state");
        if state.killed {
            return Err(ExecError::ChipFailed);
        }
        if let Some((layer, tile)) = state.transient.take() {
            return Err(ExecError::TileFault { layer, tile });
        }
        Ok(())
    }

    /// Checks one reusable arena out of the pool (or starts a fresh one).
    fn checkout_arena(&self) -> ExecArena {
        self.arenas
            .lock()
            .expect("arena pool")
            .pop()
            .unwrap_or_default()
    }

    /// Returns arenas to the pool for the next round.
    fn return_arenas(&self, arenas: impl IntoIterator<Item = ExecArena>) {
        self.arenas.lock().expect("arena pool").extend(arenas);
    }

    /// The compiled state for one tile: a validated cache hit (a straight
    /// slice compare against the filter bank, no tile materialization),
    /// or a fresh compile (inserted while the cell budget allows).
    ///
    /// Compiles are **single-flight**: when several workers execute the
    /// same network concurrently and miss on the same tile, exactly one
    /// programs it while the rest block on [`Self::compile_done`] and
    /// then hit — so the hit/miss counters are a deterministic function
    /// of the workload, not of thread timing, and no compile ever runs
    /// twice. (A zero-budget cache cannot retain the compiled entry; its
    /// waiters re-miss by design, matching the serial cold path.)
    fn compiled_tile(
        &self,
        layer_index: usize,
        tile_index: usize,
        tiles: &WeightTiles<'_>,
        geom: &TileGeometry,
        seed: u64,
    ) -> Arc<CompiledTile> {
        let key = (layer_index, tile_index);
        let aging = self.aging_active();
        let clock = self.clock.load(Ordering::Relaxed);
        // `None` compiles a fresh program at the baseline elapsed;
        // `Some(age)` re-derives a resident tile's drifted transmissions
        // at its current age (same codes, same seed streams).
        let mut rederive_age: Option<u64> = None;
        {
            let mut cache = self.cache.lock().expect("tile cache");
            loop {
                if cache.in_flight.contains(&key) {
                    cache = self.compile_done.wait(cache).expect("tile cache");
                    continue;
                }
                if let Some(hit) = cache.tiles.get(&key) {
                    if hit.matches_bank(tiles, geom) {
                        // The INT6 codes cannot reveal a stale drift
                        // derivation — the array state is unchanged — so
                        // staleness is tracked explicitly per key. Age is
                        // a pure function of the round clock, keeping the
                        // re-derivation (and the counters) byte-identical
                        // across worker counts.
                        let current_age = cache
                            .ages
                            .get(&key)
                            .map(|a| clock.saturating_sub(a.programmed_at));
                        let stale = aging
                            && cache
                                .ages
                                .get(&key)
                                .zip(current_age)
                                .is_some_and(|(a, current)| a.derived_age != current);
                        if !stale {
                            let hit = Arc::clone(hit);
                            cache.hits += 1;
                            return hit;
                        }
                        rederive_age = current_age;
                    }
                }
                cache.in_flight.insert(key);
                cache.misses += 1;
                break;
            }
        }
        let tile = tiles.tile(tile_index);
        let elapsed = self.aged_elapsed(rederive_age.unwrap_or(0));
        let compiled = Arc::new(CompiledTile::compile_at(&tile, &self.config, seed, elapsed));
        let cells = compiled.cells();
        let mut cache = self.cache.lock().expect("tile cache");
        cache.in_flight.remove(&key);
        if let Some(stale) = cache.tiles.remove(&key) {
            cache.cells -= stale.cells();
        }
        cache.ages.remove(&key);
        if cache.cells + cells <= self.cache_budget {
            cache.tiles.insert(key, Arc::clone(&compiled));
            cache.cells += cells;
            if aging {
                cache.ages.insert(
                    key,
                    match rederive_age {
                        Some(age) => TileAge {
                            programmed_at: clock.saturating_sub(age),
                            derived_age: age,
                        },
                        None => TileAge {
                            programmed_at: clock,
                            derived_age: 0,
                        },
                    },
                );
            }
        }
        self.compile_done.notify_all();
        compiled
    }

    /// Overrides the weight-stationary cache's cell budget (the default is
    /// 4M cells). A budget of 0 disables caching entirely: every execution
    /// reprograms and recompiles, which is the "cold" serving baseline.
    #[must_use]
    pub fn with_cache_budget(mut self, cells: usize) -> Self {
        self.cache_budget = cells;
        self
    }

    /// A snapshot of the tile cache's counters and occupancy.
    ///
    /// Hit/miss counts are exact under serial *and* parallel execution:
    /// compiles are single-flight (see [`Self::prewarm`] and the tile
    /// path), so a missing tile is one miss however many workers race to
    /// it, and the counters are a deterministic function of the workload.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache.lock().expect("tile cache");
        CacheStats {
            hits: cache.hits,
            misses: cache.misses,
            entries: cache.tiles.len(),
            cells: cache.cells,
            budget: self.cache_budget,
        }
    }

    /// Drops every cached tile (the next execution reprograms), keeping
    /// the hit/miss counters. This is the eviction primitive a serving
    /// layer uses to keep several executors under one global cell budget.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn clear_cache(&self) {
        let mut cache = self.cache.lock().expect("tile cache");
        cache.tiles.clear();
        cache.ages.clear();
        cache.cells = 0;
    }

    /// Whether tile aging is active: a drift exponent *and* a non-zero
    /// per-tick aging rate are both configured. When inactive, the clock,
    /// age records, and recalibration machinery are structurally inert —
    /// cache behavior, counters, and outputs are bit-identical to a
    /// build without them.
    fn aging_active(&self) -> bool {
        self.config.noise.drift_nu > 0.0 && self.config.noise.drift_tick.as_seconds() > 0.0
    }

    /// The physical drift elapsed for a tile `age` ticks old: the
    /// config's baseline `drift_elapsed` plus `age · drift_tick`.
    fn aged_elapsed(&self, age: u64) -> Time {
        Time::from_seconds(
            self.config.noise.drift_elapsed.as_seconds()
                + age as f64 * self.config.noise.drift_tick.as_seconds(),
        )
    }

    /// Advances the executor's virtual clock to `tick` (dispatch ticks;
    /// never rewinds). Serving engines call this at single-threaded round
    /// boundaries with the global dispatch counter, so tile ages — and
    /// everything derived from them — are deterministic functions of the
    /// workload, independent of wall clock and worker count.
    pub fn set_clock(&self, tick: u64) {
        self.clock.fetch_max(tick, Ordering::Relaxed);
    }

    /// The executor's current virtual clock, in dispatch ticks.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// The accuracy budget in dispatch ticks: the smallest analytic
    /// [`DriftModel::ticks_until_half_lsb`] across the device's
    /// programmable levels — a tile older than this may have slipped by
    /// half an LSB somewhere in its array, and a scheduler that
    /// recalibrates within it keeps every readout at fresh-program
    /// accuracy. `None` when the budget is unbounded (aging inactive, or
    /// no level can slip that far).
    #[must_use]
    pub fn drift_budget_ticks(&self) -> Option<u64> {
        if !self.aging_active() {
            return None;
        }
        let model = DriftModel::new(self.config.noise.drift_nu);
        let table = f64::from(self.config.table_max());
        let lsb = 1.0 / table;
        (0..=self.config.table_max())
            .filter_map(|code| {
                let mut cell = self.config.device();
                cell.set_crystalline_fraction(f64::from(code) / table);
                model.ticks_until_half_lsb(
                    cell,
                    lsb,
                    self.config.noise.drift_elapsed,
                    self.config.noise.drift_tick,
                )
            })
            .min()
    }

    /// Worst-case transmission slip (full-scale fraction) of a tile `age`
    /// ticks old, relative to its baseline programming: the largest
    /// drop across the device's programmable levels.
    fn projected_slip(&self, age: u64) -> f64 {
        let model = DriftModel::new(self.config.noise.drift_nu);
        let table = f64::from(self.config.table_max());
        let baseline = self.config.noise.drift_elapsed;
        let aged = self.aged_elapsed(age);
        (0..=self.config.table_max())
            .map(|code| {
                let mut cell = self.config.device();
                cell.set_crystalline_fraction(f64::from(code) / table);
                (model.transmission_after(cell, baseline) - model.transmission_after(cell, aged))
                    .max(0.0)
            })
            .fold(0.0, f64::max)
    }

    /// Per-tile programming ages and projected worst-case drift error for
    /// every resident tile, in `(layer, tile)` order. Empty when
    /// aging is inactive.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn tile_ages(&self) -> Vec<TileDriftInfo> {
        if !self.aging_active() {
            return Vec::new();
        }
        let clock = self.clock.load(Ordering::Relaxed);
        let cache = self.cache.lock().expect("tile cache");
        let mut out: Vec<TileDriftInfo> = cache
            .ages
            .iter()
            .map(|(&(layer, tile), age)| {
                let age_ticks = clock.saturating_sub(age.programmed_at);
                TileDriftInfo {
                    layer,
                    tile,
                    age_ticks,
                    projected_slip: self.projected_slip(age_ticks),
                }
            })
            .collect();
        out.sort_unstable_by_key(|info| (info.layer, info.tile));
        out
    }

    /// Reprograms a resident tile's PCM array in place at the baseline
    /// drift elapsed, resetting its programming age. Every stochastic
    /// draw (programming variation, phase errors) is a pure function of
    /// the tile seed, so the recalibrated compiled state is **bit-exact to
    /// a fresh program** — readouts return to fresh-program accuracy.
    /// Counts one cache miss (recalibration is programming work, like a
    /// prewarm). Returns 1 if the tile was reprogrammed, 0 when it is not
    /// resident.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn recalibrate_tile(&self, layer: usize, tile: usize) -> usize {
        let key = (layer, tile);
        let clock = self.clock.load(Ordering::Relaxed);
        let mut cache = self.cache.lock().expect("tile cache");
        // A key mid-compile belongs to the thread compiling it; the fresh
        // compile it is producing is already at baseline age.
        if cache.in_flight.contains(&key) {
            return 0;
        }
        let Some(resident) = cache.tiles.get(&key) else {
            return 0;
        };
        let weight_tile = weight_tile_from_codes(resident.values(), resident.value_rows());
        let seed = tile_seed(self.config.seed, layer, tile);
        let compiled = CompiledTile::compile(&weight_tile, &self.config, seed);
        cache.tiles.insert(key, Arc::new(compiled));
        cache.misses += 1;
        if self.aging_active() {
            cache.ages.insert(
                key,
                TileAge {
                    programmed_at: clock,
                    derived_age: 0,
                },
            );
        }
        1
    }

    /// The oldest resident tile's programming age, in dispatch ticks.
    /// `None` when aging is inactive or nothing is resident — the cheap
    /// probe a drift health monitor polls every round without paying for
    /// the per-tile slip projections of [`Self::tile_ages`].
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn max_tile_age(&self) -> Option<u64> {
        if !self.aging_active() {
            return None;
        }
        let clock = self.clock.load(Ordering::Relaxed);
        let cache = self.cache.lock().expect("tile cache");
        cache
            .ages
            .values()
            .map(|age| clock.saturating_sub(age.programmed_at))
            .max()
    }

    /// The deterministic half of online recalibration: resets a resident
    /// tile's programming age to the current clock without touching its
    /// compiled state. The next readout re-derives the age-0 (baseline)
    /// transmissions lazily — bit-exact to [`Self::recalibrate_tile`] — so
    /// a scheduler can commit the decision at a single-threaded boundary
    /// and hand the reprogramming work ([`Self::rederive_tile`]) to a
    /// concurrent stage without the outcome depending on when (or
    /// whether) that stage runs first. Returns 1 if the tile was marked,
    /// 0 when it has no age record.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn mark_recalibrated(&self, layer: usize, tile: usize) -> usize {
        let clock = self.clock.load(Ordering::Relaxed);
        let mut cache = self.cache.lock().expect("tile cache");
        match cache.ages.get_mut(&(layer, tile)) {
            Some(entry) => {
                entry.programmed_at = clock;
                1
            }
            None => 0,
        }
    }

    /// The work half of online recalibration: eagerly re-derives a
    /// resident tile at its current age, exactly as the next readout
    /// would lazily. Compiles run single-flight against the execution
    /// path (a key mid-compile or already current is skipped), so a stale
    /// key is re-derived exactly once — eagerly here or lazily at first
    /// read — and the cache counters stay a deterministic function of the
    /// workload. Returns 1 if the tile was re-derived, else 0.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn rederive_tile(&self, layer: usize, tile: usize) -> usize {
        if !self.aging_active() {
            return 0;
        }
        let key = (layer, tile);
        let clock = self.clock.load(Ordering::Relaxed);
        let mut cache = self.cache.lock().expect("tile cache");
        if cache.in_flight.contains(&key) {
            return 0;
        }
        let (Some(resident), Some(record)) = (cache.tiles.get(&key), cache.ages.get(&key)) else {
            return 0;
        };
        let age = clock.saturating_sub(record.programmed_at);
        if record.derived_age == age {
            return 0;
        }
        let resident = Arc::clone(resident);
        cache.in_flight.insert(key);
        drop(cache);
        let weight_tile = weight_tile_from_codes(resident.values(), resident.value_rows());
        let seed = tile_seed(self.config.seed, layer, tile);
        let compiled =
            CompiledTile::compile_at(&weight_tile, &self.config, seed, self.aged_elapsed(age));
        let mut cache = self.cache.lock().expect("tile cache");
        cache.in_flight.remove(&key);
        // Re-check residency: an eviction may have raced the compile
        // (never in the serving engine, which re-derives only at stage
        // points ordered against budget enforcement).
        let mut rederived = 0;
        if let Some(slot) = cache.tiles.get_mut(&key) {
            *slot = Arc::new(compiled);
            cache.misses += 1;
            if let Some(entry) = cache.ages.get_mut(&key) {
                entry.derived_age = age;
            }
            rederived = 1;
        }
        self.compile_done.notify_all();
        rederived
    }

    /// Clears a drift-degraded mark (see [`InjectedFault::Drift`]) —
    /// the healing half of the fault surface, taken after recalibration
    /// brings every resident tile back under the accuracy budget.
    ///
    /// # Panics
    ///
    /// Panics if the fault mutex was poisoned.
    pub fn clear_drift(&self) {
        self.fault.lock().expect("fault state").degraded = false;
    }

    /// Overrides the crossbar MVM engine (e.g. [`MvmEngine::FieldWalk`]
    /// to run every pixel through the field-propagation oracle).
    #[must_use]
    pub fn with_engine(mut self, engine: MvmEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The MVM engine in use.
    #[must_use]
    pub fn engine(&self) -> MvmEngine {
        self.engine
    }

    /// Runs a forward pass with per-conv-layer filter banks (indexed in
    /// [`Network::conv_like_layers`] order), like the reference executor.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedLayer`] for networks with residual `Add`
    /// layers (the flattened graph carries no skip wiring).
    ///
    /// # Panics
    ///
    /// Panics if `filters` does not cover every conv-like layer or the
    /// input does not match the network/activation range.
    pub fn forward(
        &self,
        network: &Network,
        input: &Tensor3,
        filters: &[FilterBank],
    ) -> Result<DeviceForward, UnsupportedLayer> {
        self.forward_batch(network, &[input], filters).map(only)
    }

    /// The batch-major forward pass behind [`Self::forward`] and
    /// [`Self::try_forward_batch`]: one [`walk_network`] over the batch,
    /// each conv-like layer one [`Self::conv_pixels_batch`].
    fn forward_batch(
        &self,
        network: &Network,
        inputs: &[&Tensor3],
        filters: &[FilterBank],
    ) -> Result<Vec<DeviceForward>, UnsupportedLayer> {
        // Per input, its mac layers' stats in execution order.
        let mut stats: Vec<Vec<LayerStats>> = vec![Vec::new(); inputs.len()];
        let walked = walk_network(
            network,
            inputs,
            self.config.activation_bits,
            |layer_idx, conv_idx, conv, conv_inputs| {
                assert!(
                    conv_idx < filters.len(),
                    "missing filter bank for `{}`",
                    conv.name
                );
                let out = conv.output_shape();
                let pixel_ids: Vec<usize> = (0..out.h * out.w).collect();
                // With every pixel present in order, each input's flat
                // slot-major values ARE its output tensor's data.
                self.conv_pixels_batch(conv, conv_inputs, &filters[conv_idx], layer_idx, &pixel_ids)
                    .into_iter()
                    .zip(&mut stats)
                    .map(|((values, layer_stats), input_stats)| {
                        input_stats.push(layer_stats);
                        Tensor3::new(out, values)
                    })
                    .collect()
            },
        )?;
        Ok(walked
            .into_iter()
            .zip(stats)
            .zip(inputs)
            .map(|((walked, stats), input)| {
                let mut stats = stats.into_iter();
                let layers: Vec<LayerExecution> = walked
                    .into_iter()
                    .map(|w| LayerExecution {
                        stats: if w.is_mac { stats.next() } else { None },
                        name: w.name,
                        shift: w.shift,
                        output: w.output,
                    })
                    .collect();
                DeviceForward {
                    output: layers
                        .last()
                        .map_or_else(|| (*input).clone(), |l| l.output.clone()),
                    layers,
                }
            })
            .collect())
    }

    /// Runs one conv-like layer at device level for a subset of output
    /// pixels, returning the raw (pre-activation, pre-requantization)
    /// accumulator values `[pixel_slot][out_channel]` plus device stats.
    ///
    /// This is the entry point for layer-probing on networks too large to
    /// execute end to end (e.g. residual nets): sampled pixels of a single
    /// layer are validated against [`oxbar_nn::reference::conv2d_exact`].
    ///
    /// # Panics
    ///
    /// Panics if the input does not match the conv spec, a pixel id is out
    /// of range, or activations exceed the configured bit range.
    #[must_use]
    pub fn conv_pixels(
        &self,
        conv: &Conv2d,
        input: &Tensor3,
        bank: &FilterBank,
        layer_index: usize,
        pixel_ids: &[usize],
    ) -> (Vec<Vec<i64>>, LayerStats) {
        let (flat, stats) = self.conv_pixels_flat(conv, input, bank, layer_index, pixel_ids);
        (
            flat.chunks_exact(conv.out_c).map(<[i64]>::to_vec).collect(),
            stats,
        )
    }

    /// [`Self::conv_pixels`] returning the accumulator values as one flat
    /// slot-major matrix (`pixel_slots × out_channels`) — the
    /// allocation-lean variant the forward pass and the serving engine
    /// run on.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`Self::conv_pixels`].
    #[must_use]
    pub fn conv_pixels_flat(
        &self,
        conv: &Conv2d,
        input: &Tensor3,
        bank: &FilterBank,
        layer_index: usize,
        pixel_ids: &[usize],
    ) -> (Vec<i64>, LayerStats) {
        only(self.conv_pixels_batch(conv, &[input], bank, layer_index, pixel_ids))
    }

    /// [`Self::conv_pixels_flat`] for a batch of inputs, tile-major: each
    /// tile job resolves its tile once ([`Self::compiled_tile`]) and
    /// drives every input's windows through it before the next tile, so
    /// at most one uncached compiled tile per worker is alive at a time.
    /// Returns one `(values, stats)` per input, each byte-identical to a
    /// lone [`Self::conv_pixels_flat`] of that input.
    fn conv_pixels_batch(
        &self,
        conv: &Conv2d,
        inputs: &[&Tensor3],
        bank: &FilterBank,
        layer_index: usize,
        pixel_ids: &[usize],
    ) -> Vec<(Vec<i64>, LayerStats)> {
        bank.check(conv);
        for input in inputs {
            assert_eq!(input.shape(), conv.input, "input shape mismatch");
            assert!(
                input.max_abs() <= self.config.v_max(),
                "activations exceed the {}-bit range",
                self.config.activation_bits
            );
        }
        let out = conv.output_shape();
        for &pid in pixel_ids {
            assert!(pid < out.h * out.w, "pixel id {pid} out of range");
        }
        if inputs.is_empty() {
            return Vec::new();
        }
        let plan = FoldPlan::plan(
            conv,
            self.config.array_rows,
            self.config.array_cols,
            self.config.mapping.columns_per_output(),
        );
        let signed: Vec<bool> = inputs
            .iter()
            .map(|input| input.data().iter().any(|&v| v < 0))
            .collect();
        let tiles = WeightTiles::new(conv, &bank.weights, &plan);
        let geoms: Vec<TileGeometry> = tiles.geometries().collect();
        // Inputs per execute call: one, unless an input drives fewer
        // windows than the MVM kernel's four-window block (dense layers:
        // one pixel, one or two passes). Those inputs share a call, so
        // the kernel blocks across the batch; capping the merged windows
        // keeps the arenas' buffers at the size a conv layer's call
        // already needs.
        let pixels = pixel_ids.len();
        let windows = pixels * if signed.contains(&true) { 2 } else { 1 };
        let per_call = if windows < MERGE_BELOW_WINDOWS {
            (MAX_MERGED_WINDOWS / windows.max(1)).max(1)
        } else {
            1
        };

        // Per-pixel partial sums reduce into raw i64 lanes (one
        // `pixels × out_channels` block per input) and saturate once at
        // extraction — identical to the per-add saturating `Accumulator`
        // for any network whose running sums stay inside the 48-bit
        // window, which the INT6 pipeline guarantees by construction
        // (|sum| ≤ filter_rows · v_max · Q « 2⁴⁷), so the order tile jobs
        // add in cannot matter. The operation count and energy are the
        // per-add figures.
        let mut acc_arena = self.checkout_arena();
        acc_arena.lanes.clear();
        acc_arena
            .lanes
            .resize(inputs.len() * pixels * conv.out_c, 0);
        let lanes = Mutex::new(&mut acc_arena.lanes);
        let out_per_group = conv.out_c_per_group();
        // Each tile job checks an arena out of the pool, builds each
        // call's im2col drive into the arena's reusable buffers, executes
        // into the arena's partials matrix and adds them to the lanes.
        // Tiles are handled by geometry — weights are only materialized
        // on a cache miss — so a warm round touches the heap only for the
        // job list itself.
        let programs: Vec<ProgramReport> =
            parallel_map(&geoms, self.config.threads, |tile_index, geom| {
                let seed = tile_seed(self.config.seed, layer_index, tile_index);
                // The oracle engine stays cache-free: it is the baseline
                // the compiled path is benchmarked and validated against.
                let compiled = (self.engine != MvmEngine::FieldWalk)
                    .then(|| self.compiled_tile(layer_index, tile_index, &tiles, geom, seed));
                let mut program = compiled.as_ref().map(|c| c.program());
                let mut arena = self.checkout_arena();
                let mut drive = std::mem::replace(&mut arena.drive, TileDrive::empty());
                let mut taps = std::mem::take(&mut arena.taps);
                let base = geom.group * out_per_group + geom.col_offset;
                for (call, (group, group_signed)) in inputs
                    .chunks(per_call)
                    .zip(signed.chunks(per_call))
                    .enumerate()
                {
                    build_drive_into(
                        geom,
                        conv,
                        group,
                        pixel_ids,
                        group_signed.contains(&true),
                        &mut taps,
                        &mut drive,
                    );
                    if let Some(compiled) = &compiled {
                        compiled.execute_into(
                            &drive,
                            &self.config,
                            self.engine == MvmEngine::Compiled,
                            &mut arena,
                        );
                    } else {
                        let tile = tiles.tile(tile_index);
                        let outcome =
                            run_tile_with(&tile, &drive, &self.config, seed, MvmEngine::FieldWalk);
                        arena.partials.clear();
                        for per_col in &outcome.partials {
                            arena.partials.extend_from_slice(per_col);
                        }
                        program = Some(outcome.program);
                    }
                    // Partial rows are input-major, so this call's rows
                    // continue the lanes' slot numbering.
                    let first_slot = call * per_call * pixels;
                    let mut lanes = lanes.lock().expect("accumulator lanes");
                    for (slot, per_col) in arena.partials.chunks_exact(geom.cols).enumerate() {
                        let dst =
                            &mut lanes[(first_slot + slot) * conv.out_c + base..][..geom.cols];
                        for (lane, &v) in dst.iter_mut().zip(per_col) {
                            *lane += v;
                        }
                    }
                }
                arena.drive = drive;
                arena.taps = taps;
                self.return_arenas([arena]);
                program.expect("a non-empty batch drives every tile")
            });

        let acc_ops: u64 = geoms.iter().map(|g| (pixels * g.cols) as u64).sum();
        let mut stats = LayerStats {
            tiles: 0,
            cells_programmed: 0,
            program_energy: Energy::ZERO,
            program_time: Time::ZERO,
            accumulator_ops: acc_ops,
            accumulator_energy: Accumulator::energy_for(ACCUMULATOR_BITS, acc_ops),
        };
        for program in &programs {
            stats.absorb(program);
        }
        let limit = Accumulator::saturation_limit(ACCUMULATOR_BITS);
        let lane_count = pixels * conv.out_c;
        let results = (0..inputs.len())
            .map(|i| {
                let values = acc_arena.lanes[i * lane_count..][..lane_count]
                    .iter()
                    .map(|&lane| lane.clamp(-limit - 1, limit))
                    .collect();
                (values, stats.clone())
            })
            .collect();
        self.return_arenas([acc_arena]);
        results
    }

    /// One **uncached** dynamic MVM: `rows` (signed weight codes, one row
    /// per output) times `drive`, folded through the same weight-stationary
    /// tile geometry a conv layer uses — except every tile is programmed,
    /// used once, and discarded. This is the `QKᵀ`/`AV` path of attention,
    /// whose "weights" are the KV cache and change on every token, so the
    /// weight-stationary tile cache (and its hit/miss counters) is never
    /// touched. `stage` seeds the per-tile device noise deterministically,
    /// in an index range disjoint from every static layer's.
    ///
    /// # Panics
    ///
    /// Panics on empty or ragged `rows`, a `drive` length mismatch, drive
    /// values outside the activation range, or weight codes outside the
    /// signed code range (caught during tile programming).
    #[must_use]
    pub fn dynamic_mv(&self, stage: usize, rows: &[Vec<i8>], drive: &[i64]) -> Vec<i64> {
        assert!(
            !rows.is_empty() && !drive.is_empty(),
            "dynamic MVM needs at least one row and one drive value"
        );
        for (index, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), drive.len(), "row {index} length mismatch");
        }
        assert!(
            drive.iter().map(|v| v.abs()).max().unwrap_or(0) <= self.config.v_max(),
            "drive exceeds the {}-bit range",
            self.config.activation_bits
        );
        let conv = oxbar_dataflow::matmul::matmul_conv("dynamic_mv", drive.len(), rows.len());
        let plan = FoldPlan::plan(
            &conv,
            self.config.array_rows,
            self.config.array_cols,
            self.config.mapping.columns_per_output(),
        );
        let weights = rows.to_vec();
        let tiles = WeightTiles::new(&conv, &weights, &plan);
        let has_negative = drive.iter().any(|&v| v < 0);
        let layer_index = DYNAMIC_STAGE_BASE + stage;
        let engine = match self.engine {
            // Both compiled variants behave identically here: nothing is
            // ever inserted into the cache on the dynamic path.
            MvmEngine::Compiled | MvmEngine::CompiledNoCache => MvmEngine::CompiledNoCache,
            MvmEngine::FieldWalk => MvmEngine::FieldWalk,
        };
        let mut lanes = vec![0i64; rows.len()];
        for (tile_index, geom) in tiles.geometries().enumerate() {
            let seed = tile_seed(self.config.seed, layer_index, tile_index);
            let window = &drive[geom.row_offset..geom.row_offset + geom.rows];
            let positive: Vec<u8> = window.iter().map(|&v| v.max(0) as u8).collect();
            let negative: Option<Vec<u8>> =
                has_negative.then(|| window.iter().map(|&v| (-v).max(0) as u8).collect());
            let tile_drive = TileDrive::new(geom.rows, positive, negative);
            let outcome = run_tile_with(
                &tiles.tile(tile_index),
                &tile_drive,
                &self.config,
                seed,
                engine,
            );
            let base = geom.group * conv.out_c_per_group() + geom.col_offset;
            for (lane, &v) in lanes[base..][..geom.cols]
                .iter_mut()
                .zip(&outcome.partials[0])
            {
                *lane += v;
            }
        }
        let limit = Accumulator::saturation_limit(ACCUMULATOR_BITS);
        for lane in &mut lanes {
            *lane = (*lane).clamp(-limit - 1, limit);
        }
        lanes
    }

    /// The full weight-stationary footprint of a model on this
    /// executor's array geometry, in crossbar cells — what
    /// [`Self::prewarm`] makes resident. Computed from the fold plans
    /// alone (no weights touched), so serving schedulers can budget-check
    /// a prewarm before spending any programming work.
    #[must_use]
    pub fn model_footprint_cells(&self, network: &Network) -> usize {
        let cpo = self.config.mapping.columns_per_output();
        network
            .layers()
            .iter()
            .filter_map(|layer| {
                let conv = match layer {
                    Layer::Conv2d(c) => c.clone(),
                    Layer::Dense(d) => d.as_conv(),
                    _ => return None,
                };
                let plan =
                    FoldPlan::plan(&conv, self.config.array_rows, self.config.array_cols, cpo);
                Some(
                    (0..plan.total_folds())
                        .map(|index| {
                            let geom = oxbar_dataflow::tiles::tile_geometry(&conv, &plan, index);
                            geom.rows * geom.cols * cpo
                        })
                        .sum::<usize>(),
                )
            })
            .sum()
    }

    /// Eagerly programs and compiles a model's full tile set into the
    /// weight-stationary cache — the programming work a cold forward pass
    /// would otherwise pay on its blocking path. Missing tiles compile in
    /// parallel across the config's worker threads
    /// ([`oxbar_core::dse::parallel_map`]; per-tile seeds make this
    /// determinism-safe) and insert in tile order under the same cell
    /// budget as the lazy path, so a prewarmed executor holds exactly the
    /// cache state a forward pass would have built. Returns the number of
    /// tiles compiled (zero when the model is already resident).
    ///
    /// Serving engines call this for the *next* model in the queue while
    /// the current batch executes, which moves PCM programming off the
    /// serving critical path entirely.
    ///
    /// # Panics
    ///
    /// Panics if `filters` does not cover every conv-like layer.
    pub fn prewarm(&self, network: &Network, filters: &[oxbar_nn::reference::FilterBank]) -> usize {
        let mut compiled_total = 0;
        let mut conv_idx = 0;
        for (layer_idx, layer) in network.layers().iter().enumerate() {
            let dense_conv;
            let conv: &Conv2d = match layer {
                Layer::Conv2d(c) => c,
                Layer::Dense(d) => {
                    dense_conv = d.as_conv();
                    &dense_conv
                }
                _ => continue,
            };
            assert!(
                conv_idx < filters.len(),
                "missing filter bank for `{}`",
                conv.name
            );
            let plan = FoldPlan::plan(
                conv,
                self.config.array_rows,
                self.config.array_cols,
                self.config.mapping.columns_per_output(),
            );
            let tiles = WeightTiles::new(conv, &filters[conv_idx].weights, &plan);
            let geoms: Vec<(usize, TileGeometry)> = tiles.geometries().enumerate().collect();
            conv_idx += 1;
            // Snapshot which tiles are missing (or stale) under the lock,
            // compile them in parallel, then insert in tile order with
            // the lazy path's budget rule.
            let missing: Vec<&(usize, TileGeometry)> = {
                let cache = self.cache.lock().expect("tile cache");
                geoms
                    .iter()
                    .filter(|(tile_index, geom)| {
                        // A key mid-compile on another thread is about to
                        // become resident; a skipped prewarm only costs
                        // speed, so leave it to the thread that owns it.
                        !cache.in_flight.contains(&(layer_idx, *tile_index))
                            && cache
                                .tiles
                                .get(&(layer_idx, *tile_index))
                                .is_none_or(|hit| !hit.matches_bank(&tiles, geom))
                    })
                    .collect()
            };
            let compiled = parallel_map(&missing, self.config.threads, |_, (tile_index, _)| {
                let seed = tile_seed(self.config.seed, layer_idx, *tile_index);
                Arc::new(CompiledTile::compile(
                    &tiles.tile(*tile_index),
                    &self.config,
                    seed,
                ))
            });
            let aging = self.aging_active();
            let clock = self.clock.load(Ordering::Relaxed);
            let mut cache = self.cache.lock().expect("tile cache");
            for ((tile_index, _), compiled) in missing.iter().zip(compiled) {
                let key = (layer_idx, *tile_index);
                let cells = compiled.cells();
                cache.misses += 1;
                if let Some(stale) = cache.tiles.remove(&key) {
                    cache.cells -= stale.cells();
                }
                cache.ages.remove(&key);
                if cache.cells + cells <= self.cache_budget {
                    cache.tiles.insert(key, compiled);
                    cache.cells += cells;
                    if aging {
                        cache.ages.insert(
                            key,
                            TileAge {
                                programmed_at: clock,
                                derived_age: 0,
                            },
                        );
                    }
                }
                compiled_total += 1;
            }
        }
        compiled_total
    }

    /// Captures the executor's programmed tile state as a serializable
    /// [`ChipSnapshot`]: the non-volatile weight codes of every resident
    /// tile plus the per-tile seed and configuration that reconstruct its
    /// compiled state deterministically. Tiles are recorded in
    /// `(layer, tile)` order, so equal cache contents always
    /// produce equal snapshots.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn snapshot(&self) -> ChipSnapshot {
        let cache = self.cache.lock().expect("tile cache");
        let mut keys: Vec<&(usize, usize)> = cache.tiles.keys().collect();
        keys.sort_unstable();
        let tiles = keys
            .into_iter()
            .map(|&(layer, tile)| {
                let compiled = &cache.tiles[&(layer, tile)];
                TileSnapshot {
                    layer,
                    tile,
                    seed: tile_seed(self.config.seed, layer, tile),
                    rows: compiled.value_rows(),
                    values: compiled.values().to_vec(),
                    program: compiled.program(),
                }
            })
            .collect();
        ChipSnapshot {
            config: self.config.clone(),
            cache_budget: self.cache_budget,
            hits: cache.hits,
            misses: cache.misses,
            tiles,
        }
    }

    /// Reconstructs an executor from a [`ChipSnapshot`]: every recorded
    /// tile is recompiled from its codes with its original seed,
    /// producing a chip whose forward passes are **byte-identical** to the
    /// source chip's (programming variation, drift, and phase streams all
    /// re-derive from the stored seeds). The restored cache carries the
    /// snapshot's hit/miss counters; tiles are admitted in snapshot order
    /// under the snapshot's cell budget.
    ///
    /// This is the migration primitive of multi-chip serving: a hot model
    /// moves between chips by snapshotting its executor and restoring it
    /// under the destination chip's budget.
    ///
    /// # Panics
    ///
    /// Panics if a recompiled tile's programming report disagrees with
    /// the snapshot record (a corrupted or cross-version snapshot).
    #[must_use]
    pub fn restore(snapshot: &ChipSnapshot) -> Self {
        Self::restore_at(snapshot, 0)
    }

    /// [`Self::restore`] onto a running cluster: the restored executor's
    /// virtual clock starts at `clock`, and every restored tile's
    /// programming age is stamped there — restoration reprograms the
    /// destination's PCM arrays, so the tiles are fresh at the moment of
    /// recovery, not as old as the source chip's copies were.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::restore`].
    #[must_use]
    pub fn restore_at(snapshot: &ChipSnapshot, clock: u64) -> Self {
        let exec = Self::new(snapshot.config.clone()).with_cache_budget(snapshot.cache_budget);
        exec.set_clock(clock);
        let aging = exec.aging_active();
        {
            let mut cache = exec.cache.lock().expect("tile cache");
            cache.hits = snapshot.hits;
            cache.misses = snapshot.misses;
            for snap in &snapshot.tiles {
                let tile = weight_tile_from_codes(&snap.values, snap.rows);
                let compiled = CompiledTile::compile(&tile, &exec.config, snap.seed);
                assert_eq!(
                    compiled.program(),
                    snap.program,
                    "restored tile ({}, {}) must recompile to its recorded state",
                    snap.layer,
                    snap.tile
                );
                let cells = compiled.cells();
                if cache.cells + cells <= snapshot.cache_budget {
                    let key = (snap.layer, snap.tile);
                    cache.tiles.insert(key, Arc::new(compiled));
                    cache.cells += cells;
                    if aging {
                        cache.ages.insert(
                            key,
                            TileAge {
                                programmed_at: clock,
                                derived_age: 0,
                            },
                        );
                    }
                }
            }
        }
        exec
    }
}

/// One layer produced by [`walk_network`].
#[derive(Debug, Clone, PartialEq)]
pub struct WalkedLayer {
    /// Layer name.
    pub name: String,
    /// Requantization shift applied (0 for pools).
    pub shift: u32,
    /// Output tensor after the shared digital post-processing.
    pub output: Tensor3,
    /// Whether the layer ran through `conv_op` (conv/dense vs pool).
    pub is_mac: bool,
}

/// Walks a sequential network over a batch of inputs, layer by layer,
/// delegating each conv-like layer's raw MVM to `conv_op(layer_index,
/// conv_index, conv, inputs) -> raw accumulators per input` and applying
/// the shared digital semantics around it, per input: residual-`Add`
/// rejection, the dense flatten-reshape rule, pooling, and the
/// activate-then-requantize sequence. Returns each input's walk.
///
/// Both the device pipeline ([`DeviceExecutor::forward`] and
/// [`DeviceExecutor::try_forward_batch`]) and the exact-reference
/// comparison walk in [`crate::fidelity`] run through this one function,
/// so the two sides can never diverge on anything but the MVM itself.
///
/// # Errors
///
/// Returns [`UnsupportedLayer`] for networks with residual `Add` layers.
///
/// # Panics
///
/// Panics if `conv_op` does not return one tensor per input.
pub fn walk_network<F>(
    network: &Network,
    inputs: &[&Tensor3],
    activation_bits: u8,
    mut conv_op: F,
) -> Result<Vec<Vec<WalkedLayer>>, UnsupportedLayer>
where
    F: FnMut(usize, usize, &Conv2d, &[&Tensor3]) -> Vec<Tensor3>,
{
    // Reject residual networks up front: the flattened list does not carry
    // the skip wiring needed to execute them.
    if let Some(add) = network.layers().iter().find_map(|l| match l {
        Layer::Add(a) => Some(a.name.clone()),
        _ => None,
    }) {
        return Err(UnsupportedLayer { layer: add });
    }
    let mut conv_idx = 0;
    let mut walked: Vec<Vec<WalkedLayer>> = inputs.iter().map(|_| Vec::new()).collect();
    // Each input's previous layer output is read in place from its walk
    // record (no per-layer tensor clone).
    fn current<'a>(walk: &'a [WalkedLayer], input: &'a Tensor3) -> &'a Tensor3 {
        walk.last().map_or(input, |w| &w.output)
    }
    for (layer_idx, layer) in network.layers().iter().enumerate() {
        match layer {
            Layer::Add(_) => unreachable!("Add layers rejected by the pre-scan"),
            Layer::Pool(p) => {
                for (walk, &input) in walked.iter_mut().zip(inputs) {
                    let output = pool_exact(current(walk, input), p);
                    walk.push(WalkedLayer {
                        name: p.name.clone(),
                        shift: 0,
                        output,
                        is_mac: false,
                    });
                }
            }
            Layer::Conv2d(_) | Layer::Dense(_) => {
                let dense_conv;
                let conv: &Conv2d = match layer {
                    Layer::Conv2d(c) => c,
                    Layer::Dense(d) => {
                        dense_conv = d.as_conv();
                        &dense_conv
                    }
                    _ => unreachable!(),
                };
                let raw = {
                    // A dense layer consumes the flattened previous tensor.
                    let conv_inputs: Vec<Cow<'_, Tensor3>> = walked
                        .iter()
                        .zip(inputs)
                        .map(|(walk, &input)| {
                            let current = current(walk, input);
                            if current.shape() != conv.input
                                && current.shape().elements() == conv.input.elements()
                            {
                                Cow::Owned(Tensor3::new(conv.input, current.data().to_vec()))
                            } else {
                                Cow::Borrowed(current)
                            }
                        })
                        .collect();
                    let conv_inputs: Vec<&Tensor3> =
                        conv_inputs.iter().map(AsRef::as_ref).collect();
                    conv_op(layer_idx, conv_idx, conv, &conv_inputs)
                };
                assert_eq!(raw.len(), inputs.len(), "one raw tensor per input");
                conv_idx += 1;
                for (walk, raw) in walked.iter_mut().zip(&raw) {
                    let activated = activate(raw, conv.activation);
                    let (requant, shift) = requantize(&activated, activation_bits);
                    walk.push(WalkedLayer {
                        name: conv.name.clone(),
                        shift,
                        output: requant,
                        is_mac: true,
                    });
                }
            }
        }
    }
    Ok(walked)
}

/// The one result of a batch call made with one input.
fn only<T>(mut batch: Vec<T>) -> T {
    batch.pop().expect("one input gives one result")
}

/// Builds one tile's per-pixel im2col drive (positive/negative passes)
/// for a group of inputs into reusable buffers — warm buffers make the
/// gather allocation-free. Windows are input-major: every pixel of the
/// first input, then of the next. An input without negative values
/// contributes all-dark negative windows when `has_negative` is set,
/// which recover to exactly zero.
fn build_drive_into(
    geom: &TileGeometry,
    conv: &Conv2d,
    inputs: &[&Tensor3],
    pixel_ids: &[usize],
    has_negative: bool,
    taps: &mut Vec<(u32, u32, u32)>,
    drive: &mut TileDrive,
) {
    let out = conv.output_shape();
    let in_per_group = conv.in_c_per_group();
    let window_w = conv.k_w * in_per_group;
    let c_base = geom.group * in_per_group;
    let rows = geom.rows;
    // The (ky, kx, channel) decode of each tile row is pixel-independent;
    // hoist it out of the per-pixel gather.
    taps.clear();
    taps.extend((0..rows).map(|r| {
        let widx = geom.row_offset + r;
        let ky = widx / window_w;
        let rem = widx % window_w;
        (
            ky as u32,
            (rem / in_per_group) as u32,
            (c_base + rem % in_per_group) as u32,
        )
    }));
    drive.rows = rows;
    drive.pixels = inputs.len() * pixel_ids.len();
    drive.positive.clear();
    // The negative buffer keeps its capacity even on unsigned layers, so
    // an arena bouncing between signed and unsigned layers never churns
    // the allocator.
    drive.negative.clear();
    drive.has_negative = has_negative;
    for input in inputs {
        for &pid in pixel_ids {
            let oy = pid / out.w;
            let ox = pid % out.w;
            for &(ky, kx, c) in taps.iter() {
                let iy = (oy * conv.stride + ky as usize) as isize - conv.padding as isize;
                let ix = (ox * conv.stride + kx as usize) as isize - conv.padding as isize;
                let v = input.at_padded(iy, ix, c as usize);
                drive.positive.push(v.max(0) as u8);
                if has_negative {
                    drive.negative.push((-v).max(0) as u8);
                }
            }
        }
    }
}

/// Evenly spaced sample of `max_pixels` output-pixel ids (deterministic).
#[must_use]
pub fn sample_pixels(shape: TensorShape, max_pixels: usize) -> Vec<usize> {
    let total = shape.h * shape.w;
    if total <= max_pixels || max_pixels == 0 {
        return (0..total).collect();
    }
    (0..max_pixels).map(|k| k * total / max_pixels).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oxbar_nn::reference::{conv2d_exact, Executor};
    use oxbar_nn::synthetic;
    use oxbar_nn::zoo::lenet5;

    #[test]
    fn single_conv_matches_exact_reference() {
        let conv = Conv2d::new("probe", TensorShape::new(7, 7, 3), 3, 3, 5, 1, 1);
        let input = synthetic::activations(conv.input, 6, 4);
        let bank = synthetic::filter_bank(&conv, 6, 5);
        let exact = conv2d_exact(&input, &bank, &conv);
        let exec = DeviceExecutor::new(SimConfig::ideal(32, 8));
        let out = conv.output_shape();
        let pixels: Vec<usize> = (0..out.h * out.w).collect();
        let (values, stats) = exec.conv_pixels(&conv, &input, &bank, 0, &pixels);
        for (pid, per_oc) in pixels.iter().zip(&values) {
            for (oc, &v) in per_oc.iter().enumerate() {
                assert_eq!(v, exact.data()[pid * out.c + oc], "pixel {pid} oc {oc}");
            }
        }
        assert!(stats.tiles > 0);
        assert!(stats.cells_programmed > 0);
        assert!(stats.program_energy.as_picojoules() > 0.0);
    }

    #[test]
    fn grouped_conv_matches_exact_reference() {
        let conv = Conv2d::new("dw", TensorShape::new(5, 5, 6), 3, 3, 6, 1, 1).with_groups(6);
        let input = synthetic::activations(conv.input, 6, 8);
        let bank = synthetic::filter_bank(&conv, 6, 9);
        let exact = conv2d_exact(&input, &bank, &conv);
        let exec = DeviceExecutor::new(SimConfig::ideal(16, 16));
        let out = conv.output_shape();
        let pixels: Vec<usize> = (0..out.h * out.w).collect();
        let (values, _) = exec.conv_pixels(&conv, &input, &bank, 0, &pixels);
        for (pid, per_oc) in pixels.iter().zip(&values) {
            for (oc, &v) in per_oc.iter().enumerate() {
                assert_eq!(v, exact.data()[pid * out.c + oc], "pixel {pid} oc {oc}");
            }
        }
    }

    #[test]
    fn lenet_forward_matches_reference_bit_for_bit() {
        let net = lenet5();
        let input = synthetic::activations(net.input(), 6, 42);
        let filters = synthetic::filter_banks(&net, 6, 7);
        let (ref_out, traces) = Executor::new(6).forward(&net, &input, &filters).unwrap();
        let exec = DeviceExecutor::new(SimConfig::ideal(128, 128));
        let fwd = exec.forward(&net, &input, &filters).unwrap();
        assert_eq!(fwd.output, ref_out, "device chain must be bit-exact");
        assert_eq!(fwd.layers.len(), traces.len());
        for (layer, trace) in fwd.layers.iter().zip(&traces) {
            assert_eq!(layer.name, trace.name);
            assert_eq!(layer.shift, trace.shift);
            assert_eq!(layer.output.shape(), trace.output);
        }
    }

    #[test]
    fn residual_networks_rejected() {
        let net = oxbar_nn::zoo::resnet50_v1_5();
        let input = synthetic::activations(net.input(), 6, 1);
        let filters = synthetic::filter_banks(&net, 6, 2);
        let exec = DeviceExecutor::new(SimConfig::ideal(128, 128));
        let err = exec.forward(&net, &input, &filters).unwrap_err();
        assert!(err.to_string().contains("add"));
    }

    #[test]
    fn cache_stats_track_weight_stationary_reuse() {
        let net = lenet5();
        let input = synthetic::activations(net.input(), 6, 1);
        let filters = synthetic::filter_banks(&net, 6, 2);
        let exec = DeviceExecutor::new(SimConfig::ideal(128, 128).with_threads(1));
        let fresh = exec.cache_stats();
        assert_eq!(
            (fresh.hits, fresh.misses, fresh.entries, fresh.cells),
            (0, 0, 0, 0)
        );
        assert_eq!(fresh.budget, 4_000_000);
        assert_eq!(fresh.hit_rate(), 0.0);
        exec.forward(&net, &input, &filters).unwrap();
        let first = exec.cache_stats();
        assert_eq!(first.hits, 0, "first pass compiles every tile");
        assert!(first.misses > 0 && first.entries > 0 && first.cells > 0);
        exec.forward(&net, &input, &filters).unwrap();
        let second = exec.cache_stats();
        assert_eq!(second.misses, first.misses, "second pass is all hits");
        assert_eq!(second.hits, first.misses);
        assert!(second.hit_rate() > 0.49 && second.hit_rate() < 0.51);
        exec.clear_cache();
        let cleared = exec.cache_stats();
        assert_eq!((cleared.entries, cleared.cells), (0, 0));
        assert_eq!(cleared.hits, second.hits, "counters survive eviction");
    }

    #[test]
    fn zero_cache_budget_disables_caching_without_changing_results() {
        let net = lenet5();
        let input = synthetic::activations(net.input(), 6, 3);
        let filters = synthetic::filter_banks(&net, 6, 4);
        let cached = DeviceExecutor::new(SimConfig::noisy(64, 64).with_threads(1));
        let cold =
            DeviceExecutor::new(SimConfig::noisy(64, 64).with_threads(1)).with_cache_budget(0);
        let a = cached.forward(&net, &input, &filters).unwrap();
        let b = cold.forward(&net, &input, &filters).unwrap();
        assert_eq!(a, b, "caching must never change results");
        cold.forward(&net, &input, &filters).unwrap();
        let stats = cold.cache_stats();
        assert_eq!(stats.hits, 0, "budget 0 admits nothing");
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.misses, 2 * cached.cache_stats().misses);
    }

    /// A small noisy config with aggressive aging: each dispatch tick
    /// ages resident tiles by `tick_seconds` of physical drift.
    fn aging_config(tick_seconds: f64) -> SimConfig {
        let mut cfg = SimConfig::noisy(32, 8).with_threads(1);
        cfg.noise.drift_nu = 0.05; // exaggerated so the 12-bit ADC sees it
        cfg.noise.drift_tick = Time::from_seconds(tick_seconds);
        cfg
    }

    fn probe_conv_forward(exec: &DeviceExecutor) -> Vec<Vec<i64>> {
        let conv = Conv2d::new("probe", TensorShape::new(7, 7, 3), 3, 3, 5, 1, 1);
        let input = synthetic::activations(conv.input, 6, 4);
        let bank = synthetic::filter_bank(&conv, 6, 5);
        let out = conv.output_shape();
        let pixels: Vec<usize> = (0..out.h * out.w).collect();
        exec.conv_pixels(&conv, &input, &bank, 0, &pixels).0
    }

    #[test]
    fn aged_readouts_rederive_the_drift_law() {
        let exec = DeviceExecutor::new(aging_config(1e8));
        let fresh = probe_conv_forward(&exec);
        exec.set_clock(1000);
        let aged = probe_conv_forward(&exec);
        assert_ne!(fresh, aged, "a millennium of drift must move the ADC");
        // The aged readout is exactly a compile at the aged elapsed: an
        // executor configured with that elapsed from the start (and no
        // aging) produces byte-identical outputs.
        let mut static_cfg = aging_config(0.0);
        static_cfg.noise.drift_elapsed = Time::from_seconds(3600.0 + 1000.0 * 1e8);
        let static_exec = DeviceExecutor::new(static_cfg);
        assert_eq!(aged, probe_conv_forward(&static_exec));
    }

    #[test]
    fn recalibration_is_bit_exact_to_a_fresh_program() {
        let exec = DeviceExecutor::new(aging_config(1e8));
        let fresh = probe_conv_forward(&exec);
        exec.set_clock(1000);
        let aged = probe_conv_forward(&exec);
        assert_ne!(fresh, aged);
        let infos = exec.tile_ages();
        assert!(!infos.is_empty());
        assert!(infos.iter().all(|i| i.age_ticks == 1000));
        assert!(infos.iter().all(|i| i.projected_slip > 0.0));
        let mut recalibrated = 0;
        for info in &infos {
            recalibrated += exec.recalibrate_tile(info.layer, info.tile);
        }
        assert_eq!(recalibrated, infos.len());
        // Reprogramming re-derives the same seed streams at the baseline
        // elapsed: readouts return to fresh-program accuracy, bit-exact.
        assert_eq!(probe_conv_forward(&exec), fresh);
        assert!(exec.tile_ages().iter().all(|i| i.age_ticks == 0));
    }

    #[test]
    fn split_recalibration_matches_the_one_shot_path() {
        // mark + eager rederive, mark + lazy read, and recalibrate_tile
        // all converge to the same compiled state and the same counters.
        let eager = DeviceExecutor::new(aging_config(1e8));
        let lazy = DeviceExecutor::new(aging_config(1e8));
        let oneshot = DeviceExecutor::new(aging_config(1e8));
        let fresh = probe_conv_forward(&eager);
        assert_eq!(probe_conv_forward(&lazy), fresh);
        assert_eq!(probe_conv_forward(&oneshot), fresh);
        for exec in [&eager, &lazy, &oneshot] {
            exec.set_clock(1000);
            // Derive the aged state so there is something to reset.
            assert_ne!(probe_conv_forward(exec), fresh);
        }
        let infos = eager.tile_ages();
        assert!(!infos.is_empty());
        for info in &infos {
            assert_eq!(eager.mark_recalibrated(info.layer, info.tile), 1);
            // Marking alone resets the age record, not the derivation.
            assert_eq!(eager.rederive_tile(info.layer, info.tile), 1);
            // Re-deriving again is a no-op: the state is current.
            assert_eq!(eager.rederive_tile(info.layer, info.tile), 0);
            lazy.mark_recalibrated(info.layer, info.tile);
            oneshot.recalibrate_tile(info.layer, info.tile);
        }
        assert_eq!(probe_conv_forward(&eager), fresh);
        assert_eq!(probe_conv_forward(&lazy), fresh);
        assert_eq!(probe_conv_forward(&oneshot), fresh);
        // Every path pays exactly one re-derivation miss per tile,
        // whether eager or lazy.
        assert_eq!(eager.cache_stats().misses, lazy.cache_stats().misses);
        assert_eq!(eager.cache_stats().misses, oneshot.cache_stats().misses);
    }

    #[test]
    fn aging_is_structurally_inert_when_disabled() {
        let base = DeviceExecutor::new(SimConfig::noisy(32, 8).with_threads(1));
        let clocked = DeviceExecutor::new(SimConfig::noisy(32, 8).with_threads(1));
        let a = probe_conv_forward(&base);
        clocked.set_clock(1_000_000);
        let b = probe_conv_forward(&clocked);
        let c = probe_conv_forward(&clocked);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(base.cache_stats().misses, clocked.cache_stats().misses);
        assert_eq!(clocked.cache_stats().hits, clocked.cache_stats().misses);
        assert!(clocked.tile_ages().is_empty());
        assert_eq!(clocked.drift_budget_ticks(), None);
    }

    #[test]
    fn drift_budget_brackets_the_half_lsb_slip() {
        let exec = DeviceExecutor::new(aging_config(1.0));
        let budget = exec.drift_budget_ticks().expect("bounded budget");
        assert!(budget > 0);
        let half_lsb = 0.5 / f64::from(exec.config().table_max());
        assert!(exec.projected_slip(budget) <= half_lsb * (1.0 + 1e-9));
        assert!(exec.projected_slip(budget.saturating_mul(4)) > half_lsb);
    }

    #[test]
    fn sample_pixels_is_deterministic_and_bounded() {
        let shape = TensorShape::new(10, 10, 4);
        let all = sample_pixels(shape, 0);
        assert_eq!(all.len(), 100);
        let some = sample_pixels(shape, 7);
        assert_eq!(some.len(), 7);
        assert_eq!(some, sample_pixels(shape, 7));
        assert!(some.windows(2).all(|w| w[0] < w[1]));
        assert!(some.iter().all(|&p| p < 100));
    }
}
