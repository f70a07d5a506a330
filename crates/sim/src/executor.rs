//! Whole-network execution through the device chain.

use crate::arena::ExecArena;
use crate::config::{tile_seed, SimConfig};
use crate::tile::{
    execute_crossbar, run_tile_with, CompiledTile, MvmEngine, TileDrive, TileNoise, TileWriter,
};
use oxbar_core::dse::parallel_map;
use oxbar_dataflow::tiles::{tile_geometry, TileGeometry, WeightTiles};
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
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

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
    /// Signaled whenever a claimed tile compile finishes, waking any
    /// worker blocked on the same key in [`Self::resolve_tile`].
    compile_done: Condvar,
    /// Cells of compiled state the cache may hold.
    cache_budget: usize,
    /// Pool of reusable execution arenas: checked out per tile job, which
    /// returns it once the tile's partials are in the accumulator lanes
    /// (and once per layer for those lanes). Arenas carry scratch space
    /// only, never results, so pooling cannot change outputs — it removes
    /// the heap allocator from the warm serving path.
    arenas: Mutex<Vec<ExecArena>>,
    /// The program-and-read rule at the baseline drift time, built once:
    /// what fresh static compiles and every dynamic tile write through
    /// (an aged re-derivation builds its own).
    writer: TileWriter,
    /// Remembered noise draws, keyed by tile seed (a key collision would
    /// only return identical draws). One rule: remember the draws of
    /// every tile that will be programmed again at its next use. That is
    /// every dynamic tile ([`Self::dynamic_mv`]), and every *overflow*
    /// tile: a static tile whose compile the cell budget refused, which
    /// [`Self::resolve_tile`] programs again at each batch that reads it.
    /// The remembered overflow cells stay within the cell budget, so a
    /// budget-0 executor remembers no static draws. A tile the cache
    /// admits draws afresh: it recompiles only after an eviction or a
    /// recalibration, and holding a catalog's draws would cost more
    /// memory than its tiles.
    noise: RwLock<NoiseMemo>,
    /// The executor's virtual clock, in scheduler dispatch ticks. Serving
    /// engines advance it at round boundaries (single-threaded, from the
    /// global dispatch counter — never wall clock), which makes tile age,
    /// drifted readouts, and recalibration decisions deterministic
    /// functions of the workload.
    clock: AtomicU64,
}

/// Cells of compiled tile state the cache may hold (bounds memory on
/// networks whose layers are far larger than the reuse window).
const TILE_CACHE_CELL_BUDGET: usize = 4_000_000;

/// Adder width of the digital partial-sum accumulator (bits).
const ACCUMULATOR_BITS: u8 = 48;

/// Windows per execute call below which a batch's inputs share one call:
/// the MVM kernel's group width
/// ([`oxbar_photonics::transfer::CompiledCrossbar::run_normalized_batch_with`]
/// reads each gain panel once per call and sums up to four windows per
/// pass over it, so a call of fewer windows leaves most of a pass idle).
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
/// batch of *n* counts one hit or miss per tile, not *n*; a decode batch
/// ([`crate::llm::lm_steps`]) follows the same rule for its static
/// projections, and its dynamic attention tiles are never looked up.
/// Programming ahead of traffic is one such forward, so it counts one
/// miss per tile it programs and no hit on a fresh executor.
/// Counters accumulate from executor creation (or the last
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

/// One resident tile's programming age, as reported by
/// [`DeviceExecutor::tile_ages`] — the observability surface a serving
/// scheduler compares against [`DeviceExecutor::drift_budget_ticks`] to
/// rank recalibration candidates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TileDriftInfo {
    /// Layer index of the tile.
    pub layer: usize,
    /// Tile index within the layer.
    pub tile: usize,
    /// Dispatch ticks since the tile's PCM array was last programmed.
    pub age_ticks: u64,
}

#[derive(Debug, Default)]
struct TileCache {
    /// Keyed by `(layer index, tile index)`.
    tiles: HashMap<(usize, usize), Arc<CompiledTile>>,
    /// Keys some thread has claimed and is compiling right now. Every
    /// forward single-flights through this set
    /// ([`DeviceExecutor::resolve_tile`]): the first claim programs the
    /// tile, later claimants wait on [`DeviceExecutor::compile_done`] and
    /// then judge the installed entry. One missing tile is exactly one
    /// miss however many workers want it.
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

/// The noise-draw memo ([`DeviceExecutor::noise`]).
#[derive(Debug, Default)]
struct NoiseMemo {
    /// Remembered draws by tile seed.
    draws: HashMap<u64, Arc<TileNoise>>,
    /// Cells of the overflow tiles whose draws `draws` holds; at most
    /// the executor's cell budget.
    overflow_cells: usize,
}

/// A key this thread claimed for programming. Dropping it — after the
/// install, or while a panicking compile unwinds — releases the key and
/// wakes its waiters, so a failed compile never wedges them.
struct Claimed<'a> {
    exec: &'a DeviceExecutor,
    key: (usize, usize),
}

impl Drop for Claimed<'_> {
    fn drop(&mut self) {
        if let Ok(mut cache) = self.exec.cache.lock() {
            cache.in_flight.remove(&self.key);
        }
        self.exec.compile_done.notify_all();
    }
}

impl DeviceExecutor {
    /// Creates an executor for the given configuration on the default
    /// (compiled transfer-matrix) MVM engine.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Self {
            writer: TileWriter::new(&config, &config.level_table(), config.noise.drift_elapsed),
            config,
            engine: MvmEngine::default(),
            cache: Mutex::new(TileCache::default()),
            compile_done: Condvar::new(),
            cache_budget: TILE_CACHE_CELL_BUDGET,
            arenas: Mutex::new(Vec::new()),
            noise: RwLock::new(NoiseMemo::default()),
            clock: AtomicU64::new(0),
        }
    }

    /// Runs a batch of inputs through the network **batch-major**: layer
    /// by layer, each tile is resolved once for the whole batch (one
    /// cache lookup, so a tile that does not fit the cell budget is
    /// programmed once per batch, not once per input) and every input's
    /// windows are driven through it. Each result is byte-identical to a
    /// [`Self::forward`] of that input alone, [`LayerStats`] included.
    /// A decode batch ([`crate::llm::lm_steps`]) drives each static
    /// projection the same way, one lookup per tile per batch.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedLayer`] for networks with residual `Add`
    /// layers, like [`Self::forward`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::forward`] (mismatched
    /// filters or input).
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

    /// The one path that programs a cacheable tile: a forward's lookup
    /// of the bank tile at `geom`, cached under `key`.
    ///
    /// **Claim:** under the cache lock, wait out any in-flight compile of
    /// `key`, then judge what is resident. A resident tile that matches
    /// the bank ([`CompiledTile::matches_bank`], a slice compare with no
    /// tile materialization) and is not stale is a hit. Otherwise the
    /// key is marked in flight and the miss counted: a stale tile
    /// re-derives at its current age, an absent (or differently
    /// weighted) one programs at age 0. Concurrent callers single-flight:
    /// exactly one programs the key, the rest wait and judge the
    /// installed entry, and the counters are a deterministic function of
    /// the workload, not of thread timing.
    /// **Compile:** program the tile's filter columns, back to back
    /// (column-major codes), at the claimed age, with the remembered
    /// draws of the tile's seed when the memo holds them and fresh draws
    /// otherwise (the same numbers either way).
    /// **Install:** replace the resident entry, admit the new one while
    /// the cell budget allows, and stamp its age. When the budget refuses
    /// a compile from fresh draws, remember them: the tile overflows, so
    /// its next read programs it again (a zero-budget cache retains
    /// nothing, so its waiters re-miss, like the serial cold path). Then
    /// wake the waiters.
    ///
    /// Returns the hit or the fresh compile, admitted or not.
    fn resolve_tile(
        &self,
        key: (usize, usize),
        tiles: &WeightTiles<'_>,
        geom: &TileGeometry,
    ) -> Arc<CompiledTile> {
        let aging = self.aging_active();
        let clock = self.clock.load(Ordering::Relaxed);
        let age = {
            let mut cache = self.cache.lock().expect("tile cache");
            while cache.in_flight.contains(&key) {
                cache = self.compile_done.wait(cache).expect("tile cache");
            }
            // The INT6 codes cannot reveal a stale drift derivation — the
            // array state is unchanged — so staleness is tracked per key,
            // as a pure function of the round clock.
            let stale = cache
                .ages
                .get(&key)
                .map(|a| (a.derived_age, clock.saturating_sub(a.programmed_at)))
                .filter(|&(derived, current)| aging && derived != current)
                .map(|(_, current)| current);
            let resident = cache
                .tiles
                .get(&key)
                .filter(|t| t.matches_bank(tiles, geom));
            let age = match (resident, stale) {
                (Some(tile), None) => {
                    let hit = Arc::clone(tile);
                    cache.hits += 1;
                    return hit;
                }
                (Some(_), Some(current)) => current,
                (None, _) => 0,
            };
            cache.in_flight.insert(key);
            cache.misses += 1;
            age
        };
        let claimed = Claimed { exec: self, key };
        let values: Vec<i8> = (0..geom.cols)
            .flat_map(|c| tiles.filter_column(geom, c))
            .copied()
            .collect();
        let cells = values.len() * self.config.mapping.columns_per_output();
        let seed = tile_seed(self.config.seed, key.0, key.1);
        let elapsed = self.aged_elapsed(age);
        let aged;
        let writer = if elapsed == self.config.noise.drift_elapsed {
            &self.writer
        } else {
            aged = TileWriter::new(&self.config, &self.config.level_table(), elapsed);
            &aged
        };
        let (noise, fresh) = match self.remembered_noise(seed, cells) {
            Some(noise) => (noise, false),
            None => (
                Arc::new(TileNoise::for_tile(&self.config, seed, cells)),
                true,
            ),
        };
        let compiled = Arc::new(CompiledTile::compile_at(
            values,
            geom.rows,
            &self.config,
            &noise,
            writer,
        ));
        let mut cache = self.cache.lock().expect("tile cache");
        if let Some(replaced) = cache.tiles.remove(&key) {
            cache.cells -= replaced.cells();
        }
        cache.ages.remove(&key);
        let admitted = cache.cells + compiled.cells() <= self.cache_budget;
        if admitted {
            cache.tiles.insert(key, Arc::clone(&compiled));
            cache.cells += compiled.cells();
            if aging {
                cache.ages.insert(
                    key,
                    TileAge {
                        programmed_at: clock.saturating_sub(age),
                        derived_age: age,
                    },
                );
            }
        }
        drop(cache);
        if !admitted && fresh {
            self.remember_overflow(seed, cells, noise);
        }
        drop(claimed);
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
    /// a forward is the only writer, and it claims tiles through one
    /// single-flight path, so a missing tile is one miss however many
    /// workers race to it, and the counters are a deterministic function
    /// of the workload.
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

    /// The programming age of every resident tile, in `(layer, tile)`
    /// order. Empty when aging is inactive.
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
            .map(|(&(layer, tile), age)| TileDriftInfo {
                layer,
                tile,
                age_ticks: clock.saturating_sub(age.programmed_at),
            })
            .collect();
        out.sort_unstable_by_key(|info| (info.layer, info.tile));
        out
    }

    /// Online recalibration: resets a resident tile's programming age to
    /// the current clock without touching its compiled state. The next
    /// readout finds the tile stale and re-derives it at age 0, the
    /// baseline transmissions. Every stochastic draw is a pure function
    /// of the tile seed, so the result is bit-exact to a fresh program,
    /// and a scheduler that marks at a single-threaded boundary gets the
    /// same outcome whichever worker reads the tile first. Returns 1 if
    /// the tile was marked, 0 when it has no age record.
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
        self.try_forward_batch(network, &[input], filters).map(only)
    }

    /// Runs one conv-like layer at device level for a subset of output
    /// pixels, returning the raw (pre-activation, pre-requantization)
    /// accumulator values as one flat slot-major matrix
    /// (`pixel_slots × out_channels`; `chunks_exact(conv.out_c)` yields
    /// one pixel's row) plus device stats.
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
    /// tile job resolves its tile once ([`Self::resolve_tile`]) and
    /// drives every input's windows through it before the next tile, so
    /// at most one uncached compiled tile per worker is alive at a time.
    /// Returns one `(values, stats)` per input, each byte-identical to a
    /// lone [`Self::conv_pixels_flat`] of that input.
    pub(crate) fn conv_pixels_batch(
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
        // windows than the MVM kernel's four-window group (dense layers:
        // one pixel, one or two passes). Those inputs share a call, so
        // the kernel's groups span the batch; capping the merged windows
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
                    .then(|| self.resolve_tile((layer_index, tile_index), &tiles, geom));
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
                        compiled.execute_into(&drive, &self.config, true, &mut arena);
                    } else {
                        let tile = tiles.tile(tile_index);
                        program =
                            Some(run_tile_with(&tile, &drive, &self.config, seed, &mut arena));
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
    /// in an index range disjoint from every static layer's. It is the
    /// one-product case of the decode batch's per-stage call, which runs
    /// every sequence of one geometry under one plan per tile.
    ///
    /// Only the weights change between calls; the device noise does not.
    /// Each tile's PCM-write normals and residual phasors are a pure
    /// function of its seed, and the executor **remembers** the draws of
    /// every tile that will be programmed again at its next use: every
    /// dynamic tile, and every static tile the cell budget refuses (an
    /// overflow tile, reprogrammed at each batch). A dynamic seed keeps
    /// one [`TileNoise`], grown to the largest tile that seed has
    /// programmed (the k-th written cell reads normal k, cell `(i, j)` of
    /// a `rows × cols` tile phasor `i · cols + j`, for any geometry). A
    /// call programs each tile's codes straight into pooled gain planes
    /// and executes in a pooled arena, with exactly the float operations
    /// of a fresh program and compile — remembering cannot change a
    /// value, only skip redrawing it. The per-cell drift read stays,
    /// since it depends on the achieved fraction. The memo holds at most
    /// one `TileNoise` per dynamic seed, each at most `array_rows ×
    /// array_cols` draws: for `llm_tiny` at 1,024 positions (8 stages × 8
    /// tiles × 1,024 cells) about 1.6 MB. Overflow draws add at most the
    /// cell budget's worth of cells. [`Self::clear_cache`] leaves the
    /// memo, since it holds no chip state, and so does [`Self::rehome`]
    /// while the overflow draws fit the new budget.
    ///
    /// The [`MvmEngine::FieldWalk`] oracle remembers nothing: each tile
    /// draws afresh and walks its fields ([`run_tile_with`]).
    ///
    /// # Panics
    ///
    /// Panics on empty or ragged `rows`, a `drive` length mismatch, drive
    /// values outside the activation range, or weight codes outside the
    /// signed code range (caught during tile programming).
    #[must_use]
    pub fn dynamic_mv(&self, stage: usize, rows: &[Vec<i8>], drive: &[i64]) -> Vec<i64> {
        only(self.dynamic_mv_batch(stage, &[(rows, drive)]))
    }

    /// [`Self::dynamic_mv`] at one attention stage for every sequence of
    /// a decode batch: `products[s]` is sequence `s`'s `(rows, drive)`.
    /// Products of one geometry (row count and drive length) run under
    /// one plan per tile — the fold, the gain factors, the readout chain
    /// and the remembered draws of the tile's seed — and only their codes
    /// are programmed and driven one by one. Sharing the plan is safe
    /// because the stage's tile seed fixes the noise, not the sequence.
    /// Returns one output per product, each byte-identical to a lone
    /// [`Self::dynamic_mv`].
    ///
    /// # Panics
    ///
    /// Panics on any product [`Self::dynamic_mv`] panics on.
    #[must_use]
    pub(crate) fn dynamic_mv_batch(
        &self,
        stage: usize,
        products: &[(&[Vec<i8>], &[i64])],
    ) -> Vec<Vec<i64>> {
        for &(rows, drive) in products {
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
        }
        let shape = |s: usize| (products[s].0.len(), products[s].1.len());
        let cpo = self.config.mapping.columns_per_output();
        let layer_index = DYNAMIC_STAGE_BASE + stage;
        let mut outputs: Vec<Vec<i64>> = products
            .iter()
            .map(|(rows, _)| vec![0; rows.len()])
            .collect();
        let mut arena = self.checkout_arena();
        let mut buffers = std::mem::take(&mut arena.compile);
        let mut tile_drive = std::mem::replace(&mut arena.drive, TileDrive::empty());
        // Each geometry is planned once, at its first product.
        for first in (0..products.len()).filter(|&s| (0..s).all(|e| shape(e) != shape(s))) {
            let (outputs_len, inputs_len) = shape(first);
            let group = || (first..products.len()).filter(move |&s| shape(s) == shape(first));
            let conv = oxbar_dataflow::matmul::matmul_conv("dynamic_mv", inputs_len, outputs_len);
            let plan = FoldPlan::plan(&conv, self.config.array_rows, self.config.array_cols, cpo);
            for tile_index in 0..plan.total_folds() {
                let geom = tile_geometry(&conv, &plan, tile_index);
                let seed = tile_seed(self.config.seed, layer_index, tile_index);
                let base = geom.group * conv.out_c_per_group() + geom.col_offset;
                let tile_plan = (self.engine != MvmEngine::FieldWalk).then(|| {
                    let cells = geom.rows * geom.cols * cpo;
                    let readout = buffers.shape(&self.config, geom.rows, geom.cols);
                    (self.dynamic_noise(seed, cells), readout)
                });
                for s in group() {
                    let (rows, drive) = products[s];
                    let has_negative = drive.iter().any(|&v| v < 0);
                    tile_drive.set_window(&drive[geom.row_offset..][..geom.rows], has_negative);
                    if let Some((noise, readout)) = &tile_plan {
                        self.writer.compile(
                            geom.rows,
                            geom.cols,
                            |c| &rows[base + c][geom.row_offset..][..geom.rows],
                            noise,
                            &mut buffers,
                        );
                        // Both compiled engines behave identically here:
                        // one window per pass, nothing to dedupe, nothing
                        // cached.
                        execute_crossbar(
                            &buffers.crossbar,
                            &tile_drive,
                            &self.config,
                            readout,
                            false,
                            &mut arena,
                        );
                    } else {
                        let tile = WeightTiles::new(&conv, rows, &plan).tile(tile_index);
                        run_tile_with(&tile, &tile_drive, &self.config, seed, &mut arena);
                    }
                    for (lane, &v) in outputs[s][base..][..geom.cols]
                        .iter_mut()
                        .zip(&arena.partials)
                    {
                        *lane += v;
                    }
                }
            }
        }
        arena.compile = buffers;
        arena.drive = tile_drive;
        self.return_arenas([arena]);
        let limit = Accumulator::saturation_limit(ACCUMULATOR_BITS);
        for lane in outputs.iter_mut().flatten() {
            *lane = (*lane).clamp(-limit - 1, limit);
        }
        outputs
    }

    /// The draws the memo holds for tile seed `seed`, if they cover a
    /// `cells`-cell tile. Holds the memo's read lock only to clone the
    /// entry.
    fn remembered_noise(&self, seed: u64, cells: usize) -> Option<Arc<TileNoise>> {
        let memo = self.noise.read().expect("noise memo");
        memo.draws
            .get(&seed)
            .filter(|noise| noise.covers(cells))
            .map(Arc::clone)
    }

    /// The remembered draws of dynamic tile seed `seed`, covering a
    /// `cells`-cell tile. The write lock is taken only to grow a prefix
    /// (copying it if a concurrent call still holds the shorter one).
    fn dynamic_noise(&self, seed: u64, cells: usize) -> Arc<TileNoise> {
        if let Some(noise) = self.remembered_noise(seed, cells) {
            return noise;
        }
        let mut memo = self.noise.write().expect("noise memo");
        let noise = memo
            .draws
            .entry(seed)
            .or_insert_with(|| Arc::new(TileNoise::new(&self.config, seed)));
        if !noise.covers(cells) {
            Arc::make_mut(noise).grow(cells);
        }
        Arc::clone(noise)
    }

    /// Remembers the fresh draws of an overflow tile of `cells` cells
    /// while the remembered overflow cells stay within the cell budget.
    fn remember_overflow(&self, seed: u64, cells: usize, noise: Arc<TileNoise>) {
        let mut memo = self.noise.write().expect("noise memo");
        let memo = &mut *memo;
        if memo.overflow_cells + cells <= self.cache_budget {
            if let Entry::Vacant(slot) = memo.draws.entry(seed) {
                slot.insert(noise);
                memo.overflow_cells += cells;
            }
        }
    }

    /// The full weight-stationary footprint of a model on this
    /// executor's array geometry, in crossbar cells — what a forward
    /// pass leaves resident when the cell budget holds it all. Computed
    /// from the fold plans alone (no weights touched), so serving
    /// schedulers can budget-check a placement before spending any
    /// programming work.
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

    /// Moves the executor to another chip, whose cell budget is
    /// `budget`, at dispatch tick `clock`. PCM is non-volatile, so the
    /// model's programmed tiles move with it and nothing is recompiled:
    /// in `(layer, tile)` order, each resident tile is kept while the
    /// kept cells fit `budget`, and a tile an install in that order would
    /// refuse is dropped (its next read programs it again). The clock
    /// advances to `clock`, and with aging every kept tile counts as
    /// programmed there, as a recalibrated tile does
    /// ([`Self::mark_recalibrated`]): it re-derives at its next read
    /// unless its drift was already derived at the age that read finds.
    /// The hit and miss counters carry over. The noise memo holds no
    /// chip state and stays, unless its overflow draws exceed `budget`;
    /// then it starts empty. Every compiled tile is a pure function of
    /// its codes, seed and age, so the moved executor answers exactly
    /// what the unmoved one would.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex or the noise memo lock was poisoned.
    pub fn rehome(&mut self, budget: usize, clock: u64) {
        self.cache_budget = budget;
        self.set_clock(clock);
        let clock = self.clock();
        let cache = self.cache.get_mut().expect("tile cache");
        let mut keys: Vec<(usize, usize)> = cache.tiles.keys().copied().collect();
        keys.sort_unstable();
        cache.cells = 0;
        for key in keys {
            let cells = cache.tiles[&key].cells();
            if cache.cells + cells <= budget {
                cache.cells += cells;
            } else {
                cache.tiles.remove(&key);
                cache.ages.remove(&key);
            }
        }
        for age in cache.ages.values_mut() {
            age.programmed_at = clock;
        }
        let memo = self.noise.get_mut().expect("noise memo");
        if memo.overflow_cells > budget {
            *memo = NoiseMemo::default();
        }
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
    UnsupportedLayer::check(network)?;
    let mut conv_idx = 0;
    let mut walked: Vec<Vec<WalkedLayer>> = inputs.iter().map(|_| Vec::new()).collect();
    // Each input's previous layer output is read in place from its walk
    // record (no per-layer tensor clone).
    fn current<'a>(walk: &'a [WalkedLayer], input: &'a Tensor3) -> &'a Tensor3 {
        walk.last().map_or(input, |w| &w.output)
    }
    for (layer_idx, layer) in network.layers().iter().enumerate() {
        match layer {
            Layer::Add(_) => unreachable!("Add layers rejected by the check"),
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

/// One tile row's im2col source: the `(ky, kx, channel)` it reads in a
/// window, and that tap's flat HWC offset from the window's origin.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tap {
    ky: usize,
    kx: usize,
    c: usize,
    offset: usize,
    /// How many rows, this one first, read consecutive offsets: the
    /// stretch an interior window copies as one slice.
    run: usize,
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
    taps: &mut Vec<Tap>,
    drive: &mut TileDrive,
) {
    let (shape, out, pad) = (conv.input, conv.output_shape(), conv.padding);
    let in_per_group = conv.in_c_per_group();
    let window_w = conv.k_w * in_per_group;
    let c_base = geom.group * in_per_group;
    let rows = geom.rows;
    // The (ky, kx, channel) decode of each tile row is pixel-independent;
    // hoist it out of the per-pixel gather.
    taps.clear();
    taps.extend((0..rows).map(|r| {
        let widx = geom.row_offset + r;
        let (ky, rem) = (widx / window_w, widx % window_w);
        let (kx, c) = (rem / in_per_group, c_base + rem % in_per_group);
        let offset = (ky * shape.w + kx) * shape.c + c;
        Tap {
            ky,
            kx,
            c,
            offset,
            run: 1,
        }
    }));
    for r in (1..rows).rev() {
        if taps[r].offset == taps[r - 1].offset + 1 {
            taps[r - 1].run = taps[r].run + 1;
        }
    }
    let windows = inputs.len() * pixel_ids.len();
    drive.rows = rows;
    drive.pixels = windows;
    drive.has_negative = has_negative;
    drive.positive.clear();
    drive.positive.resize(windows * rows, 0);
    // The negative buffer keeps its capacity even on unsigned layers, so
    // an arena bouncing between signed and unsigned layers never churns
    // the allocator.
    drive.negative.clear();
    if has_negative {
        drive.negative.resize(windows * rows, 0);
    }
    let slots = inputs
        .iter()
        .flat_map(|&input| pixel_ids.iter().map(move |&pid| (input, pid)));
    for (slot, (input, pid)) in slots.enumerate() {
        let pos = &mut drive.positive[slot * rows..][..rows];
        let mut neg = has_negative.then(|| &mut drive.negative[slot * rows..][..rows]);
        // The window's top-left tap in padded input coordinates.
        let (y0, x0) = (pid / out.w * conv.stride, pid % out.w * conv.stride);
        if y0 >= pad
            && x0 >= pad
            && y0 + conv.k_h <= shape.h + pad
            && x0 + conv.k_w <= shape.w + pad
        {
            // Wholly inside the input: every tap is a fixed offset away,
            // so each run of taps is one slice of the input.
            let window = &input.data()[((y0 - pad) * shape.w + x0 - pad) * shape.c..];
            let mut r = 0;
            while let Some(tap) = taps.get(r) {
                let values = window[tap.offset..][..tap.run].iter().copied();
                let neg = neg.as_deref_mut().map(|neg| &mut neg[r..][..tap.run]);
                split_signs(values, &mut pos[r..][..tap.run], neg);
                r += tap.run;
            }
        } else {
            let (y0, x0) = (y0 as isize - pad as isize, x0 as isize - pad as isize);
            let values = taps
                .iter()
                .map(|t| input.at_padded(y0 + t.ky as isize, x0 + t.kx as isize, t.c));
            split_signs(values, pos, neg);
        }
    }
}

/// Writes each value's positive part into `pos` and, for a signed
/// drive, its negative part into `neg`.
fn split_signs(values: impl Iterator<Item = i64>, pos: &mut [u8], neg: Option<&mut [u8]>) {
    match neg {
        None => {
            for (p, v) in pos.iter_mut().zip(values) {
                *p = v.max(0) as u8;
            }
        }
        Some(neg) => {
            for ((p, n), v) in pos.iter_mut().zip(neg).zip(values) {
                *p = v.max(0) as u8;
                *n = (-v).max(0) as u8;
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

    impl DeviceExecutor {
        /// Worst-case transmission slip (full-scale fraction) of a tile
        /// `age` ticks old, relative to its baseline programming: the
        /// largest drop across the device's programmable levels. The
        /// independent reference [`Self::drift_budget_ticks`] is checked
        /// against.
        fn projected_slip(&self, age: u64) -> f64 {
            let model = DriftModel::new(self.config.noise.drift_nu);
            let table = f64::from(self.config.table_max());
            let baseline = self.config.noise.drift_elapsed;
            let aged = self.aged_elapsed(age);
            (0..=self.config.table_max())
                .map(|code| {
                    let mut cell = self.config.device();
                    cell.set_crystalline_fraction(f64::from(code) / table);
                    (model.transmission_after(cell, baseline)
                        - model.transmission_after(cell, aged))
                    .max(0.0)
                })
                .fold(0.0, f64::max)
        }
    }
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
        let (values, stats) = exec.conv_pixels_flat(&conv, &input, &bank, 0, &pixels);
        for (pid, per_oc) in pixels.iter().zip(values.chunks_exact(conv.out_c)) {
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
        let (values, _) = exec.conv_pixels_flat(&conv, &input, &bank, 0, &pixels);
        for (pid, per_oc) in pixels.iter().zip(values.chunks_exact(conv.out_c)) {
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
        assert_eq!(
            exec.try_forward_batch(&net, &[&input, &input], &filters),
            Err(err),
            "a batch is refused like one forward"
        );
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

    fn probe_conv_forward(exec: &DeviceExecutor) -> Vec<i64> {
        let conv = Conv2d::new("probe", TensorShape::new(7, 7, 3), 3, 3, 5, 1, 1);
        let input = synthetic::activations(conv.input, 6, 4);
        let bank = synthetic::filter_bank(&conv, 6, 5);
        let out = conv.output_shape();
        let pixels: Vec<usize> = (0..out.h * out.w).collect();
        exec.conv_pixels_flat(&conv, &input, &bank, 0, &pixels).0
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
        assert!(infos.iter().all(|i| exec.projected_slip(i.age_ticks) > 0.0));
        let mut recalibrated = 0;
        for info in &infos {
            recalibrated += exec.mark_recalibrated(info.layer, info.tile);
        }
        assert_eq!(recalibrated, infos.len());
        // The next read reprograms each marked tile, re-deriving the same
        // seed streams at the baseline elapsed: readouts return to
        // fresh-program accuracy, bit-exact.
        assert_eq!(probe_conv_forward(&exec), fresh);
        assert!(exec.tile_ages().iter().all(|i| i.age_ticks == 0));
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
    fn dynamic_noise_memo_stops_growing_on_a_seen_shape() {
        let exec = DeviceExecutor::new(SimConfig::noisy(32, 8).with_threads(1));
        let memo_draws = |exec: &DeviceExecutor| -> usize {
            let memo = exec.noise.read().expect("noise memo");
            memo.draws.values().map(|noise| noise.draws()).sum()
        };
        // 40 inputs × 20 outputs folds into 2 × 3 tiles of ≤ 32 × 8.
        let rows: Vec<Vec<i8>> = (0..20)
            .map(|o| (0..40).map(|i| ((o * 40 + i) % 63) as i8 - 31).collect())
            .collect();
        let drive: Vec<i64> = (0..40).map(|i| (i * 7 % 127) - 63).collect();
        let first = exec.dynamic_mv(0, &rows, &drive);
        let draws = memo_draws(&exec);
        let seeds = exec.noise.read().expect("noise memo").draws.len();
        assert_eq!(seeds, 6, "one entry per dynamic tile seed");
        // Each seed holds at most one array's worth of both streams.
        assert!(draws > 0 && draws <= seeds * 2 * 32 * 8, "{draws} draws");
        for _ in 0..100 {
            assert_eq!(exec.dynamic_mv(0, &rows, &drive), first);
        }
        assert_eq!(memo_draws(&exec), draws, "a seen shape draws nothing new");
        // The memo holds no chip state: eviction leaves it.
        exec.clear_cache();
        assert_eq!(memo_draws(&exec), draws);
    }

    #[test]
    fn overflow_tiles_reprogram_from_remembered_draws() {
        let net = lenet5();
        let filters = synthetic::filter_banks(&net, 6, 11);
        let images: Vec<Tensor3> = (0..3)
            .map(|seed| synthetic::activations(net.input(), 6, 20 + seed))
            .collect();
        let batch: Vec<&Tensor3> = images.iter().collect();
        let config = SimConfig::noisy(32, 32).with_threads(1);
        let half = DeviceExecutor::new(config.clone()).model_footprint_cells(&net) / 2;
        let with_budget = |cells| DeviceExecutor::new(config.clone()).with_cache_budget(cells);
        let (mut tight, roomy, cold) = (with_budget(half), with_budget(usize::MAX), with_budget(0));
        let remembered =
            |exec: &DeviceExecutor| exec.noise.read().expect("noise memo").overflow_cells;
        let mut misses = Vec::new();
        let mut memo = Vec::new();
        for call in 0..3 {
            let before = tight.cache_stats().misses;
            let out = tight.try_forward_batch(&net, &batch, &filters).unwrap();
            assert_eq!(
                out,
                roomy.try_forward_batch(&net, &batch, &filters).unwrap(),
                "call {call}"
            );
            assert_eq!(
                out,
                cold.try_forward_batch(&net, &batch, &filters).unwrap(),
                "call {call}"
            );
            misses.push(tight.cache_stats().misses - before);
            memo.push(remembered(&tight));
        }
        // The first call programs every tile; each later one reprograms
        // exactly the tiles the budget refused, and remembers nothing new.
        let tiles = roomy.cache_stats().misses;
        let overflow = tiles - tight.cache_stats().entries as u64;
        assert!(overflow > 0, "half the footprint must overflow");
        assert_eq!(misses, [tiles, overflow, overflow]);
        assert!(
            memo[0] > 0 && memo[0] <= half,
            "{} of {half} cells",
            memo[0]
        );
        assert_eq!(memo, [memo[0]; 3]);
        assert_eq!(remembered(&cold), 0, "budget 0 remembers nothing");
        assert_eq!(remembered(&roomy), 0, "a model that fits remembers nothing");
        // A move keeps the memo while its overflow draws fit the new
        // budget, and forgets them otherwise.
        tight.rehome(half, 0);
        assert_eq!(remembered(&tight), memo[0]);
        tight.rehome(memo[0] - 1, 0);
        assert_eq!(remembered(&tight), 0);
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
