//! One fold-tile through the full device chain: PCM programming →
//! crossbar MVM (compiled transfer matrix or field walk) → TIA/ADC
//! readout → signed recovery.
//!
//! After PCM programming the tile is a fixed linear operator, so the
//! default engine compiles it once
//! ([`oxbar_photonics::transfer::CompiledCrossbar`]) and executes every
//! pixel drive — positive and negative passes — as one batched MVM over a
//! flat row-major drive matrix, with a duplicate-window cache in front
//! (padded convolutions produce many identical and all-zero windows). The
//! cell-by-cell field walk ([`CrossbarSimulator::run`]) stays available as
//! the oracle via [`MvmEngine::FieldWalk`] ([`run_tile_with`]).
//!
//! Every tile compiles by one route: its signed codes, its seed's
//! [`TileNoise`] draws and the program-and-read rule of its drift time go
//! in; the codes are mapped to levels, every cell is programmed and read
//! in one row-major pass ([`oxbar_pcm::array::CellWrite::read_block`]),
//! and the reads are written into the compiled gain planes under the
//! gain factors of the tile's geometry, which every tile of that
//! geometry can share.

use crate::arena::ExecArena;
use crate::config::{Readout, SimConfig};
use oxbar_dataflow::tiles::{TileGeometry, WeightTile, WeightTiles};
use oxbar_electronics::tia::Tia;
use oxbar_electronics::UnsignedQuantizer;
use oxbar_nn::mapping::WeightMapping;
use oxbar_pcm::array::{CellWrite, Parallelism, ProgramTally};
use oxbar_pcm::drift::DriftModel;
use oxbar_pcm::variation::{standard_normal, DeviceVariation};
use oxbar_pcm::{LevelTable, ProgramReport};
use oxbar_photonics::crossbar::{CrossbarConfig, CrossbarSimulator, ResidualPhases};
use oxbar_photonics::transfer::{CompiledCrossbar, GainFactors};
use oxbar_units::Time;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Chunked FNV-style hasher for drive-window dedupe keys — the default
/// SipHash dominates the cache lookup at im2col window sizes.
#[derive(Default)]
struct WindowHasher(u64);

impl std::hash::Hasher for WindowHasher {
    fn finish(&self) -> u64 {
        // Final avalanche (splitmix-style) so sequential windows spread.
        let mut z = self.0;
        z ^= z >> 33;
        z = z.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        z ^ (z >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0 ^ 0xCBF2_9CE4_8422_2325;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut tail = u64::from(bytes.len() as u8);
        for (k, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * (k + 1));
        }
        self.0 = (h ^ tail).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One [`WindowHasher`] pass over a window's bytes (the dedupe-table
/// probe hash).
fn hash_window(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = WindowHasher::default();
    h.write(bytes);
    h.finish()
}

/// Full-scale photocurrent assumed at the balanced receiver (A). The TIA
/// turns it into the ADC's full-scale voltage; the value cancels out of the
/// normalized transfer function and only anchors the analog chain.
const FULL_SCALE_CURRENT_A: f64 = 100e-6;

/// The per-pixel crossbar drive for one tile: unsigned input codes for the
/// tile's row slice, split into positive and negative passes (signed
/// activations run as `v = v⁺ − v⁻`, two unipolar crossbar cycles).
///
/// Windows are stored as flat row-major matrices (`pixels × rows`) so the
/// batched MVM and the duplicate-window cache read them without per-pixel
/// indirection or allocation.
#[derive(Debug, Clone)]
pub struct TileDrive {
    pub(crate) rows: usize,
    pub(crate) pixels: usize,
    /// Positive-part codes, `pixels × rows` row-major.
    pub(crate) positive: Vec<u8>,
    /// Negative-part codes; meaningful only when `has_negative`. Kept as
    /// a plain buffer (not an `Option`) so a pooled drive bouncing
    /// between signed and unsigned layers never drops its capacity.
    pub(crate) negative: Vec<u8>,
    /// Whether a negative pass exists (any input value < 0).
    pub(crate) has_negative: bool,
}

impl TileDrive {
    /// An empty drive (no rows, no pixels) — the rest state of the
    /// reusable drive buffers an [`crate::arena::ExecArena`] holds.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            rows: 0,
            pixels: 0,
            positive: Vec::new(),
            negative: Vec::new(),
            has_negative: false,
        }
    }
    /// Wraps flat row-major (`pixels × rows`) drive matrices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero, `positive` is not a whole number of
    /// windows, or `negative` differs in length.
    #[must_use]
    pub fn new(rows: usize, positive: Vec<u8>, negative: Option<Vec<u8>>) -> Self {
        assert!(rows > 0, "drive windows must have rows");
        assert_eq!(
            positive.len() % rows,
            0,
            "drive matrix must be pixels × {rows} row-major"
        );
        if let Some(negative) = &negative {
            assert_eq!(
                negative.len(),
                positive.len(),
                "negative pass must cover the same pixels"
            );
        }
        Self {
            rows,
            pixels: positive.len() / rows,
            positive,
            has_negative: negative.is_some(),
            negative: negative.unwrap_or_default(),
        }
    }

    /// Window length (the tile's row count).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of pixels driven.
    #[must_use]
    pub fn pixels(&self) -> usize {
        self.pixels
    }

    /// The positive-pass window of pixel `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn positive(&self, p: usize) -> &[u8] {
        &self.positive[p * self.rows..(p + 1) * self.rows]
    }

    /// The negative-pass window of pixel `p`, if a negative pass exists.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn negative(&self, p: usize) -> Option<&[u8]> {
        self.has_negative
            .then(|| &self.negative[p * self.rows..(p + 1) * self.rows])
    }

    /// Whether a negative pass exists.
    #[must_use]
    pub fn has_negative(&self) -> bool {
        self.has_negative
    }

    /// Resets this drive to one window of signed `values`, with a negative
    /// pass when `has_negative` (all dark if no value is negative) —
    /// reusing the buffers.
    pub(crate) fn set_window(&mut self, values: &[i64], has_negative: bool) {
        self.rows = values.len();
        self.pixels = 1;
        self.has_negative = has_negative;
        self.positive.clear();
        self.positive.extend(values.iter().map(|&v| v.max(0) as u8));
        self.negative.clear();
        if has_negative {
            self.negative
                .extend(values.iter().map(|&v| (-v).max(0) as u8));
        }
    }

    /// Window `w` in execution order: the positive passes occupy
    /// `0..pixels`, the negative passes `pixels..2×pixels`.
    pub(crate) fn window(&self, w: usize) -> &[u8] {
        if w < self.pixels {
            self.positive(w)
        } else {
            self.negative(w - self.pixels)
                .expect("window index implies a negative pass")
        }
    }
}

/// Which crossbar MVM implementation a tile runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MvmEngine {
    /// Compile the programmed tile into a transfer matrix once, dedupe
    /// identical drive windows, and execute the batch as dense MVMs (the
    /// default fast path).
    #[default]
    Compiled,
    /// The cell-by-cell field-propagation oracle
    /// ([`CrossbarSimulator::run`]) — the reference the compiled path is
    /// validated against, and the baseline the `device_mvm` bench times.
    FieldWalk,
}

/// Mixed into a tile seed to seed its PCM-write stream (the phase stream
/// uses the seed itself), so the two streams never coincide.
const WRITE_STREAM: u64 = 0xA5A5_5A5A_0F0F_F0F0;

/// The seeded device-noise draws of one tile seed: the PCM-write
/// stream's standard normals and the crossbar's trimmed residual phases
/// as `(cos φ, sin φ)` phasors, each a prefix grown on demand.
///
/// Both streams are pure functions of the seed — the write stream is
/// Box–Muller over `StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_0F0F_F0F0)`,
/// the phase stream [`ResidualPhases`] of the seed — and neither depends
/// on the tile's geometry or weights: the k-th *written* cell of a tile,
/// in row-major order, reads normal k (skipped cells draw nothing), and
/// cell `(i, j)` of a `rows × cols` tile reads phasor `i · cols + j`. So
/// one prefix, grown to the largest tile the seed has programmed, serves
/// every tile that seed programs, and a compile from remembered draws is
/// bit-identical to one from fresh draws.
#[derive(Debug, Clone)]
pub struct TileNoise {
    /// The write stream's generator; `None` without programming
    /// variation.
    write_rng: Option<StdRng>,
    /// Normals drawn so far.
    writes: Vec<f64>,
    /// The phase stream; `None` without phase errors (real gains).
    phases: Option<ResidualPhases>,
    /// Phasors drawn so far.
    phasors: Vec<(f64, f64)>,
}

impl TileNoise {
    /// The undrawn streams of tile seed `seed` under `config`'s noise
    /// model.
    #[must_use]
    pub(crate) fn new(config: &SimConfig, seed: u64) -> Self {
        let noise = config.noise;
        Self {
            write_rng: (noise.pcm_sigma > 0.0).then(|| StdRng::seed_from_u64(seed ^ WRITE_STREAM)),
            writes: Vec::new(),
            phases: (noise.phase_sigma_rad > 0.0).then(|| {
                ResidualPhases::new(seed, noise.phase_sigma_rad, noise.trim_resolution_rad)
            }),
            phasors: Vec::new(),
        }
    }

    /// Fresh draws covering one `cells`-cell tile: what a static compile
    /// programs from (the executor keeps them only for a tile its cell
    /// budget refuses).
    #[must_use]
    pub fn for_tile(config: &SimConfig, seed: u64, cells: usize) -> Self {
        let mut noise = Self::new(config, seed);
        noise.grow(cells);
        noise
    }

    /// Whether the drawn prefixes cover a `cells`-cell tile.
    #[must_use]
    pub(crate) fn covers(&self, cells: usize) -> bool {
        (self.write_rng.is_none() || self.writes.len() >= cells)
            && (self.phases.is_none() || self.phasors.len() >= cells)
    }

    /// Draws on until both prefixes cover a `cells`-cell tile (a tile
    /// writes at most one normal per cell).
    pub(crate) fn grow(&mut self, cells: usize) {
        if let Some(rng) = &mut self.write_rng {
            let missing = cells.saturating_sub(self.writes.len());
            self.writes
                .extend((0..missing).map(|_| standard_normal(rng)));
        }
        if let Some(phases) = &mut self.phases {
            let missing = cells.saturating_sub(self.phasors.len());
            self.phasors
                .extend(phases.take(missing).map(|phase| (phase.cos(), phase.sin())));
        }
    }

    /// Draws held, both streams together.
    #[cfg(test)]
    pub(crate) fn draws(&self) -> usize {
        self.writes.len() + self.phasors.len()
    }
}

/// The crossbar geometry and non-idealities of an `rows × pcols` tile
/// under `config` (phase-error seed unset).
fn crossbar_config(config: &SimConfig, rows: usize, pcols: usize) -> CrossbarConfig {
    let xbar = CrossbarConfig::new(rows, pcols)
        .with_phase_error_sigma(config.noise.phase_sigma_rad)
        .with_trim_resolution(config.noise.trim_resolution_rad);
    if config.noise.with_losses {
        xbar.with_losses(true).with_path_loss_compensation(true)
    } else {
        xbar
    }
}

/// Reusable buffers one tile compiles through: the gain factors of its
/// geometry, its cells' level codes and as-read transmissions, and the
/// gain planes it compiles into. A pooled instance compiles without
/// touching the heap once warm.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompileBuffers {
    /// The seed-free gain factors of the tile's geometry
    /// ([`Self::shape`]).
    factors: GainFactors,
    /// Unipolar level code per physical cell, row-major.
    levels: Vec<u8>,
    /// As-read field transmission per physical cell, row-major.
    reads: Vec<f64>,
    /// The compiled gain planes.
    pub(crate) crossbar: CompiledCrossbar,
}

impl CompileBuffers {
    /// Sets the gain factors for a `rows × cols` tile (logical columns)
    /// under `config` and returns its readout chain: everything about a
    /// tile's compile and readout that depends on its geometry alone, so
    /// every tile of that geometry can share it whatever its codes.
    pub(crate) fn shape(&mut self, config: &SimConfig, rows: usize, cols: usize) -> ReadoutChain {
        let pcols = cols * config.mapping.columns_per_output();
        self.factors.set(&crossbar_config(config, rows, pcols));
        ReadoutChain::new(config, rows)
    }
}

/// How a tile's signed codes become as-read transmissions under one
/// config at one drift time: the weight mapping and the level table's
/// [`CellWrite`] rule. Every tile programmed at that time shares one;
/// the executor keeps the one at its baseline drift time.
///
/// The drift clock is the only input that changes between an aged
/// readout, a recalibration and a fresh program: every draw is a pure
/// function of the tile seed, which makes a recalibrated tile bit-exact
/// to a freshly programmed one.
#[derive(Debug, Clone)]
pub(crate) struct TileWriter {
    mapping: WeightMapping,
    q: i8,
    write: CellWrite,
}

impl TileWriter {
    /// The writer for `config`'s tiles, programmed against `table` and
    /// read at drift time `elapsed`.
    pub(crate) fn new(config: &SimConfig, table: &LevelTable, elapsed: Time) -> Self {
        let variation = (config.noise.pcm_sigma > 0.0)
            .then(|| DeviceVariation::new(config.noise.pcm_sigma, 0.0));
        let drift = DriftModel::new(config.noise.drift_nu);
        Self {
            mapping: config.mapping,
            q: config.q(),
            write: CellWrite::new(
                table,
                variation,
                (config.noise.drift_nu > 0.0).then_some((&drift, elapsed)),
            ),
        }
    }

    /// Programs a `rows × cols` tile of signed codes, column `c` being
    /// `column(c)` (`rows` long), into `buffers`' reads: each code maps
    /// to its unipolar level(s), and each physical cell is written
    /// through the [`CellWrite`] rule in row-major order, the k-th
    /// written cell landing normal k of `noise`'s write stream off
    /// target — the order the unfused program-then-read chain consumed
    /// its draws in. Codes are range-checked per column slice and levels
    /// once per tile, never per cell.
    ///
    /// # Panics
    ///
    /// Panics if a column is not `rows` long, a code exceeds the
    /// configured range, or `noise` does not cover the written cells.
    fn program<'c>(
        &self,
        rows: usize,
        cols: usize,
        column: impl Fn(usize) -> &'c [i8],
        noise: &TileNoise,
        buffers: &mut CompileBuffers,
    ) -> ProgramReport {
        let per_output = self.mapping.columns_per_output();
        let pcols = cols * per_output;
        buffers.levels.clear();
        buffers.levels.resize(rows * pcols, 0);
        for c in 0..cols {
            let codes = column(c);
            assert_eq!(codes.len(), rows, "tile columns must be {rows} codes long");
            for k in 0..per_output {
                let cells = buffers.levels[c * per_output + k..]
                    .iter_mut()
                    .step_by(pcols);
                self.mapping.unipolar_levels(codes, self.q, k, cells);
            }
        }
        buffers.reads.clear();
        buffers.reads.resize(rows * pcols, 0.0);
        let mut normals = noise.writes.iter();
        let mut tally = ProgramTally::default();
        self.write.read_block(
            &buffers.levels,
            pcols,
            || {
                *normals
                    .next()
                    .expect("the tile's noise covers every written cell")
            },
            &mut tally,
            &mut buffers.reads,
        );
        tally.report(Parallelism::FullArray)
    }

    /// The one compile route of every tile — forward misses (aged and
    /// recalibrated re-derivations included) and the dynamic attention path:
    /// programs the tile ([`Self::program`]) and writes each cell's gain
    /// into `buffers.crossbar`'s panel-major planes, under the factors
    /// [`CompileBuffers::shape`] last set (for this tile's geometry). The
    /// result is bit-identical to programming a PCM array, reading its
    /// transmissions and compiling them with a seeded
    /// [`CrossbarSimulator`].
    ///
    /// # Panics
    ///
    /// Panics on the conditions of [`Self::program`].
    pub(crate) fn compile<'c>(
        &self,
        rows: usize,
        cols: usize,
        column: impl Fn(usize) -> &'c [i8],
        noise: &TileNoise,
        buffers: &mut CompileBuffers,
    ) -> ProgramReport {
        let program = self.program(rows, cols, column, noise, buffers);
        let pcols = cols * self.mapping.columns_per_output();
        let reads = &buffers.reads;
        buffers
            .crossbar
            .rebuild(&buffers.factors, &noise.phasors, |i, j| {
                reads[i * pcols + j]
            });
        program
    }
}

/// The column readout chain: TIA + optional ADC, and the scale that undoes
/// the architecture normalization — the exact integer column output is
/// `y_norm · rows · v_max · table_max / t_max`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadoutChain {
    tia: Tia,
    /// The ADC's LSB step (analog volts); `None` for exact readout. The
    /// step is hoisted out of the per-column loop — the quantizer would
    /// otherwise recompute it (a division) twice per digitized value.
    adc_lsb: Option<f64>,
    full_scale_v: f64,
    scale: f64,
}

impl ReadoutChain {
    pub(crate) fn new(config: &SimConfig, rows: usize) -> Self {
        let tia = Tia::paper_default();
        let full_scale_v = tia.output_voltage(FULL_SCALE_CURRENT_A);
        let adc_lsb = match config.readout {
            Readout::Exact => None,
            Readout::Adc { bits } => Some(
                UnsignedQuantizer::new(bits, full_scale_v)
                    .expect("valid ADC resolution")
                    .lsb(),
            ),
        };
        let scale = rows as f64 * config.v_max() as f64 * f64::from(config.table_max())
            / config.device().max_transmission();
        Self {
            tia,
            adc_lsb,
            full_scale_v,
            scale,
        }
    }

    fn digitize(&self, y: f64) -> i64 {
        let digitized = match self.adc_lsb {
            None => y,
            Some(lsb) => {
                // Inlined `UnsignedQuantizer::reconstruct` on the hoisted
                // LSB: identical clamp/divide/round/multiply sequence
                // (the rounded code is ≤ 2¹⁶ − 1, exactly representable,
                // so skipping the integer cast changes nothing).
                let current = y.clamp(0.0, 1.0) * FULL_SCALE_CURRENT_A;
                let v = self.tia.output_voltage(current);
                let code = (v.clamp(0.0, self.full_scale_v) / lsb).round();
                (code * lsb) / self.full_scale_v
            }
        };
        (digitized * self.scale).round() as i64
    }
}

/// A weight tile after PCM programming and transfer-matrix compilation:
/// the weight-stationary device state. Compiling is `O(N × M)` and happens
/// once; every [`CompiledTile::execute_into`] afterwards is a batched dense MVM
/// — executors cache these across pixel batches and images, mirroring the
/// hardware, where a programmed PCM tile serves many inferences.
#[derive(Debug, Clone)]
pub struct CompiledTile {
    /// The signed weight codes this state was compiled from, stored
    /// column-major (`cols × rows` flat; column `c` is the contiguous
    /// filter slice it came from) so cache-hit validation is a straight
    /// slice compare against the filter bank — no tile materialization.
    values: Vec<i8>,
    /// Rows of the value matrix (`values.len() / rows` columns).
    value_rows: usize,
    program: ProgramReport,
    compiled: CompiledCrossbar,
}

impl CompiledTile {
    /// Programs the tile with fresh draws of `seed` and compiles its
    /// transfer matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tile weights exceed the configured code range.
    #[must_use]
    pub fn compile(tile: &WeightTile, config: &SimConfig, seed: u64) -> Self {
        let (rows, cols) = (tile.rows(), tile.cols());
        let cells = rows * cols * config.mapping.columns_per_output();
        Self::compile_at(
            column_major(tile),
            rows,
            config,
            &TileNoise::for_tile(config, seed, cells),
            &TileWriter::new(config, &config.level_table(), config.noise.drift_elapsed),
        )
    }

    /// Compiles a tile from its signed codes (`values`, column-major with
    /// `rows` rows: column `c` is filter column `c`) and the draws of its
    /// seed through `writer`, whose drift time the readout ages to. Aged
    /// readouts compile at `drift_elapsed + age · drift_tick`; a
    /// recalibration compiles at the baseline `drift_elapsed`, which is
    /// bit-exact to a fresh program because every stochastic draw is a
    /// pure function of the seed.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not a whole number of `rows`-long columns,
    /// `noise` does not cover the tile, or a code exceeds the configured
    /// range.
    #[must_use]
    pub(crate) fn compile_at(
        values: Vec<i8>,
        rows: usize,
        config: &SimConfig,
        noise: &TileNoise,
        writer: &TileWriter,
    ) -> Self {
        assert!(
            rows > 0 && !values.is_empty() && values.len().is_multiple_of(rows),
            "tile codes must be whole {rows}-row columns"
        );
        let cols = values.len() / rows;
        let mut buffers = CompileBuffers::default();
        buffers.shape(config, rows, cols);
        let program = writer.compile(
            rows,
            cols,
            |c| &values[c * rows..][..rows],
            noise,
            &mut buffers,
        );
        Self {
            values,
            value_rows: rows,
            program,
            compiled: buffers.crossbar,
        }
    }

    /// Whether this compiled state was built from exactly the weights of
    /// the tile at `geom` (cache-hit validation): column `c` of the
    /// compiled values must equal the contiguous filter slice
    /// [`WeightTiles::filter_column`] returns for `geom` — a
    /// zero-materialization check the serving hot path runs on every
    /// cache hit.
    #[must_use]
    pub fn matches_bank(&self, tiles: &WeightTiles<'_>, geom: &TileGeometry) -> bool {
        geom.rows == self.value_rows
            && geom.cols * geom.rows == self.values.len()
            && (0..geom.cols)
                .all(|c| tiles.filter_column(geom, c) == &self.values[c * geom.rows..][..geom.rows])
    }

    /// Crossbar cells this compiled state holds (`rows × physical cols`).
    #[must_use]
    pub fn cells(&self) -> usize {
        self.compiled.rows() * self.compiled.cols()
    }

    /// The tile's PCM programming report (what programming this state
    /// cost when it was compiled).
    #[must_use]
    pub fn program(&self) -> ProgramReport {
        self.program
    }

    /// Executes all pixel drives as one batched MVM (with the
    /// duplicate-window cache unless `dedupe` is off), recovers signed
    /// partial sums and writes every intermediate into a caller-owned
    /// [`ExecArena`] — the allocation-free serving hot path. A warm arena
    /// (one that has already served a tile of this size) is reused
    /// without touching the heap; the results land in
    /// [`ExecArena::partials`] as a flat `pixels × logical cols` matrix
    /// (the tile's logical columns `c` are output channels
    /// `col_offset + c` within its group), byte-identical for any arena
    /// history. `config` must be the one the tile was compiled under.
    ///
    /// # Panics
    ///
    /// Panics if the drive's window length disagrees with the tile rows.
    pub fn execute_into(
        &self,
        drive: &TileDrive,
        config: &SimConfig,
        dedupe: bool,
        arena: &mut ExecArena,
    ) {
        let readout = ReadoutChain::new(config, self.compiled.rows());
        execute_crossbar(&self.compiled, drive, config, &readout, dedupe, arena);
    }
}

/// The one execution path of a compiled tile, cached or dynamic: drives
/// `drive`'s windows through `compiled` (compiled under `config`) as one
/// batched MVM, digitizes through `readout` (the tile's readout chain),
/// and recovers each pixel's signed partials into
/// [`ExecArena::partials`].
pub(crate) fn execute_crossbar(
    compiled: &CompiledCrossbar,
    drive: &TileDrive,
    config: &SimConfig,
    readout: &ReadoutChain,
    dedupe: bool,
    arena: &mut ExecArena,
) {
    let rows = compiled.rows();
    let pcols = compiled.cols();
    assert_eq!(drive.rows(), rows, "windows must match tile rows");
    let v_max = config.v_max() as f64;
    let pixels = drive.pixels();

    // Index every drive window (all positive passes, then all negative
    // passes) into a deduplicated window list, via the arena's
    // open-addressing table (≤ 0.5 load factor, linear probing over
    // the window bytes). The cache is adaptive: if the first windows
    // show no duplicates at all (e.g. an unpadded conv), hashing is
    // turned off for the rest — the result is identical either way,
    // only the work differs.
    const DEDUPE_PROBE: usize = 64;
    let mut dedupe = dedupe;
    let window_count = pixels * if drive.has_negative() { 2 } else { 1 };
    arena.unique_of.clear();
    arena.uniques.clear();
    let table_len = (2 * window_count).next_power_of_two();
    arena.table.clear();
    arena.table.resize(table_len, u32::MAX);
    let mask = table_len.wrapping_sub(1);
    for w in 0..window_count {
        let bytes = drive.window(w);
        let id = if dedupe {
            let mut idx = (hash_window(bytes) as usize) & mask;
            let id = loop {
                let slot = arena.table[idx];
                if slot == u32::MAX {
                    let id = u32::try_from(arena.uniques.len()).expect("window count fits u32");
                    arena.table[idx] = id;
                    arena.uniques.push(w as u32);
                    break id;
                }
                if drive.window(arena.uniques[slot as usize] as usize) == bytes {
                    break slot;
                }
                idx = (idx + 1) & mask;
            };
            if w + 1 == DEDUPE_PROBE && arena.uniques.len() == DEDUPE_PROBE {
                dedupe = false;
            }
            id
        } else {
            arena.uniques.push(w as u32);
            (arena.uniques.len() - 1) as u32
        };
        arena.unique_of.push(id);
    }

    // One batched MVM over the flat row-major drive matrix of the
    // unique windows. All-dark windows skip the analog chain entirely
    // (they produce exactly zero in every column). Every buffer is
    // fully rewritten, so stale arena contents can never leak into
    // results.
    let n_uniques = arena.uniques.len();
    arena.drives.resize(n_uniques * rows, 0.0);
    arena.dark.clear();
    arena.dark.resize(n_uniques, false);
    for (u, &windex) in arena.uniques.iter().enumerate() {
        let window = drive.window(windex as usize);
        let dst = &mut arena.drives[u * rows..][..rows];
        if window.iter().all(|&v| v == 0) {
            arena.dark[u] = true;
            dst.fill(0.0);
            continue;
        }
        for (d, &v) in dst.iter_mut().zip(window) {
            *d = f64::from(v) / v_max;
        }
    }
    arena.ys.resize(n_uniques * pcols, 0.0);
    compiled.run_normalized_batch_with(&arena.drives, &mut arena.ys, &mut arena.scratch);

    // Digitize the batched column outputs and recover each unique
    // window's signed partials once, into a flat matrix.
    let lcols = pcols / config.mapping.columns_per_output();
    let q = i64::from(config.q());
    arena.raw.resize(pcols, 0);
    arena.recovered.resize(n_uniques * lcols, 0);
    for (u, &windex) in arena.uniques.iter().enumerate() {
        if arena.dark[u] {
            arena.raw.fill(0);
        } else {
            for (r, &y) in arena.raw.iter_mut().zip(&arena.ys[u * pcols..][..pcols]) {
                *r = readout.digitize(y);
            }
        }
        config.mapping.recover_into(
            q,
            &arena.raw,
            drive.window(windex as usize),
            &mut arena.recovered[u * lcols..][..lcols],
        );
    }

    // Assemble per-pixel partials — positive pass minus (optional)
    // negative pass — recovered straight into the flat partials
    // matrix, no per-pixel buffers.
    arena.partials.resize(pixels * lcols, 0);
    let (unique_of, recovered, partials) =
        (&arena.unique_of, &arena.recovered, &mut arena.partials);
    for (p, out) in partials.chunks_exact_mut(lcols).enumerate() {
        let pos = &recovered[unique_of[p] as usize * lcols..][..lcols];
        if drive.has_negative() {
            let neg = &recovered[unique_of[pixels + p] as usize * lcols..][..lcols];
            for (o, (&a, &b)) in out.iter_mut().zip(pos.iter().zip(neg)) {
                *o = a - b;
            }
        } else {
            out.copy_from_slice(pos);
        }
    }
}

/// A tile's codes column-major (`cols × rows` flat), the layout every
/// compile reads them in.
fn column_major(tile: &WeightTile) -> Vec<i8> {
    (0..tile.cols())
        .flat_map(|c| tile.values.iter().map(move |row| row[c]))
        .collect()
}

/// Executes one weight tile against its input windows on the field-walk
/// oracle ([`MvmEngine::FieldWalk`]), caching nothing.
///
/// The tile is programmed through the same per-cell rule and write
/// stream every compiled tile uses, but its crossbar is a seeded
/// [`CrossbarSimulator`] that draws its own phase errors and walks each
/// window's fields cell by cell — an independent check on the compiled
/// gains and on remembered phase draws. Each column is read out and
/// recovered to signed integer partial sums, which land in
/// [`ExecArena::partials`] as [`CompiledTile::execute_into`] leaves
/// them. Returns the tile's programming report.
///
/// # Panics
///
/// Panics if the drive's window lengths disagree with the tile geometry.
pub fn run_tile_with(
    tile: &WeightTile,
    drive: &TileDrive,
    config: &SimConfig,
    seed: u64,
    arena: &mut ExecArena,
) -> ProgramReport {
    let (rows, cols) = (tile.rows(), tile.cols());
    assert_eq!(drive.rows(), rows, "windows must match tile rows");
    let pcols = cols * config.mapping.columns_per_output();
    let noise = TileNoise::for_tile(config, seed, rows * pcols);
    let writer = TileWriter::new(config, &config.level_table(), config.noise.drift_elapsed);
    let values = column_major(tile);
    let mut buffers = CompileBuffers::default();
    let program = writer.program(
        rows,
        cols,
        |c| &values[c * rows..][..rows],
        &noise,
        &mut buffers,
    );
    let transmissions: Vec<Vec<f64>> = buffers
        .reads
        .chunks_exact(pcols)
        .map(<[f64]>::to_vec)
        .collect();
    let sim =
        CrossbarSimulator::new(crossbar_config(config, rows, pcols).with_phase_error_seed(seed));
    let readout = ReadoutChain::new(config, rows);
    let v_max = config.v_max() as f64;
    let q = i64::from(config.q());
    let recover = |codes: &[u8], out: &mut [i64]| {
        let raw: Vec<i64> = if codes.iter().all(|&v| v == 0) {
            // An all-dark drive produces exactly zero in every column.
            vec![0; pcols]
        } else {
            let inputs: Vec<f64> = codes.iter().map(|&v| f64::from(v) / v_max).collect();
            sim.run_normalized(&inputs, &transmissions)
                .iter()
                .map(|&y| readout.digitize(y))
                .collect()
        };
        config.mapping.recover_into(q, &raw, codes, out);
    };
    let mut negative_pass = vec![0; cols];
    arena.partials.clear();
    arena.partials.resize(drive.pixels() * cols, 0);
    for (p, partial) in arena.partials.chunks_exact_mut(cols).enumerate() {
        recover(drive.positive(p), partial);
        if let Some(negative) = drive.negative(p) {
            recover(negative, &mut negative_pass);
            for (r, n) in partial.iter_mut().zip(&negative_pass) {
                *r -= n;
            }
        }
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use oxbar_dataflow::tiles::WeightTiles;
    use oxbar_dataflow::FoldPlan;
    use oxbar_nn::synthetic;
    use oxbar_nn::{Conv2d, TensorShape};

    /// A one-pixel drive: `positive`, plus a negative pass if given.
    fn one_window(positive: &[u8], negative: Option<&[u8]>) -> TileDrive {
        TileDrive::new(
            positive.len(),
            positive.to_vec(),
            negative.map(<[u8]>::to_vec),
        )
    }

    /// Compiles `tile` at `seed` and executes `drive` through it: the
    /// per-pixel partials and the tile's programming report.
    fn run(
        tile: &WeightTile,
        drive: &TileDrive,
        config: &SimConfig,
        seed: u64,
    ) -> (Vec<i64>, ProgramReport) {
        let compiled = CompiledTile::compile(tile, config, seed);
        let mut arena = ExecArena::default();
        compiled.execute_into(drive, config, true, &mut arena);
        (arena.partials().to_vec(), compiled.program())
    }

    fn signed_mac(tile: &WeightTile, window: &[i64]) -> Vec<i64> {
        (0..tile.cols())
            .map(|c| {
                (0..tile.rows())
                    .map(|r| i64::from(tile.values[r][c]) * window[r])
                    .sum()
            })
            .collect()
    }

    #[test]
    fn ideal_tile_is_bit_exact_for_unsigned_windows() {
        let conv = Conv2d::new("c", TensorShape::new(1, 1, 40), 1, 1, 12, 1, 0);
        let bank = synthetic::filter_bank(&conv, 6, 3);
        let plan = FoldPlan::plan(&conv, 32, 8, 1);
        let config = SimConfig::ideal(32, 8);
        let tiles: Vec<_> = WeightTiles::new(&conv, &bank.weights, &plan).collect();
        assert!(tiles.len() > 1, "fold coverage");
        for (t, tile) in tiles.iter().enumerate() {
            let window: Vec<u8> = (0..tile.rows()).map(|r| (r * 7 % 64) as u8).collect();
            let drive = one_window(&window, None);
            let (partials, program) = run(tile, &drive, &config, 99 + t as u64);
            let expected = signed_mac(
                tile,
                &window.iter().map(|&v| i64::from(v)).collect::<Vec<_>>(),
            );
            assert_eq!(partials, expected, "tile {t}");
            assert_eq!(
                program.cells_programmed,
                tile.rows() * tile.cols(),
                "offset mapping programs one cell per weight"
            );
        }
    }

    #[test]
    fn signed_windows_split_into_two_passes_exactly() {
        let conv = Conv2d::new("c", TensorShape::new(1, 1, 24), 1, 1, 6, 1, 0);
        let bank = synthetic::filter_bank(&conv, 6, 11);
        let plan = FoldPlan::plan(&conv, 32, 8, 1);
        let tile = WeightTiles::new(&conv, &bank.weights, &plan)
            .next()
            .unwrap();
        let window: Vec<i64> = (0..tile.rows() as i64).map(|r| (r % 13) - 6).collect();
        let positive: Vec<u8> = window.iter().map(|&v| v.max(0) as u8).collect();
        let negative: Vec<u8> = window.iter().map(|&v| (-v).max(0) as u8).collect();
        let drive = one_window(&positive, Some(&negative));
        let config = SimConfig::ideal(32, 8);
        assert_eq!(run(&tile, &drive, &config, 5).0, signed_mac(&tile, &window));
    }

    #[test]
    fn differential_mapping_is_also_exact() {
        use oxbar_nn::mapping::WeightMapping;
        let conv = Conv2d::new("c", TensorShape::new(1, 1, 16), 1, 1, 4, 1, 0);
        let bank = synthetic::filter_bank(&conv, 6, 21);
        let plan = FoldPlan::plan(&conv, 32, 16, 2);
        let tile = WeightTiles::new(&conv, &bank.weights, &plan)
            .next()
            .unwrap();
        let window: Vec<u8> = (0..tile.rows()).map(|r| (r * 11 % 64) as u8).collect();
        let drive = one_window(&window, None);
        let config = SimConfig::ideal(32, 16).with_mapping(WeightMapping::Differential);
        let expected = signed_mac(
            &tile,
            &window.iter().map(|&v| i64::from(v)).collect::<Vec<_>>(),
        );
        assert_eq!(run(&tile, &drive, &config, 1).0, expected);
    }

    #[test]
    fn noise_perturbs_but_stays_reproducible() {
        let conv = Conv2d::new("c", TensorShape::new(1, 1, 64), 1, 1, 8, 1, 0);
        let bank = synthetic::filter_bank(&conv, 6, 31);
        let plan = FoldPlan::plan(&conv, 64, 8, 1);
        let tile = WeightTiles::new(&conv, &bank.weights, &plan)
            .next()
            .unwrap();
        let window: Vec<u8> = (0..tile.rows()).map(|r| (r * 5 % 64) as u8).collect();
        let drive = one_window(&window, None);
        let config = SimConfig::noisy(64, 8);
        let partials = |seed| run(&tile, &drive, &config, seed).0;
        let a = partials(77);
        assert_eq!(a, partials(77), "same seed, same result");
        assert_ne!(a, partials(78), "different seed perturbs");
        let exact = signed_mac(
            &tile,
            &window.iter().map(|&v| i64::from(v)).collect::<Vec<_>>(),
        );
        assert_ne!(a, exact, "noise shifts the MAC");
        // ... but not catastrophically: within a few percent of full scale.
        let full_scale = tile.rows() as f64 * 63.0 * 31.0;
        for (got, want) in a.iter().zip(&exact) {
            assert!(((got - want).abs() as f64) < 0.05 * full_scale);
        }
    }
}
