//! Reusable execution scratch for the weight-stationary serving hot path.
//!
//! A warm tile execution touches half a dozen working buffers: the im2col
//! drive matrix, the duplicate-window dedupe index, the normalized drive
//! and column-output matrices of the batched MVM, the recovered signed
//! partials, and the digital accumulator lanes. Allocating them per call
//! put the heap allocator on the serving critical path; an [`ExecArena`]
//! owns all of them, grows each buffer to the largest tile it has served,
//! and is pooled per executor (checked out per tile job, returned after
//! accumulation), so a warm batch round performs **zero** heap
//! allocations in [`crate::tile::CompiledTile::execute_into`] — the
//! property `crates/sim/tests/alloc_regression.rs` pins with a counting
//! global allocator.
//!
//! The attention path's dynamic tiles are compiled into the arena too
//! (level codes, cell reads, geometry factors and gain planes), so a warm
//! dynamic MVM programs, compiles and executes without per-tile heap
//! buffers.
//!
//! Arenas carry no results across calls: every buffer is fully rewritten
//! by the execution that borrows it, so pooling can never change results
//! — only where the bytes live.

use crate::executor::Tap;
use crate::tile::{CompileBuffers, TileDrive};
use oxbar_photonics::transfer::BatchScratch;

/// Reusable scratch for one tile execution (and, at the executor level,
/// one layer's digital accumulation).
///
/// See the [module docs](self) for the role each buffer plays. Obtain one
/// with [`ExecArena::default`] and pass it to
/// [`crate::tile::CompiledTile::execute_into`]; executors keep an
/// internal pool and never expose theirs.
#[derive(Debug)]
pub struct ExecArena {
    /// Per-window id into `uniques` (`window_count` long).
    pub(crate) unique_of: Vec<u32>,
    /// First-occurrence window index of each deduplicated window.
    pub(crate) uniques: Vec<u32>,
    /// Open-addressing dedupe table over window bytes (`u32::MAX` =
    /// empty; power-of-two sized, ≥ 2× the window count).
    pub(crate) table: Vec<u32>,
    /// Flat normalized drive matrix of the unique windows
    /// (`uniques × rows`).
    pub(crate) drives: Vec<f64>,
    /// Whether each unique window is all-dark (skips the analog chain).
    pub(crate) dark: Vec<bool>,
    /// Flat normalized column outputs (`uniques × physical cols`).
    pub(crate) ys: Vec<f64>,
    /// The MVM kernel's interleaved copy of `drives`.
    pub(crate) scratch: BatchScratch,
    /// One window's digitized physical-column outputs.
    pub(crate) raw: Vec<i64>,
    /// Recovered signed partials of the unique windows
    /// (`uniques × logical cols`).
    pub(crate) recovered: Vec<i64>,
    /// The execution's output: per-pixel signed partials
    /// (`pixels × logical cols`, row-major).
    pub(crate) partials: Vec<i64>,
    /// Reusable im2col drive buffers (executor-level).
    pub(crate) drive: TileDrive,
    /// Reusable per-row im2col taps (executor-level).
    pub(crate) taps: Vec<Tap>,
    /// Raw accumulator lanes for the executor's hot-path partial-sum
    /// reduction (`inputs × pixel_slots × out_channels`, saturated once at
    /// extraction; see
    /// [`oxbar_electronics::accumulator::Accumulator::saturation_limit`]).
    pub(crate) lanes: Vec<i64>,
    /// The buffers a dynamic tile compiles through, gain planes included
    /// (executor-level; never cached).
    pub(crate) compile: CompileBuffers,
}

impl Default for ExecArena {
    fn default() -> Self {
        Self {
            unique_of: Vec::new(),
            uniques: Vec::new(),
            table: Vec::new(),
            drives: Vec::new(),
            dark: Vec::new(),
            ys: Vec::new(),
            scratch: BatchScratch::default(),
            raw: Vec::new(),
            recovered: Vec::new(),
            partials: Vec::new(),
            drive: TileDrive::empty(),
            taps: Vec::new(),
            lanes: Vec::new(),
            compile: CompileBuffers::default(),
        }
    }
}

impl ExecArena {
    /// The per-pixel signed partials the last
    /// [`crate::tile::CompiledTile::execute_into`] (or field-walk
    /// [`crate::tile::run_tile_with`]) wrote, as a flat `pixels × cols`
    /// row-major matrix.
    #[must_use]
    pub fn partials(&self) -> &[i64] {
        &self.partials
    }
}
