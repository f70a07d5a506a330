//! End-to-end **device-level network inference** for the `oxbar`
//! coherent optical crossbar: the first code path that crosses every
//! domain crate of the workspace in a single run.
//!
//! A forward pass flows through the full physical chain:
//!
//! ```text
//! oxbar-nn        network graph + INT6 quantization + signed→unipolar mapping
//!    │
//! oxbar-dataflow  fold/tile plan (FoldPlan + WeightTiles) over the N×M array
//!    │
//! oxbar-pcm       per-tile PCM programming (variation / drift optional)
//!    │
//! oxbar-photonics field-level CrossbarSimulator MVM per tile
//!    │
//! oxbar-electronics TIA + ADC readout, digital partial-sum accumulation
//!    │
//! oxbar-nn        digital pooling / activation / requantization
//!    └──────────▶ compared against reference::Executor (exact integers)
//! ```
//!
//! In [`SimConfig::ideal`] mode the chain is **bit-for-bit identical** to
//! the exact integer reference executor (idealized PCM device, exact
//! readout); [`SimConfig::noisy`] turns on programming variation, drift,
//! phase error, losses, and a 12-bit TIA/ADC front end, and
//! [`run_inference`] reports the per-layer and per-network erosion
//! (error rate, max |Δ|, top-1 agreement).
//!
//! Per-tile execution is parallelized with the order-preserving
//! [`oxbar_core::dse::parallel_map`] and seeded per tile
//! ([`config::tile_seed`]), so parallel runs are byte-identical to serial
//! ones.
//!
//! Each programmed tile is a fixed linear operator, so the default
//! [`MvmEngine::Compiled`] engine compiles it once into a transfer matrix
//! ([`oxbar_photonics::transfer::CompiledCrossbar`]) and executes all pixel
//! drives as batched dense MVMs behind a duplicate-window cache. The
//! executor keeps compiled tiles across pixel batches and images
//! (weight-stationary, like the PCM hardware itself), validating every
//! cache hit against the tile's exact weights, and
//! [`DeviceExecutor::try_forward_batch`] runs a batch of images
//! batch-major: each tile is resolved once per batch and drives every
//! image's windows, byte-identical to one forward per image. The
//! cell-by-cell field walk remains available as the validation oracle via
//! [`MvmEngine::FieldWalk`] (see the `device_mvm` bench for the measured
//! speedup).
//!
//! The warm path is **allocation-free**: every per-execution buffer lives
//! in a pooled [`ExecArena`] (see [`arena`]). A tile is programmed by the
//! first forward that reads it (parallel across tiles, deterministic
//! per-tile seeds), so a serving layer moves PCM programming off its
//! critical path by running one forward of a model before its traffic.
//! PCM is non-volatile, so the compiled tiles *are* a model's chip state:
//! [`DeviceExecutor::rehome`] moves an executor to another chip's cell
//! budget with its tiles, recompiling nothing, and it answers byte for
//! byte as before.
//!
//! # Examples
//!
//! ```
//! use oxbar_nn::synthetic;
//! use oxbar_nn::zoo::lenet5;
//! use oxbar_sim::{run_inference, SimConfig};
//!
//! let net = lenet5();
//! let images = vec![synthetic::activations(net.input(), 6, 9)];
//! let filters = synthetic::filter_banks(&net, 6, 10);
//!
//! // LeNet-5 through PCM → photonics → readout, bit-exact in ideal mode:
//! let ideal = run_inference(&net, &SimConfig::ideal(128, 128), &images, &filters).unwrap();
//! assert!(ideal.exact);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod config;
pub mod executor;
pub mod fidelity;
pub mod llm;
pub mod probe;
pub mod tile;

pub use arena::ExecArena;
pub use config::{NoiseModel, Readout, SimConfig};
pub use executor::{
    CacheStats, DeviceExecutor, DeviceForward, LayerExecution, LayerStats, TileDriftInfo,
};
pub use fidelity::{run_inference, InferenceFidelity, LayerFidelity};
pub use llm::{lm_steps, DeviceLmEngine, ExecError};
pub use probe::{probe_conv, LayerProbe};
pub use tile::MvmEngine;

#[cfg(test)]
mod proptests;
