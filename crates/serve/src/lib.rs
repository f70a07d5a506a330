//! **Batched multi-model inference serving** for the `oxbar` coherent
//! optical crossbar — the engine layer above the device-level simulator.
//!
//! [`oxbar_sim::DeviceExecutor`] runs one network on one image,
//! synchronously. Real photonic-accelerator deployments are *serving*
//! systems: many concurrent requests against several resident models,
//! with the non-volatile PCM crossbars acting as a weight-stationary
//! cache — programming a tile is expensive, reusing it is nearly free.
//! This crate builds that layer:
//!
//! ```text
//! clients        InferRequest { model, input, arrival, deadline }
//!    │                    │ try_submit()
//! ServeEngine    submission queue (tick-ordered)
//!    │                    │ drain_traced()
//! batcher        form_batches(): same-model coalescing, size + window caps
//!    │                    │
//! scheduler      route_rounds(): chip-aware rounds as wide as the
//!    │           cluster; each round's batches run through one
//!    │           order-preserving parallel_map pool
//!    │                    │
//! cluster        model→chip placement, per-chip cell budgets (LRU model
//!    │           eviction; migration before evicting), chip health and
//!    │           the chip-kill FaultPlan; prewarm() programs a model
//!    │           ahead of traffic where its chip holds it
//!    │                    │
//! oxbar-sim      device-level forward per request (PCM → photonics → ADC;
//!    │           a tile is programmed by the first batch that reads it)
//!    └──────────▶ Completion { output, batch_seq, batch_size }
//! ```
//!
//! # Determinism
//!
//! The engine is deterministic end to end: time is abstract ticks, every
//! stochastic quantity hangs off a stable key (model admission seeds for
//! device noise, [`request::request_seed`] for trace synthesis), and
//! caching/eviction/batching change only *work*, never results. A
//! batched drain with any batch policy is byte-identical to a serial
//! one-request-at-a-time replay — including under [`SimConfig::noisy`]
//! device physics. Rounds are as wide as the cluster, so the worker
//! count only picks threads: every completion, shed and counter is the
//! same at any worker count. `tests/determinism.rs`, the proptest in
//! `tests/oracle.rs` and the scenario property in `tests/scenarios/`
//! pin this down.
//!
//! # Examples
//!
//! Serve a two-model mix and inspect the weight-stationary behavior:
//!
//! ```
//! use oxbar_serve::loadgen::{MixEntry, OpenLoop};
//! use oxbar_serve::{catalog, ServeConfig, ServeEngine};
//! use oxbar_sim::SimConfig;
//!
//! let mut engine = ServeEngine::new(ServeConfig::new(SimConfig::ideal(64, 64)));
//! let lenet = engine.admit(catalog::lenet5_model()).unwrap();
//! let mobile = engine.admit(catalog::mobilenet_sample()).unwrap();
//!
//! let load = OpenLoop {
//!     mix: vec![
//!         MixEntry { model: lenet, weight: 1 },
//!         MixEntry { model: mobile, weight: 1 },
//!     ],
//!     requests: 8,
//!     interarrival: 1,
//!     seed: 7,
//!     deadline_slack: None,
//! };
//! for request in load.trace(|m| engine.input_shape(m)) {
//!     engine.try_submit(request).unwrap();
//! }
//! let completions = engine.drain_traced().completions;
//! assert_eq!(completions.len(), 8);
//!
//! let stats = engine.stats();
//! assert_eq!(stats.requests, 8);
//! assert!(stats.mean_batch_size() > 1.0, "same-model requests coalesced");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod catalog;
pub mod cluster;
pub mod engine;
pub mod loadgen;
pub mod protocol;
pub mod registry;
pub mod request;
pub mod server;
mod session;

pub use batcher::{form_batches, route_rounds, Batch, BatchPolicy};
pub use cluster::{ChipHealth, ChipId, ChipStats, Cluster, FaultPlan, PlacementPolicy};
pub use engine::{
    DrainTrace, EngineStats, ServeConfig, ServeEngine, ShedNotice, SubmitError, MAX_SEQUENCE_STEPS,
};
pub use loadgen::{LatencySummary, MixEntry, OpenLoop};
pub use protocol::{
    Client, ClientError, ClientFrame, ErrorCode, FrameError, ServerFrame, WireModel, WireToken,
};
pub use registry::{AdmitError, ModelCacheStats, ModelSpec};
pub use request::{Completion, InferRequest, ModelId, RequestId, SequenceId, TokenCompletion};
pub use server::{Server, ServerConfig};

// Re-exported so doctests and downstream callers can name the device
// configuration without importing `oxbar-sim` separately.
pub use oxbar_sim::SimConfig;
