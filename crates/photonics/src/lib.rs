//! Component-level silicon-photonics substrate for the `oxbar` coherent
//! crossbar accelerator.
//!
//! This crate models the photonic devices of Sturm & Moazeni (DATE 2023)
//! §III at the E-field level: directional couplers, MMI waveguide crossings,
//! waveguides, splitter trees, grating couplers, ring-resonator optical DACs
//! (ODACs) inside ring-assisted MZIs (RAMZI), thermal phase shifters,
//! balanced coherent photodetectors, and the loss/noise budgets that size the
//! laser.
//!
//! The centerpiece is [`crossbar::CrossbarSimulator`], which propagates
//! complex fields through an N×M array of PCM unit cells and numerically
//! reproduces the paper's Eq. (1):
//!
//! ```text
//! E_c[j] = (E_laser / (N · √M)) · Σ_i v_in[i] · w[i][j]
//! ```
//!
//! # Examples
//!
//! ```
//! use oxbar_photonics::crossbar::{CrossbarConfig, CrossbarSimulator};
//!
//! let sim = CrossbarSimulator::ideal(CrossbarConfig::new(4, 4));
//! let weights = vec![vec![0.5; 4]; 4];
//! let inputs = vec![1.0, 0.25, 0.75, 0.0];
//! let outputs = sim.run(&inputs, &weights);
//! let ideal = sim.ideal_outputs(&inputs, &weights);
//! for (o, i) in outputs.iter().zip(&ideal) {
//!     assert!((o.amplitude() - i.amplitude()).abs() < 1e-12);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod coupler;
pub mod coupling;
pub mod crossbar;
pub mod crossing;
pub mod crosstalk;
pub mod detector;
pub mod field;
pub mod grating;
pub mod laser;
pub mod loss;
pub mod noise;
pub mod odac;
pub mod phase_shifter;
pub mod ramzi;
pub mod snr;
pub mod splitter;
pub mod transfer;
pub mod waveguide;

pub use complex::Complex;
pub use field::{Field, FieldOp};
pub use transfer::{BatchScratch, CompiledCrossbar};

#[cfg(test)]
mod proptests;
