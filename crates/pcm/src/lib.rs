//! Phase-change-material (PCM) photonic memory substrate for the `oxbar`
//! crossbar.
//!
//! The paper stores crossbar weights in µm-long GST patches on the unit-cell
//! waveguides (§III.A.1): the crystalline fraction of the patch sets its
//! optical absorption, hence the E-field transmission `w ∈ [0, 1]`, in a
//! non-volatile fashion. This crate models:
//!
//! * [`cell::PcmCell`] — the device: crystalline fraction → field
//!   transmission, with programming pulses (~100 pJ, ~100 ns, refs. \[7\], \[8\]).
//! * [`levels::LevelTable`] — the 64-level (INT6) weight quantization the
//!   accelerator uses and its inverse device mapping.
//! * [`program::ProgramVerifyController`] — closed-loop iterative
//!   programming under device variation.
//! * [`array::PcmArray`] — whole-array programming with configurable
//!   parallelism and delta-programming, producing the time/energy numbers
//!   the system model consumes.
//! * [`drift::DriftModel`] — amorphous-phase drift and its effect on stored
//!   weights.
//!
//! # Non-volatility is the system-level contract
//!
//! Higher layers lean on the fact that a GST patch holds its state with
//! zero standby power: a model's state on a chip is its programmed INT6
//! codes, so `oxbar-sim` moves an executor's programmed tiles to another
//! chip unchanged (`DeviceExecutor::rehome`), and `oxbar-serve` migrates
//! and recovers whole models that way instead of paying the ~100 pJ /
//! ~100 ns-per-cell reprogramming cost modeled here.
//!
//! # Examples
//!
//! ```
//! use oxbar_pcm::array::{Parallelism, PcmArray};
//!
//! let mut array = PcmArray::pristine(4, 4);
//! let weights = vec![vec![0.5; 4]; 4];
//! let report = array.program(&weights, Parallelism::FullArray);
//! assert_eq!(report.cells_programmed, 16);
//! assert!((report.time.as_nanoseconds() - 100.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod cell;
pub mod drift;
pub mod levels;
pub mod program;
pub mod pulse;
pub mod variation;

pub use array::{PcmArray, ProgramReport};
pub use cell::PcmCell;
pub use levels::LevelTable;

#[cfg(test)]
mod proptests;
